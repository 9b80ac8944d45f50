"""Power-product expressions: chain rule, clearing, numeric faithfulness."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kropinaflat import MultiPoly, PowerExpr, parse


def X(text: str, n: int = 2) -> MultiPoly:
    return parse(text, n)


A_CUBIC = "y1^3 + y1*y2^2 + y2^3"


def test_exponent_denominator_must_divide_m():
    a = X(A_CUBIC)
    with pytest.raises(ValueError):
        PowerExpr.single(3, a, X("y1"), X("1"), Fraction(1, 2), 0)


def test_merge_and_zero_drop():
    a, b = X(A_CUBIC), X("y1")
    one = X("1")
    e = PowerExpr(3, a, b, {(Fraction(1, 3), 0): one})
    e2 = e + PowerExpr(3, a, b, {(Fraction(1, 3), 0): -one})
    assert e2.is_zero()
    e3 = e + e
    assert e3.terms == {(Fraction(1, 3), 0): X("2")}


def test_diff_no_x_dependence_vanishes():
    # constant-coefficient A and beta: d/dx of A^(4/3) beta^-2 is zero
    e = PowerExpr.single(3, X(A_CUBIC), X("y1"), X("1"), Fraction(4, 3), -2)
    assert e.diff("x", 1).is_zero()


def test_diff_pure_poly_term_reduces_to_d_dy():
    a = X(A_CUBIC)
    e = PowerExpr.single(3, a, X("y1"), a, Fraction(0), 0)
    expected = PowerExpr.single(3, a, X("y1"), a.diff_y(1), Fraction(0), 0)
    assert e.diff("y", 1) == expected


def test_diff_chain_rule_full():
    # d/dy1 of A^(4/3) y1^-2 = (4/3) A^(1/3) A_1 y1^-2 - 2 A^(4/3) y1^-3
    a, b = X(A_CUBIC), X("y1")
    e = PowerExpr.single(3, a, b, X("1"), Fraction(4, 3), -2)
    got = e.diff("y", 1)
    expected = PowerExpr(
        3,
        a,
        b,
        {
            (Fraction(1, 3), -2): a.diff_y(1) * Fraction(4, 3),
            (Fraction(4, 3), -3): X("-2"),
        },
    )
    assert got == expected


def test_diff_rejects_bad_axis():
    e = PowerExpr.single(3, X(A_CUBIC), X("y1"), X("1"), Fraction(4, 3), -2)
    with pytest.raises(ValueError):
        e.diff("z", 1)
    with pytest.raises(IndexError):
        e.diff("y", 5)


def test_normalize_clears_prefactor():
    a, b = X(A_CUBIC), X("y1")
    p = X("x1*y1 + y2")
    e = PowerExpr.single(3, a, b, p, Fraction(4, 3) - 2, -4)
    assert e.normalize(2 - Fraction(4, 3), 4) == p


def test_normalize_zero():
    e = PowerExpr.zero(3, X(A_CUBIC), X("y1"))
    assert e.normalize(Fraction(0), 0) == MultiPoly.zero(2)


def test_normalize_residual_fraction_is_not_polynomial():
    a, b = X(A_CUBIC), X("y1")
    e = PowerExpr.single(3, a, b, X("1"), Fraction(1, 3), 0)
    assert e.normalize(Fraction(0), 0) is None
    assert e.normalize(Fraction(-1, 3) - 1, 0) is None  # negative total exponent
    assert e.normalize(Fraction(2, 3), 0) == a


def test_normalize_expands_integer_powers():
    a, b = X(A_CUBIC), X("y1")
    e = PowerExpr.single(3, a, b, X("1"), Fraction(1), 2)
    assert e.normalize(Fraction(1), 1) == a * a * b * b * b


def _float_value(e: PowerExpr, xs, ys) -> float:
    """e at a point where A > 0 and beta != 0, in floats, term by term."""
    a_val = float(e.ref_a.evaluate(xs, ys))
    b_val = float(e.ref_b.evaluate(xs, ys))
    return sum(
        float(poly.evaluate(xs, ys)) * a_val ** float(a_exp) * b_val ** b_exp
        for (a_exp, b_exp), poly in e.terms.items()
    )


def _random_pexpr(rng: random.Random) -> PowerExpr:
    n, m = 2, 3
    a = X(A_CUBIC)
    b = X("y1 + y2")
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a_exp = Fraction(rng.randint(-2, 4), rng.choice([1, 3]))
        b_exp = rng.randint(-3, 2)
        poly = MultiPoly.const(n, rng.randint(1, 3))
        if rng.random() < 0.5:
            poly = poly * MultiPoly.var_y(n, rng.randint(1, n))
        terms[(a_exp, b_exp)] = terms.get((a_exp, b_exp), MultiPoly.zero(n)) + poly
    return PowerExpr(m, a, b, terms)


def test_diff_agrees_with_central_difference():
    # numeric faithfulness: diff vs finite differences of the float value
    rng = random.Random(41)
    h = Fraction(1, 10000)
    xs = (Fraction(1, 2), Fraction(1, 3))
    ys = (Fraction(1), Fraction(1, 2))  # A > 0 and beta > 0 near this point
    checked = 0
    for _ in range(25):
        e = _random_pexpr(rng)
        for wrt, i in (("y", 1), ("y", 2), ("x", 1)):
            d = e.diff(wrt, i)
            if wrt == "x":
                plus = (xs[:i - 1] + (xs[i - 1] + h,) + xs[i:], ys)
                minus = (xs[:i - 1] + (xs[i - 1] - h,) + xs[i:], ys)
            else:
                plus = (xs, ys[:i - 1] + (ys[i - 1] + h,) + ys[i:])
                minus = (xs, ys[:i - 1] + (ys[i - 1] - h,) + ys[i:])
            numeric = (_float_value(e, *plus) - _float_value(e, *minus)) / (2.0 * float(h))
            symbolic = _float_value(d, xs, ys)
            scale = max(1.0, abs(symbolic), abs(numeric))
            assert abs(symbolic - numeric) / scale <= 1e-6
            checked += 1
    assert checked == 75
