"""Rational-function coefficients and exact division over Q(x)."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kropinaflat import MultiPoly, RatFunc, divide_exact_qx, parse
from test_poly import random_poly


def X(text: str, n: int = 2) -> MultiPoly:
    return parse(text, n)


def by_y_exponent(p: MultiPoly) -> dict:
    """p as {y-exponent: RatFunc coefficient}, the form of a divide_exact_qx quotient."""
    return {yexp: RatFunc(p.coefficient_of_y(yexp)) for yexp in p.y_monomials()}


def test_ratfunc_requires_y_free():
    with pytest.raises(ValueError):
        RatFunc(X("y1"), X("x1"))


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(X("x1"), MultiPoly.zero(2))


def test_equality_by_cross_multiplication():
    # x1/(1+x1) == (x1 + x1^2)/(1 + 2 x1 + x1^2) without any gcd step
    a = RatFunc(X("x1"), X("1 + x1"))
    b = RatFunc(X("x1 + x1^2"), X("1 + 2*x1 + x1^2"))
    assert a == b
    assert not (a == RatFunc(X("x1"), X("1 + 2*x1")))


def test_arithmetic():
    a = RatFunc(X("1"), X("1 + x1"))
    b = RatFunc(X("x1"), X("1 + x1"))
    assert a + b == RatFunc(X("1 + x1"), X("1 + x1")) == RatFunc.const(2, 1)
    assert (a * b) == RatFunc(X("x1"), X("1 + 2*x1 + x1^2"))
    assert a - a == RatFunc.const(2, 0)
    assert (a / b) == RatFunc(X("1"), X("x1"))
    with pytest.raises(ZeroDivisionError):
        a / RatFunc.const(2, 0)


def test_exact_cancellation_normalizes():
    # (x1^2 - 1)/(x1 - 1) reduces to the polynomial x1 + 1
    r = RatFunc(X("x1^2 - 1"), X("x1 - 1"))
    assert r.den == 1
    assert r.num == X("x1 + 1")


def test_divide_qx_conformal_example():
    # A_0 = y1 * A0(y), A = (1+x1) * A0(y): quotient is y1/(1+x1)
    a0_base = X("y1^3 + y1*y2^2 + y2^3")
    num = X("y1") * a0_base
    den = X("1 + x1") * a0_base
    q = divide_exact_qx(num, den)
    assert q == {(1, 0): RatFunc(X("1"), X("1 + x1"))}


def test_divide_qx_not_divisible():
    num = X("y1^4")
    den = X("(1 + x1)*y1^3 + y1*y2^2 + y2^3")
    assert divide_exact_qx(num, den) is None


def test_divide_qx_plain_polynomial_case():
    q = divide_exact_qx(X("y1^2 - y2^2"), X("y1 - y2"))
    assert q == by_y_exponent(X("y1 + y2"))


def test_divide_qx_distinct_denominators():
    # quotient components with different denominators:
    # (y1*(2+x2) + y2*(1+x1)) * A0  divided by  (1+x1)*(2+x2) * A0
    a0 = X("y1^3 + y1*y2^2 + y2^3")
    num = (X("y1") * X("2 + x2") + X("y2") * X("1 + x1")) * a0
    den = X("1 + x1") * X("2 + x2") * a0
    q = divide_exact_qx(num, den)
    assert q == {(1, 0): RatFunc(X("1"), X("1 + x1")), (0, 1): RatFunc(X("1"), X("2 + x2"))}


def test_divide_qx_soundness_random():
    # multiply back through a cleared common denominator
    rng = random.Random(31)
    done = 0
    for _ in range(60):
        n = rng.choice([2, 3])
        den = random_poly(rng, n, degree=2, terms=3)
        q_poly = random_poly(rng, n, degree=2, terms=3)
        if den.is_zero() or q_poly.is_zero():
            continue
        num = q_poly * den
        got = divide_exact_qx(num, den)
        assert got == by_y_exponent(q_poly)
        done += 1
    assert done > 25
