"""Sparse polynomial arithmetic: canonical form, calculus, exact division."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kropinaflat import MultiPoly, divide_exact, find_nonzero_point, parse


def P(text: str, n: int = 2) -> MultiPoly:
    return parse(text, n)


def random_poly(rng: random.Random, n: int, degree: int = 4, terms: int = 6) -> MultiPoly:
    poly = MultiPoly.zero(n)
    for _ in range(rng.randint(0, terms)):
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        mono = MultiPoly.const(n, coeff)
        for _ in range(rng.randint(0, degree)):
            idx = rng.randint(1, n)
            mono = mono * (
                MultiPoly.var_x(n, idx) if rng.random() < 0.5 else MultiPoly.var_y(n, idx)
            )
        poly = poly + mono
    return poly


# -- arithmetic ---------------------------------------------------------------

def test_add_inverse_is_zero():
    y1 = MultiPoly.var_y(2, 1)
    assert (y1 + (-y1)).is_zero()


def test_difference_of_squares():
    assert P("y1 - y2") * P("y1 + y2") == P("y1^2 - y2^2")


def test_binomial_square():
    assert P("1 + x1") ** 2 == P("1 + 2*x1 + x1^2")


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        P("y1") ** -1


def test_scalar_ops():
    assert P("y1") * 3 - P("y1") == P("2*y1")
    assert 2 + P("x1") == P("x1 + 2")


def test_canonical_equality_random():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng, rng.choice([2, 3]))
        q = random_poly(rng, p.n)
        assert ((p - q).is_zero()) == (p.terms == q.terms)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiPoly.var_y(2, 1) + MultiPoly.var_y(3, 1)


# -- derivatives --------------------------------------------------------------

def test_diff_x_linear_coefficient():
    assert P("(1 + x1)*y1^3").diff_x(1) == P("y1^3")


def test_diff_y_power_rule():
    p = P("y1^3 + y1*y2^2 + y2^3")
    assert p.diff_y(1) == P("3*y1^2 + y2^2")
    assert p.diff_y(2) == P("2*y1*y2 + 3*y2^2")


def test_diff_index_out_of_range():
    with pytest.raises(IndexError):
        P("y1").diff_y(3)
    with pytest.raises(IndexError):
        P("y1").diff_x(0)


def test_derivations_commute_random():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.choice([2, 3])
        p = random_poly(rng, n, degree=4)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        assert p.diff_y(i).diff_x(j) == p.diff_x(j).diff_y(i)


# -- homogeneity and evaluation ----------------------------------------------

def test_homogeneous_y_degree():
    assert P("y1^3 + y1*y2^2").homogeneous_y_degree() == 3
    assert P("(1 + x1)*y1^3").homogeneous_y_degree() == 3
    assert P("y1 + y2^2").homogeneous_y_degree() is None
    with pytest.raises(ValueError):
        MultiPoly.zero(2).homogeneous_y_degree()


def test_evaluate_examples():
    assert P("y1^3 + y1*y2^2 + y2^3").evaluate((0, 0), (1, 1)) == 3
    assert P("(1 + x1)*y1^3").evaluate((1, 0), (2, 0)) == 16
    assert MultiPoly.zero(2).evaluate((5, 5), (5, 5)) == 0


def test_evaluate_is_ring_morphism():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([2, 3])
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        xs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        ys = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        assert (p * q).evaluate(xs, ys) == p.evaluate(xs, ys) * q.evaluate(xs, ys)
        assert (p + q).evaluate(xs, ys) == p.evaluate(xs, ys) + q.evaluate(xs, ys)


H = Fraction(1e-4)  # the oracle's step: a denominator of 2^66


def _reference_value(p: MultiPoly, xs, ys, absolute: bool = False) -> Fraction:
    """Plain per-term Fraction evaluation, independent of MultiPoly.evaluate."""
    total = Fraction(0)
    for (yexp, xexp), c in p.terms.items():
        term = abs(c) if absolute else c
        for e, v in zip(yexp + xexp, tuple(ys) + tuple(xs)):
            term *= (abs(v) if absolute else v) ** e
        total += term
    return total


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10**4)
_coordinates = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5),
    _rationals,
    st.builds(lambda base, k: base + k * H, _rationals, st.integers(-2, 2)),
)


@st.composite
def _poly_and_point(draw):
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(st.tuples(exponents, exponents), _rationals, max_size=8))
    xs = tuple(draw(_coordinates) for _ in range(n))
    ys = tuple(draw(_coordinates) for _ in range(n))
    return MultiPoly(n, terms), xs, ys


@settings(max_examples=300, deadline=None)
@given(_poly_and_point())
def test_integer_evaluate_matches_per_term_fractions(case):
    p, xs, ys = case
    value = p.evaluate(xs, ys)
    assert isinstance(value, Fraction)
    assert value == _reference_value(p, xs, ys)
    assert p.evaluate_abs(xs, ys) == _reference_value(p, xs, ys, absolute=True)


def test_integer_evaluate_zero_and_constant_polynomials():
    point = ((Fraction(-3, 7) + H, Fraction(0)), (Fraction(5, 2) - H, Fraction(-1)))
    assert MultiPoly.zero(2).evaluate(*point) == 0
    assert MultiPoly.const(2, Fraction(-7, 3)).evaluate(*point) == Fraction(-7, 3)
    assert MultiPoly.const(2, Fraction(-7, 3)).evaluate_abs(*point) == Fraction(7, 3)
    with pytest.raises(ValueError):
        MultiPoly.const(2, 1).evaluate((0, 0, 0), (0,))


# -- packed products and trusted results ---------------------------------------

def _reference_product(a: MultiPoly, b: MultiPoly) -> dict:
    """Plain per-pair Fraction product over exponent tuples, independent of __mul__."""
    out: dict = {}
    for (ya, xa), ca in a.terms.items():
        for (yb, xb), cb in b.terms.items():
            mono = (tuple(i + j for i, j in zip(ya, yb)), tuple(i + j for i, j in zip(xa, xb)))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {mono: c for mono, c in out.items() if c != 0}


@st.composite
def _poly_pair(draw):
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    polys = st.dictionaries(st.tuples(exponents, exponents), _rationals, max_size=8)
    return MultiPoly(n, draw(polys)), MultiPoly(n, draw(polys))


@settings(max_examples=300, deadline=None)
@given(_poly_pair())
def test_packed_product_matches_per_pair_fractions(pair):
    a, b = pair
    product = a * b
    assert product.terms == _reference_product(a, b)
    assert all(type(c) is Fraction for c in product.terms.values())
    assert (b * a).terms == product.terms
    # The cross terms of (a + b)(a - b) cancel, and no zero sum may stay.
    assert ((a + b) * (a - b)).terms == _reference_product(a + b, a - b)


@pytest.mark.parametrize(
    "left, right, expected",
    [
        # Exponent sum beyond the 16-bit field: 70000 needs 17 bits.
        ("y1^40000*x1^3", "y1^30000", {((70000, 0), (3, 0)): 1}),
        # A field summing to exactly 2^16 - 1 still fits 16 bits.
        ("3*y1^40000*y2", "y1^25535 - x2", {((65535, 1), (0, 0)): 3, ((40000, 1), (0, 1)): -3}),
        # Exactly 2^16 would carry into y2 at 16 bits.
        ("3*y1^40000*y2", "y1^25536 - x2", {((65536, 1), (0, 0)): 3, ((40000, 1), (0, 1)): -3}),
        # Both operands at the limit, in the x-block's last field.
        ("1/2*x2^65535", "2*x2^65535 + y1", {((0, 0), (0, 131070)): 1, ((1, 0), (0, 65535)): Fraction(1, 2)}),
    ],
)
def test_packed_product_across_the_field_boundary(left, right, expected):
    a, b = P(left), P(right)
    want = {mono: Fraction(c) for mono, c in expected.items()}
    assert (a * b).terms == want
    assert (b * a).terms == want
    assert (a * b).terms == _reference_product(a, b)
    # The operands multiply correctly again afterwards at the default width.
    assert (a * a).terms == _reference_product(a, a)


def _results_of_trusted_ops(p: MultiPoly, q: MultiPoly) -> list[MultiPoly]:
    n = p.n
    out = [p * q, p + q, p - q, -p, p * Fraction(-3, 7), p * 2, p + 1, p - Fraction(1, 2)]
    for i in range(1, n + 1):
        out += [p.diff_x(i), p.diff_y(i)]
    return out


@settings(max_examples=200, deadline=None)
@given(_poly_pair())
def test_trusted_results_hold_only_nonzero_fractions(pair):
    p, q = pair
    for r in _results_of_trusted_ops(p, q) + _results_of_trusted_ops(q, p) + _results_of_trusted_ops(p, p):
        assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
        assert r == MultiPoly(r.n, dict(r.terms))


# -- exact division -----------------------------------------------------------

def test_divide_factorization():
    assert divide_exact(P("y1^2 - y2^2"), P("y1 - y2")) == P("y1 + y2")


def test_divide_leading_term_blocks():
    num = P("y1^4")
    den = P("(1 + x1)*y1^3 + y1*y2^2 + y2^3")
    assert divide_exact(num, den) is None


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divide_exact(P("y1"), MultiPoly.zero(2))


def test_division_soundness_random():
    rng = random.Random(11)
    found = 0
    for _ in range(150):
        n = rng.choice([2, 3])
        q = random_poly(rng, n, degree=3, terms=4)
        den = random_poly(rng, n, degree=3, terms=4)
        if den.is_zero():
            continue
        num = q * den
        got = divide_exact(num, den)
        assert got is not None
        assert got * den == num
        assert got == q
        found += 1
        # perturb the product: division must either fail or stay sound
        noise = random_poly(rng, n, degree=2, terms=2)
        got2 = divide_exact(num + noise, den)
        if got2 is not None:
            assert got2 * den == num + noise
    assert found > 50


# -- witness search -----------------------------------------------------------

def test_witness_for_nonzero_poly():
    p = P("-8*y1^6*y2^2 - 12*y1^5*y2^3")
    point = find_nonzero_point(p)
    assert point is not None
    assert p.evaluate(*point) != 0


def test_witness_none_for_zero():
    assert find_nonzero_point(MultiPoly.zero(2)) is None


def test_witness_on_polynomial_vanishing_at_ones():
    p = P("y1 - y2")  # vanishes on the all-equal diagonal
    point = find_nonzero_point(p)
    assert p.evaluate(*point) != 0


def test_witness_random_nonzero():
    rng = random.Random(17)
    for _ in range(40):
        p = random_poly(rng, 2)
        if p.is_zero():
            continue
        assert p.evaluate(*find_nonzero_point(p)) != 0
