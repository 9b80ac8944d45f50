"""Metric objects, derived quantities, the unconditional identities and irreducibility."""
from __future__ import annotations

import random

import pytest

from kropinaflat import (
    HOLDS,
    INCONCLUSIVE,
    MthRootMetric,
    MultiPoly,
    OneForm,
    derive,
    divide_exact,
    irreducibility_heuristic,
    parse,
    verify_euler_identities,
    verify_inverse_identities,
)
from kropinaflat.finsler import HEURISTICALLY_CONSISTENT, REDUCIBLE
from instgen import random_metric, random_metric_poly


def X(text: str, n: int = 2) -> MultiPoly:
    return parse(text, n)


# -- metric and one-form validation --------------------------------------------

def test_metric_validation():
    with pytest.raises(ValueError):
        MthRootMetric(1, 3, X("y1^3", 1) if False else X("y1^3"))  # n too small
    with pytest.raises(ValueError):
        MthRootMetric(2, 3, MultiPoly.zero(2))
    with pytest.raises(ValueError):
        MthRootMetric(2, 3, X("y1^4"))  # wrong degree
    with pytest.raises(ValueError):
        MthRootMetric(2, 4, X("y1^4 + y2^3"))  # inhomogeneous
    with pytest.raises(ValueError):
        MthRootMetric(2, 2, X("y1*y2"))  # m must exceed 2


def test_oneform_validation():
    with pytest.raises(ValueError):
        OneForm([MultiPoly.zero(2), MultiPoly.zero(2)])
    with pytest.raises(ValueError):
        OneForm.from_poly(X("y1^2"))
    beta = OneForm.from_poly(X("(1 + x1)*y1"))
    assert beta.b[0] == X("1 + x1")
    assert beta.b[1].is_zero()
    assert beta.as_poly() == X("(1 + x1)*y1")


# -- derived quantities ---------------------------------------------------------

def test_derive_constant_metric_has_no_x_derivatives():
    metric = MthRootMetric(2, 3, X("y1^3 + y1*y2^2 + y2^3"))
    d = derive(metric, OneForm.from_poly(X("y1")))
    assert d.a_0.is_zero()
    assert all(p.is_zero() for p in d.a_xl)


def test_derive_perturbed_values():
    metric = MthRootMetric(2, 3, X("(1 + x1)*y1^3 + y1*y2^2 + y2^3"))
    d = derive(metric, OneForm.from_poly(X("y1")))
    assert d.a_xl[0] == X("y1^3")
    assert d.a_0 == X("y1^4")
    assert d.a_0l[0] == X("3*y1^3")
    assert d.a_0l[1].is_zero()


def test_derive_beta_values():
    metric = MthRootMetric(2, 3, X("y1^3 + y1*y2^2 + y2^3"))
    d = derive(metric, OneForm.from_poly(X("(1 + x1)*y1")))
    assert d.beta_xl[0] == X("y1")
    assert d.beta_xl[1].is_zero()
    assert d.beta_0 == X("y1^2")
    assert d.beta_0l[0] == X("y1")
    assert d.beta_0l[1].is_zero()


def test_derive_dimension_mismatch():
    metric = MthRootMetric(2, 3, X("y1^3 + y2^3"))
    with pytest.raises(ValueError):
        derive(metric, OneForm.from_poly(parse("y1", 3)))


def test_derive_degree_table_random():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.choice([2, 3])
        m = rng.choice([3, 4, 5])
        metric = random_metric(rng, n, m)
        beta = OneForm.from_poly(MultiPoly.var_y(n, rng.randint(1, n)))
        d = derive(metric, beta)
        for p in d.a_i:
            if not p.is_zero():
                assert p.homogeneous_y_degree() == m - 1
        for row in d.a_ij:
            for p in row:
                if not p.is_zero():
                    assert p.homogeneous_y_degree() == m - 2
        if not d.a_0.is_zero():
            assert d.a_0.homogeneous_y_degree() == m + 1
        for p in d.a_0l:
            if not p.is_zero():
                assert p.homogeneous_y_degree() == m
        if not d.beta_0.is_zero():
            assert d.beta_0.homogeneous_y_degree() == 2


# -- identity reports -----------------------------------------------------------

def test_euler_identities_on_fixed_metric():
    metric = MthRootMetric(2, 3, X("y1^3 + y1*y2^2 + y2^3"))
    assert verify_euler_identities(metric).overall == HOLDS


def test_inverse_identities_on_fixed_metric():
    metric = MthRootMetric(2, 3, X("y1^3 + y1*y2^2 + y2^3"))
    report = verify_inverse_identities(metric)
    assert report.overall == HOLDS


def test_inverse_identities_singular_inconclusive():
    report = verify_inverse_identities(MthRootMetric(2, 3, X("y1^3")))
    assert report.overall == INCONCLUSIVE
    assert report.derived_facts["determinant"] == "0"


def test_inverse_identities_n_too_large_inconclusive():
    a = parse("y1^3 + y2^3 + y3^3 + y4^3", 4)
    report = verify_inverse_identities(MthRootMetric(4, 3, a))
    assert report.overall == INCONCLUSIVE


def test_inverse_identities_n3():
    a = parse("y1^3 + y2^3 + y3^3 + y1*y2*y3", 3)
    report = verify_inverse_identities(MthRootMetric(3, 3, a))
    assert report.overall == HOLDS


# -- irreducibility heuristic ----------------------------------------------------

def test_sum_of_cubes_is_reducible():
    status = irreducibility_heuristic(MthRootMetric(2, 3, X("y1^3 + y2^3")))
    assert status.kind == REDUCIBLE
    assert divide_exact(X("y1^3 + y2^3"), status.factor) is not None


def test_cubic_with_no_rational_root_is_consistent():
    status = irreducibility_heuristic(MthRootMetric(2, 3, X("y1^3 + y1*y2^2 + y2^3")))
    assert status.kind == HEURISTICALLY_CONSISTENT


def test_constructed_factor_is_found():
    a = X("y1 + y2") * X("y1^2 + y2^2")
    status = irreducibility_heuristic(MthRootMetric(2, 3, a))
    assert status.kind == REDUCIBLE


def test_assertion_short_circuits():
    metric = MthRootMetric(2, 3, X("y1^3 + y2^3"), assert_irreducible=True)
    assert metric.irreducibility.kind == "asserted"


def test_x_dependent_factor_is_beyond_the_heuristic():
    # refutation-only boundary: a factor with x-dependent coefficients is
    # not lifted by the constant-candidate search, so the status stays
    # merely consistent even though A is reducible
    a = X("y1 + x1*y2") * X("y1^2 + y2^2")
    status = irreducibility_heuristic(MthRootMetric(2, 3, a))
    assert status.kind == HEURISTICALLY_CONSISTENT


@pytest.mark.parametrize(
    "n, m, text, factor",
    [
        (2, 3, "(y1 + 3*y2)*(y1^2 + y2^2)", "y1 + 3*y2"),
        (3, 4, "(y2 - 7*y3)*(y1^3 + x1*y2^3 + y3^3)", "y2 - 7*y3"),
    ],
)
def test_root_lift_finds_factor_off_the_grid(n, m, text, factor):
    status = irreducibility_heuristic(MthRootMetric(n, m, X(text, n=n)))
    assert status.kind == REDUCIBLE
    assert str(status.factor) == factor
    assert status.detail == "line-restriction root lift"


def test_grid_reports_the_first_factor_in_grid_order():
    a = X("(y1 - y2)*(y1 + y2)*(2*y1 + y2)")
    status = irreducibility_heuristic(MthRootMetric(2, 3, a))
    assert status.kind == REDUCIBLE
    assert str(status.factor) == "y1 + y2"
    assert status.detail == "grid linear factor"


def test_big_coefficient_skips_line_restrictions_quickly():
    import time

    a = X("y1^3 + 123456789012345678901234567891*y2^3 + y1*y2^2")
    started = time.perf_counter()
    status = irreducibility_heuristic(MthRootMetric(2, 3, a))
    assert time.perf_counter() - started < 1.0
    assert status.kind == HEURISTICALLY_CONSISTENT
    assert status.detail.endswith(
        "; 10 of 10 line restrictions skipped (integer coefficient above 10000)"
    )


def test_zero_set_screen_spares_the_division(monkeypatch):
    import kropinaflat.finsler as finsler

    calls = []

    def counting_divide_exact(num, den):
        calls.append(den)
        return divide_exact(num, den)

    monkeypatch.setattr(finsler, "divide_exact", counting_divide_exact)
    metric = MthRootMetric(4, 6, random_metric_poly(random.Random(46), 4, 6, x_degree=3))
    status = irreducibility_heuristic(metric)
    assert status.kind == HEURISTICALLY_CONSISTENT
    # without the screen each of the 272 distinct grid forms is divided
    assert len(calls) < 5
