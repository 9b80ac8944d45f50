"""Finite-difference oracle: agreement, convergence order, input guards."""
from __future__ import annotations

from fractions import Fraction

import pytest

from kropinaflat import numeric_crosscheck, sample_admissible_points
from kropinaflat.kropina import DUALLY_FLAT, HAMEL

H = Fraction(1, 10000)
POINT = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))


def test_e1_residuals_are_numerically_zero(e1):
    for kind in (DUALLY_FLAT, HAMEL):
        res = numeric_crosscheck(e1, kind, POINT, H)
        assert res.passed
        for row in res.rows:
            assert row.symbolic == 0.0
            assert abs(row.numeric) <= 1e-6


def test_e2_symbolic_and_numeric_agree(e2):
    res = numeric_crosscheck(e2, DUALLY_FLAT, POINT, H)
    assert res.passed
    r1 = res.rows[0]
    # R_1 at the point is -20; the prefactor is 9 * 3^(2/3)
    assert abs(r1.symbolic - (-20.0 / (9.0 * 3.0 ** (2.0 / 3.0)))) < 1e-12
    assert r1.numeric != 0.0
    assert abs(r1.symbolic - r1.numeric) < 1e-6 * max(1.0, abs(r1.symbolic))


def test_agreement_across_sampled_points(e1, e2, e3, e4):
    for inst in (e1, e2, e3, e4):
        for point in sample_admissible_points(inst, 20, 1234):
            for kind in (DUALLY_FLAT, HAMEL):
                assert numeric_crosscheck(inst, kind, point, H).passed


def test_e2_hamel_numeric_witness_at_origin(e2):
    # the projective residual is nonzero at x=(0,0), y=(1,1), and the
    # finite-difference oracle sees it
    res = numeric_crosscheck(e2, HAMEL, POINT, H)
    assert res.passed
    assert abs(res.rows[0].numeric) > 1e-3
    assert abs(res.rows[0].symbolic) > 1e-3


def test_zero_equivalence_for_x_free_instance():
    # x-free coefficients: every residual is the zero polynomial and the
    # numeric residuals vanish to tolerance at sampled points
    import random

    from kropinaflat import check_dually_flat, dually_flat_residual
    from instgen import random_instance

    rng = random.Random(219)
    inst = random_instance(rng, n=2, x_degree=0)
    assert check_dually_flat(inst).overall == "holds"
    assert all(dually_flat_residual(inst, l).is_zero() for l in (1, 2))
    for point in sample_admissible_points(inst, 20, 7):
        res = numeric_crosscheck(inst, DUALLY_FLAT, point, H)
        for row in res.rows:
            assert row.symbolic == 0.0
            assert abs(row.numeric) <= 1e-6


def test_second_order_convergence(e2):
    # halving h shrinks the disagreement about fourfold (central stencils)
    for kind in (DUALLY_FLAT, HAMEL):
        coarse = numeric_crosscheck(e2, kind, POINT, Fraction(1, 100))
        fine = numeric_crosscheck(e2, kind, POINT, Fraction(1, 200))
        ratio = coarse.max_disagreement / fine.max_disagreement
        assert 3.0 <= ratio <= 5.0


def test_rejects_bad_inputs(e2):
    bad_a = ((Fraction(-2), Fraction(0)), (Fraction(1), Fraction(0)))  # A < 0
    with pytest.raises(ValueError):
        numeric_crosscheck(e2, DUALLY_FLAT, bad_a, H)
    bad_b = ((Fraction(0), Fraction(0)), (Fraction(-1), Fraction(2)))  # beta < 0
    with pytest.raises(ValueError):
        numeric_crosscheck(e2, DUALLY_FLAT, bad_b, H)
    with pytest.raises(ValueError):
        numeric_crosscheck(e2, DUALLY_FLAT, POINT, 0)
    with pytest.raises(ValueError):
        numeric_crosscheck(e2, "nonsense", POINT, H)


def test_sampler_is_deterministic_and_admissible(e2):
    first = sample_admissible_points(e2, 10, 42)
    second = sample_admissible_points(e2, 10, 42)
    assert first == second
    for xs, ys in first:
        assert e2.a.evaluate(xs, ys) > 0
        assert e2.b.evaluate(xs, ys) > 0
