"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either frozen from a hand expansion that the
sympy oracle re-derives independently, or computed by the stated oracle
inside the test itself.
"""
from __future__ import annotations

import contextlib
import json
import random
import time
from fractions import Fraction

import pytest

from kropinaflat import (
    FAILS,
    HOLDS,
    MthRootMetric,
    MultiPoly,
    OneForm,
    KropinaInstance,
    ParseError,
    RatFunc,
    check_dually_flat,
    check_projectively_flat,
    check_prop31,
    check_theorem1,
    condition_brackets,
    contraction_probes,
    divide_exact,
    dually_flat_residual,
    extract_theta,
    hamel_residual,
    numeric_crosscheck,
    parse,
    prop31_condition,
    sample_admissible_points,
    to_text,
    verify_euler_identities,
    verify_inverse_identities,
)
from kropinaflat.cli import main
from kropinaflat.kropina import DUALLY_FLAT, HAMEL, _residual_expanded, _residual_pexpr
from conftest import E1_TEXT, E2_TEXT, E3_TEXT, E4_TEXT, make_instance
from instgen import random_instance, random_metric
from test_poly import random_poly


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {description}", flush=True)
        raise
    print(f"\nACCEPTANCE {num} PASS: {description}", flush=True)


def test_criterion_1_euler_identity_suite():
    with criterion(1, "degree contractions hold on 100+ random metrics in < 10 s"):
        started = time.monotonic()
        rng = random.Random(2001)
        count = 0
        for n in (2, 3):
            for m in (3, 4, 5):
                for _ in range(17):
                    metric = random_metric(rng, n, m, x_degree=2)
                    assert verify_euler_identities(metric).overall == HOLDS
                    count += 1
        elapsed = time.monotonic() - started
        assert count >= 100
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_cleared_inverse_identities():
    with criterion(2, "cleared adjugate identities hold on E1 and 10+ random n=2 metrics"):
        e1 = make_instance(*E1_TEXT)
        assert verify_inverse_identities(e1.metric).overall == HOLDS
        rng = random.Random(2002)
        nonsingular = 0
        while nonsingular < 10:
            metric = random_metric(rng, 2, rng.choice([3, 4, 5]))
            report = verify_inverse_identities(metric)
            if report.overall == HOLDS:
                nonsingular += 1
            else:
                # only a vanishing determinant may stop the check
                assert report.derived_facts.get("determinant") == "0"
        assert nonsingular >= 10


def test_criterion_3_contraction_probes():
    with criterion(3, "probe constants derived by division; probes exact on 100+ instances"):
        rng = random.Random(2003)
        # one-time symbolic derivation of the constants: divide the
        # contracted brackets by A*A_0 on instances with A_0 != 0
        derived_constants = {}
        for m in (3, 4, 5):
            inst = random_instance(rng, n=2, m=m)
            while inst.derived.a_0.is_zero():
                inst = random_instance(rng, n=2, m=m)
            aa0 = inst.a * inst.derived.a_0
            lhs1 = MultiPoly.zero(2)
            lhs2 = MultiPoly.zero(2)
            for l in (1, 2):
                y = MultiPoly.var_y(2, l)
                lhs1 = lhs1 + y * condition_brackets(inst, l)[0]
                lhs2 = lhs2 + y * prop31_condition(inst, l)
            q1 = divide_exact(lhs1, aa0)
            q2 = divide_exact(lhs2, aa0)
            assert q1 == MultiPoly.const(2, 2 * m), f"P1 constant at m={m}"
            assert q2 == MultiPoly.const(2, m), f"P2 constant at m={m}"
            derived_constants[m] = (2 * m, m)
        # the probes, which bake in those constants, hold on every instance
        checked = 0
        for _ in range(102):
            inst = random_instance(rng)
            assert contraction_probes(inst).overall == HOLDS
            checked += 1
        assert checked >= 100
        # consequence: a vanishing C1 (or T) bracket forces A_0 = 0
        e3 = make_instance(*E3_TEXT)
        assert all(condition_brackets(e3, l)[0].is_zero() for l in (1, 2))
        assert e3.derived.a_0.is_zero()


def test_criterion_4_flatness_verdicts():
    with criterion(4, "E1 holds everywhere; E2 fails with witnesses; E3 fails the stated conditions"):
        e1 = make_instance(*E1_TEXT)
        for checker in (check_dually_flat, check_theorem1, check_projectively_flat, check_prop31):
            assert checker(e1).overall == HOLDS

        e2 = make_instance(*E2_TEXT)
        df = check_dually_flat(e2)
        pf = check_projectively_flat(e2)
        assert df.overall == FAILS and pf.overall == FAILS
        r1 = dually_flat_residual(e2, 1)
        assert r1 == parse("-8*y1^6*y2^2 - 12*y1^5*y2^3", 2)
        failing = df.condition("R_1 = 0")
        xs = tuple(Fraction(v) for v in failing.witness_point["x"])
        ys = tuple(Fraction(v) for v in failing.witness_point["y"])
        assert r1.evaluate(xs, ys) != 0
        # numeric witness: the finite-difference residual is nonzero there
        res = numeric_crosscheck(e2, DUALLY_FLAT, (xs, ys), Fraction(1, 10000))
        assert res.passed
        assert abs(res.rows[0].numeric) > 1e-3
        assert not hamel_residual(e2, 1).is_zero()

        e3 = make_instance(*E3_TEXT)
        report = check_theorem1(e3)
        assert report.overall == FAILS
        beta_bracket = next(c for c in report.conditions if c.name.startswith("beta-bracket"))
        coupling = next(c for c in report.conditions if c.name.startswith("coupling"))
        assert beta_bracket.verdict == FAILS
        assert coupling.verdict == FAILS
        # expansion-verified witnesses
        _, c2, c3 = condition_brackets(e3, 1)
        assert c3 == parse("-4*(1 + x1)*y1^2", 2)
        assert c2 == parse("3*y1^4 + y1^2*y2^2", 2)
        assert str(c3) in beta_bracket.witness
        assert str(c2) in coupling.witness


def test_criterion_5_oracle_agreement_and_convergence():
    with criterion(5, "symbolic residuals match finite differences at 20 points per instance; error ~ h^2"):
        h = Fraction(1, 10000)
        for texts in (E1_TEXT, E2_TEXT, E3_TEXT, E4_TEXT):
            inst = make_instance(*texts)
            points = sample_admissible_points(inst, 20, 1234)
            assert len(points) == 20
            for point in points:
                for kind in (DUALLY_FLAT, HAMEL):
                    res = numeric_crosscheck(inst, kind, point, h)
                    assert res.max_disagreement <= 1e-6, (texts, kind, res.max_disagreement)
        # second-order convergence, measured where truncation dominates
        e2 = make_instance(*E2_TEXT)
        point = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
        for kind in (DUALLY_FLAT, HAMEL):
            coarse = numeric_crosscheck(e2, kind, point, Fraction(1, 100))
            fine = numeric_crosscheck(e2, kind, point, Fraction(1, 200))
            ratio = coarse.max_disagreement / fine.max_disagreement
            assert 3.0 <= ratio <= 5.0, f"{kind}: ratio {ratio:.2f}"


def test_criterion_6_dual_path_equality():
    with criterion(6, "power-expression route equals expanded brackets on 50+ random instances"):
        rng = random.Random(2006)
        checked = 0
        for i in range(52):
            inst = random_instance(rng, n=3 if i % 5 == 0 else 2)
            for l in range(1, inst.n + 1):
                assert _residual_pexpr(inst, DUALLY_FLAT, l) == _residual_expanded(
                    inst, DUALLY_FLAT, l
                )
                assert _residual_pexpr(inst, HAMEL, l) == _residual_expanded(inst, HAMEL, l)
            checked += 1
        assert checked >= 50


def test_criterion_7_theta_extraction():
    with criterion(7, "conformal theta equals c_xl/c and multiplies back; E2 is not divisible"):
        rng = random.Random(2007)
        from instgen import random_metric_poly, random_x_poly

        for _ in range(12):
            n = rng.choice([2, 3])
            c = random_x_poly(rng, n, degree=2, max_terms=2) + rng.randint(1, 3)
            if c.is_zero():
                continue
            a0 = random_metric_poly(rng, n, 3, x_degree=0)
            metric = MthRootMetric(n, 3, c * a0, assert_irreducible=True)
            inst = KropinaInstance(metric, OneForm.from_poly(MultiPoly.var_y(n, 1)))
            extraction = extract_theta(inst)
            assert extraction.status == "ok"
            theta = extraction.theta
            for l in range(1, n + 1):
                assert theta.theta_l[l - 1] == RatFunc(c.diff_x(l), c)
            # multiply back through the cleared common denominator
            common = MultiPoly.const(n, 1)
            for t in theta.theta_l:
                common = common * t.den
            recombined = MultiPoly.zero(n)
            for i, t in enumerate(theta.theta_l):
                others = MultiPoly.const(n, 1)
                for j, s in enumerate(theta.theta_l):
                    if j != i:
                        others = others * s.den
                recombined = recombined + t.num * others * MultiPoly.var_y(n, i + 1)
            assert common * inst.derived.a_0 == recombined * inst.a

        e2 = make_instance(*E2_TEXT)
        assert extract_theta(e2).status == "not_divisible"


def test_criterion_8_parser_roundtrip_and_errors():
    with criterion(8, "parse/print identity on 100 random polynomials; positioned grammar errors"):
        rng = random.Random(2008)
        count = 0
        while count < 100:
            n = rng.choice([2, 3])
            p = random_poly(rng, n)
            assert parse(to_text(p), n) == p
            count += 1
        # the three grammar-error kinds, each with a position
        with pytest.raises(ParseError) as err:
            parse("y1^(1/2)", 2)
        assert "fractional exponent" in str(err.value) and err.value.position > 0
        with pytest.raises(ParseError) as err:
            parse("x3 + y1", 2)
        assert "unknown variable" in str(err.value) and err.value.position > 0
        with pytest.raises(ParseError) as err:
            parse("(y1 + y2", 2)
        assert err.value.position > 0


def test_criterion_9_end_to_end_corpus(capsys):
    with criterion(9, "bundled corpus is deterministic with documented exit codes in < 60 s"):
        started = time.monotonic()
        from kropinaflat import corpus_dir

        code1 = main(["corpus", "--format", "json"])
        out1 = capsys.readouterr().out
        code2 = main(["corpus", "--format", "json"])
        out2 = capsys.readouterr().out
        assert out1 == out2, "corpus output is not byte-deterministic"
        assert code1 == code2 == 1  # bundled corpus contains failing instances
        rows = json.loads(out1)["rows"]
        assert len(rows) == 6
        assert all(row["error"] is None for row in rows)

        e1 = str(corpus_dir() / "minkowski.inst")
        e3 = str(corpus_dir() / "beta-variable.inst")
        assert main(["check-dually-flat", "--input", e1]) == 0
        capsys.readouterr()
        assert main(["check-theorem1", "--input", e3]) == 1
        capsys.readouterr()
        # validation error: m = 2 is rejected for every command
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "m2.inst")
            with open(bad, "w") as fh:
                fh.write("n = 2\nm = 2\nA = y1*y2\nbeta = y1\n")
            assert main(["check-theorem1", "--input", bad]) == 2
        capsys.readouterr()
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"end-to-end took {elapsed:.1f}s"
