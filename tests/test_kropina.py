"""Residuals, brackets, theorem checkers, and contraction probes.

Expected polynomials were derived by hand from the cleared forms and are
independently re-checked by the finite-difference oracle (test_numeric) and
a symbolic differentiation oracle (test_sympy_oracle).
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kropinaflat import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    KropinaInstance,
    MthRootMetric,
    MultiPoly,
    OneForm,
    check_dually_flat,
    check_projectively_flat,
    check_prop31,
    check_theorem1,
    condition_brackets,
    contraction_probes,
    dually_flat_residual,
    extract_theta,
    hamel_residual,
    kropina_F,
    kropina_L,
    parse,
    prop31_condition,
    RatFunc,
)
from kropinaflat.kropina import (
    _residual_expanded,
    _residual_pexpr,
    _stencil_offsets,
    _stencil_values,
    DUALLY_FLAT,
    HAMEL,
)
from conftest import E1_TEXT, E4_TEXT, make_instance
from instgen import random_instance


def X(text: str, n: int = 2) -> MultiPoly:
    return parse(text, n)


# -- the Kropina power expressions ---------------------------------------------

def test_kropina_L_single_term(e1, e2):
    L = kropina_L(e2)
    assert list(L.terms.keys()) == [(Fraction(4, 3), -2)]
    F = kropina_F(e2)
    assert list(F.terms.keys()) == [(Fraction(2, 3), -1)]


def test_kropina_L_integer_exponent_for_m4():
    inst = make_instance("y1^4 + y2^4", "y1", m=4)
    L = kropina_L(inst)
    assert list(L.terms.keys()) == [(Fraction(1), -2)]


def test_kropina_L_numeric_value(e2):
    xs, ys = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))
    a_val = float(e2.a.evaluate(xs, ys))
    b_val = float(e2.b.evaluate(xs, ys))
    expected = (a_val ** (1.0 / 3.0)) ** 4 / b_val**2
    [((a_exp, b_exp), coeff)] = kropina_L(e2).terms.items()
    value = float(coeff.evaluate(xs, ys)) * a_val ** float(a_exp) * b_val**b_exp
    assert abs(value - expected) <= 1e-12 * abs(expected)


# -- residuals -------------------------------------------------------------------

def test_residuals_vanish_for_constant_coefficients(e1):
    for l in (1, 2):
        assert dually_flat_residual(e1, l).is_zero()
        assert hamel_residual(e1, l).is_zero()


def test_e2_dually_flat_residual_frozen(e2):
    r1 = dually_flat_residual(e2, 1)
    assert r1 == X("-8*y1^6*y2^2 - 12*y1^5*y2^3")
    assert r1.evaluate((0, 0), (1, 1)) == -20


def test_e2_hamel_residual_nonzero(e2):
    h1 = hamel_residual(e2, 1)
    assert not h1.is_zero()
    assert h1.evaluate((0, 0), (1, 1)) != 0


def test_dual_path_equality_random():
    # twelve small instances, then the gen-checks shapes (n, m) = (3, 4), (4, 6)
    rng = random.Random(61)
    shapes = [(None, None, 2)] * 12 + [(3, 4, 3), (4, 6, 3)]
    for n, m, x_degree in shapes:
        inst = random_instance(rng, n=n, m=m, x_degree=x_degree)
        for l in range(1, inst.n + 1):
            assert _residual_pexpr(inst, DUALLY_FLAT, l) == _residual_expanded(
                inst, DUALLY_FLAT, l
            )
            assert _residual_pexpr(inst, HAMEL, l) == _residual_expanded(inst, HAMEL, l)


def test_residuals_differentiate_phi_2n_times_per_kind(monkeypatch):
    """Per kind: Phi_{x^k} once for each k, then (Phi_0)_{y^l} once for each l."""
    from kropinaflat.algebra.powerexpr import PowerExpr

    calls = []
    real_diff = PowerExpr.diff

    def counting_diff(self, wrt, i):
        calls.append((wrt, i))
        return real_diff(self, wrt, i)

    monkeypatch.setattr(PowerExpr, "diff", counting_diff)
    rng = random.Random(73)
    for n, m in ((2, 3), (3, 4), (4, 6)):
        inst = random_instance(rng, n=n, m=m)
        calls.clear()
        for l in range(1, n + 1):
            dually_flat_residual(inst, l)
            hamel_residual(inst, l)
        each_index = [("x", i) for i in range(1, n + 1)] + [("y", i) for i in range(1, n + 1)]
        assert sorted(calls) == sorted(each_index * 2)


def test_residual_scaling_in_beta():
    # both cleared residuals are degree-2 homogeneous in the beta family,
    # so beta -> c*beta multiplies them by c^2; verdicts are unchanged
    rng = random.Random(67)
    c = Fraction(3, 2)
    for _ in range(6):
        inst = random_instance(rng, n=2)
        scaled = KropinaInstance(
            inst.metric, OneForm([b * c for b in inst.beta.b])
        )
        for l in range(1, inst.n + 1):
            assert dually_flat_residual(scaled, l) == dually_flat_residual(inst, l) * c**2
            assert hamel_residual(scaled, l) == hamel_residual(inst, l) * c**2
        assert check_dually_flat(scaled).overall == check_dually_flat(inst).overall
        assert (
            check_projectively_flat(scaled).overall
            == check_projectively_flat(inst).overall
        )


# -- brackets ---------------------------------------------------------------------

def test_e1_brackets_vanish(e1):
    for l in (1, 2):
        assert all(p.is_zero() for p in condition_brackets(e1, l))


def test_e3_bracket_values(e3):
    c1, c2, c3 = condition_brackets(e3, 1)
    assert c1.is_zero()  # constant metric polynomial
    assert c2 == X("3*y1^4 + y1^2*y2^2")  # beta_0 * A_1 with A_0 = 0
    assert c3 == X("-4*(1 + x1)*y1^2")
    _, c2_2, c3_2 = condition_brackets(e3, 2)
    assert c2_2 == X("y1^2") * X("2*y1*y2 + 3*y2^2")  # beta_0 * A_2
    assert c3_2.is_zero()


def test_bracket_residual_identity_random():
    # R_l = 4 b^2 C1 - 8m A b C2 - 2 m^2 A^2 C3, with signs fixed by expansion
    rng = random.Random(71)
    for _ in range(8):
        inst = random_instance(rng, n=2)
        m, a, b = inst.m, inst.a, inst.b
        for l in (1, 2):
            c1, c2, c3 = condition_brackets(inst, l)
            combo = b * b * c1 * 4 - a * b * c2 * (8 * m) - a * a * c3 * (2 * m * m)
            assert dually_flat_residual(inst, l) == combo


def test_e4_prop31_condition_frozen(e4):
    a0_base = X("y1^3 + y1*y2^2 + y2^3")
    expected = X("1 + x1") * a0_base * X("3*y1^3 - y1*y2^2 - 3*y2^3")
    assert prop31_condition(e4, 1) == expected


def test_e2_prop31_condition_frozen(e2):
    expected = X("3*(1 + x1)*y1^6 + 5*y1^4*y2^2 + 6*y1^3*y2^3")
    assert prop31_condition(e2, 1) == expected


# -- direct checks -----------------------------------------------------------------

def test_e1_holds_everywhere(e1):
    assert check_dually_flat(e1).overall == HOLDS
    assert check_projectively_flat(e1).overall == HOLDS
    assert check_theorem1(e1).overall == HOLDS
    assert check_prop31(e1).overall == HOLDS


def test_e1_with_other_constant_beta_holds():
    inst = make_instance("y1^3 + y1*y2^2 + y2^3", "y2")
    assert check_dually_flat(inst).overall == HOLDS
    assert check_theorem1(inst).overall == HOLDS


def test_e2_fails_with_witness(e2):
    report = check_dually_flat(e2)
    assert report.overall == FAILS
    failing = report.condition("R_1 = 0")
    assert failing.verdict == FAILS
    assert failing.witness is not None
    assert failing.witness_point is not None
    # the recorded point really is a nonvanishing witness
    xs = tuple(Fraction(v) for v in failing.witness_point["x"])
    ys = tuple(Fraction(v) for v in failing.witness_point["y"])
    assert dually_flat_residual(e2, 1).evaluate(xs, ys) != 0

    assert check_projectively_flat(e2).overall == FAILS


def test_minkowski_family_random():
    # any instance with x-free coefficients holds for all four checks
    rng = random.Random(83)
    for _ in range(6):
        inst = random_instance(rng, x_degree=0)
        assert check_dually_flat(inst).overall == HOLDS
        assert check_projectively_flat(inst).overall == HOLDS
        assert check_theorem1(inst).overall == HOLDS
        assert check_prop31(inst).overall == HOLDS


# -- theorem 1 ---------------------------------------------------------------------

def test_theorem1_e1(e1):
    report = check_theorem1(e1)
    assert report.overall == HOLDS
    assert report.derived_facts["theta"] == "0"
    assert report.derived_facts["agrees_with_direct"] is True
    assert report.derived_facts["direct_dually_flat"] == HOLDS


def test_theorem1_e3_failing_conditions(e3):
    report = check_theorem1(e3)
    assert report.overall == FAILS
    beta_bracket = next(c for c in report.conditions if c.name.startswith("beta-bracket"))
    coupling = next(c for c in report.conditions if c.name.startswith("coupling"))
    assert beta_bracket.verdict == FAILS
    assert "C3_1" in beta_bracket.witness
    assert coupling.verdict == FAILS
    assert "C2_1" in coupling.witness
    assert report.derived_facts["agrees_with_direct"] is True
    # constant metric polynomial: C1 = 0 and A_0 = 0 are both recorded
    assert report.derived_facts["c1_all_zero"] is True
    assert report.derived_facts["a0_zero"] is True


def test_theorem1_e2_not_divisible(e2):
    report = check_theorem1(e2)
    assert report.overall == FAILS
    assert report.derived_facts["theta_status"] == "not_divisible"
    theta_cond = next(c for c in report.conditions if c.name.startswith("theta-condition"))
    assert theta_cond.verdict == FAILS  # direct check fails, so not merely inconclusive
    assert report.derived_facts["agrees_with_direct"] is True


def test_theorem1_blocked_by_reducible_metric():
    # reducible A, but dually flat (constant coefficients): the theta route
    # is blocked, the conditions otherwise hold, so the report is inconclusive
    inst = make_instance("y1^3 + y2^3", "y1")
    assert inst.metric.irreducibility.kind == "reducible_witness"
    report = check_theorem1(inst)
    assert report.overall == INCONCLUSIVE
    assert report.derived_facts["theta_status"] == "inconclusive"
    assert report.derived_facts["direct_dually_flat"] == HOLDS


# -- prop 3.1 ----------------------------------------------------------------------

def test_prop31_e1(e1):
    report = check_prop31(e1)
    assert report.overall == HOLDS
    assert report.derived_facts["berwald"] is True
    assert report.derived_facts["minkowski_sufficient"] is True
    assert report.derived_facts["theta"] == "0"


def test_prop31_e4_fails(e4):
    report = check_prop31(e4)
    assert report.overall == FAILS
    assert report.derived_facts["berwald"] is False


def test_prop31_theta_scaling(e4):
    # on the conformal family the 2m-scaled theta is theta_1 = 1/(2m(1+x1)),
    # scaled from a copy: the shared extraction keeps theta_1 = 1/(1+x1)
    report = check_prop31(e4)
    assert report.derived_facts["theta_status"] == "ok"
    assert report.derived_facts["theta"] == "((1/6)/(x1 + 1))*y1"
    assert extract_theta(e4).theta.theta_l[0] == RatFunc(X("1"), X("1 + x1"))
    assert check_theorem1(e4).derived_facts["theta"] == "((1)/(x1 + 1))*y1"


def test_theta_is_extracted_once_per_instance(monkeypatch):
    import kropinaflat.kropina as kropina

    calls = []
    real_divide = kropina.divide_exact_qx

    def counting_divide(num, den):
        calls.append(num)
        return real_divide(num, den)

    monkeypatch.setattr(kropina, "divide_exact_qx", counting_divide)
    inst = make_instance(*E4_TEXT)
    check_theorem1(inst)
    check_prop31(inst)
    assert extract_theta(inst) is extract_theta(inst)
    assert len(calls) == 1


def test_prop31_guard_raises_on_x_dependent_a_when_it_holds():
    inst = make_instance(*E1_TEXT)
    for l in (1, 2):  # T_l cached as zero, then A_xl made nonzero
        prop31_condition(inst, l)
    inst.derived.a_xl = [inst.a * MultiPoly.var_x(2, 1)] * 2
    with pytest.raises(RuntimeError, match="prop31 holds but A depends on x"):
        check_prop31(inst)


def test_prop31_holds_exactly_when_a_is_x_free():
    rng = random.Random(31)
    seen = set()
    for n in (2, 3):
        for x_degree in (0, 0, 1, 2):
            inst = random_instance(rng, n=n, m=rng.choice([3, 4]), x_degree=x_degree)
            x_free = all(a_xl.is_zero() for a_xl in inst.derived.a_xl)
            assert (check_prop31(inst).overall == HOLDS) == x_free
            seen.add(x_free)
    assert seen == {True, False}


def test_prop31_minkowski_note_when_not_sufficient():
    # x-dependent metric whose prop31 bracket still vanishes: A = c(x)*A0(y)
    # has T != 0, so build a case with A_0 = 0 instead: coefficients depend
    # on x only through a direction annihilated by y-contraction is not
    # available at this size, so use the constant case for the note text.
    inst = make_instance("y1^3 + y1*y2^2 + y2^3", "y1")
    report = check_prop31(inst)
    assert "locally Minkowskian" in report.derived_facts["minkowski_note"]


# -- contraction probes ---------------------------------------------------------------

def test_probes_on_e_instances(e1, e2, e3, e4):
    for inst in (e1, e2, e3, e4):
        assert contraction_probes(inst).overall == HOLDS


def test_probe_p2_value_on_e2(e2):
    total = MultiPoly.zero(2)
    for l in (1, 2):
        total = total + MultiPoly.var_y(2, l) * prop31_condition(e2, l)
    assert total == e2.a * X("3*y1^4")  # m * A * A_0 with m = 3, A_0 = y1^4


def test_probe_constants_rederived_by_division():
    # one-time symbolic derivation: divide the contracted brackets by A*A_0
    from kropinaflat import divide_exact

    rng = random.Random(91)
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
        assert divide_exact(lhs1, aa0) == MultiPoly.const(2, 2 * m)
        assert divide_exact(lhs2, aa0) == MultiPoly.const(2, m)


def test_probes_random_instances():
    rng = random.Random(97)
    for _ in range(25):
        inst = random_instance(rng)
        assert contraction_probes(inst).overall == HOLDS


# -- one build per residual ---------------------------------------------------------

SEED11 = "random-seed-11.inst"


@pytest.fixture
def build_counts(monkeypatch):
    """Count the builds of each residual route, keyed by (kind, l)."""
    import kropinaflat.kropina as kropina

    counts = {"pexpr": [], "expanded": []}
    for route, name in (("pexpr", "_residual_pexpr"), ("expanded", "_residual_expanded")):
        real = getattr(kropina, name)

        def counting(inst, kind, l, real=real, calls=counts[route]):
            calls.append((kind, l))
            return real(inst, kind, l)

        monkeypatch.setattr(kropina, name, counting)
    return counts


def _seed11_spec():
    from kropinaflat import corpus_dir, load_instance_file

    return load_instance_file(f"{corpus_dir()}/{SEED11}")


def _each_key_once(calls) -> bool:
    keys = [(kind, l) for kind in (DUALLY_FLAT, HAMEL) for l in (1, 2)]
    return sorted(calls) == sorted(keys)


def test_crosscheck_builds_each_residual_once_by_each_route(build_counts):
    from kropinaflat.cli import run_command

    run_command("crosscheck", _seed11_spec(), None, None)
    assert _each_key_once(build_counts["pexpr"])
    assert _each_key_once(build_counts["expanded"])


def test_corpus_checks_build_each_residual_once_by_each_route(build_counts):
    from kropinaflat import build_instance
    from kropinaflat.cli import _CORPUS_CHECKS

    inst = build_instance(_seed11_spec())
    for _, check in _CORPUS_CHECKS:
        check(inst)
    assert _each_key_once(build_counts["pexpr"])
    assert _each_key_once(build_counts["expanded"])


def test_crosscheck_route_disagreement_exits_three(capsys, monkeypatch):
    import kropinaflat.kropina as kropina
    from kropinaflat import corpus_dir
    from kropinaflat.cli import main

    monkeypatch.setattr(
        kropina, "_residual_expanded", lambda inst, kind, l: MultiPoly.const(inst.n, 1)
    )
    code = main(["crosscheck", "--input", f"{corpus_dir()}/{SEED11}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: RuntimeError: dually-flat residual routes disagree"
    )


def test_residual_cache_is_shared_and_route_checked_once(build_counts):
    inst = make_instance("(1 + x1)*y1^3 + y1*y2^2 + y2^3", "y1")
    unchecked = dually_flat_residual(inst, 1, self_check=False)
    assert build_counts["expanded"] == []
    assert dually_flat_residual(inst, 1) is unchecked
    assert dually_flat_residual(inst, 1) is unchecked
    assert build_counts == {"pexpr": [(DUALLY_FLAT, 1)], "expanded": [(DUALLY_FLAT, 1)]}
    assert condition_brackets(inst, 2) is condition_brackets(inst, 2)
    assert prop31_condition(inst, 2) is prop31_condition(inst, 2)


# -- the oracle's integer stencil ---------------------------------------------------

def test_crosscheck_evaluates_a_and_beta_once_per_stencil_point(monkeypatch):
    """Both kinds share one evaluation of A and beta at each stencil point."""
    import kropinaflat.algebra.poly as poly
    import kropinaflat.cli as cli
    import kropinaflat.kropina as kropina
    from kropinaflat import build_instance

    spec = _seed11_spec()
    inst = build_instance(spec)
    names = {id(inst.a.integer_form()[2]): "A", id(inst.b.integer_form()[2]): "beta"}
    counts = {"A": 0, "beta": 0}
    real_sum = poly.sum_terms

    def counting(rows, nums, q_pow):
        name = names.get(id(rows))
        if name:
            counts[name] += 1
        return real_sum(rows, nums, q_pow)

    real_sample = cli.sample_admissible_points

    def sample_uncounted(*args):
        points = real_sample(*args)
        counts.update(A=0, beta=0)
        return points

    monkeypatch.setattr(poly, "sum_terms", counting)
    monkeypatch.setattr(kropina, "sum_terms", counting)
    monkeypatch.setattr(cli, "sample_admissible_points", sample_uncounted)
    cli.run_command("crosscheck", spec, None, None, inst=inst)
    n, points = inst.n, spec.numeric_points
    assert (n, points) == (2, 20)
    per_point = 1 + n * (4 * n + 2)
    assert counts == {"A": per_point * points, "beta": per_point * points}


def _shifted(point, offset, step):
    xs, ys = list(point[0]), list(point[1])
    xk, sx, yl, sy = offset
    if xk is not None:
        xs[xk] += sx * step
    if yl is not None:
        ys[yl] += sy * step
    return xs, ys


_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=10**4)
_coordinates = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def _polys_and_point(draw):
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    monomials = st.tuples(exponents, exponents)
    polys = tuple(
        MultiPoly(n, draw(st.dictionaries(monomials, _coefficients, max_size=8)))
        for _ in range(draw(st.integers(1, 2)))
    )
    xs = tuple(draw(_coordinates) for _ in range(n))
    ys = tuple(draw(_coordinates) for _ in range(n))
    return polys, (xs, ys)


@settings(max_examples=150, deadline=None)
@given(_polys_and_point(), st.sampled_from([Fraction(1e-4), Fraction(1, 1000)]))
def test_stencil_values_are_the_rounded_exact_values(case, step):
    polys, point = case
    values, exact = _stencil_values(polys, *point, step)
    offsets = _stencil_offsets(len(point[0]))
    assert sorted(values, key=repr) == sorted(offsets, key=repr)
    assert exact == tuple(p.evaluate(*point) for p in polys)
    for offset in offsets:
        shifted = _shifted(point, offset, step)
        assert values[offset] == tuple(float(p.evaluate(*shifted)) for p in polys)


@pytest.mark.parametrize("kind", [DUALLY_FLAT, HAMEL])
def test_oracle_fails_a_residual_shifted_by_a_small_multiple_of_the_function(kind, monkeypatch):
    """eps*m^2*beta^2*A^2 added to every R_l (H_l) moves R_l/prefactor by eps*L (eps*Fbar)."""
    import kropinaflat.kropina as kropina
    from kropinaflat import build_instance, numeric_crosscheck, sample_admissible_points

    spec = _seed11_spec()
    inst = build_instance(spec)
    points = sample_admissible_points(inst, spec.numeric_points, spec.seed)
    assert len(points) == 20
    assert all(numeric_crosscheck(inst, kind, point, 1e-4).passed for point in points)

    shift = Fraction(inst.m ** 2, 10**4) * (inst.b * inst.a) ** 2
    name = "dually_flat_residual" if kind == DUALLY_FLAT else "hamel_residual"
    real = getattr(kropina, name)
    monkeypatch.setattr(kropina, name, lambda inst, l, self_check=True: real(inst, l) + shift)
    assert not any(numeric_crosscheck(inst, kind, point, 1e-4).passed for point in points)
