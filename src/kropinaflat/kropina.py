"""Kropina change of an m-th root metric and its flatness checkers.

For F = A^(1/m) and a 1-form beta, the Kropina change is Fbar = F^2/beta,
so L = Fbar^2 = A^(4/m)/beta^2.  Both flatness PDEs are decided on the
denominator-cleared polynomial residual of Phi = A^(p/m) beta^q,

  m^2 A^(2-p/m) beta^(2-q) [ y^k Phi_{x^k y^l} - c Phi_{x^l} ],

with (p, q, c) = (4, -2, 2), Phi = L, for the dually flat R_l and
(2, -1, 1), Phi = Fbar, for the Hamel H_l.  Fractional powers stay in the
PowerExpr route, which builds m^2 [(Phi_0)_{y^l} - (c+1) Phi_{x^l}] from
Phi_0 = y^k Phi_{x^k}, formed once per kind.  On its first route-checked
request each residual is compared once with the expanded bracket form

  beta^2 [p(p-m) A_l A_0 + pm A (A_0l - c A_xl)] + pqm A beta C2_l
    + m^2 A^2 [q(q-1) beta_l beta_0 + q beta (beta_0l - c beta_xl)];

the two must agree exactly (internal self-check).  Its seven products, the
brackets C1, C2, C3 and T built from them, the residuals and the theta
extraction are cached on the instance and shared by every check; the
contraction probes verify the derived identities

  sum_l y^l C1_l = 2m A A_0        sum_l y^l T_l = m A A_0

which hold unconditionally (they follow from the degree contractions
y^l A_l = mA, y^l A_0l = mA_0, y^l A_xl = A_0) and force A_0 = 0 whenever
the bracket conditions all vanish.  An independent floating-point oracle
cross-checks the symbolic residuals by central finite differences.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra.poly import MultiPoly, common_denominator, find_nonzero_point, powers, sum_terms
from .algebra.powerexpr import PowerExpr
from .algebra.ratfunc import RatFunc, divide_exact_qx
from .finsler import REDUCIBLE, DerivedQuantities, MthRootMetric, OneForm, derive
from .reports import FAILS, HOLDS, INCONCLUSIVE, Condition, ConditionReport, format_point

DUALLY_FLAT = "dually_flat"
HAMEL = "hamel"

# (p, q, c) of each residual kind; see the module docstring.
_KINDS = {DUALLY_FLAT: (4, -2, 2), HAMEL: (2, -1, 1)}


class KropinaInstance:
    """An m-th root metric with a 1-form, plus cached derived quantities."""

    def __init__(self, metric: MthRootMetric, beta: OneForm):
        if metric.n != beta.n:
            raise ValueError(f"dimension mismatch: metric n={metric.n}, one-form n={beta.n}")
        self.metric = metric
        self.beta = beta
        self.derived: DerivedQuantities = derive(metric, beta)
        self.a = metric.a
        self.b = beta.as_poly()
        self._a_sq = self.a * self.a
        self._ab = self.a * self.b
        self._b_sq = self.b * self.b
        self._ys = [MultiPoly.var_y(metric.n, i) for i in range(1, metric.n + 1)]
        # Derived values built on first request, keyed by (what, l), by
        # (what, kind), by ("theta", None), or, for the oracle's stencil,
        # ("stencil", (xs, ys, step)); MultiPoly is immutable, so callers may
        # share them.
        self._cache: dict[tuple[str, object], object] = {}
        self._route_checked: set[tuple[str, int]] = set()

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def m(self) -> int:
        return self.metric.m

    def _memo(self, key: tuple[str, object], build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value


def _power_expr(inst: KropinaInstance, kind: str) -> PowerExpr:
    p, q, _ = _KINDS[kind]
    one = MultiPoly.const(inst.n, 1)
    return PowerExpr.single(inst.m, inst.a, inst.b, one, Fraction(p, inst.m), q)


def kropina_L(inst: KropinaInstance) -> PowerExpr:
    """L = Fbar^2 = A^(4/m) * beta^(-2) as a single-term power expression."""
    return _power_expr(inst, DUALLY_FLAT)


def kropina_F(inst: KropinaInstance) -> PowerExpr:
    """Fbar = A^(2/m) * beta^(-1)."""
    return _power_expr(inst, HAMEL)


# -- bracket polynomials -----------------------------------------------------

def _bracket_products(inst: KropinaInstance, l: int) -> tuple[MultiPoly, ...]:
    """The seven products every bracket at index l combines (cached):

        A_l A_0, A A_0l, A A_xl, C2_l = beta_0 A_l + A_0 beta_l,
        beta_l beta_0, beta beta_0l, beta beta_xl
    """
    def build():
        d = inst.derived
        k = l - 1
        beta_l = inst.beta.b[k]
        return (
            d.a_i[k] * d.a_0, inst.a * d.a_0l[k], inst.a * d.a_xl[k],
            d.beta_0 * d.a_i[k] + d.a_0 * beta_l,
            beta_l * d.beta_0, inst.b * d.beta_0l[k], inst.b * d.beta_xl[k],
        )

    return inst._memo(("products", l), build)


def condition_brackets(inst: KropinaInstance, l: int) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """The three cleared brackets of the dually-flat residual at index l.

        C1_l = (4-m) A_l A_0 + m A A_0l - 2m A A_xl
        C2_l = beta_0 A_l + A_0 beta_l
        C3_l = beta_0l beta - 3 beta_l beta_0 - 2 beta beta_xl

    R_l = 4 beta^2 C1_l - 8m A beta C2_l - 2m^2 A^2 C3_l.  Cached on the
    instance.
    """
    def build():
        m = inst.m
        al_a0, a_a0l, a_axl, c2, bl_b0, b_b0l, b_bxl = _bracket_products(inst, l)
        c1 = al_a0 * (4 - m) + a_a0l * m - a_axl * (2 * m)
        c3 = b_b0l - bl_b0 * 3 - b_bxl * 2
        return c1, c2, c3

    return inst._memo(("brackets", l), build)


def prop31_condition(inst: KropinaInstance, l: int) -> MultiPoly:
    """T_l = m A (A_0l - A_xl) - (m-2) A_0 A_l, the projective bracket (cached)."""
    def build():
        al_a0, a_a0l, a_axl = _bracket_products(inst, l)[:3]
        return (a_a0l - a_axl) * inst.m - al_a0 * (inst.m - 2)

    return inst._memo(("prop31", l), build)


# -- residuals ---------------------------------------------------------------

def _phi_derivatives(inst: KropinaInstance, kind: str) -> tuple[list[PowerExpr], PowerExpr]:
    """[Phi_{x^1}, ..., Phi_{x^n}] and Phi_0 = y^k Phi_{x^k} (cached per kind)."""
    def build():
        phi = _power_expr(inst, kind)
        phi_x = [phi.diff("x", k) for k in range(1, inst.n + 1)]
        phi_0 = PowerExpr.zero(inst.m, inst.a, inst.b)
        for d_phi, y in zip(phi_x, inst._ys):
            phi_0 = phi_0 + d_phi.scaled(y)
        return phi_x, phi_0

    return inst._memo(("phi", kind), build)


def _residual_pexpr(inst: KropinaInstance, kind: str, l: int) -> MultiPoly:
    """m^2 [(Phi_0)_{y^l} - (c+1) Phi_{x^l}], cleared by A^(2-p/m) beta^(2-q).

    Uses y^k Phi_{x^k y^l} = (Phi_0)_{y^l} - Phi_{x^l}.
    """
    p, q, c = _KINDS[kind]
    m = inst.m
    phi_x, phi_0 = _phi_derivatives(inst, kind)
    acc = (phi_0.diff("y", l) - phi_x[l - 1].scaled(c + 1)).scaled(m * m)
    poly = acc.normalize(2 - Fraction(p, m), 2 - q)
    if poly is None:
        raise RuntimeError(
            f"{kind} residual did not clear to a polynomial; implementation fault"
        )
    return poly


def _residual_expanded(inst: KropinaInstance, kind: str, l: int) -> MultiPoly:
    """The same residual as one bracket form over the seven products:

        beta^2 [p(p-m) A_l A_0 + pm A (A_0l - c A_xl)] + pqm A beta C2_l
          + m^2 A^2 [q(q-1) beta_l beta_0 + q beta (beta_0l - c beta_xl)]
    """
    p, q, c = _KINDS[kind]
    m = inst.m
    al_a0, a_a0l, a_axl, c2, bl_b0, b_b0l, b_bxl = _bracket_products(inst, l)
    a_part = al_a0 * (p * (p - m)) + (a_a0l - a_axl * c) * (p * m)
    b_part = bl_b0 * (m * m * q * (q - 1)) + (b_b0l - b_bxl * c) * (m * m * q)
    return inst._b_sq * a_part + inst._ab * c2 * (p * q * m) + inst._a_sq * b_part


def _cached_residual(inst: KropinaInstance, kind: str, l: int, self_check: bool) -> tuple[MultiPoly, bool]:
    """The residual, built once per instance, and whether its routes agree.

    With self_check, the first request for a key compares it exactly with
    the expanded route; a key that agreed once is not compared again.
    """
    key = (kind, l)
    poly = inst._memo(key, lambda: _residual_pexpr(inst, kind, l))
    if self_check and key not in inst._route_checked:
        if poly != _residual_expanded(inst, kind, l):
            return poly, False
        inst._route_checked.add(key)
    return poly, True


def dually_flat_residual(inst: KropinaInstance, l: int, self_check: bool = True) -> MultiPoly:
    """Cleared dually-flat residual R_l, zero for all l iff dually flat.

    Built once per instance from the power expression of L; with self_check
    (the default) the expanded bracket form must agree exactly, which is
    checked once per instance and l.
    """
    poly, agrees = _cached_residual(inst, DUALLY_FLAT, l, self_check)
    if not agrees:
        raise RuntimeError("dually-flat residual routes disagree; implementation fault")
    return poly


def hamel_residual(inst: KropinaInstance, l: int, self_check: bool = True) -> MultiPoly:
    """Cleared Hamel residual H_l, zero for all l iff projectively flat (cached like R_l)."""
    poly, agrees = _cached_residual(inst, HAMEL, l, self_check)
    if not agrees:
        raise RuntimeError("Hamel residual routes disagree; implementation fault")
    return poly


def _residual_conditions(inst: KropinaInstance, residual, label: str) -> list[Condition]:
    conditions = []
    for l in range(1, inst.n + 1):
        poly = residual(inst, l)
        name = f"{label}_{l} = 0"
        if poly.is_zero():
            conditions.append(Condition(name, HOLDS))
        else:
            point = find_nonzero_point(poly)
            conditions.append(
                Condition(
                    name,
                    FAILS,
                    witness=str(poly),
                    witness_point=format_point(*point),
                )
            )
    return conditions


def check_dually_flat(inst: KropinaInstance) -> ConditionReport:
    """Direct PDE check: holds iff every cleared residual R_l is zero."""
    return ConditionReport(
        name="dually-flat",
        conditions=_residual_conditions(inst, dually_flat_residual, "R"),
    )


def check_projectively_flat(inst: KropinaInstance) -> ConditionReport:
    """Hamel criterion: holds iff every cleared residual H_l is zero."""
    return ConditionReport(
        name="projectively-flat",
        conditions=_residual_conditions(inst, hamel_residual, "H"),
    )


# -- theta extraction --------------------------------------------------------

THETA_OK = "ok"
THETA_NOT_DIVISIBLE = "not_divisible"
THETA_INCONCLUSIVE = "inconclusive"


@dataclass
class ThetaForm:
    """1-form theta = theta_l(x) y^l with rational-function components."""

    theta_l: list[RatFunc]

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.theta_l)

    def __str__(self) -> str:
        pieces = [
            f"({t})*y{i}" for i, t in enumerate(self.theta_l, start=1) if not t.is_zero()
        ]
        return " + ".join(pieces) if pieces else "0"


@dataclass
class ThetaExtraction:
    status: str  # THETA_OK / THETA_NOT_DIVISIBLE / THETA_INCONCLUSIVE
    theta: ThetaForm | None = None
    reason: str | None = None


def extract_theta(inst: KropinaInstance) -> ThetaExtraction:
    """Extract theta from A_0 = theta A by exact division over Q(x).

    Zero A_0 yields theta = 0.  A refuted irreducibility hypothesis blocks
    the extraction (the divisibility argument needs it), giving an
    inconclusive result rather than a wrong one.  Extracted once per
    instance; callers must not mutate the result.
    """
    return inst._memo(("theta", None), lambda: _extract_theta(inst))


def _extract_theta(inst: KropinaInstance) -> ThetaExtraction:
    status = inst.metric.irreducibility
    if status.kind == REDUCIBLE:
        return ThetaExtraction(
            THETA_INCONCLUSIVE,
            reason=f"irreducibility refuted: A has factor {status.factor}",
        )
    n = inst.n
    a_0 = inst.derived.a_0
    if a_0.is_zero():
        return ThetaExtraction(THETA_OK, ThetaForm([RatFunc.const(n, 0) for _ in range(n)]))
    quotient = divide_exact_qx(a_0, inst.a)
    if quotient is None:
        return ThetaExtraction(THETA_NOT_DIVISIBLE, reason="A does not divide A_0")
    if any(sum(yexp) != 1 for yexp in quotient):
        return ThetaExtraction(
            THETA_NOT_DIVISIBLE, reason="quotient A_0/A is not a 1-form"
        )
    zero = RatFunc.const(n, 0)
    theta_l = [quotient.get(tuple(int(j == i) for j in range(n)), zero) for i in range(n)]
    return ThetaExtraction(THETA_OK, ThetaForm(theta_l))


COND_BETA_BRACKET = "beta-bracket: beta_0l*beta - 3*beta_l*beta_0 = 2*beta*beta_xl"
COND_COUPLING = "coupling: beta_0*A_l = -beta_l*A_0"
COND_THETA = "theta-condition: 3m*A_xl = m*A*theta_l + 4*theta*A_l"


def check_theta_condition(inst: KropinaInstance, theta: ThetaForm) -> Condition:
    """Check A_xl = (1/(3m)) [m A theta_l + 4 theta A_l] for each l.

    The rational-function components of theta are cleared against the
    product of their denominators, so the comparison is exact polynomial
    identity, never a rational-function normal form.
    """
    n, m = inst.n, inst.m
    name = COND_THETA
    common = MultiPoly.const(n, 1)
    for t in theta.theta_l:
        common = common * t.den
    cleared_theta_l = []
    for i, t in enumerate(theta.theta_l):
        others = MultiPoly.const(n, 1)
        for j, s in enumerate(theta.theta_l):
            if j != i:
                others = others * s.den
        cleared_theta_l.append(t.num * others)
    theta_total = MultiPoly.zero(n)
    for i in range(n):
        theta_total = theta_total + cleared_theta_l[i] * MultiPoly.var_y(n, i + 1)

    for l in range(1, n + 1):
        k = l - 1
        lhs = common * inst.derived.a_xl[k] * (3 * m)
        rhs = inst.a * cleared_theta_l[k] * m + theta_total * inst.derived.a_i[k] * 4
        diff = lhs - rhs
        if not diff.is_zero():
            point = find_nonzero_point(diff)
            return Condition(
                name,
                FAILS,
                witness=f"l={l}: lhs - rhs = {diff}",
                witness_point=format_point(*point),
                detail=f"theta = {theta}",
            )
    return Condition(name, HOLDS, detail=f"theta = {theta}")


# -- theorem checkers --------------------------------------------------------

def _all_zero_condition(name: str, polys: list[MultiPoly], describe: str) -> Condition:
    for l, poly in enumerate(polys, start=1):
        if not poly.is_zero():
            point = find_nonzero_point(poly)
            return Condition(
                name,
                FAILS,
                witness=f"{describe}_{l} = {poly}",
                witness_point=format_point(*point),
            )
    return Condition(name, HOLDS)


def check_theorem1(inst: KropinaInstance) -> ConditionReport:
    """Characterization of the dually-flat Kropina change.

    Evaluates the three bracket conditions (the beta bracket, the beta/A
    coupling, and the theta condition via extraction), runs the direct
    residual check, and records whether the two verdicts agree, together
    with the derived consequence of the contraction probe: if the C1
    brackets all vanish then A*A_0 = 0, hence A_0 = 0.
    """
    n = inst.n
    brackets = [condition_brackets(inst, l) for l in range(1, n + 1)]
    c1s = [b[0] for b in brackets]
    c2s = [b[1] for b in brackets]
    c3s = [b[2] for b in brackets]

    report = ConditionReport(name="theorem1")
    report.conditions.append(_all_zero_condition(COND_BETA_BRACKET, c3s, "C3"))
    report.conditions.append(_all_zero_condition(COND_COUPLING, c2s, "C2"))

    direct = check_dually_flat(inst)
    extraction = extract_theta(inst)
    if extraction.status == THETA_OK:
        theta_cond = check_theta_condition(inst, extraction.theta)
    elif direct.overall == FAILS:
        # A failed extraction cannot refute the existence quantifier by
        # itself, but the direct PDE failure settles the verdict.
        failing = next(c for c in direct.conditions if c.verdict == FAILS)
        theta_cond = Condition(
            COND_THETA,
            FAILS,
            witness=failing.witness,
            witness_point=failing.witness_point,
            detail=f"theta extraction {extraction.status}: {extraction.reason}; "
            "direct residual check fails",
        )
    else:
        theta_cond = Condition(
            COND_THETA,
            INCONCLUSIVE,
            detail=f"theta extraction {extraction.status}: {extraction.reason}",
        )
    report.conditions.append(theta_cond)

    c1_all_zero = all(p.is_zero() for p in c1s)
    a0_zero = inst.derived.a_0.is_zero()
    report.derived_facts["theta"] = str(extraction.theta) if extraction.theta else None
    report.derived_facts["theta_status"] = extraction.status
    report.derived_facts["c1_all_zero"] = c1_all_zero
    report.derived_facts["a0_zero"] = a0_zero
    if c1_all_zero:
        report.derived_facts["c1_consequence"] = (
            "C1 = 0 for all l forces A*A_0 = 0 (contraction probe), hence A_0 = 0; "
            f"direct computation confirms A_0 = 0: {a0_zero}"
        )
    report.derived_facts["direct_dually_flat"] = direct.overall
    report.derived_facts["agrees_with_direct"] = report.overall == direct.overall
    return report


def check_prop31(inst: KropinaInstance) -> ConditionReport:
    """Projective bracket condition m A (A_0l - A_xl) = (m-2) A_0 A_l.

    Reports theta with the A_0 = 2m A theta scaling and the Berwald
    conclusion.  When T_l = 0 for every l, the contraction probe forces
    A_0 = 0, so A_0l = -A_xl and T_l = -2m A A_xl: A is x-free, hence
    locally Minkowskian.  A nonzero A_xl there is an implementation fault.
    """
    n, m = inst.n, inst.m
    ts = [prop31_condition(inst, l) for l in range(1, n + 1)]
    report = ConditionReport(name="prop31")
    report.conditions.append(
        _all_zero_condition("m*A*(A_0l - A_xl) = (m-2)*A_0*A_l", ts, "T")
    )
    holds = report.overall == HOLDS

    extraction = extract_theta(inst)
    theta = None
    if extraction.theta is not None:
        theta = ThetaForm([t * Fraction(1, 2 * m) for t in extraction.theta.theta_l])
    report.derived_facts["theta_status"] = extraction.status
    report.derived_facts["theta"] = str(theta) if theta else None
    report.derived_facts["berwald"] = holds
    if holds:
        if any(not a_xl.is_zero() for a_xl in inst.derived.a_xl):
            raise RuntimeError("prop31 holds but A depends on x; implementation fault")
        report.derived_facts["minkowski_sufficient"] = True
        report.derived_facts["minkowski_note"] = (
            "locally Minkowskian: A has no x-dependence in this chart"
        )
        a0_zero = inst.derived.a_0.is_zero()
        report.derived_facts["t_consequence"] = (
            "T = 0 for all l forces A*A_0 = 0 (contraction probe), hence A_0 = 0; "
            f"direct computation confirms A_0 = 0: {a0_zero}"
        )
    return report


# -- contraction probes ------------------------------------------------------

# Constants of the probe identities, derived once symbolically from the
# degree contractions y^l A_l = mA, y^l A_0l = mA_0, y^l A_xl = A_0:
#   sum_l y^l C1_l = (4-m)m A A_0 + m^2 A A_0 - 2m A A_0 = 2m A A_0
#   sum_l y^l T_l  = m A (m-1) A_0 - (m-2) m A A_0      =  m A A_0
# The test suite re-derives both constants independently by exact division.
def probe_constants(m: int) -> tuple[int, int]:
    return 2 * m, m


def contraction_probes(inst: KropinaInstance) -> ConditionReport:
    """Verify the unconditional probe identities for this instance."""
    n, m = inst.n, inst.m
    c_p1, c_p2 = probe_constants(m)
    aa0 = inst.a * inst.derived.a_0

    lhs1 = MultiPoly.zero(n)
    lhs2 = MultiPoly.zero(n)
    for l in range(1, n + 1):
        y = inst._ys[l - 1]
        lhs1 = lhs1 + y * condition_brackets(inst, l)[0]
        lhs2 = lhs2 + y * prop31_condition(inst, l)
    report = ConditionReport(name="contraction-probes")

    diff1 = lhs1 - aa0 * c_p1
    if diff1.is_zero():
        report.conditions.append(Condition(f"sum_l y^l*C1_l = {c_p1}*A*A_0", HOLDS))
    else:
        report.conditions.append(
            Condition(f"sum_l y^l*C1_l = {c_p1}*A*A_0", FAILS, witness=str(diff1))
        )
    diff2 = lhs2 - aa0 * c_p2
    if diff2.is_zero():
        report.conditions.append(Condition(f"sum_l y^l*T_l = {c_p2}*A*A_0", HOLDS))
    else:
        report.conditions.append(
            Condition(f"sum_l y^l*T_l = {c_p2}*A*A_0", FAILS, witness=str(diff2))
        )
    report.derived_facts["consequence"] = (
        "C1 = 0 for all l forces A*A_0 = 0 hence A_0 = 0; "
        "T = 0 for all l forces A_0 = 0"
    )
    return report


# -- numeric cross-check -----------------------------------------------------

@dataclass
class CrosscheckRow:
    l: int
    symbolic: float
    numeric: float
    disagreement: float

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "symbolic": self.symbolic,
            "numeric": self.numeric,
            "disagreement": self.disagreement,
        }


@dataclass
class CrosscheckResult:
    kind: str
    point: dict
    h: float
    rows: list[CrosscheckRow] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def max_disagreement(self) -> float:
        return max((r.disagreement for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_disagreement <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "point": self.point,
            "h": self.h,
            "rows": [r.to_dict() for r in self.rows],
            "max_disagreement": self.max_disagreement,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _phi(kind: str, m: int, a: float, b: float) -> float:
    """L (dually flat) or Fbar (Hamel) from the values of A and beta."""
    if a <= 0.0:
        raise ValueError("A is nonpositive at a stencil point")
    if b == 0.0:
        raise ValueError("beta vanishes at a stencil point")
    if kind == DUALLY_FLAT:
        return a ** (4.0 / m) / (b * b)
    return a ** (2.0 / m) / b


# A stencil offset: (x index, x sign, y index, y sign), index None if unshifted.
Offset = tuple[int | None, int, int | None, int]
_BASE: Offset = (None, 0, None, 0)


def _stencil_offsets(n: int) -> list[Offset]:
    """The base point, x_l +- h, and (x_k +- h, y_l +- h) for all k, l."""
    offsets = [_BASE]
    for l in range(n):
        offsets += [(l, 1, None, 0), (l, -1, None, 0)]
        offsets += [(k, sx, l, sy) for k in range(n) for sx in (1, -1) for sy in (1, -1)]
    return offsets


def _stencil_values(
    polys: tuple[MultiPoly, ...], xs: tuple[Fraction, ...], ys: tuple[Fraction, ...], step: Fraction
) -> tuple[dict[Offset, tuple[float, ...]], tuple[Fraction, ...]]:
    """Each polynomial at every stencil point around (xs, ys), as floats.

    Returns ({offset: values}, exact values at the base point).  The point
    and the step are brought to one denominator q once, so each stencil
    point is the base numerator vector with +-H = step*q added to one x-
    and/or one y-coordinate, and no Fraction is built.  Each value is the
    integer sum over D * q^top, rounded by int/int division, which equals
    float() of the exact value bit for bit.
    """
    n = len(xs)
    base, q = common_denominator(ys + xs + (step,))
    big_h = base.pop()
    forms = [p.integer_form() for p in polys]
    q_pow = powers(q, max(top for _, top, _ in forms))
    values = {}
    exact = ()
    for offset in _stencil_offsets(n):
        xk, sx, yl, sy = offset
        nums = list(base)
        if xk is not None:
            nums[n + xk] += sx * big_h
        if yl is not None:
            nums[yl] += sy * big_h
        sums = [(sum_terms(rows, nums, q_pow), d * q_pow[top]) for d, top, rows in forms]
        values[offset] = tuple(total / den for total, den in sums)
        if offset == _BASE:
            exact = tuple(Fraction(total, den) for total, den in sums)
    return values, exact


def numeric_crosscheck(
    inst: KropinaInstance,
    kind: str,
    point: tuple[tuple[Fraction, ...], tuple[Fraction, ...]],
    h,
) -> CrosscheckResult:
    """Independent finite-difference oracle for the cleared residuals.

    Computes the PDE residual at the point by second-order central
    differences of the floating-point L (or Fbar), divides the exact
    polynomial residual by the evaluated clearing prefactor, and reports
    the relative disagreement per index l.  The residual is the instance's
    cached, route-checked one, so repeated points rebuild nothing.

    A and beta are evaluated exactly at each of the 1 + n(4n+2) stencil
    points, in integers over one denominator shared by the point and the
    step, and rounded to floats by a correctly rounded int/int division;
    only the fractional powers are floating.  The stencil values are
    cached on the instance per (point, step), so the dually flat and the
    Hamel check at one point evaluate A and beta once between them.

    Stencil truncation and rounding both scale with the magnitude of the
    differentiated function, not with the (often much smaller) residual,
    so the disagreement is measured relative to the largest of 1, the two
    residuals, the combined magnitude of the finite-difference terms, and
    the function value at the point.  An implementation fault shifts the
    residual by the order of the function scale and is still detected.
    The tolerance is max(1e-6, 100 h^2).
    """
    if kind not in (DUALLY_FLAT, HAMEL):
        raise ValueError(f"unknown crosscheck kind {kind!r}")
    xs, ys = tuple(Fraction(v) for v in point[0]), tuple(Fraction(v) for v in point[1])
    step = Fraction(h)
    if step <= 0:
        raise ValueError(f"step must be positive, got {h}")
    values, (a_val, b_val) = inst._memo(
        ("stencil", (xs, ys, step)), lambda: _stencil_values((inst.a, inst.b), xs, ys, step)
    )
    if a_val <= 0:
        raise ValueError(f"A must be positive at the sample point, got {a_val}")
    if b_val <= 0:
        raise ValueError(f"beta must be positive at the sample point, got {b_val}")

    n, m = inst.n, inst.m
    h_float = float(step)
    tolerance = max(1e-6, 100.0 * h_float * h_float)
    a0, b0 = values[_BASE]
    if kind == DUALLY_FLAT:
        factor = 2.0
        prefactor = m * m * b0 ** 4 * a0 ** (2.0 - 4.0 / m)
    else:
        factor = 1.0
        prefactor = m * m * b0 ** 3 * a0 ** (2.0 - 2.0 / m)

    def phi(offset: Offset) -> float:
        return _phi(kind, m, *values[offset])

    result = CrosscheckResult(
        kind=kind, point=format_point(xs, ys), h=h_float, tolerance=tolerance
    )
    function_scale = abs(phi(_BASE))
    residual_of = dually_flat_residual if kind == DUALLY_FLAT else hamel_residual
    for l in range(1, n + 1):
        symbolic = float(residual_of(inst, l).evaluate(xs, ys)) / prefactor

        numeric = 0.0
        term_scale = 0.0
        for k in range(n):
            mixed = (
                phi((k, 1, l - 1, 1))
                - phi((k, 1, l - 1, -1))
                - phi((k, -1, l - 1, 1))
                + phi((k, -1, l - 1, -1))
            ) / (4.0 * h_float * h_float)
            numeric += mixed * float(ys[k])
            term_scale += abs(mixed * float(ys[k]))
        first = (phi((l - 1, 1, None, 0)) - phi((l - 1, -1, None, 0))) / (2.0 * h_float)
        numeric -= factor * first
        term_scale += abs(factor * first)

        disagreement = abs(symbolic - numeric) / max(
            1.0, abs(symbolic), abs(numeric), term_scale, function_scale
        )
        result.rows.append(CrosscheckRow(l, symbolic, numeric, disagreement))
    return result


# A sample point needs A and beta at least SAMPLE_MARGIN, and each at least
# SAMPLE_CONDITIONING times the sum of its term magnitudes there.
SAMPLE_MARGIN = Fraction(1, 4)
SAMPLE_CONDITIONING = Fraction(1, 8)


def sample_admissible_points(
    inst: KropinaInstance, count: int, seed: int
) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Seeded rational sample points where the oracle is well conditioned.

    Requires A and beta positive with an absolute floor, and additionally
    not small relative to the sum of their term magnitudes at the point;
    near the zero sets the logarithmic derivatives blow up and finite
    differences lose all accuracy regardless of step size.  Raises
    ValueError unless count >= 1.
    """
    if count < 1:
        raise ValueError(f"number of sample points must be positive, got {count}")
    rng = random.Random(seed)
    n = inst.n
    points = []
    attempts = 0
    max_attempts = 2000 * count
    while len(points) < count and attempts < max_attempts:
        attempts += 1
        xs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        ys = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
        a_val = inst.a.evaluate(xs, ys)
        b_val = inst.b.evaluate(xs, ys)
        if a_val < SAMPLE_MARGIN or b_val < SAMPLE_MARGIN:
            continue
        if a_val < SAMPLE_CONDITIONING * inst.a.evaluate_abs(xs, ys):
            continue
        if b_val < SAMPLE_CONDITIONING * inst.b.evaluate_abs(xs, ys):
            continue
        points.append((xs, ys))
    if len(points) < count:
        raise ValueError(
            f"found only {len(points)}/{count} admissible sample points "
            f"after {attempts} attempts"
        )
    return points
