"""m-th root metric objects and their exact derived quantities.

The base object is a fiberwise degree-m homogeneous polynomial A(x, y)
together with a 1-form beta = b_i(x) y^i.  From A we derive first and
second fiber derivatives, x-derivatives, and their y-contractions, all as
exact polynomials, and verify the unconditional contraction identities

    y^i A_i = m A            y^i A_ij = (m-1) A_j

plus the denominator-cleared inverse identities built from the adjugate of
(A_ij).  Irreducibility of A is a hypothesis of the flatness theorems; it
is tracked as a refutation-only status, never proved.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra.poly import MultiPoly, divide_exact
from .reports import FAILS, HOLDS, INCONCLUSIVE, Condition, ConditionReport

ASSERTED = "asserted"
HEURISTICALLY_CONSISTENT = "heuristically_consistent"
REDUCIBLE = "reducible_witness"


@dataclass
class IrreducibilityStatus:
    kind: str  # one of ASSERTED, HEURISTICALLY_CONSISTENT, REDUCIBLE
    factor: MultiPoly | None = None
    detail: str | None = None

    def __str__(self) -> str:
        if self.kind == REDUCIBLE:
            return f"{self.kind}({self.factor})"
        return self.kind


class MthRootMetric:
    """F = A^(1/m) with A fiberwise homogeneous of degree m >= 3.

    Irreducibility of A is either asserted by the caller or probed lazily
    by a refutation-only heuristic; see irreducibility_heuristic().
    """

    def __init__(self, n: int, m: int, a: MultiPoly, assert_irreducible: bool = False):
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got n={n}")
        if m < 3:
            raise ValueError(f"root order must satisfy m > 2, got m={m}")
        if a.n != n:
            raise ValueError(f"polynomial block size {a.n} != n={n}")
        if a.is_zero():
            raise ValueError("metric polynomial must be nonzero")
        if a.homogeneous_y_degree() != m:
            raise ValueError(f"metric polynomial must be y-homogeneous of degree m={m}")
        self.n = n
        self.m = m
        self.a = a
        self._irreducibility: IrreducibilityStatus | None = (
            IrreducibilityStatus(ASSERTED, detail="asserted by caller")
            if assert_irreducible
            else None
        )

    @property
    def irreducibility(self) -> IrreducibilityStatus:
        if self._irreducibility is None:
            self._irreducibility = irreducibility_heuristic(self)
        return self._irreducibility


class OneForm:
    """beta = b_i(x) y^i with x-only polynomial components, not identically zero."""

    def __init__(self, components: list[MultiPoly]):
        if not components:
            raise ValueError("one-form needs at least one component")
        n = components[0].n
        if len(components) != n:
            raise ValueError(f"one-form needs n={n} components, got {len(components)}")
        for b in components:
            b._require_same(components[0])
            if not b.is_y_free():
                raise ValueError("one-form components must not depend on y")
        if all(b.is_zero() for b in components):
            raise ValueError("one-form must not vanish identically")
        self.n = n
        self.b = list(components)

    @classmethod
    def from_poly(cls, beta: MultiPoly) -> OneForm:
        if beta.is_zero():
            raise ValueError("one-form must not vanish identically")
        if beta.homogeneous_y_degree() != 1:
            raise ValueError("one-form must be y-homogeneous of degree 1")
        n = beta.n
        components = []
        for i in range(1, n + 1):
            yexp = tuple(1 if j == i else 0 for j in range(1, n + 1))
            components.append(beta.coefficient_of_y(yexp))
        return cls(components)

    def as_poly(self) -> MultiPoly:
        total = MultiPoly.zero(self.n)
        for i, b in enumerate(self.b, start=1):
            total = total + b * MultiPoly.var_y(self.n, i)
        return total


@dataclass
class DerivedQuantities:
    """All first-layer derived polynomials of (A, beta).

    a_0l[l] is the y^l-derivative of the x-derivatives contracted with y,
    sum_k d(A_{x^k})/dy^l * y^k, so that d(A_0)/dy^l = A_{x^l} + A_0l[l].
    """

    a_i: list[MultiPoly]
    a_ij: list[list[MultiPoly]]
    a_xl: list[MultiPoly]
    a_0: MultiPoly
    a_0l: list[MultiPoly]
    beta_xl: list[MultiPoly]
    beta_0: MultiPoly
    beta_0l: list[MultiPoly]


def derive(metric: MthRootMetric, beta: OneForm) -> DerivedQuantities:
    if metric.n != beta.n:
        raise ValueError(f"dimension mismatch: metric n={metric.n}, one-form n={beta.n}")
    n = metric.n
    a = metric.a
    ys = [MultiPoly.var_y(n, i) for i in range(1, n + 1)]

    a_i = [a.diff_y(i) for i in range(1, n + 1)]
    a_ij = [[a_i[i].diff_y(j + 1) for j in range(n)] for i in range(n)]
    a_xl = [a.diff_x(l) for l in range(1, n + 1)]

    a_0 = MultiPoly.zero(n)
    for k in range(n):
        a_0 = a_0 + a_xl[k] * ys[k]

    a_0l = []
    for l in range(1, n + 1):
        acc = MultiPoly.zero(n)
        for k in range(n):
            acc = acc + a_xl[k].diff_y(l) * ys[k]
        a_0l.append(acc)

    beta_poly = beta.as_poly()
    beta_xl = [beta_poly.diff_x(l) for l in range(1, n + 1)]
    beta_0 = MultiPoly.zero(n)
    for k in range(n):
        beta_0 = beta_0 + beta_xl[k] * ys[k]

    beta_0l = []
    for l in range(n):
        acc = MultiPoly.zero(n)
        for k in range(n):
            acc = acc + beta.b[l].diff_x(k + 1) * ys[k]
        beta_0l.append(acc)

    return DerivedQuantities(
        a_i=a_i,
        a_ij=a_ij,
        a_xl=a_xl,
        a_0=a_0,
        a_0l=a_0l,
        beta_xl=beta_xl,
        beta_0=beta_0,
        beta_0l=beta_0l,
    )


def verify_euler_identities(metric: MthRootMetric) -> ConditionReport:
    """Exact check of y^i A_i = m A and y^i A_ij = (m-1) A_j for each j."""
    n, m, a = metric.n, metric.m, metric.a
    ys = [MultiPoly.var_y(n, i) for i in range(1, n + 1)]
    a_i = [a.diff_y(i) for i in range(1, n + 1)]

    report = ConditionReport(name="euler-identities")

    lhs = MultiPoly.zero(n)
    for k in range(n):
        lhs = lhs + ys[k] * a_i[k]
    diff = lhs - a * m
    if diff.is_zero():
        report.conditions.append(Condition("y^i*A_i = m*A", HOLDS))
    else:
        report.conditions.append(Condition("y^i*A_i = m*A", FAILS, witness=str(diff)))

    violations = []
    for j in range(n):
        lhs2 = MultiPoly.zero(n)
        for i in range(n):
            lhs2 = lhs2 + ys[i] * a.diff_y(i + 1).diff_y(j + 1)
        diff2 = lhs2 - a_i[j] * (m - 1)
        if not diff2.is_zero():
            violations.append(f"j={j + 1}: {diff2}")
    if violations:
        report.conditions.append(
            Condition("y^i*A_ij = (m-1)*A_j", FAILS, witness="; ".join(violations))
        )
    else:
        report.conditions.append(Condition("y^i*A_ij = (m-1)*A_j", HOLDS))
    return report


def _determinant(mat: list[list[MultiPoly]]) -> MultiPoly:
    size = len(mat)
    n = mat[0][0].n
    if size == 1:
        return mat[0][0]
    total = MultiPoly.zero(n)
    for col in range(size):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        term = mat[0][col] * _determinant(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def _adjugate(mat: list[list[MultiPoly]]) -> list[list[MultiPoly]]:
    size = len(mat)
    adj = [[None] * size for _ in range(size)]
    for r in range(size):
        for c in range(size):
            minor = [
                [mat[i][j] for j in range(size) if j != c]
                for i in range(size)
                if i != r
            ]
            cof = _determinant(minor) if size > 1 else MultiPoly.const(mat[0][0].n, 1)
            if (r + c) % 2 == 1:
                cof = -cof
            adj[c][r] = cof  # transpose of the cofactor matrix
    return adj


def verify_inverse_identities(metric: MthRootMetric) -> ConditionReport:
    """Denominator-cleared inverse identities via adjugate and determinant.

    Checks (m-1) * adj(A_ij) . A_i = det * y^j componentwise and
    (m-1) * A_i A_j adj^{ij} = m * det * A.  Inconclusive when det(A_ij)
    vanishes identically or n exceeds the exact-adjugate bound of 3.
    """
    n, m, a = metric.n, metric.m, metric.a
    report = ConditionReport(name="inverse-identities")
    if n > 3:
        report.conditions.append(
            Condition(
                "adjugate identities",
                INCONCLUSIVE,
                detail=f"exact adjugate check restricted to n <= 3, got n={n}",
            )
        )
        return report

    a_i = [a.diff_y(i) for i in range(1, n + 1)]
    a_ij = [[a_i[i].diff_y(j + 1) for j in range(n)] for i in range(n)]
    det = _determinant(a_ij)
    if det.is_zero():
        report.conditions.append(
            Condition("adjugate identities", INCONCLUSIVE, detail="det(A_ij) = 0 identically")
        )
        report.derived_facts["determinant"] = "0"
        return report
    adj = _adjugate(a_ij)
    ys = [MultiPoly.var_y(n, i) for i in range(1, n + 1)]

    violations = []
    for j in range(n):
        lhs = MultiPoly.zero(n)
        for i in range(n):
            lhs = lhs + adj[j][i] * a_i[i]
        diff = lhs * (m - 1) - det * ys[j]
        if not diff.is_zero():
            violations.append(f"j={j + 1}: {diff}")
    if violations:
        report.conditions.append(
            Condition("(m-1)*adj.A_i = det*y^j", FAILS, witness="; ".join(violations))
        )
    else:
        report.conditions.append(Condition("(m-1)*adj.A_i = det*y^j", HOLDS))

    double = MultiPoly.zero(n)
    for i in range(n):
        for j in range(n):
            double = double + a_i[i] * a_i[j] * adj[i][j]
    diff2 = double * (m - 1) - det * a * m
    if diff2.is_zero():
        report.conditions.append(Condition("(m-1)*A_i*A_j*adj^ij = m*det*A", HOLDS))
    else:
        report.conditions.append(
            Condition("(m-1)*A_i*A_j*adj^ij = m*det*A", FAILS, witness=str(diff2))
        )
    return report


# -- irreducibility heuristic ------------------------------------------------

# A line restriction whose cleared integer constant or leading coefficient
# exceeds this in absolute value is skipped: the rational-root candidates
# are all p/q with p | const and q | lead, so their number grows with both.
ROOT_SEARCH_BOUND = 10**4


def _divisors(v: int) -> list[int]:
    out = []
    d = 1
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            out.append(v // d)
        d += 1
    return out


def _cleared(coeffs: list) -> list[int]:
    """The rationals in coeffs times the lcm of their denominators."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def _vanishes_at(ints: list[int], p: int, q: int) -> bool:
    """Whether sum ints[i] t^i is zero at t = p/q (q > 0), in integers."""
    acc, q_power = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * q_power
        q_power *= q
    return acc == 0


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction] | None:
    """All rational roots of sum coeffs[i] t^i, by the rational root theorem.

    Returns None, having tried nothing, when the cleared integer constant or
    leading coefficient exceeds ROOT_SEARCH_BOUND.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots
    ints = _cleared(coeffs)
    lead, const = abs(ints[-1]), abs(ints[0])
    if lead > ROOT_SEARCH_BOUND or const > ROOT_SEARCH_BOUND:
        return None
    seen = set(roots)
    lead_divisors = _divisors(lead)
    for p in _divisors(const):
        for q in lead_divisors:
            for signed in (p, -p):
                if _vanishes_at(ints, signed, q):
                    candidate = Fraction(signed, q)
                    if candidate not in seen:
                        seen.add(candidate)
                        roots.append(candidate)
    return roots


def _primitive(coeffs: list) -> tuple[int, ...] | None:
    """The integer multiple of coeffs with gcd 1 and positive first nonzero entry.

    Two coefficient lists get the same tuple exactly when dividing each by
    its first nonzero entry gives the same normalized list.
    """
    ints = _cleared(coeffs)
    g = math.gcd(*ints)
    if g == 0:
        return None
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


def _at_x(a: MultiPoly, xs: tuple) -> dict[tuple[int, ...], Fraction]:
    """A at x = xs, as y-exponent -> coefficient."""
    out: dict[tuple[int, ...], Fraction] = {}
    for (yexp, xexp), c in a.terms.items():
        value = c
        for e, v in zip(xexp, xs):
            if e:
                value *= v**e
        out[yexp] = out.get(yexp, Fraction(0)) + value
    return out


def irreducibility_heuristic(metric: MthRootMetric) -> IrreducibilityStatus:
    """Refutation-only evidence about irreducibility of A, never a proof.

    Searches a small integer grid of constant-coefficient y-linear factors,
    then restricts A to deterministic and seeded rational lines in y at
    rational x-points and rational-root-tests the resulting univariate
    polynomials, lifting any root to a candidate linear factor.  A verified
    factor refutes irreducibility; otherwise the status is heuristically
    consistent with it.

    Candidates are deduplicated up to a scalar.  Each new candidate L is
    first screened on its zero set: x and every y but the one of L's first
    nonzero coefficient, y_k, are fixed at one integer point, and y_k is
    solved from L = 0.  If L divided A, A would vanish there, so a nonzero
    exact value rules L out.  Only a candidate that passes the screen is
    divided, and exact division verifies every reported factor; the screen
    changes the cost, never the result.

    The rational-root search skips a line restriction whose cleared integer
    constant or leading coefficient exceeds ROOT_SEARCH_BOUND in absolute
    value, so that its cost does not grow with the size of A's
    coefficients.  Skipping only weakens the refutation; the detail says how
    many line restrictions were skipped.
    """
    if metric._irreducibility is not None and metric._irreducibility.kind == ASSERTED:
        return metric._irreducibility
    n, a = metric.n, metric.a

    # Screen point: distinct odd y-values, and x-values away from the 0 and
    # 1 the line restrictions use.
    screen_x = tuple(k + 2 for k in range(n))
    screen_y = tuple(2 * k + 3 for k in range(n))
    at_screen_x = _at_x(a, screen_x)
    # on_axis[k]: cleared coefficients in y_k of A at the screen point
    on_axis = []
    for k in range(n):
        coeffs = [Fraction(0)] * (metric.m + 1)
        for yexp, value in at_screen_x.items():
            for j, (e, v) in enumerate(zip(yexp, screen_y)):
                if e and j != k:
                    value *= v**e
            coeffs[yexp[k]] += value
        on_axis.append(_cleared(coeffs))
    zero_x = (0,) * n
    tried: set[tuple[int, ...]] = set()

    def try_form(coeffs: list) -> MultiPoly | None:
        key = _primitive(coeffs)
        if key is None or key in tried:
            return None
        tried.add(key)
        k = next(i for i, c in enumerate(key) if c)
        # L = 0 at y_k = -rest / key[k]
        rest = sum(c * v for c, v in zip(key[k + 1 :], screen_y[k + 1 :]))
        if not _vanishes_at(on_axis[k], -rest, key[k]):
            return None
        form = MultiPoly(
            n,
            {
                (tuple(int(i == j) for j in range(n)), zero_x): Fraction(c, key[k])
                for i, c in enumerate(key)
                if c
            },
        )
        if divide_exact(a, form) is not None:
            return form
        return None

    for combo in itertools.product(range(-2, 3), repeat=n):
        factor = try_form(list(combo))
        if factor is not None:
            return IrreducibilityStatus(REDUCIBLE, factor=factor, detail="grid linear factor")

    rng = random.Random(0x5EED)
    x_points = [tuple(Fraction(0) for _ in range(n)), tuple(Fraction(1) for _ in range(n))]
    x_points += [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        for _ in range(3)
    ]
    root_seen = False
    skipped = 0
    for xs in x_points:
        at_x = _at_x(a, xs)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                # Restrict to the line y = t e_i + e_j and read off the
                # univariate coefficients exactly.
                coeffs = [Fraction(0)] * (metric.m + 1)
                for yexp, value in at_x.items():
                    if yexp[i - 1] + yexp[j - 1] == metric.m:
                        coeffs[yexp[i - 1]] += value
                roots = _rational_roots(coeffs)
                if roots is None:
                    skipped += 1
                    continue
                for root in roots:
                    root_seen = True
                    candidate = [Fraction(0)] * n
                    candidate[i - 1] = Fraction(1)
                    candidate[j - 1] = -root
                    factor = try_form(candidate)
                    if factor is not None:
                        return IrreducibilityStatus(
                            REDUCIBLE, factor=factor, detail="line-restriction root lift"
                        )
    detail = (
        "no verified factor; some line restrictions had rational roots"
        if root_seen
        else "no grid factor and no rational roots on sampled line restrictions"
    )
    if skipped:
        detail += (
            f"; {skipped} of {len(x_points) * n * (n - 1)} line restrictions skipped"
            f" (integer coefficient above {ROOT_SEARCH_BOUND})"
        )
    return IrreducibilityStatus(HEURISTICALLY_CONSISTENT, detail=detail)
