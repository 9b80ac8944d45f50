"""Finite sums of terms  poly * A^a * beta^b  closed under differentiation.

A and beta are fixed reference polynomials (the degree-m base polynomial of
an m-th root metric and a 1-form).  The A-exponent a is a Fraction whose
denominator divides the root order m; the beta-exponent b is an integer of
either sign.  Terms with equal exponent pairs are merged and zero-poly
terms dropped, so equality of term maps is a faithful normal form given
fixed references.

Differentiation applies the chain rule

    d(poly * A^a * b^s) = (d poly) A^a b^s + a poly (dA) A^(a-1) b^s
                          + s poly (db) A^a b^(s-1)

and normalize() clears a common prefactor A^clear_a * beta^clear_b,
expanding to a single MultiPoly when every cleared exponent pair lands in
the nonnegative integers.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import MultiPoly

ExponentPair = tuple[Fraction, int]


class PowerExpr:
    __slots__ = ("n", "m", "ref_a", "ref_b", "terms")

    def __init__(
        self,
        m: int,
        ref_a: MultiPoly,
        ref_b: MultiPoly,
        terms: Mapping[ExponentPair, MultiPoly] | None = None,
    ):
        if m < 1:
            raise ValueError(f"root order must be positive, got {m}")
        ref_a._require_same(ref_b)
        self.n = ref_a.n
        self.m = m
        self.ref_a = ref_a
        self.ref_b = ref_b
        clean: dict[ExponentPair, MultiPoly] = {}
        if terms:
            for (a_exp, b_exp), poly in terms.items():
                a_exp = Fraction(a_exp)
                if m % a_exp.denominator != 0:
                    raise ValueError(
                        f"A-exponent {a_exp} has denominator not dividing m={m}"
                    )
                if poly.is_zero():
                    continue
                key = (a_exp, int(b_exp))
                if key in clean:
                    merged = clean[key] + poly
                    if merged.is_zero():
                        del clean[key]
                    else:
                        clean[key] = merged
                else:
                    clean[key] = poly
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, ref_a: MultiPoly, ref_b: MultiPoly) -> PowerExpr:
        return cls(m, ref_a, ref_b)

    @classmethod
    def single(
        cls, m: int, ref_a: MultiPoly, ref_b: MultiPoly, poly: MultiPoly, a_exp, b_exp: int
    ) -> PowerExpr:
        return cls(m, ref_a, ref_b, {(Fraction(a_exp), b_exp): poly})

    def _same_context(self, other: PowerExpr) -> None:
        if self.m != other.m or self.ref_a != other.ref_a or self.ref_b != other.ref_b:
            raise ValueError("power expressions have different reference A or beta")

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: PowerExpr) -> PowerExpr:
        if not isinstance(other, PowerExpr):
            return NotImplemented
        self._same_context(other)
        out = dict(self.terms)
        for key, poly in other.terms.items():
            if key in out:
                out[key] = out[key] + poly
            else:
                out[key] = poly
        return PowerExpr(self.m, self.ref_a, self.ref_b, out)

    def __sub__(self, other: PowerExpr) -> PowerExpr:
        if not isinstance(other, PowerExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> PowerExpr:
        return PowerExpr(
            self.m, self.ref_a, self.ref_b, {k: -p for k, p in self.terms.items()}
        )

    def scaled(self, factor) -> PowerExpr:
        """Multiply every term's polynomial part by a scalar or MultiPoly."""
        return PowerExpr(
            self.m, self.ref_a, self.ref_b, {k: p * factor for k, p in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerExpr):
            return NotImplemented
        return (
            self.m == other.m
            and self.ref_a == other.ref_a
            and self.ref_b == other.ref_b
            and self.terms == other.terms
        )

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def diff(self, wrt: str, i: int) -> PowerExpr:
        """Partial derivative with respect to x_i or y_i (wrt 'x' or 'y', 1-based)."""
        if wrt == "x":
            d_poly = lambda p: p.diff_x(i)
        elif wrt == "y":
            d_poly = lambda p: p.diff_y(i)
        else:
            raise ValueError(f"wrt must be 'x' or 'y', got {wrt!r}")
        d_ref_a = d_poly(self.ref_a)
        d_ref_b = d_poly(self.ref_b)
        out: dict[ExponentPair, MultiPoly] = {}

        def accumulate(key: ExponentPair, poly: MultiPoly) -> None:
            if poly.is_zero():
                return
            if key in out:
                out[key] = out[key] + poly
            else:
                out[key] = poly

        for (a_exp, b_exp), poly in self.terms.items():
            accumulate((a_exp, b_exp), d_poly(poly))
            if a_exp != 0 and not d_ref_a.is_zero():
                accumulate((a_exp - 1, b_exp), poly * d_ref_a * a_exp)
            if b_exp != 0 and not d_ref_b.is_zero():
                accumulate((a_exp, b_exp - 1), poly * d_ref_b * b_exp)
        return PowerExpr(self.m, self.ref_a, self.ref_b, out)

    # -- normalization and evaluation ---------------------------------------

    def normalize(self, clear_a, clear_b: int) -> MultiPoly | None:
        """Multiply by A^clear_a * beta^clear_b and expand, or None.

        Returns the expanded MultiPoly when every shifted exponent pair is a
        pair of nonnegative integers; otherwise None (the expression is not
        polynomial after clearing).
        """
        clear_a = Fraction(clear_a)
        shifted: list[tuple[int, int, MultiPoly]] = []
        for (a_exp, b_exp), poly in self.terms.items():
            a_total = a_exp + clear_a
            b_total = b_exp + clear_b
            if a_total.denominator != 1 or a_total < 0 or b_total < 0:
                return None
            shifted.append((int(a_total), b_total, poly))
        result = MultiPoly.zero(self.n)
        a_pows: dict[int, MultiPoly] = {}
        b_pows: dict[int, MultiPoly] = {}
        for a_int, b_int, poly in shifted:
            if a_int not in a_pows:
                a_pows[a_int] = self.ref_a ** a_int
            if b_int not in b_pows:
                b_pows[b_int] = self.ref_b ** b_int
            result = result + poly * a_pows[a_int] * b_pows[b_int]
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (a_exp, b_exp), poly in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]), reverse=True
        ):
            pieces.append(f"({poly})*A^({a_exp})*beta^({b_exp})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"PowerExpr({self!s})"
