"""Rational functions in the x-block and exact division over them.

RatFunc is a quotient num/den of two x-only polynomials.  Equality is by
cross-multiplication (num1*den2 == num2*den1), so no multivariate gcd is
ever required for correctness; a cheap normalization (monic denominator,
cancellation when the division happens to be exact) keeps the common
conformal-factor cases tidy.

divide_exact_qx divides one polynomial by another over Q(x), treating them
as polynomials in y with RatFunc coefficients, to extract 1-forms; its
quotient maps y-exponents to RatFunc coefficients.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, divide_exact


class RatFunc:
    """Quotient of two x-only polynomials; the denominator is nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.n, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_y_free() or not den.is_y_free():
            raise ValueError("rational functions must be y-free")
        num._require_same(den)
        if num.is_zero():
            den = MultiPoly.const(num.n, 1)
        else:
            exact = divide_exact(num, den)
            if exact is not None:
                num, den = exact, MultiPoly.const(num.n, 1)
            _, lc = den.leading()
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def const(cls, n: int, value) -> RatFunc:
        return cls(MultiPoly.const(n, value))

    @property
    def n(self) -> int:
        return self.num.n

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __mul__(self, other) -> RatFunc:
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, self.den)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.n, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self!s})"


def _ydeg_key(yexp: tuple[int, ...]) -> tuple:
    return (sum(yexp), yexp)


def divide_exact_qx(num: MultiPoly, den: MultiPoly) -> dict[tuple[int, ...], RatFunc] | None:
    """Exact quotient of num by den over the rational functions in x.

    Treats both polynomials as elements of Q(x)[y] and eliminates leading
    y-monomials in graded-lex order; the x-content of each term becomes a
    RatFunc coefficient.  Returns the quotient as {y-exponent: nonzero
    coefficient} when den divides num over this field, otherwise None.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    num._require_same(den)
    n = num.n
    den_terms = {yexp: RatFunc(den.coefficient_of_y(yexp)) for yexp in den.y_monomials()}
    lead_y = max(den_terms, key=_ydeg_key)
    lead_coeff = den_terms[lead_y]
    rem = {yexp: RatFunc(num.coefficient_of_y(yexp)) for yexp in num.y_monomials()}
    quotient: dict[tuple[int, ...], RatFunc] = {}
    while rem:
        y_r = max(rem, key=_ydeg_key)
        dm = tuple(a - b for a, b in zip(y_r, lead_y))
        if any(e < 0 for e in dm):
            return None
        # The leading y-monomial of rem falls at every step, so each dm is new.
        factor = quotient[dm] = rem[y_r] / lead_coeff
        for y_d, c_d in den_terms.items():
            key = tuple(a + b for a, b in zip(dm, y_d))
            updated = rem.get(key, RatFunc.const(n, 0)) - factor * c_d
            if updated.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = updated
    return quotient
