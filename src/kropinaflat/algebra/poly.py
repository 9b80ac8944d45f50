"""Exact sparse polynomial arithmetic over the split variable blocks x1..xn, y1..yn.

A polynomial is stored as a dict mapping monomials to nonzero Fraction
coefficients, so identity testing is exact and canonical: two polynomials
are equal iff their term maps are equal.  A monomial is a pair of exponent
tuples ``(yexp, xexp)``, one entry per variable in each block.

The canonical term order is graded-lex with the y-block senior to the
x-block: compare total y-degree, then y-exponents lexicographically, then
total x-degree, then x-exponents.  Keeping the y-block senior makes the
leading y-monomial of a fiberwise homogeneous polynomial independent of its
x-coefficients, which exact division relies on.

The zero polynomial has an empty term map and prints as "0".

Products are computed in Python ints.  Each factor is packed once, on first
use: every monomial becomes one int holding y1..yn, then x1..xn, in fields
of `PACK_WIDTH` bits, so that multiplying monomials is adding their keys, and
the coefficients become integers c*D over the lcm D of their denominators.
The product sums the integer pair products per key and builds one Fraction
per output term, over Da*Db.  A field cannot carry into its neighbour: when
the largest exponents of the two factors sum to 2^PACK_WIDTH or more, both
are packed again with fields wide enough for that sum.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping

# (y exponents, x exponents), one entry per variable in each block.
Monomial = tuple[tuple[int, ...], tuple[int, ...]]

_ZERO = Fraction(0)

# Bits per exponent field of a packed monomial; see MultiPoly._packed_form.
PACK_WIDTH = 16


def monomial_key(mono: Monomial) -> tuple:
    """Sort key realizing the canonical order (y-senior graded-lex)."""
    yexp, xexp = mono
    return (sum(yexp), yexp, sum(xexp), xexp)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return (
        tuple(i + j for i, j in zip(a[0], b[0])),
        tuple(i + j for i, j in zip(a[1], b[1])),
    )


def _mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b componentwise, or None if any exponent would go negative."""
    yexp = tuple(i - j for i, j in zip(a[0], b[0]))
    xexp = tuple(i - j for i, j in zip(a[1], b[1]))
    if any(e < 0 for e in yexp) or any(e < 0 for e in xexp):
        return None
    return (yexp, xexp)


def _as_scalar(value) -> Fraction | None:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return None


class MultiPoly:
    """Sparse exact-rational polynomial in Q[x1..xn, y1..yn].

    Values are immutable after construction; all operations return new
    polynomials, so instances are safe to share between threads.  The
    integer form that evaluation uses and the packed form that products use
    are cached on first use, so `terms` must never be modified in place.
    """

    __slots__ = ("n", "terms", "_int_form", "_packed")

    def __init__(self, n: int, terms: Mapping[Monomial, Fraction] | None = None):
        if n < 1:
            raise ValueError(f"need at least one variable per block, got n={n}")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        self._init(n, clean)

    def _init(self, n: int, terms: dict[Monomial, Fraction]) -> None:
        self.n = n
        self.terms = terms
        self._int_form: IntegerForm | None = None
        self._packed: PackedForm | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _clean(cls, n: int, terms: dict[Monomial, Fraction]) -> MultiPoly:
        """A polynomial owning `terms`, which must hold only nonzero Fractions.

        For results the arithmetic has built itself; skips the validation
        that the public constructor runs on every term.
        """
        p = cls.__new__(cls)
        p._init(n, terms)
        return p

    @classmethod
    def zero(cls, n: int) -> MultiPoly:
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> MultiPoly:
        c = Fraction(value)
        if c == 0:
            return cls(n)
        unit = ((0,) * n, (0,) * n)
        return cls(n, {unit: c})

    @classmethod
    def var_x(cls, n: int, i: int) -> MultiPoly:
        """The variable x_i, 1-based."""
        _check_index(n, i)
        xexp = [0] * n
        xexp[i - 1] = 1
        return cls(n, {((0,) * n, tuple(xexp)): Fraction(1)})

    @classmethod
    def var_y(cls, n: int, i: int) -> MultiPoly:
        """The variable y_i, 1-based."""
        _check_index(n, i)
        yexp = [0] * n
        yexp[i - 1] = 1
        return cls(n, {(tuple(yexp), (0,) * n): Fraction(1)})

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_y_free(self) -> bool:
        return all(sum(mono[0]) == 0 for mono in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending canonical order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True)

    def leading(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=monomial_key)
        return mono, self.terms[mono]

    def max_var_degree(self) -> int:
        deg = 0
        for yexp, xexp in self.terms:
            deg = max(deg, max(yexp, default=0), max(xexp, default=0))
        return deg

    def homogeneous_y_degree(self) -> int | None:
        """Common y-degree of all terms, or None if inhomogeneous.

        Raises ValueError on the zero polynomial, which has no degree.
        """
        if not self.terms:
            raise ValueError("zero polynomial has no homogeneous degree")
        degrees = {sum(m[0]) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def coefficient_of_y(self, yexp: tuple[int, ...]) -> MultiPoly:
        """The x-polynomial multiplying the given y-monomial."""
        out = {}
        for (ye, xe), c in self.terms.items():
            if ye == yexp:
                out[((0,) * self.n, xe)] = c
        return MultiPoly(self.n, out)

    def y_monomials(self) -> set[tuple[int, ...]]:
        return {ye for ye, _ in self.terms}

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: MultiPoly) -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other) -> MultiPoly:
        scalar = _as_scalar(other)
        if scalar is not None:
            other = MultiPoly.const(self.n, scalar)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, _ZERO) + coeff
            if c == 0:
                out.pop(mono, None)
            else:
                out[mono] = c
        return MultiPoly._clean(self.n, out)

    __radd__ = __add__

    def __sub__(self, other) -> MultiPoly:
        scalar = _as_scalar(other)
        if scalar is not None:
            other = MultiPoly.const(self.n, scalar)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, _ZERO) - coeff
            if c == 0:
                out.pop(mono, None)
            else:
                out[mono] = c
        return MultiPoly._clean(self.n, out)

    def __rsub__(self, other) -> MultiPoly:
        return (-self) + other

    def __neg__(self) -> MultiPoly:
        return MultiPoly._clean(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> MultiPoly:
        """Product, computed in Python ints over packed monomial keys.

        Both factors are taken in their packed form (see `_packed_form`):
        each pair of terms adds its keys and multiplies its integer
        coefficients, the sums are kept per key, and each nonzero sum
        becomes one Fraction over Da*Db.  If the largest exponents of the
        two factors sum to 2^PACK_WIDTH or more, both are packed with
        fields of that sum's bit length, so no field carries into the next.
        """
        scalar = _as_scalar(other)
        if scalar is not None:
            if scalar == 0:
                return MultiPoly(self.n)
            return MultiPoly._clean(self.n, {m: c * scalar for m, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        if not self.terms or not other.terms:
            return MultiPoly(self.n)
        a, b = self, other
        if len(a.terms) > len(b.terms):
            a, b = b, a
        _, ea, da, pa = a._packed_form()
        _, eb, db, pb = b._packed_form()
        width = PACK_WIDTH
        if ea + eb >= 1 << PACK_WIDTH:
            width = (ea + eb).bit_length()
            _, _, da, pa = a._packed_form(width)
            _, _, db, pb = b._packed_form(width)
        sums: dict[int, int] = {}
        get = sums.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                sums[k] = get(k, 0) + ca * cb
        den = da * db
        n = self.n
        mask = (1 << width) - 1
        shifts = range(0, 2 * n * width, width)
        out: dict[Monomial, Fraction] = {}
        for k, c in sums.items():
            if c:
                exps = tuple([(k >> s) & mask for s in shifts])
                out[exps[:n], exps[n:]] = Fraction(c, den) if den != 1 else Fraction(c)
        return MultiPoly._clean(n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial powers need a nonnegative integer, got {exponent!r}")
        result = MultiPoly.const(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        scalar = _as_scalar(other)
        if scalar is not None:
            return self.terms == MultiPoly.const(self.n, scalar).terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is by value

    # -- calculus ----------------------------------------------------------

    def diff_x(self, i: int) -> MultiPoly:
        """Exact partial derivative with respect to x_i (1-based)."""
        _check_index(self.n, i)
        k = i - 1
        out: dict[Monomial, Fraction] = {}
        for (yexp, xexp), c in self.terms.items():
            e = xexp[k]
            if e == 0:
                continue
            nxexp = xexp[:k] + (e - 1,) + xexp[k + 1:]
            mono = (yexp, nxexp)
            nc = out.get(mono, _ZERO) + c * e
            if nc == 0:
                out.pop(mono, None)
            else:
                out[mono] = nc
        return MultiPoly._clean(self.n, out)

    def diff_y(self, i: int) -> MultiPoly:
        """Exact partial derivative with respect to y_i (1-based)."""
        _check_index(self.n, i)
        k = i - 1
        out: dict[Monomial, Fraction] = {}
        for (yexp, xexp), c in self.terms.items():
            e = yexp[k]
            if e == 0:
                continue
            nyexp = yexp[:k] + (e - 1,) + yexp[k + 1:]
            mono = (nyexp, xexp)
            nc = out.get(mono, _ZERO) + c * e
            if nc == 0:
                out.pop(mono, None)
            else:
                out[mono] = nc
        return MultiPoly._clean(self.n, out)

    def _packed_form(self, width: int = PACK_WIDTH) -> PackedForm:
        """(width, emax, D, pairs): the polynomial packed for `__mul__`.

        emax is the largest exponent of any variable and D the lcm of the
        coefficient denominators.  Each pair is (key, c*D), where the key
        holds the exponents of y1..yn, x1..xn in fields of `width` bits,
        lowest first.  The keys are only meaningful when emax fits in
        `width` bits.  The form last asked for is kept, since the
        polynomial is immutable.
        """
        form = self._packed
        if form is None or form[0] != width:
            coeffs, d = common_denominator(self.terms.values())
            shifts = range(0, 2 * self.n * width, width)
            pairs = []
            emax = 0
            for (yexp, xexp), c in zip(self.terms, coeffs):
                key = 0
                for e, s in zip(yexp + xexp, shifts):
                    key |= e << s
                    if e > emax:
                        emax = e
                pairs.append((key, c))
            form = self._packed = (width, emax, d, pairs)
        return form

    # -- evaluation --------------------------------------------------------

    def integer_form(self) -> IntegerForm:
        """(D, top, rows): the polynomial with its denominators cleared.

        D is the lcm of the coefficient denominators and top the largest
        total degree.  Each row is (c*D, the term's nonzero (coordinate,
        exponent) pairs, top - deg), with coordinates numbered y1..yn,
        x1..xn.  Computed on first use and kept, since the polynomial is
        immutable.
        """
        form = self._int_form
        if form is None:
            d = math.lcm(*(c.denominator for c in self.terms.values()))
            # Terms share few distinct exponent tuples per block, so the
            # (coordinate, exponent) pairs and degree of each are found once.
            yblocks: dict[tuple[int, ...], tuple] = {}
            xblocks: dict[tuple[int, ...], tuple] = {}
            rows = []
            for (yexp, xexp), c in self.terms.items():
                ypairs, ydeg = yblocks.get(yexp) or yblocks.setdefault(yexp, _block(yexp, 0))
                xpairs, xdeg = xblocks.get(xexp) or xblocks.setdefault(xexp, _block(xexp, self.n))
                rows.append((c.numerator * (d // c.denominator), ypairs + xpairs, ydeg + xdeg))
            top = max((deg for _, _, deg in rows), default=0)
            form = self._int_form = (d, top, tuple([(c, f, top - deg) for c, f, deg in rows]))
        return form

    def evaluate(self, xs: Iterable, ys: Iterable) -> Fraction:
        """Exact value at a rational point (xs, ys), computed in integers.

        The point is brought to one common denominator q, so that each
        coordinate is N_i/q, and the polynomial to its cached integer form
        (D, top, rows).  Every term c * prod v_i^e_i becomes the integer
        (c*D) * prod N_i^e_i * q^(top - deg); `sum_terms` adds those up, and
        the value is the sum over D * q^top, reduced once.  This is the
        same rational as a term-by-term Fraction sum, without a gcd per
        operation.  A caller that evaluates at many points sharing q, such
        as the finite-difference stencil, calls `sum_terms` itself and
        rounds the integer quotient directly: int/int division is correctly
        rounded, so it equals float() of this value bit for bit.
        """
        return self._evaluate(xs, ys, absolute=False)

    def evaluate_abs(self, xs: Iterable, ys: Iterable) -> Fraction:
        """Sum of |coeff| * |point|^exponent over all terms.

        Upper bound for |evaluate| that measures how much cancellation the
        point induces; used to keep numeric sample points well conditioned.
        """
        return self._evaluate(xs, ys, absolute=True)

    def _evaluate(self, xs: Iterable, ys: Iterable, absolute: bool) -> Fraction:
        ys, xs = tuple(ys), tuple(xs)
        if len(xs) != self.n or len(ys) != self.n:
            raise ValueError(f"point has wrong dimension for n={self.n}")
        nums, q = common_denominator(ys + xs)
        d, top, rows = self.integer_form()
        if absolute:
            nums = [abs(v) for v in nums]
            rows = [(abs(c), factors, gap) for c, factors, gap in rows]
        q_pow = powers(q, top)
        return Fraction(sum_terms(rows, nums, q_pow), d * q_pow[top])

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, {to_text(self)!r})"


# (width, emax, D, [(key, c*D)]); see MultiPoly._packed_form.
PackedForm = tuple[int, int, int, list[tuple[int, int]]]

# (D, top, rows); see MultiPoly.integer_form.
IntegerForm = tuple[int, int, tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]]


def _block(exps: tuple[int, ...], first: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Nonzero (first + index, exponent) pairs of one exponent block, and its degree."""
    return tuple((first + i, e) for i, e in enumerate(exps) if e), sum(exps)


def sum_terms(rows, nums: list[int], q_pow: list[int]) -> int:
    """Sum of c * prod nums[i]^e * q_pow[gap] over integer-form rows.

    With every coordinate N_i/q over one denominator q and q_pow[k] = q^k
    up to the polynomial's top degree, the result over D * q^top is the
    polynomial's value.
    """
    total = 0
    for c, factors, gap in rows:
        for i, e in factors:
            c *= nums[i] ** e
        total += c * q_pow[gap]
    return total


def powers(q: int, top: int) -> list[int]:
    """[1, q, q^2, ..., q^top]."""
    q_pow = [1]
    for _ in range(top):
        q_pow.append(q_pow[-1] * q)
    return q_pow


def common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Numerators N_i and one denominator q with values[i] = N_i/q."""
    # ints and Fractions already carry numerator and denominator.
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    q = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


def _check_index(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise IndexError(f"variable index {i} out of range 1..{n}")


def to_text(p: MultiPoly) -> str:
    """Canonical text form, parseable by the expression grammar.

    Terms appear in descending canonical order; within a term the x
    variables print before the y variables, all with explicit '*' and '^'.
    """
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for (yexp, xexp), coeff in p.sorted_terms():
        vars_part = []
        for idx, e in enumerate(xexp, start=1):
            if e == 1:
                vars_part.append(f"x{idx}")
            elif e > 1:
                vars_part.append(f"x{idx}^{e}")
        for idx, e in enumerate(yexp, start=1):
            if e == 1:
                vars_part.append(f"y{idx}")
            elif e > 1:
                vars_part.append(f"y{idx}^{e}")
        mag = abs(coeff)
        if not vars_part:
            body = str(mag)
        elif mag == 1:
            body = "*".join(vars_part)
        else:
            body = "*".join([str(mag)] + vars_part)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def divide_exact(num: MultiPoly, den: MultiPoly) -> MultiPoly | None:
    """Exact quotient of num by den over the rationals, or None.

    Runs leading-term elimination in the canonical order.  Returns q with
    num = q * den when den divides num exactly; otherwise None.  The
    quotient is unique because Q[x, y] is an integral domain.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    num._require_same(den)
    lt_mono, lt_coeff = den.leading()
    quotient: dict[Monomial, Fraction] = {}
    rem = dict(num.terms)
    while rem:
        mono_r = max(rem, key=monomial_key)
        dm = _mono_div(mono_r, lt_mono)
        if dm is None:
            return None
        c = rem[mono_r] / lt_coeff
        quotient[dm] = quotient.get(dm, _ZERO) + c
        for mono_d, cd in den.terms.items():
            mm = _mono_mul(dm, mono_d)
            nc = rem.get(mm, _ZERO) - c * cd
            if nc == 0:
                rem.pop(mm, None)
            else:
                rem[mm] = nc
    return MultiPoly(num.n, quotient)


# Deterministic witness grid: 1, -1, 2, -2, 1/2, -1/2, 3, -3, 1/3, ...
def _grid_value(i: int) -> Fraction:
    k = i // 4 + 1
    pick = i % 4
    if pick == 0:
        return Fraction(k)
    if pick == 1:
        return Fraction(-k)
    if pick == 2:
        return Fraction(1, k + 1)
    return Fraction(-1, k + 1)


def find_nonzero_point(p: MultiPoly) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """Deterministic small rational point where p does not vanish.

    Iterates growing shells of the grid {1, -1, 2, -2, 1/2, ...} over all
    2n coordinates.  A nonzero polynomial cannot vanish on a grid larger
    than its per-variable degree, so the search terminates; None only for
    the zero polynomial.
    """
    if p.is_zero():
        return None
    n = p.n
    limit = p.max_var_degree() + 2
    values = [_grid_value(i) for i in range(limit)]
    for size in range(1, limit + 1):
        for combo in itertools.product(range(size), repeat=2 * n):
            if size > 1 and max(combo) != size - 1:
                continue  # only the new shell; smaller tuples were tried
            xs = tuple(values[c] for c in combo[:n])
            ys = tuple(values[c] for c in combo[n:])
            if p.evaluate(xs, ys) != 0:
                return xs, ys
    raise AssertionError("grid exhausted for a nonzero polynomial")  # pragma: no cover
