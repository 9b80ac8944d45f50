"""Independent symbolic oracle: re-derive residuals and brackets with sympy.

Everything here is computed from scratch with sympy.diff on the defining
expressions, never through the library's own differentiation, and compared
to the library output after parsing its canonical text form.
"""
from __future__ import annotations

import sympy as sp

from kropinaflat import condition_brackets, dually_flat_residual, hamel_residual, parse, prop31_condition
from conftest import E2_TEXT, E3_TEXT, E4_TEXT, make_instance

X1, X2, Y1, Y2 = sp.symbols("x1 x2 y1 y2")
_SYMS = {"x1": X1, "x2": X2, "y1": Y1, "y2": Y2}
_XS = [X1, X2]
_YS = [Y1, Y2]


def to_sympy(poly) -> sp.Expr:
    return sp.sympify(str(poly).replace("^", "**"), locals=_SYMS)


def _oracle_quantities(a: sp.Expr, b: sp.Expr):
    n = 2
    a_l = [sp.diff(a, y) for y in _YS]
    a_xl = [sp.diff(a, x) for x in _XS]
    a_0 = sum(a_xl[k] * _YS[k] for k in range(n))
    a_0l = [sum(sp.diff(a, _XS[k], _YS[l]) * _YS[k] for k in range(n)) for l in range(n)]
    b_l = [sp.diff(b, y) for y in _YS]
    b_xl = [sp.diff(b, x) for x in _XS]
    b_0 = sum(b_xl[k] * _YS[k] for k in range(n))
    b_0l = [sum(sp.diff(b_l[l], _XS[k]) * _YS[k] for k in range(n)) for l in range(n)]
    return a_l, a_xl, a_0, a_0l, b_l, b_xl, b_0, b_0l


def _instances():
    return [
        ("E2", make_instance(*E2_TEXT)),
        ("E3", make_instance(*E3_TEXT)),
        ("E4", make_instance(*E4_TEXT)),
    ]


def _is_zero(expr: sp.Expr) -> bool:
    # powsimp merges the fractional powers of A; cancel clears any leftover
    # integer-power denominators that expand leaves behind
    return sp.cancel(sp.together(sp.powsimp(sp.expand(expr), force=True))) == 0


def test_residuals_match_sympy_derivation():
    for name, inst in _instances():
        m = inst.m
        a, b = to_sympy(inst.a), to_sympy(inst.b)
        L = a ** sp.Rational(4, m) / b**2
        F = a ** sp.Rational(2, m) / b
        for l in range(2):
            dually = sum(sp.diff(L, _XS[k], _YS[l]) * _YS[k] for k in range(2)) - 2 * sp.diff(
                L, _XS[l]
            )
            q = m**2 * b**4 * a ** (2 - sp.Rational(4, m)) * dually
            assert _is_zero(q - to_sympy(dually_flat_residual(inst, l + 1))), (name, l)

            hamel = sum(sp.diff(F, _XS[k], _YS[l]) * _YS[k] for k in range(2)) - sp.diff(
                F, _XS[l]
            )
            q = m**2 * b**3 * a ** (2 - sp.Rational(2, m)) * hamel
            assert _is_zero(q - to_sympy(hamel_residual(inst, l + 1))), (name, l)


def test_brackets_match_sympy_derivation():
    for name, inst in _instances():
        m = inst.m
        a, b = to_sympy(inst.a), to_sympy(inst.b)
        a_l, a_xl, a_0, a_0l, b_l, b_xl, b_0, b_0l = _oracle_quantities(a, b)
        for l in range(2):
            c1_oracle = (4 - m) * a_l[l] * a_0 + m * a * a_0l[l] - 2 * m * a * a_xl[l]
            c2_oracle = b_0 * a_l[l] + a_0 * b_l[l]
            c3_oracle = b_0l[l] * b - 3 * b_l[l] * b_0 - 2 * b * b_xl[l]
            t_oracle = m * a * (a_0l[l] - a_xl[l]) - (m - 2) * a_0 * a_l[l]

            c1, c2, c3 = condition_brackets(inst, l + 1)
            assert sp.expand(c1_oracle - to_sympy(c1)) == 0, (name, l)
            assert sp.expand(c2_oracle - to_sympy(c2)) == 0, (name, l)
            assert sp.expand(c3_oracle - to_sympy(c3)) == 0, (name, l)
            assert sp.expand(t_oracle - to_sympy(prop31_condition(inst, l + 1))) == 0, (name, l)


def test_derived_quantities_match_sympy():
    for name, inst in _instances():
        a, b = to_sympy(inst.a), to_sympy(inst.b)
        a_l, a_xl, a_0, a_0l, b_l, b_xl, b_0, b_0l = _oracle_quantities(a, b)
        d = inst.derived
        for l in range(2):
            assert sp.expand(a_l[l] - to_sympy(d.a_i[l])) == 0, name
            assert sp.expand(a_xl[l] - to_sympy(d.a_xl[l])) == 0, name
            assert sp.expand(a_0l[l] - to_sympy(d.a_0l[l])) == 0, name
            assert sp.expand(b_xl[l] - to_sympy(d.beta_xl[l])) == 0, name
            assert sp.expand(b_0l[l] - to_sympy(d.beta_0l[l])) == 0, name
        assert sp.expand(a_0 - to_sympy(d.a_0)) == 0, name
        assert sp.expand(b_0 - to_sympy(d.beta_0)) == 0, name
