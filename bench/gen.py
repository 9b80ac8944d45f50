"""Seeded instance generator for the benchmark workloads.

This is a copy of the recipe in the test suite's instance generator
(`random_metric_poly` and `random_oneform`), written against plain dicts so
that neither an edit to the tests nor a change to the package's polynomial
code can move a workload: for a given seed it draws the same random numbers
in the same order and produces the same polynomials, rendered as
instance-file text that the package then parses like any user file.

A polynomial is a dict mapping ``(yexp, xexp)`` exponent tuples to nonzero
integer coefficients.
"""
from __future__ import annotations

import itertools
import random

Poly = dict  # {(yexp, xexp): int}


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        total = out.get(mono, 0) + c
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (ya, xa), ca in a.items():
        for (yb, xb), cb in b.items():
            mono = (
                tuple(p + q for p, q in zip(ya, yb)),
                tuple(p + q for p, q in zip(xa, xb)),
            )
            out = _add(out, {mono: ca * cb})
    return out


def _const(n: int, c: int) -> Poly:
    return {((0,) * n, (0,) * n): c} if c else {}


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def _var_x(n: int, i: int) -> Poly:
    return {((0,) * n, _unit(n, i)): 1}


def _y_monomial(n: int, exponents: tuple[int, ...]) -> Poly:
    return {(tuple(exponents), (0,) * n): 1}


def random_x_poly(rng: random.Random, n: int, degree: int = 2, max_terms: int = 2) -> Poly:
    poly: Poly = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = _const(n, rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, degree)):
            mono = _mul(mono, _var_x(n, rng.randint(1, n)))
        poly = _add(poly, mono)
    return poly


def random_metric_poly(
    rng: random.Random, n: int, m: int, x_degree: int = 2, max_y_terms: int = 4
) -> Poly:
    exponent_pool = [e for e in itertools.product(range(m + 1), repeat=n) if sum(e) == m]
    pure_first = tuple(m if i == 0 else 0 for i in range(n))
    pure_last = tuple(m if i == n - 1 else 0 for i in range(n))
    a: Poly = {}
    a = _add(a, _mul(_y_monomial(n, pure_first), _const(n, rng.choice([1, 2, 1, 1]))))
    a = _add(a, _mul(_y_monomial(n, pure_last), _const(n, rng.choice([1, 1, 2, 3]))))
    for _ in range(rng.randint(1, max_y_terms)):
        exps = rng.choice(exponent_pool)
        coeff = random_x_poly(rng, n, degree=x_degree)
        if not coeff:
            coeff = _const(n, rng.choice([-2, -1, 1, 2]))
        a = _add(a, _mul(coeff, _y_monomial(n, exps)))
    if not a:
        raise ValueError("generator produced a zero metric polynomial")
    return a


def random_oneform(rng: random.Random, n: int, x_degree: int = 1) -> Poly:
    """beta = sum_i b_i(x) y^i, returned as one polynomial."""
    while True:
        components = []
        for _ in range(n):
            b = random_x_poly(rng, n, degree=x_degree, max_terms=2)
            if rng.random() < 0.5:
                b = _add(b, _const(n, rng.choice([-2, -1, 1, 2])))
            components.append(b)
        if any(components):
            beta: Poly = {}
            for i, b in enumerate(components, start=1):
                beta = _add(beta, _mul(b, _y_monomial(n, _unit(n, i))))
            return beta


def to_text(poly: Poly) -> str:
    """Expression-grammar text, highest y-exponents first."""
    pieces = []
    for (yexp, xexp), c in sorted(poly.items(), reverse=True):
        factors = [
            f"{name}{i}" + (f"^{e}" if e > 1 else "")
            for name, exps in (("x", xexp), ("y", yexp))
            for i, e in enumerate(exps, start=1)
            if e
        ]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def instance_text(rng: random.Random, n: int, m: int, x_degree: int, comment: str) -> str:
    """One instance file: metric and one-form drawn as `random_instance` does.

    `irreducible_asserted` is left out, so it takes its default, as it does
    in a file a user writes by hand.
    """
    a = random_metric_poly(rng, n, m, x_degree=x_degree)
    beta = random_oneform(rng, n, x_degree=min(x_degree, 1))
    return f"# {comment}\nn = {n}\nm = {m}\nA = {to_text(a)}\nbeta = {to_text(beta)}\n"
