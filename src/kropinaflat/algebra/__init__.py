"""Exact polynomial algebra: sparse multivariate polynomials over Q with
split x/y variable blocks, rational-function coefficients, power-product
expressions, and the text grammar for polynomial input."""

from .parser import ParseError, parse
from .poly import MultiPoly, divide_exact, find_nonzero_point, monomial_key, to_text
from .powerexpr import PowerExpr
from .ratfunc import RatFunc, divide_exact_qx

__all__ = [
    "MultiPoly",
    "ParseError",
    "PowerExpr",
    "RatFunc",
    "divide_exact",
    "divide_exact_qx",
    "find_nonzero_point",
    "monomial_key",
    "parse",
    "to_text",
]
