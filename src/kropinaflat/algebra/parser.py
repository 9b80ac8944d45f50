"""Recursive-descent parser for the polynomial expression grammar.

Grammar (ASCII):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := ('+' | '-')* atom ('^' exponent)?
    atom     := INT ('/' INT)? | VAR | '(' expr ')'
    exponent := INT | '(' ('+'|'-')? INT ('/' INT)? ')'

'^' binds tighter than '*', which binds tighter than '+'/'-'.  '/' occurs
only inside rational literals such as 1/3.  Variables are x1..xN and
y1..yN for the dimension N passed to parse().  Exponents must normalize to
nonnegative integers; anything else is rejected with a positioned error.
Parentheses may nest at most MAX_NESTING levels deep: each level costs four
interpreter frames, so the cap keeps any input well inside the recursion
limit and turns a deeper one into a positioned error.

parse(to_text(p), n) == p for every canonical polynomial p.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly


class ParseError(ValueError):
    """Rejected input, with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.message = message
        self.position = position


MAX_NESTING = 100

_INT = "int"
_NAME = "name"
_OP = "op"
_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isdigit():
            while i < size and text[i].isdigit():
                i += 1
            tokens.append((_INT, text[start:i], start + 1))
        elif ch.isalpha():
            while i < size and (text[i].isalpha() or text[i].isdigit()):
                i += 1
            tokens.append((_NAME, text[start:i], start + 1))
        elif ch in "+-*^()/":
            tokens.append((_OP, ch, start + 1))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start + 1)
    tokens.append((_END, "", size + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, value, _ = self.peek()
        if kind == _OP and value in ops:
            self.advance()
            return value
        return None

    def expect_op(self, op: str) -> None:
        kind, value, position = self.peek()
        if kind != _OP or value != op:
            shown = value if value else "end of input"
            raise ParseError(f"expected {op!r}, found {shown!r}", position)
        self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> MultiPoly:
        result = self.term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return result
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs

    # term := factor ('*' factor)*
    def term(self) -> MultiPoly:
        result = self.factor()
        while self.accept_op("*"):
            result = result * self.factor()
        return result

    # factor := sign* atom ('^' exponent)?
    def factor(self) -> MultiPoly:
        sign = 1
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                break
            if op == "-":
                sign = -sign
        base = self.atom()
        if self.accept_op("^"):
            base = base ** self.exponent()
        return base if sign > 0 else -base

    def atom(self) -> MultiPoly:
        kind, value, position = self.peek()
        if kind == _INT:
            self.advance()
            numerator = int(value)
            if self.accept_op("/"):
                dkind, dvalue, dposition = self.peek()
                if dkind != _INT:
                    raise ParseError("expected integer denominator", dposition)
                self.advance()
                if int(dvalue) == 0:
                    raise ParseError("zero denominator in literal", dposition)
                return MultiPoly.const(self.n, Fraction(numerator, int(dvalue)))
            return MultiPoly.const(self.n, numerator)
        if kind == _NAME:
            self.advance()
            return self.variable(value, position)
        if kind == _OP and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", position)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        shown = value if value else "end of input"
        raise ParseError(f"unexpected {shown!r}", position)

    def variable(self, name: str, position: int) -> MultiPoly:
        block = name[0]
        rest = name[1:]
        if block not in ("x", "y") or not rest.isdigit():
            raise ParseError(f"unknown variable {name!r}", position)
        index = int(rest)
        if not 1 <= index <= self.n:
            raise ParseError(f"unknown variable {name!r} (expected index 1..{self.n})", position)
        if block == "x":
            return MultiPoly.var_x(self.n, index)
        return MultiPoly.var_y(self.n, index)

    def exponent(self) -> int:
        kind, value, position = self.peek()
        if kind == _INT:
            self.advance()
            return int(value)
        if kind == _OP and value == "-":
            raise ParseError("negative exponent", position)
        if kind == _OP and value == "(":
            self.advance()
            sign = 1
            skind, svalue, spos = self.peek()
            if skind == _OP and svalue in "+-":
                self.advance()
                if svalue == "-":
                    sign = -1
            nkind, nvalue, npos = self.peek()
            if nkind != _INT:
                raise ParseError("expected integer exponent", npos)
            self.advance()
            exp = Fraction(sign * int(nvalue))
            if self.accept_op("/"):
                dkind, dvalue, dpos = self.peek()
                if dkind != _INT:
                    raise ParseError("expected integer denominator", dpos)
                self.advance()
                if int(dvalue) == 0:
                    raise ParseError("zero denominator in exponent", dpos)
                exp /= int(dvalue)
            self.expect_op(")")
            if exp.denominator != 1:
                raise ParseError("fractional exponent", npos)
            if exp < 0:
                raise ParseError("negative exponent", spos)
            return int(exp)
        shown = value if value else "end of input"
        raise ParseError(f"expected integer exponent, found {shown!r}", position)


def parse(text: str, n: int) -> MultiPoly:
    """Parse an expression over x1..xn, y1..yn into canonical form.

    Raises ParseError (with the 1-based character position) for syntax
    errors, unknown variables, negative or fractional exponents, and
    parentheses nested deeper than MAX_NESTING.
    """
    if n < 1:
        raise ValueError(f"need at least one variable per block, got n={n}")
    parser = _Parser(text, n)
    result = parser.expr()
    kind, value, position = parser.peek()
    if kind != _END:
        raise ParseError(f"unexpected trailing {value!r}", position)
    return result
