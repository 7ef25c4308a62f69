"""Parser for the expression grammar used by the JSON catalog and the CLI.

Grammar: identifiers, integer literals, rational literals ``p/q`` (which are
just exact division), the operators ``+ - * / ^`` and parentheses.  ``^``
takes integer exponents only (optionally signed), at most
``ratfunc.EXPONENT_LIMIT`` in size, and whitespace is insignificant.
Parsing yields an exact RatFunc.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .exact import DomainError
from .ratfunc import RatFunc

__all__ = ["parse_expression", "ParseError"]


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at: {rest[:12]!r}")
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse_expr(self) -> RatFunc:
        value = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> RatFunc:
        value = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_factor()
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def parse_factor(self) -> RatFunc:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.parse_factor()
            return inner if val == "+" else -inner
        return self.parse_power()

    def parse_power(self) -> RatFunc:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self.parse_exponent()
            try:
                return base.pow_int(exp)
            except DomainError as exc:
                raise ParseError(str(exc)) from exc
        return base

    def parse_exponent(self) -> int:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        kind, val = self.take()
        if kind != "int":
            raise ParseError("exponent must be an integer literal")
        return sign * int(val)

    def parse_atom(self) -> RatFunc:
        kind, val = self.take()
        if kind == "name":
            return RatFunc.var(val)
        if kind == "int":
            return RatFunc.from_value(int(val))
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse_expression(text: str) -> RatFunc:
    """Parse an expression-grammar string into an exact RatFunc."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens)
    value = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input from token {parser.pos}")
    return value
