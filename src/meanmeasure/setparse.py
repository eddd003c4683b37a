"""Parser for the little set-expression language used on the command line.

Grammar::

    set    := term ( "U" term )*
    term   := "[" num "," num "]" | "(" set ")" "+" num
    num    := arithmetic over literals with constants e, pi, the functions
              sqrt(), exp(), log(), operators + - * / ^ (right-assoc power)
              and unary minus

Every sub-expression is closed, so the parser evaluates it as it reads it:
numbers become floats and sets become canonical :class:`IntervalSet` values.
Syntax errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InvalidInterval, ParseError
from .intervals import IntervalSet, normalize

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[\[\](),+\-*/^]))"
)

_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "sym" | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        for kind in ("number", "ident", "sym"):
            val = m.group(kind)
            if val is not None:
                tokens.append(Token(kind, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.offset)
        return self.advance()

    # -- set level ---------------------------------------------------------

    def parse_set(self) -> IntervalSet:
        pairs = list(self.parse_term())
        while self.peek().kind == "ident" and self.peek().text == "U":
            self.advance()
            pairs.extend(self.parse_term())
        return normalize(pairs)

    def parse_term(self) -> IntervalSet:
        tok = self.peek()
        if tok.text == "[":
            self.advance()
            lo = self.parse_num()
            self.expect(",")
            hi = self.parse_num()
            self.expect("]")
            if not (lo < hi):
                raise InvalidInterval(
                    f"interval needs lo < hi, got [{lo!r}, {hi!r}]"
                )
            return normalize([(lo, hi)])
        if tok.text == "(":
            self.advance()
            inner = self.parse_set()
            self.expect(")")
            self.expect("+")
            return inner.translate(self.parse_num())
        raise ParseError(f"expected '[' or '(', found {tok.text or 'end of input'!r}",
                         tok.offset)

    # -- numeric level (precedence climbing) --------------------------------

    def parse_num(self) -> float:
        value = self.parse_product()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self) -> float:
        value = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            tok = self.peek()
            rhs = self.parse_unary()
            if op == "/":
                if rhs == 0.0:
                    raise ParseError("division by zero", tok.offset)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def parse_unary(self) -> float:
        if self.peek().text == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> float:
        base = self.parse_atom()
        if self.peek().text == "^":
            tok = self.advance()
            exponent = self.parse_unary()  # right-associative
            try:
                value = base ** exponent
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"cannot raise {base!r} to {exponent!r}: {exc}",
                                 tok.offset) from None
            if isinstance(value, complex):  # a negative base to a fractional power
                raise ParseError(f"cannot raise {base!r} to {exponent!r}: the "
                                 f"power is not real", tok.offset)
            return value
        return base

    def parse_atom(self) -> float:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return float(tok.text)
        if tok.kind == "ident":
            if tok.text in _CONSTANTS:
                self.advance()
                return _CONSTANTS[tok.text]
            if tok.text in _FUNCTIONS:
                self.advance()
                self.expect("(")
                arg = self.parse_num()
                close = self.peek()
                self.expect(")")
                try:
                    return _FUNCTIONS[tok.text](arg)
                except (OverflowError, ValueError) as exc:
                    raise ParseError(f"{tok.text}({arg!r}): {exc}",
                                     close.offset) from None
            raise ParseError(f"unknown name {tok.text!r}", tok.offset)
        if tok.text == "(":
            self.advance()
            value = self.parse_num()
            self.expect(")")
            return value
        raise ParseError(f"expected a number, found {tok.text or 'end of input'!r}",
                         tok.offset)


def parse_set(text: str) -> IntervalSet:
    """The canonical interval set a set expression denotes.

    Raises :class:`ParseError` with a byte offset for bad syntax, and
    :class:`InvalidInterval` for a reversed interval or a non-finite endpoint
    or shift.
    """
    if not text.strip():
        raise ParseError("empty set expression", 0)
    parser = _Parser(text)
    H = parser.parse_set()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"trailing input {trailing.text!r}", trailing.offset)
    return H

