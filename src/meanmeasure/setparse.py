"""Parser for the little set-expression language used on the command line.

Grammar::

    set    := term ( "U" term )*
    term   := "[" num "," num "]" | "(" set ")" "+" num
    num    := arithmetic over literals with constants e, pi, the functions
              sqrt(), exp(), log(), operators + - * / ^ (right-assoc power)
              and unary minus

Every sub-expression is closed, so the parser evaluates it as it reads it:
numbers become floats and sets become canonical :class:`IntervalSet` values.
It reads one token ahead and reports the first error in reading order, a
stray character included.  Syntax errors carry the byte offset of the
offending token.
"""

from __future__ import annotations

import math
import re

from .errors import InvalidInterval, ParseError
from .intervals import IntervalSet, normalize

# every position matches: a token, the end of the input, or one bad character
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[\[\](),+\-*/^])|(?P<end>\Z)|(?P<bad>\S))"
)

_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log}
# binding level of each binary operator; "^" alone is right-associative, and
# unary minus takes its operand at the "^" level, so -2^2 is -4
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _apply(op: str, a: float, b: float, op_at: int, rhs_at: int) -> float:
    """``a op b``; a zero divisor is reported at ``rhs_at``, a failed power
    at the operator's offset ``op_at``."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise ParseError("division by zero", rhs_at)
        return a / b
    try:
        value = a ** b
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot raise {a!r} to {b!r}: {exc}", op_at) from None
    if isinstance(value, complex):  # a negative base to a fractional power
        raise ParseError(f"cannot raise {a!r} to {b!r}: the power is not real",
                         op_at)
    return value


class _Parser:
    """Recursive descent over ``text`` with one token of lookahead: ``kind``
    (a group name of ``_TOKEN_RE``), ``tok`` and its offset ``at``."""

    def __init__(self, text: str):
        self.text = text
        self.end = 0
        self.advance()

    def advance(self) -> None:
        m = _TOKEN_RE.match(self.text, self.end)
        self.kind = m.lastgroup
        self.tok, self.at, self.end = m[self.kind], m.start(self.kind), m.end()
        if self.kind == "bad":
            raise ParseError(f"unexpected character {self.tok!r}", self.at)

    def found(self) -> str:
        return repr(self.tok or "end of input")

    def expect(self, text: str) -> None:
        if self.tok != text:
            raise ParseError(f"expected {text!r}, found {self.found()}", self.at)
        self.advance()

    # -- set level ---------------------------------------------------------

    def parse_set(self) -> IntervalSet:
        pairs = list(self.parse_term())
        while self.tok == "U":
            self.advance()
            pairs.extend(self.parse_term())
        return normalize(pairs)

    def parse_term(self) -> IntervalSet:
        if self.tok == "[":
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
        if self.tok == "(":
            self.advance()
            inner = self.parse_set()
            self.expect(")")
            self.expect("+")
            return inner.translate(self.parse_num())
        raise ParseError(f"expected '[' or '(', found {self.found()}", self.at)

    # -- numeric level (precedence climbing) --------------------------------

    def parse_num(self, level: int = 1) -> float:
        """A number whose binary operators all bind at ``level`` or tighter."""
        if self.tok == "-":
            self.advance()
            value = -self.parse_num(3)
        else:
            value = self.parse_atom()
        while _PRECEDENCE.get(self.tok, 0) >= level:
            op, op_at = self.tok, self.at
            self.advance()
            rhs_at = self.at
            rhs = self.parse_num(3 if op == "^" else _PRECEDENCE[op] + 1)
            value = _apply(op, value, rhs, op_at, rhs_at)
        return value

    def parse_atom(self) -> float:
        kind, name, at = self.kind, self.tok, self.at
        if kind == "number":
            self.advance()
            return float(name)
        if kind == "ident":
            if name in _CONSTANTS:
                self.advance()
                return _CONSTANTS[name]
            if name not in _FUNCTIONS:
                raise ParseError(f"unknown name {name!r}", at)
            self.advance()
            self.expect("(")
            arg = self.parse_num()
            close = self.at
            self.expect(")")
            try:
                return _FUNCTIONS[name](arg)
            except (OverflowError, ValueError) as exc:
                raise ParseError(f"{name}({arg!r}): {exc}", close) from None
        if name == "(":
            self.advance()
            value = self.parse_num()
            self.expect(")")
            return value
        raise ParseError(f"expected a number, found {self.found()}", at)


def parse_set(text: str) -> IntervalSet:
    """The canonical interval set a set expression denotes.

    Raises :class:`ParseError` with a byte offset for bad syntax, and
    :class:`InvalidInterval` for a reversed interval or a non-finite endpoint
    or shift; the first error in reading order wins.
    """
    if not text.strip():
        raise ParseError("empty set expression", 0)
    parser = _Parser(text)
    H = parser.parse_set()
    if parser.kind != "end":
        raise ParseError(f"trailing input {parser.tok!r}", parser.at)
    return H
