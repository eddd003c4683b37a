"""Set-expression grammar, the sets it denotes, errors with byte offsets."""

import math
import re

import pytest

from meanmeasure import InvalidInterval, ParseError, parse_set


def test_counterexample_expression():
    got = parse_set("[1, e^2] U [e^4, e^8]")
    want = ((1.0, math.e ** 2), (math.e ** 4, math.e ** 8))
    for (glo, ghi), (wlo, whi) in zip(got.intervals, want):
        assert glo == pytest.approx(wlo, rel=1e-15)
        assert ghi == pytest.approx(whi, rel=1e-15)


def test_shifted_union():
    got = parse_set("([1,2] U [3,4]) + 10")
    assert got.intervals == ((11.0, 12.0), (13.0, 14.0))


def test_reversed_interval_rejected():
    with pytest.raises(InvalidInterval):
        parse_set("[2,1]")


def test_arithmetic_inside_endpoints():
    got = parse_set("[1 + 2*3, 2^3^2 / 8]")
    assert got.intervals == ((7.0, 64.0),)  # right-associative power
    got = parse_set("[-pi, sqrt(4) * exp(0) + log(1)]")
    assert got.intervals == ((-math.pi, 2.0),)
    got = parse_set("[2^-1, 1]")
    assert got.intervals == ((0.5, 1.0),)


def test_union_normalizes():
    got = parse_set("[1,2] U [2,3] U [0.5, 1.5]")
    assert got.intervals == ((0.5, 3.0),)


def test_nested_shifts():
    got = parse_set("(([1,2]) + 1) + 0.5")
    assert got.intervals == ((2.5, 3.5),)


@pytest.mark.parametrize("text,offset", [
    ("[1,2] U", 7),
    ("[1 2]", 3),
    ("[1,2] extra", 6),
    ("([1,2])", 7),       # a shifted set needs "+ num"
    ("[zzz, 2]", 1),
    ("[1, exp(1000)]", 12),  # overflow reported at the closing parenthesis
    ("[0^-1, 1]", 2),        # a zero base to a negative power, at the "^"
    ("[(-8)^(1/3), 1]", 5),  # a complex power, at the "^"
])
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_set(text)
    assert err.value.offset == offset


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_set("   ")


def test_division_by_zero_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_set("[1/0, 2]")


# each set as the parser gives it, to the bit
EXACT = {
    "[1, e^2] U [e^4, e^8]":
        ((1.0, 7.3890560989306495), (54.59815003314423, 2980.957987041727)),
    "([1,2] U [3,4]) + 10": ((11.0, 12.0), (13.0, 14.0)),
    "[0.1, sqrt(2)]": ((0.1, 1.4142135623730951),),
    "(([1,2]) + -pi) + 1e-3": ((-2.1405926535897932, -1.1405926535897932),),
    "[1,2] U [4, 8] U [16, 32]": ((1.0, 2.0), (4.0, 8.0), (16.0, 32.0)),
    # "-" is left-associative; unary minus binds looser than "^"
    "[10 - 2 - 3, -2^2 + 10]": ((5.0, 6.0),),
    "[2*-3, --2]": ((-6.0, 2.0),),
}


@pytest.mark.parametrize("text", EXACT)
def test_sets_are_exact(text):
    assert parse_set(text).intervals == EXACT[text]


def test_non_finite_endpoint_reported_before_later_syntax_error():
    with pytest.raises(InvalidInterval, match="non-finite endpoint"):
        parse_set("[1,2] U [1,1e400] U [3")
    with pytest.raises(InvalidInterval, match="non-finite translation"):
        parse_set("([1,2]) + 1e400 U [3")


@pytest.mark.parametrize("text,message,offset", [
    ("[1,2] @", "unexpected character '@'", 6),
    # errors come in reading order: the ',' before the stray '@' after it
    ("[1,,2] @", "expected a number, found ','", 3),
])
def test_errors_are_reported_in_reading_order(text, message, offset):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_set(text)
    assert err.value.offset == offset
