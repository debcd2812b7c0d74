"""Exact coefficient field: construction, arithmetic, weights, wire format."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polybern.rationals import (
    decimal_string,
    format_rational,
    inv_pow,
    parse_rational,
    rat,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_rat_normalizes_sign_and_gcd():
    assert rat(2, -4) == Fraction(-1, 2)
    assert rat(0, 7) == Fraction(0, 1)
    assert rat(6, 3) == Fraction(2, 1)


def test_rat_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def test_inv_pow_values():
    assert inv_pow(2, 3) == Fraction(1, 8)
    assert inv_pow(3, -2) == Fraction(9)
    assert inv_pow(5, 0) == Fraction(1)
    with pytest.raises(ValueError):
        inv_pow(0, 2)
    with pytest.raises(ValueError):
        inv_pow(-3, 1)


@given(a=rationals, b=rationals, c=rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert Fraction(1) / a * a == 1


@given(a=rationals)
def test_canonical_form_is_idempotent(a):
    again = rat(a.numerator, a.denominator)
    assert again == a
    assert again.denominator > 0
    from math import gcd

    assert gcd(abs(again.numerator), again.denominator) == 1


@pytest.mark.parametrize("base", [1, 2, 3, 7, 100])
@pytest.mark.parametrize("k", range(-10, 11))
def test_inv_pow_inverse_pairs(base, k):
    assert inv_pow(base, k) * inv_pow(base, -k) == 1


def test_wire_format_round_trip():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(5)) == "5/1"
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 3/9 ") == Fraction(1, 3)


@given(a=rationals)
def test_wire_format_round_trips_everything(a):
    assert parse_rational(format_rational(a)) == a


@pytest.mark.parametrize("bad", ["1/2/3", "1.5", "a", "", "1/-2", "--1", "1/ 2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_decimal_string_is_20_significant_digits_half_even():
    assert decimal_string(Fraction(1, 3)) == "0.33333333333333333333"
    assert decimal_string(Fraction(2, 3)) == "0.66666666666666666667"
    assert decimal_string(Fraction(0)) == "0"
    assert decimal_string(Fraction(1)) == "1"
    # half-even: 21 digits would end ...5; the 20-digit rounding goes to even
    assert decimal_string(Fraction(1, 2) + Fraction(1, 10**25)).startswith("0.5000000000000000000")
