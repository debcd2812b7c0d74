"""Exact coefficient field: construction, arithmetic, weights, wire format."""

import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polybern import families, special, verify
from polybern.rationals import (
    ArgumentError,
    _decimal_string,
    as_rational,
    format_rational,
    inv_pow,
    parse_rational,
)
from polybern.series import TruncatedSeries

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_rat_normalizes_sign_and_gcd():
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("0/7") == Fraction(0, 1)
    assert parse_rational("6/3") == Fraction(2, 1)
    assert parse_rational("-0/5") == 0 and parse_rational("-0/5").denominator == 1


def test_rat_zero_denominator():
    with pytest.raises(ArgumentError, match=r"^zero denominator in '1/0'$"):
        parse_rational("1/0")
    with pytest.raises(ArgumentError, match=r"^zero denominator in ' 0/0 '$"):
        parse_rational(" 0/0 ")


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
    again = parse_rational(f"{a.numerator}/{a.denominator}")
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


def test_as_rational_takes_exact_values_only():
    assert as_rational(3) == 3 and type(as_rational(3)) is Fraction
    assert as_rational(Fraction(-2, 6)) == Fraction(-1, 3)
    assert as_rational("-7/9") == Fraction(-7, 9)
    with pytest.raises(ValueError):
        as_rational("0.5")
    for bad in (0.5, 1.0, Decimal("0.5"), None):
        with pytest.raises(TypeError):
            as_rational(bad)


def test_as_rational_refuses_a_bool():
    # as series coefficients do: a bool is a flag, not a number
    with pytest.raises(TypeError):
        TruncatedSeries([True])
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(TypeError):
        special.degenerate_exp(True, 1, 3)


def test_format_rational_refuses_a_float():
    # Fraction(0.1) would write 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        format_rational(0.1)
    assert format_rational(-4) == "-4/1"


@pytest.mark.parametrize("call", [
    lambda f: families.FamilyQuery(ks=(1,), lam=f, x=0, order=2),
    lambda f: families.FamilyQuery(ks=(1,), lam=0, x=f, order=2),
    lambda f: families.degenerate_multi_poly_bernoulli((2, 1), Fraction(1, 3), f, 2),
    lambda f: families.carlitz_degenerate(2, f, 0, 2),
    lambda f: families.multi_poly_bernoulli((2, 1), f, 2),
    lambda f: families.poly_bernoulli(2, f, 2),
    lambda f: families.type2_poly_bernoulli(2, f, 2),
    lambda f: families._u_power_values(2, f, 0, 2),
    lambda f: families._u_power_values(2, 0, f, 2),
    lambda f: special.degenerate_exp(f, Fraction(1, 4), 2),
    lambda f: special.degenerate_exp(Fraction(1, 2), f, 2),
    lambda f: verify.verify_chain_stirling((2, 1), f, 0, 2),
    lambda f: verify.verify_resummation((2, 0), f, 0, 2),
    lambda f: verify.verify_resummation((2, 0), 0, f, 2),
    lambda f: verify.verify_difference((2, 0), f, 0, 2),
    lambda f: verify.verify_polynomial_expansion((2, 1), 0, f, 2),
    lambda f: verify.verify_addition((2, 1), 0, f, 0, 2),
    lambda f: verify.verify_addition((2, 1), 0, 0, f, 2),
])
def test_public_entries_refuse_a_float(call):
    with pytest.raises(TypeError):
        call(0.5)
    call(Fraction(1, 2))
    call("1/2")


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
@pytest.mark.parametrize("call", [
    lambda k: families.FamilyQuery(ks=(k, 1), lam=0, x=0, order=2),
    lambda k: families.degenerate_multi_poly_bernoulli((k, 1), 0, 0, 3),
    lambda k: families.multi_poly_bernoulli((1, k), 0, 3),
    lambda k: families.poly_bernoulli(k, 0, 3),
    lambda k: families.type2_poly_bernoulli(k, 0, 3),
    lambda k: special.multi_polylog((k, 2), 3),
    lambda k: special.polyexp(k, 3),
    lambda k: verify.verify_deriv_recurrences((k, 2), 4),
    lambda k: verify.verify_chain_stirling((2, k), 0, 0, 2),
    lambda k: verify.verify_resummation((k, 0), 0, 0, 2),
    lambda k: verify.verify_difference((k, 0), 0, 0, 2),
    lambda k: verify.verify_polynomial_expansion((k, 1), 0, 0, 2),
    lambda k: verify.verify_addition((k, 1), 0, 0, 0, 2),
])
def test_public_entries_refuse_an_index_that_is_not_an_int(call, bad):
    # int(2.5) would compute k = 2 and int(True) k = 1, and echo them
    with pytest.raises(TypeError):
        call(bad)
    call(2)


@pytest.mark.parametrize("bad", [True, False, 2.0])
@pytest.mark.parametrize("call", [
    lambda n: families.FamilyQuery(ks=(2, 1), lam=0, x=0, order=n),
    lambda n: families.degenerate_multi_poly_bernoulli((2, 1), Fraction(1, 3), 0, n),
    lambda n: families.carlitz_degenerate(2, 0, 0, n),
    lambda n: families.multi_poly_bernoulli((2, 1), 0, n),
    lambda n: families.poly_bernoulli(2, 0, n),
    lambda n: families.type2_poly_bernoulli(2, 0, n),
    lambda n: special.degenerate_exp(1, Fraction(1, 4), n),
    lambda n: special.one_minus_exp_neg(n),
    lambda n: special.log1p_series(n),
    lambda n: special.polyexp(2, n),
    lambda n: special.multi_polylog((2, 1), n),
    lambda n: special.stirling_table("second", n),
    lambda n: verify.verify_li_ones(2, n),
    lambda n: verify.verify_deriv_recurrences((2, 1), n),
    lambda n: verify.verify_chain_stirling((2, 1), 0, 0, n),
    lambda n: verify.verify_polynomial_expansion((2, 1), 0, 0, n),
    lambda n: verify.verify_addition((2, 1), 0, 0, 0, n),
    lambda n: verify.verify_resummation((2, 1), 0, 0, n),
    lambda n: verify.verify_difference((2, 1), 0, 0, n),
    lambda n: verify.verify_resummation((2, 1), 0, 0, 2, m_truncation=n),
    lambda n: verify.verify_difference((2, 1), 0, 0, 2, m_truncation=n),
    lambda n: verify.verify_resummation((2, -1), 0, 0, 2, m_truncation=n),
])
def test_public_entries_refuse_an_order_that_is_not_an_int(call, bad):
    # an order, max_n or m truncation of True would run as 1 and be echoed
    # as true, and 2.0 would fail deep inside on range()
    with pytest.raises(TypeError, match="must be an int"):
        call(bad)
    call(2)


@pytest.mark.parametrize("call, least, message", [
    (lambda n: families.FamilyQuery(ks=(2, 1), lam=0, x=0, order=n), 0, "order must be non-negative"),
    (lambda n: families.degenerate_multi_poly_bernoulli((2, 1), Fraction(1, 3), 0, n), 0,
     "order must be non-negative"),
    (lambda n: families.carlitz_degenerate(2, 0, 0, n), 0, "order must be non-negative"),
    (lambda r: families.carlitz_degenerate(r, 0, 0, 2), 1, "r must be at least 1"),
    (lambda n: families.multi_poly_bernoulli((2, 1), 0, n), 0, "order must be non-negative"),
    (lambda n: families.poly_bernoulli(2, 0, n), 0, "order must be non-negative"),
    (lambda n: families.type2_poly_bernoulli(2, 0, n), 0, "order must be non-negative"),
    (lambda n: special.degenerate_exp(1, Fraction(1, 4), n), 0, "order must be non-negative"),
    (lambda n: special.one_minus_exp_neg(n), 0, "order must be non-negative"),
    (lambda n: special.log1p_series(n), 0, "order must be non-negative"),
    (lambda n: special.polyexp(2, n), 0, "order must be non-negative"),
    (lambda n: special.multi_polylog((2, 1), n), 0, "order must be non-negative"),
    (lambda n: special.stirling_table("second", n), 0, "max_n must be non-negative"),
    (lambda n: verify.verify_li_ones(2, n), 0, "order must be non-negative"),
    (lambda r: verify.verify_li_ones(r, 2), 1, "r must be at least 1"),
    (lambda n: verify.verify_deriv_recurrences((2, 1), n), 1, "order must be at least 1"),
    (lambda n: verify.verify_chain_stirling((2, 1), 0, 0, n), 0, "order must be non-negative"),
    (lambda n: verify.verify_polynomial_expansion((2, 1), 0, 0, n), 0, "order must be non-negative"),
    (lambda n: verify.verify_addition((2, 1), 0, 0, 0, n), 0, "order must be non-negative"),
    (lambda n: verify.verify_resummation((2, 1), 0, 0, n), 0, "order must be non-negative"),
    (lambda n: verify.verify_difference((2, 1), 0, 0, n), 1, "order must be at least 1"),
    (lambda m: verify.verify_resummation((2, 1), 0, 0, 2, m_truncation=m), 0, "m truncation must be non-negative"),
    (lambda m: verify.verify_difference((2, 1), 0, 0, 2, m_truncation=m), 0, "m truncation must be non-negative"),
    (lambda m: verify.verify_resummation((2, -1), 0, 0, 2, m_truncation=m), 0, "m truncation must be non-negative"),
    (lambda m: verify.verify_difference((2, -1), 0, 0, 2, m_truncation=m), 0, "m truncation must be non-negative"),
    (lambda r: special.multi_polylog((2,) * r, 2), 1, "index vector must be non-empty"),
    (lambda base: inv_pow(base, 1), 1, "base must be a positive integer"),
    # 0 gives the malformed "1.5" and the zero denominator "1/0", 1 the
    # literals "3/2" and "1/1"
    (lambda ok: families.degenerate_multi_poly_bernoulli((1,), ("1.5", "3/2")[ok], 0, 2), 1,
     "not a rational literal: '1.5'"),
    (lambda den: families.degenerate_multi_poly_bernoulli((1,), f"1/{den}", 0, 2), 1, "zero denominator in '1/0'"),
    (lambda n: TruncatedSeries((1,) * n), 1, "a series needs at least the constant coefficient"),
    # 0 names the unknown kind "first", 1 the kind "second"
    (lambda known: special.stirling_table(("first", "second")[known], 2), 1,
     f"kind must be one of {special.STIRLING_KINDS}, got 'first'"),
])
def test_public_entries_refuse_a_value_below_its_least(call, least, message):
    # the int check of special.as_int refuses below the least as well: a
    # negative order would give an order-0 series, and a negative m
    # truncation an exact check that drops it; every domain refusal is an
    # ArgumentError, which the CLI relays as a usage error
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(least - 1)
    call(least)


@given(a=rationals)
def test_wire_format_round_trips_everything(a):
    assert parse_rational(format_rational(a)) == a


@pytest.mark.parametrize("bad", ["1/2/3", "1.5", "a", "", "1/-2", "--1", "1/ 2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ArgumentError, match="^not a rational literal: "):
        parse_rational(bad)


def test_decimal_string_is_20_significant_digits_half_even():
    assert _decimal_string(1, 3) == "0.33333333333333333333"
    assert _decimal_string(2, 3) == "0.66666666666666666667"
    assert _decimal_string(0, 1) == "0"
    assert _decimal_string(1, 1) == "1"
    # half-even: 21 digits would end ...5; the 20-digit rounding goes to even
    assert _decimal_string(5 * 10**24 + 1, 10**25).startswith("0.5000000000000000000")


def _decimal_reference(p: int, q: int) -> str:
    with localcontext() as ctx:
        ctx.prec = 20
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(p) / Decimal(q))


# numerators and denominators from 0 up to far past 10^22, so values run
# from below 10^-22 to above 10^22, and exact values with trailing zeros
# come up as p = c 10^e over q = 10^f
big = st.integers(min_value=0, max_value=10**60)
powers_of_ten = st.integers(min_value=0, max_value=40).map(lambda e: 10**e)


@given(p=st.one_of(big, st.builds(lambda c, t: c * t, st.integers(0, 999), powers_of_ten)),
       q=st.one_of(big.map(lambda v: v + 1), powers_of_ten),
       g=st.integers(min_value=1, max_value=10**12))
@example(p=200, q=2, g=1)
@example(p=10**25, q=1, g=1)
@example(p=0, q=7, g=3)
@example(p=10**23, q=1, g=1)
@example(p=1, q=10**23, g=9)
# an exact 20-digit integer quotient, which Decimal writes without point or
# exponent
@example(p=12345678901234567890 * 7, q=7, g=1)
def test_decimal_string_matches_the_decimal_reference(p, q, g):
    # the unreduced pair (p g, q g) and the pair's canonical form both render
    # as the reference does
    expected = _decimal_reference(p, q)
    assert _decimal_string(p * g, q * g) == expected
    value = Fraction(p, q)
    assert _decimal_string(value.numerator, value.denominator) == expected
