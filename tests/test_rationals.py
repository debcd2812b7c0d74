"""Exact coefficient field: construction, arithmetic, weights, wire format;
and the refusals of every public entry, derived from one table of calls."""

import inspect
import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import polybern
from polybern import families, series, special, verify
from polybern.rationals import (
    ArgumentError,
    _decimal_string,
    as_rational,
    format_rational,
    inv_pow,
    parse_rational,
)

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
    assert format_rational(-4) == "-4/1"
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


# One valid keyword call of each public callable but the result types and
# exceptions, with the least value of each int parameter (order, r, max_n,
# m_truncation, base) and of the depth of ks, where that is not 0; a label
# after the name tells two rows of one callable apart.
NOT_CALLED = {"ArgumentError", "ValuationError", "ReportRow", "SequenceResult", "StirlingTable", "VerificationReport"}
ENTRIES = {
    "FamilyQuery": (dict(ks=(2, 1), lam="1/3", x=0, order=2), {}),
    "TruncatedSeries": (dict(coeffs=(1, Fraction(-1, 2))), {}),
    "carlitz_degenerate": (dict(r=2, lam=Fraction(1, 3), x="1/2", order=2), {"r": 1}),
    "degenerate_exp": (dict(x=Fraction(1, 2), lam="1/4", order=2), {}),
    "degenerate_multi_poly_bernoulli": (dict(ks=(2, 1), lam=Fraction(1, 3), x="-1/2", order=2), {}),
    "format_rational": (dict(value=Fraction(-1, 2)), {}),
    "inv_pow": (dict(base=2, k=-2), {"base": 1}),
    "log1p_series": (dict(order=2), {}),
    "multi_poly_bernoulli": (dict(ks=(2, 1), x=Fraction(1, 2), order=2), {}),
    "multi_polylog": (dict(ks=(2, 1), order=2), {"ks": 1}),
    "one_minus_exp_neg": (dict(order=2), {}),
    "parse_rational": (dict(text=" -2/4 "), {}),
    "poly_bernoulli": (dict(k=2, x="1/2", order=2), {}),
    "polyexp": (dict(k=-2, order=2), {}),
    "stirling_table": (dict(kind="first_signed", max_n=2), {}),
    "type2_poly_bernoulli": (dict(k=2, x=Fraction(1, 2), order=2), {}),
    "verify_addition": (dict(ks=(2, 1), lam="1/3", x=Fraction(1, 2), y="1/5", order=2), {"ks": 1}),
    "verify_chain_stirling": (dict(ks=(2, 1), lam=Fraction(1, 3), x="1/2", order=2), {"ks": 2}),
    "verify_deriv_recurrences": (dict(ks=(2, 1), order=2), {"ks": 1, "order": 1}),
    "verify_difference k_r>=1": (dict(ks=(2, 1), lam="1/3", x=0, order=2, m_truncation=2),
                                 {"ks": 2, "order": 1}),
    "verify_difference k_r<=0": (dict(ks=(2, -1), lam="1/3", x=0, order=2, m_truncation=2),
                                 {"ks": 2, "order": 1}),
    "verify_li_ones": (dict(r=2, order=2), {"r": 1}),
    "verify_polynomial_expansion": (dict(ks=(2, 1), lam=Fraction(1, 3), x="1/2", order=2), {"ks": 1}),
    "verify_resummation k_r>=1": (dict(ks=(2, 1), lam=Fraction(1, 3), x="1/2", order=2, m_truncation=2),
                                  {"ks": 2}),
    "verify_resummation k_r<=0": (dict(ks=(2, 0), lam=Fraction(1, 3), x="1/2", order=2, m_truncation=2),
                                  {"ks": 2}),
}
INTS = {"order": "order", "r": "r", "max_n": "max_n", "m_truncation": "m truncation", "base": "base"}
# the kernels a refusal must come before; stirling_table is one for every
# entry but itself, which is looked up before they are replaced
KERNELS = ("_gf_values", "_polylog_family", "_multi_polylog_ints", "_degenerate_exp_ints", "_compose",
           "_product", "_inverse", "_m_series", "stirling_table")
LITERALS = [("1.5", ArgumentError, "not a rational literal: '1.5'"),
            ("1/0", ArgumentError, "zero denominator in '1/0'")]


def _callable(label):
    return getattr(polybern, label.split()[0])


def _refusals(name, good, least):
    """(bad value, error, exact message or None) for each refusal that the
    parameter ``name`` derives, given its valid value and least value."""
    if name in ("lam", "x", "y"):
        return [(0.5, TypeError, None), (True, TypeError, None), *LITERALS]
    if name in INTS:
        what = INTS[name]
        below = f"at least {least}" if least else "non-negative"
        return [(bad, TypeError, f"{what} must be an int, got {type(bad).__name__}") for bad in (True, False, 2.0)] + [
            (least - 1, ArgumentError, f"{what} must be {below}")]
    if name == "k":
        return [(bad, TypeError, None) for bad in (2.5, -1.5, 2.0, True)]
    if name == "ks":
        short = [(good[len(good) - least + 1:], ArgumentError, None)] if least else []
        return short + [(good[:i] + (bad,) + good[i + 1:], TypeError, None)
                        for i in range(len(good)) for bad in (2.5, -1.5, 2.0, True)]
    return {
        "kind": [("first", ArgumentError, f"kind must be one of {special.STIRLING_KINDS}, got 'first'")],
        "text": [(5, TypeError, None), *LITERALS],
        "value": [(0.1, TypeError, None)],
        "coeffs": [((), ArgumentError, "a series needs at least the constant coefficient"),
                   ((True,), TypeError, None), ((0.5,), TypeError, None)],
    }[name]


CASES = [pytest.param(label, {**kwargs, name: bad}, error, message, id=f"{label}-{name}={bad!r}")
         for label, (kwargs, least) in ENTRIES.items() for name, good in kwargs.items()
         for bad, error, message in _refusals(name, good, least.get(name, 0))]


@pytest.mark.parametrize("label, kwargs, error, message", CASES)
def test_each_refusal_comes_before_any_work(monkeypatch, label, kwargs, error, message):
    # every domain refusal is an ArgumentError, which the CLI relays as a
    # usage error, and every refusal of a type a TypeError: int(2.5) would
    # compute 2, True would run as 1, and Fraction(0.5) is a binary value
    call = _callable(label)

    def kernel(*args, **kw):
        raise AssertionError("work began before the refusal")

    for module in (polybern, series, special, families, verify):
        for name in KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, kernel)
    with pytest.raises(error, match=message and f"^{re.escape(message)}$"):
        call(**kwargs)


@pytest.mark.parametrize("label", ENTRIES)
def test_each_entry_runs_at_its_row_and_at_its_least_values(label):
    kwargs, least = ENTRIES[label]
    least_kwargs = {name: least.get(name, 0) if name in INTS else value for name, value in kwargs.items()}
    if "ks" in kwargs:
        least_kwargs["ks"] = kwargs["ks"][len(kwargs["ks"]) - least.get("ks", 0):]
    for call_kwargs in (kwargs, least_kwargs):
        _callable(label)(**call_kwargs)


def test_entries_name_every_public_callable_in_signature_order():
    assert {label.split()[0] for label in ENTRIES} == set(polybern.__all__) - NOT_CALLED
    for label, (kwargs, _) in ENTRIES.items():
        assert list(kwargs) == list(inspect.signature(_callable(label)).parameters), label


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
