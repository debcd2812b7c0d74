"""Truncated power series and the int kernels under the family pipeline:
products, inversion and composition against the oracles."""

import json
from fractions import Fraction
from math import factorial
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bernoulli_numbers, brute_compose, convolve, long_divide, power_table_compose
from polybern import cli
from polybern.families import poly_bernoulli
from polybern.rationals import parse_rational
from polybern.series import TruncatedSeries, _compose, _inverse, _over_common, _product
from polybern.special import log1p_series, one_minus_exp_neg, stirling_table
from polybern.verify import ResidualTable, verify_li_ones

coefficients = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def series_strategy(min_order=0, max_order=8, unit=False, zero_const=False):
    def build(coeffs):
        cs = list(coeffs)
        if unit and cs[0] == 0:
            cs[0] = Fraction(1)
        if zero_const:
            cs[0] = Fraction(0)
        return TruncatedSeries(cs)

    return st.lists(coefficients, min_size=min_order + 1, max_size=max_order + 1).map(build)


def exp_series(order, sign=1):
    return TruncatedSeries([Fraction(sign**n, factorial(n)) for n in range(order + 1)])


def t_power(m, order):
    """t^m known up to ``order``; t^0 is the series 1."""
    return TruncatedSeries([0] * m + [1] + [0] * (order - m))


def product(a, b):
    """The truncated product of two series through the int kernel."""
    (ia, da), (ib, db) = _over_common(a.coeffs), _over_common(b.coeffs)
    return [Fraction(c, da * db) for c in _product(ia, ib)]


def inverse(a):
    """The inverse of a unit series through the int kernel."""
    ints, den = _inverse(*_over_common(a.coeffs))
    return [Fraction(c, den) for c in ints]


def compose(outer):
    """outer(1 - e^{-t}) through the int kernel, as Fractions."""
    egf, den = _compose(*_over_common(list(outer)))
    return [Fraction(e, den * factorial(n)) for n, e in enumerate(egf)]


def test_construction_and_accessors():
    s = TruncatedSeries([1, Fraction(-1, 2), 0])
    assert s.order == 2
    assert s.coeffs == (Fraction(1), Fraction(-1, 2), Fraction(0))
    assert s[1] == Fraction(-1, 2)
    with pytest.raises(IndexError):
        s.coefficient(3)


# each result type, with one of its fields
RESULTS = {
    "TruncatedSeries": ("coeffs", lambda: TruncatedSeries([1, Fraction(-1, 2)])),
    "ResidualTable": ("lhs", lambda: ResidualTable(0, (Fraction(1),), [[0, 1]], [1, 1])),
    "VerificationReport": ("rows", lambda: verify_li_ones(1, 2)),
    "ReportRow": ("rhs", lambda: verify_li_ones(1, 2).rows[0]),
    "SequenceResult": ("values", lambda: poly_bernoulli(1, 0, 2)),
    "FamilyQuery": ("lam", lambda: poly_bernoulli(1, 0, 2).query),
    "StirlingTable": ("rows", lambda: stirling_table("second", 2)),
}


@pytest.mark.parametrize("name", RESULTS)
def test_result_types_are_immutable(name):
    field, build = RESULTS[name]
    value = build()
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value._coeffs = (Fraction(5),)  # a name that is not a field
    assert getattr(value, field) is before and not hasattr(value, "_coeffs")


def test_series_equality_and_hash_follow_the_coefficients():
    ints = TruncatedSeries([1, 0, -2])
    fractions = TruncatedSeries([Fraction(2, 2), Fraction(0), Fraction(-4, 2)])
    assert ints == fractions and hash(ints) == hash(fractions)
    assert ints != TruncatedSeries([1, 0]) and ints.order == 2


def test_mul_trivial_cases():
    assert _product([1, 1, 0], [1, -1, 0]) == [1, 0, -1]
    a = TruncatedSeries([3, Fraction(1, 7), 2, 5])
    assert product(a, t_power(0, a.order)) == list(a)


def test_mul_exponential_inverse_pair():
    # e^t * e^{-t} = 1; expectation frozen from the brute-force convolution
    n = 6
    expected = convolve(list(exp_series(n)), list(exp_series(n, sign=-1)), n)
    assert expected == [Fraction(1)] + [Fraction(0)] * n
    assert product(exp_series(n), exp_series(n, sign=-1)) == expected


def test_mul_truncates_to_min_order():
    assert _product([1, 2, 3], [1, 1]) == [1, 3]


def test_scalar_arithmetic():
    # a series carries data only: every product is the int kernels'
    a = TruncatedSeries([1, 2, 3])
    with pytest.raises(TypeError):
        a * Fraction(1, 2)
    with pytest.raises(TypeError):
        2 * a
    with pytest.raises(TypeError):
        a**2
    with pytest.raises(TypeError):
        a * a


def test_invert_geometric():
    assert _inverse([1, -1, 0, 0], 1) == ([1, 1, 1, 1], 1)
    assert _inverse([1, 0, 0, 0], 1) == ([1, 0, 0, 0], 1)


def test_invert_bernoulli_unit():
    # ((e^t-1)/t)^-1 carries B_n/n!; oracle is the classical recurrence
    order = 8
    unit = TruncatedSeries([Fraction(1, factorial(n + 1)) for n in range(order + 1)])
    inv = inverse(unit)
    for n, b in enumerate(bernoulli_numbers(order)):
        assert inv[n] == b / factorial(n)
    assert inv[:3] == [Fraction(1), Fraction(-1, 2), Fraction(1, 12)]


def test_invert_requires_unit():
    with pytest.raises(ZeroDivisionError):
        _inverse([0, 1], 1)


def test_compose_log_of_exp_is_identity():
    # outer -log(1-x), inner 1-e^{-t}: the composite is exactly t
    n = 3
    outer = TruncatedSeries([Fraction(0)] + [Fraction(1, m) for m in range(1, n + 1)])
    inner = TruncatedSeries([Fraction(0)] + [Fraction((-1) ** (m + 1), factorial(m)) for m in range(1, n + 1)])
    expected = brute_compose(list(outer), list(inner), n)
    assert expected == [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert compose(outer) == expected


def test_compose_square():
    # t + t^2 is not 1 - e^{-t}: the kernel does not take it, the oracle squares it
    outer = TruncatedSeries([0, 0, 1, 0])
    inner = TruncatedSeries([0, 1, 1, 0])
    assert power_table_compose(list(outer), list(inner), 3) == [0, 0, 1, 2]


def test_compose_with_identity_is_identity():
    a = TruncatedSeries([5, Fraction(2, 3), -1, 7])
    t = t_power(1, 3)
    assert power_table_compose(list(a), list(t), 3) == list(a)


@settings(max_examples=80, deadline=None)
@given(
    outer=series_strategy(max_order=10),
    inner=series_strategy(max_order=10, zero_const=True),
)
@example(outer=TruncatedSeries([3]), inner=TruncatedSeries([0]))
@example(outer=TruncatedSeries([2, Fraction(5, 3)]), inner=TruncatedSeries([0, Fraction(1, 7)]))
@example(
    # k! * u_k = 1/2, 2/3, 30/7: the inner scale d is 42
    outer=TruncatedSeries([1, -1, Fraction(1, 5), Fraction(-7, 9)]),
    inner=TruncatedSeries([0, Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)]),
)
def test_compose_matches_brute_force(outer, inner):
    # any inner series, through the power table of the oracles
    target = min(outer.order, inner.order)
    assert power_table_compose(list(outer), list(inner), target) == brute_compose(list(outer), list(inner), target)


def test_compose_powers_of_the_inner_series_are_stirling_columns():
    # (1-e^{-t})^m = m! sum_n (-1)^(n-m) S2(n,m) t^n/n!  and
    # log(1+t)^m = m! sum_n s1(n,m) t^n/n!, with s1 signed
    order = 40
    second = stirling_table("second", order)
    first = stirling_table("first_signed", order)
    log1p = log1p_series(order)
    for m in range(order + 1):
        power = t_power(m, order)
        expected_u = [Fraction((-1) ** (n + m) * factorial(m) * second.value(n, m), factorial(n))
                      for n in range(order + 1)]
        expected_log = [Fraction(factorial(m) * first.value(n, m), factorial(n)) for n in range(order + 1)]
        assert compose(power) == expected_u, m
        assert power_table_compose(list(power), list(log1p), order) == expected_log, m


def test_compose_routes_agree_at_large_order():
    # the power table of the oracles is the reference
    order = 128
    outer = TruncatedSeries([Fraction(0)] + [Fraction(1, n**3) for n in range(1, order + 1)])
    assert compose(outer) == power_table_compose(list(outer), list(one_minus_exp_neg(order)), order)


@settings(max_examples=60, deadline=None)
@given(outer=series_strategy(max_order=12))
@example(outer=TruncatedSeries([Fraction(3, 7)]))
@example(outer=TruncatedSeries([2, Fraction(-5, 3)]))
@example(outer=TruncatedSeries([Fraction(0)] + [Fraction(1, n**2) for n in range(1, 13)]))
@example(outer=TruncatedSeries([Fraction((-2) ** n, n + 3) for n in range(13)]))
def test_compose_kernel_ints_match_the_series_composition(outer):
    # the EGF ints the families take, against the term-by-term composition
    # with the named series 1 - e^{-t}
    egf, den = _compose(*_over_common(outer.coeffs))
    composed = brute_compose(list(outer), list(one_minus_exp_neg(outer.order)), outer.order)
    assert [Fraction(e, den * factorial(n)) for n, e in enumerate(egf)] == composed


int_series = st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=9)


@settings(max_examples=60)
@given(a=int_series, b=int_series, c=int_series)
def test_ring_laws(a, b, c):
    assert _product(a, b) == _product(b, a)
    assert _product(_product(a, b), c) == _product(a, _product(b, c))
    n = min(len(b), len(c))
    assert _product(a, list(map(add, b, c))) == list(map(add, _product(a, b[:n]), _product(a, c[:n])))


@settings(max_examples=60)
@given(a=series_strategy(unit=True))
def test_invert_is_right_inverse(a):
    ints, den = _over_common(a.coeffs)
    inv, inv_den = _inverse(ints, den)
    assert _product(ints, inv) == [den * inv_den] + [0] * a.order


@settings(max_examples=40, deadline=None)
@given(
    f=series_strategy(max_order=6),
    g=series_strategy(max_order=6, zero_const=True),
    h=series_strategy(max_order=6, zero_const=True),
)
def test_compose_is_associative(f, g, h):
    # any inner series: (f o g) o h through the oracles' power table, f o (g o h) term by term
    n = min(f.order, g.order, h.order)
    f, g, h = list(f), list(g), list(h)
    assert power_table_compose(power_table_compose(f, g, n), h, n) == brute_compose(f, brute_compose(g, h, n), n)


def derive(a):
    """The formal derivative of a series held as ints."""
    return [n * c for n, c in enumerate(a)][1:]


@settings(max_examples=60)
@given(a=int_series.filter(lambda a: len(a) > 1), b=int_series.filter(lambda b: len(b) > 1))
def test_product_rule(a, b):
    n = min(len(a), len(b)) - 1
    lhs = derive(_product(a, b))
    rhs = map(add, _product(derive(a), b), _product(a, derive(b)))
    assert lhs == list(rhs)[:n]


# Products and inversion run on ints over a common denominator; the oracles
# below work Fraction by Fraction and share no code with them.
wide_coefficients = st.one_of(
    coefficients,
    st.integers(min_value=-10**12, max_value=10**12).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-10**30, max_value=10**30),
              st.integers(min_value=1, max_value=10**30)),
)


def wide_series(max_order=10, unit=False):
    def build(cs):
        if unit and cs[0] == 0:
            cs[0] = Fraction(-3, 5)
        return TruncatedSeries(cs)

    return st.lists(wide_coefficients, min_size=1, max_size=max_order + 1).map(build)


def inverse_factorials(order, sign=1):
    return TruncatedSeries([Fraction(sign, factorial(n)) for n in range(order + 1)])


def geometric(p, q, order):
    return TruncatedSeries([Fraction(p, q) ** n for n in range(order + 1)])


@settings(max_examples=80, deadline=None)
@given(a=wide_series(), b=wide_series())
@example(a=TruncatedSeries([Fraction(-3, 7)]), b=TruncatedSeries([Fraction(5, 2), 1]))
@example(a=TruncatedSeries([1, -2, 3, 4]), b=TruncatedSeries([5, -6, 7]))
@example(a=inverse_factorials(12), b=geometric(-7, 11, 9))
@example(a=geometric(13, 17, 10), b=geometric(-19, 23, 10))
def test_mul_matches_convolution_oracle(a, b):
    n = min(a.order, b.order)
    assert product(a, b) == convolve(list(a), list(b), n)


@settings(max_examples=80, deadline=None)
@given(a=wide_series(unit=True))
@example(a=TruncatedSeries([Fraction(-3, 5)]))
@example(a=TruncatedSeries([-2, 3, 0, 5, -7]))
@example(a=inverse_factorials(14, sign=-1))
@example(a=TruncatedSeries([Fraction(-3, 5)] + list(geometric(13, 17, 10))[1:]))
@example(a=TruncatedSeries([Fraction(-4, 9)] + [Fraction(1, factorial(n + 1)) for n in range(1, 12)]))
def test_invert_matches_long_division_oracle(a):
    assert inverse(a) == long_divide([Fraction(1)], list(a), a.order)


def test_json_round_trip(capsys):
    # the series verb writes the order and the "p/q" coefficients, which
    # parse back to the series
    assert cli.main(["series", "--name", "log1p", "--order", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["order"], data["coeffs"]) == (3, ["0/1", "1/1", "-1/2", "1/3"])
    assert TruncatedSeries(map(parse_rational, data["coeffs"])) == log1p_series(3)

