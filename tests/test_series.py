"""Truncated power series: ring laws, inversion, composition, shifts."""

import json
from fractions import Fraction
from math import factorial
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bernoulli_numbers, brute_compose, convolve, long_divide, power_table_compose
from polybern import cli, series
from polybern.rationals import parse_rational
from polybern.series import TruncatedSeries, ValuationError
from polybern.special import log1p_series, one_minus_exp_neg, stirling_table

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


def test_construction_and_accessors():
    s = TruncatedSeries([1, Fraction(-1, 2), 0])
    assert s.order == 2
    assert s.coeffs == (Fraction(1), Fraction(-1, 2), Fraction(0))
    assert s[1] == Fraction(-1, 2)
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(TypeError):
        TruncatedSeries([0.5])
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_mul_trivial_cases():
    one_plus = TruncatedSeries([1, 1, 0])
    one_minus = TruncatedSeries([1, -1, 0])
    assert (one_plus * one_minus).coeffs == (Fraction(1), Fraction(0), Fraction(-1))
    a = TruncatedSeries([3, Fraction(1, 7), 2, 5])
    assert a * t_power(0, a.order) == a


def test_mul_exponential_inverse_pair():
    # e^t * e^{-t} = 1; expectation frozen from the brute-force convolution
    n = 6
    expected = convolve(list(exp_series(n)), list(exp_series(n, sign=-1)), n)
    assert expected == [Fraction(1)] + [Fraction(0)] * n
    assert (exp_series(n) * exp_series(n, sign=-1)).coeffs == tuple(expected)


def test_mul_truncates_to_min_order():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([1, 1])
    assert (a * b).order == 1


def test_scalar_arithmetic():
    a = TruncatedSeries([1, 2, 3])
    assert (a * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert (2 * a).coeffs == (2, 4, 6)


def test_invert_geometric():
    inv = TruncatedSeries([1, -1, 0, 0]).invert()
    assert inv.coeffs == (1, 1, 1, 1)
    assert t_power(0, 3).invert() == t_power(0, 3)


def test_invert_bernoulli_unit():
    # ((e^t-1)/t)^-1 carries B_n/n!; oracle is the classical recurrence
    order = 8
    unit = TruncatedSeries([Fraction(1, factorial(n + 1)) for n in range(order + 1)])
    inv = unit.invert()
    for n, b in enumerate(bernoulli_numbers(order)):
        assert inv[n] == b / factorial(n)
    assert inv.coeffs[:3] == (Fraction(1), Fraction(-1, 2), Fraction(1, 12))


def test_invert_requires_unit():
    with pytest.raises(ValueError, match="non-unit"):
        TruncatedSeries([0, 1]).invert()


def test_compose_log_of_exp_is_identity():
    # outer -log(1-x), inner 1-e^{-t}: the composite is exactly t
    n = 3
    outer = TruncatedSeries([Fraction(0)] + [Fraction(1, m) for m in range(1, n + 1)])
    inner = TruncatedSeries([Fraction(0)] + [Fraction((-1) ** (m + 1), factorial(m)) for m in range(1, n + 1)])
    expected = brute_compose(list(outer), list(inner), n)
    assert expected == [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert outer.compose(inner).coeffs == tuple(expected)


REFUSED = "composition takes only an inner series alpha"


def test_compose_square():
    # t + t^2 is not alpha (e^{beta t} - 1): compose refuses it, the oracle squares it
    outer = TruncatedSeries([0, 0, 1, 0])
    inner = TruncatedSeries([0, 1, 1, 0])
    with pytest.raises(ValueError, match=REFUSED):
        outer.compose(inner)
    assert power_table_compose(list(outer), list(inner), 3) == [0, 0, 1, 2]


def test_compose_with_identity_is_identity():
    a = TruncatedSeries([5, Fraction(2, 3), -1, 7])
    t = t_power(1, 3)
    with pytest.raises(ValueError, match=REFUSED):
        a.compose(t)
    assert power_table_compose(list(a), list(t), 3) == list(a)


def test_compose_refuses_an_inner_series_of_another_form():
    # log(1 + t), t and t + t^2; up to order 1 the result is a_0 + a_1 u_1 t
    # whatever the form of u, so there compose takes them
    for inner in (log1p_series(6), t_power(1, 6), TruncatedSeries([0, 1, 1, 0, 0, 0, 0])):
        with pytest.raises(ValueError, match=REFUSED):
            exp_series(6).compose(inner)
        for order in (0, 1):
            outer = exp_series(order, sign=-1)
            assert list(outer.compose(inner).coeffs) == brute_compose(list(outer), list(inner), order)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError, match="zero constant"):
        TruncatedSeries([1, 1]).compose(TruncatedSeries([1, 1]))


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
    u = one_minus_exp_neg(order)
    log1p = log1p_series(order)
    for m in range(order + 1):
        power = t_power(m, order)
        expected_u = [Fraction((-1) ** (n + m) * factorial(m) * second.value(n, m), factorial(n))
                      for n in range(order + 1)]
        expected_log = [Fraction(factorial(m) * first.value(n, m), factorial(n)) for n in range(order + 1)]
        assert list(power.compose(u).coeffs) == expected_u, m
        assert power_table_compose(list(power), list(log1p), order) == expected_log, m


def exp_minus_one(alpha, beta, order):
    """alpha (e^{beta t} - 1) up to ``order``."""
    return TruncatedSeries([Fraction(0)] + [alpha * beta**k / factorial(k) for k in range(1, order + 1)])


def compose_and_route(outer, inner):
    """outer(inner), and whether compose took its e^{beta t} route."""
    calls = []
    exponential = series._compose

    def spy(*args):
        calls.append(args)
        return exponential(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_compose", spy)
        composed = outer.compose(inner)
    return composed, bool(calls)


nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@settings(max_examples=80, deadline=None)
@given(
    outer=series_strategy(max_order=12),
    alpha=nonzero_rationals,
    beta=nonzero_rationals.filter(lambda b: abs(b) != 1),
    order=st.integers(min_value=0, max_value=12),
)
@example(outer=TruncatedSeries([Fraction((-2) ** n, n + 3) for n in range(13)]), alpha=Fraction(-1), beta=Fraction(-1), order=12)
@example(outer=TruncatedSeries([Fraction(1, n + 1) for n in range(11)]), alpha=Fraction(1), beta=Fraction(1), order=10)
@example(outer=TruncatedSeries([0, 0, 1]), alpha=Fraction(3, 2), beta=Fraction(-2, 5), order=2)
def test_compose_with_an_exponential_inner_series_matches_brute_force(outer, alpha, beta, order):
    # the examples: 1 - e^{-t}, e^t - 1, and the shortest inner series the route takes
    inner = exp_minus_one(alpha, beta, order)
    target = min(outer.order, order)
    composed, exponential = compose_and_route(outer, inner)
    assert exponential == (target >= 2)
    assert composed.order == target
    assert list(composed.coeffs) == brute_compose(list(outer), list(inner), target)


@settings(max_examples=60, deadline=None)
@given(
    outer=series_strategy(min_order=4, max_order=12),
    alpha=nonzero_rationals,
    beta=nonzero_rationals,
    off=st.data(),
)
@example(
    outer=TruncatedSeries([Fraction(1, n * n + 1) for n in range(11)]),
    alpha=Fraction(-1), beta=Fraction(-1), off=None,
)
def test_compose_one_coefficient_off_an_exponential_is_refused(outer, alpha, beta, off):
    # off=None: 1 - e^{-t} + t^5.  From order 4 on no single change keeps
    # the inner series geometric; at order 3, negating U_2 would.
    if off is None:
        k, delta = 5, Fraction(1)
    else:
        k = off.draw(st.integers(min_value=1, max_value=outer.order), label="k")
        delta = off.draw(nonzero_rationals, label="delta")
    inner = list(exp_minus_one(alpha, beta, outer.order))
    inner[k] += delta
    with pytest.raises(ValueError, match=REFUSED):
        outer.compose(TruncatedSeries(inner))
    assert power_table_compose(list(outer), inner, outer.order) == brute_compose(list(outer), inner, outer.order)


@pytest.mark.parametrize("alpha, beta, order", [(-1, -1, 128), (1, 1, 128), (Fraction(-7, 9), Fraction(5, 3), 48)])
def test_compose_routes_agree_at_large_order(alpha, beta, order):
    # the power table of the oracles is the reference
    outer = TruncatedSeries([Fraction(0)] + [Fraction(1, n**3) for n in range(1, order + 1)])
    inner = exp_minus_one(Fraction(alpha), Fraction(beta), order)
    composed, exponential = compose_and_route(outer, inner)
    assert exponential
    assert list(composed.coeffs) == power_table_compose(list(outer), list(inner), order)


@settings(max_examples=60, deadline=None)
@given(outer=series_strategy(max_order=12))
@example(outer=TruncatedSeries([Fraction(3, 7)]))
@example(outer=TruncatedSeries([2, Fraction(-5, 3)]))
@example(outer=TruncatedSeries([Fraction(0)] + [Fraction(1, n**2) for n in range(1, 13)]))
def test_compose_kernel_ints_match_the_series_composition(outer):
    # the EGF ints the families take, against compose with 1 - e^{-t}, which
    # at orders 0 and 1 does not reach the kernel
    egf, den = series._compose(*series._over_common(outer.coeffs), Fraction(-1), Fraction(-1))
    composed = outer.compose(one_minus_exp_neg(outer.order))
    assert [Fraction(e, den * factorial(n)) for n, e in enumerate(egf)] == list(composed.coeffs)


def test_div_tpow():
    assert TruncatedSeries([0, 0, 1, 1]).div_tpow(2).coeffs == (1, 1)
    a = TruncatedSeries([2, 3])
    assert a.div_tpow(0) == a
    n = 3
    one_minus_exp = TruncatedSeries([Fraction(0)] + [Fraction((-1) ** (m + 1), factorial(m)) for m in range(1, n + 2)])
    shifted = one_minus_exp.div_tpow(1)
    assert shifted.coeffs == tuple(Fraction((-1) ** m, factorial(m + 1)) for m in range(n + 1))


def test_div_tpow_guards_valuation():
    with pytest.raises(ValuationError, match="valuation too small"):
        TruncatedSeries([0, 1, 1]).div_tpow(2)
    with pytest.raises(ValueError):
        TruncatedSeries([0, 0]).div_tpow(3)


def test_derive():
    assert TruncatedSeries([1, 1, 1]).derive().coeffs == (1, 2)
    assert TruncatedSeries([4, 0, 0, 0]).derive().coeffs == (0, 0, 0)
    e = exp_series(4)
    assert e.derive().coeffs == e.coeffs[:4]
    with pytest.raises(ValueError):
        TruncatedSeries([1]).derive()


def test_pow():
    a = TruncatedSeries([1, 1, 0, 0])
    assert (a**3).coeffs == (1, 3, 3, 1)
    assert a**0 == t_power(0, 3)
    with pytest.raises(ValueError):
        a**-1


@settings(max_examples=60)
@given(a=series_strategy(), b=series_strategy(), c=series_strategy())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    n = min(a.order, b.order, c.order)
    assert ((a * b) * c).coeffs[: n + 1] == (a * (b * c)).coeffs[: n + 1]
    b_plus_c = TruncatedSeries(map(add, b, c))
    assert (a * b_plus_c).coeffs[: n + 1] == tuple(map(add, a * b, a * c))[: n + 1]


@settings(max_examples=60)
@given(a=series_strategy(unit=True))
def test_invert_is_right_inverse(a):
    assert a * a.invert() == t_power(0, a.order)


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


@settings(max_examples=60)
@given(a=series_strategy(min_order=1), b=series_strategy(min_order=1))
def test_product_rule(a, b):
    n = min(a.order, b.order)
    lhs = (a * b).derive()
    rhs = map(add, a.derive() * b, a * b.derive())
    assert lhs.coeffs == tuple(rhs)[:n]


@settings(max_examples=60)
@given(a=series_strategy(), r=st.integers(min_value=0, max_value=4))
def test_mul_then_div_tpow_round_trips(a, r):
    assert a.mul_tpow(r).div_tpow(r) == a


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
    product = a * b
    assert product.order == n
    assert list(product.coeffs) == convolve(list(a), list(b), n)


@settings(max_examples=60, deadline=None)
@given(a=wide_series(), exponent=st.integers(min_value=0, max_value=6))
@example(a=inverse_factorials(12), exponent=5)
@example(a=geometric(-7, 11, 9), exponent=4)
def test_pow_matches_repeated_convolution_oracle(a, exponent):
    expected = [Fraction(1)] + [Fraction(0)] * a.order
    for _ in range(exponent):
        expected = convolve(expected, list(a), a.order)
    assert list((a**exponent).coeffs) == expected


@settings(max_examples=80, deadline=None)
@given(a=wide_series(unit=True))
@example(a=TruncatedSeries([Fraction(-3, 5)]))
@example(a=TruncatedSeries([-2, 3, 0, 5, -7]))
@example(a=inverse_factorials(14, sign=-1))
@example(a=TruncatedSeries([Fraction(-3, 5)] + list(geometric(13, 17, 10))[1:]))
@example(a=TruncatedSeries([Fraction(-4, 9)] + [Fraction(1, factorial(n + 1)) for n in range(1, 12)]))
def test_invert_matches_long_division_oracle(a):
    inverse = a.invert()
    assert inverse.order == a.order
    assert list(inverse.coeffs) == long_divide([Fraction(1)], list(a), a.order)


@pytest.mark.parametrize("order", [0, 7])
def test_pow_zero_and_one(order):
    s = TruncatedSeries([Fraction(-3, 5)] + [Fraction(n, n + 2) for n in range(1, order + 1)])
    assert s**0 == t_power(0, order)
    assert s**1 == s


def test_json_round_trip(capsys):
    # the series verb writes the order and the "p/q" coefficients, which
    # parse back to the series
    assert cli.main(["series", "--name", "log1p", "--order", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["order"], data["coeffs"]) == (3, ["0/1", "1/1", "-1/2", "1/3"])
    assert TruncatedSeries(map(parse_rational, data["coeffs"])) == log1p_series(3)

