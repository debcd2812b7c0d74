"""Family values: closed forms, reductions, classical limits, stability."""

import json
import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bernoulli_numbers,
    bernoulli_polynomial,
    convolve,
    falling_egf,
    falling_factorial,
    long_divide,
    multi_poly_values,
    power_table_compose,
)
from polybern import cli, families, series
from polybern.families import (
    FamilyQuery,
    _gf_values,
    _u_power_values,
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    multi_poly_bernoulli,
    poly_bernoulli,
    type2_poly_bernoulli,
    u_power_columns,
)
from polybern.series import ValuationError, _over_common, _reduced
from polybern.special import (
    _multi_polylog_ints,
    log1p_series,
    polyexp,
)
from polybern.verify import verify_chain_stirling, verify_polynomial_expansion


def beta0_closed_form(ks):
    value = Fraction(factorial(len(ks)))
    for i, k in enumerate(ks, start=1):
        value *= Fraction(1, i**k) if k >= 0 else Fraction(i ** (-k))
    return value


# -- Carlitz family -----------------------------------------------------------


def test_carlitz_constant_term():
    for lam in (Fraction(0), Fraction(1, 2), Fraction(-3, 5)):
        assert carlitz_degenerate(1, lam, 0, 4).values[0] == 1


def test_carlitz_first_value():
    for lam in (Fraction(1, 3), Fraction(-2, 7), Fraction(0)):
        assert carlitz_degenerate(1, lam, 0, 3).values[1] == (lam - 1) / 2


def test_carlitz_classical_limit():
    values = carlitz_degenerate(1, 0, 0, 8).values
    assert list(values) == bernoulli_numbers(8)
    assert values[2] == Fraction(1, 6)


# -- the degenerate multi-poly family ------------------------------------------


def test_beta0_closed_form_examples():
    assert degenerate_multi_poly_bernoulli((1, 2), Fraction(1, 3), 0, 2).values[0] == Fraction(1, 2)
    rng = random.Random(7)
    for _ in range(10):
        r = rng.randint(1, 4)
        ks = tuple(rng.randint(-3, 3) for _ in range(r))
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        assert degenerate_multi_poly_bernoulli(ks, lam, 0, 1).values[0] == beta0_closed_form(ks)


def test_all_ones_reduces_to_carlitz():
    rng = random.Random(11)
    for r in (1, 2, 3, 4):
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        a = degenerate_multi_poly_bernoulli((1,) * r, lam, x, 12).values
        b = carlitz_degenerate(r, lam, x, 12).values
        assert a == b


def test_depth_one_at_lam_zero_is_poly_bernoulli():
    for k in (-1, 0, 1, 2, 3):
        a = degenerate_multi_poly_bernoulli((k,), 0, 0, 8).values
        b = poly_bernoulli(k, 0, 8).values
        assert a == b


def test_lam_zero_matches_independent_classical_pipeline():
    for ks in ((1,), (2, 1), (1, -1), (0, 2, 1)):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-2, 3)):
            ours = multi_poly_bernoulli(ks, x, 8).values
            oracle = multi_poly_values(ks, 0, x, 8)
            assert list(ours) == oracle, (ks, x)


def test_values_stable_under_larger_order():
    ks = (2, -1, 1)
    lam = Fraction(1, 3)
    x = Fraction(2, 5)
    short = degenerate_multi_poly_bernoulli(ks, lam, x, 6).values
    long = degenerate_multi_poly_bernoulli(ks, lam, x, 14).values
    assert long[:7] == short


def test_empty_index_vector_gives_falling_products():
    lam = Fraction(1, 4)
    x = Fraction(2, 3)
    values = degenerate_multi_poly_bernoulli((), lam, x, 6).values
    for n, v in enumerate(values):
        assert v == falling_factorial(x, n, lam)


def test_family_query_validation():
    q = FamilyQuery(ks=[1, 2], lam="1/3", x=0, order=4)
    assert q.ks == (1, 2) and q.lam == Fraction(1, 3) and q.x == 0


# -- specializations -----------------------------------------------------------


def test_multi_poly_examples():
    assert multi_poly_bernoulli((1,), 0, 3).values[1] == Fraction(-1, 2)
    assert multi_poly_bernoulli((1, 1), 0, 2).values[0] == 1
    for ks in ((3,), (-2,), (0,)):
        assert multi_poly_bernoulli(ks, 0, 2).values[0] == 1


def test_poly_bernoulli_k1_is_classical():
    numbers = bernoulli_numbers(10)
    for x in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
        values = poly_bernoulli(1, x, 10).values
        for n in range(11):
            assert values[n] == bernoulli_polynomial(n, x, numbers)
    assert poly_bernoulli(1, Fraction(1, 2), 3).values[1] == 0
    assert poly_bernoulli(5, Fraction(1, 7), 6).values[0] == 1


def test_type2_poly_bernoulli():
    numbers = bernoulli_numbers(10)
    for x in (Fraction(0), Fraction(2, 3)):
        values = type2_poly_bernoulli(1, x, 10).values
        for n in range(11):
            assert values[n] == bernoulli_polynomial(n, x, numbers)
    assert type2_poly_bernoulli(1, 0, 4).values[2] == Fraction(1, 6)
    assert type2_poly_bernoulli(4, 0, 4).values[0] == 1
    assert type2_poly_bernoulli(-2, Fraction(1, 3), 4).values[0] == 1


# -- falling-factorial expansion -------------------------------------------------


def falling_expansion(numbers, x, lam, n):
    """sum_l C(n,l) beta_l (x)_{n-l,lam}, the falling products from the oracles."""
    return sum(comb(n, l) * numbers[l] * falling_factorial(x, n - l, lam) for l in range(n + 1))


def test_expansion_base_case():
    # beta_0(x) = beta_0 = 2!/(1 * 2^2) whatever x is
    (row,) = verify_polynomial_expansion((1, 2), Fraction(1, 3), Fraction(2, 3), 0).rows
    assert (row.n, row.lhs, row.rhs) == (0, Fraction(1, 2), Fraction(1, 2))


def test_expansion_evaluates_to_numbers_at_zero():
    ks = (2, 1)
    lam = Fraction(1, 5)
    numbers = degenerate_multi_poly_bernoulli(ks, lam, 0, 6).values
    report = verify_polynomial_expansion(ks, lam, 0, 6)
    assert [row.rhs for row in report.rows] == list(numbers)
    for n in range(7):
        assert falling_expansion(numbers, 0, lam, n) == numbers[n]


def test_expansion_evaluates_to_polynomials():
    ks = (2, 1)
    lam = Fraction(1, 3)
    x = Fraction(2, 3)
    numbers = degenerate_multi_poly_bernoulli(ks, lam, 0, 8).values
    direct = degenerate_multi_poly_bernoulli(ks, lam, x, 8).values
    for n in range(9):
        assert falling_expansion(numbers, x, lam, n) == direct[n]


def test_expansion_pair_structure():
    # the report's rows: the family at x against its falling-product expansion
    ks = (1, 1)
    lam = Fraction(1, 2)
    x = Fraction(-3, 7)
    n = 5
    numbers = degenerate_multi_poly_bernoulli(ks, lam, 0, n).values
    direct = degenerate_multi_poly_bernoulli(ks, lam, x, n).values
    rows = [row for row in verify_polynomial_expansion(ks, lam, x, n).rows if row.check == "number-expansion"]
    assert [row.n for row in rows] == list(range(n + 1))
    assert [row.lhs for row in rows] == list(direct)
    assert [row.rhs for row in rows] == [falling_expansion(numbers, x, lam, m) for m in range(n + 1)]


# -- serialization ---------------------------------------------------------------


def test_sequence_result_json_and_csv():
    # rendered by the command line from the result's fields
    result = degenerate_multi_poly_bernoulli((1, 2), Fraction(1, 3), 0, 2)
    data = json.loads(cli._json_text(cli._json_value(result)))
    assert data == {
        "family": "degen-multi-poly",
        "ks": [1, 2],
        "lambda": "1/3",
        "x": "0/1",
        "order": 2,
        "values": ["1/2", "-1/2", "113/216"],
    }
    csv_text = cli._csv_text(result)
    assert csv_text.splitlines()[0] == "n,value"
    assert csv_text.splitlines()[1] == "0,1/2"


# -- cross-route property ----------------------------------------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=-1, max_value=3), min_size=2, max_size=3).map(tuple),
    lam=small_rationals,
    x=small_rationals,
    order=st.integers(min_value=0, max_value=6),
)
def test_pipeline_agrees_with_the_chain_route_and_the_classical_oracle(ks, lam, x, order):
    assert verify_chain_stirling(ks, lam, x, order).status == "pass"
    assert list(degenerate_multi_poly_bernoulli(ks, 0, x, order).values) == \
        multi_poly_values(ks, 0, x, order)


@settings(max_examples=60, deadline=None)
@given(
    tail=st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3).map(tuple),
    lam=small_rationals,
    x=small_rationals,
    order=st.integers(min_value=0, max_value=6),
)
def test_u_power_columns_give_the_family_of_every_shifted_tail(tail, lam, x, order):
    # tails of depth 1..3: what the m-series identities of depth 2..4 shift;
    # lowering k_s by m multiplies the polylog coefficient Li[q] by q^m, and
    # the pipeline at depth s is linear in the numerator sum_q Li[q] u^q
    s = len(tail)
    column, den = _u_power_values(s, lam, x, order)
    columns = u_power_columns(column, s, order)
    assert len(columns) == order + s + 1 and all(len(c) == order + 1 for c in columns)
    li, li_den = _multi_polylog_ints(tail, order + s)
    for m in range(13):
        shifted = tail[:-1] + (tail[-1] - m,)
        assert [Fraction(sum(li[q] * q**m * c[n] for q, c in enumerate(columns)), li_den * den)
                for n in range(order + 1)] == list(degenerate_multi_poly_bernoulli(shifted, lam, x, order).values), m


@settings(max_examples=80, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3).map(tuple),
    lam=small_rationals,
    x=small_rationals,
    order=st.integers(min_value=0, max_value=8),
)
@example(ks=(2, -1, 3), lam=Fraction(0), x=Fraction(1, 2), order=8)
@example(ks=(3, 1), lam=Fraction(-5, 2), x=Fraction(-2, 3), order=8)
@example(ks=(2,), lam=Fraction(1, 3), x=Fraction(1, 2), order=0)
def test_family_pipeline_agrees_with_an_oracle_only_route(ks, lam, x, order):
    # the oracle shares no package code with the pipeline: the numerator,
    # the denominator, the division and the scaling are each built apart
    assert list(degenerate_multi_poly_bernoulli(ks, lam, x, order).values) == \
        multi_poly_values(ks, lam, x, order)


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=3),
    lam=small_rationals,
    x=small_rationals,
    order=st.integers(min_value=0, max_value=8),
)
@example(r=2, lam=Fraction(0), x=Fraction(1, 3), order=8)
@example(r=3, lam=Fraction(-3, 4), x=Fraction(-1, 2), order=8)
def test_carlitz_agrees_with_the_oracle_route_at_all_ones(r, lam, x, order):
    assert list(carlitz_degenerate(r, lam, x, order).values) == \
        multi_poly_values((1,) * r, lam, x, order)


def egf_ints(coeffs):
    """The EGF ints d * n! * c_n of the coefficients c_n, over d, the least
    common denominator of the n! * c_n: the numerator form of _gf_values."""
    scaled = [factorial(n) * c for n, c in enumerate(coeffs)]
    den = lcm(*(c.denominator for c in scaled))
    return [c.numerator * (den // c.denominator) for c in scaled], den


def _type2_by_composition(k, x, order):
    # the numerator Ei_k(log(1+t)) composed through the oracles' power table,
    # not read from the signed Stirling table as type2_poly_bernoulli reads it
    work = order + 1
    numerator = power_table_compose(list(polyexp(k, work)), list(log1p_series(work)), work)
    return _gf_values(*egf_ints(numerator), 1, 0, (x,), order)[0]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=-4, max_value=5),
    x=small_rationals,
    order=st.integers(min_value=0, max_value=16),
)
@example(k=5, x=Fraction(-3, 5), order=16)
def test_type2_stirling_numerator_agrees_with_the_composed_numerator(k, x, order):
    assert _over_common(type2_poly_bernoulli(k, x, order).values) == _reduced(*_type2_by_composition(k, x, order))


def test_type2_stirling_numerator_agrees_with_the_composed_numerator_at_the_caps():
    x = Fraction(255, 256)
    for k in (32, -32):
        values = type2_poly_bernoulli(k, x, 128).values
        assert _over_common(values) == _reduced(*_type2_by_composition(k, x, 128)), k


def fraction_pipeline(numerator, r, lam, x, order):
    """The pipeline on plain Fraction lists, the reference for the int
    pipeline of _gf_values: the unit (e_lam(t) - 1)/t and e_lam^x(t) from
    their own falling products, the power by repeated convolution and the
    quotient by long division, all from the oracles, so no series or
    special-function code of the package is on this side."""
    unit = falling_egf(Fraction(1), lam, order + 1)[1:]
    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(r):
        power = convolve(power, unit, order)
    quotient = long_divide(numerator[r:], power, order)
    product = convolve(quotient, falling_egf(Fraction(x), lam, order), order)
    return tuple(factorial(r) * factorial(n) * c for n, c in enumerate(product))


# at lam = 1, 1/2 and 1/3 some 1 - j lam is zero: the unit is a polynomial
pipeline_lams = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-7, 9)])


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(min_value=0, max_value=4),
    lam=pipeline_lams,
    x=small_rationals,
    order=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
@example(r=4, lam=Fraction(1, 3), x=Fraction(0), order=40, data=None)
@example(r=0, lam=Fraction(1), x=Fraction(-2, 3), order=40, data=None)
# the depth cap, where the unit power sums e_lam^j up to j = 16
@example(r=16, lam=Fraction(-7, 9), x=Fraction(8, 9), order=8, data=None)
@example(r=16, lam=Fraction(1), x=Fraction(-2, 3), order=8, data=None)
def test_int_pipeline_agrees_with_the_fraction_pipeline(r, lam, x, order, data):
    # data=None: the EGF ints of the family numerator Li_{2,..,2}(1 - e^{-t}),
    # else random ints from t^r on over a random denominator
    work = order + r
    if data is None:
        egf, den = series._compose(*_multi_polylog_ints((2,) * r, work))
    else:
        tail = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=order + 1, max_size=order + 1), label="tail")
        egf, den = [0] * r + tail, data.draw(st.integers(1, 10**6), label="den")
    numerator = [Fraction(e, den * factorial(n)) for n, e in enumerate(egf)]
    ((ints, values_den),) = _gf_values(egf, den, r, lam, (x,), order)
    assert values_den > 0 and len(ints) == order + 1
    assert _reduced(ints, values_den) == _over_common(fraction_pipeline(numerator, r, lam, x, order))


def test_pipeline_refuses_a_numerator_below_its_valuation(monkeypatch):
    lam, x, order = Fraction(1, 3), Fraction(1, 2), 4
    for r in (1, 2, 3):
        for low in range(r):
            bad = [0] * low + [1] + [0] * (r - low - 1) + [1] + [0] * order
            with pytest.raises(ValuationError, match="valuation too small"):
                _gf_values(bad, 7, r, lam, (x,), order)
    # through a family: a polylog one index short has valuation r - 1 < r
    monkeypatch.setattr(families, "_multi_polylog_ints", lambda ks, work: _multi_polylog_ints(ks[:-1], work))
    with pytest.raises(ValuationError, match="valuation too small"):
        degenerate_multi_poly_bernoulli((2, 1), lam, x, order)


def _numerator(kind, ks, order):
    """A family numerator as EGF ints over one denominator, and its r:
    the composed polylog, the Carlitz t^r / r!, or the type-2 Ei_k(log(1+t))
    with k the first index (1 for none) through the oracles' power table."""
    r = len(ks)
    if kind == "polylog":
        return (*series._compose(*_multi_polylog_ints(ks, order + r)), r)
    if kind == "carlitz":
        return [0] * r + [1] + [0] * order, 1, r
    work = order + 1
    numerator = power_table_compose(list(polyexp(ks[0] if ks else 1, work)), list(log1p_series(work)), work)
    return (*egf_ints(numerator), 1)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["polylog", "carlitz", "type2"]),
    ks=st.lists(st.integers(min_value=-2, max_value=3), max_size=3).map(tuple),
    lam=pipeline_lams,
    xs=st.lists(small_rationals, min_size=1, max_size=4),
    order=st.integers(min_value=0, max_value=12),
)
@example(kind="polylog", ks=(), lam=Fraction(1, 3), xs=[Fraction(1, 2), Fraction(-2)], order=8)
@example(kind="polylog", ks=(2, 1), lam=Fraction(0), xs=[Fraction(1, 3), Fraction(1, 3), Fraction(0)], order=12)
@example(kind="carlitz", ks=(1, 1, 1), lam=Fraction(-7, 9), xs=[Fraction(8, 9), Fraction(17, 9)], order=12)
@example(kind="type2", ks=(3,), lam=Fraction(0), xs=[Fraction(2, 3), Fraction(2, 3)], order=12)
def test_pipeline_at_several_x_is_the_pipeline_at_each_x(kind, ks, lam, xs, order):
    # one pipeline call for every x against one call per x, and against the
    # Fraction pipeline of the oracles at each x
    egf, den, r = _numerator(kind, ks, order)
    values = _gf_values(egf, den, r, lam, xs, order)
    assert values == tuple(_gf_values(egf, den, r, lam, (x,), order)[0] for x in xs)
    numerator = [Fraction(e, den * factorial(n)) for n, e in enumerate(egf)]
    reduced = [_reduced(*pair) for pair in values]
    assert reduced == [_over_common(fraction_pipeline(numerator, r, lam, x, order)) for x in xs]
    if kind == "polylog":
        assert families._polylog_family(ks, lam, xs, order) == values
        assert reduced == [_over_common(degenerate_multi_poly_bernoulli(ks, lam, x, order).values) for x in xs]


def test_empty_index_vector_gives_the_falling_products_at_each_x():
    lam, order = Fraction(-1, 3), 6
    xs = (Fraction(1, 2), Fraction(5), Fraction(1, 2))
    expected = [_over_common([falling_factorial(x, n, lam) for n in range(order + 1)]) for x in xs]
    assert [_reduced(*pair) for pair in families._polylog_family((), lam, xs, order)] == expected


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=4),
    lam=pipeline_lams,
    x=small_rationals,
    order=st.integers(min_value=0, max_value=12),
)
@example(s=3, lam=Fraction(-7, 9), x=Fraction(8, 9), order=12)
def test_u_power_values_are_the_pipeline_values_over_their_least_common_denominator(s, lam, x, order):
    # the m-series sums are taken over exactly these ints and this
    # denominator: _over_common of the values as Fractions, here those of
    # the Fraction pipeline on u^s, u = 1 - e^{-t} = sum_k (-1)^(k+1) t^k / k!
    work = order + s
    u = [Fraction(0)] + [Fraction((-1) ** (k + 1), factorial(k)) for k in range(1, work + 1)]
    numerator = [Fraction(1)] + [Fraction(0)] * work
    for _ in range(s):
        numerator = convolve(numerator, u, work)
    assert _u_power_values(s, lam, x, order) == _over_common(fraction_pipeline(numerator, s, lam, x, order))
