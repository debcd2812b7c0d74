"""Named series and tables against brute-force oracles and cross identities."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    chain_coefficient,
    convolve,
    count_permutations_by_cycles,
    count_set_partitions,
    falling_factorial,
    polylog_prefix_sums,
    power_table_compose,
)
from polybern import cli
from polybern.series import _over_common, _product
from polybern.special import (
    _degenerate_exp_ints,
    _multi_polylog_ints,
    degenerate_exp,
    index_vector,
    log1p_series,
    multi_polylog,
    one_minus_exp_neg,
    polyexp,
    stirling_table,
)

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


# -- degenerate exponential ---------------------------------------------------


def test_degenerate_exp_small_case():
    s = degenerate_exp(1, Fraction(1, 2), 2)
    assert s.coeffs == (Fraction(1), Fraction(1), Fraction(1, 4))


def test_degenerate_exp_at_zero_base():
    s = degenerate_exp(0, Fraction(3, 7), 5)
    assert s.coeffs == (1, 0, 0, 0, 0, 0)


def test_degenerate_exp_classical_limit():
    s = degenerate_exp(1, 0, 3)
    assert s.coeffs == (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6))


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-7, 9), Fraction(5, 3), Fraction(-2)])
@pytest.mark.parametrize("order", [0, 1, 24])
def test_degenerate_exp_ints_share_one_denominator_over_integer_x(lam, order):
    # the family pipeline sums e_lam^j(t) for j = 0..r <= 16 over ints: for an
    # integer j the denominator b^order order! does not depend on j
    dens = {_degenerate_exp_ints(j, lam, order)[1] for j in range(17)}
    assert dens == {lam.denominator**order * factorial(order)}


@settings(max_examples=40)
@given(x=small_rationals, y=small_rationals, lam=small_rationals)
def test_degenerate_exp_addition_law(x, y, lam):
    # e_lam^x(t) e_lam^y(t) = e_lam^{x+y}(t), the product taken by the int kernel
    n = 8
    (ex, dx), (ey, dy) = _degenerate_exp_ints(x, lam, n), _degenerate_exp_ints(y, lam, n)
    lhs = [Fraction(c, dx * dy) for c in _product(ex, ey)]
    assert lhs == list(degenerate_exp(x + y, lam, n))


@settings(max_examples=40)
@given(x=small_rationals, lam=small_rationals, n=st.integers(min_value=0, max_value=8))
def test_falling_factorial_matches_exp_coefficients(x, lam, n):
    assert degenerate_exp(x, lam, n)[n] == falling_factorial(x, n, lam) / factorial(n)


def test_falling_factorial_at_lam_zero_is_power():
    x = Fraction(2, 3)
    assert falling_factorial(x, 4, 0) == x**4 == degenerate_exp(x, 0, 4)[4] * factorial(4)


# -- inner series -------------------------------------------------------------


def test_one_minus_exp_neg():
    s = one_minus_exp_neg(3)
    assert s.coeffs == (0, Fraction(1), Fraction(-1, 2), Fraction(1, 6))
    assert one_minus_exp_neg(4)[4] == Fraction(-1, 24)
    assert one_minus_exp_neg(7)[0] == 0


def test_log1p_series():
    s = log1p_series(3)
    assert s.coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 3))
    assert s[1] == 1


def test_exp_compose_log1p_is_one_plus_t():
    n = 5
    exp = [Fraction(1, factorial(m)) for m in range(n + 1)]
    composed = power_table_compose(exp, list(log1p_series(n)), n)
    assert composed == [1, 1, 0, 0, 0, 0]


# -- polyexponential ----------------------------------------------------------


def test_polyexp_k1_is_expm1():
    s = polyexp(1, 6)
    for n in range(1, 7):
        assert s[n] == Fraction(1, factorial(n))
    assert s[0] == 0


def test_polyexp_values():
    assert polyexp(2, 4)[2] == Fraction(1, 4)
    for n in range(1, 5):
        assert polyexp(0, 4)[n] == Fraction(1, factorial(n - 1))


# -- Stirling tables ----------------------------------------------------------


def test_stirling_second_known_values():
    table = stirling_table("second", 6)
    assert table.value(4, 2) == 7
    for n in range(7):
        assert table.value(n, n) == 1
    assert table.value(5, 0) == 0
    assert table.value(3, 5) == 0


def test_stirling_first_known_values():
    table = stirling_table("first_unsigned", 6)
    assert table.value(4, 2) == 11
    assert table.value(3, 1) == 2
    signed = stirling_table("first_signed", 6)
    for n in range(7):
        for k in range(n + 1):
            assert signed.value(n, k) == (-1) ** (n - k) * table.value(n, k)


def test_stirling_against_brute_force_counts():
    second = stirling_table("second", 6)
    first = stirling_table("first_unsigned", 6)
    for n in range(7):
        for k in range(n + 1):
            assert second.value(n, k) == count_set_partitions(n, k)
            assert first.value(n, k) == count_permutations_by_cycles(n, k)


def test_stirling_first_signed_is_the_unsigned_table_with_alternating_signs():
    signed = stirling_table("first_signed", 60).rows
    unsigned = stirling_table("first_unsigned", 60).rows
    assert len(signed) == len(unsigned) == 61
    for n, (s_row, u_row) in enumerate(zip(signed, unsigned)):
        assert s_row == tuple((-1) ** (n - k) * v for k, v in enumerate(u_row)), n


def test_stirling_second_generating_function():
    # (1/k!)(e^t - 1)^k column check, exact to order 16
    order = 16
    table = stirling_table("second", order)
    expm1 = [Fraction(0)] + [Fraction(1, factorial(n)) for n in range(1, order + 1)]
    power = [Fraction(1)] + [Fraction(0)] * order  # (e^t - 1)^k
    for k in range(9):
        for n in range(order + 1):
            assert power[n] / factorial(k) == Fraction(table.value(n, k), factorial(n))
        power = convolve(power, expm1, order)


def test_stirling_csv_shape():
    # rendered by the command line from the table's rows
    text = cli._csv_text(stirling_table("second", 3))
    lines = text.strip().split("\n")
    assert lines[0] == "n,0,1,2,3"
    assert lines[4] == "3,0,1,3,1"


# -- multiple polylogarithm ---------------------------------------------------


def test_single_index_is_plain_polylog():
    for k in (-2, 0, 1, 3):
        s = multi_polylog((k,), 9)
        for n in range(1, 10):
            assert s[n] == Fraction(1, n**k) if k >= 0 else Fraction(n ** (-k))


def test_depth_two_known_coefficient():
    assert multi_polylog((1, 1), 5)[3] == Fraction(1, 2)
    # cross-check against (1/2) log(1-x)^2
    n = 8
    neg_log = [Fraction(0)] + [Fraction(1, m) for m in range(1, n + 1)]
    assert list(multi_polylog((1, 1), n)) == [c / 2 for c in convolve(neg_log, neg_log, n)]


def test_zero_indices_count_chains():
    for n in range(2, 10):
        assert multi_polylog((0, 0), n)[n] == n - 1


def test_coefficients_vanish_below_depth():
    s = multi_polylog((2, -1, 3), 10)
    assert s[0] == s[1] == s[2] == 0
    assert s[3] != 0


def test_dp_equals_chain_enumeration():
    vectors = [(1,), (2, 1), (-1, 2), (0, 0, 1), (1, 1, 1), (2, -1, 0, 1)]
    for ks in vectors:
        s = multi_polylog(ks, 9)
        for n in range(10):
            assert s[n] == chain_coefficient(ks, n), (ks, n)


@settings(max_examples=120, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=-3, max_value=5), min_size=1, max_size=4).map(tuple),
    order=st.integers(min_value=0, max_value=40),
)
@example(ks=(5, 5, 5, 5), order=40)
@example(ks=(-3, -3, -3, -3), order=40)
@example(ks=(2, 1), order=0)
@example(ks=(1, 1, 1, 1), order=2)
def test_polylog_ints_are_the_series_over_its_least_common_denominator(ks, order):
    ints, den = _multi_polylog_ints(ks, order)
    assert (ints, den) == _over_common(multi_polylog(ks, order).coeffs)
    assert (ints, den) == _over_common(polylog_prefix_sums(ks, order))


def test_polylog_ints_of_the_empty_index_vector_are_the_constant_one():
    for order in (0, 1, 7):
        assert _multi_polylog_ints((), order) == ([1] + [0] * order, 1)
        assert polylog_prefix_sums((), order) == [1] + [0] * order


def test_index_vector_validation():
    assert index_vector([3, -1]) == (3, -1)
