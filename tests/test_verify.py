"""Identity harness: exact checks, diagnostic branches, report contracts."""

import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from itertools import accumulate, repeat
from math import comb, factorial, gcd, prod
from operator import mul

import oracles
from polybern import cli, verify
from polybern.families import (
    FamilyQuery,
    _u_power_values,
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    u_power_columns,
)
from polybern.rationals import _decimal_string
from polybern.special import _multi_polylog_ints, one_minus_exp_neg
from polybern.verify import (
    ReportRow,
    ResidualTable,
    VerificationReport,
    _binomial_convolution,
    _difference_inputs,
    _resummation_inputs,
    _u_power_sum,
    verify_addition,
    verify_chain_stirling,
    verify_deriv_recurrences,
    verify_difference,
    verify_li_ones,
    verify_polynomial_expansion,
    verify_resummation,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

def rows_for(report, check):
    return [r for r in report.rows if r.check == check]

def rendered(report) -> dict:
    """The report as the command line writes it, read back."""
    return json.loads(cli._json_text(cli._json_value(report)))

# -- polynomial expansion ------------------------------------------------------

def test_expansion_passes():
    report = verify_polynomial_expansion((2, 1), THIRD, Fraction(2, 3), 10)
    assert report.status == "pass"
    assert len(report.rows) == 11
    assert all(r.equal for r in report.rows)

def test_expansion_all_ones_branch():
    report = verify_polynomial_expansion((1, 1, 1), Fraction(1, 5), 0, 12)
    assert report.status == "pass"
    assert len(rows_for(report, "all-ones-reduction")) == 13
    # non-all-ones vectors do not get the reduction branch
    other = verify_polynomial_expansion((2, 1), THIRD, 0, 4)
    assert rows_for(other, "all-ones-reduction") == []

def test_expansion_trivial_at_x_zero():
    report = verify_polynomial_expansion((1, -2), Fraction(3, 4), 0, 8)
    assert report.status == "pass"

# -- all-ones polylog triple check ----------------------------------------------

def test_li_ones_depths():
    assert verify_li_ones(1, 10).status == "pass"
    assert verify_li_ones(4, 20).status == "pass"

def test_li_ones_depth_two_coefficient():
    report = verify_li_ones(2, 5)
    row = next(r for r in rows_for(report, "log-power") if r.n == 3)
    assert row.lhs == HALF and row.rhs == HALF

# -- derivative recurrences ------------------------------------------------------

def test_deriv_single_index():
    report = verify_deriv_recurrences((2,), 12)
    assert report.status == "pass"
    assert rows_for(report, "one-minus-x-derivative") == []

def test_deriv_depth_two():
    for ks in ((2, 1), (3, 2), (1, -1)):
        report = verify_deriv_recurrences(ks, 12)
        assert report.status == "pass"
        assert rows_for(report, "one-minus-x-derivative")

# -- chain-sum / Stirling route ---------------------------------------------------

def test_chain_stirling_examples():
    assert verify_chain_stirling((1, 1), HALF, 0, 8).status == "pass"
    assert verify_chain_stirling((2, 1), THIRD, HALF, 8).status == "pass"

def test_chain_stirling_depth_three():
    assert verify_chain_stirling((1, 2, 1), Fraction(1, 4), Fraction(1, 3), 6).status == "pass"

def test_chain_stirling_base_row():
    report = verify_chain_stirling((1, 2), THIRD, 0, 4)
    row0 = report.rows[0]
    assert row0.n == 0
    assert row0.lhs == row0.rhs == HALF  # 2!/(1^1 * 2^2)

@settings(max_examples=30, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=-1, max_value=3), min_size=2, max_size=3),
    lam=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    x=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    order=st.integers(min_value=0, max_value=8),
)
@example(ks=[1, 0, -1, 2], lam=THIRD, x=HALF, order=8)
@example(ks=[2, 1, 1, 1], lam=Fraction(-2, 5), x=Fraction(3, 4), order=6)
@example(ks=[1, 2, 0, -1, 3], lam=Fraction(-7, 9), x=Fraction(8, 9), order=5)
@example(ks=[2, 1, 1, 1, 1, 1], lam=THIRD, x=Fraction(-5, 2), order=4)
def test_chain_stirling_rhs_matches_the_fraction_series_oracle(ks, lam, x, order):
    report = verify_chain_stirling(ks, lam, x, order)
    assert [row.rhs for row in report.rows] == oracles.chain_stirling_rhs(tuple(ks), lam, x, order)

def test_chain_stirling_at_the_order_cap_and_the_index_weight_bound():
    # each index's prefix sum runs over every chain end up to order + r = 130
    for ks in ((0, 32), (16, 16)):
        assert verify_chain_stirling(ks, Fraction(-7, 9), Fraction(8, 9), 128).status == "pass", ks

def test_u_powers_match_the_series_powers():
    # the Stirling route, summed over the unit vector at m, against repeated
    # products of the series 1 - e^{-t}; every entry is an int
    for top in range(13):
        u = list(one_minus_exp_neg(top))
        power = [Fraction(1)] + [Fraction(0)] * top  # u^m
        for m in range(top + 1):
            ints = _u_power_sum([0] * m + [1] + [0] * (top - m))
            assert all(type(v) is int for v in ints), (top, m)
            assert ints == [factorial(l) * power[l] for l in range(top + 1)], (top, m)
            power = oracles.convolve(power, u, top)

# -- the one EGF convolution ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=12),
    b=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=12),
)
def test_binomial_convolution_is_the_egf_product(a, b):
    order = min(len(a), len(b)) - 1
    product = oracles.convolve([Fraction(v, factorial(n)) for n, v in enumerate(a)],
                               [Fraction(v, factorial(n)) for n, v in enumerate(b)], order)
    assert _binomial_convolution(a, b) == [factorial(n) * c for n, c in enumerate(product)]

# -- resummation formula -----------------------------------------------------------

def test_resummation_finite_branch_exact():
    report = verify_resummation((1, -2), THIRD, 0, 6)
    assert report.status == "pass"
    assert report.residuals == ()
    assert report.params["m_truncation"] == 2  # three terms: m = 0, 1, 2

def test_resummation_finite_branch_various():
    for k_r in (0, -1, -3):
        report = verify_resummation((2, k_r), Fraction(1, 5), HALF, 5)
        assert report.status == "pass", k_r

def test_resummation_diagnostic_emits_residuals():
    report = verify_resummation((2, 1), THIRD, 0, 6, m_truncation=40)
    assert report.status == "diagnostic"
    triples = oracles.residual_triples(report.residuals)
    assert {n for n, _, _ in triples} == set(range(7))
    assert max(m for _, m, _ in triples) == 40
    # 7 orders x 41 partial sums
    assert len(report.residuals) == 7 * 41

def test_resummation_n0_row_matches_closed_form():
    # At n = 0 the partial sums reduce to r * sum (-1)^m C(k_r+m-1, m) times
    # the depth-(r-1) base value; for depth 2 the base value is 1, so the
    # whole row is computable independently of any series code.
    ks = (1, 1)
    lhs0 = degenerate_multi_poly_bernoulli(ks, HALF, 0, 0).values[0]
    assert lhs0 == 1
    report = verify_resummation(ks, HALF, 0, 4, m_truncation=12)
    n0_residuals = {m: value for n, m, value in oracles.residual_triples(report.residuals) if n == 0}
    expected_partial = Fraction(0)
    for m in range(13):
        expected_partial += 2 * (-1) ** m * comb(ks[-1] + m - 1, m)
        assert n0_residuals[m] == abs(lhs0 - expected_partial)
    # the m-series oscillates at n = 0: the 2,0,2,0,... partial sums never
    # reach the exact value 1 (they are Abel-summable to it, not convergent)
    assert all(res == 1 for res in n0_residuals.values())

def test_resummation_n0_residual_doubles_at_depth_three():
    # at depth 3 the n = 0 summands grow like 2^m: the partial sums diverge
    # geometrically instead of oscillating as they do at depth 2
    report = verify_resummation((2, 2, 1), THIRD, 0, 1, m_truncation=12)
    n0 = [(m, value) for n, m, value in oracles.residual_triples(report.residuals) if n == 0]
    assert n0 == [(m, 2**m) for m in range(13)]


def test_deep_residual_table_keeps_exact_rows():
    # at M = 160 the n = 0 residual 2^M still renders as the Fraction's
    # decimal, and every residual is a canonical Fraction
    report = verify_resummation((2, 2, 1), THIRD, 0, 1, m_truncation=160)
    triples = oracles.residual_triples(report.residuals)
    n0 = [(m, value) for n, m, value in triples if n == 0]
    assert [m for m, _ in n0] == list(range(161))
    decimals = report.residuals.values()
    for m, value in n0:
        assert value == 2**m
        assert decimals[m][2] == _decimal_string(2**m, 1)
    for (n, m, residual), values in zip(triples, decimals, strict=True):
        assert type(residual) is Fraction and residual >= 0
        assert residual.denominator > 0 and gcd(residual.numerator, residual.denominator) == 1
        assert values == (n, m, _decimal_string(residual.numerator, residual.denominator))


# -- forward-difference formula ------------------------------------------------------

def test_difference_finite_branch_exact():
    report = verify_difference((1, -1), Fraction(1, 4), 0, 6)
    assert report.status == "pass"
    assert report.residuals == ()

def test_difference_finite_branch_various():
    for k_r in (0, -2, -3):
        for x in (Fraction(0), Fraction(2, 3)):
            report = verify_difference((1, k_r), Fraction(2, 5), x, 5)
            assert report.status == "pass", (k_r, x)

def test_difference_diagnostic():
    report = verify_difference((1, 1), HALF, 0, 6, m_truncation=40)
    assert report.status == "diagnostic"
    assert {r.n for r in report.rows} == set(range(1, 7))
    assert len(report.residuals) == 6 * 41

# -- addition law -----------------------------------------------------------------

def test_addition_examples():
    assert verify_addition((2, 1), THIRD, HALF, THIRD, 10).status == "pass"
    assert verify_addition((1, -1), Fraction(1, 5), Fraction(2, 3), 0, 8).status == "pass"

def test_addition_at_x_zero_matches_expansion():
    ks = (2, 1)
    lam = THIRD
    y = Fraction(2, 5)
    addition = verify_addition(ks, lam, 0, y, 8)
    expansion = verify_polynomial_expansion(ks, lam, y, 8)
    assert addition.status == expansion.status == "pass"
    add_rows = {r.n: r.lhs for r in addition.rows}
    exp_rows = {r.n: r.lhs for r in rows_for(expansion, "number-expansion")}
    assert add_rows == exp_rows

# -- report contracts ----------------------------------------------------------------

def test_report_status_reflects_rows():
    good = ReportRow(check="c", n=0, lhs=Fraction(1), rhs=Fraction(1))
    bad = ReportRow(check="c", n=1, lhs=Fraction(1), rhs=Fraction(2))
    report = VerificationReport("demo", {}, (good, bad))
    data = rendered(report)
    assert data["status"] == "fail"
    assert data["rows"][1] == {"check": "c", "n": 1, "lhs": "1/1", "rhs": "2/1", "equal": False}

def test_report_status_is_read_from_its_rows():
    rows = (ReportRow("c", 0, HALF, HALF), ReportRow("c", 1, THIRD, Fraction(2, 6)))
    assert VerificationReport("demo", {}, rows).status == "pass"
    unequal = rows + (ReportRow("c", 2, HALF, THIRD),)
    assert VerificationReport("demo", {}, unequal).status == "fail"

def test_report_with_residuals_is_diagnostic():
    # the residuals decide, whatever the rows say
    rows = (ReportRow("partial-sum-at-M", 0, HALF, HALF),)
    residuals = ResidualTable(0, [HALF], [[0, 1]], [1, 2])
    report = VerificationReport("demo", {}, rows, residuals)
    assert report.status == "diagnostic"
    assert rendered(report)["status"] == "diagnostic"
    assert VerificationReport("demo", {}, rows, ()).status == "pass"

@given(lhs=st.fractions(max_denominator=9), rhs=st.fractions(max_denominator=9))
@example(lhs=Fraction(2, 4), rhs=HALF)
def test_report_row_equal_follows_its_values(lhs, rhs):
    row = ReportRow("c", 0, lhs, rhs)
    assert row.equal is (lhs == rhs)
    assert rendered(VerificationReport("demo", {}, (row,)))["rows"][0]["equal"] is (lhs == rhs)

def test_exact_identities_never_diagnostic():
    reports = [
        verify_polynomial_expansion((2, 1), THIRD, HALF, 6),
        verify_li_ones(3, 12),
        verify_deriv_recurrences((2, 1), 10),
        verify_chain_stirling((1, 1), HALF, 0, 6),
        verify_addition((1, 1), HALF, HALF, THIRD, 6),
        verify_resummation((1, -1), HALF, 0, 4),
        verify_difference((1, 0), HALF, 0, 4),
    ]
    for report in reports:
        assert report.status in ("pass", "fail")
        assert report.status == ("pass" if all(r.equal for r in report.rows) else "fail")

def test_reports_are_deterministic():
    a = rendered(verify_resummation((2, 1), THIRD, 0, 4, m_truncation=16))
    b = rendered(verify_resummation((2, 1), THIRD, 0, 4, m_truncation=16))
    assert a == b
    c = rendered(verify_chain_stirling((2, 1), THIRD, HALF, 6))
    d = rendered(verify_chain_stirling((2, 1), THIRD, HALF, 6))
    assert c == d

def test_residual_rows_render_as_decimals():
    report = verify_resummation((1, 1), HALF, 0, 2, m_truncation=3)
    entry = rendered(report)["residuals"][0]
    assert set(entry) == {"n", "M", "residual_decimal"}
    first = oracles.residual_triples(report.residuals)[0][2]
    assert entry["residual_decimal"] == _decimal_string(first.numerator, first.denominator)

# -- m-series summands against the per-m oracle ---------------------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(
    # depth 2 and 3 to order 6; depth 4 and 5 to order 4, the tails where
    # each m's factor, a divisor of li_den, is often a proper divisor of the
    # gcd with the whole denominator li_den * L^(k_r+m)
    head_order=st.one_of(
        st.tuples(st.lists(st.integers(min_value=-2, max_value=3), min_size=1, max_size=2),
                  st.integers(min_value=1, max_value=6)),
        st.tuples(st.lists(st.integers(min_value=-2, max_value=3), min_size=3, max_size=4),
                  st.integers(min_value=1, max_value=4)),
    ),
    k_r=st.integers(min_value=-3, max_value=3),
    lam=small_rationals,
    x=small_rationals,
    m_truncation=st.integers(min_value=0, max_value=12),
)
@example(head_order=([0, 0, 1], 3), k_r=1, lam=Fraction(-7, 9), x=Fraction(8, 9), m_truncation=12)
def test_m_series_matches_the_per_m_oracle(head_order, k_r, lam, x, m_truncation):
    head, order = head_order
    ks = tuple(head) + (k_r,)
    for check in (verify_resummation, verify_difference):
        report = check(ks, lam, x, order, m_truncation)
        lhs, rows, residuals = _oracle_sums(check, ks, lam, x, order, m_truncation)
        assert [(row.n, row.lhs, row.rhs) for row in report.rows] == \
            [(n, lhs[n], partial) for n, partial in rows]
        assert oracles.residual_triples(report.residuals) == residuals
        assert report.params["m_truncation"] == (-k_r if k_r <= 0 else m_truncation)


smooth = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=8).map(prod)


@settings(max_examples=200, deadline=None)
@given(
    li_den=st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=16).map(prod),
    divisors=st.lists(smooth, min_size=1, max_size=12),
    first_scale=smooth,
    step=smooth,
    k_r=st.integers(min_value=-3, max_value=3),
    data=st.data(),
)
def test_m_sum_denominators_match_the_plain_lcm_pass(li_den, divisors, first_scale, step, k_r, data):
    # the pass on cofactors of the scales gives the running denominators of
    # the plain lcm over the whole ones, and the same partial sums
    common = [gcd(li_den, d) for d in divisors]
    scales = list(accumulate(repeat(step, len(common) - 1), mul, initial=first_scale))
    lifts, factors, dens = verify._m_sum_denominators(li_den, common, scales, step, k_r)
    plain_lifts, plain_factors, plain_dens = oracles.plain_lcm_m_pass(li_den, common, scales, k_r)
    assert dens == plain_dens
    v = data.draw(st.lists(st.integers(min_value=-10**6, max_value=10**6),
                           min_size=len(common), max_size=len(common)))

    def partial_sums(lifts, factors, dens):
        partial = 0
        sums = [partial := partial * lift + factor * term for lift, factor, term in zip(lifts, factors, v)]
        return [Fraction(s, d) for s, d in zip(sums, dens)]

    assert partial_sums(lifts, factors, dens) == partial_sums(plain_lifts, plain_factors, plain_dens)


def _oracle_sums(check, ks, lam, x, order, m_truncation):
    """The left-hand side, the (n, partial sum) rows and the (n, M, residual)
    triples of one m-series call, summed by the per-m oracle."""
    r, k_r = len(ks), ks[-1]
    m_top = -k_r if k_r <= 0 else m_truncation
    fams = [degenerate_multi_poly_bernoulli(ks[:-2] + (ks[-2] - m,), lam, x, order).values
            for m in range(m_top + 1)]
    base = degenerate_multi_poly_bernoulli(ks, lam, x, order).values
    if check is verify_resummation:
        carlitz = carlitz_degenerate(1, lam, 0, order).values
        lhs, first_n = base, 0
        terms = [oracles.resummation_term(m, fam, r=r, k_r=k_r, order=order, carlitz=carlitz)
                 for m, fam in enumerate(fams)]
    else:
        upper = degenerate_multi_poly_bernoulli(ks, lam, x + 1, order).values
        lhs, first_n = [(u - b) / r for u, b in zip(upper, base)], 1
        terms = [oracles.difference_term(m, fam, k_r=k_r, order=order) for m, fam in enumerate(fams)]
    return (lhs, *oracles.m_series_partial_sums(lhs, terms, k_r, first_n, order))


@pytest.mark.parametrize("check", [verify_resummation, verify_difference])
@pytest.mark.parametrize("ks", [(2, 1), (2, 2, 1), (1, 3, 2)])
def test_m_series_matches_the_per_m_oracle_at_the_long_m_shape(check, ks):
    # order 6 and M = 160, the shape of the long-m diagnostics: every vector
    # over m is 161 long and the weights run down to 7^-161
    lam, x = Fraction(-7, 9), Fraction(8, 9)
    report = check(ks, lam, x, 6, 160)
    lhs, rows, residuals = _oracle_sums(check, ks, lam, x, 6, 160)
    assert report.status == "diagnostic" and report.params["m_truncation"] == 160
    assert [(row.n, row.lhs, row.rhs) for row in report.rows] == [(n, lhs[n], partial) for n, partial in rows]
    assert oracles.residual_triples(report.residuals) == residuals


@pytest.mark.parametrize("check", [verify_resummation, verify_difference])
def test_m_series_exact_branch_takes_the_integer_powers(check):
    # k_r = -48 cuts the m-sum off after m = 48 with the weights the integer
    # powers n_r^(48 - m), not ints over a power of their lcm
    ks, lam, x = (1, -48), Fraction(-7, 9), Fraction(8, 9)
    report = check(ks, lam, x, 6)
    lhs, rows, residuals = _oracle_sums(check, ks, lam, x, 6, 0)
    assert report.status == "pass" and report.params["m_truncation"] == 48
    assert [(row.n, row.lhs, row.rhs) for row in report.rows] == [(n, lhs[n], partial) for n, partial in rows]
    assert residuals == [] and report.residuals == ()


# -- the band structure a closed-form verdict for the m-series rests on ---------
#
# An identity's input function hands verify._m_series its u-power columns
# (verify._resummation_inputs and verify._difference_inputs): columns[q][n] is
# n! [t^n] of u^q, u = 1 - e^{-t}, through the pipeline at depth d = r
# (resummation) or d = r - 1 (difference).  With Li' the polylog of the
# tail (k_1, ..., k_{r-1}), the m-th summand at n is a sum over the weights
# W_n[n_r][p] = Li'[p] columns[n_r + p][n] times n_r^-k_r (p/n_r)^m.  The
# largest ratio p/n_r with a nonzero weight decides how the summands grow
# with m, so these tests pin the zero pattern of the columns that bounds it.

premise_indices = st.lists(st.integers(min_value=-2, max_value=3), min_size=2, max_size=3)
premise_args = dict(ks=premise_indices, lam=small_rationals, x=small_rationals,
                    order=st.integers(min_value=1, max_value=6))
M_SERIES_DEPTHS = ((_resummation_inputs, 0), (_difference_inputs, 1))  # d = r - lag


@settings(max_examples=50, deadline=None)
@given(s=st.integers(min_value=1, max_value=4), lam=small_rationals, x=small_rationals,
       order=st.integers(min_value=0, max_value=6))
def test_shifted_tail_basis_is_banded(s, lam, x, order):
    # the shifted tails are weighed on the u-power columns of the depth-s
    # pipeline: column q is 0 for q < s, columns[q][n] = 0 for q > n + s and
    # != 0 at q = n + s, as u^q / (e_lam(t) - 1)^s has valuation q - s
    column, _ = _u_power_values(s, lam, x, order)
    columns = u_power_columns(column, s, order)
    assert len(columns) == order + s + 1
    assert not any(map(any, columns[:s]))
    for n in range(order + 1):
        assert columns[n + s][n] != 0, n
        assert not any(column[n] for column in columns[n + s + 1:]), n


@settings(max_examples=50, deadline=None)
@given(**premise_args)
def test_m_series_weight_tables_are_banded(ks, lam, x, order):
    # the weights are W_n[n_r][p] = Li'[p] columns[n_r + p][n], so their band
    # is that of the columns each check passes, at depth d: column q is 0 for
    # q < d, and columns[q][n] = 0 for q > n + d and != 0 at q = n + d
    for inputs, lag in M_SERIES_DEPTHS:
        d = len(ks) - lag
        _, _, columns, _ = inputs(FamilyQuery(ks, lam, x, order))
        assert len(columns) == order + d + 1, inputs.__name__
        assert not any(map(any, columns[:d])), inputs.__name__
        for n in range(order + 1):
            assert columns[n + d][n] != 0, (inputs.__name__, n)
            assert not any(column[n] for column in columns[n + d + 1:]), (inputs.__name__, n)


@settings(max_examples=50, deadline=None)
@given(**premise_args)
def test_m_series_weights_reach_ratio_n_plus_r_minus_one(ks, lam, x, order):
    # the largest p/n_r with W_n[n_r][p] = Li'[p] columns[n_r + p][n] != 0 is
    # n + r - 1 for resummation and n + r - 2 for difference (n >= 1)
    r = len(ks)
    for (inputs, _), top in zip(M_SERIES_DEPTHS, (r - 1, r - 2)):
        _, first_n, columns, _ = inputs(FamilyQuery(ks, lam, x, order))
        li, _ = _multi_polylog_ints(ks[:-1], len(columns) - 1)
        for n in range(first_n, order + 1):
            ratios = [Fraction(p, q - p) for q, column in enumerate(columns) for p in range(q)
                      if li[p] * column[n]]
            assert max(ratios) == n + top, (inputs.__name__, n)


@settings(max_examples=50, deadline=None)
@given(ks=premise_indices, lam=small_rationals, x=small_rationals, order=st.integers(min_value=0, max_value=8))
def test_resummation_columns_are_those_of_one_depth_r_run(ks, lam, x, order):
    # r times (depth 1 at x = 0) convolved with (depth r - 1 at x) is the
    # depth-r pipeline on u^r, which the check itself never runs
    r = len(ks)
    _, _, columns, den = _resummation_inputs(FamilyQuery(ks, lam, x, order))
    column, depth_r_den = _u_power_values(r, lam, x, order)
    depth_r = u_power_columns(column, r, order)
    assert [[Fraction(c, den) for c in col] for col in columns] == \
        [[Fraction(c, depth_r_den) for c in col] for col in depth_r]


@settings(max_examples=50, deadline=None)
@given(ks=premise_indices, lam=small_rationals, x=small_rationals, order=st.integers(min_value=1, max_value=8))
def test_m_series_columns_weigh_to_the_left_hand_side(ks, lam, x, order):
    # the closed form: sum_q columns[q][n] Li_ks[q] is the left-hand side
    # exactly at every n, whatever k_r
    for inputs, _ in M_SERIES_DEPTHS:
        lhs, _, columns, den = inputs(FamilyQuery(ks, lam, x, order))
        li, li_den = _multi_polylog_ints(tuple(ks), len(columns) - 1)
        assert [Fraction(sum(map(mul, (column[n] for column in columns), li)), den * li_den)
                for n in range(order + 1)] == list(lhs), inputs.__name__


# -- the residual table: its columns, against the oracle's eager residuals ------


@pytest.mark.parametrize("check", [verify_resummation, verify_difference])
@pytest.mark.parametrize("ks", [(2, 1), (1, 2, 1)])
def test_residual_table_reads_as_the_eager_rows(check, ks):
    report = check(ks, Fraction(-2, 5), THIRD, 4, m_truncation=6)
    table, expected = report.residuals, _oracle_sums(check, ks, Fraction(-2, 5), THIRD, 4, 6)[2]
    rows_of_n = 4 if check is verify_difference else 5  # difference starts at n = 1
    assert len(table) == len(expected) == rows_of_n * 7
    assert oracles.residual_triples(table) == expected
    data = rendered(report)["residuals"]
    assert data == oracles.json_dict(report)["residuals"]
    assert data == [dict(zip(("n", "M", "residual_decimal"), values)) for values in table.values()]


@pytest.mark.parametrize("check, ks, order, m_truncation", [
    (verify_resummation, (32, 1), 32, 47),
    (verify_difference, (2, 2, 1), 16, 160),
    (verify_resummation, (24, 8, 1), 24, 64),
])
def test_residual_decimals_match_decimal_at_full_size(check, ks, order, m_truncation):
    # residual pairs of thousands of bits, where the hypothesis test of
    # _decimal_string draws only up to about 200
    report = check(ks, Fraction(-7, 9), Fraction(8, 9), order, m_truncation=m_truncation)
    expected = [(n, m, oracles.decimal_text(value)) for n, m, value in oracles.residual_triples(report.residuals)]
    assert report.residuals.values() == expected


def test_diagnostic_reports_compare_by_value():
    report = verify_difference((2, 2, 1), THIRD, HALF, 3, m_truncation=4)
    assert report == verify_difference((2, 2, 1), THIRD, HALF, 3, m_truncation=4)
    assert report != verify_difference((2, 2, 1), Fraction(1, 4), HALF, 3, m_truncation=4)


def test_diagnostic_report_pickles():
    report = verify_difference((2, 2, 1), THIRD, HALF, 5, m_truncation=9)
    again = pickle.loads(pickle.dumps(report))
    assert again == report
    assert rendered(again) == rendered(report)
    assert oracles.residual_triples(again.residuals) == oracles.residual_triples(report.residuals)
