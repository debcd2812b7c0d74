"""Identity harness: exact checks, diagnostic branches, report contracts."""

from fractions import Fraction

import pytest

from polybern.families import degenerate_multi_poly_bernoulli
from polybern.rationals import decimal_string
from polybern.special import generalized_binomial
from polybern.verify import (
    ReportRow,
    VerificationReport,
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

def test_li_ones_rejects_bad_r():
    with pytest.raises(ValueError):
        verify_li_ones(0, 5)

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

def test_deriv_needs_order():
    with pytest.raises(ValueError):
        verify_deriv_recurrences((2,), 0)

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

def test_chain_stirling_needs_depth_two():
    with pytest.raises(ValueError):
        verify_chain_stirling((3,), HALF, 0, 6)

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
    assert {r.n for r in report.residuals} == set(range(7))
    assert max(r.m_truncation for r in report.residuals) == 40
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
    expected_partial = Fraction(0)
    for m in range(13):
        expected_partial += 2 * (-1) ** m * generalized_binomial(ks[-1] + m - 1, m)
        residual = next(
            r for r in report.residuals if r.n == 0 and r.m_truncation == m
        )
        assert residual.residual == abs(lhs0 - expected_partial)
    # the m-series oscillates at n = 0: the 2,0,2,0,... partial sums never
    # reach the exact value 1 (they are Abel-summable to it, not convergent)
    n0_residuals = [r.residual for r in report.residuals if r.n == 0]
    assert all(res == 1 for res in n0_residuals)

def test_resummation_usage_errors():
    with pytest.raises(ValueError):
        verify_resummation((2,), HALF, 0, 4)
    with pytest.raises(ValueError):
        verify_resummation((1, 1), HALF, 0, 4, m_truncation=-1)

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

def test_difference_usage_errors():
    with pytest.raises(ValueError):
        verify_difference((2,), HALF, 0, 4)
    with pytest.raises(ValueError):
        verify_difference((1, 1), HALF, 0, 0)

def test_m_series_rejects_negative_truncation():
    # k_r >= 1: the m-sum is infinite, so its truncation comes from the caller
    for check in (verify_resummation, verify_difference):
        with pytest.raises(ValueError):
            check((2, 1), THIRD, 0, 2, m_truncation=-1)

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
    good = ReportRow(check="c", n=0, lhs=Fraction(1), rhs=Fraction(1), equal=True)
    bad = ReportRow(check="c", n=1, lhs=Fraction(1), rhs=Fraction(2), equal=False)
    report = VerificationReport("demo", {}, "fail", (good, bad))
    data = report.to_json_dict()
    assert data["status"] == "fail"
    assert data["rows"][1] == {"check": "c", "n": 1, "lhs": "1/1", "rhs": "2/1", "equal": False}

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
    a = verify_resummation((2, 1), THIRD, 0, 4, m_truncation=16).to_json()
    b = verify_resummation((2, 1), THIRD, 0, 4, m_truncation=16).to_json()
    assert a == b
    c = verify_chain_stirling((2, 1), THIRD, HALF, 6).to_json()
    d = verify_chain_stirling((2, 1), THIRD, HALF, 6).to_json()
    assert c == d

def test_residual_rows_render_as_decimals():
    report = verify_resummation((1, 1), HALF, 0, 2, m_truncation=3)
    entry = report.residuals[0].to_json_dict()
    assert set(entry) == {"n", "M", "residual_decimal"}
    assert entry["residual_decimal"] == decimal_string(report.residuals[0].residual)
