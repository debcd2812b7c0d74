"""Machine verification of the identities the family values satisfy.

Each ``verify_*`` function recomputes both sides of one identity through
routes that share as little code as possible and compares them with exact
rational equality.  There are no tolerances on any exact path.

Two identities (the resummed explicit formula and the forward-difference
formula) contain a genuinely infinite binomial-series sum over m whenever
the last index k_r is positive.  Whether that sum converges in the
ordinary sense is an open question this tool is designed to gather
evidence on; the partial sums at n = 0 demonstrably oscillate (they are
Abel/Cesaro summable to the left-hand side, not convergent).  Those runs
therefore return status "diagnostic" with a residual-versus-M table,
decimal-rendered from exact rationals, instead of a fabricated pass/fail.
When k_r <= 0 the binomial coefficient cuts the m-sum off after -k_r + 1
terms, every interchange is finite, and the same functions perform an
exact check with status "pass"/"fail".

Reports are deterministic: the same inputs always produce byte-identical
JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Sequence

from .families import (
    FamilyQuery,
    _egf_values,
    _exp_minus_one_over_t,
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
)
from .rationals import decimal_string, format_rational, inv_pow
from .series import TruncatedSeries
from .special import (
    degenerate_exp,
    falling_factorial,
    generalized_binomial,
    index_vector,
    multi_polylog,
    stirling_table,
)


@dataclass(frozen=True)
class ReportRow:
    check: str
    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "equal": self.equal,
        }


@dataclass(frozen=True)
class ResidualRow:
    n: int
    m_truncation: int
    residual: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "M": self.m_truncation,
            "residual_decimal": decimal_string(self.residual),
        }


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    params: dict
    status: str
    rows: tuple[ReportRow, ...]
    residuals: tuple[ResidualRow, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "rows": [r.to_json_dict() for r in self.rows],
            "residuals": [r.to_json_dict() for r in self.residuals],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _row(check: str, n: int, lhs: Fraction, rhs: Fraction) -> ReportRow:
    return ReportRow(check=check, n=n, lhs=lhs, rhs=rhs, equal=lhs == rhs)


def _report(identity, params, rows, residuals=(), diagnostic=False) -> VerificationReport:
    if diagnostic:
        status = "diagnostic"
    else:
        status = "pass" if all(r.equal for r in rows) else "fail"
    return VerificationReport(
        identity=identity,
        params=params,
        status=status,
        rows=tuple(rows),
        residuals=tuple(residuals),
    )


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


# ---------------------------------------------------------------------------
# exact identities


def verify_polynomial_expansion(ks: Sequence[int], lam, x, order: int) -> VerificationReport:
    """Polynomial values from number values.

    Checks beta_n(x) = sum_l C(n,l) (x)_{n-l,lam} beta_l exactly for
    n <= order, and, when every index equals 1, that the family reduces
    termwise to the directly-built Carlitz values (an independent route
    with no polylog composition in it).
    """
    ks = index_vector(ks)
    lam = Fraction(lam)
    x = Fraction(x)
    numbers = degenerate_multi_poly_bernoulli(ks, lam, 0, order).values
    polys = degenerate_multi_poly_bernoulli(ks, lam, x, order).values
    rows = []
    for n in range(order + 1):
        rhs = sum(
            (comb(n, l) * falling_factorial(x, n - l, lam) * numbers[l] for l in range(n + 1)),
            Fraction(0),
        )
        rows.append(_row("number-expansion", n, polys[n], rhs))
    if all(k == 1 for k in ks):
        carl = carlitz_degenerate(len(ks), lam, x, order).values
        for n in range(order + 1):
            rows.append(_row("all-ones-reduction", n, polys[n], carl[n]))
    return _report("expansion", FamilyQuery(ks, lam, x, order).to_params_dict(), rows)


def verify_addition(ks: Sequence[int], lam, x, y, order: int) -> VerificationReport:
    """Argument addition: beta_n(x+y) = sum_l C(n,l) beta_l(x) (y)_{n-l,lam}."""
    ks = index_vector(ks)
    lam = Fraction(lam)
    x = Fraction(x)
    y = Fraction(y)
    shifted = degenerate_multi_poly_bernoulli(ks, lam, x + y, order).values
    base = degenerate_multi_poly_bernoulli(ks, lam, x, order).values
    rows = []
    for n in range(order + 1):
        rhs = sum(
            (comb(n, l) * base[l] * falling_factorial(y, n - l, lam) for l in range(n + 1)),
            Fraction(0),
        )
        rows.append(_row("argument-addition", n, shifted[n], rhs))
    params = FamilyQuery(ks, lam, x, order).to_params_dict() | {"y": format_rational(y)}
    return _report("addition", params, rows)


def verify_li_ones(r: int, order: int) -> VerificationReport:
    """Three-way identity for the all-ones multiple polylogarithm.

    The chain-sum route, the r-th power of -log(1-x) over r!, and the
    unsigned-Stirling-first EGF column must agree coefficientwise.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    dp = multi_polylog((1,) * r, order)
    neg_log = TruncatedSeries([Fraction(0)] + [Fraction(1, n) for n in range(1, order + 1)])
    log_power = (neg_log**r) * Fraction(1, factorial(r))
    table = stirling_table("first_unsigned", order)
    stirling_egf = TruncatedSeries(
        [Fraction(table.value(l, r), factorial(l)) for l in range(order + 1)]
    )
    rows = []
    for n in range(order + 1):
        rows.append(_row("log-power", n, dp[n], log_power[n]))
    for n in range(order + 1):
        rows.append(_row("stirling-egf", n, dp[n], stirling_egf[n]))
    return _report("li-ones", {"r": r, "order": order}, rows)


def verify_deriv_recurrences(ks: Sequence[int], order: int) -> VerificationReport:
    """Derivative recurrences of the multiple polylogarithm.

    Multiplied-through to stay polynomial: x * d/dx Li_{k_1..k_r} must
    equal Li with the last index lowered by one, and, for depth >= 2,
    (1-x) * d/dx Li_{k_1..k_{r-1},1} must equal Li_{k_1..k_{r-1}}.  The
    integral form of the second relation is its antiderivative, so the
    differentiated check covers both.
    """
    ks = index_vector(ks)
    if order < 1:
        raise ValueError("order must be at least 1")
    rows = []
    li = multi_polylog(ks, order)
    lowered = multi_polylog(ks[:-1] + (ks[-1] - 1,), order)
    lhs10 = li.derive().mul_tpow(1)
    for n in range(order + 1):
        rows.append(_row("x-derivative", n, lhs10[n], lowered[n]))
    if len(ks) >= 2:
        tail_one = ks[:-1] + (1,)
        d = multi_polylog(tail_one, order).derive()
        one_minus_x = TruncatedSeries([1, -1] + [0] * (order - 2)) if order >= 2 else TruncatedSeries([1])
        lhs11 = d * one_minus_x
        dropped = multi_polylog(ks[:-1], order)
        for n in range(order):
            rows.append(_row("one-minus-x-derivative", n, lhs11[n], dropped[n]))
    return _report("deriv", {"ks": list(ks), "order": order}, rows)


def verify_chain_stirling(ks: Sequence[int], lam, x, order: int) -> VerificationReport:
    """Chain-sum/Stirling route against the composition pipeline.

    The generating function's numerator can be rewritten as an explicit
    sum over chains 0 < n_1 < ... < n_{r-1} of powers of u = 1 - e^{-t},
    with each u-power expanded through the Stirling triangle of the second
    kind.  At fixed truncation order every inner sum is finite because u^m
    has valuation m.  This route shares no polylog or composition code
    with the pipeline, so agreement checks the main family computation
    end to end.
    """
    ks = index_vector(ks)
    r = len(ks)
    if r < 2:
        raise ValueError("chain-stirling check needs depth r >= 2")
    lam = Fraction(lam)
    x = Fraction(x)

    lhs = degenerate_multi_poly_bernoulli(ks, lam, x, order).values

    work = order + r
    s2 = stirling_table("second", work)
    # u^m exactly to order `work`, straight from the Stirling expansion
    upow = []
    for m in range(work + 1):
        coeffs = [
            Fraction(_sign(l - m) * factorial(m) * s2.value(l, m), factorial(l))
            if l >= m
            else Fraction(0)
            for l in range(work + 1)
        ]
        upow.append(TruncatedSeries(coeffs))

    numerator = TruncatedSeries.zero(work)
    for chain in _chains(r - 1, work - 1):
        anchor = chain[-1] if chain else 0
        weight = Fraction(1)
        for k_i, n_i in zip(ks, chain):
            weight *= inv_pow(n_i, k_i)
        inner = TruncatedSeries.zero(work)
        for n_r in range(1, work - anchor + 1):
            inner = inner + upow[n_r] * inv_pow(n_r + anchor, ks[-1])
        numerator = numerator + (upow[anchor] * inner) * weight

    unit = _exp_minus_one_over_t(lam, order)
    series = numerator.div_tpow(r) * (unit**r).invert() * degenerate_exp(x, lam, order)
    rhs = _egf_values(series * factorial(r))

    rows = [_row("chain-stirling", n, lhs[n], rhs[n]) for n in range(order + 1)]
    return _report("chain-stirling", FamilyQuery(ks, lam, x, order).to_params_dict(), rows)


def _chains(length: int, top: int):
    """All strictly increasing integer chains 0 < n_1 < ... < n_length <= top."""
    if length == 0:
        yield ()
        return
    yield from combinations(range(1, top + 1), length)


# ---------------------------------------------------------------------------
# identities with an infinite binomial m-sum


def _shifted_tail(ks: tuple[int, ...], m: int) -> tuple[int, ...]:
    """(k_1, ..., k_{r-2}, k_{r-1} - m): the depth-(r-1) vector whose last
    entry absorbed m powers from the binomial-series expansion."""
    return ks[:-2] + (ks[-2] - m,)


def _m_series(identity, ks, lam, x, order, m_truncation, lhs, first_n, term) -> VerificationReport:
    """The m-sum shared by the two identities below, checked against ``lhs``.

    The m-th summand at n is (-1)^m C(k_r+m-1, m) * term(m, fam)[n], with
    ``fam`` the family values of the shifted tail vector.  For k_r <= 0 the
    binomial coefficient cuts the sum off after m = -k_r and the check is
    exact; otherwise the partial sums up to m_truncation are reported with
    their residuals against ``lhs`` for every n >= first_n.
    """
    k_r = ks[-1]
    exact = k_r <= 0
    m_top = -k_r if exact else m_truncation
    if m_top < 0:
        raise ValueError("m truncation must be non-negative")

    term_by_m: list[list[Fraction]] = []
    for m in range(m_top + 1):
        fam = degenerate_multi_poly_bernoulli(_shifted_tail(ks, m), lam, x, order).values
        coef = _sign(m) * generalized_binomial(k_r + m - 1, m)
        term_by_m.append([coef * value for value in term(m, fam)])

    rows = []
    residuals = []
    for n in range(first_n, order + 1):
        partial = Fraction(0)
        for m in range(m_top + 1):
            partial += term_by_m[m][n]
            if not exact:
                residuals.append(ResidualRow(n=n, m_truncation=m, residual=abs(lhs[n] - partial)))
        rows.append(_row("finite-binomial-branch" if exact else "partial-sum-at-M", n, lhs[n], partial))
    params = FamilyQuery(ks, lam, x, order).to_params_dict() | {"m_truncation": m_top}
    return _report(identity, params, rows, residuals, diagnostic=not exact)


def verify_resummation(
    ks: Sequence[int], lam, x, order: int, m_truncation: int = 32
) -> VerificationReport:
    """The resummed explicit formula for beta_n(x).

    beta_n(x) = r * sum_{k<=n} sum_{l<=k} sum_{n_r<=l+1} sum_{m>=0}
        C(k_r+m-1, m) C(k,l) C(n,k) (-1)^m
        * n_r! (-1)^(l-n_r-1) S2(l+1, n_r) / (l+1) * n_r^(-k_r-m)
        * beta_{n-k,lam} * beta_{k-l,lam}^{(k_1..k_{r-1}-m)}(x)

    with beta_{n,lam} the order-1 Carlitz numbers.  For k_r <= 0 the m-sum
    has exactly -k_r + 1 nonzero terms and the identity is checked
    exactly.  For k_r >= 1 the m-sum is an infinite binomial series whose
    ordinary convergence is unestablished (at n = 0 its partial sums
    provably oscillate), so the report is a diagnostic: exact partial sums
    for every M' <= m_truncation, with residuals against the exact
    left-hand side.
    """
    ks = index_vector(ks)
    r = len(ks)
    if r < 2:
        raise ValueError("resummation check needs depth r >= 2")
    lam = Fraction(lam)
    x = Fraction(x)
    k_r = ks[-1]

    lhs = degenerate_multi_poly_bernoulli(ks, lam, x, order).values
    carlitz = carlitz_degenerate(1, lam, 0, order).values
    s2 = stirling_table("second", order + 1)

    def term(m, fam):
        # T_m(k) = sum_{l<=k} C(k,l) g_m(l) fam_m(k-l), with g_m the EGF
        # coefficients of the Stirling block after the shift by one order.
        g = []
        for l in range(order + 1):
            acc = Fraction(0)
            for n_r in range(1, l + 2):
                acc += (
                    factorial(n_r)
                    * _sign(l - n_r - 1)
                    * s2.value(l + 1, n_r)
                    * inv_pow(n_r, k_r + m)
                )
            g.append(acc / (l + 1))
        t_of_k = [
            sum((comb(k, l) * g[l] * fam[k - l] for l in range(k + 1)), Fraction(0))
            for k in range(order + 1)
        ]
        return [
            r * sum((comb(n, k) * carlitz[n - k] * t_of_k[k] for k in range(n + 1)), Fraction(0))
            for n in range(order + 1)
        ]

    return _m_series("resummation", ks, lam, x, order, m_truncation, lhs, 0, term)


def verify_difference(
    ks: Sequence[int], lam, x, order: int, m_truncation: int = 32
) -> VerificationReport:
    """The forward-difference formula.

    (beta_n(x+1) - beta_n(x)) / r = sum_{m>=0} C(k_r+m-1, m) (-1)^m
        sum_{l=1..n} sum_{n_r=1..l} C(n,l) n_r^(-k_r-m) n_r!
        (-1)^(l-n_r) S2(l, n_r) beta_{n-l,lam}^{(k_1..k_{r-1}-m)}(x)

    for n >= 1.  Same exact/diagnostic split as the resummation check:
    k_r <= 0 terminates the m-sum and is verified exactly, k_r >= 1 emits
    a partial-sum residual table.
    """
    ks = index_vector(ks)
    r = len(ks)
    if r < 2:
        raise ValueError("difference check needs depth r >= 2")
    if order < 1:
        raise ValueError("difference check needs order >= 1")
    lam = Fraction(lam)
    x = Fraction(x)
    k_r = ks[-1]

    upper = degenerate_multi_poly_bernoulli(ks, lam, x + 1, order).values
    base = degenerate_multi_poly_bernoulli(ks, lam, x, order).values
    lhs = [(upper[n] - base[n]) / r for n in range(order + 1)]
    s2 = stirling_table("second", order)

    def term(m, fam):
        h = [Fraction(0)]
        for l in range(1, order + 1):
            acc = Fraction(0)
            for n_r in range(1, l + 1):
                acc += (
                    inv_pow(n_r, k_r + m)
                    * factorial(n_r)
                    * _sign(l - n_r)
                    * s2.value(l, n_r)
                )
            h.append(acc)
        return [
            sum((comb(n, l) * h[l] * fam[n - l] for l in range(1, n + 1)), Fraction(0))
            for n in range(order + 1)
        ]

    return _m_series("difference", ks, lam, x, order, m_truncation, lhs, 1, term)
