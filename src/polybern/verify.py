"""Machine verification of the identities the family values satisfy.

Each ``verify_*`` function recomputes both sides of one identity through
routes that share as little code as possible and compares them with exact
rational equality.  There are no tolerances on any exact path.

Two identities (the resummed explicit formula and the forward-difference
formula) contain a genuinely infinite binomial-series sum over m whenever
the last index k_r is positive.  Whether that sum converges in the
ordinary sense is an open question this tool is designed to gather
evidence on.  At n = 0 and depth 2 with k_r = 1 the partial sums
demonstrably oscillate (they are Abel/Cesaro summable to the left-hand
side, not convergent); at depth 3 the n = 0 summands grow like 2^m, and
for ks = (2, 2, 1) the n = 0 residual at truncation M is exactly 2^M.
Those runs therefore return status "diagnostic" with a residual-versus-M
table, decimal-rendered from exact rationals, instead of a fabricated
pass/fail.
When k_r <= 0 the binomial coefficient cuts the m-sum off after -k_r + 1
terms, every interchange is finite, and the same functions perform an
exact check with status "pass"/"fail".

The addition and resummation sides take their EGF products from one
integer convolution, :func:`_binomial_convolution`, on common
denominators.  The chain-stirling side sums its powers of u = 1 - e^{-t}
straight from the Stirling (second kind) rows, :func:`_u_power_sum`, and
takes its chain weights from one prefix sum per index, with no chain
enumerated; the m-series sides take those powers through the family
pipeline instead, one column per power
(:func:`~polybern.families.u_power_columns`), which
:func:`_resummation_inputs` and :func:`_difference_inputs` build with
each identity's left-hand side.
The expansion over the numbers is the addition theorem at base x = 0, so
the two share one route, :func:`_addition_rows`.  The m-series checks
build all that does not depend on m once per call and sum over ints on a
running denominator, over every m at once: m is the innermost axis of
each vector they build, and each n's partial sums, one per truncation M,
are one int column summed over m.  Only the final row of each n is a
Fraction, and the residual table is those columns as they are, with one
left-hand side per n and one denominator per M; it renders its decimals
straight from the ints, 20 significant digits each (see
:func:`_m_series` and :class:`ResidualTable`).

Reports are deterministic: the same inputs always produce equal reports,
which the CLI renders from their fields into byte-identical JSON.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import add, floordiv, mul

from .families import (
    FamilyQuery,
    _gf_values,
    _polylog_family,
    _u_power_values,
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    u_power_columns,
)
from .rationals import ArgumentError, _decimal_string, as_int, as_rational, format_rational, inv_pow
from .series import _over_common, _product, _reduced
from .special import _multi_polylog_ints, index_vector, multi_polylog, stirling_table


@dataclass(frozen=True)
class ReportRow:
    check: str
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


# the m-sum truncation M of verify_resummation and verify_difference unless one is given
DEFAULT_M_TRUNCATION = 32


@dataclass(frozen=True)
class ResidualTable:
    """The residuals |lhs - partial sum at M| of a diagnostic m-series
    report, as the columns the m-sum made.

    ``lhs[i]`` is the left-hand side at n = first_n + i, ``partials[i]`` its
    column of int partial sums, one per truncation M, and ``dens[M]`` the
    denominator every partial sum at M is over, so the exact residual at n
    and M is ``abs(lhs[i] - Fraction(partials[i][M], dens[M]))``.  The
    table's length is its number of residuals, one per n and M, and
    :meth:`values` renders each one's (n, M, residual decimal) straight
    from the ints, the tuples the CLI writes.  Two tables are equal when
    these four fields are.
    """

    first_n: int
    lhs: Sequence[Fraction]
    partials: list[list[int]]
    dens: list[int]

    def __len__(self) -> int:
        return len(self.lhs) * len(self.dens)

    def values(self) -> list[tuple[int, int, str]]:
        """(n, M, residual_decimal) of every residual, in the order of n,
        then M; each decimal is rendered from the unreduced pair
        |ln den - partial ld| / (ld den), with no gcd."""
        out = []
        for n, (lhs, column) in enumerate(zip(self.lhs, self.partials), self.first_n):
            ln, ld = lhs.numerator, lhs.denominator
            out += [(n, m, _decimal_string(abs(ln * den - partial * ld), ld * den))
                    for m, (partial, den) in enumerate(zip(column, self.dens))]
        return out


@dataclass(frozen=True)
class VerificationReport:
    """The rows of one identity check, and its residual table when it is an
    m-series diagnostic.

    ``rows`` holds each check's exact left- and right-hand side at n.
    ``residuals`` is the :class:`ResidualTable` of an m-series at k_r >= 1,
    whose infinite sum is reported as partial sums, and the empty tuple for
    every exact check.
    """

    identity: str
    params: dict
    rows: tuple[ReportRow, ...]
    residuals: ResidualTable | tuple[()] = ()

    @property
    def status(self) -> str:
        """The verdict, read from the report: "diagnostic" when it holds
        residuals (an m-series at k_r >= 1), else "pass" when every row is
        equal and "fail" when one is not."""
        if self.residuals:
            return "diagnostic"
        return "pass" if all(r.equal for r in self.rows) else "fail"


def _u_power_sum(coeffs: Sequence[int]) -> list[int]:
    """The EGF ints l! [t^l] sum_m coeffs[m] u^m, u = 1 - e^{-t}, for
    l < len(coeffs), straight from the Stirling (second kind) rows: as
    l! [t^l] u^m = (-1)^(l-m) m! S2(l, m), each is
    (-1)^l sum_m (-1)^m m! coeffs[m] S2(l, m)."""
    signed = [(-1) ** m * factorial(m) * c for m, c in enumerate(coeffs)]
    s2 = stirling_table("second", len(coeffs) - 1).rows
    return [(-1) ** l * sum(map(mul, signed, row)) for l, row in enumerate(s2)]


def _at_depth(identity: str, query: FamilyQuery, least: int) -> FamilyQuery:
    """``query``, which has checked a family-valued identity's ks, lam, x
    and order, once its depth r = len(ks) is at least ``least``."""
    if len(query.ks) < least:
        raise ArgumentError(f"{identity} check needs depth r >= {least}")
    return query


# ---------------------------------------------------------------------------
# exact identities


def _binomial_convolution(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The ints sum_l C(n, l) a[l] b[n-l] for n < min(len(a), len(b)).

    When a and b are the values (n! times the coefficients) of two
    exponential generating functions, these are the values of their
    product.
    """
    out = []
    row = [1]  # C(n, 0..n), carried by Pascal's rule
    for n in range(min(len(a), len(b))):
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        out.append(sum(map(mul, map(mul, row, a), b[n::-1])))
    return out


def _addition_rows(check: str, query: FamilyQuery, x: Fraction, y: Fraction) -> list[ReportRow]:
    """beta_n(x+y) against sum_l C(n,l) beta_l(x) (y)_{n-l,lam}, n <= order.

    The falling products (y)_{j,lam} = y (y - lam) ... (y - (j-1) lam) come
    from their own recurrence, not from the degenerate exponential the
    family pipeline takes them from, and the sum is one integer binomial
    convolution of the base values' ints, as the pipeline hands them on,
    with the falling products over their common denominator.  Both sides'
    family values come from one pipeline call at x + y and x; the index
    vector, lam and the order are those of ``query``.
    """
    lam, order = query.lam, query.order
    (shifted, shifted_den), (base, base_den) = _polylog_family(query.ks, lam, (x + y, x), order)
    falling = accumulate((y - j * lam for j in range(order)), mul, initial=Fraction(1))
    falling, falling_den = _over_common(list(falling))
    den = base_den * falling_den
    rhs = _binomial_convolution(base, falling)
    return [ReportRow(check, n, Fraction(shifted[n], shifted_den), Fraction(rhs[n], den)) for n in range(order + 1)]


def verify_polynomial_expansion(ks: Sequence[int], lam, x, order: int) -> VerificationReport:
    """Polynomial values from number values.

    Checks beta_n(x) = sum_l C(n,l) (x)_{n-l,lam} beta_l exactly for
    n <= order, the addition theorem at base 0, and, when every index
    equals 1, that the family reduces termwise to the directly-built
    Carlitz values (an independent route with no polylog composition in
    it).
    """
    query = _at_depth("expansion", FamilyQuery(ks, lam, x, order), 1)
    rows = _addition_rows("number-expansion", query, Fraction(0), query.x)
    if all(k == 1 for k in query.ks):
        polys = [row.lhs for row in rows]
        carl = carlitz_degenerate(len(query.ks), query.lam, query.x, order).values
        rows += [ReportRow("all-ones-reduction", n, polys[n], carl[n]) for n in range(order + 1)]
    return VerificationReport("expansion", query.to_params_dict(), tuple(rows))


def verify_addition(ks: Sequence[int], lam, x, y, order: int) -> VerificationReport:
    """Argument addition: beta_n(x+y) = sum_l C(n,l) beta_l(x) (y)_{n-l,lam}."""
    query, y = _at_depth("addition", FamilyQuery(ks, lam, x, order), 1), as_rational(y)
    rows = _addition_rows("argument-addition", query, query.x, y)
    return VerificationReport("addition", query.to_params_dict() | {"y": format_rational(y)}, tuple(rows))


def verify_li_ones(r: int, order: int) -> VerificationReport:
    """Three-way identity for the all-ones multiple polylogarithm.

    The chain-sum route, the r-th power of -log(1-x) over r!, and the
    unsigned-Stirling-first EGF column must agree coefficientwise.
    """
    dp = multi_polylog((1,) * as_int(r, "r", 1), order)
    # -log(1 - x) = sum x^n / n, as the ints top // n over top = lcm(1..order),
    # raised to the r-th power by r - 1 products, each reduced once
    top = lcm(*range(1, order + 1))
    log = [0] + [top // n for n in range(1, order + 1)]
    power, den = log, top
    for _ in range(r - 1):
        power, den = _reduced(_product(power, log), den * top)
    table = stirling_table("first_unsigned", order)
    stirling_egf = [Fraction(table.value(l, r), factorial(l)) for l in range(order + 1)]
    rows = [ReportRow("log-power", n, dp[n], Fraction(power[n], den * factorial(r))) for n in range(order + 1)]
    rows += [ReportRow("stirling-egf", n, dp[n], stirling_egf[n]) for n in range(order + 1)]
    return VerificationReport("li-ones", {"r": r, "order": order}, tuple(rows))


def verify_deriv_recurrences(ks: Sequence[int], order: int) -> VerificationReport:
    """Derivative recurrences of the multiple polylogarithm.

    Multiplied-through to stay polynomial: x * d/dx Li_{k_1..k_r} must
    equal Li with the last index lowered by one, and, for depth >= 2,
    (1-x) * d/dx Li_{k_1..k_{r-1},1} must equal Li_{k_1..k_{r-1}}.  The
    integral form of the second relation is its antiderivative, so the
    differentiated check covers both.
    """
    ks, order = index_vector(ks), as_int(order, "order", 1)
    li, li_den = _multi_polylog_ints(ks, order)
    lowered, lowered_den = _multi_polylog_ints(ks[:-1] + (ks[-1] - 1,), order)
    # x d/dx multiplies coefficient n by n
    rows = [ReportRow("x-derivative", n, Fraction(n * li[n], li_den), Fraction(lowered[n], lowered_den))
            for n in range(order + 1)]
    if len(ks) >= 2:
        tail, tail_den = _multi_polylog_ints(ks[:-1] + (1,), order)
        dropped, dropped_den = _multi_polylog_ints(ks[:-1], order)
        # coefficient n of (1 - x) d/dx is (n + 1) c[n + 1] - n c[n]
        rows += [ReportRow("one-minus-x-derivative", n, Fraction((n + 1) * tail[n + 1] - n * tail[n], tail_den),
                           Fraction(dropped[n], dropped_den)) for n in range(order)]
    return VerificationReport("deriv", {"ks": list(ks), "order": order}, tuple(rows))


def verify_chain_stirling(ks: Sequence[int], lam, x, order: int) -> VerificationReport:
    """Chain-sum/Stirling route against the composition pipeline.

    The generating function's numerator is the chain sum over
    0 < n_1 < ... < n_r of prod n_i^-k_i * u^{n_r}, u = 1 - e^{-t}.  Grouped
    by their last index, the chains n_1 < ... < n_j = q weigh
    c_j[q] = q^-k_j sum_{n<q} c_{j-1}[n], one prefix sum per index, from the
    empty chain c_0 that ends at 0; the numerator is sum_q c_r[q] u^q, summed
    over the Stirling (second kind) rows by :func:`_u_power_sum`.  The sum
    is finite at fixed order as u^q has valuation q.  This numerator
    shares no polylog or composition code with the family's, so agreement
    checks the main family computation end to end; only the denominator and
    the scaling, which both sides carry by construction, come from the one
    pipeline :func:`~polybern.families._gf_values`.  The weights are ints on
    a common denominator, so the numerator's ints are the EGF ints the
    pipeline takes, over the weights' denominator.
    """
    query = _at_depth("chain-stirling", FamilyQuery(ks, lam, x, order), 2)
    ks, lam, x = query.ks, query.lam, query.x
    r = len(ks)

    lhs = degenerate_multi_poly_bernoulli(ks, lam, x, order).values

    work = order + r
    # c_j over den, with the powers n^-k_j for n = 1..work over their lcm
    coeffs, den = [1] + [0] * work, 1
    for k in ks:
        powers, power_den = _over_common([inv_pow(n, k) for n in range(1, work + 1)])
        coeffs = [0, *map(mul, accumulate(coeffs[:-1]), powers)]
        den *= power_den
    ((rhs, rhs_den),) = _gf_values(_u_power_sum(coeffs), den, r, lam, (x,), order)

    rows = [ReportRow("chain-stirling", n, lhs[n], Fraction(rhs[n], rhs_den)) for n in range(order + 1)]
    return VerificationReport("chain-stirling", query.to_params_dict(), tuple(rows))


# ---------------------------------------------------------------------------
# identities with an infinite binomial m-sum


def _combine(coeffs: Sequence[int], vectors, size: int) -> list[int]:
    """The vector sum_i coeffs[i] * vectors[i], elementwise over vectors of
    length ``size``, skipping the zero coefficients."""
    terms = [map(mul, vector, repeat(c)) for c, vector in zip(coeffs, vectors) if c]
    return list(map(sum, zip(*terms))) if terms else [0] * size


def _m_sum_denominators(li_den: int, common: Sequence[int], scales: Sequence[int], step: int, k_r: int):
    """The lifts, signed factors and running denominators of the m-sum.

    The summand at m is ints over li_den * scales[m] / common[m], with
    common[m] a divisor of li_den and scales[m] = scales[m - 1] * step.
    dens[M] is the lcm of the summands' denominators at m <= M, and the
    partial sum at M over it is lifts[M] times the one at M - 1, plus
    factors[M] times the summand's ints; factors[M] carries the signed
    binomial (-1)^M C(k_r+M-1, M).  The pass runs on the cofactor
    dens[m] / scales[m] and on term = li_den / common[m], never on the
    scaled denominators: lcm(dens[m-1], term * scales[m]) is
    scales[m-1] * lcm(cofactor, term * step), so every lcm and division is
    on ints the size of li_den.
    """
    lifts, factors, dens = [], [], []
    cofactor, signed_binomial = 1, 1  # (-1)^m C(k_r+m-1, m) at m = 0
    for m, (c, scale) in enumerate(zip(common, scales)):
        term = li_den // c
        lifted = lcm(cofactor, term * step)
        lifts.append(lifted // cofactor)
        cofactor = lifted // step
        factors.append(signed_binomial * (cofactor // term))
        dens.append(cofactor * scale)
        signed_binomial = -signed_binomial * (k_r + m) // (m + 1)
    return lifts, factors, dens


def _m_series(identity, query, m_truncation, lhs, first_n, columns, columns_den) -> VerificationReport:
    """The m-sum shared by the two identities below, checked against ``lhs``.

    The identity comes in as its u-power columns, which
    :func:`_resummation_inputs` and :func:`_difference_inputs` build with
    ``lhs`` and ``first_n``: ``columns[q][n]`` over ``columns_den`` is
    n! [t^n] of the numerator u^q, u = 1 - e^{-t}, run through the pipeline
    at the identity's depth (see :func:`~polybern.families.u_power_columns`).
    Each weight of the m-th summand pairs an n_r >= 1 with the p-th
    coefficient Li'[p] of the tail polylog Li' = Li_{k_1..k_{r-1}}, whose
    family is Li'[p] times column n_r + p, so with q = n_r + p the m-th
    summand at n is

        (-1)^m C(k_r+m-1, m) * sum_q columns[q][n] v_q[m],
        v_q[m] = sum_{n_r + p = q} Li'[p] n_r^-(k_r+m) p^m.

    Every m is summed at once: m is the innermost axis of every vector, so
    each step below is a handful of list operations over all m rather than
    one per m.  Each v_q is one int vector over m, over li_den * L^(k_r+m)
    with L = lcm(1..n_r max): the vector of a pair is the geometric one
    Li'[p] (L/n_r)^k_r ((L/n_r) p)^m (for k_r <= 0, Li'[p] p^m times the
    integer n_r^(-k_r-m), over li_den), reduced per m by the gcd of that m's
    entries with li_den alone, so every gcd runs on ints the size of li_den
    and not of li_den * L^(k_r+m); any common divisor that divides li_den
    gives the same rationals.  The denominators come from one scalar pass
    over m, :func:`_m_sum_denominators`, on the same small operands.  Then
    each n weighs the v_q by its column entries, elementwise over m, and
    sums the result over m into its column of int partial sums, one per
    truncation M.  The columns go to the residual table as they are (see
    :class:`ResidualTable`); only the final partial sum of each n becomes a
    Fraction.

    For k_r <= 0 the binomial coefficient cuts the sum off after m = -k_r
    and the check is exact; otherwise the partial sums up to m_truncation
    are reported with their residuals against ``lhs`` for every n >= first_n.
    The index vector and the order are those of ``query``, whose params
    the report echoes.
    """
    ks, order = query.ks, query.order
    k_r = ks[-1]
    exact = k_r <= 0
    m_top = -k_r if exact else m_truncation
    size = m_top + 1

    # Li'[p] = 0 for p below its depth, so q = n_r + p has the pairs
    # p = depth..q-1, and n_r runs up to len(columns) - 1 - depth
    depth = len(ks) - 1
    li, li_den = _multi_polylog_ints(ks[:-1], len(columns) - 1)
    if exact:
        n_powers = [list(accumulate(repeat(n, m_top), mul, initial=1))[::-1] for n in range(len(columns) - depth)]
        scales, step = [1] * size, 1

        def pair(n_r, p):
            return map(mul, n_powers[n_r], accumulate(repeat(p, m_top), mul, initial=li[p]))
    else:
        top = step = lcm(*range(1, len(columns) - depth))
        scales = list(accumulate(repeat(top, m_top), mul, initial=top**k_r))

        def pair(n_r, p):
            return accumulate(repeat(top // n_r * p, m_top), mul, initial=li[p] * (top // n_r) ** k_r)
    v = [[0] * size] * (depth + 1)
    v += [list(map(sum, zip(*[pair(q - p, p) for p in range(depth, q)]))) for q in range(depth + 1, len(columns))]
    common = list(map(gcd, repeat(li_den), *v))
    for v_q in v:  # in place, one vector at a time; the shared zero ones stay zero
        v_q[:] = map(floordiv, v_q, common)
    # the partial sums at M are ints over columns_den * dens[M]
    lifts, factors, dens = _m_sum_denominators(li_den, common, scales, step, k_r)
    dens = list(map(mul, repeat(columns_den), dens))

    partials: list[list[int]] = []
    for n in range(first_n, order + 1):
        terms = map(mul, factors, _combine([column[n] for column in columns], v, size))
        partial = 0
        partials.append([partial := partial * lift + term for lift, term in zip(lifts, terms)])

    check = "finite-binomial-branch" if exact else "partial-sum-at-M"
    rows = [ReportRow(check, n, lhs[n], Fraction(column[-1], dens[-1]))
            for n, column in enumerate(partials, first_n)]
    residuals = () if exact else ResidualTable(first_n, lhs[first_n:], partials, dens)
    return VerificationReport(identity, query.to_params_dict() | {"m_truncation": m_top}, tuple(rows), residuals)


def verify_resummation(
    ks: Sequence[int], lam, x, order: int, m_truncation: int = DEFAULT_M_TRUNCATION
) -> VerificationReport:
    """The resummed explicit formula for beta_n(x).

    beta_n(x) = r * sum_{k<=n} sum_{l<=k} sum_{n_r<=l+1} sum_{m>=0}
        C(k_r+m-1, m) C(k,l) C(n,k) (-1)^m
        * n_r! (-1)^(l-n_r-1) S2(l+1, n_r) / (l+1) * n_r^(-k_r-m)
        * beta_{n-k,lam} * beta_{k-l,lam}^{(k_1..k_{r-1}-m)}(x)

    with beta_{n,lam} the order-1 Carlitz numbers.  The sums over k and l
    are binomial (EGF) convolutions: the Carlitz numbers t/(e_lam(t)-1) times
    n_r! (-1)^(l-n_r-1) S2(l+1, n_r) / (l+1), the EGF of u^{n_r} / t with
    u = 1 - e^{-t}, are the EGF of u^{n_r} / (e_lam(t)-1), and the family of
    the shifted tail is linear in its polylog Li_{k_1..k_{r-1}}.  So the
    weight of n_r and the tail's p-th polylog coefficient is that
    coefficient times the depth-r pipeline values of u^(n_r+p), the columns
    of :func:`_m_series`.  They are built as r times the depth-1 values of u
    at x = 0 convolved with the depth-(r-1) values of u^(r-1) at x, times
    powers of u: never from one depth-r pipeline run, which the left-hand
    side takes, so a fault in the pipeline does not cancel.

    For k_r <= 0 the m-sum has exactly -k_r + 1 nonzero terms and the
    identity is checked exactly.  For k_r >= 1 the m-sum is an infinite
    binomial series whose ordinary convergence is unestablished (at n = 0
    its partial sums oscillate at depth 2 with k_r = 1 and diverge like
    2^M at depth 3), so the report is a diagnostic:
    exact partial sums for every M' <= m_truncation, with residuals
    against the exact left-hand side.
    """
    query = _at_depth("resummation", FamilyQuery(ks, lam, x, order), 2)
    return _m_series("resummation", query, as_int(m_truncation, "m truncation", 0), *_resummation_inputs(query))


def _resummation_inputs(query: FamilyQuery) -> tuple[list[Fraction], int, list[list[int]], int]:
    """The left-hand side beta_n(x), its first n = 0, and the u-power
    columns with their denominator, built as :func:`verify_resummation`
    says, that it hands :func:`_m_series`."""
    ks, lam, x, order = query.ks, query.lam, query.x, query.order
    r = len(ks)
    lhs = degenerate_multi_poly_bernoulli(ks, lam, x, order).values
    head, head_den = _u_power_values(1, lam, 0, order)
    tail, tail_den = _u_power_values(r - 1, lam, x, order)
    columns = u_power_columns([r * c for c in _binomial_convolution(head, tail)], r, order)
    return lhs, 0, columns, head_den * tail_den


def verify_difference(
    ks: Sequence[int], lam, x, order: int, m_truncation: int = DEFAULT_M_TRUNCATION
) -> VerificationReport:
    """The forward-difference formula.

    (beta_n(x+1) - beta_n(x)) / r = sum_{m>=0} C(k_r+m-1, m) (-1)^m
        sum_{l=1..n} sum_{n_r=1..l} C(n,l) n_r^(-k_r-m) n_r!
        (-1)^(l-n_r) S2(l, n_r) beta_{n-l,lam}^{(k_1..k_{r-1}-m)}(x)

    for n >= 1.  The S2 sum over n_r is the EGF of u^{n_r}, u = 1 - e^{-t},
    so the weight of n_r and the tail's p-th polylog coefficient is that
    coefficient times the depth-(r-1) pipeline values of u^(n_r+p), the
    columns of :func:`_m_series`.
    Same exact/diagnostic split as the resummation check: k_r <= 0
    terminates the m-sum and is verified exactly, k_r >= 1 emits a
    partial-sum residual table.
    """
    query = _at_depth("difference", FamilyQuery(ks, lam, x, as_int(order, "order", 1)), 2)
    return _m_series("difference", query, as_int(m_truncation, "m truncation", 0), *_difference_inputs(query))


def _difference_inputs(query: FamilyQuery) -> tuple[list[Fraction], int, list[list[int]], int]:
    """The left-hand side (beta_n(x+1) - beta_n(x)) / r, its first n = 1,
    and the u-power columns with their denominator, built as
    :func:`verify_difference` says, that it hands :func:`_m_series`."""
    ks, lam, x, order = query.ks, query.lam, query.x, query.order
    r = len(ks)
    (upper, upper_den), (base, base_den) = _polylog_family(ks, lam, (x + 1, x), order)
    lhs = [Fraction(u * base_den - b * upper_den, r * upper_den * base_den) for u, b in zip(upper, base)]
    tail, tail_den = _u_power_values(r - 1, lam, x, order)
    return lhs, 1, u_power_columns(tail, r - 1, order), tail_den
