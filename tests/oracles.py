"""Independent brute-force oracles for the test suite.

Everything in this module is deliberately written from scratch on plain
lists of Fractions, without importing any series or family code from the
package, so that agreement between an oracle and the implementation is a
genuine two-route check.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, lcm


# -- series arithmetic on plain coefficient lists ---------------------------


def convolve(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    """Cauchy product truncated at ``order``."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def brute_compose(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    """sum_j outer[j] * inner**j, term by term (inner[0] must be 0)."""
    assert inner[0] == 0
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for j, oj in enumerate(outer):
        if j > order:
            break
        for idx in range(order + 1):
            out[idx] += oj * power[idx]
        power = convolve(power, inner, order)
    return out


def power_table_compose(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    """sum_m outer[m] * inner**m for any inner series with inner[0] = 0,
    through the table of the powers of inner in EGF form over the ints.

    With U_k = d * k! * inner[k], d the least common denominator of the
    k! * inner[k], the columns

        P_m(n) = d^m * n! * [t^n] inner^m
               = sum_{k=1}^{n-m+1} C(n,k) * U_k * P_{m-1}(n-k)

    are ints, and coefficient n is sum_m (outer[m] / d^m) * P_m(n) / n!,
    summed over one common denominator: O(order^3) int products.  This was
    the package's route for every inner series not of the form
    alpha (e^{beta t} - 1).
    """
    assert inner[0] == 0
    facts = [factorial(n) for n in range(order + 1)]
    egf = [facts[k] * Fraction(inner[k]) for k in range(order + 1)]
    d = lcm(*(c.denominator for c in egf))
    units = [c.numerator * (d // c.denominator) for c in egf]
    # weights[n][k] = C(n,k) * U_k, the row that turns P_{m-1} into P_m
    weights = [[comb(n, k) * units[k] for k in range(n + 1)] for n in range(order + 1)]
    scaled = [Fraction(a) / d**m for m, a in enumerate(outer[: order + 1])]
    common = lcm(*(a.denominator for a in scaled))
    scaled = [a.numerator * (common // a.denominator) for a in scaled]
    totals = [scaled[0]] + [0] * order
    column = [1] + [0] * order  # P_0
    for m in range(1, order + 1):
        column = [0] * m + [sum(weights[n][k] * column[n - k] for k in range(1, n - m + 2))
                            for n in range(m, order + 1)]
        for n in range(m, order + 1):
            totals[n] += scaled[m] * column[n]
    return [Fraction(totals[n], common * facts[n]) for n in range(order + 1)]


def long_divide(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    """Series division num/den where both share the same valuation v and
    den[v] != 0; result truncated at ``order``."""
    v = 0
    while den[v] == 0:
        assert num[v] == 0
        v += 1
    n = [Fraction(c) for c in num[v:]]
    d = [Fraction(c) for c in den[v:]]
    out = []
    for k in range(order + 1):
        acc = n[k] if k < len(n) else Fraction(0)
        for i in range(k):
            dj = d[k - i] if k - i < len(d) else Fraction(0)
            acc -= out[i] * dj
        out.append(acc / d[0])
    return out


# -- combinatorial counts ----------------------------------------------------


def chain_coefficient(ks: tuple[int, ...], n: int) -> Fraction:
    """Coefficient of x^n of the multiple polylogarithm by enumerating all
    strictly increasing chains ending at n."""
    if n == 0:
        return Fraction(0)
    r = len(ks)
    total = Fraction(0)
    for chain in combinations(range(1, n), r - 1):
        term = Fraction(1)
        for k_i, n_i in zip(ks, chain):
            term *= Fraction(1, n_i**k_i) if k_i >= 0 else Fraction(n_i ** (-k_i))
        total += term
    last = Fraction(1, n ** ks[-1]) if ks[-1] >= 0 else Fraction(n ** (-ks[-1]))
    return total * last


def polylog_prefix_sums(ks: tuple[int, ...], order: int) -> list[Fraction]:
    """Coefficients x^0..x^order of the multiple polylogarithm by the prefix
    sums A_j(m) = m^-k_j * sum_{m' < m} A_{j-1}(m') on Fractions, with
    A_0 the empty chain at 0 (the constant 1 for an empty ``ks``)."""
    level = [Fraction(1)] + [Fraction(0)] * order
    for k in ks:
        running, nxt = Fraction(0), [Fraction(0)]
        for m in range(1, order + 1):
            running += level[m - 1]
            nxt.append(running * (Fraction(1, m**k) if k >= 0 else m ** (-k)))
        level = nxt
    return level


def count_set_partitions(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks.

    Elements are assigned one at a time; a new block may be opened or the
    element may join any of the `used` existing blocks, so identical
    shapes are counted by weight instead of re-enumerated.
    """
    count = 0

    def assign(i: int, used: int, weight: int):
        nonlocal count
        if i == n:
            if used == k:
                count += weight
            return
        if used + (n - i) < k:
            return
        assign(i + 1, used + 1, weight)
        if used:
            assign(i + 1, used, weight * used)

    assign(0, 0, 1)
    return count


def cycle_count_histogram(n: int) -> list[int]:
    """histogram[k] = number of permutations of n elements with exactly k
    cycles, by enumerating all n! permutations once."""
    hist = [0] * (n + 1)
    if n == 0:
        return [1]
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        hist[cycles] += 1
    return hist


def count_permutations_by_cycles(n: int, k: int) -> int:
    """Number of permutations of n elements with exactly k cycles."""
    if n == 0:
        return 1 if k == 0 else 0
    return cycle_count_histogram(n)[k]


# -- classical Bernoulli -----------------------------------------------------


def bernoulli_numbers(order: int) -> list[Fraction]:
    """B_0..B_order by the recurrence sum_{j<n} C(n+1, j) B_j = -(n+1) B_n
    rearranged, with the B_1 = -1/2 convention."""
    b = [Fraction(1)]
    for n in range(1, order + 1):
        acc = sum(comb(n + 1, j) * b[j] for j in range(n))
        b.append(Fraction(-acc, n + 1))
    return b


def bernoulli_polynomial(n: int, x: Fraction, numbers: list[Fraction] | None = None) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    if numbers is None:
        numbers = bernoulli_numbers(n)
    x = Fraction(x)
    return sum((comb(n, k) * numbers[k] * x ** (n - k) for k in range(n + 1)), Fraction(0))


# -- the family pipeline, from scratch ---------------------------------------


def falling_factorial(x, n: int, lam) -> Fraction:
    """The falling product x (x - lam) ... (x - (n-1) lam), one factor at a
    time; x**n at lam = 0."""
    result = Fraction(1)
    for j in range(n):
        result *= Fraction(x) - j * Fraction(lam)
    return result


def falling_egf(base: Fraction, lam: Fraction, order: int) -> list[Fraction]:
    """Coefficients (base)_{n,lam} / n! of e_lam^base(t), n <= order, the
    falling products base (base - lam) ... (base - (n-1) lam) by their own
    loop; at lam = 0 they are base^n / n!."""
    coeffs, falling = [], Fraction(1)
    for n in range(order + 1):
        coeffs.append(falling / factorial(n))
        falling *= base - n * lam
    return coeffs


def multi_poly_values(ks: tuple[int, ...], lam: Fraction, x: Fraction, order: int) -> list[Fraction]:
    """Values of the family r! Li_ks(1-e^{-t})/(e_lam(t)-1)^r e_lam^x(t)
    built entirely from list arithmetic and brute-force chain sums."""
    r = len(ks)
    work = order + r
    li = [chain_coefficient(ks, n) for n in range(work + 1)]
    u = [Fraction(0)] + [Fraction((-1) ** (m + 1), factorial(m)) for m in range(1, work + 1)]
    numerator = brute_compose(li, u, work)
    numerator = [c * factorial(r) for c in numerator]
    expm1 = [Fraction(0)] + falling_egf(Fraction(1), lam, work)[1:]
    den = [Fraction(1)] + [Fraction(0)] * work
    for _ in range(r):
        den = convolve(den, expm1, work)
    quotient = long_divide(numerator, den, order)
    series = convolve(quotient, falling_egf(Fraction(x), lam, order), order)
    return [factorial(n) * series[n] for n in range(order + 1)]


# -- the chain-sum/Stirling right-hand side, over Fraction series -----------


def stirling_second(n: int, k: int) -> int:
    """S2(n, k) by inclusion-exclusion over the surjections onto k blocks."""
    if k > n:
        return 0
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def chain_stirling_rhs(ks: tuple[int, ...], lam: Fraction, x: Fraction, order: int) -> list[Fraction]:
    """The chain-stirling route as the package computed it on Fraction
    series before it summed over ints: r! times the sum over chains
    0 < n_1 < ... < n_{r-1} = a of prod n_i^-k_i * u^a * sum_{n_r}
    u^{n_r} (n_r + a)^-k_r, with u = 1 - e^{-t} and each u^m expanded
    through S2, divided by t^r and by ((e_lam(t) - 1)/t)^r, times
    e_lam^x(t); then n! times each coefficient."""
    r = len(ks)
    work = order + r
    upow = [[Fraction((-1) ** (l - m) * factorial(m) * stirling_second(l, m), factorial(l)) if l >= m
             else Fraction(0) for l in range(work + 1)] for m in range(work + 1)]
    numerator = [Fraction(0)] * (work + 1)
    for chain in combinations(range(1, work), r - 1):
        anchor = chain[-1]
        weight = Fraction(1)
        for k_i, n_i in zip(ks, chain):
            weight *= inv_pow(n_i, k_i)
        inner = [Fraction(0)] * (work + 1)
        for n_r in range(1, work - anchor + 1):
            inner = [c + u * inv_pow(n_r + anchor, ks[-1]) for c, u in zip(inner, upow[n_r])]
        product = convolve(upow[anchor], inner, work)
        numerator = [c + weight * p for c, p in zip(numerator, product)]
    assert not any(numerator[:r])
    numerator = numerator[r:]
    lam = Fraction(lam)
    # (e_lam(t) - 1)/t: coefficient n is (1)_{n+1,lam} / (n+1)!
    falling_one = [Fraction(1)]
    for j in range(order + 1):
        falling_one.append(falling_one[-1] * (1 - j * lam))
    unit = [falling_one[n + 1] / factorial(n + 1) for n in range(order + 1)]
    den = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(r):
        den = convolve(den, unit, order)
    falling_x = [Fraction(1)]
    for j in range(order):
        falling_x.append(falling_x[-1] * (Fraction(x) - j * lam))
    ext = [falling_x[n] / factorial(n) for n in range(order + 1)]
    series = convolve(long_divide(numerator, den, order), ext, order)
    return [factorial(r) * factorial(n) * series[n] for n in range(order + 1)]


# -- the summands of the two m-series identities, one m at a time ------------
#
# The bodies of ``resummation_term`` and ``difference_term`` are the per-m
# closures the package used before it built its m-independent weight table
# once per call: every m rebuilds the Stirling, factorial and 1/n^k weights
# over Fractions.  They return the m-th summand before its factor
# (-1)^m C(k_r+m-1, m); ``fam`` holds the family values of the shifted tail.


def inv_pow(base: int, k: int) -> Fraction:
    return Fraction(1, base**k) if k >= 0 else Fraction(base ** (-k))


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


class _SecondKindStirling:
    def value(self, n: int, k: int) -> int:
        return count_set_partitions(n, k)


def resummation_term(m, fam, *, r, k_r, order, carlitz):
    """``carlitz`` holds the order-1 Carlitz numbers at the family's lam."""
    s2 = _SecondKindStirling()
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


def difference_term(m, fam, *, k_r, order):
    s2 = _SecondKindStirling()
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


def m_series_partial_sums(lhs, term_by_m, k_r, first_n, order):
    """(n, partial sum at the last m) for each n >= first_n, and the
    (n, M', |lhs - partial sum at M'|) residual triples when k_r >= 1."""
    signed = []
    for m, term in enumerate(term_by_m):
        binom = 1
        for i in range(m):
            binom *= k_r + m - 1 - i
        signed.append([(-1) ** m * (binom // factorial(m)) * value for value in term])
    rows = []
    residuals = []
    for n in range(first_n, order + 1):
        partial = Fraction(0)
        for m, term in enumerate(signed):
            partial += term[n]
            if k_r >= 1:
                residuals.append((n, m, abs(lhs[n] - partial)))
        rows.append((n, partial))
    return rows, residuals


def plain_lcm_m_pass(li_den, common, scales, k_r):
    """The lifts, signed factors and running denominators of the m-sum
    whose summand at m is over li_den * scales[m] / common[m], by the plain
    lcm of those whole denominators: the package's pass before it ran on
    cofactors of the scales."""
    lifts, factors, dens = [], [], []
    sum_den, signed_binomial = 1, 1
    for m, (scale, c) in enumerate(zip(scales, common)):
        term_den = li_den * scale // c
        lifted = lcm(sum_den, term_den)
        lifts.append(lifted // sum_den)
        factors.append(signed_binomial * (lifted // term_den))
        dens.append(lifted)
        sum_den = lifted
        signed_binomial = -signed_binomial * (k_r + m) // (m + 1)
    return lifts, factors, dens


# -- reports, read through their exact parts ---------------------------------


def residual_triples(table) -> list[tuple[int, int, Fraction]]:
    """(n, M, |lhs - partial sum at M|) of every residual of a report's
    table, read from its exact columns in the order of n, then M, each
    residual one canonical Fraction; none for an exact report's ()."""
    if not table:
        return []
    return [(n, m, abs(lhs - Fraction(partial, den)))
            for n, (lhs, column) in enumerate(zip(table.lhs, table.partials), table.first_n)
            for m, (partial, den) in enumerate(zip(column, table.dens))]


# -- the output shape of each result, built from its fields --------------------


def _ratio(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal_text(value: Fraction) -> str:
    """``value`` to 20 significant digits, rounded half to even, by the
    decimal module's own division."""
    context = Context(prec=20, rounding=ROUND_HALF_EVEN)
    return str(context.divide(Decimal(value.numerator), Decimal(value.denominator)))


def json_dict(result) -> dict:
    """The plain JSON dict of a verification report, a family table or a
    Stirling table, for the standard library's encoder: every row and
    residual an object, every rational a "p/q" string, every residual the
    decimal of its exact Fraction."""
    kind = type(result).__name__
    if kind == "VerificationReport":
        rows = [{"check": row.check, "n": row.n, "lhs": _ratio(row.lhs), "rhs": _ratio(row.rhs),
                 "equal": row.lhs == row.rhs} for row in result.rows]
        table = [{"n": n, "M": m, "residual_decimal": decimal_text(value)}
                 for n, m, value in residual_triples(result.residuals)]
        status = "diagnostic" if table else "pass" if all(row["equal"] for row in rows) else "fail"
        return {"identity": result.identity, "params": result.params, "status": status,
                "rows": rows, "residuals": table}
    if kind == "SequenceResult":
        query = result.query
        return {"family": result.family, "ks": list(query.ks), "lambda": _ratio(query.lam),
                "x": _ratio(query.x), "order": query.order, "values": [_ratio(v) for v in result.values]}
    if kind == "StirlingTable":
        return {"kind": result.kind, "max_n": result.max_n, "rows": [list(row) for row in result.rows]}
    raise TypeError(f"no JSON shape for {kind}")


def series_dict(name: str, params: dict, series) -> dict:
    """The ``series`` verb's JSON dict: the name, the params as given and
    the series' order and coefficients."""
    coeffs = list(series.coeffs)
    return {"series": name, "params": params, "order": len(coeffs) - 1, "coeffs": [_ratio(c) for c in coeffs]}


def csv_text(result) -> str:
    """The CSV of a family table (``n,value``) or of a Stirling table (a
    square of side max_n + 1, rows n, columns k, zero outside the
    triangle)."""
    if type(result).__name__ == "SequenceResult":
        lines = ["n,value"] + [f"{n},{_ratio(v)}" for n, v in enumerate(result.values)]
    else:
        side = result.max_n + 1
        lines = ["n," + ",".join(str(k) for k in range(side))]
        for n in range(side):
            cells = [str(result.rows[n][k]) if k <= n else "0" for k in range(side)]
            lines.append(f"{n}," + ",".join(cells))
    return "".join(line + "\n" for line in lines)
