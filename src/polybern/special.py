"""Named series constructors and combinatorial tables.

This module builds the raw ingredients every Bernoulli-type family is
assembled from: degenerate exponentials, the inner series 1 - e^{-t} and
log(1 + t), polyexponentials, multiple polylogarithms, and Stirling
triangles of both kinds.

Index vectors (k_1, ..., k_r) are plain tuples of ints throughout the
package; entries may be negative.  Series are returned in the package's
exact :class:`~polybern.series.TruncatedSeries` form; tables hold plain
Python ints (themselves arbitrary precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm
from operator import mul
from typing import Sequence

from .rationals import ArgumentError, as_int, as_rational, inv_pow
from .series import TruncatedSeries, _reduced

STIRLING_KINDS = ("second", "first_unsigned", "first_signed")


def index_vector(ks: Sequence[int]) -> tuple[int, ...]:
    """Validate an index vector (k_1, ..., k_r), r >= 1, as a tuple; an
    index that is not an int raises TypeError (see
    :func:`~polybern.rationals.as_int`), an empty vector ArgumentError."""
    out = tuple(ks)
    for k in out:
        as_int(k, "an index")
    if not out:
        raise ArgumentError("index vector must be non-empty")
    return out


def _degenerate_exp_ints(x, lam, order: int) -> tuple[list[int], int]:
    """The degenerate exponential (1 + lam*t)^(x/lam) as ints E[0..order]
    over one denominator D: coefficient n is E[n] / D.

    With x = p/q and lam = a/b, the falling product x(x-lam)...(x-(n-1)lam)
    is F_n / (qb)^n with F_n = prod_{j<n} (pb - jaq), and coefficient n is
    F_n / ((qb)^n n!).  D is (qb)^order * order!, not reduced.  Its
    callers pass x and lam as ints or Fractions, checked; it checks neither.
    """
    p, q, a, b = x.numerator, x.denominator, lam.numerator, lam.denominator
    base, start, step = q * b, p * b, a * q
    ints = [1]  # F_n, then F_n * base^(order - n) * order!/n!
    for j in range(order):
        ints.append(ints[-1] * (start - j * step))
    scale = 1
    for n in range(order, 0, -1):
        ints[n] *= scale
        scale *= base * n
    ints[0] = scale
    return ints, scale


def degenerate_exp(x, lam, order: int) -> TruncatedSeries:
    """The degenerate exponential (1 + lam*t)^(x/lam) as a series.

    Coefficient n is the falling product x(x-lam)...(x-(n-1)lam) over n!.
    The product form is regular at lam = 0 (where the closed form is
    singular) and there reduces to the classical e^{xt}.  The coefficients
    come from the int form :func:`_degenerate_exp_ints`, which the family
    pipeline reads directly.
    """
    ints, den = _degenerate_exp_ints(as_rational(x), as_rational(lam), as_int(order, "order", 0))
    return TruncatedSeries(Fraction(e, den) for e in ints)


def one_minus_exp_neg(order: int) -> TruncatedSeries:
    """1 - e^{-t}: coefficient n is (-1)^(n+1)/n! for n >= 1."""
    coeffs = [Fraction(0)]
    for n in range(1, as_int(order, "order", 0) + 1):
        coeffs.append(Fraction((-1) ** (n + 1), factorial(n)))
    return TruncatedSeries(coeffs)


def log1p_series(order: int) -> TruncatedSeries:
    """log(1 + t): coefficient n is (-1)^(n+1)/n for n >= 1."""
    coeffs = [Fraction(0)]
    for n in range(1, as_int(order, "order", 0) + 1):
        coeffs.append(Fraction((-1) ** (n + 1), n))
    return TruncatedSeries(coeffs)


def polyexp(k: int, order: int) -> TruncatedSeries:
    """Polyexponential series: coefficient n is 1/((n-1)! n^k) for n >= 1.

    At k = 1 this is e^x - 1.
    """
    (k,) = index_vector((k,))
    coeffs = [Fraction(0)]
    for n in range(1, as_int(order, "order", 0) + 1):
        coeffs.append(Fraction(1, factorial(n - 1)) * inv_pow(n, k))
    return TruncatedSeries(coeffs)


def _multi_polylog_ints(ks: Sequence[int], order: int) -> tuple[list[int], int]:
    """The multiple polylogarithm Li_ks up to x^order as ints over their
    least common denominator: coefficient n is ints[n] / den.

    Chains are summed by their last element, from the empty chain that ends
    at 0: c_j[q] = q^-k_j * sum_{n<q} c_{j-1}[n], one prefix sum per index.
    For k_j >= 0 the powers q^-k_j are the ints (L/q)^k_j over L^k_j,
    L = lcm(1..order); for k_j < 0 they are the ints q^-k_j.  The product
    of the per-index denominators is reduced once at the end.  An empty
    ``ks`` gives the empty chain sum, the constant 1.
    """
    top = lcm(*range(1, order + 1))
    chains, den = [1] + [0] * order, 1
    for k in ks:
        if k >= 0:
            powers, scale = [(top // q) ** k for q in range(1, order + 1)], top**k
        else:
            powers, scale = [q**-k for q in range(1, order + 1)], 1
        chains = [0, *map(mul, accumulate(chains[:-1]), powers)]
        den *= scale
    return _reduced(chains, den)


def multi_polylog(ks: Sequence[int], order: int) -> TruncatedSeries:
    """Multiple polylogarithm of depth r = len(ks) as a series in x.

    The coefficient of x^n is the chain sum over 0 < n_1 < ... < n_{r-1} < n
    of the product of n_i^{-k_i}, times n^{-k_r}.  It vanishes for n < r
    (the shortest chain is 1 < 2 < ... < r).

    Computed over ints by the prefix-sum recurrence of
    :func:`_multi_polylog_ints`, A_1(m) = m^{-k_1},
    A_j(m) = m^{-k_j} * sum_{m' < m} A_{j-1}(m'), answer A_r(n); cost
    O(r * order) int operations.  The family pipeline and the identity
    checks read those ints directly; this is the series form of the
    ``series`` verb.  Chain enumeration would visit C(n-1, r-1) chains per
    coefficient and is kept only as a test oracle.
    """
    ints, den = _multi_polylog_ints(index_vector(ks), as_int(order, "order", 0))
    return TruncatedSeries(Fraction(c, den) for c in ints)


@dataclass(frozen=True)
class StirlingTable:
    """Triangle T[n][k] of Stirling numbers up to max_n.

    kind "second" counts set partitions into k blocks; "first_unsigned"
    counts permutations with k cycles; "first_signed" carries the
    alternating sign (-1)^(n-k) on the unsigned values, so that
    n! [t^n] log(1+t)^k = k! T[n][k].
    """

    kind: str
    max_n: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        """T[n][k]; zero outside the triangle."""
        if n < 0 or n > self.max_n:
            raise IndexError(f"row {n} outside table (max_n={self.max_n})")
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]


def stirling_table(kind: str, max_n: int) -> StirlingTable:
    """Build a Stirling triangle by its two-term recurrence.

    second:          T[n][k] = k*T[n-1][k] + T[n-1][k-1]
    first_unsigned:  T[n][k] = (n-1)*T[n-1][k] + T[n-1][k-1]
    first_signed:    T[n][k] = T[n-1][k-1] - (n-1)*T[n-1][k]
    """
    if kind not in STIRLING_KINDS:
        raise ArgumentError(f"kind must be one of {STIRLING_KINDS}, got {kind!r}")
    as_int(max_n, "max_n", 0)
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        above = prev[1:] + (0,)  # T[n-1][k] for k = 1..n
        if kind == "second":
            row = (0, *(k * a + b for k, a, b in zip(range(1, n + 1), above, prev)))
        else:
            c = n - 1 if kind == "first_unsigned" else 1 - n
            row = (0, *(c * a + b for a, b in zip(above, prev)))
        rows.append(row)
    return StirlingTable(kind=kind, max_n=max_n, rows=tuple(rows))
