"""Dense truncated formal power series over exact rationals, and the int
kernels the family pipeline runs on.

A :class:`TruncatedSeries` holds the coefficients ``c[0..order]`` of a
formal power series in one variable ``t``; nothing beyond ``order`` is
known, as opposed to zero.  The truncation order is part of the value:
the int product (:func:`_product`) truncates to the shorter operand and
the int inverse (:func:`_inverse`) keeps it, so the order of a series is
always a trustworthy statement of how many coefficients are exact.
Silent order extension is the classic source of wrong generating-function
code and is never performed.

Coefficients are ``fractions.Fraction``; integers are accepted and
coerced, floats are rejected.  Values are frozen and safe to share.
The class is the value type of the named series in
:mod:`polybern.special` and carries data only: its coefficients, its
order and indexed access.  It has no arithmetic; every product, inverse
and composition is taken on the int kernels below.

Representation is dense: these series are dense in practice and orders
stay at desk scale, so the O(N^2) product is the right trade against
exactness (there is no useful FFT over rationals).  The work runs on
Python ints, not Fractions: each operand is scaled over one common
denominator (:func:`_over_common`), the sums are taken over the integers,
and one Fraction is built per output coefficient.  The int kernels
(:func:`_product`, :func:`_inverse`, :func:`_compose`, :func:`_reduced`)
are what the family pipeline runs on directly.

The composition kernel :func:`_compose` takes only the inner series the
families need, 1 - e^{-t}, composed in O(N^2) through the expansion of
its powers in exponentials.  It takes the outer series as ints over one
denominator and returns the EGF ints of the result over the same
denominator, the numerator form the family pipeline takes, so the
families pass it the multiple polylog's ints with no Fraction in
between.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .rationals import ArgumentError


class ValuationError(ArithmeticError):
    """A series had a nonzero coefficient below a required valuation.

    Raised by the family pipeline :func:`polybern.families._gf_values`
    when a numerator's EGF ints are nonzero below t^r.  This is a
    correctness guard, not an input error: a nonzero coefficient below the
    expected valuation of a generating-function numerator indicates an
    upstream math bug (most plausibly in chain-sum construction), so
    callers should not catch and continue.
    """


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"series coefficients must be exact rationals, got {type(value).__name__}")


def _over_common(coeffs) -> tuple[list[int], int]:
    """The ints c * d for the Fractions c, and d, the lcm of their denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _reduced(ints: list[int], den: int) -> tuple[list[int], int]:
    """ints / den over the least common denominator: one gcd over the vector."""
    g = gcd(*ints, den)
    if g == 1:
        return ints, den
    return [v // g for v in ints], den // g


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The ints sum_i a[i] b[k-i] for k < min(len(a), len(b)): the truncated
    product of two series held as ints (over the product of their
    denominators)."""
    n = min(len(a), len(b))
    rb = b[n - 1 :: -1]
    return [sum(map(mul, a[: k + 1], rb[n - 1 - k :])) for k in range(n)]


def _inverse(a: list[int], den: int) -> tuple[list[int], int]:
    """The inverse of the unit series a / den as ints B over a running
    denominator db.

    Standard recurrence b0 = 1/a0, b_n = -(1/a0) * sum a_i b_{n-i}, with
    the sum taken over ints: b_n = -(sum a_i B_{n-i}) / (a_0 * db).  When
    b_n brings a denominator that does not divide db, the B_j are
    multiplied up once.
    """
    b0 = Fraction(den, a[0])
    scaled, db = [b0.numerator], b0.denominator
    for n in range(1, len(a)):
        bn = Fraction(-sum(map(mul, a[n:0:-1], scaled)), a[0] * db)
        q = bn.denominator
        if db % q:
            grown = lcm(db, q)
            scaled = [s * (grown // db) for s in scaled]
            db = grown
        scaled.append(bn.numerator * (db // q))
    return scaled, db


def _compose(a: Sequence[int], den: int) -> tuple[list[int], int]:
    """f(u) for u = 1 - e^{-t}, up to the order len(a) - 1, as its EGF ints
    E over the denominator ``den`` of the outer series f: E[n] / den =
    n! [t^n] f(u).  The outer series comes as ints over that denominator,
    a_m = a[m] / den, the form :func:`_over_common` makes and the
    multiple polylog's int kernel returns.

    Expanding u^m = (-1)^m sum_j C(m,j) (-1)^(m-j) e^{-jt} gives

        f(u) = sum_j c_j e^{-jt},
        c_j  = sum_{m >= j} (-1)^(m-j) C(m,j) (-1)^m a_m,

    so n! [t^n] f(u) = sum_j c_j (-j)^n.  The c_j are the coefficients
    of the polynomial sum_m (-1)^m a_m (y - 1)^m: a Taylor shift by -1 of
    ints, O(N^2) subtractions.  The power sums are O(N^2) small-int
    products.  Orders 0 and 1 need no special case.
    """
    target = len(a) - 1
    # c_j * den
    c = [-a_m if m & 1 else a_m for m, a_m in enumerate(a)]
    for i in range(target):
        for j in range(target - 1, i - 1, -1):
            c[j] -= c[j + 1]
    egf = []
    powers = c  # c_j * j^n
    for n in range(target + 1):
        if n:
            powers = list(map(mul, powers, range(target + 1)))
        egf.append(-sum(powers) if n & 1 else sum(powers))
    return egf, den


@dataclass(frozen=True, repr=False)
class TruncatedSeries:
    """Coefficients c[0..order] of a series in one variable, all exact,
    built from any iterable of ints and Fractions."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(_coeff(c) for c in self.coeffs)
        if not cs:
            raise ArgumentError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of t**n; n beyond the order is unknown, hence an error."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    __getitem__ = coefficient

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"TruncatedSeries([{body}])"
