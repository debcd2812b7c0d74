"""Dense truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds the coefficients ``c[0..order]`` of a
formal power series in one variable ``t``; nothing beyond ``order`` is
known, as opposed to zero.  The truncation order is part of the value and
every binary operation truncates its result to the smaller operand order,
so the order of a series is always a trustworthy statement of how many
coefficients are exact.  Silent order extension is the classic source of
wrong generating-function code and is never performed; the one deliberate
exception is multiplication by a monomial ``t**r`` (:meth:`mul_tpow`),
whose result is exactly determined up to ``order + r``.

Coefficients are ``fractions.Fraction``; integers are accepted and
coerced, floats are rejected.  Values are immutable and safe to share.

Representation is dense: these series are dense in practice and orders
stay at desk scale, so the O(N^2) product is the right trade against
exactness (there is no useful FFT over rationals).  The inner work of
products, powers, inversion and composition runs on Python ints, not
Fractions: each operand is scaled over one common denominator
(:func:`_over_common`), the sums are taken over the integers, and one
Fraction is built per output coefficient.  The int kernels
(:func:`_product`, :func:`_power`, :func:`_inverse`, :func:`_reduced`)
are also what the family pipeline runs on directly.

Composition takes only the inner series the families need: one of the
form alpha (e^{beta t} - 1), as 1 - e^{-t} is, composed in O(N^2) through
the expansion of its powers in exponentials (:func:`_compose`).  Any other
inner series, such as log(1 + t) or t, is refused.  The kernel takes the
outer series as ints over one denominator and returns the EGF ints of the
result over one denominator, the numerator form the family pipeline
takes, so the families pass it the multiple polylog's ints with
alpha = beta = -1 and no Fraction in between.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


class ValuationError(ArithmeticError):
    """A series had a nonzero coefficient below a required valuation.

    Raised by :meth:`TruncatedSeries.div_tpow` and by the family pipeline
    :func:`polybern.families._gf_values`.  This is a correctness guard,
    not an input error: a nonzero coefficient below the expected valuation
    of a generating-function numerator indicates an upstream math bug
    (most plausibly in chain-sum construction), so callers should not
    catch and continue.
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


def _power(a: list[int], den: int, exponent: int) -> tuple[list[int], int]:
    """(a / den)**exponent by binary powering, each product reduced once."""
    result = None
    base = (a, den)
    while exponent:
        if exponent & 1:
            result = base if result is None else _reduced(_product(result[0], base[0]), result[1] * base[1])
        exponent >>= 1
        if exponent:
            base = _reduced(_product(base[0], base[0]), base[1] * base[1])
    return result or ([1] + [0] * (len(a) - 1), 1)


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


def _is_exponential(units: list[int]) -> bool:
    """Whether the EGF ints U_k = d k! u_k of an inner series u are geometric
    from k = 1 on, with U_1 and U_2 nonzero: U_{k+1} U_1 = U_k U_2 for
    k >= 1.  Then u = alpha (e^{beta t} - 1) up to its order, with
    beta = U_2 / U_1 and alpha beta = U_1 / d.  ``units`` has at least
    three entries."""
    if not units[1] or not units[2]:
        return False
    u1, u2 = units[1], units[2]
    return all(units[k + 1] * u1 == units[k] * u2 for k in range(2, len(units) - 1))


def _compose(a: Sequence[int], den: int, alpha: Fraction, beta: Fraction) -> tuple[list[int], int]:
    """f(u) for u = alpha (e^{beta t} - 1), up to the order len(a) - 1,
    as its EGF ints E over one denominator D: E[n] / D = n! [t^n] f(u).
    The outer series f comes as ints over one denominator,
    a_m = a[m] / den, the form :func:`_over_common` makes and the
    multiple polylog's int kernel returns.

    Expanding u^m = alpha^m sum_j C(m,j) (-1)^(m-j) e^{j beta t} gives

        f(u) = sum_j c_j e^{j beta t},
        c_j  = sum_{m >= j} (-1)^(m-j) C(m,j) alpha^m a_m,

    so n! [t^n] f(u) = sum_j c_j (j beta)^n.  The c_j are the coefficients
    of the polynomial sum_m alpha^m a_m (y - 1)^m: a Taylor shift by -1 of
    ints, O(N^2) subtractions.  The power sums are O(N^2) small-int
    products.  Orders 0 and 1 need no special case.
    """
    target = len(a) - 1
    pa, qa = alpha.numerator, alpha.denominator
    pb, qb = beta.numerator, beta.denominator
    # c_j * qa^target * den
    c = [a_m * pa**m * qa ** (target - m) for m, a_m in enumerate(a)]
    for i in range(target):
        for j in range(target - 1, i - 1, -1):
            c[j] -= c[j + 1]
    egf = []
    powers = c  # c_j * j^n
    for n in range(target + 1):
        if n:
            powers = list(map(mul, powers, range(target + 1)))
        egf.append(pb**n * qb ** (target - n) * sum(powers))
    return egf, den * qa**target * qb**target


class TruncatedSeries:
    """Coefficients c[0..order] of a series in one variable, all exact."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_coeff(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of t**n; n beyond the order is unknown, hence an error."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self._coeffs[n]

    __getitem__ = coefficient

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coeffs)
        return f"TruncatedSeries([{body}])"

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            a, da = _over_common(self._coeffs[: n + 1])
            b, db = _over_common(other._coeffs[: n + 1])
            den = da * db
            return TruncatedSeries(Fraction(c, den) for c in _product(a, b))
        c = _coeff(other)
        return TruncatedSeries([c * ci for ci in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative integer (invert first for negative powers)")
        power, den = _power(*_over_common(self._coeffs), exponent)
        return TruncatedSeries(Fraction(c, den) for c in power)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the same order.

        The coefficients are held as ints over their common denominator and
        inverted by the int recurrence of :func:`_inverse`.  Requires a unit
        series (nonzero constant term).
        """
        if self._coeffs[0] == 0:
            raise ValueError("non-unit series")
        inverse, den = _inverse(*_over_common(self._coeffs))
        return TruncatedSeries(Fraction(c, den) for c in inverse)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)) for an inner series u = alpha (e^{beta t} - 1).

        ``inner`` must have zero constant term; then coefficient n of the
        result depends only on coefficients up to n of both operands, so
        the result is exact up to min(order, inner.order).

        With U_k = d * k! * u_k, d the least common denominator of the
        k! * u_k, u has that form up to its order when the U_k are
        geometric from k = 1 on (U_{k+1} U_1 = U_k U_2, with U_1 and U_2
        nonzero), and :func:`_compose` sums the outer series over the
        exponentials e^{j beta t} in O(N^2); its EGF ints become one
        Fraction per coefficient.  This is the route of 1 - e^{-t}, the
        inner series of the polylog families.  Up to order 1 the result is
        a_0 + a_1 u_1 t for any inner series; any other inner series raises
        ValueError.
        """
        if inner._coeffs[0] != 0:
            raise ValueError("composition requires zero constant term")
        target = min(self.order, inner.order)
        if target <= 1:  # a_0 + a_1 u_1 t, whatever the form of u
            return TruncatedSeries(map(mul, self._coeffs[: target + 1], (1,) + inner._coeffs[1:2]))
        facts = [1]
        for n in range(1, target + 1):
            facts.append(facts[-1] * n)
        units, d = _over_common([facts[k] * inner._coeffs[k] for k in range(target + 1)])
        if not _is_exponential(units):
            raise ValueError("composition takes only an inner series alpha (e^{beta t} - 1)")
        beta = Fraction(units[2], units[1])
        egf, den = _compose(*_over_common(self._coeffs[: target + 1]), Fraction(units[1], d) / beta, beta)
        return TruncatedSeries(Fraction(e, den * facts[n]) for n, e in enumerate(egf))

    def div_tpow(self, r: int) -> "TruncatedSeries":
        """Exact division by t**r, dropping the order by r.

        Every coefficient below r must be zero; a nonzero one raises
        :class:`ValuationError` instead of being silently discarded.
        """
        if r < 0:
            raise ValueError("shift must be non-negative")
        if r == 0:
            return self
        if r > self.order:
            raise ValueError("shift exceeds series order")
        if any(c != 0 for c in self._coeffs[:r]):
            raise ValuationError("valuation too small")
        return TruncatedSeries(self._coeffs[r:])

    def mul_tpow(self, r: int) -> "TruncatedSeries":
        """Multiply by t**r.  The product is exactly determined up to
        order + r, so this is the one operation allowed to raise the order
        (it inverts :meth:`div_tpow`).
        """
        if r < 0:
            raise ValueError("shift must be non-negative")
        return TruncatedSeries((Fraction(0),) * r + self._coeffs)

    def derive(self) -> "TruncatedSeries":
        """Formal derivative; the order drops by one."""
        if self.order == 0:
            raise ValueError("derivative of an order-0 series has no known coefficients")
        return TruncatedSeries(
            [(n + 1) * self._coeffs[n + 1] for n in range(self.order)]
        )
