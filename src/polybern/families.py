"""Bernoulli-type number and polynomial families, by exact coefficient
extraction from their generating functions.

The central object is the degenerate multi-poly-Bernoulli family: the
values beta_n are defined through

    r! * Li_{k_1,...,k_r}(1 - e^{-t}) / (e_lam(t) - 1)^r * e_lam^x(t)
        = sum_n beta_n * t^n / n!

where Li is the multiple polylogarithm and e_lam the degenerate
exponential.  Every family in this module, and every right-hand side in
:mod:`polybern.verify` that needs one, runs through one pipeline,
:func:`_gf_values`: a caller passes only the numerator N of its generating
function (here Li_{k_1,...,k_r}(1 - e^{-t})), which must have valuation r,
as its EGF ints d * k! [t^k] N over one denominator d.  That is the form
each numerator builder makes, so no numerator passes through Fractions.
The pipeline checks the valuation on the ints, divides by t^r, multiplies
by the inverse of the unit power ((e_lam(t) - 1)/t)^r and, for each x it
is given, by e_lam^x(t), and scales: the quotient by t^r and the inverse
unit power do not depend on x and are built once, so the identities that
need a family at two arguments (x + y and x, x + 1 and x) take both from
one call.  It runs on ints over one denominator per stage and hands each
x's values on in that form, as ints over one denominator: the unit power
is the binomial sum of the e_lam^j(t), j = 0..r, which come with e_lam^x
from the int form of the degenerate exponential, and the inverse and the
products from the int kernels of :mod:`polybern.series`.  A Fraction is
made once per value, and only where a value leaves the library: in the
:class:`SequenceResult` of a family and in the rows of an identity
report.  The identity checks that go on computing with family values
(the addition theorem, the forward difference, the u-power columns) read
the ints.

The numerators are what the identities test, and they stay on separate
routes: the Carlitz family passes t^r / r!, which the all-ones index
vector must reproduce through the polylog composition.  The main family
(:func:`_polylog_family`) takes the multiple polylog as the ints of its
chain-sum recurrence and composes it with 1 - e^{-t} through
:func:`~polybern.series._compose`, which sums over the exponentials
e^{-jt} in O(N^2) (the chain-stirling check
builds its numerator from its own prefix sums and Stirling numbers of the
second kind instead); the type-2 family does not compose, but reads the
powers of its inner series log(1+t) from the signed Stirling table of the
first kind.

The pipeline is linear in the numerator, so the m-series identities take
every family they sum from the pipeline values of the powers u^q of
u = 1 - e^{-t}, one int column per q (:func:`_u_power_values` and
:func:`u_power_columns`), and weigh the columns with scalars.

Every family is defined by an exponential generating function, so values
are n! times series coefficients.  That scaling happens in exactly one
place (:func:`_gf_values`); double-n! mistakes are the most common bug in
this territory and the single scaling site is the defense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul
from typing import Sequence

from .rationals import as_int, as_rational, format_rational, inv_pow
from .series import ValuationError, _compose, _inverse, _over_common, _product, _reduced
from .special import _degenerate_exp_ints, _multi_polylog_ints, index_vector, stirling_table


@dataclass(frozen=True)
class FamilyQuery:
    """Full parameter set identifying one family computation.

    ``ks`` may be empty: the order-0 family (empty index vector) is defined
    to have generating function e_lam^x(t) itself, i.e. its values are the
    falling products (x)_{n,lam}.  That is the natural base case of the
    chain-sum picture (an empty chain anchored at zero) and is what the
    depth-1 identities degenerate to.
    """

    ks: tuple[int, ...]
    lam: Fraction
    x: Fraction
    order: int

    def __post_init__(self):
        ks = tuple(self.ks)
        object.__setattr__(self, "ks", index_vector(ks) if ks else ())
        object.__setattr__(self, "lam", as_rational(self.lam))
        object.__setattr__(self, "x", as_rational(self.x))
        as_int(self.order, "order", 0)

    def to_params_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "lambda": format_rational(self.lam),
            "x": format_rational(self.x),
            "order": self.order,
        }


@dataclass(frozen=True)
class SequenceResult:
    """Values beta_0..beta_N of one family, with the query that produced them.

    values[n] is n! times the t^n series coefficient of the family's
    generating function.
    """

    family: str
    query: FamilyQuery
    values: tuple[Fraction, ...]


def _gf_values(
    egf: Sequence[int], egf_den: int, r: int, lam, xs: Sequence, order: int
) -> tuple[tuple[list[int], int], ...]:
    """The generating-function pipeline every family runs through.

    Computes n! [t^n] of  r! * N(t) / (e_lam(t)-1)^r * e_lam^x(t)  for
    n <= order and for each x of ``xs``, one pair (ints, den) per x: value
    n is ints[n] / den, with den > 0 and not reduced against the ints.  The
    numerator N is given by its EGF ints egf[k] = egf_den * k! [t^k] N for
    k <= order + r: N has valuation r, and dividing by t^r eats exactly
    that many orders.  The valuation is checked on the ints, not assumed; a
    violation raises ValuationError and means a math bug upstream.

    The quotient N / t^r is the ints egf[k + r] * (order + r)! / (k + r)!
    over egf_den * (order + r)!, reduced once, and the inverse of the unit
    power ((e_lam(t)-1)/t)^r is built once: neither depends on x.  For each
    x the inverse is multiplied by e_lam^x(t), and that product by the
    quotient; the value ints are r! n! times the coefficient ints, one
    product per value.  This is the only place the EGF convention is
    applied.  The inverse times e_lam^x(t) reduces to about the size of the
    inverse, so each x costs one product with the quotient, whose ints are
    the large ones for a large index; the quotient times the inverse,
    shared by every x, would be as large as the quotient and cost one more
    such product.

    Every stage runs on ints over one denominator, reduced once by a gcd
    over the vector.  The unit power is

        t^r ((e_lam(t)-1)/t)^r = sum_j C(r,j) (-1)^(r-j) e_lam^j(t),

    n! [t^n] of which is r! S_{2,lam}(n, r), the degenerate Stirling
    numbers of the second kind: each e_lam^j, like e_lam^x, comes from
    the int form of the degenerate exponential, and for an integer j
    that form has the one denominator b^(order+r) (order+r)! for
    lam = a/b, so the sum is one int vector, shifted down by r.  The
    inverse is the int recurrence of the series module, and the products
    are plain int convolutions.  No Fraction is built: the families make
    one per value where the values leave the library, and the identity
    checks read the ints.
    """
    if any(egf[:r]):
        raise ValuationError("valuation too small")
    # (order + r)! / (k + r)! for k = order down to 0
    lift = list(accumulate(range(order + r, r, -1), mul, initial=1))
    num, num_den = _reduced(list(map(mul, egf[r : order + r + 1], reversed(lift))),
                            egf_den * factorial(order + r))
    power = [0] * (order + 1)
    for j in range(r + 1):
        exp_j, power_den = _degenerate_exp_ints(j, lam, order + r)
        power = [p + comb(r, j) * (-1) ** (r - j) * e for p, e in zip(power, exp_j[r:])]
    inverse, inverse_den = _inverse(*_reduced(power, power_den))
    scales = list(accumulate(range(1, order + 1), mul, initial=factorial(r)))  # r! k!
    out = []
    for x in xs:
        factor, den = _reduced(*_degenerate_exp_ints(x, lam, order))
        factor, den = _reduced(_product(inverse, factor), inverse_den * den)
        out.append((list(map(mul, scales, _product(num, factor))), den * num_den))
    return tuple(out)


def carlitz_degenerate(r: int, lam, x, order: int) -> SequenceResult:
    """Higher-order degenerate Bernoulli polynomials.

    Generating function (t/(e_lam(t)-1))^r * e_lam^x(t): the pipeline on
    the numerator t^r / r!.  It has no polylog and no composition in it,
    so the all-ones index vector of the main family, whose numerator
    Li_{1,...,1}(1 - e^{-t}) equals t^r / r!, must reproduce these values
    through a numerator built on a different route.
    """
    query = FamilyQuery(ks=(1,) * as_int(r, "r", 1), lam=lam, x=x, order=order)
    egf = [0] * r + [1] + [0] * order
    ((ints, den),) = _gf_values(egf, 1, r, query.lam, (query.x,), order)
    return SequenceResult("carlitz", query, tuple(Fraction(c, den) for c in ints))


def _polylog_family(
    ks: tuple[int, ...], lam: Fraction, xs: Sequence[Fraction], order: int
) -> tuple[tuple[list[int], int], ...]:
    """The values beta_n(x) for n <= order of the degenerate
    multi-poly-Bernoulli family, one pair (ints, den) per x of ``xs`` as
    :func:`_gf_values` returns them.

    The numerator is the multiple polylog in x, as the ints of
    :func:`~polybern.special._multi_polylog_ints`, composed with
    1 - e^{-t} by :func:`~polybern.series._compose`.  It is built once,
    and :func:`_gf_values` builds the inverse unit power once, for every x.
    An empty ``ks`` gives the empty chain sum 1, hence the values
    (x)_{n,lam}.
    """
    work = order + len(ks)
    egf, den = _compose(*_multi_polylog_ints(ks, work))
    return _gf_values(egf, den, len(ks), lam, xs, order)


def degenerate_multi_poly_bernoulli(ks: Sequence[int], lam, x, order: int) -> SequenceResult:
    """The degenerate multi-poly-Bernoulli polynomial values beta_n(x).

    Computed by :func:`_polylog_family` at the one x.  An empty ``ks``
    selects the order-0 family (values (x)_{n,lam}, see
    :class:`FamilyQuery`), whose numerator is the empty chain sum 1.
    """
    query = FamilyQuery(ks=tuple(ks), lam=lam, x=x, order=order)
    ((ints, den),) = _polylog_family(query.ks, query.lam, (query.x,), order)
    return SequenceResult("degen-multi-poly", query, tuple(Fraction(c, den) for c in ints))


def _u_power_values(s: int, lam, x, order: int) -> tuple[list[int], int]:
    """The pipeline of :func:`_gf_values` at depth s >= 1 on the numerator
    u^s alone, u = 1 - e^{-t}: the values s! n! [t^n] u^s / (e_lam(t)-1)^s
    * e_lam^x(t) for n <= order, as ints over their least common
    denominator, with that denominator: the pipeline's pair reduced once.
    The EGF ints of the numerator are n! [t^n] u^s = sum_j C(s,j) (-1)^j (-j)^n.
    Its callers pass checked values; it checks none.
    """
    u_s = [sum(comb(s, j) * (-1) ** j * (-j) ** n for j in range(s + 1)) for n in range(order + s + 1)]
    return _reduced(*_gf_values(u_s, 1, s, lam, (x,), order)[0])


def u_power_columns(column: Sequence[int], s: int, order: int) -> list[list[int]]:
    """The columns q = 0..order + s of the depth-s pipeline values of u^q,
    given ``column``, those of u^s (as :func:`_u_power_values` makes them),
    over its denominator.

    Column q < s is zero, as u^q has too small a valuation to reach the
    depth.  Every column after ``column`` is the one before times u, whose
    EGF ints are k! u_k = (-1)^(k+1) for k >= 1: the pipeline at a fixed
    depth is the product with one series, so it commutes with that factor.
    """
    weights = [[(-1) ** (k + 1) * comb(n, k) for k in range(1, n + 1)] for n in range(order + 1)]
    columns = [[0] * (order + 1)] * s + [list(column)]
    for _ in range(order):
        columns.append([sum(map(mul, weights[n], reversed(columns[-1][:n]))) for n in range(order + 1)])
    return columns


def multi_poly_bernoulli(ks: Sequence[int], x, order: int) -> SequenceResult:
    """Non-degenerate multi-poly-Bernoulli polynomials (the lam = 0 case)."""
    base = degenerate_multi_poly_bernoulli(ks, 0, x, order)
    return SequenceResult("multi-poly", base.query, base.values)


def poly_bernoulli(k: int, x, order: int) -> SequenceResult:
    """Poly-Bernoulli polynomials: depth-1 specialization.  k = 1 gives the
    ordinary Bernoulli polynomials."""
    base = multi_poly_bernoulli((k,), x, order)
    return SequenceResult("poly", base.query, base.values)


def type2_poly_bernoulli(k: int, x, order: int) -> SequenceResult:
    """Type-2 poly-Bernoulli polynomials.

    Generating function  Ei_k(log(1+t)) / (e^t - 1) * e^{xt}  with Ei the
    polyexponential: the pipeline on the numerator Ei_k(log(1+t)) with
    r = 1 and lam = 0.
    k = 1 again gives the ordinary Bernoulli polynomials.

    The numerator is not composed: with a_p the polyexponential
    coefficients, p! a_p = p^(1-k), and s the signed Stirling numbers of
    the first kind, n! [t^n] log(1+t)^p = p! s(n, p), so

        n! [t^n] Ei_k(log(1+t)) = sum_p s(n, p) * p^(1-k),

    summed over ints on the common denominator of the p^(1-k): these are
    the EGF ints the pipeline takes.  That is O(order^2) integer work
    instead of the O(order^3) of a composition.
    """
    query = FamilyQuery(ks=(k,), lam=0, x=x, order=order)
    work = order + 1
    weights, den = _over_common([Fraction(0)] + [inv_pow(p, k - 1) for p in range(1, work + 1)])
    egf = [sum(map(mul, row, weights)) for row in stirling_table("first_signed", work).rows]
    ((ints, den),) = _gf_values(egf, den, 1, query.lam, (query.x,), order)
    return SequenceResult("type2-poly", query, tuple(Fraction(c, den) for c in ints))
