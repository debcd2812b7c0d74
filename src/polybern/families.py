"""Bernoulli-type number and polynomial families, by exact coefficient
extraction from their generating functions.

The central object is the degenerate multi-poly-Bernoulli family: the
values beta_n are defined through

    r! * Li_{k_1,...,k_r}(1 - e^{-t}) / (e_lam(t) - 1)^r * e_lam^x(t)
        = sum_n beta_n * t^n / n!

where Li is the multiple polylogarithm and e_lam the degenerate
exponential.  All families in this module run through one shared pipeline
(compose, valuation shift, invert, multiply), so the thin specializations
cross-validate each other; the classical Carlitz family is the deliberate
exception and is built directly from series inversion, giving an
independent route for the all-ones reduction checks.

Every family is defined by an exponential generating function, so values
are n! times series coefficients.  That scaling happens in exactly one
place (:func:`_egf_values`); double-n! mistakes are the most common bug in
this territory and the single scaling site is the defense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .rationals import format_rational
from .series import TruncatedSeries
from .special import (
    degenerate_exp,
    index_vector,
    log1p_series,
    multi_polylog,
    one_minus_exp_neg,
    polyexp,
)


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
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "x", Fraction(self.x))
        if self.order < 0:
            raise ValueError("order must be non-negative")

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

    def to_json_dict(self) -> dict:
        out = {"family": self.family}
        out.update(self.query.to_params_dict())
        out["values"] = [format_rational(v) for v in self.values]
        return out

    def to_csv(self) -> str:
        lines = ["n,value"]
        lines.extend(f"{n},{format_rational(v)}" for n, v in enumerate(self.values))
        return "\n".join(lines) + "\n"


def _egf_values(series: TruncatedSeries) -> tuple[Fraction, ...]:
    """n! * coefficient(n): the only place the EGF convention is applied."""
    values = []
    fact = 1
    for n, c in enumerate(series.coeffs):
        if n:
            fact *= n
        values.append(fact * c)
    return tuple(values)


def _exp_minus_one_over_t(lam, order: int) -> TruncatedSeries:
    """(e_lam(t) - 1)/t, a unit series (constant term 1)."""
    return (degenerate_exp(1, lam, order + 1) - 1).div_tpow(1)


def carlitz_degenerate(r: int, lam, x, order: int) -> SequenceResult:
    """Higher-order degenerate Bernoulli polynomials.

    Generating function (t/(e_lam(t)-1))^r * e_lam^x(t), realized directly
    by inverting the unit series ((e_lam(t)-1)/t)^r.  Kept independent of
    the polylog pipeline on purpose: the all-ones index vector of the main
    family must reproduce these values, and the two routes share no
    composition code.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    query = FamilyQuery(ks=(1,) * r, lam=lam, x=x, order=order)
    unit = _exp_minus_one_over_t(query.lam, order)
    series = (unit**r).invert() * degenerate_exp(query.x, query.lam, order)
    return SequenceResult("carlitz", query, _egf_values(series))


def _pipeline_values(
    outer: TruncatedSeries, inner: TruncatedSeries, r: int, lam, x, order: int
) -> tuple[Fraction, ...]:
    """Shared generating-function pipeline.

    Computes n! [t^n] of  r! * outer(inner(t)) / (e_lam(t)-1)^r * e_lam^x(t)
    for n <= order.  ``outer`` and ``inner`` must carry order + r
    coefficients: the numerator has valuation r, and dividing by t^r eats
    exactly that many orders.  The valuation is asserted, not assumed; a
    violation raises ValuationError and means a math bug upstream.
    """
    numerator = outer.compose(inner)
    shifted = numerator.div_tpow(r)
    unit = _exp_minus_one_over_t(lam, order)
    series = shifted * (unit**r).invert() * degenerate_exp(x, lam, order)
    return _egf_values(series * factorial(r))


def degenerate_multi_poly_bernoulli(ks: Sequence[int], lam, x, order: int) -> SequenceResult:
    """The degenerate multi-poly-Bernoulli polynomial values beta_n(x).

    Pipeline: multiple polylog in x, composed with 1 - e^{-t}, divided by
    t^r (exact valuation), then by the unit power ((e_lam(t)-1)/t)^r, then
    multiplied by r! and e_lam^x(t); finally the EGF scaling.

    An empty ``ks`` selects the order-0 family (values (x)_{n,lam}), see
    :class:`FamilyQuery`.
    """
    query = FamilyQuery(ks=tuple(ks), lam=lam, x=x, order=order)
    if not query.ks:
        series = degenerate_exp(query.x, query.lam, order)
        return SequenceResult("degen-multi-poly", query, _egf_values(series))
    r = len(query.ks)
    work = order + r
    values = _pipeline_values(
        multi_polylog(query.ks, work),
        one_minus_exp_neg(work),
        r,
        query.lam,
        query.x,
        order,
    )
    return SequenceResult("degen-multi-poly", query, values)


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
    polyexponential; runs through the same pipeline with r = 1 and lam = 0.
    k = 1 again gives the ordinary Bernoulli polynomials.
    """
    work = order + 1
    values = _pipeline_values(
        polyexp(k, work), log1p_series(work), 1, Fraction(0), Fraction(x), order
    )
    query = FamilyQuery(ks=(k,), lam=Fraction(0), x=Fraction(x), order=order)
    return SequenceResult("type2-poly", query, values)


def falling_factorial_expansion(ks: Sequence[int], lam, n: int) -> tuple[tuple[Fraction, int], ...]:
    """Expansion of beta_n(x) in the falling-product basis (x)_{m,lam}.

    Returns the n+1 pairs (C(n,l) * beta_l, n-l), meaning

        beta_n(x) = sum_l C(n,l) * beta_l * (x)_{n-l,lam}

    where beta_l are the family's numbers (x = 0).  Evaluating the pairs at
    any rational x with :func:`~polybern.special.falling_factorial`
    reproduces the polynomial values.
    """
    ks = index_vector(ks)
    if n < 0:
        raise ValueError("n must be non-negative")
    numbers = degenerate_multi_poly_bernoulli(ks, lam, 0, n).values
    return tuple((comb(n, l) * numbers[l], n - l) for l in range(n + 1))
