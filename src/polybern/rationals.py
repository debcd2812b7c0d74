"""Exact rational arithmetic, the coefficient field for the whole package.

Every quantity here (series coefficients, family parameters, verification
residuals) is an arbitrary-precision rational.  The standard library's
``fractions.Fraction`` already maintains the canonical form the rest of the
package relies on: the denominator is always positive, numerator and
denominator are coprime, and zero is stored as 0/1.  This module adds only
what Fraction does not ship, namely a constructor with pinned error
behaviour, the ``n**-k`` weights that appear in chain sums, the "p/q" wire
format used by all serialization, and the rendering of exact values as
rounded decimal strings for convergence diagnostics.

Floating point never enters: decimal strings are derived from exact
rationals at output time only.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def rat(p: int, q: int = 1) -> Fraction:
    """Canonical fraction p/q.

    Raises ZeroDivisionError("zero denominator") for q = 0.
    """
    if q == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(p, q)


def inv_pow(base: int, k: int) -> Fraction:
    """base**(-k) as an exact rational: the 1/n^k weight of one chain-sum
    factor.  k may be negative, in which case the result is the integer
    base**|k|.
    """
    if base < 1:
        raise ValueError("base must be a positive integer")
    if k >= 0:
        return Fraction(1, base**k)
    return Fraction(base ** (-k))


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q" with the sign on p, e.g. "-1/2", "0/1", "5/1"."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (sign on p only).

    Malformed input raises ValueError; a zero denominator raises
    ZeroDivisionError.  Decimal notation is deliberately rejected.
    """
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den:
        return rat(int(num), int(den))
    return Fraction(int(num))


def decimal_string(value: Fraction, digits: int = 20) -> str:
    """Render an exact rational as a decimal string with ``digits``
    significant digits, round half to even.  Used only for residual
    reporting; never fed back into computation.
    """
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        result = Decimal(value.numerator) / Decimal(value.denominator)
    return str(result)
