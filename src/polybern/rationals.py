"""Exact rational arithmetic, the coefficient field for the whole package.

Every quantity here (series coefficients, family parameters, verification
residuals) is an arbitrary-precision rational.  The standard library's
``fractions.Fraction`` already maintains the canonical form the rest of the
package relies on: the denominator is always positive, numerator and
denominator are coprime, and zero is stored as 0/1.  This module adds only
what Fraction does not ship, namely the two checks of caller-supplied
parameters (:func:`as_rational` for the rationals lam, x and y, and
:func:`as_int` for the int ones), the ``n**-k`` weights that appear in
chain sums, the "p/q" wire format used by all serialization, and the
private :func:`_decimal_string`, which renders the residuals of the
convergence diagnostics as rounded decimal strings: one integer division
shortens the exact value, and ``decimal`` rounds and writes the result.

Floating point never enters: a float parameter is refused, not converted
(a bool too, as a flag and not a number), and decimal strings are derived
from exact rationals at output time only.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


class ArgumentError(ValueError):
    """A library parameter outside its domain (an order, depth,
    truncation, table size or :func:`inv_pow` base below its least value,
    an empty index vector or series, an unknown Stirling kind, or a
    rational string that is malformed or has a zero denominator), refused
    where it enters, before any work.  A value of the wrong type raises
    TypeError instead."""


def as_rational(value) -> Fraction:
    """A caller's exact rational parameter (lam, x, y) as a Fraction.

    Accepts an int, a Fraction or a "p"/"p/q" string (see
    :func:`parse_rational`).  A float raises TypeError, as does a bool or
    any other type: a float holds a binary value, not the rational it was
    written as (0.1 is 3602879701896397/36028797018963968), so it has no
    place on an exact path, and a bool is a flag, not a number (series
    coefficients refuse it too).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational (int, Fraction or 'p/q' string), got {type(value).__name__}")


def as_int(value, what: str, least: int | None = None) -> int:
    """``value``, checked where an int parameter enters the library.

    A value that is not an int, a float and a bool included, raises
    TypeError: int(2.7) would silently compute 2, and a bool is a flag, as
    :func:`as_rational` refuses both for lam and x.  An int below
    ``least``, when one is given, raises ArgumentError: "<what> must be
    non-negative" for least 0 and "<what> must be at least <least>"
    otherwise.  ``what`` names the value in the messages."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ArgumentError(f"{what} must be " + (f"at least {least}" if least else "non-negative"))
    return value


def inv_pow(base: int, k: int) -> Fraction:
    """base**(-k) as an exact rational: the 1/n^k weight of one chain-sum
    factor.  k may be negative, in which case the result is the integer
    base**|k|.  Both are ints (see :func:`as_int`), base at least 1.
    """
    as_int(base, "base", 1)
    if as_int(k, "k") >= 0:
        return Fraction(1, base**k)
    return Fraction(base ** (-k))


def format_rational(value: Fraction | int) -> str:
    """Serialize as "p/q" with the sign on p, e.g. "-1/2", "0/1", "5/1".

    Reads the parts of the Fraction or int as they are (both are always in
    lowest terms); a float, which has no exact parts, raises TypeError.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except AttributeError:
        raise TypeError(f"expected a Fraction or an int, got {type(value).__name__}") from None


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (sign on p only).

    Malformed input and a zero denominator raise ArgumentError, which
    quotes the text without and with its surrounding whitespace
    respectively.  Decimal notation is deliberately rejected, and a text
    that is not a str raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a 'p/q' string, got {type(text).__name__}")
    literal = text.strip()
    if not _RATIONAL_RE.fullmatch(literal):
        raise ArgumentError(f"not a rational literal: {literal!r}")
    num, _, den = literal.partition("/")
    if den and not int(den):
        raise ArgumentError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


# 20 significant digits, rounded half to even: the residual decimals' precision
_CONTEXT = Context(prec=20, rounding=ROUND_HALF_EVEN)


@lru_cache(maxsize=1024)
def _power_of_ten(exponent: int) -> int:
    return 10**exponent


def _decimal_string(num: int, den: int) -> str:
    """Render the exact rational num/den, for ints num >= 0 and den > 0
    (unreduced pairs allowed), as a decimal string with 20 significant
    digits, round half to even: the string ``Decimal(num) / Decimal(den)``
    gives at that precision.  Used only for residual reporting; never fed
    back into computation.  Private: its one caller,
    ``verify.ResidualTable.values``, passes such ints, so it checks
    neither argument.

    One divmod cuts the long num and den down to Q = floor(num 10^s / den),
    at least 22 digits long, and Decimal rounds and writes Q / 10^s.  An
    inexact Q first gets its low bit set (round to odd): the rounding
    boundaries of 20 digits are then even integers at Q's scale, so Q
    rounds as the exact value does.  Zero is the exact Q = 0, written "0".
    """
    # num/den > 2^(bits(num) - 1 - bits(den)); 30103/100000 overshoots
    # log10(2) by less than one digit at any size here, which the 22 digits
    # (not 21) absorb
    shift = 22 - ((num.bit_length() - den.bit_length() - 1) * 30103 // 100000)
    if shift >= 0:
        quotient, remainder = divmod(num * _power_of_ten(shift), den)
    else:
        quotient, remainder = divmod(num, den * _power_of_ten(-shift))
    if remainder:
        return str(Decimal(quotient | 1).scaleb(-shift, _CONTEXT))
    # an exact quotient is divided by 10^|s|, so Decimal strips its trailing
    # zeros down to the ideal exponent 0 (scaleb would keep them); 10^|s| is
    # built from its digits, as Decimal(int) is slow on a long int
    operation = _CONTEXT.divide if shift >= 0 else _CONTEXT.multiply
    return str(operation(Decimal(quotient), Decimal("1" + "0" * abs(shift))))
