"""Exact truncated power series: the value type of every named series.

Every coefficient in this package is an arbitrary-precision rational, so
identities that hold, hold on the nose; there is no epsilon anywhere.
This script walks what a TruncatedSeries holds: its coefficients up to a
known truncation order, read one at a time, and the named series of the
package.  A series carries data only; the products and powers behind
the families run on the int kernels of ``polybern.series``.
"""

from fractions import Fraction
from math import factorial

from polybern import (
    TruncatedSeries,
    degenerate_exp,
    log1p_series,
    one_minus_exp_neg,
    polyexp,
)

N = 8

print("== building blocks ==")
exp = TruncatedSeries([Fraction(1, factorial(n)) for n in range(N + 1)])
print("exp(t)      :", exp)
print("order       :", exp.order, " (coefficients past it are unknown, not zero)")
print("t^5 coeff   :", exp[5])
try:
    TruncatedSeries([0.5])
except TypeError as exc:
    print("a float coefficient is refused:", exc)
try:
    2 * exp
except TypeError as exc:
    print("a series has no arithmetic:", exc)

print()
print("== the named series ==")
print("1 - e^{-t}  :", one_minus_exp_neg(N))
print("log(1+t)    :", log1p_series(N))
print("Ei_1(t)     :", polyexp(1, N), " (e^t - 1)")
lam, x = Fraction(1, 3), Fraction(1, 2)
e_lam = degenerate_exp(x, lam, N)
print("e_lam^x(t)  :", e_lam, " (lam = 1/3, x = 1/2)")
print("e_0^1(t) is exp(t)         :", degenerate_exp(1, 0, N) == exp)
