"""Exact truncated power series: the value type of every named series.

Every coefficient in this package is an arbitrary-precision rational, so
identities that hold, hold on the nose; there is no epsilon anywhere.
This script walks what a TruncatedSeries does: construction with a known
truncation order, scalar multiples and powers, and the named series of
the package, ending with the classical observation that the powers of
1 - e^{-t} carry the Stirling numbers of the second kind.
"""

from fractions import Fraction
from math import factorial

from polybern import (
    TruncatedSeries,
    degenerate_exp,
    log1p_series,
    one_minus_exp_neg,
    polyexp,
    stirling_table,
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

print()
print("== scalar multiples and powers ==")
print("(1/2) exp(t):", Fraction(1, 2) * exp)
print("(1+t)^5     :", TruncatedSeries([1, 1, 0, 0, 0, 0]) ** 5, " (the binomial row)")
cube = exp**3
print("exp(t)^3    :", cube)
print("== exp(3t)  :", cube == TruncatedSeries([Fraction(3**n, factorial(n)) for n in range(N + 1)]))

print()
print("== the named series ==")
print("1 - e^{-t}  :", one_minus_exp_neg(N))
print("log(1+t)    :", log1p_series(N))
print("Ei_1(t)     :", polyexp(1, N), " (e^t - 1)")
lam, x = Fraction(1, 3), Fraction(1, 2)
e_lam = degenerate_exp(x, lam, N)
print("e_lam^x(t)  :", e_lam, " (lam = 1/3, x = 1/2)")
print("its square is e_lam^{2x}(t):", e_lam**2 == degenerate_exp(2 * x, lam, N))
print("e_0^1(t) is exp(t)         :", degenerate_exp(1, 0, N) == exp)

print()
print("== powers of 1 - e^{-t} ==")
second = stirling_table("second", N)
square = one_minus_exp_neg(N) ** 2
print("n!/2! [t^n] (1 - e^{-t})^2:", *(factorial(n) * c / 2 for n, c in enumerate(square)))
print("(-1)^n S2(n, 2)           :", *((-1) ** n * second.value(n, 2) for n in range(N + 1)))
print("                            ^ the second-kind Stirling column, signed")
