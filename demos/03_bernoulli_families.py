"""The Bernoulli-type families and how they specialize into each other.

The central family has generating function

    r! * Li_{k_1..k_r}(1 - e^{-t}) / (e_lam(t) - 1)^r * e_lam^x(t)

over exact rationals.  Tuning its knobs recovers the whole classical
hierarchy: all indices 1 gives the Carlitz degenerate polynomials, lam = 0
removes the degeneracy, depth 1 gives poly-Bernoulli, and depth 1 with
index 1 lands on the ordinary Bernoulli polynomials.
"""

from fractions import Fraction

from polybern import (
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    multi_poly_bernoulli,
    poly_bernoulli,
    type2_poly_bernoulli,
    verify_polynomial_expansion,
)

third = Fraction(1, 3)

print("== the central family ==")
result = degenerate_multi_poly_bernoulli((1, 2), third, 0, 8)
print("ks=(1,2), lam=1/3, x=0:")
for n, v in enumerate(result.values):
    print(f"  beta_{n} = {v}")
print("beta_0 always equals r!/(1^k1 * 2^k2 * ... * r^kr); here 2!/(1*4) = 1/2")

print()
print("== specializations ==")
print("all-ones == Carlitz:",
      degenerate_multi_poly_bernoulli((1, 1, 1), third, Fraction(1, 2), 10).values
      == carlitz_degenerate(3, third, Fraction(1, 2), 10).values)
print("lam=0 depth-1, k=1 (three routes to the Bernoulli numbers):")
print("  carlitz :", carlitz_degenerate(1, 0, 0, 6).values)
print("  poly    :", poly_bernoulli(1, 0, 6).values)
print("  type2   :", type2_poly_bernoulli(1, 0, 6).values)
print("multi-poly at lam=0, ks=(1,2):", multi_poly_bernoulli((1, 2), 0, 5).values)

print()
print("== polynomial structure through the falling-product basis ==")
ks, lam, x, n = (2, 1), third, Fraction(2, 3), 5
print("ks=(2,1), lam=1/3, x=2/3: beta_n(x) against sum_l C(n,l) * beta_l * (x)_{n-l,lam},")
print("with (x)_{m,lam} = x(x-lam)...(x-(m-1)lam):")
report = verify_polynomial_expansion(ks, lam, x, n)
for row in report.rows:
    print(f"  n={row.n}: direct pipeline {row.lhs} | falling-product sum {row.rhs}")
print("status:", report.status, "(every row equal)")
