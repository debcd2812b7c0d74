"""The two identities with an infinite binomial sum, and what the data says.

The resummed explicit formula and the forward-difference formula both
expand (n_r + n_{r-1})^{-k_r} as a binomial series, which introduces an
infinite sum over m.  When the last index k_r is <= 0 that series cuts off
after -k_r + 1 terms, every manipulation is finite, and the identities
check out exactly, which is strong evidence the algebra is right.

When k_r >= 1 the m-series does not converge in the ordinary sense.  At
n = 0 and depth 2 with k_r = 1 its partial sums oscillate between 2*beta_0
and 0 (the series is Abel/Cesaro summable to the exact value instead); at
depth 3 the n = 0 partial sums diverge geometrically, with residual 2^M
for ks = (2, 2, 1).  Rather than hard-code a
verdict, the harness emits the exact partial sums so the behaviour can be
inspected.  This script prints both branches.
"""

from fractions import Fraction

from polybern import verify_difference, verify_resummation

print("== finite branch: k_r <= 0, checked exactly ==")
for ks in ((1, 0), (1, -2), (2, 1, -1)):
    res = verify_resummation(ks, Fraction(1, 3), 0, 6)
    dif = verify_difference(ks, Fraction(1, 3), 0, 6)
    terms = res.params["m_truncation"] + 1
    print(f"ks={ks}: resummation {res.status}, difference {dif.status} "
          f"(m-sum has {terms} term{'s' if terms > 1 else ''})")

print()
print("== diagnostic branch: k_r = 1, partial sums of the m-series ==")
report = verify_resummation((2, 1), Fraction(1, 3), 0, 4, m_truncation=10)
print(f"status: {report.status}")
print("exact left-hand sides:")
for row in report.rows:
    print(f"  n={row.n}: beta_n = {row.lhs}")
print()
print("residual |LHS - partial sum| by M (20-significant-digit decimals):")
header = "  n \\ M " + "".join(f"{m:>12}" for m in range(0, 10, 2))
print(header)
decimals = {(n, m): dec for n, m, dec in report.residuals.values()}
for n in range(5):
    cells = [f"{decimals[n, m][:11]:>12}" for m in range(0, 10, 2)]
    print(f"  n={n:<4}" + "".join(cells))
print()
print("the n=0 row never settles: its partial sums are 2, 0, 2, 0, ...")
print("around the true value 1, so the m-series diverges there in the")
print("ordinary sense.  Averaging rescues it:")
beta0 = report.rows[0].lhs
partials = [2 * beta0 if m % 2 == 0 else Fraction(0) for m in range(40)]
mean = sum(partials, Fraction(0)) / len(partials)
print(f"  mean of the first 40 partial sums at n=0: {mean}  (exact beta_0 = {beta0})")
