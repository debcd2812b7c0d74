"""Multiple polylogarithms and Stirling triangles.

The coefficient of x^n in a depth-r multiple polylogarithm is a finite sum
over strictly increasing chains 0 < n_1 < ... < n_{r-1} < n.  The package
computes it with an O(r*N) prefix-sum recurrence; this script shows the
values, the vanishing below depth, and the classical bridge to Stirling
numbers: the all-ones polylog is a scaled power of log(1-x), whose
exponential coefficients are the unsigned first-kind triangle.
"""

from fractions import Fraction
from math import factorial

from polybern import multi_polylog, stirling_table, verify_li_ones

N = 10

print("== depth-2 chain sums ==")
li = multi_polylog((1, 1), N)
print("Li_{1,1}(x) coefficients:", li)
print("x^3 coefficient:", li[3], " = (1/1 + 1/2)/3, the two chains through n=3")
print("coefficients below depth vanish:", [li[n] for n in range(2)])

print()
print("== negative indices are fine ==")
print("Li_{0,0}(x):", multi_polylog((0, 0), N), " (x^n coefficient counts the n-1 chains)")
print("Li_{-2}(x) :", multi_polylog((-2,), 6), " (weights n^2)")

print()
print("== Stirling triangles ==")
second = stirling_table("second", 6)
print("n", *range(7), sep=",")
for n, row in enumerate(second.rows):
    print(n, *row, *[0] * (6 - n), sep=",")
print()
first = stirling_table("first_unsigned", 6)
print("|S1(4,2)| =", first.value(4, 2), " S2(4,2) =", second.value(4, 2))

print()
print("== the all-ones bridge ==")
report = verify_li_ones(4, 16)
print("chain sums vs (1/4!) log^4(1-x) vs Stirling EGF column:", report.status)
print("Stirling route, x^3:", Fraction(first.value(3, 2), factorial(3)), "== chain route:", li[3])
