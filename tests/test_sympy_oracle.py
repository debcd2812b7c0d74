"""Third-party oracle: Stirling numbers and Bernoulli polynomials from sympy.

sympy shares no code with the package, so agreement is an independent
check of the Stirling recurrences and of the k = 1 reduction of the
family pipeline.  Skipped where sympy is not installed.
"""

from fractions import Fraction

import pytest

from polybern.families import poly_bernoulli
from polybern.special import stirling_table

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402


@pytest.mark.parametrize(
    ("kind", "sympy_kwargs"),
    [("second", {"kind": 2}), ("first_unsigned", {"kind": 1}), ("first_signed", {"kind": 1, "signed": True})],
)
def test_stirling_tables_match_sympy(kind, sympy_kwargs):
    table = stirling_table(kind, 20)
    for n in range(21):
        for k in range(n + 1):
            assert table.value(n, k) == stirling(n, k, **sympy_kwargs), (n, k)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)])
def test_bernoulli_polynomials_match_sympy(x):
    # B_1(x) = x - 1/2 in both, whatever sympy's convention for the number B_1
    ours = poly_bernoulli(1, x, 20).values
    for n, value in enumerate(ours):
        expected = sympy.bernoulli(n, sympy.Rational(x.numerator, x.denominator))
        assert value == Fraction(int(expected.p), int(expected.q)), n
