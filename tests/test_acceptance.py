"""Acceptance suite: one test per criterion, exact equality everywhere an
identity is exact, zero tolerances.

Each test prints a single line
    criterion <k> (<summary>): PASS|FAIL [<elapsed>s]
so a ``pytest -s`` run yields a readable scorecard.  Budgets are wall-clock
upper bounds and are asserted.

The two resummed identities with positive last index contain an infinite
binomial sum whose ordinary convergence is an open question (at depth 2
with k_r = 1 their n = 0 partial sums oscillate between 2*beta_0 and 0; at
depth 3 they diverge geometrically).  Criterion 8
therefore asserts completion, determinism, and the exactness of
the reported n = 0 row against an independent closed form, not numerical
convergence.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

from oracles import (
    bernoulli_numbers,
    chain_coefficient,
    count_set_partitions,
    cycle_count_histogram,
    residual_triples,
)
from polybern import cli
from polybern.families import (
    carlitz_degenerate,
    degenerate_multi_poly_bernoulli,
    poly_bernoulli,
    type2_poly_bernoulli,
)
from polybern.special import multi_polylog, stirling_table
from polybern.verify import (
    verify_addition,
    verify_chain_stirling,
    verify_deriv_recurrences,
    verify_difference,
    verify_li_ones,
    verify_polynomial_expansion,
    verify_resummation,
)


class Criterion:
    def __init__(self, number: int, summary: str, budget_seconds: float):
        self.number = number
        self.summary = summary
        self.budget = budget_seconds
        self.failures: list[str] = []
        self.start = time.perf_counter()

    def check(self, condition: bool, label: str):
        if not condition:
            self.failures.append(label)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        ok = not self.failures and elapsed < self.budget
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {self.number} ({self.summary}): {verdict} [{elapsed:.2f}s]")
        assert not self.failures, self.failures
        assert elapsed < self.budget, f"budget {self.budget}s exceeded: {elapsed:.2f}s"


def random_rational(rng, span=5, max_den=6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _json(report) -> str:
    """The report's JSON text, as the command line writes it."""
    return cli._json_text(cli._json_value(report))


def test_criterion_1_li_ones_triple_equality():
    crit = Criterion(1, "all-ones polylog triple equality, r<=5, order 30", 5.0)
    for r in range(1, 6):
        report = verify_li_ones(r, 30)
        crit.check(report.status == "pass", f"r={r}")
        crit.check(len(report.rows) == 2 * 31, f"row count r={r}")
    crit.finish()


def test_criterion_2_all_ones_reduction():
    crit = Criterion(2, "all-ones family equals Carlitz, r<=4, n<=16", 10.0)
    rng = random.Random(2024)
    pairs = [(random_rational(rng), random_rational(rng)) for _ in range(5)]
    for r in (1, 2, 3, 4):
        for lam, x in pairs:
            a = degenerate_multi_poly_bernoulli((1,) * r, lam, x, 16).values
            b = carlitz_degenerate(r, lam, x, 16).values
            crit.check(a == b, f"r={r} lam={lam} x={x}")
    crit.finish()


def test_criterion_3_expansion_and_addition():
    crit = Criterion(3, "number expansion and addition law, 10 random queries", 10.0)
    rng = random.Random(303)
    for i in range(10):
        r = rng.randint(1, 3)
        ks = tuple(rng.randint(-3, 3) for _ in range(r))
        lam = random_rational(rng)
        x = random_rational(rng)
        y = random_rational(rng)
        exp_report = verify_polynomial_expansion(ks, lam, x, 12)
        add_report = verify_addition(ks, lam, x, y, 12)
        crit.check(exp_report.status == "pass", f"expansion #{i} ks={ks}")
        crit.check(add_report.status == "pass", f"addition #{i} ks={ks}")
    crit.finish()


def test_criterion_4_chain_stirling_routes_agree():
    crit = Criterion(4, "chain-sum/Stirling route equals pipeline, r in {2,3}", 30.0)
    rng = random.Random(404)
    for r in (2, 3):
        for i in range(5):
            ks = tuple(rng.randint(-2, 3) for _ in range(r))
            lam = random_rational(rng)
            x = random_rational(rng)
            report = verify_chain_stirling(ks, lam, x, 10)
            crit.check(report.status == "pass", f"r={r} #{i} ks={ks} lam={lam} x={x}")
    crit.finish()


def test_criterion_5_finite_binomial_branches():
    crit = Criterion(5, "finite branches of both resummed identities, k_r<=0", 30.0)
    rng = random.Random(505)
    for r in (2, 3):
        for k_r in (0, -1, -2, -3):
            lead = tuple(rng.randint(-2, 3) for _ in range(r - 1))
            ks = lead + (k_r,)
            lam = random_rational(rng)
            x = random_rational(rng)
            res = verify_resummation(ks, lam, x, 8)
            dif = verify_difference(ks, lam, x, 8)
            crit.check(res.status == "pass", f"resummation ks={ks} lam={lam} x={x}")
            crit.check(dif.status == "pass", f"difference ks={ks} lam={lam} x={x}")
            crit.check(res.residuals == () and dif.residuals == (), f"exact branch residuals ks={ks}")
    crit.finish()


def test_criterion_6_derivative_recurrences():
    crit = Criterion(6, "derivative recurrences, 10 random index vectors", 5.0)
    rng = random.Random(606)
    for i in range(10):
        r = rng.randint(1, 4)
        ks = tuple(rng.randint(-3, 3) for _ in range(r))
        report = verify_deriv_recurrences(ks, 20)
        crit.check(report.status == "pass", f"#{i} ks={ks}")
    crit.finish()


def test_criterion_7_classical_limit_three_routes():
    crit = Criterion(7, "lam=0 limit reproduces Bernoulli via three routes", 1.0)
    expected = bernoulli_numbers(4)
    crit.check(expected[1:] == [Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30)],
               "oracle sanity")
    routes = {
        "carlitz": carlitz_degenerate(1, 0, 0, 4).values,
        "poly": poly_bernoulli(1, 0, 4).values,
        "type2": type2_poly_bernoulli(1, 0, 4).values,
    }
    for name, values in routes.items():
        crit.check(list(values) == expected, name)
    crit.finish()


def test_criterion_8_divergence_diagnostics():
    crit = Criterion(8, "diagnostic tables complete, deterministic, exact n=0 row", 120.0)
    for ks in ((2, 1), (1, 1)):
        for lam in (Fraction(1, 2), Fraction(1, 3)):
            res_a = verify_resummation(ks, lam, 0, 6, m_truncation=64)
            res_b = verify_resummation(ks, lam, 0, 6, m_truncation=64)
            dif_a = verify_difference(ks, lam, 0, 6, m_truncation=64)
            dif_b = verify_difference(ks, lam, 0, 6, m_truncation=64)
            tag = f"ks={ks} lam={lam}"

            # completion
            crit.check(res_a.status == "diagnostic" and dif_a.status == "diagnostic", f"status {tag}")
            crit.check(len(res_a.residuals) == 7 * 65, f"resummation table size {tag}")
            crit.check(len(dif_a.residuals) == 6 * 65, f"difference table size {tag}")

            # determinism: the same JSON text, byte for byte
            crit.check(_json(res_a) == _json(res_b), f"resummation determinism {tag}")
            crit.check(_json(dif_a) == _json(dif_b), f"difference determinism {tag}")

            # exact n = 0 row: lhs is the closed form r!/prod(i^k_i), and the
            # partial sums reduce to 2 * sum (-1)^m C(k_r+m-1, m) because the
            # depth-1 base values are all 1.  Both are independent of the
            # pipeline under test.
            beta0 = Fraction(factorial(2), 1 ** ks[0] * 2 ** ks[1])
            row0 = next(r for r in res_a.rows if r.n == 0)
            crit.check(row0.lhs == beta0, f"n=0 lhs {tag}")
            n0 = {m: value for n, m, value in residual_triples(res_a.residuals) if n == 0}
            partial = Fraction(0)
            for m in range(65):
                partial += 2 * (-1) ** m * comb(ks[-1] + m - 1, m)
                crit.check(n0[m] == abs(beta0 - partial), f"n=0 residual m={m} {tag}")
    crit.finish()


def test_criterion_9_oracle_equivalence():
    crit = Criterion(9, "DP vs chain enumeration; Stirling vs brute counts", 30.0)
    for r in range(1, 5):
        for ks in product((-1, 0, 1, 2), repeat=r):
            series = multi_polylog(ks, 12)
            for n in range(13):
                if series[n] != chain_coefficient(ks, n):
                    crit.check(False, f"polylog ks={ks} n={n}")
                    break
    second = stirling_table("second", 9)
    first = stirling_table("first_unsigned", 9)
    for n in range(10):
        hist = cycle_count_histogram(n)
        for k in range(n + 1):
            crit.check(second.value(n, k) == count_set_partitions(n, k), f"S2({n},{k})")
            crit.check(first.value(n, k) == hist[k], f"|S1({n},{k})|")
    crit.finish()
