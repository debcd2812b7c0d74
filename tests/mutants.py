"""The fault matrix, and the one runner of the command line out of process.

``outcomes(src, argvs)`` runs each argv through ``polybern.cli.main`` in
one fresh ``python -B`` interpreter that imports the package from the
tree ``src``, at 80 columns (argparse wraps its usage text to the
terminal width), and gives per call its exit code and the SHA-256 of its
stdout and of its stderr.  The fault matrix here, the byte-identity
harness ``tests/differential.py`` and the caps-manifest writer
``tests/write_caps_manifest.py`` all run their calls through it.

Each fault is one edit of the package: a file under ``src/polybern``, an
old text that occurs exactly once in the whole package, and the text that
replaces it.  For each fault ``faulted_copy`` copies ``src/`` to a
temporary directory and applies the edit there, and ``outcomes`` runs the
calls of ``CALLS`` on the copy.  A call's verdict is ``"pass"`` (exit 0),
``"fail"`` (exit 1, a failed verification) or any other exit code as an
int (3 for an internal error such as a tripped valuation guard).  The row
``"none"`` runs the unmodified package, where every call passes.

Only verdicts are recorded, never output bytes: the matrix shows what the
identities themselves catch, not what a golden file pins.
``tests/golden/mutants.json`` holds the matrix and
``test_mutants.test_fault_matrix`` replays it.  A change to the faults,
the calls or the checks rewrites it with

    python tests/mutants.py

and names each changed verdict in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MATRIX = Path(__file__).resolve().parent / "golden" / "mutants.json"

LX = ["--lambda=-7/9", "--x=8/9"]
ORDER = "--order=8"
CALLS = {
    "all": ["verify", "--all", ORDER],
    "chain-stirling": ["verify", "--identity=chain-stirling", "--ks=2,1", *LX, ORDER],
    "resummation": ["verify", "--identity=resummation", "--ks=2,-2", *LX, ORDER],
    "difference": ["verify", "--identity=difference", "--ks=2,-2", *LX, ORDER],
    "expansion": ["verify", "--identity=expansion", "--ks=2,1", *LX, ORDER],
    "addition": ["verify", "--identity=addition", "--ks=2,1", *LX, ORDER, "--y=1/3"],
}

# name: (file under src/polybern, old text, new text)
FAULTS = {
    "gf-scale-start": ("families.py", "initial=factorial(r))", "initial=factorial(r + 1))"),
    "gf-scale-step": ("families.py", "range(1, order + 1), mul", "range(2, order + 2), mul"),
    "gf-exp-x-at-minus-lambda": ("families.py", "_reduced(*_degenerate_exp_ints(x, lam, order))",
                                 "_reduced(*_degenerate_exp_ints(x, -lam, order))"),
    "gf-unit-power-binomial-r-plus-1": ("families.py", "comb(r, j) * (-1) ** (r - j)",
                                        "comb(r + 1, j) * (-1) ** (r - j)"),
    "inverse-without-a1": ("series.py", "a[n:0:-1]", "a[n:1:-1]"),
    "degenerate-exp-scale-n-plus-1": ("special.py", "scale *= base * n", "scale *= base * (n + 1)"),
    "family-compose-alpha-plus-1": ("series.py", "-a_m if m & 1 else a_m", "a_m"),
    "u-powers-unsigned": ("verify.py", "(-1) ** l * sum(", "sum("),
    "tail-basis-u-sign": ("families.py", "(-1) ** (k + 1) * comb(n, k)", "(-1) ** k * comb(n, k)"),
    "polylog-non-strict-chains": ("special.py", "accumulate(chains[:-1])", "list(accumulate(chains))[1:]"),
    "product-without-a0-term": ("series.py", "a[: k + 1], rb[n - 1 - k :]", "a[1 : k + 1], rb[n - k :]"),
    "compose-shift-by-plus-1": ("series.py", "c[j] -= c[j + 1]", "c[j] += c[j + 1]"),
    "binomial-convolution-unweighted": ("verify.py", "map(mul, map(mul, row, a), b[n::-1])",
                                        "map(mul, a, b[n::-1])"),
    "stirling-second-k-off-by-one": ("special.py", "zip(range(1, n + 1), above, prev)",
                                     "zip(range(n), above, prev)"),
    "quotient-first-x-only": ("families.py", "for x in xs:", "for x in [xs[0]] * len(xs):"),
    "inverse-den-times-q": ("series.py", "(db // q)", "(db * q)"),
    "m-series-factor-times-term-den": ("verify.py", "(cofactor // term)", "(cofactor * term)"),
    "m-series-row-at-m-1": ("verify.py", "Fraction(column[-1], dens[-1])", "Fraction(column[1], dens[1])"),
    "li-ones-log-power-den-not-raised": ("verify.py", "den * top)", "den)"),
    "li-ones-log-power-divisor-r-plus-1": ("verify.py", "den * factorial(r))", "den * factorial(r + 1))"),
    "li-ones-stirling-column-r-minus-1": ("verify.py", "table.value(l, r)", "table.value(l, r - 1)"),
}

# run in a fresh interpreter: import the package from the tree given as the
# first argument, run each argv read from stdin and print, per call, its
# exit code and the SHA-256 of its stdout and its stderr
_CHILD = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from polybern import cli
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {cli.__file__}, not the tree")
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    outcomes.append([code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))])
print(json.dumps(outcomes))
"""


def outcomes(src: Path, argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """(exit code, stdout SHA-256, stderr SHA-256) of each call on the tree ``src``."""
    done = subprocess.run([sys.executable, "-B", "-c", _CHILD, str(src.resolve())], input=json.dumps(argvs),
                          env=dict(os.environ, COLUMNS="80"), capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"the calls did not run on {src}:\n{done.stderr}")
    return [tuple(outcome) for outcome in json.loads(done.stdout)]


def faulted_copy(dest: Path, fault: tuple[str, str, str] | None) -> Path:
    """Copy ``src/`` to ``dest`` and make the one edit ``fault`` there (none
    for an unmodified copy); refuse an old text that does not occur exactly
    once in the whole package."""
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    if fault:
        name, old, new = fault
        package = dest / "polybern"
        counts = {path.name: path.read_text().count(old) for path in package.glob("*.py")}
        if sum(counts.values()) != 1 or counts.get(name) != 1:
            raise ValueError(f"{old!r} must occur exactly once in the package, in {name}: {counts}")
        path = package / name
        path.write_text(path.read_text().replace(old, new))
    return dest


def verdicts(fault: tuple[str, str, str] | None) -> dict[str, str | int]:
    """The verdict of each call on a copy of ``src/`` with ``fault`` (none
    for the unmodified package)."""
    with tempfile.TemporaryDirectory() as temp:
        done = outcomes(faulted_copy(Path(temp) / "src", fault), list(CALLS.values()))
    return {name: {0: "pass", 1: "fail"}.get(code, code) for name, (code, *_) in zip(CALLS, done)}


def matrix() -> dict[str, dict[str, str | int]]:
    """Each fault's verdicts, after those of the unmodified package."""
    return {"none": verdicts(None)} | {name: verdicts(fault) for name, fault in FAULTS.items()}


if __name__ == "__main__":
    MATRIX.write_text(json.dumps(matrix(), indent=1) + "\n")
