"""Byte-identity harness: the command line of another tree against this one.

    python tests/differential.py REF [--seed N] [--calls N]

REF is a git ref, whose ``src`` is extracted with ``git archive`` into a
temporary directory (no worktree is made and nothing is fetched), or a
directory that holds ``polybern/``.  The script draws ``--calls`` seeded
argv lists from the entry tables of this tree's ``polybern.cli``
(``SERIES``, ``FAMILIES`` and ``IDENTITIES``) and a few ``stirling``
calls.  Most are well formed at small orders, the m-series identities at
k_r >= 1 and at k_r <= 0 above all; some take one flag one past its cap,
below its least value, or malformed.  It adds ``verify --all`` at orders
0, 1, 5 and 16.

Each tree runs every call through ``mutants.outcomes``, the one runner
of ``tests/mutants.py``: in one fresh ``python -B`` interpreter, at 80
columns, it gives per call its exit code and the SHA-256 of its stdout
and of its stderr.  The script prints per verb the calls run to the end
(exit 0 or 1), refused (exit 2) and any other, then every argv whose
exit code, stdout or stderr hash differs between the trees, and a
summary line.  It exits 1 when any call differs.
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from mutants import SRC, outcomes

ROOT = SRC.parent
sys.path.insert(0, str(SRC))

from polybern import cli  # noqa: E402

ALL_ORDERS = (0, 1, 5, 16)
# the share of calls that take one flag past its cap or below its least value
EDGE_SHARE = 1 / 8
# the verbs of the drawn calls and their weights, the verify identities the most
VERBS = {"series": 2, "numbers": 2, "verify": 5, "stirling": 1}
TABLES = {"series": (cli.SERIES, "name"), "numbers": (cli.FAMILIES, "family"), "verify": (cli.IDENTITIES, "identity")}
_TERM = cli.MAX_RATIONAL_TERM + 1
# the values past a cap or below a least value (or malformed) of each parameter's flag
EDGES = {
    "order": (-1, cli.MAX_ORDER + 1),
    "ks": ("2", "1," * cli.MAX_DEPTH + "1", f"{cli.MAX_INDEX_WEIGHT + 1},1", f"1,-{cli.MAX_M_TRUNCATION + 1}"),
    "k": (-cli.MAX_INDEX_WEIGHT - 1, cli.MAX_INDEX_WEIGHT + 1),
    "r": (0, cli.MAX_DEPTH + 1),
    "lam": (_TERM, f"1/{_TERM}", "1.5", "1/0"),
    "m_truncation": (-1, cli.MAX_M_TRUNCATION + 1),
    "max_n": (-1, cli.MAX_STIRLING_N + 1),
}
EDGES["x"] = EDGES["y"] = EDGES["lam"]

def _value(rng: random.Random, param: str, m_series: bool):
    """A well-formed value of ``param`` at a small size."""
    if param == "ks":
        ks = [rng.randint(-2, 3) for _ in range(rng.randint(1, 3))]
        if m_series:  # depth 2 or 3, with k_r >= 1 (a diagnostic) or k_r <= 0 (exact)
            ks = ks[:2] + [rng.choice((rng.randint(1, 3), rng.randint(-3, 0)))]
        return ",".join(map(str, ks))
    if param in ("lam", "x", "y"):
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    return rng.randint(*{"k": (-3, 4), "r": (1, 4), "m_truncation": (0, 12)}[param])


def _draw(rng: random.Random) -> list[str]:
    """One call: its verb, its entry and each flag the entry takes."""
    verb = rng.choices(list(VERBS), list(VERBS.values()))[0]
    if verb == "stirling":
        kind = rng.choice(cli.STIRLING_KINDS).replace("_", "-")
        values = {"kind": kind, "max_n": rng.randint(0, 12)}
    else:
        table, name_flag = TABLES[verb]
        names = list(table)
        # the m-series identities three times as often as the others
        name = rng.choices(names, [3 if "m_truncation" in table[n].params else 1 for n in names])[0]
        params = table[name].params
        values = {name_flag: name, "order": rng.randint(0, 8)}
        values |= {p: _value(rng, p, "m_truncation" in params) for p in params}
    if rng.random() < EDGE_SHARE:
        param = rng.choice([p for p in values if p in EDGES])
        values[param] = rng.choice(EDGES[param])
    return [verb, *(f"--{cli._flag(p).replace('_', '-')}={v}" for p, v in values.items())]


def calls(seed: int, count: int) -> list[list[str]]:
    """``count`` seeded calls, then ``verify --all`` at each of ``ALL_ORDERS``."""
    rng = random.Random(seed)
    return [_draw(rng) for _ in range(count)] + [["verify", "--all", f"--order={n}"] for n in ALL_ORDERS]


def _tree(ref: str, temp: Path) -> Path:
    """The ``src`` of ``ref``: the directory itself when it holds
    ``polybern/``, else the ref's ``src`` extracted under ``temp``."""
    if (Path(ref) / "polybern").is_dir():
        return Path(ref)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(temp)], input=archive.stdout, check=True)
    return temp / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the command line of REF against this tree, call by call.")
    parser.add_argument("ref", metavar="REF", help="a git ref, or a directory that holds polybern/")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=500, help="seeded calls besides the verify --all ones")
    args = parser.parse_args(argv)
    argvs = calls(args.seed, args.calls)
    with tempfile.TemporaryDirectory() as temp:
        theirs = outcomes(_tree(args.ref, Path(temp)), argvs)
    ours = outcomes(SRC, argvs)

    kinds = Counter((argv[0], {0: "run", 1: "run", 2: "refused"}.get(code, "other"))
                    for argv, (code, *_) in zip(argvs, ours))
    for verb in dict.fromkeys(argv[0] for argv in argvs):
        print(f"{verb:<10}" + "".join(f"{kinds[verb, kind]:>6} {kind}" for kind in ("run", "refused", "other")))
    differing = [(argv, a, b) for argv, a, b in zip(argvs, theirs, ours) if a != b]
    for argv, a, b in differing:
        print("differs:", " ".join(argv), f"(exit {a[0]} against {b[0]})")
    print(f"{len(argvs)} calls, {len(differing)} differ: {args.ref} against this tree, seed {args.seed}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
