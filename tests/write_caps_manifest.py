"""Write ``tests/golden/caps.json``: the byte-identity manifest at the caps.

Each entry is one ``polybern`` argv with its exit code and the SHA-256 of
its stdout and of its stderr.  The calls run every family at the order
cap, the named series, both large Stirling tables, ``verify --all`` and
every exact identity at the caps, the large m-series diagnostics that
had ``.sha256`` files (too long to keep as ``.out`` text), and each
refused call one past a cap.  The writer runs them on this tree's
``src`` through ``mutants.outcomes``, the one runner of
``tests/mutants.py`` (a fresh interpreter at 80 columns), and
``test_golden.test_caps_manifest`` replays each one as its own case in
one process.  A change that alters one of these outputs on purpose rewrites
the manifest with

    python tests/write_caps_manifest.py

and names each changed argv in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from mutants import SRC, outcomes

MANIFEST = Path(__file__).resolve().parent / "golden" / "caps.json"

# the cap values of polybern.cli, spelled out so that a changed cap shows here
ORDER, TRUNCATE, MAX_N, DEPTH, WEIGHT, TERM = 128, 160, 256, 16, 32, 256
LX = ["--lambda=-7/9", "--x=8/9"]
CAP = f"--order={ORDER}"
TWOS = ",".join(["2"] * DEPTH)

ARGV = [
    # every family at the order cap
    ["numbers", "--family=degen-multi-poly", "--ks=32", *LX, CAP],
    ["numbers", "--family=degen-multi-poly", f"--ks={TWOS}", *LX, CAP],
    ["numbers", "--family=degen-multi-poly", "--ks=-16,-16", *LX, CAP],
    ["numbers", "--family=multi-poly", "--ks=16,16", "--x=8/9", CAP],
    ["numbers", "--family=poly", "--k=32", "--x=8/9", CAP],
    ["numbers", "--family=poly", "--k=-32", "--x=8/9", CAP],
    ["numbers", "--family=type2-poly", "--k=32", "--x=255/256", CAP],
    ["numbers", "--family=type2-poly", "--k=-32", "--x=255/256", CAP],
    ["numbers", "--family=carlitz", f"--r={DEPTH}", *LX, CAP],
    # the named series
    ["series", "--name=multi-polylog", "--ks=16,16", CAP],
    ["series", "--name=polyexp", "--k=32", CAP],
    ["series", "--name=one-minus-exp-neg", CAP],
    ["series", "--name=log1p", CAP],
    ["series", "--name=degenerate-exp", *LX, CAP],
    # the Stirling tables
    ["stirling", "--kind=first-signed", f"--max-n={MAX_N}"],
    ["stirling", "--kind=second", f"--max-n={MAX_N}"],
    # the sweep and every exact identity
    ["verify", "--all", CAP, f"--truncate={TRUNCATE}"],
    ["verify", "--identity=expansion", "--ks=1,1,1", *LX, CAP],
    ["verify", "--identity=li-ones", f"--r={DEPTH}", CAP],
    ["verify", "--identity=deriv", "--ks=32", CAP],
    ["verify", "--identity=chain-stirling", "--ks=0,32", *LX, CAP],
    ["verify", "--identity=chain-stirling", "--ks=3,2,1", *LX, CAP],
    ["verify", "--identity=addition", "--ks=2,1", *LX, "--y=1/3", CAP],
    ["verify", "--identity=resummation", "--ks=1,-48", *LX, CAP],
    ["verify", "--identity=difference", "--ks=2,-8", *LX, CAP],
    # m-series diagnostics at real operand sizes, thousands of bits: a 32 in
    # the tail polylog for both identities, M = 160 at order 16, depth 3, and
    # a depth-4 tail where each m's factor, taken against li_den alone, is a
    # proper divisor of the one against the whole denominator
    ["verify", "--identity=resummation", "--ks=32,1", *LX, "--order=32", "--truncate=47"],
    ["verify", "--identity=difference", "--ks=32,1", *LX, "--order=32", "--truncate=47"],
    ["verify", "--identity=difference", "--ks=2,2,1", *LX, "--order=16", f"--truncate={TRUNCATE}"],
    ["verify", "--identity=resummation", "--ks=24,8,1", *LX, "--order=24", "--truncate=64"],
    ["verify", "--identity=resummation", "--ks=1,-1,-1,2", *LX, "--order=8", f"--truncate={TRUNCATE}"],
    # refused one past each cap
    ["numbers", "--family=degen-multi-poly", "--ks=2", *LX, f"--order={ORDER + 1}"],
    ["verify", "--identity=resummation", "--ks=2,1", *LX, "--order=4", f"--truncate={TRUNCATE + 1}"],
    ["stirling", "--kind=second", f"--max-n={MAX_N + 1}"],
    ["numbers", "--family=degen-multi-poly", "--ks=" + ",".join(["1"] * (DEPTH + 1)), *LX, "--order=4"],
    ["numbers", "--family=poly", f"--k={WEIGHT + 1}", "--order=4"],
    ["numbers", "--family=degen-multi-poly", "--ks=2", f"--lambda={TERM + 1}", "--order=4"],
    ["verify", "--identity=difference", f"--ks=1,-{TRUNCATE + 1}", *LX, "--order=1"],
    ["verify", "--identity=resummation", "--ks=1,-49", *LX, CAP],
    ["verify", "--identity=resummation", "--ks=2,1", *LX, CAP, "--truncate=48"],
]


if __name__ == "__main__":
    entries = [{"argv": argv, "exit": code, "stdout_sha256": out, "stderr_sha256": err}
               for argv, (code, out, err) in zip(ARGV, outcomes(SRC, ARGV))]
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")
