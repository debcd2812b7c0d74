"""Byte-level regression check of the command line.

Each case runs ``main(argv)`` and compares its stdout, byte for byte, with
``tests/golden/<name>.out`` and its exit code with
``tests/golden/exit_codes.json``.  The golden files were captured once
from a known-good build; a refactor that changes any report fails here.
"""

import json
from pathlib import Path

import pytest

from polybern.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify-all": ["verify", "--all", "--order", "16"],
    # one per series name
    "series-multi-polylog": ["series", "--name", "multi-polylog", "--ks", "2,1", "--order", "8"],
    "series-polyexp": ["series", "--name", "polyexp", "--k", "2", "--order", "8"],
    "series-one-minus-exp-neg": ["series", "--name", "one-minus-exp-neg", "--order", "8"],
    "series-log1p": ["series", "--name", "log1p", "--order", "8"],
    "series-degenerate-exp": ["series", "--name", "degenerate-exp", "--x=1/2", "--lambda=-1/3",
                              "--order", "8"],
    # one per family
    "numbers-degen-multi-poly": ["numbers", "--family", "degen-multi-poly", "--ks", "2,1",
                                 "--lambda", "1/3", "--x", "1/2", "--order", "8"],
    "numbers-multi-poly": ["numbers", "--family", "multi-poly", "--ks=1,-2", "--x", "1/3",
                           "--order", "8"],
    "numbers-poly": ["numbers", "--family", "poly", "--k=-2", "--order", "8"],
    "numbers-type2-poly": ["numbers", "--family", "type2-poly", "--k", "2", "--x", "2/3",
                           "--order", "8"],
    "numbers-carlitz": ["numbers", "--family", "carlitz", "--r", "2", "--lambda", "1/3",
                        "--x", "1/2", "--order", "8"],
    # one per identity, both branches of each m-series identity
    "verify-expansion": ["verify", "--identity", "expansion", "--ks", "1,1", "--lambda", "1/5",
                         "--x", "2/3", "--order", "8"],
    "verify-li-ones": ["verify", "--identity", "li-ones", "--r", "3", "--order", "12"],
    "verify-deriv": ["verify", "--identity", "deriv", "--ks", "3,2", "--order", "10"],
    "verify-chain-stirling": ["verify", "--identity", "chain-stirling", "--ks", "2,1",
                              "--lambda", "1/3", "--x", "1/2", "--order", "6"],
    "verify-resummation-exact": ["verify", "--identity", "resummation", "--ks=1,-2",
                                 "--lambda", "1/3", "--x", "0", "--order", "6"],
    "verify-resummation-diagnostic": ["verify", "--identity", "resummation", "--ks", "2,1",
                                      "--lambda", "1/3", "--x", "0", "--order", "4",
                                      "--truncate", "8"],
    "verify-difference-exact": ["verify", "--identity", "difference", "--ks=1,-1",
                                "--lambda", "1/4", "--x", "1/2", "--order", "6"],
    "verify-difference-diagnostic": ["verify", "--identity", "difference", "--ks", "1,1",
                                     "--lambda", "1/2", "--x", "0", "--order", "5",
                                     "--truncate", "8"],
    "verify-addition": ["verify", "--identity", "addition", "--ks", "2,1", "--lambda", "1/3",
                        "--x", "1/2", "--y", "1/3", "--order", "8"],
    # each Stirling kind
    "stirling-second": ["stirling", "--kind", "second", "--max-n", "8"],
    "stirling-first-unsigned": ["stirling", "--kind", "first-unsigned", "--max-n", "8"],
    "stirling-first-signed": ["stirling", "--kind", "first-signed", "--max-n", "8"],
    # CSV output
    "numbers-csv": ["numbers", "--family", "degen-multi-poly", "--ks", "1,2", "--lambda=-1/3",
                    "--x", "0", "--order", "8", "--format", "csv"],
    "stirling-csv": ["stirling", "--kind", "first-signed", "--max-n", "7", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys, monkeypatch):
    monkeypatch.delenv("POLYBERN_FORMAT", raising=False)
    code = main(CASES[name])
    out = capsys.readouterr().out.encode("utf-8")
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
