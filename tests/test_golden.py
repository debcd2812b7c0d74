"""Byte-level regression check of the command line.

A pinned call has one of two forms.  Each ``CASES`` and ``HELP`` call
exits 0 and prints, byte for byte, ``tests/golden/<name>.out``; the
``help*.out`` files hold the ``--help`` text of the command and of each
verb at 80 columns.  Every other pinned call is an entry of
``tests/golden/caps.json``, which ``tests/write_caps_manifest.py`` writes:
its argv, exit code and the SHA-256 of its stdout and of its stderr.  The
golden files were captured once from a known-good build; a refactor that
changes any report fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polybern import cli
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
    # depth 3, k_r = 2, negative lambda: the m-series columns at depth > 2
    "verify-resummation-depth3": ["verify", "--identity", "resummation", "--ks", "1,3,2",
                                  "--lambda=-2/5", "--x", "1/3", "--order", "5", "--truncate", "40"],
    "verify-difference-depth3": ["verify", "--identity", "difference", "--ks", "2,-1,2",
                                 "--lambda=-3/7", "--x", "1/2", "--order", "5", "--truncate", "40"],
    # order 6 at M = 160, the shape of the long-m diagnostics
    "verify-difference-long-m": ["verify", "--identity", "difference", "--ks", "2,2,1",
                                 "--lambda=-7/9", "--x", "8/9", "--order", "6", "--truncate", "160"],
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


def _golden(name):
    return (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == _golden(name)


def test_one_parser_serves_every_call_and_keeps_no_state(capsys):
    # every case forward, then in reverse, then each one right after a case
    # of another verb, all in one process: each output must still be its
    # golden file, and the parser must have been built once for all of them
    names = sorted(CASES)
    interleaved = []
    for i, name in enumerate(names):
        other = next(n for n in names[i + 1:] + names[:i] if CASES[n][0] != CASES[name][0])
        interleaved += [other, name]
    cli._build_parser.cache_clear()
    for name in names + names[::-1] + interleaved:
        code = main(CASES[name])
        out = capsys.readouterr().out.encode("utf-8")
        assert (code, out) == (0, _golden(name)), name
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("env", [None, "csv", "yaml"])
def test_output_does_not_depend_on_the_environment(env, capsys, monkeypatch):
    # the argv alone decides the output: a format variable in the
    # environment, valid or not, changes no byte and no exit code
    if env is None:
        monkeypatch.delenv("POLYBERN_FORMAT", raising=False)
    else:
        monkeypatch.setenv("POLYBERN_FORMAT", env)
    for name in sorted(CASES):
        code = main(CASES[name])
        out = capsys.readouterr().out.encode("utf-8")
        assert (code, out) == (0, _golden(name)), name


HELP = {
    "help": [],
    "help-series": ["series"],
    "help-numbers": ["numbers"],
    "help-stirling": ["stirling"],
    "help-verify": ["verify"],
}


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_golden_output(name, capsys, monkeypatch):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert main(HELP[name] + ["--help"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == _golden(name)


def _refuse(result):
    raise AssertionError("built a format that was not asked for")


def test_only_the_requested_format_is_built(capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_csv_text", _refuse)
        for name in ("numbers-degen-multi-poly", "stirling-second"):
            assert main(CASES[name]) == 0, name
            assert capsys.readouterr().out.encode("utf-8") == _golden(name)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_json_value", _refuse)
        for name in ("numbers-csv", "stirling-csv"):
            assert main(CASES[name]) == 0, name
            assert capsys.readouterr().out.encode("utf-8") == _golden(name)
    # the nested reports have no CSV form: their verbs' parsers refuse it
    for name in ("series-log1p", "verify-li-ones"):
        assert main(CASES[name] + ["--format", "csv"]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"polybern {CASES[name][0]}: error: argument --format: invalid choice: 'csv'")


@pytest.mark.parametrize("entry", json.loads((GOLDEN / "caps.json").read_text()),
                         ids=lambda entry: " ".join(entry["argv"]))
def test_caps_manifest(entry, capsys, monkeypatch):
    # every family, series, table and exact identity at the caps, the large
    # m-series diagnostics, and each call one past a cap: exit code and the
    # SHA-256 of stdout and stderr, as tests/write_caps_manifest.py wrote them
    monkeypatch.setenv("COLUMNS", "80")
    code = main(entry["argv"])
    out, err = capsys.readouterr()
    digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, err)]
    assert [code, *digests] == [entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]]
