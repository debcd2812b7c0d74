"""Command-line contract: dispatch, formats, exit codes, round trips.

Two tables state the refusals.  ``REFUSED`` holds every call the command
line refuses, each with its message and where it is refused (argparse,
the CLI's caps and flag checks, the library's least values, or a
``verify --all`` point); one test runs each row with the work it must not
reach replaced.  ``ADMITTED`` holds every call admitted at a cap or least
value, each asserted to exit 0.  A new id's refusals are rows of the first.
"""

import functools
import inspect
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from polybern import cli, families, verify
from polybern.cli import _ks_flag, main
from polybern.families import degenerate_multi_poly_bernoulli
from polybern.rationals import ArgumentError, parse_rational
from polybern.special import STIRLING_KINDS, stirling_table
from polybern.verify import verify_difference, verify_resummation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numbers_degen_multi_poly(capsys):
    code, out, _ = run(
        capsys, "numbers", "--family", "degen-multi-poly",
        "--ks", "1,2", "--lambda", "1/3", "--x", "0", "--order", "8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"][0] == "1/2"
    assert data["order"] == 8
    assert data["lambda"] == "1/3"


def test_numbers_round_trip(capsys):
    code, out, _ = run(
        capsys, "numbers", "--family", "degen-multi-poly",
        "--ks", "2,-1", "--lambda", "2/7", "--x", "1/2", "--order", "10",
    )
    assert code == 0
    data = json.loads(out)
    reparsed = [parse_rational(v) for v in data["values"]]
    fresh = degenerate_multi_poly_bernoulli(
        tuple(data["ks"]), parse_rational(data["lambda"]),
        parse_rational(data["x"]), data["order"],
    )
    assert tuple(reparsed) == fresh.values


def test_numbers_other_families(capsys):
    code, out, _ = run(capsys, "numbers", "--family", "carlitz",
                       "--r", "2", "--lambda", "0", "--order", "4")
    assert code == 0
    assert json.loads(out)["family"] == "carlitz"
    code, out, _ = run(capsys, "numbers", "--family", "poly", "--k", "1", "--order", "4")
    assert code == 0
    assert json.loads(out)["values"][1] == "-1/2"
    code, out, _ = run(capsys, "numbers", "--family", "type2-poly", "--k", "2", "--order", "4")
    assert code == 0
    code, out, _ = run(capsys, "numbers", "--family", "multi-poly",
                       "--ks", "1,1", "--order", "4")
    assert code == 0
    assert json.loads(out)["values"][0] == "1/1"


def test_order_zero_calls(capsys):
    # a depth-1 family at order 0 composes only up to order 1, the
    # shortest composition the kernel is given
    code, out, _ = run(capsys, "numbers", "--family", "poly", "--k", "2", "--order", "0")
    assert code == 0 and json.loads(out)["values"] == ["1/1"]
    code, out, _ = run(capsys, "verify", "--identity", "expansion", "--ks", "2", "--lambda", "1/3",
                       "--x", "1/2", "--order", "0")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_numbers_csv(capsys):
    code, out, _ = run(
        capsys, "numbers", "--family", "degen-multi-poly",
        "--ks", "1,2", "--lambda", "1/3", "--x", "0", "--order", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1/2", "1,-1/2", "2,113/216"]


def test_series_commands(capsys):
    code, out, _ = run(capsys, "series", "--name", "multi-polylog", "--ks", "1,1", "--order", "5")
    assert code == 0
    assert json.loads(out)["coeffs"][3] == "1/2"
    code, out, _ = run(capsys, "series", "--name", "one-minus-exp-neg", "--order", "3")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0/1", "1/1", "-1/2", "1/6"]
    code, out, _ = run(capsys, "series", "--name", "degenerate-exp",
                       "--x", "1", "--lambda", "1/2", "--order", "2")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1/1", "1/1", "1/4"]
    code, out, _ = run(capsys, "series", "--name", "polyexp", "--k", "2", "--order", "3")
    assert code == 0
    code, out, _ = run(capsys, "series", "--name", "log1p", "--order", "3")
    assert code == 0


def test_stirling_command(capsys):
    code, out, _ = run(capsys, "stirling", "--kind", "second", "--max-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][4][2] == 7
    code, out, _ = run(capsys, "stirling", "--kind", "first-unsigned", "--max-n", "4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,0,1,2,3,4"


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "li-ones", "--r", "3", "--order", "15")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_each_identity(capsys):
    cases = [
        ("expansion", ["--ks", "2,1", "--lambda", "1/3", "--x", "2/3", "--order", "8"], "pass"),
        ("deriv", ["--ks", "3,2", "--order", "10"], "pass"),
        ("chain-stirling", ["--ks", "1,1", "--lambda", "1/2", "--x", "0", "--order", "6"], "pass"),
        ("resummation", ["--ks", "1,-2", "--lambda", "1/3", "--x", "0", "--order", "5"], "pass"),
        ("resummation", ["--ks", "2,1", "--lambda", "1/3", "--x", "0", "--order", "4",
                         "--truncate", "8"], "diagnostic"),
        ("difference", ["--ks", "1,-1", "--lambda", "1/4", "--x", "0", "--order", "5"], "pass"),
        ("addition", ["--ks", "2,1", "--lambda", "1/3", "--x", "1/2", "--y", "1/3",
                      "--order", "8"], "pass"),
    ]
    for identity, flags, expected in cases:
        code, out, _ = run(capsys, "verify", "--identity", identity, *flags)
        assert code == 0, (identity, flags)
        assert json.loads(out)["status"] == expected


def _mostly(usual, odd):
    """``usual`` nine times in ten, else one of the words ``odd``."""
    return st.integers(0, 9).flatmap(lambda i: usual if i else st.sampled_from(odd))


# the words each flag may take: small values in range, and now and then a
# value past a cap or below a least value, or a malformed one
_ratios = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_FLAG_WORDS = {
    "--ks": _mostly(st.lists(_mostly(st.integers(-3, 3), [-33, 33, 161]), min_size=1, max_size=4).map(
        lambda ks: ",".join(map(str, ks))), ["", ",", "1,a", "2", ",".join(["1"] * (cli.MAX_DEPTH + 1))]),
    "--k": _mostly(st.integers(-3, 3), [-33, 33]),
    "--r": _mostly(st.integers(1, 4), [-1, 0, cli.MAX_DEPTH, cli.MAX_DEPTH + 1]),
    "--lambda": _mostly(_ratios, ["257", "1/0", "0.5"]),
    "--x": _mostly(_ratios, ["1/257", "x"]),
    "--y": _mostly(_ratios, ["-257"]),
    "--order": _mostly(st.integers(0, 8), [-1, cli.MAX_ORDER + 1]),
    "--truncate": _mostly(st.integers(0, 8), [-1, cli.MAX_M_TRUNCATION, cli.MAX_M_TRUNCATION + 1]),
    "--jobs": _mostly(st.just(1), [-1, 0]),
    "--max-n": _mostly(st.integers(0, 8), [-2, -1, cli.MAX_STIRLING_N + 1]),
    "--format": _mostly(st.just("json"), ["csv", "xml"]),
}
_VERB_FLAGS = {
    "series": ("--name", cli.SERIES, ("--ks", "--k", "--x", "--lambda", "--order", "--format")),
    "numbers": ("--family", cli.FAMILIES, ("--ks", "--k", "--r", "--lambda", "--x", "--order", "--format")),
    "stirling": ("--kind", {"second": (), "first-signed": (), "first-unsigned": (), "third": ()},
                 ("--max-n", "--format")),
    "verify": ("--identity", cli.IDENTITIES,
               ("--ks", "--r", "--lambda", "--x", "--y", "--order", "--truncate", "--jobs", "--format")),
}


@st.composite
def _argvs(draw):
    """An argv of one verb: its name flag (sometimes left out, or --all),
    each flag the named entry takes most of the time and any other flag of
    the verb now and then."""
    verb = draw(st.sampled_from(tuple(_VERB_FLAGS)))
    name_flag, names, flags = _VERB_FLAGS[verb]
    name = draw(st.sampled_from(tuple(names)))
    argv = [verb]
    if draw(st.integers(0, 9)):
        argv.append(f"{name_flag}={name}")
    elif verb == "verify" and draw(st.booleans()):
        argv.append("--all")
    taken = {f"--{cli._flag(p)}" for p in getattr(names[name], "params", ())} | {"--order", "--max-n"}
    for flag in flags:
        if draw(st.integers(0, 19)) < (19 if flag in taken else 1):
            argv.append(f"{flag}={draw(_FLAG_WORDS[flag])}")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
@example(argv=["verify", "--identity=chain-stirling", "--ks=2", "--lambda=1/2", "--x=0"])
@example(argv=["numbers", "--family=carlitz", "--r=0", "--lambda=1/3"])
@example(argv=["verify", "--identity=li-ones", "--r=0"])
@example(argv=["stirling", "--kind=second", "--max-n=-1"])
def test_no_invocation_exits_three(capsys, argv):
    # exit 3 means a broken invariant: whatever the words, a call either
    # runs (0, or 1 for a failing report) or is refused as a usage error (2)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2) and "internal error" not in err, (argv, err)
    assert code != 1 or '"status": "fail"' in out, argv


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "numbers", "--family", "poly", "--k", "1",
                       "--order", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["values"][2] == "1/6"
    # an unwritable path is an environment error, not a failed verification
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "numbers", "--family", "poly", "--k", "1",
                         "--order", "3", "--output", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_defaults_are_echoed(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "li-ones", "--r", "2")
    assert code == 0
    assert json.loads(out)["params"]["order"] == 16
    code, out, _ = run(capsys, "numbers", "--family", "poly", "--k", "3")
    assert json.loads(out)["order"] == 16


def test_verify_all_sweep_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--all", "--order", "6", "--truncate", "6")
    assert code == 0
    reports = json.loads(out1)
    assert {r["identity"] for r in reports} >= {
        "li-ones", "expansion", "deriv", "chain-stirling",
        "resummation", "difference", "addition",
    }
    assert all(r["status"] in ("pass", "diagnostic") for r in reports)
    code, out2, _ = run(capsys, "verify", "--all", "--order", "6", "--truncate", "6")
    assert out1 == out2


def test_verify_all_parallel_matches_serial(capsys):
    code, serial, _ = run(capsys, "verify", "--all", "--order", "5", "--truncate", "4")
    assert code == 0
    code, parallel, _ = run(capsys, "verify", "--all", "--order", "5", "--truncate", "4",
                            "--jobs", "2")
    assert code == 0
    assert serial == parallel


def test_verify_fail_exits_one(capsys, monkeypatch):
    # no true identity can fail, so force a failing report through the seam
    from polybern.verify import ReportRow, VerificationReport

    fake = VerificationReport(
        identity="li-ones", params={"r": 2, "order": 4},
        rows=(ReportRow("log-power", 0, Fraction(1), Fraction(2)),),
    )
    monkeypatch.setattr("polybern.verify.verify_li_ones", lambda r, order: fake)
    code, out, _ = run(capsys, "verify", "--identity", "li-ones", "--r", "2", "--order", "4")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_a_single_verify_call_reads_its_verdict_once(capsys, monkeypatch):
    # the output's "status" and the exit code come from one read
    from polybern.verify import VerificationReport

    reads = []
    status = VerificationReport.status
    monkeypatch.setattr(VerificationReport, "status", property(lambda report: reads.append(1) or status.fget(report)))
    code, out, _ = run(capsys, "verify", "--identity=expansion", "--ks=2,1", "--lambda=1/3", "--x=1/2", "--order=8")
    assert (code, json.loads(out)["status"]) == (0, "pass")
    assert len(reads) == 1


def test_internal_invariant_violation_exits_three(capsys, monkeypatch):
    from polybern.series import ValuationError

    def boom(*args, **kwargs):
        raise ValuationError("valuation too small")

    monkeypatch.setattr("polybern.families.degenerate_multi_poly_bernoulli", boom)
    code, _, err = run(capsys, "numbers", "--family", "degen-multi-poly",
                       "--ks", "1,2", "--lambda", "1/3", "--x", "0")
    assert code == 3
    assert "internal error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("error", [KeyError("lost"), ValueError("lost")], ids=["KeyError", "ValueError"])
def test_unexpected_exception_exits_three(capsys, monkeypatch, error):
    # only an ArgumentError is a refusal: any other exception inside the
    # library, a plain ValueError included, is an internal error
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr("polybern.families._gf_values", boom)
    code, out, err = run(capsys, "numbers", "--family", "poly", "--k", "1", "--order", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and len(err.splitlines()) == 1


def test_jobs_clamped_to_tasks_and_cpus(capsys, monkeypatch):
    import polybern.cli as cli

    # the CPUs of the affinity mask, not the machine's, where os reads a mask
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._worker_count(500, 17) == 2
    assert cli._worker_count(0, 17) == 1
    # else the machine's
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._worker_count(500, 17) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(500, 17) == 1

    # the sweep sizes its pool by the clamp; the pool is replaced by an
    # in-process recorder, so no worker process is started
    requested = []

    class Recorder:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    code, _, _ = run(capsys, "verify", "--all", "--order", "3", "--truncate", "2", "--jobs", "500")
    assert code == 0
    assert requested == [len(cli._sweep_tasks(3, 2))]


def test_a_one_cpu_mask_runs_the_sweep_without_a_pool(capsys, monkeypatch):
    import polybern.cli as cli

    # a machine of many CPUs, of which the affinity mask allows this process one
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    started = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: started.append(max_workers))
    code, out, _ = run(capsys, "verify", "--all", "--order", "3", "--truncate", "2", "--jobs", "2")
    assert code == 0 and started == []
    assert out == run(capsys, "verify", "--all", "--order", "3", "--truncate", "2")[1]


def test_pool_modules_load_only_on_first_access():
    # a fresh interpreter: this one has loaded the pool's modules already
    check = """if True:
        import sys
        import polybern, polybern.cli as cli
        assert not {"concurrent.futures", "multiprocessing"} & set(sys.modules), sorted(sys.modules)
        import concurrent.futures
        assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
        assert "ProcessPoolExecutor" in vars(cli)
        assert not hasattr(cli, "no_such_name")
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_output_is_replaced_atomically(tmp_path, capsys):
    target = tmp_path / "table.json"
    target.write_text("old\n")
    umask = os.umask(0)
    os.umask(umask)
    code, out, _ = run(capsys, "numbers", "--family=poly", "--k=1", "--order=3", f"--output={target}")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["values"][2] == "1/6"
    assert os.listdir(tmp_path) == ["table.json"]
    fresh = tmp_path / "fresh.json"
    assert run(capsys, "stirling", "--kind=second", "--max-n=3", f"--output={fresh}")[0] == 0
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


def test_failed_output_rename_keeps_old_content(tmp_path, capsys, monkeypatch):
    target = tmp_path / "table.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, "numbers", "--family=poly", "--k=1", "--order=3", f"--output={target}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["table.json"]


POLY_TABLE = ("numbers", "--family=poly", "--k=1", "--order=3")


def test_output_through_a_symlink_updates_its_target(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    real = data / "table.json"
    real.write_text("old\n")
    real.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run(capsys, *POLY_TABLE, f"--output={link}")[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert json.loads(real.read_text())["values"][2] == "1/6"
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert os.listdir(data) == ["table.json"]


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code = run(capsys, *POLY_TABLE, f"--output={fifo}")[0]
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(received[0])["values"][2] == "1/6"
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.parametrize("refused", ["open", "fchown"])
def test_output_is_written_in_place_when_no_replacement_is_allowed(tmp_path, capsys, monkeypatch, refused):
    # a directory that takes no new file, or an owner the new file may not take
    target = tmp_path / "table.json"
    target.write_text("old\n")
    inode = target.stat().st_ino

    def refuse(*args, **kwargs):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, refused, refuse)
    assert run(capsys, *POLY_TABLE, f"--output={target}")[0] == 0
    assert target.stat().st_ino == inode
    assert json.loads(target.read_text())["values"][2] == "1/6"
    assert os.listdir(tmp_path) == ["table.json"]


@pytest.mark.parametrize("separate, joined", [
    (("numbers", "--family", "degen-multi-poly", "--ks", "-1,2", "--lambda", "-1/3", "--x", "-1/2",
      "--order", "5"),
     ("numbers", "--family", "degen-multi-poly", "--ks=-1,2", "--lambda=-1/3", "--x=-1/2",
      "--order", "5")),
    (("verify", "--identity", "addition", "--ks", "2,-1", "--lambda", "-1/3", "--x", "-1/2",
      "--y", "-2", "--order", "4"),
     ("verify", "--identity", "addition", "--ks", "2,-1", "--lambda=-1/3", "--x=-1/2",
      "--y=-2", "--order", "4")),
    (("series", "--name", "polyexp", "--k", "-2", "--order", "5"),
     ("series", "--name", "polyexp", "--k=-2", "--order", "5")),
    (("numbers", "--family", "poly", "--k", "-2", "--x", "-1/3", "--order", "4", "--format", "csv"),
     ("numbers", "--family", "poly", "--k=-2", "--x=-1/3", "--order", "4", "--format", "csv")),
])
def test_negative_values_as_separate_words(capsys, separate, joined):
    code, out, err = run(capsys, *separate)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *joined)


def _fail_if_called(*args, **kwargs):
    raise AssertionError("a refused call must do no work")


def _fail_if_kernels_called(monkeypatch):
    """Make every kernel under the library's series, family and identity
    entries fail if called, so that a refusal shows it came before any
    work."""
    for name in ("families._gf_values", "verify._polylog_family", "verify._multi_polylog_ints",
                 "verify.multi_polylog", "verify._m_series", "verify.degenerate_multi_poly_bernoulli"):
        monkeypatch.setattr(f"polybern.{name}", _fail_if_called)


# -- every refusal, and every call admitted at a cap or least value ---------------

_ORDER, _TRUNCATE, _DEPTH = cli.MAX_ORDER, cli.MAX_M_TRUNCATION, cli.MAX_DEPTH
_WEIGHT, _TERM = cli.MAX_INDEX_WEIGHT, cli.MAX_RATIONAL_TERM
_ONES, _MORE_ONES = ",".join(["1"] * _DEPTH), ",".join(["1"] * (_DEPTH + 1))
_M_SERIES = ("resummation", "difference")
_AT_LEAST_DEPTH_2 = ("chain-stirling", *_M_SERIES)
# calls that take one rational flag, named last: the flag at and past MAX_RATIONAL_TERM
_RATIONAL_CALLS = [
    (("series", "--name=degenerate-exp", "--x=1/2", "--order=2"), "lambda"),
    (("series", "--name=degenerate-exp", "--lambda=1/2", "--order=2"), "x"),
    (("numbers", "--family=degen-multi-poly", "--ks=1,2", "--x=1/2", "--order=2"), "lambda"),
    (("numbers", "--family=type2-poly", "--k=2", "--order=2"), "x"),
    (("numbers", "--family=carlitz", "--r=2", "--lambda=1/3", "--order=2"), "x"),
    (("verify", "--identity=expansion", "--ks=2,1", "--lambda=1/3", "--order=2"), "x"),
    (("verify", "--identity=addition", "--ks=2,1", "--lambda=1/3", "--x=1/2", "--order=2"), "y"),
    (("verify", "--identity=difference", "--ks=2,-1", "--lambda=1/3", "--order=2"), "x"),
    (("verify", "--identity=chain-stirling", "--ks=2,1", "--x=1/2", "--order=2"), "lambda"),
]
# each verb's selector, table and per-entry flags (numbers gives --x the
# default 0, and every family takes it), and a value for each flag
_VERB_TABLES = (("series", "--name", cli.SERIES, ("ks", "k", "x", "lambda")),
                ("numbers", "--family", cli.FAMILIES, ("ks", "k", "r", "lambda")),
                ("verify", "--identity", cli.IDENTITIES, ("ks", "r", "lambda", "x", "y", "truncate", "jobs")))
_FLAG_VALUES = {"ks": "2,1", "k": "2", "r": "2", "lambda": "1/3", "x": "1/2", "y": "1/3", "truncate": "3", "jobs": "2"}

# (argv, message, where the refusal happens): "argparse"; "cli", its caps
# and flag checks; "library", a value below the library's least; "all", a
# verify --all point, serially and from a two-worker pool
REFUSED = [
    (("numbers", "--family", "degen-multi-poly", "--ks", "1,2", "--lambda", "1/0", "--x", "0"),
     "argument --lambda: zero denominator in '1/0'", "argparse"),
    (("numbers", "--family=poly", "--k=1", "--x=1/0", "--order=2"), "argument --x: zero denominator in '1/0'",
     "argparse"),
    (("numbers", "--family=poly", "--k=1", "--x=1.5", "--order=2"), "argument --x: not a rational literal: '1.5'",
     "argparse"),
    *[(("numbers", "--family", "multi-poly", f"--ks={ks}"),
       f"argument --ks: ks must be comma-separated integers, got {ks!r}", "argparse") for ks in ("1,a", "", ",")],
    (("numbers", "--family", "poly", "--k", "1", "--bogus", "3"), "unrecognized arguments: --bogus 3", "argparse"),
    *[((*argv, "--format=csv"), "argument --format: invalid choice: 'csv'", "argparse")
      for argv in (("series", "--name=log1p", "--order=4"), ("verify", "--identity=li-ones", "--r=2", "--order=4"),
                   ("verify", "--all", f"--order={_ORDER}"))],
    (("verify",), "verify needs --identity or --all", "cli"),
    (("verify", "--all", "--identity=li-ones"), "--all and --identity are mutually exclusive", "cli"),
    (("verify", "--identity", "expansion", "--order", "4"), "expansion needs --ks and --lambda and --x", "cli"),
    *[((*argv, f"--order={_ORDER + 1}"), f"order must be at most {_ORDER}", "cli")
      for argv in (("series", "--name=one-minus-exp-neg"), ("numbers", "--family=poly", "--k=1"),
                   ("verify", "--identity=li-ones", "--r=2"), ("verify", "--all"))],
    # --all runs its own points: it takes every per-identity flag but --truncate
    *[(("verify", "--all", *flags), f"--all runs its own points and takes no {named}", "cli")
      for flags, named in ((("--ks=1,2",), "--ks"), (("--r=2",), "--r"), (("--lambda=1/3",), "--lambda"),
                           (("--x=0",), "--x"), (("--y=1/2", "--jobs=2"), "--y"),
                           (("--x=0", "--ks=2,1"), "--ks or --x"))],
    # a single call, given every flag its entry takes and one flag more
    *[((verb, f"{selector}={name}", "--order=2",
        *(f"--{cli._flag(p)}={_FLAG_VALUES[cli._flag(p)]}" for p in entry.params), f"--{flag}={_FLAG_VALUES[flag]}"),
       f"{name} takes no --{flag}", "cli")
      for verb, selector, table, flags in _VERB_TABLES for name, entry in table.items()
      for flag in flags if flag not in map(cli._flag, entry.params)],
    *[((*argv, past), f"depth (--ks length or --r) must be at most {_DEPTH}", "cli") for argv, past in (
        (("numbers", "--family=degen-multi-poly", "--lambda=1/3", "--order=2"), f"--ks={_MORE_ONES}"),
        (("series", "--name=multi-polylog", "--order=2"), f"--ks={_MORE_ONES}"),
        (("verify", "--identity=deriv", "--order=2"), f"--ks={_MORE_ONES}"),
        (("verify", "--identity=chain-stirling", "--lambda=1/3", "--x=0", "--order=0"), f"--ks={_MORE_ONES}"),
        (("numbers", "--family=carlitz", "--lambda=1/3", "--order=2"), f"--r={_DEPTH + 1}"),
        (("verify", "--identity=li-ones", "--order=2"), f"--r={_DEPTH + 1}"))],
    # the weight is the sum of |k_i| (or |k|), whatever the signs; the last
    # index of the m-series identities has its own bound and is not counted
    *[((*argv, past), f"index weight (sum of |k_i| or |k|) must be at most {_WEIGHT}", "cli") for argv, past in (
        (("numbers", "--family=degen-multi-poly", "--lambda=1/3", "--order=2"),
         f"--ks={_WEIGHT // 2},-{_WEIGHT // 2 + 1}"),
        (("series", "--name=polyexp", "--order=2"), f"--k={_WEIGHT + 1}"),
        (("numbers", "--family=type2-poly", "--order=2"), f"--k=-{_WEIGHT + 1}"),
        (("verify", "--identity=deriv", "--order=2"), f"--ks=1,{_WEIGHT}"),
        (("verify", "--identity=resummation", "--lambda=1/3", "--x=0", "--order=1"), f"--ks={_WEIGHT + 1},-1"))],
    *[((*argv, f"--truncate={_TRUNCATE + 1}"), f"truncate must be at most {_TRUNCATE}", "cli")
      for argv in (("verify", "--identity=resummation", "--ks=1,-2", "--lambda=1/3", "--x=0", "--order=2"),
                   ("verify", "--all"))],
    *[(("verify", "--all", "--order=2", jobs), "jobs must be at least 1", "cli")
      for jobs in ("--jobs=0", "--jobs=-3")],
    *[((*argv, f"--{flag}={value}"), f"--{flag} needs |numerator| and denominator at most {_TERM}", "cli")
      for argv, flag in _RATIONAL_CALLS
      for value in (_TERM + 1, -_TERM - 1, f"1/{_TERM + 1}", f"-{_TERM + 1}/{_TERM}")],
    (("stirling", "--kind=second", f"--max-n={cli.MAX_STIRLING_N + 1}"), f"max-n must be at most {cli.MAX_STIRLING_N}",
     "cli"),
    # k_r <= 0 sums -k_r + 1 terms whatever --truncate says
    *[(("verify", f"--identity={identity}", "--lambda=1/3", "--x=0", "--order=1", f"--ks=1,-{_TRUNCATE + 1}"),
       f"{identity} with k_r <= 0 sums -k_r + 1 terms; -k_r must be at most {_TRUNCATE}", "cli")
      for identity in _M_SERIES],
    *[(("verify", f"--identity={identity}", "--ks=2,2,1", "--lambda=1/3", "--x=0", "--order=64",
        f"--truncate={_TRUNCATE}"),
       f"{identity} needs order * max(-k_r, k_r + truncate) at most {cli.MAX_M_SERIES_SIZE}", "cli")
      for identity in _M_SERIES],
    (("numbers", "--family=carlitz", "--lambda=1/3", "--x=0", "--order=2", "--r=0"), "r must be at least 1",
     "library"),
    (("verify", "--identity=li-ones", "--order=2", "--r=0"), "r must be at least 1", "library"),
    (("verify", "--identity=deriv", "--ks=2", "--order=0"), "order must be at least 1", "library"),
    (("verify", "--identity=difference", "--ks=2,1", "--lambda=1/3", "--x=0", "--order=0"), "order must be at least 1",
     "library"),
    *[(("verify", f"--identity={identity}", "--lambda=1/3", "--x=0", "--order=2", "--ks=2"),
       f"{identity} check needs depth r >= 2", "library") for identity in _AT_LEAST_DEPTH_2],
    (("stirling", "--kind=second", "--max-n=-1"), "max_n must be non-negative", "library"),
    # also where k_r <= 0 would ignore the truncation
    *[((*argv, "--truncate=-1"), "m truncation must be non-negative", "library")
      for argv in (("verify", "--identity=resummation", "--ks=1,-2", "--lambda=1/3", "--x=0", "--order=2"),
                   ("verify", "--identity=difference", "--ks=2,-1", "--lambda=1/3", "--x=0", "--order=2"))],
    # --all checks no least value ahead of its points: its first deriv point
    # refuses order 0, and its first m-series point a negative truncation
    *[(("verify", "--all", "--order=0", jobs), "order must be at least 1", "all")
      for jobs in ("--jobs=1", "--jobs=2")],
    *[(("verify", "--all", f"--order={_ORDER}", jobs, "--truncate=-1"), "m truncation must be non-negative", "all")
      for jobs in ("--jobs=1", "--jobs=2")],
]

# (argv, the output fields it checks, each as its keys and value): every
# call admitted at a least value or a cap, beside a refusal of REFUSED
ADMITTED = [
    (("numbers", "--family=carlitz", "--lambda=1/3", "--x=0", "--order=2", "--r=1"), ()),
    (("verify", "--identity=li-ones", "--order=2", "--r=1"), ()),
    (("verify", "--identity=deriv", "--ks=2", "--order=1"), ()),
    (("verify", "--identity=difference", "--ks=2,1", "--lambda=1/3", "--x=0", "--order=1"), ()),
    *[(("verify", f"--identity={identity}", "--lambda=1/3", "--x=0", "--order=2", "--ks=2,1"), ())
      for identity in _AT_LEAST_DEPTH_2],
    (("verify", "--all", "--order=1"), ()),
    (("series", "--name=one-minus-exp-neg", f"--order={_ORDER}"), (("order", _ORDER),)),
    (("numbers", "--family=degen-multi-poly", "--lambda=1/3", "--order=2", f"--ks={_ONES}"), ()),
    (("series", "--name=multi-polylog", "--order=2", f"--ks={_ONES}"), ()),
    (("verify", "--identity=deriv", "--order=2", f"--ks={_ONES}"), ()),
    (("numbers", "--family=carlitz", "--lambda=1/3", "--order=2", f"--r={_DEPTH}"), ()),
    (("verify", "--identity=li-ones", "--order=2", f"--r={_DEPTH}"), ()),
    (("numbers", "--family=degen-multi-poly", "--lambda=1/3", "--order=2",
      f"--ks={_WEIGHT // 2},-{_WEIGHT // 2}"), ()),
    (("series", "--name=polyexp", "--order=2", f"--k={_WEIGHT}"), ()),
    (("numbers", "--family=type2-poly", "--order=2", f"--k=-{_WEIGHT}"), ()),
    (("verify", "--identity=deriv", "--order=2", f"--ks=1,{_WEIGHT - 1}"), ()),
    (("verify", "--identity=resummation", "--lambda=1/3", "--x=0", "--order=1", f"--ks={_WEIGHT},-{_TRUNCATE}"), ()),
    *[(("verify", "--identity=resummation", "--ks=1,-2", "--lambda=1/3", "--x=0", "--order=2", f"--truncate={t}"), ())
      for t in (_TRUNCATE, 0)],
    *[((*argv, f"--{flag}={value}"), ())
      for argv, flag in _RATIONAL_CALLS for value in (_TERM, -_TERM, f"{_TERM - 1}/{_TERM}", f"-1/{_TERM}")],
    (("stirling", "--kind=second", f"--max-n={cli.MAX_STIRLING_N}"), (("max_n", cli.MAX_STIRLING_N),)),
    *[(("verify", f"--identity={identity}", "--lambda=1/3", "--x=0", "--order=1", f"--ks=1,-{_TRUNCATE}"),
       (("params", "m_truncation", _TRUNCATE),)) for identity in _M_SERIES],
    # order * -k_r at MAX_M_SERIES_SIZE
    (("verify", "--identity=difference", f"--ks=2,-{cli.MAX_M_SERIES_SIZE // 48}", "--lambda=1/3", "--x=0",
      "--order=48"), ()),
    # the chain weights cost one prefix sum per index, so the depth and the
    # order caps bound the call, whatever the number of chains
    (("verify", "--identity=chain-stirling", "--ks=3,2,1", "--lambda=-7/9", "--x=8/9", f"--order={_ORDER}"), ()),
    (("verify", "--identity=chain-stirling", "--ks=" + ",".join(["2"] * _DEPTH), "--lambda=-7/9", "--x=8/9",
      f"--order={_ORDER}"), (("status", "pass"),)),
]


def _ids(rows):
    return [" ".join(row[0]) for row in rows]


def test_each_call_is_one_row():
    argvs = [row[0] for row in REFUSED + ADMITTED]
    assert len(set(argvs)) == len(argvs)


@pytest.mark.parametrize("argv, message, where", REFUSED, ids=_ids(REFUSED))
def test_each_refusal_exits_two_before_any_work(capsys, monkeypatch, argv, message, where):
    # the work each place must refuse ahead of is replaced; a verify --all
    # point is refused inside the sweep, where nothing is replaced
    if where == "argparse":
        for verb in ("series", "numbers", "stirling", "verify"):
            monkeypatch.setattr(cli, f"_cmd_{verb}", _fail_if_called)
    elif where == "cli":
        for table in (cli.SERIES, cli.FAMILIES, cli.IDENTITIES):
            for entry in table.values():
                monkeypatch.setattr(f"polybern.{entry.function}", _fail_if_called)
        monkeypatch.setattr(cli, "stirling_table", _fail_if_called)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _fail_if_called)
    elif where == "library":
        _fail_if_kernels_called(monkeypatch)
        monkeypatch.setattr("polybern.special.StirlingTable", _fail_if_called)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    [line] = [line for line in err.splitlines() if "error" in line]
    if where == "argparse":
        # argparse's own line, after its usage; the list of choices it
        # appends to an invalid one is worded by the Python version
        assert line.startswith((f"polybern: error: {message}", f"polybern {argv[0]}: error: {message}")), err
    else:
        assert err.startswith(f"error: {message}\n"), err


@pytest.mark.parametrize("argv, shown", ADMITTED, ids=_ids(ADMITTED))
def test_each_call_at_a_cap_or_least_value_runs(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    data = json.loads(out)
    for *keys, value in shown:
        assert functools.reduce(lambda item, key: item[key], keys, data) == value, keys


def test_m_series_size_bound():
    def check(identity, kwargs):
        cli._check_identity_size(cli.IDENTITIES[identity], kwargs, identity)

    # order * max(-k_r, k_r + truncate) may reach the bound, not pass it
    check("resummation", {"ks": (2, 1), "order": 48, "m_truncation": 127})
    check("difference", {"ks": (2, -128), "order": 48, "m_truncation": 0})
    for identity, ks, truncate in (("resummation", (2, 1), 128), ("difference", (2, -129), 0)):
        with pytest.raises(ArgumentError, match=str(cli.MAX_M_SERIES_SIZE)):
            check(identity, {"ks": ks, "order": 48, "m_truncation": truncate})


def test_size_bounds_admit_the_sweep_at_the_caps():
    for identity, kwargs in cli._sweep_tasks(cli.MAX_ORDER, cli.MAX_M_TRUNCATION):
        cli._check_identity_size(cli.IDENTITIES[identity], kwargs, identity)
        cli._check_indices(cli.IDENTITIES[identity], kwargs)


def test_tables_match_the_functions(monkeypatch):
    # an entry names a function defined in the module it names, which a
    # call looks up there each time; params follow the signature: their
    # order is that of the echoed params and of the missing-flag message; a
    # sweep point sets every one of them but m_truncation, which --all
    # takes from --truncate; every public verify_* function has exactly one
    # identity entry
    checks = [name for name, obj in vars(verify).items()
              if name.startswith("verify_") and inspect.isfunction(obj) and obj.__module__ == verify.__name__]
    assert sorted(entry.function for entry in cli.IDENTITIES.values()) == sorted(f"verify.{c}" for c in checks)
    for table in (cli.SERIES, cli.FAMILIES, cli.IDENTITIES):
        for name, entry in table.items():
            module, function = entry.function.split(".")
            resolved = cli._function(entry)
            assert (resolved.__module__, resolved.__name__) == (f"polybern.{module}", function), name
            signature = inspect.signature(resolved)
            assert entry.params == tuple(p for p in signature.parameters if p != "order"), name
            for _, point in entry.sweep:
                assert set(point) == set(entry.params) - {"m_truncation"}, (name, point)
            monkeypatch.setattr(f"polybern.{entry.function}", _fail_if_called)
            assert cli._function(entry) is _fail_if_called, name


def test_every_entry_parameter_has_a_flag():
    # a verb declares a flag for each FLAG_TYPES parameter its table names,
    # and verify declares the FLAG_DEFAULTS ones by hand: a parameter in
    # neither would get no flag, and every call of its entry would be
    # refused with "needs --<param>"
    for table in (cli.SERIES, cli.FAMILIES, cli.IDENTITIES):
        for name, entry in table.items():
            for param in entry.params:
                assert param in cli.FLAG_TYPES or param in cli.FLAG_DEFAULTS, (name, param)


def test_largest_admitted_value_fits_the_int_string_limit(capsys):
    # the most digits seen at the caps and bounds: every integer of the
    # report must stay below Python's int-to-string limit, else the call
    # would compute and then exit 2
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    code, out, err = run(capsys, "verify", "--identity=resummation", "--ks=32,48", "--truncate=0",
                         f"--order={cli.MAX_ORDER}", f"--lambda=-{cli.MAX_RATIONAL_TERM}",
                         f"--x=-{cli.MAX_RATIONAL_TERM}/251")
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"\d+", out))) < limit
    code, out, err = run(capsys, "verify", "--identity=chain-stirling",
                         "--ks=" + ",".join(["0"] * (cli.MAX_DEPTH - 1) + [str(cli.MAX_INDEX_WEIGHT)]),
                         f"--order={cli.MAX_ORDER}", f"--lambda=-{cli.MAX_RATIONAL_TERM}",
                         f"--x=-{cli.MAX_RATIONAL_TERM}/251")
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"\d+", out))) < limit


# -- the JSON writer -------------------------------------------------------------

# strings built mostly from the characters an encoder must escape, or that a
# %-template or a format string would read
_ESCAPED = '"\\\n\t\x00\x1f\x7f%{}é€\U0001f600 a'
_texts = st.text(alphabet=st.sampled_from(_ESCAPED), max_size=6) | st.text(max_size=4)
_json_scalars = st.none() | st.booleans() | st.integers() | st.integers(max_value=-2**200) | _texts


@st.composite
def _same_keyed_rows(draw):
    keys = draw(st.lists(_texts, min_size=0, max_size=4, unique=True))
    return [dict(zip(keys, draw(st.tuples(*[_json_scalars] * len(keys))))) for _ in range(draw(st.integers(0, 4)))]


_json_values = st.recursive(
    _json_scalars | _same_keyed_rows(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_texts, inner, max_size=4) | st.lists(st.integers(), max_size=4)
                   | st.lists(_texts, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(value=_json_values)
@example(value=[{}, []])
@example(value=[[{}], {"": []}, [[]]])
@example(value=[True, 1, False, 0, None])
@example(value=[{"a": 1}, {"b": 2}])
@example(value=[{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example(value=[{"a": 1}, {"a": [1]}])
@example(value=[{'"%s{}\\': 1, "\x00é": "%d {0}"}, {'"%s{}\\': None, "\x00é": True}])
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(rows=_same_keyed_rows())
@example(rows=[{}, {}])
@example(rows=[])
def test_json_writer_renders_value_rows_as_their_objects(rows):
    keys = tuple(rows[0]) if rows else ("n",)
    values = [tuple(row.values()) for row in rows]
    assert cli._json_text({"rows": cli._Rows(keys, values)}) == json.dumps({"rows": rows}, indent=2)


@pytest.mark.parametrize("report", [
    functools.partial(verify.verify_li_ones, 2, 3),
    functools.partial(verify.verify_difference, (1, 1), Fraction(1, 2), 0, 2, 3),
])
def test_json_writer_renders_report_rows_as_value_rows(report):
    # each report is built here, not at import, so a fault on its path
    # fails this test alone instead of the collection of the module
    report = report()
    value = cli._json_value(report)
    rows = oracles.json_dict(report)["rows"]
    assert type(value["rows"]) is cli._Rows
    assert cli._json_text(value["rows"]) == json.dumps(rows, indent=2)


def test_json_writer_holds_a_large_text_about_twice():
    # the pieces are joined once, so the peak is about the pieces plus the
    # text; a writer that returned each level's text would peak at three
    # times the text
    value = cli._json_value(stirling_table("first_signed", 120))
    tracemalloc.start()
    try:
        text = cli._json_text(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {"a": {1, 2}}, [1, b"x"], {1: "one"},
                                   [{"a": 1}, {"a": object()}], cli._Rows(("a",), [(Fraction(1),)])])
def test_json_writer_refuses_non_json_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# -- each result's output, built from its fields, against the oracle's ------------

_orders = st.integers(0, 8)
_ks = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)
_ks2 = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(tuple)
_truncations = st.integers(0, 8)
_reports = st.one_of(
    st.builds(verify.verify_li_ones, st.integers(1, 3), _orders),
    st.builds(verify.verify_deriv_recurrences, _ks, st.integers(1, 8)),
    st.builds(verify.verify_chain_stirling, _ks2, _ratios, _ratios, _orders),
    st.builds(verify.verify_polynomial_expansion, _ks, _ratios, _ratios, _orders),
    st.builds(verify.verify_addition, _ks, _ratios, _ratios, _ratios, _orders),
    # k_r <= 0 gives an exact report, k_r >= 1 a diagnostic one
    st.builds(verify.verify_resummation, _ks2, _ratios, _ratios, _orders, _truncations),
    st.builds(verify.verify_difference, _ks2, _ratios, _ratios, st.integers(1, 8), _truncations),
    # any rows, so that some reports fail
    st.builds(lambda check, rows: verify.VerificationReport(check, {"order": len(rows)}, tuple(rows)), _texts,
              st.lists(st.builds(verify.ReportRow, _texts, _orders, _ratios, _ratios), max_size=3)),
)
_tables = st.one_of(
    st.builds(families.degenerate_multi_poly_bernoulli, _ks | st.just(()), _ratios, _ratios, _orders),
    st.builds(families.multi_poly_bernoulli, _ks, _ratios, _orders),
    st.builds(families.poly_bernoulli, st.integers(-3, 3), _ratios, _orders),
    st.builds(families.type2_poly_bernoulli, st.integers(-3, 3), _ratios, _orders),
    st.builds(families.carlitz_degenerate, st.integers(1, 3), _ratios, _ratios, _orders),
    st.builds(stirling_table, st.sampled_from(STIRLING_KINDS), _orders),
)


@settings(max_examples=150, deadline=None)
@given(result=_reports | _tables)
def test_each_result_renders_as_the_oracle_builds_it(result):
    assert cli._json_text(cli._json_value(result)) == json.dumps(oracles.json_dict(result), indent=2)
    if not isinstance(result, verify.VerificationReport):
        assert cli._csv_text(result) == oracles.csv_text(result)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(tuple(cli.SERIES)), ks=_ks, k=st.integers(-3, 3), x=_ratios, lam=_ratios,
       order=_orders)
def test_series_head_renders_as_the_oracle_builds_it(name, ks, k, x, lam, order):
    params = cli.SERIES[name].params
    words = {"ks": ",".join(map(str, ks)), "k": k, "x": x, "lam": lam}
    argv = ["series", f"--name={name}", f"--order={order}", *(f"--{cli._flag(p)}={words[p]}" for p in params)]
    head, code = cli._cmd_series(cli._build_parser().parse_args(argv))
    values = {"ks": ks, "k": k, "x": x, "lam": lam}
    series = cli._function(cli.SERIES[name])(**{p: values[p] for p in params}, order=order)
    echoed = {"ks": list(ks), "k": k, "x": f"{x.numerator}/{x.denominator}",
              "lam": f"{lam.numerator}/{lam.denominator}"}
    shown = {"order": order} | {cli._flag(p): echoed[p] for p in params}
    assert code == 0
    assert cli._json_text(cli._json_value(head)) == json.dumps(oracles.series_dict(name, shown, series), indent=2)


@pytest.mark.parametrize("argv", [
    ("verify", "--identity=resummation", "--ks=2,2,1", "--lambda=-7/9", "--x=8/9", "--order=5", "--truncate=20"),
    ("verify", "--identity=difference", "--ks=1,1", "--lambda=1/2", "--x=0", "--order=5", "--truncate=9"),
    ("verify", "--identity=difference", "--ks=1,-1", "--lambda=1/4", "--x=1/2", "--order=6"),
])
def test_library_and_cli_render_a_report_alike(capsys, argv):
    flags = dict(word[2:].split("=") for word in argv[1:])
    check = {"resummation": verify_resummation, "difference": verify_difference}[flags["identity"]]
    report = check(_ks_flag(flags["ks"]), Fraction(flags["lambda"]), Fraction(flags["x"]), int(flags["order"]),
                   int(flags.get("truncate", cli.DEFAULT_M_TRUNCATION)))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    # the stdlib encoder on the oracle's dict of the library's report,
    # against the CLI's own writer
    assert out == json.dumps(oracles.json_dict(report), indent=2) + "\n"
