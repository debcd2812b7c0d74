"""Command-line contract: dispatch, formats, exit codes, round trips."""

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


def test_usage_errors_exit_two(capsys):
    # each refusal exits 2, prints nothing on stdout and names its cause on stderr
    cases = [
        # malformed rationals: a zero denominator and a decimal
        (("numbers", "--family", "degen-multi-poly", "--ks", "1,2", "--lambda", "1/0", "--x", "0"),
         "argument --lambda: zero denominator in '1/0'"),
        (("numbers", "--family=poly", "--k=1", "--x=1/0", "--order=2"), "argument --x: zero denominator in '1/0'"),
        (("numbers", "--family=poly", "--k=1", "--x=1.5", "--order=2"), "argument --x: not a rational literal: '1.5'"),
        # unknown flag
        (("numbers", "--family", "poly", "--k", "1", "--bogus", "3"), "unrecognized arguments: --bogus 3"),
        # missing required per-identity flag
        (("verify", "--identity", "expansion", "--order", "4"), "usage"),
        # identity precondition violation (depth < 2)
        (("verify", "--identity", "chain-stirling", "--ks", "2", "--lambda", "1/2", "--x", "0", "--order", "4"),
         "needs depth r >= 2"),
        # csv requested for nested report output
        (("verify", "--identity", "li-ones", "--r", "2", "--order", "4", "--format", "csv"), "invalid choice: 'csv'"),
        # malformed ks, an empty one included
        *((("numbers", "--family", "multi-poly", f"--ks={ks}"), "ks must be comma-separated integers")
          for ks in ("1,a", "", ",")),
        # negative m truncation on an infinite m-series
        (("verify", "--identity", "difference", "--ks=2,1", "--lambda=1/3", "--x=0", "--order=2", "--truncate=-1"),
         "m truncation must be non-negative"),
    ]
    for argv, fragment in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert fragment in err, argv


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


def test_library_preconditions_are_refused_before_any_work(capsys, monkeypatch):
    # the library refuses each value below its least where it enters, before
    # its kernels run (a Stirling table is not made), and the CLI relays the
    # refusal in the library's words
    _fail_if_kernels_called(monkeypatch)
    monkeypatch.setattr("polybern.special.StirlingTable", _fail_if_called)
    cases = [(("numbers", "--family=carlitz", "--r=0", "--lambda=1/3"), "r must be at least 1"),
             (("verify", "--identity=li-ones", "--r=-1"), "r must be at least 1"),
             (("stirling", "--kind=second", "--max-n=-1"), "max_n must be non-negative")]
    cases += [(("verify", f"--identity={identity}", "--ks=2", "--lambda=1/3", "--x=0", "--order=2"),
               f"{identity} check needs depth r >= 2") for identity in ("chain-stirling", "resummation", "difference")]
    for argv, message in cases:
        _assert_refused(capsys, argv, message)


@pytest.mark.parametrize("argv, flag, below, least, message", [
    (("numbers", "--family=carlitz", "--lambda=1/3", "--x=0", "--order=2"), "--r", "0", "1", "r must be at least 1"),
    (("verify", "--identity=li-ones", "--order=2"), "--r", "0", "1", "r must be at least 1"),
    (("verify", "--identity=deriv", "--ks=2"), "--order", "0", "1", "order must be at least 1"),
    (("verify", "--identity=difference", "--ks=2,1", "--lambda=1/3", "--x=0"), "--order", "0", "1",
     "order must be at least 1"),
    *[(("verify", f"--identity={identity}", "--lambda=1/3", "--x=0", "--order=2"), "--ks", "2", "2,1",
       f"{identity} check needs depth r >= 2") for identity in ("chain-stirling", "resummation", "difference")],
], ids=["carlitz-r", "li-ones-r", "deriv-order", "difference-order",
        "chain-stirling-depth", "resummation-depth", "difference-depth"])
def test_entry_least_values_are_the_library_s(capsys, monkeypatch, argv, flag, below, least, message):
    # the CLI keeps no least order or depth of its own: an entry runs at the
    # library's least, and one below it the library refuses before its
    # kernels run, which the CLI relays as a usage error in its words
    assert run(capsys, *argv, f"{flag}={least}")[0] == 0
    _fail_if_kernels_called(monkeypatch)
    _assert_refused(capsys, (*argv, f"{flag}={below}"), message)


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


def _refused(err):
    first, *rest = err.splitlines()
    return first.startswith("error: ") and not any("error" in line for line in rest)


def _assert_refused(capsys, argv, message):
    """``argv`` exits 2 with nothing on stdout, and its one ``error:``
    line on stderr is ``error: <message>``."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert _refused(err) and f"error: {message}\n" in err, (argv, err)


def test_order_cap(capsys):
    code, out, _ = run(capsys, "series", "--name=one-minus-exp-neg", f"--order={cli.MAX_ORDER}")
    assert code == 0
    assert json.loads(out)["order"] == cli.MAX_ORDER
    for argv in (("series", "--name=one-minus-exp-neg"), ("numbers", "--family=poly", "--k=1"),
                 ("verify", "--identity=li-ones", "--r=2"), ("verify", "--all")):
        code, out, err = run(capsys, *argv, f"--order={cli.MAX_ORDER + 1}")
        assert (code, out) == (2, ""), argv
        assert _refused(err) and f"order must be at most {cli.MAX_ORDER}" in err


def test_least_order_is_refused_before_any_work(capsys, monkeypatch):
    # deriv and difference need order >= 1, and --all runs deriv; --all
    # checks no order ahead of its points, so its first deriv point refuses
    # order 0, serially and from a pool worker
    assert run(capsys, "verify", "--all", "--order=1")[0] == 0
    for jobs in ("--jobs=1", "--jobs=2"):
        _assert_refused(capsys, ("verify", "--all", "--order=0", jobs), "order must be at least 1")
    _fail_if_kernels_called(monkeypatch)
    for argv in (("verify", "--identity=deriv", "--ks=2", "--order=0"),
                 ("verify", "--identity=difference", "--ks=2,1", "--lambda=1/3", "--x=0", "--order=0")):
        _assert_refused(capsys, argv, "order must be at least 1")


def test_verify_all_refuses_the_flags_it_would_ignore(capsys, monkeypatch):
    # --all runs its own points: every per-identity flag but --truncate
    for entry in cli.IDENTITIES.values():
        monkeypatch.setattr(f"polybern.{entry.function}", _fail_if_called)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _fail_if_called)
    for flags, named in ((("--ks=1,2",), "--ks"), (("--r=2",), "--r"), (("--lambda=1/3",), "--lambda"),
                         (("--x=0",), "--x"), (("--y=1/2", "--jobs=2"), "--y"),
                         (("--x=0", "--ks=2,1"), "--ks or --x")):
        code, out, err = run(capsys, "verify", "--all", *flags)
        assert (code, out) == (2, ""), flags
        assert _refused(err) and f"--all runs its own points and takes no {named}" in err


def test_single_calls_refuse_the_flags_their_entry_does_not_take(capsys, monkeypatch):
    # every flag of the verb that the named series, family or identity
    # does not take is refused before any work, one at a time (numbers
    # gives --x the default 0, and every family takes it)
    values = {"ks": "2,1", "k": "2", "r": "2", "lambda": "1/3", "x": "1/2", "y": "1/3",
              "truncate": "3", "jobs": "2"}
    verbs = ((cli.SERIES, "series", "--name", ("ks", "k", "x", "lambda")),
             (cli.FAMILIES, "numbers", "--family", ("ks", "k", "r", "lambda")),
             (cli.IDENTITIES, "verify", "--identity", ("ks", "r", "lambda", "x", "y", "truncate", "jobs")))
    for table, verb, selector, flags in verbs:
        for name, entry in table.items():
            monkeypatch.setattr(f"polybern.{entry.function}", _fail_if_called)
            taken = [cli._flag(p) for p in entry.params]
            argv = (verb, f"{selector}={name}", "--order=2", *(f"--{f}={values[f]}" for f in taken))
            ignored = [f for f in flags if f not in taken]
            assert ignored, name
            for flag in ignored:
                code, out, err = run(capsys, *argv, f"--{flag}={values[flag]}")
                assert (code, out) == (2, ""), (name, flag)
                assert _refused(err) and f"error: {name} takes no --{flag}\n" in err


def test_depth_cap(capsys, monkeypatch):
    d = cli.MAX_DEPTH
    ones, more = ",".join(["1"] * d), ",".join(["1"] * (d + 1))
    cases = [(("numbers", "--family=degen-multi-poly", "--lambda=1/3", "--order=2"), f"--ks={ones}", f"--ks={more}"),
             (("series", "--name=multi-polylog", "--order=2"), f"--ks={ones}", f"--ks={more}"),
             (("verify", "--identity=deriv", "--order=2"), f"--ks={ones}", f"--ks={more}"),
             (("numbers", "--family=carlitz", "--lambda=1/3", "--order=2"), f"--r={d}", f"--r={d + 1}"),
             (("verify", "--identity=li-ones", "--order=2"), f"--r={d}", f"--r={d + 1}")]
    for argv, admitted, _ in cases:
        assert run(capsys, *argv, admitted)[0] == 0, (argv, admitted)
    for name in ("families.degenerate_multi_poly_bernoulli", "special.multi_polylog",
                 "verify.verify_deriv_recurrences", "families.carlitz_degenerate", "verify.verify_li_ones"):
        monkeypatch.setattr(f"polybern.{name}", _fail_if_called)
    for argv, _, refused in cases:
        code, out, err = run(capsys, *argv, refused)
        assert (code, out) == (2, ""), (argv, refused)
        assert _refused(err) and f"depth (--ks length or --r) must be at most {d}" in err


def test_index_weight_cap(capsys, monkeypatch):
    w = cli.MAX_INDEX_WEIGHT
    half = w // 2
    # the weight is the sum of |k_i| (or |k|), whatever the signs; the last
    # index of the m-series identities has its own bound and is not counted
    cases = [(("numbers", "--family=degen-multi-poly", "--lambda=1/3", "--order=2"),
              f"--ks={half},-{w - half}", f"--ks={half},-{w - half + 1}"),
             (("series", "--name=polyexp", "--order=2"), f"--k={w}", f"--k={w + 1}"),
             (("numbers", "--family=type2-poly", "--order=2"), f"--k=-{w}", f"--k=-{w + 1}"),
             (("verify", "--identity=deriv", "--order=2"), f"--ks=1,{w - 1}", f"--ks=1,{w}"),
             (("verify", "--identity=resummation", "--lambda=1/3", "--x=0", "--order=1"),
              f"--ks={w},-{cli.MAX_M_TRUNCATION}", f"--ks={w + 1},-1")]
    for argv, admitted, _ in cases:
        assert run(capsys, *argv, admitted)[0] == 0, (argv, admitted)
    for name in ("families.degenerate_multi_poly_bernoulli", "special.polyexp", "families.type2_poly_bernoulli",
                 "verify.verify_deriv_recurrences", "verify.verify_resummation"):
        monkeypatch.setattr(f"polybern.{name}", _fail_if_called)
    for argv, _, refused in cases:
        code, out, err = run(capsys, *argv, refused)
        assert (code, out) == (2, ""), (argv, refused)
        assert _refused(err) and f"index weight (sum of |k_i| or |k|) must be at most {w}" in err


def test_truncate_cap(capsys, monkeypatch):
    # k_r <= 0 ends the m-sum on its own, so the call at the cap is cheap
    exact = ("verify", "--identity=resummation", "--ks=1,-2", "--lambda=1/3", "--x=0", "--order=2")
    code, out, _ = run(capsys, *exact, f"--truncate={cli.MAX_M_TRUNCATION}")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert run(capsys, *exact, "--truncate=0")[0] == 0
    for argv in (exact, ("verify", "--all")):
        code, out, err = run(capsys, *argv, f"--truncate={cli.MAX_M_TRUNCATION + 1}")
        assert (code, out) == (2, ""), argv
        assert _refused(err) and f"truncate must be at most {cli.MAX_M_TRUNCATION}" in err
    # a negative truncation is refused by the library before any work, also
    # where k_r <= 0 would ignore it; --all meets it at its first
    # resummation point, serially and from a pool worker
    for jobs in ("--jobs=1", "--jobs=2"):
        _assert_refused(capsys, ("verify", "--all", "--order=128", jobs, "--truncate=-1"),
                        "m truncation must be non-negative")
    _fail_if_kernels_called(monkeypatch)
    for argv in (exact, ("verify", "--identity=difference", "--ks=2,-1", "--lambda=1/3", "--x=0", "--order=2")):
        _assert_refused(capsys, (*argv, "--truncate=-1"), "m truncation must be non-negative")


def test_jobs_below_one_is_refused_before_any_work(capsys, monkeypatch):
    for entry in cli.IDENTITIES.values():
        monkeypatch.setattr(f"polybern.{entry.function}", _fail_if_called)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _fail_if_called)
    for jobs in ("--jobs=0", "--jobs=-3"):
        code, out, err = run(capsys, "verify", "--all", "--order=2", jobs)
        assert (code, out) == (2, ""), jobs
        assert _refused(err) and "jobs must be at least 1" in err


def test_rational_flag_bound(capsys, monkeypatch):
    b = cli.MAX_RATIONAL_TERM
    # (argv, flag): each flag at the bound is admitted, past it refused,
    # whether its numerator or its denominator is too large
    cases = [(("series", "--name=degenerate-exp", "--x=1/2", "--order=2"), "lambda"),
             (("series", "--name=degenerate-exp", "--lambda=1/2", "--order=2"), "x"),
             (("numbers", "--family=degen-multi-poly", "--ks=1,2", "--x=1/2", "--order=2"), "lambda"),
             (("numbers", "--family=type2-poly", "--k=2", "--order=2"), "x"),
             (("numbers", "--family=carlitz", "--r=2", "--lambda=1/3", "--order=2"), "x"),
             (("verify", "--identity=expansion", "--ks=2,1", "--lambda=1/3", "--order=2"), "x"),
             (("verify", "--identity=addition", "--ks=2,1", "--lambda=1/3", "--x=1/2", "--order=2"), "y"),
             (("verify", "--identity=difference", "--ks=2,-1", "--lambda=1/3", "--order=2"), "x"),
             (("verify", "--identity=chain-stirling", "--ks=2,1", "--x=1/2", "--order=2"), "lambda")]
    for argv, flag in cases:
        for value in (b, -b, f"{b - 1}/{b}", f"-1/{b}"):
            assert run(capsys, *argv, f"--{flag}={value}")[0] == 0, (argv, flag, value)
    for name in ("special.degenerate_exp", "families.degenerate_multi_poly_bernoulli",
                 "families.type2_poly_bernoulli", "families.carlitz_degenerate",
                 "verify.verify_polynomial_expansion", "verify.verify_addition",
                 "verify.verify_difference", "verify.verify_chain_stirling"):
        monkeypatch.setattr(f"polybern.{name}", _fail_if_called)
    for argv, flag in cases:
        for value in (b + 1, -b - 1, f"1/{b + 1}", f"-{b + 1}/{b}"):
            code, out, err = run(capsys, *argv, f"--{flag}={value}")
            assert (code, out) == (2, ""), (argv, flag, value)
            assert _refused(err) and f"--{flag} needs |numerator| and denominator at most {b}" in err


def test_max_n_cap(capsys):
    code, out, _ = run(capsys, "stirling", "--kind=second", f"--max-n={cli.MAX_STIRLING_N}")
    assert code == 0
    assert json.loads(out)["max_n"] == cli.MAX_STIRLING_N
    code, out, err = run(capsys, "stirling", "--kind=second", f"--max-n={cli.MAX_STIRLING_N + 1}")
    assert (code, out) == (2, "")
    assert _refused(err) and f"max-n must be at most {cli.MAX_STIRLING_N}" in err


def _fail_if_called(*args, **kwargs):
    raise AssertionError("a refused call must do no work")


def _fail_if_kernels_called(monkeypatch):
    """Make every kernel under the library's series, family and identity
    entries fail if called, so that a refusal shows it came before any
    work."""
    for name in ("families._gf_values", "verify._polylog_family", "verify._multi_polylog_ints",
                 "verify.multi_polylog", "verify._m_series", "verify.degenerate_multi_poly_bernoulli"):
        monkeypatch.setattr(f"polybern.{name}", _fail_if_called)


def test_csv_for_nested_output_is_refused_before_any_work(capsys, monkeypatch):
    calls = [("series", "--name=log1p", "--order=4"),
             ("verify", "--identity=li-ones", "--r=2", "--order=4"),
             ("verify", "--all", f"--order={cli.MAX_ORDER}")]
    monkeypatch.setattr(cli, "_cmd_series", _fail_if_called)
    monkeypatch.setattr(cli, "_cmd_verify", _fail_if_called)
    for argv in calls:
        code, out, err = run(capsys, *argv, "--format=csv")
        assert (code, out) == (2, ""), argv
        assert f"polybern {argv[0]}: error: argument --format: invalid choice: 'csv'" in err


def test_m_series_exact_branch_cap(capsys, monkeypatch):
    # k_r <= 0 sums -k_r + 1 terms whatever --truncate says
    for identity in ("resummation", "difference"):
        exact = ("verify", f"--identity={identity}", "--lambda=1/3", "--x=0", "--order=1")
        code, out, _ = run(capsys, *exact, f"--ks=1,-{cli.MAX_M_TRUNCATION}")
        assert code == 0
        assert json.loads(out)["params"]["m_truncation"] == cli.MAX_M_TRUNCATION
        monkeypatch.setattr(f"polybern.verify.verify_{identity}", _fail_if_called)
        code, out, err = run(capsys, *exact, f"--ks=1,-{cli.MAX_M_TRUNCATION + 1}")
        assert (code, out) == (2, ""), identity
        assert _refused(err) and f"-k_r must be at most {cli.MAX_M_TRUNCATION}" in err


def test_m_series_size_bound(capsys, monkeypatch):
    def check(identity, kwargs):
        cli._check_identity_size(cli.IDENTITIES[identity], kwargs, identity)

    # order * max(-k_r, k_r + truncate) may reach the bound, not pass it
    check("resummation", {"ks": (2, 1), "order": 48, "m_truncation": 127})
    check("difference", {"ks": (2, -128), "order": 48, "m_truncation": 0})
    for identity, ks, truncate in (("resummation", (2, 1), 128), ("difference", (2, -129), 0)):
        with pytest.raises(ArgumentError, match=str(cli.MAX_M_SERIES_SIZE)):
            check(identity, {"ks": ks, "order": 48, "m_truncation": truncate})
    for identity in ("resummation", "difference"):
        monkeypatch.setattr(f"polybern.verify.verify_{identity}", _fail_if_called)
        code, out, err = run(capsys, "verify", f"--identity={identity}", "--ks=2,2,1", "--lambda=1/3",
                             "--x=0", "--order=64", "--truncate=160")
        assert (code, out) == (2, ""), identity
        assert _refused(err) and f"at most {cli.MAX_M_SERIES_SIZE}" in err


def test_chain_stirling_at_the_order_cap_is_bounded_by_the_depth(capsys, monkeypatch):
    # the chain weights cost one prefix sum per index, so the depth and the
    # order caps bound the call, whatever the number of chains
    d = cli.MAX_DEPTH
    for ks in ("3,2,1", ",".join(["2"] * d)):
        code, out, err = run(capsys, "verify", "--identity=chain-stirling", f"--ks={ks}",
                             "--lambda=-7/9", "--x=8/9", f"--order={cli.MAX_ORDER}")
        assert (code, err) == (0, ""), ks
        assert json.loads(out)["status"] == "pass", ks
    monkeypatch.setattr("polybern.verify.verify_chain_stirling", _fail_if_called)
    code, out, err = run(capsys, "verify", "--identity=chain-stirling", "--ks=" + ",".join(["1"] * (d + 1)),
                         "--lambda=1/3", "--x=0", "--order=0")
    assert (code, out) == (2, "")
    assert _refused(err) and f"must be at most {d}" in err


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
