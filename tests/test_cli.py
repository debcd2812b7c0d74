"""Command-line contract: dispatch, formats, exit codes, round trips."""

import json
from fractions import Fraction

from polybern.cli import main
from polybern.families import degenerate_multi_poly_bernoulli
from polybern.rationals import parse_rational


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
    # malformed rational (zero denominator)
    code, _, err = run(capsys, "numbers", "--family", "degen-multi-poly",
                       "--ks", "1,2", "--lambda", "1/0", "--x", "0")
    assert code == 2
    # unknown flag
    code, _, err = run(capsys, "numbers", "--family", "poly", "--k", "1", "--bogus", "3")
    assert code == 2
    # missing required per-identity flag
    code, _, err = run(capsys, "verify", "--identity", "expansion", "--order", "4")
    assert code == 2
    assert "usage" in err
    # identity precondition violation (depth < 2)
    code, _, err = run(capsys, "verify", "--identity", "chain-stirling",
                       "--ks", "2", "--lambda", "1/2", "--x", "0", "--order", "4")
    assert code == 2
    # csv requested for nested report output
    code, _, err = run(capsys, "verify", "--identity", "li-ones", "--r", "2",
                       "--order", "4", "--format", "csv")
    assert code == 2
    # malformed ks
    code, _, err = run(capsys, "numbers", "--family", "multi-poly", "--ks", "1,a")
    assert code == 2
    # negative m truncation on an infinite m-series
    code, out, err = run(capsys, "verify", "--identity", "difference", "--ks=2,1",
                         "--lambda=1/3", "--x=0", "--order=2", "--truncate=-1")
    assert code == 2
    assert out == ""


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv("POLYBERN_FORMAT", "csv")
    code, out, _ = run(capsys, "numbers", "--family", "poly", "--k", "1", "--order", "2")
    assert code == 0
    assert out.startswith("n,value")
    monkeypatch.setenv("POLYBERN_FORMAT", "yaml")
    code, _, _ = run(capsys, "numbers", "--family", "poly", "--k", "1", "--order", "2")
    assert code == 2


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
    import polybern.cli as cli
    from polybern.verify import ReportRow, VerificationReport

    fake = VerificationReport(
        identity="li-ones", params={"r": 2, "order": 4}, status="fail",
        rows=(ReportRow("log-power", 0, Fraction(1), Fraction(2), False),),
    )
    monkeypatch.setattr(cli, "verify_li_ones", lambda r, order: fake)
    code, out, _ = run(capsys, "verify", "--identity", "li-ones", "--r", "2", "--order", "4")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_internal_invariant_violation_exits_three(capsys, monkeypatch):
    import polybern.cli as cli
    from polybern.series import ValuationError

    def boom(*args, **kwargs):
        raise ValuationError("valuation too small")

    monkeypatch.setattr(cli, "degenerate_multi_poly_bernoulli", boom)
    code, _, err = run(capsys, "numbers", "--family", "degen-multi-poly",
                       "--ks", "1,2", "--lambda", "1/3", "--x", "0")
    assert code == 3
    assert "internal error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    import polybern.cli as cli

    def boom(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "poly_bernoulli", boom)
    code, out, err = run(capsys, "numbers", "--family", "poly", "--k", "1", "--order", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and len(err.splitlines()) == 1


def test_jobs_clamped_to_tasks_and_cpus(capsys, monkeypatch):
    import polybern.cli as cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._worker_count(500, 17) == 2
    assert cli._worker_count(0, 17) == 1
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
    code, _, _ = run(capsys, "verify", "--all", "--order", "3", "--truncate", "2", "--jobs", "500")
    assert code == 0
    assert requested == [len(cli._sweep_tasks(3, 2))]
