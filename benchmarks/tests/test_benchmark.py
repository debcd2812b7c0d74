"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

polybern = run.import_program()
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _call(argv, tmp_path) -> tuple[int, bytes]:
    out = tmp_path / "out.json"
    code = polybern.cli.main(list(argv) + [f"--output={out}"])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_lists(name):
    first = workloads.op_list(name, 7, SECONDS)
    assert first == workloads.op_list(name, 7, SECONDS)
    assert first != workloads.op_list(name, 8, SECONDS)


@pytest.mark.parametrize("seed", range(5))
def test_table_deep_calls_never_share_lam_and_x(seed):
    pairs = []
    for op in workloads.op_list("table-deep", seed, SECONDS):
        flags = gate._flags(op.argv)
        pairs.append((flags.get("lambda"), flags["x"]))
    assert len(pairs) == len(set(pairs))


def test_negative_values_use_the_equals_form():
    for name in workloads.WORKLOADS:
        for op in workloads.op_list(name, 3, SECONDS):
            assert all(arg.startswith("--") and "=" in arg for arg in op.argv[1:] if arg != "--all")


def test_default_seed_outputs_all_have_references():
    for name in workloads.WORKLOADS:
        refs = run.references(name, 0)
        assert all(op.key in refs for op in workloads.op_list(name, 0, SECONDS))


def test_gate_passes_a_correct_output(tmp_path):
    argv = ("numbers", "--family=degen-multi-poly", "--ks=1,1", "--lambda=-1/3", "--x=1/2", "--order=8")
    code, output = _call(argv, tmp_path)
    assert gate.check(argv, code, output, None) is None


def test_gate_flags_a_corrupted_output(tmp_path):
    argv = ("numbers", "--family=degen-multi-poly", "--ks=2,-1", "--lambda=2/7", "--x=1/2", "--order=8")
    code, output = _call(argv, tmp_path)
    data = json.loads(output)
    data["values"][0] = "1/3"
    corrupted = json.dumps(data, indent=2).encode()
    assert "beta_0" in gate.check(argv, code, corrupted, None)
    assert "SHA-256" in gate.check(argv, code, output + b" ", gate.sha256(output))
    assert "exit code" in gate.check(argv, 2, output, None)


def test_gate_flags_an_all_ones_table_off_the_carlitz_route(tmp_path):
    argv = ("numbers", "--family=degen-multi-poly", "--ks=1,1", "--lambda=1/3", "--x=0", "--order=6")
    code, output = _call(argv, tmp_path)
    data = json.loads(output)
    data["values"][3] = str(Fraction(data["values"][3]) + 1)
    assert "Carlitz" in gate.check(argv, code, json.dumps(data).encode(), None)


def test_gate_flags_a_diagnostic_reported_as_pass(tmp_path):
    argv = ("verify", "--identity=difference", "--ks=1,1", "--lambda=1/2", "--x=0", "--order=3", "--truncate=4")
    code, output = _call(argv, tmp_path)
    assert gate.check(argv, code, output, None) is None
    data = json.loads(output)
    data["status"] = "pass"
    assert "diagnostic" in gate.check(argv, code, json.dumps(data).encode(), None)


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.open("cli.main")                 # 0 .. 10
    child = tracer.open("families.table")           # 1 .. 4
    grandchild = tracer.open("series.compose")      # 2 .. 3
    tracer.close(grandchild)
    tracer.close(child)
    second = tracer.open("series.mul")              # 5 .. 9
    inner = tracer.open("rationals.inv_pow")        # 6 .. 7
    tracer.close(inner)
    tracer.close(second)
    tracer.close(outer)
    assert list(tracer.parents) == [-1, 0, 1, 0, 3]
    assert spans.self_times(tracer.parents, tracer.starts, tracer.ends) == [3.0, 2.0, 1.0, 3.0, 1.0]
    info = spans.summarize(tracer)
    assert info["self_s"] == {"cli": 3.0, "verify": 0.0, "families": 2.0, "series": 4.0,
                              "special": 0.0, "rationals": 1.0, "pool": 0.0}
    assert info["inclusive_s"]["series.compose"] == 1.0
    assert info["root_s"] == sum(info["self_s"].values()) == 10.0


def test_spans_sit_only_at_layer_boundaries(tmp_path):
    tracer = spans.Tracer()
    restore = spans.install(tracer, polybern)
    try:
        code, output = _call(("numbers", "--family=degen-multi-poly", "--ks=2,1", "--lambda=1/3",
                              "--x=0", "--order=6"), tmp_path)
    finally:
        restore()
    assert code == 0
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names[0] == "cli.main" and names.count("cli.main") == 1
    assert names.count("series.compose") == 1
    for index, name in enumerate(names):
        parent = tracer.parents[index]
        if parent >= 0:
            assert names[parent].split(".")[0] != name.split(".")[0], (names[parent], name)
    info = spans.summarize(tracer)
    assert abs(info["root_s"] - sum(info["self_s"].values())) < 1e-9
    assert tracer.family_calls == 1 and len(tracer.family_keys) == 1
    assert polybern.cli.main.__module__ == "polybern.cli" and not hasattr(polybern.cli.main, "__wrapped__")


def test_workloads_never_start_more_than_two_processes(tmp_path, monkeypatch):
    for name in workloads.WORKLOADS:
        for seed in range(3):
            for op in workloads.op_list(name, seed, SECONDS):
                jobs = int(gate._flags(op.argv).get("jobs", 1))
                assert jobs <= 2
    started = []
    base = polybern.cli.ProcessPoolExecutor

    class Recording(base):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(polybern.cli, "ProcessPoolExecutor", Recording)
    pool_ops = {op.argv for op in workloads.op_list("sweep-wide", 0, SECONDS) if "--jobs=2" in op.argv}
    for argv in pool_ops:
        code, output = _call(argv + ("--order=4", "--truncate=2"), tmp_path)
        assert code == 0
    assert started and max(started) <= 2


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "table-deep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
