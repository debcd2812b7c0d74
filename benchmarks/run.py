"""polybern benchmark: drive ``polybern.cli.main(argv)`` in-process.

    python3 benchmarks/run.py --workload table-deep --seed 1 --seconds 30 --trace 0

Closed loop, one client: the calls of a seeded op list run one after
another in this process, each writing its output through ``--output`` to a
scratch directory inside the checkout.  Every output goes through the gate
(``gate.py``).  The op list is fixed by (workload, seed, seconds); see
``workloads.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` builds the op
list for half the seconds and runs each call twice in a row: first with
layer-boundary spans (``spans.py``) installed, then without.  It prints
the per-layer metrics of the traced calls and writes their spans to
``.bench_out/``.  The traced call comes first, so the spans see the program
in the same state as a measuring run does.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in.
Without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_sha256.json"
SETUP_PROBES = 7
TAIL_BEYOND = 10


def import_program():
    """Import ``polybern`` from the checkout, never from anywhere else;
    None (with the reason on stderr) when the checkout has no program."""
    if not (SRC / "polybern" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'polybern'}; run from a full checkout", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import polybern
    import polybern.cli

    if Path(polybern.__file__).resolve().parent != (SRC / "polybern").resolve():
        print(f"error: imported polybern from {polybern.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return polybern


def references(workload: str, seed: int) -> dict[str, str]:
    data = json.loads(REFERENCE_FILE.read_text())
    refs = dict(data["any_seed"])
    if seed == data["default_seed"]:
        refs.update(data["workloads"][workload])
    return refs


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def call(op, main, out_path: Path):
    """Run one op; return (wall_s, cpu_s, exit code, output bytes)."""
    out_path.unlink(missing_ok=True)
    argv = list(op.argv) + [f"--output={out_path}"]
    cpu0, child0 = time.process_time(), _children_cpu()
    t0 = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0 + _children_cpu() - child0
    return wall, cpu, code, out_path.read_bytes() if out_path.exists() else b""


def _result(op, wall, cpu, failure, data):
    if failure:
        print(f"FAILED {op.key}: {failure}", file=sys.stderr)
    return wall, cpu, failure, gate.sha256(data)


def run_op(op, main, out_path: Path, refs: dict[str, str]):
    """Run one op through the gate; return (wall_s, cpu_s, failure or None, output SHA-256)."""
    wall, cpu, code, data = call(op, main, out_path)
    return _result(op, wall, cpu, gate.check(op.argv, code, data, refs.get(op.key)), data)


def run_traced(ops, polybern, out_path: Path, refs: dict[str, str]):
    """Each op traced, then the same op untraced right after it, so that
    host speed drifts alike for both; return (tracer, traced, untraced).
    The gate runs with the spans removed, so its own calls leave none."""
    tracer = spans.Tracer()
    traced, untraced = [], []
    for op in ops:
        restore = spans.install(tracer, polybern)
        try:
            wall, cpu, code, data = call(op, polybern.cli.main, out_path)
        finally:
            restore()
        traced.append(_result(op, wall, cpu, gate.check(op.argv, code, data, refs.get(op.key)), data))
        wall, cpu, code_again, again = call(op, polybern.cli.main, out_path)
        same = code_again == code and again == data
        untraced.append(_result(op, wall, cpu, None if same else "untraced output differs from the traced output",
                                again))
    return tracer, traced, untraced


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that import the program and
    build the op list, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(walls)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, results, setup_s):
    walls = [r[0] for r in results]
    tail_s, tail_pct = tail(walls)
    failed = sum(1 for r in results if r[2])
    summary = {
        "workload": args.workload, "seed": args.seed, "ops": len(walls),
        "op_tail_percentile": round(tail_pct, 2), "op_tail_beyond": min(TAIL_BEYOND, len(walls) - 1),
        "failed_frac": failed / len(walls),
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(walls), "s"),
        "cpu_s": metric(sum(r[1] for r in results), "s"),
        "op_p50_s": metric(statistics.median(walls), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return summary, metrics


def per_layer(untraced, traced, tracer):
    info = spans.summarize(tracer)
    inclusive, calls, own = info["inclusive_s"], info["calls"], info["self_s"]
    untraced_wall = sum(r[0] for r in untraced)
    traced_wall = sum(r[0] for r in traced)
    metrics = {
        "series.compose.s": metric(inclusive.get("series.compose", 0.0), "s"),
        "series.compose.calls": metric(calls.get("series.compose", 0), "count"),
        "series.mul.s": metric(inclusive.get("series.mul", 0.0), "s"),
        "series.pow.s": metric(inclusive.get("series.pow", 0.0), "s"),
        "series.invert.s": metric(inclusive.get("series.invert", 0.0), "s"),
        "series.self_s": metric(own["series"], "s"),
        "series.max_coeff_bits": metric(tracer.max_coeff_bits, "bits"),
        "special.degenerate_exp.s": metric(inclusive.get("special.degenerate_exp", 0.0), "s"),
        "special.stirling_table.s": metric(inclusive.get("special.stirling_table", 0.0), "s"),
        "special.multi_polylog.s": metric(inclusive.get("special.multi_polylog", 0.0), "s"),
        "special.self_s": metric(own["special"], "s"),
        "families.lam_factor_distinct_ratio": metric(
            len(tracer.family_keys) / tracer.family_calls if tracer.family_calls else 0.0, "ratio"),
        "families.self_s": metric(own["families"], "s"),
        "verify.self_s": metric(own["verify"], "s"),
        "verify.calls": metric(sum(n for name, n in calls.items() if name.startswith("verify.")), "count"),
        "rationals.decimal_string.s": metric(inclusive.get("rationals.decimal_string", 0.0), "s"),
        "rationals.format_rational.s": metric(inclusive.get("rationals.format_rational", 0.0), "s"),
        "rationals.inv_pow.calls": metric(calls.get("rationals.inv_pow", 0), "count"),
        "rationals.self_s": metric(own["rationals"], "s"),
        "cli.self_s": metric(own["cli"], "s"),
        "cli.pool_wait_s": metric(own["pool"], "s"),
        "trace_overhead_frac": metric((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
    self_sum = sum(own.values())
    summary = {
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "layer_self_sum_s": self_sum, "unattributed_frac": 1 - self_sum / traced_wall,
        "spans": len(tracer.starts),
        "layer_self_share": {k: v / traced_wall for k, v in own.items()},
    }
    return summary, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("POLYBERN_FORMAT", None)
    polybern = import_program()
    if polybern is None:
        return 2
    ops = workloads.op_list(args.workload, args.seed, args.seconds / 2 if args.trace else args.seconds)
    if args.setup_probe:
        return 0

    refs = references(args.workload, args.seed)
    out_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    out_path = out_dir / "out.json"
    try:
        if args.trace:
            tracer, traced, untraced = run_traced(ops, polybern, out_path, refs)
            results = traced + untraced
            summary, metrics = per_layer(untraced, traced, tracer)
            trace_dir = ROOT / ".bench_out"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        else:
            results = [run_op(op, polybern.cli.main, out_path, refs) for op in ops]
            summary, metrics = end_to_end(args, results, setup_seconds(args))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(1 for r in results if r[2])
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
