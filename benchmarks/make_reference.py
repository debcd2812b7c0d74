"""Write ``reference_sha256.json``: the SHA-256 of every output of the
default-seed op lists, as the checked-out program produces them.

    python3 benchmarks/make_reference.py

Run it on the commit whose outputs are the reference, and only there: a
change that alters a single output byte must show up as a gate failure,
not as a new reference.  The op lists cover ``SECONDS`` seconds, the
longest run the benchmark allows, so every default-seed run is covered.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads

DEFAULT_SEED = 0
SECONDS = 60


def main() -> int:
    polybern = run.import_program()
    if polybern is None:
        return 2
    out_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=run.ROOT))
    out_path = out_dir / "out.json"
    data = {"default_seed": DEFAULT_SEED, "seconds": SECONDS, "any_seed": {}, "workloads": {}}
    try:
        for name in sorted(workloads.WORKLOADS):
            refs = data["workloads"][name] = {}
            for op in workloads.op_list(name, DEFAULT_SEED, SECONDS):
                if op.key in refs:
                    continue
                code = polybern.cli.main(list(op.argv) + [f"--output={out_path}"])
                output = out_path.read_bytes()
                failure = gate.check(op.argv, code, output, None)
                if failure:
                    print(f"{op.key}: {failure}", file=sys.stderr)
                    return 1
                refs[op.key] = gate.sha256(output)
            print(f"{name}: {len(refs)} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sweeps = ("verify --all", f"verify --all --jobs={workloads.MAX_JOBS}")
    sweep = {data["workloads"]["sweep-wide"][key] for key in sweeps}
    if len(sweep) != 1:
        print("verify --all output depends on --jobs", file=sys.stderr)
        return 1
    data["any_seed"] = dict.fromkeys(sweeps, sweep.pop())
    run.REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
