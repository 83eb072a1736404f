"""Benchmark one sparsebeam workload.

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
src/, not from an installed copy. The measurement runs in a child
process whose BLAS/OpenMP thread pools are pinned to one thread.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it records the machine, the thread settings and the
unscaled times (see worker.py).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def main() -> None:
    parser = argparse.ArgumentParser(description="Benchmark one sparsebeam workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "sparsebeam" / "__init__.py").is_file():
        sys.exit(f"run.py: no sparsebeam source tree under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()

    worker = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(worker, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIME_LIMIT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = result["metrics"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"machine": result["machine"], "raw": result["raw"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
