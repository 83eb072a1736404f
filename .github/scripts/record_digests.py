"""Recompute the output digests the tier-1 tests pin, and write them.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python .github/scripts/record_digests.py

tests/data/cli_digests.json holds the SHA-256 of every file a full study
of each bundled config writes (configs/fig1.cfg, configs/fig2.cfg and
the benchmark's perfbench/configs/wide.cfg). tests/data/solve_digests.json
holds, for each solve of each config's first 2 runs, the SHA-256 of w's
bytes and the Diagnostics repr, read from the study's
ExperimentReport.solves. The digest tests in
tests/test_experiment.py compute theirs with this script's functions.

The script prints, per file, how many digests changed and one line per
changed key with its old and new digest ("-" where a key is new or
gone), then writes both files in their committed format. The recorded
bits assume single-threaded OpenBLAS on x86-64, so run it with one BLAS
thread, as above. perfbench/reference.json has its own recorder,
perfbench/record.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from sparsebeam import parse_config, run_experiment

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = {
    "fig1": ROOT / "configs" / "fig1.cfg",
    "fig2": ROOT / "configs" / "fig2.cfg",
    "wide": ROOT / "perfbench" / "configs" / "wide.cfg",
}
CLI_DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"
SOLVE_DIGESTS = ROOT / "tests" / "data" / "solve_digests.json"
SOLVE_RUNS = 2


def csv_digests(name: str, output_dir: Path) -> dict[str, str]:
    """File name -> SHA-256 of every file the full study of config ``name`` writes to ``output_dir``."""
    run_experiment(dataclasses.replace(parse_config(CONFIGS[name]), output_dir=str(output_dir)))
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(Path(output_dir).iterdir())}


def solve_digests(name: str, output_dir: Path) -> dict[str, str]:
    """"<run>/<method>" -> SHA-256 of w's bytes and the Diagnostics repr, first 2 runs of config ``name``.

    A float's repr round-trips exactly, so the digest moves when any bit
    of w or of a Diagnostics field moves. A solve that failed has no
    digest.
    """
    config = dataclasses.replace(parse_config(CONFIGS[name]), output_dir=str(output_dir), monte_carlo_runs=SOLVE_RUNS)
    return {
        f"{run}/{method}": hashlib.sha256(solve.w.tobytes() + repr(solve.diagnostics).encode()).hexdigest()
        for method, solves in run_experiment(config).solves.items()
        for run, solve in enumerate(solves)
        if solve is not None
    }


def changes(old: dict, new: dict) -> list[str]:
    """"<config> <key>: <old> -> <new>" for each digest that differs, is new or is gone."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before, after = old.get(name, {}), new.get(name, {})
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                lines.append(f"{name} {key}: {before.get(key, '-')} -> {after.get(key, '-')}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {
            CLI_DIGESTS: {name: csv_digests(name, Path(tmp) / f"csv-{name}") for name in CONFIGS},
            SOLVE_DIGESTS: {name: solve_digests(name, Path(tmp) / f"solve-{name}") for name in CONFIGS},
        }
    for path, digests in fresh.items():
        lines = changes(json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}, digests)
        print(f"{path.name}: {len(lines)} changed", *lines, sep="\n")
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
