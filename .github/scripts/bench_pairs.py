"""Compare two checkouts on one benchmark workload in alternating pairs.

    python .github/scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fig1 --pairs 10 --seconds 30

Each pair runs ``perfbench/run.py`` once in each checkout, with the same
``--seed`` (pair i uses seed + i); the parent runs first in even pairs
and the change first in odd ones, so a drift in machine speed does not
favour one side. It prints the machine line of the first run, then one
JSON object: for every metric of the chosen ``--trace`` level, each
side's runs, median and quartiles, the pairs the change won (by the
metric's direction in CHANGE_DIR's BENCHMARK.json, ties counting for
neither) and the change of the median. Two verdicts follow:
``claim_met`` is the rule for claiming a gain (the change won at least
nine tenths of the pairs, and its median is better than the parent's by
more than the parent's IQR, ``parent_iqr``), and ``outside_bound`` says
whether the change's median is worse than the parent's by more than the
metric's ``bound`` in BENCHMARK.json, a fraction of the parent's median
(null for a metric with no bound). A run that fails stops the script
with the run's standard error.

Both checkouts must have the same bytecode cache state: when exactly one
has ``src/sparsebeam/__pycache__`` the script stops before any run.
Under ``PYTHONDONTWRITEBYTECODE=1`` a checkout without the cache compiles
``src/`` at every set-up sample, which alone moves fig1's ``setup_s`` by
~15 %. Remove both caches, or compile both checkouts, first.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(machine line, metric name -> value) of one perfbench/run.py in ``checkout``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(command)} failed in {checkout}:\n{proc.stderr}")
    machine_line, result_line = proc.stdout.strip().splitlines()[-2:]
    metrics = json.loads(result_line)["metrics"]
    return json.loads(machine_line), {name: entry["value"] for name, entry in metrics.items()}


def check_bytecode(parent: Path, change: Path) -> None:
    """Stop when exactly one of the two checkouts has a src/sparsebeam/__pycache__."""
    cached = [(side / "src" / "sparsebeam" / "__pycache__").is_dir() for side in (parent, change)]
    if cached[0] != cached[1]:
        with_cache, without = (parent, change) if cached[0] else (change, parent)
        sys.exit(f"bench_pairs: {with_cache} has src/sparsebeam/__pycache__ and {without} does not; "
                 "remove it or compile both, since compiling at set-up moves setup_s")


def summary(runs: list[float]) -> dict:
    q1, _, q3 = quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else (runs[0],) * 3
    return {"median": median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], better: str, bound: float | None = None) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    base = median(parent)
    move = f"{100.0 * (median(change) - base) / base:+.1f}%" if base else "n/a"
    before, after = summary(parent), summary(change)
    iqr = before["q3"] - before["q1"]
    # How far the change's median is better than the parent's (negative: worse).
    gain = (base - after["median"]) if better == "lower" else (after["median"] - base)
    return {
        "parent": before,
        "change": after,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "median_change": move,
        "parent_iqr": iqr,
        "claim_met": 10 * wins >= 9 * len(parent) and gain > iqr,
        "outside_bound": None if bound is None else -gain > bound * abs(base),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair (default 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    check_bytecode(args.parent, args.change)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m.get("bound") for m in declared}

    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    machine = None
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            line, metrics = run_once(sides[side], args.workload, args.seed + i, args.seconds, args.trace)
            if machine is None:
                machine = line
                print(json.dumps(machine), flush=True)
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    result = {
        "workload": args.workload,
        "pairs": f"seeds {args.seed}-{args.seed + args.pairs - 1}; parent first on even pairs",
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {
            name: compare(values["parent"][name], values["change"][name], better[name], bounds[name])
            for name in better
            if name in values["parent"] and name in values["change"]
        },
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
