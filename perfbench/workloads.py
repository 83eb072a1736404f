"""The benchmark's workloads and the recorded outputs they are checked against.

A workload is a config file plus a fixed set of scenario seeds. Study
time varies by up to +/-25 % between scenario seeds on the same code
(fig2 took 7.0-11.7 s over eight seeds), which would swamp any useful
regression bound. So every benchmark run studies the same recorded
scenarios, and the benchmark's --seed only sets the order they run in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # run.py imports this module without importing numpy
    import sparsebeam as sb

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Scenario k re-seeds the config's rng_seed with + SEED_STRIDE * k, past
# the consecutive per-run seeds one study draws.
SEED_STRIDE = 1000

# Largest distance (dB or degrees) a metric median may move from the
# recorded one before the method's solves in that study count as failed.
MEDIAN_TOLERANCE = 1e-3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str
    scenarios: int
    runs: int | None = None  # Monte-Carlo runs per study; None keeps the config's

    @property
    def config_path(self) -> Path:
        return ROOT / self.config

    def order(self, seed: int) -> list[int]:
        """Scenario indices in the order one round runs them."""
        return [(seed + j) % self.scenarios for j in range(self.scenarios)]

    def study(self, base: sb.ExperimentConfig, index: int, output_dir, runs: int | None = None):
        """The study of scenario ``index``, from the parsed config ``base``."""
        scenario = dataclasses.replace(
            base.scenario, rng_seed=base.scenario.rng_seed + SEED_STRIDE * index
        )
        return dataclasses.replace(
            base,
            scenario=scenario,
            output_dir=str(output_dir),
            monte_carlo_runs=runs or self.runs or base.monte_carlo_runs,
        )


# fig2's configured 20-run study takes ~10 s, too long to repeat within
# one run, so its studies are cut to 2 runs of the same config.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1", "configs/fig1.cfg", 8),
        Workload("fig2", "configs/fig2.cfg", 4, runs=2),
        Workload("wide", "perfbench/configs/wide.cfg", 4),
    )
}


def csv_digests(output_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(output_dir).glob("*.csv"))
    }


def medians(report: sb.ExperimentReport) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for row in report.metrics:
        out.setdefault(row.method, {})[row.metric] = row.median
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def failed_solves(report: sb.ExperimentReport, reference: dict) -> int:
    """Solves of one study that failed or whose method's medians left tolerance."""
    failed = report.total_failures
    recorded = reference["medians"]
    for method, values in medians(report).items():
        expected = recorded.get(method, {})
        ok = values.keys() == expected.keys() and all(
            math.isclose(values[name], expected[name], rel_tol=0.0, abs_tol=MEDIAN_TOLERANCE)
            for name in values
        )
        if not ok:
            failed += len(report.run_seeds) - report.failures[method]
    return failed
