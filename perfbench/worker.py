"""One benchmark measurement, run in a child process with BLAS pinned to one thread.

run.py starts this script with the thread variables set; it prints one
JSON object as its last line. The load is one closed-loop client: each
study starts when the previous one has finished. A round runs every
recorded scenario of the workload once, in the order --seed gives, and
rounds repeat while another one fits in --seconds.

On the 2-core machine the benchmark was built on, the same study's
time moved widely under load from outside the process, and CPU time
moved with it. So every study and every set-up sample follows a pass
of a fixed numpy kernel (Calibration) whose time tracks how fast the
machine runs at the moment, and each is scaled by CALIBRATION_S over
that pass's time: study_s and setup_s read as seconds on a machine
where the kernel takes CALIBRATION_S. CHANGES.md gives the
measurements behind this. The unscaled times are reported too, on the
line before the result.

study_s is each scenario's median scaled study time, averaged over the
scenarios; setup_s is the median of SETUP_SAMPLES fresh interpreters
running `import sparsebeam` and parse_config, which is what
`sparsebeam run` pays before its study starts.

With --trace 0 every study is a plain run_experiment. With --trace 1
each study is followed by a traced run_experiment of the same study
(tracing.py), which yields the per-layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import numpy as np
import scipy

import sparsebeam as sb
from run import PINNED_THREADS
from tracing import Trace, layer_metrics, tracing
from workloads import ROOT, WORKLOADS, csv_digests, failed_solves, load_reference

CALIBRATION_S = 0.05
SETUP_SAMPLES = 7


class Calibration:
    """A fixed numpy workload, independent of sparsebeam.

    It mixes what the studies spend their time on: a Python loop of small
    complex and real solves (IRLS steps on 8 elements, Newton steps of a
    16-dimension cone solve) and products of 32-row matrices, kept small
    enough not to raise the process's peak RSS.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def complex_normal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.grid = complex_normal(8, 180)
        a = complex_normal(8, 8)
        self.cov = a @ a.conj().T + 8 * np.eye(8)
        b = rng.standard_normal((16, 16))
        self.hess = b @ b.T + 16 * np.eye(16)
        self.steer = complex_normal(32, 64)
        self.snapshots = complex_normal(32, 1000)

    def seconds(self) -> float:
        """Wall time of one pass."""
        start = perf_counter()
        w, v = np.ones(8, complex), np.ones(16)
        for _ in range(600):
            u = self.grid.conj().T @ w
            d = (np.abs(u) ** 2 + 1e-8) ** -0.5
            w = np.linalg.solve(self.cov + (self.grid * d) @ self.grid.conj().T, np.ones(8))
            w /= np.linalg.norm(w)
            v = np.linalg.solve(self.hess + np.outer(v, v) / (1.0 + v @ v), np.ones(16))
            v /= np.linalg.norm(v)
        for _ in range(40):
            np.abs(self.steer.conj().T @ self.snapshots).mean(axis=1)
        return perf_counter() - start


class Timings:
    """Wall times per scenario, each also scaled by the kernel pass before it."""

    def __init__(self):
        self.raw: dict[int, list[float]] = defaultdict(list)
        self.scaled: dict[int, list[float]] = defaultdict(list)
        self.kernel: list[float] = []

    def add(self, scenario: int, seconds: float, kernel_seconds: float) -> None:
        self.raw[scenario].append(seconds)
        self.scaled[scenario].append(seconds * CALIBRATION_S / kernel_seconds)
        self.kernel.append(kernel_seconds)

    @staticmethod
    def summary(times: dict[int, list[float]]) -> float:
        """Each scenario's median, averaged over the scenarios."""
        return mean(median(values) for values in times.values())


class Tally:
    """Solves attempted and failed, and whether every CSV matched its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.csv_identical = True

    def study(self, config, expected: dict) -> float:
        """Seconds of one run_experiment of ``config``, its outputs checked against ``expected``.

        A raised exception fails every solve of the study; otherwise
        failed_solves counts. The study's output directory is removed.
        """
        solves = config.monte_carlo_runs * len(config.methods)
        self.attempted += solves
        start = perf_counter()
        try:
            report = sb.run_experiment(config)
            seconds = perf_counter() - start
            self.failed += failed_solves(report, expected)
        except Exception:  # one broken study must not end the measurement
            seconds = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed += solves
        if csv_digests(config.output_dir) != expected["csv_sha256"]:
            self.csv_identical = False
        shutil.rmtree(config.output_dir, ignore_errors=True)
        return seconds


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
    }


def setup_timings(config_path: Path, calibration: Calibration) -> Timings:
    """Fresh interpreters importing sparsebeam and parsing the config.

    The first sample is dropped: it may also write the bytecode caches. No
    timeout is passed, because waiting with one polls in steps of up to 50 ms.
    """
    code = "import sys, sparsebeam; sparsebeam.parse_config(sys.argv[1])"
    timings = Timings()
    for sample in range(SETUP_SAMPLES + 1):
        kernel = calibration.seconds()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(config_path)], cwd=ROOT, check=True)
        if sample:
            timings.add(0, perf_counter() - start, kernel)
    return timings


def measure(workload, seed: int, seconds: float, traced: bool, tmp: Path) -> dict:
    reference = load_reference()[workload.name]
    base = sb.parse_config(workload.config_path)
    calibration = Calibration()
    # Lazy imports and first-call set-up are paid once per process, not
    # per study, so they stay out of the timed rounds.
    calibration.seconds()
    sb.run_experiment(workload.study(base, 0, tmp / "warmup", runs=1))
    setup = None if traced else setup_timings(workload.config_path, calibration)

    tally = Tally()
    studies = Timings()
    traces = []
    pairs = []  # (plain, traced) seconds of the same study, run back to back
    start = perf_counter()
    for rounds in itertools.count(1):
        for index in workload.order(seed):
            expected = reference[index]
            kernel = calibration.seconds()
            taken = tally.study(workload.study(base, index, tmp / f"study-{rounds}-{index}"), expected)
            studies.add(index, taken, kernel)
            if traced:
                trace = Trace()
                parsed = trace.call("experiment.parse_config", sb.parse_config, workload.config_path)
                config = workload.study(parsed, index, tmp / f"traced-{rounds}-{index}")
                with tracing(trace):
                    pairs.append((taken, tally.study(config, expected)))
                traces.append(trace)
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    raw = {"study_s": Timings.summary(studies.raw), "kernel_ms": 1e3 * median(studies.kernel)}
    if traced:
        metrics = layer_metrics(traces, [traced_s for _, traced_s in pairs])
        # A pair runs under the same load, so its ratio needs no scaling.
        metrics["trace.overhead_frac"] = median(traced_s / plain_s for plain_s, traced_s in pairs) - 1.0
    else:
        raw["setup_s"] = Timings.summary(setup.raw)
        metrics = {
            "study_s": Timings.summary(studies.scaled),
            "setup_s": Timings.summary(setup.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": 1.0 - tally.failed / tally.attempted,
            "csv_identical": 1.0 if tally.csv_identical else 0.0,
        }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "raw": raw,
        "machine": machine_info(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # One CPU for the kernel, the studies and the set-up samples alike, so
    # that they all run at the speed the kernel measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
