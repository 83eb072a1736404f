"""Per-layer tracing of the real run_experiment.

sparsebeam.experiment calls into the other modules through names bound
in its own namespace. While ``tracing(trace)`` is active those names are
swapped for wrappers that record a span per call, so the study that runs
is run_experiment itself and the library carries no tracing code. Work
run_experiment does between the wrapped calls (steering vectors, median
patterns, aggregation, its loops) is its self time.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import sparsebeam as sb
import sparsebeam.experiment as experiment

METHODS = ("mvdr", "sc", "wsc", "rmvb", "rwsc")

# Name in sparsebeam.experiment -> the layer its calls are timed as.
WRAPPED = {
    "steering_matrix": "arrays.steering_matrix",
    "generate_snapshots": "arrays.generate_snapshots",
    "sample_covariance": "covariance.sample_covariance",
    "build_q": "weighting.build_q",
    "build_ellipsoid": "solvers.build_ellipsoid",
    "mvdr": "solvers.mvdr",
    "solve_sc": "solvers.sc",
    "solve_wsc": "solvers.wsc",
    "solve_rmvb": "solvers.rmvb",
    "solve_rwsc": "solvers.rwsc",
    "beam_pattern": "analysis.beam_pattern",
    "null_depth": "analysis.metrics",
    "sidelobe_level": "analysis.metrics",
    "pointing_error": "analysis.metrics",
    "output_sinr": "analysis.metrics",
    "emit_pattern_csv": "experiment.emit_csv",
    "emit_metrics_csv": "experiment.emit_csv",
}
SOLVER_LAYERS = {f"solvers.{method}" for method in METHODS}

# Layers whose adjacent spans make one call: the metric functions of one
# solve, and the CSV writes of one study.
GROUPED = ("analysis.metrics", "experiment.emit_csv")

# Layers timed per call; each reports <layer>.ms, the median call time.
CALL_LAYERS = (
    "arrays.generate_snapshots",
    "arrays.steering_matrix",
    "covariance.sample_covariance",
    "weighting.build_q",
    "solvers.build_ellipsoid",
    "analysis.beam_pattern",
    "analysis.metrics",
    "experiment.parse_config",
    "experiment.emit_csv",
)


class Trace:
    """Spans (layer, start, end) and per-layer counts, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, layer: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, start, perf_counter()))

    def wrap(self, layer: str, fn):
        """``fn`` timed as ``layer``; a solver's diagnostics and failures are counted."""
        if layer not in SOLVER_LAYERS:
            return lambda *args, **kwargs: self.call(layer, fn, *args, **kwargs)

        def solve(*args, **kwargs):
            try:
                result = self.call(layer, fn, *args, **kwargs)
            except sb.SolverError:
                self.counts[f"{layer}.failures"] += 1
                raise
            self.counts[f"{layer}.iterations"] += result.diagnostics.iterations
            self.counts[f"{layer}.converged"] += result.diagnostics.converged
            return result

        return solve


@contextmanager
def tracing(trace: Trace):
    """Record spans into ``trace`` for every run_experiment called inside."""
    originals = {name: getattr(experiment, name) for name in WRAPPED}
    try:
        for name, layer in WRAPPED.items():
            setattr(experiment, name, trace.wrap(layer, originals[name]))
        yield trace
    finally:
        for name, fn in originals.items():
            setattr(experiment, name, fn)


def _call_durations(spans) -> dict[str, list[float]]:
    durations: dict[str, list[float]] = defaultdict(list)
    previous = None
    for layer, start, end in spans:
        if layer == previous and layer in GROUPED:
            durations[layer][-1] += end - start
        else:
            durations[layer].append(end - start)
        previous = layer
    return durations


def layer_metrics(traces: list[Trace], study_s: list[float]) -> dict[str, float]:
    """Per-layer metrics over traced studies that took ``study_s`` seconds each.

    Busy times, counts and self time are per study, averaged over the
    studies. ``.ms`` is the median call time, 0 for a layer never called.
    """
    n = len(traces)
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    for trace in traces:
        for layer, values in _call_durations(trace.spans).items():
            durations[layer].extend(values)
        for key, value in trace.counts.items():
            counts[key] += value

    def busy(layer: str) -> float:
        return sum(durations[layer]) / n

    out = {f"{layer}.ms": 1e3 * median(durations[layer]) if durations[layer] else 0.0 for layer in CALL_LAYERS}
    for method in METHODS:
        layer = f"solvers.{method}"
        calls = len(durations[layer])
        iterations = counts[f"{layer}.iterations"]
        out[f"{layer}.ms"] = 1e3 * median(durations[layer]) if calls else 0.0
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.iterations"] = iterations / n
        out[f"{layer}.iter_ms"] = 1e3 * sum(durations[layer]) / iterations if iterations else 0.0
        out[f"{layer}.converged_frac"] = counts[f"{layer}.converged"] / calls if calls else 0.0
        out[f"{layer}.failures"] = counts[f"{layer}.failures"] / n
    # run_experiment's wall time minus the spans inside it. parse_config
    # runs before the study, not inside it.
    layered = sum(busy(layer) for layer in durations if layer != "experiment.parse_config")
    out["experiment.self_s"] = sum(study_s) / n - layered
    return out
