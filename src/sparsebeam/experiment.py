"""Configuration-driven Monte-Carlo experiment runner.

Ties the package together: parse a flat key=value config, simulate
snapshots over independently seeded runs, solve the requested
beamformers, aggregate beam-pattern metrics as median/IQR, and write
plot-ready CSV files (one pattern file per method plus one metrics
table).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (BeamPattern, _median_pattern, beam_pattern, null_depth, output_sinr, pointing_error,
                       sidelobe_level)
from .arrays import (ArrayGeometry, Scenario, _check_count, _check_direction, _real, generate_snapshots,
                     interference_grid, steering_matrix, steering_vector)
from .covariance import sample_covariance
from .errors import ConfigError, DomainError, SolverError
from .solvers import (BeamformerWeights, SolverOptions, _Study, _StudyRun, build_ellipsoid, mvdr, solve_rmvb,
                      solve_rwsc, solve_sc, solve_wsc)
from .weighting import build_q

__all__ = [
    "ExperimentConfig",
    "MetricRow",
    "ExperimentReport",
    "parse_config",
    "run_experiment",
    "emit_pattern_csv",
    "emit_metrics_csv",
]

# Each method's solve. A lambda looks its solver up in this module's
# namespace when it is called, so a solver swapped in there is the one
# that runs.
_SOLVES = {
    "mvdr": lambda r, a_grid, q, a0, ellipsoid, opts: mvdr(r, a0, opts),
    "sc": lambda r, a_grid, q, a0, ellipsoid, opts: solve_sc(r, a_grid, a0, opts),
    "wsc": lambda r, a_grid, q, a0, ellipsoid, opts: solve_wsc(r, a_grid, q, a0, opts),
    "rmvb": lambda r, a_grid, q, a0, ellipsoid, opts: solve_rmvb(r, ellipsoid, opts),
    "rwsc": lambda r, a_grid, q, a0, ellipsoid, opts: solve_rwsc(r, a_grid, q, ellipsoid, opts),
}


def _check_methods(methods) -> None:
    if not methods:
        raise DomainError("methods must be non-empty")
    for name in methods:
        if name not in _SOLVES:
            raise DomainError(f"unknown method {name!r}; choose from {','.join(_SOLVES)}")
    if len(set(methods)) != len(methods):
        raise DomainError("methods must not repeat")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ellipsoid_half_width_deg = None selects the default
    max(|mismatch_deg|, 3 deg). The steering direction, and for rmvb and
    rwsc the ellipsoid's span around it, must lie in [-90, 90] deg.
    failure_budget bounds how many failed runs (see run_experiment) the CLI
    tolerates before reporting an error exit. output_dir must not be
    empty.
    """

    geometry: ArrayGeometry
    scenario: Scenario
    methods: tuple[str, ...]
    solver_options: SolverOptions = SolverOptions()
    mismatch_deg: float = 0.0
    monte_carlo_runs: int = 1
    grid_resolution_deg: float = 1.0
    output_dir: str = "results"
    ellipsoid_half_width_deg: float | None = None
    ellipsoid_num_samples: int = 61
    failure_budget: int = 0

    def __post_init__(self):
        _check_methods(self.methods)
        _check_count("monte_carlo_runs", self.monte_carlo_runs, 1)
        _real("grid_resolution_deg", self.grid_resolution_deg, "(0, 1]")
        if self.ellipsoid_half_width_deg is not None:
            _real("ellipsoid_half_width_deg", self.ellipsoid_half_width_deg, "[0, inf)")
        _check_count("ellipsoid_num_samples", self.ellipsoid_num_samples, 2)
        _check_count("failure_budget", self.failure_budget, 0)
        if not self.output_dir:
            raise DomainError("output_dir must not be empty")
        _real("mismatch_deg", self.mismatch_deg)
        _check_direction("steering direction", self.steer_deg)
        if any(m in self.methods for m in ("rmvb", "rwsc")):
            for edge in (-self.effective_half_width_deg, self.effective_half_width_deg):
                _check_direction("ellipsoid span", self.steer_deg + edge)
        named: dict[str, float] = {}
        for doa, _ in self.scenario.interferers:
            name = _null_depth_name(doa)
            if name in named:
                raise DomainError(
                    f"interferer DOAs {named[name]!r} and {doa!r} share the metric name {name!r}"
                )
            named[name] = doa

    @property
    def steer_deg(self) -> float:
        """Direction every solver is pointed at (true DOA plus mismatch)."""
        return self.scenario.soi_doa_deg + self.mismatch_deg

    @property
    def effective_half_width_deg(self) -> float:
        if self.ellipsoid_half_width_deg is not None:
            return self.ellipsoid_half_width_deg
        return max(abs(self.mismatch_deg), 3.0)


@dataclass(frozen=True)
class MetricRow:
    method: str
    metric: str
    median: float
    iqr: float
    failures: int


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated experiment outcome.

    patterns hold the per-method pointwise-median beam pattern on the
    export grid, renormalized to a 0 dB peak. run_seeds allows replaying
    any single run by constructing its Scenario directly. solves holds,
    per method, each run's solve in run_seeds order, or None where that
    solve raised SolverError.
    """

    methods: tuple[str, ...]
    patterns: dict[str, BeamPattern]
    metrics: tuple[MetricRow, ...]
    run_seeds: tuple[int, ...]
    failures: dict[str, int] = field(default_factory=dict)
    solves: dict[str, tuple[BeamformerWeights | None, ...]] = field(default_factory=dict)

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())


# --- config parsing -------------------------------------------------------

def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value: expected a number, got {raw!r}", key=key) from exc
    if not math.isfinite(value):
        raise ConfigError(f"invalid value: must be finite, got {raw!r}", key=key)
    return value


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value: expected an integer, got {raw!r}", key=key) from exc


def _parse_interferers(raw: str, key: str) -> tuple[tuple[float, float], ...]:
    if not raw.strip():
        return ()
    out = []
    for chunk in raw.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"invalid value: expected 'doa:inr_db' pairs, got {chunk.strip()!r}", key=key
            )
        out.append((_parse_float(parts[0], key), _parse_float(parts[1], key)))
    return tuple(out)


def _parse_methods(raw: str, key: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    try:
        _check_methods(names)
    except DomainError as exc:
        raise ConfigError(f"invalid value: {exc}", key=key) from exc
    return names


# The parser of each field annotation a config key sets. Every field of
# ArrayGeometry, Scenario, SolverOptions and ExperimentConfig with one of
# these annotations has the key <section>.<field>, and ellipsoid.<x>
# sets ExperimentConfig's ellipsoid_<x>. Defaults, and which keys are
# required, are the fields'.
_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_float,
    "str": lambda raw, _key: raw,
    "tuple[str, ...]": _parse_methods,
    "tuple[tuple[float, float], ...]": _parse_interferers,
}
_SECTIONS = {"array": ArrayGeometry, "scenario": Scenario, "solver": SolverOptions, "experiment": ExperimentConfig}
# The section of each field annotation that names a section's class.
_NESTED = {cls.__name__: section for section, cls in _SECTIONS.items()}


def _keyed_fields(section: str):
    """(key, field) for each field of ``section``'s class that a key sets."""
    for f in dataclasses.fields(_SECTIONS[section]):
        if f.type in _PARSERS:
            yield f"{section}.{f.name}".replace("experiment.ellipsoid_", "ellipsoid."), f


_KEYS = frozenset(key for section in _SECTIONS for key, _ in _keyed_fields(section))


def _read_pairs(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"missing or unreadable config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"malformed syntax at line {lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError("unknown key", key=key)
        if key in pairs:
            raise ConfigError("duplicate key", key=key)
        pairs[key] = value
    return pairs


def _from_section(section: str, pairs: dict[str, str]):
    """``section``'s class built from its keys in ``pairs``.

    A field annotated with a section's class is that section, built
    first, so a nested section's error outranks one of this section's
    own keys. A field whose key is absent keeps its default; a field
    with a key and no default is required.
    """
    fields = dataclasses.fields(_SECTIONS[section])
    kwargs = {f.name: _from_section(_NESTED[f.type], pairs) for f in fields if f.type in _NESTED}
    for key, f in _keyed_fields(section):
        if key in pairs:
            kwargs[f.name] = _PARSERS[f.type](pairs[key], key)
        elif f.default is dataclasses.MISSING:
            raise ConfigError("missing key", key=key)
    try:
        return _SECTIONS[section](**kwargs)
    except DomainError as exc:
        raise ConfigError(f"invariant violation: {exc}", key=section) from exc


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a flat dotted key=value config file.

    '#' starts a comment; blank lines are ignored; unknown or duplicate
    keys are rejected with the offending key named, as is a file that is
    not UTF-8. Domain invariant violations (e.g. an interferer at the
    SOI DOA) surface as ConfigError carrying the responsible section.
    """
    return _from_section("experiment", _read_pairs(path))


# --- orchestration --------------------------------------------------------

def _null_depth_name(doa: float) -> str:
    return f"null_depth_{doa:g}deg"


def _metric_names(scenario: Scenario) -> tuple[str, ...]:
    names = [_null_depth_name(doa) for doa, _ in scenario.interferers]
    names += ["sidelobe_level_db", "pointing_error_deg", "output_sinr_db"]
    return tuple(names)


def _run_metrics(weights: list[np.ndarray], config: ExperimentConfig) -> tuple[list[int], np.ndarray]:
    """The indices of the weights whose beam pattern is not identically zero, and their metrics.

    The metrics are one row per kept weight vector, in _metric_names
    order. All are scored through one stacked pattern, whose rows have
    the bits of each vector's own pattern, so each value is the one
    vector's alone.
    """
    kept = list(range(len(weights)))
    scenario, geometry = config.scenario, config.geometry
    try:
        pattern = beam_pattern(weights, geometry) if weights else None
    except DomainError:
        # Some run's pattern is identically zero: it fails, and the others are scored.
        for i, w in enumerate(weights):
            try:
                beam_pattern(w, geometry)
            except DomainError:
                kept.remove(i)
        weights = [weights[i] for i in kept]
        pattern = beam_pattern(weights, geometry) if weights else None
    if pattern is None:
        return [], np.empty(0)
    columns = [null_depth(pattern, doa) for doa, _ in scenario.interferers]
    # Centering on each run's observed peak keeps the mainlobe search valid
    # for mis-steered patterns whose peak drifts away from the nominal DOA.
    columns.append(sidelobe_level(pattern, pattern.peak_angle_deg).level_db)
    columns.append(pointing_error(pattern, scenario.soi_doa_deg))
    columns.append([output_sinr(w, scenario, geometry) for w in weights])
    return kept, np.column_stack(columns)


def _summaries(runs, count: int) -> tuple[list[float], list[float]]:
    """Median and IQR of each of ``count`` metrics over ``runs``.

    ``runs`` holds one row of metric values per run. With no run, both
    are NaN for every metric.
    """
    if len(runs) == 0:
        return [math.nan] * count, [math.nan] * count
    samples = np.array(runs).T
    q25, q75 = np.percentile(samples, [25, 75], axis=1)
    return np.median(samples, axis=1).tolist(), (q75 - q25).tolist()


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute every Monte-Carlo run and write the CSV artifacts.

    Run i re-seeds the scenario with rng_seed + i. A data pass draws each
    run's snapshots and keeps only its q and its covariance; one study of
    all the runs is built when it ends (``solvers._Study``), which checks
    and loads each covariance once. A solve pass then calls each method's
    solver once per run, in ``config.methods`` order, with the run's
    handle in the covariance slot. The first call of a method solves it
    for every run of the study in lockstep batches, and each call returns
    its own run's result: the bits of a solve of its own. The report
    returns each method's solves, in run order, as ``solves``; a
    SolverError leaves None in that (run, method)'s place, drops it from
    all aggregates and counts as a failure in the report and the metrics
    CSV. The summary phase then scores every method's kept solves in one
    stacked pass, picks out each method's rows, and takes each method's
    median pattern. It drops a run whose beam pattern is identically zero
    the same way, and a method whose median pattern collapses to zero
    loses all its runs; a method with no run left gets NaN metrics and a
    header-only pattern file.
    Outputs are deterministic functions of the config.
    """
    geometry, scenario = config.geometry, config.scenario
    steer = config.steer_deg
    a_grid = steering_matrix(geometry, interference_grid(steer, config.grid_resolution_deg))
    a0 = steering_vector(geometry, steer)
    needs_q = any(m in config.methods for m in ("wsc", "rwsc"))
    ellipsoid = None
    if any(m in config.methods for m in ("rmvb", "rwsc")):
        ellipsoid = build_ellipsoid(geometry, steer, config.effective_half_width_deg, config.ellipsoid_num_samples)
    # Created before the first run, so an unusable path fails at once.
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    seeds = tuple(scenario.rng_seed + i for i in range(config.monte_carlo_runs))
    opts = config.solver_options

    def draw(seed: int) -> tuple[np.ndarray, np.ndarray | None]:
        # Only the covariance and q outlive the run's snapshots.
        snapshots = generate_snapshots(dataclasses.replace(scenario, rng_seed=seed), geometry)
        return sample_covariance(snapshots), build_q(a_grid, snapshots) if needs_q else None

    # The study keeps each run's loaded R and q; the raw covariances go.
    study = _Study(*zip(*[draw(seed) for seed in seeds]), opts.diagonal_loading)
    qs = study.qs
    solves: dict[str, list[BeamformerWeights | None]] = {}
    for method in config.methods:
        solve = _SOLVES[method]
        results = solves[method] = []
        for run, q in enumerate(qs):
            try:
                results.append(solve(_StudyRun(study, run), a_grid, q, a0, ellipsoid, opts))
            except SolverError:
                results.append(None)

    # Every method's kept solves are scored in one pass; each method's
    # rows are then picked out by the method that solved them.
    weights = [solve.w for results in solves.values() for solve in results if solve is not None]
    owners = [method for method, results in solves.items() for solve in results if solve is not None]
    kept, values = _run_metrics(weights, config)
    metric_names = _metric_names(scenario)
    rows, patterns, failures = [], {}, {}
    for method in config.methods:
        picked = [row for row, i in enumerate(kept) if owners[i] == method]
        runs = values[picked]
        if picked:
            try:
                patterns[method] = _median_pattern([weights[kept[row]] for row in picked], geometry,
                                                   config.grid_resolution_deg)
            except SolverError:
                runs = runs[:0]
        failures[method] = len(seeds) - len(runs)
        medians, iqrs = _summaries(runs, len(metric_names))
        rows += [
            MetricRow(method, name, median, iqr, failures[method])
            for name, median, iqr in zip(metric_names, medians, iqrs)
        ]
    report = ExperimentReport(
        config.methods, patterns, tuple(rows), seeds, failures, {m: tuple(s) for m, s in solves.items()}
    )
    # Every configured method yields exactly one artifact, even when all
    # of its runs failed: an empty (header-only) file.
    empty = BeamPattern(*[np.empty(0)] * 3)
    for method in config.methods:
        emit_pattern_csv(patterns.get(method, empty), out_dir / f"pattern_{method}.csv")
    emit_metrics_csv(report, out_dir / "metrics.csv")
    return report


# --- CSV emission ---------------------------------------------------------

def emit_pattern_csv(pattern: BeamPattern, path) -> None:
    """Write theta_deg,gain_db,raw_gain rows at fixed six decimals."""
    values = np.column_stack(pattern).ravel().tolist()
    rows = ("%.6f,%.6f,%.6f\n" * (len(values) // 3)) % tuple(values)
    Path(path).write_text("theta_deg,gain_db,raw_gain\n" + rows, encoding="utf-8", newline="\n")


def emit_metrics_csv(report: ExperimentReport, path) -> None:
    """Write method,metric,median,iqr,failures rows at fixed six decimals."""
    rows = "".join(
        f"{row.method},{row.metric},{row.median:.6f},{row.iqr:.6f},{row.failures}\n" for row in report.metrics
    )
    Path(path).write_text("method,metric,median,iqr,failures\n" + rows, encoding="utf-8", newline="\n")
