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

from .analysis import (BeamPattern, _pattern_angles, _pattern_steering, _to_db, beam_pattern, null_depth,
                       output_sinr, pointing_error, sidelobe_level)
from .arrays import ArrayGeometry, Scenario, generate_snapshots, interference_grid, steering_matrix, steering_vector
from .covariance import sample_covariance
from .errors import ConfigError, DomainError, SolverError
from .solvers import SolverOptions, build_ellipsoid, mvdr, solve_rmvb, solve_rwsc, solve_sc, solve_wsc
from .weighting import build_q

__all__ = [
    "METHOD_NAMES",
    "ExperimentConfig",
    "MetricRow",
    "ExperimentReport",
    "parse_config",
    "run_experiment",
    "emit_pattern_csv",
    "emit_metrics_csv",
]

METHOD_NAMES = ("mvdr", "sc", "wsc", "rmvb", "rwsc")

_METRIC_RESOLUTION_DEG = 0.1
_NULL_WINDOW_DEG = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ellipsoid_half_width_deg = None selects the default
    max(|mismatch_deg|, 3 deg). failure_budget bounds how many per-run
    solver failures the CLI tolerates before reporting an error exit.
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
        if not self.methods:
            raise DomainError("methods must be non-empty")
        for name in self.methods:
            if name not in METHOD_NAMES:
                raise DomainError(f"unknown method {name!r}; choose from {METHOD_NAMES}")
        if len(set(self.methods)) != len(self.methods):
            raise DomainError("methods must not repeat")
        if self.monte_carlo_runs < 1:
            raise DomainError("monte_carlo_runs must be >= 1")
        if not 0 < self.grid_resolution_deg <= 1.0:
            raise DomainError("grid_resolution_deg must lie in (0, 1]")
        if self.ellipsoid_half_width_deg is not None and self.ellipsoid_half_width_deg < 0:
            raise DomainError("ellipsoid_half_width_deg must be nonnegative")
        if self.ellipsoid_num_samples < 2:
            raise DomainError("ellipsoid_num_samples must be >= 2")
        if self.failure_budget < 0:
            raise DomainError("failure_budget must be nonnegative")
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
    any single run by constructing its Scenario directly.
    """

    methods: tuple[str, ...]
    patterns: dict[str, BeamPattern]
    metrics: tuple[MetricRow, ...]
    run_seeds: tuple[int, ...]
    failures: dict[str, int] = field(default_factory=dict)

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
    if not names:
        raise ConfigError("invalid value: methods must be non-empty", key=key)
    for name in names:
        if name not in METHOD_NAMES:
            raise ConfigError(
                f"invalid value: unknown method {name!r}; choose from {','.join(METHOD_NAMES)}",
                key=key,
            )
    if len(set(names)) != len(names):
        raise ConfigError("invalid value: methods must not repeat", key=key)
    return names


# Every config key and the parser of its value. A key names the field it
# sets, <section>.<field>, and ellipsoid.<x> sets ExperimentConfig's
# ellipsoid_<x>. Defaults, and which keys are required, are the fields'.
_PARSERS = {
    "array.num_elements": _parse_int,
    "array.spacing_wavelengths": _parse_float,
    "scenario.soi_doa_deg": _parse_float,
    "scenario.soi_snr_db": _parse_float,
    "scenario.interferers": _parse_interferers,
    "scenario.num_snapshots": _parse_int,
    "scenario.noise_power": _parse_float,
    "scenario.rng_seed": _parse_int,
    "solver.gamma": _parse_float,
    "solver.p": _parse_float,
    "solver.max_iterations": _parse_int,
    "solver.objective_tolerance": _parse_float,
    "solver.irls_epsilon": _parse_float,
    "solver.diagonal_loading": _parse_float,
    "experiment.methods": _parse_methods,
    "experiment.mismatch_deg": _parse_float,
    "experiment.monte_carlo_runs": _parse_int,
    "experiment.grid_resolution_deg": _parse_float,
    "experiment.output_dir": lambda raw, _key: raw,
    "experiment.failure_budget": _parse_int,
    "ellipsoid.half_width_deg": _parse_float,
    "ellipsoid.num_samples": _parse_int,
}


def _read_pairs(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"missing or unreadable config file: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"malformed syntax at line {lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError("unknown key", key=key)
        if key in pairs:
            raise ConfigError("duplicate key", key=key)
        pairs[key] = value
    return pairs


def _from_section(cls, section: str, pairs: dict[str, str], **built):
    """``cls`` built from the keys of ``section`` plus the fields in ``built``.

    A field whose key is absent keeps its default; a field with a key
    and no default is required.
    """
    kwargs = dict(built)
    for f in dataclasses.fields(cls):
        key = f"{section}.{f.name}".replace("experiment.ellipsoid_", "ellipsoid.")
        if key in pairs:
            kwargs[f.name] = _PARSERS[key](pairs[key], key)
        elif key in _PARSERS and f.default is dataclasses.MISSING:
            raise ConfigError("missing key", key=key)
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"invariant violation: {exc}", key=section) from exc


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a flat dotted key=value config file.

    '#' starts a comment; blank lines are ignored; unknown or duplicate
    keys are rejected with the offending key named. Domain invariant
    violations (e.g. an interferer at the SOI DOA) surface as
    ConfigError carrying the responsible section.
    """
    pairs = _read_pairs(path)
    return _from_section(
        ExperimentConfig,
        "experiment",
        pairs,
        geometry=_from_section(ArrayGeometry, "array", pairs),
        scenario=_from_section(Scenario, "scenario", pairs),
        solver_options=_from_section(SolverOptions, "solver", pairs),
    )


# --- orchestration --------------------------------------------------------

def _solve_one(method, r, a_grid, q, a0, ellipsoid, opts):
    if method == "mvdr":
        return mvdr(r, a0, opts)
    if method == "sc":
        return solve_sc(r, a_grid, a0, opts)
    if method == "wsc":
        return solve_wsc(r, a_grid, q, a0, opts)
    if method == "rmvb":
        return solve_rmvb(r, ellipsoid, opts)
    if method == "rwsc":
        return solve_rwsc(r, a_grid, q, ellipsoid, opts)
    raise DomainError(f"unknown method {method!r}")


def _null_depth_name(doa: float) -> str:
    return f"null_depth_{doa:g}deg"


def _metric_names(scenario: Scenario) -> tuple[str, ...]:
    names = [_null_depth_name(doa) for doa, _ in scenario.interferers]
    names += ["sidelobe_level_db", "pointing_error_deg", "output_sinr_db"]
    return tuple(names)


def _run_metrics(w, config: ExperimentConfig) -> dict[str, float]:
    pattern = beam_pattern(w, config.geometry, _METRIC_RESOLUTION_DEG)
    values: dict[str, float] = {}
    for doa, _ in config.scenario.interferers:
        values[_null_depth_name(doa)] = null_depth(pattern, doa, _NULL_WINDOW_DEG)
    # Centering on the observed peak keeps the mainlobe search valid for
    # mis-steered patterns whose peak drifts away from the nominal DOA.
    values["sidelobe_level_db"] = sidelobe_level(pattern, pattern.peak_angle_deg).level_db
    values["pointing_error_deg"] = pointing_error(pattern, config.scenario.soi_doa_deg)
    values["output_sinr_db"] = output_sinr(w, config.scenario, config.geometry)
    return values


def _median_pattern(raw_rows: list[np.ndarray], resolution_deg: float) -> BeamPattern:
    """Pointwise median of raw gains on the pattern metrics' cached grid."""
    stacked = np.vstack(raw_rows)
    median_raw = np.median(stacked, axis=0)
    peak = float(median_raw.max())
    if peak <= 0:
        raise SolverError("median pattern collapsed to zero")
    # A copy of the cached angles keeps the pattern writable.
    return BeamPattern(_pattern_angles(resolution_deg).copy(), _to_db(median_raw, peak), median_raw / peak)


def _summaries(runs: list[list[float]], count: int) -> tuple[list[float], list[float]]:
    """Median and IQR of each of ``count`` metrics over ``runs``.

    ``runs`` holds one list of metric values per run. With no run, both
    are NaN for every metric.
    """
    if not runs:
        return [math.nan] * count, [math.nan] * count
    samples = np.array(runs).T
    q25, q75 = np.percentile(samples, [25, 75], axis=1)
    return np.median(samples, axis=1).tolist(), (q75 - q25).tolist()


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute every Monte-Carlo run and write the CSV artifacts.

    Run i re-seeds the scenario with rng_seed + i. Solver failures are
    caught per (run, method), excluded from all aggregates, and counted
    in the report and the metrics CSV. Outputs are deterministic
    functions of the config.
    """
    geometry, scenario = config.geometry, config.scenario
    steer = config.steer_deg
    penalty_grid = interference_grid(steer, config.grid_resolution_deg)
    a_grid = steering_matrix(geometry, penalty_grid)
    a0 = steering_vector(geometry, steer)
    needs_q = any(m in config.methods for m in ("wsc", "rwsc"))
    ellipsoid = None
    if any(m in config.methods for m in ("rmvb", "rwsc")):
        ellipsoid = build_ellipsoid(
            geometry, steer, config.effective_half_width_deg, config.ellipsoid_num_samples
        )

    # The cached grid of beam_pattern, also used by _median_pattern.
    export_matrix = _pattern_steering(geometry, config.grid_resolution_deg)
    # Created before the first run, so an unusable path fails at once.
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    metric_names = _metric_names(scenario)
    per_run: dict[str, list[list[float]]] = {m: [] for m in config.methods}
    export_raws: dict[str, list[np.ndarray]] = {m: [] for m in config.methods}
    failures = {m: 0 for m in config.methods}
    seeds = tuple(scenario.rng_seed + i for i in range(config.monte_carlo_runs))

    for seed in seeds:
        run_scenario = dataclasses.replace(scenario, rng_seed=seed)
        snapshots = generate_snapshots(run_scenario, geometry)
        r = sample_covariance(snapshots)
        q = build_q(a_grid, snapshots) if needs_q else None
        for method in config.methods:
            try:
                result = _solve_one(
                    method, r, a_grid, q, a0, ellipsoid, config.solver_options
                )
            except SolverError:
                failures[method] += 1
                continue
            values = _run_metrics(result.w, config)
            per_run[method].append([values[name] for name in metric_names])
            raw = np.abs(result.w.conj() @ export_matrix) ** 2
            export_raws[method].append(raw)

    rows = []
    for method in config.methods:
        medians, iqrs = _summaries(per_run[method], len(metric_names))
        rows += [
            MetricRow(method, name, median, iqr, failures[method])
            for name, median, iqr in zip(metric_names, medians, iqrs)
        ]

    patterns: dict[str, BeamPattern] = {}
    for method in config.methods:
        if export_raws[method]:
            pattern = _median_pattern(export_raws[method], config.grid_resolution_deg)
            patterns[method] = pattern
            emit_pattern_csv(pattern, out_dir / f"pattern_{method}.csv")
        else:
            # Every configured method yields exactly one artifact, even
            # when all of its runs failed: an empty (header-only) file.
            _write_text(out_dir / f"pattern_{method}.csv", _PATTERN_HEADER)
    report = ExperimentReport(
        methods=config.methods,
        patterns=patterns,
        metrics=tuple(rows),
        run_seeds=seeds,
        failures=failures,
    )
    emit_metrics_csv(report, out_dir / "metrics.csv")
    return report


# --- CSV emission ---------------------------------------------------------

_PATTERN_HEADER = "theta_deg,gain_db,raw_gain\n"


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_pattern_csv(pattern: BeamPattern, path) -> None:
    """Write theta_deg,gain_db,raw_gain rows at fixed six decimals."""
    columns = [np.asarray(column).tolist() for column in pattern]
    _write_text(
        path,
        _PATTERN_HEADER + "".join(f"{t:.6f},{db:.6f},{raw:.6f}\n" for t, db, raw in zip(*columns)),
    )


def emit_metrics_csv(report: ExperimentReport, path) -> None:
    """Write method,metric,median,iqr,failures rows at fixed six decimals."""
    _write_text(
        path,
        "method,metric,median,iqr,failures\n"
        + "".join(
            f"{row.method},{row.metric},{row.median:.6f},{row.iqr:.6f},{row.failures}\n"
            for row in report.metrics
        ),
    )
