import inspect

import sparsebeam as sb

# The public API at the point where __all__ came to be built from the
# modules' lists; a name joins or leaves it only on purpose.
PUBLIC_NAMES = [
    "ArrayGeometry", "BeamPattern", "BeamformerWeights", "ConfigError", "DB_FLOOR",
    "Diagnostics", "DomainError", "Ellipsoid", "ExperimentConfig", "ExperimentReport",
    "MetricRow", "Scenario", "SidelobeLevel", "SolverError", "SolverOptions",
    "__version__", "analytic_covariance", "beam_pattern", "build_ellipsoid", "build_q",
    "diagonal_load", "emit_metrics_csv", "emit_pattern_csv", "ensure_covariance",
    "generate_snapshots", "interference_grid", "mvdr", "null_depth", "output_sinr",
    "parse_config", "pointing_error", "run_experiment", "sample_covariance",
    "sidelobe_level", "snm", "solve_rmvb", "solve_rwsc", "solve_sc", "solve_wsc",
    "steering_matrix", "steering_vector",
]


def test_public_names_are_exactly_the_recorded_set():
    assert sorted(sb.__all__) == PUBLIC_NAMES
    assert all(hasattr(sb, name) for name in sb.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sparsebeam import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


# The parameter names of each public callable; None where a class keeps
# its builtin base's constructor. A parameter joins or leaves the API
# only on purpose, as a name does.
SIGNATURES = {
    "ArrayGeometry": ("num_elements", "spacing_wavelengths"),
    "BeamPattern": ("angles_deg", "gain_db", "raw_gain"),
    "BeamformerWeights": ("w", "method", "diagnostics"),
    "ConfigError": ("message", "key"),
    "Diagnostics": ("iterations", "final_objective", "constraint_residual", "converged", "objective_history"),
    "DomainError": None,
    "Ellipsoid": ("center", "shape"),
    "ExperimentConfig": (
        "geometry", "scenario", "methods", "solver_options", "mismatch_deg", "monte_carlo_runs",
        "grid_resolution_deg", "output_dir", "ellipsoid_half_width_deg", "ellipsoid_num_samples",
        "failure_budget",
    ),
    "ExperimentReport": ("methods", "patterns", "metrics", "run_seeds", "failures", "solves"),
    "MetricRow": ("method", "metric", "median", "iqr", "failures"),
    "Scenario": ("soi_doa_deg", "soi_snr_db", "interferers", "num_snapshots", "noise_power", "rng_seed"),
    "SidelobeLevel": ("level_db", "no_sidelobes"),
    "SolverError": None,
    "SolverOptions": (
        "gamma", "p", "max_iterations", "objective_tolerance", "irls_epsilon", "diagonal_loading",
    ),
    "analytic_covariance": ("scenario", "geometry"),
    "beam_pattern": ("weights", "geometry", "resolution_deg"),
    "build_ellipsoid": ("geometry", "theta0_deg", "half_width_deg", "num_samples"),
    "build_q": ("steering_mat", "snapshots"),
    "diagonal_load": ("covariance", "epsilon"),
    "emit_metrics_csv": ("report", "path"),
    "emit_pattern_csv": ("pattern", "path"),
    "ensure_covariance": ("data",),
    "generate_snapshots": ("scenario", "geometry"),
    "interference_grid": ("steer_deg", "step_deg"),
    "mvdr": ("covariance", "a0", "opts"),
    "null_depth": ("pattern", "theta_deg", "window_deg"),
    "output_sinr": ("weights", "scenario", "geometry"),
    "parse_config": ("path",),
    "pointing_error": ("pattern", "true_doa_deg"),
    "run_experiment": ("config",),
    "sample_covariance": ("snapshots",),
    "sidelobe_level": ("pattern", "mainlobe_center_deg"),
    "snm": ("rows",),
    "solve_rmvb": ("covariance", "ellipsoid", "opts"),
    "solve_rwsc": ("covariance", "a", "q", "ellipsoid", "opts"),
    "solve_sc": ("covariance", "a", "a0", "opts"),
    "solve_wsc": ("covariance", "a", "q", "a0", "opts"),
    "steering_matrix": ("geometry", "angles_deg"),
    "steering_vector": ("geometry", "theta_deg"),
}


def _parameter_names(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # no signature: the builtin base's constructor
        return None


def test_public_callables_take_exactly_the_recorded_parameters():
    callables = {name: getattr(sb, name) for name in sb.__all__ if callable(getattr(sb, name))}
    assert {name: _parameter_names(obj) for name, obj in callables.items()} == SIGNATURES
