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
