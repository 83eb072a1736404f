import dataclasses
import errno
import importlib.util
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import emit_metrics_csv_reference, emit_pattern_csv_reference, metric_summaries_reference
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam as sb
from sparsebeam import ConfigError, experiment
from sparsebeam.analysis import _median_pattern
from sparsebeam.experiment import ExperimentConfig, _metric_names, _summaries, parse_config, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CLI_DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"
SOLVE_DIGESTS = Path(__file__).resolve().parent / "data" / "solve_digests.json"
# The digest tests and the script that re-records tests/data share its digest functions.
RECORDER = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "record_digests.py"

MINIMAL = """
array.num_elements = 4
scenario.soi_doa_deg = 0
scenario.soi_snr_db = 10
experiment.methods = mvdr
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _fast_config(tmp_path, methods="mvdr,sc", extra=""):
    return _write(
        tmp_path,
        MINIMAL.replace("experiment.methods = mvdr", f"experiment.methods = {methods}")
        + "scenario.interferers = 40:20\n"
        + "scenario.num_snapshots = 30\n"
        + f"experiment.output_dir = {tmp_path / 'out'}\n"
        + extra,
    )


class TestParseConfig:
    def test_bundled_baseline_config(self):
        cfg = parse_config(CONFIG_DIR / "fig1.cfg")
        assert cfg.geometry.num_elements == 8
        assert cfg.geometry.spacing_wavelengths == 0.5
        assert cfg.scenario.num_snapshots == 100
        assert cfg.scenario.interferers == ((-30.0, 20.0), (30.0, 20.0), (70.0, 40.0))
        assert cfg.solver_options.gamma == 2.0
        assert cfg.solver_options.p == 1.0
        assert cfg.methods == ("mvdr", "sc", "wsc")
        assert cfg.mismatch_deg == 0.0
        assert cfg.monte_carlo_runs == 20

    def test_bundled_mismatch_config(self):
        cfg = parse_config(CONFIG_DIR / "fig2.cfg")
        assert cfg.mismatch_deg == 3.0
        assert cfg.methods == ("mvdr", "sc", "wsc", "rmvb", "rwsc")
        assert cfg.ellipsoid_half_width_deg == 3.0
        assert cfg.ellipsoid_num_samples == 61
        assert cfg.steer_deg == 3.0

    def test_defaults_filled(self, tmp_path):
        cfg = parse_config(_write(tmp_path, MINIMAL))
        assert cfg.geometry.spacing_wavelengths == 0.5
        assert cfg.scenario.noise_power == 1.0
        assert cfg.scenario.rng_seed == 0
        assert cfg.monte_carlo_runs == 1
        assert cfg.grid_resolution_deg == 1.0
        assert cfg.failure_budget == 0
        assert cfg.ellipsoid_half_width_deg is None
        assert cfg.effective_half_width_deg == 3.0
        assert cfg.solver_options == sb.SolverOptions()

    def test_mismatch_drives_default_half_width(self, tmp_path):
        cfg = parse_config(_write(tmp_path, MINIMAL + "experiment.mismatch_deg = -5\n"))
        assert cfg.effective_half_width_deg == 5.0

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(
            _write(tmp_path, "# leading comment\n\n" + MINIMAL + "scenario.rng_seed = 5 # eol\n")
        )
        assert cfg.scenario.rng_seed == 5

    def test_unknown_key_rejected_with_key_name(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario.snr"):
            parse_config(_write(tmp_path, MINIMAL + "scenario.snr = 10\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(_write(tmp_path, MINIMAL + "scenario.soi_snr_db = 3\n"))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(_write(tmp_path, MINIMAL + "just some words\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment.methods"):
            parse_config(_write(tmp_path, "array.num_elements = 4\n"
                                          "scenario.soi_doa_deg = 0\n"
                                          "scenario.soi_snr_db = 10\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            parse_config(tmp_path / "absent.cfg")

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="array.num_elements"):
            parse_config(_write(tmp_path, MINIMAL.replace(
                "array.num_elements = 4", "array.num_elements = four")))

    def test_interferer_at_soi_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(_write(tmp_path, MINIMAL + "scenario.interferers = 0:20\n"))

    def test_malformed_interferers(self, tmp_path):
        with pytest.raises(ConfigError, match="interferers"):
            parse_config(_write(tmp_path, MINIMAL + "scenario.interferers = 30;20\n"))

    def test_unknown_method_rejected(self, tmp_path):
        for methods in ("mvdr,magic", "mvdr,sc,mvdr", "", " , "):
            with pytest.raises(ConfigError, match="experiment.methods"):
                parse_config(_write(tmp_path, MINIMAL.replace(
                    "experiment.methods = mvdr", f"experiment.methods = {methods}")))

    def test_mistyped_required_key_reported_as_unknown(self, tmp_path):
        # Unknown keys are checked before any value is parsed, so the typo
        # is named instead of the experiment.methods it hides.
        with pytest.raises(ConfigError, match="experiment.method: unknown key"):
            parse_config(_write(tmp_path, MINIMAL.replace("experiment.methods", "experiment.method")))

    def test_keys_are_the_dataclass_fields_in_the_readme_table(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = set(re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", readme, flags=re.M))
        assert len(table) == 22 and experiment._KEYS == table
        # A field whose annotation has no parser would silently lose its key.
        nested = {"geometry", "scenario", "solver_options"}
        for cls in experiment._SECTIONS.values():
            for f in dataclasses.fields(cls):
                assert f.name in nested or f.type in experiment._PARSERS, (cls.__name__, f.name, f.type)

    def test_config_invariants(self, geometry):
        scen = sb.Scenario(0.0, 10.0, ())
        with pytest.raises(sb.DomainError):
            ExperimentConfig(geometry=geometry, scenario=scen, methods=())
        with pytest.raises(sb.DomainError):
            ExperimentConfig(geometry=geometry, scenario=scen, methods=("mvdr", "mvdr"))
        with pytest.raises(sb.DomainError):
            ExperimentConfig(geometry=geometry, scenario=scen, methods=("mvdr",),
                             monte_carlo_runs=0)
        with pytest.raises(sb.DomainError):
            ExperimentConfig(geometry=geometry, scenario=scen, methods=("mvdr",),
                             grid_resolution_deg=2.0)

    def test_interferers_sharing_a_metric_name_rejected(self, geometry, tmp_path):
        # Null-depth metrics are named by the DOA to six significant
        # digits, so 30 and 30.0000001 would give two null_depth_30deg rows.
        scen = sb.Scenario(0.0, 10.0, ((30.0, 20.0), (30.0000001, 20.0), (-40.0, 20.0)))
        with pytest.raises(sb.DomainError, match=r"30\.0 and 30\.0000001 .*null_depth_30deg"):
            ExperimentConfig(geometry=geometry, scenario=scen, methods=("mvdr",))
        with pytest.raises(ConfigError, match=r"30\.0 and 30\.0000001"):
            parse_config(_write(tmp_path, MINIMAL + "scenario.interferers = 30:20,30.0000001:20\n"))
        close = sb.Scenario(0.0, 10.0, ((30.0, 20.0), (30.0001, 20.0)))
        cfg = ExperimentConfig(geometry=geometry, scenario=close, methods=("mvdr",))
        assert [n for n in _metric_names(cfg.scenario) if n.startswith("null_depth")] == [
            "null_depth_30deg", "null_depth_30.0001deg"]

    def test_nested_section_error_outranks_a_missing_own_key(self, tmp_path):
        # The solver section is built before experiment's own keys, so its
        # bad value is named instead of the missing experiment.methods.
        text = MINIMAL.replace("experiment.methods = mvdr", "solver.gamma = abc")
        with pytest.raises(ConfigError, match="solver.gamma"):
            parse_config(_write(tmp_path, text))

    def test_file_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes(MINIMAL.encode("utf-8") + b"# caf\xff\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))} is not UTF-8"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("solver.gamma = abc", "solver.gamma: invalid value: expected a number"),
            ("solver.gamma = inf", "solver.gamma: invalid value: must be finite"),
            ("ellipsoid.half_width_deg = -1",
             r"experiment: .*ellipsoid_half_width_deg must be finite and lie in \[0, inf\)"),
        ],
    )
    def test_bad_value_names_its_key_or_section(self, tmp_path, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(_write(tmp_path, MINIMAL + line + "\n"))

    def test_empty_interferers_value_is_no_interferers(self, tmp_path):
        cfg = parse_config(_write(tmp_path, MINIMAL + "scenario.interferers =\n"))
        assert cfg.scenario.interferers == ()


class TestRunExperiment:
    def test_artifacts_and_row_counts(self, tmp_path):
        cfg = parse_config(_fast_config(tmp_path, extra="experiment.monte_carlo_runs = 2\n"))
        report = run_experiment(cfg)
        out = Path(cfg.output_dir)
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "pattern_mvdr.csv", "pattern_sc.csv"]
        for method in cfg.methods:
            lines = (out / f"pattern_{method}.csv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == "theta_deg,gain_db,raw_gain"
            assert len(lines) == 182  # header + 181 grid rows
        assert report.run_seeds == (0, 1)
        assert report.total_failures == 0

    def test_metrics_table_complete(self, tmp_path):
        cfg = parse_config(_fast_config(tmp_path))
        report = run_experiment(cfg)
        expected_metrics = {
            "null_depth_40deg", "sidelobe_level_db", "pointing_error_deg", "output_sinr_db"}
        seen = {(r.method, r.metric) for r in report.metrics}
        assert seen == {(m, n) for m in cfg.methods for n in expected_metrics}
        lines = (Path(cfg.output_dir) / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,metric,median,iqr,failures"
        assert len(lines) == 1 + len(cfg.methods) * len(expected_metrics)
        for row in report.metrics:
            assert row.iqr >= 0.0 or np.isnan(row.iqr)
            assert row.failures == 0

    def test_deterministic_output_bytes(self, tmp_path):
        cfg_path = _fast_config(tmp_path, extra="experiment.monte_carlo_runs = 2\n")
        cfg = parse_config(cfg_path)
        run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "a")))
        run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")))
        for name in ("pattern_mvdr.csv", "pattern_sc.csv", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_pattern_csv_is_renormalized(self, tmp_path):
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr",
                                        extra="experiment.monte_carlo_runs = 3\n"))
        run_experiment(cfg)
        rows = (Path(cfg.output_dir) / "pattern_mvdr.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert data[:, 1].max() == 0.0  # gain_db peak
        assert data[:, 2].max() == 1.0  # raw gain peak

    def test_aggregates_match_manual_recomputation(self, tmp_path):
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr",
                                        extra="experiment.monte_carlo_runs = 4\n"))
        report = run_experiment(cfg)
        values, raws = [], []
        for seed in report.run_seeds:
            scen = dataclasses.replace(cfg.scenario, rng_seed=seed)
            x = sb.generate_snapshots(scen, cfg.geometry)
            w = sb.mvdr(sb.sample_covariance(x), sb.steering_vector(cfg.geometry, 0.0)).w
            values.append(sb.output_sinr(w, scen, cfg.geometry))
            raws.append(sb.beam_pattern(w, cfg.geometry, cfg.grid_resolution_deg).raw_gain)
        row = next(r for r in report.metrics
                   if r.method == "mvdr" and r.metric == "output_sinr_db")
        assert row.median == pytest.approx(float(np.median(values)), abs=1e-12)
        assert row.iqr == pytest.approx(
            float(np.percentile(values, 75) - np.percentile(values, 25)), abs=1e-12)
        # The median pattern is of each run's own |w^H a|^2, bit for bit.
        median_raw = np.median(raws, axis=0)
        peak = median_raw.max()
        pattern = report.patterns["mvdr"]
        assert pattern.raw_gain.tobytes() == (median_raw / peak).tobytes()
        with np.errstate(divide="ignore"):
            gain_db = np.maximum(10.0 * np.log10(median_raw / peak), sb.DB_FLOOR)
        assert pattern.gain_db.tobytes() == gain_db.tobytes()

    def test_mismatch_moves_steer_and_grid(self, tmp_path):
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr",
                                        extra="experiment.mismatch_deg = 3\n"))
        assert cfg.steer_deg == 3.0
        grid = sb.interference_grid(cfg.steer_deg, cfg.grid_resolution_deg)
        assert not np.any(np.isclose(grid, 3.0))
        run_experiment(cfg)  # still completes end to end

    def test_db_floor_serialization(self, tmp_path):
        geom = sb.ArrayGeometry(2, 0.5)
        pattern = sb.beam_pattern(sb.steering_vector(geom, 0.0) / 2.0, geom, 1.0)
        path = tmp_path / "floor.csv"
        sb.emit_pattern_csv(pattern, path)
        text = path.read_text(encoding="utf-8")
        assert "-200.000000" in text
        assert text.endswith("\n") and "\r" not in text

    def test_every_solve_goes_through_the_module_namespace(self, tmp_path, monkeypatch):
        # perfbench/tracing.py and the failure tests swap these names in
        # sparsebeam.experiment; a swapped name must be the one called.
        import sparsebeam.experiment as exp

        calls = []

        def counted(name, solve):
            return lambda *args: calls.append(name) or solve(*args)

        names = ("mvdr", "solve_sc", "solve_wsc", "solve_rmvb", "solve_rwsc")
        for name in names:
            monkeypatch.setattr(exp, name, counted(name, getattr(exp, name)))
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr,sc,wsc,rmvb,rwsc"))
        report = run_experiment(cfg)
        assert sorted(calls) == sorted(names)
        assert report.total_failures == 0

    def test_solver_failures_counted_and_excluded(self, tmp_path, monkeypatch):
        import sparsebeam.experiment as exp

        calls = {"n": 0}
        real = exp.mvdr

        def flaky(r, a0, opts=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise sb.SolverError("synthetic failure")
            return real(r, a0, opts)

        monkeypatch.setattr(exp, "mvdr", flaky)
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr",
                                        extra="experiment.monte_carlo_runs = 3\n"))
        report = run_experiment(cfg)
        assert report.failures == {"mvdr": 1}
        for row in report.metrics:
            assert row.failures == 1
        # medians computed over the two surviving runs only
        lines = (Path(cfg.output_dir) / "metrics.csv").read_text().splitlines()
        assert all(line.endswith(",1") for line in lines[1:])
        # The report keeps each run's solve, in run_seeds order; the failed one is None.
        solves = report.solves["mvdr"]
        assert len(solves) == len(report.run_seeds) == 3 and solves[0] is None
        a0 = sb.steering_vector(cfg.geometry, cfg.steer_deg)
        for seed, solve in zip(report.run_seeds[1:], solves[1:]):
            snapshots = sb.generate_snapshots(dataclasses.replace(cfg.scenario, rng_seed=seed), cfg.geometry)
            direct = sb.mvdr(sb.sample_covariance(snapshots), a0, cfg.solver_options)
            assert solve.w.tobytes() == direct.w.tobytes()

    def test_all_runs_failed_yields_header_only_pattern(self, tmp_path, monkeypatch):
        import sparsebeam.experiment as exp

        def broken(r, a0, opts=None):
            raise sb.SolverError("synthetic failure")

        monkeypatch.setattr(exp, "mvdr", broken)
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr"))
        report = run_experiment(cfg)
        assert report.failures == {"mvdr": 1}
        assert (Path(cfg.output_dir) / "pattern_mvdr.csv").read_text() == "theta_deg,gain_db,raw_gain\n"
        row = next(iter(report.metrics))
        assert np.isnan(row.median)


    def test_an_identically_zero_pattern_fails_only_its_run(self, tmp_path, monkeypatch):
        # Zero weights from the second solve once aborted the study with
        # DomainError; that run now counts as failed, exactly as a
        # SolverError from the same solve does.
        import sparsebeam.experiment as exp

        real = exp.mvdr

        def second_solve(outcome):
            calls = {"n": 0}

            def solve(r, a0, opts=None):
                calls["n"] += 1
                result = real(r, a0, opts)
                return outcome(result) if calls["n"] == 2 else result

            return solve

        def zero(result):
            return dataclasses.replace(result, w=np.zeros_like(result.w))

        def fail(result):
            raise sb.SolverError("synthetic failure")

        cfg = parse_config(_fast_config(tmp_path, methods="mvdr", extra="experiment.monte_carlo_runs = 3\n"))
        reports = {}
        for name, outcome in (("zero", zero), ("fail", fail)):
            monkeypatch.setattr(exp, "mvdr", second_solve(outcome))
            reports[name] = run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / name)))
        assert reports["zero"].failures == {"mvdr": 1}
        assert reports["zero"].metrics == reports["fail"].metrics
        # The zero-weight run keeps its solve in the report; the raised one has None.
        assert not reports["zero"].solves["mvdr"][1].w.any()
        assert reports["fail"].solves["mvdr"][1] is None
        for name in reports:
            assert len(reports[name].solves["mvdr"]) == len(reports[name].run_seeds)
        for csv in ("metrics.csv", "pattern_mvdr.csv"):
            assert (tmp_path / "zero" / csv).read_bytes() == (tmp_path / "fail" / csv).read_bytes()

    def test_all_patterns_identically_zero_yield_header_only_pattern(self, tmp_path, monkeypatch):
        import sparsebeam.experiment as exp

        real = exp.mvdr
        monkeypatch.setattr(exp, "mvdr", lambda r, a0, opts=None: dataclasses.replace(
            real(r, a0, opts), w=np.zeros(4, dtype=complex)))
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr,sc", extra="experiment.monte_carlo_runs = 2\n"))
        report = run_experiment(cfg)
        assert report.failures == {"mvdr": 2, "sc": 0}
        assert (Path(cfg.output_dir) / "pattern_mvdr.csv").read_text() == "theta_deg,gain_db,raw_gain\n"
        assert all(np.isnan(row.median) for row in report.metrics if row.method == "mvdr")
        assert not any(np.isnan(row.median) for row in report.metrics if row.method == "sc")

    def test_a_collapsed_median_pattern_fails_every_run_of_its_method(self, tmp_path, monkeypatch):
        # Weights this small keep only their own mainlobe's peak above the
        # float range's bottom: each run's pattern is nonzero, yet at every
        # grid angle at least two of the three are 0, and so is the median.
        import sparsebeam.experiment as exp

        geometry = sb.ArrayGeometry(4)
        weights = [4e-163 * sb.steering_vector(geometry, doa) for doa in (-60.0, 0.0, 60.0)]
        for w in weights:
            sb.beam_pattern(w, geometry)  # not identically zero
        with pytest.raises(sb.SolverError, match="collapsed"):
            _median_pattern(weights, geometry, 1.0)
        tiny = iter(weights)
        real = exp.mvdr
        monkeypatch.setattr(exp, "mvdr", lambda r, a0, opts=None: dataclasses.replace(
            real(r, a0, opts), w=next(tiny)))
        cfg = parse_config(_fast_config(tmp_path, methods="mvdr,sc", extra="experiment.monte_carlo_runs = 3\n"))
        report = run_experiment(cfg)
        assert report.failures == {"mvdr": 3, "sc": 0}
        assert "mvdr" not in report.patterns
        assert (Path(cfg.output_dir) / "pattern_mvdr.csv").read_text() == "theta_deg,gain_db,raw_gain\n"
        assert all(np.isnan(row.median) and row.failures == 3 for row in report.metrics if row.method == "mvdr")


def test_a_study_outgrows_its_runs_only_by_their_covariances_and_q(tmp_path):
    # The data pass keeps each run's loaded R (8 x 8) and q (180 entries);
    # no run's M x K snapshots, 2.4 MiB at K = 20000, may outlive it. The
    # solve pass's lockstep batches add stacks bounded by 1 MiB whatever
    # the run count (at 6 runs here, 6 stacked M x N products for sc and
    # 3 per run for wsc: ~0.4 MiB), so the bound holds as it did.
    config = parse_config(CONFIG_DIR / "fig1.cfg")
    config = dataclasses.replace(config, scenario=dataclasses.replace(config.scenario, num_snapshots=20000))
    snapshot_bytes = 8 * 20000 * 16
    # The first study fills the module caches (steering matrices, grids).
    run_experiment(dataclasses.replace(config, monte_carlo_runs=1, output_dir=str(tmp_path / "warm")))
    peaks = {}
    for runs in (2, 6):
        tracemalloc.start()
        try:
            run_experiment(dataclasses.replace(config, monte_carlo_runs=runs, output_dir=str(tmp_path / str(runs))))
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[6] - peaks[2] < snapshot_bytes


@pytest.fixture
def record_digests():
    """The recorder script, loaded here so that only the digest tests depend on it."""
    spec = importlib.util.spec_from_file_location("record_digests", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fig1", "fig2", "wide"])
def test_bundled_configs_write_recorded_csv_bytes(tmp_path, record_digests, name):
    """fig1's and fig2's CSV bytes (20 runs each) and wide's equal the recorded SHA-256s.

    These bytes are the CLI's contract; wide's are the first to move
    when a data-size layer changes. The digests were recorded with
    single-threaded OpenBLAS on x86-64. Like the benchmark's
    csv_identical, the check assumes the same BLAS kernels: another
    BLAS, CPU kernel or thread count may round the last bits of a
    product differently. Re-record them with .github/scripts/record_digests.py.
    """
    written = record_digests.csv_digests(name, tmp_path)
    assert written == json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", ["fig1", "fig2", "wide"])
def test_bundled_configs_solve_recorded_bits(tmp_path, record_digests, name):
    """Every solve of the first 2 runs of fig1, fig2 and wide equals its recorded digest.

    A CSV rounds to six decimals, so an inner-loop change that moves a
    last bit of w, an objective or a residual can leave the CSV digests
    above unchanged; this pins the solves themselves. Recorded like
    them, with single-threaded OpenBLAS on x86-64.
    """
    recorded = json.loads(SOLVE_DIGESTS.read_text(encoding="utf-8"))[name]
    assert record_digests.solve_digests(name, tmp_path) == recorded


# Metric values with ties, signed zeros, the -200 dB floor and values
# that round to +/-0.000000 or sit on a six-decimal rounding edge.
_METRIC_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -200.0, 1.0, 2.5, -30.0, 5e-7, -5e-7, 4.9999995e-7, 1e-300]),
    st.floats(-300.0, 300.0),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(count=st.integers(1, 6), data=st.data())
def test_summaries_match_the_per_metric_loop(count, data):
    runs = data.draw(st.lists(st.lists(_METRIC_VALUES, min_size=count, max_size=count), max_size=9))
    names = [f"metric_{i}" for i in range(count)]
    per_metric = {name: [run[i] for run in runs] for i, name in enumerate(names)} if runs else {}
    expected = metric_summaries_reference(per_metric, names)
    medians, iqrs = _summaries(runs, count)
    assert np.array(list(zip(medians, iqrs))).tobytes() == np.array(expected).tobytes()

    def report(summaries):
        rows = tuple(sb.MetricRow("wsc", name, m, i, 2) for name, (m, i) in zip(names, summaries))
        return sb.ExperimentReport(("wsc",), {}, rows, (0,), {"wsc": 2})

    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        sb.emit_metrics_csv(report(zip(medians, iqrs)), new)
        emit_metrics_csv_reference(report(expected), old)
        assert new.read_bytes() == old.read_bytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([-90.0, -0.0, 0.0, 0.05, 89.95]), st.floats(-90.0, 90.0)),
            st.one_of(st.sampled_from([-200.0, -0.0, 0.0, -3.0103]), st.floats(-200.0, 0.0)),
            st.one_of(
                st.sampled_from([0.0, 1.0, 1e-20, 5e-324, 5e-7, 4.9999995e-7]), st.floats(0.0, 1.0)
            ),
        ),
        max_size=40,
    )
)
def test_pattern_csv_matches_the_row_by_row_writer(rows):
    columns = [np.array(column, dtype=float) for column in zip(*rows)] or [np.empty(0)] * 3
    pattern = sb.BeamPattern(*columns)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        sb.emit_pattern_csv(pattern, new)
        emit_pattern_csv_reference(pattern, old)
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("rows", [3, 181])
def test_pattern_csv_refuses_a_stacked_pattern(tmp_path, geometry, a0, rows):
    # A k x G stack of gains once raised numpy's concatenation error for
    # k != G and, for k = G (181 vectors on the 1-degree grid), wrote
    # k * G rows of interleaved columns.
    pattern = sb.beam_pattern(np.tile(a0 / 8.0, (rows, 1)), geometry, 1.0)
    path = tmp_path / "pattern.csv"
    with pytest.raises(sb.DomainError, match=rf"\({rows}, 181\)"):
        sb.emit_pattern_csv(pattern, path)
    assert not path.exists()


@pytest.mark.parametrize("emit, value", [
    (sb.emit_pattern_csv, sb.BeamPattern(*[np.empty(0)] * 3)),
    (sb.emit_metrics_csv, sb.ExperimentReport(("mvdr",), {}, (), (0,), {"mvdr": 0})),
])
def test_emitters_raise_the_os_error_of_the_path(tmp_path, emit, value):
    # The writers once replaced it by a bare OSError with errno None.
    with pytest.raises(IsADirectoryError) as caught:
        emit(value, tmp_path)
    assert caught.value.errno == errno.EISDIR and caught.value.filename == str(tmp_path)
