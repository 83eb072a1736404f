import dataclasses
import statistics
from pathlib import Path

import pytest

import sparsebeam as sb
from sparsebeam.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL = """
array.num_elements = 4
scenario.soi_doa_deg = 0
scenario.soi_snr_db = 10
scenario.interferers = 40:20
scenario.num_snapshots = 30
experiment.methods = mvdr
"""


def _write(tmp_path, text, name="cli.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_validate_bundled_configs(capsys):
    for name in ("fig1.cfg", "fig2.cfg"):
        assert main(["validate", str(CONFIG_DIR / name)]) == 0
        assert "config OK" in capsys.readouterr().out


def test_run_at_a_grid_step_that_does_not_divide_180(tmp_path, capsys):
    # At 0.13 deg the penalty grid once ended at 90.05 deg: validate said
    # "config OK" and run died in steering_matrix with a traceback.
    path = _write(tmp_path, SMALL.replace("mvdr", "mvdr,wsc") + "experiment.grid_resolution_deg = 0.13\n")
    assert main(["validate", path]) == 0
    assert main(["run", path, "--runs", "1", "--out", str(tmp_path / "o")]) == 0
    assert "wsc: 1 run(s) ok" in capsys.readouterr().out


def test_validate_bad_key_exits_1(tmp_path, capsys):
    path = _write(tmp_path, SMALL + "array.elements = 9\n")
    assert main(["validate", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_missing_file_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    out = tmp_path / "results"
    assert main(["run", path, "--out", str(out)]) == 0
    assert (out / "pattern_mvdr.csv").exists()
    assert (out / "metrics.csv").exists()
    assert "metrics.csv" in capsys.readouterr().out


def test_run_flag_overrides_and_determinism(tmp_path):
    path = _write(tmp_path, SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(a), "--runs", "2", "--seed", "99"]) == 0
    assert main(["run", path, "--out", str(b), "--runs", "2", "--seed", "99"]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "pattern_mvdr.csv").read_bytes() == (b / "pattern_mvdr.csv").read_bytes()


def test_run_seed_changes_results(tmp_path):
    path = _write(tmp_path, SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", path, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_run_invalid_override_exits_1(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    assert main(["run", path, "--runs", "0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_failures_over_budget_exit_2(tmp_path, monkeypatch, capsys):
    import sparsebeam.experiment as exp

    def broken(r, a0, opts=None):
        raise sb.SolverError("synthetic failure")

    monkeypatch.setattr(exp, "mvdr", broken)
    path = _write(tmp_path, SMALL + f"experiment.output_dir = {tmp_path / 'o'}\n")
    assert main(["run", path]) == 2
    assert "failure budget" in capsys.readouterr().err


def test_failures_within_budget_exit_0(tmp_path, monkeypatch):
    import sparsebeam.experiment as exp

    def broken(r, a0, opts=None):
        raise sb.SolverError("synthetic failure")

    monkeypatch.setattr(exp, "mvdr", broken)
    path = _write(
        tmp_path,
        SMALL + f"experiment.output_dir = {tmp_path / 'o'}\n" + "experiment.failure_budget = 1\n",
    )
    assert main(["run", path]) == 0


def test_run_prints_converged_counts_over_the_solves_that_returned(tmp_path, monkeypatch, capsys):
    # The summary once printed only "sc: 4 run(s) ok, 0 failed", whatever
    # the solves' diagnostics said.
    import sparsebeam.experiment as exp

    calls = []

    def second_run_fails(r, a0, opts=None):
        calls.append(1)
        if len(calls) == 2:
            raise sb.SolverError("synthetic failure")
        return sb.mvdr(r, a0, opts)

    monkeypatch.setattr(exp, "mvdr", second_run_fails)
    path = _write(tmp_path, SMALL.replace("mvdr", "mvdr,sc,wsc") + "experiment.failure_budget = 1\n")
    assert main(["run", path, "--runs", "4", "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # The failed run's solve did not return, so it is not counted.
    assert lines[0] == "mvdr: 3 run(s) ok, 1 failed, 3/3 converged (median 1 iterations)"
    report = sb.run_experiment(dataclasses.replace(sb.parse_config(path), monte_carlo_runs=4,
                                                   output_dir=str(tmp_path / "p")))
    for method, line in zip(("sc", "wsc"), lines[1:3]):
        diagnostics = [solve.diagnostics for solve in report.solves[method]]
        assert min(d.iterations for d in diagnostics) > 1
        converged = sum(d.converged for d in diagnostics)
        iterations = statistics.median(d.iterations for d in diagnostics)
        assert line == f"{method}: 4 run(s) ok, 0 failed, {converged}/4 converged (median {iterations:g} iterations)"


def test_bad_seed_rejected_at_every_boundary(tmp_path, capsys):
    # A negative seed was once accepted and reported OK by validate, then
    # failed inside np.random.default_rng with a numpy traceback.
    for seed in (-1, 1.5):
        with pytest.raises(sb.DomainError, match="rng_seed"):
            sb.Scenario(0.0, 10.0, rng_seed=seed)
    path = _write(tmp_path, SMALL + "scenario.rng_seed = -1\n")
    with pytest.raises(sb.ConfigError, match="rng_seed"):
        sb.parse_config(path)
    assert main(["validate", path]) == 1
    assert main(["run", _write(tmp_path, SMALL, "ok.cfg"), "--out", str(tmp_path / "o"), "--seed", "-5"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "rng_seed" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--seed", "1.5", "scenario.rng_seed"),
        ("--runs", "abc", "experiment.monte_carlo_runs"),
        ("--runs", "2.5", "experiment.monte_carlo_runs"),
    ],
)
def test_bad_flag_value_is_a_config_error(tmp_path, capsys, flag, value, key):
    # argparse once parsed these flags itself and exited 2, the code of
    # solver failures over budget.
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, SMALL), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_empty_output_dir_is_a_config_error(tmp_path, monkeypatch, capsys):
    # An empty output_dir once passed validate ("output -> ") and run
    # wrote its CSVs into the working directory.
    monkeypatch.chdir(tmp_path)
    assert main(["validate", _write(tmp_path, SMALL + "experiment.output_dir =\n", "empty.cfg")]) == 1
    assert main(["run", _write(tmp_path, SMALL), "--out", ""]) == 1
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and err.count("output_dir") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cli.cfg", "empty.cfg"]


def test_unusable_output_dir_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    # The output directory was once made after every run: all 20 fig1
    # runs were solved, then the CLI died with a NotADirectoryError.
    import sparsebeam.experiment as exp

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("mvdr called before the output directory was made")

    monkeypatch.setattr(exp, "mvdr", counted)
    regular = tmp_path / "file"
    regular.write_text("", encoding="utf-8")
    out = regular / "sub"
    assert main(["run", str(CONFIG_DIR / "fig1.cfg"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert "Traceback" not in captured.err
    assert calls == []


@pytest.mark.parametrize(
    "settings",
    [
        {"scenario.soi_doa_deg": "100"},
        {"scenario.interferers": "120:20"},
        {"scenario.soi_doa_deg": "89", "experiment.mismatch_deg": "3"},
        {"scenario.soi_doa_deg": "85", "experiment.mismatch_deg": "3", "experiment.methods": "mvdr,rmvb,rwsc"},
    ],
    ids=["soi", "interferer", "steer", "ellipsoid"],
)
def test_direction_outside_the_half_plane_is_a_config_error(tmp_path, capsys, settings):
    # Each once passed validate as "config OK", and run then died with a
    # DomainError traceback from steering_vector or steering_matrix.
    lines = [line for line in SMALL.splitlines() if line.partition(" =")[0] not in settings]
    path = _write(tmp_path, "\n".join(lines + [f"{key} = {value}" for key, value in settings.items()]))
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "[-90, 90]" in err and "Traceback" not in err


def test_validate_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    # The CLI once printed the codec's message, which does not name the file.
    path = tmp_path / "latin.cfg"
    path.write_bytes(SMALL.encode("utf-8") + b"# caf\xff\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and str(path) in err


def test_unwritable_csv_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "metrics.csv").mkdir(parents=True)
    assert main(["run", _write(tmp_path, SMALL), "--runs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1 and "metrics.csv" in err
    assert "Traceback" not in err


def test_a_source_power_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    # validate once printed "config OK", and run died with an OverflowError traceback.
    path = _write(tmp_path, SMALL.replace("soi_snr_db = 10", "soi_snr_db = 3100"))
    assert main(["validate", path]) == 1
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2 and err.count("soi_snr_db") == 2 and err.count("\n") == 2


@pytest.mark.parametrize(
    "config",
    [
        # Each source power is finite at 3080 dB, but X X^H overflows: the
        # covariance's DomainError once escaped as a traceback.
        SMALL.replace("soi_snr_db = 10", "soi_snr_db = 3080"),
        # The loading of each covariance overflows; every run once failed
        # with a misleading SolverError.
        SMALL + "solver.diagonal_loading = 1.7e308\n",
    ],
    ids=["covariance_overflows", "loading_overflows"],
)
def test_a_domain_error_in_the_study_is_a_study_error(tmp_path, capsys, config):
    path = _write(tmp_path, config)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("study error: ") and err.count("\n") == 1 and "overflows" in err
