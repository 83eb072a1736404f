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
