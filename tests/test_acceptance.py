"""Acceptance gate: every shipped claim, one pass/fail line each.

Runs the two bundled study configs (configs/fig1.cfg and
configs/fig2.cfg, 20 Monte-Carlo runs each) through run_experiment,
scores each run's solve from the report, and checks the algebraic,
feasibility, and qualitative-behavior claims at their stated
tolerances. Criteria are asserted as stated even where the
implementation is known to land elsewhere; failures here are findings,
not tolerances to tune.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import sparsebeam as sb
from sparsebeam import SolverOptions

from _oracles import constraint_parameterization, quadratic_objective, zoom_minimize

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(capsys, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\n[acceptance] {label}: {status}{suffix}")


def _study(name, tmp_path_factory):
    """Per-run metrics of each method of the bundled config ``name``, from run_experiment's solves."""
    config = sb.parse_config(CONFIG_DIR / f"{name}.cfg")
    report = sb.run_experiment(dataclasses.replace(config, output_dir=str(tmp_path_factory.mktemp(name))))
    results = {}
    for method, solves in report.solves.items():
        weights = [solve.w for solve in solves]
        pattern = sb.beam_pattern(weights, config.geometry, 0.1)
        results[method] = {
            "nd70": sb.null_depth(pattern, 70.0),
            "sll": sb.sidelobe_level(pattern, pattern.peak_angle_deg).level_db,
            "pe": sb.pointing_error(pattern, config.scenario.soi_doa_deg),
            "gain0": pattern.gain_db[:, 900],  # grid point at 0 deg
            "residual": [solve.diagnostics.constraint_residual for solve in solves],
            "w": weights,
        }
    return results


@pytest.fixture(scope="module")
def baseline_study(tmp_path_factory):
    return _study("fig1", tmp_path_factory)


@pytest.fixture(scope="module")
def mismatch_study(tmp_path_factory):
    return _study("fig2", tmp_path_factory)


def test_criterion_1_reduction_chain(capsys, sample_r, a_grid, a0, q_weights):
    w_mvdr = sb.mvdr(sample_r, a0).w
    w_sc0 = sb.solve_sc(sample_r, a_grid, a0, SolverOptions(gamma=0.0)).w
    w_sc = sb.solve_sc(sample_r, a_grid, a0).w
    w_wsc_i = sb.solve_wsc(sample_r, a_grid, np.ones(a_grid.shape[1]), a0).w
    point = sb.Ellipsoid(a0, np.zeros((8, 0), dtype=complex))
    w_rmvb_pt = sb.solve_rmvb(sample_r, point).w
    w_rwsc0 = sb.solve_rwsc(sample_r, a_grid, q_weights, point, SolverOptions(gamma=0.0)).w
    gaps = {
        "sc(gamma=0)-mvdr": np.linalg.norm(w_sc0 - w_mvdr),
        "wsc(Q=I)-sc": np.linalg.norm(w_wsc_i - w_sc),
        "rwsc(gamma=0,point)-rmvb(point)": np.linalg.norm(w_rwsc0 - w_rmvb_pt),
        "rmvb(point a0)-mvdr": np.linalg.norm(w_rmvb_pt - w_mvdr),
    }
    ok = all(v <= 1e-8 for v in gaps.values())
    _report(capsys, "criterion 1: reduction chain", ok,
            "max gap %.2e" % max(gaps.values()))
    assert ok, gaps


def test_criterion_2_mvdr_matches_brute_force(capsys):
    rng = np.random.default_rng(42)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = g @ g.conj().T + 0.5 * np.eye(3)
    a0 = sb.steering_vector(sb.ArrayGeometry(3, 0.5), 0.0)
    closed = sb.mvdr(r, a0, SolverOptions(diagonal_loading=0.0))
    _, oracle_val = zoom_minimize(quadratic_objective(r), *constraint_parameterization(a0))
    rel = abs(closed.diagnostics.final_objective - oracle_val) / oracle_val
    ok = rel <= 0.005
    _report(capsys, "criterion 2: closed-form vs brute-force objective", ok, f"rel {rel:.2e}")
    assert ok


def test_criterion_3_feasibility(capsys, geometry, baseline_study, mismatch_study):
    worst_eq = max(max(baseline_study[m]["residual"]) for m in ("mvdr", "sc", "wsc"))
    sweep = sb.steering_matrix(geometry, np.linspace(0.0, 6.0, 61))  # steer 3 +/- 3 deg
    worst_cone = min(
        float((w.conj() @ sweep).real.min())
        for m in ("rmvb", "rwsc")
        for w in mismatch_study[m]["w"]
    )
    ok = worst_eq <= 1e-8 and worst_cone >= 1.0 - 1e-6
    _report(capsys, "criterion 3: distortionless/floor feasibility", ok,
            f"max |w.a0-1| {worst_eq:.1e}, min sweep gain {worst_cone:.6f}")
    assert ok


def test_criterion_4_irls_monotone_and_convergent(capsys, geometry):
    rng = np.random.default_rng(20260815)
    slack_violations = []
    converged = []
    a0 = sb.steering_vector(geometry, 0.0)
    grid = sb.interference_grid(0.0, 1.0)
    a_mat = sb.steering_matrix(geometry, grid)
    ellipsoid = sb.build_ellipsoid(geometry, 0.0, 3.0, 21)
    for _ in range(20):
        j = int(rng.integers(1, 4))
        doas = []
        while len(doas) < j:
            cand = float(rng.uniform(-80.0, 80.0))
            # Interferers outside the mainlobe and mutually resolved, the
            # regime the penalty is designed for; in-lobe interferers make
            # the l1 objective plateau and stall the iteration.
            if abs(cand) >= 10.0 and all(abs(cand - d) >= 5.0 for d in doas):
                doas.append(cand)
        interferers = tuple((d, float(rng.uniform(10.0, 40.0))) for d in doas)
        scen = sb.Scenario(0.0, 10.0, interferers, 100, 1.0, int(rng.integers(0, 2**31)))
        x = sb.generate_snapshots(scen, geometry)
        r = sb.sample_covariance(x)
        q = sb.build_q(a_mat, x)
        for result in (
            sb.solve_sc(r, a_mat, a0),
            sb.solve_wsc(r, a_mat, q, a0),
            sb.solve_rwsc(r, a_mat, q, ellipsoid),
        ):
            diffs = np.diff(result.diagnostics.objective_history)
            slack_violations.append(float(diffs.max(initial=-np.inf)))
            converged.append(result.diagnostics.converged)
    worst = max(slack_violations)
    rate = float(np.mean(converged))
    ok = worst <= 1e-9 and rate >= 0.95
    _report(capsys, "criterion 4: IRLS monotone, >=95% convergent", ok,
            f"worst increase {worst:.1e}, convergence {rate:.0%}")
    assert ok


def test_criterion_5_baseline_null_ordering_and_sidelobes(capsys, baseline_study):
    nd = {m: float(np.median(baseline_study[m]["nd70"])) for m in ("mvdr", "sc", "wsc")}
    sll = {m: float(np.median(baseline_study[m]["sll"])) for m in ("mvdr", "wsc")}
    order_ok = nd["wsc"] < nd["sc"] < nd["mvdr"]
    sll_ok = sll["wsc"] <= sll["mvdr"] - 3.0
    ok = order_ok and sll_ok
    _report(capsys, "criterion 5: 70deg null ordering + sidelobe margin", ok,
            f"nd70 wsc {nd['wsc']:.1f} / sc {nd['sc']:.1f} / mvdr {nd['mvdr']:.1f} dB, "
            f"sll margin {sll['mvdr'] - sll['wsc']:.1f} dB")
    assert ok, (nd, sll)


def test_criterion_6a_mismatched_mvdr_self_nulls(capsys, mismatch_study):
    gain0 = float(np.median(mismatch_study["mvdr"]["gain0"]))
    ok = gain0 <= -20.0
    _report(capsys, "criterion 6a: mis-steered mvdr notch at true DOA", ok,
            f"median gain at 0 deg {gain0:.1f} dB")
    assert ok


def test_criterion_6b_wsc_shifts_by_mismatch(capsys, mismatch_study):
    pe = float(np.median(np.abs(mismatch_study["wsc"]["pe"])))
    ok = 2.0 <= pe <= 4.0
    _report(capsys, "criterion 6b: wsc peak shift near mismatch size", ok,
            f"median |pointing error| {pe:.1f} deg")
    assert ok


def test_criterion_6c_rwsc_steers_at_true_doa(capsys, mismatch_study):
    pe = float(np.median(np.abs(mismatch_study["rwsc"]["pe"])))
    ok = pe <= 1.0
    _report(capsys, "criterion 6c: rwsc peak within 1 deg of true DOA", ok,
            f"median |pointing error| {pe:.1f} deg")
    assert ok


def test_criterion_6d_rwsc_deepens_null_over_rmvb(capsys, mismatch_study):
    nd_rwsc = float(np.median(mismatch_study["rwsc"]["nd70"]))
    nd_rmvb = float(np.median(mismatch_study["rmvb"]["nd70"]))
    ok = nd_rwsc <= nd_rmvb - 5.0
    _report(capsys, "criterion 6d: rwsc 70deg null 5 dB deeper than rmvb", ok,
            f"rwsc {nd_rwsc:.1f} dB vs rmvb {nd_rmvb:.1f} dB")
    assert ok


def test_criterion_7_uniform_taper_pattern_oracle(capsys, geometry, a0):
    pattern = sb.beam_pattern(a0 / 8.0, geometry, 0.1)
    gains = pattern.gain_db
    peak = int(np.argmax(gains))
    nulls = []
    for direction in (-1, 1):
        i = peak
        while 0 < i < gains.size - 1 and gains[i + direction] <= gains[i]:
            i += direction
        nulls.append(float(pattern.angles_deg[i]))
    null_ok = all(
        min(abs(n - t) for t in (-14.48, 14.48)) <= 0.1 for n in nulls
    )
    level = sb.sidelobe_level(pattern, 0.0).level_db
    level_ok = abs(level - (-12.8)) <= 0.3
    ok = null_ok and level_ok
    _report(capsys, "criterion 7: uniform-taper nulls and first sidelobe", ok,
            f"nulls at {nulls[0]:.2f}/{nulls[1]:.2f} deg, sidelobe {level:.2f} dB")
    assert ok


def test_criterion_8_repeat_runs_are_byte_identical(capsys, tmp_path):
    cfg = sb.parse_config(CONFIG_DIR / "fig1.cfg")
    run_a = dataclasses.replace(cfg, output_dir=str(tmp_path / "a"))
    run_b = dataclasses.replace(cfg, output_dir=str(tmp_path / "b"))
    sb.run_experiment(run_a)
    sb.run_experiment(run_b)
    names = ["pattern_mvdr.csv", "pattern_sc.csv", "pattern_wsc.csv", "metrics.csv"]
    same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names
    )
    _report(capsys, "criterion 8: repeated runs byte-identical", same)
    assert same
