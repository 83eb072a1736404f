import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam as sb
import sparsebeam.solvers as solvers
from sparsebeam import DomainError, SolverError, SolverOptions

from _oracles import (
    constraint_parameterization,
    mvdr_direction_reference,
    penalized_objective,
    quadratic_objective,
    run_irls_reference,
    zoom_minimize,
)


def _null_depth_at(w, geometry, doa):
    return sb.null_depth(sb.beam_pattern(w, geometry, 0.1), doa)


class TestMvdr:
    def test_identity_covariance(self, geometry, a0):
        result = sb.mvdr(np.eye(8, dtype=complex), a0)
        np.testing.assert_allclose(result.w, a0 / 8.0, atol=1e-12)
        assert result.method == "mvdr"

    def test_distortionless_constraint(self, sample_r, a0):
        w = sb.mvdr(sample_r, a0).w
        assert abs(w.conj() @ a0 - 1.0) <= 1e-10

    def test_kkt_stationarity(self, sample_r, a0):
        # At the optimum R w is parallel to a0; fit the multiplier by
        # least squares and check the residual vanishes.
        w = sb.mvdr(sample_r, a0).w
        rw = sb.diagonal_load(sample_r, 1e-6) @ w
        lam = (a0.conj() @ rw) / (a0.conj() @ a0)
        assert np.linalg.norm(rw - lam * a0) / np.linalg.norm(rw) <= 1e-8

    def test_scale_equivariance(self, sample_r, a0):
        w1 = sb.mvdr(sample_r, a0).w
        w2 = sb.mvdr(7.5 * sample_r, a0).w
        np.testing.assert_allclose(w1, w2, atol=1e-10)

    def test_accepts_raw_snapshots(self, snapshots, a0):
        # Raw snapshots are rejected: the solvers take a covariance only.
        with pytest.raises(DomainError, match="sample_covariance"):
            sb.mvdr(snapshots, a0)

    def test_strong_interferer_suppressed(self, scenario, geometry, a0):
        r = sb.analytic_covariance(scenario, geometry)
        w = sb.mvdr(r, a0).w
        a70 = sb.steering_vector(geometry, 70.0)
        suppression = abs(w.conj() @ a70) ** 2 / abs(w.conj() @ a0) ** 2
        assert 10.0 * np.log10(suppression) <= -30.0

    def test_zero_steering_vector_rejected(self, sample_r):
        with pytest.raises(DomainError):
            sb.mvdr(sample_r, np.zeros(8, dtype=complex))

    def test_diagnostics_fields(self, sample_r, a0):
        d = sb.mvdr(sample_r, a0).diagnostics
        assert d.iterations == 1
        assert d.converged
        assert d.final_objective > 0


class TestOracleSanity:
    def test_zoom_finds_identity_optimum(self):
        # Known answer: R = I gives w = a0/M. Validates the oracle
        # itself before it is used to judge the solvers. M = 3 keeps the
        # grid search over the 4 free real dimensions tractable.
        a0 = sb.steering_vector(sb.ArrayGeometry(3, 0.5), 0.0)
        w0, basis = constraint_parameterization(a0)
        w_best, val_best = zoom_minimize(quadratic_objective(np.eye(3)), w0, basis)
        assert abs(val_best - 1.0 / 3.0) / (1.0 / 3.0) < 1e-3
        np.testing.assert_allclose(w_best, a0 / 3.0, atol=5e-3)


class TestSolveSc:
    def test_gamma_zero_reduces_to_mvdr(self, sample_r, a_grid, a0):
        # One solve path: the gamma = 0 case is the mvdr solve itself.
        sc = sb.solve_sc(sample_r, a_grid, a0, SolverOptions(gamma=0.0))
        mv = sb.mvdr(sample_r, a0)
        assert np.array_equal(sc.w, mv.w)
        assert sc.diagnostics == mv.diagnostics

    def test_distortionless_and_converged(self, sample_r, a_grid, a0):
        result = sb.solve_sc(sample_r, a_grid, a0)
        assert result.diagnostics.constraint_residual <= 1e-8
        assert result.diagnostics.converged
        assert 1 <= result.diagnostics.iterations <= 100

    def test_objective_monotone(self, sample_r, a_grid, a0):
        history = np.array(sb.solve_sc(sample_r, a_grid, a0).diagnostics.objective_history)
        assert history.size >= 2
        assert np.all(np.diff(history) <= 1e-9)

    def test_objective_monotone_p_half(self, sample_r, a_grid, a0):
        opts = SolverOptions(p=0.5)
        history = np.array(
            sb.solve_sc(sample_r, a_grid, a0, opts).diagnostics.objective_history
        )
        assert np.all(np.diff(history) <= 1e-9)

    def test_small_problem_matches_brute_force(self):
        # M = 3, five penalty directions, p = 1: small enough for the
        # coarse-to-fine affine-set search to be trustworthy.
        geom = sb.ArrayGeometry(3, 0.5)
        scen = sb.Scenario(0.0, 10.0, ((40.0, 15.0),), num_snapshots=200, rng_seed=21)
        r = sb.diagonal_load(sb.sample_covariance(sb.generate_snapshots(scen, geom)), 1e-6)
        a = sb.steering_matrix(geom, [-60.0, -25.0, 20.0, 40.0, 65.0])
        a0 = sb.steering_vector(geom, 0.0)
        opts = SolverOptions(gamma=2.0, p=1.0, diagonal_loading=0.0)
        achieved = sb.solve_sc(r, a, a0, opts)
        objective = penalized_objective(r, a, 2.0, 1.0)
        _, oracle_val = zoom_minimize(objective, *constraint_parameterization(a0))
        mine = float(objective(achieved.w[:, None])[0])
        assert mine <= oracle_val * 1.005

    def test_non_convergence_flagged(self, sample_r, a_grid, a0):
        opts = SolverOptions(max_iterations=3, objective_tolerance=1e-16)
        d = sb.solve_sc(sample_r, a_grid, a0, opts).diagnostics
        assert not d.converged
        assert d.iterations == 3

    def test_dimension_validation(self, sample_r, a_grid):
        with pytest.raises(DomainError):
            sb.solve_sc(sample_r, a_grid, np.ones(7, dtype=complex))


class TestSolveWsc:
    def test_unit_weights_match_sc(self, sample_r, a_grid, a0):
        w_sc = sb.solve_sc(sample_r, a_grid, a0).w
        w_wsc = sb.solve_wsc(sample_r, a_grid, np.ones(a_grid.shape[1]), a0).w
        assert np.max(np.abs(w_sc - w_wsc)) <= 1e-8

    def test_zero_weights_match_mvdr(self, sample_r, a_grid, a0):
        wsc = sb.solve_wsc(sample_r, a_grid, np.zeros(a_grid.shape[1]), a0)
        mv = sb.mvdr(sample_r, a0)
        assert np.array_equal(wsc.w, mv.w)
        assert wsc.diagnostics == mv.diagnostics

    def test_objective_monotone(self, sample_r, a_grid, q_weights, a0):
        history = np.array(
            sb.solve_wsc(sample_r, a_grid, q_weights, a0).diagnostics.objective_history
        )
        assert np.all(np.diff(history) <= 1e-9)

    def test_q_validation(self, sample_r, a_grid, a0):
        with pytest.raises(DomainError):
            sb.solve_wsc(sample_r, a_grid, -np.ones(a_grid.shape[1]), a0)
        with pytest.raises(DomainError):
            sb.solve_wsc(sample_r, a_grid, np.ones(5), a0)

    def test_deepens_strongest_null_over_sc(self, geometry, a_grid, a0, scenario):
        # Data-derived weights concentrate the penalty at 70 deg, which
        # should buy at least 5 dB of median null depth over the
        # unweighted penalty (margin fixed from a baseline run).
        deltas = []
        for i in range(20):
            scen = dataclasses.replace(scenario, rng_seed=scenario.rng_seed + i)
            x = sb.generate_snapshots(scen, geometry)
            r = sb.sample_covariance(x)
            q = sb.build_q(a_grid, x)
            nd_sc = _null_depth_at(sb.solve_sc(r, a_grid, a0).w, geometry, 70.0)
            nd_wsc = _null_depth_at(sb.solve_wsc(r, a_grid, q, a0).w, geometry, 70.0)
            deltas.append(nd_wsc - nd_sc)
        assert np.median(deltas) <= -5.0


def _every_solver(geometry, a_grid, a0):
    ones = np.ones(a_grid.shape[1])
    ellipsoid = sb.build_ellipsoid(geometry, 0.0, 3.0, 13)
    return {
        "mvdr": lambda r: sb.mvdr(r, a0),
        "sc": lambda r: sb.solve_sc(r, a_grid, a0),
        "wsc": lambda r: sb.solve_wsc(r, a_grid, ones, a0),
        "rmvb": lambda r: sb.solve_rmvb(r, ellipsoid),
        "rwsc": lambda r: sb.solve_rwsc(r, a_grid, ones, ellipsoid),
    }


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
@pytest.mark.parametrize("bad", ["nan_entry", "inf_entry", "all_inf"])
def test_non_finite_covariance_rejected(geometry, a_grid, a0, method, bad):
    # One NaN on the diagonal once gave mvdr NaN weights marked
    # converged; an all-inf matrix failed as "steering vector annihilated".
    r = np.eye(8, dtype=complex)
    if bad == "all_inf":
        r[:] = np.inf
    else:
        r[2, 2] = np.nan if bad == "nan_entry" else np.inf
    with pytest.raises(DomainError, match="finite"):
        _every_solver(geometry, a_grid, a0)[method](r)


NON_FINITE_CASES = [
    (method, bad)
    for method in ("sc", "wsc", "rwsc")
    for bad in ("nan_in_a", "inf_in_q", "nan_in_a0")
    if (method, bad) != ("sc", "inf_in_q")  # sc has no q
]


@pytest.mark.parametrize("method, bad", NON_FINITE_CASES)
def test_non_finite_penalty_input_rejected(sample_r, a_grid, a0, method, bad):
    # These were once accepted: a NaN in A or an inf in q gave the
    # unpenalized start with an infinite objective, and a NaN in a0
    # failed only after the solve. rwsc's a0 is its point ellipsoid.
    a, q, a0 = a_grid.copy(), np.ones(a_grid.shape[1]), a0.copy()
    if bad == "nan_in_a":
        a[3, 40] = np.nan
    elif bad == "inf_in_q":
        q[40] = np.inf
    else:
        a0[2] = np.nan
    point = sb.Ellipsoid(a0, np.zeros((8, 0), dtype=complex))
    solve = {
        "sc": lambda: sb.solve_sc(sample_r, a, a0),
        "wsc": lambda: sb.solve_wsc(sample_r, a, q, a0),
        "rwsc": lambda: sb.solve_rwsc(sample_r, a, q, point),
    }[method]
    with pytest.raises(DomainError, match="finite"):
        solve()


def _mis_sized_or_zero_calls(r, a, a0):
    ones, zero = np.ones(a.shape[1]), np.zeros(8, dtype=complex)
    ellipsoid4 = sb.build_ellipsoid(sb.ArrayGeometry(4), 0.0, 3.0, 13)
    return {
        "mvdr_short_a0": lambda: sb.mvdr(r, np.ones(7)),
        "sc_short_a": lambda: sb.solve_sc(r, a[:7], np.ones(7)),
        "rmvb_short_ellipsoid": lambda: sb.solve_rmvb(r, ellipsoid4),
        "rwsc_short_ellipsoid": lambda: sb.solve_rwsc(r, a, ones, ellipsoid4),
        "sc_zero_a0": lambda: sb.solve_sc(r, a, zero),
        "wsc_zero_a0": lambda: sb.solve_wsc(r, a, ones, zero),
    }


@pytest.mark.parametrize(
    "case",
    [
        "mvdr_short_a0",
        "sc_short_a",
        "rmvb_short_ellipsoid",
        "rwsc_short_ellipsoid",
        "sc_zero_a0",
        "wsc_zero_a0",
    ],
)
def test_mis_sized_or_zero_input_rejected_before_lapack(sample_r, a_grid, a0, case, capfd):
    # Size mismatches once reached LAPACK: f2py raised a bare ValueError,
    # and ztrtrs printed "parameter number 9 had an illegal value" first.
    # A zero a0 failed as an annihilated steering vector in sc and wsc.
    with pytest.raises(DomainError):
        _mis_sized_or_zero_calls(sample_r, a_grid, a0)[case]()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc"])
def test_overflowing_solve_raises_instead_of_returning_nan(geometry, a_grid, a0, method):
    # A finite but subnormal covariance: R^-1 a0 overflows to inf, and
    # mvdr once returned the resulting NaN weights marked converged.
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite weights"):
        _every_solver(geometry, a_grid, a0)[method](1e-310 * np.eye(8))


@pytest.mark.parametrize("method", ["sc", "wsc"])
def test_irls_stops_at_the_first_non_finite_step(geometry, a_grid, a0, method, monkeypatch):
    # The unpenalized start is already NaN on this covariance; the loop
    # once ran all 100 reweighted solves on NaN before the check raised.
    calls = []
    mvdr_direction = solvers._mvdr_direction

    def counted(*args):
        calls.append(1)
        return mvdr_direction(*args)

    monkeypatch.setattr(solvers, "_mvdr_direction", counted)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite weights"):
        _every_solver(geometry, a_grid, a0)[method](1e-310 * np.eye(8))
    assert 1 <= len(calls) <= 2


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m=st.integers(2, 16),
    n=st.integers(1, 200),
    p=st.sampled_from([1.0, 0.5, 0.1]),
    gamma=st.sampled_from([0.0, 1e-3, 2.0, 50.0]),
    zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_irls_matches_the_reference_loop_bit_for_bit(
    m, n, p, gamma, zero_fraction, max_iterations, seed
):
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    r = sb.sample_covariance(complex_normal(m, 2 * m))
    a = complex_normal(m, n)
    q = rng.uniform(0.0, 2.0, n)
    q[rng.random(n) < zero_fraction] = 0.0
    a0 = complex_normal(m)
    opts = SolverOptions(gamma=gamma, p=p, max_iterations=max_iterations)

    result = sb.solve_wsc(r, a, q, a0, opts)
    loaded = sb.diagonal_load(0.5 * (r + r.conj().T), opts.diagonal_loading)
    w, iterations, objective, converged, history = run_irls_reference(
        loaded, a * q[None, :], opts, lambda r_eff: mvdr_direction_reference(r_eff, a0)
    )
    diagnostics = result.diagnostics
    assert np.array_equal(result.w, w)
    assert diagnostics.iterations == iterations
    assert diagnostics.final_objective == objective
    assert diagnostics.converged == converged
    assert diagnostics.objective_history == history


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e300])
def test_extreme_covariance_scale_gives_finite_weights_or_solver_error(
    geometry, a_grid, a0, method, scale
):
    with np.errstate(all="ignore"):
        try:
            result = _every_solver(geometry, a_grid, a0)[method](scale * np.eye(8))
        except SolverError:
            return
    assert np.isfinite(result.w).all()


@pytest.mark.parametrize("method", ["mvdr", "wsc", "rmvb", "rwsc"])
def test_indefinite_covariance_fails_factorization(geometry, a_grid, a0, method):
    with pytest.raises(SolverError, match="covariance factorization failed"):
        _every_solver(geometry, a_grid, a0)[method](-np.eye(8))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [option.name for option in dataclasses.fields(SolverOptions)])
def test_solver_options_reject_non_finite(name, value):
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        SolverOptions(**{name: value})


def test_solver_options_validation():
    with pytest.raises(DomainError):
        SolverOptions(p=0.0)
    with pytest.raises(DomainError):
        SolverOptions(p=1.5)
    with pytest.raises(DomainError):
        SolverOptions(gamma=-0.1)
    with pytest.raises(DomainError):
        SolverOptions(max_iterations=0)
    with pytest.raises(DomainError):
        SolverOptions(objective_tolerance=0.0)
    with pytest.raises(DomainError):
        SolverOptions(diagonal_loading=-1.0)
