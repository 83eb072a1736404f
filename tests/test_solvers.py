import dataclasses
import gc
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam as sb
import sparsebeam.covariance as covariance
import sparsebeam.solvers as solvers
from sparsebeam import DomainError, SolverError, SolverOptions
from sparsebeam.arrays import _checked

from _oracles import (
    constraint_parameterization,
    mvdr_direction_reference,
    penalized_objective,
    quadratic_objective,
    run_irls_reference,
    unit_scaled_reference,
    zoom_minimize,
)


FIG1 = Path(__file__).resolve().parent.parent / "configs" / "fig1.cfg"


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

    def test_empty_grid_drops_the_penalty(self, sample_r, a0):
        # An M x 0 A, with a length-0 q, leaves only w^H R w: mvdr.
        empty = np.zeros((8, 0), dtype=complex)
        mv = sb.mvdr(sample_r, a0)
        for solved in (sb.solve_sc(sample_r, empty, a0), sb.solve_wsc(sample_r, empty, np.zeros(0), a0)):
            assert solved.w.tobytes() == mv.w.tobytes()
            assert solved.diagnostics == mv.diagnostics

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

    def test_deepens_strongest_null_over_sc(self, tmp_path):
        # Data-derived weights concentrate the penalty at 70 deg, which
        # should buy at least 5 dB of median null depth over the
        # unweighted penalty across fig1's 20 runs (margin fixed from a
        # baseline run).
        config = sb.parse_config(FIG1)
        solves = sb.run_experiment(dataclasses.replace(config, output_dir=str(tmp_path))).solves
        sc, wsc = ([solve.w for solve in solves[m]] for m in ("sc", "wsc"))
        assert np.median(_null_depth_at(wsc, config.geometry, 70.0) - _null_depth_at(sc, config.geometry, 70.0)) <= -5.0


def _every_solver(geometry, a_grid, a0, q=None, opts=None):
    q = np.ones(a_grid.shape[1]) if q is None else q
    ellipsoid = sb.build_ellipsoid(geometry, 0.0, 3.0, 13)
    return {
        "mvdr": lambda r: sb.mvdr(r, a0, opts),
        "sc": lambda r: sb.solve_sc(r, a_grid, a0, opts),
        "wsc": lambda r: sb.solve_wsc(r, a_grid, q, a0, opts),
        "rmvb": lambda r: sb.solve_rmvb(r, ellipsoid, opts),
        "rwsc": lambda r: sb.solve_rwsc(r, a_grid, q, ellipsoid, opts),
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
def test_overflowing_solve_raises_instead_of_returning_nan(geometry, a_grid, a0, method, monkeypatch):
    # An inner solve that overflows to inf: mvdr once returned the
    # resulting NaN weights marked converged. No finite covariance
    # overflows any more, so the overflow is injected.
    monkeypatch.setattr(solvers, "_mvdr_direction", lambda *args: np.full(8, np.inf + 0j))
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite weights"):
        _every_solver(geometry, a_grid, a0)[method](np.eye(8))


@pytest.mark.parametrize("method", ["sc", "wsc"])
def test_irls_stops_at_the_first_non_finite_step(geometry, a_grid, a0, method, monkeypatch):
    # The unpenalized start is already NaN; the loop once ran all 100
    # reweighted solves on NaN before the check raised.
    calls = []

    def nan_direction(*args):
        calls.append(1)
        return np.full(8, np.nan + 0j)

    monkeypatch.setattr(solvers, "_mvdr_direction", nan_direction)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite weights"):
        _every_solver(geometry, a_grid, a0)[method](np.eye(8))
    assert 1 <= len(calls) <= 2


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m=st.integers(2, 16),
    n=st.integers(1, 200),
    # p/2 = 1/2 takes the square-root penalty; 1/4, 1/8 and 1/20 do not.
    p=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
    # Powers of two (0.25, 2, 64) fold into d's scale; 1e-3 and 50 scale the product.
    gamma=st.sampled_from([0.0, 1e-3, 0.25, 2.0, 50.0, 64.0]),
    zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 100),
    half_width=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_irls_matches_the_reference_loop_bit_for_bit(
    m, n, p, gamma, zero_fraction, max_iterations, half_width, seed
):
    _assert_irls_matches_reference(m, n, p, gamma, zero_fraction, max_iterations, half_width, seed)


# The draws above need not meet every pair; here each p meets each gamma.
@pytest.mark.parametrize("p", [1.0, 0.5, 0.25, 0.1])
@pytest.mark.parametrize("gamma", [1e-3, 0.25, 2.0, 50.0, 64.0])
def test_irls_matches_the_reference_loop_for_every_p_and_gamma(p, gamma):
    _assert_irls_matches_reference(8, 60, p, gamma, 0.5, 30, 2.0, 7)


def _assert_irls_matches_reference(m, n, p, gamma, zero_fraction, max_iterations, half_width, seed):
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    r = sb.sample_covariance(complex_normal(m, 2 * m))
    a = complex_normal(m, n)
    q = rng.uniform(0.0, 2.0, n)
    q[rng.random(n) < zero_fraction] = 0.0
    a0 = complex_normal(m)
    ellipsoid = sb.build_ellipsoid(sb.ArrayGeometry(m), rng.uniform(-60.0, 60.0), half_width)
    opts = SolverOptions(gamma=gamma, p=p, max_iterations=max_iterations)
    loaded = sb.diagonal_load(0.5 * (r + r.conj().T), opts.diagonal_loading)
    center, shape = ellipsoid.center, ellipsoid.shape

    # wsc's distortionless step and rwsc's ellipsoid cone solve.
    for result, inner in [
        (sb.solve_wsc(r, a, q, a0, opts), lambda r_eff: mvdr_direction_reference(r_eff, a0)),
        (sb.solve_rwsc(r, a, q, ellipsoid, opts), lambda r_eff: solvers._cone_solve(r_eff, center, shape)),
    ]:
        w, iterations, objective, converged, history = run_irls_reference(loaded, a * q[None, :], opts, inner)
        diagnostics = result.diagnostics
        assert result.w.tobytes() == w.tobytes()
        assert diagnostics.iterations == iterations
        assert diagnostics.final_objective == objective
        assert diagnostics.converged == converged
        assert diagnostics.objective_history == history


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-200, 1e300])
def test_extreme_covariance_scale_gives_finite_weights_or_solver_error(
    geometry, a_grid, a0, method, scale
):
    # Each inner solve is scaled to unit size, so every scale solves
    # and the SolverError this test once allowed no longer occurs.
    result = _every_solver(geometry, a_grid, a0)[method](scale * np.eye(8))
    assert np.isfinite(result.w).all()


@pytest.mark.parametrize("method", ["mvdr", "rmvb"])
@pytest.mark.parametrize("power", [-500, -340, -1, 1, 300, 480])
def test_power_of_four_scale_keeps_the_weight_bits(geometry, a_grid, sample_r, a0, method, power):
    # Both solves are invariant to R's scale, and a power of four
    # commutes exactly with every step. rmvb's whitened problem once
    # overflowed at 4^-340 and returned the cone apex at 4^300.
    solve = _every_solver(geometry, a_grid, a0)[method]
    assert solve(4.0**power * sample_r).w.tobytes() == solve(sample_r).w.tobytes()


def _window_power(sample_r, edge):
    """j for which 4^j times the loaded R's mean diagonal sits at ``edge`` of [2^-64, 2^64)."""
    loaded = sb.diagonal_load(sample_r, SolverOptions().diagonal_loading)
    exponent = math.frexp(float(np.trace(loaded).real) / 8)[1]  # mean = f 2^exponent, f in [1/2, 1)
    lowest_inside = -((exponent + 63) // 2)  # exponent + 2j is -63 or -62
    highest_inside = (64 - exponent) // 2  # exponent + 2j is 63 or 64
    return {
        "below_low": lowest_inside - 1,
        "low": lowest_inside,
        "high": highest_inside,
        "above_high": highest_inside + 1,
    }[edge]


def _assert_always_scaled_reference_bits(result, method, r, a, q, a0, opts):
    """``result`` has the bits of the reference loop whose every inner solve scales its matrix."""
    ellipsoid = sb.build_ellipsoid(sb.ArrayGeometry(r.shape[0]), 0.0, 3.0, 13)
    center, shape = ellipsoid.center, ellipsoid.shape
    loaded = sb.diagonal_load(sb.ensure_covariance(r), opts.diagonal_loading)
    aq = {"mvdr": a[:, :0], "sc": a, "rmvb": a[:, :0]}.get(method, a * q[None, :])
    if method in ("rmvb", "rwsc"):
        inner = lambda r_eff: solvers._cone_solve(unit_scaled_reference(r_eff), center, shape)
    else:
        inner = lambda r_eff: mvdr_direction_reference(unit_scaled_reference(r_eff), a0)
    w, iterations, objective, converged, history = run_irls_reference(loaded, aq, opts, inner)
    diagnostics = result.diagnostics
    assert result.w.tobytes() == w.tobytes()
    assert (diagnostics.iterations, diagnostics.final_objective, diagnostics.converged) == (
        iterations, objective, converged)
    assert diagnostics.objective_history == history


# Powers of four near the bottom of the float range, where d's scale
# (gamma p/4) is near the smallest normal float: at 2^-1020 a scaled copy
# of A Q once lost bits to subnormals and moved sc's and wsc's weights.
FLOAT_FLOOR = {"2^-1018": -509, "2^-1020": -510}


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
@pytest.mark.parametrize("edge", ["below_low", "low", "high", "above_high", *FLOAT_FLOOR])
def test_skipped_scaling_keeps_the_bits_at_the_window_edges(geometry, a_grid, sample_r, q_weights, a0, method, edge):
    # Inside [2^-64, 2^64) the IRLS steps factor R_eff unscaled. They
    # must give the bits of the reference loop, whose every inner solve
    # scales its matrix into [1/4, 1), and for the scale-free mvdr and
    # rmvb, what R itself gives. gamma is scaled with R, so every IRLS
    # step's R_eff is 4^j times the unit-scale one.
    power = FLOAT_FLOOR[edge] if edge in FLOAT_FLOOR else _window_power(sample_r, edge)
    opts = SolverOptions(gamma=4.0**power * SolverOptions().gamma)
    scaled_r = 4.0**power * sample_r
    result = _every_solver(geometry, a_grid, a0, q_weights, opts)[method](scaled_r)
    _assert_always_scaled_reference_bits(result, method, scaled_r, a_grid, q_weights, a0, opts)
    if method in ("mvdr", "rmvb"):
        assert result.w.tobytes() == _every_solver(geometry, a_grid, a0)[method](sample_r).w.tobytes()


# The bound must refuse the first two, so every step's matrix is tested.
# Subnormal A Q columns, times d, lose bits as the reference's do; they
# must still give the reference bits.
BOUND_CASES = {
    "gamma_2^200": (None, SolverOptions(gamma=2.0**200)),
    "irls_epsilon_1e-300": (None, SolverOptions(irls_epsilon=1e-300)),
    "q_1e-310": (1e-310, SolverOptions()),
    "q_5e-324": (5e-324, SolverOptions()),
}


@pytest.mark.parametrize("method", ["wsc", "rwsc"])
@pytest.mark.parametrize("case", BOUND_CASES)
def test_refused_bounds_and_subnormal_weights_keep_the_reference_bits(
    geometry, a_grid, sample_r, q_weights, a0, method, case
):
    tiny, opts = BOUND_CASES[case]
    q = q_weights.copy()
    if tiny is not None:
        q[::3] = tiny
    result = _every_solver(geometry, a_grid, a0, q, opts)[method](sample_r)
    assert result.diagnostics.iterations > 1
    _assert_always_scaled_reference_bits(result, method, sample_r, a_grid, q, a0, opts)


@pytest.mark.parametrize("case", ["in_window", "gamma_2^200", "irls_epsilon_1e-300"])
def test_scaling_is_tested_each_step_only_where_the_bound_refuses(sample_r, a_grid, a0, monkeypatch, case):
    # fig1's sc solve: its steps' matrices provably stay inside the
    # window, so only the unpenalized start is tested, where every step
    # once tested its own. gamma = 2^200 and irls_epsilon = 1e-300 admit
    # an R_eff outside it, so there every step is tested again.
    calls = []
    unit_scaled = solvers._unit_scaled
    monkeypatch.setattr(solvers, "_unit_scaled", lambda r: calls.append(1) or unit_scaled(r))
    opts = SolverOptions() if case == "in_window" else BOUND_CASES[case][1]
    iterations = sb.solve_sc(sample_r, a_grid, a0, opts).diagnostics.iterations
    assert iterations > 1
    assert len(calls) == (1 if case == "in_window" else 1 + iterations)


def _layouts(x):
    """``x`` in Fortran order, and as every other column of a wider array."""
    wider = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
    wider[..., ::2] = x
    return {"F": np.asfortranarray(x), "strided": wider[..., ::2]}


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
@pytest.mark.parametrize("layout", ["F", "strided"])
def test_input_layout_moves_no_bit(geometry, a_grid, sample_r, q_weights, a0, method, layout):
    # np.dot and @ make one BLAS call only for operands BLAS can take,
    # and BLAS takes a Fortran-ordered or strided operand with another
    # kernel: a Fortran-ordered A once moved sc's, wsc's and rwsc's
    # weights, and a strided a0 the constraint residual.
    expected = _every_solver(geometry, a_grid, a0, q_weights)[method](sample_r)
    a, q, steer, r = (_layouts(x)[layout] for x in (a_grid, q_weights, a0, sample_r))
    result = _every_solver(geometry, a, steer, q)[method](r)
    assert result.w.tobytes() == expected.w.tobytes()
    assert result.diagnostics == expected.diagnostics


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
def test_a_later_solve_leaves_earlier_weights_and_inputs_alone(geometry, a_grid, sample_r, q_weights, a0, method):
    # Each IRLS solve fills its own buffers in place, and an unscaled
    # R_eff goes to LAPACK as it is; neither may alias what a solve
    # returns or what it was given.
    solve = _every_solver(geometry, a_grid, a0, q=q_weights)[method]
    inputs = (sample_r, a_grid, q_weights, a0)
    before = [x.tobytes() for x in inputs]
    first = solve(sample_r)
    kept = first.w.tobytes()
    second = solve(sample_r + np.eye(8))
    assert first.w.tobytes() == kept
    assert second.w.tobytes() != kept
    assert solve(sample_r).w.tobytes() == kept
    assert [x.tobytes() for x in inputs] == before


@pytest.mark.parametrize("method", ["mvdr", "wsc", "rmvb", "rwsc"])
def test_indefinite_covariance_fails_factorization(geometry, a_grid, a0, method):
    with pytest.raises(SolverError, match="covariance factorization failed"):
        _every_solver(geometry, a_grid, a0)[method](-np.eye(8))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [option.name for option in dataclasses.fields(SolverOptions)])
def test_solver_options_reject_non_finite(name, value):
    rule = "an integer" if name == "max_iterations" else "finite"
    with pytest.raises(DomainError, match=f"{name} must be {rule}"):
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


def test_solver_options_reject_zero_irls_epsilon():
    with pytest.raises(DomainError, match=r"irls_epsilon must be finite and lie in \(0, inf\)"):
        SolverOptions(irls_epsilon=0)


FINITE_TRACE_EXTREMES = {
    "one_huge_entry": np.diag([1e308] + [1.0] * 7),
    "near_the_float_limit": np.diag([1.7e308] + [1e300] * 7),
}


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
@pytest.mark.parametrize("case", FINITE_TRACE_EXTREMES)
def test_finite_trace_covariance_solves_at_any_scale(geometry, a_grid, a0, method, case):
    # The Hermitian part and the IRLS step once summed before halving:
    # mvdr, sc and wsc raised "non-finite weights", and rmvb and rwsc
    # leaked numpy's LinAlgError.
    result = _every_solver(geometry, a_grid, a0)[method](FINITE_TRACE_EXTREMES[case])
    assert np.isfinite(result.w).all()


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
def test_infinite_trace_is_a_domain_error(geometry, a_grid, a0, method):
    with pytest.raises(DomainError, match="trace"):
        _every_solver(geometry, a_grid, a0)[method](1e308 * np.eye(8))


def test_tiny_steering_vector_is_annihilated():
    # a0^H R^-1 a0 underflows to zero although a0 is nonzero.
    with pytest.raises(SolverError, match="annihilated"):
        sb.mvdr(np.eye(8), np.full(8, 1e-170 + 0j))


@pytest.mark.parametrize("method", ["sc", "wsc", "rwsc"])
def test_irls_iterations_count_the_history(geometry, sample_r, a_grid, q_weights, a0, method):
    ellipsoid = sb.build_ellipsoid(geometry, 0.0, 3.0, 13)
    result = {
        "sc": lambda: sb.solve_sc(sample_r, a_grid, a0),
        "wsc": lambda: sb.solve_wsc(sample_r, a_grid, q_weights, a0),
        "rwsc": lambda: sb.solve_rwsc(sample_r, a_grid, q_weights, ellipsoid),
    }[method]()
    diagnostics = result.diagnostics
    assert diagnostics.iterations == len(diagnostics.objective_history) > 0


# --- One checked covariance per run -------------------------------------


FIG2 = FIG1.with_name("fig2.cfg")


@pytest.fixture
def covariance_checks(monkeypatch):
    """Count calls of solvers.ensure_covariance."""
    calls = []

    def counted(data):
        calls.append(1)
        return sb.ensure_covariance(data)

    monkeypatch.setattr(solvers, "ensure_covariance", counted)
    return calls


def test_a_study_checks_each_covariance_once(tmp_path, covariance_checks):
    # fig1 solves mvdr, sc and wsc on each run's covariance: 2 checks,
    # where every solve once checked and loaded R again (6).
    config = dataclasses.replace(sb.parse_config(FIG1), output_dir=str(tmp_path), monte_carlo_runs=2)
    report = sb.run_experiment(config)
    assert sum(report.failures.values()) == 0
    assert len(covariance_checks) == 2


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
def test_a_public_solve_checks_the_covariance_once(geometry, sample_r, a_grid, a0, method, monkeypatch):
    # A solve once checked R in ensure_covariance, then again in diagonal_load.
    names = []

    def counted(name, *args, **kwargs):
        names.append(name)
        return _checked(name, *args, **kwargs)

    monkeypatch.setattr(covariance, "_checked", counted)
    _every_solver(geometry, a_grid, a0)[method](sample_r)
    assert names == ["covariance"]


def test_a_covariance_changed_in_place_is_checked_again(sample_r, a_grid, a0, covariance_checks):
    r = sample_r.copy()
    first = sb.solve_sc(r, a_grid, a0)
    r[0, 0] += 1.0
    changed = sb.solve_sc(r, a_grid, a0)
    assert len(covariance_checks) == 2
    assert changed.w.tobytes() != first.w.tobytes()
    assert changed.w.tobytes() == sb.solve_sc(r.copy(), a_grid, a0).w.tobytes()


@pytest.mark.parametrize("first, second", [(1e-6, 1e-3), (0.0, -0.0)])
def test_another_loading_loads_again(a0, covariance_checks, first, second):
    # -0.0 passes the loading check, and it keeps the -0.0 entries of R
    # that 0.0 turns into +0.0.
    r = np.diag(np.arange(1.0, 9.0)).astype(complex)
    r[0, 1] = r[1, 0] = -0.0
    opts = SolverOptions(diagonal_loading=second)
    sb.mvdr(r, a0, SolverOptions(diagonal_loading=first))
    result = sb.mvdr(r, a0, opts)
    assert len(covariance_checks) == 2
    expected = sb.diagonal_load(sb.ensure_covariance(r), second)
    [loaded] = solvers._Study([r], [None], second).rs
    assert loaded.tobytes() == expected.tobytes()
    [solved] = solvers._solve_runs("mvdr", [loaded], None, None, a0, opts)
    assert solved.w.tobytes() == result.w.tobytes()


def test_a_non_hermitian_covariance_after_a_good_one_is_rejected(sample_r, a0, covariance_checks):
    sb.mvdr(sample_r, a0)
    bad = sample_r.copy()
    bad[0, 1] += 1.0
    with pytest.raises(DomainError, match="Hermitian"):
        sb.mvdr(bad, a0)


@pytest.mark.parametrize("method", ["mvdr", "sc", "wsc", "rmvb", "rwsc"])
def test_the_problem_covariance_is_never_shared(geometry, sample_r, a_grid, a0, method, monkeypatch):
    rs = []
    run_irls = solvers._run_irls

    def recorded(stack, *args):
        rs.extend(stack)
        return run_irls(stack, *args)

    monkeypatch.setattr(solvers, "_run_irls", recorded)
    r = sample_r.copy()
    result = _every_solver(geometry, a_grid, a0)[method](r)
    [loaded] = rs
    assert not np.shares_memory(loaded, r)
    assert not np.shares_memory(loaded, result.w)
    assert all(not isinstance(value, np.ndarray) for value in vars(result.diagnostics).values())


def _counted(monkeypatch, name):
    """Count the calls of solvers.<name>, which _solve looks up at call time."""
    calls = []
    original = getattr(solvers, name)
    monkeypatch.setattr(solvers, name, lambda *args: calls.append(1) or original(*args))
    return calls


def _assert_no_shared_weights(report):
    weights = [solve.w for solves in report.solves.values() for solve in solves]
    assert len(weights) == len(report.methods) * len(report.run_seeds)
    for i, w in enumerate(weights):
        assert not any(np.shares_memory(w, other) for other in weights[i + 1:])


@pytest.mark.parametrize("config, seam, methods", [
    (FIG1, "_mvdr_direction", ("mvdr", "sc", "wsc")),
    (FIG2, "_cone_solve", ("rmvb", "rwsc")),
])
def test_each_method_solves_its_own_start(tmp_path, monkeypatch, config, seam, methods):
    # Every method of a run makes its own unpenalized solve, as the
    # reference loop does, where sc and wsc once took the run's mvdr solve
    # and rwsc its rmvb solve: one inner solve per run and method, then
    # one per IRLS step.
    calls = _counted(monkeypatch, seam)
    report = sb.run_experiment(dataclasses.replace(
        sb.parse_config(config), methods=methods, monte_carlo_runs=2, output_dir=str(tmp_path)))
    assert report.total_failures == 0
    steps = sum(solve.diagnostics.iterations for method in methods[1:] for solve in report.solves[method])
    assert len(calls) == 2 * len(methods) + steps
    _assert_no_shared_weights(report)


@pytest.mark.parametrize("methods", [("mvdr", "sc", "wsc"), ("sc", "wsc", "mvdr")])
def test_with_gamma_zero_every_method_solves_the_same_start(tmp_path, monkeypatch, methods):
    # With gamma = 0 every method's weights are the run's unpenalized
    # solve, which each method makes itself: the same bits in weight
    # vectors of their own, whatever the method order.
    calls = _counted(monkeypatch, "_mvdr_direction")
    config = dataclasses.replace(sb.parse_config(FIG1), methods=methods, monte_carlo_runs=2,
                                 solver_options=SolverOptions(gamma=0.0), output_dir=str(tmp_path))
    report = sb.run_experiment(config)
    assert len(calls) == 6
    _assert_no_shared_weights(report)
    for run in range(2):
        assert len({report.solves[method][run].w.tobytes() for method in methods}) == 1


def test_a_failed_first_step_keeps_the_methods_own_start(sample_r, a_grid, a0, monkeypatch):
    # sc's first step is NaN, so sc keeps the start it solved itself:
    # mvdr's weights, bit for bit.
    opts = SolverOptions()
    [loaded] = solvers._Study([sample_r], [None], opts.diagonal_loading).rs
    [first] = solvers._solve_runs("mvdr", [loaded], None, None, a0, opts)
    direction = solvers._mvdr_direction
    calls = []

    def nan_after_the_start(*args):
        calls.append(1)
        return direction(*args) if len(calls) == 1 else np.full(8, np.nan + 0j)

    monkeypatch.setattr(solvers, "_mvdr_direction", nan_after_the_start)
    with np.errstate(all="ignore"):
        [kept] = solvers._solve_runs("sc", [loaded], a_grid, None, a0, opts)
    assert len(calls) == 2
    assert kept.diagnostics.iterations == 0
    assert kept.w.tobytes() == first.w.tobytes()
    assert not np.shares_memory(kept.w, first.w)


# --- Lockstep batches ---------------------------------------------------


def _batch(method, covariances, a, qs, geometry, a0, opts=None):
    """``_solve_runs`` on each covariance, loaded, in one call, and each run's public solve."""
    opts = opts or SolverOptions()
    rs = solvers._Study(covariances, qs, opts.diagonal_loading).rs
    constraint = sb.build_ellipsoid(geometry, 0.0, 3.0, 13) if method == "rwsc" else a0
    batched = solvers._solve_runs(method, rs, a, None if method == "sc" else qs, constraint, opts)
    solo = {
        "sc": lambda r, q: sb.solve_sc(r, a, a0, opts),
        "wsc": lambda r, q: sb.solve_wsc(r, a, q, a0, opts),
        "rwsc": lambda r, q: sb.solve_rwsc(r, a, q, constraint, opts),
    }[method]
    return batched, solo


def _assert_solo_bits(result, expected):
    assert result.w.tobytes() == expected.w.tobytes()
    assert repr(result.diagnostics) == repr(expected.diagnostics)


@pytest.mark.parametrize("method", ["sc", "wsc", "rwsc"])
def test_a_batch_keeps_each_runs_own_scale_decisions(geometry, sample_r, a_grid, q_weights, a0, method, monkeypatch):
    # gamma = 2^-1019 puts d's scale at 2^-1021, near the smallest normal
    # float. The runs' A Q differ in size (q times 2^100, unit q, and q
    # with subnormal entries), and R times 2^-1020 and 2^200 refuse the
    # bound, so those runs' steps are tested for scaling and the first
    # run's are not. One stack must keep each run's solo bits.
    opts = SolverOptions(gamma=2.0**-1019)
    tiny = q_weights.copy()
    tiny[::3] = 1e-310
    covariances = [sample_r, 2.0**-1020 * sample_r, 2.0**200 * sample_r]
    qs = [2.0**100 * q_weights, q_weights, tiny]
    stacks = []
    run_irls = solvers._run_irls
    monkeypatch.setattr(solvers, "_run_irls", lambda problems, *args: stacks.append(len(problems)) or run_irls(
        problems, *args))
    batched, solo = _batch(method, covariances, a_grid, qs, geometry, a0, opts)
    assert stacks == [3]
    for result, r, q in zip(batched, covariances, qs):
        assert result.diagnostics.iterations > 1
        _assert_solo_bits(result, solo(r, q))


@pytest.mark.parametrize("method", ["sc", "wsc"])
def test_a_run_that_fails_mid_batch_fails_alone(sample_r, geometry, a_grid, q_weights, a0, method, monkeypatch):
    # Run 1's inner solve raises at its third IRLS step; the runs after it
    # move up the stack, and every other run keeps its solo bits.
    covariances = [sample_r + j * np.eye(8) for j in range(4)]
    qs = [q_weights * (1.0 + j / 8) for j in range(4)]
    inputs = []
    direction = solvers._mvdr_direction
    monkeypatch.setattr(solvers, "_mvdr_direction", lambda r, *args: inputs.append(r.tobytes()) or direction(r, *args))
    solo = _batch(method, covariances[1:2], a_grid, qs[1:2], geometry, a0)[0][0]
    assert solo.diagnostics.iterations > 3
    third_step = inputs[3]  # after the unpenalized start and two steps

    def failing(r, *args):
        if r.tobytes() == third_step:
            raise SolverError("injected")
        return direction(r, *args)

    monkeypatch.setattr(solvers, "_mvdr_direction", failing)
    batched, solve = _batch(method, covariances, a_grid, qs, geometry, a0)
    monkeypatch.setattr(solvers, "_mvdr_direction", direction)
    assert isinstance(batched[1], SolverError)
    for run in (0, 2, 3):
        _assert_solo_bits(batched[run], solve(covariances[run], qs[run]))


def test_batches_follow_the_byte_bound(tmp_path, monkeypatch):
    # fig1's A is 8 x 180: sc stacks one 23 KiB product per run, so its 20
    # runs are one batch, and wsc three (A Q, its conjugate and the
    # product), so 15 fit in 1 MiB. wide's 32 x 720 A fits sc twice, wsc once.
    stacks = []
    run_irls = solvers._run_irls
    monkeypatch.setattr(solvers, "_run_irls", lambda problems, *args: stacks.append(len(problems)) or run_irls(
        problems, *args))
    fig1 = sb.parse_config(FIG1)
    report = sb.run_experiment(dataclasses.replace(fig1, output_dir=str(tmp_path / "fig1")))
    assert report.total_failures == 0
    assert stacks == [20, 20, 15, 5]
    stacks.clear()
    wide = sb.parse_config(FIG1.parent.parent / "perfbench" / "configs" / "wide.cfg")
    sb.run_experiment(dataclasses.replace(wide, methods=("sc", "wsc"), monte_carlo_runs=3,
                                          output_dir=str(tmp_path / "wide")))
    assert stacks == [2, 1, 1, 1, 1]


def test_a_study_checks_each_shared_input_once(tmp_path, monkeypatch):
    # Every solve of a study once checked A, a0 and q: 20 times per
    # method on fig1.
    names = []

    def counted(name, *args, **kwargs):
        names.append(name)
        return _checked(name, *args, **kwargs)

    monkeypatch.setattr(solvers, "_checked", counted)
    sb.run_experiment(dataclasses.replace(sb.parse_config(FIG1), output_dir=str(tmp_path)))
    assert {name: names.count(name) for name in names} == {"steering vector a0": 3, "steering matrix A": 2, "q": 20}


def test_a_study_leaves_nothing_for_the_garbage_collector(tmp_path, monkeypatch):
    # A cycle between a study and its runs would keep every run's arrays
    # until a collection; none is left to collect. Nor may a failed run:
    # a kept SolverError's traceback once held the results list that
    # holds it (184 objects at a 3-run fig1 study).
    for name, config in (("fig1", FIG1), ("fig2", FIG2)):
        sb.run_experiment(dataclasses.replace(
            sb.parse_config(config), monte_carlo_runs=1, output_dir=str(tmp_path / f"warm-{name}")))
    gc.collect()
    gc.disable()
    try:
        for name, config in (("fig1", FIG1), ("fig2", FIG2)):
            report = sb.run_experiment(dataclasses.replace(
                sb.parse_config(config), monte_carlo_runs=3, output_dir=str(tmp_path / name)))
            assert report.total_failures == 0
        del report
        assert gc.collect() == 0
        # fig1's mvdr makes 3 inner solves and sc 3 starts before its
        # steps: the 5th call fails a start, the 7th a step.
        direction = solvers._mvdr_direction
        for failing_call in (5, 7):
            calls = []

            def failing(*args):
                calls.append(1)
                if len(calls) == failing_call:
                    raise SolverError("injected")
                return direction(*args)

            monkeypatch.setattr(solvers, "_mvdr_direction", failing)
            report = sb.run_experiment(dataclasses.replace(
                sb.parse_config(FIG1), monte_carlo_runs=3, output_dir=str(tmp_path / f"failing-{failing_call}")))
            assert report.failures == {"mvdr": 0, "sc": 1, "wsc": 0}
            del report
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("zero_run", [0, 1])
def test_an_unpenalized_run_before_a_penalized_one_leaves_the_stack(
        geometry, sample_r, a_grid, q_weights, a0, zero_run):
    # A run whose q is all zero is solved by its start alone; the penalized
    # runs after it move up the stack of per-run A Q copies.
    covariances = [sample_r + j * np.eye(8) for j in range(3)]
    qs = [q_weights * (1.0 + j / 8) for j in range(3)]
    qs[zero_run] = np.zeros_like(q_weights)
    batched, solo = _batch("wsc", covariances, a_grid, qs, geometry, a0)
    for result, r, q in zip(batched, covariances, qs):
        _assert_solo_bits(result, solo(r, q))
    assert batched[zero_run].diagnostics.iterations == 1
    assert batched[zero_run].w.tobytes() == sb.mvdr(covariances[zero_run], a0).w.tobytes()
    assert all(batched[run].diagnostics.iterations > 1 for run in range(3) if run != zero_run)
