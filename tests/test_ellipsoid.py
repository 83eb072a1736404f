"""Ellipsoid construction and the cone-constrained solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam as sb
from sparsebeam import DomainError, Ellipsoid, SolverError, SolverOptions
from sparsebeam.solvers import _cone_multiplier

from _oracles import cone_multiplier_bisect


def _containment(ellipsoid, vectors):
    """Max of ||E^+ (a - c)|| plus the off-column-space residual."""
    pinv = np.linalg.pinv(ellipsoid.shape)
    deltas = vectors - ellipsoid.center[:, None]
    coords = pinv @ deltas
    off_space = deltas - ellipsoid.shape @ coords
    return np.linalg.norm(coords, axis=0).max(), np.abs(off_space).max()


def _sample_gains(w, geometry, theta0, half_width, samples):
    """real(w^H a) at the angles build_ellipsoid fits its ellipsoid to."""
    angles = np.linspace(theta0 - half_width, theta0 + half_width, samples)
    return (w.conj() @ sb.steering_matrix(geometry, angles)).real


@pytest.fixture(scope="module")
def ellipsoid3(geometry):
    return sb.build_ellipsoid(geometry, 0.0, 3.0, 61)


@pytest.fixture(scope="module")
def point_ellipsoid(a0):
    return Ellipsoid(a0, np.zeros((8, 0), dtype=complex))


class TestBuildEllipsoid:
    @pytest.mark.parametrize("num_samples", [13, 61])
    def test_samples_contained(self, geometry, num_samples):
        ell = sb.build_ellipsoid(geometry, 0.0, 3.0, num_samples)
        samples = sb.steering_matrix(geometry, np.linspace(-3.0, 3.0, num_samples))
        radius, off_space = _containment(ell, samples)
        assert radius <= 1.0 + 1e-9
        assert off_space <= 1e-8

    def test_boundary_is_tight(self, geometry):
        # The scaling is the smallest that contains every sample (up to
        # a 1e-6 roundoff pad), so a sample sits essentially on the shell.
        ell = sb.build_ellipsoid(geometry, 0.0, 3.0, 13)
        samples = sb.steering_matrix(geometry, np.linspace(-3.0, 3.0, 13))
        radius, _ = _containment(ell, samples)
        assert radius >= 1.0 - 1e-5

    def test_containment_is_order_free(self, geometry, ellipsoid3):
        # Containment is a statement about the sample set, so checking
        # the same vectors in any order gives the same verdict.
        samples = sb.steering_matrix(geometry, np.linspace(-3.0, 3.0, 61))
        radius, _ = _containment(ellipsoid3, samples[:, ::-1])
        assert radius <= 1.0 + 1e-9

    def test_off_center_direction(self, geometry):
        ell = sb.build_ellipsoid(geometry, 40.0, 2.0, 21)
        samples = sb.steering_matrix(geometry, np.linspace(38.0, 42.0, 21))
        radius, off_space = _containment(ell, samples)
        assert radius <= 1.0 + 1e-9
        assert off_space <= 1e-8

    def test_zero_half_width_degenerates_to_point(self, geometry, a0):
        ell = sb.build_ellipsoid(geometry, 0.0, 0.0)
        np.testing.assert_allclose(ell.center, a0, atol=1e-15)
        assert ell.shape.shape == (8, 0)
        assert ell.rank == 0

    def test_validation(self, geometry):
        with pytest.raises(DomainError):
            sb.build_ellipsoid(geometry, 0.0, 3.0, 1)
        with pytest.raises(DomainError):
            sb.build_ellipsoid(geometry, 0.0, -1.0)

    def test_samples_that_round_to_one_vector_give_a_point(self, geometry):
        # Near endfire every sample rounds to the same steering vector, so
        # every singular value is zero and no axis survives.
        ell = sb.build_ellipsoid(geometry, 89.9999999, 1e-8, 4)
        assert ell.rank == 0
        assert ell.shape.shape == (8, 0) and ell.shape.dtype == complex


class TestSolveRmvb:
    def test_point_at_a0_matches_mvdr(self, sample_r, a0, point_ellipsoid):
        w_rmvb = sb.solve_rmvb(sample_r, point_ellipsoid).w
        w_mvdr = sb.mvdr(sample_r, a0).w
        assert np.linalg.norm(w_rmvb - w_mvdr) <= 1e-8

    def test_identity_point_case(self, a0, point_ellipsoid):
        w = sb.solve_rmvb(np.eye(8, dtype=complex), point_ellipsoid).w
        np.testing.assert_allclose(w, a0 / 8.0, atol=1e-10)

    def test_constraint_active_at_optimum(self, sample_r, ellipsoid3):
        d = sb.solve_rmvb(sample_r, ellipsoid3).diagnostics
        assert abs(d.constraint_residual) <= 1e-9

    def test_feasible_over_dense_sweep(self, sample_r, geometry, ellipsoid3):
        w = sb.solve_rmvb(sample_r, ellipsoid3).w
        sweep = sb.steering_matrix(geometry, np.linspace(-3.0, 3.0, 61))
        assert (w.conj() @ sweep).real.min() >= 1.0 - 1e-6

    def test_objective_scale_invariance(self, sample_r, ellipsoid3):
        # Scaling R scales the objective but not the constraint set, so
        # the minimizer is unchanged.
        w1 = sb.solve_rmvb(sample_r, ellipsoid3).w
        w2 = sb.solve_rmvb(9.0 * sample_r, ellipsoid3).w
        assert np.linalg.norm(w1 - w2) <= 1e-8

    def test_beats_brute_force_over_feasible_candidates(self, sample_r, ellipsoid3):
        # Any feasible w is an upper bound for the optimum objective.
        rng = np.random.default_rng(17)
        r = sb.diagonal_load(sample_r, 1e-6)
        w_opt = sb.solve_rmvb(sample_r, ellipsoid3).w
        opt_obj = float((w_opt.conj() @ r @ w_opt).real)
        c, e = ellipsoid3.center, ellipsoid3.shape
        for _ in range(200):
            w = w_opt + 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            margin = float((w.conj() @ c).real - np.linalg.norm(e.conj().T @ w))
            if margin >= 1.0:
                assert float((w.conj() @ r @ w).real) >= opt_obj - 1e-9

    def test_a_zero_column_leaves_the_solve_unchanged(self, sample_r, ellipsoid3):
        # Its singular value is 0; it once made the cone multiplier divide by 0.
        padded = Ellipsoid(ellipsoid3.center, np.column_stack([ellipsoid3.shape, np.zeros(8)]))
        w = sb.solve_rmvb(sample_r, ellipsoid3).w
        np.testing.assert_allclose(sb.solve_rmvb(sample_r, padded).w, w, rtol=1e-12, atol=0)

    def test_an_all_zero_shape_is_the_point(self, sample_r, a0, point_ellipsoid):
        # Once "ellipsoid constraint is infeasible", though the set is {a0}.
        zero = sb.solve_rmvb(sample_r, Ellipsoid(a0, np.zeros((8, 2), dtype=complex)))
        point = sb.solve_rmvb(sample_r, point_ellipsoid)
        assert zero.w.tobytes() == point.w.tobytes()
        assert repr(zero.diagnostics) == repr(point.diagnostics)

    def test_infeasible_ellipsoid_raises(self, sample_r, a0):
        # ||a0|| = sqrt(8) < 3, so the ball of radius 3 around a0
        # contains the origin and no weight vector can hold the floor.
        fat = Ellipsoid(a0, 3.0 * np.eye(8, dtype=complex))
        with pytest.raises(SolverError):
            sb.solve_rmvb(sample_r, fat)

    # (30, 40, 61) puts the optimum at the cone apex, E^H w = 0.
    @pytest.mark.parametrize("theta0, half_width, samples", [(0, 10, 41), (30, 40, 61)])
    def test_wide_but_feasible_ellipsoid(self, sample_r, geometry, theta0, half_width, samples):
        ell = sb.build_ellipsoid(geometry, theta0, half_width, samples)
        result = sb.solve_rmvb(sample_r, ell)
        assert result.diagnostics.constraint_residual >= -1e-6
        assert _sample_gains(result.w, geometry, theta0, half_width, samples).min() >= 1.0 - 1e-6


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    m=st.sampled_from([4, 8, 16, 32]),
    half_width=st.sampled_from([3.0, 10.0, 20.0, 40.0]),
    offset=st.floats(-1.0, 1.0),
    samples=st.sampled_from([13, 61]),
    snapshots=st.sampled_from(["M", "2M", "100"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_rmvb_holds_gain_floor_or_raises(m, half_width, offset, samples, snapshots, seed):
    geometry = sb.ArrayGeometry(m, 0.5)
    theta0 = offset * (88.0 - half_width)
    k = {"M": m, "2M": 2 * m, "100": 100}[snapshots]
    scenario = sb.Scenario(0.0, 10.0, ((-30.0, 20.0), (30.0, 20.0), (70.0, 40.0)), k, 1.0, seed)
    r = sb.sample_covariance(sb.generate_snapshots(scenario, geometry))
    try:
        result = sb.solve_rmvb(r, sb.build_ellipsoid(geometry, theta0, half_width, samples))
    except SolverError:
        return
    assert result.diagnostics.constraint_residual >= -1e-9
    assert _sample_gains(result.w, geometry, theta0, half_width, samples).min() >= 1.0 - 1e-6


@pytest.fixture(scope="module")
def normal_r():
    rng = np.random.default_rng(0)
    return sb.sample_covariance(rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40)))


@pytest.mark.parametrize("k", [-500, -300, 300, 500])
def test_robust_solves_are_scale_free_in_the_ellipsoid(normal_r, geometry, a_grid, q_weights, k):
    # The cone program is homogeneous in the ellipsoid: its center and
    # shape times t = 2^k give the weights divided by t. For t = 2^-300
    # and 2^-500 rmvb once returned a feasible point with 2.5 times the
    # optimal output power (|cbar|^2 sigma^2 underflowed, so Newton
    # started at nu = inf), and for 2^300 and 2^500 both solvers raised
    # a false "ellipsoid constraint is infeasible".
    ellipsoid, t = sb.build_ellipsoid(geometry, 0.0, 3.0), 2.0**k
    scaled = Ellipsoid(t * ellipsoid.center, t * ellipsoid.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        robust = sb.solve_rmvb(normal_r, scaled)
        sparse = sb.solve_rwsc(normal_r, a_grid, q_weights, scaled)
    assert (t * robust.w).tobytes() == sb.solve_rmvb(normal_r, ellipsoid).w.tobytes()
    assert np.isfinite(sparse.w).all()
    assert sparse.diagnostics.constraint_residual >= -1e-9


def test_a_vanishing_shape_solves_without_warning(normal_r, geometry):
    # sum |cbar|^2 / sigma^2, the apex test, overflows for a shape this
    # small; inf > 1 is the right branch, and it once warned on the way.
    ellipsoid = sb.build_ellipsoid(geometry, 0.0, 3.0)
    point = sb.solve_rmvb(normal_r, Ellipsoid(ellipsoid.center, np.zeros((8, 0), dtype=complex)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = sb.solve_rmvb(normal_r, Ellipsoid(ellipsoid.center, 1e-160 * ellipsoid.shape))
    np.testing.assert_allclose(tiny.w, point.w, rtol=1e-12, atol=0)


# sigma spans up to 12 decades, as the whitened axes of build_ellipsoid
# shapes do on the benchmark's fig2 and wide studies; cbar is scaled so
# that the apex limit L = sum |cbar|^2 / sigma^2 falls on either side of
# 1. As L falls to 1 the root runs off to infinity and its relative
# condition number grows like 1 / (L - 1), so rounding alone separates
# two correct roots there; limits within 2.3 % of 1 are left out.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    rank=st.integers(1, 16),
    top=st.floats(-3.0, 3.0),
    decades=st.floats(0.0, 12.0),
    log_limit=st.one_of(st.floats(-2.0, -0.01), st.floats(0.01, 6.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cone_multiplier_matches_bisection(rank, top, decades, log_limit, seed):
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** (top - decades * np.sort(rng.uniform(0.0, 1.0, rank)))
    cbar = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    cbar *= np.sqrt(10.0**log_limit / np.sum(np.abs(cbar) ** 2 / sigma**2))
    nu, reference = _cone_multiplier(sigma, cbar), cone_multiplier_bisect(sigma, cbar)
    if np.isinf(reference):
        assert nu == np.inf
        return
    assert abs(nu - reference) <= 1e-12 * reference
    h = nu * nu * np.sum(sigma**2 * np.abs(cbar) ** 2 / (1.0 + nu * sigma**2) ** 2)
    assert h >= 1.0 - 1e-12


class TestSolveRwsc:
    def test_gamma_zero_matches_rmvb(self, sample_r, a_grid, q_weights, ellipsoid3):
        # One solve path: the gamma = 0 case is the rmvb solve itself.
        rwsc = sb.solve_rwsc(sample_r, a_grid, q_weights, ellipsoid3, SolverOptions(gamma=0.0))
        rmvb = sb.solve_rmvb(sample_r, ellipsoid3)
        assert np.array_equal(rwsc.w, rmvb.w)
        assert rwsc.diagnostics == rmvb.diagnostics

    def test_gamma_zero_point_matches_point_rmvb(self, sample_r, a_grid, q_weights, point_ellipsoid):
        rwsc = sb.solve_rwsc(sample_r, a_grid, q_weights, point_ellipsoid, SolverOptions(gamma=0.0))
        rmvb = sb.solve_rmvb(sample_r, point_ellipsoid)
        assert np.array_equal(rwsc.w, rmvb.w)
        assert rwsc.diagnostics == rmvb.diagnostics

    def test_point_with_unit_weights_matches_sc(self, sample_r, a_grid, a0, point_ellipsoid):
        # With a point ellipsoid the cone constraint collapses to
        # real(w^H a0) >= 1, whose optimum matches the equality-
        # constrained sparse solve.
        ones = np.ones(a_grid.shape[1])
        w_rwsc = sb.solve_rwsc(sample_r, a_grid, ones, point_ellipsoid).w
        w_sc = sb.solve_sc(sample_r, a_grid, a0).w
        assert np.linalg.norm(w_rwsc - w_sc) <= 1e-6

    def test_objective_monotone(self, sample_r, a_grid, q_weights, ellipsoid3):
        history = np.array(
            sb.solve_rwsc(sample_r, a_grid, q_weights, ellipsoid3).diagnostics.objective_history
        )
        assert history.size >= 2
        assert np.all(np.diff(history) <= 1e-9)

    def test_feasible_over_dense_sweep(self, sample_r, a_grid, q_weights, geometry, ellipsoid3):
        result = sb.solve_rwsc(sample_r, a_grid, q_weights, ellipsoid3)
        sweep = sb.steering_matrix(geometry, np.linspace(-3.0, 3.0, 61))
        assert (result.w.conj() @ sweep).real.min() >= 1.0 - 1e-6
        assert result.diagnostics.constraint_residual >= -1e-6

    def test_deterministic(self, sample_r, a_grid, q_weights, ellipsoid3):
        w1 = sb.solve_rwsc(sample_r, a_grid, q_weights, ellipsoid3).w
        w2 = sb.solve_rwsc(sample_r, a_grid, q_weights, ellipsoid3).w
        np.testing.assert_array_equal(w1, w2)
