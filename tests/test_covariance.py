import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam as sb
from sparsebeam import DomainError

from _oracles import is_hermitian_allclose


def test_sample_covariance_matches_definition(snapshots):
    r = sb.sample_covariance(snapshots)
    manual = snapshots @ snapshots.conj().T / snapshots.shape[1]
    np.testing.assert_allclose(r, manual, atol=1e-10)


def test_sample_covariance_hermitian_psd(sample_r):
    np.testing.assert_array_equal(sample_r, sample_r.conj().T)
    assert np.linalg.eigvalsh(sample_r).min() > -1e-10


def test_sample_covariance_single_snapshot():
    x = np.array([[1.0 + 1j], [2.0 - 1j]])
    r = sb.sample_covariance(x)
    np.testing.assert_allclose(r, np.outer(x[:, 0], x[:, 0].conj()), atol=1e-15)


def test_sample_covariance_rejects_bad_shapes():
    with pytest.raises(DomainError):
        sb.sample_covariance(np.ones(5))


def test_analytic_covariance_formula(geometry):
    scen = sb.Scenario(0.0, 10.0, ((30.0, 20.0),), noise_power=2.0)
    r = sb.analytic_covariance(scen, geometry)
    a0 = sb.steering_vector(geometry, 0.0)
    a1 = sb.steering_vector(geometry, 30.0)
    manual = 2.0 * np.eye(8) + 20.0 * np.outer(a0, a0.conj()) + 200.0 * np.outer(a1, a1.conj())
    np.testing.assert_allclose(r, manual, atol=1e-10)
    assert np.linalg.eigvalsh(r).min() > 0


def test_sample_covariance_converges_to_analytic(geometry):
    scen = sb.Scenario(0.0, 10.0, ((30.0, 20.0),), num_snapshots=60000, rng_seed=11)
    r_hat = sb.sample_covariance(sb.generate_snapshots(scen, geometry))
    r = sb.analytic_covariance(scen, geometry)
    rel = np.linalg.norm(r_hat - r) / np.linalg.norm(r)
    assert rel < 0.05


def test_diagonal_load_shifts_eigenvalues(sample_r):
    eps = 1e-3
    loaded = sb.diagonal_load(sample_r, eps)
    shift = eps * np.trace(sample_r).real / sample_r.shape[0]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(loaded), np.linalg.eigvalsh(sample_r) + shift, atol=1e-8
    )


def test_diagonal_load_zero_is_identity(sample_r):
    np.testing.assert_array_equal(sb.diagonal_load(sample_r, 0.0), sample_r)


def test_diagonal_load_rejects_negative(sample_r):
    # NaN and inf once loaded R into a NaN or an infinite matrix.
    for epsilon in (-1e-6, np.nan, np.inf):
        with pytest.raises(DomainError, match=r"epsilon must be finite and lie in \[0, inf\)"):
            sb.diagonal_load(sample_r, epsilon)


class TestEnsureCovariance:
    def test_hermitian_passthrough(self, sample_r):
        out = sb.ensure_covariance(sample_r)
        np.testing.assert_array_equal(out, sample_r)

    def test_snapshots_are_reduced(self, snapshots):
        # Snapshots are not reduced: they must go through sample_covariance.
        with pytest.raises(DomainError, match="sample_covariance"):
            sb.ensure_covariance(snapshots)

    def test_square_non_hermitian_treated_as_snapshots(self):
        # A square non-Hermitian matrix is rejected, not read as snapshots.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(DomainError, match="sample_covariance"):
            sb.ensure_covariance(x)

    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            sb.ensure_covariance(np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, sample_r, snapshots, bad):
        for data in (sample_r, snapshots):
            data = data.copy()
            data[1, 1] = bad
            with pytest.raises(DomainError, match="finite"):
                sb.ensure_covariance(data)

    @pytest.mark.parametrize("scale", [1e-300, 1e-13, 1.0, 1e300])
    def test_exactly_hermitian_input_is_kept_at_any_scale(self, sample_r, geometry, scenario, scale):
        for r in (sample_r, sb.analytic_covariance(scenario, geometry)):
            r = r * scale
            assert np.array_equal(sb.ensure_covariance(r), 0.5 * (r + r.conj().T))

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_near_hermitian_floor_scales_with_the_input(self, geometry, scale):
        # A square snapshot matrix is not a covariance at any scale: the
        # Hermitian test rejects it at unit scale and at 1e-13 alike.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        data = scale * x
        with pytest.raises(DomainError, match="sample_covariance"):
            sb.ensure_covariance(data)
        with pytest.raises(DomainError, match="sample_covariance"):
            sb.mvdr(data, sb.steering_vector(geometry, 0.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    log_scale=st.floats(-300.0, 300.0),
    log_perturbation=st.floats(-10.0, -6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_test_matches_allclose_bit_for_bit(m, log_scale, log_perturbation, seed):
    # Relative perturbations from 1e-10 to 1e-6 straddle the 1e-8
    # tolerance, so both decisions occur: an accepted input comes back
    # symmetrized to the bit, a rejected one raises.
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    e = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = (z + z.conj().T) * 10.0**log_scale
    arr = h + h * e * 10.0**log_perturbation
    with np.errstate(all="ignore"):
        if is_hermitian_allclose(arr):
            assert np.array_equal(sb.ensure_covariance(arr), 0.5 * (arr + arr.conj().T), equal_nan=True)
        else:
            with pytest.raises(DomainError, match="sample_covariance"):
                sb.ensure_covariance(arr)


def test_covariance_built_without_its_conjugate_rejected_by_every_solver(snapshots, geometry, a_grid, a0):
    # X X^T / K is square but not Hermitian. It was once read as
    # snapshots, and mvdr returned "converged" weights 81 % away from
    # mvdr(sample_covariance(X), a0).
    ones = np.ones(a_grid.shape[1])
    ellipsoid = sb.build_ellipsoid(geometry, 0.0, 3.0, 13)
    for data in (snapshots @ snapshots.T / snapshots.shape[1], snapshots):
        for solve in (
            lambda: sb.mvdr(data, a0),
            lambda: sb.solve_sc(data, a_grid, a0),
            lambda: sb.solve_wsc(data, a_grid, ones, a0),
            lambda: sb.solve_rmvb(data, ellipsoid),
            lambda: sb.solve_rwsc(data, a_grid, ones, ellipsoid),
        ):
            with pytest.raises(DomainError, match="sample_covariance"):
                solve()


def test_sample_covariance_rejects_zero_snapshots():
    with pytest.raises(DomainError, match=">= 1"):
        sb.sample_covariance(np.zeros((4, 0)))


def test_hermitian_part_of_a_finite_covariance_does_not_overflow():
    # (R + R^H)/2 once summed first, so a diagonal entry of 1e308 became inf.
    r = np.diag([1.7e308] + [1e300] * 7).astype(complex)
    np.testing.assert_array_equal(sb.ensure_covariance(r), r)


def test_sample_covariance_near_the_float_limit_stays_finite():
    # X X^H is 1.69e308 everywhere; (R + R^H)/2 once overflowed at the sum.
    x = np.full((4, 1), 1.3e154, dtype=complex)
    half = 0.5 * (x @ x.conj().T)
    r = sb.sample_covariance(x)
    assert np.isfinite(r).all()
    np.testing.assert_array_equal(r, half + half.conj().T)


def test_sample_covariance_rejects_overflowing_snapshots():
    # X X^H is past the float limit; it once warned and returned inf.
    with pytest.raises(DomainError, match="overflows"):
        sb.sample_covariance(np.full((4, 1), 1e200))


def test_analytic_covariance_near_the_float_limit_stays_finite(geometry):
    # A 3,080 dB interferer has power 1e308, so R + R^H once overflowed.
    r = sb.analytic_covariance(sb.Scenario(0.0, 10.0, ((30.0, 3080.0),)), geometry)
    assert np.isfinite(r).all()
    np.testing.assert_array_equal(r, r.conj().T)


@pytest.mark.parametrize(
    "r, epsilon, match",
    [
        # The trace of 1e308 I overflows; it once loaded R by inf with a warning.
        (1e308 * np.eye(8), 1e-6, "trace"),
        # The loading overflows: inf * I once put NaN off the diagonal.
        (np.eye(8), 1.7e308, "loading .* overflows"),
        # The loading is finite, but adding it overflows the diagonal.
        (np.diag([1.7e308] + [0.0] * 7), 1.0, "loading .* overflows"),
    ],
    ids=["infinite_trace", "infinite_loading", "infinite_diagonal"],
)
def test_diagonal_load_rejects_an_infinite_trace(r, epsilon, match):
    with pytest.raises(DomainError, match=match):
        sb.diagonal_load(r, epsilon)


_FLOAT_MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "upper, lower",
    [
        (1e308, -1e308),  # R - R^H once overflowed in the subtraction
        (1e308j, 1e308j),
        (1.7e308 * (1 + 1j), 0.0),  # |R[0, 1]| once overflowed, making atol inf
        (_FLOAT_MAX * (1 + 1j), _FLOAT_MAX * (-1 + 1j)),  # |R/2 - R^H/2| is past the float limit
    ],
    ids=["opposite_reals", "equal_imaginaries", "one_sided_modulus", "difference_past_the_limit"],
)
def test_non_hermitian_input_near_the_float_limit_rejected(upper, lower):
    # The first three warned "overflow encountered in subtract" or were
    # accepted silently, instead of raising DomainError.
    r = np.eye(8, dtype=complex)
    r[0, 1], r[1, 0] = upper, lower
    with pytest.raises(DomainError, match="not a square Hermitian matrix"):
        sb.ensure_covariance(r)


def test_hermitian_input_near_the_float_limit_kept():
    # The halves an exactly Hermitian R passes on are its own entries halved.
    r = np.eye(8, dtype=complex)
    r[0, 1] = _FLOAT_MAX * (1 + 1j)
    r[1, 0] = np.conj(r[0, 1])
    np.testing.assert_array_equal(sb.ensure_covariance(r), r)
