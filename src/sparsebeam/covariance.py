"""Spatial covariance estimation and conditioning."""

from __future__ import annotations

import numpy as np

from .arrays import ArrayGeometry, Scenario, steering_vector
from .errors import DomainError

__all__ = [
    "sample_covariance",
    "analytic_covariance",
    "diagonal_load",
    "ensure_covariance",
]


def sample_covariance(snapshots) -> np.ndarray:
    """Return the sample covariance (1/K) X X^H, exactly Hermitian.

    Parameters
    ----------
    snapshots : array_like
        M x K complex snapshot matrix with K >= 1.
    """
    x = np.asarray(snapshots, dtype=complex)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DomainError("snapshots must be an M x K matrix with K >= 1")
    r = x @ x.conj().T / x.shape[1]
    return 0.5 * (r + r.conj().T)


def analytic_covariance(scenario: Scenario, geometry: ArrayGeometry) -> np.ndarray:
    """Return the exact covariance sigma^2 I + sum_l p_l a_l a_l^H.

    Includes the SOI term; useful as an estimation-noise-free stand-in
    for the sample covariance in oracle comparisons.
    """
    m = geometry.num_elements
    r = scenario.noise_power * np.eye(m, dtype=complex)
    sources = [(scenario.soi_doa_deg, scenario.soi_snr_db)]
    sources.extend(scenario.interferers)
    for doa, level_db in sources:
        power = scenario.noise_power * 10.0 ** (level_db / 10.0)
        a = steering_vector(geometry, doa)
        r += power * np.outer(a, a.conj())
    return 0.5 * (r + r.conj().T)


def diagonal_load(covariance, epsilon: float) -> np.ndarray:
    """Return R + epsilon * tr(R)/M * I.

    epsilon = 0 leaves R unchanged. Loading shifts every eigenvalue up by
    the same amount and leaves eigenvectors untouched.
    """
    if epsilon < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    r = np.asarray(covariance, dtype=complex)
    m = r.shape[0]
    return r + epsilon * np.trace(r).real / m * np.eye(m)


def ensure_covariance(data) -> np.ndarray:
    """Coerce solver input to a Hermitian covariance matrix.

    A square matrix R with |R - R^H| <= atol + 1e-8 |R^H| entrywise,
    where atol = 1e-12 max(1, max |R|), is symmetrized to (R + R^H)/2 and
    returned; this is ``np.allclose(R, R^H, rtol=1e-8, atol=atol)``
    written out for finite input, with R^H and |R| computed once.
    Anything else is treated as an M x K snapshot matrix and passed
    through :func:`sample_covariance`. This lets solvers accept either
    raw snapshots or a prebuilt covariance (for example an analytic
    one). Input holding NaN or inf raises DomainError: the solvers
    factor what this returns without checking it again.
    """
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2:
        raise DomainError("covariance input must be a 2-D array")
    if not np.isfinite(arr).all():
        raise DomainError("covariance input must be finite (no NaN or inf entries)")
    if arr.shape[0] == arr.shape[1]:
        arr_h = arr.conj().T
        magnitude = np.abs(arr)
        atol = 1e-12 * max(1.0, float(magnitude.max()))
        # |R^H| is |R| transposed, exactly.
        if (np.abs(arr - arr_h) <= atol + 1e-8 * magnitude.T).all():
            return 0.5 * (arr + arr_h)
    return sample_covariance(arr)
