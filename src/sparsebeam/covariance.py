"""Spatial covariance estimation, conditioning, and the solvers' input check."""

from __future__ import annotations

import numpy as np

from .arrays import ArrayGeometry, Scenario, _checked, steering_vector
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
    """Return the Hermitian covariance R of ``data`` as (R + R^H)/2.

    R must be finite and square with |R - R^H| <= atol + 1e-8 |R^H|
    entrywise, atol = 1e-12 max |R|: np.allclose(R, R^H, rtol=1e-8,
    atol=atol) written out. The floor scales with R, so an exactly
    Hermitian R passes at any scale. Anything else, M x K snapshots
    included, raises DomainError; :func:`sample_covariance` builds R from
    snapshots. The solvers factor what this returns without another check.
    """
    arr = _checked("covariance", data, (None, None))
    if arr.shape[0] == arr.shape[1] > 0:
        arr_h = arr.conj().T
        magnitude = np.abs(arr)
        atol = 1e-12 * float(magnitude.max())
        # |R^H| is |R| transposed, exactly.
        if (np.abs(arr - arr_h) <= atol + 1e-8 * magnitude.T).all():
            return 0.5 * (arr + arr_h)
    raise DomainError(f"covariance of shape {arr.shape} is not a square Hermitian matrix; "
                      "build one from M x K snapshots with sample_covariance")
