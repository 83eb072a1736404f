"""Spatial covariance estimation, conditioning, and the solvers' input check."""

from __future__ import annotations

import math

import numpy as np

from .arrays import ArrayGeometry, Scenario, _checked, _real, _source_steering
from .errors import DomainError

__all__ = [
    "sample_covariance",
    "analytic_covariance",
    "diagonal_load",
    "ensure_covariance",
]


def _hermitian_part(r: np.ndarray) -> np.ndarray:
    """(R + R^H)/2 as R/2 + R^H/2: exact for normal floats, finite wherever R is."""
    half = 0.5 * r
    return half + half.conj().T


def sample_covariance(snapshots) -> np.ndarray:
    """Return the sample covariance (1/K) X X^H, exactly Hermitian.

    Parameters
    ----------
    snapshots : array_like
        Finite, non-empty M x K complex snapshot matrix. Data whose
        X X^H overflows raises DomainError.
    """
    x = _checked("snapshots", snapshots, (None, None))
    with np.errstate(over="ignore", invalid="ignore"):
        r = x @ x.conj().T / x.shape[1]
    if not np.isfinite(r).all():
        raise DomainError("snapshots are too large: X X^H overflows")
    return _hermitian_part(r)


def analytic_covariance(scenario: Scenario, geometry: ArrayGeometry) -> np.ndarray:
    """Return the exact covariance sigma^2 I + sum_l p_l a_l a_l^H.

    Includes the SOI term; useful as an estimation-noise-free stand-in
    for the sample covariance in oracle comparisons.
    """
    m = geometry.num_elements
    r = scenario.noise_power * np.eye(m, dtype=complex)
    for doa, power in scenario.sources:
        a = _source_steering(geometry, doa)
        r += power * np.outer(a, a.conj())
    return _hermitian_part(r)


def diagonal_load(covariance, epsilon: float) -> np.ndarray:
    """Return R + epsilon * tr(R)/M * I.

    R must be a finite, non-empty square matrix, and epsilon finite and
    nonnegative; epsilon = 0 leaves R unchanged. Loading shifts every
    eigenvalue up by the same amount and leaves eigenvectors untouched.
    A trace that is not finite, such as one whose sum overflows, raises
    DomainError, as does a loading or a loaded diagonal that overflows.
    """
    epsilon = _real("epsilon", epsilon, "[0, inf)")
    r = _checked("covariance", covariance, (None, None))
    if r.shape[0] != r.shape[1]:
        raise DomainError(f"covariance of shape {r.shape} is not square")
    return _loaded(r, epsilon)


def _loaded(r: np.ndarray, epsilon: float) -> np.ndarray:
    """:func:`diagonal_load` of an already checked square R, with its finiteness tests only."""
    m = r.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.trace(r).real
        if not np.isfinite(trace):
            raise DomainError(f"covariance trace must be finite, got {trace}")
        loading = epsilon * trace / m
        # inf * I would put 0 * inf = NaN off the diagonal.
        if not math.isfinite(loading):
            raise DomainError(f"diagonal loading epsilon * tr(R)/M = {epsilon:g} * {trace:g} / {m} overflows")
        loaded = r + loading * np.eye(m)
    if not np.isfinite(loaded.diagonal()).all():
        raise DomainError(f"diagonal loading {loading:g} overflows the covariance diagonal")
    return loaded


def ensure_covariance(data) -> np.ndarray:
    """Return the Hermitian covariance R of ``data`` as R/2 + R^H/2.

    R must be finite, non-empty and square with
    |R - R^H| <= atol + 1e-8 |R^H| entrywise, atol = 1e-12 max |R|:
    np.allclose(R, R^H, rtol=1e-8, atol=atol) written out. The floor
    scales with R, so an exactly Hermitian R passes at any scale. Anything
    else, M x K snapshots included, raises DomainError;
    :func:`sample_covariance` builds R from snapshots. The solvers factor
    what this returns without another check.
    """
    arr = _checked("covariance", data, (None, None))
    if arr.shape[0] == arr.shape[1]:
        # The test runs on the halves it returns, where both sides are
        # exactly half of the test above for normal floats, and no |entry|
        # of a finite half overflows. Their difference still can (both
        # parts near the float limit); its inf is rejected, as it should be.
        half = 0.5 * arr
        half_h = half.conj().T
        magnitude = np.abs(half)
        atol = 1e-12 * float(magnitude.max())
        with np.errstate(over="ignore"):
            # |R^H| is |R| transposed, exactly.
            if (np.abs(half - half_h) <= atol + 1e-8 * magnitude.T).all():
                return half + half_h
    raise DomainError(f"covariance of shape {arr.shape} is not a square Hermitian matrix; "
                      "build one from M x K snapshots with sample_covariance")
