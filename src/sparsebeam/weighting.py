"""Data-derived weights that shape the sparse penalty by direction.

The cross-correlation A^H X of the candidate-direction steering matrix
with the snapshot matrix carries a coarse image of where interference
power arrives. Squaring the per-row mean and normalizing to unit maximum
turns that image into nonnegative penalty weights in [0, 1]: directions
that dominate the received data get full weight, quiet directions get
little.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import _checked
from .errors import DomainError

__all__ = ["snm", "build_q"]


# build_q holds one row block of A^H X at a time: B rows of K complex
# entries, B = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (16 K)).
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 8


def _squared_normalized(means: np.ndarray) -> np.ndarray:
    """|means|^2 divided by its maximum; all zeros stay all zeros.

    The ratio does not depend on the means' scale, so they are first
    taken times the power of two that puts the largest |mean| in
    [1/2, 1): exact, and no square overflows or underflows whatever
    their size. A mean that is not finite raises DomainError.
    """
    if not np.isfinite(means).all():
        raise DomainError("row means must be finite: the data overflow a float")
    # |mean| itself overflows only above the largest float, below 2^1025.
    with np.errstate(over="ignore"):
        peak = float(np.abs(means).max())
    if peak == 0:
        return np.zeros(means.shape)
    exponent = math.frexp(peak)[1] if peak < math.inf else 1025
    # ldexp on the real and imaginary parts scales by any power of two
    # exactly, where a product with 2^-exponent could overflow.
    m = np.abs(np.ldexp(means.view(float), -exponent).view(complex)) ** 2
    return m / m.max()


def snm(rows) -> np.ndarray:
    """Squared row means of a complex matrix, normalized to unit maximum.

    Entry i is |mean_k C(i, k)|^2, with the whole vector divided by its
    maximum so the largest entry is exactly 1. An all-zero input maps to
    the all-zero vector. The mean is over complex entries, so a global
    unit-modulus phase on the data leaves the output unchanged, as does
    any positive rescaling.
    """
    c = _checked("input", rows, (None, None))
    # A mean that overflows is rejected by _squared_normalized.
    with np.errstate(over="ignore", invalid="ignore"):
        means = c.mean(axis=1)
    return _squared_normalized(means)


def build_q(steering_mat, snapshots) -> np.ndarray:
    """Return diag(Q) = snm(A^H X) as an N-vector.

    The conceptual Q is the N x N diagonal matrix holding these weights.
    An all-zero result (no data energy) falls back to all-ones so the
    weighted penalty degrades to the unweighted one.

    A^H X is never held whole: its row means are taken one block at a
    time, from np.array_split(A^H, max(1, N // B)) with
    B = max(8, 2^20 // (16 K)). N < 2B is the single product; otherwise
    every block has B to 2B - 1 rows, under 2 MiB unless K > 8192, and
    none goes through numpy's one-row kernel, whose sums round
    differently. So q is bit-identical to snm(A^H X).
    """
    a = _checked("steering matrix", steering_mat, (None, None))
    x = _checked("snapshots", snapshots, (a.shape[0], None))
    blocks = max(1, a.shape[1] // max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (16 * x.shape[1])))
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.concatenate([(rows @ x).mean(axis=1) for rows in np.array_split(a.conj().T, blocks)])
    q = _squared_normalized(means)
    if q.max() == 0:
        return np.ones_like(q)
    return q
