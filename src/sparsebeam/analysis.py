"""Beam-pattern evaluation and scalar quality metrics.

A beam pattern is the squared magnitude response |w^H a(theta)|^2 on a
dense angular grid, normalized so its peak sits at 0 dB. Gains are
clamped at -200 dB so that exact nulls serialize to a finite floor.

A pattern may also stack the patterns of k weight vectors, one per row
(a method's Monte-Carlo runs, say). The metrics then return one value
per row, each with the bits of that row's own 1-D pattern: a 1-D pattern
is the one-row case, and each metric is a selection from, or an
elementwise function of, its row's gains.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arrays import (ArrayGeometry, Scenario, _angle_grid, _check_direction, _checked, _max_exponent, _numeric,
                     _real, _source_steering, _times_power_of_two, steering_matrix)
from .errors import DomainError, SolverError

__all__ = [
    "DB_FLOOR",
    "BeamPattern",
    "SidelobeLevel",
    "beam_pattern",
    "null_depth",
    "sidelobe_level",
    "pointing_error",
    "output_sinr",
]

DB_FLOOR = -200.0


def _to_db(raw: np.ndarray, reference) -> np.ndarray:
    # In place on one new array: a stack's k x G temporaries would cost
    # more to allocate than to compute.
    db = raw / reference
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 10.0
    return np.maximum(db, DB_FLOOR, out=db)


def _entries(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of a 2-D ``mask``'s True entries in row-major order.

    np.nonzero's result, at a fraction of its cost on a wide mask.
    """
    return divmod(np.flatnonzero(mask), mask.shape[1])


def _nearest(rows: np.ndarray, cols: np.ndarray, distance: np.ndarray) -> np.ndarray:
    """Per row, the entry of ``cols`` with the least ``distance``, the lowest column among ties.

    The entries (``rows``, ``cols``) are in row-major order, as
    :func:`_entries` gives them, and every row of interest holds one.
    """
    order = np.lexsort((distance, rows))  # stable: tied distances keep their column order
    rows = rows[order]
    return cols[order][np.concatenate(([True], rows[1:] != rows[:-1]))]


class BeamPattern(NamedTuple):
    """Normalized power response sampled on a uniform angle grid.

    gain_db and raw_gain are 1-D, one value per angle, or k x len(angles_deg)
    for a stack of k patterns, one per row.
    """

    angles_deg: np.ndarray
    gain_db: np.ndarray
    raw_gain: np.ndarray

    @property
    def peak_angle_deg(self):
        """Angle of the highest raw gain, the first among ties: a float, or one per row of a stack."""
        return _per_row(self.angles_deg[np.argmax(np.atleast_2d(self.raw_gain), axis=1)], self.raw_gain)


class SidelobeLevel(NamedTuple):
    """Sidelobe level (dB) and the no-sidelobes flag: scalars, or one per row of a stack."""

    level_db: float
    no_sidelobes: bool


def _per_row(values: np.ndarray, gains: np.ndarray):
    """``values``, one per row of ``gains``: a Python scalar when ``gains`` is one 1-D pattern."""
    return values if gains.ndim > 1 else values[0].item()


@lru_cache(maxsize=16)
def _pattern_steering(geometry: ArrayGeometry, resolution_deg: float) -> np.ndarray:
    """Steering matrix of the pattern grid, built once per key and read-only."""
    matrix = steering_matrix(geometry, _angle_grid(resolution_deg))
    matrix.flags.writeable = False
    return matrix


def _weights(weights, geometry: ArrayGeometry, stack_ok: bool = False) -> np.ndarray:
    """The complex weight vector of ``weights``, a raw vector or a BeamformerWeights.

    It must be 1-D, of the array's length and finite. ``stack_ok`` also
    admits a k x M stack of such vectors, one per row.
    """
    w = _numeric("weight vector", getattr(weights, "w", weights))
    lead = (None,) if stack_ok and w.ndim == 2 else ()
    return _checked("weight vector", w, lead + (geometry.num_elements,))


def _raw_gains(rows: np.ndarray, geometry: ArrayGeometry, resolution_deg: float) -> np.ndarray:
    """|w^H a(theta)|^2 on the pattern grid for each weight vector w in the rows of ``rows``.

    Each row is its own vector-matrix product: one k x M matrix product
    rounds differently (by up to ~1e-14), and each row must keep the bits
    of its vector's own pattern. Finite weights whose gain overflows a
    float raise DomainError.
    """
    steering = _pattern_steering(geometry, resolution_deg)
    raw = np.empty((rows.shape[0], steering.shape[1]))
    with np.errstate(over="ignore"):
        for out, w in zip(raw, rows):
            np.square(np.abs(w.conj() @ steering), out=out)
    if not math.isfinite(raw.max()):
        raise DomainError("beam pattern gain |w^H a|^2 overflows a float: the weights are too large")
    return raw


def beam_pattern(weights, geometry: ArrayGeometry, resolution_deg: float = 0.1) -> BeamPattern:
    """Evaluate |w^H a(theta)|^2 over [-90, 90] at the given resolution.

    ``weights`` may be a raw complex vector, a BeamformerWeights wrapper
    or a k x M stack of weight vectors, one per row; a stack gives k x G
    gain_db and raw_gain, each row bit for bit the pattern of its vector
    alone. The grid includes both endpoints; gain_db peaks at exactly
    0 dB in every row. An all-zero pattern, as zero weights give, or a
    gain that overflows a float raises DomainError, in any row of a
    stack.
    """
    w = _weights(weights, geometry, stack_ok=True)
    resolution_deg = _real("resolution_deg", resolution_deg, "(0, 1]")
    raw = _raw_gains(np.atleast_2d(w), geometry, resolution_deg)
    peak = raw.max(axis=1, keepdims=True)
    if not (peak > 0).all():
        raise DomainError("beam pattern is identically zero")
    gain_db = _to_db(raw, peak)
    if w.ndim == 1:
        gain_db, raw = gain_db[0], raw[0]
    return BeamPattern(_angle_grid(resolution_deg), gain_db, raw)


def _median_pattern(weights: list[np.ndarray], geometry: ArrayGeometry, resolution_deg: float) -> BeamPattern:
    """Pointwise median of the raw gains of ``weights``, renormalized to a 0 dB peak.

    Each weight vector's gains have the bits of its own
    :func:`beam_pattern`.
    """
    median_raw = np.median(_raw_gains(np.asarray(weights), geometry, resolution_deg), axis=0)
    peak = float(median_raw.max())
    if peak <= 0:
        raise SolverError("median pattern collapsed to zero")
    return BeamPattern(_angle_grid(resolution_deg), _to_db(median_raw, peak), median_raw / peak)


def null_depth(pattern: BeamPattern, theta_deg: float, window_deg: float = 1.0):
    """Deepest normalized gain (dB) within +/- window_deg of a direction.

    More negative is deeper; a stacked pattern gives one depth per row.
    A window falling entirely outside the pattern grid raises DomainError.
    """
    theta_deg = _real("theta_deg", theta_deg)
    window_deg = _real("window_deg", window_deg, "[0, inf)")
    mask = np.abs(pattern.angles_deg - theta_deg) <= window_deg + 1e-12
    if not mask.any():
        raise DomainError(
            f"window [{theta_deg - window_deg}, {theta_deg + window_deg}] deg "
            "contains no grid points"
        )
    return _per_row(np.atleast_2d(pattern.gain_db)[:, mask].min(axis=1), pattern.gain_db)


def _mainlobe_centers(centers, rows: int) -> np.ndarray:
    """``centers`` as one finite float per row: a real number for every row, or an array of ``rows``."""
    if np.ndim(centers) == 0:
        return np.full(rows, _real("mainlobe_center_deg", centers))
    return _checked("mainlobe_center_deg", centers, (rows,), float)


def sidelobe_level(pattern: BeamPattern, mainlobe_center_deg) -> SidelobeLevel:
    """Highest gain (dB) outside the mainlobe around the given center.

    The mainlobe is located as the nearest local maximum within 2 deg of
    mainlobe_center_deg (DomainError if none exists), then extended to
    the first local minimum on each side. Patterns that are monotone
    away from the mainlobe out to the grid edge have no sidelobes; the
    flagged boundary gain is returned in that case. A stacked pattern
    takes one center for every row or an array of one center per row,
    and gives one level and flag per row.
    """
    gains = np.atleast_2d(pattern.gain_db)
    count, size = gains.shape
    centers = _mainlobe_centers(mainlobe_center_deg, count)
    # rises[:, j]: gains[:, j + 1] >= gains[:, j]; falls[:, j]: gains[:, j] >= gains[:, j + 1].
    rises = gains[:, 1:] >= gains[:, :-1]
    falls = gains[:, :-1] >= gains[:, 1:]
    local_max = np.ones(gains.shape, dtype=bool)
    local_max[:, 1:] = rises
    local_max[:, :-1] &= falls
    rows, cols = _entries(local_max)
    del local_max
    offset = np.abs(pattern.angles_deg[cols] - centers[rows])
    near = offset <= 2.0 + 1e-12
    found = np.zeros(count, dtype=bool)
    found[rows[near]] = True
    if not found.all():
        raise DomainError(
            f"no local maximum within 2 deg of {centers[np.argmin(found)]} deg; "
            "not a mainlobe center"
        )
    peak = _nearest(rows[near], cols[near], offset[near])[:, None]
    # The mainlobe descends from the peak to the first turn on each side:
    # the last step before the peak that falls, and the first from it that rises.
    # The k x G masks are formed in place, so a stack of every method's
    # runs holds few of them at once.
    steps = np.broadcast_to(np.arange(size - 1), rises.shape)
    before = steps < peak
    turns = np.logical_not(rises, out=rises)
    turns &= before
    left = np.max(steps, axis=1, where=turns, initial=-1) + 1
    turns = np.logical_or(falls, before, out=falls)
    np.logical_not(turns, out=turns)
    right = np.min(steps, axis=1, where=turns, initial=size - 1)
    del rises, falls, before, turns
    samples = np.arange(size)
    outside = samples < left[:, None]
    outside |= samples > right[:, None]
    no_sidelobes = ~outside.any(axis=1)
    # Without sidelobes, the lower edge gain, the first edge among equals.
    edge = np.where(gains[:, -1] < gains[:, 0], gains[:, -1], gains[:, 0])
    level = np.where(no_sidelobes, edge, np.max(gains, axis=1, where=outside, initial=-np.inf))
    return SidelobeLevel(_per_row(level, pattern.gain_db), _per_row(no_sidelobes, pattern.gain_db))


def pointing_error(pattern: BeamPattern, true_doa_deg: float):
    """Signed offset (deg) from the true direction to the pattern peak.

    Among grid points tied for the maximum gain, the one closest to the
    true direction wins (the first among equals), so a symmetric two-sided
    tie reports the smaller-magnitude error. A stacked pattern gives one
    offset per row. A true direction outside [-90, 90] deg, NaN included,
    raises DomainError.
    """
    true_doa_deg = _check_direction("true_doa_deg", true_doa_deg)
    raw = np.atleast_2d(pattern.raw_gain)
    rows, cols = _entries(raw == raw.max(axis=1, keepdims=True))
    errors = pattern.angles_deg[cols] - true_doa_deg
    return _per_row(errors[_nearest(rows, np.arange(cols.size), np.abs(errors))], pattern.raw_gain)


def output_sinr(weights, scenario: Scenario, geometry: ArrayGeometry) -> float:
    """Output signal-to-interference-plus-noise ratio in dB.

    Uses the scenario's analytic powers: SOI power through the weights
    over interference powers plus white noise times ||w||^2. Clamped at
    -200 dB; a weight vector orthogonal to all interference and noise
    cannot occur (noise_power > 0), so the ratio is always finite.
    ``weights`` is one vector, checked as in :func:`beam_pattern`, and a
    zero vector is allowed and reads -200 dB.
    """
    w = _weights(weights, geometry)
    # The ratio does not depend on w's scale, so w is taken to max |w| in
    # [1/2, 1) by the package's one power-of-two rule: exact, and no
    # square below underflows or overflows, whatever w's size.
    w_h = _times_power_of_two(w.conj(), -_max_exponent(w))
    # Each source's power through w, the SOI's first; the denominator adds
    # the interferers' to the noise's in listed order.
    signal, *interference = [power * abs(w_h @ _source_steering(geometry, doa)) ** 2
                             for doa, power in scenario.sources]
    denom = sum(interference, scenario.noise_power * float(np.linalg.norm(w_h) ** 2))
    if signal <= 0:
        return DB_FLOOR
    return max(10.0 * float(np.log10(signal / denom)), DB_FLOOR)
