"""Beam-pattern evaluation and scalar quality metrics.

A beam pattern is the squared magnitude response |w^H a(theta)|^2 on a
dense angular grid, normalized so its peak sits at 0 dB. Gains are
clamped at -200 dB so that exact nulls serialize to a finite floor.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arrays import ArrayGeometry, Scenario, _angle_grid, _check_direction, _checked, steering_matrix, steering_vector
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


def _to_db(raw: np.ndarray, reference: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(raw / reference)
    return np.maximum(db, DB_FLOOR)


class BeamPattern(NamedTuple):
    """Normalized power response sampled on a uniform angle grid."""

    angles_deg: np.ndarray
    gain_db: np.ndarray
    raw_gain: np.ndarray

    @property
    def peak_angle_deg(self) -> float:
        return float(self.angles_deg[int(np.argmax(self.raw_gain))])


class SidelobeLevel(NamedTuple):
    level_db: float
    no_sidelobes: bool


@lru_cache(maxsize=16)
def _pattern_steering(geometry: ArrayGeometry, resolution_deg: float) -> np.ndarray:
    """Steering matrix of the pattern grid, built once per key and read-only."""
    matrix = steering_matrix(geometry, _angle_grid(resolution_deg))
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=64)
def _source_steering(geometry: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Steering vector of one source direction, built once per key and read-only."""
    vector = steering_vector(geometry, theta_deg)
    vector.flags.writeable = False
    return vector


def _weight_vector(weights, geometry: ArrayGeometry) -> np.ndarray:
    """The complex weight vector of ``weights``, a raw vector or a BeamformerWeights.

    It must be 1-D, of the array's length and finite.
    """
    return _checked("weight vector", getattr(weights, "w", weights), (geometry.num_elements,))


def beam_pattern(weights, geometry: ArrayGeometry, resolution_deg: float = 0.1) -> BeamPattern:
    """Evaluate |w^H a(theta)|^2 over [-90, 90] at the given resolution.

    ``weights`` may be a raw complex vector or a BeamformerWeights
    wrapper. The grid includes both endpoints; gain_db peaks at exactly
    0 dB. An all-zero pattern, as zero weights give, raises DomainError.
    """
    w = _weight_vector(weights, geometry)
    if not 0 < resolution_deg <= 1.0:
        raise DomainError(f"resolution_deg must lie in (0, 1], got {resolution_deg}")
    resolution_deg = float(resolution_deg)
    response = w.conj() @ _pattern_steering(geometry, resolution_deg)
    raw = np.abs(response) ** 2
    peak = float(raw.max())
    if peak <= 0:
        raise DomainError("beam pattern is identically zero")
    return BeamPattern(_angle_grid(resolution_deg), _to_db(raw, peak), raw)


def _median_pattern(weights: list[np.ndarray], geometry: ArrayGeometry, resolution_deg: float) -> BeamPattern:
    """Pointwise median of the raw gains of ``weights``, renormalized to a 0 dB peak.

    Each weight vector's |w^H a(theta)|^2 is its own product, as in
    :func:`beam_pattern`, so every row has beam_pattern's bits.
    """
    steering = _pattern_steering(geometry, resolution_deg)
    median_raw = np.median([np.abs(w.conj() @ steering) ** 2 for w in weights], axis=0)
    peak = float(median_raw.max())
    if peak <= 0:
        raise SolverError("median pattern collapsed to zero")
    return BeamPattern(_angle_grid(resolution_deg), _to_db(median_raw, peak), median_raw / peak)


def null_depth(pattern: BeamPattern, theta_deg: float, window_deg: float = 1.0) -> float:
    """Deepest normalized gain (dB) within +/- window_deg of a direction.

    More negative is deeper. A window falling entirely outside the
    pattern grid raises DomainError.
    """
    if window_deg < 0:
        raise DomainError(f"window_deg must be nonnegative, got {window_deg}")
    mask = np.abs(pattern.angles_deg - theta_deg) <= window_deg + 1e-12
    if not mask.any():
        raise DomainError(
            f"window [{theta_deg - window_deg}, {theta_deg + window_deg}] deg "
            "contains no grid points"
        )
    return float(pattern.gain_db[mask].min())


def sidelobe_level(pattern: BeamPattern, mainlobe_center_deg: float) -> SidelobeLevel:
    """Highest gain (dB) outside the mainlobe around the given center.

    The mainlobe is located as the nearest local maximum within 2 deg of
    mainlobe_center_deg (DomainError if none exists), then extended to
    the first local minimum on each side. Patterns that are monotone
    away from the mainlobe out to the grid edge have no sidelobes; the
    flagged boundary gain is returned in that case.
    """
    gains = pattern.gain_db
    angles = pattern.angles_deg
    # rises[j]: gains[j + 1] >= gains[j]; falls[j]: gains[j] >= gains[j + 1].
    rises = gains[1:] >= gains[:-1]
    falls = gains[:-1] >= gains[1:]
    local_max = np.concatenate(([True], rises)) & np.concatenate((falls, [True]))
    near = np.abs(angles - mainlobe_center_deg) <= 2.0 + 1e-12
    candidates = np.flatnonzero(near & local_max)
    if candidates.size == 0:
        raise DomainError(
            f"no local maximum within 2 deg of {mainlobe_center_deg} deg; "
            "not a mainlobe center"
        )
    # Nearest candidate; argmin keeps the lowest index among ties.
    peak = int(candidates[np.argmin(np.abs(angles[candidates] - mainlobe_center_deg))])
    # The mainlobe descends from the peak to the first turn on each side.
    left_turns = np.flatnonzero(~rises[:peak])
    left = int(left_turns[-1]) + 1 if left_turns.size else 0
    right_turns = np.flatnonzero(~falls[peak:])
    right = peak + int(right_turns[0]) if right_turns.size else gains.size - 1
    outside = np.concatenate([gains[:left], gains[right + 1 :]])
    if outside.size == 0:
        edge = float(min(gains[0], gains[-1]))
        return SidelobeLevel(edge, True)
    return SidelobeLevel(float(outside.max()), False)


def pointing_error(pattern: BeamPattern, true_doa_deg: float) -> float:
    """Signed offset (deg) from the true direction to the pattern peak.

    Among grid points tied for the maximum gain, the one closest to the
    true direction wins, so a symmetric two-sided tie reports the
    smaller-magnitude error. A true direction outside [-90, 90] deg,
    NaN included, raises DomainError.
    """
    _check_direction("true direction", true_doa_deg)
    raw = pattern.raw_gain
    ties = np.nonzero(raw == raw.max())[0]
    errors = pattern.angles_deg[ties] - true_doa_deg
    return float(errors[np.argmin(np.abs(errors))])


def output_sinr(weights, scenario: Scenario, geometry: ArrayGeometry) -> float:
    """Output signal-to-interference-plus-noise ratio in dB.

    Uses the scenario's analytic powers: SOI power through the weights
    over interference powers plus white noise times ||w||^2. Clamped at
    -200 dB; a weight vector orthogonal to all interference and noise
    cannot occur (noise_power > 0), so the ratio is always finite.
    Weights are checked as in :func:`beam_pattern`, except that a zero
    vector is allowed and reads -200 dB.
    """
    w = _weight_vector(weights, geometry)
    w_h = w.conj()
    (soi_doa, soi_power), *interferers = scenario.sources
    signal = soi_power * abs(w_h @ _source_steering(geometry, soi_doa)) ** 2
    denom = scenario.noise_power * float(np.linalg.norm(w) ** 2)
    for doa, power in interferers:
        denom += power * abs(w_h @ _source_steering(geometry, doa)) ** 2
    if signal <= 0:
        return DB_FLOOR
    return max(10.0 * float(np.log10(signal / denom)), DB_FLOOR)
