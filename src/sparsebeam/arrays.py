"""Uniform linear array geometry, steering vectors, and snapshot synthesis.

Angles are degrees from broadside at every public boundary. A steering
vector for direction theta has elements exp(j*m*phi) with
phi = 2*pi*(d/lambda)*sin(theta), m = 0 .. M-1, so the first element is
always 1 and every element has unit modulus.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "ArrayGeometry",
    "Scenario",
    "steering_vector",
    "steering_matrix",
    "interference_grid",
    "generate_snapshots",
]


def _numeric(name: str, value, dtype=complex) -> np.ndarray:
    """``value`` as a C-ordered array of ``dtype``; DomainError naming ``name`` if numpy cannot convert it.

    C order copies only an array in another layout, and gives every
    product one layout: BLAS routines take a Fortran-ordered or strided
    operand with another kernel, whose last bits can differ.
    """
    try:
        return np.asarray(value, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} is not a numeric array: {exc}") from None


def _checked(name: str, value, shape: tuple, dtype=complex, empty_ok: bool = False) -> np.ndarray:
    """``value`` as a finite, non-empty array of ``shape``; None in ``shape`` matches any length.

    ``empty_ok`` admits an array with no entries, for the inputs where
    empty has a meaning. Anything :func:`_numeric` cannot convert, or an
    array of another shape, raises DomainError naming ``name``.
    """
    x = _numeric(name, value, dtype)
    if (x.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, x.shape))
            or not (x.size or empty_ok)):
        expected = tuple(("any" if empty_ok else ">= 1") if n is None else n for n in shape)
        raise DomainError(f"{name} has shape {x.shape}, expected {expected}")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite (no NaN or inf entries)")
    return x


def _check_count(name: str, value, minimum: int) -> None:
    """Raise DomainError unless ``value`` is an int or numpy integer >= ``minimum``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


@lru_cache(maxsize=None)
def _interval(text: str) -> tuple[float, float, bool, bool]:
    """(low, high, low closed, high closed) of an interval written like ``"(0, 1]"``."""
    low, high = map(float, text[1:-1].split(","))
    return low, high, text[0] == "[", text[-1] == "]"


def _real(name: str, value, interval: str = "(-inf, inf)") -> float:
    """``value`` as a float in ``interval``, written like ``"(0, 1]"``: square brackets close an end.

    A bool, a str or anything else that is not a ``numbers.Real``, NaN,
    +-inf, an int too large for a float, or a value outside ``interval``
    raises DomainError naming ``name`` and quoting ``interval``.
    """
    low, high, low_closed, high_closed = _interval(interval)
    try:
        # float and int first: they skip numbers.Real's slower ABC check.
        x = float(value) if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # beyond the float range, so inf as a float (and 10**5000 has no repr)
        x = value = math.inf
    # No interval closes at an infinite end, and NaN fails every comparison.
    if not (low < x < high or x == low and low_closed or x == high and high_closed):
        raise DomainError(f"{name} must be finite and lie in {interval}, got {value!r}")
    return x


def _check_direction(name: str, theta_deg: float) -> float:
    """``theta_deg`` as a float in [-90, 90]; see :func:`_real`."""
    return _real(name, theta_deg, "[-90, 90]")


def _interferer(entry) -> tuple[float, float]:
    """One ``Scenario.interferers`` entry as a checked (DOA, INR) pair."""
    try:
        doa, inr = entry
    except (TypeError, ValueError):  # outside the checks below: DomainError is a ValueError
        raise DomainError(f"interferers must be (DOA, INR) pairs, got {entry!r}") from None
    return _check_direction("interferer DOA", doa), _real("interferer INR", inr)


def _angle_grid(step_deg: float) -> np.ndarray:
    """[-90, 90] in round(180 / step_deg) equal steps; both ends are exact."""
    return np.linspace(-90.0, 90.0, int(round(180.0 / step_deg)) + 1)


@dataclass(frozen=True)
class ArrayGeometry:
    """Element count and normalized spacing of a uniform linear array.

    Parameters
    ----------
    num_elements : int
        Number of antennas M, at least 2.
    spacing_wavelengths : float
        Adjacent-element spacing as a fraction of wavelength (d/lambda);
        finite and positive.
    """

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        _check_count("num_elements", self.num_elements, 2)
        _real("spacing_wavelengths", self.spacing_wavelengths, "(0, inf)")


@dataclass(frozen=True)
class Scenario:
    """Source layout and statistics for one simulated data collection.

    ``soi_snr_db`` and each interferer's INR are powers relative to
    ``noise_power``, so with the default unit noise power the dB values
    map directly to source variances; a source power beyond the float
    range raises DomainError. Every DOA lies in [-90, 90] deg.
    ``rng_seed``, a non-negative integer, makes snapshot generation
    reproducible; Monte-Carlo harnesses derive per-run seeds from it.
    """

    soi_doa_deg: float
    soi_snr_db: float
    interferers: tuple[tuple[float, float], ...] = ()
    num_snapshots: int = 100
    noise_power: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        _check_direction("soi_doa_deg", self.soi_doa_deg)
        _real("soi_snr_db", self.soi_snr_db)
        _real("noise_power", self.noise_power, "(0, inf)")
        # A value that is not iterable, None say, is named like a bad entry.
        entries = self.interferers if np.iterable(self.interferers) else (self.interferers,)
        object.__setattr__(self, "interferers", tuple(map(_interferer, entries)))
        _check_count("rng_seed", self.rng_seed, 0)
        _check_count("num_snapshots", self.num_snapshots, 1)
        # Every source's power must be a float, as sources computes it.
        for name, db in (("soi_snr_db", self.soi_snr_db), *(("interferer INR", inr) for _, inr in self.interferers)):
            try:
                power = self.noise_power * 10.0 ** (db / 10.0)
            except OverflowError:
                power = math.inf
            if power == math.inf:
                raise DomainError(f"{name} must give a finite source power noise_power * 10^(dB/10), got {db!r}")
        doas = [d for d, _ in self.interferers]
        if len(set(doas)) != len(doas):
            raise DomainError("interferer DOAs must be distinct")
        if any(abs(d - self.soi_doa_deg) < 1e-12 for d in doas):
            raise DomainError("interferer DOA coincides with the SOI DOA")

    @property
    def sources(self) -> tuple[tuple[float, float], ...]:
        """(DOA, power) of the SOI, then of each interferer in listed order.

        A source's power is noise_power * 10^(dB/10) of its SNR or INR.
        """
        levels = ((self.soi_doa_deg, self.soi_snr_db), *self.interferers)
        return tuple((doa, self.noise_power * 10.0 ** (db / 10.0)) for doa, db in levels)


def steering_vector(geometry: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Return the complex array response a(theta) for one direction.

    Parameters
    ----------
    geometry : ArrayGeometry
    theta_deg : float
        Direction in [-90, 90] degrees from broadside.

    Returns
    -------
    numpy.ndarray
        Complex vector of length M with unit-modulus entries; entry 0 is 1.
    """
    _check_direction("theta_deg", theta_deg)
    return _array_response(geometry, np.array([theta_deg], dtype=float))[:, 0]


def steering_matrix(geometry: ArrayGeometry, angles_deg) -> np.ndarray:
    """Return the M x N matrix whose column n is a(angles_deg[n]).

    The grid must be non-empty, finite, inside [-90, 90], and strictly
    increasing.
    """
    angles = _checked("angle grid", angles_deg, (None,), float)
    if np.any(angles < -90.0) or np.any(angles > 90.0):
        raise DomainError("angle grid must lie within [-90, 90]")
    if angles.size > 1 and np.any(np.diff(angles) <= 0):
        raise DomainError("angle grid must be strictly increasing")
    return _array_response(geometry, angles)


@lru_cache(maxsize=64)
def _source_steering(geometry: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Steering vector of one source direction, built once per key and read-only.

    The one lookup of the source model: snapshot synthesis, the analytic
    covariance and the output SINR all take a(theta) from here.
    """
    vector = steering_vector(geometry, theta_deg)
    vector.flags.writeable = False
    return vector


def _array_response(geometry: ArrayGeometry, angles: np.ndarray) -> np.ndarray:
    """a(theta) for each entry of the float array ``angles``, unchecked: the one formula."""
    phi = 2.0 * np.pi * geometry.spacing_wavelengths * np.sin(np.deg2rad(angles))
    return np.exp(1j * np.outer(np.arange(geometry.num_elements), phi))


def interference_grid(steer_deg: float, step_deg: float = 1.0) -> np.ndarray:
    """Return the candidate-interference grid used by the sparse penalty.

    Covers [-90, 90] at ``step_deg`` spacing and omits any grid point that
    coincides with the steering direction, so the distortionless direction
    never participates in the penalty. With the defaults and an on-grid
    steering angle this yields 180 directions. ``steer_deg`` must lie in
    [-90, 90].
    """
    _check_direction("steer_deg", steer_deg)
    angles = _angle_grid(_real("step_deg", step_deg, "(0, inf)"))
    return angles[np.abs(angles - steer_deg) > 1e-9]


def generate_snapshots(scenario: Scenario, geometry: ArrayGeometry) -> np.ndarray:
    """Synthesize the M x K snapshot matrix X for a scenario.

    Column k is s(k)*a(theta0) + sum_j beta_j(k)*a(theta_j) + n(k) where
    s(k) and beta_j(k) are i.i.d. zero-mean circular complex Gaussians
    with powers noise_power*10^(dB/10) and n(k) is spatially white
    complex Gaussian with per-element power ``noise_power``. Output is a
    deterministic function of ``scenario.rng_seed``.
    """
    rng = np.random.default_rng(scenario.rng_seed)

    def draw(power: float, size) -> np.ndarray:
        return math.sqrt(power / 2.0) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    # Draw order is fixed (SOI, interferers in listed order, noise) so a
    # given seed always produces the same matrix.
    x = np.zeros((geometry.num_elements, scenario.num_snapshots), dtype=complex)
    for doa, power in scenario.sources:
        x += np.outer(_source_steering(geometry, doa), draw(power, x.shape[1]))
    x += draw(scenario.noise_power, x.shape)
    return x
