"""Uniform linear array geometry, steering vectors, and snapshot synthesis.

Angles are degrees from broadside at every public boundary. A steering
vector for direction theta has elements exp(j*m*phi) with
phi = 2*pi*(d/lambda)*sin(theta), m = 0 .. M-1, so the first element is
always 1 and every element has unit modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _checked(name: str, value, shape: tuple, dtype=complex) -> np.ndarray:
    """``value`` as a finite array of ``shape``; None in ``shape`` matches any length."""
    x = np.asarray(value, dtype=dtype)
    if x.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, x.shape)):
        expected = tuple("any" if n is None else n for n in shape)
        raise DomainError(f"{name} has shape {x.shape}, expected {expected}")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite (no NaN or inf entries)")
    return x


@dataclass(frozen=True)
class ArrayGeometry:
    """Element count and normalized spacing of a uniform linear array.

    Parameters
    ----------
    num_elements : int
        Number of antennas M, at least 2.
    spacing_wavelengths : float
        Adjacent-element spacing as a fraction of wavelength (d/lambda).
    """

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.num_elements < 2:
            raise DomainError(f"num_elements must be >= 2, got {self.num_elements}")
        if not self.spacing_wavelengths > 0:
            raise DomainError(
                f"spacing_wavelengths must be positive, got {self.spacing_wavelengths}"
            )


@dataclass(frozen=True)
class Scenario:
    """Source layout and statistics for one simulated data collection.

    ``soi_snr_db`` and each interferer's INR are powers relative to
    ``noise_power``, so with the default unit noise power the dB values
    map directly to source variances. ``rng_seed``, a non-negative
    integer, makes snapshot generation reproducible; Monte-Carlo
    harnesses derive per-run seeds from it.
    """

    soi_doa_deg: float
    soi_snr_db: float
    interferers: tuple[tuple[float, float], ...] = ()
    num_snapshots: int = 100
    noise_power: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "interferers", tuple((float(d), float(p)) for d, p in self.interferers)
        )
        values = [self.soi_doa_deg, self.soi_snr_db, self.noise_power]
        values += [v for pair in self.interferers for v in pair]
        if not all(map(math.isfinite, values)):
            raise DomainError("scenario DOAs, SNR, INRs and noise power must be finite")
        if not isinstance(self.rng_seed, (int, np.integer)) or self.rng_seed < 0:
            raise DomainError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        if self.num_snapshots < 1:
            raise DomainError(f"num_snapshots must be >= 1, got {self.num_snapshots}")
        if not self.noise_power > 0:
            raise DomainError(f"noise_power must be positive, got {self.noise_power}")
        doas = [d for d, _ in self.interferers]
        if len(set(doas)) != len(doas):
            raise DomainError("interferer DOAs must be distinct")
        if any(abs(d - self.soi_doa_deg) < 1e-12 for d in doas):
            raise DomainError("interferer DOA coincides with the SOI DOA")


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
    if not -90.0 <= theta_deg <= 90.0:
        raise DomainError(f"theta_deg must lie in [-90, 90], got {theta_deg}")
    phi = 2.0 * np.pi * geometry.spacing_wavelengths * np.sin(np.deg2rad(theta_deg))
    return np.exp(1j * phi * np.arange(geometry.num_elements))


def steering_matrix(geometry: ArrayGeometry, angles_deg) -> np.ndarray:
    """Return the M x N matrix whose column n is a(angles_deg[n]).

    The grid must be non-empty, inside [-90, 90], and strictly increasing.
    """
    angles = np.asarray(angles_deg, dtype=float)
    if angles.ndim != 1 or angles.size == 0:
        raise DomainError("angle grid must be a non-empty 1-D sequence")
    if np.any(angles < -90.0) or np.any(angles > 90.0):
        raise DomainError("angle grid must lie within [-90, 90]")
    if angles.size > 1 and np.any(np.diff(angles) <= 0):
        raise DomainError("angle grid must be strictly increasing")
    phi = 2.0 * np.pi * geometry.spacing_wavelengths * np.sin(np.deg2rad(angles))
    return np.exp(1j * np.outer(np.arange(geometry.num_elements), phi))


def interference_grid(steer_deg: float, step_deg: float = 1.0) -> np.ndarray:
    """Return the candidate-interference grid used by the sparse penalty.

    Covers [-90, 90] at ``step_deg`` spacing and omits any grid point that
    coincides with the steering direction, so the distortionless direction
    never participates in the penalty. With the defaults and an on-grid
    steering angle this yields 180 directions.
    """
    if not step_deg > 0:
        raise DomainError(f"step_deg must be positive, got {step_deg}")
    n = int(round(180.0 / step_deg))
    angles = -90.0 + step_deg * np.arange(n + 1)
    return angles[np.abs(angles - steer_deg) > 1e-9]


def generate_snapshots(
    scenario: Scenario,
    geometry: ArrayGeometry,
    *,
    fixed_soi_amplitude: complex | None = None,
) -> np.ndarray:
    """Synthesize the M x K snapshot matrix X for a scenario.

    Column k is s(k)*a(theta0) + sum_j beta_j(k)*a(theta_j) + n(k) where
    s(k) and beta_j(k) are i.i.d. zero-mean circular complex Gaussians
    with powers noise_power*10^(dB/10) and n(k) is spatially white
    complex Gaussian with per-element power ``noise_power``. Output is a
    deterministic function of ``scenario.rng_seed``.

    ``fixed_soi_amplitude`` is a test hook that replaces the random s(k)
    with a constant amplitude for every snapshot.
    """
    rng = np.random.default_rng(scenario.rng_seed)
    m = geometry.num_elements
    k = scenario.num_snapshots

    def draw(power: float) -> np.ndarray:
        scale = np.sqrt(power / 2.0)
        return scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))

    # Draw order is fixed (SOI, interferers in listed order, noise) so a
    # given seed always produces the same matrix.
    soi_power = scenario.noise_power * 10.0 ** (scenario.soi_snr_db / 10.0)
    s = draw(soi_power)
    if fixed_soi_amplitude is not None:
        s = np.full(k, fixed_soi_amplitude, dtype=complex)
    x = np.outer(steering_vector(geometry, scenario.soi_doa_deg), s)
    for doa, inr_db in scenario.interferers:
        power = scenario.noise_power * 10.0 ** (inr_db / 10.0)
        x += np.outer(steering_vector(geometry, doa), draw(power))
    noise_scale = np.sqrt(scenario.noise_power / 2.0)
    x += noise_scale * (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
    return x
