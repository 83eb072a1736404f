"""Beamformer weight solvers.

Every solver minimizes one objective over a loaded covariance R,

    w^H R w + gamma * ||w^H A Q||_p^p,   Q = diag(q),

a weighted p-norm penalty over a grid A of candidate interference
directions, under one of two constraints:

- the distortionless constraint w^H a0 = 1 for a steering vector a0;
- a worst-case gain floor real(w^H a) >= 1 over an uncertainty
  ellipsoid of steering vectors, a second-order cone program solved
  exactly (Lorenz & Boyd, 2005): the optimum is (R + nu E E^H)^-1 c
  scaled onto the constraint, and nu >= 0 is the root of one increasing
  scalar equation, found by a safeguarded Newton iteration after a
  Cholesky whitening and one thin SVD. When that equation has no root
  the optimum is the cone apex, where E^H w = 0; a point ellipsoid is
  the rank-0 case of the same formula.

The penalty is handled by iteratively reweighted least squares (IRLS):
each reweighted subproblem is the unpenalized problem with R replaced by
an effective covariance, solved in closed form. The five solvers are
cases of this one problem, solved by one code path:

- ``mvdr``: no penalty, distortionless constraint, in closed form.
- ``solve_wsc``: the penalty and the distortionless constraint.
- ``solve_sc``: the same with unit weights, q = 1.
- ``solve_rmvb``: no penalty, ellipsoid constraint.
- ``solve_rwsc``: the penalty and the ellipsoid constraint.

Every solver takes a covariance R and nothing else: anything but a
finite Hermitian matrix, raw snapshots included, raises DomainError
(:func:`sparsebeam.covariance.ensure_covariance`). R is symmetrized and
diagonally loaded before factorization. A, q, a0 or an ellipsoid that
does not match R's size, or holds NaN or inf, raises DomainError before
any factorization, as do negative q entries and a zero a0.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np
import scipy

from .arrays import ArrayGeometry, _checked, steering_matrix, steering_vector
from .covariance import diagonal_load, ensure_covariance
from .errors import DomainError, SolverError

__all__ = [
    "SolverOptions",
    "Diagnostics",
    "BeamformerWeights",
    "Ellipsoid",
    "mvdr",
    "solve_sc",
    "solve_wsc",
    "build_ellipsoid",
    "solve_rmvb",
    "solve_rwsc",
]


def _load_flapack():
    """Load scipy.linalg._flapack without running scipy.linalg's __init__.

    ``scipy.linalg.lapack`` re-exports this extension module's routines,
    so ``zposv``, ``zpotrf`` and ``ztrtrs`` below are the same compiled
    objects. Importing ``scipy.linalg`` instead would also import scipy's
    array-API layer, which pulls in numpy.f2py, numpy.testing, numpy.ma
    and numpy.random: ~0.2 s and ~27 MB for three routines. ``import
    scipy`` above still runs scipy's own platform set-up. Once the
    solvers use numpy's linear algebra, this loader goes away.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"{name} not found in scipy {scipy.__version__}")
    module = importlib.util.module_from_spec(spec)
    # Registered under its own name, so a later ``import scipy.linalg``
    # reuses this module instead of initializing a second copy.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
zposv, zpotrf, ztrtrs = _flapack.zposv, _flapack.zpotrf, _flapack.ztrtrs

_IRLS_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Shared tuning knobs for every solver.

    gamma trades output power against the sparsity penalty; p in (0, 1]
    selects the penalty norm; irls_epsilon smooths |u|^(p-2) at the
    origin and is annealed by 0.1 every 10 iterations down to 1e-12.
    diagonal_loading is the relative loading applied to R before any
    factorization. Every option must be finite; NaN or inf raises
    DomainError.
    """

    gamma: float = 2.0
    p: float = 1.0
    max_iterations: int = 100
    objective_tolerance: float = 1e-8
    irls_epsilon: float = 1e-8
    diagonal_loading: float = 1e-6

    def __post_init__(self):
        for option in fields(self):
            value = getattr(self, option.name)
            # Exact for ints of any size, and false for NaN.
            if not -math.inf < value < math.inf:
                raise DomainError(f"{option.name} must be finite, got {value}")
        if not 0 < self.p <= 1:
            raise DomainError(f"p must lie in (0, 1], got {self.p}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be nonnegative, got {self.gamma}")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if not self.objective_tolerance > 0:
            raise DomainError("objective_tolerance must be positive")
        if not self.irls_epsilon > 0:
            raise DomainError("irls_epsilon must be positive")
        if self.diagonal_loading < 0:
            raise DomainError("diagonal_loading must be nonnegative")


@dataclass(frozen=True)
class Diagnostics:
    """Solve bookkeeping attached to every weight vector.

    constraint_residual is |w^H a0 - 1| for the equality-constrained
    methods and the signed worst-case margin real(w^H c) - ||E^H w|| - 1
    for the ellipsoid-constrained ones. objective_history records the
    smoothed objective after each IRLS iteration (empty for closed-form
    solves).
    """

    iterations: int
    final_objective: float
    constraint_residual: float
    converged: bool = True
    objective_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class BeamformerWeights:
    w: np.ndarray
    method: str
    diagnostics: Diagnostics


@dataclass(frozen=True)
class Ellipsoid:
    """Steering-vector uncertainty set {center + shape @ u : ||u|| <= 1}.

    ``shape`` is M x r with full column rank; r = 0 denotes a degenerate
    point ellipsoid.
    """

    center: np.ndarray
    shape: np.ndarray

    @property
    def rank(self) -> int:
        return self.shape.shape[1]


def _check_factorization(info: int) -> None:
    if info != 0:
        reason = "not positive definite" if info > 0 else "illegal argument"
        raise SolverError(f"covariance factorization failed: zpotrf info={info} ({reason})")


def _mvdr_direction(r: np.ndarray, a0: np.ndarray, a0_h: np.ndarray) -> np.ndarray:
    """R^-1 a0 / (a0_h R^-1 a0), where a0_h is a0.conj().

    One LAPACK zposv call, which is zpotrf followed by zpotrs; a failed
    factorization reports zpotrf's info.
    """
    _, x, info = zposv(r, a0, lower=1)
    _check_factorization(info)
    denom = a0_h @ x
    if abs(denom) < 1e-300:
        raise SolverError("steering vector annihilated by the covariance inverse")
    # Dividing by the complex scalar makes w^H a0 = 1 exact in floating point.
    return x / denom


def _run_irls(r, aq, opts: SolverOptions, inner):
    """Shared IRLS loop. ``inner(R_eff) -> w`` solves the reweighted subproblem.

    Returns (w, iterations, final_objective, converged, history). The
    recorded objective is the epsilon-smoothed one, which the
    majorize-minimize update never increases; annealing epsilon only
    lowers it further. With gamma = 0 or an all-zero penalty matrix (an
    M x 0 one included) the unpenalized solve is the answer: one
    iteration, objective w^H R w and an empty history. A step whose
    weights are not finite ends the loop, since every later step would
    be NaN too; the best weights so far are returned, and iterations
    counts the finite steps.

    Each step is R_eff = (R + gamma A Q D Q A^H + its conjugate
    transpose) / 2, assembled in place, and |u|^2 of the step's response
    u = (A Q)^H w serves both its penalty and the next reweighting. The
    floating-point operations and their order are those of the plain
    expressions, so the results are the same to the bit
    (tests/_oracles.py keeps the plain loop as the reference).
    """
    w = inner(r)
    if opts.gamma == 0 or not aq.any():
        return w, 1, float((w.conj() @ r @ w).real), True, ()
    gamma = opts.gamma
    # Powers stay ``**``: numpy computes a scalar exponent of 2 or 0.5 as
    # square or sqrt, which np.power does not.
    power, half_p = (opts.p - 2.0) / 2.0, opts.p / 2.0
    eps = opts.irls_epsilon
    history: list[float] = []
    previous = None
    best_w, best_obj = w, np.inf
    converged = False
    iterations = 0
    # A view, not a copy: a contiguous copy changes the matvec's last bits.
    aq_h = aq.conj().T
    u2 = np.abs(aq_h @ w) ** 2
    for step in range(opts.max_iterations):
        if step > 0 and step % 10 == 0:
            eps = max(eps * 0.1, _IRLS_EPS_FLOOR)
        d = (u2 + eps) ** power * half_p
        weighted = aq * d
        weighted *= gamma
        r_eff = weighted @ aq_h
        r_eff += r
        r_eff += r_eff.conj().T
        r_eff *= 0.5
        w = inner(r_eff)
        u2 = np.abs(aq_h @ w) ** 2
        quad = float((w.conj() @ r @ w).real)
        objective = quad + gamma * float(((u2 + eps) ** half_p).sum())
        # Non-finite weights make every entry of u, and so the objective,
        # non-finite: the array test runs only when the scalar one fails.
        if not math.isfinite(objective) and not np.isfinite(w).all():
            break
        history.append(objective)
        iterations = step + 1
        if objective < best_obj:
            best_w, best_obj = w, objective
        if previous is not None and abs(objective - previous) <= (
            opts.objective_tolerance * max(1.0, abs(previous))
        ):
            converged = True
            break
        previous = objective
    return best_w, iterations, best_obj, converged, tuple(history)


def build_ellipsoid(
    geometry: ArrayGeometry,
    theta0_deg: float,
    half_width_deg: float,
    num_samples: int = 13,
) -> Ellipsoid:
    """Fit an ellipsoid around steering vectors near a nominal direction.

    Samples a(theta) for theta in [theta0 - half_width, theta0 + half_width],
    takes the sample mean as the center, and scales the principal
    components of the centered samples so every sample satisfies
    ||E^+ (a - c)|| <= 1. half_width_deg = 0 returns the degenerate point
    ellipsoid at a(theta0).
    """
    if num_samples < 2:
        raise DomainError(f"num_samples must be >= 2, got {num_samples}")
    if half_width_deg < 0:
        raise DomainError(f"half_width_deg must be nonnegative, got {half_width_deg}")
    m = geometry.num_elements
    if half_width_deg == 0:
        return Ellipsoid(steering_vector(geometry, theta0_deg), np.zeros((m, 0), dtype=complex))
    angles = np.linspace(theta0_deg - half_width_deg, theta0_deg + half_width_deg, num_samples)
    samples = steering_matrix(geometry, angles)
    center = samples.mean(axis=1)
    centered = samples - center[:, None]
    u, sigma, _ = np.linalg.svd(centered, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0:
        return Ellipsoid(center, np.zeros((m, 0), dtype=complex))
    rank = int(np.sum(sigma > sigma[0] * 1e-12))
    u, sigma = u[:, :rank], sigma[:rank]
    coords = u.conj().T @ centered
    # Smallest uniform inflation of the principal-axis lengths that puts
    # every sample inside the unit ball of the ellipsoid coordinates,
    # padded by 1e-6 so containment survives pseudoinverse roundoff in
    # downstream checks (the axis lengths can span ~10 decades).
    alpha = float(np.max(np.linalg.norm(coords / sigma[:, None], axis=0))) * (1.0 + 1e-6)
    return Ellipsoid(center, u * (alpha * sigma)[None, :])


def _margin(w: np.ndarray, center: np.ndarray, shape: np.ndarray) -> float:
    return float((w.conj() @ center).real - np.linalg.norm(shape.conj().T @ w))


def _cone_multiplier(sigma: np.ndarray, cbar: np.ndarray) -> float:
    """Root of h(nu) = nu^2 sum sigma^2 |cbar|^2 / (1 + nu sigma^2)^2 = 1.

    h rises strictly from 0 towards sum |cbar|^2 / sigma^2; when that
    limit is at most 1 there is no root and the optimum is the cone
    apex, returned as nu = inf. Otherwise Newton's method runs on the
    decreasing secular equation h^(-1/2) = 1 (Moré & Sorensen, SIAM J.
    Sci. Stat. Comput. 4(3), 1983) in Python floats, safeguarded by a
    bracket [lo, hi] with h(lo) < 1 <= h(hi). A step that stalls at lo
    moves one float up; any other step that leaves the bracket is
    replaced by its midpoint, or by doubling lo while hi is unbounded.
    Every accepted point shrinks the bracket, so the loop ends: when a
    step from hi stalls or leaves through hi, or no float is left
    inside, it returns hi, the h >= 1 side.
    """
    cbar2 = np.abs(cbar) ** 2
    s2 = sigma**2
    if np.sum(cbar2 / s2) <= 1.0:
        return np.inf
    weight = s2 * cbar2
    terms = list(zip(s2.tolist(), weight.tolist()))
    lo, hi = 0.0, math.inf
    # Every denominator is >= 1, so h(nu) <= nu^2 sum(weight) = 1 here.
    nu = float(1.0 / np.sqrt(np.sum(weight)))
    while True:
        total = slope = 0.0
        for s, wt in terms:
            d = 1.0 + nu * s
            q = wt / (d * d)
            total += q
            slope += q / d
        if nu * nu * total < 1.0:
            lo = nu
        else:
            hi = nu
        # h = nu^2 total and h' = 2 nu slope, so the Newton step on
        # h^(-1/2) - 1 is 2 h (1 - sqrt(h)) / h'. When every term has
        # underflowed there is no step, and the bracket takes over.
        if slope:
            trial = nu + nu * total * (1.0 - nu * math.sqrt(total)) / slope
        else:
            trial = math.nan
        if nu == hi and trial >= hi:
            return hi
        if nu == lo and trial <= lo:
            trial = math.nextafter(lo, math.inf)
        if not lo < trial < hi:
            trial = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
            if not lo < trial < hi:
                return hi
        nu = trial


def _cone_solve(r, center, shape):
    """Minimize w^H R w subject to real(w^H c) - ||E^H w|| >= 1, exactly.

    Under the real inner product Re(x^H y), stationarity reads
    2 R w = lam (c - E E^H w / ||E^H w||) with real lam >= 0, so at the
    optimum (R + nu E E^H) w is parallel to c for one real nu >= 0
    (Lorenz & Boyd, IEEE TSP 53(5), 2005). With R = L L^H, the
    thin SVD L^-1 E = U diag(sigma) V^H, cbar = U^H L^-1 c and
    c_perp = L^-1 c - U cbar, the direction is
    L^-H (c_perp + U cbar / (1 + nu sigma^2)); the margin is
    1-homogeneous, so dividing by it makes the constraint active. At the
    apex (nu = inf, E^H w = 0) only c_perp is left, and a rank-0 point
    ellipsoid gives R^-1 c / (c^H R^-1 c).
    """
    # LAPACK's zpotrf and ztrtrs, the routines cho_factor and
    # solve_triangular wrap, called directly. R is finite (checked once
    # per solve by ensure_covariance), and the factor's diagonal is
    # positive, so ztrtrs cannot fail.
    chol, info = zpotrf(r, lower=1, clean=0)
    _check_factorization(info)
    white_c, _ = ztrtrs(chol, center, lower=1)
    white_e, _ = ztrtrs(chol, shape, lower=1)
    u, sigma, _ = np.linalg.svd(white_e, full_matrices=False)
    cbar = u.conj().T @ white_c
    nu = _cone_multiplier(sigma, cbar)
    x = white_c - u @ cbar + u @ (cbar / (1.0 + nu * sigma**2))
    w, _ = ztrtrs(chol, x, lower=1, trans=2)
    margin = _margin(w, center, shape)
    if not margin > 0:
        raise SolverError(
            "ellipsoid constraint is infeasible: no weight vector attains a "
            "positive worst-case gain (the uncertainty set contains the origin)"
        )
    return w / margin


def _solve(method, covariance, a, q, constraint, opts) -> BeamformerWeights:
    """Minimize w^H R w + gamma ||w^H A Q||_p^p under ``constraint``.

    The one solve behind every public solver. ``constraint`` is the
    steering vector a0 of w^H a0 = 1, or, for rmvb and rwsc, the
    Ellipsoid of the worst-case gain floor. a = None drops the penalty:
    an M x 0 penalty matrix makes _run_irls return the unpenalized
    solve. q = None means unit weights. Every input is checked against
    R's size before the first factorization.
    """
    opts = opts or SolverOptions()
    r = diagonal_load(ensure_covariance(covariance), opts.diagonal_loading)
    m = r.shape[0]
    if a is None:
        aq = np.zeros((m, 0), dtype=complex)
    else:
        a = _checked("steering matrix A", a, (m, None))
        q = np.ones(a.shape[1]) if q is None else _checked("q", q, a.shape[1:], float)
        if np.any(q < 0):
            raise DomainError("q entries must be nonnegative")
        aq = a * q[None, :]
    if method in ("rmvb", "rwsc"):
        center = _checked("ellipsoid center", constraint.center, (m,))
        shape = _checked("ellipsoid shape", constraint.shape, (m, None))
        inner = lambda r_eff: _cone_solve(r_eff, center, shape)
        residual = lambda w: _margin(w, center, shape) - 1.0
    else:
        a0 = _checked("steering vector a0", constraint, (m,))
        if not a0.any():
            raise DomainError("steering vector a0 must be nonzero")
        a0_h = a0.conj()
        # _mvdr_direction is looked up at call time, so it can be swapped.
        inner = lambda r_eff: _mvdr_direction(r_eff, a0, a0_h)
        residual = lambda w: float(abs(w.conj() @ a0 - 1.0))
    w, iterations, objective, converged, history = _run_irls(r, aq, opts, inner)
    # Finite input can still overflow, for example a covariance so small
    # that its inverse is infinite, so the weights are checked once more.
    if not np.isfinite(w).all():
        raise SolverError(f"{method} produced non-finite weights")
    diagnostics = Diagnostics(iterations, objective, residual(w), converged, history)
    return BeamformerWeights(w, method, diagnostics)


def mvdr(covariance, a0, opts: SolverOptions | None = None) -> BeamformerWeights:
    """Closed-form minimum-variance distortionless response weights.

    Returns w = R^-1 a0 / (a0^H R^-1 a0), the unique minimizer of
    w^H R w subject to w^H a0 = 1 for positive-definite loaded R.
    """
    return _solve("mvdr", covariance, None, None, a0, opts)


def solve_sc(covariance, a, a0, opts: SolverOptions | None = None) -> BeamformerWeights:
    """Sparse-constraint beamformer.

    Approximately minimizes w^H R w + gamma*||w^H A||_p^p subject to
    w^H a0 = 1. Each IRLS iteration folds the reweighted penalty into an
    effective covariance R + gamma*A D A^H and reuses the closed-form
    distortionless solve. The grid behind A must exclude the steering
    direction. This is :func:`solve_wsc` with unit weights.
    """
    return _solve("sc", covariance, a, None, a0, opts)


def solve_wsc(covariance, a, q, a0, opts: SolverOptions | None = None) -> BeamformerWeights:
    """Weighted-sparse-constraint beamformer.

    Identical to :func:`solve_sc` with A replaced by A Q in the penalty,
    Q = diag(q). q = 1 reproduces solve_sc; q = 0 reproduces mvdr.
    """
    return _solve("wsc", covariance, a, q, a0, opts)


def solve_rmvb(covariance, ellipsoid: Ellipsoid, opts: SolverOptions | None = None) -> BeamformerWeights:
    """Robust minimum-variance beamformer over a steering ellipsoid.

    Minimizes w^H R w subject to the worst case of real(w^H a) over the
    ellipsoid staying at or above 1. The constraint is active at the
    optimum for positive definite loaded R.
    """
    return _solve("rmvb", covariance, None, None, ellipsoid, opts)


def solve_rwsc(
    covariance, a, q, ellipsoid: Ellipsoid, opts: SolverOptions | None = None
) -> BeamformerWeights:
    """Robust weighted-sparse beamformer.

    Minimizes w^H R w + gamma*||w^H A Q||_p^p under the ellipsoid
    worst-case gain floor. The IRLS outer loop folds the reweighted
    penalty into R_eff = R + gamma*A Q D Q A^H and each inner step is the
    ellipsoid-constrained cone solve. gamma = 0 reduces to solve_rmvb.
    """
    return _solve("rwsc", covariance, a, q, ellipsoid, opts)
