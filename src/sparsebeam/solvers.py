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
diagonally loaded before factorization; a trace that is not finite
raises DomainError. Each solve checks and loads R once, into a private
problem (:class:`_Problem`) that also keeps its unpenalized solve under
each constraint. ``run_experiment`` builds one problem per Monte-Carlo
run and passes it to every method in the covariance slot, so a run's R
is checked once, and sc and wsc start from the run's mvdr solve and
rwsc from its rmvb solve, with the bits of a solve of their own.
A matrix with a mean diagonal outside [2^-64, 2^64) is scaled by a
power of four before an inner solve, so a covariance of any scale whose
trace is finite solves, with the weights of the unit-scale solve bit
for bit; inside that window the scale would move no bit and is skipped
(:func:`_unit_scaled`). :func:`_run_irls` is the one place that decides
it: the inner solves take the matrix they are given. It tests the
unpenalized start, and tests each IRLS step's matrix only when one
bound per solve cannot prove that every step's lies in the window.
Every per-step product goes through the array method ``x.dot(y)``,
not ``@`` or ``np.dot``: for these operands all three make the same
BLAS call (zgemm, zgemv or zdotu). ``np.dot`` skips ``matmul``'s ufunc
dispatch, about 1 us a call, and the method also skips ``np.dot``'s
``__array_function__`` dispatch, about 0.4 us more. The
bit-identity claims here hold for normal floats: a power of two
commutes with rounding only while no value is subnormal or overflows.
A, q, a0 or an ellipsoid that is not numeric, does not match R's size,
or holds NaN or inf, raises DomainError before any factorization, as do
negative q entries and a zero a0. A and q may be empty, and an
ellipsoid shape may have no columns; nothing else may.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .arrays import (ArrayGeometry, _check_count, _check_direction, _checked, _real, steering_matrix,
                     steering_vector)
from .covariance import _loaded, ensure_covariance
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
    factorization. gamma and diagonal_loading lie in [0, inf),
    objective_tolerance and irls_epsilon in (0, inf), and max_iterations
    is an integer >= 1; anything else, NaN or inf included, raises
    DomainError.
    """

    gamma: float = 2.0
    p: float = 1.0
    max_iterations: int = 100
    objective_tolerance: float = 1e-8
    irls_epsilon: float = 1e-8
    diagonal_loading: float = 1e-6

    def __post_init__(self):
        _real("gamma", self.gamma, "[0, inf)")
        _real("p", self.p, "(0, 1]")
        _check_count("max_iterations", self.max_iterations, 1)
        _real("objective_tolerance", self.objective_tolerance, "(0, inf)")
        _real("irls_epsilon", self.irls_epsilon, "(0, inf)")
        _real("diagonal_loading", self.diagonal_loading, "[0, inf)")


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

    ``shape`` is M x r; r = 0, like an all-zero shape, denotes a
    degenerate point ellipsoid.
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


def _mean_diagonal(r: np.ndarray) -> float:
    # A Python sum over the diagonal costs a third of numpy's trace here.
    return sum(r.real.diagonal().tolist()) / r.shape[0]


def _unit_scaled(r: np.ndarray) -> np.ndarray:
    """``r``, scaled by a power of four only if its mean diagonal is outside [2^-64, 2^64).

    Both inner solves are invariant to R's scale, and a power of four
    commutes exactly with the Cholesky factor (its square root is a
    power of two), the triangular solves, the SVD and the cone
    multiplier while every value stays a normal float. So scaling keeps
    the weights' bits. Inside the window ``r`` itself is returned: the
    scale would move no bit, and a matrix that size cannot overflow or
    underflow a solve, so the two array passes are skipped. Outside it,
    ``r`` times the power of four that puts its mean diagonal in
    [1/4, 1) is returned, so R's overall size can no longer overflow or
    underflow a solve. The factor is applied as two halves, each finite
    even where 4^k is not.
    """
    exponent = math.frexp(_mean_diagonal(r))[1]
    if -63 <= exponent <= 64:
        return r
    half = math.ldexp(1.0, -((exponent + 1) // 2))
    return r * half * half


def _mvdr_direction(r: np.ndarray, a0: np.ndarray, a0_h: np.ndarray) -> np.ndarray:
    """R^-1 a0 / (a0_h R^-1 a0), where a0_h is a0.conj().

    One LAPACK zposv call, which is zpotrf followed by zpotrs; a failed
    factorization reports zpotrf's info. R is factored as given:
    :func:`_run_irls` has already put it in _unit_scaled's window.
    a0_h x is ``a0_h.dot(x)``'s zdotu, the call ``@`` makes, with less
    dispatch.
    """
    _, x, info = zposv(r, a0, lower=1)
    _check_factorization(info)
    denom = a0_h.dot(x)
    if abs(denom) < 1e-300:
        raise SolverError("steering vector annihilated by the covariance inverse")
    # Dividing by the complex scalar makes w^H a0 = 1 exact in floating point.
    return x / denom


def _run_irls(problem: _Problem, constraint, aq, opts: SolverOptions, inner):
    """Shared IRLS loop. ``inner(R_eff) -> w`` solves the reweighted subproblem.

    The loop starts from the unpenalized solve ``inner`` gives under
    ``constraint`` on the problem's R, made once per problem and
    constraint (:meth:`_Problem.start`).

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
    transpose) / 2, with D = diag(p/2 (|u|^2 + eps)^((p-2)/2)). Both
    halves are taken before the transpose is added, so a finite R cannot
    overflow it: R/2 once per solve, and the penalty term's 1/2 in
    d_scale, together with D's p/2 and with gamma when gamma is a power
    of two; any other gamma multiplies the M x N product A Q D once a
    step. A power-of-two d_scale rides on a copy of A Q made once per
    solve, so a step only raises the N-vector d to its power, if every
    nonzero part of that copy is a normal float (tested once per solve);
    any other d_scale multiplies d. A step writes the M x N product once
    and allocates no array of its own: every buffer, d and the M x M
    conjugate included, is allocated once per solve. |u|^2 + eps of the
    step's response u = (A Q)^H w serves both its penalty and the next
    reweighting, unless eps was just annealed. Every product is the
    ``dot`` method, which makes the BLAS call ``@`` makes with less
    dispatch.

    This loop, not the inner solve, decides scaling
    (:func:`_unit_scaled`). The unpenalized start is always tested. The
    steps' matrices are not tested when one bound proves them all inside
    the window: every R_eff's diagonal is at least R's, since the
    penalty's diagonal sums nonnegative products, and at most R's plus
    gamma p/2 d_max ||A Q||_F^2 / M on average, where d_max =
    min(irls_epsilon, 1e-12)^((p-2)/2) bounds (|u|^2 + eps)^((p-2)/2).
    The bound is taken with a factor of two to spare below 2^63. When it
    fails, every step's matrix is tested as the start's is.

    A power-of-two factor commutes with rounding for normal floats, and
    otherwise the floating-point operations and their order are those of
    the plain expressions, so the results are the same to the bit
    (tests/_oracles.py keeps the plain loop as the reference).
    """
    r = problem.r
    w = problem.start(constraint, lambda: inner(_unit_scaled(r)))
    if opts.gamma == 0 or not aq.any():
        return w, 1, float((w.conj() @ r @ w).real), True, ()
    gamma = opts.gamma
    power, half_p = (opts.p - 2.0) / 2.0, opts.p / 2.0
    # d_scale takes every power-of-two factor of gamma A Q D / 2, so the
    # M x N product is scaled in a second pass only for any other gamma.
    fold_gamma = math.frexp(gamma)[0] == 0.5
    d_scale = half_p * 0.5 * gamma if fold_gamma else half_p * 0.5
    # A power-of-two d_scale = 2^j rides on a copy of A Q only if every
    # nonzero real or imaginary part of the copy is a normal float, whose
    # frexp exponent lies in [-1021, 1024]: a part with exponent e has
    # e + j there. A zero part's exponent, 0, can only refuse a scale.
    mantissa, exponent = math.frexp(d_scale)
    scale_on_aq = False
    if mantissa == 0.5:
        j = exponent - 1
        exponents = np.frexp(aq.view(float))[1]
        scale_on_aq = -1021 <= int(exponents.min()) + j and int(exponents.max()) + j <= 1024
    aq_scaled = aq * d_scale if scale_on_aq else aq
    # ||A Q||_F^2, plus what squares that underflow (each < 2^-1074) lose.
    aq_norm2 = float(np.vdot(aq, aq).real) + aq.size * 2.0**-1072
    r_mean = _mean_diagonal(r)
    # gamma p/2 d_max ||A Q||_F^2 / M < (2^63 - mean(R)) / 2, with d_max's
    # reciprocal on the right, where it cannot overflow.
    d_max_reciprocal = min(opts.irls_epsilon, _IRLS_EPS_FLOOR) ** -power
    scale_each_step = not (math.frexp(r_mean)[1] >= -63
                           and gamma * opts.p * aq_norm2 / r.shape[0] < (2.0**63 - r_mean) * d_max_reciprocal)
    # numpy computes x**0.5 as np.sqrt(x), which np.power need not match.
    penalty_power = np.sqrt if half_p == 0.5 else lambda x, out: np.power(x, half_p, out=out)
    r_half = r * 0.5
    eps = opts.irls_epsilon
    history: list[float] = []
    best_w, best_obj = w, np.inf
    converged = False
    # A view, not a copy: a contiguous copy changes the matvec's last bits.
    aq_h = aq.conj().T
    # Filled in place by every step; inner solves copy what they factor.
    weighted, r_eff, r_conj = np.empty_like(aq), np.empty_like(r), np.empty_like(r)
    # Complex with a zero imaginary part: the cast numpy's complex times
    # real multiply makes.
    d = np.zeros(aq.shape[1], dtype=complex)
    d_real, response, w_h, w_h_r = d.real, np.empty_like(d), np.empty_like(w), np.empty_like(w)
    u2 = np.abs(aq_h.dot(w)) ** 2
    smoothed, powered = u2 + eps, np.empty_like(u2)
    for step in range(opts.max_iterations):
        if step > 0 and step % 10 == 0:
            eps = max(eps * 0.1, _IRLS_EPS_FLOOR)
            np.add(u2, eps, out=smoothed)
        # power lies in (-1, -1/2], where ``**`` takes no scalar fast path.
        np.power(smoothed, power, out=d_real)
        if not scale_on_aq:
            d_real *= d_scale
        np.multiply(aq_scaled, d, out=weighted)
        if not fold_gamma:
            weighted *= gamma
        weighted.dot(aq_h, out=r_eff)
        r_eff += r_half
        r_eff += np.conjugate(r_eff, out=r_conj).T
        w = inner(_unit_scaled(r_eff) if scale_each_step else r_eff)
        np.square(np.abs(aq_h.dot(w, out=response), out=u2), out=u2)
        quad = float(np.conjugate(w, out=w_h).dot(r, out=w_h_r).dot(w).real)
        # u2 + eps serves both this penalty and the next reweighting.
        np.add(u2, eps, out=smoothed)
        objective = quad + gamma * float(np.add.reduce(penalty_power(smoothed, out=powered)))
        # Non-finite weights make every entry of u, and so the objective,
        # non-finite: the array test runs only when the scalar one fails.
        if not math.isfinite(objective) and not np.isfinite(w).all():
            break
        history.append(objective)
        if objective < best_obj:
            best_w, best_obj = w, objective
        if len(history) > 1 and abs(objective - history[-2]) <= (
            opts.objective_tolerance * max(1.0, abs(history[-2]))
        ):
            converged = True
            break
    return best_w, len(history), best_obj, converged, tuple(history)


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
    ||E^+ (a - c)|| <= 1. theta0_deg lies in [-90, 90] and half_width_deg
    in [0, inf); half_width_deg = 0 returns the degenerate point
    ellipsoid at a(theta0).
    """
    _check_direction("theta0_deg", theta0_deg)
    _real("half_width_deg", half_width_deg, "[0, inf)")
    _check_count("num_samples", num_samples, 2)
    m = geometry.num_elements
    if half_width_deg == 0:
        return Ellipsoid(steering_vector(geometry, theta0_deg), np.zeros((m, 0), dtype=complex))
    angles = np.linspace(theta0_deg - half_width_deg, theta0_deg + half_width_deg, num_samples)
    samples = steering_matrix(geometry, angles)
    center = samples.mean(axis=1)
    centered = samples - center[:, None]
    u, sigma, _ = np.linalg.svd(centered, full_matrices=False)
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
    # np.linalg.norm's own formula for a complex vector, without its wrapper.
    v = shape.conj().T.dot(w)
    return float(w.conj().dot(center).real - math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)))


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
    if np.add.reduce(cbar2 / s2) <= 1.0:
        return np.inf
    weight = s2 * cbar2
    terms = list(zip(s2.tolist(), weight.tolist()))
    lo, hi = 0.0, math.inf
    # Every denominator is >= 1, so h(nu) <= nu^2 sum(weight) = 1 here.
    nu = float(1.0 / np.sqrt(np.add.reduce(weight)))
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
    ellipsoid gives R^-1 c / (c^H R^-1 c). Only the singular directions
    with sigma^2 > 0 enter, so a shape with zero columns solves, to
    rounding, as the same shape without them.

    R is factored as given: :func:`_run_irls` has already put it in
    _unit_scaled's window. The products with U go through the ``dot``
    method, the zgemv ``@`` calls, with less dispatch.
    """
    # LAPACK's zpotrf and ztrtrs, the routines cho_factor and
    # solve_triangular wrap, called directly. R is finite (checked by
    # ensure_covariance before the solve), and the factor's diagonal is
    # positive, so ztrtrs cannot fail.
    chol, info = zpotrf(r, lower=1, clean=0)
    _check_factorization(info)
    white_c, _ = ztrtrs(chol, center, lower=1)
    white_e, _ = ztrtrs(chol, shape, lower=1)
    u, sigma, _ = np.linalg.svd(white_e, full_matrices=False)
    if sigma.size and not sigma[-1] ** 2:
        # sigma is sorted: keep the leading directions with sigma^2 > 0.
        rank = np.count_nonzero(sigma**2)
        u, sigma = u[:, :rank], sigma[:rank]
    cbar = u.conj().T.dot(white_c)
    nu = _cone_multiplier(sigma, cbar)
    x = white_c - u.dot(cbar) + u.dot(cbar / (1.0 + nu * sigma**2))
    w, _ = ztrtrs(chol, x, lower=1, trans=2)
    margin = _margin(w, center, shape)
    if not margin > 0:
        raise SolverError(
            "ellipsoid constraint is infeasible: no weight vector attains a "
            "positive worst-case gain (the uncertainty set contains the origin)"
        )
    return w / margin


class _Problem:
    """One covariance, checked and loaded once, and its unpenalized solves.

    R is ``diagonal_load(ensure_covariance(covariance), loading)``, a new
    array that no caller holds and no solve writes. ``run_experiment``
    builds one problem per Monte-Carlo run and hands it to every method's
    solver in the covariance slot; a public solver given a covariance
    builds its own. The methods of a run that share a constraint share
    its unpenalized solve (:meth:`start`), so sc and wsc start from
    mvdr's solve and rwsc from rmvb's.
    """

    __slots__ = ("r", "_starts")

    def __init__(self, covariance, loading: float):
        self.r = _loaded(ensure_covariance(covariance), loading)
        self._starts: list[tuple[object, np.ndarray]] = []

    def start(self, constraint, solve) -> np.ndarray:
        """``solve()`` at the first call for ``constraint``; a copy of it at every later one.

        A constraint is the same one when it is the same object: the a0
        or Ellipsoid a study passes to every method. The copies keep the
        method that made the solve and every later one from sharing a
        weight vector. A solve that raises keeps nothing, so each method
        that asks raises again.
        """
        for kept, w in self._starts:
            if kept is constraint:
                return w.copy()
        w = solve()
        self._starts.append((constraint, w))
        return w


def _solve(method, covariance, a, q, constraint, opts) -> BeamformerWeights:
    """Minimize w^H R w + gamma ||w^H A Q||_p^p under ``constraint``.

    The one solve behind every public solver. ``constraint`` is the
    steering vector a0 of w^H a0 = 1, or, for rmvb and rwsc, the
    Ellipsoid of the worst-case gain floor. a = None drops the penalty:
    an M x 0 penalty matrix makes _run_irls return the unpenalized
    solve. q = None means unit weights. ``covariance`` is R or a
    :class:`_Problem` loaded with ``opts.diagonal_loading``. Every input
    is checked against R's size before the first factorization.
    """
    opts = opts or SolverOptions()
    problem = covariance if isinstance(covariance, _Problem) else _Problem(covariance, opts.diagonal_loading)
    m = problem.r.shape[0]
    if a is None:
        aq = np.zeros((m, 0), dtype=complex)
    else:
        aq = a = _checked("steering matrix A", a, (m, None), empty_ok=True)
        if q is not None:
            q = _checked("q", q, a.shape[1:], float, empty_ok=True)
            if np.any(q < 0):
                raise DomainError("q entries must be nonnegative")
            aq = a * q[None, :]
    if method in ("rmvb", "rwsc"):
        center = _checked("ellipsoid center", getattr(constraint, "center", None), (m,))
        shape = _checked("ellipsoid shape", getattr(constraint, "shape", None), (m, None), empty_ok=True)
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
    w, iterations, objective, converged, history = _run_irls(problem, constraint, aq, opts, inner)
    # _run_irls scales away R's size, but no solver may return NaN
    # or inf weights, so they are checked once more.
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
