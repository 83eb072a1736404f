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
raises DomainError. R is checked and loaded once per run, in a study
(:class:`_Study`): ``run_experiment`` builds one of all its Monte-Carlo
runs and passes each run to every method as a handle
(:class:`_StudyRun`) in the covariance slot, and a public solver given
a covariance builds a one-run study of its own. A study only holds
data; :func:`_solve` is the one code that reads or fills its results.
A method's first call in a study solves it for every run, in lockstep
batches (:func:`_solve_runs`): one IRLS loop (:func:`_run_irls`) steps
a stack of runs at once, each from its own unpenalized solve, and each
run keeps the bits of its own solve. Each step factors each run's
matrix once; a distortionless stack of _STACK_MIN runs or more is then
normalized as one stack (:func:`_mvdr_directions`), and a smaller one
run by run, which costs less for one to three runs. The loop takes A
and each run's q, and each stack makes its own A Q after letting the
old stack's go.
It hands each run's end point to the one ``finish`` that _solve_runs
defines, so a batch returns finished solves: BeamformerWeights, or a
SolverError. A batch holds as many runs as keep its stacked M x N
arrays within 1 MiB (_BATCH_BYTES), and at least one.
Sizes are kept out of the solves by the package's one exact rescale, a
power of two (:func:`sparsebeam.arrays._times_power_of_two`). The cone
solve is homogeneous in the ellipsoid, so every ellipsoid is solved at
the scale that puts max |center| in [1/2, 1), and its weights are
scaled back (:func:`_solve_runs`).
An inner solve's matrix is scaled by the power of four that puts its
max |entry| in [1/4, 1), so a covariance of any scale whose trace is
finite solves, with the weights of the unit-scale solve bit for bit
(:func:`_unit_scaled`). :func:`_run_irls` is the one place that decides
it, for each run: the inner solves take the matrix they are given. It
scales the unpenalized start, and scales each IRLS step's matrix only
when one bound per run cannot prove that every step's max |entry| lies
in [2^-63, 2^62), where the scale would move no bit.
The inner solves' products go through the array method ``x.dot(y)``,
not ``@`` or ``np.dot``: for these operands all three make the same
BLAS call (zgemm, zgemv or zdotu). ``np.dot`` skips ``matmul``'s ufunc
dispatch, about 1 us a call, and the method also skips ``np.dot``'s
``__array_function__`` dispatch, about 0.4 us more. The IRLS step's
products are stacked ``np.matmul`` calls, which make the same BLAS call
once per matrix of the stack, and so is a large stack's a0_h x; the
Gram of a stack that shares A is one zgemm for the whole stack. The
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
from typing import NamedTuple

import numpy as np
import scipy

from .arrays import (ArrayGeometry, _check_count, _check_direction, _checked, _max_exponent, _real,
                     _times_power_of_two, steering_matrix, steering_vector)
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
# A lockstep batch keeps its stacked M x N arrays within this many bytes.
_BATCH_BYTES = 1 << 20
# A distortionless IRLS step normalizes its runs as one stack from this
# many runs on, and one run at a time below (see _run_irls).
_STACK_MIN = 4
_ANNIHILATED = "steering vector annihilated by the covariance inverse"


@dataclass(frozen=True)
class SolverOptions:
    """Shared tuning knobs for every solver.

    gamma trades output power against the sparsity penalty; p in (0, 1]
    selects the penalty norm; irls_epsilon smooths |u|^(p-2) at the
    origin; every 10 iterations it becomes max(0.1 * epsilon, 1e-12),
    so it is annealed down to 1e-12, and a value below 1e-12 is raised
    to 1e-12 at iteration 10.
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


def _unit_scaled(r: np.ndarray) -> np.ndarray:
    """``r`` times the power of four that puts max |r| in [1/4, 1), a new array.

    Both inner solves are invariant to R's scale, and a power of four
    commutes exactly with the Cholesky factor (its square root is a
    power of two), the triangular solves, the SVD and the cone
    multiplier while every value stays a normal float. So scaling keeps
    the weights' bits, and R's overall size can no longer overflow or
    underflow a solve (:func:`sparsebeam.arrays._times_power_of_two`).
    """
    return _times_power_of_two(r, -2 * ((_max_exponent(r) + 1) // 2))


def _output_power(w: np.ndarray, r: np.ndarray) -> float:
    """w^H R w, the objective of an unpenalized solve: +inf, with no warning, where it overflows.

    The plain product where it is finite. Elsewhere w and R are taken to
    max |entry| in [1/2, 1) by the package's power-of-two rule, where
    the product cannot overflow, and its exponents are added back.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        power = float((w.conj() @ r @ w).real)
        if math.isfinite(power):
            return power
        e_w, e_r = _max_exponent(w), _max_exponent(r)
        w_unit = _times_power_of_two(w, -e_w)
        unit = (w_unit.conj() @ _times_power_of_two(r, -e_r) @ w_unit).real
        return float(np.ldexp(unit, 2 * e_w + e_r))


def _cholesky_solve(r: np.ndarray, b: np.ndarray) -> None:
    """Overwrite b with R^-1 b by one LAPACK zposv call, which is zpotrf followed by zpotrs.

    b is a contiguous complex vector, which zposv solves in place. A
    failed factorization raises SolverError with zpotrf's info and
    leaves b as it was. R is factored as given: :func:`_run_irls`
    decides its scale.
    """
    _check_factorization(zposv(r, b, lower=1, overwrite_b=1)[2])


def _mvdr_direction(r: np.ndarray, a0: np.ndarray, a0_h: np.ndarray) -> np.ndarray:
    """R^-1 a0 / (a0_h R^-1 a0), where a0_h is a0.conj(): one run's distortionless solve.

    x = R^-1 a0 is :func:`_cholesky_solve`'s, looked up at call time, on
    a copy of a0. a0_h x is ``a0_h.dot(x)``'s zdotu, the call ``@``
    makes, with less dispatch. This is the start of every run and the
    step of a stack below _STACK_MIN runs; a larger stack normalizes its
    runs at once (:func:`_mvdr_directions`), with the same bits.
    """
    x = a0.copy()
    _cholesky_solve(r, x)
    denom = a0_h.dot(x)
    if abs(denom) < 1e-300:
        raise SolverError(_ANNIHILATED)
    # Dividing by the complex scalar makes w^H a0 = 1 exact in floating point.
    return x / denom


def _mvdr_directions(matrices: list, a0: np.ndarray, a0_h: np.ndarray, ws: np.ndarray) -> list:
    """:func:`_mvdr_direction` of each of k matrices, into its row of the k x M ``ws``, normalized as one stack.

    Every row is set to a0, and each is solved in place by its own
    :func:`_cholesky_solve`, looked up at call time. The rows then share
    one stacked a0_h x, ``np.matmul`` of a0_h as 1 x M with each row as
    M x 1, which makes the zdotu of ``a0_h.dot(x)``, one annihilation
    test and one division in place, each row by its own denominator:
    every row has the bits of its own _mvdr_direction. Returns one
    entry per row: None, or the SolverError of a row whose
    factorization failed or whose a0_h x is annihilated. A row that
    failed is not to be read: a failed factorization leaves a0 in it,
    and an annihilated row is divided by 1, so no division warns.
    """
    ws[...] = a0
    errors = []
    for matrix, x in zip(matrices, ws):
        try:
            _cholesky_solve(matrix, x)
        except SolverError as error:
            errors.append(error)
        else:
            errors.append(None)
    denom = np.matmul(a0_h, ws[:, :, None])
    # Python's complex abs is numpy's, libm's hypot, at less cost for a few rows.
    annihilated = [row for row, value in enumerate(denom.ravel().tolist()) if abs(value) < 1e-300]
    if annihilated:
        for row in annihilated:
            errors[row] = errors[row] or SolverError(_ANNIHILATED)
        denom[annihilated] = 1.0
    np.divide(ws, denom, out=ws)
    return errors


class _Run:
    """One run's row of an IRLS stack, with the bookkeeping that stays per run."""

    __slots__ = ("index", "w", "scale_each_step", "best_w", "best_obj", "history", "converged")

    def __init__(self, index: int, w: np.ndarray, scale_each_step: bool):
        self.index, self.w, self.scale_each_step = index, w, scale_each_step
        self.best_w, self.best_obj, self.history, self.converged = w, np.inf, [], False

    def result(self, finish):
        """This run's end point, handed to ``finish``: its best weights and their bookkeeping."""
        return finish(self.best_w, len(self.history), self.best_obj, self.converged, tuple(self.history))


def _run_irls(rs, a, qs, opts: SolverOptions, inner, finish, stack_inner) -> list:
    """The one IRLS loop, over a stack of runs. ``inner(R_eff) -> w`` solves a reweighted subproblem.

    ``stack_inner(matrices, ws) -> errors`` solves a stack's subproblems
    at once, into the rows of the k x M ``ws``, and gives each row's
    SolverError or None (:func:`_mvdr_directions`); it is None where the
    inner solve has no stacked form (the cone solve).
    The runs share the M x N penalty grid ``a``, ``opts``, ``inner`` and ``stack_inner``;
    each has its own loaded R in ``rs`` and its own q in ``qs``, or unit
    weights when ``qs`` is None, so that every run's A Q is A itself.
    The loop only reads them, and makes each run's A Q as A times its q.
    Each run starts from its own unpenalized solve, ``inner`` on its R,
    as the reference loop does.

    Each run's end point (the unpenalized shortcut, a non-finite stop,
    convergence or the iteration cap) is handed to ``finish(w,
    iterations, final_objective, converged, history)`` once, as it
    leaves; what ``finish`` returns is the run's result. Returns each
    run's result in run order, or the SolverError its inner solve
    raised: a run that fails leaves the stack and the others go on. The
    error is kept without its traceback, whose frames would hold the
    results and so form a reference cycle. The recorded objective is the
    epsilon-smoothed one, which the majorize-minimize update never
    increases while epsilon holds. Every 10 steps epsilon becomes
    max(0.1 epsilon, 1e-12): that lowers it down to 1e-12, but an
    irls_epsilon below 1e-12 is raised to 1e-12 at step 10, where the
    objective can rise.
    With gamma = 0 or an all-zero penalty matrix (an M x 0 one included)
    the unpenalized solve is the answer: one iteration, objective
    w^H R w (+inf where it overflows, :func:`_output_power`) and an
    empty history. A step whose objective is not finite
    ends that run: non-finite weights give one, and so does a response
    whose |u|^2 overflows, and no later step would be finite. Its best
    weights so far are returned, and iterations counts the steps with a
    finite objective.

    Each step is R_eff = (R + gamma A Q D Q A^H + its conjugate
    transpose) / 2, with D = diag(p/2 (|u|^2 + eps)^((p-2)/2)), taken in
    lockstep: d, the M x N product A Q D, the Gram, the Hermitian
    assembly, the response u = (A Q)^H w, |u|^2, the quadratic forms and
    the penalty sums each make one numpy call for the whole stack, and
    a stacked ``np.matmul`` makes the per-matrix zgemm, zgemv or zdotu
    call that ``x.dot(y)`` makes for one run. With unit weights every
    run shares A, and the Gram is one kM x N by N x M zgemm, whose rows
    have the bits of each run's own product. The inner solve runs once
    per run: from _STACK_MIN runs on, a stack with a ``stack_inner``
    factors each run with one zposv and normalizes the whole stack at
    once; below it, each run takes ``inner``, whose scalar a0_h x and
    division cost less than the stacked calls for one or a few runs
    (timeit: the stacked step is no faster below 4 runs at M = 8 and
    M = 32). The objective bookkeeping runs per run. The stack holds the
    runs still going, in run order: a run leaves when its start is
    unpenalized or fails, or when a step fails, stops non-finite or
    converges, and the next step first rebuilds the stack from the runs
    left. A build first lets the old stack's M x N arrays go (A Q, its
    conjugate and the weighted product), then makes its A Q as A times
    the going runs' q, or takes A itself for unit weights, so a batch
    never holds two stacks' arrays. It then makes the stack's buffers
    and views. The first stack computes |u|^2 of the starts with the
    step's own calls; a rebuilt one takes its runs' rows of the old
    |u|^2, computed from the same weights by the same calls. Both
    halves are taken before the transpose is added, so a finite R cannot
    overflow it: R/2 when the stack is built, and the penalty term's 1/2
    in d_scale, together with D's p/2 and gamma, so the M x N product
    takes no scalar pass. Every step raises d to its power and
    multiplies it by d_scale, one call each for the whole stack. A step
    fills the stack's buffers in place and allocates only the inner
    solves' arrays, k-entry sums and numpy's iterator buffers. |u|^2 +
    eps of a step serves both its penalty and the next reweighting,
    unless eps was just annealed.

    This loop, not the inner solve, decides scaling
    (:func:`_unit_scaled`), once per run. The unpenalized start is
    always scaled. A run's steps are factored unscaled when one bound
    proves every max |R_eff| in [2^-63, 2^62), where scaling would move
    no bit: with e the exponent of max |R| (max |R| = f 2^e, f in
    [1/2, 1)), it asks -62 <= e <= 61 and gamma p ||A Q||_F^2 <
    2^62 / d_max, where d_max = min(irls_epsilon, 1e-12)^((p-2)/2)
    bounds (|u|^2 + eps)^((p-2)/2). R_eff is Hermitian positive
    semidefinite, so its largest entry is on the diagonal, which is at
    least R's, since the penalty's diagonal sums nonnegative products,
    and at most max R_ii + gamma p/2 d_max ||A Q||_F^2. When the bound
    fails, every step's matrix is scaled as the start's is.

    A power-of-two factor commutes with rounding for normal floats, and
    otherwise the floating-point operations and their order are those of
    the plain expressions, so each run has the bits of its own solve
    (tests/_oracles.py keeps the plain loop as the reference).
    """
    results: list = [None] * len(rs)
    gamma = opts.gamma
    m, n = a.shape
    power, half_p = (opts.p - 2.0) / 2.0, opts.p / 2.0
    # gamma p d_max ||A Q||_F^2 < 2^62, with d_max's reciprocal on the
    # right, where it cannot overflow.
    d_max_reciprocal = min(opts.irls_epsilon, _IRLS_EPS_FLOOR) ** -power
    runs: list[_Run] = []
    for index, r in enumerate(rs):
        try:
            w = inner(_unit_scaled(r))
        except SolverError as error:
            results[index] = error.with_traceback(None)
            continue
        aq = a if qs is None else a * qs[index]
        if gamma == 0 or not aq.any():
            results[index] = finish(w, 1, _output_power(w, r), True, ())
            continue
        # ||A Q||_F^2, plus what squares that underflow (each < 2^-1074) lose.
        norm = float(np.vdot(aq, aq).real) + aq.size * 2.0**-1072
        runs.append(_Run(index, w, not (-62 <= _max_exponent(r) <= 61
                                        and gamma * opts.p * norm < 2.0**62 * d_max_reciprocal)))
    # d_scale takes every factor of gamma A Q D / 2 but A Q's.
    d_scale = half_p * 0.5 * gamma
    # numpy computes x**0.5 as np.sqrt(x), which np.power need not match.
    penalty_power = np.sqrt if half_p == 0.5 else lambda x, out: np.power(x, half_p, out=out)
    eps = opts.irls_epsilon
    k = 0
    for step in range(opts.max_iterations):
        if not runs:
            break
        if len(runs) != k:
            # The stack is built from the runs still going, in run order.
            k = len(runs)
            # The old stack's M x N arrays go before the new ones are made.
            aq = aq_h = weighted = gram_in = None
            r_stack = np.array([rs[run.index] for run in runs])
            r_half, ws = r_stack * 0.5, np.array([run.w for run in runs])
            aq = a if qs is None else a * np.array([qs[run.index] for run in runs])[:, None, :]
            # A view, not a copy: a contiguous copy changes the matvec's last bits.
            aq_h = aq.conj().swapaxes(-1, -2)
            # Filled in place by every step; inner solves copy what they factor.
            weighted, r_eff, r_conj = np.empty((k, m, n), dtype=complex), np.empty_like(r_stack), np.empty_like(r_stack)
            # Complex with a zero imaginary part: the cast numpy's complex
            # times real multiply makes.
            d = np.zeros((k, n), dtype=complex)
            response, quad = np.empty_like(d), np.empty(k, dtype=complex)
            w_h, w_h_r = np.empty_like(ws), np.empty_like(ws)
            # |u|^2 of the starts by the step's own calls; a rebuilt stack
            # takes its runs' rows of the old one, made from the same weights.
            u2 = u2[kept] if step else np.square(np.abs(np.matmul(aq_h, ws[:, :, None])[:, :, 0]))
            smoothed, powered = np.empty_like(u2), np.empty_like(u2)
            # The views the step's calls take, made once per stack. With a
            # shared A the Gram is one kM x N by N x M product.
            gram_in, gram_out = (weighted, r_eff) if qs is not None else (
                weighted.reshape(k * m, n), r_eff.reshape(k * m, m))
            r_eff_rows, r_conj_h, d_real, d_row = list(r_eff), r_conj.transpose(0, 2, 1), d.real, d[:, None, :]
            w_col, response_col, w_h_row = ws[:, :, None], response[:, :, None], w_h[:, None, :]
            w_h_r_row, quad_col, quad_real = w_h_r[:, None, :], quad[:, None, None], quad.real
            np.add(u2, eps, out=smoothed)
        if step > 0 and step % 10 == 0:
            eps = max(eps * 0.1, _IRLS_EPS_FLOOR)
            np.add(u2, eps, out=smoothed)
        # power lies in (-1, -1/2], where ``**`` takes no scalar fast path.
        np.power(smoothed, power, out=d_real)
        d_real *= d_scale
        np.multiply(aq, d_row, out=weighted)
        np.matmul(gram_in, aq_h, out=gram_out)
        r_eff += r_half
        np.conjugate(r_eff, out=r_conj)
        r_eff += r_conj_h
        if stack_inner is None or k < _STACK_MIN:
            for row, (run, matrix) in enumerate(zip(runs, r_eff_rows)):
                try:
                    run.w = inner(_unit_scaled(matrix) if run.scale_each_step else matrix)
                except SolverError as error:
                    # The run leaves with this step's others; its stale row is
                    # computed on below and never read.
                    results[run.index], run.w = error.with_traceback(None), None
                else:
                    ws[row] = run.w
        else:
            errors = stack_inner([_unit_scaled(matrix) if run.scale_each_step else matrix
                                  for run, matrix in zip(runs, r_eff_rows)], ws)
            for run, w, error in zip(runs, ws, errors):
                if error is None:
                    run.w = w.copy()
                else:
                    results[run.index], run.w = error.with_traceback(None), None
        np.matmul(aq_h, w_col, out=response_col)
        np.square(np.abs(response, out=u2), out=u2)
        np.conjugate(ws, out=w_h)
        np.matmul(w_h_row, r_stack, out=w_h_r_row)
        np.matmul(w_h_r_row, w_col, out=quad_col)
        # u2 + eps serves both this penalty and the next reweighting.
        np.add(u2, eps, out=smoothed)
        penalty_power(smoothed, out=powered)
        penalties = np.add.reduce(powered, axis=1).tolist()
        going, kept = [], []
        for row, (run, quad_value, penalty) in enumerate(zip(runs, quad_real.tolist(), penalties)):
            if run.w is None:
                continue
            objective = quad_value + gamma * penalty
            if math.isfinite(objective):
                history = run.history
                history.append(objective)
                if objective < run.best_obj:
                    run.best_w, run.best_obj = run.w, objective
                run.converged = len(history) > 1 and abs(objective - history[-2]) <= (
                    opts.objective_tolerance * max(1.0, abs(history[-2])))
                if not run.converged:
                    going.append(run)
                    kept.append(row)
                    continue
            # The run stops non-finite or converged, and is finished here.
            results[run.index] = run.result(finish)
        runs = going
    for run in runs:
        results[run.index] = run.result(finish)
    return results


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
    # A ratio that overflows is inf > 1, which takes the right branch.
    with np.errstate(over="ignore"):
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

    R is factored as given: :func:`_run_irls` decides its scale. The
    products with U go through the ``dot`` method, the zgemv ``@``
    calls, with less dispatch.
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


class _Study:
    """The runs of one Monte-Carlo study: each run's loaded R and q, and each method's results.

    Each run's R is ``diagonal_load(ensure_covariance(covariance),
    loading)``, a new array that no caller holds and no solve writes.
    ``run_experiment`` builds one study once its data pass ends, and
    calls every method's public solver once per run with the run's
    handle (:class:`_StudyRun`) in the covariance slot; a public solver
    given a covariance builds a one-run study. A study only holds data:
    ``results`` maps each method solved so far to its runs'
    BeamformerWeights or SolverError, in run order, and :func:`_solve`
    is the one code that reads or fills it. Nothing a study holds refers
    to a handle, so it leaves no reference cycle: it is freed when its
    last handle goes.
    """

    __slots__ = ("rs", "qs", "results")

    def __init__(self, covariances, qs, loading: float):
        self.rs = [_loaded(ensure_covariance(covariance), loading) for covariance in covariances]
        self.qs = qs
        self.results: dict[str, list] = {}


class _StudyRun(NamedTuple):
    """One run of a study, passed to a public solver in the covariance slot."""

    study: _Study
    run: int


def _solve_runs(method, rs, a, qs, constraint, opts) -> list:
    """Each run's BeamformerWeights, or the SolverError its solve raised, in run order.

    Minimizes w^H R w + gamma ||w^H A Q||_p^p under ``constraint`` for
    every loaded R of ``rs``. ``constraint`` is the steering vector a0 of
    w^H a0 = 1, or, for rmvb and rwsc, the Ellipsoid of the worst-case
    gain floor. a = None drops the penalty: an M x 0 penalty matrix makes
    _run_irls return the unpenalized solve. qs = None means unit
    weights, and is otherwise one q per run. A, a0 or the ellipsoid is
    checked once, and each q once, against R's size before the first
    factorization; a bad one raises DomainError.

    The cone solve is homogeneous in the ellipsoid: scaling its center
    and shape by t scales the weights by 1/t. So every ellipsoid is
    solved as the ellipsoid times the power of two 2^k that puts
    max |center| in [1/2, 1), and each cone solve's weights are taken
    times 2^k back (:func:`sparsebeam.arrays._times_power_of_two`): the
    bits of the unit-size solve, scaled, whatever the ellipsoid's size.

    Defines the one ``finish`` that _run_irls hands each run's end point
    to: weights that are not finite give a SolverError, and any others
    a BeamformerWeights with their constraint residual. The runs are
    solved in lockstep batches (:func:`_run_irls`), each given A and its
    runs' q; no A Q is made here. A batch holds as many runs as keep its
    stacked M x N arrays within _BATCH_BYTES, and at least one: with a q
    per run those are each run's A Q, its conjugate and the weighted
    product; with unit weights every run shares A and its conjugate, and
    only the weighted product is stacked. Each stack of a batch makes
    its A Q only after the old stack's arrays are gone, so no two
    stacks' arrays are held at once. The budget does not count the
    stack's k x N and k x M x M arrays or numpy's iterator buffers.
    """
    m = rs[0].shape[0]
    if a is None:
        a = np.zeros((m, 0), dtype=complex)
    else:
        a = _checked("steering matrix A", a, (m, None), empty_ok=True)
        if qs is not None:
            qs = [_checked("q", q, a.shape[1:], float, empty_ok=True) for q in qs]
            if any(np.any(q < 0) for q in qs):
                raise DomainError("q entries must be nonnegative")
    if method in ("rmvb", "rwsc"):
        center = _checked("ellipsoid center", getattr(constraint, "center", None), (m,))
        shape = _checked("ellipsoid shape", getattr(constraint, "shape", None), (m, None), empty_ok=True)
        k = -_max_exponent(center)
        unit = [_times_power_of_two(x, k) for x in (center, shape)]
        inner, stack_inner = lambda r_eff: _times_power_of_two(_cone_solve(r_eff, *unit), k), None
        residual = lambda w: _margin(w, center, shape) - 1.0
    else:
        a0 = _checked("steering vector a0", constraint, (m,))
        if not a0.any():
            raise DomainError("steering vector a0 must be nonzero")
        a0_h = a0.conj()
        # The solves are looked up at call time, so they can be swapped.
        inner = lambda r_eff: _mvdr_direction(r_eff, a0, a0_h)
        stack_inner = lambda matrices, ws: _mvdr_directions(matrices, a0, a0_h, ws)
        residual = lambda w: float(abs(w.conj() @ a0 - 1.0))

    def finish(w, iterations, objective, converged, history):
        # _run_irls scales away R's size, but no solver may return NaN or
        # inf weights, so they are checked once more.
        if not np.isfinite(w).all():
            return SolverError(f"{method} produced non-finite weights")
        return BeamformerWeights(w, method, Diagnostics(iterations, objective, residual(w), converged, history))

    run_bytes = (1 if qs is None else 3) * a.nbytes
    size = max(1, _BATCH_BYTES // run_bytes) if run_bytes else len(rs)
    return [solved for first in range(0, len(rs), size) for solved in _run_irls(
        rs[first:first + size], a, None if qs is None else qs[first:first + size], opts, inner, finish, stack_inner)]


def _solve(method, covariance, a, q, constraint, opts) -> BeamformerWeights:
    """The one solve behind every public solver: a study's solve of one run.

    ``covariance`` is a :class:`_StudyRun`, which names its study and
    run, or R, which is solved as a one-run study, loaded with
    ``opts.diagonal_loading``. A method's first call in a study fills
    ``study.results[method]`` with every run's result (:func:`_solve_runs`),
    and every call returns its own run's. A study's calls pass one A,
    constraint and options per method, and each run's own q or none, so
    the first call's inputs serve them all. A run's SolverError is
    raised here as a new one, so the error the study keeps gains no
    traceback.
    """
    opts = opts or SolverOptions()
    study, run = covariance if isinstance(covariance, _StudyRun) else (
        _Study([covariance], [q], opts.diagonal_loading), 0)
    if method not in study.results:
        study.results[method] = _solve_runs(method, study.rs, a, None if q is None else study.qs, constraint, opts)
    result = study.results[method][run]
    if isinstance(result, SolverError):
        raise SolverError(*result.args)
    return result


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
