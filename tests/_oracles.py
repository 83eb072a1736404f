"""Brute-force reference implementations, independent of the library's.

The distortionless constraint w^H a0 = 1 defines an affine set
w = a0/||a0||^2 + B z with B an orthonormal null-space basis of a0^H and
z a free complex vector. Minimizing any objective over that set by a
coarse-to-fine grid search over the real and imaginary parts of z gives
an oracle that shares no code with the closed-form or IRLS solvers.
"""

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.lapack import zpotrf, zpotrs

from sparsebeam import DomainError, SidelobeLevel, SolverError


def constraint_parameterization(a0):
    """Return (w_particular, basis) describing {w : w^H a0 = 1}."""
    a0 = np.asarray(a0, dtype=complex)
    w0 = a0 / np.linalg.norm(a0) ** 2
    basis = null_space(a0.conj()[None, :])
    return w0, basis


def zoom_minimize(objective, w0, basis, radius=4.0, levels=12, points=7):
    """Coarse-to-fine grid search over w = w0 + basis @ z.

    ``objective`` must map an M x P matrix of candidate weight columns
    to a length-P array of values. Each level evaluates a full grid of
    ``points`` per real dimension centered on the incumbent, then halves
    the radius. Returns (w_best, value_best).
    """
    free = basis.shape[1]
    dim = 2 * free
    center = np.zeros(dim)
    best_val = np.inf
    best_w = w0
    for _ in range(levels):
        axes = [np.linspace(c - radius, c + radius, points) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh])
        z = pts[:free] + 1j * pts[free:]
        candidates = w0[:, None] + basis @ z
        values = np.asarray(objective(candidates))
        k = int(np.argmin(values))
        if values[k] < best_val:
            best_val = float(values[k])
            best_w = candidates[:, k]
            center = pts[:, k]
        radius *= 0.5
    return best_w, best_val


def quadratic_objective(r):
    """w^H R w for each column."""
    return lambda w: np.einsum("im,ij,jm->m", w.conj(), r, w).real


def penalized_objective(r, a, gamma, p):
    """w^H R w + gamma * ||w^H A||_p^p for each column."""
    quad = quadratic_objective(r)

    def value(w):
        u = np.abs(a.conj().T @ w)
        return quad(w) + gamma * np.sum(u**p, axis=0)

    return value


def sidelobe_level_walk(pattern, mainlobe_center_deg):
    """Sample-by-sample reference for :func:`sparsebeam.sidelobe_level`.

    Tests each sample near the center for a local maximum, takes the
    nearest one (lowest index among ties), then walks down the mainlobe
    one sample at a time on each side until the gain turns up.
    """
    gains = pattern.gain_db
    n = gains.size
    near = np.abs(pattern.angles_deg - mainlobe_center_deg) <= 2.0 + 1e-12
    candidates = [
        i
        for i in np.nonzero(near)[0]
        if (i == 0 or gains[i] >= gains[i - 1]) and (i == n - 1 or gains[i] >= gains[i + 1])
    ]
    if not candidates:
        raise DomainError("no local maximum near the center")
    peak = min(
        candidates, key=lambda i: abs(float(pattern.angles_deg[i]) - mainlobe_center_deg)
    )
    left = peak
    while left > 0 and gains[left - 1] <= gains[left]:
        left -= 1
    right = peak
    while right < n - 1 and gains[right + 1] <= gains[right]:
        right += 1
    outside = np.concatenate([gains[:left], gains[right + 1 :]])
    if outside.size == 0:
        return SidelobeLevel(float(min(gains[0], gains[-1])), True)
    return SidelobeLevel(float(outside.max()), False)


def cone_multiplier_bisect(sigma, cbar):
    """Doubling-plus-bisection reference for the Lorenz–Boyd multiplier.

    Root of h(nu) = nu^2 sum sigma^2 |cbar|^2 / (1 + nu sigma^2)^2 = 1,
    or nu = inf (the cone apex) when sum |cbar|^2 / sigma^2 <= 1. The
    root is bracketed by doubling from a point where h <= 1 and bisected
    to adjacent floats.
    """
    cbar2 = np.abs(cbar) ** 2
    if np.sum(cbar2 / sigma**2) <= 1.0:
        return np.inf
    weight = sigma**2 * cbar2

    def below(nu):
        return nu * nu * np.sum(weight / (1.0 + nu * sigma**2) ** 2) < 1.0

    # Every denominator is >= 1, so h(lo) <= lo^2 sum(weight) = 1.
    lo = 1.0 / np.sqrt(np.sum(weight))
    hi = 2.0 * lo
    while below(hi):
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return hi


# --- Reference copies of the IRLS loop and the Hermitian test ------------
#
# Verbatim copies of the library code these were lifted from, before its
# per-step overhead was trimmed. The trimmed code must perform the same
# floating-point operations in the same order, so tests compare it to
# these bit for bit.

_IRLS_EPS_FLOOR = 1e-12


def mvdr_direction_reference(r, a0):
    """R^-1 a0 / (a0^H R^-1 a0) by zpotrf then zpotrs."""
    chol, info = zpotrf(r, lower=1, clean=0)
    if info != 0:
        reason = "not positive definite" if info > 0 else "illegal argument"
        raise SolverError(f"covariance factorization failed: zpotrf info={info} ({reason})")
    x, _ = zpotrs(chol, a0, lower=1)
    denom = a0.conj() @ x
    if abs(denom) < 1e-300:
        raise SolverError("steering vector annihilated by the covariance inverse")
    return x / denom


def _smoothed_penalty(u, gamma, p, eps):
    return gamma * float(np.sum((np.abs(u) ** 2 + eps) ** (p / 2.0)))


def run_irls_reference(r, aq, opts, inner):
    """IRLS loop; returns (w, iterations, final_objective, converged, history)."""
    w = inner(r)
    if opts.gamma == 0 or not np.any(aq):
        return w, 1, float((w.conj() @ r @ w).real), True, ()
    gamma, p = opts.gamma, opts.p
    eps = opts.irls_epsilon
    history: list[float] = []
    previous = None
    best_w, best_obj = w, np.inf
    converged = False
    iterations = 0
    # A view, not a copy: a contiguous copy changes the matvec's last bits.
    aq_h = aq.conj().T
    u = aq_h @ w
    for step in range(opts.max_iterations):
        if step > 0 and step % 10 == 0:
            eps = max(eps * 0.1, _IRLS_EPS_FLOOR)
        d = (np.abs(u) ** 2 + eps) ** ((p - 2.0) / 2.0) * (p / 2.0)
        r_eff = r + gamma * (aq * d[None, :]) @ aq_h
        r_eff = 0.5 * (r_eff + r_eff.conj().T)
        w = inner(r_eff)
        # The response of this step's w drives both its penalty and the
        # next step's reweighting.
        u = aq_h @ w
        quad = float((w.conj() @ r @ w).real)
        objective = quad + _smoothed_penalty(u, gamma, p, eps)
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


def is_hermitian_allclose(arr):
    """The Hermitian test ensure_covariance applies to square finite input."""
    return np.allclose(
        arr, arr.conj().T, rtol=1e-8, atol=1e-12 * max(1.0, float(np.abs(arr).max()))
    )
