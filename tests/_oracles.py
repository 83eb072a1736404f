"""Brute-force reference implementations, independent of the library's.

The distortionless constraint w^H a0 = 1 defines an affine set
w = a0/||a0||^2 + B z with B an orthonormal null-space basis of a0^H and
z a free complex vector. Minimizing any objective over that set by a
coarse-to-fine grid search over the real and imaginary parts of z gives
an oracle that shares no code with the closed-form or IRLS solvers.
"""

import math

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.lapack import zpotrf, zpotrs

from sparsebeam import DomainError, SidelobeLevel, SolverError, steering_vector


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


def null_depth_reference(pattern, theta_deg, window_deg=1.0):
    """Per-pattern reference for :func:`sparsebeam.null_depth` on one 1-D pattern."""
    mask = np.abs(pattern.angles_deg - theta_deg) <= window_deg + 1e-12
    if not mask.any():
        raise DomainError("window contains no grid points")
    return float(pattern.gain_db[mask].min())


def sidelobe_level_reference(pattern, mainlobe_center_deg):
    """Per-pattern reference for :func:`sparsebeam.sidelobe_level` on one 1-D pattern.

    Finds the mainlobe's turns with np.flatnonzero on the pattern's own
    rises and falls, where :func:`sidelobe_level_walk` steps one sample
    at a time.
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
        raise DomainError("no local maximum near the center")
    # Nearest candidate; argmin keeps the lowest index among ties.
    peak = int(candidates[np.argmin(np.abs(angles[candidates] - mainlobe_center_deg))])
    left_turns = np.flatnonzero(~rises[:peak])
    left = int(left_turns[-1]) + 1 if left_turns.size else 0
    right_turns = np.flatnonzero(~falls[peak:])
    right = peak + int(right_turns[0]) if right_turns.size else gains.size - 1
    outside = np.concatenate([gains[:left], gains[right + 1 :]])
    if outside.size == 0:
        return SidelobeLevel(float(min(gains[0], gains[-1])), True)
    return SidelobeLevel(float(outside.max()), False)


def pointing_error_reference(pattern, true_doa_deg):
    """Per-pattern reference for :func:`sparsebeam.pointing_error` on one 1-D pattern."""
    raw = pattern.raw_gain
    ties = np.nonzero(raw == raw.max())[0]
    errors = pattern.angles_deg[ties] - true_doa_deg
    return float(errors[np.argmin(np.abs(errors))])


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


def unit_scaled_reference(r):
    """r times the power of four that puts its mean diagonal in [1/4, 1), always.

    The package picks its power of four by max |r| instead. A reference
    that picks another power of four and still matches bit for bit shows
    that the choice moves no bit.
    """
    mean = sum(r.real.diagonal().tolist()) / r.shape[0]
    half = math.ldexp(1.0, -((math.frexp(mean)[1] + 1) // 2))
    scaled = r * half
    scaled *= half
    return scaled


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
        d = (np.abs(u) ** 2 + eps) ** ((p - 2.0) / 2.0) * (p / 2.0 * gamma)
        r_eff = r + (aq * d[None, :]) @ aq_h
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


def generate_snapshots_reference(scenario, geometry):
    """Snapshots drawn as sqrt(p/2) * (re + 1j*im), each term a complex array pass."""
    rng = np.random.default_rng(scenario.rng_seed)
    m, k = geometry.num_elements, scenario.num_snapshots

    def draw(power, size):
        return np.sqrt(power / 2.0) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    (soi_doa, soi_power), *interferers = scenario.sources
    s = draw(soi_power, k)
    x = np.outer(steering_vector(geometry, soi_doa), s)
    for doa, power in interferers:
        x += np.outer(steering_vector(geometry, doa), draw(power, k))
    x += draw(scenario.noise_power, (m, k))
    return x


def is_hermitian_allclose(arr):
    """The Hermitian test ensure_covariance applies to square finite input."""
    return np.allclose(arr, arr.conj().T, rtol=1e-8, atol=1e-12 * float(np.abs(arr).max()))


# --- Reference copies of build_q and of the study's aggregation and CSVs --
#
# build_q's reference forms the whole N x K product A^H X; the library
# takes its row means one block of rows at a time. The aggregation and
# emitters are the per-metric loop and the row-by-row writers the
# library had before it summarized all metrics in one pass. Both must
# give the same bytes as these.


def build_q_reference(a, x):
    """snm(A^H X) from the whole product, or all ones when that is all zeros."""
    m = np.abs((np.asarray(a, dtype=complex).conj().T @ np.asarray(x, dtype=complex)).mean(axis=1)) ** 2
    peak = m.max()
    if peak == 0:
        return np.ones(m.size)
    return m / peak


def metric_summaries_reference(per_metric, metric_names):
    """(median, iqr) per name, from a dict of name -> samples; NaN when empty."""
    out = []
    for name in metric_names:
        samples = per_metric.get(name, [])
        if samples:
            arr = np.asarray(samples)
            median = float(np.median(arr))
            iqr = float(np.percentile(arr, 75) - np.percentile(arr, 25))
        else:
            median, iqr = float("nan"), float("nan")
        out.append((median, iqr))
    return out


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")


def emit_pattern_csv_reference(pattern, path):
    rows = [
        f"{theta:.6f},{db:.6f},{raw:.6f}"
        for theta, db, raw in zip(pattern.angles_deg, pattern.gain_db, pattern.raw_gain)
    ]
    _write_rows(path, "theta_deg,gain_db,raw_gain", rows)


def emit_metrics_csv_reference(report, path):
    rows = [
        f"{row.method},{row.metric},{row.median:.6f},{row.iqr:.6f},{row.failures}"
        for row in report.metrics
    ]
    _write_rows(path, "method,metric,median,iqr,failures", rows)
