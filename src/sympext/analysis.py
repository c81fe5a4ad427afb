"""Error metrics, conservation diagnostics, section extraction, and averages."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, PhaseUndefinedError, SympextError
from .integrator import _FINITE, _drive, _kernel, build_scheme
from .models import HamiltonianModel, extended_energy, extended_vector_field
from .state import ExtendedState, Trajectory, state_from_array

# Calibrated on the product-system sections: the no-restraint run must
# classify chaotic and the strong-restraint run regular (see the
# acceptance suite). The statistic is a nearest-neighbor dimension
# estimate: about 1 on invariant curves, about 2 in a chaotic sea.
CHAOS_THRESHOLD = 1.55
REGULAR_THRESHOLD = 1.35

_MIN_RADIUS = 1e-12


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2:
        raise ValueError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@dataclass(frozen=True)
class PolarErrorSeries:
    """Amplitude and unwrapped phase error of a planar (Q, P) trajectory."""

    times: np.ndarray
    amplitude_error: np.ndarray
    phase_error: np.ndarray

    @property
    def max_amplitude_error(self) -> float:
        return float(np.max(self.amplitude_error))

    @property
    def max_phase_error(self) -> float:
        return float(np.max(self.phase_error))


def _unwrapped_angle(q, p):
    theta = np.unwrap(np.arctan2(p, q))
    jumps = np.abs(np.diff(theta))
    # Aliasing by a full turn is undetectable; anything landing near a half
    # turn per sample is treated as undersampled and refused.
    if jumps.size and np.max(jumps) >= 0.9 * math.pi:
        raise ValueError(
            "sampling too coarse to unwrap the phase: a sample-to-sample angle "
            f"change of {np.max(jumps):.3f} rad approaches pi"
        )
    return theta


def polar_errors(times, q_num, p_num, q_ref, p_ref) -> PolarErrorSeries:
    """Pointwise polar-coordinate errors of a planar trajectory.

    Both series are converted to (r, theta), the angles unwrapped
    continuously along each series before differencing, so the phase error
    may exceed 2 pi. Series must share the time grid.
    """
    times = np.asarray(times, dtype=float)
    q_num, p_num, q_ref, p_ref = (np.asarray(a, dtype=float) for a in (q_num, p_num, q_ref, p_ref))
    if not (times.shape == q_num.shape == p_num.shape == q_ref.shape == p_ref.shape):
        raise ValueError("polar error series must share one time grid")
    r_num = np.hypot(q_num, p_num)
    r_ref = np.hypot(q_ref, p_ref)
    if min(float(np.min(r_num)), float(np.min(r_ref))) < _MIN_RADIUS:
        raise PhaseUndefinedError("phase undefined near origin")
    th_num = _unwrapped_angle(q_num, p_num)
    th_ref = _unwrapped_angle(q_ref, p_ref)
    return PolarErrorSeries(times, np.abs(r_num - r_ref), np.abs(th_num - th_ref))


def scaled_running_max_errors(numeric, reference, scalings) -> np.ndarray:
    """Running maxima of per-column absolute errors divided by fixed scalings.

    ``numeric`` and ``reference`` are (n, k) arrays on a common grid;
    returns the (n, k) cumulative maxima, nondecreasing in time by
    construction.
    """
    numeric = np.asarray(numeric, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scalings = np.asarray(scalings, dtype=float)
    if numeric.shape != reference.shape:
        raise ValueError(f"series shapes differ: {numeric.shape} vs {reference.shape}")
    if np.any(scalings == 0):
        raise ValueError("error scalings must be nonzero")
    scaled = np.abs(numeric - reference) / np.abs(scalings)
    return np.maximum.accumulate(scaled, axis=0)


def schwarzschild_scalings() -> np.ndarray:
    """Coordinate scalings (t, r, phi) for the geodesic error curves.

    t by the Keplerian period 2 pi sqrt(a0^3 / mass) of the orbit size
    a0 = 20 about mass 10, r by a0, phi by a full turn; the energy stays
    unscaled.
    """
    return np.array([2.0 * math.pi * math.sqrt(20.0**3 / 10.0), 20.0, 2.0 * math.pi])


@dataclass(frozen=True)
class EnergyDrift:
    """Energy deviations H(t) - H(0), for the original and the doubled system."""

    times: np.ndarray
    original: np.ndarray
    extended: np.ndarray


def energy_drift(traj: Trajectory, model: HamiltonianModel, omega: float) -> EnergyDrift:
    """Drift series of a trajectory: projected original energy plus doubled energy."""
    Q, P = traj.projected()
    h = model.value(Q, P)
    hbar = extended_energy(model, omega, traj.states)
    return EnergyDrift(traj.times, h - h[0], hbar - hbar[0])


def drift_is_bounded(drift) -> bool:
    """Heuristic secularity test for an energy-drift series.

    Accepts when the fitted linear trend accounts for at most half of the
    total drift range and the late-half extreme exceeds the early-half
    extreme by at most a factor 1.5. A clean linear drift fails both; a
    bounded oscillation passes.
    """
    drift = np.asarray(drift, dtype=float)
    n = len(drift)
    span = float(np.ptp(drift))
    if span == 0.0:
        return True
    t = np.arange(n, dtype=float)
    slope = float(np.polyfit(t, drift, 1)[0])
    trend_fraction = abs(slope) * n / span
    early = float(np.max(np.abs(drift[: n // 2])))
    late = float(np.max(np.abs(drift[n // 2 :])))
    if early == 0.0:
        return False
    return trend_fraction <= 0.5 and late <= 1.5 * early


@dataclass(frozen=True)
class ErgodicAverages:
    """Running time averages of the mode masses and their leading gap."""

    times: np.ndarray
    averages: np.ndarray
    gap: np.ndarray

    def gap_at(self, t: float) -> float:
        i = int(np.argmin(np.abs(self.times - t)))
        return float(self.gap[i])


def ergodic_averages(times, masses) -> ErgodicAverages:
    """Trapezoidal running averages <I_i>(T) = (1/T) integral of I_i.

    ``masses`` has shape (n, N). The output drops the undefined T = 0
    point; an input with fewer than two samples is an error.
    """
    times = np.asarray(times, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if len(times) < 2:
        raise ValueError("time average undefined: need at least two samples")
    if masses.shape[0] != len(times):
        raise ValueError("masses and times lengths differ")
    dt = np.diff(times)[:, None]
    accum = np.cumsum(0.5 * (masses[1:] + masses[:-1]) * dt, axis=0)
    horizon = (times[1:] - times[0])[:, None]
    averages = accum / horizon
    gap = averages[:, 0] - averages[:, 1] if masses.shape[1] >= 2 else np.zeros(len(averages))
    return ErgodicAverages(times[1:], averages, gap)


def rotation_averaged_matrix(S) -> np.ndarray:
    """Average of R(-tau) J S R(tau) over one full turn of the phase rotation.

    For symmetric S with blocks [[A, B], [B^T, D]] the closed form is
    0.5 * [[B^T - B, A + D], [-(A + D), B^T - B]], a real skew-symmetric
    matrix (J is the canonical structure matrix of the (alpha, beta) pair).
    Expanding the integrand blockwise and averaging cos^2, sin^2, and
    cos*sin over a turn puts (B^T - B) / 2 in both diagonal blocks; the
    quadrature cross-check in the acceptance suite pins this down.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise ValueError(f"expected a square matrix of even dimension, got shape {S.shape}")
    if not np.allclose(S, S.T, rtol=0.0, atol=1e-12):
        raise ValueError("input matrix must be symmetric")
    d = S.shape[0] // 2
    A = S[:d, :d]
    B = S[:d, d:]
    D = S[d:, d:]
    out = np.empty_like(S)
    out[:d, :d] = 0.5 * (B.T - B)
    out[:d, d:] = 0.5 * (A + D)
    out[d:, :d] = -0.5 * (A + D)
    out[d:, d:] = 0.5 * (B.T - B)
    return out


@dataclass(frozen=True)
class PoincareSection:
    """Section crossings of the doubled system on a fixed energy shell.

    ``points`` holds the plotted (q, p) pairs; ``y_values`` keeps the
    matching second-copy momentum so the section manifold can be examined
    without the fold-backs that the (q, p) plane alone shows.
    """

    shell: float
    omega: float
    points: np.ndarray
    y_values: np.ndarray
    crossing_index: np.ndarray
    trajectory_id: np.ndarray
    n_trajectories: int
    skipped: tuple
    dropped_crossings: int

    def embedded_points_of(self, traj_id: int) -> np.ndarray:
        """(q, p, y) triples of one trajectory on the section manifold."""
        mask = self.trajectory_id == traj_id
        return np.column_stack([self.points[mask], self.y_values[mask]])


def _hermite_eval(theta, z0, z1, d0, d1, h):
    """Cubic Hermite value at fraction theta of a step of length h."""
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * z0
        + (t3 - 2 * t2 + theta) * h * d0
        + (-2 * t3 + 3 * t2) * z1
        + (t3 - t2) * h * d1
    )


def _hermite_root(f0, f1, d0, d1, h, tol):
    """Fractions in [0, 1] where the Hermite cubics vanish, |value| <= tol.

    Elementwise bisection with sign-change brackets; f0 and f1 have
    opposite signs. An element's bracket freezes at the first midpoint
    within ``tol``, which is then its returned midpoint.
    """
    f0, f1, d0, d1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (f0, f1, d0, d1)))
    lo, hi, flo = np.zeros(f0.shape), np.ones(f0.shape), f0
    searching = np.ones(f0.shape, dtype=bool)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _hermite_eval(mid, f0, f1, d0, d1, h)
        searching &= ~(np.abs(fm) <= tol)
        if not searching.any():
            break
        left = searching & ((fm < 0) == (flo < 0))
        lo, flo = np.where(left, mid, lo), np.where(left, fm, flo)
        hi = np.where(searching & ~left, mid, hi)
    return 0.5 * (lo + hi)


def _brent(f, a, b, xtol):
    """A root of f in [a, b], where f(a) and f(b) have opposite signs.

    Brent's (1973) method, step for step in the order of
    scipy.optimize.brentq's C implementation, with its relative tolerance
    4 eps and at most 100 iterations, so it returns brentq's bits. The
    tolerance on the root is xtol + 4 eps |root|.
    """
    rtol = 4.0 * float(np.finfo(float).eps)
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < tol:
            return xcur
        short = False
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic extrapolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - tol)
            except ZeroDivisionError:  # the C step is then inf or NaN, which fails this test
                pass
        if short:
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0 else -tol)
        fcur = f(xcur)
    raise RuntimeError(f"Brent root polish failed to converge after 100 iterations, value is {xcur!r}")


def shell_momenta(model: HamiltonianModel, omega: float, shell: float, q: float, p: float):
    """All y in [-12, 12] putting (q, p, x = 0, y) on the energy shell.

    Scans 1201 points for sign changes of the shell residual, in one
    evaluation over the whole scan, and polishes each bracket by root
    finding; the grid point is inadmissible when no real root exists.
    """
    x = np.zeros(1)
    qa = np.full(1, q)
    pa = np.full(1, p)

    def residual(yv: float) -> float:
        s = ExtendedState(qa, pa, x, np.full(1, yv))
        return float(extended_energy(model, omega, s)) - shell

    ys = np.linspace(-12.0, 12.0, 1201)
    seeds = np.ones((len(ys), 1))
    scan = ExtendedState(q * seeds, p * seeds, np.zeros_like(seeds), ys[:, None])
    vals = extended_energy(model, omega, scan) - shell
    roots = []
    for i in range(len(ys) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(ys[i]))
        elif a * b < 0.0:
            roots.append(_brent(residual, ys[i], ys[i + 1], 1e-13))
    if vals[-1] == 0.0:
        roots.append(float(ys[-1]))
    # Deduplicate near-coincident brackets.
    unique = []
    for r in roots:
        if not unique or abs(r - unique[-1]) > 1e-9:
            unique.append(r)
    return unique


def section_initial_conditions(model, ic_grid, omega, shell, max_lanes=None):
    """Complete (q, p) grid points to on-shell extended states at x = 0.

    Returns (states (B, 4, 1) array, skip records); raises
    AdmissibilityError without an admissible point.
    """
    states = []
    skipped = []
    for q, p in ic_grid:
        roots = shell_momenta(model, omega, shell, q, p)
        if not roots:
            skipped.append((float(q), float(p), "no real momentum root on the shell"))
            continue
        states.extend([[q], [p], [0.0], [y]] for y in roots)
    if not states:
        raise AdmissibilityError("no admissible initial conditions on shell")
    states = np.asarray(states, dtype=float)
    if max_lanes is not None and len(states) > max_lanes:
        states = states[np.linspace(0, len(states) - 1, max_lanes).round().astype(int)]
    return states, skipped


# Refinement stops once |x0| <= _CROSSING_TOL; a refined state whose shell
# residual exceeds _SHELL_RTOL * (1 + |shell|) is dropped.
_CROSSING_TOL = 1e-10
_SHELL_RTOL = 1e-3
# Steps per driver call; a section stops at the end of the chunk in which its last lane fills.
_SECTION_CHUNK = 256


def poincare_section(
    model: HamiltonianModel,
    ic_grid,
    omega: float,
    shell: float,
    *,
    order: int = 4,
    max_crossings: int = 500,
    max_steps: int = 400_000,
    max_lanes: int | None = None,
) -> PoincareSection:
    """Upward crossings of x0 = 0 of the doubled system for a grid of (q, p) seeds.

    Every admissible seed is placed on the shell by solving for y at x = 0
    (all real roots are used); it is its lane's crossing 0. The lanes are
    integrated with the composed scheme at step
    min(0.05, 0.2 / max(1, 2 omega)). Each upward sign change of x0 is
    refined on the step-local Hermite interpolant until |x0| is below
    ``_CROSSING_TOL``. Refined states off the shell by more than
    ``_SHELL_RTOL`` are dropped and counted. A lane takes its crossings in
    time order until it holds ``max_crossings``; a lane that turns
    non-finite before that aborts the section with TrajectoryEscapedError.
    A full lane stops stepping at the end of its chunk of
    ``_SECTION_CHUNK`` steps, so it no longer aborts the section if it
    would turn non-finite later.
    """
    if model.dim != 1:
        raise ValueError("section extraction is implemented for 1-dof models")
    if max_crossings < 1:
        raise ValueError(f"max_crossings must be >= 1, got {max_crossings}")
    delta = min(0.05, 0.2 / max(1.0, 2.0 * omega))

    states, skipped = section_initial_conditions(model, ic_grid, omega, shell, max_lanes=max_lanes)
    n_lanes = len(states)
    runner = _kernel(build_scheme(order), delta, omega, states[:, 0].shape, model)
    shell_tol = _SHELL_RTOL * (1.0 + abs(shell))

    found = [(states, np.zeros(n_lanes, dtype=int), np.arange(n_lanes))]
    states = states.copy()  # found[0] keeps the starts
    counts = np.ones(n_lanes, dtype=int)
    dropped = 0
    done = 0
    while done < max_steps and np.any(counts < max_crossings):
        n = min(_SECTION_CHUNK, max_steps - done)
        active = np.flatnonzero(counts < max_crossings)
        try:
            run = _drive(runner, np.moveaxis(states[active], 1, 0), delta, n, 1, lambda times, out: out, _FINITE)
        except SympextError as exc:
            raise type(exc)(f"section steps {done}-{done + n}: {exc}") from None
        done += n
        states[active] = run[-1]
        x = run[:, :, 2, 0]
        steps, lanes = np.nonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))  # lanes of the run, numbered in ``active``
        z0, z1 = run[steps, lanes], run[steps + 1, lanes]
        d0, d1 = (np.stack(extended_vector_field(model, omega, *state_from_array(z)), axis=1) for z in (z0, z1))
        theta = _hermite_root(z0[:, 2, 0], z1[:, 2, 0], d0[:, 2, 0], d1[:, 2, 0], delta, _CROSSING_TOL)
        points = _hermite_eval(theta[:, None, None], z0, z1, d0, d1, delta)
        on_shell = ~(np.abs(extended_energy(model, omega, points) - shell) > shell_tol)
        kept = np.zeros(x[1:].shape, dtype=int)
        kept[steps, lanes] = on_shell
        # Points each lane holds before each of its crossings; a crossing counts only before the lane fills.
        held = (counts[active] + np.cumsum(kept, axis=0) - kept)[steps, lanes]
        met = held < max_crossings
        take = met & on_shell
        dropped += int(np.sum(met & ~on_shell))
        found.append((points[take], held[take], active[lanes[take]]))
        counts[active] = np.minimum(counts[active] + kept.sum(axis=0), max_crossings)

    points, cross_arr, lane_arr = (np.concatenate(parts) for parts in zip(*found))
    # Canonical row order: by trajectory then crossing index, independent
    # of how lanes interleaved in time.
    order = np.lexsort((cross_arr, lane_arr))
    return PoincareSection(
        shell=shell,
        omega=omega,
        points=points[order, :2, 0],
        y_values=points[order, 3, 0],
        crossing_index=cross_arr[order],
        trajectory_id=lane_arr[order],
        n_trajectories=n_lanes,
        skipped=tuple(skipped),
        dropped_crossings=dropped,
    )


# Rows of one block of the nearest-neighbour brute force.
_NN_CHUNK = 256


def _nn_mean_distance(pts: np.ndarray) -> float:
    """Mean distance from each point of an (n, k) set to its nearest other point.

    Brute force over chunks of ``_NN_CHUNK`` rows: the squared distances
    are summed over the coordinates from left to right, each point's
    distance to itself is +inf, and the square root is taken of the row
    minimum, as a k-d tree query computes them.
    """
    nearest = np.empty(len(pts))
    for i in range(0, len(pts), _NN_CHUNK):
        rows = pts[i:i + _NN_CHUNK]
        sq = (rows[:, None, 0] - pts[None, :, 0]) ** 2
        for c in range(1, pts.shape[1]):
            sq += (rows[:, None, c] - pts[None, :, c]) ** 2
        sq[np.arange(len(rows)), np.arange(i, i + len(rows))] = np.inf
        nearest[i:i + len(rows)] = sq.min(axis=1)
    return float(np.mean(np.sqrt(nearest)))


def chaos_statistic(section: PoincareSection) -> float:
    """Median nearest-neighbor dimension estimate over the section trajectories.

    Thinning a point set to half doubles nearest-neighbor spacing on a
    curve but only scales it by sqrt(2) in an area, so
    log(2) / log(spacing ratio) estimates the filled dimension: near 1 on
    invariant curves, near 2 in a chaotic sea. The estimate runs on the
    (q, p, y) embedding of the section manifold, where invariant curves do
    not fold onto themselves, and each trajectory's value is clipped
    before taking the median across trajectories; trajectories with fewer
    than 64 distinct points are left out.
    """
    estimates = []
    for lane in range(section.n_trajectories):
        pts = np.unique(section.embedded_points_of(lane), axis=0)
        if len(pts) < 64:
            continue
        # Compare the half against the quarter thinning: the coarser pair
        # is insensitive to the tiny transverse placement noise of the
        # refined crossings, which would otherwise read as extra dimension.
        d_half = _nn_mean_distance(pts[::2])
        if d_half < 1e-9:
            continue
        d_quarter = _nn_mean_distance(pts[::4])
        ratio = max(d_quarter / d_half, 1.02)
        estimates.append(np.clip(math.log(2.0) / math.log(ratio), 0.25, 3.0))
    if not estimates:
        raise ValueError("no section trajectory carries enough points for the statistic")
    return float(np.median(estimates))


def classify_section(statistic: float) -> str:
    """Label a section statistic with the calibrated thresholds."""
    if statistic >= CHAOS_THRESHOLD:
        return "chaotic"
    if statistic <= REGULAR_THRESHOLD:
        return "regular"
    return "mixed"
