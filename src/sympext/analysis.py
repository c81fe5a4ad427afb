"""Error metrics, conservation diagnostics, section extraction, and averages."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import AdmissibilityError, PhaseUndefinedError
from .integrator import _apply_plan, _stage_plan, build_scheme
from .models import HamiltonianModel, extended_energy, extended_vector_field
from .state import ExtendedState, Trajectory

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
    q_num, p_num, q_ref, p_ref = (np.squeeze(np.asarray(a, dtype=float)) for a in (q_num, p_num, q_ref, p_ref))
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


def schwarzschild_scalings(a0: float = 20.0, e0: float = 0.0, mass: float = 10.0) -> np.ndarray:
    """Coordinate scalings (t, r, phi) for the geodesic error curves.

    t by the Keplerian period 2 pi sqrt(a0^3 / mass), r by the apoapsis
    a0 (1 + e0), phi by a full turn; the energy stays unscaled.
    """
    return np.array([2.0 * math.pi * math.sqrt(a0**3 / mass), a0 * (1.0 + e0), 2.0 * math.pi])


@dataclass(frozen=True)
class EnergyDrift:
    """Energy deviations H(t) - H(0), for the original and the doubled system."""

    times: np.ndarray
    original: np.ndarray
    extended: np.ndarray


def energy_series(model: HamiltonianModel, Q, P) -> np.ndarray:
    """H(Q, P) evaluated along a series of original-space points."""
    return model.value(np.asarray(Q, dtype=float), np.asarray(P, dtype=float))


def energy_drift(traj: Trajectory, model: HamiltonianModel, omega: float) -> EnergyDrift:
    """Drift series of a trajectory: projected original energy plus doubled energy."""
    Q, P = traj.projected()
    h = energy_series(model, Q, P)
    hbar = extended_energy(model, omega, traj.states)
    return EnergyDrift(traj.times, h - h[0], hbar - hbar[0])


def drift_is_bounded(drift, slope_budget: float = 0.5, growth_budget: float = 1.5) -> bool:
    """Heuristic secularity test for an energy-drift series.

    Accepts when the fitted linear trend accounts for at most
    ``slope_budget`` of the total drift range and the late-half extreme
    exceeds the early-half extreme by at most ``growth_budget``. A clean
    linear drift fails both; a bounded oscillation passes.
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
    return trend_fraction <= slope_budget and late <= growth_budget * early


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
class SectionSurface:
    """Codimension-one surface: one component of the second position copy.

    ``component`` indexes within the x block; ``direction`` +1 records
    upward crossings, -1 downward, 0 both.
    """

    component: int = 0
    value: float = 0.0
    direction: int = 1

    def describe(self) -> str:
        arrow = {1: "+", -1: "-", 0: "+-"}[self.direction]
        return f"x[{self.component}] = {self.value} ({arrow})"


@dataclass(frozen=True)
class PoincareSection:
    """Section crossings of the doubled system on a fixed energy shell.

    ``points`` holds the plotted (q, p) pairs; ``y_values`` keeps the
    matching second-copy momentum so the section manifold can be examined
    without the fold-backs of the planar projection.
    """

    shell: float
    omega: float
    surface: SectionSurface
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
    """Fraction in [0, 1] where the Hermite cubic vanishes, |value| <= tol.

    Bisection with a sign-change bracket; f0 and f1 have opposite signs.
    """
    lo, hi = 0.0, 1.0
    flo = f0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _hermite_eval(mid, f0, f1, d0, d1, h)
        if abs(fm) <= tol:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shell_momenta(model: HamiltonianModel, omega: float, shell: float, q: float, p: float,
                  surface_value: float = 0.0, bound: float = 12.0, scan_points: int = 1201):
    """All y values putting (q, p, x = surface_value, y) on the energy shell.

    Scans a symmetric interval for sign changes of the shell residual and
    polishes each bracket by root finding; the grid point is inadmissible
    when no real root exists.
    """
    x = np.full(1, surface_value)
    qa = np.full(1, q)
    pa = np.full(1, p)

    def residual(yv: float) -> float:
        s = ExtendedState(qa, pa, x, np.full(1, yv))
        return float(extended_energy(model, omega, s)) - shell

    ys = np.linspace(-bound, bound, scan_points)
    vals = np.array([residual(v) for v in ys])
    roots = []
    for i in range(len(ys) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(ys[i]))
        elif a * b < 0.0:
            roots.append(float(brentq(residual, ys[i], ys[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        roots.append(float(ys[-1]))
    # Deduplicate near-coincident brackets.
    unique = []
    for r in roots:
        if not unique or abs(r - unique[-1]) > 1e-9:
            unique.append(r)
    return unique


def section_initial_conditions(model, ic_grid, omega, shell, surface_value=0.0, max_lanes=None):
    """Complete (q, p) grid points to on-shell extended states.

    Returns (states (B, 4, 1) array, grid index per lane, skip records).
    """
    states = []
    origin = []
    skipped = []
    for gi, (q, p) in enumerate(ic_grid):
        roots = shell_momenta(model, omega, shell, q, p, surface_value)
        if not roots:
            skipped.append((float(q), float(p), "no real momentum root on the shell"))
            continue
        for y in roots:
            states.append([[q], [p], [surface_value], [y]])
            origin.append(gi)
    if not states:
        raise AdmissibilityError("no admissible initial conditions on shell")
    states = np.asarray(states, dtype=float)
    origin = np.asarray(origin, dtype=int)
    if max_lanes is not None and len(states) > max_lanes:
        keep = np.linspace(0, len(states) - 1, max_lanes).round().astype(int)
        states = states[keep]
        origin = origin[keep]
    return states, origin, skipped


def poincare_section(
    model: HamiltonianModel,
    ic_grid,
    omega: float,
    shell: float,
    surface: SectionSurface | None = None,
    *,
    order: int = 4,
    delta: float | None = None,
    max_crossings: int = 500,
    max_steps: int = 400_000,
    crossing_tol: float = 1e-10,
    shell_rtol: float = 1e-3,
    max_lanes: int | None = None,
) -> PoincareSection:
    """Section points of the doubled system for a grid of (q, p) seeds.

    Every admissible seed is placed on the shell by solving for y at
    x = surface value (all real roots are used), integrated with the
    composed scheme, and each directed sign change of the surface
    coordinate is refined on the step-local Hermite interpolant until the
    surface residual is below ``crossing_tol``. Refined states whose shell
    residual exceeds the tolerance are dropped and counted.
    """
    if model.dim != 1:
        raise ValueError("section extraction is implemented for 1-dof models")
    if surface is None:
        surface = SectionSurface()
    if delta is None:
        delta = min(0.05, 0.2 / max(1.0, 2.0 * omega))

    states, _, skipped = section_initial_conditions(
        model, ic_grid, omega, shell, surface.value, max_lanes=max_lanes
    )
    n_lanes = len(states)
    q = states[:, 0].copy()
    p = states[:, 1].copy()
    x = states[:, 2].copy()
    y = states[:, 3].copy()

    plan = _stage_plan(build_scheme(order), delta, omega)
    comp = surface.component
    shell_tol = shell_rtol * (1.0 + abs(shell))

    pts: list[list[float]] = []
    y_vals: list[float] = []
    cross_no: list[int] = []
    lane_of: list[int] = []
    counts = np.zeros(n_lanes, dtype=int)
    dropped = 0

    # Seeds sit exactly on the surface: each contributes its start point once.
    for lane in range(n_lanes):
        if abs(x[lane, comp] - surface.value) <= crossing_tol:
            pts.append([float(q[lane, 0]), float(p[lane, 0])])
            y_vals.append(float(y[lane, 0]))
            cross_no.append(0)
            lane_of.append(lane)
            counts[lane] += 1

    g_prev = x[:, comp] - surface.value
    prev = (q.copy(), p.copy(), x.copy(), y.copy())
    active = counts < max_crossings

    for k in range(1, max_steps + 1):
        q, p, x, y = _apply_plan(q, p, x, y, plan, model.pair)
        g_new = x[:, comp] - surface.value
        if surface.direction > 0:
            crossed = (g_prev < 0.0) & (g_new >= 0.0)
        elif surface.direction < 0:
            crossed = (g_prev > 0.0) & (g_new <= 0.0)
        else:
            crossed = (g_prev * g_new < 0.0) | ((g_prev != 0.0) & (g_new == 0.0))
        crossed &= active
        if np.any(crossed):
            lanes = np.nonzero(crossed)[0]
            z0 = tuple(c[lanes] for c in prev)
            z1 = (q[lanes], p[lanes], x[lanes], y[lanes])
            d0 = extended_vector_field(model, omega, *z0)
            d1 = extended_vector_field(model, omega, *z1)
            for j, lane in enumerate(lanes):
                f0 = float(z0[2][j, comp]) - surface.value
                f1 = float(z1[2][j, comp]) - surface.value
                df0 = float(d0[2][j, comp])
                df1 = float(d1[2][j, comp])
                theta = _hermite_root(f0, f1, df0, df1, delta, crossing_tol)
                point = [
                    _hermite_eval(theta, float(z0[c][j, 0]), float(z1[c][j, 0]),
                                  float(d0[c][j, 0]), float(d1[c][j, 0]), delta)
                    for c in range(4)
                ]
                state = ExtendedState(*(np.array([v]) for v in point))
                if abs(float(extended_energy(model, omega, state)) - shell) > shell_tol:
                    dropped += 1
                    continue
                pts.append([point[0], point[1]])
                y_vals.append(point[3])
                cross_no.append(int(counts[lane]))
                lane_of.append(int(lane))
                counts[lane] += 1
            active = counts < max_crossings
            if not np.any(active):
                break
        g_prev = g_new
        prev = (q, p, x, y)

    points = np.asarray(pts, dtype=float).reshape(-1, 2)
    y_arr = np.asarray(y_vals, dtype=float)
    cross_arr = np.asarray(cross_no, dtype=int)
    lane_arr = np.asarray(lane_of, dtype=int)
    # Canonical row order: by trajectory then crossing index, independent
    # of how lanes interleaved in time (or were chunked across workers).
    order = np.lexsort((cross_arr, lane_arr))
    return PoincareSection(
        shell=shell,
        omega=omega,
        surface=surface,
        points=points[order],
        y_values=y_arr[order],
        crossing_index=cross_arr[order],
        trajectory_id=lane_arr[order],
        n_trajectories=n_lanes,
        skipped=tuple(skipped),
        dropped_crossings=dropped,
    )


def _nn_mean_distance(pts: np.ndarray) -> float:
    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(np.mean(dists[:, 1]))


def chaos_statistic(section: PoincareSection, min_points: int = 64) -> float:
    """Median nearest-neighbor dimension estimate over the section trajectories.

    Thinning a point set to half doubles nearest-neighbor spacing on a
    curve but only scales it by sqrt(2) in an area, so
    log(2) / log(spacing ratio) estimates the filled dimension: near 1 on
    invariant curves, near 2 in a chaotic sea. The estimate runs on the
    (q, p, y) embedding of the section manifold, where invariant curves do
    not fold onto themselves, and each trajectory's value is clipped
    before taking the median across trajectories.
    """
    estimates = []
    for lane in range(section.n_trajectories):
        pts = np.unique(section.embedded_points_of(lane), axis=0)
        if len(pts) < min_points:
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
