"""Ground-truth generators.

The 1-dof product oscillator has a closed-form solution through the Jacobi
elliptic cosine; everything else is benchmarked against a fixed-step
classical 4th-order integrator whose step is certified by step doubling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ReferenceConvergenceError
from .integrator import _blocks, _components, _lane_rows, _lanes, _packed_force, _sample_indices
from .models import HamiltonianModel

_AGM_TOL = 1e-16
_AGM_MAX_ITER = 32


def arithmetic_geometric_mean(a: float, b: float) -> float:
    """Common limit of the coupled mean iteration, to machine precision."""
    a, b = float(a), float(b)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def complete_elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m) with parameter 0 <= m < 1, via the AGM."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"elliptic parameter must satisfy 0 <= m < 1, got {m}")
    return math.pi / (2.0 * arithmetic_geometric_mean(1.0, math.sqrt(1.0 - m)))


def jacobi_elliptic(u, m: float):
    """sn, cn, dn with parameter m, by the descending Landen (AGM) iteration.

    Vectorized over ``u``. Absolute accuracy is about 1e-13 or better for
    moderate arguments; the recursion follows the classical amplitude
    scheme: phi_N = 2^N a_N u, then
    phi_{n-1} = (phi_n + asin((c_n / a_n) sin phi_n)) / 2.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"elliptic parameter must satisfy 0 <= m < 1, got {m}")
    u = np.asarray(u, dtype=float)
    if m < 1e-14:
        return np.sin(u), np.cos(u), np.ones_like(u)

    a_seq = [1.0]
    c_seq = [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    while abs(c_seq[-1]) > _AGM_TOL * a_seq[-1]:
        a, bn = a_seq[-1], b
        a_seq.append(0.5 * (a + bn))
        c_seq.append(0.5 * (a - bn))
        b = math.sqrt(a * bn)
        # rounding can leave c stalled a few ulps above the tolerance
        if abs(c_seq[-1]) >= abs(c_seq[-2]):
            break
        if len(a_seq) > _AGM_MAX_ITER:
            raise EvaluationError("AGM iteration for the elliptic functions did not converge")
    n_last = len(a_seq) - 1

    phi = (2.0**n_last) * a_seq[n_last] * u
    phi_prev = phi
    for n in range(n_last, 0, -1):
        phi_prev = phi
        ratio = c_seq[n] / a_seq[n]
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    # phi_prev is the level-1 amplitude after the final halving step. The
    # cosine ratio loses relative accuracy where cn passes through zero
    # (both cosines vanish together), so a narrow band around the zeros
    # falls back to the defining identity, whose root is safely away from
    # zero for m < 1.
    denominator = np.cos(phi_prev - phi)
    near_zero = np.abs(cn) < 1e-2
    safe = np.where(near_zero, 1.0, denominator)
    dn = np.where(near_zero, np.sqrt(1.0 - m * sn * sn), cn / safe)
    return sn, cn, dn


def half_period(Q0: float) -> float:
    """Half period of the product oscillator started at (Q0, 0).

    Computed as 2 K(m) / sqrt(1 + Q0^2) with m = Q0^2 / (1 + Q0^2), the
    imaginary-modulus reduction of the negative-parameter period integral
    2 * integral_0^(pi/2) (1 + Q0^2 sin^2 t)^(-1/2) dt.
    """
    if Q0 == 0:
        raise ValueError("Q0 = 0 sits at the fixed point; no oscillation period")
    m = Q0 * Q0 / (1.0 + Q0 * Q0)
    return 2.0 * complete_elliptic_k(m) / math.sqrt(1.0 + Q0 * Q0)


def exact_solution(Q0: float, t):
    """Exact (Q, P) of the product oscillator started at (Q0 < 0, P = 0).

    Time is reduced modulo the full period; the first half period follows
    the elliptic-cosine formula with parameter m = Q0^2 / (1 + Q0^2), and
    the second half is its image under the origin symmetry
    (Q, P) -> (-Q, -P). The momentum is recovered analytically from the cn
    derivative, P = Q' / (1 + Q^2).
    """
    if Q0 >= 0:
        raise ValueError(f"exact solution is normalized to Q0 < 0 on the P = 0 axis, got Q0 = {Q0}")
    m = Q0 * Q0 / (1.0 + Q0 * Q0)
    half = half_period(Q0)
    rate = math.sqrt(1.0 + Q0 * Q0)
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    tm = np.mod(t, 2.0 * half)
    second = tm >= half
    tt = np.where(second, tm - half, tm)
    sn, cn, dn = jacobi_elliptic(tt * rate, m)
    Q = Q0 * cn
    Qdot = -Q0 * rate * sn * dn
    P = Qdot / (1.0 + Q * Q)
    sign = np.where(second, -1.0, 1.0)
    Q, P = sign * Q, sign * P
    if scalar:
        return float(Q), float(P)
    return Q, P


def exact_series(Q0: float, times):
    """exact_solution evaluated on a whole time grid, as (n,) arrays."""
    return exact_solution(Q0, np.asarray(times, dtype=float))


@dataclass(frozen=True)
class PhaseSeries:
    """Time-stamped (Q, P) series of the original system."""

    times: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.Q.shape[-1]


def _canonical_rhs(grad, force, z, t):
    ga, gb = grad(*z)
    if force is None:
        return [*gb, *(-g for g in ga)]
    return [*gb, *(-g + f for g, f in zip(ga, force(*z, t)))]


def _rk4(grad, force, z, h, t):
    """One classical RK4 step on the lane variables z = (Q components, P components).

    ``grad`` and ``force`` are the per-component forms of the gradient and
    of F(Q, P, t) (``integrator._components``/``_packed_force``); the lanes
    are Python floats for one trajectory or numpy columns for a batch.
    """
    half = 0.5 * h
    k1 = _canonical_rhs(grad, force, z, t)
    k2 = _canonical_rhs(grad, force, [a + half * k for a, k in zip(z, k1)], t + half)
    k3 = _canonical_rhs(grad, force, [a + half * k for a, k in zip(z, k2)], t + half)
    k4 = _canonical_rhs(grad, force, [a + h * k for a, k in zip(z, k3)], t + h)
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


def _rk4_parts(model: HamiltonianModel, force):
    return _components(model), None if force is None else _packed_force(force, model.dim)


def rk4_step(model: HamiltonianModel, Q, P, delta: float, *, force=None, t: float = 0.0):
    """One classical 4th-order Runge-Kutta step of the canonical equations."""
    z = _rk4(*_rk4_parts(model, force), _lanes(Q, P), delta, t)
    QP = _blocks(z, model.dim)
    return QP[..., 0, :], QP[..., 1, :]


def rk4_trajectory(
    model: HamiltonianModel,
    Q0,
    P0,
    delta: float,
    n_steps: int,
    *,
    stride: int = 1,
    force=None,
) -> PhaseSeries:
    """Fixed-step RK4 run sampled every ``stride`` steps (final step included)."""
    Q = np.atleast_1d(np.asarray(Q0, dtype=float))
    P = np.atleast_1d(np.asarray(P0, dtype=float))
    grad, forces = _rk4_parts(model, force)
    sample_at = _sample_indices(n_steps, stride)
    times = delta * np.asarray(sample_at, dtype=float)
    out = np.empty((len(sample_at),) + Q.shape[:-1] + (2, Q.shape[-1]))
    rows = _lane_rows(out)
    z = _lanes(Q, P)
    rows[0] = z
    nxt = 1
    for k in range(1, n_steps + 1):
        z = _rk4(grad, forces, z, delta, (k - 1) * delta)
        if nxt < len(sample_at) and k == sample_at[nxt]:
            rows[nxt] = z
            if not np.all(np.isfinite(out[nxt])):
                raise EvaluationError(f"non-finite state in RK4 run at step {k}")
            nxt += 1
    return PhaseSeries(times, out[:, ..., 0, :], out[:, ..., 1, :])


def _rk4_sampled(model, Q0, P0, grid_times, substeps, force):
    grad, forces = _rk4_parts(model, force)
    out = np.empty((len(grid_times),) + Q0.shape[:-1] + (2, Q0.shape[-1]))
    rows = _lane_rows(out)
    z = _lanes(Q0, P0)
    rows[0] = z
    for i in range(1, len(grid_times)):
        t0, t1 = float(grid_times[i - 1]), float(grid_times[i])
        h = (t1 - t0) / substeps
        t = t0
        for _ in range(substeps):
            z = _rk4(grad, forces, z, h, t)
            t += h
        rows[i] = z
    return out[:, ..., 0, :], out[:, ..., 1, :]


def reference_flow(
    model: HamiltonianModel,
    Q0,
    P0,
    T: float,
    *,
    n_samples: int = 100,
    rtol: float = 1e-11,
    max_refinements: int = 22,
    min_substeps: int = 4,
    force=None,
) -> PhaseSeries:
    """High-accuracy benchmark trajectory on a uniform sample grid.

    Fixed-step RK4 with the substep count doubled until halving it moves
    the endpoint by at most ``rtol`` relative; the achieved shift and the
    certified substep count are recorded in ``meta`` (the step-doubling
    certificate). Raises ReferenceConvergenceError if certification fails.
    A ``force`` F(Q, P, t) turns the field into dP/dt = -grad_a H + F; a
    linear drag passes F = -gamma * P.
    """
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    Q0 = np.atleast_1d(np.asarray(Q0, dtype=float))
    P0 = np.atleast_1d(np.asarray(P0, dtype=float))
    if T == 0:
        return PhaseSeries(
            np.zeros(1), Q0[None, :].copy(), P0[None, :].copy(),
            meta={"substeps_per_sample": 0, "endpoint_shift": 0.0, "rtol": rtol},
        )
    grid = np.linspace(0.0, T, n_samples + 1)
    substeps = min_substeps
    Qs, Ps = _rk4_sampled(model, Q0, P0, grid, substeps, force)
    for _ in range(max_refinements):
        Qs2, Ps2 = _rk4_sampled(model, Q0, P0, grid, 2 * substeps, force)
        scale = 1.0 + math.hypot(float(np.linalg.norm(Qs2[-1])), float(np.linalg.norm(Ps2[-1])))
        shift = math.hypot(
            float(np.linalg.norm(Qs[-1] - Qs2[-1])), float(np.linalg.norm(Ps[-1] - Ps2[-1]))
        ) / scale
        if not np.all(np.isfinite(Qs2)) or not np.all(np.isfinite(Ps2)):
            raise EvaluationError("non-finite state in reference run")
        if shift <= rtol:
            return PhaseSeries(
                grid, Qs2, Ps2,
                meta={"substeps_per_sample": 2 * substeps, "endpoint_shift": shift, "rtol": rtol},
            )
        Qs, Ps = Qs2, Ps2
        substeps *= 2
    raise ReferenceConvergenceError(
        f"reference did not converge: endpoint still moving by {shift:.3e} (> rtol {rtol:.1e}) "
        f"after {substeps} substeps per sample"
    )
