"""Ground-truth generators.

The 1-dof product oscillator has a closed-form solution through the Jacobi
elliptic cosine; everything else is benchmarked against a fixed-step
classical 4th-order integrator whose step is certified by step doubling.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError, ReferenceConvergenceError
from .integrator import _FINITE, _components, _drive, _rk4_factory
from .models import HamiltonianModel
from .state import Trajectory

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


def exact_series(Q0: float, times):
    """Exact (Q, P) of the product oscillator started at (Q0 < 0, P = 0), as arrays of the shape of ``times``.

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
    tm = np.mod(np.asarray(times, dtype=float), 2.0 * half)
    second = tm >= half
    tt = np.where(second, tm - half, tm)
    sn, cn, dn = jacobi_elliptic(tt * rate, m)
    Q = Q0 * cn
    Qdot = -Q0 * rate * sn * dn
    P = Qdot / (1.0 + Q * Q)
    sign = np.where(second, -1.0, 1.0)
    return sign * Q, sign * P


def rk4_trajectory(
    model: HamiltonianModel,
    Q0,
    P0,
    delta: float,
    n_steps: int,
    *,
    stride: int = 1,
    force=None,
) -> Trajectory:
    """Fixed-step RK4 run sampled every ``stride`` steps (final step included).

    The Trajectory stores (Q, P) states of shape (n, ..., 2, d). ``force``
    F(Q0.., P0.., t) adds its d components to dP/dt, as in
    ``apply_scheme``. A non-finite sample aborts the run with
    TrajectoryEscapedError, carrying the samples before it as ``partial``.
    """
    Q = np.atleast_1d(np.asarray(Q0, dtype=float))
    P = np.atleast_1d(np.asarray(P0, dtype=float))
    grad = _components(model, Q.shape[-1])
    run = _rk4_factory(Q.shape[-1], force is not None, getattr(grad, "_source", None))(grad, force)
    return _drive(run, (Q, P), delta, n_steps, stride, _FINITE)


def reference_flow(
    model: HamiltonianModel,
    Q0,
    P0,
    T: float,
    *,
    n_samples: int = 100,
    rtol: float = 1e-11,
    max_refinements: int = 22,
    force=None,
) -> Trajectory:
    """High-accuracy benchmark trajectory of (Q, P) states on a uniform sample grid.

    Fixed-step RK4 with the substep count, 4 per sample at first, doubled
    until halving it moves the endpoint by at most ``rtol`` relative; the
    achieved shift and the certified substep count are recorded in
    ``meta`` (the step-doubling certificate). Raises
    ReferenceConvergenceError if certification fails. Each refinement is
    one ``rk4_trajectory`` run with the uniform substep
    T / (n_samples * substeps), so a non-finite sample aborts it as there.
    A ``force`` F(Q0.., P0.., t) turns the field into dP/dt = -grad_a H + F;
    ``linear_drag(gamma)`` returns F = (-gamma * P0, ..).
    """
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    Q0 = np.atleast_1d(np.asarray(Q0, dtype=float))
    P0 = np.atleast_1d(np.asarray(P0, dtype=float))
    if T == 0:
        start = rk4_trajectory(model, Q0, P0, 0.0, 0)
        return Trajectory(start.times, start.states, {"substeps_per_sample": 0, "endpoint_shift": 0.0, "rtol": rtol})
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1 for a positive horizon, got {n_samples}")
    grid = np.linspace(0.0, T, n_samples + 1)

    def run(substeps: int) -> Trajectory:
        n_steps = n_samples * substeps
        return rk4_trajectory(model, Q0, P0, T / n_steps, n_steps, stride=substeps, force=force)

    substeps = 4
    Qc, Pc = run(substeps).projected()
    for _ in range(max_refinements):
        fine = run(2 * substeps)
        Qf, Pf = fine.projected()
        scale = 1.0 + math.hypot(float(np.linalg.norm(Qf[-1])), float(np.linalg.norm(Pf[-1])))
        shift = math.hypot(
            float(np.linalg.norm(Qc[-1] - Qf[-1])), float(np.linalg.norm(Pc[-1] - Pf[-1]))
        ) / scale
        if shift <= rtol:
            certificate = {"substeps_per_sample": 2 * substeps, "endpoint_shift": shift, "rtol": rtol}
            return Trajectory(grid, fine.states, certificate)
        Qc, Pc = Qf, Pf
        substeps *= 2
    raise ReferenceConvergenceError(
        f"reference did not converge: endpoint still moving by {shift:.3e} (> rtol {rtol:.1e}) "
        f"after {substeps} substeps per sample"
    )
