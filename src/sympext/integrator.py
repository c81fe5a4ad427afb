"""Exact flow maps of the bound two-copy system and their compositions.

The doubled Hamiltonian splits into three pieces whose flows are exact and
explicit: the two mixed copies H(q, y) and H(x, p) produce shear maps, and
the binding term rotates the copy differences. A palindromic composition of
the three gives a second-order symplectic step; the triple-jump recursion
raises it to any even order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, SympextError, TrajectoryEscapedError
from .models import HamiltonianModel
from .state import ExtendedState, Trajectory, embed

GAMMA_VARIANTS = ("standard", "shifted")

_A, _B, _C = 0, 1, 2
_KIND_CODE = {"A": _A, "B": _B, "C": _C}


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, binding strength, composition order, and step count."""

    delta: float
    omega: float
    order: int = 2
    n_steps: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be a positive finite real, got {self.delta}")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValueError(f"omega must be a nonnegative finite real, got {self.omega}")
        if self.order < 2 or self.order % 2:
            raise ValueError(f"order must be an even integer >= 2, got {self.order}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")

    @property
    def t_final(self) -> float:
        return self.n_steps * self.delta


@dataclass(frozen=True)
class CompositionScheme:
    """Ordered (stage-kind, fraction) pairs realizing one update step.

    Each fraction is the substep length in units of the step size; the
    fractions of every kind sum to one, and the sequence is palindromic.
    """

    order: int
    stages: tuple[tuple[str, float], ...]
    variant: str = "standard"

    def __len__(self) -> int:
        return len(self.stages)


def linear_drag(gamma: float) -> Callable:
    """The simplest dissipation, F(position, momentum, t) = -gamma * momentum."""
    return lambda pos, mom, t: -gamma * mom


def triple_jump_gamma(order: int, variant: str = "standard") -> float:
    """Coefficient of the palindromic three-fold composition raising order by two.

    The "standard" value 1/(2 - 2^(1/(order-1))) cancels the leading error
    term of the symmetric order-(l-2) method; "shifted" uses the exponent
    1/(order+1) instead and is kept only for comparison (it does not raise
    the order, as the empirical convergence tests show).
    """
    if order < 4 or order % 2:
        raise ValueError(f"order must be an even integer >= 4, got {order}")
    if variant == "standard":
        exponent = 1.0 / (order - 1)
    elif variant == "shifted":
        exponent = 1.0 / (order + 1)
    else:
        raise ValueError(f"unknown gamma variant {variant!r}; expected one of {GAMMA_VARIANTS}")
    return 1.0 / (2.0 - 2.0**exponent)


def build_scheme(order: int, variant: str = "standard") -> CompositionScheme:
    """Composition scheme for an even-order step.

    Order 2 is the five-stage palindrome (A:1/2, B:1/2, C:1, B:1/2, A:1/2);
    each higher order expands the previous scheme three-fold with fractions
    scaled by (g, 1-2g, g). Adjacent same-kind stages at the seams merge
    into one stage with summed fraction, saving gradient evaluations.
    """
    if order < 2 or order % 2:
        raise ValueError(f"order must be an even integer >= 2, got {order}")
    stages = [("A", 0.5), ("B", 0.5), ("C", 1.0), ("B", 0.5), ("A", 0.5)]
    for target in range(4, order + 1, 2):
        g = triple_jump_gamma(target, variant)
        expanded: list[tuple[str, float]] = []
        for scale in (g, 1.0 - 2.0 * g, g):
            for kind, frac in stages:
                f = frac * scale
                if expanded and expanded[-1][0] == kind:
                    expanded[-1] = (kind, expanded[-1][1] + f)
                else:
                    expanded.append((kind, f))
        stages = expanded
    return CompositionScheme(order=order, stages=tuple(stages), variant=variant)


def _flow(kind: str, s: ExtendedState, delta: float, omega: float, model, force, t: float) -> ExtendedState:
    """One exact flow, run as a one-stage plan; A and B refuse non-finite gradients."""

    def checked_pair(a, b):
        ga, gb = model.pair(a, b)
        for name, g in (("grad_a", ga), ("grad_b", gb)):
            if not np.all(np.isfinite(g)):
                bad = int(np.argmin(np.isfinite(g)))
                raise EvaluationError(f"flow_{kind.lower()}: non-finite gradient component {name}[{bad}]")
        return ga, gb

    plan = _stage_plan(CompositionScheme(0, ((kind, 1.0),)), delta, omega)
    return ExtendedState(*_apply_plan(*s, plan, checked_pair, force, t))


def flow_a(s: ExtendedState, delta: float, model: HamiltonianModel, force=None, t: float = 0.0) -> ExtendedState:
    """Exact flow of the first copy H(q, y): kicks p, drifts x, fixes q and y."""
    return _flow("A", s, delta, 0.0, model, force, t)


def flow_b(s: ExtendedState, delta: float, model: HamiltonianModel, force=None, t: float = 0.0) -> ExtendedState:
    """Exact flow of the second copy H(x, p): drifts q, kicks y, fixes p and x."""
    return _flow("B", s, delta, 0.0, model, force, t)


def flow_c(s: ExtendedState, delta: float, omega: float) -> ExtendedState:
    """Exact flow of the binding term: rotates the copy differences.

    The sums (q + x, p + y) are preserved exactly while the differences
    (q - x, p - y) rotate by angle 2 * omega * delta; an exact linear
    symplectic map for any inputs.
    """
    return _flow("C", s, delta, omega, None, None, 0.0)


def _stage_plan(scheme: CompositionScheme, delta: float, omega):
    """Precompute substeps and binding rotations for a fixed (delta, omega).

    ``omega`` may be a scalar or an array broadcastable against the batch
    axes of the state (one binding strength per trajectory lane).
    """
    om = np.asarray(omega, dtype=float)
    batched = om.ndim > 0
    plan = []
    for kind, frac in scheme.stages:
        h = frac * delta
        code = _KIND_CODE[kind]
        if code == _C:
            ang = 2.0 * om * h
            if batched:
                c, sn = np.cos(ang)[..., None], np.sin(ang)[..., None]
            elif ang == 0.0:
                c = sn = None
            else:
                c, sn = math.cos(ang), math.sin(ang)
            plan.append((code, h, c, sn))
        else:
            plan.append((code, h, None, None))
    return plan


def _apply_plan(q, p, x, y, plan, pair, force=None, t0: float = 0.0, wrap_errors: bool = False):
    """Run the precomputed stage sequence once. Pure arithmetic, no checks.

    ``pair`` is the model's gradient pair, ``HamiltonianModel.pair``.
    Dissipative forces replace only the momentum kicks of the A and B
    stages; each stage kind keeps its own elapsed-time clock, advancing by
    the stage substep, so F sees the time its flow has integrated to.
    """
    t_a = t_b = t0
    for index, (kind, h, c, sn) in enumerate(plan):
        try:
            if kind == _A:
                ga, gb = pair(q, y)
                if force is None:
                    p = p - h * ga
                else:
                    p = p + h * (force(q, y, t_a) - ga)
                x = x + h * gb
                t_a += h
            elif kind == _B:
                ga, gb = pair(x, p)
                q = q + h * gb
                if force is None:
                    y = y - h * ga
                else:
                    y = y + h * (force(x, p, t_b) - ga)
                t_b += h
            elif c is not None:
                dq = q - x
                dp = p - y
                sq = q + x
                sp = p + y
                rq = c * dq + sn * dp
                rp = c * dp - sn * dq
                q = 0.5 * (sq + rq)
                p = 0.5 * (sp + rp)
                x = 0.5 * (sq - rq)
                y = 0.5 * (sp - rp)
        except SympextError as exc:
            if wrap_errors:
                raise type(exc)(f"stage {index} ({'ABC'[kind]}): {exc}") from exc
            raise
    return q, p, x, y


def apply_scheme(
    s: ExtendedState,
    scheme: CompositionScheme,
    delta: float,
    omega: float,
    model: HamiltonianModel,
    force=None,
    t0: float = 0.0,
) -> ExtendedState:
    """One composed update with a free-signed step (used by adjointness tests)."""
    plan = _stage_plan(scheme, delta, omega)
    return ExtendedState(*_apply_plan(*s, plan, model.pair, force, t0, wrap_errors=True))


def step(
    s: ExtendedState,
    cfg: IntegratorConfig,
    scheme: CompositionScheme,
    model: HamiltonianModel,
    t0: float = 0.0,
    force=None,
) -> ExtendedState:
    """One update of the composed integrator. Deterministic in its inputs.

    ``force`` adds F(position, momentum, time) to the momentum kicks; with
    F identically zero the step is bitwise the unforced one.
    """
    if scheme.order != cfg.order:
        raise ValueError(f"scheme of order {scheme.order} does not match config order {cfg.order}")
    return apply_scheme(s, scheme, cfg.delta, cfg.omega, model, force, t0)


def _sample_indices(n_steps: int, stride: int) -> list[int]:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return idx


def _check_sample(q, p, x, y, escape_bound, step_index):
    biggest = 0.0
    for c in (q, p, x, y):
        if not np.all(np.isfinite(c)):
            biggest = math.inf
            break
        biggest = max(biggest, float(np.max(np.abs(c))))
    if biggest > escape_bound:
        raise TrajectoryEscapedError(
            f"trajectory escaped: max |state| = {biggest:.3e} exceeds bound {escape_bound:.3e} "
            f"at step {step_index}"
        )


def _drive(s0, plan, model, force, delta, n_steps, stride, escape_bound, t0=0.0, observers=(), projection="copy1"):
    """The trajectory loop behind ``integrate`` and ``integrate_batch``.

    Advances ``s0`` by ``n_steps`` runs of the stage plan, stores every
    ``stride``-th state (the final state always included), checks each
    stored sample against the escape bound and calls each observer as
    observer(t, state) there. Any SympextError raised on the way leaves
    with the samples stored so far attached as ``partial``.
    """
    if s0.dim != model.dim:
        raise ValueError(f"initial condition dimension {s0.dim} does not match model dim {model.dim}")
    sample_at = _sample_indices(n_steps, stride)
    times = t0 + delta * np.asarray(sample_at, dtype=float)
    out = np.empty((len(sample_at),) + s0.q.shape[:-1] + (4, s0.dim))

    pair = model.pair
    q, p, x, y = s0
    out[0, ..., 0, :], out[0, ..., 1, :], out[0, ..., 2, :], out[0, ..., 3, :] = q, p, x, y
    n_stored = 1
    try:
        _check_sample(q, p, x, y, escape_bound, 0)
        for obs in observers:
            obs(times[0], ExtendedState(q, p, x, y))
        for k in range(1, n_steps + 1):
            q, p, x, y = _apply_plan(q, p, x, y, plan, pair, force, t0 + (k - 1) * delta)
            if n_stored < len(sample_at) and k == sample_at[n_stored]:
                out[n_stored, ..., 0, :] = q
                out[n_stored, ..., 1, :] = p
                out[n_stored, ..., 2, :] = x
                out[n_stored, ..., 3, :] = y
                n_stored += 1
                _check_sample(q, p, x, y, escape_bound, k)
                for obs in observers:
                    obs(times[n_stored - 1], ExtendedState(q, p, x, y))
    except SympextError as exc:
        exc.partial = Trajectory(times[:n_stored].copy(), out[:n_stored].copy(), projection)
        exc.last_valid_index = n_stored - 1
        raise
    return Trajectory(times, out, projection)


def integrate(
    Q0,
    P0,
    cfg: IntegratorConfig,
    model: HamiltonianModel,
    observers: Sequence[Callable] = (),
    *,
    force=None,
    scheme: CompositionScheme | None = None,
    variant: str = "standard",
    projection: str = "copy1",
    stride: int = 1,
    escape_bound: float = 1e12,
    t0: float = 0.0,
) -> Trajectory:
    """Advance the doubled embedding of (Q0, P0) for cfg.n_steps steps.

    Samples every ``stride``-th state (the final state always included) and
    calls each observer as observer(t, state) at the sample points. Aborts
    with TrajectoryEscapedError if a sample leaves the escape bound or
    turns non-finite; this and any other SympextError raised mid-run
    carries the partial trajectory.
    """
    if scheme is None:
        scheme = build_scheme(cfg.order, variant)
    elif scheme.order != cfg.order:
        raise ValueError(f"scheme of order {scheme.order} does not match config order {cfg.order}")
    plan = _stage_plan(scheme, cfg.delta, cfg.omega)
    return _drive(embed(Q0, P0), plan, model, force, cfg.delta, cfg.n_steps, stride, escape_bound,
                  t0, observers, projection)


def integrate_batch(
    Q0,
    P0,
    delta: float,
    omega,
    order: int,
    n_steps: int,
    model: HamiltonianModel,
    *,
    force=None,
    variant: str = "standard",
    stride: int = 1,
    escape_bound: float = 1e12,
) -> Trajectory:
    """Advance a batch of embeddings at once.

    Q0 and P0 have shape (B, d); ``omega`` may be a scalar or a (B,) array
    giving one binding strength per lane. Returns a Trajectory whose states
    have shape (n_samples, B, 4, d); samples and aborts as ``integrate``.
    """
    plan = _stage_plan(build_scheme(order, variant), delta, omega)
    return _drive(embed(np.atleast_2d(Q0), np.atleast_2d(P0)), plan, model, force, delta, n_steps, stride,
                  escape_bound)
