"""Exact flow maps of the bound two-copy system and their compositions.

The doubled Hamiltonian splits into three pieces whose flows are exact and
explicit: the two mixed copies H(q, y) and H(x, p) produce shear maps, and
the binding term rotates the copy differences. A palindromic composition of
the three gives a second-order symplectic step; the triple-jump recursion
raises it to any even order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SympextError, TrajectoryEscapedError
from .models import HamiltonianModel, _compile
from .state import ExtendedState, Trajectory, embed, stack, state_from_array, unstack

# Escape bound of RK4 runs and sections: the escape check in _drive then refuses exactly the non-finite samples.
_FINITE = np.finfo(float).max


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


@dataclass(frozen=True)
class CompositionScheme:
    """Ordered (stage-kind, fraction) pairs realizing one update step.

    Each fraction is the substep length in units of the step size; the
    fractions of every kind sum to one, and the sequence is palindromic.
    """

    stages: tuple[tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.stages)


def linear_drag(gamma: float) -> Callable:
    """The simplest dissipation: F(a0.., b0.., t) = (-gamma * b0, ..), the momentum components damped."""
    return lambda *abt: [-gamma * b for b in abt[len(abt) // 2:-1]]


def triple_jump_gamma(order: int) -> float:
    """Coefficient of the palindromic three-fold composition raising order by two.

    The value 1/(2 - 2^(1/(order-1))) cancels the leading error term of the
    symmetric order-(l-2) method (Yoshida 1990).
    """
    if order < 4 or order % 2:
        raise ValueError(f"order must be an even integer >= 4, got {order}")
    return 1.0 / (2.0 - 2.0 ** (1.0 / (order - 1)))


def build_scheme(order: int) -> CompositionScheme:
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
        g = triple_jump_gamma(target)
        expanded: list[tuple[str, float]] = []
        for scale in (g, 1.0 - 2.0 * g, g):
            for kind, frac in stages:
                f = frac * scale
                if expanded and expanded[-1][0] == kind:
                    expanded[-1] = (kind, expanded[-1][1] + f)
                else:
                    expanded.append((kind, f))
        stages = expanded
    return CompositionScheme(tuple(stages))


def flow_a(s: ExtendedState, delta: float, model: HamiltonianModel, force=None, t: float = 0.0) -> ExtendedState:
    """Exact flow of the first copy H(q, y): kicks p (with any ``force`` from time t), drifts x, fixes q and y."""
    return apply_scheme(s, CompositionScheme((("A", 1.0),)), delta, 0.0, model, force, t)


def flow_b(s: ExtendedState, delta: float, model: HamiltonianModel, force=None, t: float = 0.0) -> ExtendedState:
    """Exact flow of the second copy H(x, p): drifts q, kicks y (with any ``force`` from time t), fixes p and x."""
    return apply_scheme(s, CompositionScheme((("B", 1.0),)), delta, 0.0, model, force, t)


def flow_c(s: ExtendedState, delta: float, omega: float) -> ExtendedState:
    """Exact flow of the binding term: rotates the copy differences.

    The sums (q + x, p + y) are preserved exactly while the differences
    (q - x, p - y) rotate by angle 2 * omega * delta; an exact linear
    symplectic map for any inputs.
    """
    return apply_scheme(s, CompositionScheme((("C", 1.0),)), delta, omega, None)


# -- the generated step kernel ---------------------------------------------
#
# One step of a composition is straight-line Python over the 4d lane
# variables q0..q{d-1}, p0.., x0.., y0.., a few source lines per stage. The
# same source runs on Python floats (one lane at a time) and on numpy columns
# (a batch): every operation is elementwise and in the order of the (..., d)
# array formulas, so both give the bits of the array arithmetic. The compiled
# source depends only on the stage kinds, d, the force's presence and the
# gradient source; substeps and rotations are closure constants bound per call.


def _stage_source(k: int, kind: str, d: int, forced: bool, source: str | None) -> list[str]:
    """Source lines of stage k: one exact flow over the lane variables."""
    q, p, x, y = ([f"{c}{i}" for i in range(d)] for c in "qpxy")
    h = f"h{k}"
    if kind == "C":
        c, s = f"c{k}", f"s{k}"
        return ["; ".join(
            f"u = {q[i]} - {x[i]}; v = {p[i]} - {y[i]}; su = {q[i]} + {x[i]}; sv = {p[i]} + {y[i]}; "
            f"ru = {c} * u + {s} * v; rv = {c} * v - {s} * u; "
            f"{q[i]} = 0.5 * (su + ru); {p[i]} = 0.5 * (sv + rv); "
            f"{x[i]} = 0.5 * (su - ru); {y[i]} = 0.5 * (sv - rv)"
            for i in range(d)
        )]
    if kind == "-":
        return ["pass"]  # a rotation by a zero angle
    # A: H(q, y) kicks p and drifts x; B: H(x, p) drifts q and kicks y.
    pos, mom, kicked, drifted, clock = (q, y, p, x, "ta") if kind == "A" else (x, p, y, q, "tb")
    a, b, ga, gb, f = ([f"{c}{i}" for i in range(d)] for c in ("a", "b", "ga", "gb", "f"))
    args = ", ".join(a + b)
    lines = ["; ".join(f"{u} = {v}" for u, v in zip(a + b, pos + mom))]
    # The model's gradient source, spliced, or one call of its gradient function.
    lines += source.splitlines() if source else [f"({', '.join(ga)},), ({', '.join(gb)},) = G({args})"]
    if forced:
        parts = [f"({', '.join(f)},) = F({args}, {clock})"]
        parts += [f"{kicked[i]} = {kicked[i]} + {h} * ({f[i]} - {ga[i]})" for i in range(d)]
    else:
        parts = [f"{kicked[i]} = {kicked[i]} - {h} * {ga[i]}" for i in range(d)]
    parts += [f"{drifted[i]} = {drifted[i]} + {h} * {gb[i]}" for i in range(d)]
    if forced:
        parts.append(f"{clock} = {clock} + {h}")
    return lines + ["; ".join(parts)]


@functools.cache
def _step_factory(kinds: str, d: int, forced: bool, source: str | None):
    """Compiled factory of the step function for one stage-kind sequence.

    ``kinds`` has one letter per stage, "-" for a rotation that a zero
    binding skips. ``source`` is the model's gradient source
    (``models._gradient``), spliced into each A and B stage, or None to call
    G instead. The factory takes the gradient components G, the force
    components F, the substeps h0.. and the cos/sin pairs of the rotations.
    """
    lanes = ", ".join(f"{c}{i}" for c in "qpxy" for i in range(d))
    consts = [f"h{k}" for k in range(len(kinds))] + [f"c{k}, s{k}" for k, kind in enumerate(kinds) if kind == "C"]
    lines = [
        f"def factory(G, F, {', '.join(consts)}):",
        "    def step(z, t):",
        f"        {lanes} = z",
        "        ta = tb = t",
    ]
    lines += ["        " + line for k, kind in enumerate(kinds) for line in _stage_source(k, kind, d, forced, source)]
    lines += [f"        return {lanes}", "    return step"]
    return _compile(lines, f"<sympext step {kinds} d={d}>")["factory"]


def _kernel(scheme: CompositionScheme, delta: float, omega, shape, model: HamiltonianModel | None, force=None):
    """The step function z -> z of ``scheme`` at (delta, omega), called as step(z, t0).

    ``shape`` is the start's (..., d) position shape, and ``model`` gives the
    gradient of dimension d (None for C stages only). ``omega`` is a scalar
    or one binding per lane, of shape shape[:-1]; on at most ``_NARROW_LANES``
    lanes the step also carries, as ``lanes``, one step per lane bound to
    that lane's elements of the same cos/sin arrays. ``force``, F(a0..,
    b0.., t) or None, adds its d components only to the momentum kicks of
    the A and B stages, and each stage kind keeps its own elapsed-time clock,
    advancing by the stage substep, so F sees the time its flow has reached.
    """
    d, lanes = shape[-1], shape[:-1]
    grad = None if model is None else _components(model, d)
    om = np.asarray(omega, dtype=float)
    if om.ndim and om.shape != lanes:
        raise ValueError(f"omega has shape {om.shape} but the batch has lane shape {lanes}: "
                         "give a scalar or one binding per lane")
    kinds, substeps, rotations = [], [], []
    for kind, frac in scheme.stages:
        if kind not in ("A", "B", "C"):
            raise ValueError(f"unknown stage kind {kind!r}; expected 'A', 'B' or 'C'")
        h = frac * delta
        substeps.append(h)
        if kind == "C":
            ang = 2.0 * om * h
            if om.ndim:
                rotations += [np.cos(ang), np.sin(ang)]
            elif ang == 0.0:
                kind = "-"
            else:
                rotations += [math.cos(ang), math.sin(ang)]
        kinds.append(kind)
    factory = _step_factory("".join(kinds), d, force is not None, getattr(grad, "_source", None))
    step = factory(grad, force, *substeps, *rotations)
    if om.ndim and om.size <= _NARROW_LANES:
        step.lanes = [factory(grad, force, *substeps, *(float(r.flat[i]) for r in rotations)) for i in range(om.size)]
    return step


def _packed_pair(pair, d: int):
    """Gradient components served by an array pair(a, b): pack the lanes, call, unpack."""

    def components(*ab):
        ga, gb = pair(stack(ab[:d]), stack(ab[d:]))
        return unstack(ga), unstack(gb)

    return components


def _components(model: HamiltonianModel, d: int):
    """The model's gradient in per-component form, through the array pair if it has none.

    ``d`` is the dimension of the start the gradient will serve; it must be the model's.
    """
    if d != model.dim:
        raise ValueError(f"initial condition dimension {d} does not match model dim {model.dim}")
    if model.grad_components is not None:
        return model.grad_components
    return _packed_pair(model.pair, model.dim)


def apply_scheme(
    s: ExtendedState,
    scheme: CompositionScheme,
    delta: float,
    omega: float,
    model: HamiltonianModel | None,
    force=None,
    t0: float = 0.0,
) -> ExtendedState:
    """One update of ``scheme`` at step ``delta``, of either sign. Deterministic in its inputs.

    ``force`` F(a0.., b0.., t) returns the d momentum components added to
    the kicks, floats or lane columns (another count raises ValueError);
    with F identically zero the step is bitwise the unforced one. The
    update is a one-step ``_drive`` run that refuses exactly the
    non-finite states, so it fails like ``integrate``; ``model`` may be
    None for a scheme of C stages only.
    """
    traj = _drive(_kernel(scheme, delta, omega, s.q.shape, model, force), s, delta, 1, 1, Trajectory, _FINITE, t0)
    return state_from_array(traj.states[-1])


def _sample_indices(n_steps: int, stride: int) -> list[int]:
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return idx


# Widest batch that _drive advances lane by lane on Python floats, whatever
# its binding, force or gradient form; wider batches step as numpy columns.
# Microseconds per order-4 step at omega = 10, every step stored, columns ->
# floats (2-CPU Xeon, Python 3.11, numpy 2.4, fastest of three rounds):
#   lanes            8          16          20          24          32
#   product     81 -> 26    79 -> 54    80 -> 64    85 -> 78    83 -> 107
#   2-mode     322 -> 145  346 -> 289  345 -> 367  323 -> 429  322 -> 578
_NARROW_LANES = 16

# Steps between two escape checks of a run in any layout (the check waits for a
# sample): its samples are checked together, one reduction per block.
_CHECK_BLOCK = 256


def _first_escape(out, first, stop, escape_bound) -> int:
    """Index of the first of the samples out[first:stop] beyond the bound or NaN; ``stop`` if none."""
    block = out[first:stop]  # min and max, not abs: a block of 256 numpy rows makes no temporary
    if first == stop or -escape_bound <= block.min() and block.max() <= escape_bound:  # false for NaN
        return stop
    return first + int(np.argmin(np.abs(block).reshape(len(block), -1).max(axis=1) <= escape_bound))


def _drive(kernel, blocks, delta, n_steps, stride, wrap, escape_bound, t0=0.0):
    """The one trajectory loop behind every sampled run.

    Advances the lanes of the (..., d) ``blocks`` by ``n_steps`` calls
    z = kernel(z, t), stores every ``stride``-th state (the final state
    always included) in its (..., n_blocks, d) output row and checks the
    rows against the escape bound. A sample counts as stored once it
    passed the check. Returns wrap(times, states); any SympextError
    raised on the way leaves with wrap of the stored samples attached as
    ``partial``.

    The lane count alone picks the layout. One lane runs as Python floats.
    A batch of at most ``_NARROW_LANES`` lanes runs as one float list per
    lane, all lanes stepped in lockstep, lane i by the kernel's ``lanes[i]``
    if it binds one step per lane and by the kernel itself if not; a wider
    batch runs as one numpy column per component. Each operation is
    elementwise in all three layouts, so they store the same bits.

    The start is checked at once; then every layout checks its pending
    rows together at the first sample ``_CHECK_BLOCK`` or more steps after
    the previous check, and at the end. Until its check a run may step on
    past an escape, with numpy's overflow and invalid warnings off. The
    error names the first offending sample, and a step that raises after
    an unchecked escape reports that escape instead, so the error and
    ``partial`` are those of a check at every sample.
    """
    sample_at = _sample_indices(n_steps, stride)
    times = t0 + delta * np.asarray(sample_at, dtype=float)
    start = np.stack(blocks, axis=-2)
    out = np.empty((len(sample_at),) + start.shape)
    width = start.shape[-2] * start.shape[-1]
    n_lanes = math.prod(start.shape[:-2])
    if not n_lanes:
        raise ValueError("empty batch: a run needs at least one lane")
    step = kernel
    if start.ndim > 2 and n_lanes <= _NARROW_LANES:
        rows = out.reshape(len(sample_at), n_lanes, width)
        z = start.reshape(n_lanes, width).tolist()
        per_lane = getattr(kernel, "lanes", None)  # lane i's own step, or None: one serves all (zip costs 1-5%)
        step = (lambda lanes, t: [kernel(lane, t) for lane in lanes]) if per_lane is None else (
            lambda lanes, t: [own(lane, t) for own, lane in zip(per_lane, lanes)])
    else:
        rows = np.moveaxis(out.reshape(out.shape[:-2] + (width,)), -1, 1)
        z = unstack(start.reshape(start.shape[:-2] + (width,)))
    n_stored = n_checked = next_check = 0  # rows written; rows of them within the bound; step of the next check
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps + 1):
                if k:
                    try:
                        z = step(z, t0 + (k - 1) * delta)
                    except Exception:
                        n_checked = _first_escape(out, n_checked, n_stored, escape_bound)
                        if n_checked == n_stored:
                            raise
                        break  # an unchecked escape came first
                if k != sample_at[n_stored]:
                    continue
                rows[n_stored] = z
                n_stored += 1
                if k >= next_check:
                    n_checked = _first_escape(out, n_checked, n_stored, escape_bound)
                    if n_checked < n_stored:
                        break
                    next_check = min(k + _CHECK_BLOCK, n_steps)
        if n_checked < n_stored:
            biggest = np.abs(out[n_checked]).max()
            raise TrajectoryEscapedError(
                f"trajectory escaped: max |state| = {math.inf if math.isnan(biggest) else biggest:.3e} "
                f"exceeds bound {escape_bound:.3e} at step {sample_at[n_checked]}"
            )
    except SympextError as exc:
        exc.partial = wrap(times[:n_checked].copy(), out[:n_checked].copy())
        raise
    return wrap(times, out)


def integrate(
    Q0,
    P0,
    cfg: IntegratorConfig,
    model: HamiltonianModel,
    *,
    force=None,
    stride: int = 1,
    escape_bound: float = 1e12,
    t0: float = 0.0,
) -> Trajectory:
    """Advance the doubled embedding of (Q0, P0) for cfg.n_steps steps.

    Samples every ``stride``-th state (the final state always included).
    ``force`` adds F(a0.., b0.., t) to the momentum kicks, as in
    ``apply_scheme``. Aborts with TrajectoryEscapedError if a sample leaves
    the escape bound or turns non-finite; this and any other SympextError
    raised mid-run carries the partial trajectory of the samples before it.
    """
    s0 = embed(Q0, P0)
    kernel = _kernel(build_scheme(cfg.order), cfg.delta, cfg.omega, s0.q.shape, model, force)
    return _drive(kernel, s0, cfg.delta, cfg.n_steps, stride, Trajectory, escape_bound, t0)


def integrate_batch(
    Q0,
    P0,
    delta: float,
    omega,
    order: int,
    n_steps: int,
    model: HamiltonianModel,
    *,
    stride: int = 1,
    escape_bound: float = 1e12,
) -> Trajectory:
    """Advance a batch of embeddings at once.

    Q0 and P0 have shape (B, d); ``omega`` may be a scalar or a (B,) array
    giving one binding strength per lane. Returns a Trajectory whose states
    have shape (n_samples, B, 4, d); samples and aborts as ``integrate``.
    """
    s0 = embed(np.atleast_2d(Q0), np.atleast_2d(P0))
    om = np.asarray(omega, dtype=float)
    for extreme in (om.min(), om.max()) if om.size else ():  # IntegratorConfig's checks, for every lane's binding
        IntegratorConfig(delta, float(extreme))
    kernel = _kernel(build_scheme(order), delta, omega, s0.q.shape, model)
    return _drive(kernel, s0, delta, n_steps, stride, Trajectory, escape_bound)
