"""Built-in Hamiltonian systems behind a single evaluation interface.

Every model evaluates H and its two gradient blocks at arbitrary mixed
arguments: the integrator feeds both (q, y) and (x, p) pairs, so the first
argument always plays the position role and the second the momentum role,
regardless of which copy of phase space it came from. All callables
broadcast over leading batch axes; the trailing axis has length ``dim``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .state import ExtendedState, as_parts, stack, unstack

Array = np.ndarray

MODEL_NAMES = ("product1d", "schwarzschild", "nls")

_HORIZON_MARGIN = 1e-9
_INSIDE_HORIZON = "inside horizon: Schwarzschild model needs r > 2"


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluation interface for one Hamiltonian H(a, b) with closed-form gradients.

    Give the gradient in one of three forms:

    - ``grad_components(a0, ..., a_{d-1}, b0, ..., b_{d-1})`` returning the
      two blocks component by component, ``(ga components, gb components)``.
      Each argument is a Python float for one lane or one numpy column of a
      batch, and the integrators call it directly on either;
    - ``grad_pair(a, b)`` returning both (..., d) blocks at once;
    - the two blocks ``grad_a(a, b)`` and ``grad_b(a, b)`` separately.

    A component form must fail the way numpy arrays do: it may not raise
    OverflowError or ZeroDivisionError where numpy would give inf or NaN.

    A built-in model states its gradient once, as source (``_gradient``):
    the generated runners splice it into each A and B stage that evaluates
    and each RK4 stage, and its ``grad_components`` is that source
    compiled. The runners call any other gradient there instead.
    """

    name: str
    dim: int
    value: Callable[[Array, Array], Array]
    grad_a: Callable[[Array, Array], Array] | None = None
    grad_b: Callable[[Array, Array], Array] | None = None
    grad_pair: Callable[[Array, Array], tuple[Array, Array]] | None = None
    grad_components: Callable[..., tuple[Sequence, Sequence]] | None = None

    def pair(self, a, b):
        """Both (..., d) gradient blocks at once, sharing subexpressions when available."""
        if self.grad_components is not None:
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
            ga, gb = self.grad_components(*unstack(a), *unstack(b))
            return stack(ga, batch), stack(gb, batch)
        if self.grad_pair is not None:
            return self.grad_pair(a, b)
        return self.grad_a(a, b), self.grad_b(a, b)


def _compile(lines: Sequence[str], filename: str) -> dict:
    """Namespace of generated source; the source may use ``np`` and ``DomainError``."""
    namespace = {"np": np, "DomainError": DomainError}
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace


@functools.cache
def _gradient(source: str, d: int):
    """``grad_components`` compiled once per straight-line source, which it carries as ``_source``.

    The source reads a0..a{d-1} and b0..b{d-1} and assigns ga0.. and gb0..;
    its temporaries start with "_", so a generated runner can splice it into a stage.
    """
    a, b, ga, gb = ([f"{c}{i}" for i in range(d)] for c in ("a", "b", "ga", "gb"))
    lines = [f"def grad({', '.join(a + b)}):", *("    " + line for line in source.splitlines()),
             f"    return ({', '.join(ga)},), ({', '.join(gb)},)"]
    grad = _compile(lines, f"<sympext gradient d={d}>")["grad"]
    grad._source = source
    return grad


def product_hamiltonian() -> HamiltonianModel:
    """1-dof oscillator H(a, b) = (a^2 + 1)(b^2 + 1) / 2.

    Nonseparable, yet solvable in closed form (see ``sympext.oracles``),
    which makes it the workhorse for long-time error measurements.
    """

    def value(a, b):
        return 0.5 * (a[..., 0] ** 2 + 1.0) * (b[..., 0] ** 2 + 1.0)

    grad = _gradient("ga0 = a0 * (b0 * b0 + 1.0); gb0 = b0 * (a0 * a0 + 1.0)", 1)
    return HamiltonianModel("product1d", 1, value, grad_components=grad)


def _require_outside_horizon(r):
    ok = r > 2.0 + _HORIZON_MARGIN
    if ok is not True and not np.all(ok):
        raise DomainError(_INSIDE_HORIZON)


# (t, r, phi) = a0..a2 and (p_t, p_r, p_phi) = b0..b2. The cube is two IEEE
# products, which round alike on every host and overflow to inf on floats.
_SCHWARZSCHILD = f"""_ok = a1 > {2.0 + _HORIZON_MARGIN!r}
if _ok is not True and not np.all(_ok): raise DomainError({_INSIDE_HORIZON!r})
_u = 1.0 - 2.0 / a1; _du = 2.0 / (a1 * a1); _vt = b0 / _u
ga0 = ga2 = 0.0; ga1 = 0.5 * (-_du * (_vt * _vt) - _du * (b1 * b1)) + b2 * b2 / (a1 * a1 * a1)
gb0 = _vt; gb1 = -_u * b1; gb2 = -b2 / (a1 * a1)"""


def schwarzschild_hamiltonian() -> HamiltonianModel:
    """Geodesic Hamiltonian in Schwarzschild coordinates.

    Positions are (t, r, phi) and momenta (p_t, p_r, p_phi), with

        H = [ (1 - 2/r)^(-1) p_t^2 - (1 - 2/r) p_r^2 - p_phi^2 / r^2 ] / 2.

    Valid outside the horizon, r > 2; evaluation refuses r <= 2 rather
    than returning huge values near the coordinate singularity. The t and
    phi coordinates are cyclic, so p_t and p_phi are first integrals.
    """

    def value(a, b):
        r = a[..., 1]
        _require_outside_horizon(r)
        u = 1.0 - 2.0 / r
        return 0.5 * (b[..., 0] ** 2 / u - u * b[..., 1] ** 2 - b[..., 2] ** 2 / r**2)

    return HamiltonianModel("schwarzschild", 3, value, grad_components=_gradient(_SCHWARZSCHILD, 3))


@functools.cache
def _nls_source(n_modes: int) -> str:
    """Straight-line gradient source of the n-mode system, q = a and p = b."""
    lines = [f"_aa{i} = a{i} * a{i}; _bb{i} = b{i} * b{i}; _r = _aa{i} + _bb{i}; ga{i} = _r * a{i}; gb{i} = _r * b{i}"
             for i in range(n_modes)]
    # Each mode takes the coupling term of its right neighbor before the one
    # of its left neighbor; walking the bonds downward keeps that order.
    for m, n in ((i - 1, i) for i in range(n_modes - 1, 0, -1)):
        lines += [
            f"_pp = 4.0 * (b{m} * b{n}); _qq = a{m} * a{n}",
            f"ga{m} = ga{m} - (2.0 * a{m} * (_aa{n} - _bb{n}) + _pp * a{n})",
            f"ga{n} = ga{n} - (2.0 * a{n} * (_aa{m} - _bb{m}) + _pp * a{m})",
            f"gb{m} = gb{m} - (2.0 * b{m} * (_bb{n} - _aa{n}) + 4.0 * b{n} * _qq)",
            f"gb{n} = gb{n} - (2.0 * b{n} * (_bb{m} - _aa{m}) + 4.0 * b{m} * _qq)",
        ]
    return "\n".join(lines)


def nls_hamiltonian(n_modes: int) -> HamiltonianModel:
    """Truncated nonlinear-wave mode system with nearest-neighbor coupling.

    H(q, p) = 1/4 sum_i (q_i^2 + p_i^2)^2
              - sum_{i=2..N} ( p_{i-1}^2 p_i^2 + q_{i-1}^2 q_i^2
                               - q_{i-1}^2 p_i^2 - p_{i-1}^2 q_i^2
                               + 4 p_{i-1} p_i q_{i-1} q_i ).

    The total mass I = sum_i (q_i^2 + p_i^2) is a second first integral.
    Gradients use the closed-form nearest-neighbor stencil (O(N) work).
    """
    if n_modes < 2:
        raise ValueError(f"mode system needs n_modes >= 2, got {n_modes}")

    def value(q, p):
        quart = 0.25 * np.sum((q * q + p * p) ** 2, axis=-1)
        qm, qn = q[..., :-1], q[..., 1:]
        pm, pn = p[..., :-1], p[..., 1:]
        coup = (
            (pm * pn) ** 2
            + (qm * qn) ** 2
            - (qm * pn) ** 2
            - (pm * qn) ** 2
            + 4.0 * pm * pn * qm * qn
        )
        return quart - np.sum(coup, axis=-1)

    return HamiltonianModel("nls", n_modes, value, grad_components=_gradient(_nls_source(n_modes), n_modes))


@dataclass(frozen=True)
class NlsObservables:
    """Per-mode masses I_i = q_i^2 + p_i^2 and their exact sum."""

    masses: Array

    @property
    def modes(self) -> int:
        return self.masses.shape[-1]

    @property
    def total(self) -> Array:
        return np.sum(self.masses, axis=-1)


def nls_masses(Q, P) -> NlsObservables:
    """Mode masses of a (..., d) position/momentum pair in original coordinates."""
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if Q.shape != P.shape:
        raise ValueError(f"position/momentum shapes differ: {Q.shape} vs {P.shape}")
    return NlsObservables(Q * Q + P * P)


def extended_energy(model: HamiltonianModel, omega: float, state) -> Array:
    """Energy of the two bound copies.

    H(q, y) + H(x, p) + omega * (|q - x|^2 + |p - y|^2) / 2, broadcast over
    batch axes. ``state`` may be an ExtendedState or a packed (..., 4, d) array.
    """
    q, p, x, y = as_parts(state)
    bind = 0.5 * omega * (np.sum((q - x) ** 2, axis=-1) + np.sum((p - y) ** 2, axis=-1))
    return model.value(q, y) + model.value(x, p) + bind


def extended_model(model: HamiltonianModel, omega: float) -> HamiltonianModel:
    """The doubled system as an ordinary Hamiltonian in 2d degrees of freedom.

    Position block a = (q, x), momentum block b = (p, y); with this ordering
    the canonical equations of the wrapper coincide with the equations of
    motion of the bound two-copy system, so the reference integrators can
    consume it directly.
    """
    d = model.dim

    def _split(a, b):
        return a[..., :d], a[..., d:], b[..., :d], b[..., d:]

    def value(a, b):
        q, x, p, y = _split(a, b)
        return extended_energy(model, omega, ExtendedState(q, p, x, y))

    def grad_pair(a, b):
        q, x, p, y = _split(a, b)
        dq, dp, dx, dy = extended_vector_field(model, omega, q, p, x, y)
        return np.concatenate([-dp, -dy], axis=-1), np.concatenate([dq, dx], axis=-1)

    return HamiltonianModel(f"{model.name}+binding", 2 * d, value, grad_pair=grad_pair)


def extended_vector_field(model: HamiltonianModel, omega: float, q, p, x, y):
    """Time derivatives (dq, dp, dx, dy) of the bound two-copy system."""
    gaq, gby = model.pair(q, y)
    gax, gbp = model.pair(x, p)
    dq = q - x
    dp = p - y
    return (gbp + omega * dp, -gaq - omega * dq, gby - omega * dp, -gax + omega * dq)


def get_model(name: str, n_modes: int = 2) -> HamiltonianModel:
    """Model lookup by config name."""
    if name == "product1d":
        return product_hamiltonian()
    if name == "schwarzschild":
        return schwarzschild_hamiltonian()
    if name == "nls":
        return nls_hamiltonian(n_modes)
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def schwarzschild_initial(preset: str = "constraint"):
    """Initial conditions for the geodesic runs.

    "constraint" recomputes p_t so that H(0) = m^2 / 2 with m = 1 at
    Q(0) = (0, 20, 0), p_r = 0, p_phi = -sqrt(20). "literal" is the widely
    quoted vector (0.982, 0, -4.472), which does not satisfy that
    constraint exactly; both are kept on purpose.
    """
    Q0 = np.array([0.0, 20.0, 0.0])
    if preset == "literal":
        P0 = np.array([0.982, 0.0, -4.472])
    elif preset == "constraint":
        r = 20.0
        u = 1.0 - 2.0 / r
        pphi = -np.sqrt(r)
        pt = np.sqrt(u * (1.0 + pphi**2 / r**2))
        P0 = np.array([pt, 0.0, pphi])
    else:
        raise ValueError(f"unknown initial-condition preset {preset!r}")
    return Q0, P0


def default_initial_condition(name: str, n_modes: int = 2, preset: str = "constraint"):
    """Default (Q0, P0) per system, matching the benchmark experiments."""
    if name == "product1d":
        return np.array([-3.0]), np.array([0.0])
    if name == "schwarzschild":
        return schwarzschild_initial(preset)
    if name == "nls":
        Q0 = np.full(n_modes, 0.01)
        P0 = np.zeros(n_modes)
        Q0[0] = 3.0
        P0[0] = 1.0
        return Q0, P0
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
