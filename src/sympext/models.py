"""Built-in Hamiltonian systems behind a single evaluation interface.

Every model evaluates H and its two gradient blocks at arbitrary mixed
arguments: the integrator feeds both (q, y) and (x, p) pairs, so the first
argument always plays the position role and the second the momentum role,
regardless of which copy of phase space it came from. All callables
broadcast over leading batch axes; the trailing axis has length ``dim``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .state import ExtendedState, as_parts

Array = np.ndarray

MODEL_NAMES = ("product1d", "schwarzschild", "nls")

_HORIZON_MARGIN = 1e-9


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluation interface for one Hamiltonian H(a, b) with closed-form gradients.

    Give either ``grad_pair``, returning both gradient blocks at once, or
    the two blocks ``grad_a`` and ``grad_b`` separately.
    """

    name: str
    dim: int
    value: Callable[[Array, Array], Array]
    grad_a: Callable[[Array, Array], Array] | None = None
    grad_b: Callable[[Array, Array], Array] | None = None
    grad_pair: Callable[[Array, Array], tuple[Array, Array]] | None = None

    def pair(self, a, b):
        """Both gradient blocks at once, sharing subexpressions when available."""
        if self.grad_pair is not None:
            return self.grad_pair(a, b)
        return self.grad_a(a, b), self.grad_b(a, b)


def product_hamiltonian() -> HamiltonianModel:
    """1-dof oscillator H(a, b) = (a^2 + 1)(b^2 + 1) / 2.

    Nonseparable, yet solvable in closed form (see ``sympext.oracles``),
    which makes it the workhorse for long-time error measurements.
    """

    def value(a, b):
        return 0.5 * (a[..., 0] ** 2 + 1.0) * (b[..., 0] ** 2 + 1.0)

    def grad_pair(a, b):
        return a * (b * b + 1.0), b * (a * a + 1.0)

    return HamiltonianModel("product1d", 1, value, grad_pair=grad_pair)


def schwarzschild_hamiltonian() -> HamiltonianModel:
    """Geodesic Hamiltonian in Schwarzschild coordinates.

    Positions are (t, r, phi) and momenta (p_t, p_r, p_phi), with

        H = [ (1 - 2/r)^(-1) p_t^2 - (1 - 2/r) p_r^2 - p_phi^2 / r^2 ] / 2.

    Valid outside the horizon, r > 2; evaluation refuses r <= 2 rather
    than returning huge values near the coordinate singularity. The t and
    phi coordinates are cyclic, so p_t and p_phi are first integrals.
    """

    def _radius(a):
        r = a[..., 1]
        if not np.all(r > 2.0 + _HORIZON_MARGIN):
            raise DomainError("inside horizon: Schwarzschild model needs r > 2")
        return r

    def value(a, b):
        r = _radius(a)
        u = 1.0 - 2.0 / r
        return 0.5 * (b[..., 0] ** 2 / u - u * b[..., 1] ** 2 - b[..., 2] ** 2 / r**2)

    def grad_pair(a, b):
        r = _radius(a)
        u = 1.0 - 2.0 / r
        du = 2.0 / (r * r)
        pt, pr, pphi = b[..., 0], b[..., 1], b[..., 2]
        ga = np.zeros_like(a)
        ga[..., 1] = 0.5 * (-du * (pt / u) ** 2 - du * pr**2) + pphi**2 / r**3
        gb = np.empty_like(b)
        gb[..., 0] = pt / u
        gb[..., 1] = -u * pr
        gb[..., 2] = -pphi / r**2
        return ga, gb

    return HamiltonianModel("schwarzschild", 3, value, grad_pair=grad_pair)


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

    def grad_pair(q, p):
        r2 = q * q + p * p
        gq = r2 * q
        gp = r2 * p
        qm, qn = q[..., :-1], q[..., 1:]
        pm, pn = p[..., :-1], p[..., 1:]
        pmpn = pm * pn
        qmqn = qm * qn
        gq[..., :-1] -= 2.0 * qm * (qn * qn - pn * pn) + 4.0 * pmpn * qn
        gq[..., 1:] -= 2.0 * qn * (qm * qm - pm * pm) + 4.0 * pmpn * qm
        gp[..., :-1] -= 2.0 * pm * (pn * pn - qn * qn) + 4.0 * pn * qmqn
        gp[..., 1:] -= 2.0 * pn * (pm * pm - qm * qm) + 4.0 * pm * qmqn
        return gq, gp

    return HamiltonianModel("nls", n_modes, value, grad_pair=grad_pair)


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
