"""Golden digests: short runs of every driver, pinned bit for bit.

Each case hashes the raw bytes of what a public entry point returns
(sample times and packed states, or the section arrays). A refactor that
keeps the arithmetic order keeps every digest; any change in the last bit
of any sample changes one.

Most cases use only IEEE arithmetic and square roots. Three groups also
pass through a transcendental function from the math library: the
``batch`` cases (numpy's vectorized cos/sin for the per-lane rotations)
and every ``schwarzschild`` case (``r**3`` in its gradient); their digests
are tied to the numpy and libm build. On a new platform where only those
fail, check the code at a known-good commit and re-record its digests
with ``python tests/test_golden.py``, which prints the table.
"""
import hashlib
import math

import numpy as np
import pytest

import sympext as sx
from sympext.integrator import apply_scheme, build_scheme

# Per model: (factory, Q0, P0, delta, omega); steps and offsets stay short.
MODELS = {
    "product1d": (sx.product_hamiltonian, [-3.0], [0.0], 0.05, 20.0),
    "schwarzschild": (sx.schwarzschild_hamiltonian, *sx.schwarzschild_initial("constraint"), 0.2, 2.0),
    "nls2": (lambda: sx.nls_hamiltonian(2), [3.0, 0.01], [1.0, 0.0], 0.01, 100.0),
}
N_STEPS = 30
STRIDE = 7
T0 = 0.5


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _traj_digest(traj) -> str:
    return _digest(traj.times, traj.states)


def _perturbed_state(Q0, P0, seed):
    """A point near the embedding with distinct copies (stays off any horizon)."""
    rng = np.random.default_rng(seed)
    Q0 = np.asarray(Q0, dtype=float)
    P0 = np.asarray(P0, dtype=float)
    return sx.ExtendedState(*(base + 0.01 * rng.uniform(-1.0, 1.0, base.shape) for base in (Q0, P0, Q0, P0)))


def _clocked_force(pos, mom, t):
    # Depends on time, so the per-kind stage clocks and t0 enter the digest.
    return -0.05 * mom + 0.01 * math.cos(3.0 * t)


def _run(case: str, name: str) -> str:
    factory, Q0, P0, delta, omega = MODELS[name]
    model = factory()
    Q0 = np.asarray(Q0, dtype=float)
    P0 = np.asarray(P0, dtype=float)
    if case in ("integrate2", "integrate4"):
        cfg = sx.IntegratorConfig(delta, omega, int(case[-1]), N_STEPS)
        return _traj_digest(sx.integrate(Q0, P0, cfg, model, stride=STRIDE, t0=T0))
    if case == "linear_drag":
        cfg = sx.IntegratorConfig(delta, omega, 4, N_STEPS)
        return _traj_digest(sx.integrate(Q0, P0, cfg, model, force=sx.linear_drag(0.05), stride=STRIDE, t0=T0))
    if case == "clocked_force":
        cfg = sx.IntegratorConfig(delta, omega, 2, N_STEPS)
        return _traj_digest(sx.integrate(Q0, P0, cfg, model, force=_clocked_force, stride=STRIDE, t0=T0))
    if case == "batch":
        lanes = 3
        Qb = Q0 + 0.01 * np.arange(lanes)[:, None] * np.ones_like(Q0)
        Pb = np.tile(P0, (lanes, 1))
        omegas = omega * np.array([1.0, 0.5, 2.0])
        return _traj_digest(sx.integrate_batch(Qb, Pb, delta, omegas, 4, N_STEPS, model, stride=STRIDE))
    s = _perturbed_state(Q0, P0, seed=len(name))
    if case == "apply_scheme_backward":
        out = apply_scheme(s, build_scheme(4), -delta, omega, model)
    elif case == "flow_a":
        out = sx.flow_a(s, delta, model)
    elif case == "flow_b":
        out = sx.flow_b(s, delta, model)
    elif case == "flow_a_forced":
        out = sx.flow_a(s, delta, model, force=_clocked_force, t=T0)
    elif case == "flow_b_forced":
        out = sx.flow_b(s, delta, model, force=_clocked_force, t=T0)
    elif case == "flow_c":
        out = sx.flow_c(s, delta, omega)
    else:
        raise KeyError(case)
    return _digest(*out)


CASES = (
    "integrate2", "integrate4", "linear_drag", "clocked_force", "batch",
    "apply_scheme_backward", "flow_a", "flow_b", "flow_a_forced", "flow_b_forced", "flow_c",
)

GOLDEN = {
    "integrate2/nls2": "271cc8d27b27e152a59a0308449fd3f2",
    "integrate4/nls2": "d257d9dbe236cc588f5f746eb8e93409",
    "linear_drag/nls2": "e7e5b099ccf500c42a17cb6639a5cc8d",
    "clocked_force/nls2": "358e4ee9539cfb84dec18264ea128a6b",
    "batch/nls2": "201f9a055722de7b0e812ac7eeadcca7",
    "apply_scheme_backward/nls2": "b8054b736ebec5f0f512833b98030354",
    "flow_a/nls2": "8a9a0ecf1ab342b82e44dde10d432c02",
    "flow_b/nls2": "5e023bad0b016240687d433140309842",
    "flow_a_forced/nls2": "6a140809dc2c3b19f5ea132f87d8457e",
    "flow_b_forced/nls2": "07e8630650f4754ee8ec86e3066405da",
    "flow_c/nls2": "eb51ee96d833204d512122135decbea8",
    "integrate2/product1d": "c5a100873b11e355b48ac58fb64c88ad",
    "integrate4/product1d": "e81efa6005b586bdcb149858a53b3869",
    "linear_drag/product1d": "ba24a27a5f08803561403b7103256e5d",
    "clocked_force/product1d": "c8a727c852e70254bd5820cd95ceb655",
    "batch/product1d": "a59dd96e54acbdca0351372b0ef3cf10",
    "apply_scheme_backward/product1d": "09f48fe892c6997c5ea571171bd77959",
    "flow_a/product1d": "1c3b87134ca8be3f9785f1db57fc5ed7",
    "flow_b/product1d": "6519f9fea2283b31eb663991f1d6782a",
    "flow_a_forced/product1d": "d0d3f1899f93902678a32690eae626e8",
    "flow_b_forced/product1d": "f64073f01a70546b86f23d775ef9e822",
    "flow_c/product1d": "25b582eb9bdc56a537e5cea038765872",
    "integrate2/schwarzschild": "6933b29c89b329d9635d401790457e3b",
    "integrate4/schwarzschild": "abd86b2d57fa4675ee0ac5ada677cc67",
    "linear_drag/schwarzschild": "927c85fc2434b456cfad7e13b553041c",
    "clocked_force/schwarzschild": "846499a3ad986e3d7ed520f15ea7100e",
    "batch/schwarzschild": "c70da56ab5e782c13201bd0b5749ad9e",
    "apply_scheme_backward/schwarzschild": "c4619a7b72604697d7c9d1de58251413",
    "flow_a/schwarzschild": "fa3adebc1df3e75cec7cafbb7648eede",
    "flow_b/schwarzschild": "83e6ac041dad258b3f931b52fb613c99",
    "flow_a_forced/schwarzschild": "7d34759be4ffd6b87c9731ebf07d3a69",
    "flow_b_forced/schwarzschild": "f152aa860aae627f11b902fd5d57fe5c",
    "flow_c/schwarzschild": "6c674e1c37cde07f2fa866c28e44edcc",
    "poincare_section": "3ab059ba0b858af4180adde51edfcc23",
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("case", CASES)
def test_golden_run(case, name):
    assert _run(case, name) == GOLDEN[f"{case}/{name}"]


def _section_digest() -> str:
    section = sx.poincare_section(
        sx.product_hamiltonian(), [(0.5, 0.5), (-1.0, 1.0), (1.5, -0.5)], 2.0, 10.0,
        max_crossings=4, max_steps=20_000,
    )
    return _digest(section.points, section.y_values, section.crossing_index, section.trajectory_id)


def test_golden_poincare_section():
    assert _section_digest() == GOLDEN["poincare_section"]


if __name__ == "__main__":
    for key in GOLDEN:
        case, _, name = key.partition("/")
        print(f'    "{key}": "{_section_digest() if key == "poincare_section" else _run(case, name)}",')
