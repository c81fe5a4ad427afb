"""Golden digests: short runs of every driver, pinned bit for bit.

Each case hashes the raw bytes of what a public entry point returns
(sample times and packed states, RK4 series, vector-field values, or the
section arrays). A refactor that
keeps the arithmetic order keeps every digest; any change in the last bit
of any sample changes one.

Most cases use only IEEE arithmetic and square roots. The ``batch`` cases
also pass through numpy's vectorized cos/sin for the per-lane rotations,
so their digests are tied to the numpy build. On a new platform where only
those fail, check the code at a known-good commit and re-record its
digests with ``python tests/test_golden.py``, which prints the table.
"""
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympext as sx
from sympext import analysis
from sympext.integrator import apply_scheme, build_scheme

# Per model: (factory, Q0, P0, delta, omega); steps and offsets stay short.
MODELS = {
    "product1d": (sx.product_hamiltonian, [-3.0], [0.0], 0.05, 20.0),
    "schwarzschild": (sx.schwarzschild_hamiltonian, *sx.schwarzschild_initial("constraint"), 0.2, 2.0),
    "nls2": (lambda: sx.nls_hamiltonian(2), [3.0, 0.01], [1.0, 0.0], 0.01, 100.0),
    "nls5": (lambda: sx.nls_hamiltonian(5), [3.0, 0.01, 0.01, 0.01, 0.01], [1.0, 0.0, 0.0, 0.0, 0.0], 0.01, 100.0),
}
N_STEPS = 30
STRIDE = 7
T0 = 0.5
SECTION_RTOLS = (1e-5, 1e-6)


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


def _clocked_force(*abt):
    # F(a0.., b0.., t): depends on time, so the per-kind stage clocks and t0 enter the digest.
    return [-0.05 * b + 0.01 * math.cos(3.0 * abt[-1]) for b in abt[len(abt) // 2:-1]]


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
    lanes = 3
    Qb = Q0 + 0.01 * np.arange(lanes)[:, None] * np.ones_like(Q0)
    Pb = np.tile(P0, (lanes, 1))
    if case == "batch":
        omegas = omega * np.array([1.0, 0.5, 2.0])
        return _traj_digest(sx.integrate_batch(Qb, Pb, delta, omegas, 4, N_STEPS, model, stride=STRIDE))
    if case in ("rk4", "rk4_forced", "rk4_batch"):
        force = _clocked_force if case == "rk4_forced" else None
        Qr, Pr = (Qb, Pb) if case == "rk4_batch" else (Q0, P0)
        series = sx.rk4_trajectory(model, Qr, Pr, delta, N_STEPS, stride=STRIDE, force=force)
        return _digest(series.times, series.Q, series.P)
    if case == "vector_field":
        rng = np.random.default_rng(len(name) + 1)
        parts = (base + 0.01 * rng.uniform(-1.0, 1.0, (4,) + base.shape) for base in (Q0, P0, Q0, P0))
        return _digest(*sx.extended_vector_field(model, omega, *parts))
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
    "rk4", "rk4_forced", "rk4_batch", "vector_field",
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
    "integrate2/schwarzschild": "7e6ac910e5085a80406778e7072836a7",
    "integrate4/schwarzschild": "9fc3a869f59dd6de93bc5334831848fa",
    "linear_drag/schwarzschild": "668399fb99fa227cbb5170ab8d3c0d49",
    "clocked_force/schwarzschild": "e5a75df0f2760872937aac6e2df873ce",
    "batch/schwarzschild": "4a39ca8f626c5767f88e2501707ba80c",
    "apply_scheme_backward/schwarzschild": "c4619a7b72604697d7c9d1de58251413",
    "flow_a/schwarzschild": "fa3adebc1df3e75cec7cafbb7648eede",
    "flow_b/schwarzschild": "83e6ac041dad258b3f931b52fb613c99",
    "flow_a_forced/schwarzschild": "7d34759be4ffd6b87c9731ebf07d3a69",
    "flow_b_forced/schwarzschild": "f152aa860aae627f11b902fd5d57fe5c",
    "flow_c/schwarzschild": "6c674e1c37cde07f2fa866c28e44edcc",
    "rk4/nls2": "5651d5b943619000a906ce77aea33b64",
    "rk4_forced/nls2": "b0979f5355c99146a0396bc1761de505",
    "rk4_batch/nls2": "cd04fef25e5816210ab801dfd0e41aae",
    "vector_field/nls2": "2d344b81df5130e47a690b6d500f4fa6",
    "integrate2/nls5": "29af103b0aafe55df8b4ffda3c122033",
    "integrate4/nls5": "5b344f31247de71a7afc2078fe7bc0ac",
    "linear_drag/nls5": "6bdd7007518cd012134477eddde345ba",
    "clocked_force/nls5": "3915dd923f03389655eafd62e549f044",
    "batch/nls5": "9478d73b4498ff4674f0b4b23f07777d",
    "apply_scheme_backward/nls5": "a5cc06c0744493f5455797fc059579a9",
    "flow_a/nls5": "811484731763861df1efcbff8bdcb30b",
    "flow_b/nls5": "f6def250f8a479e8e59fea5dd8b73272",
    "flow_a_forced/nls5": "962fbdd02b622e2e024880c4da6b8ae5",
    "flow_b_forced/nls5": "1e6e937533b259b03e65acfcf4783e06",
    "flow_c/nls5": "49d4443d64846b27b37800d7d8c98b6e",
    "rk4/nls5": "d18b5d83f5815a1c2d258e09c509eed4",
    "rk4_forced/nls5": "8124db1f14572adce95dc510138b1fd2",
    "rk4_batch/nls5": "e12f209a19bb8c35046b3def99d79d78",
    "vector_field/nls5": "53e7d97a2d21894109c9fb881a4a0ae6",
    "rk4/product1d": "3110e29b1da09b778bcbcfc47e2aecb7",
    "rk4_forced/product1d": "d4c38d8e5a8689cf819792a7255b9210",
    "rk4_batch/product1d": "6ed4479cb33757851041b17c7a3d4d36",
    "vector_field/product1d": "a198eb3acb93461fbdc68409dd0b1fb0",
    "rk4/schwarzschild": "6c0374d723b85159786659898b17c6aa",
    "rk4_forced/schwarzschild": "85c5a00af6279c6ca89fda5dfbaba743",
    "rk4_batch/schwarzschild": "d3eb63909b175c1e5ae1db1c8cd9f700",
    "vector_field/schwarzschild": "f55875780e70a584f4e4601458f3ee7e",
    "poincare_section": "3ab059ba0b858af4180adde51edfcc23",
    "poincare_section/rtol=1e-05": "d7e76551a3c19f66ab247bd22a123a51",
    "poincare_section/rtol=1e-06": "2ff7e84587a0e4667aa6c250392beb48",
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("case", CASES)
def test_golden_run(case, name):
    assert _run(case, name) == GOLDEN[f"{case}/{name}"]


SECTION_GRID = [(0.5, 0.5), (-1.0, 1.0), (1.5, -0.5)]


def _section_digest() -> str:
    section = sx.poincare_section(sx.product_hamiltonian(), SECTION_GRID, 2.0, 10.0, max_crossings=4, max_steps=20_000)
    return _digest(section.points, section.y_values, section.crossing_index, section.trajectory_id)


def _section_accounting_digest(shell_rtol: float) -> str:
    """A section with a tightened shell tolerance, so that crossings are dropped.

    At 1e-5 some lanes fill their crossings mid-run while others run to
    ``max_steps``; at 1e-6 most crossings are dropped. The digest covers the
    dropped count and the number of trajectories as well as the points.
    """
    saved = analysis._SHELL_RTOL
    analysis._SHELL_RTOL = shell_rtol
    try:
        section = sx.poincare_section(sx.product_hamiltonian(), SECTION_GRID, 2.0, 10.0,
                                      max_crossings=40, max_steps=20_000)
    finally:
        analysis._SHELL_RTOL = saved
    return _digest(section.points, section.y_values, section.crossing_index, section.trajectory_id,
                   [section.dropped_crossings, section.n_trajectories])


def test_golden_poincare_section():
    assert _section_digest() == GOLDEN["poincare_section"]


@pytest.mark.parametrize("shell_rtol", SECTION_RTOLS)
def test_golden_section_accounting(shell_rtol):
    assert _section_accounting_digest(shell_rtol) == GOLDEN[f"poincare_section/rtol={shell_rtol:g}"]


def test_golden_digests_without_avx512_dispatch():
    # numpy picks its loops by CPU; with the AVX512 loops it found switched off, every digest must hold.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    avx512 = [f for f in __cpu_dispatch__ if __cpu_features__.get(f) and (f.startswith("AVX512") or f == "X86_V4")]
    script = (
        "import test_golden as g\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        f"print('enabled:', [f for f in {avx512!r} if __cpu_features__[f]])\n"
        "print('moved:', [key for key in g.GOLDEN if g._golden_value(key) != g.GOLDEN[key]])\n"
    )
    here = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(Path(sx.__file__).parents[1]), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(avx512))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["enabled: []", "moved: []"]


def _golden_value(key: str) -> str:
    case, _, name = key.partition("/")
    if case != "poincare_section":
        return _run(case, name)
    return _section_accounting_digest(float(name.partition("=")[2])) if name else _section_digest()


if __name__ == "__main__":
    for key in GOLDEN:
        print(f'    "{key}": "{_golden_value(key)}",')
