"""Flow maps, composition schemes, and stepping drivers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympext as sx
from sympext.integrator import apply_scheme, build_scheme, triple_jump_gamma


@pytest.fixture
def product():
    return sx.product_hamiltonian()


def random_state(rng, d=1, span=1.5):
    return sx.ExtendedState(*(rng.uniform(-span, span, size=d) for _ in range(4)))


class TestFlowMaps:
    def test_flow_a_product_example(self, product):
        s = sx.embed([-3.0], [0.0])
        out = sx.flow_a(s, 0.1, product)
        np.testing.assert_allclose(
            np.concatenate(out), [-3.0, 0.3, -3.0, 0.0], rtol=0, atol=1e-15
        )

    def test_flow_a_zero_delta_identity(self, product):
        s = sx.ExtendedState(*(np.array([v]) for v in (0.3, -0.7, 1.1, 0.2)))
        out = sx.flow_a(s, 0.0, product)
        assert all(np.array_equal(a, b) for a, b in zip(out, s))

    def test_flow_a_constant_gradient_drift(self):
        # H(a, b) = b: position copy 2 drifts at unit rate, nothing else moves.
        free = sx.HamiltonianModel(
            "free", 1,
            value=lambda a, b: b[..., 0],
            grad_a=lambda a, b: np.zeros_like(a),
            grad_b=lambda a, b: np.ones_like(b),
        )
        out = sx.flow_a(sx.embed([0.0], [0.0]), 1.0, free)
        np.testing.assert_array_equal(np.concatenate(out), [0.0, 0.0, 1.0, 0.0])

    def test_flow_b_product_example(self, product):
        s = sx.embed([-3.0], [0.0])
        out = sx.flow_b(s, 0.1, product)
        np.testing.assert_allclose(
            np.concatenate(out), [-3.0, 0.0, -3.0, 0.3], rtol=0, atol=1e-15
        )

    def test_flow_b_constant_gradient_kick(self):
        # H(a, b) = a: momentum copy 2 is kicked at unit rate.
        lin = sx.HamiltonianModel(
            "linear", 1,
            value=lambda a, b: a[..., 0],
            grad_a=lambda a, b: np.ones_like(a),
            grad_b=lambda a, b: np.zeros_like(b),
        )
        out = sx.flow_b(sx.embed([0.0], [0.0]), 1.0, lin)
        np.testing.assert_array_equal(np.concatenate(out), [0.0, 0.0, 0.0, -1.0])

    def test_flow_c_quarter_turn(self):
        s = sx.ExtendedState(*(np.array([v]) for v in (1.0, 0.0, 0.0, 0.0)))
        out = sx.flow_c(s, math.pi / 4.0, 1.0)  # rotation angle pi/2
        np.testing.assert_allclose(
            np.concatenate(out), [0.5, -0.5, 0.5, 0.5], rtol=0, atol=1e-15
        )

    def test_flow_c_full_turn_identity(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, d=3)
        out = sx.flow_c(s, math.pi, 1.0)  # rotation angle 2 pi
        for a, b in zip(out, s):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_flow_c_equal_copies_fixed(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=2)
        p = rng.normal(size=2)
        s = sx.ExtendedState(q, p, q.copy(), p.copy())
        out = sx.flow_c(s, 0.37, 5.0)
        for a, b in zip(out, s):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-16)

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(-3.0, 3.0),
        omega=st.floats(0.0, 50.0),
        seed=st.integers(0, 2**31),
    )
    def test_flow_c_preserves_sums_and_difference_norm(self, delta, omega, seed):
        rng = np.random.default_rng(seed)
        s = random_state(rng, d=2)
        out = sx.flow_c(s, delta, omega)
        np.testing.assert_allclose(out.q + out.x, s.q + s.x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.p + out.y, s.p + s.y, rtol=0, atol=1e-14)
        n0 = np.linalg.norm(np.concatenate([s.q - s.x, s.p - s.y]))
        n1 = np.linalg.norm(np.concatenate([out.q - out.x, out.p - out.y]))
        assert abs(n1 - n0) <= 1e-14 * max(1.0, n0)

    def test_non_finite_gradient_reported(self):
        bad = sx.HamiltonianModel(
            "bad", 2,
            value=lambda a, b: a[..., 0],
            grad_a=lambda a, b: np.array([np.inf, 0.0]),
            grad_b=lambda a, b: np.zeros_like(b),
        )
        with pytest.raises(sx.EvaluationError, match=r"grad_a\[0\]"):
            sx.flow_a(sx.embed([0.0, 0.0], [0.0, 0.0]), 0.1, bad)


class TestTripleJump:
    def test_gamma_order4(self):
        assert triple_jump_gamma(4) == pytest.approx(1.3512071919596578, abs=1e-15)

    def test_gamma_order6(self):
        assert triple_jump_gamma(6) == pytest.approx(1.1746717580893635, abs=1e-15)

    def test_shifted_variant_differs(self):
        assert triple_jump_gamma(4, "shifted") == pytest.approx(1.0 / (2.0 - 2.0**0.2), abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(order=st.integers(2, 7).map(lambda n: 2 * n))
    def test_middle_substep_runs_backward(self, order):
        g = triple_jump_gamma(order)
        assert g > 0.5
        assert 1.0 - 2.0 * g < 0.0
        assert 2.0 * g + (1.0 - 2.0 * g) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("order", [3, 2, 0, -4])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            triple_jump_gamma(order)


class TestBuildScheme:
    def test_order2_strang(self):
        scheme = build_scheme(2)
        assert scheme.stages == (
            ("A", 0.5), ("B", 0.5), ("C", 1.0), ("B", 0.5), ("A", 0.5)
        )

    def test_order4_merged_stage_count(self):
        assert len(build_scheme(4)) == 13

    def test_order6_merged_stage_count(self):
        assert len(build_scheme(6)) == 3 * 13 - 2

    @settings(max_examples=10, deadline=None)
    @given(order=st.integers(1, 5).map(lambda n: 2 * n))
    def test_scheme_structure(self, order):
        scheme = build_scheme(order)
        assert scheme.stages == scheme.stages[::-1]
        for kind in "ABC":
            total = sum(frac for k, frac in scheme.stages if k == kind)
            assert total == pytest.approx(1.0, abs=1e-13)
        # seam merging leaves no adjacent same-kind stages
        kinds = [k for k, _ in scheme.stages]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            build_scheme(3)


class TestStep:
    def test_zero_delta_identity(self, product):
        rng = np.random.default_rng(1)
        s = random_state(rng)
        out = apply_scheme(s, build_scheme(4), 0.0, 20.0, product)
        for a, b in zip(out, s):
            np.testing.assert_array_equal(a, b)

    def test_palindromic_reversibility(self, product):
        rng = np.random.default_rng(2)
        scheme = build_scheme(4)
        for _ in range(10):
            s = random_state(rng)
            forward = apply_scheme(s, scheme, 0.05, 20.0, product)
            back = apply_scheme(forward, scheme, -0.05, 20.0, product)
            for a, b in zip(back, s):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_local_error_against_reference(self, product):
        # One order-2 step against a certified run of the doubled system:
        # the discrepancy must be third order in the step. The prefactor is
        # commutator-sized (about 150 at this binding strength), pinned here
        # from measurement.
        omega = 20.0
        wrapper = sx.extended_model(product, omega)
        deltas = (0.02, 0.01, 0.005)
        gaps = []
        for delta in deltas:
            s = sx.embed([-3.0], [0.0])
            out = sx.step(s, sx.IntegratorConfig(delta, omega, 2, 1), build_scheme(2), product)
            ref = sx.reference_flow(
                wrapper, np.array([-3.0, -3.0]), np.array([0.0, 0.0]), delta, n_samples=1
            )
            ref_state = np.array([ref.Q[-1, 0], ref.P[-1, 0], ref.Q[-1, 1], ref.P[-1, 1]])
            gaps.append(float(np.max(np.abs(np.concatenate(out) - ref_state))))
            assert gaps[-1] < 200.0 * delta**3
        assert sx.fit_loglog_slope(deltas, gaps) == pytest.approx(3.0, abs=0.3)

    def test_scheme_order_mismatch_rejected(self, product):
        cfg = sx.IntegratorConfig(0.1, 1.0, 4, 1)
        with pytest.raises(ValueError, match="order"):
            sx.step(sx.embed([0.5], [0.0]), cfg, build_scheme(2), product)

    def test_stage_index_attached_to_model_errors(self):
        model = sx.schwarzschild_hamiltonian()
        Q0 = np.array([0.0, 2.5, 0.0])  # barely outside the horizon: first kick dives in
        P0 = np.array([5.0, -40.0, 0.0])
        cfg = sx.IntegratorConfig(0.5, 1.0, 2, 1)
        with pytest.raises(sx.DomainError, match=r"stage \d"):
            sx.step(sx.embed(Q0, P0), cfg, build_scheme(2), model)


class TestDissipative:
    def test_zero_force_bitwise_equal(self, product):
        rng = np.random.default_rng(3)
        s = random_state(rng)
        cfg = sx.IntegratorConfig(0.05, 20.0, 4, 1)
        scheme = build_scheme(4)
        plain = sx.step(s, cfg, scheme, product)
        forced = sx.step(s, cfg, scheme, product, force=lambda pos, mom, t: np.zeros_like(mom))
        for a, b in zip(plain, forced):
            np.testing.assert_array_equal(a, b)

    def test_dissipative_needs_matching_order(self, product):
        cfg = sx.IntegratorConfig(0.05, 20.0, 4, 1)
        with pytest.raises(ValueError):
            sx.step(sx.embed([0.1], [0.2]), cfg, build_scheme(2), product, force=sx.linear_drag(0.1))

    def test_richardson_order_at_least_two(self, product):
        # Forced product run against the certified dissipative reference.
        gamma, T = 0.05, 10.0
        force = sx.linear_drag(gamma)
        ref = sx.reference_flow(
            product, np.array([-3.0]), np.array([0.0]), T, n_samples=10, force=force
        )
        errs = []
        deltas = (0.02, 0.01, 0.005)
        for delta in deltas:
            cfg = sx.IntegratorConfig(delta, 20.0, 2, round(T / delta))
            traj = sx.integrate(
                np.array([-3.0]), np.array([0.0]), cfg, product, force=force
            )
            Q, P = traj.projected()
            idx = np.searchsorted(traj.times, ref.times)
            errs.append(float(np.max(np.hypot(Q[idx, 0] - ref.Q[:, 0], P[idx, 0] - ref.P[:, 0]))))
        slope = sx.fit_loglog_slope(deltas, errs)
        assert slope >= 2.0 - 0.3


class TestIntegrate:
    def test_zero_steps_single_sample(self, product):
        cfg = sx.IntegratorConfig(0.1, 20.0, 4, 0)
        traj = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product)
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.states[0], [[-3.0], [0.0], [-3.0], [0.0]])

    def test_determinism_bit_identical(self, product):
        cfg = sx.IntegratorConfig(0.01, 20.0, 4, 500)
        a = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product)
        b = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_matches_repeated_steps(self, product):
        cfg = sx.IntegratorConfig(0.02, 10.0, 4, 25)
        traj = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product)
        s = sx.embed([-3.0], [0.0])
        scheme = build_scheme(4)
        for _ in range(cfg.n_steps):
            s = sx.step(s, cfg, scheme, product)
        np.testing.assert_array_equal(traj.states[-1], s.to_array())

    def test_stride_keeps_final_state(self, product):
        cfg = sx.IntegratorConfig(0.01, 20.0, 2, 103)
        traj = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product, stride=10)
        assert len(traj) == 12
        assert traj.times[-1] == pytest.approx(103 * 0.01, rel=1e-15)

    def test_observers_called_at_samples(self, product):
        seen = []
        cfg = sx.IntegratorConfig(0.01, 20.0, 2, 20)
        sx.integrate(
            np.array([-3.0]), np.array([0.0]), cfg, product,
            observers=[lambda t, s: seen.append(t)], stride=5,
        )
        assert len(seen) == 5

    def test_escape_guard_aborts_with_partial(self):
        # Cubic blowup: solutions of dq/dt = q^3-ish escape in finite time.
        blow = sx.HamiltonianModel(
            "blowup", 1,
            value=lambda a, b: 0.25 * (a[..., 0] ** 4 + b[..., 0] ** 4),
            grad_a=lambda a, b: a**3,
            grad_b=lambda a, b: b**3,
        )
        cfg = sx.IntegratorConfig(0.5, 0.0, 2, 2000)
        with pytest.raises(sx.TrajectoryEscapedError, match="escaped") as err:
            sx.integrate(np.array([2.0]), np.array([2.0]), cfg, blow, escape_bound=1e6)
        partial = err.value.partial
        assert partial is not None and len(partial) >= 1
        assert err.value.last_valid_index == len(partial) - 1

    def test_dimension_mismatch_rejected(self, product):
        cfg = sx.IntegratorConfig(0.1, 1.0, 2, 1)
        with pytest.raises(ValueError, match="dimension"):
            sx.integrate(np.array([1.0, 2.0]), np.array([0.0, 0.0]), cfg, product)

    @pytest.mark.parametrize("name, Q0, P0", [
        ("product1d", [[-3.0], [-2.0]], [[0.0], [0.0]]),
        ("schwarzschild", [[0.0, 20.0, 0.0], [0.0, 21.0, 0.0]], [[0.97, 0.0, -4.47], [0.97, 0.0, -4.47]]),
        ("nls", [[3.0, 0.01], [2.9, 0.02]], [[1.0, 0.0], [1.0, 0.0]]),
    ], ids=["product1d", "schwarzschild", "nls"])
    def test_batch_matches_single(self, name, Q0, P0):
        model = sx.get_model(name)
        cfg = sx.IntegratorConfig(0.02, 15.0, 4, 50)
        single = sx.integrate(np.array(Q0[0]), np.array(P0[0]), cfg, model)
        batch = sx.integrate_batch(
            np.array(Q0), np.array(P0), 0.02, np.array([15.0, 15.0]), 4, 50, model,
        )
        np.testing.assert_array_equal(batch.states[:, 0], single.states)

    def test_shifted_variant_order4_is_not_fourth_order(self, product):
        # The arbitration behind the default composition coefficient: the
        # alternative exponent never cancels the third-order error term.
        errs = {}
        for variant in ("standard", "shifted"):
            per_delta = []
            for delta in (0.02, 0.01, 0.005):
                cfg = sx.IntegratorConfig(delta, 20.0, 4, round(10.0 / delta))
                traj = sx.integrate(
                    np.array([-3.0]), np.array([0.0]), cfg, product, variant=variant
                )
                Q, P = traj.projected()
                qe, pe = sx.exact_series(-3.0, traj.times)
                per_delta.append(float(np.max(np.hypot(Q[:, 0] - qe, P[:, 0] - pe))))
            errs[variant] = sx.fit_loglog_slope((0.02, 0.01, 0.005), per_delta)
        assert errs["standard"] > 3.7
        assert errs["shifted"] < 3.0


class TestSymplecticity:
    def test_flows_and_steps_are_symplectic(self, product):
        from sympext.checks import _state_map, _symplectic_defect

        rng = np.random.default_rng(11)
        nls = sx.nls_hamiltonian(2)
        scheme = build_scheme(4)
        for model in (product, nls):
            d = model.dim
            maps = [
                _state_map(lambda s: sx.flow_a(s, 0.01, model), d),
                _state_map(lambda s: sx.flow_b(s, 0.01, model), d),
                _state_map(lambda s: sx.flow_c(s, 0.01, 5.0), d),
                _state_map(lambda s: apply_scheme(s, scheme, 0.01, 5.0, model), d),
            ]
            for _ in range(5):
                z0 = rng.uniform(-1.0, 1.0, size=4 * d)
                for fn in maps:
                    assert _symplectic_defect(fn, z0, d) <= 1e-6


class TestBindingAndConservation:
    def test_copy_distance_within_theoretical_bound(self, product):
        # The restraint keeps the copies within O(1/omega) of each other;
        # in the resolved regime (2 omega delta well below 1) the measured
        # distances sit far below the bound itself.
        omegas = np.array([20.0, 40.0, 80.0, 160.0])
        traj = sx.integrate_batch(
            np.full((4, 1), -3.0), np.zeros((4, 1)), 1e-3, omegas, 4,
            round(20.0 / 1e-3), product, stride=5,
        )
        q, _, x, _ = traj.parts()
        worst = np.max(np.abs(q[:, :, 0] - x[:, :, 0]), axis=0)
        assert np.all(worst <= 1.0 / omegas)

    def test_oracle_triangle_small_step(self, product):
        # Proposed integrator at tiny step, certified reference, and the
        # closed form agree pairwise on the product system.
        T, delta = 1.0, 2e-4
        cfg = sx.IntegratorConfig(delta, 20.0, 4, round(T / delta))
        traj = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product, stride=500)
        Q, P = traj.projected()
        qe, pe = sx.exact_series(-3.0, traj.times)
        assert np.max(np.hypot(Q[:, 0] - qe, P[:, 0] - pe)) <= 1e-10
        ref = sx.reference_flow(product, np.array([-3.0]), np.array([0.0]), T, n_samples=10)
        qe2, pe2 = sx.exact_series(-3.0, ref.times)
        assert np.max(np.hypot(ref.Q[:, 0] - qe2, ref.P[:, 0] - pe2)) <= 1e-10

    def test_nls_mass_drift_bounded(self):
        # Desk-scale non-secularity of the total mass; the drift-ratio
        # comparison against RK4 needs the long horizon and lives in the
        # acceptance battery.
        from sympext.analysis import drift_is_bounded

        model = sx.nls_hamiltonian(2)
        Q0 = np.array([3.0, 0.01])
        P0 = np.array([1.0, 0.0])
        delta, omega, T = 0.01, 100.0, 500.0
        cfg = sx.IntegratorConfig(delta, omega, 4, round(T / delta))
        traj = sx.integrate(Q0, P0, cfg, model, stride=10)
        total = sx.nls_masses(*traj.projected()).total
        assert drift_is_bounded(total - total[0])
        assert np.max(np.abs(total - total[0])) / total[0] < 0.01

    def test_dissipative_schwarzschild_stays_bounded(self):
        model = sx.schwarzschild_hamiltonian()
        Q0, P0 = sx.schwarzschild_initial("literal")
        cfg = sx.IntegratorConfig(0.2, 2.0, 4, round(2000.0 / 0.2))
        traj = sx.integrate(
            Q0, P0, cfg, model, force=sx.linear_drag(1e-4), stride=20,
        )
        r = traj.projected()[0][:, 1]
        assert np.all(np.isfinite(traj.states))
        assert np.all(r > 2.0)
        assert np.max(np.abs(traj.states)) < 1e6
