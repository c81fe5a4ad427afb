"""Flow maps, composition schemes, and stepping drivers."""
import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympext as sx
from sympext.integrator import _NARROW_LANES, apply_scheme, build_scheme, triple_jump_gamma
from test_golden import _clocked_force


@pytest.fixture
def product():
    return sx.product_hamiltonian()


def random_state(rng, d=1, span=1.5):
    return sx.ExtendedState(*(rng.uniform(-span, span, size=d) for _ in range(4)))


def samples(series):
    """The stored states of a Trajectory, or the (Q, P) of an RK4 PhaseSeries packed alike as (..., 2, d)."""
    return series.states if isinstance(series, sx.Trajectory) else np.stack((series.Q, series.P), axis=-2)


def array_form(model):
    """The model with its gradient in array form only: every step calls it through the pack/unpack adapter."""
    return sx.HamiltonianModel(model.name, model.dim, model.value, grad_pair=model.pair)


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

class TestTripleJump:
    def test_gamma_order4(self):
        assert triple_jump_gamma(4) == pytest.approx(1.3512071919596578, abs=1e-15)

    def test_gamma_order6(self):
        assert triple_jump_gamma(6) == pytest.approx(1.1746717580893635, abs=1e-15)

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
            out = apply_scheme(s, build_scheme(2), delta, omega, product)
            ref = sx.reference_flow(
                wrapper, np.array([-3.0, -3.0]), np.array([0.0, 0.0]), delta, n_samples=1
            )
            ref_state = np.array([ref.Q[-1, 0], ref.P[-1, 0], ref.Q[-1, 1], ref.P[-1, 1]])
            gaps.append(float(np.max(np.abs(np.concatenate(out) - ref_state))))
            assert gaps[-1] < 200.0 * delta**3
        assert sx.fit_loglog_slope(deltas, gaps) == pytest.approx(3.0, abs=0.3)

    @pytest.mark.parametrize("kind", ["X", "a", "-"])
    def test_unknown_stage_kind_rejected(self, product, kind):
        scheme = sx.CompositionScheme((("A", 0.5), (kind, 1.0), ("A", 0.5)))
        with pytest.raises(ValueError, match="stage kind"):
            apply_scheme(sx.embed([0.5], [0.0]), scheme, 0.1, 1.0, product)


class TestOneReportPerFault:
    @pytest.mark.parametrize("entry", [
        "flow_a", "flow_b", "apply_scheme", "integrate", "integrate_batch", "rk4_trajectory",
    ])
    def test_non_finite_gradient_escapes(self, entry):
        nan = sx.HamiltonianModel(
            "nan", 1,
            value=lambda a, b: a[..., 0],
            grad_a=lambda a, b: np.full_like(a, np.nan),
            grad_b=lambda a, b: np.full_like(b, np.nan),
        )
        Q0, P0 = np.array([0.5]), np.array([0.0])
        call = {
            "flow_a": lambda: sx.flow_a(sx.embed(Q0, P0), 0.1, nan),
            "flow_b": lambda: sx.flow_b(sx.embed(Q0, P0), 0.1, nan),
            "apply_scheme": lambda: apply_scheme(sx.embed(Q0, P0), build_scheme(2), 0.1, 1.0, nan),
            "integrate": lambda: sx.integrate(Q0, P0, sx.IntegratorConfig(0.1, 1.0, 2, 3), nan),
            "integrate_batch": lambda: sx.integrate_batch(Q0[None], P0[None], 0.1, 1.0, 2, 3, nan),
            "rk4_trajectory": lambda: sx.rk4_trajectory(nan, Q0, P0, 0.1, 3),
        }[entry]
        with pytest.raises(sx.TrajectoryEscapedError, match=r"max \|state\| = inf") as err:
            call()
        assert len(err.value.partial) == 1  # the start, stored before the failing step

    def test_nan_lane_fails_alike_narrow_and_wide(self, product):
        # Lane 1 starts so far out that its step overflows to inf and then NaN; only NaN breaks the bound.
        Q0 = np.full((_NARROW_LANES + 1, 1), -3.0)
        Q0[1] = 1e100
        P0 = np.zeros_like(Q0)
        runs = {  # each run with the fewest samples its error must keep
            "components": (lambda lanes: sx.integrate_batch(Q0[:lanes], P0[:lanes], 0.1, 1.0, 2, 10, product,
                                                            escape_bound=math.inf), 2),
            "array_form": (lambda lanes: sx.integrate_batch(Q0[:lanes], P0[:lanes], 0.1, 1.0, 2, 10,
                                                            array_form(product), escape_bound=math.inf), 2),
            # A forced batch runs through RK4, which refuses the first inf.
            "forced": (lambda lanes: sx.rk4_trajectory(product, Q0[:lanes], P0[:lanes], 0.1, 10,
                                                       force=sx.linear_drag(0.05)), 1),
        }
        for form, (run, kept) in runs.items():
            errors = []
            for lanes in (2, _NARROW_LANES + 1):
                with pytest.raises(sx.TrajectoryEscapedError) as err, np.errstate(over="ignore", invalid="ignore"):
                    run(lanes)
                errors.append(err.value)
            narrow, wide = errors
            assert str(narrow) == str(wide), form
            assert "max |state| = inf" in str(narrow)
            assert kept <= len(narrow.partial) == len(wide.partial)
            np.testing.assert_array_equal(narrow.partial.times, wide.partial.times)
            np.testing.assert_array_equal(samples(narrow.partial), samples(wide.partial)[:, :2], err_msg=form)

    @pytest.mark.parametrize("entry", ["integrate_batch", "integrate_batch_lane_omega", "rk4_trajectory", "apply_scheme"])
    def test_empty_batch_rejected(self, product, entry):
        Q0 = P0 = np.zeros((0, 1))
        call = {
            "integrate_batch": lambda: sx.integrate_batch(Q0, P0, 0.1, 1.0, 2, 2, product),
            "integrate_batch_lane_omega": lambda: sx.integrate_batch(Q0, P0, 0.1, np.zeros(0), 2, 2, product),
            "rk4_trajectory": lambda: sx.rk4_trajectory(product, Q0, P0, 0.1, 2),
            "apply_scheme": lambda: apply_scheme(sx.embed(Q0, P0), build_scheme(2), 0.1, 1.0, product),
        }[entry]
        with pytest.raises(ValueError, match="empty batch"):
            call()

    @pytest.mark.parametrize("shape", [(3,), (2, 1), (0,), (1,)], ids=lambda shape: "x".join(map(str, shape)))
    def test_lane_omega_shape_checked(self, product, shape):
        # One binding per lane of the 2-lane batch, or a scalar; anything else fails before the run,
        # from every entry point that takes a per-lane omega.
        Q0, P0, omega = np.full((2, 1), -1.0), np.zeros((2, 1)), np.ones(shape)
        message = re.escape(f"omega has shape {shape} but the batch has lane shape (2,)")
        for call in (lambda: sx.integrate_batch(Q0, P0, 0.1, omega, 2, 2, product),
                     lambda: apply_scheme(sx.embed(Q0, P0), build_scheme(2), 0.1, omega, product),
                     lambda: sx.flow_c(sx.embed(Q0, P0), 0.1, omega)):
            with pytest.raises(ValueError, match=message):
                call()

    @staticmethod
    def drift_model(limit=math.inf, rate=1.0):
        """H(a, b) = rate * b: each order-2 step at delta = 1 moves q and x by ``rate``.

        The gradient raises DomainError once a stage sees a position beyond ``limit``.
        """
        def grad_components(a, b):
            if np.any(a > limit):  # a float, or a column through the array form
                raise sx.DomainError(f"position {a} beyond {limit}")
            return (0.0,), (rate,)

        return sx.HamiltonianModel("drift", 1, value=lambda a, b: rate * b[..., 0], grad_components=grad_components)

    @staticmethod
    def drift_run(lanes, n_steps, stride, escape_bound, model, force=None):
        """A drift run from q = 1, 1/2, 1/4, ...; at rate 1 the leading lane holds q = 1 + step at each sample."""
        Q0 = 0.5 ** np.arange(lanes, dtype=float)[:, None]
        if lanes == 1:
            cfg = sx.IntegratorConfig(1.0, 0.0, 2, n_steps)
            return sx.integrate(Q0[0], [0.0], cfg, model, force=force, stride=stride, escape_bound=escape_bound)
        assert force is None  # integrate_batch takes no force
        return sx.integrate_batch(Q0, np.zeros_like(Q0), 1.0, 0.0, 2, n_steps, model,
                                  stride=stride, escape_bound=escape_bound)

    @pytest.mark.parametrize("lanes, form", [
        (1, "components"), (3, "components"), (20, "components"),
        (1, "array_form"), (3, "array_form"), (20, "array_form"), (1, "forced"),
    ], ids=["one_lane", "narrow", "columns", "one_lane_array_form", "narrow_array_form", "columns_array_form",
            "one_lane_forced"])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("sample", [0, 1, 255, 256, 257, -1])
    def test_blocked_check_reports_as_a_check_per_sample(self, lanes, form, stride, sample):
        model, n_steps = self.drift_model(), 800
        model = array_form(model) if form == "array_form" else model
        force = (lambda a0, b0, t: (0.0 * b0,)) if form == "forced" else None  # kicks by zero: still a drift
        full = self.drift_run(lanes, n_steps, stride, math.inf, model, force=force)
        sample %= len(full)
        bound = full.times[sample] + 0.5  # sample j holds 1 + its step: it is the first beyond the bound
        # The reference checks every sample.
        biggest = [np.abs(s).max() for s in full.states]
        first = next(j for j, b in enumerate(biggest) if not b <= bound)
        assert first == sample
        with pytest.raises(sx.TrajectoryEscapedError) as err:
            self.drift_run(lanes, n_steps, stride, bound, model, force=force)
        assert str(err.value) == (f"trajectory escaped: max |state| = {biggest[first]:.3e} "
                                  f"exceeds bound {bound:.3e} at step {full.times[first]:.0f}")
        np.testing.assert_array_equal(err.value.partial.times, full.times[:first])
        np.testing.assert_array_equal(err.value.partial.states, full.states[:first])

    @pytest.mark.parametrize("lanes", [1, 3, 20], ids=["one_lane", "narrow", "columns"])
    def test_escape_before_a_raising_step_wins(self, lanes):
        # Sample 5 holds q = 6, beyond the bound 5.5; the gradient raises in step 9, where a stage sees x = 9.5.
        with pytest.raises(sx.TrajectoryEscapedError, match=r"at step 5$") as err:
            self.drift_run(lanes, 800, 1, 5.5, self.drift_model(limit=9.0))
        assert len(err.value.partial) == 5
        assert np.abs(err.value.partial.states).max() == 5.0

    @pytest.mark.parametrize("lanes", [1, 3, 20], ids=["one_lane", "narrow", "columns"])
    def test_escape_below_minus_the_bound_is_reported(self, lanes):
        # The drift runs downward, so the samples leave the bound through -5.5.
        model = self.drift_model(rate=-1.0)
        full = self.drift_run(lanes, 20, 1, math.inf, model)
        first = int(np.argmax(full.states.reshape(len(full), -1).min(axis=1) < -5.5))
        with pytest.raises(sx.TrajectoryEscapedError, match=f"exceeds bound 5.500e\\+00 at step {first}$") as err:
            self.drift_run(lanes, 800, 1, 5.5, model)
        np.testing.assert_array_equal(err.value.partial.states, full.states[:first])

    @pytest.mark.parametrize("lanes", [1, 3, 20], ids=["one_lane", "narrow", "columns"])
    def test_other_error_keeps_every_stored_sample(self, lanes):
        # Step 9 sees x = 9.5 > 9 and raises; the samples of steps 0-8 were stored before it.
        with pytest.raises(sx.DomainError, match="beyond 9") as err:
            self.drift_run(lanes, 800, 1, 1e12, self.drift_model(limit=9.0))
        full = self.drift_run(lanes, 8, 1, math.inf, self.drift_model())
        np.testing.assert_array_equal(err.value.partial.times, full.times)
        np.testing.assert_array_equal(err.value.partial.states, full.states)

    @pytest.mark.parametrize("name", ["product1d", "nls"])
    @pytest.mark.parametrize("lanes", [1, 3, 17], ids=["one_lane", "narrow", "columns"])
    def test_escaping_builtin_model_emits_no_runtime_warning(self, name, lanes):
        # A start of 1e100 overflows to inf and then NaN in its first steps; the run goes on to its check.
        model = sx.get_model(name)
        Q0 = np.full((lanes, model.dim), 1e100)
        P0 = np.full((lanes, model.dim), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sx.TrajectoryEscapedError, match=r"at step 1$") as err:
                if lanes == 1:
                    sx.integrate(Q0[0], P0[0], sx.IntegratorConfig(0.1, 1.0, 4, 300), model, escape_bound=1e150)
                else:
                    sx.integrate_batch(Q0, P0, 0.1, 1.0, 4, 300, model, escape_bound=1e150)
        assert len(err.value.partial) == 1

    def test_horizon_error_reads_the_same_from_step_and_run(self):
        model = sx.schwarzschild_hamiltonian()
        Q0 = np.array([0.0, 2.5, 0.0])  # barely outside the horizon: first kick dives in
        P0 = np.array([5.0, -40.0, 0.0])
        with pytest.raises(sx.DomainError) as step:
            apply_scheme(sx.embed(Q0, P0), build_scheme(2), 0.5, 1.0, model)
        with pytest.raises(sx.DomainError) as run:
            sx.integrate(Q0, P0, sx.IntegratorConfig(0.5, 1.0, 2, 1), model)
        assert str(step.value) == str(run.value)


class TestDissipative:
    @pytest.mark.parametrize("lanes", [1, 3, 17], ids=["one_lane", "narrow", "columns"])
    def test_zero_force_bitwise_equal(self, product, lanes):
        rng = np.random.default_rng(3)
        shape = (1,) if lanes == 1 else (lanes, 1)
        s = sx.ExtendedState(*(rng.uniform(-1.5, 1.5, shape) for _ in range(4)))
        scheme = build_scheme(4)
        plain = apply_scheme(s, scheme, 0.05, 20.0, product)
        # A component may also be a float that broadcasts against a batch's momentum column.
        for zero in (lambda a0, b0, t: (0.0 * b0,), lambda a0, b0, t: (0.0,)):
            forced = apply_scheme(s, scheme, 0.05, 20.0, product, force=zero)
            for a, b in zip(plain, forced):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name, components", [("product1d", (0.0, 0.0)), ("nls", (0.0,))],
                             ids=["too_many", "too_few"])
    def test_wrong_force_component_count_raises(self, name, components):
        model = sx.get_model(name)
        Q0, P0 = np.full(model.dim, 0.5), np.zeros(model.dim)
        force = lambda *abt: components  # noqa: E731
        for call in (lambda: sx.integrate(Q0, P0, sx.IntegratorConfig(0.1, 1.0, 2, 3), model, force=force),
                     lambda: apply_scheme(sx.embed(Q0, P0), build_scheme(2), 0.1, 1.0, model, force),
                     lambda: sx.rk4_trajectory(model, Q0, P0, 0.1, 3, force=force)):
            with pytest.raises(ValueError):
                call()

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
            s = apply_scheme(s, scheme, cfg.delta, cfg.omega, product)
        np.testing.assert_array_equal(traj.states[-1], s.to_array())

    def test_stride_keeps_final_state(self, product):
        cfg = sx.IntegratorConfig(0.01, 20.0, 2, 103)
        traj = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, product, stride=10)
        assert len(traj) == 12
        assert traj.times[-1] == pytest.approx(103 * 0.01, rel=1e-15)

    def test_escape_guard_aborts_with_partial(self):
        # Cubic blowup: solutions of dq/dt = q^3-ish escape in finite time.
        blow = sx.HamiltonianModel(
            "blowup", 1,
            value=lambda a, b: 0.25 * (a[..., 0] ** 4 + b[..., 0] ** 4),
            grad_a=lambda a, b: a**3,
            grad_b=lambda a, b: b**3,
        )
        cfg = sx.IntegratorConfig(0.5, 0.0, 2, 2000)
        with pytest.raises(sx.TrajectoryEscapedError, match="escaped") as err, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sx.integrate(np.array([2.0]), np.array([2.0]), cfg, blow, escape_bound=1e6)
        assert not caught  # the steps taken past the escape before its check stay silent
        partial = err.value.partial
        assert partial is not None and len(partial) >= 1
        assert np.all(np.abs(partial.states) <= 1e6)

    @pytest.mark.parametrize("delta, omega, n_steps, message", [
        (0.0, 1.0, 3, "delta must be a positive finite real"),
        (0.1, np.array([1.0, -1.0]), 3, "omega must be a nonnegative finite real"),
        (0.1, np.array([1.0, np.nan]), 3, "omega must be a nonnegative finite real"),
        (0.1, 1.0, -1, "n_steps must be >= 0"),
    ], ids=["zero_delta", "negative_lane_omega", "nan_lane_omega", "negative_steps"])
    def test_batch_rejects_what_the_config_rejects(self, product, delta, omega, n_steps, message):
        Q0, P0 = np.array([[-3.0], [-2.0]]), np.zeros((2, 1))
        with pytest.raises(ValueError, match=message):
            sx.integrate_batch(Q0, P0, delta, omega, 2, n_steps, product)

    def test_dimension_mismatch_rejected(self, product):
        cfg = sx.IntegratorConfig(0.1, 1.0, 2, 1)
        with pytest.raises(ValueError, match="dimension"):
            sx.integrate(np.array([1.0, 2.0]), np.array([0.0, 0.0]), cfg, product)
        with pytest.raises(ValueError, match="dimension"):
            apply_scheme(sx.embed([1.0, 2.0], [0.0, 0.0]), build_scheme(2), 0.1, 1.0, product)
        for flow in (sx.flow_a, sx.flow_b):
            with pytest.raises(ValueError, match="dimension"):
                flow(sx.embed([1.0, 2.0], [0.0, 0.0]), 0.1, product)

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

# Per model: (factory, Q0, P0, delta, omega) of a short, well-resolved run.
PROPERTY_MODELS = {
    "product1d": (sx.product_hamiltonian, [-3.0], [0.0], 0.02, 15.0),
    "schwarzschild": (sx.schwarzschild_hamiltonian, [0.0, 20.0, 0.0], [0.97, 0.0, -4.47], 0.2, 2.0),
    "nls": (lambda: sx.nls_hamiltonian(2), [3.0, 0.01], [1.0, 0.0], 0.01, 100.0),
}


def _perturbed(base, rng, shape=()):
    base = np.asarray(base, dtype=float)
    return base + 0.05 * rng.uniform(-1.0, 1.0, shape + base.shape)


@pytest.mark.parametrize("name", sorted(PROPERTY_MODELS))
class TestKernelProperties:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([2, 4]), stride=st.integers(1, 9))
    def test_batch_lane_equals_single_run_bitwise(self, name, seed, order, stride):
        # Floats (one lane) against columns (a batch) of the same kernel source.
        factory, Q0, P0, delta, omega = PROPERTY_MODELS[name]
        model = factory()
        rng = np.random.default_rng(seed)
        Qb, Pb = _perturbed(Q0, rng, (3,)), _perturbed(P0, rng, (3,))
        omegas = omega * rng.uniform(0.5, 2.0, 3)
        batch = sx.integrate_batch(Qb, Pb, delta, omegas, order, 25, model, stride=stride)
        for lane in range(3):
            cfg = sx.IntegratorConfig(delta, float(omegas[lane]), order, 25)
            single = sx.integrate(Qb[lane], Pb[lane], cfg, model, stride=stride)
            np.testing.assert_array_equal(batch.states[:, lane], single.states)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([2, 4]), stride=st.integers(1, 9))
    def test_narrow_batch_equals_its_lanes_in_a_wide_batch(self, name, seed, order, stride):
        # Lane by lane on floats (at most _NARROW_LANES lanes) against numpy columns (more lanes), for
        # every kind of step: per-lane bindings, forces and array-form gradients.
        factory, Q0, P0, delta, omega = PROPERTY_MODELS[name]
        model = factory()
        rng = np.random.default_rng(seed)
        Qb, Pb = _perturbed(Q0, rng, (_NARROW_LANES + 1,)), _perturbed(P0, rng, (_NARROW_LANES + 1,))
        omegas = omega * rng.uniform(0.5, 2.0, _NARROW_LANES + 1)
        scheme = build_scheme(order)

        def batch(m, bindings):
            return lambda Q, P, om: sx.integrate_batch(Q, P, delta, bindings(om), order, 25, m, stride=stride).states

        def rk4(m, force=None):
            return lambda Q, P, om: samples(sx.rk4_trajectory(m, Q, P, delta, 25, stride=stride, force=force))

        def one_step(m, bindings, force=None):
            return lambda Q, P, om: apply_scheme(sx.embed(Q, P), scheme, delta, bindings(om), m, force).to_array()[None]

        scalar, per_lane = (lambda om: omega), (lambda om: om)
        runs = [  # each takes the lanes' starts and bindings and gives its lanes on axis 1
            batch(model, scalar), batch(model, per_lane), batch(array_form(model), per_lane),
            rk4(model), rk4(array_form(model)), rk4(model, sx.linear_drag(0.05)), rk4(model, _clocked_force),
            one_step(model, scalar), one_step(array_form(model), per_lane),
            one_step(model, per_lane, sx.linear_drag(0.05)), one_step(model, scalar, _clocked_force),
        ]
        for run in runs:
            wide = run(Qb, Pb, omegas)
            for lanes in (3, _NARROW_LANES):
                np.testing.assert_array_equal(run(Qb[:lanes], Pb[:lanes], omegas[:lanes]), wide[:, :lanes])
        if model.dim == 1:
            grid = list(zip(rng.uniform(-1.5, 1.5, 12), rng.uniform(-0.5, 1.0, 12)))
            narrow, wide = (sx.poincare_section(model, g, 10.0, 10.0, order=order, max_crossings=4)
                            for g in (grid[:2], grid))
            assert narrow.n_trajectories <= _NARROW_LANES < wide.n_trajectories
            mine = wide.trajectory_id < narrow.n_trajectories
            np.testing.assert_array_equal(wide.points[mine], narrow.points)
            np.testing.assert_array_equal(wide.y_values[mine], narrow.y_values)
            np.testing.assert_array_equal(wide.crossing_index[mine], narrow.crossing_index)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([2, 4]))
    def test_backward_step_undoes_forward_step(self, name, seed, order):
        factory, Q0, P0, delta, omega = PROPERTY_MODELS[name]
        model = factory()
        rng = np.random.default_rng(seed)
        s = sx.ExtendedState(*(_perturbed(base, rng) for base in (Q0, P0, Q0, P0)))
        scheme = build_scheme(order)
        back = apply_scheme(apply_scheme(s, scheme, delta, omega, model), scheme, -delta, omega, model)
        for got, want in zip(back, s):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * (1.0 + np.max(np.abs(want))))


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

    def test_schwarzschild_flows_and_steps_are_symplectic(self):
        from sympext.checks import _state_map, _symplectic_defect

        rng = np.random.default_rng(12)
        model = sx.schwarzschild_hamiltonian()
        d = model.dim
        maps = [
            _state_map(lambda s: sx.flow_a(s, 0.01, model), d),
            _state_map(lambda s: sx.flow_b(s, 0.01, model), d),
            _state_map(lambda s: sx.flow_c(s, 0.01, 2.0), d),
        ]
        maps += [_state_map(lambda s, o=o: apply_scheme(s, build_scheme(o), 0.01, 2.0, model), d) for o in (2, 4)]
        for _ in range(5):
            # (t, r, phi) with r in [6, 30] for both copies; momenta near a bound orbit's.
            pos = [rng.uniform([-1.0, 6.0, -np.pi], [1.0, 30.0, np.pi]) for _ in range(2)]
            mom = [rng.uniform([0.9, -0.5, -5.0], [1.1, 0.5, 5.0]) for _ in range(2)]
            z0 = np.concatenate([pos[0], mom[0], pos[1], mom[1]])
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


# Per built-in model: (factory, Q0, P0, delta, omega) of a short run.
SPLICED_MODELS = {
    "product1d": (sx.product_hamiltonian, [-3.0], [0.0], 0.02, 15.0),
    "schwarzschild": (sx.schwarzschild_hamiltonian, [0.0, 20.0, 0.0], [0.97, 0.0, -4.47], 0.2, 2.0),
    "nls2": (lambda: sx.nls_hamiltonian(2), [3.0, 0.01], [1.0, 0.0], 0.01, 100.0),
    "nls5": (lambda: sx.nls_hamiltonian(5), [3.0, 0.01, 0.01, 0.01, 0.01], [1.0, 0.0, 0.0, 0.0, 0.0], 0.01, 100.0),
}


def called_copy(model):
    """The model with a gradient function of no source: the step calls it once per A or B stage."""
    grad = model.grad_components
    return dataclasses.replace(model, grad_components=lambda *ab: grad(*ab))


def gradient_calls(run, code):
    """Number of Python calls of the function with code object ``code`` while ``run()`` runs."""
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(1) if event == "call" and frame.f_code is code else None)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


class TestSplicedGradient:
    @pytest.mark.parametrize("name", sorted(SPLICED_MODELS))
    @pytest.mark.parametrize("lanes", [1, 3, 1024], ids=["one_lane", "narrow", "columns"])
    def test_spliced_step_equals_called_step(self, name, lanes):
        factory, Q0, P0, delta, omega = SPLICED_MODELS[name]
        model = factory()
        assert model.grad_components._source
        rng = np.random.default_rng(lanes)
        Qb, Pb = _perturbed(Q0, rng, (lanes,)), _perturbed(P0, rng, (lanes,))
        omegas = omega * rng.uniform(0.5, 2.0, lanes)

        def runs(m, order):
            if lanes == 1:
                cfg = sx.IntegratorConfig(delta, omega, order, 12)
                return [sx.integrate(Qb[0], Pb[0], cfg, m, stride=5).states,
                        sx.integrate(Qb[0], Pb[0], cfg, m, force=sx.linear_drag(0.05)).states]
            return [sx.integrate_batch(Qb, Pb, delta, omega, order, 12, m, stride=5).states,
                    sx.integrate_batch(Qb, Pb, delta, omegas, order, 3, m).states]

        for order in (2, 4):
            for got, want in zip(runs(model, order), runs(called_copy(model), order)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(SPLICED_MODELS))
    @pytest.mark.parametrize("order, stages", [(2, 4), (4, 10)])
    def test_builtin_step_makes_no_gradient_call(self, name, order, stages):
        factory, Q0, P0, delta, omega = SPLICED_MODELS[name]
        model = factory()
        copy = called_copy(model)
        cfg = sx.IntegratorConfig(delta, omega, order, 7)
        spliced = gradient_calls(lambda: sx.integrate(Q0, P0, cfg, model), model.grad_components.__code__)
        called = gradient_calls(lambda: sx.integrate(Q0, P0, cfg, copy), copy.grad_components.__code__)
        assert (spliced, called) == (0, 7 * stages)

    def test_horizon_error_reads_as_from_the_called_gradient(self):
        # The second position copy dives inside r = 2 after sample 69; the next step's B stage refuses it.
        model = sx.schwarzschild_hamiltonian()
        cfg = sx.IntegratorConfig(0.05, 2.0, 4, 400)
        errors = []
        for m in (model, called_copy(model)):
            with pytest.raises(sx.DomainError) as err:
                sx.integrate([0.0, 2.6, 0.0], [0.9, -1.5, -3.0], cfg, m)
            errors.append(err.value)
        spliced, called = errors
        assert str(spliced) == str(called) == "inside horizon: Schwarzschild model needs r > 2"
        assert len(spliced.partial) == len(called.partial) == 70
        assert spliced.partial.states[-1, 2, 1] < 2.0
        np.testing.assert_array_equal(spliced.partial.times, called.partial.times)
        np.testing.assert_array_equal(spliced.partial.states, called.partial.states)
