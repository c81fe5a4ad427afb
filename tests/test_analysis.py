"""Error metrics, sections, averages, and the averaged-matrix identity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.spatial import cKDTree

import sympext as sx
from sympext.analysis import (
    CHAOS_THRESHOLD,
    REGULAR_THRESHOLD,
    _brent,
    _hermite_eval,
    _hermite_root,
    _nn_mean_distance,
    drift_is_bounded,
)
from sympext.checks import _rotation_average_quadrature


class TestPolarErrors:
    def test_identical_series_zero_error(self):
        t = np.linspace(0, 10, 200)
        q = 2.0 * np.cos(t)
        p = 2.0 * np.sin(t)
        err = sx.polar_errors(t, q, p, q, p)
        assert err.max_amplitude_error == 0.0
        assert err.max_phase_error == 0.0

    def test_shifted_by_full_period_zero_error(self):
        T2 = 2.0 * sx.half_period(-3.0)
        t = np.linspace(0, 20, 3000)
        Q1, P1 = sx.exact_series(-3.0, t)
        Q2, P2 = sx.exact_series(-3.0, t + T2)
        err = sx.polar_errors(t, Q1, P1, Q2, P2)
        assert err.max_amplitude_error <= 1e-10
        assert err.max_phase_error <= 1e-10

    def test_phase_error_can_exceed_two_pi(self):
        t = np.linspace(0, 20, 5000)
        q1, p1 = np.cos(t), np.sin(t)
        rate = 1.5
        q2, p2 = np.cos(rate * t), np.sin(rate * t)
        err = sx.polar_errors(t, q2, p2, q1, p1)
        assert err.max_phase_error == pytest.approx(0.5 * 20.0, rel=1e-3)
        assert err.max_phase_error > 2.0 * math.pi

    def test_origin_guard(self):
        t = np.linspace(0, 1, 10)
        z = np.zeros(10)
        with pytest.raises(sx.PhaseUndefinedError, match="origin"):
            sx.polar_errors(t, z, z, np.ones(10), z)

    def test_undersampled_guard(self):
        t = np.linspace(0, 10, 11)           # one sample per ~3.2 rad turn
        q, p = np.cos(3.2 * t), np.sin(3.2 * t)
        with pytest.raises(sx.PhaseUndefinedError, match="unwrap"):
            sx.polar_errors(t, q, p, q.copy(), p.copy())

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sx.polar_errors(np.arange(4.0), np.ones(4), np.ones(4), np.ones(3), np.ones(3))


class TestScaledRunningMax:
    def test_self_comparison_zero(self):
        a = np.random.default_rng(0).normal(size=(50, 3))
        out = sx.scaled_running_max_errors(a, a, np.ones(3))
        assert not out.any()

    def test_monotone_by_construction(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(100, 4))
        b = rng.normal(size=(100, 4))
        out = sx.scaled_running_max_errors(a, b, np.array([1.0, 2.0, math.pi, 0.5]))
        assert np.all(np.diff(out, axis=0) >= 0)

    def test_zero_scaling_rejected(self):
        a = np.zeros((5, 2))
        with pytest.raises(ValueError, match="nonzero"):
            sx.scaled_running_max_errors(a, a, np.array([1.0, 0.0]))

    def test_schwarzschild_scalings(self):
        s = sx.schwarzschild_scalings()
        assert s[0] == pytest.approx(2.0 * math.pi * math.sqrt(800.0))
        assert s[1] == pytest.approx(20.0)
        assert s[2] == pytest.approx(2.0 * math.pi)


class TestEnergyDrift:
    def test_oracle_trajectory_has_negligible_drift(self):
        # Build a trajectory container holding the exact solution doubled.
        t = np.linspace(0, 10, 500)
        Q, P = sx.exact_series(-3.0, t)
        states = np.stack([Q[:, None], P[:, None], Q[:, None], P[:, None]], axis=1)
        traj = sx.Trajectory(t, states)
        drift = sx.energy_drift(traj, sx.product_hamiltonian(), 20.0)
        assert np.max(np.abs(drift.original)) <= 1e-11
        assert np.max(np.abs(drift.extended)) <= 1e-10

    def test_trend_detector(self):
        t = np.arange(2000, dtype=float)
        assert drift_is_bounded(1e-6 * np.sin(0.1 * t))
        assert not drift_is_bounded(1e-9 * t)


class TestErgodicAverages:
    def test_constant_masses_constant_gap(self):
        t = np.linspace(0, 10, 101)
        masses = np.tile([2.0, 0.5], (101, 1))
        avg = sx.ergodic_averages(t, masses)
        np.testing.assert_allclose(avg.averages[:, 0], 2.0, rtol=1e-14)
        np.testing.assert_allclose(avg.gap, 1.5, rtol=1e-14)

    def test_linear_mass_average(self):
        # I(t) = t integrates to <I>(T) = T/2 exactly under the trapezoid rule.
        t = np.linspace(0, 4, 41)
        masses = np.column_stack([t, np.zeros_like(t)])
        avg = sx.ergodic_averages(t, masses)
        np.testing.assert_allclose(avg.averages[:, 0], 0.5 * avg.times, rtol=1e-13)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            sx.ergodic_averages(np.array([0.0]), np.array([[1.0, 2.0]]))

    def test_gap_at(self):
        t = np.linspace(0, 1, 11)
        masses = np.tile([3.0, 1.0], (11, 1))
        avg = sx.ergodic_averages(t, masses)
        assert avg.gap_at(0.5) == pytest.approx(2.0)


class TestRotationAveragedMatrix:
    def test_identity_input_gives_structure_matrix(self):
        out = sx.rotation_averaged_matrix(np.eye(4))
        J = np.zeros((4, 4))
        J[:2, 2:] = np.eye(2)
        J[2:, :2] = -np.eye(2)
        np.testing.assert_array_equal(out, J)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            G = rng.normal(size=(4, 4))
            S = 0.5 * (G + G.T)
            closed = sx.rotation_averaged_matrix(S)
            quad = _rotation_average_quadrature(S)
            assert np.max(np.abs(closed - quad)) <= 1e-10

    def test_exactly_skew(self):
        rng = np.random.default_rng(18)
        G = rng.normal(size=(6, 6))
        S = 0.5 * (G + G.T)
        out = sx.rotation_averaged_matrix(S)
        assert np.array_equal(out, -out.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sx.rotation_averaged_matrix(np.arange(16.0).reshape(4, 4))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            sx.rotation_averaged_matrix(np.eye(3))

    def test_fundamental_matrix_stays_orthogonal(self):
        # Phi' = Omega(s) Phi with smoothly varying symmetric input.
        rng = np.random.default_rng(19)
        G0 = rng.normal(size=(4, 4))
        G1 = rng.normal(size=(4, 4))
        S0 = 0.5 * (G0 + G0.T)
        S1 = 0.5 * (G1 + G1.T)

        def omega_of(s):
            return sx.rotation_averaged_matrix(S0 + math.sin(s) * S1)

        phi = np.eye(4)
        h = 1e-3
        s = 0.0
        for _ in range(10_000):
            k1 = omega_of(s) @ phi
            k2 = omega_of(s + 0.5 * h) @ (phi + 0.5 * h * k1)
            k3 = omega_of(s + 0.5 * h) @ (phi + 0.5 * h * k2)
            k4 = omega_of(s + h) @ (phi + h * k3)
            phi = phi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        assert np.max(np.abs(phi.T @ phi - np.eye(4))) <= 1e-8


class TestPoincare:
    @pytest.fixture(scope="class")
    def small_section(self):
        model = sx.product_hamiltonian()
        grid = [(q, p) for q in np.linspace(-1.2, 1.2, 3) for p in np.linspace(-1.5, 1.5, 3)]
        return sx.poincare_section(
            model, grid, 2.0, 10.0, max_crossings=40, max_steps=40_000
        )

    def test_start_points_recorded_once(self, small_section):
        starts = small_section.crossing_index == 0
        assert np.sum(starts) == small_section.n_trajectories

    def test_shell_and_surface_invariants(self, small_section):
        model = sx.product_hamiltonian()
        # Recorded points sit on the shell within the stated tolerance when
        # re-embedded with their stored y and x on the surface.
        for i in range(len(small_section.points)):
            q, p = small_section.points[i]
            y = small_section.y_values[i]
            s = sx.ExtendedState(
                np.array([q]), np.array([p]), np.array([0.0]), np.array([y])
            )
            hbar = float(sx.extended_energy(model, small_section.omega, s))
            assert abs(hbar - small_section.shell) <= 1e-3 * (1.0 + abs(small_section.shell))

    def test_crossing_counts_positive(self, small_section):
        counts = np.bincount(small_section.trajectory_id,
                             minlength=small_section.n_trajectories)
        assert counts.min() >= 20

    def test_unreachable_shell_rejected(self):
        model = sx.product_hamiltonian()
        with pytest.raises(sx.AdmissibilityError, match="admissible") as err:
            sx.poincare_section(model, [(0.0, 0.0)], 1.0, 0.2)
        assert err.value.partial is None

    def test_skip_reasons_recorded(self):
        model = sx.product_hamiltonian()
        # q = 5 puts the binding energy alone above the shell: inadmissible.
        section = sx.poincare_section(
            model, [(0.0, 0.0), (5.0, 0.0)], 10.0, 10.0,
            max_crossings=8, max_steps=5_000,
        )
        assert len(section.skipped) == 1
        assert section.skipped[0][2].startswith("no real momentum root")

    def test_no_crossings_rejected(self):
        with pytest.raises(ValueError, match="max_crossings"):
            sx.poincare_section(sx.product_hamiltonian(), [(0.5, 0.5)], 2.0, 10.0, max_crossings=0)

    def test_non_finite_lane_aborts(self):
        # dP/dt = Q^3 in both copies: every lane reaches infinity in finite time.
        blowup = sx.HamiltonianModel(
            "blowup", 1,
            value=lambda a, b: 0.5 * b[..., 0] ** 2 - 0.25 * a[..., 0] ** 4,
            grad_a=lambda a, b: -a**3,
            grad_b=lambda a, b: b,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(sx.TrajectoryEscapedError) as err:
            sx.poincare_section(blowup, [(1.0, 0.0)], 0.0, 1.0, max_crossings=5, max_steps=2_000)
        assert err.value.partial is None

    def test_full_lanes_stop_stepping(self):
        # Each seed's lanes fill after their own number of chunks; a section of both steps no lane further.
        product = sx.product_hamiltonian()
        float_calls = [0]

        def grad_components(a, b):
            float_calls[0] += isinstance(a, float)  # the stepping lanes; the crossing refinement uses columns
            return product.grad_components(a, b)

        counted = sx.HamiltonianModel("counted", 1, product.value, grad_components=grad_components)
        calls, sections = [], []
        for grid in ([(0.0, 0.0)], [(-0.5, -0.5)], [(0.0, 0.0), (-0.5, -0.5)]):
            float_calls[0] = 0
            sections.append(sx.poincare_section(counted, grid, 10.0, 10.0, max_crossings=20))
            calls.append(float_calls[0])
        alone_a, alone_b, both = calls
        assert alone_a != alone_b
        assert both == alone_a + alone_b
        a, b, ab = sections
        np.testing.assert_array_equal(ab.points, np.concatenate([a.points, b.points]))
        np.testing.assert_array_equal(ab.trajectory_id, np.concatenate([a.trajectory_id, b.trajectory_id + 2]))
        # Crossing 0 of each lane is its seed: the stepping leaves the start states alone.
        np.testing.assert_array_equal(ab.points[ab.crossing_index == 0], [[0.0, 0.0]] * 2 + [[-0.5, -0.5]] * 2)

    def test_refinement_runs_in_few_batches(self, monkeypatch):
        # The benchmark's command line grid: the crossings of all its chunks are refined in a few batches.
        import sympext.analysis as analysis

        calls = {"_drive": 0, "_hermite_root": 0}

        def counted(name):
            inner = getattr(analysis, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)

            return call

        for name in calls:
            monkeypatch.setattr(analysis, name, counted(name))
        grid = [(q, p) for q in np.linspace(-0.5, 0.5, 2) for p in np.linspace(-0.5, 0.5, 2)]
        for omega in (0.0, 10.0):
            calls.update(dict.fromkeys(calls, 0))
            section = sx.poincare_section(sx.product_hamiltonian(), grid, omega, 10.0, max_crossings=128)
            assert np.all(np.bincount(section.trajectory_id) == 128)
            assert calls["_hermite_root"] <= section.n_trajectories + 1
            assert calls["_hermite_root"] < calls["_drive"]

    def test_requires_one_dof_model(self):
        with pytest.raises(ValueError, match="1-dof"):
            sx.poincare_section(sx.nls_hamiltonian(2), [(0.0, 0.0)], 1.0, 10.0)

    @pytest.mark.parametrize("omega", [0.0, 0.8, 10.0])
    def test_shell_scan_matches_pointwise_residual(self, omega):
        # The scan evaluates every y at once; its roots must be those of the
        # residual evaluated and bracketed one y at a time.
        from scipy.optimize import brentq

        from sympext.analysis import shell_momenta

        model = sx.product_hamiltonian()
        ys = np.linspace(-12.0, 12.0, 1201)
        found = 0
        for q, p in ((0.2, -0.6), (-2.2, 1.4), (1.0, 2.8)):
            def residual(y):
                s = sx.ExtendedState(*(np.full(1, v) for v in (q, p, 0.0, y)))
                return float(sx.extended_energy(model, omega, s)) - 10.0

            vals = [residual(y) for y in ys]
            want = [brentq(residual, ys[i], ys[i + 1], xtol=1e-13)
                    for i in range(len(ys) - 1) if vals[i] * vals[i + 1] < 0.0]
            assert shell_momenta(model, omega, 10.0, q, p) == want
            found += len(want)
        assert found

    def test_classification_thresholds(self):
        assert REGULAR_THRESHOLD < CHAOS_THRESHOLD
        assert sx.classify_section(CHAOS_THRESHOLD + 0.1) == "chaotic"
        assert sx.classify_section(REGULAR_THRESHOLD - 0.1) == "regular"
        assert sx.classify_section(0.5 * (CHAOS_THRESHOLD + REGULAR_THRESHOLD)) == "mixed"


def _synthetic_section(lanes):
    """A PoincareSection whose trajectory i holds the (q, p, y) rows of lanes[i]."""
    rows = np.concatenate(lanes)
    ids = np.concatenate([np.full(len(lane), i) for i, lane in enumerate(lanes)])
    crossings = np.concatenate([np.arange(len(lane)) for lane in lanes])
    return sx.PoincareSection(10.0, 0.0, rows[:, :2], rows[:, 2], crossings, ids, len(lanes), (), 0)


def _closed_curve(radius, n=400):
    """n points of a golden-angle rotation on an ellipse, as a regular orbit leaves them on the section."""
    turn = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0 * np.arange(n)
    return np.column_stack([radius * np.cos(turn), 0.5 * radius * np.sin(turn), np.zeros(n)])


class TestChaosStatistic:
    def test_closed_curves_are_regular(self):
        stat = sx.chaos_statistic(_synthetic_section([_closed_curve(r) for r in (0.5, 1.0, 1.5)]))
        assert sx.classify_section(stat) == "regular"

    def test_uniform_square_fill_is_chaotic(self):
        rng = np.random.default_rng(3)
        fills = [np.column_stack([rng.uniform(-1.0, 1.0, (400, 2)), np.zeros(400)]) for _ in range(3)]
        assert sx.classify_section(sx.chaos_statistic(_synthetic_section(fills))) == "chaotic"

    @pytest.mark.parametrize("lane", [_closed_curve(1.0, 63), np.tile(_closed_curve(1.0, 32), (4, 1))],
                             ids=["63_points", "32_distinct_of_128"])
    def test_too_few_distinct_points_rejected(self, lane):
        with pytest.raises(ValueError, match="enough points"):
            sx.chaos_statistic(_synthetic_section([lane]))


def _shell_brackets(omega, shell, q, p):
    """The shell residual of (q, p, x = 0, y) and its sign-change brackets on shell_momenta's scan."""
    model = sx.product_hamiltonian()

    def residual(y):
        s = sx.ExtendedState(*(np.full(1, v) for v in (q, p, 0.0, y)))
        return float(sx.extended_energy(model, omega, s)) - shell

    ys = np.linspace(-12.0, 12.0, 1201)
    ones = np.ones((len(ys), 1))
    vals = sx.extended_energy(model, omega, sx.ExtendedState(q * ones, p * ones, 0 * ones, ys[:, None])) - shell
    return residual, [(ys[i], ys[i + 1]) for i in range(len(ys) - 1) if vals[i] * vals[i + 1] < 0.0]


# (f0, f1, d0, d1) at any h of the cubic 6 theta^2 - 4 theta^3 - 1, whose first midpoint is its root, and of a
# cubic so steep that no midpoint of 80 passes comes within the tolerance.
_EARLY = (-1.0, 1.0, 0.0, 0.0)
_NEVER = (-1e300, 3e300, 0.0, 0.0)


class TestHermiteRoot:
    def test_special_elements(self):
        f0, f1, d0, d1 = np.array([_EARLY, _NEVER]).T
        theta = _hermite_root(f0, f1, d0, d1, 0.3, 1e-10)
        assert theta[0] == 0.5
        assert abs(_hermite_eval(theta[1], f0[1], f1[1], d0[1], d1[1], 0.3)) > 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0), st.floats(-50.0, 50.0),
                           st.floats(-50.0, 50.0), st.booleans()), max_size=12),
        st.floats(0.01, 1.0),
        st.data(),
    )
    def test_batch_is_the_parts_concatenated(self, rows, h, data):
        # Refinement is elementwise: one call on a whole queue gives each crossing the bits of its own chunk's call.
        elements = [(-a, b, d0, d1) if upward else (a, -b, d0, d1) for a, b, d0, d1, upward in rows]
        for special in (_EARLY, _NEVER):
            elements.insert(data.draw(st.integers(0, len(elements)), label="position"), special)
        split = data.draw(st.integers(0, len(elements)), label="split")
        f0, f1, d0, d1 = np.array(elements).T
        whole = _hermite_root(f0, f1, d0, d1, h, 1e-10)
        parts = [_hermite_root(f0[s], f1[s], d0[s], d1[s], h, 1e-10) for s in (slice(None, split), slice(split, None))]
        np.testing.assert_array_equal(whole, np.concatenate(parts))


class TestScipyOracles:
    """The package's root polish and nearest-neighbour mean return scipy's bits."""

    @pytest.mark.parametrize("omega", [0.0, 0.8, 10.0])
    def test_brent_is_brentq_on_the_criterion_grid(self, omega):
        brackets = 0
        for q in np.linspace(-2.2, 2.2, 12):
            for p in np.linspace(-2.8, 2.8, 12):
                residual, pairs = _shell_brackets(omega, 10.0, q, p)
                for a, b in pairs:
                    assert _brent(residual, a, b, 1e-13).hex() == brentq(residual, a, b, xtol=1e-13).hex()
                brackets += len(pairs)
        assert brackets

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
        st.one_of(st.just(0.0), st.floats(0.0, 25.0)), st.floats(0.5, 40.0),
    )
    def test_brent_is_brentq(self, q, p, omega, shell):
        residual, pairs = _shell_brackets(omega, shell, q, p)
        for a, b in pairs:
            assert _brent(residual, a, b, 1e-13).hex() == brentq(residual, a, b, xtol=1e-13).hex()

    def test_brent_is_brentq_where_the_step_divides_by_zero(self):
        # At this scale the extrapolation's denominator underflows to 0; brentq then bisects.
        def f(x):
            return 1e-200 * (x**3 - 0.3)

        assert _brent(f, 0.0, 1.0, 1e-13).hex() == brentq(f, 0.0, 1.0, xtol=1e-13).hex()

    @pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
    def test_nn_mean_distance_is_kdtree(self, n):
        pts = np.random.default_rng(n).normal(size=(n, 3))
        dists, _ = cKDTree(pts).query(pts, k=2)
        assert _nn_mean_distance(pts).hex() == float(np.mean(dists[:, 1])).hex()

    def test_nn_mean_distance_is_kdtree_with_repeated_coordinates(self):
        # A coarse lattice: coordinates repeat and many neighbours tie.
        pts = np.round(np.random.default_rng(3).uniform(-2.0, 2.0, size=(400, 3)) * 2) / 2
        pts = np.unique(pts, axis=0)
        dists, _ = cKDTree(pts).query(pts, k=2)
        assert _nn_mean_distance(pts).hex() == float(np.mean(dists[:, 1])).hex()


class TestSlopeFit:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert sx.fit_loglog_slope(x, x**3) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sx.fit_loglog_slope([1.0, 2.0], [0.0, 1.0])
