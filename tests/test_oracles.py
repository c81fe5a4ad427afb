"""Closed-form solution machinery and the certified reference engines."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import sympext as sx
from sympext import checks
from sympext.oracles import arithmetic_geometric_mean, complete_elliptic_k


def cn_by_integral_inversion(u, m):
    """Invert the incomplete elliptic integral by quadrature and root finding."""

    def incomplete(phi):
        val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, phi,
                      epsabs=1e-14, epsrel=1e-14)
        return val

    K = complete_elliptic_k(m)
    u_red = math.fmod(u, 4.0 * K)
    if u_red < 0:
        u_red += 4.0 * K
    half = u_red if u_red <= 2.0 * K else 4.0 * K - u_red
    phi = brentq(lambda x: incomplete(x) - half, 0.0, math.pi, xtol=1e-14)
    return math.cos(phi)


class TestJacobiElliptic:
    def test_cn_at_zero(self):
        for m in (0.0, 0.3, 0.9, 0.999):
            assert sx.jacobi_elliptic(0.0, m)[1] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("u", [0.3, 1.0, 2.5])
    def test_degenerate_parameter_is_cosine(self, u):
        assert sx.jacobi_elliptic(u, 0.0)[1] == pytest.approx(math.cos(u), abs=1e-13)

    def test_against_integral_inversion(self):
        for u, m in ((1.0, 0.9), (0.5, 0.5), (2.0, 0.25), (3.1, 0.75)):
            assert sx.jacobi_elliptic(u, m)[1] == pytest.approx(cn_by_integral_inversion(u, m), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(u=st.floats(-10.0, 10.0), m=st.floats(0.0, 0.999))
    def test_identities(self, u, m):
        sn, cn, dn = sx.jacobi_elliptic(u, m)
        assert abs(sn**2 + cn**2 - 1.0) <= 1e-12
        assert abs(dn**2 + m * sn**2 - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(-10.0, 10.0), m=st.floats(0.0, 0.999))
    def test_against_mpmath(self, u, m):
        got = sx.jacobi_elliptic(u, m)
        for kind, value in zip(("sn", "cn", "dn"), got):
            assert abs(value - float(mpmath.ellipfun(kind, u, m=m))) <= 1e-12

    @pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
    def test_rejects_parameter_outside_range(self, m):
        with pytest.raises(ValueError):
            sx.jacobi_elliptic(1.0, m)

    def test_agm(self):
        assert arithmetic_geometric_mean(1.0, 1.0) == 1.0
        # agm(1, sqrt(2)/... ) classical lemniscatic value
        assert arithmetic_geometric_mean(1.0, math.sqrt(2.0)) == pytest.approx(
            1.19814023473559220744, abs=1e-14
        )


class TestHalfPeriod:
    def test_harmonic_limit(self):
        assert sx.half_period(-1e-8) == pytest.approx(math.pi, rel=1e-12)

    def test_against_period_quadrature(self):
        for q0 in (-0.5, -1.0, -3.0, -7.0):
            integral, _ = quad(
                lambda th: 1.0 / math.sqrt(1.0 + q0 * q0 * math.sin(th) ** 2),
                0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14,
            )
            assert sx.half_period(q0) == pytest.approx(2.0 * integral, rel=1e-12)

    def test_sign_independent(self):
        assert sx.half_period(3.0) == sx.half_period(-3.0)

    def test_rejects_fixed_point(self):
        with pytest.raises(ValueError):
            sx.half_period(0.0)

    def test_elliptic_params(self):
        # Within the first half period the solution is Q0 cn(t sqrt(1 + Q0^2) | m)
        # with m = Q0^2 / (1 + Q0^2) = 0.9 at Q0 = -3.
        t = np.linspace(0.0, 0.99 * sx.half_period(-3.0), 50)
        Q, _ = sx.exact_series(-3.0, t)
        np.testing.assert_array_equal(Q, -3.0 * sx.jacobi_elliptic(t * math.sqrt(10.0), 0.9)[1])


class TestFirstReturnTime:
    def test_matches_half_period(self):
        assert abs(checks.first_return_time(-3.0) - sx.half_period(-3.0)) <= 1e-14

    @pytest.mark.parametrize("chunk", [5, 7, 31])
    def test_return_found_across_chunk_seams(self, monkeypatch, chunk):
        # The return lies in step 16305: the first step of its chunk at 5, the last at 31.
        default = checks.first_return_time(-3.0)
        monkeypatch.setattr(checks, "_RETURN_CHUNK", chunk)
        assert checks.first_return_time(-3.0) == default


class TestExactSolution:
    def test_initial_point(self):
        Q, P = sx.exact_series(-3.0, 0.0)
        assert (Q, P) == (-3.0, 0.0)

    def test_half_period_reaches_mirror_point(self):
        T = sx.half_period(-3.0)
        Q, P = sx.exact_series(-3.0, T)
        assert Q == pytest.approx(3.0, abs=1e-10)
        assert P == pytest.approx(0.0, abs=1e-10)

    def test_full_period_returns(self):
        T = sx.half_period(-3.0)
        Q, P = sx.exact_series(-3.0, 2.0 * T)
        assert Q == pytest.approx(-3.0, abs=1e-10)
        assert P == pytest.approx(0.0, abs=1e-10)

    def test_against_reference_integration(self):
        ref = sx.reference_flow(
            sx.product_hamiltonian(), np.array([-3.0]), np.array([0.0]), 0.7, n_samples=7
        )
        Qe, Pe = sx.exact_series(-3.0, ref.times)
        Q, P = ref.projected()
        np.testing.assert_allclose(Q[:, 0], Qe, rtol=0, atol=1e-9)
        np.testing.assert_allclose(P[:, 0], Pe, rtol=0, atol=1e-9)

    def test_energy_preserved_along_solution(self):
        t = np.linspace(0.0, 30.0, 4000)
        Q, P = sx.exact_series(-3.0, t)
        H = 0.5 * (Q**2 + 1.0) * (P**2 + 1.0)
        assert np.max(np.abs(H - 5.0)) <= 1e-11

    @settings(max_examples=80, deadline=None)
    @given(t=st.floats(0.0, 50.0), q0=st.floats(-5.0, -0.2))
    def test_periodicity(self, t, q0):
        T2 = 2.0 * sx.half_period(q0)
        Q1, P1 = sx.exact_series(q0, t)
        Q2, P2 = sx.exact_series(q0, t + T2)
        assert Q1 == pytest.approx(Q2, abs=1e-10)
        assert P1 == pytest.approx(P2, abs=1e-10)

    def test_rejects_nonnegative_start(self):
        with pytest.raises(ValueError):
            sx.exact_series(3.0, 1.0)


def blowup_model():
    """dQ/dt = P, dP/dt = Q^3: from Q = 2 at rest, Q reaches infinity in finite time."""
    return sx.HamiltonianModel(
        "blowup", 1,
        value=lambda a, b: 0.5 * b[..., 0] ** 2 - 0.25 * a[..., 0] ** 4,
        grad_a=lambda a, b: -a**3,
        grad_b=lambda a, b: b,
    )


def assert_finite_partial(err, times):
    partial = err.value.partial
    assert isinstance(partial, sx.Trajectory) and len(partial) >= 1
    assert np.all(np.isfinite(partial.states))
    np.testing.assert_allclose(partial.times, times[: len(partial)], rtol=1e-15, atol=0)


class TestRk4:
    def test_zero_step_identity(self):
        m = sx.product_hamiltonian()
        series = sx.rk4_trajectory(m, np.array([-3.0]), np.array([0.5]), 0.0, 1)
        Q, P = series.projected()
        np.testing.assert_array_equal(Q[-1], [-3.0])
        np.testing.assert_array_equal(P[-1], [0.5])

    def test_linear_system_reproduces_taylor_polynomial(self):
        # Harmonic oscillator: one step equals the degree-4 Taylor rotation.
        m = sx.HamiltonianModel(
            "harmonic", 1,
            value=lambda a, b: 0.5 * (a[..., 0] ** 2 + b[..., 0] ** 2),
            grad_a=lambda a, b: a,
            grad_b=lambda a, b: b,
        )
        delta = 0.3
        series = sx.rk4_trajectory(m, np.array([0.7]), np.array([-0.2]), delta, 1)
        Q, P = (c[-1] for c in series.projected())
        c = 1.0 - delta**2 / 2.0 + delta**4 / 24.0
        s = delta - delta**3 / 6.0
        assert Q[0] == pytest.approx(0.7 * c - 0.2 * s, rel=1e-15)
        assert P[0] == pytest.approx(-0.2 * c - 0.7 * s, rel=1e-15)

    def test_trajectory_sampling(self):
        m = sx.product_hamiltonian()
        series = sx.rk4_trajectory(m, np.array([-3.0]), np.array([0.0]), 0.01, 1000, stride=100)
        assert len(series) == 11
        assert series.times[-1] == pytest.approx(10.0)

    def test_blowup_aborts_with_finite_partial(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(sx.TrajectoryEscapedError) as err:
            sx.rk4_trajectory(blowup_model(), np.array([2.0]), np.array([0.0]), 0.01, 1000, stride=5)
        assert_finite_partial(err, 0.05 * np.arange(201))

    def test_negative_step_count_rejected(self):
        with pytest.raises(ValueError, match="n_steps must be >= 0"):
            sx.rk4_trajectory(sx.product_hamiltonian(), np.array([-3.0]), np.array([0.0]), 0.1, -1)

    @pytest.mark.parametrize("oracle", ["rk4_trajectory", "reference_flow"])
    def test_wrong_dimension_start_rejected(self, oracle):
        m = sx.product_hamiltonian()
        Q0, P0 = np.array([-3.0, 1.0]), np.array([0.0, 0.0])
        call = {
            "rk4_trajectory": lambda: sx.rk4_trajectory(m, Q0, P0, 0.1, 3),
            "reference_flow": lambda: sx.reference_flow(m, Q0, P0, 1.0),
        }[oracle]
        with pytest.raises(ValueError, match="dimension"):
            call()


class TestReferenceFlow:
    def test_zero_horizon(self):
        m = sx.product_hamiltonian()
        ref = sx.reference_flow(m, np.array([-3.0]), np.array([0.0]), 0.0)
        assert len(ref) == 1
        np.testing.assert_array_equal(ref.projected()[0][0], [-3.0])

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sx.reference_flow(sx.product_hamiltonian(), np.array([-3.0]), np.array([0.0]), 1.0, n_samples=0)

    def test_certificate_recorded(self):
        m = sx.product_hamiltonian()
        ref = sx.reference_flow(m, np.array([-3.0]), np.array([0.0]), 5.0, n_samples=25)
        assert ref.meta["endpoint_shift"] <= ref.meta["rtol"]
        assert ref.meta["substeps_per_sample"] >= 8

    def test_cross_oracle_agreement(self):
        m = sx.product_hamiltonian()
        ref = sx.reference_flow(m, np.array([-3.0]), np.array([0.0]), 10.0, n_samples=50)
        Qe, Pe = sx.exact_series(-3.0, ref.times)
        Q, P = ref.projected()
        assert np.max(np.abs(Q[:, 0] - Qe)) <= 1e-9
        assert np.max(np.abs(P[:, 0] - Pe)) <= 1e-9

    def test_schwarzschild_benchmark_energy(self):
        m = sx.schwarzschild_hamiltonian()
        Q0, P0 = sx.schwarzschild_initial("constraint")
        ref = sx.reference_flow(m, Q0, P0, 10.0, n_samples=50)
        H = m.value(*ref.projected())
        assert np.max(np.abs(H - H[0])) < 1e-10

    def test_non_convergence_reported(self):
        m = sx.product_hamiltonian()
        with pytest.raises(sx.ReferenceConvergenceError, match="did not converge"):
            sx.reference_flow(
                m, np.array([-3.0]), np.array([0.0]), 10.0,
                n_samples=4, max_refinements=1, rtol=1e-15,
            )

    def test_blowup_aborts_with_finite_partial(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(sx.TrajectoryEscapedError) as err:
            sx.reference_flow(blowup_model(), np.array([2.0]), np.array([0.0]), 10.0, n_samples=10)
        assert_finite_partial(err, np.linspace(0.0, 10.0, 11))


class TestCopySymmetry:
    """The doubled Hamiltonian is unchanged when the copies swap, (q, p, x, y) -> (x, y, q, p).

    Its exact flow therefore keeps q = x and p = y from the embedded start,
    while the split step does not (the swap turns ABCBA into BACAB). The
    copy distance that criterion 5 reads is then discretization error only.
    """

    @pytest.mark.parametrize("omega", [20.0, 160.0])
    def test_reference_keeps_copies_equal(self, omega):
        ext = sx.extended_model(sx.product_hamiltonian(), omega)
        ref = sx.reference_flow(ext, np.array([-3.0, -3.0]), np.array([0.0, 0.0]), 1.0, n_samples=10)
        Q, P = ref.projected()
        assert np.max(np.abs(Q[:, 0] - Q[:, 1])) == 0.0
        assert np.max(np.abs(P[:, 0] - P[:, 1])) == 0.0

    @pytest.mark.parametrize("omega", [20.0, 160.0])
    def test_split_step_separates_copies(self, omega):
        cfg = sx.IntegratorConfig(delta=0.01, omega=omega, order=4, n_steps=100)
        traj = sx.integrate(np.array([-3.0]), np.array([0.0]), cfg, sx.product_hamiltonian())
        q, p, x, y = sx.state_from_array(traj.states)
        assert np.max(np.abs(q - x)) > 0.0


class TestReferenceDissipative:
    def test_zero_drag_matches_conservative(self):
        m = sx.product_hamiltonian()
        a = sx.reference_flow(m, np.array([-2.0]), np.array([0.0]), 3.0, n_samples=12)
        b = sx.reference_flow(
            m, np.array([-2.0]), np.array([0.0]), 3.0, n_samples=12, force=sx.linear_drag(0.0)
        )
        np.testing.assert_array_equal(a.projected()[0], b.projected()[0])
        np.testing.assert_array_equal(a.projected()[1], b.projected()[1])

    def test_damped_oscillator_closed_form(self):
        m = sx.HamiltonianModel(
            "harmonic", 1,
            value=lambda a, b: 0.5 * (a[..., 0] ** 2 + b[..., 0] ** 2),
            grad_a=lambda a, b: a,
            grad_b=lambda a, b: b,
        )
        gamma, T = 0.3, 8.0
        q0, p0 = 1.2, -0.4
        ref = sx.reference_flow(
            m, np.array([q0]), np.array([p0]), T, n_samples=40, force=sx.linear_drag(gamma)
        )
        wd = math.sqrt(1.0 - gamma**2 / 4.0)
        t = ref.times
        envelope = np.exp(-0.5 * gamma * t)
        A = q0
        B = (p0 + 0.5 * gamma * q0) / wd
        q = envelope * (A * np.cos(wd * t) + B * np.sin(wd * t))
        qdot = envelope * (
            (-0.5 * gamma * A + wd * B) * np.cos(wd * t)
            + (-0.5 * gamma * B - wd * A) * np.sin(wd * t)
        )
        Q, P = ref.projected()
        np.testing.assert_allclose(Q[:, 0], q, rtol=0, atol=1e-9)
        np.testing.assert_allclose(P[:, 0], qdot, rtol=0, atol=1e-9)

    def test_energy_decays(self):
        m = sx.HamiltonianModel(
            "harmonic", 1,
            value=lambda a, b: 0.5 * (a[..., 0] ** 2 + b[..., 0] ** 2),
            grad_a=lambda a, b: a,
            grad_b=lambda a, b: b,
        )
        ref = sx.reference_flow(
            m, np.array([1.0]), np.array([0.0]), 20.0, n_samples=30, force=sx.linear_drag(0.2)
        )
        H = m.value(*ref.projected())
        assert H[-1] < 0.05 * H[0]
