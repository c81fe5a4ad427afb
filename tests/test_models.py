"""The three Hamiltonian systems and their gradients."""
import numpy as np
import pytest

import sympext as sx


def fd_gradients(model, a, b, scale=1e-6):
    """Central-difference gradients of the energy, the independent check."""
    ga = np.empty_like(a)
    gb = np.empty_like(b)
    for i in range(len(a)):
        h = scale * (1.0 + abs(a[i]))
        ap, am = a.copy(), a.copy()
        ap[i] += h
        am[i] -= h
        ga[i] = (model.value(ap, b) - model.value(am, b)) / (2.0 * h)
    for i in range(len(b)):
        h = scale * (1.0 + abs(b[i]))
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        gb[i] = (model.value(a, bp) - model.value(a, bm)) / (2.0 * h)
    return ga, gb


def nls_energy_naive(q, p):
    """Term-by-term mode-system energy, kept as the loop oracle."""
    n = len(q)
    total = 0.0
    for i in range(n):
        total += 0.25 * (q[i] ** 2 + p[i] ** 2) ** 2
    for i in range(1, n):
        total -= (
            p[i - 1] ** 2 * p[i] ** 2
            + q[i - 1] ** 2 * q[i] ** 2
            - q[i - 1] ** 2 * p[i] ** 2
            - p[i - 1] ** 2 * q[i] ** 2
            + 4.0 * p[i - 1] * p[i] * q[i - 1] * q[i]
        )
    return total


def nls_grad_stencil(q, p):
    """The (..., d) array stencil of the mode-system gradient, kept as the bitwise reference."""
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


def schwarzschild_grad_arrays(a, b):
    """The (..., 3) array form of the geodesic gradient, kept as the bitwise reference."""
    r = a[..., 1]
    u = 1.0 - 2.0 / r
    du = 2.0 / (r * r)
    pt, pr, pphi = b[..., 0], b[..., 1], b[..., 2]
    ga = np.zeros_like(a)
    ga[..., 1] = 0.5 * (-du * (pt / u) ** 2 - du * pr**2) + pphi**2 / (r * r * r)
    gb = np.empty_like(b)
    gb[..., 0] = pt / u
    gb[..., 1] = -u * pr
    gb[..., 2] = -pphi / r**2
    return ga, gb


def assert_gradients_consistent(model, sample, n_points=100, seed=0, rtol=1e-6):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        a, b = sample(rng)
        ga, gb = model.pair(a, b)
        fa, fb = fd_gradients(model, a, b)
        scale = 1.0 + max(np.max(np.abs(fa)), np.max(np.abs(fb)))
        worst = max(worst, np.max(np.abs(ga - fa)) / scale, np.max(np.abs(gb - fb)) / scale)
    assert worst <= rtol


class TestProduct:
    def test_energy_at_start_point(self):
        m = sx.product_hamiltonian()
        assert m.value(np.array([-3.0]), np.array([0.0])) == pytest.approx(5.0, abs=0)

    def test_origin_is_critical_point(self):
        m = sx.product_hamiltonian()
        assert m.value(np.array([0.0]), np.array([0.0])) == pytest.approx(0.5)
        ga, gb = m.pair(np.array([0.0]), np.array([0.0]))
        assert ga[0] == 0.0 and gb[0] == 0.0

    def test_gradient_at_unit_point(self):
        m = sx.product_hamiltonian()
        ga, gb = m.pair(np.array([1.0]), np.array([1.0]))
        assert ga[0] == pytest.approx(2.0, abs=0)
        assert gb[0] == pytest.approx(2.0, abs=0)

    def test_gradients_match_finite_differences(self):
        assert_gradients_consistent(
            sx.product_hamiltonian(),
            lambda rng: (rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)),
        )


class TestSchwarzschild:
    def test_energy_at_benchmark_point(self):
        m = sx.schwarzschild_hamiltonian()
        Q = np.array([0.0, 20.0, 0.0])
        P = np.array([0.7, 0.0, -4.472])
        expected = 0.5 * (0.7**2 / 0.9 - 4.472**2 / 400.0)
        assert m.value(Q, P) == pytest.approx(expected, rel=1e-15)

    def test_time_coordinate_cyclic(self):
        m = sx.schwarzschild_hamiltonian()
        rng = np.random.default_rng(5)
        for _ in range(20):
            Q = np.array([rng.normal(), rng.uniform(3, 40), rng.normal()])
            P = rng.normal(size=3)
            ga, _ = m.pair(Q, P)
            assert ga[0] == 0.0 and ga[2] == 0.0

    def test_horizon_guard(self):
        m = sx.schwarzschild_hamiltonian()
        with pytest.raises(sx.DomainError, match="horizon"):
            m.value(np.array([0.0, 1.9, 0.0]), np.zeros(3))
        with pytest.raises(sx.DomainError):
            m.pair(np.array([0.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(sx.DomainError):
            m.grad_components(0.0, 1.9, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(sx.DomainError):
            m.grad_components(np.zeros(2), np.array([3.0, 1.9]), np.zeros(2), *np.zeros((3, 2)))

    def test_gradients_match_finite_differences(self):
        assert_gradients_consistent(
            sx.schwarzschild_hamiltonian(),
            lambda rng: (
                np.array([rng.normal(), rng.uniform(5, 40), rng.normal()]),
                rng.uniform(-2, 2, 3),
            ),
        )

    def test_constraint_preset_satisfies_energy_condition(self):
        m = sx.schwarzschild_hamiltonian()
        Q0, P0 = sx.schwarzschild_initial("constraint")
        assert m.value(Q0, P0) == pytest.approx(0.5, abs=1e-15)
        assert P0[0] == pytest.approx(0.97211, abs=5e-6)

    def test_literal_preset_is_the_quoted_vector(self):
        Q0, P0 = sx.schwarzschild_initial("literal")
        np.testing.assert_array_equal(Q0, [0.0, 20.0, 0.0])
        np.testing.assert_array_equal(P0, [0.982, 0.0, -4.472])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            sx.schwarzschild_initial("nope")


class TestNls:
    def test_zero_state(self):
        m = sx.nls_hamiltonian(4)
        z = np.zeros(4)
        assert m.value(z, z) == 0.0
        ga, gb = m.pair(z, z)
        assert not ga.any() and not gb.any()

    def test_single_excited_mode(self):
        m = sx.nls_hamiltonian(2)
        assert m.value(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.25, abs=0)

    def test_value_matches_naive_loop(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 8):
            m = sx.nls_hamiltonian(n)
            for _ in range(25):
                q = rng.uniform(-2, 2, n)
                p = rng.uniform(-2, 2, n)
                assert m.value(q, p) == pytest.approx(nls_energy_naive(q, p), rel=1e-13)

    def test_benchmark_state_value(self):
        m = sx.nls_hamiltonian(2)
        q = np.array([3.0, 0.01])
        p = np.array([1.0, 0.0])
        expected = 0.25 * (10.0**2 + 0.0001**2) - (9e-4 - 1e-4)
        assert m.value(q, p) == pytest.approx(expected, rel=1e-14)
        assert m.value(q, p) == pytest.approx(nls_energy_naive(q, p), rel=1e-14)

    def test_gradients_match_finite_differences(self):
        for n in (2, 5):
            assert_gradients_consistent(
                sx.nls_hamiltonian(n),
                lambda rng, n=n: (rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)),
                n_points=60,
            )

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            sx.nls_hamiltonian(1)

    def test_masses(self):
        obs = sx.nls_masses(np.array([3.0, 0.01]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(obs.masses, [10.0, 0.0001], rtol=0, atol=1e-18)
        assert obs.total == pytest.approx(10.0001, abs=1e-15)
        assert obs.modes == 2

    def test_masses_zero_state(self):
        obs = sx.nls_masses(np.zeros(3), np.zeros(3))
        assert obs.total == 0.0

    def test_total_mass_commutes_with_energy(self):
        # {I, H} vanishes; finite differences supply the energy gradients.
        m = sx.nls_hamiltonian(3)
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = rng.uniform(-1.5, 1.5, 3)
            p = rng.uniform(-1.5, 1.5, 3)
            ga, gb = fd_gradients(m, q, p)
            bracket = np.sum(2.0 * q * gb - 2.0 * p * ga)
            assert abs(bracket) <= 1e-8 * (1.0 + abs(m.value(q, p)))


SYSTEMS = {
    "product1d": sx.product_hamiltonian,
    "schwarzschild": sx.schwarzschild_hamiltonian,
    "nls2": lambda: sx.nls_hamiltonian(2),
    "nls5": lambda: sx.nls_hamiltonian(5),
}


def _sample_points(name, rng, shape, scale=1.0):
    model = SYSTEMS[name]()
    a = scale * rng.uniform(-2.0, 2.0, shape + (model.dim,))
    b = scale * rng.uniform(-2.0, 2.0, shape + (model.dim,))
    if name == "schwarzschild":
        a[..., 1] = scale * rng.uniform(2.5, 40.0, shape)
    return model, a, b


class TestGradientComponents:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_floats_columns_and_pair_agree_bitwise(self, name):
        model, a, b = _sample_points(name, np.random.default_rng(len(name)), (64,))
        ga, gb = model.pair(a, b)
        cols = model.grad_components(*a.T, *b.T)
        np.testing.assert_array_equal(np.broadcast_arrays(*cols[0], ga[:, 0])[:-1], ga.T)
        np.testing.assert_array_equal(np.broadcast_arrays(*cols[1], gb[:, 0])[:-1], gb.T)
        for lane in range(len(a)):
            fa, fb = model.grad_components(*a[lane].tolist(), *b[lane].tolist())
            assert all(type(v) is float for v in (*fa, *fb))
            np.testing.assert_array_equal(fa, ga[lane])
            np.testing.assert_array_equal(fb, gb[lane])

    @pytest.mark.parametrize("name, reference", [
        ("nls2", nls_grad_stencil), ("nls5", nls_grad_stencil), ("schwarzschild", schwarzschild_grad_arrays),
    ])
    def test_pair_equals_array_formula_bitwise(self, name, reference):
        model, a, b = _sample_points(name, np.random.default_rng(3), (50, 2))
        for got, want in zip(model.pair(a, b), reference(a, b)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_overflow_on_floats_fails_like_columns(self, name):
        # At this scale every cube (q^3, r^3) leaves the double range; a Python
        # float ** would raise OverflowError there, where numpy gives inf.
        model, a, b = _sample_points(name, np.random.default_rng(11), (8,), scale=1e120)
        with np.errstate(over="ignore", invalid="ignore"):
            ga, gb = model.pair(a, b)
            for lane in range(len(a)):
                fa, fb = model.grad_components(*a[lane].tolist(), *b[lane].tolist())
                np.testing.assert_array_equal(fa, ga[lane])
                np.testing.assert_array_equal(fb, gb[lane])


class TestExtendedSystem:
    def test_extended_energy_of_embedding(self):
        m = sx.product_hamiltonian()
        s = sx.embed([-3.0], [0.0])
        assert sx.extended_energy(m, 50.0, s) == pytest.approx(10.0, abs=1e-14)

    def test_extended_model_gradients(self):
        for base in (sx.product_hamiltonian(), sx.nls_hamiltonian(2)):
            wrapper = sx.extended_model(base, 3.0)
            assert_gradients_consistent(
                wrapper,
                lambda rng, d=wrapper.dim: (rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)),
                n_points=40,
            )

    def test_vector_field_matches_wrapper(self):
        m = sx.product_hamiltonian()
        rng = np.random.default_rng(21)
        q, p, x, y = (rng.normal(size=1) for _ in range(4))
        dq, dp, dx, dy = sx.extended_vector_field(m, 2.5, q, p, x, y)
        wrapper = sx.extended_model(m, 2.5)
        ga, gb = wrapper.pair(np.concatenate([q, x]), np.concatenate([p, y]))
        np.testing.assert_allclose(np.concatenate([dq, dx]), gb, rtol=1e-14)
        np.testing.assert_allclose(np.concatenate([dp, dy]), -ga, rtol=1e-14)

    def test_get_model_by_name(self):
        assert sx.get_model("product1d").dim == 1
        assert sx.get_model("schwarzschild").dim == 3
        assert sx.get_model("nls", n_modes=6).dim == 6
        with pytest.raises(ValueError):
            sx.get_model("pendulum")

    def test_default_initial_conditions(self):
        Q0, P0 = sx.default_initial_condition("product1d")
        np.testing.assert_array_equal(Q0, [-3.0])
        np.testing.assert_array_equal(P0, [0.0])
        Q0, P0 = sx.default_initial_condition("nls", n_modes=5)
        np.testing.assert_array_equal(Q0, [3.0, 0.01, 0.01, 0.01, 0.01])
        np.testing.assert_array_equal(P0, [1.0, 0.0, 0.0, 0.0, 0.0])
