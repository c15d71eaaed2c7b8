import math
import tracemalloc

import numpy as np
import pytest

from qtomo import cli, groups, numerics, spin

TWO_PI = 2.0 * math.pi


class TestFormalDegree:
    def test_su2_formal_degree(self):
        for two_j in (1, 2, 3):
            assert groups.su2_formal_degree(two_j) == pytest.approx(
                (two_j + 1) / (16.0 * math.pi**2), rel=1e-15
            )

    def test_rejects_two_j_below_one(self):
        with pytest.raises(ValueError, match="two_j must be >= 1"):
            groups.su2_formal_degree(0)


class TestJacobian:
    def test_all_zero_eigenvalues(self):
        assert groups.jacobian_from_eigenvalues([0.0, 0.0, 0.0]) == 1.0

    def test_su2_triple_at_pi(self):
        # direct complex product: (1-e^{-ir})(1-e^{ir})/r^2 = (2-2cos r)/r^2
        r = math.pi
        want = (2.0 - 2.0 * math.cos(r)) / r**2
        got = groups.jacobian_from_eigenvalues([0.0, 1j * r, -1j * r])
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(4.0 / math.pi**2, abs=1e-15)

    def test_matches_closed_form_on_100_radii(self):
        for r in np.linspace(1e-3, TWO_PI - 1e-3, 100):
            product = groups.jacobian_from_eigenvalues([0.0, 1j * r, -1j * r])
            closed = 4.0 * math.sin(r / 2.0) ** 2 / (r * r)
            assert abs(product - closed) <= 1e-12

    def test_continuity_at_zero(self):
        assert groups.jacobian_from_eigenvalues([0.0, 1e-10j, -1e-10j]) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_rejects_conjugate_open_list(self):
        with pytest.raises(ValueError, match="conjugate"):
            groups.jacobian_from_eigenvalues([2.0j])


class TestHaarIntegral:
    def test_unit_function_gives_chart_volume(self):
        volume = groups.haar_integral_su2(lambda g: 1.0)
        assert volume.real == pytest.approx(groups.SU2_HAAR_VOLUME, rel=1e-6)
        assert abs(volume.imag) <= 1e-9

    def test_matrix_element_integrates_to_zero(self):
        value = groups.haar_integral_su2(lambda g: g[..., 0, 0])
        assert abs(value) <= 1e-6

    def test_squared_coefficient_matches_formal_degree(self):
        rng = np.random.default_rng(21)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        value = groups.haar_integral_su2(lambda g: abs((g @ v) @ u.conj()) ** 2)
        assert value.real == pytest.approx(8.0 * math.pi**2, rel=1e-6)

    def test_traced_peak_stays_small(self):
        # the chart points are formed in blocks of _CHART_BLOCK entries
        tracemalloc.start()
        try:
            assert groups.haar_integral_su2(lambda g: 1.0).real == pytest.approx(
                groups.SU2_HAAR_VOLUME, rel=1e-12
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 2**20

    def test_level_matches_pointwise_reference(self):
        # the per-point loop the stacked level replaced, summed in the same
        # node order; only the radial summation order differs
        # f takes one chart point or a stack of them
        u = np.array([0.6, 0.8j])
        f = lambda g: ((g @ u) @ u.conj()) * g[..., 1, 0] + np.trace(g, axis1=-2, axis2=-1) ** 2
        axes, sphere_w = spin.sphere_rule(16)
        t, t_w = numerics.panel_rule(0.0, 2.0 * math.pi, 2)
        t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
        want = 0.0 + 0.0j
        for axis, w_n in zip(axes, sphere_w):
            acc = sum(w * complex(f(groups.su2_exponential(r, axis))) for r, w in zip(t, t_w))
            want += w_n * acc
        got = groups._haar_level(f, 16, t, t_w)
        assert abs(got - 4.0 * math.pi * want) <= 1e-12 * abs(4.0 * math.pi * want)

    @pytest.mark.parametrize("sphere_order, radial_panels", [(16, 2), (24, 4)])
    def test_constant_is_summed_node_by_node(self, sphere_order, radial_panels):
        # the levels `validate` takes: nodes accumulate one at a time in node
        # order, so the chart volume keeps its digits; a pairwise sum over the
        # nodes moves it by 2e-15 and 1.5e-14 relative
        _, sphere_w = spin.sphere_rule(sphere_order)
        t, t_w = numerics.panel_rule(0.0, 2.0 * math.pi, radial_panels)
        t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
        want = 0.0 + 0.0j
        for w_n in sphere_w:
            want += w_n * (t_w @ np.ones(len(t), dtype=complex))
        want *= 4.0 * math.pi
        got = groups._haar_level(lambda g: 1.0, sphere_order, t, t_w)
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize(
        "f",
        [lambda g: g[0, 0], lambda g: g[..., 0], lambda g: np.ones(3)],
        ids=["per-matrix", "one-row-per-matrix", "fixed-length"],
    )
    def test_rejects_integrand_of_wrong_shape(self, f):
        with pytest.raises(ValueError, match="integrand returned shape"):
            groups.haar_integral_su2(f)

    def test_cap_reports_the_last_two_levels(self, monkeypatch):
        # a tolerance of 0 is never met: the ladder runs to its last level
        monkeypatch.setattr(groups, "CHART_TOL", 0.0)
        with pytest.raises(numerics.QuadratureError) as info:
            groups.haar_integral_su2(lambda g: 1.0)
        coarse, fine = info.value.estimates
        assert coarse != fine
        assert abs(fine - coarse) <= 1e-12 * groups.SU2_HAAR_VOLUME

    def test_nan_integrand_does_not_converge(self):
        # a NaN estimate never agrees with the level before it
        with np.errstate(invalid="ignore"), pytest.raises(numerics.QuadratureError) as info:
            groups.haar_integral_su2(lambda g: np.full(len(g), np.nan))
        assert all(np.isnan(value) for value in info.value.estimates)

    def test_exponential_chart_element(self):
        g = groups.su2_exponential(0.0, (0.0, 0.0, 1.0))
        np.testing.assert_allclose(g, np.eye(2), atol=1e-15)
        g = groups.su2_exponential(math.pi, (0.0, 0.0, 1.0))
        np.testing.assert_allclose(g, np.diag([1j, -1j]), atol=1e-15)
        # group element is unitary with det 1
        g = groups.su2_exponential(1.234, (0.6, -0.48, 0.64))
        np.testing.assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-14)
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-14)


class TestOrthogonality:
    def test_basis_quadruple_spin_half(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        residual = groups.orthogonality_residual(1, e0, e0, e0, e0)
        rhs = 8.0 * math.pi**2
        assert residual <= 1e-6 * (1.0 + rhs)

    def test_orthogonal_u_pair_vanishes(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        rng = np.random.default_rng(4)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        residual = groups.orthogonality_residual(1, e0, e1, v, v)
        assert residual <= 1e-6

    @pytest.mark.parametrize("two_j", [1, 2])
    def test_random_quadruples(self, two_j):
        rng = np.random.default_rng(100 + two_j)
        degree = groups.su2_formal_degree(two_j)
        dim = two_j + 1
        for _ in range(20):
            vecs = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
            u1, u2, v1, v2 = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            residual = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
            rhs = abs((u1.conj() @ u2) * (v2.conj() @ v1) / degree)
            assert residual <= 1e-6 * (1.0 + rhs)

    def test_agrees_with_generic_haar_oracle(self):
        # same integral through the generic 2x2-matrix surface
        e0 = np.array([1.0, 0.0], dtype=complex)
        via_haar = groups.haar_integral_su2(lambda g: abs(g[..., 0, 0]) ** 2)
        degree = groups.su2_formal_degree(1)
        assert via_haar.real == pytest.approx(1.0 / degree * 1.0, rel=1e-6)
        residual = groups.orthogonality_residual(1, e0, e0, e0, e0)
        assert residual <= 1e-6 * (1.0 + 1.0 / degree)

    @pytest.mark.parametrize("two_j", [16, 20])
    def test_converges_at_large_j(self, two_j):
        # a fixed pair of levels raised here; the ladder climbs until two agree
        rng = np.random.default_rng(200 + two_j)
        degree = groups.su2_formal_degree(two_j)
        vecs = rng.normal(size=(4, 3, two_j + 1)) + 1j * rng.normal(size=(4, 3, two_j + 1))
        u1, u2, v1, v2 = vecs / np.linalg.norm(vecs, axis=2, keepdims=True)
        u2[0] = u1[0]
        v2[0] = v1[0]
        residual = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
        rhs = np.abs(np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1) / degree)
        assert np.all(residual <= 1e-6 * (1.0 + rhs))

    def test_nan_vector_does_not_converge(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(
            numerics.QuadratureError, match="^quadruple 0: "
        ):
            groups.orthogonality_residual(1, [np.nan, 0.0], e0, e0, e0)

    def test_traced_peak_at_two_j_16_stays_below_4_mib(self):
        # the whole level's eigenbases at once peaked at 42 MiB here
        rng = np.random.default_rng(216)
        vecs = rng.normal(size=(4, 4, 17)) + 1j * rng.normal(size=(4, 4, 17))
        u1, u2, v1, v2 = vecs / np.linalg.norm(vecs, axis=2, keepdims=True)
        tracemalloc.start()
        try:
            residual = groups.orthogonality_residual(16, u1, u2, v1, v2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rhs = np.abs(np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1))
        assert np.all(residual <= 1e-6 * (1.0 + rhs / groups.su2_formal_degree(16)))
        assert peak < 4 * 2**20

    def test_two_j_41_converges_at_the_last_level_below_32_mib(self, monkeypatch):
        level = groups._ortho_level
        orders = []

        def recorded(two_j, quads, sphere_order, *rule):
            orders.append(sphere_order)
            return level(two_j, quads, sphere_order, *rule)

        monkeypatch.setattr(groups, "_ortho_level", recorded)
        rng = np.random.default_rng(241)
        vecs = rng.normal(size=(4, 4, 42)) + 1j * rng.normal(size=(4, 4, 42))
        u1, u2, v1, v2 = vecs / np.linalg.norm(vecs, axis=2, keepdims=True)
        u2[0] = u1[0]
        v2[0] = v1[0]
        tracemalloc.start()
        try:
            residual = groups.orthogonality_residual(41, u1, u2, v1, v2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rhs = np.abs(np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1))
        assert np.all(residual <= 1e-6 * (1.0 + rhs / groups.su2_formal_degree(41)))
        assert orders == [16, 24, 48, 96]
        assert peak < 32 * 2**20

    def test_rejects_dimension_mismatch(self):
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="dimension"):
            groups.orthogonality_residual(1, e0, e0, e0, e0)


def validate_quadruples(two_j, seed=2024):
    """The six quadruples ``qtomo validate`` checks for ``two_j``, from the
    suite's own draw: a basis quadruple, then five random unit quadruples;
    each slot of shape (6, dim)."""
    return cli._validation_inputs(seed)["quadruples"][two_j]


def ortho_level_per_radial_node(two_j, quads, axes, sphere_w, t, t_w):
    """One chart level of the orthogonality oracle, summed as its definition
    reads: at each radial node t the product of the matrix coefficients
    u1^H U v1 and conj(u2^H U v2), U = W e^{i t m} W^H, added with weight w_t."""
    u1, u2, v1, v2 = quads
    _, w = spin.axis_eigh(two_j, axes)
    m_values = -two_j / 2.0 + np.arange(two_j + 1)
    radial = np.zeros((len(u1), len(axes)), dtype=complex)
    for node, weight in zip(t, t_w):
        u = np.einsum("rnm,m,rkm->rnk", w, np.exp(1j * node * m_values), w.conj())
        first = np.einsum("qn,rnk,qk->qr", u1.conj(), u, v1)
        second = np.einsum("qn,rnk,qk->qr", u2.conj(), u, v2)
        radial += weight * first * second.conj()
    return 4.0 * math.pi * (radial @ sphere_w)


class TestStackedOrthogonality:
    @pytest.mark.parametrize("two_j", [1, 2])
    def test_stack_matches_one_quadruple_calls(self, two_j):
        u1, u2, v1, v2 = validate_quadruples(two_j)
        degree = groups.su2_formal_degree(two_j)
        stacked = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
        assert stacked.shape == (6,)
        for k in range(6):
            single = groups.orthogonality_residual(two_j, u1[k], u2[k], v1[k], v2[k])
            assert isinstance(single, float)
            rhs = abs((u1[k].conj() @ u2[k]) * (v2[k].conj() @ v1[k]) / degree)
            assert abs(stacked[k] - single) <= 1e-14 * (1.0 + rhs)

    @pytest.mark.parametrize("two_j", [1, 2, 16])
    def test_factored_level_matches_per_radial_node_sum(self, two_j):
        rng = np.random.default_rng(400 + two_j)
        vecs = rng.normal(size=(4, 3, two_j + 1)) + 1j * rng.normal(size=(4, 3, two_j + 1))
        quads = list(vecs / np.linalg.norm(vecs, axis=2, keepdims=True))
        axes, sphere_w = spin.sphere_rule(16)
        t, t_w = numerics.panel_rule(0.0, 2.0 * math.pi, 2)
        t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
        want = ortho_level_per_radial_node(two_j, quads, axes, sphere_w, t, t_w)
        got = groups._ortho_level(two_j, quads, 16, t, t_w)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_one_eigenbasis_per_level(self, monkeypatch):
        # the sphere nodes' eigenbases are rotations of the one J_y eigenbasis
        calls = []
        eigh = spin.axis_eigh

        def counted(two_j, axes):
            calls.append((two_j, axes.tolist()))
            return eigh(two_j, axes)

        monkeypatch.setattr(spin, "axis_eigh", counted)
        groups.orthogonality_residual(2, *validate_quadruples(2))
        assert calls == [(2, [[0.0, 1.0, 0.0]])] * 2

    def test_traced_peak_stays_small(self):
        quadruples = validate_quadruples(2)
        tracemalloc.start()
        try:
            groups.orthogonality_residual(2, *quadruples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_names_the_first_quadruple_that_does_not_converge(self, monkeypatch):
        level = groups._ortho_level
        calls = []

        def perturbed(two_j, quads, sphere_order, *rule):
            # every level past the first moves by 1e-6 more than the one before
            lhs = level(two_j, quads, sphere_order, *rule)
            lhs[[2, 4]] += 1e-6 * len(calls)
            calls.append(sphere_order)
            return lhs

        monkeypatch.setattr(groups, "_ortho_level", perturbed)
        with pytest.raises(numerics.QuadratureError, match="^quadruple 2: ") as info:
            groups.orthogonality_residual(1, *validate_quadruples(1))
        coarse, fine = info.value.estimates
        assert abs(fine - coarse) == pytest.approx(1e-6, rel=1e-3)
        # the sphere orders of the levels (16, 2), (24, 4), (48, 8) and (96, 16)
        assert calls == [16, 24, 48, 96]

    def test_rejects_stacks_of_different_lengths(self):
        u1, u2, v1, v2 = validate_quadruples(1)
        with pytest.raises(ValueError, match="same number"):
            groups.orthogonality_residual(1, u1, u2[:5], v1, v2)
