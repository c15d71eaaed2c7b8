import math

import numpy as np
import pytest

from qtomo import groups, numerics

TWO_PI = 2.0 * math.pi


class TestQuorumSpec:
    def test_weyl_heisenberg_data(self):
        spec = groups.QuorumSpec.weyl_heisenberg()
        assert spec.sphere_dim == 1
        assert spec.formal_degree == pytest.approx(1.0 / TWO_PI, rel=1e-15)
        assert spec.sphere_volume == pytest.approx(TWO_PI, rel=1e-15)
        assert math.isinf(spec.radial_cutoff)

    def test_su2_data(self):
        for two_j in (1, 2, 3):
            spec = groups.QuorumSpec.su2(two_j)
            assert spec.sphere_dim == 2
            assert spec.formal_degree == pytest.approx(
                (two_j + 1) / (16.0 * math.pi**2), rel=1e-15
            )
            assert spec.sphere_volume == pytest.approx(4.0 * math.pi, rel=1e-15)
            assert spec.radial_cutoff == pytest.approx(TWO_PI, rel=1e-15)


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


class TestRadialWeight:
    def test_weyl_heisenberg_is_linear(self):
        spec = groups.QuorumSpec.weyl_heisenberg()
        assert groups.radial_weight(spec, 3.7) == 3.7

    def test_su2_at_pi(self):
        spec = groups.QuorumSpec.su2(1)
        assert groups.radial_weight(spec, math.pi) == pytest.approx(4.0, abs=1e-14)

    def test_su2_outside_chart(self):
        spec = groups.QuorumSpec.su2(1)
        assert groups.radial_weight(spec, 6.5) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            groups.radial_weight(groups.QuorumSpec.su2(1), 0.0)

    def test_integral_reproduces_haar_volume(self):
        # radial weight integrated over the chart, times the sphere area
        spec = groups.QuorumSpec.su2(1)
        radial = numerics.integrate_real(
            lambda t: np.array([groups.radial_weight(spec, v) for v in np.atleast_1d(t)]),
            1e-12,
            TWO_PI,
            tol=1e-10,
        )
        assert spec.sphere_volume * radial == pytest.approx(
            groups.SU2_HAAR_VOLUME, abs=1e-8
        )


class TestHaarIntegral:
    def test_unit_function_gives_chart_volume(self):
        volume = groups.haar_integral_su2(lambda g: 1.0, tol=1e-8)
        assert volume.real == pytest.approx(groups.SU2_HAAR_VOLUME, rel=1e-6)
        assert abs(volume.imag) <= 1e-9

    def test_matrix_element_integrates_to_zero(self):
        value = groups.haar_integral_su2(lambda g: g[0, 0], tol=1e-8)
        assert abs(value) <= 1e-6

    def test_squared_coefficient_matches_formal_degree(self):
        rng = np.random.default_rng(21)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        value = groups.haar_integral_su2(lambda g: abs(u.conj() @ (g @ v)) ** 2, tol=1e-7)
        assert value.real == pytest.approx(8.0 * math.pi**2, rel=1e-6)

    def test_level_matches_pointwise_reference(self):
        # the per-point loop the stacked level replaced, summed in the same
        # node order; only the radial summation order differs
        u = np.array([0.6, 0.8j])
        f = lambda g: (u.conj() @ g @ u) * g[1, 0] + np.trace(g) ** 2
        axes, sphere_w = numerics.sphere_rule(16)
        t, t_w = numerics.panel_rule(0.0, 2.0 * math.pi, 2)
        t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
        want = 0.0 + 0.0j
        for axis, w_n in zip(axes, sphere_w):
            acc = sum(w * complex(f(groups.su2_exponential(r, axis))) for r, w in zip(t, t_w))
            want += w_n * acc
        got = groups._haar_level(f, 16, 2)
        assert abs(got - 4.0 * math.pi * want) <= 1e-12 * abs(4.0 * math.pi * want)

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
        degree = groups.QuorumSpec.su2(two_j).formal_degree
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
        via_haar = groups.haar_integral_su2(lambda g: abs(g[0, 0]) ** 2, tol=1e-7)
        degree = groups.QuorumSpec.su2(1).formal_degree
        assert via_haar.real == pytest.approx(1.0 / degree * 1.0, rel=1e-6)
        residual = groups.orthogonality_residual(1, e0, e0, e0, e0)
        assert residual <= 1e-6 * (1.0 + 1.0 / degree)

    def test_rejects_dimension_mismatch(self):
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="dimension"):
            groups.orthogonality_residual(1, e0, e0, e0, e0)
