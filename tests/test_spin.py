import math
import time
import tracemalloc

import numpy as np
import pytest

from qtomo import groups, numerics, spin
from qtomo._jsonio import RecordError
from qtomo._rng import record_uniforms

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def random_state(rng, two_j):
    dim = two_j + 1
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = raw @ raw.conj().T
    return spin.SpinDensityMatrix(two_j, m / np.trace(m).real)


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_axis(rng):
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis)


def random_axes(rng, count):
    axes = rng.normal(size=(count, 3))
    return axes / np.linalg.norm(axes, axis=1)[:, None]


def eigh_diagonals(matrix, two_j, axes):
    """Oracle: the diagonal of ``matrix`` in each J_n eigenbasis, by eigh."""
    _, vectors = spin.axis_eigh(two_j, axes)
    return np.einsum("rnk,nm,rmk->rk", vectors.conj(), matrix, vectors).real


def eigh_sampler(rho, count, seed):
    """The sampler before the harmonic table: eigh per record, then clip,
    normalize, cumsum and draw.  Also returns each record's CDF and draw."""
    two_j = rho.two_j
    u = record_uniforms(seed, 0, count, 3)
    z = 2.0 * u[:, 0] - 1.0
    az = 2.0 * np.pi * u[:, 1]
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    axes = np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)
    p = np.clip(eigh_diagonals(rho.matrix, two_j, axes), 0.0, None)
    cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    draws = u[:, 2] * cdf[:, -1]
    idx = np.minimum((cdf >= draws[:, None]).argmax(axis=1), two_j)
    return axes, -two_j + 2 * idx, cdf, draws


def table_targets(rng, two_j):
    """The operators and states a harmonic table is built for."""
    jx, jy, jz = spin.spin_matrices(two_j)
    return {
        "Jx": jx,
        "Jy": jy,
        "Jz": jz,
        "spin-matrix": random_hermitian(rng, two_j + 1),
        "mixed state": random_state(rng, two_j).matrix,
    }


class TestSpinMatrices:
    def test_spin_half_pauli_relation(self):
        jx, jy, jz = spin.spin_matrices(1)
        np.testing.assert_allclose(jx, SIGMA[0] / 2.0, atol=1e-15)
        # ascending-m ordering flips the y and z frame axes relative to the
        # literal Pauli matrices; spectra and algebra are unchanged
        np.testing.assert_allclose(np.linalg.eigvalsh(jy), [-0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(jz), [-0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(np.abs(jy), np.abs(SIGMA[1]) / 2.0, atol=1e-15)

    def test_spin_one_jz_diagonal(self):
        _, _, jz = spin.spin_matrices(2)
        np.testing.assert_allclose(jz, np.diag([-1.0, 0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 5])
    def test_commutation_relations(self, two_j):
        jx, jy, jz = spin.spin_matrices(two_j)
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            comm = a @ b - b @ a
            assert np.max(np.abs(comm - 1j * c)) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_casimir(self, two_j):
        jx, jy, jz = spin.spin_matrices(two_j)
        j = two_j / 2.0
        total = jx @ jx + jy @ jy + jz @ jz
        assert np.max(np.abs(total - j * (j + 1) * np.eye(two_j + 1))) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 3, 7])
    def test_jz_spectrum(self, two_j):
        _, _, jz = spin.spin_matrices(two_j)
        j = two_j / 2.0
        np.testing.assert_allclose(
            np.linalg.eigvalsh(jz), np.arange(-j, j + 0.5), atol=1e-12
        )

    @pytest.mark.parametrize("two_j", [0, spin.MAX_TWO_J + 1, 10**6])
    def test_size_outside_the_limit_is_rejected_before_allocating(self, two_j):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"two_j must be in 1..{spin.MAX_TWO_J}"):
            spin.spin_matrices(two_j)
        assert time.perf_counter() - start < 0.1

    def test_limit_admits_the_largest_tested_spin(self):
        # the orthogonality oracle converges up to two_j 41 and is tested there
        assert spin.MAX_TWO_J >= 41
        assert spin.spin_matrices(spin.MAX_TWO_J)[2].shape == (spin.MAX_TWO_J + 1,) * 2


class TestAxisOperator:
    def test_z_axis_is_jz(self):
        for two_j in (1, 2):
            _, _, jz = spin.spin_matrices(two_j)
            np.testing.assert_allclose(
                spin.axis_operator(two_j, (0.0, 0.0, 1.0)), jz, atol=1e-15
            )

    def test_x_axis_spin_half(self):
        np.testing.assert_allclose(
            spin.axis_operator(1, (1.0, 0.0, 0.0)), SIGMA[0] / 2.0, atol=1e-15
        )

    def test_random_axis_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            jn = spin.axis_operator(3, random_axis(rng))
            np.testing.assert_allclose(
                np.linalg.eigvalsh(jn), [-1.5, -0.5, 0.5, 1.5], atol=1e-10
            )

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="unit"):
            spin.axis_operator(1, (1.0, 1.0, 0.0))
        nan_axis = (math.nan, 0.0, 1.0)
        with pytest.raises(ValueError, match="unit"):
            spin.axis_operator(1, nan_axis)
        with pytest.raises(ValueError, match="unit"):
            spin.spin_probabilities(spin.maximally_mixed(1), nan_axis)
        with pytest.raises(ValueError, match="unit"):
            spin.kernel_spin_closed(np.eye(2), nan_axis, 1)
        with pytest.raises(ValueError, match="unit"):
            spin.kernel_spin_numeric(np.eye(2), nan_axis, 1)


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            spin.SpinDensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(numerics.NonHermitianError):
            spin.SpinDensityMatrix(1, m)

    def test_rejects_negative_state(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            spin.SpinDensityMatrix(1, m)


class TestProbabilities:
    def test_aligned_state_z_axis(self):
        m = np.zeros((3, 3), dtype=complex)
        m[2, 2] = 1.0  # |j, j> in ascending-m order
        rho = spin.SpinDensityMatrix(2, m)
        np.testing.assert_allclose(
            spin.spin_probabilities(rho, (0.0, 0.0, 1.0)), [0.0, 0.0, 1.0], atol=1e-12
        )

    def test_maximally_mixed_uniform(self):
        rng = np.random.default_rng(23)
        for two_j in (1, 2, 3):
            rho = spin.maximally_mixed(two_j)
            p = spin.spin_probabilities(rho, random_axis(rng))
            np.testing.assert_allclose(p, np.full(two_j + 1, 1.0 / (two_j + 1)), atol=1e-12)

    def test_tilted_axis_overlap_law(self):
        # p(+1/2) = cos^2(theta/2) for the spin-up state and a tilted axis
        m = np.zeros((2, 2), dtype=complex)
        m[1, 1] = 1.0  # m = +1/2
        rho = spin.SpinDensityMatrix(1, m)
        for theta in (0.0, 0.4, 1.3, 2.8, math.pi):
            axis = (math.sin(theta), 0.0, math.cos(theta))
            p = spin.spin_probabilities(rho, axis)
            assert p[1] == pytest.approx(math.cos(theta / 2.0) ** 2, abs=1e-12)

    def test_invariant_under_eigenvector_phases(self):
        rng = np.random.default_rng(29)
        rho = random_state(rng, 2)
        axis = random_axis(rng)
        p = spin.spin_probabilities(rho, axis)
        jn = spin.axis_operator(2, axis)
        _, vectors = np.linalg.eigh(jn)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=3))
        twisted = vectors * phases
        p_twisted = np.einsum("nk,nm,mk->k", twisted.conj(), rho.matrix, twisted).real
        np.testing.assert_allclose(p, p_twisted, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(31)
        for two_j in (1, 3):
            rho = random_state(rng, two_j)
            p = spin.spin_probabilities(rho, random_axis(rng))
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= 0.0)


class TestSampling:
    def test_maximally_mixed_frequencies(self):
        rho = spin.maximally_mixed(1)
        records = spin.sample_spin(rho, 100_000, seed=101)
        up = int(np.sum(records["two_m"] == 1))
        assert up / len(records) == pytest.approx(0.5, abs=0.01)

    def test_axis_mean_is_isotropic(self):
        rho = spin.maximally_mixed(1)
        records = spin.sample_spin(rho, 100_000, seed=5)
        mean = np.mean(records["axis"], axis=0)
        assert np.max(np.abs(mean)) <= 0.01

    def test_outcome_labels_are_valid(self):
        rng = np.random.default_rng(2)
        rho = random_state(rng, 3)
        for two_m in spin.sample_spin(rho, 500, seed=9)["two_m"]:
            assert abs(two_m) <= 3
            assert (two_m - 3) % 2 == 0

    def test_fixed_seed_reproduces_stream(self):
        rho = spin.maximally_mixed(2)
        a = spin.sample_spin(rho, 300, seed=7)
        b = spin.sample_spin(rho, 300, seed=7)
        assert np.array_equal(a, b)

    def test_prefix_purity(self):
        rng = np.random.default_rng(13)
        rho = random_state(rng, 1)
        long = spin.sample_spin(rho, 9000, seed=3)
        short = spin.sample_spin(rho, 50, seed=3)
        assert np.array_equal(long[:50], short)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            spin.sample_spin(spin.maximally_mixed(1), 0, seed=1)


class TestKernels:
    def test_identity_spin_half_edge(self):
        eye = np.eye(2, dtype=complex)
        axis = (0.0, 0.0, 1.0)
        assert spin.kernel_spin_closed(eye, axis, 1) == pytest.approx(1.0, abs=1e-12)
        assert spin.kernel_spin_numeric(eye, axis, 1) == pytest.approx(1.0, abs=1e-9)

    def test_identity_spin_one_interior(self):
        eye = np.eye(3, dtype=complex)
        axis = (0.0, 0.0, 1.0)
        assert spin.kernel_spin_closed(eye, axis, 0) == pytest.approx(0.0, abs=1e-12)
        assert spin.kernel_spin_numeric(eye, axis, 0) == pytest.approx(0.0, abs=1e-9)

    def test_jz_spin_half(self):
        _, _, jz = spin.spin_matrices(1)
        assert spin.kernel_spin_closed(jz, (0.0, 0.0, 1.0), 1) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_jz_estimator_projects_axis(self):
        # sigma(J_z)(n, m) = 3 m n_z for spin 1/2
        _, _, jz = spin.spin_matrices(1)
        rng = np.random.default_rng(37)
        for _ in range(5):
            axis = random_axis(rng)
            for two_lambda in (-1, 1):
                got = spin.kernel_spin_closed(jz, axis, two_lambda)
                assert got == pytest.approx(1.5 * two_lambda * axis[2], abs=1e-12)

    def test_vanishing_diagonal_pattern(self):
        jx, _, _ = spin.spin_matrices(2)
        for two_lambda in (-2, 0, 2):
            assert spin.kernel_spin_closed(jx, (0.0, 0.0, 1.0), two_lambda) == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_closed_matches_numeric(self, two_j):
        rng = np.random.default_rng(40 + two_j)
        a_matrix = random_hermitian(rng, two_j + 1)
        for _ in range(5):
            axis = random_axis(rng)
            for two_lambda in range(-two_j, two_j + 1, 2):
                closed = spin.kernel_spin_closed(a_matrix, axis, two_lambda)
                numeric = spin.kernel_spin_numeric(a_matrix, axis, two_lambda)
                assert abs(closed - numeric) <= 1e-9

    def test_general_kernel_hermitian_decomposition(self):
        rng = np.random.default_rng(51)
        h1 = random_hermitian(rng, 3)
        h2 = random_hermitian(rng, 3)
        a_matrix = h1 + 1j * h2
        axis = random_axis(rng)
        for two_lambda in (-2, 0, 2):
            got = spin.kernel_spin_closed_general(a_matrix, axis, two_lambda)
            want = spin.kernel_spin_closed(h1, axis, two_lambda) + 1j * spin.kernel_spin_closed(
                h2, axis, two_lambda
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_lambda(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            spin.kernel_spin_closed(eye, (0.0, 0.0, 1.0), 2)
        with pytest.raises(ValueError):
            spin.kernel_spin_closed(eye, (0.0, 0.0, 1.0), 0)

    @pytest.mark.parametrize("two_j", range(1, 7))
    def test_array_of_lambdas_matches_one_call_per_lambda(self, two_j):
        rng = np.random.default_rng(300 + two_j)
        raw = rng.normal(size=(two_j + 1, two_j + 1)) + 1j * rng.normal(size=(two_j + 1, two_j + 1))
        a_matrix = (raw + raw.conj().T) / 2.0
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        two_lambdas = np.arange(-two_j, two_j + 1, 2)
        closed = spin.kernel_spin_closed(a_matrix, axis, two_lambdas)
        numeric = spin.kernel_spin_numeric(a_matrix, axis, two_lambdas)
        assert closed.shape == numeric.shape == (two_j + 1,)
        for k, two_lambda in enumerate(two_lambdas.tolist()):
            one_closed = spin.kernel_spin_closed(a_matrix, axis, two_lambda)
            one_numeric = spin.kernel_spin_numeric(a_matrix, axis, two_lambda)
            assert isinstance(one_closed, float) and isinstance(one_numeric, float)
            assert abs(closed[k] - one_closed) <= numerics.QUADRATURE_TOL
            assert abs(numeric[k] - one_numeric) <= numerics.QUADRATURE_TOL

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_stack_of_axes_matches_one_call_per_axis(self, two_j, monkeypatch):
        rng = np.random.default_rng(320 + two_j)
        a_matrix = random_hermitian(rng, two_j + 1)
        axes = random_axes(rng, 5)
        two_lambdas = np.arange(-two_j, two_j + 1, 2)
        calls = []
        eigh = spin.axis_eigh
        monkeypatch.setattr(spin, "axis_eigh", lambda *args: calls.append(1) or eigh(*args))
        closed = spin.kernel_spin_closed(a_matrix, axes, two_lambdas)
        numeric = spin.kernel_spin_numeric(a_matrix, axes, two_lambdas)
        assert calls == [1, 1]
        assert closed.shape == numeric.shape == (5, two_j + 1)
        assert spin.kernel_spin_closed(a_matrix, axes, two_lambdas[0]).shape == (5,)
        assert spin.kernel_spin_numeric(a_matrix, axes, two_lambdas[0]).shape == (5,)
        for axis, closed_row, numeric_row in zip(axes, closed, numeric):
            assert np.array_equal(closed_row, spin.kernel_spin_closed(a_matrix, axis, two_lambdas))
            one = spin.kernel_spin_numeric(a_matrix, axis, two_lambdas)
            assert np.all(np.abs(numeric_row - one) <= numerics.QUADRATURE_TOL)

    def test_stack_of_axes_rejects_a_non_unit_axis(self):
        axes = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        for oracle in (spin.kernel_spin_closed, spin.kernel_spin_numeric):
            with pytest.raises(ValueError, match="unit"):
                oracle(np.eye(2), axes, 1)

    @pytest.mark.parametrize("oracle", [spin.kernel_spin_closed, spin.kernel_spin_numeric])
    def test_array_of_lambdas_rejects_any_invalid_element(self, oracle):
        jz = spin.spin_matrices(2)[2]
        with pytest.raises(ValueError, match="two_m=1 invalid for two_j=2"):
            oracle(jz, (0.0, 0.0, 1.0), np.array([-2, 0, 1, 2]))
        with pytest.raises(ValueError, match="two_m=4 invalid for two_j=2"):
            oracle(jz, (0.0, 0.0, 1.0), np.array([4]))
        with pytest.raises(ValueError, match="integer"):
            oracle(jz, (0.0, 0.0, 1.0), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="1-d array"):
            oracle(jz, (0.0, 0.0, 1.0), np.array([[0, 2]]))

    def test_prefactor_consistency_with_chart_measure(self):
        # the formal degree times the sphere area 4 pi and the chart's radial
        # weight 4 sin^2(t/2) reproduces the kernel integrand prefactor
        for two_j in (1, 2, 3):
            degree = groups.su2_formal_degree(two_j)
            for t in np.linspace(1e-3, 2.0 * math.pi - 1e-3, 100):
                chart = degree * 4.0 * math.pi * 4.0 * math.sin(t / 2.0) ** 2
                kernel = (two_j + 1) / math.pi * math.sin(t / 2.0) ** 2
                assert chart == pytest.approx(kernel, rel=1e-12)


class TestSphereRule:
    @pytest.mark.parametrize("order", range(1, 97))
    def test_gauss_legendre_matches_leggauss(self, order):
        # numpy.polynomial is the oracle here only; two ulp of 1, the scale of
        # [-1, 1], allow for the rounding of either rule
        want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
        nodes, weights = numerics._gauss_legendre(order)
        assert np.all(np.abs(nodes - want_nodes) <= 2.0 * np.spacing(1.0))
        assert np.all(np.abs(weights - want_weights) <= 2e-14)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])

    def test_repeat_call_returns_the_same_read_only_arrays(self):
        axes, w = spin.sphere_rule(5)
        again = spin.sphere_rule(5)
        assert again[0] is axes and again[1] is w
        assert axes.shape == (50, 3) and w.shape == (50,)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        for array in (axes, w):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_rejects_order_below_one(self):
        with pytest.raises(ValueError, match="order"):
            spin.sphere_rule(0)


class TestExactReconstruction:
    def test_maximally_mixed_identity(self):
        rho = spin.maximally_mixed(2)
        assert spin.exact_reconstruction(rho, np.eye(3, dtype=complex)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_jz_spin_one(self):
        rng = np.random.default_rng(61)
        rho = random_state(rng, 2)
        _, _, jz = spin.spin_matrices(2)
        want = float(np.trace(jz @ rho.matrix).real)
        assert spin.exact_reconstruction(rho, jz) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_random_pairs(self, two_j):
        rng = np.random.default_rng(70 + two_j)
        for _ in range(4):
            rho = random_state(rng, two_j)
            a_matrix = random_hermitian(rng, two_j + 1)
            want = float(np.trace(a_matrix @ rho.matrix).real)
            got = spin.exact_reconstruction(rho, a_matrix)
            assert abs(got - want) <= 1e-8

    @pytest.mark.parametrize("two_j", [16, 20, 30])
    def test_exact_at_large_j(self, two_j):
        # the sphere rule of order 2j + 1 integrates the degree-4j integrand
        # exactly; a fixed order 16 missed by 9e-3 to 7e-2 here
        rng = np.random.default_rng(90 + two_j)
        rho = random_state(rng, two_j)
        a_matrix = random_hermitian(rng, two_j + 1)
        want = float(np.trace(a_matrix @ rho.matrix).real)
        assert abs(spin.exact_reconstruction(rho, a_matrix) - want) <= 1e-12

    def test_traced_peak_stays_bounded_past_two_j_30(self):
        # every node's eigenbasis at once peaked at 86.4 MiB at two_j 30, and
        # blocks of nodes at ~24 MiB from 30 to 60; one theta row at a time
        # grows with j.  The rules are cached first, so no peak holds one
        peaks = {}
        for two_j in (30, 40, 60):
            spin.sphere_rule(two_j + 1)
        for two_j in (30, 40, 60):
            rng = np.random.default_rng(two_j)
            rho, a_matrix = random_state(rng, two_j), random_hermitian(rng, two_j + 1)
            tracemalloc.start()
            try:
                spin.exact_reconstruction(rho, a_matrix)
                _, peaks[two_j] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[30] <= 8 * 2**20
        assert peaks[40] <= 8 * 2**20
        assert peaks[60] <= 24 * 2**20


class TestBatchKernel:
    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(83)
        rho = random_state(rng, 2)
        records = spin.sample_spin(rho, 64, seed=12)
        for matrix in table_targets(rng, 2).values():
            batch = spin.SpinOperatorKernel(matrix).evaluate(records)
            for r, value in zip(records, batch):
                scalar = spin.kernel_spin_closed(matrix, r["axis"], r["two_m"])
                assert value == pytest.approx(scalar, abs=1e-12)
                assert value.imag == 0.0

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_one_two_m_rule_for_labels_and_records(self, two_j):
        kernel = spin.SpinOperatorKernel(spin.spin_matrices(two_j)[2])
        for two_m in range(-two_j - 3, two_j + 4):
            record = spin.spin_records([[0.0, 0.0, 1.0]], [two_m])
            fits = abs(two_m) <= two_j and (two_m - two_j) % 2 == 0
            if fits:
                spin.check_two_m(two_j, two_m)
                kernel.evaluate(record)
                continue
            with pytest.raises(ValueError, match=f"two_m={two_m} invalid"):
                spin.check_two_m(two_j, two_m)
            with pytest.raises(RecordError, match=f"record 0: two_m invalid for two_j={two_j}"):
                kernel.evaluate(record)

    def test_rejects_foreign_records(self):
        from qtomo.homodyne import homodyne_records

        kernel = spin.SpinOperatorKernel(np.eye(2, dtype=complex))
        with pytest.raises(TypeError, match="spin record"):
            kernel.evaluate(homodyne_records([0.0], [0.0]))


class TestZonalMatrix:
    """P[L, m] = p_L(m), the orthonormal polynomials on m = -j..+j."""

    @pytest.mark.parametrize("two_j", range(1, spin.MAX_TWO_J + 1))
    def test_orthogonal(self, two_j):
        zonal = spin._zonal_matrix(two_j)
        eye = np.eye(two_j + 1)
        assert np.max(np.abs(zonal @ zonal.T - eye)) <= 1e-14
        assert np.max(np.abs(zonal.T @ zonal - eye)) <= 1e-14

    @pytest.mark.parametrize("two_j", range(1, spin.MAX_TWO_J + 1))
    def test_row_l_is_orthogonal_to_every_lower_power(self, two_j):
        # so row L has degree L: with P orthogonal, no lower degree is left for it
        zonal = spin._zonal_matrix(two_j)
        # powers of m / j, so every m**k is on one scale
        x = np.linspace(-1.0, 1.0, two_j + 1)
        moments = zonal @ np.vander(x, two_j + 1, increasing=True)
        assert np.max(np.abs(np.tril(moments, -1))) <= 1e-13
        np.testing.assert_allclose(zonal[0], 1.0 / math.sqrt(two_j + 1), rtol=0.0, atol=1e-14)

    def test_cached_and_read_only(self):
        zonal = spin._zonal_matrix(6)
        assert spin._zonal_matrix(6) is zonal
        with pytest.raises(ValueError):
            zonal[0, 0] = 1.0


class TestHarmonicTable:
    """One table per spin state and observable, against the eigh oracle."""

    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_matches_eigh_on_random_axes(self, two_j):
        rng = np.random.default_rng(100 + two_j)
        axes = random_axes(rng, 1000)
        for name, matrix in table_targets(rng, two_j).items():
            want = eigh_diagonals(matrix, two_j, axes)
            got = spin._table_values(spin._harmonic_table(matrix), axes)
            bound = 1e-12 * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound, name

    def test_matches_eigh_at_two_j_40(self):
        rng = np.random.default_rng(140)
        rho = random_state(rng, 40)
        axes = random_axes(rng, 1000)
        want = eigh_diagonals(rho.matrix, 40, axes)
        got = spin._table_values(spin._harmonic_table(rho.matrix), axes)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_traced_peak_of_a_two_j_30_build_stays_bounded(self):
        # all 2048 nodes at once peaked at ~100 MiB and blocks of nodes near 29
        # MiB; one theta row at a time peaks near 4 MiB
        rho = random_state(np.random.default_rng(130), 30)
        tracemalloc.start()
        try:
            spin._harmonic_table(rho.matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("two_j", [1, 2, 5, 8, 40])
    def test_a_table_is_one_coefficient_per_harmonic(self, two_j):
        rho = random_state(np.random.default_rng(180 + two_j), two_j)
        assert spin._harmonic_table(rho.matrix).shape == ((two_j + 1) ** 2,)

    def test_traced_peak_of_one_chunk_at_two_j_60_stays_bounded(self):
        # the full basis on one chunk would be 3721 x 8192 doubles, 233 MiB;
        # f_L, the spread over m and its copy in record order peak near 15 MiB
        rng = np.random.default_rng(160)
        table = spin._harmonic_table(random_state(rng, 60).matrix)
        axes = random_axes(rng, spin._SAMPLE_CHUNK)
        tracemalloc.start()
        try:
            spin._table_values(table, axes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("two_j", [1, 2, 5, 8, 20])
    def test_kernel_batch_and_single_records_are_bit_identical(self, two_j):
        rng = np.random.default_rng(150 + two_j)
        records = spin.sample_spin(random_state(rng, two_j), 200, seed=two_j)
        for matrix in table_targets(rng, two_j).values():
            kernel = spin.SpinOperatorKernel(matrix)
            batch = kernel.evaluate(records)
            alone = np.concatenate([kernel.evaluate(records[i : i + 1]) for i in range(200)])
            assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("two_j", [1, 2, 5, 8, 20])
    def test_sampler_batch_and_single_records_are_bit_identical(self, two_j, monkeypatch):
        rho = random_state(np.random.default_rng(160 + two_j), two_j)
        batch = spin.sample_spin(rho, 300, seed=17)
        # one record per chunk: each record is drawn alone
        monkeypatch.setattr(spin, "_SAMPLE_CHUNK", 1)
        assert np.array_equal(spin.sample_spin(rho, 300, seed=17), batch)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 6])
    def test_sampler_agrees_with_the_eigh_sampler(self, two_j):
        rho = random_state(np.random.default_rng(170 + two_j), two_j)
        records = spin.sample_spin(rho, 20_000, seed=19)
        axes, two_m, cdf, draws = eigh_sampler(rho, 20_000, 19)
        assert np.array_equal(records["axis"], axes)
        moved = np.nonzero(records["two_m"] != two_m)[0]
        # a record may move only where its draw lies within roundoff of a CDF edge
        edge_gap = np.min(np.abs(cdf[moved] - draws[moved, None]), axis=1, initial=np.inf)
        assert np.all(edge_gap <= 1e-12)


class TestRecordIO:
    def test_jsonl_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(91)
        rho = random_state(rng, 3)
        records = spin.sample_spin(rho, 200, seed=44)
        path = tmp_path / "records.jsonl"
        spin.write_spin_records(records, path)
        again = spin.read_spin_records(path)
        assert np.array_equal(records, again)
        spin.write_spin_records(again, tmp_path / "records2.jsonl")
        assert (tmp_path / "records.jsonl").read_bytes() == (
            tmp_path / "records2.jsonl"
        ).read_bytes()

    def test_rejects_non_finite_axis(self):
        for bad in ((math.nan, 0.0, 1.0), (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)):
            with pytest.raises(ValueError, match="unit length"):
                spin.spin_records([bad], [1])

    @pytest.mark.parametrize(
        "line",
        [
            '{"axis": [NaN, 0.0, 1.0], "two_m": 1}',
            '{"axis": [0.0, 0.0, 1.0], "two_m": Infinity}',
            '{"axis": [0.0, 0.0, 1.0]}',
            '{"axis": [0.0, 0.0, 1.0], "two_m": 1.5}',
            '{"axis": [0.0, 0.0, 1.0], "two_m": true}',
        ],
    )
    def test_reader_names_bad_line(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_text('{"axis": [0.0, 0.0, 1.0], "two_m": 1}\n' + line + "\n")
        with pytest.raises(ValueError, match=f"^{path}:2: "):
            spin.read_spin_records(path)

    def test_state_roundtrip(self, tmp_path):
        rng = np.random.default_rng(93)
        rho = random_state(rng, 2)
        path = tmp_path / "state.json"
        spin.save_spin_state(rho, path)
        again = spin.load_spin_state(path)
        assert again.two_j == rho.two_j
        np.testing.assert_array_equal(again.matrix, rho.matrix)
