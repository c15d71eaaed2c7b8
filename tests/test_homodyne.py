import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from qtomo import homodyne, mc, numerics
from qtomo._rng import record_uniforms

SQRT2 = math.sqrt(2.0)


def random_state(rng, n_max):
    """Random valid state: full rank on levels 0..n_max-2, so the tail vanishes."""
    sub = n_max - 1
    raw = rng.normal(size=(sub, sub)) + 1j * rng.normal(size=(sub, sub))
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[:sub, :sub] = raw @ raw.conj().T
    return homodyne.FockDensityMatrix(n_max, m / np.trace(m).real)


def oracle_density_points(rho, phi, big_n_max=64):
    """Convention-lock oracle: spectral weights of the truncated quorum operator.

    The eigenvector components of the truncated Y_phi are exactly proportional
    to the oscillator eigenfunctions at the eigenvalue, so the continuum
    density at eigenvalue y_k is <v_k|rho|v_k> (psi_0(y_k) / |v_k[0]|)^2, with
    psi_0 the plain Gaussian ground state.  No shared code with the
    Hermite-recurrence density path beyond the operator builder under test.
    """
    operator = homodyne.truncated_quorum_operator(big_n_max, phi)
    values, vectors = np.linalg.eigh(operator)
    embedded = np.zeros((big_n_max + 1, big_n_max + 1), dtype=complex)
    dim = rho.n_max + 1
    embedded[:dim, :dim] = rho.matrix
    weights = np.einsum("nk,nm,mk->k", vectors.conj(), embedded, vectors).real
    psi0 = np.pi**-0.25 * np.exp(-0.5 * values**2)
    return values, weights * (psi0 / np.abs(vectors[0, :])) ** 2


class TestDensityMatrixValidation:
    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            homodyne.FockDensityMatrix(2, np.eye(3, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 1.0
        m[0, 2] = 0.1
        with pytest.raises(numerics.NonHermitianError):
            homodyne.FockDensityMatrix(2, m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            homodyne.FockDensityMatrix(2, m)

    def test_rejects_tail_mass(self):
        m = np.diag([0.5, 0.0, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="tail"):
            homodyne.FockDensityMatrix(2, m)

    def test_coherent_state_is_valid(self):
        rho = homodyne.coherent_state(1.0, 24)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        # Poisson photon statistics on the diagonal
        assert rho.matrix[0, 0].real == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert rho.matrix[3, 3].real == pytest.approx(math.exp(-1.0) / 6.0, rel=1e-9)


class TestQuorumOperator:
    def test_position_matrix(self):
        got = homodyne.truncated_quorum_operator(1, 0.0)
        want = np.array([[0.0, 1.0 / SQRT2], [1.0 / SQRT2, 0.0]], dtype=complex)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_momentum_matrix_convention(self):
        got = homodyne.truncated_quorum_operator(1, math.pi / 2.0)
        assert got[0, 1] == pytest.approx(-1j / SQRT2, abs=1e-15)
        assert numerics.hermitian_asymmetry(got) <= 1e-15
        np.testing.assert_allclose(
            np.linalg.eigvalsh(got), [-1.0 / SQRT2, 1.0 / SQRT2], atol=1e-14
        )

    def test_spectrum_symmetric_about_zero(self):
        rng = np.random.default_rng(7)
        for phi in rng.uniform(0.0, 2.0 * np.pi, size=4):
            values = np.linalg.eigvalsh(homodyne.truncated_quorum_operator(12, phi))
            assert np.max(np.abs(values + values[::-1])) <= 1e-9


class TestQuadratureDensity:
    def test_vacuum_is_standard_gaussian(self):
        rho = homodyne.vacuum_state(8)
        y = np.linspace(-4.0, 4.0, 17)
        want = np.pi**-0.5 * np.exp(-(y**2))
        for phi in (0.0, 1.1, 4.4):
            got = homodyne.quadrature_density_grid(rho, phi, y)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_phase_rows_equal_one_call_per_phase(self):
        rho = random_state(np.random.default_rng(5), 8)
        phis = np.array([0.0, 0.7, 2.9, 6.1])
        y = np.linspace(-5.0, 5.0, 41)
        rows = homodyne.quadrature_density_grid(rho, phis, y)
        assert rows.shape == (phis.size, y.size)
        for phi, row in zip(phis.tolist(), rows):
            assert row.tobytes() == homodyne.quadrature_density_grid(rho, phi, y).tobytes()

    def test_single_photon_node_at_origin(self):
        rho = homodyne.number_state(1, 8)
        assert homodyne.quadrature_density(rho, 0.7, 0.0) == 0.0

    def test_convention_lock_against_operator_oracle(self):
        rng = np.random.default_rng(12)
        rho = random_state(rng, 8)
        for _ in range(20):
            phi = float(rng.uniform(0.0, 2.0 * np.pi))
            values, oracle = oracle_density_points(rho, phi)
            bulk = np.nonzero(np.abs(values) < 4.0)[0]
            k = int(rng.choice(bulk))
            got = homodyne.quadrature_density(rho, phi, float(values[k]))
            assert got == pytest.approx(oracle[k], abs=1e-7)

    def test_normalization(self):
        rng = np.random.default_rng(15)
        rho = random_state(rng, 8)
        y_max = homodyne.default_y_max(8)
        for phi in rng.uniform(0.0, 2.0 * np.pi, size=10):
            total = numerics.integrate_real(
                lambda y: homodyne.quadrature_density_grid(rho, float(phi), y),
                -y_max,
                y_max,
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_coherent_first_moment_matches_operator_oracle(self):
        rho = homodyne.coherent_state(1.0, 24)
        # oracle: first moment of the spectral weights of truncated Y_0
        values, density = oracle_density_points(rho, 0.0, big_n_max=96)
        operator = homodyne.truncated_quorum_operator(96, 0.0)
        vecs = np.linalg.eigh(operator)[1]
        embedded = np.zeros((97, 97), dtype=complex)
        embedded[:25, :25] = rho.matrix
        weights = np.einsum("nk,nm,mk->k", vecs.conj(), embedded, vecs).real
        oracle_mean = float(values @ weights)
        assert oracle_mean == pytest.approx(SQRT2, abs=1e-6)
        y_max = homodyne.default_y_max(24)
        mean = numerics.integrate_real(
            lambda y: y * homodyne.quadrature_density_grid(rho, 0.0, y),
            -y_max,
            y_max,
        )
        assert mean == pytest.approx(SQRT2, abs=1e-6)

    def test_first_moment_identity(self):
        # E[y | phi] = sqrt(2) Re(e^{-i phi} Tr[a rho]) for the locked sign
        rng = np.random.default_rng(19)
        rho = random_state(rng, 8)
        a_mean = complex(np.trace(homodyne.annihilation_operator(8) @ rho.matrix))
        y_max = homodyne.default_y_max(8)
        for phi in (0.0, 0.9, 2.5, 5.1):
            mean = numerics.integrate_real(
                lambda y: y * homodyne.quadrature_density_grid(rho, phi, y),
                -y_max,
                y_max,
            )
            want = SQRT2 * (np.exp(-1j * homodyne.PHASE_SIGN * phi) * a_mean).real
            assert mean == pytest.approx(want, abs=1e-6)

    def test_x_convention_density(self):
        rho = homodyne.vacuum_state(6)
        # sqrt(2) omega(phi, sqrt(2) x): vacuum in x units is sqrt(2/pi) e^{-2x^2}
        for x in (0.0, 0.3, -1.1):
            got = homodyne.quadrature_density_x(rho, 0.2, x)
            want = math.sqrt(2.0 / math.pi) * math.exp(-2.0 * x * x)
            assert got == pytest.approx(want, abs=1e-12)


class TestSampling:
    def test_vacuum_variance(self):
        rho = homodyne.vacuum_state(8)
        records = homodyne.sample_homodyne(rho, 100_000, seed=42)
        ys = records["y"]
        assert ys.var() == pytest.approx(0.5, abs=0.01)
        assert abs(ys.mean()) <= 0.01

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            homodyne.sample_homodyne(homodyne.vacuum_state(4), 0, seed=1)

    def test_fixed_seed_byte_identical(self, tmp_path):
        rho = homodyne.coherent_state(0.7, 16)
        a = homodyne.sample_homodyne(rho, 500, seed=7)
        b = homodyne.sample_homodyne(rho, 500, seed=7)
        assert np.array_equal(a, b)
        homodyne.write_homodyne_records(a, tmp_path / "a.jsonl")
        homodyne.write_homodyne_records(b, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_prefix_purity(self):
        rho = homodyne.coherent_state(1.0, 24)
        long = homodyne.sample_homodyne(rho, 9000, seed=3)
        short = homodyne.sample_homodyne(rho, 64, seed=3)
        assert np.array_equal(long[:64], short)

    def test_phi_uniform(self):
        rho = homodyne.vacuum_state(6)
        phis = homodyne.sample_homodyne(rho, 50_000, seed=11)["phi"]
        assert phis.mean() == pytest.approx(math.pi, abs=0.03)
        assert np.all((phis >= 0.0) & (phis < 2.0 * math.pi))

    def test_rough_state_samples_purely_inside_the_support(self):
        # a superposition reaching n = 150 stresses the CDF grid: 1807 intervals
        n_max = 160
        amp = np.zeros(n_max + 1, dtype=complex)
        amp[0] = amp[150] = 1.0 / SQRT2
        rho = homodyne.FockDensityMatrix(n_max, np.outer(amp, amp.conj()))
        assert homodyne._CdfSampler(rho).n_intervals == 1807
        records = homodyne.sample_homodyne(rho, 64, seed=21)
        again = homodyne.sample_homodyne(rho, 32, seed=21)
        assert np.array_equal(records[:32], again)
        y_max = homodyne.default_y_max(n_max)
        assert np.all(np.abs(records["y"]) <= y_max)


    def test_complex_state_first_moment(self):
        # E[y e^{i phi}] = Tr[a rho] / sqrt(2) for the locked sign.  The state
        # has complex coherences, so its tables keep sin columns, and a
        # sampler drawing from omega(-phi, y) flips the imaginary part.
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(19, 6)) + 1j * rng.normal(size=(19, 6))
        m = np.zeros((21, 21), dtype=complex)
        m[:19, :19] = vecs @ vecs.conj().T
        rho = homodyne.FockDensityMatrix(20, m / np.trace(m).real)
        records = homodyne.sample_homodyne(rho, 20_000, seed=1)
        z = records["y"] * np.exp(1j * records["phi"])
        want = complex(np.trace(homodyne.annihilation_operator(20) @ rho.matrix)) / SQRT2
        sigma = math.sqrt(z.size)
        assert abs(z.mean().real - want.real) <= 5.0 * z.real.std(ddof=1) / sigma
        assert abs(z.mean().imag - want.imag) <= 5.0 * z.imag.std(ddof=1) / sigma


def superposition_0_150():
    n_max = 160
    amp = np.zeros(n_max + 1, dtype=complex)
    amp[0] = amp[150] = 1.0 / SQRT2
    return homodyne.FockDensityMatrix(n_max, np.outer(amp, amp.conj()))


def coherence_2_5():
    """Mixed |2>, |5> with a complex coherence: harmonic k = 3 only, cos and sin."""
    m = np.zeros((9, 9), dtype=complex)
    m[2, 2] = m[5, 5] = 0.5
    m[2, 5] = 0.3 + 0.2j
    m[5, 2] = np.conj(m[2, 5])
    return homodyne.FockDensityMatrix(8, m)


def spectral_density_rows(rho, phis, nodes):
    """omega(phi, y) per phi on the nodes, from the spectral form of rho.

    omega = sum_j w_j |sum_n e^{-i s n phi} b_j[n] psi_n(y)|^2 for
    rho = sum_j w_j |b_j><b_j|; nonnegative by construction.
    """
    weights, basis = np.linalg.eigh(rho.matrix)
    keep = weights > 1e-12 * weights.max()
    weights, basis = weights[keep], basis[:, keep]
    psi = numerics.oscillator_eigenfunctions(rho.n_max, nodes)
    levels = np.arange(rho.n_max + 1)
    out = np.empty((len(phis), nodes.size))
    for r, phi in enumerate(phis):
        coeff = (np.exp(-1j * homodyne.PHASE_SIGN * phi * levels)[:, None] * basis).T
        out[r] = weights @ ((coeff.real @ psi) ** 2 + (coeff.imag @ psi) ** 2)
    return out


def hermite_cdf(cdf, slopes, edges, y):
    """Each row's cubic Hermite interpolant of its CDF values ``cdf`` and
    slopes (density times the spacing) ``slopes`` at ``edges``, at one
    outcome per row, in the Hermite basis."""
    x = (y - edges[0]) / (edges[1] - edges[0])
    i = np.clip(np.floor(x).astype(int), 0, edges.size - 2)
    t, rows = x - i, np.arange(y.size)
    return (
        cdf[rows, i] * (1.0 + 2.0 * t) * (1.0 - t) ** 2
        + cdf[rows, i + 1] * t * t * (3.0 - 2.0 * t)
        + slopes[rows, i] * t * (1.0 - t) ** 2
        - slopes[rows, i + 1] * t * t * (1.0 - t)
    )


def dense_inverse_cdf(cdf, slopes, u, edges):
    """Reference: per row, the first edge whose CDF reaches ``u`` by a dense
    search, then the root of :func:`hermite_cdf` in the interval below it by
    60 halvings."""
    n_intervals = edges.size - 1
    rows = np.arange(cdf.shape[0])
    flat = (cdf + 2.0 * rows[:, None]).ravel()
    upper = np.searchsorted(flat, u + 2.0 * rows) - rows * (n_intervals + 1)
    idx = np.clip(upper - 1, 0, n_intervals - 1)
    h = edges[1] - edges[0]
    left, right = edges[0] + idx * h, edges[0] + (idx + 1) * h
    for _ in range(60):
        mid = 0.5 * (left + right)
        below = hermite_cdf(cdf, slopes, edges, mid) < u
        left, right = np.where(below, mid, left), np.where(below, right, mid)
    return 0.5 * (left + right)


def dense_state(size, seed):
    """A random pure state on |0 .. size - 1>, in n_max = size."""
    rng = np.random.default_rng(seed)
    amp = np.zeros(size + 1, dtype=complex)
    amp[:size] = rng.normal(size=size) + 1j * rng.normal(size=size)
    amp /= np.linalg.norm(amp)
    return homodyne.FockDensityMatrix(size, np.outer(amp, amp.conj()))


def harmonic_coefficients(sampler, phis):
    """The weight of each table column at each phase: 1, cos(k phi), sin(k phi)."""
    return np.concatenate(
        (
            np.ones((phis.size, 1)),
            np.cos(np.outer(phis, sampler.cos_k)),
            np.sin(np.outer(phis, sampler.sin_k)),
        ),
        axis=1,
    )


class TestSamplerOracle:
    """Cubic Hermite inversion of exact harmonic tables against a reference
    from the spectral density."""

    STATES = {
        "vacuum": lambda: homodyne.vacuum_state(8),
        "coherent": lambda: homodyne.coherent_state(1.0, 24),
        "number5": lambda: homodyne.number_state(5, 16),
        "random8": lambda: random_state(np.random.default_rng(19), 8),
        "superposition150": superposition_0_150,
        "coherence25": coherence_2_5,
    }

    @staticmethod
    def reference_masses(rho, phis, n_intervals, block=64):
        """The mass of each interval of the sampler's grid at ``n_intervals``,
        one row per phase, by the 16-point Gauss-Legendre rule on every
        interval, from the spectral density: no Wronskian and no shared
        table code.  It takes ``block`` intervals at a time, so that an
        n_max 200 state needs a few MiB."""
        y_max = homodyne.default_y_max(rho.n_max)
        edges = np.linspace(-y_max, y_max, n_intervals + 1)
        mass = np.empty((len(phis), n_intervals))
        for start in range(0, n_intervals, block):
            stop = min(start + block, n_intervals)
            nodes, weights = numerics.panel_rule(edges[start], edges[stop], stop - start)
            dens = spectral_density_rows(rho, phis, nodes)
            mass[:, start:stop] = (weights * dens).reshape(len(phis), stop - start, -1).sum(axis=2)
        return edges, mass

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_bisection_matches_dense_inversion(self, name):
        # the dense oracle inverts the same cubic, built from the reference
        # masses and densities; the two agree in CDF terms
        rho = self.STATES[name]()
        rows, seed = 200, 8
        records = homodyne.sample_homodyne(rho, rows, seed)
        u = record_uniforms(seed, 0, rows, 2)
        phis = 2.0 * np.pi * u[:, 0]
        assert records["phi"].tolist() == phis.tolist()
        edges, mass = self.reference_masses(rho, phis, homodyne._CdfSampler(rho).n_intervals)
        total = mass.sum(axis=1)[:, None]
        cdf = np.concatenate((np.zeros((rows, 1)), np.cumsum(mass, axis=1)), axis=1) / total
        slopes = spectral_density_rows(rho, phis, edges) * (edges[1] - edges[0]) / total
        y_dense = dense_inverse_cdf(cdf, slopes, u[:, 1], edges)
        got = hermite_cdf(cdf, slopes, edges, records["y"])
        want = hermite_cdf(cdf, slopes, edges, y_dense)
        assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize(
        "name, cos_k, sin_k",
        [
            ("number5", [], []),
            ("vacuum", [], []),
            ("coherence25", [3], [3]),
            ("coherent", list(range(1, 25)), []),  # a real state has no sin columns
            ("superposition150", [150], []),
        ],
    )
    def test_tables_keep_only_the_harmonics_the_state_has(self, name, cos_k, sin_k):
        sampler = homodyne._CdfSampler(self.STATES[name]())
        assert sampler.cos_k.tolist() == cos_k
        assert sampler.sin_k.tolist() == sin_k
        shape = (sampler.n_intervals + 1, 1 + len(cos_k) + len(sin_k))
        assert sampler.masses.shape == sampler.densities.shape == shape

    PHASES = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_tables_match_the_reference_at_every_edge(self, name):
        rho = self.STATES[name]()
        sampler = homodyne._CdfSampler(rho)
        coeff = harmonic_coefficients(sampler, self.PHASES)
        edges, mass = self.reference_masses(rho, self.PHASES, sampler.n_intervals)
        assert np.array_equal(sampler.edges, edges)
        cdf = np.concatenate((np.zeros((self.PHASES.size, 1)), np.cumsum(mass, axis=1)), axis=1)
        assert np.abs(coeff @ sampler.masses.T - cdf).max() <= 1e-12
        density = spectral_density_rows(rho, self.PHASES, edges)
        assert np.abs(coeff @ sampler.densities.T - density).max() <= 1e-12

    # the oracle states and two dense pure states, on |0..39> and on |0..199> at n_max 200
    WIDE_STATES = {
        **STATES, "dense40": lambda: dense_state(40, 40), "dense200": lambda: dense_state(200, 200)
    }

    @pytest.mark.parametrize("name", sorted(WIDE_STATES))
    def test_cubic_interpolant_meets_cdf_tolerance(self, name):
        # the sampler's cubic between edges against the reference at each
        # midpoint, where the Hermite error bound h^4 / 384 max |omega'''| peaks
        rho = self.WIDE_STATES[name]()
        sampler = homodyne._CdfSampler(rho)
        coeff = harmonic_coefficients(sampler, self.PHASES)
        edges = sampler.edges
        _, halves = self.reference_masses(rho, self.PHASES, 2 * sampler.n_intervals)
        reference = np.cumsum(halves, axis=1)[:, ::2]
        cdf = coeff @ sampler.masses.T
        slopes = (coeff @ sampler.densities.T) * (edges[1] - edges[0])
        midpoints = 0.5 * (edges[1:] + edges[:-1])
        cubic = np.stack(
            [hermite_cdf(cdf, slopes, edges, np.full(self.PHASES.size, y)) for y in midpoints],
            axis=1,
        )
        assert np.abs(cubic - reference).max() <= homodyne.CDF_TOL

    @pytest.mark.parametrize(
        "n_max, n_intervals", [(1, 68), (8, 183), (16, 291), (24, 389), (160, 1807), (200, 2196)]
    )
    def test_grid_is_built_once_from_n_max_alone(self, monkeypatch, n_max, n_intervals):
        # n_intervals = ceil(2 y_max sqrt(n_max + 1) / (128 CDF_TOL)^(1/4)),
        # whatever the state: the vacuum and a dense state share the grid
        root = (128.0 * homodyne.CDF_TOL) ** 0.25
        y_max = homodyne.default_y_max(n_max)
        assert n_intervals == math.ceil(2.0 * y_max * math.sqrt(n_max + 1) / root)
        calls = []
        eigenfunctions = numerics.oscillator_eigenfunctions

        def counted(n, x):
            calls.append((n, len(x)))
            return eigenfunctions(n, x)

        monkeypatch.setattr(numerics, "oscillator_eigenfunctions", counted)
        for rho in (homodyne.vacuum_state(n_max), dense_state(n_max, 3)):
            calls.clear()
            sampler = homodyne._CdfSampler(rho)
            assert calls == [(n_max, n_intervals + 1)]
            assert np.array_equal(sampler.edges, np.linspace(-y_max, y_max, n_intervals + 1))

    @staticmethod
    def hermite_derivatives(n_max, y):
        """psi_n and its first three derivatives in y, from psi_n' = sqrt(2n)
        psi_{n-1} - y psi_n and psi_n'' = (y^2 - 2n - 1) psi_n."""
        psi = numerics.oscillator_eigenfunctions(n_max, y)
        n = np.arange(n_max + 1.0)[:, None]
        first = -y * psi
        first[1:] += np.sqrt(2.0 * n[1:]) * psi[:-1]
        potential = y * y - 2.0 * n - 1.0
        return psi, first, potential * psi, 2.0 * y * psi + potential * first

    def test_derivatives_match_central_differences(self):
        y, step = np.linspace(-7.0, 7.0, 57), 1e-4
        here = self.hermite_derivatives(12, y)
        up, down = self.hermite_derivatives(12, y + step), self.hermite_derivatives(12, y - step)
        for order, tol in ((1, 1e-6), (2, 1e-5), (3, 1e-4)):
            slope = (up[order - 1] - down[order - 1]) / (2.0 * step)
            assert np.abs(slope - here[order]).max() <= tol

    def test_third_derivative_bound_holds_for_every_n_max(self):
        # |omega'''| <= 2 (|psi| |psi'''| + 3 |psi'| |psi''|) for every state,
        # and the grid needs that below 3 (n_max + 1)^2.  The norms are even
        # in y; the spacing 0.005 is finer than every sampler grid, and y
        # blocks of 512 points keep each array below 1 MiB.
        top = numerics.MAX_POLY_DEGREE
        finest = homodyne._CdfSampler(homodyne.vacuum_state(top)).edges
        assert finest[1] - finest[0] > 0.02
        y_all = np.arange(0.0, homodyne.default_y_max(top) + 0.005, 0.005)
        worst = np.zeros(top + 1)
        for start in range(0, y_all.size, 512):
            derivatives = self.hermite_derivatives(top, y_all[start : start + 512])
            # row N of each cumulative sum is the squared norm over psi_0 .. psi_N
            norm = [np.sqrt(np.cumsum(d * d, axis=0)) for d in derivatives]
            bound = 2.0 * (norm[0] * norm[3] + 3.0 * norm[1] * norm[2])
            worst = np.maximum(worst, bound.max(axis=1))
        assert np.all(worst[1:] <= 3.0 * np.arange(2.0, top + 2.0) ** 2)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_sampler_batch_and_single_records_are_bit_identical(self, monkeypatch, name):
        rho = self.STATES[name]()
        batch = homodyne.sample_homodyne(rho, 300, 17)
        monkeypatch.setattr(homodyne, "_DRAW_BLOCK", 1)
        single = homodyne.sample_homodyne(rho, 300, 17)
        assert batch.tobytes() == single.tobytes()

    @pytest.mark.parametrize("level, n_max", [(1, 8), (2, 8), (5, 16), (9, 16)])
    def test_targets_at_the_zeros_of_a_number_state_solve_the_cubic(self, level, n_max):
        # where omega vanishes, at the zeros of psi_level, the cubic is flat
        # and Newton's method slows down: 8 steps left 4e-7 of CDF here and
        # 10 steps 8e-9; a thousandth of CDF_TOL keeps the solve's error
        # negligible beside the interpolant's
        rho = homodyne.number_state(level, n_max)
        sampler = homodyne._CdfSampler(rho)
        edges, total = sampler.edges, sampler.masses[-1, 0]  # a number state keeps B alone
        zeros = np.polynomial.hermite.hermroots([0] * level + [1])
        y = (zeros[:, None] + np.linspace(-1.0, 1.0, 801) * (edges[1] - edges[0])).ravel()
        cdf = np.broadcast_to(sampler.masses[:, 0] / total, (y.size, edges.size))
        slopes = np.broadcast_to(sampler.densities[:, 0] * (edges[1] - edges[0]) / total, cdf.shape)
        u = hermite_cdf(cdf, slopes, edges, y)
        got = hermite_cdf(cdf, slopes, edges, sampler.sample(np.zeros(y.size), u))
        assert np.abs(got - u).max() <= 1e-3 * homodyne.CDF_TOL

    def test_dense_state_settles_at_a_small_level(self):
        # a random pure state on |0..39>: the Simpson tables took 32768
        # intervals and 84 MiB traced, the doubling linear grid 4096
        rho = dense_state(40, 40)
        tracemalloc.start()
        try:
            sampler = homodyne._CdfSampler(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.n_intervals == 574
        assert peak <= 32 * 2**20

    def test_traced_peak_of_a_number_state_run_stays_small(self):
        # 2.71 MiB on the Simpson tables, 1.15 MiB on the doubling linear grid
        tracemalloc.start()
        try:
            homodyne.sample_homodyne(homodyne.number_state(5, 16), 10_000, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * 2**20

    def test_traced_peak_of_a_200k_coherent_run_stays_small(self):
        # 6.1 MiB of it is the phi and y columns and the records; the
        # doubling linear grid in blocks of 8192 peaked at 7.25 MiB
        tracemalloc.start()
        try:
            homodyne.sample_homodyne(homodyne.coherent_state(1.0, 24), 200_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20

    def test_spectral_density_matches_library_density(self):
        for make in self.STATES.values():
            rho = make()
            y = np.linspace(-4.0, 4.0, 101)
            for phi in (0.4, 2.9):
                got = spectral_density_rows(rho, [phi], y)[0]
                want = homodyne.quadrature_density_grid(rho, phi, y)
                assert np.max(np.abs(got - want)) <= 1e-12


def trapezoid(values: np.ndarray, t: np.ndarray):
    """The trapezoid rule for ``values`` on the nodes ``t``, written out
    because numpy's ``trapezoid`` needs numpy 2."""
    return np.sum((values[1:] + values[:-1]) * np.diff(t)) / 2.0


class TestKernel:
    def test_k00_at_origin(self):
        # antiderivative -2 e^{-t^2/4} gives exactly 2
        assert homodyne.kernel_matrix_element(0, 0, 0.0) == pytest.approx(
            2.0 + 0.0j, abs=1e-10
        )

    def test_k00_against_fine_trapezoid_oracle(self):
        t = np.linspace(0.0, 30.0, 400_001)
        envelope = t * np.exp(-t * t / 4.0)
        for y in (0.5, 1.0, 2.0):
            oracle = trapezoid(envelope * np.exp(1j * y * t), t)
            got = homodyne.kernel_matrix_element(0, 0, y)
            assert got == pytest.approx(oracle, abs=1e-8)

    def test_prefactor_n0_l2(self):
        # prefactor (-i)^2 2^{-1} sqrt(0!/2!) = -1 / (2 sqrt(2))
        y = 0.8
        t = np.linspace(0.0, 30.0, 400_001)
        integrand = t**3 * (1.0) * np.exp(-t * t / 4.0) * np.exp(1j * y * t)
        oracle = (-1.0 / (2.0 * SQRT2)) * trapezoid(integrand, t)
        got = homodyne.kernel_matrix_element(0, 2, y)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_cutoff_stability(self):
        # the envelope integrated 8 past the default cutoff changes nothing
        for n, l in ((0, 0), (3, 2), (5, 5), (0, 10)):
            ys = np.array([-6.0, 0.0, 2.5, 6.0])
            longer = numerics.integrate_oscillatory(
                lambda t: homodyne._kernel_envelope(n, l, t),
                ys,
                homodyne.default_kernel_cutoff(n, l) + 8.0,
            )
            got = homodyne.kernel_matrix_element(n, l, ys)
            assert np.max(np.abs(got - (-1j) ** l * longer)) <= 1e-10

    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (5, 5), (20, 10)])
    def test_reflection_is_the_parity_times_the_conjugate(self, n, l):
        # K(-y) = (-1)^l conj K(y): bit for bit on numpy 2; 1e-14 leaves room
        # for another numpy's exp
        ys = np.array([0.0, 0.3, 1.7, 4.0, 9.5, 25.0])
        reflected = homodyne.kernel_matrix_element(n, l, -ys)
        want = (-1) ** l * np.conj(homodyne.kernel_matrix_element(n, l, ys))
        assert np.max(np.abs(reflected.real - want.real)) <= 1e-14
        assert np.max(np.abs(reflected.imag - want.imag)) <= 1e-14

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(33)
        ys = rng.uniform(-6.0, 6.0, size=40)
        # phi = 0 makes the phase factor exactly 1
        batch = homodyne.MatrixElementKernel(2, 1).evaluate(
            homodyne.homodyne_records(np.zeros(ys.size), ys)
        )
        for y, value in zip(ys, batch):
            scalar = homodyne.kernel_matrix_element(2, 1, float(y))
            assert value == pytest.approx(scalar, abs=1e-12)


def laguerre(n, l, x):
    """Associated Laguerre polynomial L^l_n(x), unnormalized, by the
    three-term recurrence in the degree at fixed superscript."""
    xa = np.asarray(x, dtype=float)
    p_prev = np.ones_like(xa)
    if n == 0:
        return p_prev if xa.ndim else float(p_prev)
    p = 1.0 + l - xa
    for k in range(1, n):
        p_prev, p = p, ((2 * k + l + 1 - xa) * p - (k + l) * p_prev) / (k + 1)
    return p if xa.ndim else float(p)


class TestLaguerre:
    """The unnormalized oracle of :func:`unnormalized_kernel`."""

    def test_degree_zero(self):
        for l in (0, 3, 17):
            for x in (0.0, 2.5, -1.0):
                assert laguerre(0, l, x) == 1.0

    def test_degree_one(self):
        # L^0_1(x) = 1 - x
        assert laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_degree_two(self):
        # L^1_2(x) = x^2/2 - 3x + 3
        assert laguerre(2, 1, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_matches_the_normalized_function(self):
        # two independent recurrences: sqrt(n!/(n+l)!) x^(l/2) e^(-x/2) L^l_n(x)
        x = np.array([0.1, 1.0, 3.7, 9.2])
        for n in range(9):
            for l in (0, 1, 4):
                norm = math.sqrt(math.factorial(n) / math.factorial(n + l))
                got = norm * x ** (l / 2.0) * np.exp(-x / 2.0) * laguerre(n, l, x)
                want = numerics.laguerre_function(n, l, x)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_recurrence_self_consistency(self):
        # self-consistent up to the single rounding of the recurrence division
        x = np.linspace(0.0, 20.0, 11)
        for n in range(1, 12):
            for l in (0, 2):
                lhs = (n + 1) * laguerre(n + 1, l, x)
                rhs = (2 * n + l + 1 - x) * laguerre(n, l, x) - (n + l) * laguerre(n - 1, l, x)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


def unnormalized_kernel(n, l, y):
    """The kernel as integrated before the envelope was normalized: the raw
    t^(l+1) L^l_n(t^2/2) e^(-t^2/4) times the prefactor, outside the integral."""
    prefactor = (-1j) ** l * 2.0 ** (-l / 2.0) * math.sqrt(
        math.factorial(n) / math.factorial(n + l)
    )
    envelope = lambda t: t ** (l + 1) * laguerre(n, l, t * t / 2.0) * np.exp(-t * t / 4.0)
    return prefactor * numerics.integrate_oscillatory(
        envelope, y, 12.0 + 2.0 * math.sqrt(n + l)
    )


ADVERTISED_PAIRS = sorted(
    {(n, l) for n in range(0, 201, 25) for l in range(0, 201 - n, 25)}
    | {(200, 0), (0, 200), (150, 50), (80, 20), (20, 10), (199, 1)}
)


class TestKernelRange:
    """Kernels for every n + l <= 200, from the normalized envelope."""

    @pytest.mark.parametrize("n, l", ADVERTISED_PAIRS)
    def test_converges_with_the_envelope_negligible_past_the_cutoff(self, n, l):
        cutoff = homodyne.default_kernel_cutoff(n, l)
        t = np.linspace(cutoff, cutoff + 40.0, 2001)
        assert np.max(np.abs(homodyne._kernel_envelope(n, l, t))) <= 1e-10
        values = homodyne.kernel_matrix_element(n, l, np.array([-3.0, 0.0, 0.7, 9.5]))
        assert np.all(np.isfinite(values))

    def test_small_pairs_match_the_unnormalized_integral(self):
        ys = np.array([-6.0, -0.7, 0.0, 0.3, 2.5, 6.0, 11.0])
        for n in range(7):
            for l in range(7):
                got = homodyne.kernel_matrix_element(n, l, ys)
                want = unnormalized_kernel(n, l, ys)
                assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("n, l", [(199, 0), (100, 60), (0, 200), (150, 50)])
    def test_large_kernels_are_dual_to_the_mode_products(self, n, l):
        # pattern-function duality: int K_{n,l}(y) psi_m(y) psi_{m+l}(y) dy = delta_{nm}
        y_max = homodyne.default_y_max(200)
        nodes, weights = numerics.panel_rule(-y_max, y_max, 128)
        psi = numerics.oscillator_eigenfunctions(200, nodes)
        kernel = homodyne.kernel_matrix_element(n, l, nodes)
        for m in {n, max(n - 1, 0)}:
            overlap = np.sum(weights * kernel * psi[m] * psi[m + l])
            assert abs(overlap - (1.0 if m == n else 0.0)) <= 1e-8


class TestKernelTable:
    """The per-kernel Chebyshev table against its quadrature oracle."""

    KERNELS = [(0, 0), (5, 0), (3, 2), (5, -3)]

    @staticmethod
    def base_values(n, l, ys):
        base_n, base_l = (n, l) if l >= 0 else (n + l, -l)
        values = homodyne.kernel_matrix_element(base_n, base_l, ys)
        return values if l >= 0 else values.conj()

    @pytest.mark.parametrize(
        "n, l", [(0, 0), (5, 0), (2, 1), (20, 10), (50, 50), (80, 20), (0, 200), (200, 0), (150, 50)]
    )
    def test_fixed_rule_table_matches_the_quadrature_on_601_outcomes(self, n, l):
        kernel = homodyne.MatrixElementKernel(n, l)
        ys = np.linspace(-kernel._y_max, kernel._y_max, 601)
        got = kernel.evaluate(homodyne.homodyne_records(np.zeros(ys.size), ys))
        want = homodyne.kernel_matrix_element(n, l, ys)
        assert np.max(np.abs(got.real - want.real)) <= numerics.QUADRATURE_TOL
        assert np.max(np.abs(got.imag - want.imag)) <= numerics.QUADRATURE_TOL

    @pytest.mark.parametrize("n, l", KERNELS)
    def test_matches_the_quadrature_within_tol(self, n, l):
        kernel = homodyne.MatrixElementKernel(n, l)
        y_max = kernel._y_max
        ys = np.random.default_rng(n + 7 * abs(l)).uniform(-y_max, y_max, 1000)
        ys = np.concatenate((ys, [-y_max, y_max]))
        # phi = 0 makes the phase factor exactly 1
        got = kernel.evaluate(homodyne.homodyne_records(np.zeros(ys.size), ys))
        assert kernel._table is not None
        want = self.base_values(n, l, ys)
        assert np.max(np.abs(got.real - want.real)) <= numerics.QUADRATURE_TOL
        assert np.max(np.abs(got.imag - want.imag)) <= numerics.QUADRATURE_TOL

    # the base pair of (n, l < 0) is (n + l, -l), of degree n
    @pytest.mark.parametrize("n, l", [(201, 0), (0, 201), (201, -1), (300, -250)])
    def test_degree_past_the_limit_is_rejected_when_built(self, n, l):
        with pytest.raises(ValueError, match=f"must not exceed {numerics.MAX_POLY_DEGREE}"):
            homodyne.MatrixElementKernel(n, l)

    def test_degree_at_the_limit_is_accepted(self):
        assert homodyne.MatrixElementKernel(200, -1)._base == (199, 1)
        assert homodyne.MatrixElementKernel(150, 50)._table is None

    @pytest.mark.parametrize("n, l", KERNELS)
    def test_batch_and_single_records_are_bit_identical(self, n, l):
        rng = np.random.default_rng(3)
        kernel = homodyne.MatrixElementKernel(n, l)
        records = homodyne.homodyne_records(
            rng.uniform(0.0, 2.0 * np.pi, 64), rng.uniform(-kernel._y_max, kernel._y_max, 64)
        )
        batch = kernel.evaluate(records)
        for i in range(len(records)):
            single = kernel.evaluate(records[i : i + 1])
            assert single.tobytes() == batch[i : i + 1].tobytes()

    def test_each_side_of_the_table_edge_takes_its_path(self):
        kernel = homodyne.MatrixElementKernel(3, 2)
        y_max = kernel._y_max
        ys = np.array([0.3, -y_max, y_max + 0.25, -y_max - 40.0, y_max, np.nextafter(y_max, 0.0)])
        got = kernel.evaluate(homodyne.homodyne_records(np.zeros(ys.size), ys))
        inside = np.abs(ys) <= y_max
        # chebval on each outcome's panel, by the rule of numerics.chebyshev_values
        panels = kernel._table.shape[0]
        scaled = (ys[inside] / y_max + 1.0) * (0.5 * panels)
        panel = np.minimum(np.floor(scaled).astype(int), panels - 1)
        local = 2.0 * (scaled - panel) - 1.0
        table = [
            np.polynomial.chebyshev.chebval(local[i : i + 1], kernel._table[p])
            for i, p in enumerate(panel)
        ]
        assert got[inside].tobytes() == np.concatenate(table).tobytes()
        quadrature = homodyne.kernel_matrix_element(3, 2, ys[~inside])
        assert got[~inside].tobytes() == quadrature.tobytes()

    @pytest.mark.parametrize("n, l", [(5, 0), (0, 200), (200, 0)])
    def test_every_panel_matches_the_fixed_rule_at_its_fresh_midpoints(self, n, l):
        kernel = homodyne.MatrixElementKernel(n, l)
        y_max = kernel._y_max
        table = kernel._build_table()
        panels, degree = table.shape[0], table.shape[1] - 1
        assert panels == math.ceil(y_max * y_max / 8.0)
        # midway in angle between neighbouring Lobatto nodes of every panel
        local = np.cos((np.arange(degree) + 0.5) * np.pi / degree)
        x = ((2.0 * np.arange(panels)[:, None] + 1.0 + local[None, :]) / panels - 1.0).ravel()
        integral = numerics.fixed_oscillatory_rule(
            lambda t: homodyne._kernel_envelope(n, l, t), y_max, y_max
        )
        want = (-1j) ** (l % 4) * integral(y_max * x)
        got = numerics.chebyshev_values(x, table)
        assert np.max(np.abs(got.real - want.real)) <= numerics.QUADRATURE_TOL
        assert np.max(np.abs(got.imag - want.imag)) <= numerics.QUADRATURE_TOL

    def test_outcomes_past_the_table_do_not_build_it(self):
        kernel = homodyne.MatrixElementKernel(0, 0)
        kernel.evaluate(homodyne.homodyne_records([1.0], [kernel._y_max + 1.0]))
        assert kernel._table is None

    def test_traced_peak_of_a_20_10_build_stays_small(self):
        # phase blocks of 2**18 entries peaked at 8.45 MiB; 2**14 entries at 1.44 MiB
        kernel = homodyne.MatrixElementKernel(20, 10)
        tracemalloc.start()
        try:
            kernel.evaluate(homodyne.homodyne_records([0.0], [0.5]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernel._table is not None
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("n, l, panels", [(80, 20, 136), (0, 200, 203)])
    def test_traced_peak_of_a_many_panel_build_stays_below_1_mib(self, n, l, panels):
        # the adaptive ladder at every degree level peaked at 2.74 and 4.23 MiB
        kernel = homodyne.MatrixElementKernel(n, l)
        tracemalloc.start()
        try:
            kernel.evaluate(homodyne.homodyne_records([0.0], [0.5]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernel._table.shape == (panels, 33)
        assert peak <= 2**20

    def test_traced_peak_of_a_200k_evaluate_stays_below_12_mib(self):
        # one pass over the whole batch peaked at 18.6 MiB
        rng = np.random.default_rng(8)
        kernel = homodyne.MatrixElementKernel(2, 1)
        records = homodyne.homodyne_records(
            rng.uniform(0.0, 2.0 * np.pi, 200_000), rng.uniform(-5.0, 5.0, 200_000)
        )
        tracemalloc.start()
        try:
            values = kernel.evaluate(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (200_000,)
        assert peak <= 12 * 2**20

    def test_huge_outcome_fails_fast(self):
        kernel = homodyne.MatrixElementKernel(0, 0)
        start = time.perf_counter()
        with pytest.raises(numerics.QuadratureError, match="frequency 1000000.0 "):
            kernel.evaluate(homodyne.homodyne_records([1.0, 2.0], [0.5, 1e6]))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.xfail(
        strict=True,
        raises=numerics.QuadratureError,
        reason="ROADMAP item 5: outcomes past Y go through the quadrature, which gives up",
    )
    @pytest.mark.parametrize("n, l", [(1, 1), (0, 200)])
    @pytest.mark.parametrize("y", [5e3, -5e3, 1e8, -1e8, 1e300, -1e300])
    def test_every_finite_outcome_evaluates_in_bounded_time(self, n, l, y):
        kernel = homodyne.MatrixElementKernel(n, l)
        start = time.perf_counter()
        value = kernel.evaluate(homodyne.homodyne_records([0.5], [y]))[0]
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(value.real) and math.isfinite(value.imag)


class TestEstimators:
    def test_phase_independence_at_l0(self):
        rec1 = homodyne.homodyne_records([0.3], [1.1])
        rec2 = homodyne.homodyne_records([5.9], [1.1])
        a = homodyne.MatrixElementKernel(2, 0).evaluate(rec1)[0]
        b = homodyne.MatrixElementKernel(2, 0).evaluate(rec2)[0]
        assert a == b

    def test_hermitian_symmetry_exact(self):
        # the l = 0 estimator maps to itself; its value stays complex with a
        # real mean, so the pointwise involution is exact for l != 0
        record = homodyne.homodyne_records([1.7], [-0.6])
        for n, l in ((0, 1), (1, 2), (0, 3), (2, 2)):
            direct = homodyne.MatrixElementKernel(n, l).evaluate(record)[0]
            mirrored = homodyne.MatrixElementKernel(n + l, -l).evaluate(record)[0]
            assert direct == np.conj(mirrored)

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            homodyne.MatrixElementKernel(0, -1)

    def test_photon_number_values(self):
        assert homodyne.estimator_photon_number(homodyne.homodyne_records([0.0], [0.0])[0]) == -0.5
        assert homodyne.estimator_photon_number(homodyne.homodyne_records([0.0], [1.0])[0]) == 0.5

    def test_vacuum_monte_carlo_diagonal(self):
        rho = homodyne.vacuum_state(8)
        records = homodyne.sample_homodyne(rho, 30_000, seed=77)
        result = mc.reconstruct(records, homodyne.MatrixElementKernel(0, 0))
        assert abs(result["mean"].real - 1.0) <= 4.0 * result["stderr_re"]
        result = mc.reconstruct(records, homodyne.MatrixElementKernel(1, 0))
        assert abs(result["mean"].real) <= 4.0 * result["stderr_re"]

    def test_vacuum_monte_carlo_photon_number(self):
        rho = homodyne.vacuum_state(8)
        records = homodyne.sample_homodyne(rho, 30_000, seed=78)
        result = mc.reconstruct(records, homodyne.PhotonNumberKernel())
        assert abs(result["mean"].real) <= 4.0 * result["stderr_re"]

    def test_complex_coherent_off_diagonal(self):
        # phase of alpha distinguishes rho_{10} from rho_{01}
        alpha = 0.8 * np.exp(1j * np.pi / 5.0)
        rho = homodyne.coherent_state(alpha, 16)
        records = homodyne.sample_homodyne(rho, 40_000, seed=99)
        result = mc.reconstruct(records, homodyne.MatrixElementKernel(0, 1))
        truth = rho.matrix[1, 0]
        assert abs(result["mean"].real - truth.real) <= 4.0 * result["stderr_re"]
        assert abs(result["mean"].imag - truth.imag) <= 4.0 * result["stderr_im"]

    def test_kernel_type_mismatch(self):
        from qtomo.spin import spin_records

        kernel = homodyne.MatrixElementKernel(0, 0)
        with pytest.raises(TypeError, match="homodyne record"):
            kernel.evaluate(spin_records([(0.0, 0.0, 1.0)], [1]))


class TestRecordIO:
    def test_y_convention_roundtrip_bitwise(self, tmp_path):
        rho = homodyne.coherent_state(0.5, 12)
        records = homodyne.sample_homodyne(rho, 300, seed=1)
        path = tmp_path / "records.jsonl"
        homodyne.write_homodyne_records(records, path)
        again = homodyne.read_homodyne_records(path)
        assert np.array_equal(records, again)

    def test_x_convention_scales_outcome(self, tmp_path):
        # the writer emits y lines only; an x line is read as y = sqrt(2) x
        path = tmp_path / "records_x.jsonl"
        path.write_text(json.dumps({"phi": 0.1, "x": 1.6 / SQRT2}) + "\n")
        again = homodyne.read_homodyne_records(path)
        assert again["y"][0] == pytest.approx(1.6, rel=1e-15)

    def test_seventeen_digit_floats(self, tmp_path):
        records = homodyne.homodyne_records([math.pi / 7.0], [1.0 / 3.0])
        path = tmp_path / "records.jsonl"
        homodyne.write_homodyne_records(records, path)
        parsed = json.loads(path.read_text().strip())
        assert parsed["phi"] == records["phi"][0]
        assert parsed["y"] == records["y"][0]

    def test_rejects_non_finite_outcome(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                homodyne.homodyne_records([0.5], [bad])

    @pytest.mark.parametrize(
        "line",
        [
            '{"phi": 0.5, "y": Infinity}',
            '{"phi": NaN, "y": 0.5}',
            '{"y": 0.5}',
            "{",
            '{"phi": 0.5, "y": 1.0, "x": 9.0}',
        ],
    )
    def test_reader_names_bad_line(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_text('{"phi": 0.5, "y": 0.5}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=f"^{path}:3: "):
            homodyne.read_homodyne_records(path)

    def test_state_roundtrip(self, tmp_path):
        rho = homodyne.coherent_state(0.9 + 0.2j, 14)
        path = tmp_path / "state.json"
        homodyne.save_homodyne_state(rho, path)
        again = homodyne.load_homodyne_state(path)
        assert again.n_max == rho.n_max
        np.testing.assert_array_equal(again.matrix, rho.matrix)
