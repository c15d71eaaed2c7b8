import inspect
import math
import time
import warnings

import numpy as np
import pytest

from qtomo import groups, homodyne, numerics, spin

def laguerre_series(n, l, x):
    """Independent explicit-series oracle: sum_k (-1)^k C(n+l, n-k) x^k / k!."""
    total = 0.0
    for k in range(n + 1):
        total += (-1.0) ** k * math.comb(n + l, n - k) * x**k / math.factorial(k)
    return total


class TestLaguerreFunction:
    def test_matches_normalized_series_oracle(self):
        for n in range(9):
            for l in (0, 1, 4, 9):
                norm = math.sqrt(math.factorial(n) / math.factorial(n + l))
                for x in (0.0, 0.1, 1.0, 3.7, 9.2):
                    want = norm * x ** (l / 2.0) * math.exp(-x / 2.0) * laguerre_series(n, l, x)
                    got = numerics.laguerre_function(n, l, np.array([x]))[0]
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("n, l", [(0, 0), (7, 3), (200, 0), (0, 200), (100, 100), (150, 50)])
    def test_unit_norm_up_to_the_degree_limit(self, n, l):
        # the squares integrate to 1; past x = 1400 they are below 1e-100
        norm = numerics.integrate_real(
            lambda x: numerics.laguerre_function(n, l, x) ** 2, 0.0, 1400.0
        )
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_finite_where_the_unnormalized_form_overflows(self):
        # t^201 and L^0_200 overflow on the grid; the normalized values do not
        x = np.linspace(0.0, 2000.0, 4001)
        for n, l in ((200, 0), (0, 200), (100, 100)):
            values = numerics.laguerre_function(n, l, x)
            assert np.all(np.isfinite(values))
            assert np.max(np.abs(values)) <= 1.0
        assert numerics.laguerre_function(3, 2, np.array([0.0]))[0] == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            numerics.laguerre_function(-1, 0, np.array([1.0]))
        with pytest.raises(ValueError):
            numerics.laguerre_function(150, 51, np.array([1.0]))


class TestOscillatorEigenfunctions:
    def test_ground_state_at_origin(self):
        assert numerics.oscillator_eigenfunctions(0, 0.0)[0, 0] == pytest.approx(
            math.pi**-0.25, abs=1e-14
        )

    def test_first_excited_odd_parity(self):
        assert numerics.oscillator_eigenfunctions(1, 0.0)[1, 0] == 0.0

    def test_normalization_by_quadrature(self):
        norm = numerics.integrate_real(
            lambda x: numerics.oscillator_eigenfunctions(3, x)[3] ** 2, -12.0, 12.0
        )
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality(self):
        for n in range(13):
            for m in range(n, 13):
                val = numerics.integrate_real(
                    lambda t: np.prod(numerics.oscillator_eigenfunctions(m, t)[[n, m]], axis=0),
                    -14.0,
                    14.0,
                )
                assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-7)


class TestIntegrateReal:
    def test_sine_squared_half_angle(self):
        # antiderivative (t - sin t) / 2 gives pi over a full period
        val = numerics.integrate_real(lambda t: np.sin(t / 2.0) ** 2, 0.0, 2.0 * math.pi)
        assert val == pytest.approx(math.pi, abs=1e-10)

    def test_constant(self):
        assert numerics.integrate_real(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0)

    def test_gaussian_tail_envelope(self):
        # antiderivative -2 exp(-t^2/4); cutoff 20 leaves < 1e-40 outside
        val = numerics.integrate_real(lambda t: t * np.exp(-t * t / 4.0), 0.0, 20.0)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_rows_match_one_call_per_row(self):
        # rows that settle at different levels climb the one ladder together
        def integrand(k, t):
            return np.cos(k * t) ** 2 * np.exp(-t)

        ks = [0.0, 1.0, 5.0, 40.0]
        rows = numerics.integrate_real(lambda t: np.stack([integrand(k, t) for k in ks]), 0.0, 3.0)
        assert rows.shape == (len(ks),) and rows.dtype == float
        for k, value in zip(ks, rows.tolist()):
            single = numerics.integrate_real(lambda t: integrand(k, t), 0.0, 3.0)
            assert isinstance(single, float)
            assert abs(value - single) <= numerics.QUADRATURE_TOL

    def test_rows_climb_until_every_row_settles(self):
        def levels(f):
            sizes = []
            numerics.integrate_real(lambda t: sizes.append(t.size) or f(t), 0.0, 3.0)
            return sizes

        smooth = lambda t: np.exp(-t)
        wiggly = lambda t: np.cos(60.0 * t) ** 2 * np.exp(-t)
        assert len(levels(smooth)) < len(levels(wiggly))
        assert levels(lambda t: np.stack([smooth(t), wiggly(t)])) == levels(wiggly)

    def test_widest_interval_takes_a_second_level(self):
        # the widest interval that may start, at 2**15 panels of width pi / 2
        width = 2**15 * math.pi / 2.0
        assert numerics.oscillatory_panel_count(0.0, width) == 2**15
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.exp(-t)

        assert numerics.integrate_real(f, 0.0, width) == pytest.approx(1.0, abs=1e-12)
        assert sizes == [16 * 2**15, 16 * 2**16]

    @pytest.mark.parametrize("b", [1e6, math.inf, math.nan])
    def test_interval_past_the_start_cap_is_rejected(self, b):
        calls = []
        with pytest.raises(numerics.QuadratureError, match=r"interval \[0.0, ") as err:
            numerics.integrate_real(lambda t: calls.append(t) or np.ones_like(t), 0.0, b)
        assert f"{b!r}] needs more than 32768 initial panels" in str(err.value)
        assert err.value.estimates is None
        assert calls == []

    def test_refinement_cap_reports_estimates(self, monkeypatch):
        # a tolerance of 0 is never met: the ladder runs to its cap
        monkeypatch.setattr(numerics, "QUADRATURE_TOL", 0.0)
        with pytest.raises(numerics.QuadratureError) as err:
            numerics.integrate_real(lambda t: np.sin(1e7 * t) ** 2, 0.0, 1.0)
        assert len(err.value.estimates) == 2
        # the last two levels, not the last one twice
        coarse, fine = err.value.estimates
        assert coarse != fine


def reference_oscillatory(g, frequency, cutoff, tol=1e-10):
    """One frequency at a time: the scalar panel sum and doubling loop that
    the array-valued integrate_oscillatory replaced."""
    nodes_16, weights_16 = np.polynomial.legendre.leggauss(16)

    def panel_sum(f, a, b, n_panels):
        edges = np.linspace(a, b, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * nodes_16[None, :]).ravel()
        weights = (half[:, None] * weights_16[None, :]).ravel()
        return np.sum(weights * np.asarray(f(nodes)))

    def integrand(t):
        return np.asarray(g(t)) * np.exp(1j * frequency * t)

    width_cap = np.pi / (2.0 * (abs(frequency) + 1.0))
    n_panels = max(1, int(np.ceil(cutoff / width_cap)))
    prev = panel_sum(integrand, 0.0, cutoff, n_panels)
    for _ in range(14):
        n_panels *= 2
        cur = panel_sum(integrand, 0.0, cutoff, n_panels)
        if abs(cur.real - prev.real) <= tol and abs(cur.imag - prev.imag) <= tol:
            return complex(cur)
        prev = cur
    raise AssertionError("reference ladder did not converge")


class TestIntegrateOscillatory:
    def test_array_matches_scalar_reference(self):
        g = lambda t: t * t * np.exp(-t * t / 4.0) * np.cos(0.3 * t)
        freqs = np.array([0.0, 1.0, -3.7, 25.0, 40.0])
        got = numerics.integrate_oscillatory(g, freqs, 20.0)
        assert got.shape == freqs.shape
        for freq, value in zip(freqs, got):
            want = reference_oscillatory(g, float(freq), 20.0)
            assert abs(value - want) <= 1e-12
            assert abs(numerics.integrate_oscillatory(g, float(freq), 20.0) - want) <= 1e-12

    def test_rows_match_one_call_per_row(self):
        # rows of an integrand share each frequency group's ladder; a row that
        # settles at the same level as alone keeps every bit
        envelopes = [0.25, 1.0, 4.0]
        g = lambda s, t: t * t * np.exp(-t * t / s) * np.cos(0.3 * t)
        stacked = lambda t: np.stack([g(s, t) for s in envelopes])
        freqs = np.array([0.0, 1.0, -3.7, 25.0, 40.0])
        rows = numerics.integrate_oscillatory(stacked, freqs, 20.0)
        assert rows.shape == (len(envelopes), freqs.size)
        first = numerics.integrate_oscillatory(stacked, 1.0, 20.0)
        assert first.shape == (len(envelopes),)
        for s, row, one in zip(envelopes, rows, first):
            single = numerics.integrate_oscillatory(lambda t: g(s, t), freqs, 20.0)
            assert np.all(np.abs(row - single) <= numerics.QUADRATURE_TOL)
            assert one == row[1]
        assert np.array_equal(
            numerics.integrate_oscillatory(lambda t: g(1.0, t)[None, :], freqs, 20.0)[0],
            numerics.integrate_oscillatory(lambda t: g(1.0, t), freqs, 20.0),
        )

    def test_array_refinement_cap_reports_estimates(self, monkeypatch):
        monkeypatch.setattr(numerics, "QUADRATURE_TOL", 0.0)
        with pytest.raises(numerics.QuadratureError) as err:
            numerics.integrate_oscillatory(
                lambda t: np.sin(1e7 * t) ** 2, np.array([0.0, 2.0, 9.0]), 1.0
            )
        assert len(err.value.estimates) == 2
        coarse, fine = err.value.estimates
        assert np.all(coarse != fine)

    def test_rejects_non_finite_frequency(self):
        with pytest.raises(ValueError, match="finite"):
            numerics.integrate_oscillatory(lambda t: np.ones_like(t), np.array([0.0, np.nan]), 1.0)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_rejects_a_cutoff_that_is_not_positive(self, cutoff):
        with pytest.raises(ValueError, match="^cutoff must be positive$"):
            numerics.integrate_oscillatory(lambda t: np.ones_like(t), 1.0, cutoff)

    def test_constant_zero_frequency(self):
        val = numerics.integrate_oscillatory(lambda t: np.ones_like(t), 0.0, 1.0)
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_full_period_cancels(self):
        val = numerics.integrate_oscillatory(lambda t: np.ones_like(t), 1.0, 2.0 * math.pi)
        assert abs(val) <= 1e-10

    def test_matches_real_case(self):
        val = numerics.integrate_oscillatory(lambda t: t * np.exp(-t * t / 4.0), 0.0, 20.0)
        assert val == pytest.approx(2.0 + 0.0j, abs=1e-10)

    def test_panel_width_resolves_oscillation(self):
        for freq in (0.0, 3.0, -25.0):
            count = numerics.oscillatory_panel_count(freq, 10.0)
            assert 10.0 / count <= math.pi / (2.0 * (abs(freq) + 1.0)) + 1e-12

    def test_high_frequency_value(self):
        # int_0^1 e^{i w t} dt = (e^{i w} - 1) / (i w)
        w = 40.0
        val = numerics.integrate_oscillatory(lambda t: np.ones_like(t), w, 1.0)
        want = (np.exp(1j * w) - 1.0) / (1j * w)
        assert val == pytest.approx(want, abs=1e-11)

    def test_counts_are_powers_of_two(self):
        counts = numerics.oscillatory_panel_count(np.array([0.0, 0.5, 3.0, 250.0]), 16.5)
        assert np.all(np.log2(counts) == np.round(np.log2(counts)))

    def test_huge_frequency_fails_fast_and_names_it(self):
        start = time.perf_counter()
        with pytest.raises(numerics.QuadratureError, match="frequency 1000000.0 ") as err:
            numerics.integrate_oscillatory(
                lambda t: t * np.exp(-t * t / 4.0), np.array([0.5, 1e6]), 16.5
            )
        assert time.perf_counter() - start < 1.0
        assert err.value.estimates is None
        with warnings.catch_warnings():
            # a frequency near the float maximum overflows the count silently
            warnings.simplefilter("error")
            with pytest.raises(numerics.QuadratureError, match="frequency 1.7e"):
                numerics.integrate_oscillatory(lambda t: np.ones_like(t), 1.7e308, 16.5)

    def test_ladder_never_passes_the_panel_cap(self, monkeypatch):
        # the highest frequency that may start, at 2**15 panels on [0, 1]
        freq = 2**15 * math.pi / 2.0 - 1.0
        assert numerics.oscillatory_panel_count(freq, 1.0) == 2**15
        sizes = []

        def g(t):
            sizes.append(t.size)
            return np.sin(1e7 * t) ** 2

        monkeypatch.setattr(numerics, "QUADRATURE_TOL", 0.0)
        with pytest.raises(numerics.QuadratureError):
            numerics.integrate_oscillatory(g, freq, 1.0)
        assert max(sizes) == 16 * 2**17


class TestGaussLegendreTable:
    def test_panel_rule_is_the_newton_rule_and_leggauss_16_within_two_ulp_of_one(self):
        # two ulp of 1, the scale of [-1, 1]: the Newton weights differ from
        # leggauss's by up to 3.2e-16 here
        gl_nodes, gl_weights = numerics._gl_rule()
        nodes, weights = numerics._gauss_legendre(16)
        assert np.array_equal(nodes, gl_nodes)
        assert np.array_equal(weights, gl_weights)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        for got, want in ((gl_nodes, nodes), (gl_weights, weights)):
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(1.0))
        assert np.array_equal(gl_nodes, -gl_nodes[::-1])
        assert np.array_equal(gl_weights, gl_weights[::-1])

    def test_rule_is_built_once_and_read_only(self):
        assert numerics._gl_rule() is numerics._gl_rule()
        assert not any(a.flags.writeable for a in numerics._gl_rule())


class TestFixedOscillatoryRule:
    def test_matches_the_closed_form_at_every_frequency_up_to_the_hardest(self):
        # int_0^c e^{i f t} dt = (e^{i f c} - 1) / (i f), and c at f = 0
        cutoff = 16.5
        freqs = np.concatenate((np.linspace(-cutoff, cutoff, 301), [0.0]))
        got = numerics.fixed_oscillatory_rule(np.ones_like, cutoff, cutoff)(freqs)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.where(freqs == 0.0, cutoff, (np.exp(1j * freqs * cutoff) - 1.0) / (1j * freqs))
        assert np.max(np.abs(got - want)) <= numerics.QUADRATURE_TOL

    def test_values_match_the_adaptive_ladder(self):
        g = lambda t: t * t * np.exp(-t * t / 4.0) * np.cos(0.3 * t)
        freqs = np.array([-20.0, -3.7, 0.0, 1.0, 12.5, 20.0])
        got = numerics.fixed_oscillatory_rule(g, 20.0, 20.0)(freqs)
        want = numerics.integrate_oscillatory(g, freqs, 20.0)
        assert np.max(np.abs(got - want)) <= numerics.QUADRATURE_TOL

    def test_weights_the_integrand_once_per_level_and_never_again(self):
        sizes = []

        def g(t):
            sizes.append(t.size)
            return np.exp(-t)

        integral = numerics.fixed_oscillatory_rule(g, 16.5, 16.5)
        # the ladder starts at 1/8 of the oscillatory count, 256 panels here
        assert sizes == [16 * 32, 16 * 64]
        integral(np.linspace(-16.5, 16.5, 999))
        assert len(sizes) == 2


def panel_chebval(x, table):
    """Per point, numpy's ``chebval`` at its local point on its panel of the
    table, by the panel rule that :func:`numerics.chebyshev_values` states."""
    panels = table.shape[0]
    scaled = (x + 1.0) * (0.5 * panels)
    panel = np.minimum(np.floor(scaled).astype(int), panels - 1)
    local = 2.0 * (scaled - panel) - 1.0
    assert np.all(np.abs(local) <= 1.0)
    return [np.polynomial.chebyshev.chebval(local[i : i + 1], table[p]) for i, p in enumerate(panel)]


class TestChebyshevValues:
    @pytest.mark.parametrize(
        "shape", [(1, 2), (1, 33), (7, 3), (203, 33)], ids=lambda shape: "%dx%d" % shape
    )
    @pytest.mark.parametrize("kind", [float, complex])
    def test_bit_identical_to_chebval_on_its_panel(self, shape, kind):
        rng = np.random.default_rng(shape)
        table = rng.normal(size=shape).astype(kind)
        if kind is complex:
            table += 1j * rng.normal(size=shape)
        edges = np.linspace(-1.0, 1.0, shape[0] + 1)
        x = np.concatenate((rng.uniform(-1.0, 1.0, 200), [-1.0, -0.0, 0.0, 1.0], edges))
        got = numerics.chebyshev_values(x, table)
        assert got.dtype == table.dtype
        for i, want in enumerate(panel_chebval(x, table)):
            assert got[i : i + 1].tobytes() == want.tobytes()


class TestChebyshevFit:
    @pytest.mark.parametrize("kind", [float, complex])
    def test_fits_a_function_of_known_type_on_the_derived_panels(self, monkeypatch, kind):
        monkeypatch.setattr(numerics, "QUADRATURE_TOL", 1e-12)

        # of exponential type 50 + 10: P = ceil(60 / 8) = 8 panels
        def f(x):
            wave = np.exp(1j * 50.0 * x) if kind is complex else np.cos(50.0 * x)
            return wave * (2.0 + np.cos(10.0 * x))

        table = numerics.chebyshev_fit(f, 60.0)
        assert table.shape == (8, numerics._PANEL_DEGREE + 1)
        assert table.dtype == np.dtype(kind)
        x = np.random.default_rng(4).uniform(-1.0, 1.0, 500)
        x = np.concatenate((x, [-1.0, 1.0]))
        err = numerics.chebyshev_values(x, table) - f(x)
        assert np.max(np.abs(err)) <= 1e-12

    @pytest.mark.parametrize("tau", [0.0, 8.0, 8.5, 1622.6])
    def test_panel_count_is_the_type_over_8_rounded_up(self, tau):
        table = numerics.chebyshev_fit(lambda x: np.exp(1j * tau * x), tau)
        assert table.shape[0] == max(1, math.ceil(tau / 8.0))

    def test_an_understated_type_raises(self):
        with pytest.raises(numerics.QuadratureError, match="Chebyshev table on 1 panels misses"):
            numerics.chebyshev_fit(lambda x: np.exp(1j * 60.0 * x), 6.0)


class TestNoToleranceArguments:
    # each tolerance is a module constant, not an argument a caller passes
    @pytest.mark.parametrize(
        "function, params",
        [
            (groups.haar_integral_su2, ["f"]),
            (numerics.integrate_real, ["f", "a", "b"]),
            (numerics.integrate_oscillatory, ["g", "frequency", "cutoff"]),
            (numerics.chebyshev_fit, ["f", "exponential_type"]),
            (numerics.fixed_oscillatory_rule, ["g", "max_frequency", "cutoff"]),
            (homodyne.kernel_matrix_element, ["n", "l", "y"]),
        ],
        ids=lambda v: getattr(v, "__name__", ""),
    )
    def test_signature(self, function, params):
        assert list(inspect.signature(function).parameters) == params

    def test_one_value_per_tolerance(self):
        assert numerics.QUADRATURE_TOL == 1e-10
        assert groups.CHART_TOL == 1e-8
        assert not hasattr(homodyne, "KERNEL_TOL")


def random_axes(rng, count):
    axes = rng.normal(size=(count, 3))
    return axes / np.linalg.norm(axes, axis=1)[:, None]


def harmonic_rows(degree, axes):
    """Every (L, row) pair of the generator, as a list of degrees and an array."""
    pairs = list(numerics.real_spherical_harmonics(degree, axes))
    return [l for l, _ in pairs], np.array([row for _, row in pairs])


class TestRealSphericalHarmonics:
    def test_closed_forms_up_to_degree_two(self):
        axes = random_axes(np.random.default_rng(3), 50)
        x, y, z = axes.T
        s3, s15 = math.sqrt(3.0), math.sqrt(15.0)
        # m-major rows: (0,0) (1,0) (2,0), m = 1: cos (1,1) (2,1), sin (1,1) (2,1),
        # m = 2: cos (2,2), sin (2,2)
        want = [
            np.ones_like(x),
            s3 * z,
            math.sqrt(5.0) * (3.0 * z * z - 1.0) / 2.0,
            s3 * x,
            s15 * x * z,
            s3 * y,
            s15 * y * z,
            s15 * (x * x - y * y) / 2.0,
            s15 * x * y,
        ]
        degrees, got = harmonic_rows(2, axes)
        assert degrees == [0, 1, 2, 1, 2, 1, 2, 2, 2]
        assert got.shape == (9, 50)
        np.testing.assert_allclose(got, np.array(want), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 20, 40])
    def test_orthonormal_under_the_rule_of_order_degree_plus_one(self, degree):
        axes, w = spin.sphere_rule(degree + 1)
        degrees, basis = harmonic_rows(degree, axes)
        assert sorted(degrees) == [l for l in range(degree + 1) for _ in range(2 * l + 1)]
        gram = (basis * w) @ basis.T
        assert np.max(np.abs(gram - np.eye(basis.shape[0]))) <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 8])
    def test_one_order_lower_is_not_exact(self, degree):
        axes, w = spin.sphere_rule(degree)
        _, basis = harmonic_rows(degree, axes)
        gram = (basis * w) @ basis.T
        assert np.max(np.abs(gram - np.eye(basis.shape[0]))) >= 0.5

    def test_columns_depend_on_their_axis_only(self):
        axes = random_axes(np.random.default_rng(8), 37)
        _, batch = harmonic_rows(6, axes)
        for i in range(axes.shape[0]):
            _, alone = harmonic_rows(6, axes[i : i + 1])
            assert np.array_equal(alone[:, 0], batch[:, i])

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            next(numerics.real_spherical_harmonics(-1, np.zeros((1, 3))))
