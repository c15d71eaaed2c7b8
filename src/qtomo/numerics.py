"""Dense complex linear algebra, special functions and quadrature primitives.

Everything here is a pure function of its inputs; there is no shared mutable
state, so all routines are safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "NonHermitianError",
    "EigensolverError",
    "QuadratureError",
    "hermitian_asymmetry",
    "require_hermitian",
    "density_matrix",
    "laguerre_function",
    "oscillator_eigenfunctions",
    "integrate_real",
    "integrate_oscillatory",
    "fixed_oscillatory_rule",
    "panel_rule",
    "real_spherical_harmonics",
    "chebyshev_fit",
    "chebyshev_values",
]

MAX_POLY_DEGREE = 200

HERMITIAN_TOL = 1e-12
# the absolute tolerance of every ladder here, read at call time
QUADRATURE_TOL = 1e-10

_GL_ORDER = 16
# Newton steps of the Gauss-Legendre node search: from the asymptotic start
# every order from 1 to 3000 settles within four, and the fifth polishes
_NEWTON_STEPS = 5
_MAX_DOUBLINGS = 14
# no refinement level has more panels, so one level holds at most 2**21 nodes
_MAX_PANELS = 2**17
# an oscillatory integral starts at most this many panels, leaving room for
# two doublings below _MAX_PANELS
_MAX_INITIAL_PANELS = _MAX_PANELS // 4
# entries per block of the (frequencies x panels) phase matrix: 256 KiB of
# complex values, or one row when a row is longer
_PHASE_BLOCK = 2**14
# the degree of every panel series of chebyshev_fit
_PANEL_DEGREE = 32


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""

    def __init__(self, asymmetry: float, tol: float):
        self.asymmetry = asymmetry
        super().__init__(
            f"matrix is not Hermitian: max |M - M^H| = {asymmetry:.3e} exceeds {tol:.1e}"
        )


class EigensolverError(RuntimeError):
    """Eigendecomposition did not converge."""


class QuadratureError(RuntimeError):
    """Refinement hit its cap before two levels agreed, would need more
    panels than the cap allows, or a table missed its function.

    Carries the last two composite estimates for diagnosis, if there are any;
    ``reason`` replaces the default message.
    """

    def __init__(self, estimates, tol: float, reason: str | None = None):
        self.estimates = estimates
        super().__init__(
            reason or f"quadrature did not converge to {tol:.1e}: last estimates {estimates}"
        )


def hermitian_asymmetry(m: np.ndarray) -> float:
    """Max-norm of M - M^H, the distance from being Hermitian."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m) -> np.ndarray:
    """``m`` as a complex array; NonHermitianError if its asymmetry exceeds HERMITIAN_TOL."""
    m = np.asarray(m, dtype=complex)
    asym = hermitian_asymmetry(m)
    # written so that a NaN or infinite entry, whose asymmetry is NaN, fails too
    if not asym <= HERMITIAN_TOL:
        raise NonHermitianError(asym, HERMITIAN_TOL)
    return m


def density_matrix(matrix, dim: int) -> np.ndarray:
    """Read-only complex copy of a ``dim`` x ``dim`` Hermitian, unit-trace, PSD matrix."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim}, got {m.shape}")
    require_hermitian(m)
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"trace must be 1, got {trace!r}")
    eigmin = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    if eigmin < -1e-10:
        raise ValueError(f"state not positive semidefinite: min eigenvalue {eigmin:.3e}")
    m.setflags(write=False)
    return m


def laguerre_function(n: int, l: int, x) -> np.ndarray:
    """Normalized Laguerre function sqrt(n!/(n+l)!) x^(l/2) e^(-x/2) L^l_n(x).

    Its square integrates to 1 over x >= 0.  The three-term recurrence runs
    on the normalized functions themselves, like
    :func:`oscillator_eigenfunctions`, so neither the polynomial nor the
    factorials overflow up to n + l = 200.  ``x`` is a nonnegative array.
    """
    if n < 0 or l < 0:
        raise ValueError("degree and superscript must be nonnegative")
    if n + l > MAX_POLY_DEGREE:
        raise ValueError(f"n + l limited to {MAX_POLY_DEGREE}")
    xa = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        log_power = 0.5 * l * np.log(xa) if l else 0.0
    prev = np.exp(log_power - 0.5 * xa - 0.5 * math.lgamma(l + 1))
    if n == 0:
        return prev
    cur = (l + 1.0 - xa) * prev / math.sqrt(l + 1.0)
    for k in range(1, n):
        prev, cur = cur, (
            (2 * k + l + 1 - xa) * cur - math.sqrt(k * (k + l)) * prev
        ) / math.sqrt((k + 1) * (k + l + 1))
    return cur


def oscillator_eigenfunctions(n_max: int, x) -> np.ndarray:
    """Hermite functions psi_0..psi_n_max evaluated at ``x``, shape (n_max+1, len(x)).

    These are the L^2-normalized harmonic-oscillator position eigenfunctions;
    the recurrence runs directly on psi (not on raw Hermite polynomials), so
    no overflow occurs up to n = 200.
    """
    if n_max < 0 or n_max > MAX_POLY_DEGREE:
        raise ValueError(f"level must be in 0..{MAX_POLY_DEGREE}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, xa.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xa * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * xa * out[n - 1] - np.sqrt((n - 1.0) / n) * out[n - 2]
    return out


def _legendre_and_derivative(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_order and its derivative at points ``x`` inside (-1, 1), by the
    three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for n in range(2, order + 1):
        prev, cur = cur, ((2 * n - 1) * x * cur - (n - 1) * prev) / n
    return cur, order * (x * cur - prev) / (x * x - 1.0)


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and weights of the ``order``-point Gauss-Legendre rule
    on [-1, 1], by Newton's method on the Legendre recurrence from Tricomi's
    asymptotic start, symmetrized; numpy only, with no eigensolver."""
    x = -np.cos(np.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(_NEWTON_STEPS):
        value, slope = _legendre_and_derivative(order, x)
        x -= value / slope
    _, slope = _legendre_and_derivative(order, x)
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    return 0.5 * (x - x[::-1]), 0.5 * (weights + weights[::-1])


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The read-only rule of every panel of :func:`panel_rule`, built on
    first use, so a run that never integrates skips the Newton search."""
    nodes, weights = _gauss_legendre(_GL_ORDER)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_rule(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite 16-point Gauss-Legendre rule on
    ``n_panels`` equal panels of [a, b], panel by panel."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    gl_nodes, gl_weights = _gl_rule()
    nodes = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
    weights = (half[:, None] * gl_weights[None, :]).ravel()
    return nodes, weights


def _refine(estimate: Callable[[int], np.ndarray], n_panels: int):
    """The refinement ladder: double the panel count until two successive
    ``estimate(n_panels)`` agree within QUADRATURE_TOL in the real and the
    imaginary part of every component, at most 14 times and never past 2**17
    panels; the settled estimate and its panel count, else QuadratureError
    with the estimates of the last two levels."""
    prev, cur = None, estimate(n_panels)
    for _ in range(_MAX_DOUBLINGS):
        if 2 * n_panels > _MAX_PANELS:
            break
        n_panels *= 2
        prev, cur = cur, estimate(n_panels)
        if np.all(np.abs(cur.real - prev.real) <= QUADRATURE_TOL) and np.all(
            np.abs(cur.imag - prev.imag) <= QUADRATURE_TOL
        ):
            return cur, n_panels
    raise QuadratureError((prev, cur), QUADRATURE_TOL)


def integrate_real(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> float | np.ndarray:
    """Composite Gauss-Legendre integral of a vectorized real integrand.

    The panel count starts at :func:`oscillatory_panel_count` of frequency 0
    over |b - a|, so no panel is wider than pi / 2, and doubles until two
    successive refinement levels agree within QUADRATURE_TOL (absolute);
    ``f`` must accept an ndarray of nodes.  If ``f`` returns k rows of
    values, shape (k, nodes), the result is the k integrals, which climb the
    ladder together until every one of them settles.  An interval that
    needs more than 2**15 initial panels raises QuadratureError naming it.
    """
    start = oscillatory_panel_count(0.0, abs(b - a))
    # written so that a NaN width, whose count is NaN, fails too
    if not start <= _MAX_INITIAL_PANELS:
        reason = f"interval [{a!r}, {b!r}] needs more than {_MAX_INITIAL_PANELS} initial panels"
        raise QuadratureError(None, QUADRATURE_TOL, reason)

    def estimate(n_panels):
        nodes, weights = panel_rule(a, b, n_panels)
        return np.sum(weights * np.asarray(f(nodes)), axis=-1)

    value = np.real(_refine(estimate, int(start))[0])
    return value if value.ndim else float(value)


def oscillatory_panel_count(frequency: float | np.ndarray, cutoff: float):
    """Smallest power-of-two panel count keeping panel width <= pi / (2
    (|frequency| + 1)), elementwise over an array of frequencies.

    Powers of two let the frequencies of one call share refinement levels.
    The counts stay floats: a cast to a fixed-width integer would wrap for a
    huge frequency instead of failing on its size.
    """
    with np.errstate(over="ignore", divide="ignore"):
        # a frequency near the float maximum gives an infinite count
        width_cap = np.pi / (2.0 * (np.abs(frequency) + 1.0))
        needed = np.maximum(1.0, np.ceil(cutoff / width_cap))
    return 2.0 ** np.ceil(np.log2(needed))


def integrate_oscillatory(
    g: Callable[[np.ndarray], np.ndarray],
    frequency: float | np.ndarray,
    cutoff: float,
) -> complex | np.ndarray:
    """Integral of e^{i frequency t} g(t) over [0, cutoff].

    ``frequency`` is a scalar (complex result) or a 1-d array (one complex
    value per frequency).  If ``g`` returns k rows of values, shape (k,
    nodes), the result has a leading axis of k rows, one per integrand, and
    the rows climb each ladder together.  The initial panel count resolves
    the oscillation of the phase factor; frequencies are grouped by it, and
    every group climbs the same doubling ladder as :func:`integrate_real`,
    with the real and imaginary parts of each member required to settle
    within QUADRATURE_TOL.  A group doubles until all of its members settle, so a
    value from an array call can differ, within that tolerance, from the
    value of a one-at-a-time call.  ``g`` is evaluated once per panel count
    and call, and the phase is factored per panel, e^{i f t} = e^{i f mid}
    e^{i f (t - mid)}.  A frequency that needs more than 2**15 initial panels
    raises QuadratureError naming it, so any finite input costs bounded time
    and memory.
    """
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    freqs = np.asarray(frequency, dtype=float)
    if freqs.ndim > 1:
        raise ValueError("frequency must be a scalar or a 1-d array")
    flat = freqs.reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ValueError("frequencies must be finite")
    counts = oscillatory_panel_count(flat, cutoff)
    too_many = counts > _MAX_INITIAL_PANELS
    if np.any(too_many):
        raise QuadratureError(
            None,
            QUADRATURE_TOL,
            f"frequency {flat[np.argmax(too_many)].item()!r} needs more than "
            f"{_MAX_INITIAL_PANELS} initial panels on [0, {cutoff!r}]",
        )
    rules = {}

    def rule(n_panels):
        if n_panels not in rules:
            rules[n_panels] = _phase_rule(g, cutoff, n_panels)
        return rules[n_panels]

    out = None
    # not np.unique, which imports numpy.ma on numpy 2
    for p in sorted(set(counts.tolist())):
        sel = np.nonzero(counts == p)[0]
        group = flat[sel]
        value, _ = _refine(lambda n_panels: _phase_sum(group, *rule(n_panels)), int(p))
        if out is None:
            out = np.empty(value.shape[:-1] + flat.shape, dtype=complex)
        out[..., sel] = value
    out = out.reshape(out.shape[:-1] + freqs.shape)
    return out if out.ndim else complex(out)


def _phase_rule(g, cutoff: float, n_panels: int):
    """Panel midpoints, node offsets within a panel and the weighted values
    of ``g``, shape (..., 16, n_panels), of the panel rule on [0, cutoff]."""
    nodes, weights = panel_rule(0.0, cutoff, n_panels)
    width = cutoff / n_panels
    values = weights * g(nodes)
    weighted = values.reshape(values.shape[:-1] + (n_panels, _GL_ORDER)).swapaxes(-1, -2)
    offsets = 0.5 * width * _gl_rule()[0]
    return (np.arange(n_panels) + 0.5) * width, offsets, weighted.astype(complex)


def _phase_sum(freqs: np.ndarray, mids: np.ndarray, offsets: np.ndarray, weighted: np.ndarray):
    """The rule of :func:`_phase_rule` applied to e^{i f t} g(t), one value
    per frequency f of a 1-d array, and per row of g if it has rows.  The
    phase is factored per panel, e^{i f t} = e^{i f mid} e^{i f (t - mid)},
    and the (rows x frequencies x panels) terms are formed in blocks of
    _PHASE_BLOCK entries."""
    lead = weighted.shape[:-2]
    rows = max(1, _PHASE_BLOCK // (mids.size * math.prod(lead)))
    out = np.empty(lead + (freqs.size,), dtype=complex)
    for start in range(0, freqs.size, rows):
        block = freqs[start : start + rows]
        # in place, and freed before the next block's, so at most two blocks
        # of terms are held at a time
        phase = 1j * np.outer(block, mids)
        np.exp(phase, out=phase)
        terms = np.exp(1j * np.outer(block, offsets)) @ weighted
        out[..., start : start + rows] = np.multiply(phase, terms, out=terms).sum(axis=-1)
        del phase, terms
    return out


def fixed_oscillatory_rule(
    g: Callable[[np.ndarray], np.ndarray], max_frequency: float, cutoff: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The integral of e^{i f t} g(t) over [0, cutoff] as a function of a
    1-d array of frequencies |f| <= ``max_frequency``, on one fixed rule.

    The rule has a quarter of the :func:`oscillatory_panel_count` of
    max_frequency, so a panel spans up to a period of the hardest frequency,
    which the 16-point rule resolves for the kernel envelopes: for every n + l
    <= 200 it agrees with its doubling within QUADRATURE_TOL at f =
    +-max_frequency (a tier-1 test holds a subsample, a CI step every pair).
    ``g`` is weighted by it once.  Each value is then a pure function of its
    frequency, a sum of the same panel terms as :func:`integrate_oscillatory`
    forms, without a ladder of its own.
    """
    n_panels = max(1, int(oscillatory_panel_count(max_frequency, cutoff)) // 4)
    rule = _phase_rule(g, cutoff, n_panels)
    return lambda freqs: _phase_sum(np.asarray(freqs, dtype=float), *rule)


@functools.cache
def _cosine_matrix(degree: int) -> np.ndarray:
    """The read-only map from values at the Lobatto points cos(j pi / degree)
    to the Chebyshev coefficients of their interpolant: (2 / degree) cos(j k
    pi / degree) at row k, column j, with the end rows and columns halved;
    built on first use."""
    j = np.arange(degree + 1)
    half = np.where(j % degree, 1.0, 0.5)
    matrix = np.cos(np.pi * (np.outer(j, j) % (2 * degree)) / degree)
    matrix *= np.outer(half, half * (2.0 / degree))
    matrix.setflags(write=False)
    return matrix


def chebyshev_values(x, table: np.ndarray) -> np.ndarray:
    """The piecewise Chebyshev series of a :func:`chebyshev_fit` table, one
    row per panel of P equal panels, at each point of ``x`` in [-1, 1].

    With s = (x + 1) (P / 2), x lies in panel p = min(floor s, P - 1), at the
    local point 2 (s - p) - 1; its value is Clenshaw's recurrence in the
    order of numpy's ``chebval``, so it equals ``chebval(local, table[p])``
    bit for bit.  The recurrence runs in place on arrays of the size of ``x``.
    """
    panels = table.shape[0]
    scaled = (np.asarray(x, dtype=float) + 1.0) * (0.5 * panels)
    panel = np.minimum(scaled.astype(np.intp), panels - 1)
    x = 2.0 * (scaled - panel) - 1.0
    x2 = 2.0 * x
    c0, c1 = table[panel, -2], table[panel, -1]
    spare = np.empty_like(c0)
    for k in range(table.shape[1] - 3, -1, -1):
        # c0, c1 = c[k] - c1, c0 + c1 x2
        np.take(table[:, k], panel, out=spare)
        spare -= c1
        c1 *= x2
        c1 += c0
        c0, spare = spare, c0
    c1 *= x
    c1 += c0
    return c1


def chebyshev_fit(f: Callable[[np.ndarray], np.ndarray], exponential_type: float) -> np.ndarray:
    """Piecewise Chebyshev table of ``f`` on [-1, 1] for :func:`chebyshev_values`.

    ``f``, real or complex, must be bounded and of exponential type tau, like
    a finite sum of e^{i w x} with |w| <= tau.  Each of P = ceil(tau / 8)
    equal panels holds the interpolant of degree d = _PANEL_DEGREE at its
    Lobatto points.  By Bernstein's inequality |f^(k)| <= tau^k max |f|, its
    error on a panel of half-width h = 1 / P is at most 2^(1 - d) (h tau)^(d
    + 1) max |f| / (d + 1)!, below 4e-17 max |f|, so nothing climbs.  One
    check stays: a gap |table - f| past QUADRATURE_TOL at a panel's fresh
    point where the node polynomial peaks, midway in angle between the nodes
    nearest its centre, raises QuadratureError.
    """
    tol, degree = QUADRATURE_TOL, _PANEL_DEGREE
    panels = max(1, math.ceil(exponential_type / 8.0))
    # the Lobatto points from 1 to -1 as sines, symmetric about 0 exactly
    local = np.sin(0.5 * np.pi * np.arange(degree, -degree - 1, -2) / degree)
    centres = (2.0 * np.arange(panels) + 1.0) / panels - 1.0
    values = np.asarray(f((centres[:, None] + local / panels).ravel())).reshape(panels, -1)
    table = np.einsum("pj,kj->pk", values, _cosine_matrix(degree))
    fresh = centres + math.sin(0.5 * np.pi / degree) / panels
    gap = np.abs(chebyshev_values(fresh, table) - np.asarray(f(fresh)))
    if np.all(gap <= tol):
        return table
    reason = f"the degree-{degree} Chebyshev table on {panels} panels misses its function by"
    raise QuadratureError(None, tol, f"{reason} {gap.max():.1e}, past {tol:.1e}")


def real_spherical_harmonics(degree: int, axes: np.ndarray):
    """Real spherical harmonics of every L <= ``degree`` at unit ``axes``
    (r, 3), generated as (L, row) pairs, one new row of r values per harmonic,
    with no array of them all.  They are orthonormal under the normalized
    dOmega: the mean of each square over the sphere is 1.

    Rows run m-major: for m = 0 the zonal harmonics L = 0..degree, then for
    each m >= 1 the cos(m phi) harmonics L = m..degree followed by the
    sin(m phi) ones.  Harmonic (L, m) is Q_L^m(z) Re or Im (x + iy)^m, with
    Q_L^m the normalized associated Legendre function divided by
    sin(theta)^m, by its three-term recurrence in L; no angle is formed and
    every operation is elementwise, so a value depends on its axis only.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    axes = np.asarray(axes, dtype=float)
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    diag = 1.0  # Q_m^m, a constant
    re, im = np.ones_like(x), np.zeros_like(x)  # (x + iy)^m
    for m in range(degree + 1):
        if m:
            # sqrt((2m + 1) / 2m) per step, and sqrt(2) once for the cos/sin pairs
            diag *= math.sqrt((2 * m + 1) / (2 * m) * (2.0 if m == 1 else 1.0))
            re, im = re * x - im * y, re * y + im * x
        q = [np.full_like(z, diag)]  # Q_L^m for L = m..degree
        for l in range(m + 1, degree + 1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt((2 * l + 1) * ((l - 1) ** 2 - m * m) / ((2 * l - 3) * (l * l - m * m)))
            # b is 0 at l = m + 1, where there is no Q_{l-2}^m
            q.append(a * z * q[-1] - b * (q[-2] if l > m + 1 else 0.0))
        for part in (re, im) if m else (re,):
            for l, row in enumerate(q, m):
                yield l, row * part
