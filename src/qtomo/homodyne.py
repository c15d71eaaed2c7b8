"""Homodyne tomography of truncated-Fock-basis states.

Records store the outcome of the quorum observable Y_phi = cos(phi) Q +
sin(phi) P directly (the ``y`` convention), and the writer emits only that.
The reader also accepts lines of the laboratory quadrature X_phi = Y_phi /
sqrt(2) under the key ``x``, and :func:`quadrature_density_x` gives its
density.
Density-matrix elements are estimated by the Laguerre-kernel estimator and
the photon number by y^2 - 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from ._jsonio import (
    check_batch, check_rows, line_regex, load_state, number, read_jsonl, save_state, write_jsonl,
)
from ._rng import record_uniforms

__all__ = [
    "PHASE_SIGN",
    "HOMODYNE_DTYPE",
    "FockDensityMatrix",
    "homodyne_records",
    "vacuum_state",
    "number_state",
    "coherent_state",
    "annihilation_operator",
    "truncated_quorum_operator",
    "default_y_max",
    "quadrature_density",
    "quadrature_density_grid",
    "quadrature_density_x",
    "sample_homodyne",
    "default_kernel_cutoff",
    "kernel_matrix_element",
    "estimator_photon_number",
    "MatrixElementKernel",
    "PhotonNumberKernel",
    "write_homodyne_records",
    "read_homodyne_records",
    "save_homodyne_state",
    "load_homodyne_state",
]

# Sign s of the mode phases in f_n(phi, y) = e^{i s n phi} psi_n(y).  Pinned
# empirically against the truncated-operator eigendecomposition oracle (see
# test suite) and frozen here.
PHASE_SIGN = +1

TAIL_TOL = 1e-8
CDF_TOL = 1e-4

_SAMPLE_CHUNK = 8192
# the sampler's blocks: at most 4096 records (at 8192 a narrow state's cubic solve
# raised a step's peak RSS) and 2**17 coefficients, 1 MiB (4096 records of the dense
# |0..199> state's 399 columns held 13 MB per temporary; 2**15 slowed coherent draws 17 %)
_DRAW_BLOCK = 4096
_DRAW_ENTRIES = 2**17
_NEWTON_STEPS = 10  # near a zero of omega, 8 steps left 4e-7 of CDF and 10 left 8e-9

# one quorum draw: phase phi in [0, 2 pi) and outcome y of Y_phi
HOMODYNE_DTYPE = np.dtype([("phi", np.float64), ("y", np.float64)])


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on the truncated Fock basis {0 .. n_max}, tail mass <= TAIL_TOL."""

    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        # the Hermite functions of every path stop at MAX_POLY_DEGREE
        if not 1 <= self.n_max <= numerics.MAX_POLY_DEGREE:
            raise ValueError(f"n_max must be in 1..{numerics.MAX_POLY_DEGREE}, got {self.n_max}")
        m = numerics.density_matrix(self.matrix, self.n_max + 1)
        tail = float(m[-1, -1].real)
        if tail > TAIL_TOL:
            raise ValueError(
                f"tail mass <n_max|rho|n_max> = {tail:.3e} exceeds {TAIL_TOL:.1e}; "
                "increase n_max"
            )
        object.__setattr__(self, "matrix", m)


def homodyne_records(phi, y) -> np.ndarray:
    """Record batch of ``HOMODYNE_DTYPE`` from equal-length phi and y columns.

    Checked once over the batch; a RecordError names the first bad row.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 1 or phi.shape != y.shape:
        raise ValueError("phi and y must be 1-d arrays of one length")
    check_rows([
        ((phi >= 0.0) & (phi < 2.0 * math.pi), "phi must lie in [0, 2 pi)", phi),
        (np.isfinite(y), "y must be finite", y),
    ])
    batch = np.empty(phi.size, dtype=HOMODYNE_DTYPE)
    batch["phi"], batch["y"] = phi, y
    return batch


def vacuum_state(n_max: int) -> FockDensityMatrix:
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[0, 0] = 1.0
    return FockDensityMatrix(n_max, m)


def number_state(level: int, n_max: int) -> FockDensityMatrix:
    if not 0 <= level < n_max:
        raise ValueError("level must satisfy 0 <= level < n_max")
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[level, level] = 1.0
    return FockDensityMatrix(n_max, m)


def coherent_state(alpha: complex, n_max: int) -> FockDensityMatrix:
    """|alpha><alpha| truncated to n_max and renormalized to unit trace."""
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_max + 1)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * np.asarray(alpha, complex) ** n
    m = np.outer(amps, amps.conj())
    return FockDensityMatrix(n_max, m / np.trace(m).real)


def annihilation_operator(n_max: int) -> np.ndarray:
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    idx = np.arange(n_max)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    return a


def truncated_quorum_operator(n_max: int, phi: float) -> np.ndarray:
    """Y_phi = cos(phi) Q + sin(phi) P on the truncated Fock basis."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = annihilation_operator(n_max)
    ad = a.conj().T
    q = (a + ad) / math.sqrt(2.0)
    p = (a - ad) / (math.sqrt(2.0) * 1j)
    return math.cos(phi) * q + math.sin(phi) * p


def default_y_max(n_max: int) -> float:
    """Support radius for densities and sampling: energy bound plus Gaussian margin."""
    return math.sqrt(2.0 * (n_max + 1)) + 6.0


def quadrature_density_grid(rho: FockDensityMatrix, phi, y) -> np.ndarray:
    """omega(phi, y) on an array of outcomes, clamped at zero.

    ``phi`` is a scalar, or a 1-d array of phases that gives one row per
    phase, shape (phases, outcomes); the rows share one evaluation of the
    eigenfunctions, and each equals the row of its phase alone bit for bit.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    psi = numerics.oscillator_eigenfunctions(rho.n_max, y)
    levels = np.arange(rho.n_max + 1)
    rows = []
    for angle in np.atleast_1d(np.asarray(phi, dtype=float)).tolist():
        v = np.exp(1j * PHASE_SIGN * angle * levels)[:, None] * psi
        rows.append(np.einsum("ny,nm,my->y", v.conj(), rho.matrix, v).real)
    dens = np.stack(rows)
    low = float(dens.min(initial=0.0))
    if low < -1e-10:
        raise RuntimeError(f"density evaluated to {low:.3e}; state is inconsistent")
    np.clip(dens, 0.0, None, out=dens)
    return dens if np.ndim(phi) else dens[0]


def quadrature_density(rho: FockDensityMatrix, phi: float, y: float) -> float:
    """Probability density of the outcome of Y_phi in the given state."""
    return float(quadrature_density_grid(rho, phi, [y])[0])


def quadrature_density_x(rho: FockDensityMatrix, phi: float, x: float) -> float:
    """Density of the laboratory quadrature X_phi = Y_phi / sqrt(2)."""
    return math.sqrt(2.0) * quadrature_density(rho, phi, math.sqrt(2.0) * x)


class _CdfSampler:
    """Per-state tables for inverse-CDF sampling of omega(phi, .).

    omega = S_0 + 2 Re sum_{k>=1} e^{i s k phi} S_k, S_k = sum_n rho[n, n+k]
    psi_n psi_{n+k}, so the CDF at edge i is B_i + sum_k cos(k phi) C_ki +
    sin(k phi) S_ki, over only the k whose coherences have a nonzero real or
    imaginary part (a number state keeps B alone).  Every mass is exact, by
    the Hermite Wronskian with psi_n' = sqrt(2n) psi_{n-1} - y psi_n:
    int_{-inf}^y psi_n psi_{n+k} = (psi_n' psi_{n+k} - psi_n psi_{n+k}') / 2k
    for k >= 1, and I_n = I_{n-1} - psi_n psi_{n-1} / sqrt(2n) from I_0 =
    (1 + erf y) / 2 on the diagonal; the psi_n psi_{n+k} sums give the exact
    densities.  Between edges the CDF is their cubic Hermite interpolant
    (Hoermann and Leydold, ACM TOMACS 13, 347, 2003), within h^4 / 384 max
    |omega'''|.  With ||rho|| <= 1, Cauchy-Schwarz bounds |omega'''| by 2
    (|psi| |psi'''| + 3 |psi'| |psi''|) for psi = (psi_0 .. psi_n_max), below
    3 (n_max + 1)^2 for every n_max <= 200 (a test holds it), so one grid
    with h^4 (n_max + 1)^2 / 128 <= CDF_TOL serves every state and phi.
    Each record bisects its masses in O(k log M) and solves the cubic in its
    interval; rows are pure per record, so streams match under any sharding.
    """

    def __init__(self, rho: FockDensityMatrix):
        n, y_max = rho.n_max, default_y_max(rho.n_max)
        self.n_intervals = math.ceil(2.0 * y_max * math.sqrt(n + 1) / (128.0 * CDF_TOL) ** 0.25)
        self.edges = np.linspace(-y_max, y_max, self.n_intervals + 1)
        psi = numerics.oscillator_eigenfunctions(n, self.edges)
        root = np.sqrt(2.0 * np.arange(n + 1))
        # per k, the weights of cos(k phi) and sin(k phi) in the Wronskian sum
        weights, kept = {}, np.zeros((2, n + 1), dtype=bool)
        for k in range(1, n + 1):
            coherence = rho.matrix.diagonal(k)
            weights[k] = np.stack((coherence.real, -PHASE_SIGN * coherence.imag)) / k
            kept[:, k] = weights[k].any(axis=1)
        self.cos_k, self.sin_k = (np.flatnonzero(row).astype(float) for row in kept)
        column = np.cumsum(kept).reshape(kept.shape)  # after B, the cos columns, then the sin
        # row i is edge i: masses for the bisection, densities for the cubic
        self.masses, self.densities = np.empty((2, self.n_intervals + 1, 1 + column[-1, -1]))
        # sum_n rho_nn I_n with the I_n recurrence unrolled: tail[j] = sum_{n>=j} rho_nn
        diagonal = rho.matrix.diagonal().real
        tail = np.cumsum(diagonal[::-1])[::-1]
        erf = np.fromiter(map(math.erf, self.edges.tolist()), float, self.edges.size)
        lowered = np.einsum("n,ny,ny->y", tail[1:] / root[1:], psi[1:], psi[:-1])
        self.masses[:, 0], self.densities[:, 0] = (
            0.5 * tail[0] * (1.0 + erf) - lowered, np.einsum("n,ny,ny->y", diagonal, psi, psi))
        for k in np.flatnonzero(kept.any(axis=0)).tolist():
            w = weights[k]
            mass = np.einsum(
                "cn,ny,ny->cy", w[:, 1:] * root[1 : n - k + 1], psi[: n - k], psi[k + 1 :]
            ) - np.einsum("cn,ny,ny->cy", w * root[k:], psi[: n - k + 1], psi[k - 1 : n])
            density = np.einsum("cn,ny,ny->cy", 2 * k * w, psi[: n - k + 1], psi[k:])
            for p in np.flatnonzero(kept[:, k]).tolist():
                self.masses[:, column[p, k]], self.densities[:, column[p, k]] = mass[p], density[p]

    def sample(self, phis: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Cubic Hermite inverse CDF, one uniform per row."""
        coeff = np.ones((phis.size, 1 + self.cos_k.size + self.sin_k.size))
        np.cos(np.outer(phis, self.cos_k), out=coeff[:, 1 : 1 + self.cos_k.size])
        np.sin(np.outer(phis, self.sin_k), out=coeff[:, 1 + self.cos_k.size :])

        def at(table, idx):
            return np.einsum("rk,rk->r", coeff, table.take(idx, axis=0))
        total = np.einsum("rk,k->r", coeff, self.masses[-1])
        if np.any(total < 0.5) or np.any(total > 1.5):
            raise RuntimeError("density mass is far from 1; state is inconsistent")
        target = u * total
        # first interval whose upper edge's CDF reaches the target
        lo, hi = np.zeros(phis.size, dtype=np.intp), np.full(phis.size, self.n_intervals - 1)
        for _ in range((self.n_intervals - 1).bit_length()):
            mid = (lo + hi) // 2
            reached = at(self.masses, mid + 1) >= target
            lo, hi = np.where(reached, lo, mid + 1), np.where(reached, mid, hi)
        h = self.edges[1] - self.edges[0]
        lower = at(self.masses, hi)
        rise = at(self.masses, hi + 1) - lower
        slope0, slope1 = h * at(self.densities, hi), h * at(self.densities, hi + 1)
        # Newton on the cubic lower + t (slope0 + t (c2 + t c3)), t = (y - edge) / h, from the
        # linear guess; a step out of the root's bracket halves it: near a zero of omega it can dip
        c2, c3 = 3.0 * rise - 2.0 * slope0 - slope1, slope0 + slope1 - 2.0 * rise
        t = np.clip((target - lower) / np.where(rise > 0.0, rise, 1.0), 0.0, 1.0)
        left, right = 0.0, 1.0
        for _ in range(_NEWTON_STEPS):
            gap = lower - target + t * (slope0 + t * (c2 + t * c3))
            left, right = np.where(gap < 0.0, t, left), np.where(gap < 0.0, right, t)
            grad = slope0 + t * (2.0 * c2 + 3.0 * t * c3)
            step = t - gap / np.where(grad > 0.0, grad, 1.0)
            inside = (grad > 0.0) & (left <= step) & (step <= right)
            t = np.where(inside, step, 0.5 * (left + right))
        return self.edges[0] + (hi + t) * h


def sample_homodyne(rho: FockDensityMatrix, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` records: phi uniform on [0, 2 pi), y by inverse CDF.

    The CDF tables are exact at every edge (see :class:`_CdfSampler`); one
    grid, a function of n_max alone, serves every record, and its cubic
    interpolant stays within CDF_TOL of the CDF for every state and phi.
    A block holds at most _DRAW_ENTRIES coefficients, so fewer records for a
    wider state; record i is a pure function of (seed, i), whatever the block size.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sampler = _CdfSampler(rho)
    block = min(_DRAW_BLOCK, _DRAW_ENTRIES // sampler.masses.shape[1])
    phis, ys = np.empty(count), np.empty(count)
    for start in range(0, count, block):
        stop = min(start + block, count)
        u = record_uniforms(seed, start, stop - start, 2)
        phis[start:stop] = 2.0 * np.pi * u[:, 0]
        ys[start:stop] = sampler.sample(phis[start:stop], u[:, 1])
    return homodyne_records(phis, ys)


def default_kernel_cutoff(n: int, l: int) -> float:
    """Upper limit of the kernel integral and half-width of the kernel table.

    It lies at least 6 past the turning point t = sqrt(8n + 4l + 4) of the
    normalized envelope, and never below 12 + 2 sqrt(n + l); beyond it the
    envelope stays below 1e-10 for every n + l <= 200.
    """
    return max(12.0 + 2.0 * math.sqrt(n + l), math.sqrt(8.0 * n + 4.0 * l + 4.0) + 6.0)


def _kernel_envelope(n: int, l: int, t: np.ndarray) -> np.ndarray:
    """sqrt(n!/(n+l)!) 2^(-l/2) t^(l+1) L^l_n(t^2/2) e^(-t^2/4), the normalized
    envelope: t times a normalized Laguerre function, so it stays O(t)."""
    return t * numerics.laguerre_function(n, l, t * t / 2.0)


def kernel_matrix_element(n: int, l: int, y: float | np.ndarray) -> complex | np.ndarray:
    """Phase-free kernel factor K_{n,l}(y) of the matrix-element estimator.

    The full estimator for the element (n+l, n) is e^{i l phi} K_{n,l}(y),
    with K_{n,l}(y) = (-i)^l times the integral of e^{i y t} times the
    normalized envelope over [0, :func:`default_kernel_cutoff`], past which
    the envelope is below 1e-10; the envelope carries the factor
    sqrt(n!/(n+l)!) 2^(-l/2), so ``numerics.QUADRATURE_TOL`` bounds the error
    of K itself for every n + l <= 200.  ``y`` is a scalar (complex result)
    or a 1-d array of outcomes (one value each), integrated by
    :func:`numerics.integrate_oscillatory` on its one refinement ladder.
    Outcomes that share a panel count refine together until all settle, so
    a value from an array call can differ, within that tolerance, from the
    value of a one-at-a-time call.  This quadrature is the oracle of the
    piecewise Chebyshev table that :class:`MatrixElementKernel` builds, and
    its evaluator past the table.
    """
    if n < 0 or l < 0:
        raise ValueError("kernel indices must satisfy n >= 0, l >= 0")
    if n + l > numerics.MAX_POLY_DEGREE:
        raise ValueError(f"n + l must not exceed {numerics.MAX_POLY_DEGREE}")
    integral = numerics.integrate_oscillatory(
        lambda t: _kernel_envelope(n, l, t), y, default_kernel_cutoff(n, l)
    )
    return (-1j) ** (l % 4) * integral


def estimator_photon_number(records):
    """Estimator of Tr[a^dag a rho], y^2 - 1/2 in the Y convention, per record."""
    return records["y"] * records["y"] - 0.5


class MatrixElementKernel:
    """Batch estimator kernel for one density-matrix element (n+l, n).

    The element (n, l) with l < 0 is the conjugate of (n+l, -l), so both
    evaluate K of the base pair (n, |l|), with Y = :func:`default_kernel_cutoff`
    of that pair as the cutoff of its integral and the half-width of its
    table.  The first :meth:`evaluate` that needs the table builds it once by
    :func:`numerics.chebyshev_fit`, from the values of
    :func:`numerics.fixed_oscillatory_rule` on a quarter of the panels that
    :func:`numerics.oscillatory_panel_count` gives Y, with no ladder.  That
    rule makes K(Y x) a sum of e^{i Y t x} over t <= Y, of
    exponential type Y^2, which sets the table's panel count;
    :func:`kernel_matrix_element` is its oracle.  Outcomes with |y| <= Y
    take their values from the table by :func:`numerics.chebyshev_values`, a
    pure function of (n, l, y), in blocks of _SAMPLE_CHUNK records; only
    outcomes past Y go through the quadrature, where a value can differ
    within that tolerance from the same outcome evaluated alone.
    """

    def __init__(self, n: int, l: int):
        if n < 0 or n + l < 0:
            raise ValueError("indices must satisfy n >= 0 and n + l >= 0")
        self.n, self.l = n, l
        self._base = (n, l) if l >= 0 else (n + l, -l)
        if sum(self._base) > numerics.MAX_POLY_DEGREE:
            raise ValueError(f"n + l must not exceed {numerics.MAX_POLY_DEGREE}")
        self._y_max = default_kernel_cutoff(*self._base)
        self._table = None

    def _build_table(self) -> np.ndarray:
        base_n, base_l = self._base
        y_max = self._y_max
        integral = numerics.fixed_oscillatory_rule(
            lambda t: _kernel_envelope(base_n, base_l, t), y_max, y_max
        )
        phase = (-1j) ** (base_l % 4)
        return numerics.chebyshev_fit(lambda x: phase * integral(y_max * x), y_max * y_max)

    def _kernel_values(self, y: np.ndarray) -> np.ndarray:
        """K of the base pair: the table inside [-Y, Y], the quadrature outside."""
        inside = np.abs(y) <= self._y_max
        values = np.empty(y.shape, dtype=complex)
        if inside.any():
            if self._table is None:
                self._table = self._build_table()
            values[inside] = numerics.chebyshev_values(y[inside] / self._y_max, self._table)
        if not inside.all():
            values[~inside] = kernel_matrix_element(*self._base, y[~inside])
        return values

    def evaluate(self, records: np.ndarray) -> np.ndarray:
        check_batch(records, HOMODYNE_DTYPE, "homodyne")
        out = np.empty(len(records), dtype=complex)
        for start in range(0, len(records), _SAMPLE_CHUNK):
            chunk = records[start : start + _SAMPLE_CHUNK]
            values = np.exp(1j * self._base[1] * chunk["phi"]) * self._kernel_values(chunk["y"])
            out[start : start + _SAMPLE_CHUNK] = values if self.l >= 0 else values.conj()
        return out


class PhotonNumberKernel:
    """Batch estimator kernel for the mean photon number."""

    def evaluate(self, records: np.ndarray) -> np.ndarray:
        check_batch(records, HOMODYNE_DTYPE, "homodyne")
        return estimator_photon_number(records).astype(complex)


# The one line shape the writer emits; the reader's fast path matches it.
_LINE = '{"phi": %.17g, "y": %.17g}\n'


def write_homodyne_records(records: np.ndarray, path) -> None:
    """JSONL stream, one {"phi": phi, "y": y} object per line."""
    write_jsonl(path, _LINE, [records["phi"], records["y"]])


def _row_from_json(obj) -> tuple[float, float]:
    if "y" in obj and "x" in obj:
        raise ValueError("record line holds both outcome fields 'y' and 'x'")
    if "y" in obj:
        y = number(obj["y"], "y")
    elif "x" in obj:
        y = math.sqrt(2.0) * number(obj["x"], "x")
    else:
        raise ValueError("record line is missing the outcome field")
    return number(obj["phi"], "phi"), y


def _batch_from_rows(values: np.ndarray) -> np.ndarray:
    return homodyne_records(*values.reshape(-1, 2).T)


def read_homodyne_records(path, lines: list | None = None) -> np.ndarray:
    """Record batch of a JSONL stream of y or x lines; errors name
    ``path:line``, and a list ``lines`` receives the records' line numbers."""
    return read_jsonl(path, _row_from_json, _batch_from_rows, line_regex(_LINE), lines)


def save_homodyne_state(rho: FockDensityMatrix, path) -> None:
    """JSON state file: {"n_max": N, "rho": [[[re, im], ...], ...]}."""
    save_state(path, "n_max", rho.n_max, rho.matrix)


def load_homodyne_state(path) -> FockDensityMatrix:
    return FockDensityMatrix(*load_state(path, "n_max"))
