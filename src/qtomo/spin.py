"""Spin-j tomography: Stern-Gerlach statistics along random axes and the
sin^2(t/2) estimator kernel, in closed form and as a quadrature oracle.

Half-integer labels are stored doubled (``two_j``, ``two_m``) so parity and
range checks stay exact.  The J_z eigenbasis is ordered by ascending
magnetic number m = -j..+j throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numerics
from ._jsonio import dumps, format_float, read_jsonl
from ._rng import record_uniforms

__all__ = [
    "SpinDensityMatrix",
    "SpinRecord",
    "spin_matrices",
    "axis_operator",
    "spin_probabilities",
    "sample_spin",
    "kernel_spin_closed",
    "kernel_spin_closed_general",
    "kernel_spin_numeric",
    "exact_reconstruction",
    "SpinOperatorKernel",
    "spin_operator_kernel",
    "write_spin_records",
    "read_spin_records",
    "save_spin_state",
    "load_spin_state",
    "maximally_mixed",
]

AXIS_NORM_TOL = 1e-12

_SAMPLE_CHUNK = 8192


def spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (J_x, J_y, J_z) for spin j = two_j / 2.

    Built from the standard ladder operators in the ascending-m basis, so
    J_z = diag(-j, ..., +j) and [J_x, J_y] = i J_z (and cyclic).
    """
    if two_j < 1:
        raise ValueError("two_j must be >= 1")
    j = two_j / 2.0
    dim = two_j + 1
    m = -j + np.arange(dim)
    raising = np.zeros((dim, dim), dtype=complex)
    raising[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(
        j * (j + 1) - m[:-1] * (m[:-1] + 1)
    )
    lowering = raising.conj().T
    jx = (raising + lowering) / 2.0
    jy = (raising - lowering) / 2.0j
    jz = np.diag(m).astype(complex)
    return jx, jy, jz


def _check_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = float(np.linalg.norm(axis))
    if abs(norm - 1.0) > AXIS_NORM_TOL:
        raise ValueError(f"axis must be unit length, got norm {norm!r}")
    return axis


def axis_operator(two_j: int, axis) -> np.ndarray:
    """J_n = n . J for a unit axis n; spectrum is exactly -j..+j."""
    axis = _check_axis(axis)
    jx, jy, jz = spin_matrices(two_j)
    return axis[0] * jx + axis[1] * jy + axis[2] * jz


@dataclass(frozen=True)
class SpinDensityMatrix:
    """Spin-j state in the ascending-m J_z eigenbasis."""

    two_j: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.two_j < 1:
            raise ValueError("two_j must be >= 1")
        m = np.array(self.matrix, dtype=complex)
        dim = self.two_j + 1
        if m.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {m.shape}")
        asym = numerics.hermitian_asymmetry(m)
        if asym > 1e-12:
            raise numerics.NonHermitianError(asym, 1e-12)
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1, got {trace!r}")
        eigmin = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        if eigmin < -1e-10:
            raise ValueError(f"state not positive semidefinite: min eigenvalue {eigmin:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.two_j + 1


@dataclass(frozen=True)
class SpinRecord:
    """One measurement: spin along ``axis`` gave magnetic number two_m / 2."""

    axis: tuple[float, float, float]
    two_m: int

    def __post_init__(self):
        axis = tuple(float(c) for c in self.axis)
        if len(axis) != 3:
            raise ValueError("axis must have three components")
        norm = float(np.sqrt(sum(c * c for c in axis)))
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= AXIS_NORM_TOL:
            raise ValueError(f"axis must be unit length, got norm {norm!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "two_m", int(self.two_m))


def _check_two_m(two_j: int, two_m: int):
    if abs(two_m) > two_j or (two_m - two_j) % 2 != 0:
        raise ValueError(f"two_m={two_m} invalid for two_j={two_j}")


def maximally_mixed(two_j: int) -> SpinDensityMatrix:
    dim = two_j + 1
    return SpinDensityMatrix(two_j, np.eye(dim, dtype=complex) / dim)


def _axis_eigh_stack(two_j: int, axes: np.ndarray):
    """Stacked eigendecomposition of J_n for axes of shape (r, 3)."""
    jx, jy, jz = spin_matrices(two_j)
    stack = (
        axes[:, 0, None, None] * jx
        + axes[:, 1, None, None] * jy
        + axes[:, 2, None, None] * jz
    )
    values, vectors = np.linalg.eigh(stack)
    if np.min(np.diff(values, axis=1)) < 0.5:
        raise numerics.EigensolverError(
            "degenerate spin spectrum: eigensolver failure on J_n"
        )
    return values, vectors


def _probabilities_stack(rho: SpinDensityMatrix, vectors: np.ndarray) -> np.ndarray:
    p = np.einsum("rnk,nm,rmk->rk", vectors.conj(), rho.matrix, vectors).real
    np.clip(p, 0.0, None, out=p)
    return p / p.sum(axis=1, keepdims=True)


def spin_probabilities(rho: SpinDensityMatrix, axis) -> np.ndarray:
    """Outcome probabilities p_m, m ascending -j..+j, for measuring J_n.

    Phase freedom of the eigenvectors cancels in the quadratic form, so the
    result is independent of the eigensolver's phase choices.
    """
    axis = _check_axis(axis)
    _, vectors = _axis_eigh_stack(rho.two_j, axis[None, :])
    p = _probabilities_stack(rho, vectors)[0]
    if abs(p.sum() - 1.0) > 1e-10:
        raise RuntimeError("probabilities failed to normalize")
    return p


def sample_spin(rho: SpinDensityMatrix, count: int, seed: int) -> list[SpinRecord]:
    """Draw ``count`` records: axis uniform on the sphere, outcome from p_m.

    Record i is a pure function of (seed, i); prefixes of longer runs and
    shard layouts reproduce identical streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    records: list[SpinRecord] = []
    two_j = rho.two_j
    for start in range(0, count, _SAMPLE_CHUNK):
        n = min(start + _SAMPLE_CHUNK, count) - start
        u = record_uniforms(seed, start, n, 3)
        z = 2.0 * u[:, 0] - 1.0
        az = 2.0 * np.pi * u[:, 1]
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        axes = np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)
        _, vectors = _axis_eigh_stack(two_j, axes)
        probs = _probabilities_stack(rho, vectors)
        cdf = np.cumsum(probs, axis=1)
        draws = u[:, 2] * cdf[:, -1]
        idx = np.minimum((cdf >= draws[:, None]).argmax(axis=1), two_j)
        for r in range(n):
            records.append(
                SpinRecord(
                    axis=(axes[r, 0], axes[r, 1], axes[r, 2]),
                    two_m=int(-two_j + 2 * idx[r]),
                )
            )
    return records


def _axis_expectations(a_matrix: np.ndarray, two_j: int, axis) -> np.ndarray:
    axis = _check_axis(axis)
    _, vectors = _axis_eigh_stack(two_j, axis[None, :])
    v = vectors[0]
    return np.einsum("nk,nm,mk->k", v.conj(), a_matrix, v)


def _closed_from_diagonal(a_diag: np.ndarray, two_j: int, two_lambda: int):
    idx = (two_lambda + two_j) // 2
    upper = a_diag[idx + 1] if idx + 1 <= two_j else 0.0
    lower = a_diag[idx - 1] if idx - 1 >= 0 else 0.0
    return (two_j + 1) * (a_diag[idx] - 0.5 * (upper + lower))


def kernel_spin_closed_general(a_matrix: np.ndarray, axis, two_lambda: int) -> complex:
    """Closed-form estimator value for an arbitrary (possibly non-Hermitian) operator."""
    a_matrix = np.asarray(a_matrix, dtype=complex)
    two_j = a_matrix.shape[0] - 1
    _check_two_m(two_j, two_lambda)
    a_diag = _axis_expectations(a_matrix, two_j, axis)
    return complex(_closed_from_diagonal(a_diag, two_j, two_lambda))


def kernel_spin_closed(a_matrix: np.ndarray, axis, two_lambda: int) -> float:
    """Estimator value sigma(A)(n, lambda) in exact closed form.

    Writing a_m for the diagonal of A in the J_n eigenbasis (zero outside
    m = -j..+j), the kernel is (2j+1) (a_lambda - (a_{lambda+1} + a_{lambda-1}) / 2).
    Averaged over records it reproduces Tr[A rho]; this is the production
    path, with :func:`kernel_spin_numeric` as the quadrature oracle.
    """
    a_matrix = np.asarray(a_matrix, dtype=complex)
    asym = numerics.hermitian_asymmetry(a_matrix)
    if asym > 1e-12:
        raise numerics.NonHermitianError(asym, 1e-12)
    return float(kernel_spin_closed_general(a_matrix, axis, two_lambda).real)


def kernel_spin_numeric(
    a_matrix: np.ndarray, axis, two_lambda: int, tol: float = 1e-10
) -> float:
    """Estimator via direct quadrature of the oscillatory kernel integral.

    Integrates (2j+1)/pi * e^{i lambda t} Tr[A e^{-i t J_n}] sin^2(t/2) over
    a full period and checks that the imaginary residue is below 1e-9 before
    discarding it.
    """
    a_matrix = np.asarray(a_matrix, dtype=complex)
    asym = numerics.hermitian_asymmetry(a_matrix)
    if asym > 1e-12:
        raise numerics.NonHermitianError(asym, 1e-12)
    two_j = a_matrix.shape[0] - 1
    _check_two_m(two_j, two_lambda)
    a_diag = _axis_expectations(a_matrix, two_j, axis)
    m_values = -two_j / 2.0 + np.arange(two_j + 1)

    def g(t):
        trace = a_diag @ np.exp(-1j * np.outer(m_values, t))
        return (two_j + 1) / np.pi * trace * np.sin(t / 2.0) ** 2

    value = numerics.integrate_oscillatory(g, two_lambda / 2.0, 2.0 * np.pi, tol)
    if abs(value.imag) > 1e-9:
        raise RuntimeError(f"kernel integral has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _sphere_grid(sphere_order: int):
    nodes, weights = np.polynomial.legendre.leggauss(sphere_order)
    n_az = 2 * sphere_order
    az = 2.0 * np.pi * np.arange(n_az) / n_az
    cos_t = np.repeat(nodes, n_az)
    sin_t = np.sqrt(np.clip(1.0 - cos_t**2, 0.0, None))
    axes = np.stack(
        [sin_t * np.cos(np.tile(az, sphere_order)),
         sin_t * np.sin(np.tile(az, sphere_order)),
         cos_t],
        axis=1,
    )
    # dOmega is normalized: GL weights sum to 2, azimuth is an equal-weight ring
    w = np.repeat(weights, n_az) / (2.0 * n_az)
    return axes, w


def exact_reconstruction(
    rho: SpinDensityMatrix, a_matrix: np.ndarray, sphere_order: int = 16
) -> float:
    """Deterministic reconstruction of Tr[A rho] by sphere quadrature.

    Sums the closed-form kernel against the outcome probabilities on a
    Gauss-Legendre (polar) x uniform (azimuth) product grid; the integrand is
    a low-degree polynomial in the axis components, so moderate orders are
    exact to roundoff.
    """
    if sphere_order < 8:
        raise ValueError("sphere_order must be >= 8")
    a_matrix = np.asarray(a_matrix, dtype=complex)
    asym = numerics.hermitian_asymmetry(a_matrix)
    if asym > 1e-12:
        raise numerics.NonHermitianError(asym, 1e-12)
    two_j = rho.two_j
    if a_matrix.shape != (two_j + 1, two_j + 1):
        raise ValueError("operator dimension does not match the state")
    axes, w = _sphere_grid(sphere_order)
    _, vectors = _axis_eigh_stack(two_j, axes)
    probs = _probabilities_stack(rho, vectors)
    a_diag = np.einsum("rnk,nm,rmk->rk", vectors.conj(), a_matrix, vectors).real
    padded = np.zeros((axes.shape[0], two_j + 3))
    padded[:, 1:-1] = a_diag
    sigma = (two_j + 1) * (padded[:, 1:-1] - 0.5 * (padded[:, 2:] + padded[:, :-2]))
    return float(np.sum(w * np.sum(probs * sigma, axis=1)))


class SpinOperatorKernel:
    """Batch estimator kernel for a fixed spin observable.

    Evaluates the closed-form kernel on sequences of :class:`SpinRecord`;
    pure per record, so shard layout never changes a value.
    """

    def __init__(self, a_matrix: np.ndarray):
        a_matrix = np.asarray(a_matrix, dtype=complex)
        if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
            raise ValueError("operator must be a square matrix")
        asym = numerics.hermitian_asymmetry(a_matrix)
        if asym > 1e-12:
            raise numerics.NonHermitianError(asym, 1e-12)
        self.a_matrix = a_matrix
        self.two_j = a_matrix.shape[0] - 1

    def evaluate(self, records: Sequence[SpinRecord]) -> np.ndarray:
        if not all(isinstance(r, SpinRecord) for r in records):
            raise TypeError("spin kernel requires SpinRecord inputs")
        axes = np.array([r.axis for r in records], dtype=float)
        two_m = np.array([r.two_m for r in records], dtype=int)
        for tm in np.unique(two_m):
            _check_two_m(self.two_j, int(tm))
        out = np.empty(len(records), dtype=complex)
        for start in range(0, len(records), _SAMPLE_CHUNK):
            stop = min(start + _SAMPLE_CHUNK, len(records))
            _, vectors = _axis_eigh_stack(self.two_j, axes[start:stop])
            a_diag = np.einsum(
                "rnk,nm,rmk->rk", vectors.conj(), self.a_matrix, vectors
            ).real
            padded = np.zeros((stop - start, self.two_j + 3))
            padded[:, 1:-1] = a_diag
            sigma = (self.two_j + 1) * (
                padded[:, 1:-1] - 0.5 * (padded[:, 2:] + padded[:, :-2])
            )
            idx = (two_m[start:stop] + self.two_j) // 2
            out[start:stop] = sigma[np.arange(stop - start), idx]
        return out


def spin_operator_kernel(a_matrix: np.ndarray) -> SpinOperatorKernel:
    return SpinOperatorKernel(a_matrix)


def write_spin_records(records: Sequence[SpinRecord], path) -> None:
    """JSONL stream, one {"axis": [nx, ny, nz], "two_m": m} object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            axis = ", ".join(format_float(c) for c in r.axis)
            fh.write(f'{{"axis": [{axis}], "two_m": {r.two_m}}}\n')


def read_spin_records(path) -> list[SpinRecord]:
    """Records of a JSONL stream; errors name ``path:line``."""
    return read_jsonl(
        path, lambda obj: SpinRecord(axis=tuple(obj["axis"]), two_m=obj["two_m"])
    )


def save_spin_state(rho: SpinDensityMatrix, path) -> None:
    """JSON state file: {"two_j": N, "rho": [[[re, im], ...], ...]}."""
    payload = {
        "two_j": rho.two_j,
        "rho": [[[z.real, z.imag] for z in row] for row in rho.matrix],
    }
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def load_spin_state(path) -> SpinDensityMatrix:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in obj["rho"]], dtype=complex
    )
    return SpinDensityMatrix(int(obj["two_j"]), matrix)
