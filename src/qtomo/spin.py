"""Spin-j tomography: Stern-Gerlach statistics along random axes and the
sin^2(t/2) estimator kernel, in closed form and as a quadrature oracle.

Half-integer labels are stored doubled (``two_j``, ``two_m``) so parity and
range checks stay exact.  The J_z eigenbasis is ordered by ascending
magnetic number m = -j..+j throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics
from ._jsonio import (
    check_batch, check_rows, integer, line_regex, load_state, number, read_jsonl, save_state,
    write_jsonl,
)
from ._rng import record_uniforms

__all__ = [
    "SPIN_DTYPE",
    "SpinDensityMatrix",
    "spin_records",
    "check_two_m",
    "spin_matrices",
    "axis_operator",
    "axis_eigh",
    "spin_probabilities",
    "sample_spin",
    "kernel_spin_closed",
    "kernel_spin_closed_general",
    "kernel_spin_numeric",
    "exact_reconstruction",
    "SpinOperatorKernel",
    "write_spin_records",
    "read_spin_records",
    "save_spin_state",
    "load_spin_state",
    "maximally_mixed",
    "sphere_rule",
]

AXIS_NORM_TOL = 1e-12

# the largest two_j any path accepts: a harmonic table there takes one eigh
# call per node of sphere_rule(61), 2 * 61**2 = 7442 in all, 6.6 s and 73 MB
# RSS on a 2-core Xeon (23 s at two_j = 80)
MAX_TWO_J = 60

# one record: spin along ``axis`` gave magnetic number two_m / 2
SPIN_DTYPE = np.dtype([("axis", np.float64, (3,)), ("two_m", np.int64)])

_SAMPLE_CHUNK = 8192
# entries of one block of eigenbases or harmonic values, a few MB at any j
_BASIS_BLOCK = 2**19


def spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (J_x, J_y, J_z) for spin j = two_j / 2.

    Built from the standard ladder operators in the ascending-m basis, so
    J_z = diag(-j, ..., +j) and [J_x, J_y] = i J_z (and cyclic).  Every spin
    path calls it before its heavy work, so a two_j past MAX_TWO_J fails fast.
    """
    if not 1 <= two_j <= MAX_TWO_J:
        raise ValueError(f"two_j must be in 1..{MAX_TWO_J}, got {two_j}")
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
    # written so that a NaN norm fails too
    if not (abs(norm - 1.0) <= AXIS_NORM_TOL):
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
        object.__setattr__(self, "matrix", numerics.density_matrix(self.matrix, self.two_j + 1))

    @property
    def dim(self) -> int:
        return self.two_j + 1


def spin_records(axes, two_m) -> np.ndarray:
    """Record batch of ``SPIN_DTYPE`` from unit axes (N, 3) and integer two_m (N,).

    Checked once over the batch; a RecordError names the first bad row.
    """
    axes = np.asarray(axes, dtype=float)
    two_m = np.asarray(two_m)
    if axes.ndim != 2 or axes.shape[1] != 3 or two_m.shape != axes.shape[:1]:
        raise ValueError("axes must have shape (N, 3) and two_m shape (N,)")
    if two_m.dtype.kind not in "iu":
        raise ValueError(f"two_m must hold integers, got dtype {two_m.dtype}")
    norm = np.sqrt(np.einsum("ri,ri->r", axes, axes))
    # written so that a NaN norm fails too
    check_rows([(np.abs(norm - 1.0) <= AXIS_NORM_TOL, "axis must be unit length", norm)])
    batch = np.empty(two_m.size, dtype=SPIN_DTYPE)
    batch["axis"], batch["two_m"] = axes, two_m
    return batch


def _valid_two_m(two_j: int, two_m):
    """Where two_m / 2 is a magnetic number of spin two_j / 2: |two_m| <= two_j
    with the parity of two_j; elementwise over an array."""
    return (np.abs(two_m) <= two_j) & ((two_m - two_j) % 2 == 0)


def check_two_m(two_j: int, two_m) -> None:
    """ValueError unless the outcome label two_m, an integer, fits spin two_j /
    2; over a 1-d array of labels, naming the first that does not."""
    labels = np.asarray(two_m)
    if labels.ndim > 1 or labels.dtype.kind not in "iu":
        raise ValueError(f"two_m must be an integer or a 1-d array of integers, got {two_m!r}")
    labels = labels.reshape(-1)
    bad = ~_valid_two_m(two_j, labels)
    if bad.any():
        raise ValueError(f"two_m={labels[bad.argmax()].item()} invalid for two_j={two_j}")


def maximally_mixed(two_j: int) -> SpinDensityMatrix:
    dim = two_j + 1
    return SpinDensityMatrix(two_j, np.eye(dim, dtype=complex) / dim)


def axis_eigh(two_j: int, axes: np.ndarray):
    """Stacked eigendecomposition of J_n for axes of shape (r, 3), m ascending."""
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


def _diagonals(a_matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Diagonal a_m of A in each eigenbasis of a stack, shape (r, 2j+1)."""
    return np.einsum("rnk,rnk->rk", vectors.conj(), a_matrix @ vectors)


def _sigma_table(a_diag: np.ndarray) -> np.ndarray:
    """Kernel sigma(A)(n, lambda) for every lambda = -j..+j, one row per axis.

    (2j+1) (a_lambda - (a_{lambda+1} + a_{lambda-1}) / 2), a_m = 0 outside -j..+j.
    """
    padded = np.pad(a_diag, ((0, 0), (1, 1)))
    return a_diag.shape[1] * (a_diag - 0.5 * (padded[:, 2:] + padded[:, :-2]))


def _normalized(p: np.ndarray) -> np.ndarray:
    np.clip(p, 0.0, None, out=p)
    return p / p.sum(axis=1, keepdims=True)


def _probabilities_stack(rho: SpinDensityMatrix, vectors: np.ndarray) -> np.ndarray:
    return _normalized(_diagonals(rho.matrix, vectors).real)


# a few orders are in use at a time (two_j + 1 and the chart ladder's), and
# order 96 alone holds 0.6 MB
@functools.lru_cache(maxsize=8)
def sphere_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (r, 3) and weights of a rule for the normalized dOmega.

    Gauss-Legendre in cos(theta) at ``order`` nodes (see
    :func:`numerics._gauss_legendre`) times ``2 order`` equally spaced
    azimuths; the weights sum to 1, and the rule is exact for polynomials in
    the axis of degree <= 2 order - 1.  Both arrays are read-only and cached per order,
    so a repeat call returns the same ones.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nodes, weights = numerics._gauss_legendre(order)
    az = 2.0 * np.pi * np.arange(2 * order) / (2 * order)
    cos_t, az = (g.ravel() for g in np.meshgrid(nodes, az, indexing="ij"))
    sin_t = np.sqrt(np.clip(1.0 - cos_t**2, 0.0, None))
    axes = np.stack([sin_t * np.cos(az), sin_t * np.sin(az), cos_t], axis=1)
    w = np.repeat(weights, 2 * order) / (4.0 * order)
    axes.setflags(write=False)
    w.setflags(write=False)
    return axes, w


def _node_sum(two_j: int, term) -> np.ndarray:
    """The sum of ``term(axes, w, vectors)`` over blocks of the nodes of the
    sphere rule of order 2j + 1, with ``w`` their weights and ``vectors``
    their :func:`axis_eigh` eigenbases.  A block's eigenbases hold at most
    ``_BASIS_BLOCK`` entries, so memory stays bounded at any j; up to two_j =
    21 all nodes fit in one."""
    axes, w = sphere_rule(two_j + 1)
    step = max(1, _BASIS_BLOCK // (two_j + 1) ** 2)

    def block_sum(start):
        block = slice(start, start + step)
        return term(axes[block], w[block], axis_eigh(two_j, axes[block])[1])

    return functools.reduce(np.add, map(block_sum, range(0, len(w), step)))


def _harmonic_table(matrix: np.ndarray) -> np.ndarray:
    """Real coefficients of the diagonal a_m(n) of a Hermitian ``matrix`` in
    the J_n eigenbasis on the real spherical harmonics L <= 2j, one column
    per m, shape ((2j + 1)**2, 2j + 1).

    Each a_m(n) is a polynomial of degree <= 2j in the axis, so its
    harmonic series stops at L = 2j, and the rule of order 2j + 1, exact up
    to degree 4j, makes the projection a plain weighted sum of
    :func:`axis_eigh` values at its nodes, taken block by block by
    :func:`_node_sum`.
    """
    two_j = matrix.shape[0] - 1
    return _node_sum(
        two_j,
        lambda axes, w, vectors: numerics.real_spherical_harmonics(two_j, axes)
        @ (w[:, None] * _diagonals(matrix, vectors).real),
    )


def _table_values(table: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """a_m(n) for unit ``axes`` (r, 3) from a :func:`_harmonic_table`, (r, 2j + 1).

    The harmonics are summed one after another in a fixed order, never by a
    BLAS product, so a row is a pure function of its axis, whatever the
    batch around it.
    """
    two_j = table.shape[1] - 1
    out = np.zeros((two_j + 1, axes.shape[0]))
    rows = max(1, _BASIS_BLOCK // table.shape[0])
    for start in range(0, axes.shape[0], rows):
        basis = numerics.real_spherical_harmonics(two_j, axes[start : start + rows])
        acc = out[:, start : start + rows]
        term = np.empty_like(acc)
        for coeffs, harmonic in zip(table[:, :, None], basis):
            acc += np.multiply(coeffs, harmonic, out=term)
    # C order, so a row's reductions run as they would on that row alone
    return np.ascontiguousarray(out.T)


def spin_probabilities(rho: SpinDensityMatrix, axis) -> np.ndarray:
    """Outcome probabilities p_m, m ascending -j..+j, for measuring J_n.

    Phase freedom of the eigenvectors cancels in the quadratic form, so the
    result is independent of the eigensolver's phase choices.
    """
    axis = _check_axis(axis)
    _, vectors = axis_eigh(rho.two_j, axis[None, :])
    p = _probabilities_stack(rho, vectors)[0]
    if abs(p.sum() - 1.0) > 1e-10:
        raise RuntimeError("probabilities failed to normalize")
    return p


def sample_spin(rho: SpinDensityMatrix, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` records: axis uniform on the sphere, outcome from p_m.

    The state's p_m(n) come from one harmonic table built per call (see
    :func:`_harmonic_table`), with :func:`axis_eigh` at the rule's nodes as
    its only eigensolver calls; each record's p_m are then clipped at 0,
    normalized and drawn by inverse CDF.  Record i is a pure function of
    (seed, i); prefixes of longer runs and shard layouts reproduce
    identical streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    two_j = rho.two_j
    table = _harmonic_table(rho.matrix)
    axes = np.empty((count, 3))
    two_m = np.empty(count, dtype=np.int64)
    for start in range(0, count, _SAMPLE_CHUNK):
        n = min(start + _SAMPLE_CHUNK, count) - start
        u = record_uniforms(seed, start, n, 3)
        z = 2.0 * u[:, 0] - 1.0
        az = 2.0 * np.pi * u[:, 1]
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        chunk = axes[start : start + n]
        chunk[:] = np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)
        probs = _normalized(_table_values(table, chunk))
        cdf = np.cumsum(probs, axis=1)
        draws = u[:, 2] * cdf[:, -1]
        idx = np.minimum((cdf >= draws[:, None]).argmax(axis=1), two_j)
        two_m[start : start + n] = -two_j + 2 * idx
    return spin_records(axes, two_m)


def _axis_expectations(a_matrix: np.ndarray, two_j: int, axis) -> np.ndarray:
    """The diagonal a_m of A in the J_n eigenbasis, one row per axis, for a
    unit ``axis`` (3,) or a stack of them (k, 3), from one :func:`axis_eigh`."""
    axes = np.asarray(axis, dtype=float)
    if axes.ndim == 2:
        axes = np.array([_check_axis(n) for n in axes])
    else:
        axes = _check_axis(axes)[None, :]
    _, vectors = axis_eigh(two_j, axes)
    return _diagonals(a_matrix, vectors)


def kernel_spin_closed_general(a_matrix: np.ndarray, axis, two_lambda) -> complex | np.ndarray:
    """Closed-form estimator value for an arbitrary (possibly non-Hermitian)
    operator: one complex for an int ``two_lambda``, one per element for a
    1-d array of them, with a leading axis of k rows for a stack of k axes."""
    a_matrix = np.asarray(a_matrix, dtype=complex)
    two_j = a_matrix.shape[0] - 1
    check_two_m(two_j, two_lambda)
    sigma = _sigma_table(_axis_expectations(a_matrix, two_j, axis))
    values = sigma[:, (np.asarray(two_lambda) + two_j) // 2]
    if np.ndim(axis) == 1:
        values = values[0]
    return values if values.ndim else complex(values)


def kernel_spin_closed(a_matrix: np.ndarray, axis, two_lambda) -> float | np.ndarray:
    """Estimator value sigma(A)(n, lambda) in exact closed form.

    Writing a_m for the diagonal of A in the J_n eigenbasis (zero outside
    m = -j..+j), the kernel is (2j+1) (a_lambda - (a_{lambda+1} + a_{lambda-1}) / 2).
    Averaged over records it reproduces Tr[A rho].  Per axis it runs
    :func:`axis_eigh`, so it is the oracle of :class:`SpinOperatorKernel`'s
    harmonic table, and :func:`kernel_spin_numeric` is its quadrature oracle.
    An int ``two_lambda`` gives a float; a 1-d array of them gives one value
    per element, from one eigendecomposition.  A stack of k unit axes, shape
    (k, 3), gives a leading axis of k rows, from one :func:`axis_eigh` call.
    """
    a_matrix = numerics.require_hermitian(a_matrix)
    return kernel_spin_closed_general(a_matrix, axis, two_lambda).real


def kernel_spin_numeric(a_matrix: np.ndarray, axis, two_lambda) -> float | np.ndarray:
    """Estimator via direct quadrature of the oscillatory kernel integral.

    Integrates (2j+1)/pi * e^{i lambda t} Tr[A e^{-i t J_n}] sin^2(t/2) over
    a full period to the QUADRATURE_TOL of :func:`numerics.integrate_oscillatory`
    and checks that the imaginary residue is below 1e-9 before discarding it.
    An int ``two_lambda`` gives a float; a 1-d array of them gives one value
    per element, all from one array call of the integrator.  A stack of k
    unit axes, shape (k, 3), gives a leading axis of k rows, still from one
    call, whose integrand has one row per axis.
    """
    a_matrix = numerics.require_hermitian(a_matrix)
    two_j = a_matrix.shape[0] - 1
    check_two_m(two_j, two_lambda)
    a_diag = _axis_expectations(a_matrix, two_j, axis)
    if np.ndim(axis) == 1:
        a_diag = a_diag[0]
    m_values = -two_j / 2.0 + np.arange(two_j + 1)

    def g(t):
        trace = a_diag @ np.exp(-1j * np.outer(m_values, t))
        return (two_j + 1) / np.pi * trace * np.sin(t / 2.0) ** 2

    value = numerics.integrate_oscillatory(g, np.asarray(two_lambda) / 2.0, 2.0 * np.pi)
    residue = np.abs(np.imag(value))
    if np.any(residue > 1e-9):
        raise RuntimeError(f"kernel integral has imaginary residue {np.max(residue):.3e}")
    return value.real


def exact_reconstruction(rho: SpinDensityMatrix, a_matrix: np.ndarray) -> float:
    """Deterministic reconstruction of Tr[A rho] by sphere quadrature.

    Sums the closed-form kernel against the outcome probabilities on the
    sphere rule of order 2j + 1.  The integrand is a polynomial of degree
    <= 4j in the axis and the rule is exact up to degree 4j + 1, so the sum
    is exact to roundoff at every j.  The eigenbases are taken in the
    blocks of :func:`_node_sum`, so memory stays bounded at any j.
    """
    a_matrix = numerics.require_hermitian(a_matrix)
    two_j = rho.two_j
    if a_matrix.shape != (two_j + 1, two_j + 1):
        raise ValueError("operator dimension does not match the state")

    def term(axes, w, vectors):
        probs = _probabilities_stack(rho, vectors)
        sigma = _sigma_table(_diagonals(a_matrix, vectors).real)
        return np.sum(w * np.sum(probs * sigma, axis=1))

    return float(_node_sum(two_j, term))


class SpinOperatorKernel:
    """Batch estimator kernel for a fixed spin observable.

    Builds the observable's harmonic table once (see :func:`_harmonic_table`)
    and evaluates the closed-form kernel on a ``SPIN_DTYPE`` record batch
    from the table's a_m(n) through the one sigma stencil; pure per record,
    so shard layout never changes a value.
    """

    def __init__(self, a_matrix: np.ndarray):
        a_matrix = np.asarray(a_matrix, dtype=complex)
        if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
            raise ValueError("operator must be a square matrix")
        self.a_matrix = numerics.require_hermitian(a_matrix)
        self.two_j = a_matrix.shape[0] - 1
        self._table = _harmonic_table(self.a_matrix)

    def evaluate(self, records: np.ndarray) -> np.ndarray:
        check_batch(records, SPIN_DTYPE, "spin")
        two_j, two_m = self.two_j, records["two_m"]
        check_rows([(_valid_two_m(two_j, two_m), f"two_m invalid for two_j={two_j}", two_m)])
        idx = (two_m + two_j) // 2
        out = np.empty(len(records), dtype=complex)
        for start in range(0, len(records), _SAMPLE_CHUNK):
            stop = min(start + _SAMPLE_CHUNK, len(records))
            sigma = _sigma_table(_table_values(self._table, records["axis"][start:stop]))
            out[start:stop] = np.take_along_axis(sigma, idx[start:stop, None], axis=1)[:, 0]
        return out


# The one line shape the writer emits; the reader's fast path matches it.
_LINE = '{"axis": [%.17g, %.17g, %.17g], "two_m": %d}\n'


def write_spin_records(records: np.ndarray, path) -> None:
    """JSONL stream, one {"axis": [nx, ny, nz], "two_m": m} object per line."""
    axes = records["axis"]
    write_jsonl(path, _LINE, [axes[:, 0], axes[:, 1], axes[:, 2], records["two_m"]])


def _row_from_json(obj):
    two_m = integer(obj["two_m"], "two_m")
    # small enough to pass through a float exactly
    if abs(two_m) > 2**53:
        raise ValueError(f"two_m must be an integer of magnitude at most 2**53, got {two_m!r}")
    nx, ny, nz = obj["axis"]
    return number(nx, "axis[0]"), number(ny, "axis[1]"), number(nz, "axis[2]"), two_m


def _batch_from_rows(values: np.ndarray) -> np.ndarray:
    rows = values.reshape(-1, 4)
    return spin_records(rows[:, :3], rows[:, 3].astype(np.int64))


def read_spin_records(path, lines: list | None = None) -> np.ndarray:
    """Record batch of a JSONL stream; errors name ``path:line``, and a list
    ``lines`` receives the records' line numbers."""
    return read_jsonl(path, _row_from_json, _batch_from_rows, line_regex(_LINE), lines)


def save_spin_state(rho: SpinDensityMatrix, path) -> None:
    """JSON state file: {"two_j": N, "rho": [[[re, im], ...], ...]}."""
    save_state(path, "two_j", rho.two_j, rho.matrix)


def load_spin_state(path) -> SpinDensityMatrix:
    return SpinDensityMatrix(*load_state(path, "two_j"))
