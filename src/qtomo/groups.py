"""The SU(2) exponential chart and the oracles built on it.

A deterministic Haar-integration oracle over the chart of radius 2 pi, with
the radial weight 4 sin^2(t/2), verifies the group-theoretic identities
numerically: the Haar volume 16 pi^2 and the orthogonality relations of the
spin-j representation, whose formal degree is :func:`su2_formal_degree`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .numerics import QuadratureError, panel_rule
from .spin import _row_diagonals, sphere_rule

__all__ = [
    "su2_formal_degree",
    "jacobian_from_eigenvalues",
    "su2_exponential",
    "haar_integral_su2",
    "orthogonality_residual",
    "SU2_HAAR_VOLUME",
]

SU2_HAAR_VOLUME = 16.0 * math.pi**2
# the chart ladder's tolerance, absolute for Haar and relative for orthogonality
CHART_TOL = 1e-8

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def su2_formal_degree(two_j: int) -> float:
    """Formal degree (2j+1) / 16 pi^2 of the spin-j representation under the
    Haar measure of volume 16 pi^2."""
    if two_j < 1:
        raise ValueError("two_j must be >= 1")
    return (two_j + 1) / SU2_HAAR_VOLUME


def jacobian_from_eigenvalues(eigs) -> float:
    """Determinant of the exponential differential from its eigenvalues.

    Computes the product of (1 - e^{-lam}) / lam over all eigenvalues, with
    the factor for lam = 0 set to 1.  The list must be closed under
    conjugation, which forces the product to be real; an imaginary residue
    above 1e-10 is rejected.
    """
    product = complex(1.0)
    for lam in eigs:
        lam = complex(lam)
        if abs(lam) < 1e-14:
            continue
        product *= (1.0 - np.exp(-lam)) / lam
    if abs(product.imag) > 1e-10:
        raise ValueError(
            f"eigenvalue list is not conjugate-closed: imaginary residue {product.imag:.3e}"
        )
    return float(product.real)


def su2_exponential(t: float, axis) -> np.ndarray:
    """Chart point exp(t n) in the defining representation.

    With the algebra basis (i sigma_k / 2) this is
    cos(t/2) I + i sin(t/2) (n . sigma).
    """
    axis = np.asarray(axis, dtype=float)
    n_sigma = axis[0] * _SIGMA[0] + axis[1] * _SIGMA[1] + axis[2] * _SIGMA[2]
    return math.cos(t / 2.0) * np.eye(2, dtype=complex) + 1j * math.sin(t / 2.0) * n_sigma


# entries per block of chart points, so a block holds 64 KiB of complex
# values, or one sphere node when a node holds more
_CHART_BLOCK = 2**12


def _chart_ladder(level, relative: bool, what: str | None = None) -> np.ndarray:
    """Chart integrals ``level(sphere_order, t, t_w)`` on each level's rule,
    ``sphere_rule(sphere_order)`` x ``panel_rule`` on [0, 2 pi], weights times
    4 sin^2(t/2), until two levels agree within CHART_TOL (times 1 + |value|
    if ``relative``) in every component; else QuadratureError with the last
    two estimates of the first that did not, named ``what k`` if given."""
    tol = CHART_TOL
    prev = cur = None
    for sphere_order, radial_panels in ((16, 2), (24, 4), (48, 8), (96, 16)):
        t, t_w = panel_rule(0.0, 2.0 * math.pi, radial_panels)
        t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
        prev, cur = cur, np.atleast_1d(level(sphere_order, t, t_w))
        if prev is not None:
            bound = tol * (1.0 + np.abs(cur)) if relative else tol
            # written so that a NaN fails too
            failed = np.flatnonzero(~(np.abs(cur - prev) <= bound))
            if not failed.size:
                return cur
    k = failed[0]
    estimates = (complex(prev[k]), complex(cur[k]))
    message = f"quadrature did not converge to {tol:.1e}: last estimates {estimates}"
    raise QuadratureError(estimates, tol, f"{what} {k}: {message}" if what else None)


def _haar_level(f: Callable[[np.ndarray], np.ndarray], sphere_order, t, t_w) -> complex:
    """f at the chart points cos(t/2) I + i sin(t/2) (n . sigma), summed over
    the radial rule at each sphere node n and then over the nodes; the points
    are formed in place, one block of nodes at a time, node-major."""
    axes, sphere_w = sphere_rule(sphere_order)
    identity_part = np.cos(t / 2.0)[:, None, None] * np.eye(2)
    sigma_part = 1j * np.sin(t / 2.0)[:, None, None]
    rows = max(1, _CHART_BLOCK // (4 * t.size))
    points = np.empty((min(rows, len(axes)), t.size, 2, 2), dtype=complex)
    radial = np.empty(len(axes), dtype=complex)
    for lo in range(0, len(axes), rows):
        n_sigma = np.tensordot(axes[lo : lo + rows], _SIGMA, axes=1)
        stack = np.multiply(sigma_part, n_sigma[:, None], out=points[: len(n_sigma)])
        stack += identity_part
        stack = stack.reshape(-1, 2, 2)
        values = np.asarray(f(stack), dtype=complex)
        if values.shape == ():
            values = np.broadcast_to(values, (len(stack),))
        elif values.shape != (len(stack),):
            raise ValueError(
                f"integrand returned shape {values.shape} for a stack of {len(stack)} "
                "matrices; it must return one value per matrix or a scalar"
            )
        radial[lo : lo + len(n_sigma)] = values.reshape(len(n_sigma), -1) @ t_w
    # accumulated one node at a time in node order, as the pointwise rule sums
    return 4.0 * math.pi * complex(np.cumsum(sphere_w * radial)[-1])


def haar_integral_su2(f: Callable[[np.ndarray], np.ndarray]) -> complex:
    """Haar integral over SU(2), normalized so the total volume is 16 pi^2.

    Integrates through the exponential chart of radius 2 pi with the radial
    weight 4 sin^2(t/2), climbing the chart ladder of product rules until two
    levels agree within CHART_TOL.

    ``f`` is called on stacks of chart points, shape (r, 2, 2), and returns
    r values, or one scalar that holds at every point; any other shape
    raises ValueError.
    """
    return complex(_chart_ladder(partial(_haar_level, f), relative=False)[0])


def _ortho_level(two_j: int, quads, sphere_order, t, t_w) -> np.ndarray:
    m_values = -two_j / 2.0 + np.arange(two_j + 1)
    phases = np.exp(1j * np.outer(m_values, t))  # (m, t)
    # u^H U v = sum_m conj(W^H u)_m e^{i t m} (W^H v)_m at each chart point, so
    # the radial sum of the product for (u1, v1) and the conjugate for (u2, v2)
    # is c1 R c2 at each (quadruple, node) row, R[m, m'] = sum_t w_t e^{i t (m - m')}
    radial_matrix = (phases * t_w) @ phases.conj().T
    u1, u2, v1, v2 = quads
    # c1 = conj(W^H u1)_m (W^H v1)_m and c2 = (W^H u2)_m conj(W^H v2)_m for the
    # eigenbasis W of each node: the diagonals of |v1><u1| and |u2><v2|
    operators = np.concatenate(
        [v1[:, :, None] * u1.conj()[:, None], u2[:, :, None] * v2.conj()[:, None]]
    )
    total = 0.0
    for sphere_w, diag in _row_diagonals(two_j, sphere_order, operators):
        c1, c2 = diag[: len(u1)], diag[len(u1) :]
        total += ((c1 @ radial_matrix) * c2).sum(axis=2) @ sphere_w
    return 4.0 * math.pi * total


def orthogonality_residual(two_j: int, u1, u2, v1, v2) -> float | np.ndarray:
    """Distance between the Haar integral of matrix coefficients and its
    closed form (1/d) <u1, u2> <v2, v1> with d the formal degree.

    Each vector has shape (2j+1,), giving one float, or all four are stacks
    of k quadruples, shape (k, 2j+1), giving k residuals.  The left side
    climbs the chart ladder of :func:`haar_integral_su2` until two levels
    agree to CHART_TOL relative for every quadruple, as they do at two_j = 16, 20,
    30, 40 and 41; otherwise QuadratureError names the first that did not.
    Each level takes the diagonals of |v1><u1| and |u2><v2| one theta row at a
    time from :func:`qtomo.spin._row_diagonals`, so memory stays bounded at any j.
    """
    dim = two_j + 1
    vecs = [np.asarray(v, dtype=complex) for v in (u1, u2, v1, v2)]
    for vec in vecs:
        if vec.ndim not in (1, 2) or vec.shape[-1] != dim:
            raise ValueError(f"vectors must have dimension {dim}")
        if vec.shape != vecs[0].shape:
            raise ValueError("u1, u2, v1 and v2 must stack the same number of vectors")
    quads = u1, u2, v1, v2 = [np.atleast_2d(vec) for vec in vecs]
    lhs = _chart_ladder(partial(_ortho_level, two_j, quads), relative=True, what="quadruple")
    degree = su2_formal_degree(two_j)
    rhs = np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1) / degree
    residual = np.abs(lhs - rhs)
    return float(residual[0]) if vecs[0].ndim == 1 else residual
