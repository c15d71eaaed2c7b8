"""Exponential-chart machinery shared by the two quorum constructions.

The Weyl-Heisenberg and SU(2) cases are the only groups represented; each
carries its chart data (sphere dimension, radial weight, formal degree)
explicitly, and a deterministic Haar-integration oracle over the SU(2)
chart is provided to verify the group-theoretic identities numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import QuadratureError, panel_rule, sphere_rule
from .spin import axis_eigh

__all__ = [
    "QuorumSpec",
    "jacobian_from_eigenvalues",
    "radial_weight",
    "su2_exponential",
    "haar_integral_su2",
    "orthogonality_residual",
    "SU2_HAAR_VOLUME",
]

SU2_HAAR_VOLUME = 16.0 * math.pi**2

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class QuorumSpec:
    """Chart data of one quorum: sphere dimension, measure and formal degree."""

    group: str
    sphere_dim: int
    formal_degree: float
    sphere_volume: float
    radial_cutoff: float
    two_j: int | None = None

    @classmethod
    def weyl_heisenberg(cls) -> "QuorumSpec":
        return cls(
            group="weyl-heisenberg",
            sphere_dim=1,
            formal_degree=1.0 / (2.0 * math.pi),
            sphere_volume=2.0 * math.pi,
            radial_cutoff=math.inf,
        )

    @classmethod
    def su2(cls, two_j: int) -> "QuorumSpec":
        if two_j < 1:
            raise ValueError("two_j must be >= 1")
        return cls(
            group="su2",
            sphere_dim=2,
            formal_degree=(two_j + 1) / SU2_HAAR_VOLUME,
            sphere_volume=4.0 * math.pi,
            radial_cutoff=2.0 * math.pi,
            two_j=two_j,
        )


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


def radial_weight(spec: QuorumSpec, t: float) -> float:
    """Radial density |det d(exp)_{tn}| t^m, zero outside the chart domain."""
    if t <= 0:
        raise ValueError("t must be positive")
    if spec.group == "weyl-heisenberg":
        return float(t)
    if spec.group == "su2":
        if t >= spec.radial_cutoff:
            return 0.0
        return float(4.0 * math.sin(t / 2.0) ** 2)
    raise ValueError(f"unknown group {spec.group!r}")


def su2_exponential(t: float, axis) -> np.ndarray:
    """Chart point exp(t n) in the defining representation.

    With the algebra basis (i sigma_k / 2) this is
    cos(t/2) I + i sin(t/2) (n . sigma).
    """
    axis = np.asarray(axis, dtype=float)
    n_sigma = axis[0] * _SIGMA[0] + axis[1] * _SIGMA[1] + axis[2] * _SIGMA[2]
    return math.cos(t / 2.0) * np.eye(2, dtype=complex) + 1j * math.sin(t / 2.0) * n_sigma


def _haar_level(f: Callable[[np.ndarray], complex], sphere_order: int, radial_panels: int) -> complex:
    axes, sphere_w = sphere_rule(sphere_order)
    t, t_w = panel_rule(0.0, 2.0 * math.pi, radial_panels)
    t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
    cos_half = np.cos(t / 2.0)[:, None, None]
    i_sin_half = 1j * np.sin(t / 2.0)[:, None, None]
    eye = np.eye(2, dtype=complex)
    total = 0.0 + 0.0j
    # one sphere node at a time: its radial stack of chart points, then f on each
    for n_sigma, w_n in zip(np.tensordot(axes, _SIGMA, axes=1), sphere_w):
        stack = cos_half * eye + i_sin_half * n_sigma
        values = np.array([complex(f(g)) for g in stack])
        total += w_n * (t_w @ values)
    return 4.0 * math.pi * total


def haar_integral_su2(f: Callable[[np.ndarray], complex], tol: float = 1e-6) -> complex:
    """Haar integral over SU(2), normalized so the total volume is 16 pi^2.

    Integrates through the exponential chart of radius 2 pi with the radial
    weight 4 sin^2(t/2), refining the product grid (radial panels, polar
    order, azimuth count) until two levels agree within ``tol``.
    """
    prev = None
    for sphere_order, radial_panels in ((16, 2), (24, 4), (48, 8), (96, 16)):
        cur = _haar_level(f, sphere_order, radial_panels)
        if prev is not None and abs(cur - prev) <= tol:
            return complex(cur)
        prev = cur
    raise QuadratureError((prev, cur), tol)


def _ortho_level(
    two_j: int,
    u1: np.ndarray,
    u2: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    sphere_order: int,
    radial_panels: int,
) -> complex:
    axes, sphere_w = sphere_rule(sphere_order)
    t, t_w = panel_rule(0.0, 2.0 * math.pi, radial_panels)
    t_w = t_w * 4.0 * np.sin(t / 2.0) ** 2
    m_values = -two_j / 2.0 + np.arange(two_j + 1)
    phases = np.exp(1j * np.outer(t, m_values))  # (t, m)
    _, vectors = axis_eigh(two_j, axes)
    # u^H U v = sum_m conj(W^H u)_m e^{i t m} (W^H v)_m per sphere node
    cu1 = np.einsum("rnm,n->rm", vectors, u1.conj())
    cu2 = np.einsum("rnm,n->rm", vectors, u2.conj())
    wv1 = np.einsum("rnm,n->rm", vectors.conj(), v1)
    wv2 = np.einsum("rnm,n->rm", vectors.conj(), v2)
    c1 = cu1 * wv1
    c2 = cu2 * wv2
    m1 = phases @ c1.T  # (t, r): u1^H U v1 at each radial node and axis
    m2 = phases @ c2.T
    radial = t_w @ (m1 * m2.conj())
    return 4.0 * math.pi * complex(sphere_w @ radial)


def orthogonality_residual(two_j: int, u1, u2, v1, v2) -> float:
    """Distance between the Haar integral of matrix coefficients and its
    closed form (1/d) <u1, u2> <v2, v1> with d the formal degree.

    The left side is evaluated by chart quadrature on two refinement levels,
    which must agree to 1e-8 relative or the quadrature is reported as
    non-convergent.
    """
    dim = two_j + 1
    u1, u2, v1, v2 = (np.asarray(v, dtype=complex) for v in (u1, u2, v1, v2))
    for vec in (u1, u2, v1, v2):
        if vec.shape != (dim,):
            raise ValueError(f"vectors must have dimension {dim}")
    lhs_coarse = _ortho_level(two_j, u1, u2, v1, v2, 16, 4)
    lhs = _ortho_level(two_j, u1, u2, v1, v2, 24, 8)
    if abs(lhs - lhs_coarse) > 1e-8 * (1.0 + abs(lhs)):
        raise QuadratureError((lhs_coarse, lhs), 1e-8)
    degree = QuorumSpec.su2(two_j).formal_degree
    rhs = (u1.conj() @ u2) * (v2.conj() @ v1) / degree
    return float(abs(lhs - rhs))
