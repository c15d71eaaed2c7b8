"""Numerical tour of the group-theoretic identities behind the tomography.

Each block below checks one identity with a deterministic quadrature and
prints the measured error; everything should sit at roundoff level.
"""

import math

import numpy as np

from qtomo import groups

# ----------------------------------------------------------------------
# 1. Volume of SU(2) through the exponential chart.
#
# Integrating the constant 1 over the ball of radius 2 pi with the radial
# weight 4 sin^2(t/2) reproduces the full Haar volume 16 pi^2.
# ----------------------------------------------------------------------
volume = groups.haar_integral_su2(lambda g: 1.0).real
print("chart volume of SU(2):")
print(f"  quadrature {volume:.12f}")
print(f"  16 pi^2    {groups.SU2_HAAR_VOLUME:.12f}")
print(f"  rel error  {abs(volume - groups.SU2_HAAR_VOLUME) / groups.SU2_HAAR_VOLUME:.2e}")

# ----------------------------------------------------------------------
# 2. The Jacobian of the exponential map from eigenvalues.
#
# For the su(2) generator of rotation angle r the eigenvalues of the
# differential are {0, +ir, -ir}; the eigenvalue product formula must then
# reproduce the closed form 4 sin^2(r/2) / r^2 for every radius.
# ----------------------------------------------------------------------
radii = np.linspace(1e-3, 2.0 * math.pi - 1e-3, 7)
print("\nexponential-map Jacobian, eigenvalue product vs closed form:")
for r in radii:
    product = groups.jacobian_from_eigenvalues([0.0, 1j * r, -1j * r])
    closed = 4.0 * math.sin(r / 2.0) ** 2 / (r * r)
    print(f"  r = {r:6.3f}:  {product:.12f}  vs  {closed:.12f}  (gap {abs(product-closed):.1e})")

# ----------------------------------------------------------------------
# 3. Square-integrability: matrix coefficients and the formal degree.
#
# The Haar integral of |<u, U v>|^2 equals 1/d for unit vectors, with
# d = (2j+1) / 16 pi^2.  For j = 1/2 that is 8 pi^2.
# ----------------------------------------------------------------------
rng = np.random.default_rng(1)
u = rng.normal(size=2) + 1j * rng.normal(size=2)
v = rng.normal(size=2) + 1j * rng.normal(size=2)
u /= np.linalg.norm(u)
v /= np.linalg.norm(v)
# the integrand sees a stack of chart points g, shape (r, 2, 2)
coeff = groups.haar_integral_su2(lambda g: abs((g @ v) @ u.conj()) ** 2).real
print("\nsquared matrix coefficient for spin 1/2:")
print(f"  quadrature {coeff:.9f}   expected 8 pi^2 = {8.0 * math.pi ** 2:.9f}")

# ----------------------------------------------------------------------
# 4. The full orthogonality relation for random vector quadruples.
#
# Five quadruples at once: u1, u2, v1 and v2 are each a stack of shape
# (5, 2j+1), and one call returns the five residuals.
# ----------------------------------------------------------------------
print("\northogonality relation residuals (random quadruples):")
for two_j in (1, 2):
    dim = two_j + 1
    degree = groups.su2_formal_degree(two_j)
    vecs = rng.normal(size=(4, 5, dim)) + 1j * rng.normal(size=(4, 5, dim))
    u1, u2, v1, v2 = vecs / np.linalg.norm(vecs, axis=2, keepdims=True)
    residual = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
    rhs = np.abs(np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1) / degree)
    print(f"  two_j = {two_j}: worst relative residual {np.max(residual / (1.0 + rhs)):.2e}")
