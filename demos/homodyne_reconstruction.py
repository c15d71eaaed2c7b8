"""End-to-end homodyne tomography of a coherent state.

Synthesizes quadrature records from a known coherent state, then recovers
density-matrix elements and the photon number by averaging the analytic
estimator kernels over the record stream.  Every estimate comes with a
standard error, and the known state provides the exact reference values.
"""

import math

import numpy as np

from qtomo import homodyne, mc

ALPHA = 1.0
N_MAX = 24
COUNT = 50_000
SEED = 202

rho = homodyne.coherent_state(ALPHA, N_MAX)
print(f"state: coherent, alpha = {ALPHA}, Fock cutoff {N_MAX}")
print(f"true rho_00 = {rho.matrix[0, 0].real:.6f}, true <n> = {abs(ALPHA) ** 2:.3f}")

# --- the quadrature distribution at a few phases -------------------------
print("\nquadrature density omega(phi, y) at y = 0:")
for phi in (0.0, math.pi / 4, math.pi / 2):
    print(f"  phi = {phi:5.3f}: {homodyne.quadrature_density(rho, phi, 0.0):.6f}")

# --- synthesize one record stream ----------------------------------------
records = homodyne.sample_homodyne(rho, COUNT, SEED)
ys = records["y"]
print(f"\nsampled {COUNT} records (seed {SEED})")
print(f"  mean y  = {ys.mean():+.4f} (phase-averaged drift -> 0)")
print(f"  var y   = {ys.var():.4f}   (|alpha|^2 + 1/2 = {abs(ALPHA) ** 2 + 0.5:.3f})")

# --- reconstruct a block of density-matrix elements ----------------------
# The same record stream serves every observable; no resampling is needed.
print("\nreconstructed matrix elements (row, col): estimate vs truth")
for row, col in ((0, 0), (1, 1), (2, 2), (1, 0), (2, 0)):
    n, l = col, row - col
    result = mc.reconstruct(records, homodyne.MatrixElementKernel(n, l))
    truth = rho.matrix[row, col]
    mean = result["mean"]
    sigma = max(result["stderr_re"], result["stderr_im"])
    print(
        f"  ({row},{col}): {mean.real:+.4f}{mean.imag:+.4f}i "
        f"+- {sigma:.4f}   truth {truth.real:+.4f}{truth.imag:+.4f}i"
    )

# --- photon number from the quadratic estimator --------------------------
photon = mc.reconstruct(records, homodyne.PhotonNumberKernel())
print(
    f"\nphoton number: {photon['mean'].real:.4f} +- {photon['stderr_re']:.4f} "
    f"(truth {abs(ALPHA) ** 2:.3f})"
)

# --- laboratory convention ------------------------------------------------
# Records store the outcome of Y_phi; the measured lab quadrature is
# X_phi = Y_phi / sqrt(2), whose lines the record reader also accepts.
x_density = homodyne.quadrature_density_x(rho, 0.0, ALPHA / math.sqrt(2.0))
print(f"\nX-convention density at the coherent peak: {x_density:.4f}")
