"""Shapes of the estimator kernels, printed and exported as CSV.

The homodyne kernel K_{n,l}(y) is the phase-free factor of the estimator
for the matrix element (n+l, n); the spin kernel depends on the axis only
through its angle to the quantization axis.  The CSV files match what the
``qtomo kernel-export`` subcommand emits, ready for external plotting.
"""

import math
from pathlib import Path

import numpy as np

from qtomo import homodyne, spin
from qtomo._jsonio import format_float

OUT_DIR = Path(__file__).resolve().parent / "out"
OUT_DIR.mkdir(exist_ok=True)

# --- homodyne kernels on an outcome grid ----------------------------------
ys = np.linspace(-4.0, 4.0, 81)
for n, l in ((0, 0), (1, 0), (0, 1)):
    rows = ["grid_point,kernel_re,kernel_im"]
    values = homodyne.kernel_matrix_element(n, l, ys)
    for row in zip(ys, values.real, values.imag):
        rows.append(",".join(format_float(v) for v in row))
    path = OUT_DIR / f"kernel_n{n}_l{l}.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {path.name} ({len(ys)} points)")

print("\nK_{0,0} samples (real part dominates the diagonal estimator):")
for y in (0.0, 0.5, 1.0, 2.0, 3.0):
    value = homodyne.kernel_matrix_element(0, 0, y)
    print(f"  y = {y:3.1f}: {value.real:+.5f} {value.imag:+.5f}i")

# cutoff insensitivity: the Gaussian envelope has died long before the cutoff
a = homodyne.kernel_matrix_element(2, 1, 1.3, cutoff=12.0 + 2.0 * math.sqrt(3))
b = homodyne.kernel_matrix_element(2, 1, 1.3, cutoff=18.0)
print(f"\ncutoff stability of K_(2,1)(1.3): gap {abs(a - b):.2e}")

# --- spin kernel versus polar angle ----------------------------------------
_, _, jz = spin.spin_matrices(1)
rows = ["grid_point,kernel_re,kernel_im"]
print("\nsigma(Jz)(theta, m=+1/2) = 1.5 cos(theta):")
for theta in np.linspace(0.0, math.pi, 9):
    axis = (math.sin(theta), 0.0, math.cos(theta))
    value = spin.kernel_spin_closed(jz, axis, 1)
    rows.append(",".join(format_float(v) for v in (theta, value, 0.0)))
    print(f"  theta = {theta:5.3f}: {value:+.5f}")
path = OUT_DIR / "kernel_spin_jz.csv"
path.write_text("\n".join(rows) + "\n", encoding="utf-8")
print(f"wrote {path.name}")

# --- the photon-number estimator is a plain parabola ------------------------
print("\nphoton-number estimator y^2 - 1/2:")
records = homodyne.homodyne_records([0.0, 0.0, 0.0], [0.0, 1.0, 2.0])
for y, value in zip(records["y"], homodyne.estimator_photon_number(records)):
    print(f"  y = {y:3.1f}: {value:+.2f}")
