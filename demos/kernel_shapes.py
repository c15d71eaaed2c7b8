"""Shapes of the estimator kernels, printed and exported as CSV.

The homodyne kernel K_{n,l}(y) is the phase-free factor of the estimator
for the matrix element (n+l, n); the spin kernel depends on the axis only
through its angle to the quantization axis.  The CSV files are written by
the ``qtomo kernel-export`` subcommand itself, so they hold the kernels
that ``qtomo reconstruct`` averages, ready for external plotting.
"""

import json
import math
from pathlib import Path

import numpy as np

from qtomo import cli, homodyne, numerics, spin

OUT_DIR = Path(__file__).resolve().parent / "out"
OUT_DIR.mkdir(exist_ok=True)


def export(name: str, target: dict, grid: dict) -> np.ndarray:
    """Rows (grid point, re, im) of ``qtomo kernel-export``, also left in OUT_DIR."""
    path = OUT_DIR / f"{name}.csv"
    config = OUT_DIR / f"{name}.json"
    config.write_text(json.dumps({"target": target, "grid": grid, "output_path": str(path)}))
    if cli.main(["kernel-export", "--config", str(config)]) != 0:
        raise SystemExit(f"kernel-export failed for {name}")
    print(f"wrote {path.name} ({grid['points']} points)")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- homodyne kernels on an outcome grid ----------------------------------
for n, l in ((0, 0), (1, 0), (0, 1)):
    target = {"type": "matrix-element", "n": n, "l": l}
    export(f"kernel_n{n}_l{l}", target, {"min": -4.0, "max": 4.0, "points": 81})

print("\nK_{0,0} samples (real part dominates the diagonal estimator):")
for y in (0.0, 0.5, 1.0, 2.0, 3.0):
    value = homodyne.kernel_matrix_element(0, 0, y)
    print(f"  y = {y:3.1f}: {value.real:+.5f} {value.imag:+.5f}i")

# cutoff insensitivity: the envelope t L(t^2/2), L the normalized Laguerre
# function, has died long before the cutoff; integrating it 6 further
# leaves K = (-i)^l times its integral unchanged
a = homodyne.kernel_matrix_element(2, 1, 1.3)
envelope = lambda t: t * numerics.laguerre_function(2, 1, t * t / 2.0)
b = -1j * numerics.integrate_oscillatory(envelope, 1.3, homodyne.default_kernel_cutoff(2, 1) + 6.0)
print(f"\ncutoff stability of K_(2,1)(1.3): gap {abs(a - b):.2e}")

# --- spin kernel versus polar angle ----------------------------------------
target = {"type": "spin-operator", "name": "Jz", "two_j": 1, "two_lambda": 1}
rows = export("kernel_spin_jz", target, {"min": 0.0, "max": math.pi, "points": 9})
_, _, jz = spin.spin_matrices(1)
print("\nsigma(Jz)(theta, m=+1/2) = 1.5 cos(theta), exported and in closed form:")
for theta, value, _ in rows:
    closed = spin.kernel_spin_closed(jz, (math.sin(theta), 0.0, math.cos(theta)), 1)
    print(f"  theta = {theta:5.3f}: {value:+.5f} (closed {closed:+.5f})")

# --- the photon-number estimator is a plain parabola ------------------------
print("\nphoton-number estimator y^2 - 1/2:")
records = homodyne.homodyne_records([0.0, 0.0, 0.0], [0.0, 1.0, 2.0])
for y, value in zip(records["y"], homodyne.estimator_photon_number(records)):
    print(f"  y = {y:3.1f}: {value:+.2f}")
