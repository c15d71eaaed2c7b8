"""Spin-1 tomography along random axes, deterministic and Monte Carlo.

The closed-form kernel makes the reconstruction formula exact: a sphere
quadrature over axes recovers Tr[A rho] to machine precision.  The same
kernel averaged over simulated Stern-Gerlach records converges to the same
number at the usual 1/sqrt(N) rate.
"""

import numpy as np

from qtomo import mc, spin

TWO_J = 2
SEED = 77

rng = np.random.default_rng(9)
amp = rng.normal(size=TWO_J + 1) + 1j * rng.normal(size=TWO_J + 1)
amp /= np.linalg.norm(amp)
rho = spin.SpinDensityMatrix(TWO_J, np.outer(amp, amp.conj()))
jx, jy, jz = spin.spin_matrices(TWO_J)

print(f"random pure spin-{TWO_J / 2:.0f} state")
for name, op in (("Jx", jx), ("Jy", jy), ("Jz", jz)):
    truth = float(np.trace(op @ rho.matrix).real)
    exact = spin.exact_reconstruction(rho, op)
    print(f"  <{name}>: exact reconstruction {exact:+.12f}   trace {truth:+.12f}")

# --- a look at the estimator kernel itself --------------------------------
print("\nkernel sigma(Jz)(axis, m) for a tilted axis, all outcomes:")
axis = np.array([0.6, 0.0, 0.8])
for two_m in range(-TWO_J, TWO_J + 1, 2):
    value = spin.kernel_spin_closed(jz, axis, two_m)
    print(f"  m = {two_m / 2:+.1f}: {value:+.4f}")

# --- Monte Carlo with growing record counts -------------------------------
records = spin.sample_spin(rho, 100_000, seed=SEED)
kernel = spin.SpinOperatorKernel(jz)
truth = float(np.trace(jz @ rho.matrix).real)
print(f"\nMonte Carlo <Jz> vs records (truth {truth:+.5f}):")
print(f"  {'count':>7} {'estimate':>10} {'stderr':>8} {'pull':>6}")
for count in (1_000, 10_000, 100_000):
    result = mc.reconstruct(records[:count], kernel)
    pull = (result["mean"].real - truth) / result["stderr_re"]
    print(
        f"  {count:7d} {result['mean'].real:+10.5f} "
        f"{result['stderr_re']:8.5f} {pull:+6.2f}"
    )

# --- the exact identity behind it: closed form == quadrature --------------
numeric = spin.kernel_spin_numeric(jz, axis, 2)
closed = spin.kernel_spin_closed(jz, axis, 2)
print(f"\nkernel cross-check at m = +1: quadrature {numeric:.12f}, closed {closed:.12f}")
