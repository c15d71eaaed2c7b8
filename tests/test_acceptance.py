"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import functools
import math
import time

import numpy as np
import pytest

from qtomo import groups, homodyne, mc, numerics, spin

SEED_HOMODYNE = 20240
SEED_SPIN = 31415
TRUE_RHO00 = math.exp(-1.0)


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def embedded_random_state(rng, n_max, support):
    raw = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[:support, :support] = raw @ raw.conj().T
    return homodyne.FockDensityMatrix(n_max, m / np.trace(m).real)


def random_spin_state(rng, two_j):
    dim = two_j + 1
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = raw @ raw.conj().T
    return spin.SpinDensityMatrix(two_j, m / np.trace(m).real)


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def test_criterion_1_haar_volume():
    start = time.perf_counter()
    volume = groups.haar_integral_su2(lambda g: 1.0).real
    elapsed = time.perf_counter() - start
    rel = abs(volume - groups.SU2_HAAR_VOLUME) / groups.SU2_HAAR_VOLUME
    report(
        1,
        "SU(2) chart volume",
        rel <= 1e-6 and elapsed < 5.0,
        f"{volume:.9f} vs 16 pi^2 = {groups.SU2_HAAR_VOLUME:.9f}, "
        f"rel err {rel:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_formal_degree_orthogonality():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for two_j, degree_num in ((1, 2.0), (2, 3.0)):
        degree = groups.su2_formal_degree(two_j)
        assert degree == pytest.approx(degree_num / (16.0 * math.pi**2), rel=1e-15)
        dim = two_j + 1
        for _ in range(20):
            vecs = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
            u1, u2, v1, v2 = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            residual = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
            rhs = abs((u1.conj() @ u2) * (v2.conj() @ v1) / degree)
            worst = max(worst, residual / (1.0 + rhs))
    elapsed = time.perf_counter() - start
    report(
        2,
        "formal-degree orthogonality",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst relative residual {worst:.2e} over 40 quadruples, {elapsed:.1f} s",
    )


def test_criterion_3_jacobian_identity():
    worst = 0.0
    for r in np.linspace(1e-3, 2.0 * math.pi - 1e-3, 100):
        product = groups.jacobian_from_eigenvalues([0.0, 1j * r, -1j * r])
        closed = 4.0 * math.sin(r / 2.0) ** 2 / (r * r)
        worst = max(worst, abs(product - closed))
    report(3, "exponential-map Jacobian identity", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_4_spin_kernel_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for two_j in (1, 2, 3):
        for _ in range(2):
            a_matrix = random_hermitian(rng, two_j + 1)
            for _ in range(5):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                for two_lambda in range(-two_j, two_j + 1, 2):
                    closed = spin.kernel_spin_closed(a_matrix, axis, two_lambda)
                    numeric = spin.kernel_spin_numeric(a_matrix, axis, two_lambda)
                    worst = max(worst, abs(closed - numeric))
    report(4, "closed vs quadrature spin kernel", worst <= 1e-9, f"max gap {worst:.2e}")


def test_criterion_5_exact_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for two_j in (1, 2, 3):
        for _ in range(10):
            rho = random_spin_state(rng, two_j)
            a_matrix = random_hermitian(rng, two_j + 1)
            truth = float(np.trace(a_matrix @ rho.matrix).real)
            value = spin.exact_reconstruction(rho, a_matrix)
            worst = max(worst, abs(value - truth))
    elapsed = time.perf_counter() - start
    report(
        5,
        "deterministic reconstruction formula",
        worst <= 1e-8 and elapsed < 10.0,
        f"max |reconstruction - trace| {worst:.2e} over 30 pairs, {elapsed:.1f} s",
    )


def test_criterion_6_homodyne_density_convention():
    rng = np.random.default_rng(17)
    rho = embedded_random_state(rng, 8, 7)
    worst_density = 0.0
    for _ in range(20):
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        op = homodyne.truncated_quorum_operator(64, phi)
        values, vectors = np.linalg.eigh(op)
        embedded = np.zeros((65, 65), dtype=complex)
        embedded[:9, :9] = rho.matrix
        weights = np.einsum("nk,nm,mk->k", vectors.conj(), embedded, vectors).real
        psi0 = np.pi**-0.25 * np.exp(-0.5 * values**2)
        oracle = weights * (psi0 / np.abs(vectors[0, :])) ** 2
        bulk = np.nonzero(np.abs(values) < 4.0)[0]
        k = int(rng.choice(bulk))
        got = homodyne.quadrature_density(rho, phi, float(values[k]))
        worst_density = max(worst_density, abs(got - oracle[k]))
    worst_norm = 0.0
    y_max = homodyne.default_y_max(8)
    for phi in rng.uniform(0.0, 2.0 * np.pi, size=10):
        total = numerics.integrate_real(
            lambda y: homodyne.quadrature_density_grid(rho, float(phi), y),
            -y_max,
            y_max,
        )
        worst_norm = max(worst_norm, abs(total - 1.0))
    report(
        6,
        "homodyne density convention lock",
        worst_density <= 1e-7 and worst_norm <= 1e-6,
        f"density gap {worst_density:.2e}, normalization gap {worst_norm:.2e}",
    )


def test_criterion_7_homodyne_monte_carlo():
    start = time.perf_counter()
    rho = homodyne.coherent_state(1.0, 24)
    records = homodyne.sample_homodyne(rho, 200_000, seed=SEED_HOMODYNE)
    element = mc.reconstruct(records, homodyne.MatrixElementKernel(0, 0))
    photon = mc.reconstruct(records, homodyne.PhotonNumberKernel())
    elapsed = time.perf_counter() - start
    gap_el = abs(element["mean"].real - TRUE_RHO00)
    gap_ph = abs(photon["mean"].real - 1.0)
    ok = (
        gap_el <= 4.0 * element["stderr_re"]
        and gap_ph <= 4.0 * photon["stderr_re"]
        and elapsed < 60.0
    )
    report(
        7,
        "homodyne Monte Carlo reconstruction",
        ok,
        f"rho00 {element['mean'].real:.5f}+-{element['stderr_re']:.5f} vs {TRUE_RHO00:.5f} "
        f"({gap_el / element['stderr_re']:.2f} sigma), photon "
        f"{photon['mean'].real:.4f}+-{photon['stderr_re']:.4f} vs 1.0 "
        f"({gap_ph / photon['stderr_re']:.2f} sigma), {elapsed:.1f} s",
    )


def test_criterion_8_spin_monte_carlo_and_error_scaling():
    rng = np.random.default_rng(19)
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    amp /= np.linalg.norm(amp)
    rho = spin.SpinDensityMatrix(2, np.outer(amp, amp.conj()))
    _, _, jz = spin.spin_matrices(2)
    truth = float(np.trace(jz @ rho.matrix).real)
    records = spin.sample_spin(rho, 100_000, seed=SEED_SPIN)
    kernel = spin.SpinOperatorKernel(jz)
    full = mc.reconstruct(records, kernel)
    gap = abs(full["mean"].real - truth)
    counts = [1_000, 3_162, 10_000, 31_623, 100_000]
    stderrs = [
        mc.reconstruct(records[:c], kernel)["stderr_re"] for c in counts
    ]
    slope = float(np.polyfit(np.log10(counts), np.log10(stderrs), 1)[0])
    ok = gap <= 4.0 * full["stderr_re"] and abs(slope + 0.5) <= 0.05
    report(
        8,
        "spin Monte Carlo reconstruction",
        ok,
        f"<Jz> {full['mean'].real:.5f}+-{full['stderr_re']:.5f} vs {truth:.5f} "
        f"({gap / full['stderr_re']:.2f} sigma), stderr slope {slope:.3f}",
    )


def test_criterion_9_determinism(tmp_path):
    rho_h = homodyne.coherent_state(1.0, 16)
    rho_s = spin.maximally_mixed(2)
    rec_h = homodyne.sample_homodyne(rho_h, 10_000, seed=5)
    rec_s = spin.sample_spin(rho_s, 10_000, seed=5)
    for name, records, writer in (
        ("h", rec_h, homodyne.write_homodyne_records),
        ("s", rec_s, spin.write_spin_records),
    ):
        writer(records, tmp_path / f"{name}1.jsonl")
        writer(records[:], tmp_path / f"{name}2.jsonl")
        assert (tmp_path / f"{name}1.jsonl").read_bytes() == (
            tmp_path / f"{name}2.jsonl"
        ).read_bytes()
    rec_h2 = homodyne.sample_homodyne(rho_h, 10_000, seed=5)
    rec_s2 = spin.sample_spin(rho_s, 10_000, seed=5)
    files_ok = np.array_equal(rec_h2, rec_h) and np.array_equal(rec_s2, rec_s)
    _, _, jz = spin.spin_matrices(2)
    worst = 0.0
    for records, kernel in (
        (rec_h, homodyne.MatrixElementKernel(0, 0)),
        (rec_s, spin.SpinOperatorKernel(jz)),
    ):
        ref = mc.reconstruct(records, kernel)
        for shards in (2, 4, 8):
            # the kernel sees each contiguous part alone, and the parts fold
            parts = (kernel.evaluate(part) for part in np.array_split(records, shards))
            out = mc.finalize(functools.reduce(mc.merge, map(mc.moments, parts)))
            worst = max(
                worst,
                abs(out["mean"] - ref["mean"]) / max(abs(ref["mean"]), 1e-30),
            )
    report(
        9,
        "worker-layout determinism",
        files_ok and worst <= 1e-12,
        f"record streams identical: {files_ok}, worst shard deviation {worst:.2e}",
    )


def test_criterion_10_coverage_calibration():
    theta, azimuth = 1.1, 0.7
    amp = np.array(
        [math.sin(theta / 2.0), math.cos(theta / 2.0) * np.exp(1j * azimuth)],
        dtype=complex,
    )
    rho = spin.SpinDensityMatrix(1, np.outer(amp, amp.conj()))
    _, _, jz = spin.spin_matrices(1)
    truth = float(np.trace(jz @ rho.matrix).real)
    kernel = spin.SpinOperatorKernel(jz)
    hits = 0
    for seed in range(200):
        result = mc.reconstruct(spin.sample_spin(rho, 10_000, seed=seed), kernel)
        if abs(result["mean"].real - truth) <= 3.0 * result["stderr_re"]:
            hits += 1
    report(
        10,
        "3-sigma coverage calibration",
        hits >= 192,
        f"{hits}/200 seeded runs covered the truth",
    )
