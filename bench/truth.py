"""States, truths and output checks for the benchmark, computed apart from qtomo.

Nothing here imports the package under test: states are written in its file
format from closed forms, expectation values come from those closed forms or
from spin matrices built here, and every check returns a list of problems
(empty when the output is correct) so one run can report all of them.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIGMA_LIMIT = 5.0
AGREEMENT_RTOL = 1e-12
AXIS_NORM_TOL = 1e-12
HAAR_VOLUME = 16.0 * math.pi**2
HAAR_VOLUME_RTOL = 1e-6


def coherent_populations(alpha: float, n_max: int) -> np.ndarray:
    """Poisson weights e^{-|a|^2} |a|^{2n} / n!, renormalized over n <= n_max."""
    mean = alpha * alpha
    p = np.array([math.exp(-mean) * mean**n / math.factorial(n) for n in range(n_max + 1)])
    return p / p.sum()


def coherent_state(alpha: float, n_max: int) -> np.ndarray:
    """|alpha><alpha| for real alpha >= 0, truncated to n_max with unit trace."""
    amps = np.sqrt(coherent_populations(alpha, n_max))
    return np.outer(amps, amps).astype(complex)


def fock_state(level: int, n_max: int) -> np.ndarray:
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho[level, level] = 1.0
    return rho


def random_pure_spin_state(seed: int, dim: int = 3) -> np.ndarray:
    """Pure state drawn as in acceptance criterion 8 (complex normal amplitudes)."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp.conj())


def spin1_matrices() -> dict[str, np.ndarray]:
    """J_x and J_z for j = 1 in the ascending basis m = -1, 0, +1."""
    s = 1.0 / math.sqrt(2.0)
    jx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    jz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    return {"Jx": jx, "Jz": jz}


def state_document(key: str, value: int, rho: np.ndarray) -> str:
    """A qtomo state file: {key: value, "rho": [[[re, im], ...], ...]}."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return json.dumps({key: value, "rho": rows}) + "\n"


def check_estimate(result: dict, observable: str, truth: float, record_count: int) -> list[str]:
    """Mean within 5 reported standard errors of the truth, imaginary part within
    5 sigma of zero, and the count equal to the records file's line count."""
    problems = []
    if result.get("observable") != observable:
        problems.append(f"observable {result.get('observable')!r} != {observable!r}")
    if result.get("count") != record_count:
        problems.append(f"{observable}: count {result.get('count')} != {record_count} record lines")
    (mean_re, mean_im), (err_re, err_im) = result["mean"], result["stderr"]
    if not abs(mean_re - truth) <= SIGMA_LIMIT * err_re:
        problems.append(f"{observable}: mean {mean_re!r} is more than 5 sigma ({err_re!r}) "
                        f"from the truth {truth!r}")
    if not abs(mean_im) <= SIGMA_LIMIT * err_im:
        problems.append(f"{observable}: imaginary part {mean_im!r} is beyond 5 sigma ({err_im!r})")
    return problems


def check_agreement(a: dict, b: dict) -> list[str]:
    """Two results of the same records (different QTOMO_WORKERS) agree to 1e-12 relative."""
    problems = []
    for key in ("mean", "stderr"):
        za, zb = complex(*a[key]), complex(*b[key])
        if abs(za - zb) > AGREEMENT_RTOL * max(abs(za), abs(zb)):
            problems.append(f"{a['observable']}: {key} {a[key]} and {b[key]} differ beyond 1e-12")
    if a["count"] != b["count"]:
        problems.append(f"{a['observable']}: count {a['count']} != {b['count']}")
    return problems


def check_homodyne_records(lines: list[bytes]) -> list[str]:
    problems = []
    for number, line in enumerate(lines, 1):
        obj = json.loads(line)
        phi, y = obj["phi"], obj["y"]
        if not 0.0 <= phi < 2.0 * math.pi:
            problems.append(f"record line {number}: phi {phi!r} outside [0, 2 pi)")
        if not math.isfinite(y):
            problems.append(f"record line {number}: outcome {y!r} is not finite")
        if len(problems) >= 5:
            break
    return problems


def check_spin_records(lines: list[bytes], two_j: int) -> list[str]:
    problems = []
    for number, line in enumerate(lines, 1):
        obj = json.loads(line)
        norm = math.sqrt(sum(c * c for c in obj["axis"]))
        if abs(norm - 1.0) > AXIS_NORM_TOL:
            problems.append(f"record line {number}: axis norm {norm!r} is not 1")
        two_m = obj["two_m"]
        if not isinstance(two_m, int) or abs(two_m) > two_j or (two_m - two_j) % 2:
            problems.append(f"record line {number}: two_m {two_m!r} invalid for two_j {two_j}")
        if len(problems) >= 5:
            break
    return problems


def check_validation(report: dict, exit_code: int, stdout: str) -> list[str]:
    """Exit 0, every check passing (in the report and on stdout), and the Haar
    volume against 16 pi^2 computed here."""
    problems = []
    if exit_code != 0:
        problems.append(f"validate exited {exit_code}")
    checks = report.get("checks", [])
    if not checks or not report.get("passed"):
        problems.append("validation report does not pass")
    problems += [f"check {c['name']} fails" for c in checks if c.get("pass") is not True]
    lines = stdout.splitlines()
    if len(lines) != len(checks) or not all(line.endswith(" PASS") for line in lines):
        problems.append("validate stdout does not show one PASS line per check")
    volume = [c["value"] for c in checks if c["name"] == "haar_volume"]
    if len(volume) != 1 or not abs(volume[0] - HAAR_VOLUME) <= HAAR_VOLUME_RTOL * HAAR_VOLUME:
        problems.append(f"haar_volume {volume} differs from 16 pi^2 = {HAAR_VOLUME!r}")
    return problems
