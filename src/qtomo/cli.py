"""Command-line surface: simulation, reconstruction, kernel export and the
oracle validation gate, all driven by a single JSON config document.

Each mode takes ``--config`` and only the flags it reads, each of which
overrides one seed, count or path field, so an archived config file
reproduces a run exactly.  Exit codes: 0 success, 1 validation failure,
2 config, file, record data or quadrature error (with a machine-readable
object on stderr).

Each mode imports only the modules it runs, and only once its argv parses,
so ``--help`` and a usage error exit before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

__all__ = ["main", "run_validation_suite"]

# flag -> (the config field it overrides, its type)
_FLAGS = {
    "seed": ("seed", int),
    "count": ("count", int),
    "state": ("state_path", str),
    "records": ("records_path", str),
    "output": ("output_path", str),
}


class ConfigError(ValueError):
    pass


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")
    return 2


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {exc.filename}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _merged_config(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    mode = cfg.get("mode")
    if mode is not None and mode != args.mode:
        raise ConfigError(f"config mode {mode!r} does not match subcommand {args.mode!r}")
    if "cutoff" in cfg:
        raise ConfigError("field 'cutoff' is not supported: kernel cutoffs come from (n, l)")
    cfg["mode"] = args.mode
    for flag in _MODES[args.mode][1]:
        value = getattr(args, flag)
        if value is not None:
            cfg[_FLAGS[flag][0]] = value
    return cfg


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return _checked(key, cfg[key], kind)


def _checked(key: str, value, kind=None):
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be an integer")
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _target(cfg: dict):
    """Kernel, record reader, observable id and grid batch builder of the
    config's target; the one place that reads a target's type, and so the
    one place that picks the quorum module a run imports."""
    target = _require(cfg, "target", dict)
    kind = _require(target, "type")
    if kind in ("matrix-element", "photon-number"):
        from . import homodyne

        read = homodyne.read_homodyne_records
        if kind == "photon-number":
            return homodyne.PhotonNumberKernel(), read, "photon-number", _homodyne_grid
        n, l = _require(target, "n", int), _require(target, "l", int)
        return homodyne.MatrixElementKernel(n, l), read, f"rho[{n + l},{n}]", _homodyne_grid
    if kind not in ("spin-matrix", "spin-operator"):
        raise ConfigError(f"unknown target type {kind!r}")
    from . import spin
    from ._jsonio import complex_matrix

    read = spin.read_spin_records
    if kind == "spin-matrix":
        operator = complex_matrix(_require(target, "matrix", list))
        return spin.SpinOperatorKernel(operator), read, "spin-matrix", _spin_grid
    name = _require(target, "name", str)
    two_j = target.get("two_j", cfg.get("two_j"))
    if two_j is None:
        raise ConfigError("named spin operators need 'two_j' in the target or config")
    named = dict(zip(("Jx", "Jy", "Jz"), spin.spin_matrices(_checked("two_j", two_j, int))))
    if name not in named:
        raise ConfigError(f"unknown spin operator {name!r}; use Jx, Jy or Jz")
    return spin.SpinOperatorKernel(named[name]), read, name, _spin_grid


def _homodyne_grid(target: dict, kernel, ys):
    """Records with outcomes ``ys`` at phase 0."""
    import numpy as np

    from . import homodyne

    return homodyne.homodyne_records(np.zeros(ys.size), ys)


def _spin_grid(target: dict, kernel, thetas):
    """Records along the axes (sin theta, 0, cos theta) with the target's
    outcome two_lambda / 2."""
    import numpy as np

    from . import spin

    two_lambda = _require(target, "two_lambda", int)
    spin.check_two_m(kernel.two_j, two_lambda)
    axes = np.stack([np.sin(thetas), np.zeros(thetas.size), np.cos(thetas)], axis=1)
    return spin.spin_records(axes, np.full(thetas.size, two_lambda))


def _simulation_fields(cfg: dict):
    """State path, count, seed and records path, all read before a sampler runs."""
    fields = [("state_path", str), ("count", int), ("seed", int), ("records_path", str)]
    return [_require(cfg, key, kind) for key, kind in fields]


def _run_simulate_homodyne(cfg: dict) -> int:
    from . import homodyne

    state_path, count, seed, records_path = _simulation_fields(cfg)
    convention = cfg.get("convention", "Y")
    if convention not in ("Y", "X"):
        raise ConfigError(f"field 'convention' must be 'Y' or 'X', got {convention!r}")
    records = homodyne.sample_homodyne(homodyne.load_homodyne_state(state_path), count, seed)
    homodyne.write_homodyne_records(records, records_path, convention)
    return 0


def _run_simulate_spin(cfg: dict) -> int:
    from . import spin

    state_path, count, seed, records_path = _simulation_fields(cfg)
    records = spin.sample_spin(spin.load_spin_state(state_path), count, seed)
    spin.write_spin_records(records, records_path)
    return 0


def _run_reconstruct(cfg: dict) -> int:
    from . import mc
    from ._jsonio import RecordError, dumps, rows_at_lines

    kernel, read, observable, _ = _target(cfg)
    records_path = _require(cfg, "records_path", str)
    records = read(records_path)
    if len(records) == 0:
        raise RecordError(records_path, "file holds no records")
    with rows_at_lines(records_path):
        result = mc.reconstruct(records, kernel)
    payload = {
        "observable": observable,
        "mean": [result["mean"].real, result["mean"].imag],
        "stderr": [result["stderr_re"], result["stderr_im"]],
        "count": result["count"],
    }
    text = dumps(payload) + "\n"
    out = cfg.get("output_path")
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _run_kernel_export(cfg: dict) -> int:
    """CSV of the target's kernel, the one ``reconstruct`` averages, on a grid
    of outcomes y at phase 0 (homodyne) or of polar angles theta of the axis
    (sin theta, 0, cos theta) at outcome two_lambda / 2 (spin)."""
    import numpy as np

    from ._jsonio import format_float

    kernel, _, _, grid_batch = _target(cfg)
    grid = _require(cfg, "grid", dict)
    lo = float(_require(grid, "min", (int, float)))
    hi = float(_require(grid, "max", (int, float)))
    points = _require(grid, "points", int)
    if points < 2 or not -math.inf < lo < hi < math.inf:
        raise ConfigError("grid needs points >= 2 and finite max > min")
    xs = np.linspace(lo, hi, points)
    values = kernel.evaluate(grid_batch(cfg["target"], kernel, xs))
    lines = ["grid_point,kernel_re,kernel_im"]
    lines += [",".join(map(format_float, row)) for row in zip(xs, values.real, values.imag)]
    Path(_require(cfg, "output_path", str)).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def run_validation_suite(seed: int = 2024) -> dict:
    """Deterministic oracle suite tying the implementation to its closed forms."""
    import numpy as np

    from . import groups, homodyne, numerics, spin

    rng = np.random.default_rng(seed)
    checks = []

    def add(name, value, reference, error, tolerance):
        checks.append(
            {
                "name": name,
                "value": value,
                "reference": reference,
                "error": error,
                "tolerance": tolerance,
                "pass": bool(error <= tolerance),
            }
        )

    volume = groups.haar_integral_su2(lambda g: 1.0).real
    add(
        "haar_volume",
        volume,
        groups.SU2_HAAR_VOLUME,
        abs(volume - groups.SU2_HAAR_VOLUME) / groups.SU2_HAAR_VOLUME,
        1e-6,
    )

    for two_j in (1, 2):
        dim = two_j + 1
        quads = [np.eye(dim, dtype=complex)[[0, 0, 0, 0]]]
        for _ in range(5):
            vecs = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
            quads.append(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
        # one stack per slot: u1, u2, v1, v2 each of shape (6, dim)
        u1, u2, v1, v2 = np.stack(quads, axis=1)
        residual = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
        degree = groups.QuorumSpec.su2(two_j).formal_degree
        rhs = np.abs(np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1) / degree)
        worst = float(np.max(residual / (1.0 + rhs)))
        add(f"orthogonality_two_j_{two_j}", worst, 0.0, worst, 1e-6)

    worst = 0.0
    for two_j in (1, 2, 3):
        dim = two_j + 1
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a_matrix = (raw + raw.conj().T) / 2.0
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            for two_lambda in range(-two_j, two_j + 1, 2):
                closed = spin.kernel_spin_closed(a_matrix, axis, two_lambda)
                numeric = spin.kernel_spin_numeric(a_matrix, axis, two_lambda)
                worst = max(worst, abs(closed - numeric))
    add("spin_kernel_closed_vs_numeric", worst, 0.0, worst, 1e-9)

    raw = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rho_matrix = np.zeros((9, 9), dtype=complex)
    rho_matrix[:7, :7] = raw @ raw.conj().T
    rho = homodyne.FockDensityMatrix(8, rho_matrix / np.trace(rho_matrix).real)
    y_max = homodyne.default_y_max(rho.n_max)
    worst = 0.0
    for phi in rng.uniform(0.0, 2.0 * np.pi, size=10):
        total = numerics.integrate_real(
            lambda y: homodyne.quadrature_density_grid(rho, float(phi), y), -y_max, y_max
        )
        worst = max(worst, abs(total - 1.0))
    add("omega_normalization", worst, 0.0, worst, 1e-6)

    radii = np.linspace(1e-3, 2.0 * np.pi - 1e-3, 100)
    worst = 0.0
    for r in radii:
        product = groups.jacobian_from_eigenvalues([0.0, 1j * r, -1j * r])
        closed = 4.0 * math.sin(r / 2.0) ** 2 / (r * r)
        worst = max(worst, abs(product - closed))
    add("su2_jacobian_identity", worst, 0.0, worst, 1e-12)

    return {"checks": checks, "passed": all(c["pass"] for c in checks)}


def _run_validate(cfg: dict) -> int:
    from ._jsonio import dumps

    report = run_validation_suite(_checked("seed", cfg.get("seed", 2024), int))
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        sys.stdout.write(
            f"{check['name']}: {check['value']:.12g} vs {check['reference']:.12g} "
            f"(error {check['error']:.3e}, tol {check['tolerance']:.1e}) {status}\n"
        )
    out = cfg.get("output_path")
    if out:
        Path(out).write_text(dumps(report) + "\n", encoding="utf-8")
    return 0 if report["passed"] else 1


# mode -> (runner, the flags it reads besides --config)
_MODES = {
    "simulate-homodyne": (_run_simulate_homodyne, ("seed", "count", "state", "records")),
    "simulate-spin": (_run_simulate_spin, ("seed", "count", "state", "records")),
    "reconstruct": (_run_reconstruct, ("records", "output")),
    "kernel-export": (_run_kernel_export, ("output",)),
    "validate": (_run_validate, ("seed", "output")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtomo",
        description="group-based quantum tomography: simulate, reconstruct, validate",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, flags) in _MODES.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config document")
        for flag in flags:
            field, kind = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=f"override {field}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # imported once argv parses: --help and usage errors never load numpy
    from ._jsonio import RecordError
    from .numerics import QuadratureError

    try:
        cfg = _merged_config(args)
        if args.mode != "validate" and args.config is None:
            raise ConfigError("--config is required for this mode")
        return _MODES[args.mode][0](cfg)
    except ConfigError as exc:
        return _fail("config", str(exc))
    except RecordError as exc:
        return _fail("data", str(exc))
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        return _fail("file", f"{exc.strerror or exc}{where}")
    except QuadratureError as exc:
        return _fail("quadrature", str(exc))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        return _fail("config", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
