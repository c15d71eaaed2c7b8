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

# top-level config field -> (its JSON rule, the flag that overrides it); a
# rule is a JSON kind, int a JSON integer and float a JSON number, or the
# tuple of the values the field may take.  No mode reads any other field.
_FIELDS = {
    "mode": (str, None),
    "seed": (int, "seed"),
    "count": (int, "count"),
    "state_path": (str, "state"),
    "records_path": (str, "records"),
    "output_path": (str, "output"),
    "target": (dict, None),
    "grid": (dict, None),
}

# target type -> the rule of each other field of a target of that type;
# two_lambda, the outcome of a spin target's grid, is read by kernel-export
# alone, and the names are in the order of spin.spin_matrices
_TARGETS = {
    "matrix-element": {"n": int, "l": int},
    "photon-number": {},
    "spin-matrix": {"matrix": list, "two_lambda": int},
    "spin-operator": {"name": ("Jx", "Jy", "Jz"), "two_j": int, "two_lambda": int},
}

# grid field -> its rule
_GRID = {"min": float, "max": float, "points": int}


class ConfigError(ValueError):
    pass


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")
    return 2


def _merged_config(args: argparse.Namespace) -> dict:
    """The config with the mode's flags applied, every field at every depth
    checked against its rule, the mode's own fields present and its
    defaults filled in."""
    _, required, defaults = _MODES[args.mode]
    if args.config is None and required:
        raise ConfigError("--config is required for this mode")
    try:
        cfg = {} if args.config is None else json.loads(Path(args.config).read_text("utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {exc.filename}") from exc
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise ConfigError(f"config file {args.config} cannot be read as JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, (_, flag) in _FIELDS.items():
        if flag and getattr(args, flag, None) is not None:
            cfg[key] = getattr(args, flag)
    for where, obj, table in _tables(cfg):
        for key in obj:
            if key not in table:
                raise ConfigError(f"{where} field {key!r} is read by no mode")
            obj[key] = _require(obj, key, table[key])
    if cfg.setdefault("mode", args.mode) != args.mode:
        raise ConfigError(f"config mode {cfg['mode']!r} does not match subcommand {args.mode!r}")
    for key in required:
        _require(cfg, key)
    return {**defaults, **cfg}


def _tables(cfg: dict):
    """(name, object, table of rules) of the config, its target and its grid,
    each depth yielded once the depth above it is checked."""
    yield "config", cfg, {key: rule for key, (rule, _) in _FIELDS.items()}
    if "target" in cfg:
        kind = _require(cfg["target"], "type", tuple(_TARGETS))
        yield "target", cfg["target"], {"type": tuple(_TARGETS), **_TARGETS[kind]}
    if "grid" in cfg:
        yield "grid", cfg["grid"], _GRID


def _require(obj: dict, key: str, rule=None):
    """``obj[key]``, a float under the rule float, if it keeps ``rule`` (as
    in the tables, or None for any value); else a ConfigError naming it."""
    from ._jsonio import number

    if key not in obj:
        raise ConfigError(f"config is missing required field {key!r}")
    value = obj[key]
    if isinstance(rule, tuple) and value not in rule:
        raise ConfigError(f"field {key!r} must be {' or '.join(map(repr, rule))}, got {value!r}")
    # a JSON value has one exact type, and a bool is no int
    kinds = (int, float) if rule is float else (rule,)
    if isinstance(rule, type) and type(value) not in kinds:
        raise ConfigError(f"field {key!r} has wrong type {type(value).__name__}")
    if rule is float:
        try:
            return number(value, f"field {key!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return value


def _target(cfg: dict):
    """Kernel, record reader, observable id and grid batch builder of the
    config's checked target; the one place that reads a target's type, and
    so the one place that picks the quorum module a run imports."""
    target = cfg["target"]
    kind = target["type"]
    if kind in ("matrix-element", "photon-number"):
        from . import homodyne

        read = homodyne.read_homodyne_records
        if kind == "photon-number":
            return homodyne.PhotonNumberKernel(), read, "photon-number", _homodyne_grid
        n, l = _require(target, "n"), _require(target, "l")
        return homodyne.MatrixElementKernel(n, l), read, f"rho[{n + l},{n}]", _homodyne_grid
    from . import spin
    from ._jsonio import complex_matrix

    read = spin.read_spin_records
    if kind == "spin-matrix":
        operator = complex_matrix(_require(target, "matrix"))
        return spin.SpinOperatorKernel(operator), read, "spin-matrix", _spin_grid
    name = _require(target, "name")
    named = dict(zip(_TARGETS[kind]["name"], spin.spin_matrices(_require(target, "two_j"))))
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

    two_lambda = _require(target, "two_lambda")
    spin.check_two_m(kernel.two_j, two_lambda)
    axes = np.stack([np.sin(thetas), np.zeros(thetas.size), np.cos(thetas)], axis=1)
    return spin.spin_records(axes, np.full(thetas.size, two_lambda))


def _run_simulate_homodyne(cfg: dict) -> int:
    from . import homodyne

    rho = homodyne.load_homodyne_state(cfg["state_path"])
    records = homodyne.sample_homodyne(rho, cfg["count"], cfg["seed"])
    homodyne.write_homodyne_records(records, cfg["records_path"])
    return 0


def _run_simulate_spin(cfg: dict) -> int:
    from . import spin

    records = spin.sample_spin(spin.load_spin_state(cfg["state_path"]), cfg["count"], cfg["seed"])
    spin.write_spin_records(records, cfg["records_path"])
    return 0


def _run_reconstruct(cfg: dict) -> int:
    from . import mc
    from ._jsonio import RecordError, dumps, rows_at_lines

    kernel, read, observable, _ = _target(cfg)
    records_path = cfg["records_path"]
    # the line numbers of the one read, as a pipe cannot be read again
    lines = []
    records = read(records_path, lines)
    if len(records) == 0:
        raise RecordError(records_path, "file holds no records")
    with rows_at_lines(records_path, lines[0]):
        result = mc.reconstruct(records, kernel)
    payload = {
        "observable": observable,
        "mean": [result["mean"].real, result["mean"].imag],
        "stderr": [result["stderr_re"], result["stderr_im"]],
        "count": result["count"],
    }
    text = dumps(payload) + "\n"
    if cfg["output_path"]:
        Path(cfg["output_path"]).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _run_kernel_export(cfg: dict) -> int:
    """CSV of the target's kernel, the one ``reconstruct`` averages, on a grid
    of outcomes y at phase 0 (homodyne) or of polar angles theta of the axis
    (sin theta, 0, cos theta) at outcome two_lambda / 2 (spin)."""
    import numpy as np

    from ._jsonio import format_float

    kernel, _, _, grid_batch = _target(cfg)
    grid = cfg["grid"]
    lo, hi, points = _require(grid, "min"), _require(grid, "max"), _require(grid, "points")
    if points < 2 or not -math.inf < lo < hi < math.inf:
        raise ConfigError("grid needs points >= 2 and finite max > min")
    xs = np.linspace(lo, hi, points)
    values = kernel.evaluate(grid_batch(cfg["target"], kernel, xs))
    lines = ["grid_point,kernel_re,kernel_im"]
    lines += [",".join(map(format_float, row)) for row in zip(xs, values.real, values.imag)]
    Path(cfg["output_path"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _validation_inputs(seed: int) -> dict:
    """Every random input of the validation suite, drawn from the counter
    stream of the samplers in a fixed order, each draw from counters no
    earlier draw used, so the suite is a pure function of ``seed``:

    - ``quadruples[two_j]``: the slots u1, u2, v1, v2, each of shape
      ``(6, 2j+1)``, of a basis quadruple and five random unit quadruples,
      for two_j 1 and 2;
    - ``hermitian[two_j]`` and ``axes[two_j]``: a Hermitian matrix and five
      unit axes, for two_j 1, 2 and 3;
    - ``rho``: a random rank-7 density matrix at n_max 8;
    - ``phases``: ten phases in [0, 2 pi).
    """
    import numpy as np

    from ._rng import record_uniforms

    used = 0

    def uniforms(*shape):
        nonlocal used
        size = math.prod(shape)
        u = record_uniforms(seed, used, size, 1).reshape(shape)
        used += size
        return u

    def normals(*shape):
        # Box-Muller; 1 - u lies in (0, 1], so the logarithm is finite
        u = uniforms(2, *shape)
        return np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])

    def complex_normals(*shape):
        return normals(*shape) + 1j * normals(*shape)

    def unit(vecs):
        return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)

    quadruples = {}
    for two_j in (1, 2):
        dim = two_j + 1
        basis = np.eye(dim, dtype=complex)[[0, 0, 0, 0]]
        quads = np.concatenate([basis[None], unit(complex_normals(5, 4, dim))])
        quadruples[two_j] = tuple(quads.swapaxes(0, 1))
    hermitian, axes = {}, {}
    for two_j in (1, 2, 3):
        raw = complex_normals(two_j + 1, two_j + 1)
        hermitian[two_j] = (raw + raw.conj().T) / 2.0
        axes[two_j] = unit(normals(5, 3))
    raw = complex_normals(7, 7)
    rho = np.zeros((9, 9), dtype=complex)
    rho[:7, :7] = raw @ raw.conj().T
    rho /= np.trace(rho).real
    phases = 2.0 * np.pi * uniforms(10)
    return {"quadruples": quadruples, "hermitian": hermitian, "axes": axes, "rho": rho,
            "phases": phases}


def run_validation_suite(seed: int = 2024) -> dict:
    """Deterministic oracle suite tying the implementation to its closed forms."""
    import numpy as np

    from . import groups, homodyne, numerics, spin

    inputs = _validation_inputs(seed)
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
        u1, u2, v1, v2 = inputs["quadruples"][two_j]
        residual = groups.orthogonality_residual(two_j, u1, u2, v1, v2)
        degree = groups.su2_formal_degree(two_j)
        rhs = np.abs(np.sum(u1.conj() * u2, axis=1) * np.sum(v2.conj() * v1, axis=1) / degree)
        worst = float(np.max(residual / (1.0 + rhs)))
        add(f"orthogonality_two_j_{two_j}", worst, 0.0, worst, 1e-6)

    worst = 0.0
    for two_j in (1, 2, 3):
        a_matrix = inputs["hermitian"][two_j]
        # every outcome lambda = -j..+j of every axis at once
        two_lambdas = np.arange(-two_j, two_j + 1, 2)
        closed = spin.kernel_spin_closed(a_matrix, inputs["axes"][two_j], two_lambdas)
        numeric = spin.kernel_spin_numeric(a_matrix, inputs["axes"][two_j], two_lambdas)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    add("spin_kernel_closed_vs_numeric", worst, 0.0, worst, 1e-9)

    rho = homodyne.FockDensityMatrix(8, inputs["rho"])
    y_max = homodyne.default_y_max(rho.n_max)
    # one integral per phase, all on one ladder, one eigenfunction table per level
    totals = numerics.integrate_real(
        lambda y: homodyne.quadrature_density_grid(rho, inputs["phases"], y), -y_max, y_max
    )
    worst = float(np.max(np.abs(totals - 1.0)))
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

    report = run_validation_suite(cfg["seed"])
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        sys.stdout.write(
            f"{check['name']}: {check['value']:.12g} vs {check['reference']:.12g} "
            f"(error {check['error']:.3e}, tol {check['tolerance']:.1e}) {status}\n"
        )
    if cfg["output_path"]:
        Path(cfg["output_path"]).write_text(dumps(report) + "\n", encoding="utf-8")
    return 0 if report["passed"] else 1


_SIMULATE = ("state_path", "count", "seed", "records_path")

# mode -> (runner, the fields it requires, the other fields it reads with
# their defaults); each field a mode reads that has a flag gives it that flag
_MODES = {
    "simulate-homodyne": (_run_simulate_homodyne, _SIMULATE, {}),
    "simulate-spin": (_run_simulate_spin, _SIMULATE, {}),
    "reconstruct": (_run_reconstruct, ("target", "records_path"), {"output_path": None}),
    "kernel-export": (_run_kernel_export, ("target", "grid", "output_path"), {}),
    "validate": (_run_validate, (), {"seed": 2024, "output_path": None}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtomo",
        description="group-based quantum tomography: simulate, reconstruct, validate",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, required, defaults) in _MODES.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config document")
        for field, (kind, flag) in _FIELDS.items():
            if flag and (field in required or field in defaults):
                p.add_argument(f"--{flag}", type=kind, help=f"override {field}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # imported once argv parses: --help and usage errors never load numpy
    from ._jsonio import RecordError
    from .numerics import QuadratureError

    try:
        return _MODES[args.mode][0](_merged_config(args))
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
