"""JSON emission with fixed 17-significant-digit floats, JSONL record reading
and the state file format shared by both quorums.

Every float written by the package round-trips bit-faithfully through its
text form, so record and result files are stable artifacts.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "RecordError", "format_float", "dumps", "check_rows", "check_batch",
    "read_jsonl", "rows_at_lines", "complex_matrix", "save_state", "load_state",
]


class RecordError(ValueError):
    """Invalid record data, named by ``where``; ``row`` is its batch index, if known."""

    def __init__(self, where: str, reason: str, row: int | None = None):
        super().__init__(f"{where}: {reason}")
        self.reason = reason
        self.row = row


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = f"{x:.17g}"
    # keep a float marker so round-tripped values stay floats
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def dumps(obj) -> str:
    """Serialize nested dicts/lists/scalars with 17-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def check_rows(checks) -> None:
    """RecordError at the first row where any ``(ok, reason, values)`` check is False."""
    failures = [(int(np.argmin(ok)), k) for k, (ok, _, _) in enumerate(checks) if not ok.all()]
    if failures:
        row, k = min(failures)
        _, reason, values = checks[k]
        raise RecordError(f"record {row}", f"{reason}, got {values[row].item()!r}", row)


def check_batch(records, dtype: np.dtype, kind: str) -> None:
    """TypeError unless ``records`` is a record batch of the given dtype."""
    if not (isinstance(records, np.ndarray) and records.dtype == dtype):
        raise TypeError(f"{kind} kernel requires a {kind} record batch")


def read_jsonl(path, row, build):
    """``build`` of the flat float array of ``row(obj)`` over the nonblank lines.

    ``row`` turns one JSON object into a tuple of numbers.  Any bad line, or
    record that ``build`` rejects, raises RecordError at ``path:line``.
    """
    values = array("d")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                values.extend(row(json.loads(line)))
            except KeyError as exc:
                raise RecordError(f"{path}:{lineno}", f"missing field {exc}") from exc
            except (OverflowError, TypeError, ValueError) as exc:
                raise RecordError(f"{path}:{lineno}", str(exc)) from exc
    with rows_at_lines(path):
        return build(np.frombuffer(values, dtype=float))


@contextmanager
def rows_at_lines(path):
    """Re-raise a RecordError that names a batch row as one naming
    ``path:line``, the line of that record among the nonblank lines of
    ``path``, the file the batch was read from."""
    try:
        yield
    except RecordError as exc:
        if exc.row is None:
            raise
        with open(path, "r", encoding="utf-8") as fh:
            lines = [lineno for lineno, line in enumerate(fh, 1) if line.strip()]
        raise RecordError(f"{path}:{lines[exc.row]}", exc.reason) from exc


def complex_matrix(rows) -> np.ndarray:
    """A complex matrix from its JSON form ``[[[re, im], ...], ...]``."""
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def save_state(path, key: str, size: int, matrix: np.ndarray) -> None:
    """JSON state file: {key: size, "rho": [[[re, im], ...], ...]}."""
    payload = {key: size, "rho": [[[z.real, z.imag] for z in row] for row in matrix]}
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def load_state(path, key: str) -> tuple[int, np.ndarray]:
    """``(size, matrix)`` of a state file written by :func:`save_state`."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return int(obj[key]), complex_matrix(obj["rho"])
