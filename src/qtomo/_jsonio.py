"""JSON emission with fixed 17-significant-digit floats, JSONL record
writing and reading and the state file format shared by both quorums.

Every float written by the package round-trips bit-faithfully through its
text form, so record and result files are stable artifacts.
"""

from __future__ import annotations

import functools
import json
import math
import re
from array import array
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

__all__ = [
    "RecordError", "format_float", "dumps", "check_rows", "check_batch", "integer", "number",
    "line_regex", "write_jsonl", "read_jsonl", "rows_at_lines", "complex_matrix",
    "save_state", "load_state",
]

# Lines per formatted chunk of a write and per block of a canonical read:
# small enough that the tokens of a block leave no mark on the peak RSS of
# a 100k-record run (8192 raised it by ~4 MB), large enough that the cost
# per block does not show.
_BLOCK_LINES = 256

# What a line template's placeholders read back as: the float text that
# format_float writes (a fraction or a signed exponent, so a JSON integer,
# which json reads through int and so -0 as +0.0, takes the general reader)
# and a JSON integer of at most 15 digits, exact as a float.
_FIELD_GRAMMAR = {
    "%.17g": r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+))",
    "%d": r"(-?(?:0|[1-9][0-9]{0,14}))",
}


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


def integer(value, name: str) -> int:
    """``value`` if it is a JSON integer: an int, not a bool."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, not a
    bool, and not an int too large for a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None


@functools.cache
def line_regex(template: str) -> re.Pattern:
    """The anchored multiline bytes regex of the lines that :func:`write_jsonl`
    writes from ``template``, one group per ``%.17g`` or ``%d`` placeholder;
    compiled on first use, so a CLI start that reads no records skips it."""
    parts = re.split(r"(%\.17g|%d)", template.rstrip("\n"))
    body = "".join(_FIELD_GRAMMAR.get(part) or re.escape(part) for part in parts)
    return re.compile(f"^{body}$".encode("ascii"), re.MULTILINE)


def write_jsonl(path, template: str, columns) -> None:
    """One line of ``template`` per row of the equal-length 1-d ``columns``.

    Each ``%.17g`` placeholder takes the next float column and each ``%d`` the
    next integer column; every float reads as :func:`format_float` writes it.
    A non-finite float raises format_float's ValueError after the rows before
    it are written.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(columns[0]), _BLOCK_LINES):
            chunk = [column[start : start + _BLOCK_LINES] for column in columns]
            floats = np.column_stack([column for column in chunk if column.dtype.kind == "f"])
            bad = np.flatnonzero(~np.isfinite(floats).all(axis=1))
            stop = bad[0] if bad.size else len(floats)
            fh.write(_format_lines(template, [column[:stop] for column in chunk], floats[:stop]))
            for x in floats[stop:stop + 1].flat:
                format_float(x)


def _format_lines(template: str, columns, floats: np.ndarray) -> str:
    """The lines of ``template`` over ``columns`` by one ``%`` operation;
    ``floats`` holds the float columns side by side, all finite."""
    lines = [template] * len(floats)
    # %.17g drops format_float's float marker from an integral value below
    # 1e17 (and from -0.0); %.1f writes the same digits with the marker
    marked = (np.trunc(floats) == floats) & (np.abs(floats) < 1e17)
    pieces = template.split("%.17g")
    for row in np.flatnonzero(marked.any(axis=1)).tolist():
        specs = ["%.1f" if m else "%.17g" for m in marked[row].tolist()]
        lines[row] = "".join(p + spec for p, spec in zip(pieces, specs)) + pieces[-1]
    args = [None] * (len(floats) * len(columns))
    for k, column in enumerate(columns):
        args[k :: len(columns)] = column.tolist()
    return "".join(lines) % tuple(args)


def read_jsonl(path, row, build, regex):
    """``build`` of the flat float array of ``row(obj)`` over the nonblank lines.

    ``row`` turns one JSON object into a tuple of numbers.  If ``regex`` (of
    :func:`line_regex`) matches every line of the file, each line ends in a
    newline and every value is finite, the flat float array of its groups is
    what ``row`` gives, and json is not called.  Any other file takes the
    general per-line reader, the only source of parse errors: a bad line, or
    a record that ``build`` rejects, raises RecordError at ``path:line``.
    """
    values = _read_canonical(path, regex)
    if values is None:
        values = _read_lines(path, row)
    with rows_at_lines(path):
        return build(values)


def _read_canonical(path, regex) -> np.ndarray | None:
    """The flat float array of ``regex``'s groups over every line, or None
    if a line does not match (a blank line, CRLF, another key order or
    spacing), the file has no final newline or a value is not finite."""
    values = array("d")
    with open(path, "rb") as fh:
        while block := b"".join(islice(fh, _BLOCK_LINES)):
            rows = regex.findall(block)
            # ``$`` also matches at the end of a block with no final
            # newline, so a count check alone could pass one bad line there
            if not block.endswith(b"\n") or len(rows) != block.count(b"\n"):
                return None
            # float() of the token text, the call json makes for a fraction
            values.extend(map(float, chain.from_iterable(rows)))
    values = np.frombuffer(values, dtype=float)
    return values if np.isfinite(values).all() else None


def _read_lines(path, row) -> np.ndarray:
    values = array("d")
    with _text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    # raises the UnicodeDecodeError of an escaped byte
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                values.extend(row(json.loads(line)))
            except KeyError as exc:
                raise RecordError(f"{path}:{lineno}", f"missing field {exc}") from exc
            except (OverflowError, TypeError, ValueError) as exc:
                raise RecordError(f"{path}:{lineno}", str(exc)) from exc
    return np.frombuffer(values, dtype=float)


def _text(path):
    """``path`` opened as UTF-8 text whose undecodable bytes are lone surrogates."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


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
        with _text(path) as fh:
            lines = [lineno for lineno, line in enumerate(fh, 1) if line.strip()]
        raise RecordError(f"{path}:{lines[exc.row]}", exc.reason) from exc


def complex_matrix(rows, name: str = "matrix") -> np.ndarray:
    """A complex matrix from its JSON form ``[[[re, im], ...], ...]`` of JSON
    numbers; a ValueError names a bad entry as ``name[i][k]``."""

    def entry(where, pair):
        re, im = pair
        return complex(number(re, where), number(im, where))

    return np.array(
        [[entry(f"{name}[{i}][{k}]", z) for k, z in enumerate(row)] for i, row in enumerate(rows)],
        dtype=complex,
    )


def save_state(path, key: str, size: int, matrix: np.ndarray) -> None:
    """JSON state file: {key: size, "rho": [[[re, im], ...], ...]}."""
    payload = {key: size, "rho": [[[z.real, z.imag] for z in row] for row in matrix]}
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def load_state(path, key: str) -> tuple[int, np.ndarray]:
    """``(size, matrix)`` of a state file written by :func:`save_state`; a
    ValueError names a size that is not a JSON integer or a bad ``rho`` entry."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return integer(obj[key], f"state field {key!r}"), complex_matrix(obj["rho"], "rho")
