"""JSON emission with fixed 17-significant-digit floats, JSONL record
writing and reading and the state file format shared by both quorums.

Every float written by the package round-trips bit-faithfully through its
text form, so record and result files are stable artifacts.

The record codec formats and parses a large file in contiguous shards, one
per core this process may run on, each but the first in a forked child; the
bytes written and the values read do not depend on the shard count.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import stat
import warnings
from array import array
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "RecordError", "format_float", "dumps", "check_rows", "check_batch", "integer", "number",
    "line_regex", "write_jsonl", "read_jsonl", "rows_at_lines", "complex_matrix",
    "save_state", "load_state",
]

# Lines per formatted chunk of a write, and bytes per block of a canonical
# read (~190 spin or ~360 homodyne lines): small enough that the strings of
# a block leave no mark on the peak RSS of a run (8192 lines raised it by
# ~4 MB at 100k records, 32 KiB blocks by ~0.2 MB at 10k), large enough
# that the cost per block does not show.
_BLOCK_LINES = 256
_BLOCK_BYTES = 2**14

# Rows per shard at the least, so that a child's text work dwarfs its cost:
# a fork and its join took 1.6-3.6 ms on a 2-core Xeon with numpy loaded,
# against ~2-3 us to format or to parse one line, so a shard of 2**14 lines
# (30-50 ms of text) spends under a tenth of its time on its child. A file
# of fewer than 2 * 2**14 lines, such as a 10k-record run, stays one shard.
_MIN_SHARD_ROWS = 2**14

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
    it are written.  The rows before it are cut into contiguous shards: the
    parent formats the first straight into ``path``, a child each other one
    into an unlinked file beside it, which the parent then appends in order;
    the parent formats the shard of a child that failed itself.
    """
    float_columns = [column for column in columns if column.dtype.kind == "f"]
    finite = np.logical_and.reduce([np.isfinite(column) for column in float_columns])
    stop = len(finite) if finite.all() else int(np.argmin(finite))
    shards = _shard_count(stop)
    bounds = [stop * i // shards for i in range(shards + 1)]

    def write(fh, shard):
        end = bounds[shard + 1]
        for start in range(bounds[shard], end, _BLOCK_LINES):
            chunk = [column[start : min(start + _BLOCK_LINES, end)] for column in columns]
            floats = np.column_stack([column for column in chunk if column.dtype.kind == "f"])
            fh.write(_format_lines(template, chunk, floats))

    def child(shard, fd):
        with open(fd, "w", encoding="utf-8", closefd=False) as fh:
            write(fh, shard)

    with open(path, "w", encoding="utf-8") as fh, _Children() as children:
        files = {}
        for shard in range(1, shards):
            fd = _unlinked_file(path, shard)
            if fd is not None:
                files[shard] = children.close_on_exit(fd)
                children.fork(shard, functools.partial(child, shard, fd))
        write(fh, 0)
        for shard in range(1, shards):
            if children.join(shard) == 0:
                _append(fh, files[shard])
            else:
                write(fh, shard)
    if stop < len(finite):
        for column in float_columns:
            format_float(column[stop])


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


def _cores() -> int:
    """The cores this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shard_count(rows: int) -> int:
    return max(1, min(_cores(), rows // _MIN_SHARD_ROWS))


class _Children:
    """The forked children of one sharded read or write, by shard, and the
    descriptors that carry their output.  On leaving the ``with`` block, by
    return, error or interrupt, every child not yet joined is killed and
    reaped, and then the descriptors are closed."""

    def __init__(self):
        self._pids = {}
        self._fds = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for pid in self._pids.values():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        self._pids.clear()
        for fd in self._fds:
            os.close(fd)

    def close_on_exit(self, fd: int) -> int:
        self._fds.append(fd)
        return fd

    def fork(self, shard: int, work) -> None:
        """Run ``work()``, text work only, in a child that leaves by
        ``os._exit`` with the code ``work`` returns, 0 for None and 1 if it
        raises; if the fork fails the shard has no child."""
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns of fork in a process with threads, here
                # those of the BLAS pool; the child runs no BLAS and no thread
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            return
        if pid == 0:
            code = 1
            try:
                code = work() or 0
            finally:
                os._exit(code)
        self._pids[shard] = pid

    def join(self, shard: int) -> int:
        """The exit code of the shard's child, 1 if it has none."""
        if shard not in self._pids:
            return 1
        _, status = os.waitpid(self._pids[shard], 0)
        del self._pids[shard]
        return os.waitstatus_to_exitcode(status)


def _unlinked_file(path, shard: int) -> int | None:
    """A read-write descriptor of a new file in ``path``'s directory, whose
    name is gone once it is open; None if it cannot be made."""
    name = f"{os.fspath(path)}.{os.getpid()}.{shard}.tmp"
    try:
        fd = os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError:
        return None
    os.unlink(name)
    return fd


def _append(fh, fd: int) -> None:
    """Append every byte of the file ``fd`` to the text file ``fh``."""
    fh.flush()
    os.lseek(fd, 0, os.SEEK_SET)
    while chunk := os.read(fd, _BLOCK_BYTES):
        fh.buffer.write(chunk)


def read_jsonl(path, row, build, regex, lines: list | None = None):
    """``build`` of the flat float array of ``row(obj)`` over the nonblank lines.

    ``row`` turns one JSON object into a tuple of numbers.  If ``path`` is a
    regular file, ``regex`` (of :func:`line_regex`) matches every line of it,
    each line ends in a newline and every value is finite, the flat float
    array of its groups is what ``row`` gives, and json is not called.  The
    shard count does not change this array.  Any other file takes the
    general per-line reader, the only source of parse errors: a bad line, or
    a record that ``build`` rejects, raises RecordError at ``path:line``.
    The file is read once, so ``path`` may be a pipe.  A list ``lines``
    receives the records' line numbers, as :func:`rows_at_lines` takes them.
    """
    values = _read_canonical(path, regex)
    # a canonical file has no blank line: record r is on line r + 1
    numbers = None
    if values is None:
        values, numbers = _read_lines(path, row)
    if lines is not None:
        lines.append(numbers)
    with rows_at_lines(path, numbers):
        return build(values)


def _read_canonical(path, regex) -> np.ndarray | None:
    """The flat float array of ``regex``'s groups over every line, or None
    if a line does not match (a blank line, CRLF, another key order or
    spacing), the file has no final newline or a value is not finite.

    The file is cut into byte ranges that end at a newline: the parent
    parses the first, a child each other one, whose values come back through
    a pipe and are appended in order; the parent parses the range of a child
    that failed itself.  A file that is not a regular file, such as a pipe,
    cannot be read at an offset and gives None unread.
    """
    values = array("d")
    with open(path, "rb") as fh, _Children() as children:
        fd = fh.fileno()
        status = os.fstat(fd)
        if not stat.S_ISREG(status.st_mode):
            return None
        bounds = _line_bounds(fh, status.st_size)
        pipes = {}

        def parse(shard, into) -> bool:
            return _parse_range(fd, regex, bounds[shard], bounds[shard + 1], into)

        def child(shard, out):
            own = array("d")
            # a range that is not canonical fails the child, and the
            # parent's own parse of it then gives None
            if not parse(shard, own):
                return 1
            with open(out, "wb") as sink:
                sink.write(own)

        for shard in range(1, len(bounds) - 1):
            pipe, out = os.pipe()
            pipes[shard] = children.close_on_exit(pipe)
            children.fork(shard, functools.partial(child, shard, out))
            os.close(out)
        if not parse(0, values):
            return None
        for shard in range(1, len(bounds) - 1):
            mark = len(values)
            with open(pipes[shard], "rb", closefd=False) as source:
                # whole blocks until the last, short only if the child failed
                while chunk := source.read(_BLOCK_BYTES):
                    values.frombytes(chunk[: len(chunk) - len(chunk) % values.itemsize])
            if children.join(shard) != 0:
                del values[mark:]
                if not parse(shard, values):
                    return None
    values = np.frombuffer(values, dtype=float)
    return values if np.isfinite(values).all() else None


def _line_bounds(fh, size: int) -> list[int]:
    """Offsets that cut the ``size`` bytes of ``fh`` into shards ending at a
    newline, as many as :func:`_shard_count` gives for the line count
    estimated from the first line's length."""
    shards = _shard_count(size // max(1, len(fh.readline())))
    bounds = [0]
    for shard in range(1, shards):
        fh.seek(max(size * shard // shards, bounds[-1]))
        fh.readline()
        bounds.append(fh.tell())
    return bounds + [size]


def _parse_range(fd, regex, start: int, stop: int, values) -> bool:
    """Extend ``values`` by ``regex``'s groups over the lines of the bytes
    ``start:stop`` of ``fd``, read in blocks cut after their last newline;
    False if a line does not match or the range does not end in a newline."""
    rest = b""
    while start < stop:
        data = os.pread(fd, min(_BLOCK_BYTES, stop - start), start)
        if not data:
            return False
        start += len(data)
        block = rest + data
        cut = block.rfind(b"\n") + 1
        block, rest = block[:cut], block[cut:]
        rows = regex.findall(block)
        # every line of a block ends in a newline, so each holds one match
        # if and only if it is canonical
        if len(rows) != block.count(b"\n"):
            return False
        # float() of the token text, the call json makes for a fraction
        values.extend(map(float, chain.from_iterable(rows)))
    return not rest


def _read_lines(path, row) -> tuple[np.ndarray, np.ndarray]:
    """The flat float array of ``row`` over the nonblank lines, by json, and
    the line number of each."""
    values, numbers = array("d"), array("q")
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
            numbers.append(lineno)
    return np.frombuffer(values, dtype=float), np.frombuffer(numbers, dtype=np.int64)


def _text(path):
    """``path`` opened as UTF-8 text whose undecodable bytes are lone surrogates."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


@contextmanager
def rows_at_lines(path, lines):
    """Re-raise a RecordError that names a batch row as one naming
    ``path:line``: line ``lines[row]`` as :func:`read_jsonl` gives them, or
    ``row + 1`` if ``lines`` is None, for a file with no blank line."""
    try:
        yield
    except RecordError as exc:
        if exc.row is None:
            raise
        line = exc.row + 1 if lines is None else int(lines[exc.row])
        raise RecordError(f"{path}:{line}", exc.reason) from exc


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
    ValueError names the file if it is not JSON Python reads (an integer
    past Python's digit limit is not), a size that is not a JSON integer or
    a bad ``rho`` entry."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"state file {path} cannot be read as JSON: {exc}") from exc
    return integer(obj[key], f"state field {key!r}"), complex_matrix(obj["rho"], "rho")
