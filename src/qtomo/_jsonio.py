"""JSON emission with fixed 17-significant-digit floats, and JSONL reading.

Every float written by the package round-trips bit-faithfully through its
text form, so record and result files are stable artifacts.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "dumps", "read_jsonl"]


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


def read_jsonl(path, parse) -> list:
    """``parse`` applied to each nonblank line of a JSONL file.

    A line that is not JSON, lacks a field or holds an invalid value raises
    ValueError prefixed with ``path:line``.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out
