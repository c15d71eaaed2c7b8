"""Timing spans wrapped around the public functions of qtomo, from outside it.

Nothing is traced inside the program: :func:`installed` replaces each public
function of ``homodyne``, ``spin``, ``mc``, ``groups``, ``numerics`` and
``cli`` (the names in each module's ``__all__``, plus ``evaluate`` of the
kernel classes) with a wrapper that records one :class:`Span`, and puts the
originals back on exit.  ``rng.record_uniforms`` is the counter RNG as bound
in ``homodyne`` and ``spin``, where the samplers look it up.

Each span records its parent, so a span's self time is its duration minus
the durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Called once per value: a span per call would cost more than the work it
# measures, so its time stays in the caller's self time.
PER_VALUE = frozenset({"mc.update"})


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    items: int = 0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def item_count(result) -> int:
    """Records or values a call produced: a result's ``count``, or its length."""
    if isinstance(result, dict):
        return int(result.get("count", 0))
    if isinstance(result, list) or getattr(result, "ndim", 0) >= 1:
        return len(result)
    return 0


class Tracer:
    """Spans kept in memory, in the order the calls started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.total_s
            span.items = item_count(result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed ``s`` and ``self_s``, ``calls`` and ``items``."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "items": 0})
        for span in self.spans:
            agg = out[span.name]
            agg["s"] += span.total_s
            agg["self_s"] += span.self_s
            agg["calls"] += 1
            agg["items"] += span.items
        return dict(out)


def traced_targets():
    """(owner, attribute, span name) for every function the tracer wraps."""
    from qtomo import cli, groups, homodyne, mc, numerics, spin

    targets = [(homodyne, "record_uniforms", "rng.record_uniforms"),
               (spin, "record_uniforms", "rng.record_uniforms")]
    for module in (homodyne, spin, mc, groups, numerics, cli):
        prefix = module.__name__.rsplit(".", 1)[1]
        for attr in module.__all__:
            obj = getattr(module, attr)
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj) and name not in PER_VALUE:
                targets.append((module, attr, name))
            elif inspect.isclass(obj) and "evaluate" in vars(obj):
                targets.append((obj, "evaluate", f"{name}.evaluate"))
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function for the duration of the block."""
    targets = traced_targets()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    try:
        for (owner, attr, name), fn in zip(targets, originals):
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for (owner, attr, _), fn in zip(targets, originals):
            setattr(owner, attr, fn)
