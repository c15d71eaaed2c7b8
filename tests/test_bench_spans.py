"""Every per-layer span the benchmark declares must name a function the
tracer wraps; a renamed or deleted function would otherwise read 0."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_per_layer_spans_are_traced_targets():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    span_names = {
        metric["name"].rsplit(".", 1)[0]
        for metric in per_layer
        if not metric["name"].startswith("trace.")
    }
    targets = {name for _, _, name in load_spans().traced_targets()}
    assert span_names, "BENCHMARK.json declares no per-layer spans"
    assert sorted(span_names - targets) == []
