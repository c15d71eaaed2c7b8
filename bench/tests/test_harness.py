"""Tests of the benchmark itself: its checks reject wrong results, its spans
add up, and a reduced-size run of the real CLI finishes quickly and clean."""

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import truth  # noqa: E402

CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def result(observable, mean, stderr, count=1000):
    return {"observable": observable, "mean": list(mean), "stderr": list(stderr), "count": count}


def test_benchmark_json_names_the_workloads_run_py_defines():
    # homodyne-coherent is run by hand only, see README
    by_hand = ["homodyne-coherent"]
    assert [w["name"] for w in CONFIG["workloads"]] == [w for w in run.WORKLOADS if w not in by_hand]


class TestEstimateCheck:
    def test_accepts_a_result_within_five_sigma(self):
        assert truth.check_estimate(result("Jz", (0.3 + 0.04, 0.0), (0.01, 0.0)), "Jz", 0.3, 1000) == []

    @pytest.mark.parametrize(
        "bad",
        [
            result("Jz", (0.3 + 0.1, 0.0), (0.01, 0.0)),  # mean moved by 10 sigma
            result("Jz", (0.3, 0.1), (0.01, 0.01)),  # imaginary part at 10 sigma
            result("Jz", (0.3, 0.0), (0.01, 0.0), count=999),  # wrong count
            result("Jx", (0.3, 0.0), (0.01, 0.0)),  # wrong observable
        ],
    )
    def test_rejects_a_perturbed_result(self, bad):
        assert truth.check_estimate(bad, "Jz", 0.3, 1000)

    def test_agreement_across_worker_counts(self):
        a = result("rho[0,0]", (0.36, 1e-3), (4e-3, 5e-3))
        assert truth.check_agreement(a, dict(a)) == []
        moved = dict(a, mean=[0.36 * (1 + 1e-10), 1e-3])
        assert truth.check_agreement(a, moved)
        assert truth.check_agreement(a, dict(a, count=999))


class TestRecordChecks:
    def test_homodyne(self):
        good = [b'{"phi": 0.0, "y": 1.5}', b'{"phi": 6.283185307179585, "y": -2.0}']
        assert truth.check_homodyne_records(good) == []
        assert truth.check_homodyne_records([b'{"phi": 6.283185307179586, "y": 0.1}'])
        assert truth.check_homodyne_records([b'{"phi": -1e-300, "y": 0.1}'])
        assert truth.check_homodyne_records([b'{"phi": 1.0, "y": Infinity}'])

    def test_spin(self):
        good = [b'{"axis": [0.6, 0.0, 0.8], "two_m": 2}', b'{"axis": [0.0, 1.0, 0.0], "two_m": 0}']
        assert truth.check_spin_records(good, 2) == []
        assert truth.check_spin_records([b'{"axis": [0.6, 0.0, 0.81], "two_m": 0}'], 2)
        assert truth.check_spin_records([b'{"axis": [0.0, 0.0, 1.0], "two_m": 1}'], 2)
        assert truth.check_spin_records([b'{"axis": [0.0, 0.0, 1.0], "two_m": 4}'], 2)


class TestValidationCheck:
    def report(self, volume=16.0 * math.pi**2, passed=True):
        checks = [{"name": "haar_volume", "value": volume, "pass": passed},
                  {"name": "su2_jacobian_identity", "value": 0.0, "pass": True}]
        return {"checks": checks, "passed": passed}

    STDOUT = "haar_volume: ... PASS\nsu2_jacobian_identity: ... PASS\n"

    def test_accepts_a_passing_report(self):
        assert truth.check_validation(self.report(), 0, self.STDOUT) == []

    def test_rejects_wrong_volume_failed_check_or_exit(self):
        assert truth.check_validation(self.report(volume=16.0 * math.pi**2 * (1 + 1e-5)), 0, self.STDOUT)
        assert truth.check_validation(self.report(passed=False), 0, self.STDOUT)
        assert truth.check_validation(self.report(), 1, self.STDOUT)
        assert truth.check_validation(self.report(), 0, self.STDOUT.replace("PASS", "FAIL", 1))


class TestTruths:
    def test_coherent_populations(self):
        p = truth.coherent_populations(1.0, 24)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        assert p[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert np.arange(25) @ p == pytest.approx(1.0, rel=1e-15)

    def test_spin1_matrices_on_eigenstates(self):
        ops = truth.spin1_matrices()
        x_plus = np.array([0.5, 1 / math.sqrt(2.0), 0.5])  # J_x = +1 eigenvector
        assert x_plus @ ops["Jx"] @ x_plus == pytest.approx(1.0, abs=1e-15)
        assert np.trace(ops["Jz"] @ np.diag([0.0, 0.0, 1.0])).real == 1.0


def tiny(name, count):
    return dataclasses.replace(run.WORKLOADS[name], count=count)


def test_checker_rejects_a_wrong_truth(tmp_path):
    workload = tiny("spin-j1", 2000)
    plan = run.prepare(workload, 5, tmp_path)
    plan.truths["Jz"] += 1.0
    _, ops, checker, _ = run.measure_untraced(plan, 0.0, time.perf_counter() + 120)
    assert all(op.exit == 0 for op in ops)
    assert any("Jz" in problem and "sigma" in problem for problem in checker.problems)


def test_reduced_size_runs_finish_quickly_and_clean(tmp_path):
    start = time.perf_counter()
    for name in ("homodyne-coherent", "validate"):
        plan = run.prepare(tiny(name, 2000), 3, tmp_path / name)
        metrics, ops, checker, _ = run.measure_untraced(plan, 0.0, time.perf_counter() + 120)
        assert checker.problems == []
        assert all(op.exit == 0 for op in ops)
        assert {m["name"] for m in CONFIG["end_to_end"]} <= set(metrics)
        assert all(metrics[m["name"]] > 0 for m in CONFIG["end_to_end"])
    assert time.perf_counter() - start < 60.0


def test_traced_run_reports_every_layer_metric_and_restores_the_program(tmp_path):
    from qtomo import cli, homodyne

    originals = (cli.main, homodyne.sample_homodyne, homodyne.MatrixElementKernel.evaluate)
    names = [m["name"] for m in CONFIG["per_layer"]]
    plan = run.prepare(tiny("homodyne-fock", 300), 4, tmp_path)
    metrics, ops, checker, _ = run.measure_traced(plan, 0.0, time.perf_counter() + 120, names)
    assert checker.problems == []
    assert all(op.exit == 0 for op in ops)
    assert set(metrics) == set(names)
    assert metrics["homodyne.sample_homodyne.records_per_s"] > 0
    assert metrics["homodyne.MatrixElementKernel.evaluate.s"] > 0
    assert (cli.main, homodyne.sample_homodyne, homodyne.MatrixElementKernel.evaluate) == originals


def test_self_times_add_up_to_each_span_total(tmp_path):
    from qtomo import cli

    plan = run.prepare(tiny("spin-j1", 500), 2, tmp_path)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for argv in plan.argvs:
            assert run.run_in_process(argv, 1).exit == 0
    assert [s.name for s in tracer.spans if s.parent is None] == ["cli.main"] * len(plan.argvs)
    assert cli.main.__module__ == "qtomo.cli" and not hasattr(cli.main, "__wrapped__")
    children = {i: [] for i in range(len(tracer.spans))}
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent].append(span)
    for i, span in enumerate(tracer.spans):
        inner = children[i]
        assert all(span.start <= c.start <= c.end <= span.end for c in inner)
        assert span.self_s + sum(c.total_s for c in inner) == pytest.approx(span.total_s, abs=1e-12)
        assert span.self_s >= 0.0
    roots = [s for s in tracer.spans if s.parent is None]
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(sum(s.total_s for s in roots), abs=1e-9)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "validate", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
