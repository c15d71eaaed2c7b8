import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qtomo
from qtomo import cli, groups, homodyne, numerics, spin
from qtomo._jsonio import dumps, format_float


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def spin_state_path(tmp_path):
    path = tmp_path / "spin_state.json"
    spin.save_spin_state(spin.maximally_mixed(1), path)
    return str(path)


@pytest.fixture()
def vacuum_state_path(tmp_path):
    path = tmp_path / "vacuum.json"
    homodyne.save_homodyne_state(homodyne.vacuum_state(8), path)
    return str(path)


class TestSimulate:
    def test_spin_simulation_is_reproducible(self, tmp_path, spin_state_path):
        records = tmp_path / "records.jsonl"
        config = write_config(
            tmp_path,
            "sim.json",
            {
                "mode": "simulate-spin",
                "seed": 7,
                "count": 100,
                "state_path": spin_state_path,
                "records_path": str(records),
            },
        )
        assert cli.main(["simulate-spin", "--config", config]) == 0
        first = records.read_bytes()
        assert first.count(b"\n") == 100
        assert cli.main(["simulate-spin", "--config", config]) == 0
        assert records.read_bytes() == first

    def test_homodyne_simulation_and_flag_overrides(self, tmp_path, vacuum_state_path):
        records = tmp_path / "records.jsonl"
        config = write_config(
            tmp_path,
            "sim.json",
            {
                "mode": "simulate-homodyne",
                "seed": 1,
                "count": 50,
                "state_path": vacuum_state_path,
                "records_path": str(records),
            },
        )
        assert cli.main(["simulate-homodyne", "--config", config, "--count", "120"]) == 0
        lines = records.read_text().strip().split("\n")
        assert len(lines) == 120
        parsed = json.loads(lines[0])
        assert set(parsed) == {"phi", "y"}

    def test_x_lines_reconstruct_as_their_y_lines(self, tmp_path, vacuum_state_path, capsys):
        # the simulator writes y lines only; x = y / sqrt(2) lines, written
        # here by hand, reconstruct to the same photon number
        y_records = tmp_path / "records.jsonl"
        payload = {
            "seed": 3,
            "count": 200,
            "state_path": vacuum_state_path,
            "records_path": str(y_records),
            "target": {"type": "photon-number"},
        }
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main(["simulate-homodyne", "--config", config]) == 0
        x_records = tmp_path / "records_x.jsonl"
        batch = homodyne.read_homodyne_records(y_records)
        x_records.write_text("".join(
            f'{{"phi": {format_float(phi)}, "x": {format_float(y / math.sqrt(2.0))}}}\n'
            for phi, y in zip(batch["phi"].tolist(), batch["y"].tolist())
        ))
        means = []
        for records in (y_records, x_records):
            assert cli.main(["reconstruct", "--config", config, "--records", str(records)]) == 0
            means.append(json.loads(capsys.readouterr().out)["mean"])
        assert means[1] == pytest.approx(means[0], rel=1e-14, abs=1e-14)


class TestRoundTrip:
    def test_simulate_then_reconstruct_same_config(self, tmp_path, vacuum_state_path, capsys):
        payload = {
            "seed": 11,
            "count": 4000,
            "state_path": vacuum_state_path,
            "records_path": str(tmp_path / "records.jsonl"),
            "output_path": str(tmp_path / "result.json"),
            "target": {"type": "photon-number"},
        }
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main(["simulate-homodyne", "--config", config]) == 0
        assert cli.main(["reconstruct", "--config", config]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["observable"] == "photon-number"
        assert result["count"] == 4000
        mean_re, mean_im = result["mean"]
        err_re, _ = result["stderr"]
        assert abs(mean_re) <= 4.0 * err_re
        assert mean_im == 0.0

    def test_spin_reconstruct_named_operator(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        m = np.zeros((2, 2), dtype=complex)
        m[1, 1] = 1.0  # spin up along z
        spin.save_spin_state(spin.SpinDensityMatrix(1, m), state)
        payload = {
            "seed": 5,
            "count": 3000,
            "state_path": str(state),
            "records_path": str(tmp_path / "records.jsonl"),
            "output_path": str(tmp_path / "result.json"),
            "target": {"type": "spin-operator", "name": "Jz", "two_j": 1},
        }
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main(["simulate-spin", "--config", config]) == 0
        assert cli.main(["reconstruct", "--config", config]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert abs(result["mean"][0] - 0.5) <= 4.0 * result["stderr"][0]

    @pytest.mark.parametrize("two_j", [2.9, True], ids=["float", "bool"])
    def test_named_operator_rejects_non_integer_two_j(self, tmp_path, capsys, two_j):
        state = tmp_path / "state.json"
        spin.save_spin_state(spin.maximally_mixed(2), state)
        payload = {
            "seed": 5,
            "count": 50,
            "state_path": str(state),
            "records_path": str(tmp_path / "records.jsonl"),
            "target": {"type": "spin-operator", "name": "Jz", "two_j": two_j},
        }
        config = write_config(tmp_path, "run.json", payload)
        # the target is checked before any mode runs, also one that reads none
        for mode in ("simulate-spin", "reconstruct"):
            assert cli.main([mode, "--config", config]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)["error"]
            assert err["code"] == "config"
            assert "'two_j'" in err["message"]
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "target",
        [{"type": "photon-number"}, {"type": "matrix-element", "n": 1, "l": 1}],
        ids=["photon-number", "matrix-element"],
    )
    def test_reconstruct_runs_write_identical_results(
        self, tmp_path, vacuum_state_path, capsys, target
    ):
        payload = {
            "seed": 4,
            "count": 2000,
            "state_path": vacuum_state_path,
            "records_path": str(tmp_path / "records.jsonl"),
            "target": target,
        }
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main(["simulate-homodyne", "--config", config]) == 0
        results = []
        for name in ("first.json", "second.json"):
            output = tmp_path / name
            assert cli.main(["reconstruct", "--config", config, "--output", str(output)]) == 0
            results.append(output.read_bytes())
        assert results[0] == results[1]
        assert json.loads(results[0])["count"] == 2000

    def test_floats_roundtrip_bit_faithfully(self, tmp_path, vacuum_state_path):
        payload = {
            "seed": 2,
            "count": 64,
            "state_path": vacuum_state_path,
            "records_path": str(tmp_path / "records.jsonl"),
        }
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main(["simulate-homodyne", "--config", config]) == 0
        records = homodyne.read_homodyne_records(tmp_path / "records.jsonl")
        direct = homodyne.sample_homodyne(homodyne.vacuum_state(8), 64, seed=2)
        assert np.array_equal(records, direct)


class TestKernelExport:
    def test_homodyne_kernel_csv(self, tmp_path):
        out = tmp_path / "kernel.csv"
        config = write_config(
            tmp_path,
            "export.json",
            {
                "seed": 0,
                "target": {"type": "matrix-element", "n": 0, "l": 0},
                "grid": {"min": -2.0, "max": 2.0, "points": 5},
                "output_path": str(out),
            },
        )
        assert cli.main(["kernel-export", "--config", config]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "grid_point,kernel_re,kernel_im"
        assert len(lines) == 6
        mid = [float(v) for v in lines[3].split(",")]
        assert mid[0] == 0.0
        assert mid[1] == pytest.approx(2.0, abs=1e-9)

    def test_spin_kernel_csv(self, tmp_path):
        out = tmp_path / "spin_kernel.csv"
        config = write_config(
            tmp_path,
            "export.json",
            {
                "target": {"type": "spin-operator", "name": "Jz", "two_j": 1, "two_lambda": 1},
                "grid": {"min": 0.0, "max": math.pi, "points": 3},
                "output_path": str(out),
            },
        )
        assert cli.main(["kernel-export", "--config", config]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        # sigma(J_z)(axis(theta), +1/2) = 1.5 cos(theta)
        assert float(rows[0][1]) == pytest.approx(1.5, abs=1e-12)
        assert float(rows[2][1]) == pytest.approx(-1.5, abs=1e-12)


    @staticmethod
    def export(tmp_path, target, grid):
        """Rows (grid point, re, im) that ``kernel-export`` writes, and the CSV path."""
        out = tmp_path / "kernel.csv"
        payload = {"target": target, "grid": grid, "output_path": str(out)}
        config = write_config(tmp_path, "export.json", payload)
        assert cli.main(["kernel-export", "--config", config]) == 0
        return np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2), out

    @pytest.mark.parametrize(
        "target, grid",
        [
            ({"type": "matrix-element", "n": 2, "l": 1}, {"min": -5.0, "max": 25.0, "points": 31}),
            ({"type": "matrix-element", "n": 2, "l": -1}, {"min": -4.0, "max": 4.0, "points": 9}),
            ({"type": "photon-number"}, {"min": -3.0, "max": 3.0, "points": 7}),
            (
                {"type": "spin-operator", "name": "Jx", "two_j": 2, "two_lambda": 0},
                {"min": 0.0, "max": 2.0 * math.pi, "points": 13},
            ),
            (
                {"type": "spin-matrix", "matrix": [[[1, 0], [0, -2]], [[0, 2], [-1, 0]]],
                 "two_lambda": -1},
                {"min": -1.0, "max": 4.0, "points": 11},
            ),
        ],
        ids=["element", "element-l-negative", "photon-number", "spin-operator", "spin-matrix"],
    )
    def test_rows_are_the_kernel_reconstruct_averages(self, tmp_path, target, grid):
        rows, _ = self.export(tmp_path, target, grid)
        xs = np.linspace(grid["min"], grid["max"], grid["points"])
        if target["type"].startswith("spin"):
            matrix = (
                spin.spin_matrices(2)[0] if target["type"] == "spin-operator"
                else np.array([[1, -2j], [2j, -1]])
            )
            kernel = spin.SpinOperatorKernel(matrix)
            axes = np.stack([np.sin(xs), np.zeros_like(xs), np.cos(xs)], axis=1)
            batch = spin.spin_records(axes, np.full(xs.size, target["two_lambda"]))
        else:
            kernel = (
                homodyne.PhotonNumberKernel() if target["type"] == "photon-number"
                else homodyne.MatrixElementKernel(target["n"], target["l"])
            )
            batch = homodyne.homodyne_records(np.zeros_like(xs), xs)
        values = kernel.evaluate(batch)
        assert np.array_equal(rows[:, 0], xs)
        assert np.array_equal(rows[:, 1], values.real)
        assert np.array_equal(rows[:, 2], values.imag)

    def test_photon_number_rows_are_the_parabola(self, tmp_path):
        grid = {"min": -3.0, "max": 3.0, "points": 7}
        _, out = self.export(tmp_path, {"type": "photon-number"}, grid)
        xs = np.linspace(-3.0, 3.0, 7)
        want = ["grid_point,kernel_re,kernel_im"]
        want += [f"{format_float(x)},{format_float(x * x - 0.5)},0.0" for x in xs]
        assert out.read_text() == "\n".join(want) + "\n"

    def test_matrix_element_rows_match_the_quadrature(self, tmp_path):
        grid = {"min": -20.0, "max": 20.0, "points": 41}
        rows, _ = self.export(tmp_path, {"type": "matrix-element", "n": 3, "l": 2}, grid)
        want = homodyne.kernel_matrix_element(3, 2, rows[:, 0])
        assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - want)) <= numerics.QUADRATURE_TOL

    def test_negative_l_is_the_conjugate_of_its_base_pair(self, tmp_path):
        grid = {"min": -4.0, "max": 4.0, "points": 17}
        rows, _ = self.export(tmp_path, {"type": "matrix-element", "n": 2, "l": -1}, grid)
        base, _ = self.export(tmp_path, {"type": "matrix-element", "n": 1, "l": 1}, grid)
        assert np.array_equal(rows[:, :2], base[:, :2])
        assert np.array_equal(rows[:, 2], -base[:, 2])
        assert np.any(rows[:, 2] != 0.0)

    def test_spin_rows_match_the_closed_form(self, tmp_path):
        target = {"type": "spin-operator", "name": "Jy", "two_j": 3, "two_lambda": -1}
        rows, _ = self.export(tmp_path, target, {"min": 0.0, "max": math.pi, "points": 17})
        jy = spin.spin_matrices(3)[1]
        for theta, re, im in rows:
            closed = spin.kernel_spin_closed(jy, (math.sin(theta), 0.0, math.cos(theta)), -1)
            assert abs(re - closed) <= 1e-12
            assert im == 0.0

    @pytest.mark.parametrize("two_lambda", [2, 3, -5])
    def test_two_lambda_outside_the_spin_is_a_config_error(self, tmp_path, capsys, two_lambda):
        out = tmp_path / "kernel.csv"
        target = {"type": "spin-operator", "name": "Jz", "two_j": 1, "two_lambda": two_lambda}
        grid = {"min": 0.0, "max": 1.0, "points": 2}
        payload = {"target": target, "grid": grid, "output_path": str(out)}
        config = write_config(tmp_path, "export.json", payload)
        assert cli.main(["kernel-export", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "config"
        assert f"two_m={two_lambda} invalid for two_j=1" in err["message"]
        assert not out.exists()


class TestModeFlags:
    READS = {
        "simulate-homodyne": {"config", "seed", "count", "state", "records"},
        "simulate-spin": {"config", "seed", "count", "state", "records"},
        "reconstruct": {"config", "records", "output"},
        "kernel-export": {"config", "output"},
        "validate": {"config", "seed", "output"},
    }

    def test_each_mode_takes_only_the_flags_it_reads(self, capsys):
        parser = cli._build_parser()
        taken = set()
        for mode in self.READS:
            for flag in ("config", "seed", "count", "state", "records", "output"):
                try:
                    parser.parse_args([mode, f"--{flag}", "1"])
                except SystemExit:
                    continue
                taken.add((mode, flag))
        assert taken == {(mode, flag) for mode, flags in self.READS.items() for flag in flags}
        assert len(taken) == 18

    def test_every_field_in_the_table_is_read_by_some_mode(self):
        modes = cli._MODES.values()
        read = {field for _, required, defaults in modes for field in (*required, *defaults)}
        assert read | {"mode"} == set(cli._FIELDS)
        assert len(cli._FIELDS) == 8

    class Reads(dict):
        """A dict that keeps the keys read from it."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

    TARGETS = {
        "matrix-element": {"n": 1, "l": 0},
        "photon-number": {},
        "spin-matrix": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "two_lambda": 1},
        "spin-operator": {"name": "Jx", "two_j": 1, "two_lambda": -1},
    }

    @pytest.mark.parametrize("kind", TARGETS)
    def test_every_field_in_the_target_and_grid_tables_is_read(self, tmp_path, kind):
        # kernel-export reads every field a target or grid table lists
        assert set(self.TARGETS) == set(cli._TARGETS)
        assert set(self.TARGETS[kind]) == set(cli._TARGETS[kind])
        target = self.Reads(type=kind, **self.TARGETS[kind])
        grid = self.Reads({"min": 0.0, "max": 1.0, "points": 2})
        cfg = {"target": target, "grid": grid, "output_path": str(tmp_path / "kernel.csv")}
        assert cli._MODES["kernel-export"][0](cfg) == 0
        assert target.read == {"type", *cli._TARGETS[kind]}
        assert grid.read == set(cli._GRID)

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--config", "c.json", "--seed", "5"],
            ["validate", "--records", "x"],
            ["kernel-export", "--config", "c.json", "--count", "3"],
            ["simulate-spin", "--config", "c.json", "--output", "o.json"],
        ],
    )
    def test_a_flag_the_mode_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_reconstruct_flags_override_the_paths(self, tmp_path, vacuum_state_path, capsys):
        records = tmp_path / "records.jsonl"
        payload = {
            "seed": 3,
            "count": 40,
            "state_path": vacuum_state_path,
            "records_path": str(tmp_path / "elsewhere.jsonl"),
            "target": {"type": "photon-number"},
        }
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main(["simulate-homodyne", "--config", config, "--records", str(records)]) == 0
        out = tmp_path / "result.json"
        argv = ["reconstruct", "--config", config, "--records", str(records), "--output", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["count"] == 40
        assert not (tmp_path / "elsewhere.jsonl").exists()


class TestValidate:
    def test_validate_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["validate", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "haar_volume" in stdout and "PASS" in stdout
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"haar_volume", "su2_jacobian_identity", "omega_normalization"} <= names

    def test_suite_takes_one_eigenbasis_per_orthogonality_level(self, monkeypatch):
        calls = []
        eigh = groups.axis_eigh

        def counted(two_j, axes):
            calls.append((two_j, len(axes)))
            return eigh(two_j, axes)

        monkeypatch.setattr(groups, "axis_eigh", counted)
        assert cli.run_validation_suite()["passed"] is True
        assert calls == [(1, 512), (1, 1152), (2, 512), (2, 1152)]

    def test_suite_stacks_its_quadratures(self, monkeypatch):
        # one oscillatory integral per two_j for all its axes and lambdas, one
        # eigenbasis per two_j in each spin oracle, one integral for all phases
        calls = {"integrate_oscillatory": 0, "integrate_real": 0, "axis_eigh": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(numerics, "integrate_oscillatory")
        counted(numerics, "integrate_real")
        counted(spin, "axis_eigh")
        assert cli.run_validation_suite()["passed"] is True
        assert calls == {"integrate_oscillatory": 3, "integrate_real": 1, "axis_eigh": 6}

    def test_suite_takes_one_eigenfunction_table_per_normalization_level(self, monkeypatch):
        # ten phases share psi_0..psi_8 at each of the ladder's two levels
        calls = []
        eigenfunctions = numerics.oscillator_eigenfunctions

        def counted(n_max, x):
            calls.append((n_max, np.size(x)))
            return eigenfunctions(n_max, x)

        monkeypatch.setattr(numerics, "oscillator_eigenfunctions", counted)
        assert cli.run_validation_suite()["passed"] is True
        assert [n_max for n_max, _ in calls] == [8, 8]
        assert calls[1][1] == 2 * calls[0][1]

    # each check's value from the suite that took one lambda and one phase
    # per call and summed the radial rule node by node; stacking and
    # regrouping those sums moves them by roundoff at most
    UNSTACKED_VALUES = {
        2024: [157.9136704174322, 4.79875270455657e-15, 5.298811969992215e-15,
               1.7763568394002505e-15, 2.220446049250313e-16, 6.661338147750939e-16],
        7: [157.9136704174322, 4.79875270455657e-15, 5.298811969992215e-15,
            8.881784197001252e-16, 2.220446049250313e-16, 6.661338147750939e-16],
    }

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_values_match_the_unstacked_suite(self, seed):
        report = cli.run_validation_suite(seed)
        values = [check["value"] for check in report["checks"]]
        assert report["passed"] is True
        # the Haar volume's sums are not regrouped, so it keeps every bit of
        # the sphere rule's weights, whose Gauss-Legendre part moved it by 1 ulp
        # from leggauss's 157.9136704174322
        assert values[0] == 157.91367041743214
        assert np.all(np.abs(np.subtract(values, self.UNSTACKED_VALUES[seed])) <= 1e-12)

    def test_traced_peak_stays_small(self):
        # chart points and matrix coefficients are formed in bounded blocks
        cli.run_validation_suite(2024)
        tracemalloc.start()
        try:
            assert cli.run_validation_suite(2024)["passed"] is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("seed", range(10))
    def test_suite_passes_at_every_seed(self, seed):
        report = cli.run_validation_suite(seed)
        assert report["passed"] is True
        assert len(report["checks"]) == 6

    def test_equal_seeds_give_identical_reports(self):
        first = cli.run_validation_suite(7)
        cli.run_validation_suite(8)
        assert cli.run_validation_suite(7) == first

    def test_drawn_inputs_have_the_promised_form(self):
        inputs = cli._validation_inputs(2024)
        axes = np.concatenate([inputs["axes"][two_j] for two_j in (1, 2, 3)])
        assert np.allclose(np.linalg.norm(axes, axis=1), 1.0)
        assert len({tuple(axis) for axis in axes}) == len(axes)
        assert np.all(inputs["hermitian"][3] == inputs["hermitian"][3].conj().T)
        assert np.linalg.matrix_rank(inputs["rho"]) == 7
        assert np.trace(inputs["rho"]).real == pytest.approx(1.0, abs=1e-15)
        assert np.all((inputs["phases"] >= 0.0) & (inputs["phases"] < 2.0 * np.pi))
        other = cli._validation_inputs(2025)
        assert not np.any(other["phases"] == inputs["phases"])

    @pytest.mark.parametrize("seed", [1.5, True, "7"], ids=["float", "bool", "string"])
    def test_rejects_non_integer_seed(self, tmp_path, capsys, seed):
        config = write_config(tmp_path, "validate.json", {"seed": seed})
        assert cli.main(["validate", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "config"
        assert "'seed'" in err["message"]


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        assert cli.main(["reconstruct"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "config"

    def test_mode_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.json", {"mode": "simulate-spin"})
        assert cli.main(["simulate-homodyne", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "mode" in err["error"]["message"]

    def test_missing_state_file(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "sim.json",
            {
                "seed": 1,
                "count": 5,
                "state_path": str(tmp_path / "nope.json"),
                "records_path": str(tmp_path / "r.jsonl"),
            },
        )
        assert cli.main(["simulate-spin", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] in ("file", "config")

    def test_bad_target_type(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "rec.json",
            {
                "records_path": str(tmp_path / "missing.jsonl"),
                "target": {"type": "mystery"},
            },
        )
        assert cli.main(["reconstruct", "--config", config]) == 2

    def test_quadrature_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise numerics.QuadratureError((1e22, 3e22), 1e-10)

        monkeypatch.setattr(homodyne, "kernel_matrix_element", diverge)
        # outcomes past the table's half-width Y ~ 32.9 go through the quadrature
        config = write_config(
            tmp_path,
            "export.json",
            {
                "target": {"type": "matrix-element", "n": 80, "l": 20},
                "grid": {"min": 40.0, "max": 41.0, "points": 2},
                "output_path": str(tmp_path / "kernel.csv"),
            },
        )
        assert cli.main(["kernel-export", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "quadrature"
        assert "did not converge" in err["error"]["message"]
        assert not (tmp_path / "kernel.csv").exists()

    # a panel ladder that cannot climb, and a degree ladder that stops at its start
    @pytest.mark.parametrize(
        "cap, value, message",
        [("_MAX_PANELS", 64, "did not converge"), ("_CHEBYSHEV_MAX_DEGREE", 8, "no Chebyshev")],
        ids=["panels", "degree"],
    )
    def test_a_failed_table_build_exits_2(self, tmp_path, capsys, monkeypatch, cap, value, message):
        monkeypatch.setattr(numerics, cap, value)
        config = write_config(
            tmp_path,
            "export.json",
            {
                "target": {"type": "matrix-element", "n": 80, "l": 20},
                "grid": {"min": 0.7, "max": 0.8, "points": 2},
                "output_path": str(tmp_path / "kernel.csv"),
            },
        )
        assert cli.main(["kernel-export", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "quadrature"
        assert message in err["message"]
        assert not (tmp_path / "kernel.csv").exists()

    def test_non_finite_record_names_its_line(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 1.0, "y": 0.5}\n{"phi": 1.0, "y": NaN}\n')
        config = write_config(
            tmp_path,
            "rec.json",
            {"records_path": str(records), "target": {"type": "photon-number"}},
        )
        assert cli.main(["reconstruct", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["code"] == "data"
        assert f"{records}:2:" in err["error"]["message"]
        assert "finite" in err["error"]["message"]

    def test_overflowing_estimator_is_a_data_error(self, tmp_path, capfd):
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 0.5, "x": 1.0}\n{"phi": 1.0, "x": 1e308}\n')
        config = write_config(
            tmp_path,
            "rec.json",
            {"records_path": str(records), "target": {"type": "photon-number"}},
        )
        with warnings.catch_warnings():
            # a numpy overflow warning would be one more line on stderr
            warnings.simplefilter("error")
            assert cli.main(["reconstruct", "--config", config]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["code"] == "data"
        assert err["error"]["message"].startswith(f"{records}:2: estimator value is not finite")


    def test_huge_outcome_is_a_quadrature_error_in_bounded_time(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 0.5, "y": 1.0}\n{"phi": 1.0, "y": 1e6}\n')
        config = write_config(
            tmp_path,
            "rec.json",
            {"records_path": str(records), "target": {"type": "matrix-element", "n": 0, "l": 0}},
        )
        start = time.perf_counter()
        assert cli.main(["reconstruct", "--config", config]) == 2
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "quadrature"
        assert "frequency 1000000.0 " in err["error"]["message"]

    def test_huge_finite_estimator_is_a_data_error(self, tmp_path, capfd):
        # y^2 - 1/2 = 1e308 is finite, but its squared deviation is not
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 0.5, "y": 1.0}\n{"phi": 1.0, "y": 1e154}\n')
        config = write_config(
            tmp_path,
            "rec.json",
            {"records_path": str(records), "target": {"type": "photon-number"}},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["reconstruct", "--config", config]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["code"] == "data"
        assert err["error"]["message"].startswith(f"{records}:2: estimator value is too large")

    @pytest.mark.parametrize(
        "lines, target, reason",
        [
            (
                ['{"phi": 0.5, "y": 1.0}', '{"phi": 1.0, "y": 1e154}'],
                {"type": "photon-number"},
                "estimator value is too large",
            ),
            (
                ['{"axis": [0.0, 0.0, 1.0], "two_m": 2}', '{"axis": [1.0, 0.0, 0.0], "two_m": 1}'],
                {"type": "spin-operator", "name": "Jz", "two_j": 2},
                "two_m invalid for two_j=2",
            ),
        ],
    )
    def test_value_failure_names_the_line_past_blank_lines(
        self, tmp_path, capsys, lines, target, reason
    ):
        records = tmp_path / "records.jsonl"
        records.write_text(lines[0] + "\n\n   \n" + lines[1] + "\n")
        config = write_config(
            tmp_path, "rec.json", {"records_path": str(records), "target": target}
        )
        assert cli.main(["reconstruct", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["code"] == "data"
        assert err["error"]["message"].startswith(f"{records}:4: {reason}")

    @pytest.mark.parametrize("mode", ["reconstruct", "kernel-export"])
    def test_config_with_a_cutoff_is_rejected(self, tmp_path, capsys, mode):
        # the field once set the homodyne kernel cutoff; an archived config
        # that sets it must not run with another meaning
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 0.5, "y": 1.0}\n')
        config = write_config(
            tmp_path,
            "cfg.json",
            {
                "records_path": str(records),
                "target": {"type": "matrix-element", "n": 0, "l": 0},
                "grid": {"min": 0.0, "max": 1.0, "points": 2},
                "output_path": str(tmp_path / "out"),
                "cutoff": 3.0,
            },
        )
        assert cli.main([mode, "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "config"
        assert "'cutoff'" in err["message"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def run_config(tmp_path, capsys, mode, extra):
        """Exit code and error object of ``mode`` over a config that would run
        but for ``extra``; asserts that nothing reached stdout or a file."""
        state = tmp_path / "state.json"
        homodyne.save_homodyne_state(homodyne.vacuum_state(2), state)
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 0.5, "y": 1.0}\n')
        payload = {
            "records_path": str(records),
            "target": {"type": "photon-number"},
            "grid": {"min": -1.0, "max": 1.0, "points": 3},
            "output_path": str(tmp_path / "out"),
            "state_path": str(state),
            "count": 5,
            "seed": 1,
            **extra,
        }
        before = sorted(tmp_path.iterdir())
        code = cli.main([mode, "--config", write_config(tmp_path, "cfg.json", payload)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == sorted([*before, tmp_path / "cfg.json"])
        assert records.read_text() == '{"phi": 0.5, "y": 1.0}\n'
        return code, json.loads(captured.err)["error"]

    @pytest.mark.parametrize(
        "mode, extra, field",
        [
            ("reconstruct", {"ouput_path": "typo.json"}, "ouput_path"),
            ("simulate-homodyne", {"convension": "X"}, "convension"),
            ("validate", {"seeed": 3}, "seeed"),
            (
                "reconstruct",
                {"target": {"type": "spin-operator", "name": "Jz"}, "two_j": 1},
                "two_j",
            ),
        ],
        ids=["reconstruct-output", "simulate-convention", "validate-seed", "top-level-two_j"],
    )
    def test_a_field_no_mode_reads_is_rejected(self, tmp_path, capsys, mode, extra, field):
        code, err = self.run_config(tmp_path, capsys, mode, extra)
        assert code == 2
        assert err == {"code": "config", "message": f"config field {field!r} is read by no mode"}

    @pytest.mark.parametrize("mode", ["reconstruct", "kernel-export"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                {"target": {"type": "matrix-element", "n": 0, "l": 0, "cutoff": 3.0, "two_lamda": 1}},
                "target field 'cutoff' is read by no mode",
            ),
            ({"target": {"type": "photon-number", "n": 4}}, "target field 'n' is read by no mode"),
            (
                {"grid": {"min": -1.0, "max": 1.0, "points": 3, "step": 0.1}},
                "grid field 'step' is read by no mode",
            ),
            (
                {"target": {"type": "matrix-element", "n": 0, "l": 0, "two_lambda": 1}},
                "target field 'two_lambda' is read by no mode",
            ),
            (
                {"target": {"type": "spin-operator", "name": "Jz", "two_j": 1, "two_lamda": 1}},
                "target field 'two_lamda' is read by no mode",
            ),
            ({"target": {"n": 0, "l": 0}}, "config is missing required field 'type'"),
            (
                {"target": {"type": "spin-operator", "name": "Jw", "two_j": 1}},
                "field 'name' must be 'Jx' or 'Jy' or 'Jz', got 'Jw'",
            ),
            ({"grid": {"min": -1.0, "max": 1.0, "points": 2.0}}, "field 'points' has wrong type float"),
            (
                {"grid": {"min": -(10**400), "max": 1.0, "points": 3}},
                "field 'min' must be finite, got an integer too large for a float",
            ),
        ],
        ids=[
            "element-cutoff", "photon-number-n", "grid-step", "element-two_lambda",
            "spin-two_lamda", "no-type", "spin-name", "grid-points", "grid-min-too-large",
        ],
    )
    def test_target_and_grid_fields_are_checked_by_their_tables(
        self, tmp_path, capsys, mode, extra, message
    ):
        code, err = self.run_config(tmp_path, capsys, mode, extra)
        assert code == 2
        assert err == {"code": "config", "message": message}

    SPIN_UP = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

    @pytest.mark.parametrize(
        "mode, target, field",
        [
            ("reconstruct", {"type": "matrix-element", "n": 0}, "l"),
            ("reconstruct", {"type": "spin-operator", "name": "Jz"}, "two_j"),
            ("kernel-export", {"type": "spin-matrix", "matrix": SPIN_UP}, "two_lambda"),
        ],
        ids=["element-l", "spin-two_j", "export-two_lambda"],
    )
    def test_a_missing_target_field_is_named(self, tmp_path, capsys, mode, target, field):
        code, err = self.run_config(tmp_path, capsys, mode, {"target": target})
        assert code == 2
        assert err == {"code": "config", "message": f"config is missing required field {field!r}"}

    @pytest.mark.parametrize(
        "mode, extra, message",
        [
            ("reconstruct", {"count": "10"}, "field 'count' has wrong type str"),
            ("simulate-spin", {"output_path": 3}, "field 'output_path' has wrong type int"),
            ("validate", {"target": []}, "field 'target' has wrong type list"),
        ],
        ids=["reconstruct-count", "simulate-output", "validate-target"],
    )
    def test_a_field_another_mode_reads_is_still_checked(
        self, tmp_path, capsys, mode, extra, message
    ):
        code, err = self.run_config(tmp_path, capsys, mode, extra)
        assert code == 2
        assert err["code"] == "config"
        assert message in err["message"]

    @pytest.mark.parametrize("bound", ["min", "max"])
    @pytest.mark.parametrize("value", [True, "1", None], ids=["bool", "string", "null"])
    def test_grid_bounds_are_json_numbers(self, tmp_path, capsys, bound, value):
        grid = {"min": 0.0, "max": 2.0, "points": 3, bound: value}
        code, err = self.run_config(tmp_path, capsys, "kernel-export", {"grid": grid})
        assert code == 2
        assert err == {
            "code": "config", "message": f"field {bound!r} has wrong type {type(value).__name__}"
        }

    def test_kernel_degree_is_checked_before_the_records_are_read(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"phi": 0.5, "y": 1.0}\n{"phi": 9.0, "y": 1.0}\n')
        target = {"type": "matrix-element", "n": 300, "l": 0}
        payload = {"records_path": str(records), "target": target}
        config = write_config(tmp_path, "rec.json", payload)
        assert cli.main(["reconstruct", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err == {"code": "config", "message": "ValueError: n + l must not exceed 200"}

    @pytest.mark.parametrize(
        "mode, target",
        [
            ("kernel-export", {"type": "spin-operator", "name": "Jz", "two_lambda": 0}),
            ("reconstruct", {"type": "spin-operator", "name": "Jx"}),
            ("reconstruct", {"type": "spin-matrix"}),
            ("simulate-spin", None),
        ],
        ids=["export-named", "reconstruct-named", "reconstruct-matrix", "simulate-state"],
    )
    def test_spin_past_the_size_limit_fails_fast(self, tmp_path, capsys, mode, target):
        two_j = spin.MAX_TWO_J + 1
        state = tmp_path / "state.json"
        spin.save_spin_state(spin.maximally_mixed(two_j), state)
        records = tmp_path / "records.jsonl"
        records.write_text(f'{{"axis": [0.0, 0.0, 1.0], "two_m": {two_j}}}\n')
        payload = {
            "seed": 1,
            "count": 1000,
            "state_path": str(state),
            "records_path": str(records),
            "grid": {"min": 0.0, "max": 1.0, "points": 2},
            "output_path": str(tmp_path / "out"),
        }
        ones = [[[1, 0]] * (two_j + 1)] * (two_j + 1)
        sizes = {"spin-operator": {"two_j": two_j}, "spin-matrix": {"matrix": ones}}
        if target is not None:
            payload["target"] = {**target, **sizes[target["type"]]}
        config = write_config(tmp_path, "run.json", payload)
        start = time.perf_counter()
        assert cli.main([mode, "--config", config]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "config"
        assert f"two_j must be in 1..{spin.MAX_TWO_J}, got {two_j}" in err["message"]
        assert not (tmp_path / "out").exists()
        assert records.read_text() == f'{{"axis": [0.0, 0.0, 1.0], "two_m": {two_j}}}\n'

    @pytest.mark.parametrize(
        "mode, state, message",
        [
            (
                "simulate-homodyne",
                {"n_max": 2.7, "rho": [[[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3]},
                "'n_max'",
            ),
            ("simulate-spin", {"two_j": True, "rho": SPIN_UP}, "'two_j'"),
            ("simulate-spin", {"two_j": "1", "rho": SPIN_UP}, "'two_j'"),
            ("simulate-spin", {"two_j": 1, "rho": [[[True, 0], [0, 0]], SPIN_UP[1]]}, "rho[0][0]"),
            (
                "simulate-spin",
                {"two_j": 1, "rho": [[[10**400, 0], [0, 0]], SPIN_UP[1]]},
                "rho[0][0] must be finite, got an integer too large for a float",
            ),
            ("simulate-spin", {"two_j": 1, "rho": [[[math.nan, 0], [0, 0]], SPIN_UP[1]]}, "= nan"),
        ],
        ids=["fractional-size", "bool-size", "string-size", "bool-entry", "huge-entry", "nan-entry"],
    )
    def test_state_file_is_read_strictly(self, tmp_path, capsys, mode, state, message):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state), encoding="utf-8")
        records = tmp_path / "records.jsonl"
        config = write_config(
            tmp_path,
            "sim.json",
            {"seed": 1, "count": 5, "state_path": str(state_path), "records_path": str(records)},
        )
        assert cli.main([mode, "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "config"
        assert message in err["message"]
        assert not records.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            (
                '{"target": {"type": "matrix-element", "n": 1, "l": 1}, "grid": {"min": -'
                + "1" * 5001 + ', "max": 3, "points": 7}, "output_path": "kernel.csv"}',
                "Exceeds the limit (4300 digits) for integer string conversion",
            ),
            ('{"output_path": "kernel.csv",', "Expecting property name"),
        ],
        ids=["past-the-digit-limit", "not-json"],
    )
    def test_an_unreadable_config_names_its_file(self, tmp_path, capsys, text, reason):
        if "4300" in reason and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer digits")
        config = tmp_path / "kernel.json"
        config.write_text(text, encoding="utf-8")
        assert cli.main(["kernel-export", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "config"
        assert err["message"].startswith(f"config file {config} cannot be read as JSON: {reason}")
        assert not (tmp_path / "kernel.csv").exists()

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no limit on integer digits"
    )
    def test_a_state_integer_past_the_digit_limit_names_the_state_file(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"two_j": 1, "rho": [[[' + "1" * 5001 + ", 0], [0, 0]], [[0, 0], [0, 0]]]}")
        records = tmp_path / "records.jsonl"
        config = write_config(
            tmp_path, "sim.json",
            {"seed": 1, "count": 5, "state_path": str(state), "records_path": str(records)},
        )
        assert cli.main(["simulate-spin", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "config"
        assert err["message"].startswith(
            f"ValueError: state file {state} cannot be read as JSON: Exceeds the limit (4300 digits)"
        )
        assert not records.exists()

    @pytest.mark.parametrize(
        "mode, field, value, message",
        [
            ("simulate-homodyne", "records_path", None, "missing required field 'records_path'"),
            ("simulate-spin", "records_path", None, "missing required field 'records_path'"),
            ("simulate-homodyne", "records_path", 3, "field 'records_path' has wrong type"),
            ("simulate-homodyne", "convention", "Z", "config field 'convention' is read by no mode"),
            ("simulate-spin", "seed", 1.5, "field 'seed' has wrong type"),
            (
                "simulate-homodyne",
                "target",
                {"type": "photon-number", "n": 4},
                "target field 'n' is read by no mode",
            ),
            (
                "simulate-spin",
                "target",
                {"type": "spin-operator", "name": "Jz", "two_j": 1.5},
                "field 'two_j' has wrong type float",
            ),
            ("simulate-spin", "grid", {"min": 0.0, "max": 1.0, "step": 0.1}, "grid field 'step'"),
        ],
        ids=[
            "homodyne-records", "spin-records", "records-type", "convention", "seed-type",
            "homodyne-target", "spin-target", "grid",
        ],
    )
    def test_every_field_is_checked_before_sampling(
        self, tmp_path, capsys, monkeypatch, mode, field, value, message
    ):
        def never(*args):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(homodyne, "sample_homodyne", never)
        monkeypatch.setattr(spin, "sample_spin", never)
        state = tmp_path / "state.json"
        if mode == "simulate-spin":
            spin.save_spin_state(spin.maximally_mixed(1), state)
        else:
            homodyne.save_homodyne_state(homodyne.vacuum_state(4), state)
        records = tmp_path / "records.jsonl"
        payload = dict(seed=1, count=200_000, state_path=str(state), records_path=str(records))
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        config = write_config(tmp_path, "sim.json", payload)
        assert cli.main([mode, "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "config"
        assert message in err["message"]
        assert not records.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
    @pytest.mark.parametrize(
        "target",
        [{"type": "photon-number"}, {"type": "spin-operator", "name": "Jz", "two_j": 1}],
        ids=["homodyne", "spin"],
    )
    def test_file_without_records_is_a_data_error(self, tmp_path, capsys, text, target):
        records = tmp_path / "records.jsonl"
        records.write_text(text)
        config = write_config(
            tmp_path, "rec.json", {"records_path": str(records), "target": target}
        )
        assert cli.main(["reconstruct", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "data"
        assert err["message"] == f"{records}: file holds no records"

    @pytest.mark.parametrize(
        "mode, field",
        [
            ("simulate-homodyne", "records_path"),
            ("simulate-spin", "records_path"),
            ("reconstruct", "records_path"),
            ("simulate-homodyne", "state_path"),
            ("simulate-spin", "state_path"),
            ("validate", "output_path"),
            ("kernel-export", "output_path"),
        ],
    )
    def test_a_directory_path_is_a_file_error(self, tmp_path, capsys, mode, field):
        state = tmp_path / "state.json"
        if mode == "simulate-spin":
            spin.save_spin_state(spin.maximally_mixed(1), state)
            target = {"type": "spin-operator", "name": "Jz", "two_j": 1, "two_lambda": 1}
        else:
            homodyne.save_homodyne_state(homodyne.vacuum_state(4), state)
            target = {"type": "photon-number"}
        payload = {
            "seed": 1,
            "count": 5,
            "state_path": str(state),
            "records_path": str(tmp_path / "records.jsonl"),
            "output_path": str(tmp_path / "out"),
            "target": target,
            "grid": {"min": -1.0, "max": 1.0, "points": 3},
        }
        flags = []
        if field == "output_path":
            flags = ["--output", str(tmp_path)]
        else:
            payload[field] = str(tmp_path)
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main([mode, "--config", config, *flags]) == 2
        # the stderr is the error object alone: no traceback
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "file", "message": f"Is a directory: {tmp_path}"}

    @pytest.mark.parametrize(
        "mode, target",
        [
            ("simulate-homodyne", None),
            ("simulate-spin", None),
            ("kernel-export", {"type": "photon-number"}),
            ("kernel-export", {"type": "spin-operator", "name": "Jz", "two_j": 1, "two_lambda": 1}),
        ],
        ids=["simulate-homodyne", "simulate-spin", "kernel-export-homodyne", "kernel-export-spin"],
    )
    def test_a_size_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys, mode, target):
        # 10**16 records or points take more bytes than a 64-bit address
        # space holds, so the allocation fails at once and touches no memory
        state = tmp_path / "state.json"
        if mode == "simulate-spin":
            spin.save_spin_state(spin.maximally_mixed(1), state)
        else:
            homodyne.save_homodyne_state(homodyne.vacuum_state(4), state)
        if target is None:
            field, output = "count", tmp_path / "records.jsonl"
            payload = dict(seed=1, count=10**16, state_path=str(state), records_path=str(output))
        else:
            field, output = "points", tmp_path / "kernel.csv"
            grid = {"min": -1.0, "max": 1.0, "points": 10**16}
            payload = dict(target=target, grid=grid, output_path=str(output))
        config = write_config(tmp_path, "run.json", payload)
        assert cli.main([mode, "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err == {
            "code": "config",
            "message": f"field {field!r} is too large: its arrays cannot be allocated",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "state.json"]


def modules_after_main(tmp_path, argv):
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    modules it left in ``sys.modules``."""
    out = tmp_path / "modules.json"
    script = (
        "import json, sys\n"
        "from qtomo import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[2:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "open(sys.argv[1], 'w').write(json.dumps([code, sorted(sys.modules)]))\n"
    )
    run_python(tmp_path, script, str(out), *argv)
    code, modules = json.loads(out.read_text())
    return code, set(modules)


def run_python(cwd, script, *args) -> str:
    """Stdout of ``script`` in a fresh interpreter that imports this qtomo."""
    src = str(Path(qtomo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImports:
    """Each mode imports only the modules it runs, checked in a fresh interpreter."""

    @pytest.mark.parametrize(
        "argv, code", [(["--help"], 0), (["reconstruct", "--seed", "5"], 2)], ids=["help", "usage"]
    )
    def test_help_and_usage_errors_load_no_numpy(self, tmp_path, argv, code):
        exit_code, modules = modules_after_main(tmp_path, argv)
        assert exit_code == code
        assert "numpy" not in modules
        assert {m for m in modules if m.startswith("qtomo")} == {"qtomo", "qtomo.cli"}

    @pytest.fixture()
    def configs(self, tmp_path, vacuum_state_path, spin_state_path):
        """One config per mode run, and the spin records a spin reconstruct reads."""
        spin_records = tmp_path / "spin.jsonl"
        common = {"seed": 3, "count": 50, "output_path": str(tmp_path / "out")}
        configs = {
            "simulate-homodyne": {
                **common,
                "state_path": vacuum_state_path,
                "records_path": str(tmp_path / "homodyne.jsonl"),
            },
            "simulate-spin": {
                **common,
                "state_path": spin_state_path,
                "records_path": str(spin_records),
            },
            "reconstruct-spin": {
                **common,
                "records_path": str(spin_records),
                "target": {"type": "spin-operator", "name": "Jz", "two_j": 1},
            },
            "kernel-export-homodyne": {
                **common,
                "target": {"type": "matrix-element", "n": 1, "l": 1},
                "grid": {"min": -1.0, "max": 1.0, "points": 3},
            },
            "validate": common,
        }
        paths = {name: write_config(tmp_path, f"{name}.json", cfg) for name, cfg in configs.items()}
        assert cli.main(["simulate-spin", "--config", paths["simulate-spin"]]) == 0
        return paths

    @pytest.mark.parametrize(
        "mode, config, absent",
        [
            ("simulate-homodyne", "simulate-homodyne", {"qtomo.spin", "qtomo.groups", "qtomo.mc"}),
            ("simulate-spin", "simulate-spin", {"qtomo.homodyne", "qtomo.groups"}),
            ("reconstruct", "reconstruct-spin", {"qtomo.homodyne", "qtomo.groups"}),
            ("kernel-export", "kernel-export-homodyne", {"qtomo.spin", "qtomo.groups", "qtomo.mc"}),
        ],
        ids=["simulate-homodyne", "simulate-spin", "reconstruct-spin", "kernel-export-homodyne"],
    )
    def test_each_mode_loads_only_its_quorum(self, tmp_path, configs, mode, config, absent):
        code, modules = modules_after_main(tmp_path, [mode, "--config", configs[config]])
        assert code == 0
        assert not modules & absent

    @pytest.mark.parametrize(
        "mode, config",
        [
            ("simulate-homodyne", "simulate-homodyne"),
            ("simulate-spin", "simulate-spin"),
            ("reconstruct", "reconstruct-spin"),
            ("kernel-export", "kernel-export-homodyne"),
            ("validate", "validate"),
        ],
        ids=["simulate-homodyne", "simulate-spin", "reconstruct", "kernel-export", "validate"],
    )
    def test_no_mode_loads_numpy_random(self, tmp_path, configs, mode, config):
        if run_python(tmp_path, "import numpy, sys; print('numpy.random' in sys.modules)") == "True\n":
            pytest.skip("a bare numpy import loads numpy.random here")
        code, modules = modules_after_main(tmp_path, [mode, "--config", configs[config]])
        assert code == 0
        assert "numpy.random" not in modules

    def test_matrix_element_reconstruct_loads_no_masked_arrays(self, tmp_path, vacuum_state_path):
        if run_python(tmp_path, "import numpy, sys; print('numpy.ma' in sys.modules)") == "True\n":
            pytest.skip("a bare numpy import loads numpy.ma here")
        records = tmp_path / "records.jsonl"
        config = write_config(
            tmp_path,
            "run.json",
            {
                "seed": 2,
                "count": 100,
                "state_path": vacuum_state_path,
                "records_path": str(records),
                "target": {"type": "matrix-element", "n": 0, "l": 1},
            },
        )
        assert cli.main(["simulate-homodyne", "--config", config]) == 0
        code, modules = modules_after_main(tmp_path, ["reconstruct", "--config", config])
        assert code == 0
        assert "qtomo.numerics" in modules
        assert "numpy.ma" not in modules

    def test_homodyne_modes_load_no_numpy_polynomial(self, tmp_path, vacuum_state_path):
        if run_python(tmp_path, "import numpy, sys; print('numpy.polynomial' in sys.modules)") == "True\n":
            pytest.skip("a bare numpy import loads numpy.polynomial here")
        run = {
            "seed": 2,
            "count": 100,
            "state_path": vacuum_state_path,
            "records_path": str(tmp_path / "records.jsonl"),
            "output_path": str(tmp_path / "out"),
        }
        runs = [
            ("simulate-homodyne", run),
            ("reconstruct", {**run, "target": {"type": "matrix-element", "n": 0, "l": 1}}),
            ("reconstruct", {**run, "target": {"type": "photon-number"}}),
            (
                "kernel-export",
                {
                    "target": {"type": "matrix-element", "n": 1, "l": 1},
                    "grid": {"min": -1.0, "max": 1.0, "points": 3},
                    "output_path": str(tmp_path / "kernel.csv"),
                },
            ),
        ]
        for i, (mode, cfg) in enumerate(runs):
            config = write_config(tmp_path, f"run_{i}.json", cfg)
            code, modules = modules_after_main(tmp_path, [mode, "--config", config])
            assert code == 0
            assert "qtomo.numerics" in modules
            assert "numpy.polynomial" not in modules, (mode, cfg.get("target"))

    def test_homodyne_runs_that_never_integrate_never_build_the_panel_rule(
        self, tmp_path, vacuum_state_path
    ):
        config = write_config(tmp_path, "run.json", {
            "seed": 2,
            "count": 100,
            "state_path": vacuum_state_path,
            "records_path": str(tmp_path / "records.jsonl"),
            "target": {"type": "photon-number"},
        })
        script = (
            "import sys\n"
            "from qtomo import cli, numerics\n"
            "builds = []\n"
            "for mode in ('simulate-homodyne', 'reconstruct'):\n"
            "    assert cli.main([mode, '--config', sys.argv[1]]) == 0\n"
            "    builds.append(numerics._gl_rule.cache_info().misses)\n"
            "print(builds)\n"
        )
        assert run_python(tmp_path, script, config).splitlines()[-1] == "[0, 0]"

    def test_spin_modes_and_validate_load_no_numpy_polynomial(self, tmp_path, configs):
        if run_python(tmp_path, "import numpy, sys; print('numpy.polynomial' in sys.modules)") == "True\n":
            pytest.skip("a bare numpy import loads numpy.polynomial here")
        for mode, config in (
            ("simulate-spin", "simulate-spin"),
            ("reconstruct", "reconstruct-spin"),
            ("validate", "validate"),
        ):
            code, modules = modules_after_main(tmp_path, [mode, "--config", configs[config]])
            assert code == 0
            assert "qtomo.spin" in modules
            assert "numpy.polynomial" not in modules, mode

    def test_package_loads_submodules_on_first_use(self, tmp_path):
        script = (
            "import sys\n"
            "import qtomo\n"
            "assert [m for m in sys.modules if m.startswith('qtomo.')] == [], sys.modules\n"
            "assert 'numpy' not in sys.modules\n"
            "assert set(qtomo.__all__) <= set(dir(qtomo))\n"
            "assert qtomo.spin.__name__ == 'qtomo.spin'\n"
            "assert 'qtomo.homodyne' not in sys.modules\n"
            "from qtomo import *\n"
            "assert homodyne.__name__ == 'qtomo.homodyne' and mc.__name__ == 'qtomo.mc'\n"
            "try:\n"
            "    qtomo.missing\n"
            "except AttributeError:\n"
            "    print('ok')\n"
        )
        assert run_python(tmp_path, script) == "ok\n"



class TestShardedCodec:
    """The record codec forks children to format and parse shards; its
    records and results match a one-shard run byte for byte, also when the
    parent holds a BLAS thread pool."""

    SCRIPT = (
        "import json, os, sys\n"
        "from qtomo import _jsonio, cli\n"
        "_jsonio._cores = lambda: int(sys.argv[1])\n"
        "forks, fork = [], os.fork\n"
        "def counted():\n"
        "    pid = fork()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counted\n"
        "for mode in ('simulate-spin', 'reconstruct'):\n"
        "    assert cli.main([mode, '--config', sys.argv[2]]) == 0\n"
        "print(len(forks))\n"
    )

    def test_two_shards_under_a_threaded_blas(self, tmp_path, monkeypatch):
        state = tmp_path / "state.json"
        rng = np.random.default_rng(31)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        spin.save_spin_state(spin.SpinDensityMatrix(2, np.outer(psi, psi.conj())), state)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        outputs = {}
        for cores in (1, 2):
            run = tmp_path / f"cores_{cores}"
            run.mkdir()
            config = write_config(run, "run.json", {
                "seed": 4,
                "count": 40_000,
                "state_path": str(state),
                "records_path": str(run / "records.jsonl"),
                "output_path": str(run / "result.json"),
                "target": {"type": "spin-operator", "name": "Jx", "two_j": 2},
            })
            forks = run_python(run, self.SCRIPT, str(cores), config).splitlines()[-1]
            # one writer child and one reader child at two shards
            assert forks == str(2 * (cores - 1))
            outputs[cores] = [(run / name).read_bytes() for name in ("records.jsonl", "result.json")]
        assert outputs[1] == outputs[2]


def run_cli(cwd, argv, stdin="", env=None) -> subprocess.CompletedProcess:
    """``qtomo argv`` in a fresh interpreter fed ``stdin`` through a pipe."""
    src = str(Path(qtomo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qtomo.cli", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestRecordsFromAPipe:
    """A pipe can be read once: ``reconstruct`` maps a bad record to its
    line from that one read."""

    def reconstruct(self, tmp_path, target, text):
        payload = {"records_path": "/dev/stdin", "target": target}
        config = write_config(tmp_path, "pipe.json", payload)
        return run_cli(tmp_path, ["reconstruct", "--config", config], stdin=text)

    def test_result_matches_the_file_read(self, tmp_path):
        # the file takes the canonical reader, the pipe the general one
        text = '{"phi": 0.5, "y": 0.25}\n{"phi": 1.5, "y": -0.75}\n'
        (tmp_path / "records.jsonl").write_text(text)
        target = {"type": "matrix-element", "n": 0, "l": 1}
        piped = self.reconstruct(tmp_path, target, text)
        payload = {"records_path": "records.jsonl", "target": target}
        config = write_config(tmp_path, "file.json", payload)
        from_file = run_cli(tmp_path, ["reconstruct", "--config", config])
        assert piped.returncode == from_file.returncode == 0, piped.stderr
        assert piped.stdout == from_file.stdout

    def test_record_the_batch_rejects_names_its_line(self, tmp_path):
        text = '{"phi": 0.5, "y": 0.25}\n{"phi": 7.0, "y": 0.25}\n'
        proc = self.reconstruct(tmp_path, {"type": "photon-number"}, text)
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)["error"]
        assert err["code"] == "data"
        assert err["message"].startswith("/dev/stdin:2: phi must lie in [0, 2 pi)")

    def test_record_the_kernel_rejects_names_its_line(self, tmp_path):
        text = '\n{"axis": [0.0, 0.0, 1.0], "two_m": 1}\n{"axis": [0.0, 0.0, 1.0], "two_m": 2}\n'
        target = {"type": "spin-operator", "name": "Jz", "two_j": 1}
        proc = self.reconstruct(tmp_path, target, text)
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)["error"]
        assert err == {"code": "data", "message": "/dev/stdin:3: two_m invalid for two_j=1, got 2"}


def test_reconstruct_does_not_depend_on_the_blas_thread_count(tmp_path):
    """A BLAS reduction may sum in another order on more threads; the
    result file is the same bytes under one BLAS thread and two."""
    spin.save_spin_state(spin.maximally_mixed(1), tmp_path / "state.json")
    config = write_config(tmp_path, "run.json", {
        "seed": 3,
        "count": 40_000,
        "state_path": str(tmp_path / "state.json"),
        "records_path": str(tmp_path / "records.jsonl"),
        "target": {"type": "spin-operator", "name": "Jx", "two_j": 1},
    })
    assert cli.main(["simulate-spin", "--config", config]) == 0
    results = set()
    for threads in ("1", "2"):
        env = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        proc = run_cli(tmp_path, ["reconstruct", "--config", config], env=env)
        assert proc.returncode == 0, proc.stderr
        results.add(proc.stdout)
    assert len(results) == 1


class TestJsonSerializer:
    def test_nested_payload(self):
        text = dumps({"a": [1, 2.5, None, True], "b": {"c": "x"}})
        assert json.loads(text) == {"a": [1, 2.5, None, True], "b": {"c": "x"}}

    def test_float_precision(self):
        value = 0.1 + 0.2
        assert json.loads(dumps({"v": value}))["v"] == value
