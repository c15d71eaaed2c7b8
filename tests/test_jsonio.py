"""Record I/O: the canonical-line fast path against format_float and the
general per-line reader."""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest

from qtomo import _jsonio, cli, homodyne, spin
from qtomo._jsonio import RecordError, format_float

SQRT2 = math.sqrt(2.0)

EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 123456789.0, 2.0**52, 2.0**53, 2.0**53 + 2.0,
    1e15, 1e16, -1e16, 99999999999999984.0, 1e17, -1e17, 1e22, 1.7976931348623157e308,
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 0.1, 1.5, -0.5,
    1e-5, 1e-300, 4503599627370495.5, 1234567890123456.8,
]


def random_floats(rng, size):
    """Random signed values over many binades, with the edge values mixed in."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    values[rng.integers(0, size, 3 * len(EDGE_FLOATS))] = np.repeat(EDGE_FLOATS, 3)
    return values


def spin_batch(axes, two_m):
    batch = np.empty(len(two_m), dtype=spin.SPIN_DTYPE)
    batch["axis"], batch["two_m"] = axes, two_m
    return batch


def homodyne_batch(phi, y):
    batch = np.empty(len(phi), dtype=homodyne.HOMODYNE_DTYPE)
    batch["phi"], batch["y"] = phi, y
    return batch


def spin_reference(records) -> str:
    """The per-line writer, one format_float per value."""
    return "".join(
        f'{{"axis": [{", ".join(format_float(c) for c in axis)}], "two_m": {two_m}}}\n'
        for axis, two_m in zip(records["axis"].tolist(), records["two_m"].tolist())
    )


def homodyne_reference(records, key="y") -> str:
    outcome = records["y"] if key == "y" else records["y"] / SQRT2
    return "".join(
        f'{{"phi": {format_float(phi)}, "{key}": {format_float(value)}}}\n'
        for phi, value in zip(records["phi"].tolist(), outcome.tolist())
    )


# (reader, row, build) of each record kind
KINDS = {
    "spin": (spin.read_spin_records, spin._row_from_json, spin._batch_from_rows),
    "homodyne": (homodyne.read_homodyne_records, homodyne._row_from_json, homodyne._batch_from_rows),
}
FIRST_LINE = {
    "spin": '{"axis": [0.0, 0.0, 1.0], "two_m": 1}',
    "homodyne": '{"phi": 0.5, "y": 0.25}',
}


# a regex that matches no line, so read_jsonl takes the general per-line
# reader alone
NO_LINE = re.compile(rb"(?!)")


def general_read(kind, path):
    _, row, build = KINDS[kind]
    return _jsonio.read_jsonl(path, row, build, NO_LINE)


def outcome(read, path):
    """The batch bytes a reader gives, or the message of its RecordError."""
    try:
        return read(path).tobytes()
    except RecordError as exc:
        return f"RecordError: {exc}"


@pytest.fixture
def general_reads(monkeypatch):
    """The paths the general per-line reader ran on, one per call."""
    calls = []
    original = _jsonio._read_lines

    def counted(path, row):
        calls.append(path)
        return original(path, row)

    monkeypatch.setattr(_jsonio, "_read_lines", counted)
    return calls


class TestWriter:
    def test_spin_bytes_match_format_float(self, tmp_path):
        rng = np.random.default_rng(5)
        size = 2 * 8192 + 17
        axes = rng.standard_normal((size, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        # the ±1 and ±0 components of the coordinate axes
        axes[:6] = np.vstack([np.eye(3), -np.eye(3)])
        axes[size - 3 :] = [[0.0, -0.0, 1.0], [-0.0, 1.0, 0.0], [-1.0, 0.0, -0.0]]
        axes[8192:8195] = random_floats(rng, 9).reshape(3, 3)
        records = spin_batch(axes, rng.integers(-40, 41, size))
        path = tmp_path / "records.jsonl"
        spin.write_spin_records(records, path)
        assert path.read_text() == spin_reference(records)

    def test_homodyne_bytes_match_format_float(self, tmp_path):
        rng = np.random.default_rng(6)
        size = 2 * 8192 + 17
        records = homodyne_batch(random_floats(rng, size), random_floats(rng, size))
        path = tmp_path / "records.jsonl"
        homodyne.write_homodyne_records(records, path)
        assert path.read_text() == homodyne_reference(records)

    def test_every_edge_value_in_every_field(self, tmp_path):
        edges = np.array(EDGE_FLOATS)
        zeros = np.zeros_like(edges)
        for phi, y in ((edges, zeros), (zeros, edges), (edges, edges[::-1])):
            records = homodyne_batch(phi, y)
            homodyne.write_homodyne_records(records, tmp_path / "records.jsonl")
            assert (tmp_path / "records.jsonl").read_text() == homodyne_reference(records)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_after_the_rows_before_it(self, tmp_path, bad):
        rng = np.random.default_rng(7)
        records = homodyne_batch(rng.random(8200), rng.random(8200))
        records["y"][8195] = bad
        path = tmp_path / "records.jsonl"
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            homodyne.write_homodyne_records(records, path)
        assert path.read_text() == homodyne_reference(records[:8195])

    def test_first_non_finite_value_of_a_row_is_named(self, tmp_path):
        records = spin_batch([[0.0, math.inf, math.nan]], [0])
        with pytest.raises(ValueError, match=r"^cannot serialize non-finite float inf$"):
            spin.write_spin_records(records, tmp_path / "records.jsonl")

    def test_empty_batch_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        homodyne.write_homodyne_records(homodyne_batch([], []), path)
        assert path.read_bytes() == b""


class TestReaderParity:
    def test_spin_fast_matches_general(self, tmp_path, general_reads):
        rng = np.random.default_rng(11)
        rho = spin.SpinDensityMatrix(3, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
        path = tmp_path / "records.jsonl"
        spin.write_spin_records(spin.sample_spin(rho, 9000, seed=int(rng.integers(1 << 30))), path)
        fast = spin.read_spin_records(path)
        assert general_reads == []
        assert fast.tobytes() == general_read("spin", path).tobytes()

    def test_homodyne_fast_matches_general(self, tmp_path, general_reads):
        rng = np.random.default_rng(12)
        records = homodyne_batch(rng.uniform(0.0, 2.0 * math.pi, 9000), random_floats(rng, 9000))
        path = tmp_path / "records.jsonl"
        homodyne.write_homodyne_records(records, path)
        fast = homodyne.read_homodyne_records(path)
        assert general_reads == []
        assert fast.tobytes() == general_read("homodyne", path).tobytes()
        assert fast.tobytes() == records.tobytes()

    def test_x_convention_takes_the_general_reader(self, tmp_path, general_reads):
        # the writer emits y lines only; x = y / sqrt(2) lines, written here
        # by hand, read back through the general reader as y = sqrt(2) x
        rng = np.random.default_rng(12)
        size = 2 * 8192 + 17
        records = homodyne_batch(rng.uniform(0.0, 2.0 * math.pi, size), random_floats(rng, size))
        path = tmp_path / "records.jsonl"
        path.write_text(homodyne_reference(records, "x"))
        got = homodyne.read_homodyne_records(path)
        assert len(general_reads) == 1
        assert np.array_equal(got["phi"], records["phi"])
        assert np.array_equal(got["y"], SQRT2 * (records["y"] / SQRT2))

    def test_tokens_the_writer_never_emits(self, tmp_path, general_reads):
        # any digit count, leading zeros in exponents: still the fast path,
        # and float() of the text is what json gives
        rng = np.random.default_rng(13)
        lines = []
        for _ in range(3000):
            digits = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 40))))
            whole = str(int(rng.integers(0, 7)))
            token = f"{rng.choice(['', '-'])}{whole}.{digits}"
            if rng.random() < 0.5:
                token += f"e{rng.choice(['+', '-'])}{int(rng.integers(0, 400)):03d}"
            phi = f"0.{digits}"
            lines.append(f'{{"phi": {phi}, "y": {token}}}\n')
        finite = [line for line in lines if math.isfinite(json.loads(line)["y"])]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(finite))
        fast = homodyne.read_homodyne_records(path)
        assert general_reads == []
        assert fast.tobytes() == general_read("homodyne", path).tobytes()

    def test_writer_output_takes_the_fast_path(self, tmp_path, monkeypatch):
        """A drift between a writer and its line regex fails here, not by a
        silent fall back to the general reader."""

        def refuse(path, row):
            raise AssertionError("the general reader ran on writer output")

        monkeypatch.setattr(_jsonio, "_read_lines", refuse)
        edges = np.array(EDGE_FLOATS)
        phi = np.resize(np.abs(edges[np.abs(edges) < 6.0]), edges.size)
        records = homodyne_batch(phi, edges)
        homodyne.write_homodyne_records(records, tmp_path / "h.jsonl")
        assert homodyne.read_homodyne_records(tmp_path / "h.jsonl").tobytes() == records.tobytes()
        axes = np.vstack([np.eye(3), -np.eye(3), [[0.0, -0.0, 1.0], [0.6, -0.8, 0.0]]])
        records = spin_batch(axes, [-2, 0, 2, -(10**14), 10**14, 1, -1, 0])
        spin.write_spin_records(records, tmp_path / "s.jsonl")
        assert spin.read_spin_records(tmp_path / "s.jsonl").tobytes() == records.tobytes()


def write_lines(path, first, line, ending="\n"):
    path.write_bytes((first + ending + line + ending).encode("utf-8"))


# second lines that are not canonical: each must take the general reader
HOMODYNE_EDGES = {
    "leading zero": '{"phi": 01.5, "y": 0.25}',
    "no fraction digits": '{"phi": 1., "y": 0.25}',
    "no integer digits": '{"phi": .5, "y": 0.25}',
    "plus sign": '{"phi": +1, "y": 0.25}',
    "capital exponent": '{"phi": 0.5, "y": 1E5}',
    "unsigned exponent": '{"phi": 0.5, "y": 1e5}',
    "NaN": '{"phi": 0.5, "y": NaN}',
    "Infinity": '{"phi": 0.5, "y": Infinity}',
    "overflow to inf": '{"phi": 0.5, "y": 1e+400}',
    "unicode digits": '{"phi": 0.5, "y": ١.٥}',
    "fullwidth digit": '{"phi": 0.5, "y": 0.５}',
    "400-digit integer": '{"phi": 0.5, "y": 1' + "0" * 399 + "}",
    "integers": '{"phi": 0, "y": -0}',
    "duplicate key": '{"phi": 0.5, "y": 0.25, "y": 0.75}',
    "key order": '{"y": 0.25, "phi": 0.5}',
    "spacing": '{"phi":0.5,"y":0.25}',
    "boolean": '{"phi": true, "y": 0.5}',
    "string": '{"phi": 0.5, "y": "0.5"}',
    "mixed conventions": '{"phi": 0.5, "x": 0.25}',
    "both outcomes": '{"phi": 0.5, "y": 1.0, "x": 9.0}',
}
SPIN_EDGES = {
    "fractional two_m": '{"axis": [0.0, 0.0, 1.0], "two_m": 1.0}',
    "two_m 2**53": '{"axis": [0.0, 0.0, 1.0], "two_m": 9007199254740992}',
    "two_m 2**53 + 1": '{"axis": [0.0, 0.0, 1.0], "two_m": 9007199254740993}',
    "boolean two_m": '{"axis": [0.0, 0.0, 1.0], "two_m": true}',
    "booleans and a string in the axis": '{"axis": [true, false, "0"], "two_m": 0}',
    "unicode two_m": '{"axis": [0.0, 0.0, 1.0], "two_m": ١}',
    "integer axis": '{"axis": [0, 0, 1], "two_m": 1}',
    "capital exponent": '{"axis": [0.0, 0.0, 1E0], "two_m": 1}',
    "NaN axis": '{"axis": [NaN, 0.0, 1.0], "two_m": 1}',
    "overflow to inf": '{"axis": [0.0, 0.0, 1e+400], "two_m": 1}',
    "short axis": '{"axis": [0.0, 1.0], "two_m": 1}',
    "duplicate key": '{"axis": [0.0, 0.0, 1.0], "two_m": 1, "two_m": -1}',
    "key order": '{"two_m": 1, "axis": [0.0, 0.0, 1.0]}',
    "spacing": '{"axis":[0.0,0.0,1.0],"two_m":1}',
}
EDGES = [("homodyne", name, line) for name, line in HOMODYNE_EDGES.items()] + [
    ("spin", name, line) for name, line in SPIN_EDGES.items()
]
# second lines in the canonical grammar that are not what a writer emits:
# the fast path reads them, to the general reader's values and errors
CANONICAL_EDGES = {
    "400-digit fraction": ("homodyne", '{"phi": 0.5, "y": 0.' + "3" * 400 + "}"),
    "phi out of range": ("homodyne", '{"phi": 7.0, "y": 0.25}'),
    "two_m -0": ("spin", '{"axis": [0.0, 0.0, 1.0], "two_m": -0}'),
    "not unit": ("spin", '{"axis": [0.0, 0.0, 2.0], "two_m": 1}'),
}


class TestEdgeCorpus:
    @pytest.mark.parametrize("kind, name, line", EDGES, ids=[f"{k}-{n}" for k, n, _ in EDGES])
    def test_takes_the_general_reader(self, tmp_path, general_reads, kind, name, line):
        path = tmp_path / "records.jsonl"
        write_lines(path, FIRST_LINE[kind], line)
        read = KINDS[kind][0]
        got = outcome(read, path)
        assert len(general_reads) == 1
        assert got == outcome(lambda p: general_read(kind, p), path)

    @pytest.mark.parametrize("name", CANONICAL_EDGES)
    def test_canonical_grammar_agrees(self, tmp_path, general_reads, name):
        kind, line = CANONICAL_EDGES[name]
        path = tmp_path / "records.jsonl"
        write_lines(path, FIRST_LINE[kind], line)
        got = outcome(KINDS[kind][0], path)
        assert general_reads == []
        assert got == outcome(lambda p: general_read(kind, p), path)

    @pytest.mark.parametrize(
        "kind, line, expected",
        [
            (
                "homodyne",
                HOMODYNE_EDGES["400-digit integer"],
                "2: y must be finite, got an integer too large for a float",
            ),
            ("homodyne", HOMODYNE_EDGES["overflow to inf"], "2: y must be finite, got inf"),
            ("homodyne", HOMODYNE_EDGES["NaN"], "2: y must be finite, got nan"),
            ("homodyne", HOMODYNE_EDGES["leading zero"], "2: Expecting ',' delimiter"),
            ("homodyne", HOMODYNE_EDGES["unicode digits"], "2: Expecting value"),
            ("homodyne", HOMODYNE_EDGES["boolean"], "2: phi must be a number, got True"),
            ("homodyne", HOMODYNE_EDGES["string"], "2: y must be a number, got '0.5'"),
            ("homodyne", CANONICAL_EDGES["phi out of range"][1], "2: phi must lie in [0, 2 pi)"),
            (
                "homodyne",
                HOMODYNE_EDGES["both outcomes"],
                "2: record line holds both outcome fields 'y' and 'x'",
            ),
            ("spin", SPIN_EDGES["fractional two_m"], "2: two_m must be an integer"),
            ("spin", SPIN_EDGES["two_m 2**53 + 1"], "2: two_m must be an integer"),
            ("spin", SPIN_EDGES["booleans and a string in the axis"], "2: axis[0] must be a number, got True"),
            ("spin", '{"axis": [0.0, 0.0, "1"], "two_m": 0}', "2: axis[2] must be a number, got '1'"),
            ("spin", CANONICAL_EDGES["not unit"][1], "2: axis must be unit length, got 2.0"),
        ],
    )
    def test_errors_name_the_line(self, tmp_path, kind, line, expected):
        path = tmp_path / "records.jsonl"
        write_lines(path, FIRST_LINE[kind], line)
        with pytest.raises(RecordError) as info:
            KINDS[kind][0](path)
        assert str(info.value).startswith(f"{path}:{expected}")

    def test_values_of_valid_layouts(self, tmp_path):
        path = tmp_path / "records.jsonl"
        for line, want in [
            (HOMODYNE_EDGES["capital exponent"], (0.5, 1e5)),
            (CANONICAL_EDGES["400-digit fraction"][1], (0.5, 1.0 / 3.0)),
            (HOMODYNE_EDGES["duplicate key"], (0.5, 0.75)),
            (HOMODYNE_EDGES["key order"], (0.5, 0.25)),
            (HOMODYNE_EDGES["mixed conventions"], (0.5, SQRT2 * 0.25)),
        ]:
            write_lines(path, FIRST_LINE["homodyne"], line)
            assert homodyne.read_homodyne_records(path)[1].tolist() == want
        # a JSON integer reads through int, so -0 is +0.0
        write_lines(path, FIRST_LINE["homodyne"], HOMODYNE_EDGES["integers"])
        y = homodyne.read_homodyne_records(path)["y"][1]
        assert y == 0.0 and math.copysign(1.0, y) == 1.0
        write_lines(path, FIRST_LINE["spin"], SPIN_EDGES["duplicate key"])
        assert spin.read_spin_records(path)["two_m"].tolist() == [1, -1]

    @pytest.mark.parametrize("kind", ["spin", "homodyne"])
    @pytest.mark.parametrize(
        "layout",
        ["blank line", "CRLF", "no final newline", "leading space", "trailing space"],
    )
    def test_file_layouts(self, tmp_path, general_reads, kind, layout):
        rng = np.random.default_rng(17)
        if kind == "spin":
            axes = rng.standard_normal((50, 3))
            records = spin_batch(axes / np.linalg.norm(axes, axis=1, keepdims=True), np.zeros(50, int))
            text = spin_reference(records)
        else:
            records = homodyne_batch(rng.random(50), rng.standard_normal(50))
            text = homodyne_reference(records)
        lines = text.splitlines()
        text = {
            "blank line": "\n".join(lines[:20] + ["", "  "] + lines[20:]) + "\n",
            "CRLF": "\r\n".join(lines) + "\r\n",
            "no final newline": "\n".join(lines),
            "leading space": "\n".join(lines[:30] + [" " + lines[30]] + lines[31:]) + "\n",
            "trailing space": "\n".join(lines[:30] + [lines[30] + " "] + lines[31:]) + "\n",
        }[layout]
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        got = KINDS[kind][0](path)
        assert len(general_reads) == 1
        assert got.tobytes() == records.tobytes()

    @pytest.mark.parametrize(
        "kind, text, expected",
        [
            # an interrupted writer: the cut last line is the only bad one
            ("homodyne", '{"phi": 0.5, "y": 0.25}\n{"phi": 0.5, "y": 0.25}\n{"phi": 0.5, "y": 0.2', ":3: "),
            ("spin", '{"axis": [0.0, 0.0, 1.0], "two_m": 1}\n{"axis": [0.0, 0.0, 1.0], "two_m": 1}\n{"axis": [0.0, 0.', ":3: "),
            # a bad first line, a non-canonical middle line and a canonical
            # last line with no newline
            ("homodyne", 'A\n{"phi": 0.5, "y": 0.25}\n{"phi": 0.5, "y": 0.75}', ":1: "),
            ("homodyne", '{"phi": 0.5, "y": 0.25}\nA\n{"phi": 0.5, "y": 0.75}', ":2: "),
            ("homodyne", '{"phi": 0.5, "y": 0.25}\n{"y": 0.25, "phi": 0.5}\n{"phi": 0.5, "y": 0.75}', 3),
            ("spin", '{"axis": [0.0, 0.0, 1.0], "two_m": 1}\n{"two_m": 1, "axis": [0.0, 0.0, 1.0]}\n{"axis": [0.0, 0.0, 1.0], "two_m": -1}', 3),
        ],
    )
    def test_no_final_newline_with_a_bad_line(self, tmp_path, general_reads, kind, text, expected):
        """``$`` matches at the end of the file too, so a last line with no
        newline must not let a bad line elsewhere pass the count check."""
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        read = KINDS[kind][0]
        if isinstance(expected, int):
            assert len(read(path)) == expected
        else:
            with pytest.raises(RecordError, match=f"^{path}{expected}"):
                read(path)
        assert len(general_reads) == 1
        assert outcome(read, path) == outcome(lambda p: general_read(kind, p), path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe_takes_the_general_reader(self, general_reads):
        records = homodyne_batch([0.5, 1.5], [0.25, -0.0])
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as out:
            out.write(homodyne_reference(records))
        try:
            got = homodyne.read_homodyne_records(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert got.tobytes() == records.tobytes()
        assert len(general_reads) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"")
        assert len(spin.read_spin_records(path)) == 0
        assert len(homodyne.read_homodyne_records(path)) == 0


class TestUndecodableBytes:
    def test_reader_names_the_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"phi": 0.5, "y": 0.25}\n\n{"phi": 0.5, "y": 0.2\xff}\n')
        with pytest.raises(RecordError, match=rf"^{path}:3: 'utf-8' codec can't decode byte 0xff"):
            homodyne.read_homodyne_records(path)

    def test_valid_non_ascii_text_still_parses(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"phi": 0.5, "y": 0.25, "note": "été"}\n', encoding="utf-8")
        assert homodyne.read_homodyne_records(path)[0].tolist() == (0.5, 0.25)

    def test_cli_fails_with_code_data(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_bytes(b'{"axis": [0.0, 0.0, 1.0], "two_m": 1}\n{"axis": [0.0, 0.0, 1.0], "two_m": \xc3}\n')
        config = tmp_path / "rec.json"
        config.write_text(json.dumps({
            "records_path": str(records),
            "target": {"type": "spin-operator", "name": "Jz", "two_j": 1},
        }))
        assert cli.main(["reconstruct", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "data"
        assert err["message"].startswith(f"{records}:2: 'utf-8' codec can't decode byte 0xc3")


class TestLineRegex:
    def test_groups_follow_the_placeholders(self):
        regex = _jsonio.line_regex('{"a": [%.17g, %d]}\n')
        assert regex.pattern.startswith(b"^") and regex.pattern.endswith(b"$")
        assert regex.findall(b'{"a": [1.5, -3]}\n{"a": [2e+01, 0]}\n') == [
            (b"1.5", b"-3"), (b"2e+01", b"0"),
        ]

    @pytest.mark.parametrize("token", ["-0", "7", "1E5", "1e5", "1.", ".5", "+1", "01.5", "NaN", "١.5"])
    def test_float_field_refuses(self, token):
        regex = _jsonio.line_regex("[%.17g]\n")
        assert regex.findall(f"[{token}]\n".encode("utf-8")) == []

    @pytest.mark.parametrize("token", ["1.0", "-1.0", "2", "9007199254740993", "1e+01", "01"])
    def test_integer_field_refuses(self, token):
        # 15 digits at most, so a value passes through a float exactly
        regex = _jsonio.line_regex("[%d]\n")
        accepts = regex.findall(f"[{token}]\n".encode("ascii")) != []
        assert accepts == (token == "2")


# rows of a batch that the codec cuts into three shards at three cores
SHARDED_ROWS = 3 * _jsonio._MIN_SHARD_ROWS + 1000


def sharded_batch(kind, seed=23):
    """A batch of SHARDED_ROWS records with -0.0 and integral values (the
    rows that take the ``%.1f`` marker) in every shard."""
    rng = np.random.default_rng(seed)
    marked = np.linspace(1, SHARDED_ROWS - 1, 40).astype(int)
    if kind == "spin":
        axes = rng.standard_normal((SHARDED_ROWS, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        axes[marked] = np.resize([[0.0, -0.0, 1.0], [-1.0, 0.0, -0.0], [0.0, 1.0, 0.0]], (40, 3))
        return spin_batch(axes, rng.integers(-2, 3, SHARDED_ROWS))
    phi = rng.uniform(0.0, 2.0 * math.pi, SHARDED_ROWS)
    y = random_floats(rng, SHARDED_ROWS)
    phi[marked], y[marked] = np.resize([0.0, 1.0, 3.0], 40), np.resize([-0.0, 2.0, -7.0, 1e16], 40)
    return homodyne_batch(phi, y)


WRITERS = {"spin": spin.write_spin_records, "homodyne": homodyne.write_homodyne_records}


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count the codec sees, and lists the children it forks."""
    forks = []
    fork = _jsonio._Children.fork

    def counted(self, shard, work):
        forks.append(shard)
        return fork(self, shard, work)

    monkeypatch.setattr(_jsonio._Children, "fork", counted)

    def set_cores(count):
        monkeypatch.setattr(_jsonio, "_cores", lambda: count)
        forks.clear()
        return forks

    return set_cores


def assert_clean(directory, names):
    """Every child was reaped and no file but ``names`` is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)


class TestShards:
    @pytest.mark.parametrize("kind", ["spin", "homodyne"])
    def test_bytes_and_values_do_not_depend_on_the_shard_count(self, tmp_path, cores, kind):
        records = sharded_batch(kind)
        read = KINDS[kind][0]
        files = {}
        for count in (1, 2, 3):
            files[count] = tmp_path / f"records_{count}.jsonl"
            forks = cores(count)
            WRITERS[kind](records, files[count])
            assert forks == list(range(1, count))
        assert files[1].read_bytes() == files[2].read_bytes() == files[3].read_bytes()
        assert files[1].read_text() == (spin_reference if kind == "spin" else homodyne_reference)(records)
        for count in (1, 2, 3):
            forks = cores(count)
            assert read(files[1]).tobytes() == records.tobytes()
            assert forks == list(range(1, count))
        assert_clean(tmp_path, [f.name for f in files.values()])

    def test_a_non_canonical_line_in_the_last_shard_is_named(self, tmp_path, cores, general_reads):
        path = tmp_path / "records.jsonl"
        cores(3)
        spin.write_spin_records(sharded_batch("spin"), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[-5] = '{"axis": [0.0, 0.0, 1.0], "two_m": 2.0}\n'
        path.write_text("".join(lines))
        errors = []
        for count in (1, 3):
            cores(count)
            with pytest.raises(RecordError) as info:
                spin.read_spin_records(path)
            errors.append(str(info.value))
            assert_clean(tmp_path, [path.name])
        assert errors[0] == errors[1] == f"{path}:{len(lines) - 4}: two_m must be an integer, got 2.0"
        assert len(general_reads) == 2

    def test_a_non_finite_axis_in_the_last_shard(self, tmp_path, cores):
        records = sharded_batch("spin")
        bad = SHARDED_ROWS - 500
        records["axis"][bad, 1] = math.nan
        written = {}
        for count in (1, 3):
            path = tmp_path / f"records_{count}.jsonl"
            forks = cores(count)
            with pytest.raises(ValueError, match=r"^cannot serialize non-finite float nan$"):
                spin.write_spin_records(records, path)
            assert forks == list(range(1, count))
            written[count] = path.read_text()
            assert_clean(tmp_path, [f"records_{c}.jsonl" for c in written])
        assert written[1] == written[3] == spin_reference(records[:bad])

    @pytest.mark.parametrize("kind", ["spin", "homodyne"])
    def test_a_failed_child_is_redone_by_the_parent(self, tmp_path, cores, monkeypatch, kind):
        records = sharded_batch(kind)
        path = tmp_path / "records.jsonl"
        cores(1)
        WRITERS[kind](records, path)
        expected = path.read_bytes()
        forks = cores(3)
        fork = _jsonio._Children.fork
        # the second child exits 1 before any work
        monkeypatch.setattr(
            _jsonio._Children, "fork",
            lambda self, shard, work: fork(self, shard, (lambda: 1) if shard == 2 else work),
        )
        WRITERS[kind](records, path)
        assert path.read_bytes() == expected
        assert_clean(tmp_path, [path.name])
        assert KINDS[kind][0](path).tobytes() == records.tobytes()
        assert_clean(tmp_path, [path.name])
        assert forks == [1, 2, 1, 2]

    def test_a_failed_fork_leaves_the_shard_to_the_parent(self, tmp_path, cores, monkeypatch):
        records = sharded_batch("homodyne")
        path = tmp_path / "records.jsonl"
        cores(3)

        def refuse():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        homodyne.write_homodyne_records(records, path)
        assert path.read_text() == homodyne_reference(records)
        assert homodyne.read_homodyne_records(path).tobytes() == records.tobytes()
        assert_clean(tmp_path, [path.name])

    def test_an_interrupt_kills_and_reaps_the_children(self, tmp_path, cores, monkeypatch):
        records = sharded_batch("spin")
        path = tmp_path / "records.jsonl"
        cores(3)

        def interrupted(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(_jsonio, "_append", interrupted)
            with pytest.raises(KeyboardInterrupt):
                spin.write_spin_records(records, path)
        assert_clean(tmp_path, [path.name])
        spin.write_spin_records(records, path)
        monkeypatch.setattr(_jsonio, "_parse_range", interrupted)
        with pytest.raises(KeyboardInterrupt):
            spin.read_spin_records(path)
        assert_clean(tmp_path, [path.name])

    def test_a_line_longer_than_a_block(self, tmp_path, general_reads):
        path = tmp_path / "records.jsonl"
        long_line = '{"phi": 0.5, "y": 0.' + "3" * (2 * _jsonio._BLOCK_BYTES) + "}"
        write_lines(path, FIRST_LINE["homodyne"], long_line)
        assert homodyne.read_homodyne_records(path)["y"].tolist() == [0.25, 1.0 / 3.0]
        assert general_reads == []
