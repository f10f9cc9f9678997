from __future__ import annotations

import csv
import io
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_same_text
from oracles import report_json
from taxicab_ca import io as taxicab_io
from taxicab_ca.io import (
    LabeledMatrix,
    _counts_by_row,
    _counts_one_pass,
    _csv_rows,
    format_tensor,
    load_counts_csv,
    load_tensor,
    parse_counts_csv,
    parse_tensor,
)
from taxicab_ca.reports import _DEDUP_MIN, AnalysisReport, _dump


class TestCountsCsv:
    def test_single_cell(self):
        data = parse_counts_csv("x\nr,5")
        assert data.shape == (1, 1)
        assert data.values[0, 0] == 5.0
        assert data.row_labels == ("r",)
        assert data.col_labels == ("x",)

    def test_asbestos_file(self, asbestos):
        assert asbestos.shape == (5, 4)
        assert asbestos.total == 1117

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\nr1,1,2\nr2,3,4\n")
        data = load_counts_csv(path)
        np.testing.assert_allclose(data.values, [[1, 2], [3, 4]])

    def test_load_names_file_and_offset_of_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\nr\u00e9,1,2\n".encode("latin-1"))
        with pytest.raises(ValueError) as info:
            load_counts_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 at byte offset 5: invalid continuation byte"

    def test_ragged_row_positional(self):
        with pytest.raises(ValueError, match="row 3 has 2 cells, expected 3"):
            parse_counts_csv("a,b\nr1,1,2\nr2,1")

    def test_negative_cell_positional(self):
        with pytest.raises(ValueError, match="negative cell at row 2, column 'b'"):
            parse_counts_csv("a,b\nr1,1,-2")

    def test_non_numeric_positional(self):
        with pytest.raises(ValueError, match="non-numeric cell 'oops' at row 3"):
            parse_counts_csv("a,b\nr1,1,2\nr2,oops,4")

    def test_duplicate_row_labels(self):
        with pytest.raises(ValueError, match="duplicate row labels"):
            parse_counts_csv("a\nr1,1\nr1,2")

    def test_duplicate_col_labels(self):
        with pytest.raises(ValueError, match="duplicate column labels"):
            parse_counts_csv("a,a\nr1,1,2")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty CSV"):
            parse_counts_csv("")

    def test_header_only(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_counts_csv("a,b\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_total_overflow(self):
        data = parse_counts_csv("a,b\nr1,1,1e308\nr2,2,1e308")
        with pytest.raises(ValueError, match="^table total overflows float64"):
            data.total


    def test_trailing_blank_lines(self):
        data = parse_counts_csv("a,b\nr1,1,2\nr2,3,4\n\n\n")
        assert data.row_labels == ("r1", "r2")
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("blank", ["   ", "\t", "\r", " \t, "])
    def test_trailing_whitespace_lines(self, blank):
        data = parse_counts_csv(f"a,b\nr1,1,2\nr2,3,4\n{blank}\n{blank}")
        assert data.row_labels == ("r1", "r2")
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4]])

    def test_inner_blank_line_positional(self):
        with pytest.raises(ValueError, match="row 3 has 0 cells, expected 3"):
            parse_counts_csv("a,b\nr1,1,2\n\nr2,3,4\n")

    @pytest.mark.parametrize("blank,cells", [("   ", 1), ("\t", 1), ("\r", 0)])
    def test_inner_whitespace_line_positional(self, blank, cells):
        with pytest.raises(ValueError, match=f"row 3 has {cells} cells, expected 3"):
            parse_counts_csv(f"a,b\nr1,1,2\n{blank}\nr2,3,4\n{blank}\n")

    def test_r_write_csv_corner_cell(self):
        data = parse_counts_csv('"","a","b"\n"r1",1,2\n"r2",3,4\n')
        assert data.col_labels == ("a", "b")
        assert data.row_labels == ("r1", "r2")
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4]])

    def test_utf8_bom_dropped(self, tmp_path):
        assert parse_counts_csv("\ufeffa,b\nr1,1,2\n").col_labels == ("a", "b")
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\r\nr1,1,2\r\n")
        assert load_counts_csv(path).col_labels == ("a", "b")

    def test_malformed_csv_positional(self):
        with pytest.raises(ValueError, match="malformed CSV at line 3"):
            parse_counts_csv("a,b\nr1,1,2\nr2,3,\r4\n")

    def test_first_bad_cell_in_reading_order(self):
        with pytest.raises(ValueError, match="negative cell at row 2, column 'b'"):
            parse_counts_csv("a,b\nr1,1,-2\nr2,oops,4")
        with pytest.raises(ValueError, match="non-finite cell at row 3, column 'a'"):
            parse_counts_csv("a,b\nr1,1,2\nr2,inf,x")


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


_numberish = st.from_regex(
    r"\A\s?[+-]?(\d{1,4}(_\d)?\.?\d{0,3}|\.\d{1,3})([eE][+-]?\d{1,3})?\s?\Z"
)
_cells = st.one_of(
    st.text(max_size=8),
    _numberish,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1_000", "0x10", "1e400", "-0", "\u0661",
                     "\uff11", " 7 ", "1,5", ""]),
)


class TestCountsCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_cells)
    def test_numpy_conversion_agrees_with_float(self, cell):
        row = np.empty(1)
        try:
            expected = float(cell)
        except ValueError:
            with pytest.raises(ValueError):
                row[:] = [cell]
            return
        row[:] = [cell]
        assert _bits(row[0]) == _bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_cells, min_size=4, max_size=4))
    def test_parse_or_positional_error(self, cells):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["a", "b"])
        writer.writerow(["r1", *cells[:2]])
        writer.writerow(["r2", *cells[2:]])
        first_bad = None
        for index, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not np.isfinite(value) or value < 0:
                first_bad = index
                break
        if first_bad is None:
            data = parse_counts_csv(out.getvalue())
            assert [_bits(v) for v in data.values.ravel()] == [_bits(float(c)) for c in cells]
        else:
            row, col = divmod(first_bad, 2)
            with pytest.raises(ValueError, match=f"at row {row + 2}, column '{'ab'[col]}'"):
                parse_counts_csv(out.getvalue())


class TestCsvLines:
    """The CSV rows come from the lines a text stream of the input yields."""

    @staticmethod
    def _stream_rows(text):
        reader = csv.reader(io.StringIO(text))
        try:
            return list(reader), None
        except csv.Error as exc:
            return None, f"malformed CSV at line {reader.line_num}: {exc}"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", "1", ",", '"', "\n", "\r", "\r\n", " ", "\x0b",
                                     "\x1c", "\u2028", "\x85", "é"]), max_size=20).map("".join))
    def test_rows_match_a_text_stream(self, text):
        rows, error = self._stream_rows(text)
        if error is None:
            assert _csv_rows(text, "s") == rows
        else:
            with pytest.raises(ValueError) as info:
                _csv_rows(text, "s")
            assert str(info.value) == f"s: {error}"


# cells and labels on which csv.reader and np.loadtxt could read a table apart
_csv_traps = st.sampled_from([
    " 3 ", "\t3", "3\x0b", "-1", "-0", "inf", "nan", "-inf", "1e400", "1_0", "\u0661",
    "\uff13", "0x10", '"3"', '"r,1"', '""', "#", "# 3", "3#", "\x1c3", "3\x1f", "\x1e",
    "3\u2028", "\x85", "\x00", "\ufeff", "", " ", "\r", "3\r", "3\r4", "3,4",
])
_plain_cells = st.integers(0, 99).map(str) | st.floats(0, 1e6).map(repr)


@st.composite
def _csv_texts(draw) -> str:
    """A plain table of 1-3 columns and 1-4 rows with a few traps put in it."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [[f"c{j}" for j in range(m)]]
    rows += [[f"r{i}"] + [draw(_plain_cells) for _ in range(m)] for i in range(k)]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, k))]
        at = draw(st.integers(0, len(row) - 1))
        trap = draw(st.sampled_from(["field", "field", "extra", "missing"]))
        if trap == "field":
            row[at] = draw(_csv_traps) if draw(st.booleans()) else draw(_cells)
        elif trap == "extra":
            row.insert(at, draw(_plain_cells))
        elif len(row) > 1:
            del row[at]
    if draw(st.booleans()):  # the corner cell R's write.csv puts before the labels
        rows[0].insert(0, draw(st.sampled_from(["", '""', " "])))
    lines = [",".join(row) for row in rows]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["", "  ", "\t", ",", "\r"])))
    lines += draw(st.lists(st.sampled_from(["", " ", "\t", " , ", ","]), max_size=2))
    ends = ["\r\n" if draw(st.integers(0, 7)) == 0 else "\n"] * len(lines)
    if draw(st.integers(0, 3)) == 0:
        ends[draw(st.integers(0, len(ends) - 1))] = draw(st.sampled_from(["\r\n", "\r", ""]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


def _by_row(text: str) -> LabeledMatrix | str:
    """``_counts_by_row``'s table of ``text``, or its error text."""
    try:
        return _counts_by_row(text, "s")
    except ValueError as exc:
        return str(exc)


def _assert_same_table(got: LabeledMatrix, want: LabeledMatrix) -> None:
    assert got.values.dtype == want.values.dtype and got.shape == want.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.row_labels == want.row_labels and got.col_labels == want.col_labels


class TestCountsOnePass:
    """The one-pass reading of a table returns the row path's table, or nothing."""

    @settings(max_examples=1000, deadline=None)
    @given(_csv_texts())
    def test_agrees_with_the_row_path(self, text):
        plain = text.removeprefix("\ufeff")
        want = _by_row(plain)
        got = _counts_one_pass(plain)
        if got is not None:
            assert isinstance(want, LabeledMatrix), want
            _assert_same_table(got, want)
        elif isinstance(want, LabeledMatrix):
            # only what loadtxt cannot read or might read apart falls through
            assert not plain.isascii() or "_" in plain or any(
                char in plain for char in taxicab_io._NOT_PLAIN)
        try:
            parsed = parse_counts_csv(text, "s")
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert isinstance(want, LabeledMatrix), want
            _assert_same_table(parsed, want)

    @pytest.mark.parametrize("text", [
        "a,b\nr1,1,2\nb,3,4,5\n",  # loadtxt would drop the extra field
        "a\nr1,1,2\n\nr2,3\n",  # loadtxt would skip the blank line: m commas a line on average
        "a,b\nr1,1,2\n \t \nr2,3,4\n",
        "a,b\nr1,1,2\r\nr2,3,4\r\n", "a,b\nr1,1,2\nr2,3,\r4\n",
        'a,b\n"r,1",1,2\n', 'a,b\nr1,"3",2\n', '"",a,b\nr1,1,2\n',
        "a,b\nr1,1_0,2\n", "a,b\nr1,\u0661,2\n", "a,b\nr1,\uff13,2\n",
        "a,b\nr1,\x1c3,2\n", "a,b\nr1,3\x1d,2\n", "a,b\nr1,\x1e3,2\n", "a,b\nr1,3\x1f,2\n",
        "\nr1,1\n", "a,b\nr1,1,2\nr1,3,4\n", "a,a\nr1,1,2\n",
        "a,b\nr1,-1,2\n", "a,b\nr1,nan,2\n", "a,b\nr1,1e400,2\n",
    ])
    def test_traps_take_the_row_path(self, text):
        assert _counts_one_pass(text) is None
        want = _by_row(text)
        try:
            got = parse_counts_csv(text, "s")
        except ValueError as exc:
            assert str(exc) == want
        else:
            _assert_same_table(got, want)

    @pytest.mark.parametrize("text,one_pass", [
        ("a,b\nr1,1,2\nr2,3,4\n", True),
        ("a,b\nr1,1,2\nlonglabel,3,4\n", False),  # a line, not a field, past the limit
        ("a,b\nr1,1,2\nlonglabel1,3,4\n", False),
    ])
    def test_fields_past_the_csv_limit(self, text, one_pass):
        limit = csv.field_size_limit(9)
        try:
            assert (_counts_one_pass(text) is not None) == one_pass
            want = _by_row(text)
            try:
                got = parse_counts_csv(text, "s")
            except ValueError as exc:
                assert str(exc) == want == "s: malformed CSV at line 3: field larger than field limit (9)"
            else:
                _assert_same_table(got, want)
        finally:
            csv.field_size_limit(limit)

    def test_plain_tables_take_one_pass(self):
        # the shape the benchmark writes: "c<j>" labels, "r<i>" rows of integers
        counts = np.random.default_rng(17).poisson(3.0, size=(3000, 14))
        lines = [",".join(f"c{j + 1}" for j in range(14))]
        lines += [f"r{i + 1}," + ",".join(map(str, row)) for i, row in enumerate(counts.tolist())]
        text = "\n".join(lines) + "\n"
        tensor = np.arange(60.0).reshape(3, 4, 5)
        with mock.patch.object(taxicab_io, "_counts_by_row", side_effect=AssertionError), \
                mock.patch.object(taxicab_io, "_tensor_by_line", side_effect=AssertionError):
            data = parse_counts_csv(text)
            x = parse_tensor(format_tensor(tensor))
        assert data.values.tobytes() == counts.astype(float).tobytes()
        assert data.row_labels == tuple(f"r{i + 1}" for i in range(3000))
        assert data.col_labels == tuple(f"c{j + 1}" for j in range(14))
        assert x.tobytes() == tensor.tobytes()


class TestTensorFormat:
    def test_scalar(self):
        x = parse_tensor("1 1 1\n5\n")
        assert x.shape == (1, 1, 1)
        assert x[0, 0, 0] == 5.0

    def test_round_trip_sign_tensor(self):
        s = np.array([1.0, -1.0])
        x = np.einsum("i,j,k->ijk", s, s, s)
        again = parse_tensor(format_tensor(x))
        np.testing.assert_array_equal(again, x)

    def test_round_trip_random(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(3, 4, 2))
        np.testing.assert_array_equal(parse_tensor(format_tensor(x)), x)

    def test_slab_order(self):
        # slabs are third-mode-major: line 1 + k*n + i holds x[i, :, k]
        text = "2 2 2\n1 2\n3 4\n5 6\n7 8\n"
        x = parse_tensor(text)
        np.testing.assert_allclose(x[:, :, 0], [[1, 2], [3, 4]])
        np.testing.assert_allclose(x[:, :, 1], [[5, 6], [7, 8]])

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2 1\n3 4\n")
        np.testing.assert_allclose(load_tensor(path), [[[3.0], [4.0]]])

    def test_load_names_file_and_offset_of_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("1 2 1\n3 4 # caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ValueError) as info:
            load_tensor(path)
        assert str(info.value) == f"{path}: not UTF-8 at byte offset 15: invalid continuation byte"

    def test_utf8_bom_dropped(self, tmp_path):
        np.testing.assert_array_equal(parse_tensor("\ufeff1 2 1\n3 4\n"), [[[3.0], [4.0]]])
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1 2 1\r\n3 4\r\n")
        np.testing.assert_array_equal(load_tensor(path), [[[3.0], [4.0]]])

    def test_malformed_dims(self):
        with pytest.raises(ValueError, match="three dimensions"):
            parse_tensor("2 2\n1 2\n")
        with pytest.raises(ValueError, match="non-integer dimension"):
            parse_tensor("a 2 2\n")
        with pytest.raises(ValueError, match="must be positive"):
            parse_tensor("0 2 2\n")

    def test_wrong_line_count(self):
        with pytest.raises(ValueError, match="expected 4 data lines, found 3"):
            parse_tensor("2 2 2\n1 2\n3 4\n5 6\n")

    def test_wrong_cell_count(self):
        with pytest.raises(ValueError, match="line 3 has 1 values, expected 2"):
            parse_tensor("2 2 1\n1 2\n3\n")

    def test_huge_dimension_fails_before_allocating(self):
        # 10^15 float64 cells would be 7 PiB; the file holds one value
        with pytest.raises(ValueError, match="line 2 has 1 values, expected 1000000000000000"):
            parse_tensor("1 1000000000000000 1\n1\n")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric value 'x' at line 2"):
            parse_tensor("1 2 1\nx 2\n")


_bad_tokens = st.text(min_size=1, max_size=6).filter(
    lambda s: s.split() == [s] and not _parses(s))


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestTensorFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)), st.data())
    def test_format_round_trips_bits(self, shape, data):
        size = shape[0] * shape[1] * shape[2]
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=size, max_size=size))
        x = np.array(values).reshape(shape)
        again = parse_tensor(format_tensor(x))
        assert again.shape == shape
        assert again.tobytes() == x.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), st.data())
    def test_malformed_line_is_named(self, shape, data):
        n, m, t = shape
        lines = format_tensor(np.arange(n * m * t, dtype=float).reshape(shape)).splitlines()
        broken = data.draw(st.integers(1, n * t))
        cells = lines[broken].split()
        kind = data.draw(st.sampled_from(["token", "non-finite", "extra", "missing"]))
        if kind == "missing" and m > 1:
            del cells[data.draw(st.integers(0, m - 1))]
        elif kind in ("token", "non-finite"):
            bad = _bad_tokens if kind == "token" else st.sampled_from(
                ["nan", "-inf", "Infinity", "1e400"])
            cells[data.draw(st.integers(0, m - 1))] = data.draw(bad)
        else:
            cells.append("1.0")
        lines[broken] = " ".join(cells)
        # a non-finite value on an earlier line is named first, whatever the
        # later line's fault is, although numpy converts it without complaint
        named = broken
        if broken > 1 and data.draw(st.booleans()):
            named = data.draw(st.integers(1, broken - 1))
            cells = lines[named].split()
            cells[data.draw(st.integers(0, m - 1))] = data.draw(
                st.sampled_from(["inf", "-inf", "nan", "1e400"]))
            lines[named] = " ".join(cells)
        # blank lines do not count as data but do count in the line numbers
        for at in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)),
                         reverse=True):
            lines.insert(at, "  ")
            named += at <= named
        with pytest.raises(ValueError, match=rf"line {named + 1}\b"):
            parse_tensor("\n".join(lines) + "\n")


# tokens and separators on which str.split and np.loadtxt could read a line apart
_tensor_tokens = st.one_of(
    _plain_cells, _plain_cells, _numberish,
    st.sampled_from(["-2", "nan", "inf", "1e400", "1_0", "\u0661", "\uff13", "0x10", "#", "3#",
                     '"3"', "\x1f", "3\x1f", "\x1c3", "\ufeff", "3,4", "\x00"]),
)
_tensor_gaps = st.sampled_from([" ", " ", "  ", "\t", "\x0b", "\x1f", "\u3000", "\xa0", "\x85"])


@st.composite
def _tensor_texts(draw) -> str:
    """A 1-3 x 1-3 x 1-3 tensor file with traps in its tokens, gaps and lines."""
    n, m, t = (draw(st.integers(1, 3)) for _ in range(3))
    lines = [f"{n} {m} {t}"]
    for _ in range(n * t):
        width = m + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        cells = [draw(_tensor_tokens) for _ in range(width)]
        line = "".join(draw(_tensor_gaps) + cell for cell in cells)
        lines.append(line if draw(st.booleans()) else line.strip())
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=2)):
        lines.insert(at, draw(st.sampled_from(["", "  ", "\x0c"])))
    ends = [draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x1e", "\u2028"]))
            for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _parsed_tensor(text: str) -> np.ndarray | str:
    try:
        return parse_tensor(text, "s")
    except ValueError as exc:
        return str(exc)


class TestTensorOnePass:
    @settings(max_examples=500, deadline=None)
    @given(_tensor_texts())
    def test_agrees_with_the_line_path(self, text):
        real, returned = taxicab_io._tensor_one_pass, []

        def one_pass(*args):
            returned.append(real(*args))
            return returned[-1]

        with mock.patch.object(taxicab_io, "_tensor_one_pass", return_value=None):
            want = _parsed_tensor(text)
        with mock.patch.object(taxicab_io, "_tensor_one_pass", side_effect=one_pass):
            got = _parsed_tensor(text)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # only what loadtxt cannot read falls through
            assert returned[0] is not None or not text.isascii() or "_" in text


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
)
_payloads = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4),
), max_leaves=20)


class TestReportRoundTrip:
    def test_identity(self):
        report = AnalysisReport(
            method="tca",
            inputs={"dataset": "demo", "shape": [2, 2]},
            provenance={"sha256": "00", "solver": "auto",
                        "tolerances": {"centering": 1e-10}},
            results={"axes": [{"axis": 1, "delta": 0.123456789012345678}]},
        )
        text = report.to_json()
        again = AnalysisReport.from_json(text)
        assert again == report
        assert again.to_json() == text

    def test_full_float_precision(self):
        value = 0.1 + 0.2  # not representable; repr must round-trip
        report = AnalysisReport(method="ca", inputs={}, provenance={},
                                results={"v": value})
        again = AnalysisReport.from_json(report.to_json())
        assert again.results["v"] == value

    def test_zero_dim_and_object_arrays(self):
        objects = np.empty(2, dtype=object)
        objects[:] = [np.int64(7), {"k": np.array([0.25])}]
        report = AnalysisReport(method="m", inputs={}, provenance={}, results={
            "x": np.array(1.5), "b": np.array(True), "o": objects})
        assert report.results == {"x": 1.5, "b": True, "o": [7, {"k": [0.25]}]}
        assert AnalysisReport.from_json(report.to_json()) == report

    @settings(max_examples=200, deadline=None)
    @given(fields=st.tuples(*[st.dictionaries(st.text(), _payloads, max_size=4)] * 3),
           method=st.text())
    def test_matches_dump_time_conversion(self, fields, method):
        report = AnalysisReport(method, *fields)
        text = report.to_json()
        assert text == report_json(method, *fields)
        again = AnalysisReport.from_json(text)
        assert _same(vars(again), vars(report))
        if "NaN" not in text:
            assert again == report


# long flat lists, which the writer emits in one join when their elements
# share one exact type, and mixed ones, which it emits element by element
_texts = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["é", "漢字", "\ud800", "a\udfffb", "\"\\\n\t\x00"])
_flat_lists = st.one_of(
    st.lists(st.floats() | st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2]), max_size=300),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300),
    st.lists(st.integers() | st.integers(-2**80, 2**80) | st.sampled_from(
        [2**63, -2**63 - 1, 2**64 + 1]), max_size=300),
    st.lists(_texts, max_size=300),
    st.lists(st.booleans() | st.integers(), max_size=300),
    st.lists(st.floats() | st.integers(), max_size=300),
    st.just([[], {}, [[], {}], {"": {"a": []}}]),
)

_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2]


@st.composite
def _pooled_floats(draw) -> list[float]:
    """A float list long enough, and with repeats enough, for the bit-keyed writer."""
    pool = _SPECIAL_FLOATS + draw(st.lists(st.floats(), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=_DEDUP_MIN, max_size=2 * _DEDUP_MIN))


class TestDump:
    @settings(max_examples=200, deadline=None)
    @given(st.recursive(_flat_lists, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_texts, inner, max_size=3),
    ), max_leaves=6))
    def test_matches_json_dumps(self, payload):
        assert _dump(payload) == json.dumps(payload, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(values=_pooled_floats(), key=_texts)
    def test_float_lists_with_repeats(self, values, key):
        for payload in (values, {key: [values]}):
            assert_same_text(_dump(payload), json.dumps(payload, sort_keys=True, indent=2))

    def test_zeros_of_both_signs(self):
        values = [0.0, -0.0] * 2048
        with mock.patch.object(np, "unique", wraps=np.unique) as spy:
            text = _dump(values)
        assert spy.call_count == 1  # the bit-keyed path wrote it
        assert_same_text(text, json.dumps(values, sort_keys=True, indent=2))

    @pytest.mark.parametrize("payload", [{1: 2}, [np.float32(1.0)], {"a": {1}}, [b"x"]])
    def test_rejects_what_is_not_plain_json(self, payload):
        with pytest.raises(TypeError):
            _dump(payload)


def _same(a, b) -> bool:
    """``a == b``, with equal types all the way down and nan equal to nan."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and a != a:
        return b != b
    return a == b
