"""Labeled CSV counts, the plain-text tensor format, and parse errors with positions.

CSV convention (R-style): the header row holds the m column labels; every
data row holds a row label followed by m nonnegative numbers.  The tensor
format is a dimension line "n m t" followed by n*t lines of m numbers,
ordered in third-mode-major slabs.

A well-formed table or tensor file has all its numbers converted by one
``np.loadtxt`` pass.  Any other input goes through the positional path, which
reads the text row by row (``csv.reader`` for a table) and raises the error
that names the first faulty row, line or cell; the one-pass path returns
only what that path would.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LabeledMatrix",
    "format_tensor",
    "load_counts_csv",
    "load_tensor",
    "parse_counts_csv",
    "parse_tensor",
]


@dataclass(frozen=True)
class LabeledMatrix:
    """Nonnegative matrix with row and column labels."""

    values: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def total(self) -> float:
        """Sum of all cells; raises ``ValueError`` if it overflows float64."""
        with np.errstate(over="ignore"):
            total = float(self.values.sum())
        if not np.isfinite(total):
            raise ValueError("table total overflows float64")
        return total


def decode_utf8(raw: bytes, source: str) -> str:
    """``raw`` as UTF-8 text; a ``ValueError`` names the source and the offset of a bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: not UTF-8 at byte offset {exc.start}: {exc.reason}") from None


def _csv_rows(text: str, source: str) -> list[list[str]]:
    # the lines a text stream of ``text`` yields, each ending in its "\n":
    # a stream would first copy the whole text at four bytes a character
    lines = text.split("\n")
    for i in range(len(lines) - 1):
        lines[i] += "\n"
    if not lines[-1]:
        lines.pop()
    reader = csv.reader(lines)
    try:
        return list(reader)
    except csv.Error as exc:
        raise ValueError(f"{source}: malformed CSV at line {reader.line_num}: {exc}") from None


def _raise_cell_error(data_rows: list[list[str]], col_labels: tuple[str, ...],
                      source: str) -> None:
    """Raise the positional error for the first bad row or cell, in reading order."""
    m = len(col_labels)
    for i, row in enumerate(data_rows):
        line = i + 2  # 1-based, after the header
        if len(row) != m + 1:
            raise ValueError(
                f"{source}: row {line} has {len(row)} cells, expected {m + 1}"
            )
        for j, cell in enumerate(row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{source}: non-numeric cell {cell!r} at row {line}, "
                    f"column {col_labels[j]!r}"
                ) from None
            if not np.isfinite(value):
                raise ValueError(
                    f"{source}: non-finite cell at row {line}, column {col_labels[j]!r}"
                )
            if value < 0:
                raise ValueError(
                    f"{source}: negative cell at row {line}, column {col_labels[j]!r}"
                )
    raise ValueError(f"{source}: cells numpy rejects but float() accepts")


def parse_counts_csv(text: str, source: str = "<string>") -> LabeledMatrix:
    """Parse labeled counts from CSV text; errors carry row/column positions.

    A leading UTF-8 byte-order mark and trailing blank lines (empty or
    whitespace only) are ignored, and an empty corner cell before the column
    labels (R ``write.csv`` output) is dropped.  A blank line between data
    rows is an error that names its row.

    A plain, well-formed table (``_counts_one_pass``) has its numbers
    converted by one ``np.loadtxt`` pass; any other text is read row by row
    (``_counts_by_row``), with the same result or the same positional error.
    """
    text = text.removeprefix("\ufeff")
    table = _counts_one_pass(text)
    return _counts_by_row(text, source) if table is None else table


# Characters on which csv.reader's rows and np.loadtxt's numbers may part:
# a quote (csv unquotes), "\r" (csv ends a record there, loadtxt strips it as
# space), NUL (csv before Python 3.11 rejects it) and \x1c-\x1f (loadtxt
# strips them around a number, float() does not).  Tried one at a time
# before, after and between digits, every other character was read alike
# (numpy 2.4): loadtxt converts only ASCII numbers without underscores, as
# float() does, and reads each item of a list of lines as one line.
_NOT_PLAIN = ('"', "\r", "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _counts_one_pass(text: str) -> LabeledMatrix | None:
    """``_counts_by_row(text, ...)`` by one ``np.loadtxt`` pass, or None.

    On text without a character of ``_NOT_PLAIN`` each csv.reader row is its
    line split at the commas (none for an empty line), so the labels are
    taken from the lines.  Returns None, leaving the table or its error to
    ``_counts_by_row``, unless every data line has m + 1 fields within csv's
    field size limit, loadtxt converts every cell, and the values are finite
    and nonnegative and the labels distinct.
    """
    if any(char in text for char in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    while lines and not lines[-1].replace(",", "").strip():
        lines.pop()
    limit = csv.field_size_limit()
    if len(lines) < 2 or not lines[0] or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    header, data = lines[0].split(","), lines[1:]
    if len(header) > 1 and not header[0].strip() and data[0].count(",") + 1 == len(header):
        header = header[1:]
    col_labels = tuple(label.strip() for label in header)
    m = len(col_labels)
    # loadtxt fails on a line of fewer than m + 1 fields, drops the fields
    # past them and skips blank lines: one row a line and m commas a line on
    # average leave m + 1 fields on every line
    if "".join(data).count(",") != m * len(data) or len(set(col_labels)) != m:
        return None
    try:
        values = np.loadtxt(data, delimiter=",", comments=None,
                            usecols=range(1, m + 1), ndmin=2)
    except ValueError:
        return None
    if len(values) != len(data) or not np.isfinite(values).all() or (values < 0).any():
        return None
    row_labels = tuple([line.partition(",")[0].strip() for line in data])
    if len(set(row_labels)) != len(row_labels):
        return None
    return LabeledMatrix(values=values, row_labels=row_labels, col_labels=col_labels)


def _counts_by_row(text: str, source: str) -> LabeledMatrix:
    """The table of CSV ``text`` (without a byte-order mark) read row by row.

    Errors name the first faulty row or cell, in reading order.
    """
    rows = _csv_rows(text, source)
    while rows and not "".join(rows[-1]).strip():
        rows.pop()
    if not rows or not rows[0]:
        raise ValueError(f"{source}: empty CSV")
    header, data_rows = rows[0], rows[1:]
    if not data_rows:
        raise ValueError(f"{source}: no data rows")
    if len(header) > 1 and not header[0].strip() and len(data_rows[0]) == len(header):
        header = header[1:]
    col_labels = tuple(label.strip() for label in header)
    m = len(col_labels)
    if len(set(col_labels)) != m:
        raise ValueError(f"{source}: duplicate column labels")
    # numpy converts a whole row of strings as float() would; filling row by
    # row keeps the peak memory at the result array
    values = np.empty((len(data_rows), m))
    try:
        for row, out in zip(data_rows, values):
            if len(row) != m + 1:
                raise ValueError("ragged row")
            out[:] = row[1:]
    except ValueError:
        _raise_cell_error(data_rows, col_labels, source)
    if not np.isfinite(values).all() or (values < 0).any():
        _raise_cell_error(data_rows, col_labels, source)
    row_labels = tuple(row[0].strip() for row in data_rows)
    if len(set(row_labels)) != len(row_labels):
        raise ValueError(f"{source}: duplicate row labels")
    return LabeledMatrix(values=values, row_labels=row_labels, col_labels=col_labels)


def load_counts_csv(path: str | Path) -> LabeledMatrix:
    """Load labeled counts from a CSV file."""
    path = Path(path)
    return parse_counts_csv(decode_utf8(path.read_bytes(), str(path)), source=str(path))


def _raise_value_error(cells: list[str], lineno: int, source: str) -> None:
    """Raise the positional error for the first cell of a line that is not a finite number."""
    for j, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(
                f"{source}: non-numeric value {cell!r} at line {lineno}, position {j + 1}"
            ) from None
        if not np.isfinite(value):
            raise ValueError(
                f"{source}: non-finite value {cell!r} at line {lineno}, position {j + 1}"
            )
    raise ValueError(f"{source}: values numpy rejects but float() accepts at line {lineno}")


def _raise_line_error(data: list[tuple[int, str]], rows: np.ndarray, m: int,
                      source: str) -> None:
    """Raise the positional error for the first data line that is not m finite numbers.

    ``rows`` holds the lines converted so far, in reading order; a line with
    a non-finite value among them comes first, else the line after them.
    """
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    lineno, line = data[int(bad[0]) if bad.size else len(rows)]
    cells = line.split()
    if len(cells) != m:
        raise ValueError(f"{source}: line {lineno} has {len(cells)} values, expected {m}")
    _raise_value_error(cells, lineno, source)


def parse_tensor(text: str, source: str = "<string>") -> np.ndarray:
    """Parse a 3-way array: "n m t" then n*t lines of m numbers (slab-major in t).

    A leading UTF-8 byte-order mark and blank lines are skipped; errors name
    the first faulty line of the text, in reading order.  The data lines are
    converted by one ``np.loadtxt`` pass (``_tensor_one_pass``), or line by
    line (``_tensor_by_line``) when that pass cannot read them all.
    """
    text = text.removeprefix("\ufeff")
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines:
        raise ValueError(f"{source}: empty tensor file")
    dims_line, dims = lines[0][0], lines[0][1].split()
    if len(dims) != 3:
        raise ValueError(f"{source}: line {dims_line} must hold three dimensions 'n m t'")
    try:
        n, m, t = (int(d) for d in dims)
    except ValueError:
        raise ValueError(f"{source}: non-integer dimension on line {dims_line}") from None
    if n < 1 or m < 1 or t < 1:
        raise ValueError(f"{source}: dimensions on line {dims_line} must be positive")
    expected = n * t
    data = lines[1:]
    if len(data) != expected:
        raise ValueError(
            f"{source}: expected {expected} data lines, found {len(data)}"
        )
    rows = _tensor_one_pass(data, m)
    if rows is None:
        rows = _tensor_by_line(data, m, source)
    # data line k*n + i holds x[i, :, k]
    return np.ascontiguousarray(rows.reshape(t, n, m).transpose(1, 2, 0))


def _tensor_one_pass(data: list[tuple[int, str]], m: int) -> np.ndarray | None:
    """The data lines as a (lines, m) array by one ``np.loadtxt`` pass, or None.

    The lines hold no line break of ``str.splitlines``, and loadtxt splits
    fields at the same whitespace as ``str.split`` and converts a field as
    float() does or not at all.  So the array is the per-line loop's
    whenever loadtxt reads every line, m numbers each, all finite; else None.
    """
    try:
        rows = np.loadtxt([line for _, line in data], comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (len(data), m) or not np.isfinite(rows).all():
        return None
    return rows


def _tensor_by_line(data: list[tuple[int, str]], m: int, source: str) -> np.ndarray:
    """The data lines as a (lines, m) array, converted line by line.

    Errors name the first faulty line of the text, in reading order.
    """
    # one line checked before allocating keeps the array within the file's size
    if len(data[0][1].split()) != m:
        _raise_line_error(data, np.empty((0, m)), m, source)
    # numpy converts a line of strings as float() would, and the values are
    # checked finite once at the end
    rows = np.empty((len(data), m))
    for k, ((_, line), out) in enumerate(zip(data, rows)):
        cells = line.split()
        if len(cells) != m:
            _raise_line_error(data, rows[:k], m, source)
        try:
            out[:] = cells
        except ValueError:
            _raise_line_error(data, rows[:k], m, source)
    if not np.isfinite(rows).all():
        _raise_line_error(data, rows, m, source)
    return rows


def load_tensor(path: str | Path) -> np.ndarray:
    """Load a 3-way array from a tensor text file."""
    path = Path(path)
    return parse_tensor(decode_utf8(path.read_bytes(), str(path)), source=str(path))


def format_tensor(x: np.ndarray) -> str:
    """Write a 3-way array in the tensor text format (round-trips with parse)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise ValueError("tensor must be a 3-d array")
    n, m, t = x.shape
    out = [f"{n} {m} {t}"]
    for k in range(t):
        for i in range(n):
            out.append(" ".join(repr(float(v)) for v in x[i, :, k]))
    return "\n".join(out) + "\n"
