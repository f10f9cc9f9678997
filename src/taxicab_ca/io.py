"""Labeled CSV counts, the plain-text tensor format, and parse errors with positions.

CSV convention (R-style): the header row holds the m column labels; every
data row holds a row label followed by m nonnegative numbers.  The tensor
format is a dimension line "n m t" followed by n*t lines of m numbers,
ordered in third-mode-major slabs.
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
    """
    rows = _csv_rows(text.removeprefix("\ufeff"), source)
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
    the first faulty line of the text, in reading order.
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
    # one line checked before allocating keeps the array within the file's size
    if len(data[0][1].split()) != m:
        _raise_line_error(data, np.empty((0, m)), m, source)
    # data line k*n + i holds x[i, :, k]; numpy converts a line of strings
    # as float() would, and the values are checked finite once at the end
    slabs = np.empty((t, n, m))
    rows = slabs.reshape(expected, m)
    for k, ((_, line), out) in enumerate(zip(data, rows)):
        cells = line.split()
        if len(cells) != m:
            _raise_line_error(data, rows[:k], m, source)
        try:
            out[:] = cells
        except ValueError:
            _raise_line_error(data, rows[:k], m, source)
    if not np.isfinite(slabs).all():
        _raise_line_error(data, rows, m, source)
    return np.ascontiguousarray(slabs.transpose(1, 2, 0))


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
