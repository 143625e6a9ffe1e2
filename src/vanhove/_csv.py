"""CSV artifacts and input tables: a header line, then LF-terminated rows.

Floats are written as ``%.16e`` (17 significant digits, so every float64
reads back to the same value), integers as ``%d`` and strings and objects
as ``%s``.  A column of repeated values (the axes of a phase-field dump)
can be formatted once and passed as an object array of shared strings.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Rows are formatted and written this many at a time: formatting a whole
# large phase-field dump as one string holds all of its text at once and
# raises the peak RSS of the run.
_BLOCK_ROWS = 1024
FLOAT_FORMAT = "%.16e"
_FORMATS = {"f": FLOAT_FORMAT, "i": "%d", "u": "%d", "U": "%s", "O": "%s"}


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length 1-d columns (float, int, str or object) under
    ``header``; object cells are written with ``%s``."""
    columns = [np.asarray(col) for col in columns]
    rows = columns[0].shape[0]
    if len(columns) != len(header) or any(c.shape != (rows,) for c in columns):
        raise ValueError(f"need one 1-d column of equal length per name in {header}")
    line = ",".join(_FORMATS[c.dtype.kind] for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            block = zip(*(c[start : start + _BLOCK_ROWS].tolist() for c in columns))
            fh.write("".join(line % values for values in block))


def read_csv(path: Path, header: list[str]) -> list[list[float]]:
    """Numeric rows of a table whose first line must be ``header``."""
    if not path.exists():
        raise ConfigError(f"table not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ConfigError(f"table {path} is empty") from None
        if [c.strip() for c in first] != header:
            raise ConfigError(f"table {path} has header {first}, expected {header}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"table {path} line {reader.line_num} has {len(row)} cells, "
                    f"expected {len(header)} ({','.join(header)})"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ConfigError(f"table {path} line {reader.line_num}: {exc}") from None
        return rows
