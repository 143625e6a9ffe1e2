"""CSV artifacts and input tables: a header line, then LF-terminated rows.

Floats are written as ``%.16e`` (17 significant digits, so every float64
reads back to the same value), integers as ``%d`` and strings and objects
as ``%s``.  A numeric column is formatted once per distinct value: floats
are keyed by their bit pattern, so ``-0.0`` and ``0.0`` (and every NaN
payload) keep their own text, and integers by value.  Besides the column
itself the writer holds only those texts and one index per cell; rows are
gathered from them ``_BLOCK_ROWS`` at a time.

Tables are read by one ``np.loadtxt`` call, with ``,`` as the only
delimiter and no quotes or comments; a header check on the first line and
a cell count of the first row come before it.  numpy pulls the rows one
line at a time through a line counter, so every refusal names the file
line at fault; only a refused table is read again, up to that line, to
count its cells.
"""
from __future__ import annotations

import itertools
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Rows are gathered and written this many at a time: joining a whole large
# phase-field dump as one string holds all of its text at once and raises
# the peak RSS of the run.
_BLOCK_ROWS = 1024
FLOAT_FORMAT = "%.16e"
_FORMATS = {"f": FLOAT_FORMAT, "i": "%d", "u": "%d"}


def _distinct_texts(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The texts of a numeric column's distinct values (an object array)
    and, for each cell, the index of its text."""
    fmt = _FORMATS[col.dtype.kind]
    if col.dtype.kind == "f":
        keys, index = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
        distinct = keys.view(col.dtype)
    else:
        distinct, index = np.unique(col, return_inverse=True)
    # one format operation for all the values, cut at the newlines: a
    # format call per value costs about a quarter more on all-distinct columns
    values = distinct.tolist()
    texts = ((fmt + "\n") * len(values) % tuple(values)).split("\n")[:-1]
    return np.array(texts, dtype=object), index.ravel()


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length 1-d columns (float, int, str or object) under
    ``header``; str and object cells are written with ``%s``."""
    columns = [np.asarray(col) for col in columns]
    rows = columns[0].shape[0]
    if len(columns) != len(header) or any(c.shape != (rows,) for c in columns):
        raise ValueError(f"need one 1-d column of equal length per name in {header}")
    cells = [None if c.dtype.kind in "UO" else _distinct_texts(c) for c in columns]
    # one block of cell texts, with the separators between them
    text = np.empty((min(rows, _BLOCK_ROWS), 2 * len(columns)), dtype=object)
    text[:, 1::2] = ","
    text[:, -1] = "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            block = text[: stop - start]
            for j, (col, coded) in enumerate(zip(columns, cells)):
                if coded is None:
                    block[:, 2 * j] = [str(v) for v in col[start:stop].tolist()]
                else:
                    texts, index = coded
                    np.take(texts, index[start:stop], out=block[:, 2 * j])
            fh.write("".join(block.ravel().tolist()))


def read_csv(path: Path, header: list[str]) -> np.ndarray:
    """The float64 ``(rows, len(header))`` table of a file whose first line
    must be ``header``; blank lines are skipped.  ``np.loadtxt`` judges
    every row, and a refusal names the file line that it stopped at."""
    if not path.exists():
        raise ConfigError(f"table not found: {path}")
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ConfigError(f"table {path} is empty")
        names = first.rstrip("\r\n").split(",")
        if [c.strip() for c in names] != header:
            raise ConfigError(f"table {path} has header {names}, expected {header}")
        counter = itertools.count(2)
        lines = zip(counter, fh)
        # loadtxt warns on input without rows and takes the first row's cell
        # count for every row, so find and count the first row here
        for number, row in lines:
            if row.strip("\r\n"):
                break
        else:
            return np.empty((0, len(header)))
        if row.count(",") + 1 == len(header):
            try:
                return np.loadtxt(itertools.chain([row], map(itemgetter(1), lines)),
                                  delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                reason = exc
            # loadtxt pulls one line at a time, so the counter stopped at
            # the refused line
            number = next(counter) - 1
            fh.seek(0)
            row = next(itertools.islice(fh, number - 1, None))
    cells = row.count(",") + 1
    if cells != len(header):
        raise ConfigError(
            f"table {path} line {number} has {cells} cells, "
            f"expected {len(header)} ({','.join(header)})"
        )
    raise ConfigError(f"table {path} line {number}: {reason}")
