"""CSV artifacts and input tables: a header line, then LF-terminated rows.

Floats are written as CPython's ``"%.16e" % x`` (17 significant digits,
so every float64 reads back to the same value), integers as ``%d`` and
strings and objects as ``%s``.

A column is a 1-d array, or a factored pair ``(values, index)`` in which
cell r holds ``values[index[r]]``.  A plain array becomes such a pair
here, so each numeric column is formatted once per distinct value: floats
are keyed by their bit pattern (one ``np.unique`` sort per column), so
``-0.0`` and ``0.0`` (and every NaN payload) keep their own text, integers
by value, and str and object cells are each their own value.  A factored
pair is formatted as given, repeats included, without a sort; if it has
more values than cells, only the values that some cell reads are kept.  A
caller that holds the factors, such as a phase field's grid axes or a
density's per-(row, column) sums, passes them so.

Float digits come from numpy, for all the floats of a table in
one pass, ``_CHUNK`` (4,096) values at a time.  For finite x != 0 with
k = floor(log10 |x|), y = |x| * 10**(16 - k) lies in [1e16, 1e17) and its
nearest integer D is the digit string.  ``np.frexp`` splits |x| = m * 2**e
exactly; 10**(16 - k) is a double-double mantissa hi + lo in [0.5, 1)
times 2**b, built exactly from Python ints the first time an exponent
occurs.  A Veltkamp/Dekker two-product gives m * hi exactly, m * lo is
added, and ``np.ldexp`` scales the sum, as y_hi + y_lo, by 2**(e + b).
The relative error is below 2**-102, so below 1.5e-14 on y < 1e17.  Above
2**53 y_hi is an even integer, and D = y_hi + floor(y_lo) + (frac > 1/2),
frac = y_lo - floor(y_lo).  Where log10 missed k by one, y falls outside
[1e16, 1e17) and is formed again with k +- 1; D = 1e17 becomes 1e16 at
k + 1.  Only a cell with |frac - 1/2| < ``_TIE_BAND`` (1e-9, about 10**5
times the error) can round the wrong way; those few are decided exactly,
half to even as CPython does, from ``float.as_integer_ratio()``.  Exact
ties exist: 2**-25 prints as ``2.9802322387695312e-08``.  The 16 digits
after the lead digit become two words of 8 ASCII digits (SWAR: split at
10**4, then 10**2, then 10); with the lead digit, ``.`` and the exponent
text ``e+dd`` or ``e-ddd`` they fill three 64-bit words per value, and a
set sign bit (not on NaN) shifts the text one byte up behind a ``-``.
Zero, ``nan`` (every payload), ``inf`` and ``-inf`` get CPython's texts.

Rows are assembled as bytes.  Each column's texts become slots of its
longest text plus one byte: the text, the separator (``,`` or, in
the last column, LF) and pad bytes.  ``_BLOCK_ROWS`` (1,024) rows at a
time, the slots are gathered by cell into one structured block and the
pad bytes are dropped, unless every slot is full.  Str cells are encoded
as the text-mode file would encode them, and the pad is a byte from 0x80
to 0xFF that no str cell uses (0xFF, which UTF-8 never writes, unless a
single-byte encoding holds it).  Besides the columns, the writer holds the
slots, one index per cell and two blocks of about 1,024 rows of text
(70 KB for three float columns); a formatting chunk holds a few hundred
bytes per value, about 1 MB.

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

# Rows are gathered and written this many at a time, and floats formatted
# this many at a time: a whole large phase-field dump at once raises the
# peak RSS of the run.
_BLOCK_ROWS = 1024
_CHUNK = 4096
# |frac - 1/2| below which the rounding of y is decided exactly
_TIE_BAND = 1e-9
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit mantissas
# 10**j, j = 16 - k, for every decimal exponent k of a finite float64 and
# one either side (j from -293 to 341): hi in 26-bit halves, lo, and b;
# NaN until an exponent is first used
_J_MIN = -293
_POWERS = tuple(np.full(635, np.nan) for _ in range(3))
_POWER_EXPONENTS = np.zeros(635, dtype=np.int32)
# "e+dd" / "e-ddd" as little-endian words, and the length of the unsigned
# text (lead digit, ".", 16 digits, exponent), by k + 324
_EXPONENTS = [b"e%+03d" % k for k in range(-324, 309)]
_EXPONENT_WORDS = np.array(_EXPONENTS, dtype="S8").view(np.uint64)
_TEXT_LENGTHS = np.array([18 + len(text) for text in _EXPONENTS])
_NAN, _INF, _MINUS = (int.from_bytes(b, "little") for b in (b"nan", b"inf", b"-"))


def _build_powers(js) -> None:
    """Fill the double-double 10**j for each j, exactly from Python ints."""
    for j in js.tolist():
        if j >= 0:
            num = 10**j
            b = num.bit_length()
            den = 1 << b
        else:
            den = 10**-j
            b = 1 - den.bit_length()
            num = 1 << -b
        hi = num / den  # int true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        high = _SPLIT * hi - (_SPLIT * hi - hi)
        for table, value in zip(_POWERS, (high, hi - high, lo)):
            table[j - _J_MIN] = value
        _POWER_EXPONENTS[j - _J_MIN] = b


def _scaled(m, e, k):
    """y = m * 2**e * 10**(16 - k) as y_hi + y_lo, to a relative 2**-102."""
    index = 16 - k - _J_MIN
    missing = np.isnan(_POWERS[0].take(index))
    if missing.any():
        _build_powers(np.unique(16 - k[missing]))
    high, low, lo = (table.take(index) for table in _POWERS)
    hi = high + low
    split = _SPLIT * m
    m_high = split - (split - m)
    m_low = m - m_high
    p = m * hi
    # Dekker's two-product: p + p_err == m * hi exactly
    p_err = ((m_high * high - p) + m_high * low + m_low * high) + m_low * low
    t = p_err + m * lo
    y_hi = p + t
    y_lo = t - (y_hi - p)
    scale = e + _POWER_EXPONENTS.take(index)
    return np.ldexp(y_hi, scale), np.ldexp(y_lo, scale)


def _digits(a):
    """The 17 significant digits D of each finite a > 0, rounded half to
    even, as an integer in [1e16, 1e17), and the exponent k:
    a ~ D * 10**(k - 16)."""
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int64)
    y_hi, y_lo = _scaled(m, e, k)
    # log10 can miss k by one next to a power of ten
    low = (y_hi < 1e16) | ((y_hi == 1e16) & (y_lo < 0))
    off = np.flatnonzero(low | (y_hi >= 1e17))
    if off.size:
        k[off] += np.where(low[off], -1, 1)
        y_hi[off], y_lo[off] = _scaled(m[off], e[off], k[off])
    whole = np.floor(y_lo)
    frac = y_lo - whole
    digits = y_hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    for i in np.flatnonzero(np.abs(frac - 0.5) < _TIE_BAND).tolist():
        num, den = float(a[i]).as_integer_ratio()
        j = 16 - int(k[i])
        num, den = (num * 10**j, den) if j >= 0 else (num, den * 10**-j)
        q, r = divmod(num, den)
        digits[i] = q + (2 * r > den or (2 * r == den and q % 2 == 1))
    top = digits == 10**17
    digits[top] = 10**16
    return digits, k + top


def _ascii8(v):
    """Values below 10**8 as words of 8 ASCII digits, the leading digit in
    the lowest byte: split at 10**4 into 32-bit lanes, then at 10**2 into
    16-bit lanes, then at 10 into bytes."""
    w = v // 10000 | v % 10000 << 32
    q = (w * 5243) >> 19 & 0x0000007F0000007F
    w = q | w - q * 100 << 16
    q = (w * 103) >> 10 & 0x000F000F000F000F
    return q | w - q * 10 << 8 | 0x3030303030303030


def _format_chunk(x):
    bits = x.view(np.uint64)
    finite = np.isfinite(x)
    regular = np.flatnonzero(finite & (x != 0))
    digits = np.zeros(x.size, dtype=np.int64)
    k = np.zeros(x.size, dtype=np.int64)
    digits[regular], k[regular] = _digits(np.abs(x[regular]))
    digits = digits.astype(np.uint64)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    first, second = _ascii8(upper), _ascii8(rest - upper * 10**8)
    w0 = lead | 0x2E30 | first << 16
    w1 = first >> 48 | second << 16
    w2 = second >> 48 | _EXPONENT_WORDS.take(k + 324) << 16
    lengths = _TEXT_LENGTHS.take(k + 324)
    special = np.flatnonzero(~finite)
    w0[special] = np.where(np.isnan(x[special]), _NAN, _INF)
    w1[special] = w2[special] = 0
    lengths[special] = 3
    # a set sign bit (not on NaN) shifts the text one byte up behind a "-"
    minus = (bits >> 63 == 1) & ~np.isnan(x)
    one = minus.astype(np.uint64)
    shift = one << 3
    words = np.stack([w0 << shift | one * _MINUS, w1 << shift | (w0 >> 56) * one,
                      w2 << shift | (w1 >> 56) * one], axis=1)
    return words, lengths + minus


def _format(values):
    """``"%.16e" % v`` for each float64 value, as (n, 3) uint64 words of
    NUL-padded text and the text lengths."""
    parts = [_format_chunk(values[i:i + _CHUNK]) for i in range(0, values.size, _CHUNK)]
    if not parts:
        return np.empty((0, 3), dtype=np.uint64), np.empty(0, dtype=np.int64)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def float_texts(values) -> list[str]:
    """``"%.16e" % v`` for each of ``values``, from the writer's formatter."""
    words, _ = _format(np.asarray(values, dtype=np.float64).ravel())
    return words.view("S24").ravel().astype(str).tolist()


def _factored(col):
    """A plain column as (values, each cell's index into them): its distinct
    floats keyed by bit pattern, its distinct integers, or its str and
    object cells each on their own."""
    if col.dtype.kind == "f":
        keys, index = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
        return keys.view(col.dtype), index.ravel()
    if col.dtype.kind in "iu":
        values, index = np.unique(col, return_inverse=True)
        return values, index.ravel()
    return col, np.arange(col.size)


def _read(values, index):
    """A factored column with more values than cells as the values that some
    cell reads and each cell's index among them, so that no column formats
    more values than it has cells."""
    if values.size <= index.size:
        return values, index
    read = np.bincount(index, minlength=values.size) > 0
    return values[read], (np.cumsum(read) - 1).take(index)


def _column_texts(columns, encoding: str):
    """Per column, the texts of its values as a NUL-padded uint8 array,
    their lengths, and each cell's index into them.  The floats of all the
    columns go through one formatter call."""
    pairs = [_read(*col) if len(col) == 2 else _factored(*col) for col in columns]
    floats = [values.astype(np.float64) for values, _ in pairs if values.dtype.kind == "f"]
    words, lengths = _format(np.concatenate(floats or [np.empty(0)]))
    words, start = words.view(np.uint8), 0
    for values, index in pairs:
        if values.dtype.kind == "f":
            stop = start + values.size
            yield words[start:stop], lengths[start:stop], index
            start = stop
            continue
        if values.dtype.kind in "iu":
            values = values.tolist()
            # one format operation for all the values, cut at the newlines
            raw = [t.encode() for t in (("%d\n" * len(values)) % tuple(values)).split("\n")[:-1]]
        else:
            raw = [str(v).encode(encoding) for v in values.tolist()]
        text = np.array(raw, dtype="S")
        yield (text.view(np.uint8).reshape(len(raw), text.itemsize),
               np.array([len(r) for r in raw], dtype=np.int64), index)


def _refusal(name: str, col, rows: int):
    """Why ``col``, an array alone or (values, index), cannot be a column of
    ``rows`` cells, or None."""
    values, cells = col[0], col[-1]
    if cells.shape != (rows,):
        return f"column {name} has shape {cells.shape}, need ({rows},)"
    if len(col) == 2:
        if values.ndim != 1 or cells.dtype.kind not in "iu":
            return f"column {name} needs 1-d values and an integer index"
        if cells.size and (int(cells.min()) < 0 or int(cells.max()) >= values.size):
            return f"column {name} has an index outside [0, {values.size})"
    return None


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns under ``header``.  A column is a 1-d
    array (float, int, str or object) or a tuple ``(values, index)`` of a
    1-d array and one integer index per cell, cell r holding
    ``values[index[r]]``; str and object cells are written with ``%s``."""
    if len(columns) != len(header) or any(
        isinstance(col, tuple) and len(col) != 2 for col in columns
    ):
        raise ValueError(f"need one 1-d column of equal length per name in {header}")
    columns = [tuple(map(np.asarray, col)) if isinstance(col, tuple) else (np.asarray(col),)
               for col in columns]
    rows = len(columns[0][-1]) if columns and columns[0][-1].ndim else 0
    for name, col in zip(header, columns):
        reason = _refusal(name, col, rows)
        if reason:
            raise ValueError(f"{reason}: need one 1-d column of equal length per name in {header}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.flush()
        texts = list(_column_texts(columns, fh.encoding))
        used = np.zeros(256, dtype=bool)
        for col, (text, _, _) in zip(columns, texts):
            if col[0].dtype.kind not in "fiu":
                used[text.ravel()] = True
        free = np.flatnonzero(~used[128:])
        if not free.size:
            raise ValueError("str cells use every byte from 0x80 to 0xFF; none is left to pad with")
        pad = 128 + int(free[-1])
        slots, full = [], True
        for j, (text, lengths, _) in enumerate(texts):
            width = int(lengths.max(initial=0)) + 1
            slot = np.zeros((len(lengths), width), dtype=np.uint8)
            slot[:, : min(width, text.shape[1])] = text[:, :width]
            slot[np.arange(width) > lengths[:, None]] = pad
            slot[np.arange(len(lengths)), lengths] = ord("\n" if j == len(texts) - 1 else ",")
            slots.append(slot.view(f"V{width}").ravel())
            full &= bool((lengths == width - 1).all())
        block = np.empty(min(rows, _BLOCK_ROWS), dtype=[("", s.dtype) for s in slots])
        for start in range(0, rows, _BLOCK_ROWS):
            part = block[: rows - start]
            for name, slot, (_, _, index) in zip(block.dtype.names, slots, texts):
                part[name] = slot.take(index[start:start + _BLOCK_ROWS])
            data = part.view(np.uint8)
            fh.buffer.write(data if full else data[data != pad])


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
