"""CSV artifacts and input tables: a header line, then LF-terminated rows.

Every column is numeric: floats are written as CPython's ``"%.16e" % x``
(17 significant digits, so every float64 reads back to the same value,
and ``-0.0`` and every NaN payload keep CPython's text), integers as
``%d``.  A column of any other dtype is refused.

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
The three words of a value, viewed as 24 bytes, are its NUL-padded text.

Rows are written as bytes, ``_BLOCK_ROWS`` (1,024) at a time, by one
bytes format of the float texts (``%s``) and the integers (``%d``).
Besides the columns, the writer holds one text or int per cell; a
formatting chunk holds a few hundred bytes per value, about 1 MB.

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
# this many at a time: a whole large table at once raises the peak RSS of
# the run.
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
# "e+dd" / "e-ddd" as little-endian words, by k + 324
_EXPONENTS = [b"e%+03d" % k for k in range(-324, 309)]
_EXPONENT_WORDS = np.array(_EXPONENTS, dtype="S8").view(np.uint64)
_NAN, _INF, _MINUS = (int.from_bytes(b, "little") for b in (b"nan", b"inf", b"-"))


def _build_powers(js) -> None:
    """Fill the double-double 10**j for each j, exactly from Python ints."""
    for j in js:
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
        _build_powers(set((16 - k[missing]).tolist()))
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
    special = np.flatnonzero(~finite)
    w0[special] = np.where(np.isnan(x[special]), _NAN, _INF)
    w1[special] = w2[special] = 0
    # a set sign bit (not on NaN) shifts the text one byte up behind a "-"
    minus = (bits >> 63 == 1) & ~np.isnan(x)
    one = minus.astype(np.uint64)
    shift = one << 3
    return np.stack([w0 << shift | one * _MINUS, w1 << shift | (w0 >> 56) * one,
                     w2 << shift | (w1 >> 56) * one], axis=1)


def _format(values) -> list[bytes]:
    """``"%.16e" % v`` for each float64 value."""
    texts = []
    for i in range(0, values.size, _CHUNK):
        # tolist drops the NUL padding of each 24-byte text
        texts += _format_chunk(values[i:i + _CHUNK]).view("S24").ravel().tolist()
    return texts


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length 1-d float or integer columns under ``header``;
    a column of any other dtype is refused, naming it."""
    if len(columns) != len(header):
        raise ValueError(f"need one 1-d column of equal length per name in {header}")
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0]) if columns and columns[0].ndim else 0
    for name, col in zip(header, columns):
        if col.shape != (rows,):
            raise ValueError(f"column {name} has shape {col.shape}, need ({rows},): "
                             f"need one 1-d column of equal length per name in {header}")
        if col.dtype.kind not in "fiu":
            raise ValueError(f"column {name} has dtype {col.dtype}; "
                             f"only float and integer columns are written")
    # the floats of all the columns in one formatter call, as %s cells;
    # integers as Python ints, as %d cells
    is_float = [col.dtype.kind == "f" for col in columns]
    floats = [col.astype(np.float64) for col, f in zip(columns, is_float) if f]
    texts = iter(_format(np.concatenate(floats or [np.empty(0)])))
    cells = [list(itertools.islice(texts, rows)) if f else col.tolist()
             for col, f in zip(columns, is_float)]
    line = b",".join(b"%s" if f else b"%d" for f in is_float) + b"\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, _BLOCK_ROWS):
            block = zip(*(col[start:start + _BLOCK_ROWS] for col in cells))
            values = tuple(itertools.chain.from_iterable(block))
            fh.write(line * min(_BLOCK_ROWS, rows - start) % values)


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
