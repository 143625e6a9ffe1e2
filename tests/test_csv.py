"""The artifact CSV format: the numpy float formatter against CPython's
``"%.16e" % x`` over every binade, decimal exponent and exact tie,
block-wise writing of float and integer columns against a per-row
reference, the refusal of other columns, exact read-back of float columns,
and the cell syntax and refusals of the table reader."""
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from vanhove import MollifierPolicy, PhaseField, PhaseGrid
from vanhove import _csv
from vanhove._csv import _BLOCK_ROWS, read_csv, write_csv
from vanhove.errors import ConfigError
from vanhove.wigner import (
    ConstraintSet,
    _field_resolution,
    coordinate_field,
    harmonic_field,
    momentum_field,
)

# signed zero, the smallest subnormal and the largest finite magnitudes
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)
# quiet NaN, negative NaN and a NaN with a payload: distinct bits, one text
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                dtype=np.uint64).view(np.float64).tolist()


def per_row_reference(header, floats, ints) -> str:
    lines = [",".join(header)]
    lines += [f"{f:.16e},{i}" for f, i in zip(floats, ints)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@given(
    floats=st.lists(finite, max_size=32),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=32),
)
def test_write_csv_matches_per_row_format(tmp_path_factory, rows, floats, ints):
    # cycle the drawn values up to the row count; the special floats lead
    floats = np.resize(np.array(SPECIAL + floats), rows)
    ints = np.resize(np.array(ints, dtype=np.int64), rows)
    header = ["x", "label"]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, [floats, ints])
    expected = per_row_reference(header, floats.tolist(), ints.tolist())
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("column", [
    np.array(["1.5", "2"]),
    np.array([1.5, "x"], dtype=object),
    np.array([1.5, 2.0], dtype=object),
    np.array([True, False]),
], ids=["str", "object-str", "object-float", "bool"])
def test_non_numeric_column_refused(tmp_path, column):
    # the refusal names the column, before the file is opened
    with pytest.raises(ValueError, match=f"column cell has dtype {column.dtype}; "
                                         "only float and integer columns are written"):
        write_csv(tmp_path / "out.csv", ["x", "cell"], [[1.0, 2.0], column])
    assert not (tmp_path / "out.csv").exists()


@given(values=st.lists(finite, min_size=1, max_size=64))
def test_float_columns_read_back_bit_exact(tmp_path_factory, values):
    values = SPECIAL + values
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, ["a", "b"], [values, values[::-1]])
    rows = np.array(read_csv(path, ["a", "b"]))
    assert rows.tobytes() == np.array([values, values[::-1]]).T.tobytes()


def test_mismatched_columns_refused(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[1.0, 2.0]])
    # the refusal names the column at fault
    with pytest.raises(ValueError, match=r"column b has shape \(1,\), need \(2,\)"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError, match=r"column b has shape \(1, 2\), need \(2,\)"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[1.0, 2.0], [[1.0, 2.0]]])
    assert not (tmp_path / "out.csv").exists()


@given(
    pool=st.lists(finite, max_size=6),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
    order=st.lists(st.integers(0, 63), min_size=1, max_size=40),
)
def test_repeated_values_match_per_row_format(tmp_path_factory, pool, ints, order):
    # a few distinct values, each repeated over more than one block of rows
    rows = 2 * _BLOCK_ROWS + 3
    pool = np.array(SPECIAL + NANS + [np.inf, -np.inf] + pool)
    picks = np.resize(np.array(order), 2 * rows)
    floats = pool[picks % pool.size][::2]  # a strided view, not contiguous
    assert not floats.flags.c_contiguous
    ints = np.array(ints + [2**63 - 1, -(2**63)], dtype=np.int64)[picks[:rows] % (len(ints) + 2)]
    # the largest float64s become float32 inf, and NaN payloads are cast
    with np.errstate(over="ignore", invalid="ignore"):
        single = floats.astype(np.float32)
    header = ["x", "n", "y"]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, [floats, ints, single])
    lines = [",".join(header)]
    lines += [f"{x:.16e},{n},{y:.16e}"
              for x, n, y in zip(floats.tolist(), ints.tolist(), single.tolist())]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_unsigned_column_matches_per_row_format(tmp_path):
    values = np.array([2**64 - 1, 0, 2**63, 0, 2**64 - 1] * _BLOCK_ROWS, dtype=np.uint64)
    write_csv(tmp_path / "out.csv", ["n"], [values])
    expected = "n\n" + "".join(f"{v}\n" for v in values.tolist())
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


def test_phase_field_signed_zeros_match_per_row_format(tmp_path):
    # -0.0 and 0.0 compare equal but must keep their own text
    pgrid = PhaseGrid((-1.0, 1.0), (0.0, 2.0), 3, 4)
    values = np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, 2.5], [-0.0, -1.0, 0.0, -0.0]])
    q, p = np.repeat(pgrid.q, pgrid.np), np.tile(pgrid.p, pgrid.nq)
    path = tmp_path / "field.csv"
    write_csv(path, ["q", "p", "value"], [q, p, values.ravel()])
    cells = zip(q.tolist(), p.tolist(), values.ravel().tolist())
    expected = "q,p,value\n" + "".join(f"{q:.16e},{p:.16e},{v:.16e}\n" for q, p, v in cells)
    assert path.read_bytes() == expected.encode()


@st.composite
def phase_grids(draw):
    """Grids of 2-37 points per axis, odd sizes included, whose ranges lie on
    one side of 0 or across it."""
    ranges = [sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2,
                                   unique=True))) for _ in range(2)]
    assume(all(hi - lo > 0.05 for lo, hi in ranges))
    return PhaseGrid(*ranges, draw(st.integers(2, 37)), draw(st.integers(2, 37)))


@given(grid=phase_grids(), fields=st.sampled_from(["harmonic", "momentum-coordinate",
                                                   "harmonic-coordinate"]),
       seed=st.integers(0, 2**32 - 1))
def test_phase_field_csv_matches_expanded_columns(tmp_path_factory, grid, fields, seed):
    # a phase field's columns: the grid axes expanded to q-major cells beside
    # a random field, and beside a ConstraintSet density (harmonic with
    # coordinate has more (row, column) entries than cells)
    rng = np.random.default_rng(seed)
    makers = {"harmonic": harmonic_field, "momentum": momentum_field,
              "coordinate": coordinate_field}
    invariants = [makers[name](grid) for name in fields.split("-")]
    eps = 5.0 * max(_field_resolution(f) for f in invariants)
    constraints = ConstraintSet(invariants, MollifierPolicy(eps))
    i, j = rng.integers(grid.nq), rng.integers(grid.np)
    totals, _ = constraints.summed([[f.values[i, j] for f in invariants]], [1.0])
    density = constraints.density(totals)
    field = PhaseField(grid, rng.standard_normal((grid.nq, grid.np)))
    q, p = np.repeat(grid.q, grid.np), np.tile(grid.p, grid.nq)
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    for values in (field.values.ravel(), density.field.values.ravel()):
        write_csv(path, ["q", "p", "value"], [q, p, values])
        cells = zip(q.tolist(), p.tolist(), values.tolist())
        expected = "q,p,value\n" + "".join(f"{a:.16e},{b:.16e},{v:.16e}\n" for a, b, v in cells)
        assert path.read_bytes() == expected.encode()


def written_texts(path, values) -> list[str]:
    """The cells of ``values`` as ``write_csv`` writes them in one column."""
    write_csv(path, ["x"], [np.asarray(values, dtype=np.float64)])
    return path.read_text().splitlines()[1:]


def assert_formats_as_cpython(tmp_path, values):
    values = np.asarray(values, dtype=np.float64)
    texts = written_texts(tmp_path / "x.csv", values)
    expected = ["%.16e" % v for v in values.tolist()]
    wrong = [(v, t, e) for v, t, e in zip(values.tolist(), texts, expected) if t != e]
    assert not wrong, f"{len(wrong)} of {len(expected)} differ, first {wrong[:3]}"


def test_formatter_every_binade_and_its_neighbours(tmp_path):
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_formats_as_cpython(tmp_path, np.concatenate([values, -values]))


def test_formatter_every_decimal_exponent(tmp_path):
    # log10 is nearest to missing k at the powers of ten and one ulp either side
    powers = 10.0 ** np.arange(-323, 309)
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_formats_as_cpython(tmp_path, np.concatenate([values, -values]))


def test_formatter_random_bit_patterns(tmp_path):
    # NaN payloads, subnormals and both signs, as they come
    bits = np.random.default_rng(19).integers(0, 2**64, 10**5, dtype=np.uint64)
    assert_formats_as_cpython(tmp_path, bits.view(np.float64))


def test_formatter_specials_subnormals_and_three_digit_exponents(tmp_path):
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    subnormals = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.225073858507201e-308])
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 1e-100, 9.999999999999999e99,
                              1e100, 1.7976931348623157e308, 123.0, 1.0, 0.1],
                             nans, subnormals, -subnormals])
    assert_formats_as_cpython(tmp_path, values)
    texts = written_texts(tmp_path / "x.csv", [-0.0, np.nan, -np.inf])
    assert texts == ["-0.0000000000000000e+00", "nan", "-inf"]
    assert written_texts(tmp_path / "x.csv", []) == []


def exact_ties():
    """x = m * 2**-j with m odd and below 2**53, where m * 5**j, the digits
    of x, has 18 digits ending in 5: x lies exactly halfway between two
    17-digit texts.  Each value comes with whether half-even rounds up."""
    ties = {}
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        for m in {low, low + 1, low + 2, low + 3, (low + high) // 2, (low + high) // 2 + 1,
                  high - 1, high}:
            if m % 2 == 1 and low <= m <= high:
                ties[np.ldexp(float(m), -j)] = (m * 5**j // 10) % 2 == 1
    return ties


def test_formatter_exact_ties_round_half_to_even(tmp_path, monkeypatch):
    ties = exact_ties()
    assert 2.0**-25 in ties and 3 * 2.0**-24 in ties
    assert written_texts(tmp_path / "x.csv", [2.0**-25]) == ["2.9802322387695312e-08"]
    # ties that round up and ties that round down
    assert 0 < sum(ties.values()) < len(ties)
    values = np.array(list(ties))
    assert_formats_as_cpython(tmp_path, np.concatenate([values, -values]))
    # without the exact branch half of them would round down, so the texts
    # above came from it
    monkeypatch.setattr(_csv, "_TIE_BAND", 0.0)
    texts = written_texts(tmp_path / "x.csv", values)
    wrong = [v for v, t in zip(values.tolist(), texts) if t != "%.16e" % v]
    assert sorted(wrong) == sorted(v for v, up in ties.items() if up)


def test_write_csv_bulk_matches_per_row_format(tmp_path):
    # more than two blocks of random bit patterns (every text width, the
    # 24 bytes of a negative three-digit exponent included) and integers
    rng = np.random.default_rng(7)
    rows = 2 * _BLOCK_ROWS + 17
    floats = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
    floats[:4] = [-1e-300, np.nan, -np.inf, -0.0]
    ints = rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64)
    header = ["x", "n"]
    path = tmp_path / "out.csv"
    write_csv(path, header, [floats, ints])
    expected = per_row_reference(header, floats.tolist(), ints.tolist())
    assert path.read_bytes() == expected.encode()


# cells the table reader takes, as float() reads them
ACCEPTED = [" 1.5 ", "\t-2\t", "nan", "NaN", "-nan", "inf", "-Infinity", "+inf", "iNf",
            "1e5", "1E+05", "-2.5e-3", ".5", "5.", "-0", "+1.5", "4.9e-324", "1e400", "2e-400"]


def test_read_csv_cell_syntax(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "".join(f"{c},{c}\n" for c in ACCEPTED))
    table = read_csv(path, ["a", "b"])
    expected = np.array([[float(c)] * 2 for c in ACCEPTED])
    assert table.dtype == np.float64 and table.shape == (len(ACCEPTED), 2)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(table), nan)
    assert table[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("cell", ["1_0", "\uff11", '"1.0"'])
def test_read_csv_refuses_what_float_alone_accepts(tmp_path, cell):
    # underscores and non-ASCII digits (which float() takes) and quoted
    # cells are refused, on their own line
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n1.0,2.0\n1.0,{cell}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 3: could not convert"):
        read_csv(path, ["a", "b"])


@pytest.mark.filterwarnings("error")
def test_read_csv_blank_lines_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a , b\r\n\r\n1,2\r\n\n3,4")
    assert read_csv(path, ["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # a header alone, or followed only by blank lines, is an empty table
    for text in ["a,b\n\n\n", "a,b\r\n\r\n", "a,b\n", "a,b"]:
        path.write_text(text, newline="")
        table = read_csv(path, ["a", "b"])
        assert table.shape == (0, 2) and table.dtype == np.float64


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("a,c\n1,2\n", "has header ['a', 'c'], expected ['a', 'b']"),
    ("a,b\n1,2\n\n3\n", "line 4 has 1 cells, expected 2 (a,b)"),
    ("a,b\n1,2\n3,4,5\n", "line 3 has 3 cells, expected 2 (a,b)"),
    ("a,b\n1,2,\n", "line 2 has 3 cells, expected 2 (a,b)"),
    ("a,b\n1,2\n\n3,x\n", "line 4: could not convert string 'x' to float64 at row 1, column 2."),
    ("a,b\n1,2\n  \n", "line 3 has 1 cells, expected 2 (a,b)"),
    ("a,b\n1,2\n#3,4\n", "line 3: could not convert string '#3' to float64 at row 1, column 1."),
    # loadtxt takes the first row's cell count for every later row
    pytest.param("a,b\n3\n1,2\n", "line 2 has 1 cells, expected 2 (a,b)", id="short-first-row"),
    pytest.param("a,b\n1,2,3\n4,5,6\n", "line 2 has 3 cells, expected 2 (a,b)",
                 id="every-row-long"),
    # numpy's rows count from the first data row; the line count is the file's
    pytest.param("a,b\n" + "1,2\n" * 50_000 + "3,x\n" + "1,2\n" * 10,
                 "line 50002: could not convert string 'x' to float64 at row 50000, column 2.",
                 id="bad-cell-after-50000-rows"),
])
def test_read_csv_refusals_name_the_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        read_csv(path, ["a", "b"])
    assert str(info.value) == f"table {path} {message}"
    with pytest.raises(ConfigError, match="table not found"):
        read_csv(tmp_path / "missing.csv", ["a", "b"])
