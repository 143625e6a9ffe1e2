"""The artifact CSV format: block-wise, distinct-value writing against a
per-row reference, exact read-back of float columns, and the cell syntax
and refusals of the table reader."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from vanhove import PhaseField, PhaseGrid
from vanhove._csv import _BLOCK_ROWS, read_csv, write_csv
from vanhove.errors import ConfigError
from vanhove.wigner import phase_field_to_csv

# signed zero, the smallest subnormal and the largest finite magnitudes
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)
# quiet NaN, negative NaN and a NaN with a payload: distinct bits, one text
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                dtype=np.uint64).view(np.float64).tolist()


def per_row_reference(header, floats, ints, strs) -> str:
    lines = [",".join(header)]
    lines += [f"{f:.16e},{i},{s}" for f, i, s in zip(floats, ints, strs)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@given(
    floats=st.lists(finite, max_size=32),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=32),
    strs=st.lists(st.text("0123456789.e+-;", max_size=40), min_size=1, max_size=32),
)
def test_write_csv_matches_per_row_format(tmp_path_factory, rows, floats, ints, strs):
    # cycle the drawn values up to the row count; the special floats lead
    floats = np.resize(np.array(SPECIAL + floats), rows)
    ints = np.resize(np.array(ints, dtype=np.int64), rows)
    strs = np.resize(np.array(strs), rows)
    header = ["x", "label", "cell"]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, [floats, ints, strs])
    expected = per_row_reference(header, floats.tolist(), ints.tolist(), strs.tolist())
    assert path.read_bytes() == expected.encode()


@given(
    floats=st.lists(finite, min_size=1, max_size=32),
    strs=st.lists(st.text("0123456789.e+-;", max_size=40), min_size=1, max_size=8),
)
def test_object_str_column_matches_per_row_format(tmp_path_factory, floats, strs):
    # few distinct strings over many rows, each cell a reference to one of them
    rows = 3 * _BLOCK_ROWS // 2
    floats = np.resize(np.array(floats), rows)
    ints = np.arange(rows, dtype=np.int64)
    shared = np.resize(np.array(strs, dtype=object), rows)
    header = ["x", "label", "cell"]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, [floats, ints, shared])
    expected = per_row_reference(header, floats.tolist(), ints.tolist(), shared.tolist())
    assert path.read_bytes() == expected.encode()


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
    path = tmp_path / "field.csv"
    phase_field_to_csv(PhaseField(pgrid, values), path)
    cells = zip(np.repeat(pgrid.q, 4).tolist(), np.tile(pgrid.p, 3).tolist(),
                values.ravel().tolist())
    expected = "q,p,value\n" + "".join(f"{q:.16e},{p:.16e},{v:.16e}\n" for q, p, v in cells)
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
    # cells (which the csv module unquoted) are refused
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n1.0,2.0\n1.0,{cell}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="could not convert"):
        read_csv(path, ["a", "b"])


def test_read_csv_blank_lines_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a , b\r\n\r\n1,2\r\n\n3,4")
    assert read_csv(path, ["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    path.write_text("a,b\n\n\n")
    table = read_csv(path, ["a", "b"])
    assert table.shape == (0, 2) and table.dtype == np.float64


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("a,c\n1,2\n", "has header ['a', 'c'], expected ['a', 'b']"),
    ("a,b\n1,2\n\n3\n", "line 4 has 1 cells, expected 2 (a,b)"),
    ("a,b\n1,2\n3,4,5\n", "line 3 has 3 cells, expected 2 (a,b)"),
    ("a,b\n1,2,\n", "line 2 has 3 cells, expected 2 (a,b)"),
    ("a,b\n1,2\n\n3,x\n", "line 4: could not convert string to float: 'x'"),
    ("a,b\n1,2\n  \n", "line 3 has 1 cells, expected 2 (a,b)"),
    ("a,b\n1,2\n#3,4\n", "line 3: could not convert string to float: '#3'"),
])
def test_read_csv_refusals_name_the_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        read_csv(path, ["a", "b"])
    assert str(info.value) == f"table {path} {message}"
    with pytest.raises(ConfigError, match="table not found"):
        read_csv(tmp_path / "missing.csv", ["a", "b"])
