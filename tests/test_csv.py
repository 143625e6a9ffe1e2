"""The artifact CSV format: block-wise writing against a per-row reference,
and exact read-back of float columns."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from vanhove._csv import _BLOCK_ROWS, read_csv, write_csv

# signed zero, the smallest subnormal and the largest finite magnitudes
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)


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
