"""Deterministic text output: csv_text's columns against fmt()."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sega.fmtio import canonical_json, csv_text, fmt

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
INT64 = st.integers(-(2**63), 2**63 - 1)
CELL_TEXT = st.text(st.characters(blacklist_characters=",\n\x00"), max_size=8)  # one CSV cell
HEADER = ["f64", "f32", "np_int", "int", "str"]


@st.composite
def tables(draw):
    """Equal-length columns of every dtype csv_text prints: two float, two integer, one str."""
    n = draw(st.integers(0, 40))
    return [
        draw(arrays(np.float64, n, elements=FINITE)),
        draw(arrays(np.float32, n, elements=FINITE32)),
        draw(arrays(np.int64, n, elements=INT64)),
        draw(st.lists(INT64, min_size=n, max_size=n)),
        draw(st.lists(CELL_TEXT, min_size=n, max_size=n)),
    ]


@given(tables())
@example([
    np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300]),
    np.array([-0.0, 0.1, 1e-45, 3.4e38, -1.5, 7.0], dtype=np.float32),
    np.array([0, -1, 2**63 - 1, -(2**63), 7, 42]),
    [0, -1, 2**63 - 1, -(2**63), 7, 42],
    ["a", "", "b c", "%d", "mean", "x"],
])
@settings(max_examples=200, deadline=None)
def test_csv_text_renders_every_cell_like_fmt(columns):
    lines = csv_text(HEADER, columns).split("\n")
    assert lines[0] == ",".join(HEADER) and lines[-1] == ""
    *numbers, strings = columns
    expected = [[*(fmt(col[i]) for col in numbers), strings[i]] for i in range(len(strings))]
    assert [line.split(",") for line in lines[1:-1]] == expected

    # one non-finite cell in either float column fails the whole table with fmt's message
    for j, bad in product((0, 1) if len(strings) else (), (np.nan, np.inf, -np.inf)):
        with pytest.raises(ValueError) as from_fmt:
            fmt(bad)
        broken = list(columns)
        broken[j] = columns[j].copy()
        broken[j][-1] = bad
        with pytest.raises(ValueError) as from_table:
            csv_text(HEADER, broken)
        assert str(from_table.value) == str(from_fmt.value)
    for dtype in (bool, object):
        with pytest.raises(TypeError, match="cannot write a .* column as CSV"):
            csv_text(HEADER, [*columns[:2], np.asarray(columns[2], dtype=dtype), *columns[3:]])


@pytest.mark.parametrize("columns", [[[1.0, 2.0], [1.0]], [[1.0, 2.0], [[1.0], [2.0]]], [1.0]])
def test_csv_text_columns_are_equal_length_vectors(columns):
    with pytest.raises(ValueError, match="column .* has shape"):
        csv_text(["a", "b"], columns)


class TestCanonicalJson:
    @pytest.mark.parametrize("value, name", [(object(), "object"), ({1, 2}, "set"), (1j, "complex")])
    def test_unknown_type_raises(self, value, name):
        with pytest.raises(TypeError, match=f"cannot serialize {name} canonically"):
            canonical_json({"a": [value]})
