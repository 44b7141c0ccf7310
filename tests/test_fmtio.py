"""Deterministic text output: the vectorised float formatter against fmt()."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sega.fmtio import canonical_json, csv_line, csv_text, fmt, fmt_floats

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFmtFloats:
    @given(arrays(np.float64, st.integers(0, 40), elements=FINITE))
    @example(np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300]))
    @settings(max_examples=200, deadline=None)
    def test_matches_fmt(self, values):
        assert fmt_floats(values) == [fmt(v) for v in values]

    def test_flattens_in_c_order(self):
        grid = np.arange(6.0).reshape(2, 3) / 7.0
        assert fmt_floats(grid) == [fmt(v) for v in grid.ravel()]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_like_fmt(self, bad):
        values = np.array([1.5, bad, 2.5])
        with pytest.raises(ValueError, match="non-finite") as from_fmt:
            fmt(values[1])
        with pytest.raises(ValueError, match="non-finite") as from_floats:
            fmt_floats(values)
        assert str(from_floats.value) == str(from_fmt.value)


class TestCsvText:
    def test_header_rows_and_final_newline(self):
        rows = [[0, 1.25, "a"], [1, np.float64(1 / 3), True]]
        assert csv_text(["i", "x", "s"], rows) == (
            "i,x,s\n" + csv_line(rows[0]) + "\n" + csv_line(rows[1]) + "\n"
        )

    def test_cells_keep_their_fmt_rendering(self):
        assert csv_line([True, np.int64(3), 7, "s", np.float32(0.1), -0.0]) == (
            "true,3,7,s,0.100000001,-0"
        )


class TestCanonicalJson:
    @pytest.mark.parametrize("value, name", [(object(), "object"), ({1, 2}, "set"), (1j, "complex")])
    def test_unknown_type_raises(self, value, name):
        with pytest.raises(TypeError, match=f"cannot serialize {name} canonically"):
            canonical_json({"a": [value]})
