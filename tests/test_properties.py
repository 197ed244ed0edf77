"""Property test of the CSV input boundary: whatever CSV `analyze` reads, it
exits 0 or 2 without raising, and an analysis.json it writes is strict JSON
(no NaN or Infinity)."""

import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skipsim.cli import main  # noqa: E402
from skipsim.gait import Trajectory  # noqa: E402
from skipsim.stats import ForceTrace  # noqa: E402

NUMBERS = st.one_of(st.integers(-3, 3).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
ODD = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "", "abc"])


@st.composite
def csv_inputs(draw):
    """A CSV for `analyze`: numbers in shuffled columns, time either the row
    index or drawn, then up to two fields replaced by odd values or cut."""
    flag, columns = draw(st.sampled_from(
        [("--trace", ForceTrace.COLUMNS), ("--trajectory", Trajectory.COLUMNS)]))
    header = draw(st.permutations(columns))
    indexed = draw(st.booleans())
    rows = [[str(i) if name == "time_s" and indexed else draw(NUMBERS)
             for name in header] for i in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        # a cut at k = 0 empties its row, which has no field left to edit
        filled = [row for row in rows if row]
        if not filled:
            break
        row = draw(st.sampled_from(filled))
        k = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            row[k] = draw(ODD)
        else:
            del row[k:]
    return flag, "\n".join(",".join(row) for row in [header] + rows) + "\n"


def _no_constant(name):
    raise ValueError(f"analysis.json holds {name}")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(csv_inputs())
def test_analyze_exits_0_or_2_and_writes_strict_json(flag_and_text):
    flag, text = flag_and_text
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "input.csv")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(root, "out")
        code = main(["analyze", flag, path, "--out", out])
        assert code in (0, 2)
        if code == 0:
            with open(os.path.join(out, "analysis.json")) as fh:
                json.load(fh, parse_constant=_no_constant)
