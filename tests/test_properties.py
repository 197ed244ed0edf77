"""Property tests of the input boundaries. Whatever CSV `analyze` reads, it
exits 0 or 2 without raising, and an analysis.json it writes is strict JSON
(no NaN or Infinity); a repeated header column or a row with an extra field
exits 2. `read_csv_table` reads what a row-by-row loop reads, and fails
with its message, which names the line of the first error in file order,
whether numpy's parser or its own row loop reads the file. Whatever a
targets CSV holds, `load_targets` returns one target per row or raises one
ValueError in the package's words. Whatever override a config document
makes, `load_config` raises one ConfigError, every key it names a leaf of
the default document, or builds a config that its own document rebuilds."""

import csv
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from skipsim.calibrate import load_targets  # noqa: E402
from skipsim.cli import main  # noqa: E402
from skipsim.config import (ConfigError, default_dict,  # noqa: E402
                            document, load_config)
from skipsim.fileio import read_csv_table  # noqa: E402
from skipsim.gait import Trajectory  # noqa: E402
from skipsim.stats import ForceTrace  # noqa: E402

NUMBERS = st.one_of(st.integers(-3, 3).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
ODD = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "", "abc"])


def _spoil(draw, header, rows):
    """The CSV text of `header` and `rows`, sometimes with a column of the
    header named twice and up to two fields replaced by odd values, cut off
    or joined by an extra field; and whether the header repeats a column or
    a row is longer than the header."""
    repeated = draw(st.booleans()) and draw(st.booleans())
    if repeated:
        header.insert(draw(st.integers(0, len(header))),
                      draw(st.sampled_from(header)))
        for row in rows:
            row.append(draw(NUMBERS))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        # a cut at k = 0 empties its row, which has no field left to edit
        filled = [row for row in rows if row]
        if not filled:
            break
        row = draw(st.sampled_from(filled))
        k = draw(st.integers(0, len(row) - 1))
        edit = draw(st.sampled_from(["odd", "cut", "extra"]))
        if edit == "odd":
            row[k] = draw(ODD)
        elif edit == "cut":
            del row[k:]
        else:
            row.insert(k, draw(NUMBERS))
    longer = any(len(row) > len(header) for row in rows)
    text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
    return text, repeated or longer


@st.composite
def csv_inputs(draw):
    """A CSV for `analyze`: numbers in shuffled columns, time either the row
    index or drawn, then spoiled by `_spoil`."""
    flag, columns = draw(st.sampled_from(
        [("--trace", ForceTrace.COLUMNS), ("--trajectory", Trajectory.COLUMNS)]))
    header = draw(st.permutations(columns))
    indexed = draw(st.booleans())
    rows = [[str(i) if name == "time_s" and indexed else draw(NUMBERS)
             for name in header] for i in range(draw(st.integers(0, 8)))]
    return (flag, *_spoil(draw, header, rows))


def _no_constant(name):
    raise ValueError(f"analysis.json holds {name}")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(csv_inputs())
def test_analyze_exits_0_or_2_and_writes_strict_json(case):
    flag, text, misshapen = case
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "input.csv")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(root, "out")
        code = main(["analyze", flag, path, "--out", out])
        assert code in (0, 2)
        if misshapen:
            assert code == 2
        if code == 0:
            with open(os.path.join(out, "analysis.json")) as fh:
                json.load(fh, parse_constant=_no_constant)


def oracle_read_csv_table(path, columns, what):
    """read_csv_table as one loop over rows that converts each field through
    `float` as it meets it, in `columns` order."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if sorted(header) != sorted(columns):
                raise ValueError("the header must name the columns "
                                 f"{list(columns)}, each once")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"a row must have {len(header)} "
                                     "fields, as the header has")
                rows.append([])
                for name in columns:
                    field = row[header.index(name)]
                    try:
                        rows[-1].append(float(field))
                    except ValueError:
                        raise ValueError(f"field {field!r} is not a "
                                         "number") from None
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{what} CSV line {max(reader.line_num, 1)}: "
                             f"{exc}") from None
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    if not np.isfinite(table).all():
        raise ValueError(f"{what} CSV values must be finite")
    return table


def _outcome(read, path, columns):
    try:
        return repr(read(path, columns, "drawn").tolist())
    except ValueError as exc:
        return f"ValueError: {exc}"


# Fields numpy's C parser refuses: quoted, with an underscore, with
# non-ASCII digits or spaces, which `float` reads, and some it does not
ROUGH_NUMBERS = st.sampled_from(['"1.5"', '"-2"', "1_0", "-2_5.0_1",
                                 "\u0661", "\u0663.\u0665", "\u00a07"])
ROUGH_FIELDS = st.one_of(ROUGH_NUMBERS, ROUGH_NUMBERS, st.sampled_from(
    ['""', "1\x00", "\x00", "1__0", " 7 ", "1e5\t"]))
# Lines csv reads as blank, as one field or as empty fields
ROUGH_LINES = st.sampled_from(["", "", " ", "\t", "  \t ", ",", " , ",
                               "\x0c"])


@st.composite
def rough_csv_inputs(draw):
    """A CSV of numbers in shuffled columns, spoiled by `_spoil` or not,
    with some of its fields replaced by ROUGH_FIELDS, ROUGH_LINES inserted
    after the header, sometimes one line longer than the csv field limit
    (its fields within it or one field over), and LF, CR or CRLF line
    endings."""
    flag, columns = draw(st.sampled_from(
        [("--trace", ForceTrace.COLUMNS), ("--trajectory", Trajectory.COLUMNS)]))
    header = draw(st.permutations(columns))
    rows = [[draw(NUMBERS) for _ in header]
            for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        text, _ = _spoil(draw, header, rows)
    else:
        text = "".join(",".join(row) + "\n" for row in [header] + rows)
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.integers(0, 2)) if len(lines) > 1 else 0):
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(ROUGH_FIELDS)
        lines[i] = ",".join(fields)
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        lines.insert(draw(st.integers(1, len(lines))), draw(ROUGH_LINES))
    if draw(st.booleans()) and draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))),
                     _long_line(len(columns), draw(st.booleans())))
    ending = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    return flag, "".join(line + ending for line in lines)


def _long_line(width, one_field_over):
    """A row of `width` ones longer than the csv field limit: zero-padded
    within it, or with one field over it."""
    limit = csv.field_size_limit()
    if one_field_over:
        return ",".join(["0" * limit + "1"] + ["1"] * (width - 1))
    return ",".join(["0" * (limit // width + 1) + "1"] * width)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rough_csv_inputs())
@example(("--trace", "time_s,force_N\n"))
@example(("--trace", "time_s,force_N\r\n\r\n"))
@example(("--trace", 'time_s,force_N\r"0",1_0\r\u0661,\u00a02\r'))
@example(("--trajectory", "x_m,time_s,y_m,heading_rad\r\n"
          "1,0,\u0663,4\r\n  \r\n1,2,3,4\r\n"))
@example(("--trace", "time_s,force_N\n1,2\x00\n"))
@example(("--trace", "force_N,time_s\n0,1,2\n1,2,3\n"))
@example(("--trajectory", "time_s,x_m,y_m,heading_rad\n0,1\n"))
@example(("--trace", "time_s,force_N\n" + _long_line(2, False) + "\n"))
@example(("--trace", "time_s,force_N\n" + _long_line(2, True) + "\n"))
def test_read_csv_table_reads_what_a_row_loop_reads(case):
    """The same array, or the same message, as the loop, on spoiled CSVs
    with quoted and unusual numbers, odd lines and LF, CR or CRLF line
    endings, whether numpy's parser reads them or the row loop does."""
    flag, text = case
    columns = ForceTrace.COLUMNS if flag == "--trace" else Trajectory.COLUMNS
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "input.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = _outcome(read_csv_table, path, columns)
        assert got == _outcome(oracle_read_csv_table, path, columns)


TARGET_COLUMNS = ("mode", "material", "moisture", "target_cmps", "std_cmps",
                  "weight")
POSITIVE = st.one_of(st.floats(0.01, 10.0).map(repr),
                     st.integers(1, 9).map(str))
TARGET_FIELDS = {
    # one name in seven is unknown
    "mode": st.sampled_from(["skip", "sync_crawl", "async_crawl"] * 2
                            + ["hop"]),
    "material": st.sampled_from(["grass", "uniform_sand", "bentonite_clay"]
                                * 2 + ["mud"]),
    "moisture": st.floats(0.0, 1.2).map(repr),
    "target_cmps": POSITIVE, "std_cmps": POSITIVE, "weight": POSITIVE,
}


@st.composite
def targets_inputs(draw):
    """A targets CSV: modes and materials (known or not) and positive
    numbers in shuffled columns, then spoiled by `_spoil`."""
    header = draw(st.permutations(TARGET_COLUMNS))
    rows = [[draw(TARGET_FIELDS[name]) for name in header]
            for _ in range(draw(st.integers(0, 5)))]
    return _spoil(draw, header, rows)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(targets_inputs())
def test_load_targets_reads_each_row_or_raises_one_value_error(case):
    text, misshapen = case
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "targets.csv")
        with open(path, "w") as fh:
            fh.write(text)
        try:
            targets = load_targets(path)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(("targets CSV ", "targets file "))
            assert "\n" not in message and "could not convert" not in message
            return
    assert not misshapen
    assert len(targets) == sum(1 for line in text.splitlines()[1:] if line)


# A config leaf drawn from every JSON shape, each from a bounded strategy;
# the integers past 2**1024 are too large for a float
SCALARS = st.one_of(
    st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10, 10_000), st.integers(2 ** 1024, 2 ** 1030).map(
        lambda n: n * (1 if n % 2 else -1)),
    st.text(max_size=4), st.booleans(), st.none())
VALUES = st.recursive(SCALARS, lambda items: st.one_of(
    st.lists(items, max_size=4),
    st.dictionaries(st.text(max_size=3), items, max_size=2)), max_leaves=6)


def _leaves(doc, path=""):
    for key, value in doc.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, dotted)
        else:
            yield dotted, value


LEAVES = list(_leaves(default_dict()))
LEAF_KEYS = {dotted for dotted, _ in LEAVES}
# a dotted config key as an error names it, `[k]` indexes allowed
NAMED_KEY = re.compile(r"(?<![\w.])[a-z_]+(?:\.\w+)+(?:\[\d+\])*")


def _scaled(default):
    """Values near `default`, so that overrides often load."""
    if isinstance(default, list):
        return st.lists(st.sampled_from(default), min_size=1, max_size=4)
    if isinstance(default, float) and default:
        return st.floats(0.5, 2.0).map(lambda f: f * default)
    if type(default) is int:
        return st.integers(0, max(2 * default, 2))
    return st.just(default)


@st.composite
def overrides(draw):
    """One leaf of the default document and a value for it: any JSON shape,
    one near the default, or a small integer (which a float default must
    store as a float)."""
    dotted, default = draw(st.sampled_from(LEAVES))
    value = draw(st.one_of(VALUES, _scaled(default), st.integers(-5, 50)))
    return dotted, default, value


def _nest(dotted, value):
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def _as_float(value):
    """`value` with each integer that fits a float spelled as a float."""
    if isinstance(value, list):
        return [_as_float(v) for v in value]
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    return value


def _written(override):
    """The JSON text of the document a config loaded with `override`
    writes."""
    return json.dumps(document(load_config(overrides=override)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(overrides())
# a stride or fin speed too small for the drift distance; a pulse too long
# for the recording at its sample rate
@example(("gait.stride_m", 0.033, 1e-6))
@example(("gait.fin_speed_rad_s", 2 * math.pi, 1e-4))
@example(("tail.pulse_width_s", 0.01, 1e4))
def test_config_override_raises_one_error_or_round_trips(case):
    dotted, default, value = case
    shape = default if default is not None else 0.0
    try:
        config = load_config(overrides=_nest(dotted, value))
    except ConfigError as exc:
        message = str(exc)
        assert "\n" not in message
        # an error names the key, and every key it names is a leaf of the
        # default document; a quoted value names none
        assert dotted in message, message
        unquoted = re.sub(r"(['\"]).*?\1", "", message)
        for key in NAMED_KEY.findall(unquoted):
            assert re.sub(r"\[\d+\]", "", key) in LEAF_KEYS, (key, message)
        return
    written = json.dumps(document(config))
    assert load_config(overrides=json.loads(written)) == config
    assert _written(json.loads(written)) == written
    if isinstance(shape, float) or (isinstance(shape, list)
                                    and isinstance(shape[0], float)):
        # an integer and a float spelling load and write the same bytes
        assert _written(_nest(dotted, _as_float(value))) == written

