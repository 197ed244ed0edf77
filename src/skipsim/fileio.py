"""The package's file formats, each written and read in one place: CSV with
LF line endings and floats in shortest round-trip form, and JSON indented by
two spaces with sorted keys and a final newline."""

from __future__ import annotations

import csv
import json
import os
import warnings
from array import array
from itertools import chain

import numpy as np

# Rows of an array that array_rows turns into Python floats at once
CSV_WRITE_ROWS = 4096


def write_csv(path, header, rows):
    """Write `header` and then `rows`; a Python or numpy float as its str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def array_rows(n, columns):
    """The `n` rows of a table as tuples of Python floats, for write_csv:
    `columns(start, stop)` gives the columns of rows start to stop as 1-D
    arrays, and CSV_WRITE_ROWS rows are converted at a time."""
    for start in range(0, n, CSV_WRITE_ROWS):
        stop = min(start + CSV_WRITE_ROWS, n)
        yield from zip(*[column.tolist() for column in columns(start, stop)])


def write_json(path, payload):
    """Write `payload`, refusing NaN and infinities (not JSON) before the
    file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"{os.path.basename(path)} would hold a non-finite "
                         "number") from None
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def number(text) -> float:
    """The CSV field `text` as a float, or a ValueError saying it is none."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"field {text!r} is not a number") from None


def read_csv(path, columns, what, convert):
    """Yield `convert(fields)` for each non-blank row of the CSV at `path`,
    `fields` listing the row's fields in `columns` order. The header must
    name each of `columns` once, in any order, and each row must have as
    many fields as the header. The first error in file order, a ValueError
    of `convert` included, is one ValueError naming its CSV line (blank
    lines count)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if sorted(header) != sorted(columns):
                raise ValueError("the header must name the columns "
                                 f"{list(columns)}, each once")
            order = [*map(header.index, columns)]
            for row in reader:
                if row:
                    if len(row) != len(order):
                        raise ValueError(f"a row must have {len(order)} "
                                         "fields, as the header has")
                    yield convert([row[i] for i in order])
        except (ValueError, csv.Error) as exc:
            # an empty file stops at its first line too
            raise ValueError(f"{what} CSV line {max(reader.line_num, 1)}: "
                             f"{exc}") from None


def _numbers(fields) -> list:
    return [*map(number, fields)]


def _lines(fh, limit):
    for line in fh:
        if len(line) > limit:  # may hold a field too long for csv
            raise ValueError("line over the csv field limit")
        yield line


def _parsed_table(path, columns):
    """The rows after a CSV's header as numpy's C parser reads them, in
    `columns` order; an exception where the parser refuses a line or reads
    none, or where the header or the row width is not that of `columns`."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if sorted(header) != sorted(columns):
            raise ValueError("not the header of `columns`")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            table = np.loadtxt(_lines(fh, csv.field_size_limit()),
                               delimiter=",", comments=None, quotechar=None,
                               ndmin=2)
    if table.shape[1] != len(columns):
        raise ValueError("not the row width of `columns`")
    return table[:, [*map(header.index, columns)]]


def read_csv_table(path, columns, what) -> np.ndarray:
    """The non-blank rows of a CSV with exactly `columns` (in any order), as
    an (n, len(columns)) array of finite floats ordered like `columns`.
    numpy's C parser reads a plain file of numbers; whatever it refuses
    (quoted fields, `1_0`, non-ASCII digits, a whitespace-only line, no rows
    at all, a line over the csv field limit) read_csv reads row by row into
    one flat array of floats, to the same table or the same error."""
    try:
        values = _parsed_table(path, columns)
    except (ValueError, UserWarning, csv.Error):
        values = None  # the row loop reads it or names its first error
    if values is None:
        flat = array("d", chain.from_iterable(
            read_csv(path, columns, what, _numbers)))
        values = np.frombuffer(flat).reshape(-1, len(columns))
    if not np.isfinite(values).all():
        raise ValueError(f"{what} CSV values must be finite")
    return values
