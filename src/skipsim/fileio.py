"""The package's file formats, each written and read in one place: CSV with
LF line endings and floats in shortest round-trip form, and JSON indented by
two spaces with sorted keys and a final newline."""

from __future__ import annotations

import csv
import json
import operator
import os
from functools import partial

import numpy as np


def write_csv(path, header, rows):
    """Write `header` and then `rows`; a Python or numpy float as its str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    """Yield from `convert(fields)` for each non-blank row of the CSV at
    `path`, its fields ordered like `columns`. The header must name each of
    `columns` exactly once, in any order, and each row must have as many
    fields as the header; an error, the reader's or `convert`'s, is a
    ValueError naming the CSV line it stopped at (blank lines count)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if sorted(header) != sorted(columns):
                raise ValueError("the header must name the columns "
                                 f"{list(columns)}, each once")
            get = operator.itemgetter(*map(header.index, columns))
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise ValueError(f"a row must have {len(header)} "
                                         "fields, as the header has")
                    yield from convert(get(row))
        except (ValueError, csv.Error) as exc:
            # an empty file stops at its first line too
            raise ValueError(f"{what} CSV line {max(reader.line_num, 1)}: "
                             f"{exc}") from None


def read_csv_table(path, columns, what) -> np.ndarray:
    """The non-blank rows of a CSV with exactly `columns` (in any order), as
    an (n, len(columns)) array of finite floats ordered like `columns`."""
    values = np.fromiter(read_csv(path, columns, what, partial(map, number)),
                         float)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} CSV values must be finite")
    return values.reshape(-1, len(columns))
