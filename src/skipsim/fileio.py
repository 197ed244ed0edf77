"""The package's file formats, each written and read in one place: CSV with
LF line endings and floats in shortest round-trip form, and JSON indented by
two spaces with sorted keys and a final newline."""

from __future__ import annotations

import csv
import itertools
import json
import operator
import os

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


def read_csv_table(path, columns, what) -> np.ndarray:
    """The non-blank rows of a CSV with exactly `columns` (in any order), as
    an (n, len(columns)) array of finite floats ordered like `columns`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if set(header) != set(columns):
            raise ValueError(f"{what} CSV must have columns {list(columns)}")
        get = operator.itemgetter(*map(header.index, columns))
        try:
            values = np.fromiter(itertools.chain.from_iterable(
                map(float, get(row)) for row in reader if row), float)
        except IndexError:
            raise ValueError(
                f"{what} CSV line {reader.line_num} has too few fields") from None
        except ValueError:
            raise ValueError(
                f"{what} CSV line {reader.line_num} holds a non-number") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{what} CSV values must be finite")
    return values.reshape(-1, len(columns))
