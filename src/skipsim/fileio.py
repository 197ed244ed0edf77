"""The package's file formats, each written and read in one place: CSV with
LF line endings and floats in shortest round-trip form, and JSON indented by
two spaces with sorted keys and a final newline."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# Fields read_csv converts at once, so that the strings of at most one chunk
# are held
CSV_CHUNK_FIELDS = 1 << 14


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


def read_csv(path, columns, what, convert, by_row=False):
    """The list of `convert(fields, order, float)` over the CSV at `path`, in
    chunks: `fields` lists about CSV_CHUNK_FIELDS fields of its non-blank
    rows in file order, and `order[j]` is the place of `columns[j]` in a
    row. The header must name each of `columns` once, in any order, and
    each row must have as many fields as the header. On an error the file
    is read again `by_row`, each row converted on its own with `number`, so
    the ValueError names the CSV line of the first error in file order
    (blank lines count)."""
    parts, fields = [], []
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
                    if by_row:
                        convert([row[i] for i in order], range(len(order)),
                                number)
                    fields += row
                    if len(fields) >= CSV_CHUNK_FIELDS:
                        parts.append(convert(fields, order, float))
                        fields = []
            return parts + [convert(fields, order, float)]
        except (ValueError, csv.Error) as exc:
            if not by_row:
                return read_csv(path, columns, what, convert, by_row=True)
            # an empty file stops at its first line too
            raise ValueError(f"{what} CSV line {max(reader.line_num, 1)}: "
                             f"{exc}") from None


def _table(fields, order, to_float) -> np.ndarray:
    return np.fromiter(map(to_float, fields), float, len(fields)).reshape(
        -1, len(order))[:, order]


def read_csv_table(path, columns, what) -> np.ndarray:
    """The non-blank rows of a CSV with exactly `columns` (in any order), as
    an (n, len(columns)) array of finite floats ordered like `columns`."""
    values = np.concatenate(read_csv(path, columns, what, _table))
    if not np.isfinite(values).all():
        raise ValueError(f"{what} CSV values must be finite")
    return values
