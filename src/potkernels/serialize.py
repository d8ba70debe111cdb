"""Deterministic JSON and CSV writers for reports and artifacts.

Sorted keys, full-precision floats, no timestamps: identical inputs give
byte-identical files, so seeded runs can be diffed. A float is written as
the repr of a Python float, the shortest string that reads back to the same
value. CSV rows are formatted from `tolist()` values a block of rows at a
time, so a writer's memory is set by the block, not by the table.
"""

import json

import numpy as np

_BLOCK_ROWS = 4096


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(_plain(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table_csv(path, header, columns):
    """One row per position of the 1-d `columns`, each of a single dtype.

    A cell is str() of its `tolist()` scalar, the repr for a float. Columns
    convert one by one: stacked, integer labels would turn into floats.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i0 in range(0, min(map(len, columns)), _BLOCK_ROWS):
            cells = [map(str, c[i0 : i0 + _BLOCK_ROWS].tolist()) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_matrix_csv(path, entries, row_labels, col_labels, header):
    """Entries as (row label, column label, value) rows, one matrix row at a time."""
    entries = np.asarray(entries, dtype=float)
    cols = [f"{int(j)}," for j in col_labels]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in zip(row_labels, entries):
            pre = f"{int(i)},"
            fh.write("".join([f"{pre}{j}{v!r}\n" for j, v in zip(cols, row.tolist())]))


def write_sequence_csv(path, labels, values, value_name="value"):
    columns = (np.asarray(labels, dtype=int), np.asarray(values, dtype=float))
    write_table_csv(path, ("index", value_name), columns)
