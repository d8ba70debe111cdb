"""Deterministic JSON and CSV writers for reports and artifacts.

Sorted keys, full-precision floats, no timestamps: identical inputs give
byte-identical files, so seeded runs can be diffed. A float is written as
the repr of a Python float, the shortest string that reads back to the same
value; a +0.0 matrix cell, most of a banded window, gets the same bytes from
its column's precomputed text. CSV rows are formatted from `tolist()` values
a block of rows at a time, so a writer's memory is set by the block.
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
    if len(header) != len(columns) or len({*map(len, columns)}) != 1:
        raise ValueError(f"{len(header)} names for columns of lengths {[*map(len, columns)]}")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i0 in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [map(str, c[i0 : i0 + _BLOCK_ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_matrix_csv(path, entries, row_labels, col_labels, header):
    """Entries as (row label, column label, value) rows, one matrix row at a time."""
    entries, row_labels = np.asarray(entries, dtype=float), np.asarray(row_labels)
    if entries.shape != (row_labels.size, len(col_labels)):
        raise ValueError(f"{entries.shape} entries, {row_labels.size} x {len(col_labels)} labels")
    cols = [f"{int(j)}," for j in col_labels]
    zero_cells = [f"{j}0.0" for j in cols]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i0 in range(0, len(entries), _BLOCK_ROWS):
            block = entries[i0 : i0 + _BLOCK_ROWS]
            zero = block.view(np.int64) == 0    # +0.0, and not -0.0, has no bit set
            sparse = zero.any(axis=1).tolist()
            for r, (i, row) in enumerate(zip(row_labels[i0 : i0 + _BLOCK_ROWS].tolist(), block)):
                pre = f"{int(i)},"
                if not sparse[r]:
                    fh.write("".join([f"{pre}{j}{v!r}\n" for j, v in zip(cols, row.tolist())]))
                    continue
                cells = zero_cells.copy()
                for c in np.flatnonzero(~zero[r]).tolist():
                    cells[c] = f"{cols[c]}{float(row[c])!r}"
                fh.write(pre + ("\n" + pre).join(cells) + "\n")


def write_sequence_csv(path, labels, values, value_name="value"):
    columns = (np.asarray(labels, dtype=int), np.asarray(values, dtype=float))
    write_table_csv(path, ("index", value_name), columns)
