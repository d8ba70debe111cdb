"""The row-wise writers against the per-cell formatting they replaced."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from potkernels.serialize import (
    _BLOCK_ROWS,
    _plain,
    write_json,
    write_matrix_csv,
    write_sequence_csv,
    write_table_csv,
)

# edge values of float formatting: signed zero, non-finite, the smallest
# subnormal, the exponent switch at 1e-5 and 1e16, and a round-off sum
EDGES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16, 0.1 + 0.2]


# -- reference: one generator step and one `_cell` call per cell ------------

def ref_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def ref_table(header, rows):
    lines = [",".join(header)]
    lines += [",".join(ref_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def ref_matrix(entries, row_labels, col_labels, header):
    rows = (
        (int(row_labels[i]), int(col_labels[j]), float(entries[i, j]))
        for i in range(entries.shape[0])
        for j in range(entries.shape[1])
    )
    return ref_table(header, rows)


def ref_plain(obj):
    if isinstance(obj, dict):
        return {str(k): ref_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [ref_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def written(tmp_path, writer, *args):
    path = tmp_path / "out"
    writer(path, *args)
    text = path.read_text()
    assert "np." not in text
    return text


def test_matrix_edges_and_int64_labels(tmp_path):
    entries = np.array([EDGES, EDGES[::-1]])
    rows = np.array([7, 8], dtype=np.int64)
    cols = np.arange(1, len(EDGES) + 1, dtype=np.int64)
    header = ("i", "j", "value")
    got = written(tmp_path, write_matrix_csv, entries, rows, cols, header)
    assert got == ref_matrix(entries, rows, cols, header)
    assert "-0.0" in got and "5e-324" in got and "1e-05" in got and "1e+16" in got


def test_table_columns_of_each_dtype(tmp_path):
    n = 2 * len(EDGES)
    labels = np.arange(1, n + 1, dtype=np.int64)
    values = np.array(EDGES * 2)
    single = np.linspace(-3.0, 3.0, n, dtype=np.float32)
    flags = labels % 3 == 0
    header = ("index", "value", "single", "flag")
    got = written(tmp_path, write_table_csv, header, (labels, values, single, flags))
    assert got == ref_table(header, zip(labels, values, single, flags))


def test_table_python_sequences(tmp_path):
    # the trend.csv case: a tuple of ints beside float arrays
    checkpoints, median = (10, 100, 1000), np.array([0.1 + 0.2, 1e16, -0.0])
    header = ("checkpoint", "median")
    got = written(tmp_path, write_table_csv, header, (checkpoints, median))
    assert got == ref_table(header, zip(checkpoints, median))


def test_sequence_casts_like_the_reference(tmp_path):
    labels = np.arange(3, 3 + len(EDGES), dtype=np.int64)
    got = written(tmp_path, write_sequence_csv, labels, EDGES, "a")
    rows = ((int(i), float(v)) for i, v in zip(labels, EDGES))
    assert got == ref_table(("index", "a"), rows)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(), min_size=1, max_size=60),
    width=st.integers(1, 7),
)
def test_matrix_matches_reference_on_any_floats(tmp_path_factory, values, width):
    entries = np.resize(np.array(values), (len(values), width))
    rows, cols = np.arange(1, len(values) + 1), np.arange(5, 5 + width)
    header = ("trial", "index", "value")
    path = tmp_path_factory.mktemp("m")
    got = written(path, write_matrix_csv, entries, rows, cols, header)
    assert got == ref_matrix(entries, rows, cols, header)


# sparse rows: mostly +0.0, the cell written from precomputed text, beside
# the values whose text must still come from repr
SPARSE_CELLS = st.one_of(
    st.sampled_from([0.0] * 6 + [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16]),
    st.floats(),
)
DENSE_CELLS = st.floats().filter(lambda v: v != 0.0 or np.signbit(v))
ROW_COUNTS = st.one_of(
    st.integers(1, 30),
    st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]),
)


@st.composite
def sparse_matrices(draw):
    """A few all-zero, sparse and dense rows, repeated to the drawn row count."""
    width = draw(st.integers(1, 7))
    cells = {"zero": st.just(0.0), "sparse": SPARSE_CELLS, "dense": DENSE_CELLS}
    pattern = [
        draw(st.lists(cells[kind], min_size=width, max_size=width))
        for kind in draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=6))
    ]
    return np.resize(np.array(pattern), (draw(ROW_COUNTS), width))


@settings(max_examples=60, deadline=None)
@given(entries=sparse_matrices())
@example(entries=np.zeros((_BLOCK_ROWS + 1, 1)))
@example(entries=np.array([[0.0], [-0.0], [np.nan], [5e-324], [0.0]]))
@example(entries=np.array([[0.0, -0.0, np.inf, 0.0, 1e16, -np.inf, 0.0]]))
def test_matrix_matches_reference_on_sparse_rows(tmp_path_factory, entries):
    count, width = entries.shape
    rows, cols = 3 * np.arange(count) + 2, np.arange(5, 5 + width)
    header = ("i", "j", "value")
    path = tmp_path_factory.mktemp("m")
    got = written(path, write_matrix_csv, entries, rows, cols, header)
    assert got == ref_matrix(entries, rows, cols, header)


def test_matrix_refuses_labels_that_do_not_fit(tmp_path):
    entries, header = np.ones((3, 2)), ("i", "j", "value")
    for rows, cols in [(range(2), range(2)), (range(4), range(2)), (range(3), range(1))]:
        with pytest.raises(ValueError, match="entries, "):
            write_matrix_csv(tmp_path / "m.csv", entries, rows, cols, header)
    with pytest.raises(ValueError, match="entries, "):
        write_matrix_csv(tmp_path / "m.csv", np.ones(3), range(3), range(1), header)


def test_table_refuses_columns_that_do_not_fit(tmp_path):
    bad = [
        (("a", "b"), (np.arange(3), np.arange(4.0))),
        (("a", "b"), (np.arange(4), np.arange(3.0))),
        (("a",), (np.arange(3), np.arange(3.0))),
        (("a", "b", "c"), (np.arange(3), np.arange(3.0))),
        ((), ()),
    ]
    for header, columns in bad:
        with pytest.raises(ValueError, match="lengths"):
            write_table_csv(tmp_path / "t.csv", header, columns)


def test_json_numpy_scalars_and_arrays(tmp_path):
    doc = {
        "f64": np.float64(0.1 + 0.2),
        "f32": np.float32(0.1),
        "i64": np.int64(-3),
        "flag": np.bool_(True),
        "arr": np.array([[1.5, -0.0], [5e-324, 1e16]]),
        "ints": np.arange(3),
        "nested": [{np.int64(2): np.float64(1e-5)}, (np.int32(4), 2.5)],
    }
    got = written(tmp_path, write_json, doc)
    assert _plain(doc) == ref_plain(doc)
    assert got == json.dumps(ref_plain(doc), indent=2, sort_keys=True) + "\n"


def test_matrix_writer_memory_is_bounded_by_the_row(tmp_path):
    entries = np.random.default_rng(0).standard_normal((10_000, 40))
    tracemalloc.start()
    try:
        entries.tolist()
        full = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_matrix_csv(
            tmp_path / "samples.csv", entries, range(1, 10_001), np.arange(1, 41),
            ("trial", "index", "value"),
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # about 13 MB for the whole table as Python floats
    assert full > 10e6
    assert peak < full / 20


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 10_000])
def test_table_block_edges(tmp_path, rows):
    labels, values = np.arange(1, rows + 1), np.sqrt(np.arange(rows) + 0.5)
    got = written(tmp_path, write_table_csv, ("index", "v"), (labels, values))
    assert got == ref_table(("index", "v"), zip(labels, values))
