"""Layer benchmark: the artifact writers on the CLI's three largest CSVs.

Times writing `inverse.csv` for an AR1 window at n = 300, `samples.csv` for
10^4 permanental trials of an exp window at n = 40, and `phi.csv` for
p = (1/2, 1/4) at 10^5 terms. Each input is computed outside the timed
call, and each writer is called as the CLI calls it, so a row is the
writer's cost alone.

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_serialize.py --benchmark-json=serialize.json
"""

import numpy as np

from potkernels import (
    AR1,
    ExpKernel,
    Window,
    phi_recursive,
    sample_permanental,
    window_inverse,
)
from potkernels.serialize import write_matrix_csv, write_table_csv

INVERT_N = 300
TRIALS, SIM_N = 10_000, 40
PHI_TERMS = 100_000


def lines(path):
    with open(path) as fh:
        return sum(1 for _ in fh)


def test_inverse_csv(benchmark, tmp_path):
    window = Window(7, INVERT_N)
    inv = window_inverse(AR1(x=np.linspace(0.3, 0.8, INVERT_N + 30)), window)
    path = tmp_path / "inverse.csv"
    labels = window.labels
    benchmark(write_matrix_csv, path, inv, labels, labels, ("i", "j", "value"))
    assert lines(path) == 1 + INVERT_N**2


def test_samples_csv(benchmark, tmp_path):
    window = Window(0, SIM_N)
    spec = ExpKernel(v=0.5 * np.arange(1.0, SIM_N + 11.0))
    batch = sample_permanental(spec, None, 1, SIM_N, 11, trials=TRIALS)
    path = tmp_path / "samples.csv"
    header = ("trial", "index", "value")
    trials = range(1, TRIALS + 1)
    benchmark(write_matrix_csv, path, batch.values, trials, window.labels, header)
    assert lines(path) == 1 + TRIALS * SIM_N


def test_phi_csv(benchmark, tmp_path):
    seq = phi_recursive(np.array([0.5, 0.25]), PHI_TERMS)
    path = tmp_path / "phi.csv"
    columns = (np.arange(1, PHI_TERMS + 1), seq.values)
    benchmark(write_table_csv, path, ("index", "phi"), columns)
    assert lines(path) == 1 + PHI_TERMS
