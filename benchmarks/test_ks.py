"""Layer benchmark: the Gamma-marginal KS harness, its path stream, and window inverses.

`test_gamma_marginal` times `gamma_marginal_test` at 10^5 samples on the
criterion-8 inputs of the `sample-ks` workload: exp with unit gaps and AR1
with x = 1/2 at n = 40, indices 2, 10 and 30, alpha 1/2 and 3/2 (10^5 and
3 x 10^5 Gaussian rows). Both families are order-1 chains, so each row
draws only its 3 tested values, as the Markov chain that they form
(`_Chain._kept_chain`). Its cost is those normal draws, one per chunk on
the calling thread, the chain's recurrence, which `linear_recurrence` runs
as a loop over the 3 columns, and the KS supremum per index.
`test_linear_recurrence` times `linear_recurrence` alone at k = 1 with
per-index coefficients, from a fresh copy of u each round: on a KS cell's
(3 x 10^5, 3) kept chain, on 4096-row stream tiles of 40, 64 and 256
columns, past the column loop's cap of 8, and on 21 rows of 65536 columns,
a trend stream's few long rows. `test_stream` times the bare stream
at the larger size, 3 x 10^5 rows of 30 steps of the exp recurrence, drawn
and filtered with nothing after it, keeping all 30 columns (`all`) or the
three that the KS harness reads (`ks`). Both tests also run the call once
under `tracemalloc`, apart from the timed calls, and write its peak in MiB
to `extra_info["tracemalloc_peak_mib"]`: a wide stream holds one (rows,
kept) block per chunk, so the peak follows the kept columns, not the 30
steps. `test_stream` is the family's full stream, which the KS harness
still reads for the families that are not order-1 chains. `test_window_inverse` times
`window_inverse` on min, exp, AR1, ARk and ARkGen windows from l = 1 at
n = 400 and 2000: building the window and the closed chain precision of
each, with its condition estimate and residual check, the same for all
five. The ARk and ARkGen precisions have band 2 and a head block that is
the inverse of the kernel on the window's first two values. One more row
takes a rank-one update of a min kernel, bumped at (1, 3) as the
`window-analytic` workload bumps it, on Window(0, 300), which holds the bump.

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_ks.py --benchmark-json=ks.json
"""

import tracemalloc

import numpy as np
import pytest

from potkernels import (
    AR1,
    ARk,
    ARkGen,
    ExpKernel,
    MinKernel,
    RankOneUpdate,
    Window,
    gamma_marginal_test,
    window_inverse,
)
from potkernels.argen import linear_recurrence
from potkernels.mcsim import _trial_rng

SAMPLES = 100_000
KS_N = 40
INDICES = (2, 10, 30)

# family -> spec at size n
KS_FAMILIES = {
    "exp": lambda n: ExpKernel(v=np.arange(float(n))),
    "ar1": lambda n: AR1(x=np.full(n - 1, 0.5)),
}

WINDOW_FAMILIES = {
    "min": lambda n: MinKernel(s=np.arange(1.0, n + 2.0)),
    "exp": lambda n: ExpKernel(v=np.arange(1.0, n + 2.0)),
    "ar1": lambda n: AR1(x=np.full(n + 1, 0.5)),
    "ark": lambda n: ARk(p=(0.5, 0.25)),
    "ark_gen": lambda n: ARkGen(p=(0.5, 0.25), a_sq=0.4),
    "rank_one_update": lambda n: RankOneUpdate(
        base=MinKernel(s=np.arange(1.0, n + 2.0)), k=1, l=3, b=0.4
    ),
}
# (family, n, l): the chain families from l = 1, and the rank-one update from
# l = 0, so that its window holds k and l
WINDOW_ROWS = [
    (family, n, 1) for n in (400, 2000) for family in sorted(WINDOW_FAMILIES)
    if family != "rank_one_update"
] + [("rank_one_update", 300, 0)]


def traced_peak_mib(fn, *args):
    """The tracemalloc peak of one untimed call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("family", sorted(KS_FAMILIES))
def test_gamma_marginal(benchmark, family, alpha):
    spec = KS_FAMILIES[family](KS_N)
    args = (spec, None, alpha, INDICES, SAMPLES, 7)
    benchmark.extra_info["tracemalloc_peak_mib"] = traced_peak_mib(gamma_marginal_test, *args)
    report = benchmark(gamma_marginal_test, *args)
    assert len(report.records) == len(INDICES)


def consume_stream(spec, rows, n, cols):
    last = None
    for block in spec.path_stream(n, _trial_rng(7, 0), rows, 256, cols):
        last = block
    return last


# the stream's kept columns: all 30, or the 0-based KS indices
STREAM_COLUMNS = {"all": None, "ks": np.array(INDICES) - 1}


@pytest.mark.parametrize("kept", sorted(STREAM_COLUMNS))
def test_stream(benchmark, kept):
    args = (KS_FAMILIES["exp"](KS_N), 3 * SAMPLES, 30, STREAM_COLUMNS[kept])
    benchmark.extra_info["tracemalloc_peak_mib"] = traced_peak_mib(consume_stream, *args)
    last = benchmark(consume_stream, *args)
    width = 30 if STREAM_COLUMNS[kept] is None else len(INDICES)
    assert last.shape == (3 * SAMPLES, width)


# (rows, columns) of the k = 1 recurrence
RECURRENCE_SHAPES = [(3 * SAMPLES, 3), (4096, 40), (4096, 64), (4096, 256), (21, 65536)]


@pytest.mark.parametrize(
    "rows, n", RECURRENCE_SHAPES, ids=[f"{rows}x{n}" for rows, n in RECURRENCE_SHAPES]
)
def test_linear_recurrence(benchmark, rows, n):
    rng = np.random.default_rng(7)
    c, u = rng.uniform(0.2, 0.9, (1, n)), rng.standard_normal((rows, n))
    history = np.zeros((rows, 1))
    y = benchmark.pedantic(
        linear_recurrence, setup=lambda: ((c, u.copy(), history), {}), rounds=40
    )
    assert y.shape == (rows, n)


@pytest.mark.parametrize(
    "family, n, l", WINDOW_ROWS, ids=[f"{f}-{n}" for f, n, _ in WINDOW_ROWS]
)
def test_window_inverse(benchmark, family, n, l):
    inverse = benchmark(window_inverse, WINDOW_FAMILIES[family](n), Window(l, n))
    assert inverse.shape == (n, n)
