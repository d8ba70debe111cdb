"""Layer benchmark: the Gamma-marginal KS harness, its path stream, and window inverses.

`test_gamma_marginal` times `gamma_marginal_test` at 10^5 samples on the
criterion-8 inputs of the `sample-ks` workload: exp with unit gaps and AR1
with x = 1/2 at n = 40, indices 2, 10 and 30, alpha 1/2 and 3/2 (10^5 and
3 x 10^5 Gaussian rows of 30 steps). Its cost is the normal draws, the
filter and the KS supremum per index. `test_stream` times the bare stream
at the larger size, 3 x 10^5 rows of 30 steps of the exp recurrence, drawn
and filtered with nothing after it. `test_window_inverse` times
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


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("family", sorted(KS_FAMILIES))
def test_gamma_marginal(benchmark, family, alpha):
    spec = KS_FAMILIES[family](KS_N)
    report = benchmark(gamma_marginal_test, spec, None, alpha, INDICES, SAMPLES, 7)
    assert len(report.records) == len(INDICES)


def consume_stream(spec, rows, n):
    last = None
    for block in spec.path_stream(n, _trial_rng(7, 0), rows, 256):
        last = block
    return last


def test_stream(benchmark):
    last = benchmark(consume_stream, KS_FAMILIES["exp"](KS_N), 3 * SAMPLES, 30)
    assert last.shape == (3 * SAMPLES, 30)


@pytest.mark.parametrize(
    "family, n, l", WINDOW_ROWS, ids=[f"{f}-{n}" for f, n, _ in WINDOW_ROWS]
)
def test_window_inverse(benchmark, family, n, l):
    inverse = benchmark(window_inverse, WINDOW_FAMILIES[family](n), Window(l, n))
    assert inverse.shape == (n, n)
