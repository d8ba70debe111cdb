"""Layer benchmark: the family protocol's diagonal and path stream at N = 10^6.

Times `kernel_diagonal` and a 3-row `sample_gaussian` for every family with
a path stream. The shifted families run through their base family, so a
shifted row that drifts away from its base row shows the cost of the
delegation. Two rows have time-varying coefficients: exp on an uneven grid
and AR1 with x_j = 1 - c / sqrt(j). Every chain family's recurrence is one
unit band solve per chunk (`argen.linear_recurrence`), with per-index or
constant coefficients alike, so each pair of rows gives the varying against
the constant cost per sample; the ARk diagonal sums the squares of `phi`,
the impulse response that the same solve gives.
`test_killed_walk_stream` times a `sample_gaussian` of 10^4 paths over the
401 sites of a killed walk with radius 200: one band Cholesky factorization
of its precision and one triangular band solve per row tile.
`test_killed_walk_stream_1e6` times a 3-row `sample_gaussian` over the
999,999 sites of a killed walk with radius 499,999, whose band is written
straight from the rates.
`test_ark_window_entries` times the dense ARk window from l = 10 at n = 60
to 400, the range of the window sizes in `perfbench`'s `window-analytic`.

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_families.py --benchmark-json=families.json
"""

import numpy as np
import pytest

from potkernels import (
    AR1,
    AR1Shifted,
    ARk,
    ARkGen,
    ExpKernel,
    KilledWalk,
    MinKernel,
    ScaledMinKernel,
    ShiftedScaled,
    Window,
    kernel_diagonal,
    sample_gaussian,
)

N = 1_000_000
ROWS = 3

# family -> spec at size n; every one is admissible
FAMILIES = {
    "min": lambda n: MinKernel(s=np.arange(1.0, n + 1.0)),
    "scaled_min": lambda n: ScaledMinKernel(
        s=np.arange(1.0, n + 1.0), b=np.sqrt(np.arange(1.0, n + 1.0))
    ),
    "shifted_scaled": lambda n: ShiftedScaled(
        s=np.arange(1.0, n + 1.0), b=np.full(n, 1.5), Delta=0.5
    ),
    "exp": lambda n: ExpKernel(v=np.arange(1.0, n + 1.0)),
    "exp_uneven": lambda n: ExpKernel(
        v=np.cumsum(np.random.default_rng(7).uniform(0.5, 1.5, n))
    ),
    "ar1": lambda n: AR1(x=np.full(n, 0.5)),
    "ar1_varying": lambda n: AR1(x=1.0 - 0.5 / np.sqrt(np.arange(1.0, n + 1.0))),
    "ar1_shifted": lambda n: AR1Shifted(x=np.full(n, 0.5), delta_tilde=1.5),
    "ark": lambda n: ARk(p=(0.5, 0.25)),
    "ark_gen": lambda n: ARkGen(p=(0.5, 0.25), a_sq=0.4),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_diagonal(benchmark, family):
    spec = FAMILIES[family](N)
    diag = benchmark(kernel_diagonal, spec, N)
    assert diag.shape == (N,)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stream(benchmark, family):
    spec = FAMILIES[family](N)
    batch = benchmark(sample_gaussian, spec, N, 7, ROWS)
    assert batch.values.shape == (ROWS, N)


def test_killed_walk_stream(benchmark):
    spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=200)
    batch = benchmark(sample_gaussian, spec, 401, 7, 10_000)
    assert batch.values.shape == (10_000, 401)


def test_killed_walk_stream_1e6(benchmark):
    spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=499_999)
    batch = benchmark(sample_gaussian, spec, 999_999, 7, ROWS)
    assert batch.values.shape == (ROWS, 999_999)


@pytest.mark.parametrize("n", [60, 120, 250, 400])
def test_ark_window_entries(benchmark, n):
    spec, window = ARk(p=(0.5, 0.25)), Window(10, n)
    entries = benchmark(spec.window_entries, window)
    assert entries.shape == (n, n)
