"""Layer benchmark: `analytic_median_band` on the trend-band diagonals.

Times the calibration band alone, with the diagonal and normalizer built
outside the timed call, for the three diagonal shapes of the `trend-band`
workload: exp with unit gaps (one distinct value), AR1 with x = 1/2 (a few
dozen distinct values) and the unit-drift ARk (all values distinct).

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_band.py --benchmark-json=band.json
"""

import numpy as np
import pytest

from potkernels import AR1, ARk, ExpKernel, analytic_median_band, kernel_diagonal, predict

DRIFT_P = (1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0)

# family -> (spec at size n, hypotheses beyond f_class = zero, alpha = 1/2)
FAMILIES = {
    "exp": (lambda n: ExpKernel(v=np.arange(1.0, n + 1.0)), {"gaps": "separated"}),
    "ar1": (lambda n: AR1(x=np.full(n, 0.5)), {"x_limit": 0.5}),
    "ark": (lambda n: ARk(p=DRIFT_P), {}),
}


@pytest.mark.parametrize("n", [100_000, 1_000_000])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_band(benchmark, family, n):
    make, hypotheses = FAMILIES[family]
    spec = make(n)
    diag = kernel_diagonal(spec, n)
    phi_at_n = float(predict(spec, "zero", 0.5, **hypotheses).normalizer(n))
    lo, hi = benchmark(analytic_median_band, diag, phi_at_n, 0.5, 21)
    assert 0 < lo < hi
