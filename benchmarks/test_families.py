"""Layer benchmark: the family protocol's diagonal and path stream at N = 10^6.

Times `kernel_diagonal` and a 3-row `sample_gaussian` for every family with
a path stream. The shifted families run through their base family, so a
shifted row that drifts away from its base row shows the cost of the
delegation.

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
    MinKernel,
    ScaledMinKernel,
    ShiftedScaled,
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
    "ar1": lambda n: AR1(x=np.full(n, 0.5)),
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
