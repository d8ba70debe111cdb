"""Layer benchmark: the symmetrization ledger, `extend` and `analyze`.

Times `analyze(extend(U, f), U, f)` on min (window from l = 1), exp and
ARk windows at n = 100, 400 and 2000. The perturbation is the excessive
f = U h for a density h >= 0 on five labels of the window, so the
couplings U^{-1} f recover h and rho is the mass of h. The window and f are
built outside the timed call; the row is the ledger's cost alone: the
window inverse and its condition estimate, the dense inverse of the
extension, the sign check of the symmetrization and the determinants.

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_ledger.py --benchmark-json=ledger.json
"""

import numpy as np
import pytest

from potkernels import ARk, ExpKernel, MinKernel, Window, analyze, build_kernel, extend

SIZES = (100, 400, 2000)
SUPPORT = 5

# family -> spec covering the labels 2 ... n + 1 of Window(1, n)
FAMILIES = {
    "min": lambda n: MinKernel(s=np.arange(1.0, n + 2.0)),
    "exp": lambda n: ExpKernel(v=np.arange(1.0, n + 2.0)),
    "ark": lambda n: ARk(p=(0.5, 0.25)),
}


def ledger(U, f):
    return analyze(extend(U, f), U, f)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ledger(benchmark, family, n):
    U = np.asarray(build_kernel(FAMILIES[family](n), Window(1, n)).entries)
    rng = np.random.default_rng(7)
    h = np.zeros(n)
    h[rng.choice(n, SUPPORT, replace=False)] = rng.uniform(0.5, 1.5, SUPPORT)
    led = benchmark(ledger, U, U @ h)
    assert led.rho == pytest.approx(h.sum(), rel=1e-8)
