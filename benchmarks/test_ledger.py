"""Layer benchmark: the symmetrization ledger, `extend` and `analyze`.

Times `analyze(extend(U, f), U, f)` on min, scaled-min, exp, AR1 and ARk
windows from l = 1 at n = 100, 400 and 2000. U is the `DenseKernelWindow`
that `build_kernel` returns, as the CLI and `mcsim` pass it, so every
family here takes its chain precision. The perturbation is the excessive
f = U h for a density h >= 0 on five labels of the window, so the
couplings U^{-1} f recover h and rho is the mass of h. The window and f are
built outside the timed call, afresh for every round, since a window keeps
its checked inverse once read; the row is the ledger's cost alone: the
checked window inverse, the residual products that check the closed-form
inverses of the extension and of its symmetrization, the sign check of the
symmetrization and the determinants.

The scaled-min couplings P^T f carry round-off of about 1e-13 at the labels
where h is zero. It lies within the dot-product error bound that `analyze`
zeroes, so those rows complete like the others.

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_ledger.py --benchmark-json=ledger.json
"""

import numpy as np
import pytest

from potkernels import (
    AR1,
    ARk,
    ExpKernel,
    IdentityError,
    MinKernel,
    ScaledMinKernel,
    Window,
    analyze,
    build_kernel,
    extend,
)

SIZES = (100, 400, 2000)
SUPPORT = 5
# timed rounds per window size, each on a window built in its setup
ROUNDS = {100: 100, 400: 20, 2000: 5}

# family -> spec covering the labels 2 ... n + 1 of Window(1, n)
FAMILIES = {
    "min": lambda n: MinKernel(s=np.arange(1.0, n + 2.0)),
    # b = sqrt(s) keeps the window-inverse row sums nonnegative
    "scaled_min": lambda n: ScaledMinKernel(
        s=np.arange(1.0, n + 2.0), b=np.sqrt(np.arange(1.0, n + 2.0))
    ),
    "exp": lambda n: ExpKernel(v=np.arange(1.0, n + 2.0)),
    "ar1": lambda n: AR1(x=np.full(n + 1, 0.5)),
    "ark": lambda n: ARk(p=(0.5, 0.25)),
}


def ledger(U, f):
    try:
        return analyze(extend(U, f), U, f)
    except IdentityError as exc:
        return exc.key


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ledger(benchmark, family, n):
    spec = FAMILIES[family](n)
    rng = np.random.default_rng(7)
    h = np.zeros(n)
    h[rng.choice(n, SUPPORT, replace=False)] = rng.uniform(0.5, 1.5, SUPPORT)

    def fresh_window():
        U = build_kernel(spec, Window(1, n))
        return (U, U.entries @ h), {}

    led = benchmark.pedantic(ledger, setup=fresh_window, rounds=ROUNDS[n])
    assert led.rho == pytest.approx(h.sum(), rel=1e-8)
