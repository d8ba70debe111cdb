"""Layer benchmark: `limsup_experiment`, the trials of a `limsup` command.

Times the streamed running maxima alone, with the spec and prediction built
outside the timed call: 21 trials at N = 10^5 on the three `trend-band`
families (exp with unit gaps, AR1 with x = 1/2 and the unit-drift ARk), and
2 trials at N = 10^6 on AR1, as `trend-stream`'s `ar1-constant-1e6` runs.
The trials run on the calling thread and on helpers up to the usable CPUs,
so the numbers depend on how many CPUs the process may use.

The directory sits outside `testpaths`, so the test suite does not collect
it. Run it from a source checkout:

    python -m pytest benchmarks/test_trend.py --benchmark-json=trend.json
"""

import numpy as np
import pytest

from potkernels import AR1, ARk, ExperimentConfig, ExpKernel, limsup_experiment, predict

DRIFT_P = (1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0)

# family -> (spec at size n, hypotheses beyond f_class = zero, alpha = 1/2)
FAMILIES = {
    "exp": (lambda n: ExpKernel(v=np.arange(1.0, n + 1.0)), {"gaps": "separated"}),
    "ar1": (lambda n: AR1(x=np.full(n, 0.5)), {"x_limit": 0.5}),
    "ark": (lambda n: ARk(p=DRIFT_P), {}),
}
CASES = [(family, 100_000, 21) for family in sorted(FAMILIES)] + [("ar1", 1_000_000, 2)]


@pytest.mark.parametrize("family, n, trials", CASES, ids=lambda v: str(v))
def test_limsup_experiment(benchmark, family, n, trials):
    make, hypotheses = FAMILIES[family]
    spec = make(n)
    prediction = predict(spec, "zero", 0.5, **hypotheses)
    config = ExperimentConfig(
        spec=spec, alpha=0.5, checkpoints=(n // 1000, n // 10, n), trials=trials, seed=5
    )
    report = benchmark(limsup_experiment, config, prediction)
    assert report.raw_max.shape == (trials, 3)
