"""Koval normalizers, growth regimes, and limit-theorem dispatch."""

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
    NoTheorem,
    RankOneUpdate,
    ShiftedScaled,
    koval,
    predict,
    regime,
)


class TestKoval:
    def test_linear_sequence_value(self):
        s = np.arange(1.0, 12.0)
        assert koval(s=s, j=10) == pytest.approx(0.8340324452, abs=1e-9)

    def test_vector_and_scalar_agree(self):
        s = np.cumsum(np.random.default_rng(1).uniform(1.0, 3.0, 30))
        js = np.array([3, 7, 19])
        vec = koval(s=s, j=js)
        np.testing.assert_allclose(vec, [koval(s=s, j=int(j)) for j in js])

    def test_log_input_route(self):
        s = np.arange(1.0, 12.0)
        np.testing.assert_allclose(
            koval(log_s=np.log(s), j=10), koval(s=s, j=10), rtol=1e-14
        )

    def test_ceiling_insensitive_for_geometric_growth(self):
        # for s = 2^j every log-gap is log 2 < 1, so any ceiling M >= 1
        # leaves the sum unchanged while M < log 2 truncates it
        log_s = np.arange(1.0, 10_001.0) * np.log(2.0)
        j = 10_000
        at_one = koval(log_s=log_s, j=j, M=1.0)
        assert at_one == pytest.approx(8.8437274464, abs=1e-9)
        assert koval(log_s=log_s, j=j, M=5.0) == pytest.approx(at_one, rel=1e-14)
        assert koval(log_s=log_s, j=j, M=0.5) == pytest.approx(
            8.5170931864, abs=1e-9
        )

    def test_needs_two_labels(self):
        with pytest.raises(ValueError):
            koval(s=np.array([1.0, 2.0]), j=1)


class TestRegime:
    def test_geometric_growth_reads_log_j(self):
        rep = regime(s=np.exp(np.arange(1.0, 200.0)))
        assert rep.classification == "log-j"

    def test_polynomial_growth_reads_log_log_s(self):
        rep = regime(s=np.arange(1.0, 200.0) ** 2)
        assert rep.classification == "log-log-s"

    def test_report_carries_probe_data(self):
        rep = regime(s=np.exp(np.arange(1.0, 120.0)))
        # every log-gap is 1, so the capped ratio K_s / K_s^M sits at 1
        assert rep.kappa_start == pytest.approx(1.0)
        assert rep.kappa_end == pytest.approx(1.0)
        assert rep.min_ratio <= rep.max_ratio
        assert len(rep.probes) > 1


class TestPredictMinFamilies:
    def test_default_growth_uses_koval(self):
        s = np.arange(1.0, 101.0)
        pred = predict(MinKernel(s=s), "zero", 0.5)
        assert pred.theorem == "min-growth"
        assert pred.constant == 1.0
        assert pred.normalizer_label == "s[j] * K_s(j)"
        assert pred.normalizer(50) == pytest.approx(s[49] * koval(s=s, j=50))

    def test_geometric_route(self):
        s = np.arange(1.0, 101.0)
        pred = predict(MinKernel(s=s), "zero", 0.5, growth="geometric")
        assert pred.theorem == "min-geometric"
        assert pred.normalizer(50) == pytest.approx(s[49] * np.log(50))

    def test_bounded_ratio_route(self):
        s = np.arange(2.0, 102.0)
        pred = predict(MinKernel(s=s), "zero", 0.5, growth="bounded-ratio")
        assert pred.theorem == "min-bounded-ratio"
        assert pred.normalizer(50) == pytest.approx(s[49] * np.log(np.log(s[49])))

    def test_shifted_scaled_delegates(self):
        pred = predict(
            ShiftedScaled(s=np.arange(1.0, 40.0), b=np.ones(39), Delta=1.0),
            "zero",
            0.5,
        )
        assert pred.theorem == "scaled-min-growth"


class TestPredictExp:
    def test_separated_gaps(self):
        pred = predict(ExpKernel(v=np.arange(10.0)), "zero", 0.5, gaps="separated")
        assert pred.theorem == "exp-separated-gaps"
        assert pred.constant == 1.0
        assert pred.normalizer(1000) == pytest.approx(np.log(1000))

    def test_bounded_gaps(self):
        v = np.cumsum(np.full(20, 0.3))
        pred = predict(ExpKernel(v=v), "zero", 0.5, gaps="bounded")
        assert pred.theorem == "exp-bounded-gaps"
        assert pred.normalizer(10) == pytest.approx(np.log(v[9]))

    def test_separated_rejects_summable_potential(self):
        out = predict(
            ExpKernel(v=np.arange(10.0)), "potential-l1", 0.5, gaps="separated"
        )
        assert isinstance(out, NoTheorem)


class TestPredictAutoregressive:
    def test_ar1_subcritical_constant(self):
        pred = predict(AR1(x=np.full(9, 0.5)), "zero", 0.5, x_limit=0.5)
        assert pred.theorem == "ar1-subcritical"
        assert pred.constant == pytest.approx(4.0 / 3.0)
        assert pred.alpha_validity == "all-alpha"

    def test_ar1_needs_exactly_one_hypothesis(self):
        spec = AR1(x=np.full(9, 0.5))
        assert isinstance(predict(spec, "zero", 0.5), NoTheorem)
        with pytest.raises(ValueError):
            predict(spec, "zero", 0.5, x_limit=0.5, rate_limit=1.0)

    def test_ar1_critical_rate_route(self):
        pred = predict(AR1(x=np.full(9, 1.0)), "zero", 0.5, rate_limit=2.0)
        assert pred.theorem == "ar1-critical-rate"
        assert pred.constant == pytest.approx(1.0 / 3.0)
        assert pred.normalizer_label == "j * loglog(j)"

    def test_ar1_shifted_delegates(self):
        pred = predict(
            AR1Shifted(x=np.full(9, 0.5), delta_tilde=1.5), "zero", 0.5, x_limit=0.5
        )
        assert pred.theorem == "ar1-subcritical"

    def test_ark_transient(self):
        pred = predict(ARk(p=(0.5, 0.25)), "zero", 0.5)
        assert pred.theorem == "ark-transient"
        assert pred.constant == pytest.approx(1.92, rel=1e-9)
        assert pred.normalizer(100) == pytest.approx(np.log(100))

    def test_ark_unit_drift(self):
        pred = predict(ARk(p=(1 / 3, 5 / 9, 1 / 9)), "zero", 0.5)
        assert pred.theorem == "ark-unit-drift"
        assert pred.constant == pytest.approx((9.0 / 16.0) ** 2, rel=1e-12)
        assert pred.normalizer_label == "j * loglog(j)"

    def test_arkgen_delegates(self):
        pred = predict(ARkGen(p=(0.5, 0.25), a_sq=0.4), "zero", 0.5)
        assert pred.theorem == "ark-transient"


class TestPredictOther:
    def test_killed_walk_constant_is_u00(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=60)
        pred = predict(spec, "zero", 0.5)
        assert pred.theorem == "killed-walk"
        assert pred.constant == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)

    def test_killed_walk_needs_zero_f(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=60)
        assert isinstance(predict(spec, "potential-l1", 0.5), NoTheorem)

    def test_rank_one_update_has_no_theorem(self):
        spec = RankOneUpdate(base=ExpKernel(v=np.arange(6.0)), k=1, l=2, b=0.5)
        assert isinstance(predict(spec, "zero", 0.5), NoTheorem)

    @pytest.mark.parametrize(
        "spec, hypotheses",
        [
            (MinKernel(s=np.arange(1.0, 40.0)), {"gaps": "bounded"}),
            (ShiftedScaled(s=np.arange(1.0, 40.0), b=np.ones(39), Delta=1.0),
             {"x_limit": 0.5}),
            (ShiftedScaled(s=np.arange(1.0, 40.0), b=np.ones(39), Delta=1.0),
             {"f_sqrt_small": True}),
            (ExpKernel(v=np.arange(10.0)), {"growth": "geometric", "gaps": "separated"}),
            (AR1Shifted(x=np.full(9, 0.5), delta_tilde=1.5),
             {"x_limit": 0.5, "growth": "geometric"}),
            (ARkGen(p=(0.5, 0.25), a_sq=0.4), {"x_limit": 0.5}),
            (KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=20),
             {"growth": "geometric"}),
            (RankOneUpdate(base=ExpKernel(v=np.arange(6.0)), k=1, l=2, b=0.5),
             {"gaps": "separated"}),
        ],
        ids=["min-gaps", "shifted_scaled-x_limit", "shifted_scaled-f_sqrt_small",
             "exp-growth-and-gaps", "ar1_shifted-growth", "ark_gen-x_limit",
             "killed_walk-growth", "rank_one-gaps"],
    )
    def test_unread_hypothesis_is_refused(self, spec, hypotheses):
        with pytest.raises(ValueError):
            predict(spec, "zero", 0.5, **hypotheses)

    def test_default_hypotheses_are_not_declarations(self):
        pred = predict(ARkGen(p=(0.5, 0.25), a_sq=0.4), "zero", 0.5,
                       growth=None, f_sqrt_small=False)
        assert pred.theorem == "ark-transient"

    def test_rejects_unknown_f_class(self):
        with pytest.raises(ValueError):
            predict(MinKernel(s=[1.0, 2.0, 3.0]), "bounded", 0.5)
