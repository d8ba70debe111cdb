"""Seeded samplers, marginal tests, trend experiments, and subsequences."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betainc, gammainc

from potkernels import (
    AR1,
    AR1Shifted,
    ARk,
    ARkGen,
    ExperimentConfig,
    ExpKernel,
    IdentityError,
    KilledWalk,
    MinKernel,
    RankOneUpdate,
    ScaledMinKernel,
    ShiftedScaled,
    Window,
    analytic_median_band,
    build_kernel,
    calibration_band,
    gamma_marginal_test,
    kernel_diagonal,
    killed_walk_potential,
    limsup_experiment,
    predict,
    sample_gaussian,
    sample_permanental,
    sparse_subsequence,
)
from potkernels import kernels, mcsim


def covariance_zscores(spec, n, seed, trials):
    """Largest standardized gap between sample and model covariance."""
    paths = sample_gaussian(spec, n, seed=seed, trials=trials).values
    U = np.asarray(build_kernel(spec, Window(0, n)).entries)
    emp = paths.T @ paths / trials
    # Var(xi_j xi_k) = U_jj U_kk + U_jk^2 for centered Gaussians
    sd = np.sqrt((np.outer(np.diag(U), np.diag(U)) + U**2) / trials)
    return np.abs(emp - U) / sd


class TestGaussianSampler:
    @pytest.mark.parametrize(
        "spec",
        [
            MinKernel(s=np.arange(1.0, 9.0)),
            ExpKernel(v=np.cumsum([0.1, 0.5, 1.2, 0.3, 0.9, 0.2, 1.5, 0.4])),
            AR1(x=np.full(7, 0.5)),
            AR1(x=np.sort(np.random.default_rng(1).uniform(0.3, 0.9, 7))),
            AR1Shifted(
                x=np.sort(np.random.default_rng(2).uniform(0.3, 0.9, 7)),
                delta_tilde=1.5,
            ),
            ScaledMinKernel(s=np.arange(1.0, 9.0), b=np.exp(0.1 * np.arange(8))),
            ShiftedScaled(
                s=np.arange(1.0, 9.0), b=np.exp(0.1 * np.arange(8)), Delta=0.5
            ),
            ARk(p=(0.5, 0.25)),
            ARkGen(p=(0.5, 0.25), a_sq=0.4),
        ],
        ids=["min", "exp-varying", "ar1", "ar1-varying", "ar1-shifted",
             "scaled_min", "shifted_scaled", "ark", "ark_gen"],
    )
    def test_exact_covariance(self, spec):
        z = covariance_zscores(spec, 8, seed=3, trials=40_000)
        assert z.max() < 5.0

    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            ExpKernel(v=np.cumsum([0.1, 0.5, 1.2, 0.3, 0.9, 0.2, 1.5, 0.4])),
            AR1(x=np.sort(np.random.default_rng(1).uniform(0.3, 0.9, 7))),
        ],
        ids=["exp-varying", "ar1-varying"],
    )
    def test_exact_covariance_across_scan_blocks(self, spec, block, monkeypatch):
        # blocks of 2 or 3 steps: the 8 indices cross every kind of block edge
        monkeypatch.setattr(kernels, "SCAN_BLOCK", block)
        z = covariance_zscores(spec, 8, seed=3, trials=40_000)
        assert z.max() < 5.0

    def test_fractional_offset_grid_is_an_even_grid(self):
        # 1.3 + j stores its unit gaps unevenly, by a few ulp of the grid;
        # that rounding must not change the path the seed gives
        n = 2000
        frac = sample_gaussian(ExpKernel(v=1.3 + np.arange(n)), n, seed=7, trials=2)
        whole = sample_gaussian(ExpKernel(v=1.0 + np.arange(n)), n, seed=7, trials=2)
        np.testing.assert_allclose(frac.values, whole.values, rtol=0, atol=1e-9)

    def test_deterministic_replay(self):
        spec = AR1(x=np.full(9, 0.5))
        a = sample_gaussian(spec, 10, seed=11, trials=4).values
        b = sample_gaussian(spec, 10, seed=11, trials=4).values
        assert np.array_equal(a, b)
        c = sample_gaussian(spec, 10, seed=12, trials=4).values
        assert not np.array_equal(a, c)

    def test_killed_walk_dense_route(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=8)
        batch = sample_gaussian(spec, 17, seed=5, trials=6)
        assert batch.values.shape == (6, 17)
        with pytest.raises(ValueError):
            sample_gaussian(spec, 16, seed=5, trials=2)

    def test_asymmetric_update_refused(self):
        spec = RankOneUpdate(base=ExpKernel(v=np.arange(6.0)), k=1, l=2, b=0.5)
        with pytest.raises(ValueError):
            sample_gaussian(spec, 6, seed=1, trials=2)


class TestKernelDiagonal:
    @pytest.mark.parametrize(
        "spec",
        [
            MinKernel(s=np.arange(1.0, 13.0)),
            ExpKernel(v=np.cumsum(np.full(12, 0.4))),
            AR1(x=np.full(11, 0.5)),
            AR1(x=np.sort(np.random.default_rng(0).uniform(0.3, 0.9, 11))),
            ARk(p=(0.5, 0.25)),
            ARk(p=(1 / 3, 5 / 9, 1 / 9)),
            ScaledMinKernel(s=np.arange(1.0, 13.0), b=np.exp(0.1 * np.arange(12))),
            ShiftedScaled(
                s=np.arange(1.0, 13.0), b=np.exp(0.1 * np.arange(12)), Delta=0.5
            ),
            AR1Shifted(
                x=np.sort(np.random.default_rng(0).uniform(0.3, 0.9, 11)),
                delta_tilde=1.5,
            ),
            ARkGen(p=(0.5, 0.25), a_sq=0.4),
        ],
        ids=[
            "min", "exp", "ar1-const", "ar1-vary", "ark", "ark-drift",
            "scaled_min", "shifted_scaled", "ar1_shifted", "ark_gen",
        ],
    )
    def test_matches_dense_diagonal(self, spec):
        dense = np.diag(np.asarray(build_kernel(spec, Window(0, 12)).entries))
        np.testing.assert_allclose(kernel_diagonal(spec, 12), dense, rtol=1e-12)


class TestPermanentalSampler:
    def test_zero_f_unit_alpha_half_is_squared_gaussian(self):
        spec = AR1(x=np.full(5, 0.5))
        perm = sample_permanental(spec, None, k_half=1, n=6, seed=22, trials=50)
        gauss = sample_gaussian(spec, 6, seed=22, trials=50)
        assert np.array_equal(perm.values, gauss.values**2 / 2.0)

    def test_marginal_means(self):
        spec = ExpKernel(v=np.cumsum(np.full(20, 0.3)))
        f = np.full(20, 0.8)
        batch = sample_permanental(spec, f, k_half=2, n=20, seed=9, trials=40_000)
        alpha = 1.0
        expected = alpha * (kernel_diagonal(spec, 20) + batch.a_vec**2)
        got = batch.values.mean(axis=0)
        np.testing.assert_allclose(got, expected, rtol=0.05)

    def test_values_nonnegative_and_ledger(self):
        s = np.arange(1.0, 16.0)
        spec = MinKernel(s=s)
        f = np.ones(15)
        batch = sample_permanental(spec, f, k_half=1, n=10, seed=4, trials=200, l=2)
        assert np.all(batch.values >= 0)
        assert batch.alpha == 0.5
        assert batch.rho > 0
        assert batch.sandwich is not None
        assert np.all(batch.a_vec <= np.sqrt(f[2:12]) + 1e-10)

    def test_half_integer_alpha_only(self):
        spec = AR1(x=np.full(5, 0.5))
        with pytest.raises(ValueError):
            sample_permanental(spec, None, k_half=1.5, n=6, seed=1, trials=2)


class TestGammaMarginals:
    def test_exp_kernel_passes(self):
        spec = ExpKernel(v=np.arange(30.0))
        rep = gamma_marginal_test(spec, None, 0.5, [2, 10, 30], 20_000, seed=10)
        assert rep.alpha == 0.5
        assert all(r.passed for r in rep.records)
        assert all(r.statistic < r.critical for r in rep.records)

    def test_nonzero_f_passes(self):
        spec = AR1(x=np.full(29, 0.5))
        rep = gamma_marginal_test(spec, np.ones(30), 1.0, [3, 20], 20_000, seed=10)
        assert all(r.passed for r in rep.records)

    def test_report_carries_expected_means(self):
        spec = ExpKernel(v=np.arange(30.0))
        for alpha in (0.5, 1.5):
            rep = gamma_marginal_test(spec, None, alpha, [10], 20_000, seed=10)
            rec = rep.records[0]
            assert rec.expected_mean == pytest.approx(alpha)
            assert rec.sample_mean == pytest.approx(alpha, rel=0.05)

    def test_statistic_detects_wrong_scale(self):
        # normalize by the wrong diagonal and the distance must blow past
        # the 5% critical value
        spec = ExpKernel(v=np.arange(30.0))
        batch = sample_permanental(spec, None, k_half=1, n=30, seed=10, trials=20_000)
        t = np.sort(batch.values[:, 9] / 3.0)
        from potkernels.mcsim import KS_CRITICAL_5PCT, _ks_statistic

        stat = _ks_statistic(gammainc(0.5, t))
        assert stat > KS_CRITICAL_5PCT / np.sqrt(t.size)

    def test_rejects_non_half_integer_alpha(self):
        spec = ExpKernel(v=np.arange(10.0))
        with pytest.raises(ValueError):
            gamma_marginal_test(spec, None, 0.7, [2], 1000, seed=1)

    @pytest.mark.parametrize("m_samples", [0, -5])
    def test_rejects_empty_sample(self, m_samples):
        spec = ExpKernel(v=np.arange(10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="m_samples must be >= 1"):
                gamma_marginal_test(spec, None, 0.5, [2], m_samples, seed=1)


@st.composite
def ks_samples(draw):
    """Sorted samples against Gamma(alpha, 1): fitting, tied, massed, misfit."""
    m = draw(st.one_of(st.integers(1, 70), st.integers(71, 3000)))
    alpha = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a wrong scale puts D far above the critical value
    t = rng.gamma(alpha, draw(st.sampled_from([1.0, 1.0, 0.3, 3.0])), m)
    decimals = draw(st.sampled_from([None, 0, 1, 3]))
    if decimals is not None:     # rounding makes runs of ties
        t = np.round(t, decimals)
    if draw(st.booleans()):      # a point mass on part of the sample
        t[rng.random(m) < draw(st.floats(0.05, 0.95))] = draw(
            st.sampled_from([0.0, alpha, 10.0 * alpha])
        )
    return alpha, np.sort(t)


class TestKSSupremum:
    @settings(max_examples=300, deadline=None)
    @given(case=ks_samples())
    @example(case=(0.5, np.array([0.3])))
    @example(case=(1.0, np.sort(np.random.default_rng(1).gamma(1.0, 1.0, 32))))
    @example(case=(1.5, np.sort(np.random.default_rng(2).gamma(1.5, 1.0, 33))))
    @example(case=(2.5, np.zeros(64)))
    def test_matches_full_evaluation(self, case):
        alpha, t = case
        assert mcsim._ks_gamma(alpha, t) == mcsim._ks_statistic(gammainc(alpha, t))

    def test_evaluates_few_points_on_a_fitting_sample(self, monkeypatch):
        t = np.sort(np.random.default_rng(3).gamma(1.5, 1.0, 100_000))
        counted = []

        def counting(a, x):
            counted.append(x.size)
            return gammainc(a, x)

        monkeypatch.setattr(mcsim, "gammainc", counting)
        D = mcsim._ks_gamma(1.5, t)
        assert D == mcsim._ks_statistic(gammainc(1.5, t))
        assert sum(counted) < t.size / 4


class TestPotentialPart:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (-1.0, "f_window must be nonnegative"),
            (np.nan, "f_window must be finite"),
            (np.inf, "f_window must be finite"),
        ],
    )
    def test_refuses_negative_or_non_finite_f(self, bad, message):
        spec = ExpKernel(v=np.arange(1.0, 11.0))
        pred = predict(spec, "zero", 0.5, gaps="separated")
        f = np.full(10, bad)
        cfg = ExperimentConfig(
            spec=spec, alpha=0.5, checkpoints=(5, 10), trials=1, seed=1, f=f
        )
        calls = (
            lambda: gamma_marginal_test(spec, f, 0.5, [2, 10], 100, seed=1),
            lambda: limsup_experiment(cfg, pred),
            lambda: sample_permanental(spec, f, 1, 10, seed=1),
        )
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as err:
                    call()
            assert type(err.value) is ValueError
            assert str(err.value) == message


class TestTrendExperiment:
    def test_running_max_monotone_and_deterministic(self):
        spec = ExpKernel(v=np.arange(1.0, 3001.0))
        pred = predict(spec, "zero", 0.5, gaps="separated")
        cfg = ExperimentConfig(
            spec=spec, alpha=0.5, checkpoints=(300, 3000), trials=11, seed=42
        )
        rep = limsup_experiment(cfg, pred)
        assert np.all(np.diff(rep.raw_max, axis=1) >= 0)
        phi = pred.normalizer(np.array(rep.checkpoints))
        np.testing.assert_allclose(rep.normalized, rep.raw_max / phi, rtol=1e-14)
        again = limsup_experiment(cfg, pred)
        assert np.array_equal(rep.normalized, again.normalized)

    def test_report_serialization(self):
        spec = ExpKernel(v=np.arange(1.0, 501.0))
        pred = predict(spec, "zero", 0.5, gaps="separated")
        cfg = ExperimentConfig(
            spec=spec, alpha=0.5, checkpoints=(100, 500), trials=3, seed=1
        )
        doc = limsup_experiment(cfg, pred).to_json()
        assert doc["citation"] == "trend-direction"
        assert len(doc["median"]) == 2

    def test_gaussian_lil_mode(self):
        logs = np.arange(1, 3001) * np.log(2.0)
        cfg = ExperimentConfig(
            spec=None,
            alpha=None,
            checkpoints=(300, 3000),
            trials=11,
            seed=42,
            mode="gaussian-lil",
            log_s=logs,
        )
        rep = limsup_experiment(cfg)
        assert rep.theorem == "gaussian-lil"
        assert 0.5 < rep.median[-1] < 1.4

    def test_checkpoint_validation(self):
        spec = ExpKernel(v=np.arange(1.0, 101.0))
        pred = predict(spec, "zero", 0.5, gaps="separated")
        cfg = ExperimentConfig(
            spec=spec, alpha=0.5, checkpoints=(100, 50), trials=3, seed=1
        )
        with pytest.raises(ValueError):
            limsup_experiment(cfg, pred)


def bisection_band(diag, phi_at_n, alpha, trials, coverage=0.95):
    """Reference band: 80-step bisection on the ungrouped diagonal.

    The same Beta order-statistic law as `analytic_median_band`, evaluated
    with one `gammainc` term per diagonal entry and inverted by bisection
    from [1e-9, hi], hi doubled from 1 until it brackets the edge.
    """
    ratio = float(phi_at_n) / np.asarray(diag, dtype=float)
    m = (trials + 1) // 2

    def median_cdf(t):
        logH = np.log(gammainc(alpha, t * ratio)).sum()
        return float(betainc(m, m, np.exp(logH)))

    def invert(target):
        lo, hi = 1e-9, 1.0
        while median_cdf(hi) < target:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if median_cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    tail = (1.0 - coverage) / 2.0
    return invert(tail), invert(1.0 - tail)


class TestCalibrationBand:
    def test_band_covers_surrogate_median(self):
        # brute-force the iid Gamma(1/2) surrogate the band is built from
        n, trials, reps = 200, 5, 400
        diag = np.ones(n)
        phi = np.log(n)
        lo, hi = analytic_median_band(diag, phi, 0.5, trials, coverage=0.95)
        r = np.random.default_rng(17)
        meds = np.median(
            r.gamma(0.5, size=(reps, trials, n)).max(axis=2) / phi, axis=1
        )
        cover = np.mean((meds >= lo) & (meds <= hi))
        assert 0.90 <= cover <= 0.995

    def test_requires_odd_trials(self):
        with pytest.raises(ValueError):
            analytic_median_band(np.ones(10), 1.0, 0.5, 4)

    @pytest.mark.parametrize("trials", [-1, 0])
    def test_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            analytic_median_band(np.ones(10), 1.0, 0.5, trials)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            analytic_median_band(np.ones(10), 1.0, alpha, 5)

    def test_rejects_empty_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            analytic_median_band(np.ones(0), 1.0, 0.5, 5)

    @pytest.mark.parametrize("coverage", [0.0, 1.0, 1.5, -0.2, np.nan])
    def test_rejects_coverage_outside_unit_interval(self, coverage):
        with pytest.raises(ValueError, match="coverage"):
            analytic_median_band(np.ones(10), 1.0, 0.5, 5, coverage)

    @settings(max_examples=150, deadline=None)
    @given(
        pool=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=300),
        phi_at_n=st.floats(0.1, 10.0),
        alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        trials=st.integers(0, 20).map(lambda k: 2 * k + 1),
        coverage=st.floats(0.5, 0.99),
    )
    def test_matches_bisection_reference(
        self, pool, picks, phi_at_n, alpha, trials, coverage
    ):
        # diagonal entries drawn from a pool of at most 4 values, so ties
        # are the rule and the grouped sum is exercised
        diag = np.array([pool[i % len(pool)] for i in picks])
        got = analytic_median_band(diag, phi_at_n, alpha, trials, coverage)
        ref = bisection_band(diag, phi_at_n, alpha, trials, coverage)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec, hyp",
        [
            (ExpKernel(v=np.arange(1.0, 2001.0)), {"gaps": "separated"}),
            (AR1(x=np.full(2000, 0.5)), {"x_limit": 0.5}),
            (ARk(p=(1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0)), {}),
        ],
        ids=["exp", "ar1", "ark"],
    )
    def test_trend_band_shapes_match_bisection(self, spec, hyp):
        n = 2000
        diag = kernel_diagonal(spec, n)
        phi_at_n = float(predict(spec, "zero", 0.5, **hyp).normalizer(n))
        got = analytic_median_band(diag, phi_at_n, 0.5, 21)
        ref = bisection_band(diag, phi_at_n, 0.5, 21)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_spec_front_end(self):
        spec = ExpKernel(v=np.arange(1.0, 501.0))
        pred = predict(spec, "zero", 0.5, gaps="separated")
        lo, hi = calibration_band(spec, pred, 0.5, 500, 11)
        assert 0 < lo < hi


class TestSparseSubsequence:
    def setup_method(self):
        idx = np.arange(1, 41)
        self.M = 0.5 ** np.abs(np.subtract.outer(idx, idx))

    def test_geometric_skips_every_other(self):
        res = sparse_subsequence(self.M, 0.25, 10)
        assert res.indices == tuple(range(1, 20, 2))
        assert not res.partial
        assert res.epsilon == 0.25

    def test_partial_when_window_runs_out(self):
        res = sparse_subsequence(self.M, 0.25, 25)
        assert res.partial
        assert len(res.indices) < 25

    def test_loose_epsilon_keeps_consecutive(self):
        res = sparse_subsequence(self.M, 0.6, 10)
        assert res.indices == tuple(range(1, 11))

    def test_callable_accessor(self):
        acc = lambda i, j: 0.5 ** abs(i - j)
        res = sparse_subsequence(acc, 0.25, 5, limit=40, row_norm=3.0, col_norm=3.0)
        assert res.indices == (1, 3, 5, 7, 9)

    def test_callable_requires_norms(self):
        acc = lambda i, j: 0.5 ** abs(i - j)
        with pytest.raises(ValueError):
            sparse_subsequence(acc, 0.25, 5, limit=40)

    def test_understated_norms_break_growth_bound(self):
        acc = lambda i, j: 0.5 ** abs(i - j)
        with pytest.raises(IdentityError) as err:
            sparse_subsequence(
                acc, 0.01, 8, limit=40, row_norm=0.01, col_norm=0.01
            )
        assert err.value.key == "subsequence-growth-bound"
