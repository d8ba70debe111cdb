"""Kernel extension, the isymi ledger, and sandwich comparison weights."""

import numpy as np
import pytest

from potkernels import (
    AR1,
    DensitySequence,
    IdentityError,
    MinKernel,
    Window,
    analyze,
    apply_potential,
    build_kernel,
    extend,
    sandwich_factor,
)
from potkernels.symmetrize import _symmetrize_sign_checked

from conftest import random_density, random_increasing_s

BLOCK_TOL = 1e-8
NU_ROUTE_TOL = 1e-8


def window_instance(seed):
    """Random min-kernel window with an excessive f living on it.

    Increments stay bounded away from zero so the window conditioning
    leaves the determinant route its agreement digits.
    """
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 12))
    l = int(r.integers(0, 8))
    size = l + n + 5
    s = r.uniform(0.2, 1.0) + np.cumsum(r.uniform(0.2, 2.0, size))
    spec = MinKernel(s=s)
    h = random_density(r, size, support=int(r.integers(1, 5)))
    full = apply_potential(
        spec, DensitySequence(values=h, start=1), Window(0, size)
    )
    w = Window(l, n)
    U = np.asarray(build_kernel(spec, w).entries)
    f = full.values[l : l + n]
    # keep the rank-one block comparable to U so K_ext stays well conditioned
    f = f / f.max() * r.uniform(0.5, 3.0)
    return U, f


class TestExtend:
    def test_block_layout(self):
        s = np.arange(1.0, 6.0)
        U = np.asarray(build_kernel(MinKernel(s=s), Window(1, 3)).entries)
        f = np.array([0.5, 0.25, 0.125])
        K = extend(U, f)
        assert K.shape == (4, 4)
        assert K[0, 0] == 1.0
        np.testing.assert_allclose(K[0, 1:], f)
        np.testing.assert_allclose(K[1:, 0], 1.0)
        np.testing.assert_allclose(K[1:, 1:], U + f[None, :])


class TestKnownLedger:
    def test_unit_f_on_linear_s(self):
        s = np.arange(1.0, 6.0)
        U = np.asarray(build_kernel(MinKernel(s=s), Window(1, 3)).entries)
        f = np.ones(3)
        led = analyze(extend(U, f), U, f)
        assert led.rho == pytest.approx(0.5, abs=1e-12)
        assert led.nu == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(led.a_vec, 1.0, atol=1e-12)
        assert led.K_isymi[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_f_decouples(self):
        s = np.arange(1.0, 6.0)
        U = np.asarray(build_kernel(MinKernel(s=s), Window(1, 3)).entries)
        f = np.zeros(3)
        led = analyze(extend(U, f), U, f)
        assert led.rho == 0.0
        assert led.nu == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(led.a_vec, 0.0, atol=1e-14)
        np.testing.assert_allclose(led.K_isymi[0, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(led.K_isymi[1:, 1:], U, atol=1e-10)


class TestLedgerInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_instances(self, seed):
        U, f = window_instance(seed)
        led = analyze(extend(U, f), U, f)
        n = f.size

        cap = np.sqrt(f)
        assert 1.0 - 1e-12 <= led.nu <= 1.0 + led.rho + 1e-10 * max(1.0, led.rho)
        assert np.all(led.a_vec <= cap + 1e-8 * np.maximum(1.0, cap))
        assert np.all(led.a_vec >= -1e-10)

        block_gap = np.abs(
            led.K_isymi[1:, 1:] - (U + np.outer(led.a_vec, led.a_vec))
        ).max()
        assert block_gap <= BLOCK_TOL * max(1.0, np.abs(U).max())

        sign_s, logdet_s = np.linalg.slogdet(led.A_sym)
        sign_a, logdet_a = np.linalg.slogdet(led.A)
        nu_det = sign_s * sign_a * np.exp(logdet_s - logdet_a)
        assert nu_det == pytest.approx(led.nu, abs=NU_ROUTE_TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_extension_inverse_rows(self, seed):
        U, f = window_instance(40 + seed)
        led = analyze(extend(U, f), U, f)
        rows = led.A.sum(axis=1)
        scale = max(1.0, np.abs(led.A).max())
        assert rows[0] == pytest.approx(1.0, abs=1e-9 * scale)
        np.testing.assert_allclose(rows[1:], 0.0, atol=1e-9 * scale)

    def test_ar1_window(self):
        spec = AR1(x=np.full(14, 0.5))
        w = Window(2, 8)
        U = np.asarray(build_kernel(spec, w).entries)
        h = np.zeros(15)
        h[0] = 1.0
        full = apply_potential(
            spec, DensitySequence(values=h, start=1), Window(0, 15)
        )
        f = full.values[2:10]
        led = analyze(extend(U, f), U, f)
        assert led.rho >= 0
        assert 1.0 - 1e-12 <= led.nu <= 1.0 + led.rho + 1e-12


class TestRejections:
    def test_asymmetric_window(self):
        U = np.array([[1.0, 0.5], [0.4, 1.0]])
        f = np.zeros(2)
        with pytest.raises(ValueError):
            analyze(extend(U, f), U, f)

    def test_shape_mismatch(self):
        s = np.arange(1.0, 6.0)
        U = np.asarray(build_kernel(MinKernel(s=s), Window(1, 3)).entries)
        with pytest.raises(ValueError):
            analyze(np.eye(3), U, np.zeros(3))

    def test_non_excessive_f_fails_coupling(self):
        s = np.arange(1.0, 6.0)
        U = np.asarray(build_kernel(MinKernel(s=s), Window(1, 3)).entries)
        f = np.array([0.0, 0.0, 10.0])
        with pytest.raises(IdentityError) as err:
            analyze(extend(U, f), U, f)
        assert err.value.key == "inverse-m-matrix"

    def test_sign_refusal_prints_plain_floats(self):
        A = np.array([[1.0, 5.849662193001174e-09], [-4.8121269815678495e-09, 1.0]])
        with pytest.raises(IdentityError) as err:
            _symmetrize_sign_checked(A)
        assert err.value.key == "inverse-m-matrix"
        assert "(5.849662193001174e-09, -4.8121269815678495e-09)" in str(err.value)
        assert "np." not in str(err.value)


class TestSandwich:
    def test_half_alpha_weight(self):
        sw = sandwich_factor(0.5, 0.1)
        assert sw.lower == pytest.approx((1.0 / 1.1) ** 0.5, rel=1e-12)
        assert sw.slack == pytest.approx(1.0 - sw.lower, rel=1e-12)
        assert sw.linear_slack == pytest.approx(0.1, rel=1e-12)

    def test_weight_tightens_with_small_rho(self):
        slacks = [sandwich_factor(0.5, r).slack for r in (0.4, 0.2, 0.05)]
        assert slacks[0] > slacks[1] > slacks[2]

    def test_zero_rho_is_exact(self):
        sw = sandwich_factor(1.5, 0.0)
        assert sw.lower == 1.0
        assert sw.slack == 0.0
