"""Kernel extension, the isymi ledger, and sandwich comparison weights."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potkernels import (
    AR1,
    DensitySequence,
    ExpKernel,
    IdentityError,
    InputError,
    MinKernel,
    Window,
    analyze,
    apply_potential,
    build_kernel,
    extend,
    sample_permanental,
    sandwich_factor,
)
from potkernels import symmetrize
from potkernels.cli import main
from potkernels.kernels import CONDITION_LIMIT, DenseKernelWindow
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
        assert np.linalg.inv(led.A_sym)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_f_decouples(self):
        s = np.arange(1.0, 6.0)
        U = np.asarray(build_kernel(MinKernel(s=s), Window(1, 3)).entries)
        f = np.zeros(3)
        led = analyze(extend(U, f), U, f)
        assert led.rho == 0.0
        assert led.nu == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(led.a_vec, 0.0, atol=1e-14)
        # the dense inverse of A_sym, a route apart from the closed-form K_isymi
        K_isymi = np.linalg.inv(led.A_sym)
        np.testing.assert_allclose(K_isymi[0, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(K_isymi[1:, 1:], U, atol=1e-10)


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

        # the closed-form K_isymi is U + a a^T by construction; the dense
        # inverse of A_sym is the independent route
        block_gap = np.abs(
            np.linalg.inv(led.A_sym)[1:, 1:] - (U + np.outer(led.a_vec, led.a_vec))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window(self, bad):
        spec = MinKernel(s=np.arange(1.0, 6.0))
        window = build_kernel(spec, Window(0, 4))
        U = np.asarray(window.entries).copy()
        U[1, 2] = U[2, 1] = bad
        f = np.array([0.5, 0.0, 0.0, 0.0])
        K = extend(window, f)
        calls = (
            lambda: extend(U, f),
            lambda: analyze(K, U, f),
            lambda: extend(DenseKernelWindow(window.window, U, spec), f),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert type(err.value) is InputError
            assert str(err.value) == "U_window must be finite"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_f(self, bad):
        spec = MinKernel(s=np.arange(1.0, 6.0))
        U = np.asarray(build_kernel(spec, Window(0, 4)).entries)
        f = np.array([bad, 0.0, 0.0, 0.0])
        calls = (
            lambda: extend(U, f),
            lambda: analyze(extend(U, np.zeros(4)), U, f),
            lambda: sample_permanental(spec, f, 1, 4, 3),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert type(err.value) is InputError
            assert str(err.value) == "f_window must be finite"

    def test_singular_window(self):
        U = np.ones((3, 3))
        with pytest.raises(IdentityError) as err:
            analyze(np.eye(4), U, np.zeros(3))
        assert str(err.value) == (
            "[window-inverse-identity] singular window: Singular matrix"
        )

    def test_ill_conditioned_window(self):
        s = np.array([1.0, 1.0 + 1e-13, 2.0, 3.0])
        U = np.minimum.outer(s, s)
        cond = np.linalg.cond(U, 1)
        assert cond > CONDITION_LIMIT
        with pytest.raises(IdentityError) as err:
            analyze(np.eye(5), U, np.zeros(4))
        assert str(err.value) == (
            f"[window-inverse-identity] condition estimate {cond:.3e} "
            f"exceeds {CONDITION_LIMIT:g}"
        )

    def test_sign_refusal_prints_plain_floats(self):
        A = np.array([[1.0, 5.849662193001174e-09], [-4.8121269815678495e-09, 1.0]])
        with pytest.raises(IdentityError) as err:
            _symmetrize_sign_checked(A)
        assert err.value.key == "inverse-m-matrix"
        assert "(5.849662193001174e-09, -4.8121269815678495e-09)" in str(err.value)
        assert "np." not in str(err.value)


def break_coupling_row(eps):
    """Scale the coupling row A[0, 1:] of the closed-form A by 1 + eps."""
    closed = symmetrize._extension_inverse

    def broken(*args):
        A = closed(*args)
        A[0, 1:] *= 1.0 + eps
        return A
    return "_extension_inverse", broken


def break_a_vec(eps):
    """Scale a_vec by 1 + eps where the closed-form K_isymi reads it."""
    closed = symmetrize._isymi
    return "_isymi", lambda U, a_vec, nu: closed(U, a_vec * (1.0 + eps), nu)


# key -> a fault in one route of its check. On the exp window below the
# smallest eps caught is 4.1e-9 for the coupling row and 2.7e-8 for a_vec,
# so FAULT_EPS is well above both
FAULTS = {
    "extension-inverse-closed-form": break_coupling_row,
    "isymi-block-identity": break_a_vec,
}
FAULT_EPS = 1e-6


def exp_ledger_input():
    """An exp window from l = 1 at n = 30 with f = U h, h on five labels."""
    spec = ExpKernel(v=np.arange(1.0, 32.0))
    U = build_kernel(spec, Window(1, 30))
    h = np.zeros(30)
    h[[2, 9, 14, 22, 27]] = [0.5, 1.0, 0.75, 1.25, 0.6]
    return spec, U, U.entries @ h


class TestFaultInjection:
    @pytest.mark.parametrize("key", sorted(FAULTS))
    def test_analyze_refuses_a_broken_route(self, key, monkeypatch):
        _, U, f = exp_ledger_input()
        analyze(extend(U, f), U, f)
        monkeypatch.setattr(symmetrize, *FAULTS[key](FAULT_EPS))
        with pytest.raises(IdentityError) as err:
            analyze(extend(U, f), U, f)
        assert err.value.key == key

    @pytest.mark.parametrize("key", sorted(FAULTS))
    def test_cli_exits_one_on_a_broken_route(self, key, tmp_path, monkeypatch, capsys):
        spec, _, f = exp_ledger_input()
        cfg = {"command": "symmetrize", "spec": {"family": "exp", "v": spec.v.tolist()},
               "window": {"l": 1, "n": 30}, "f": {"values": f.tolist()}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
        assert main(argv) == 0
        monkeypatch.setattr(symmetrize, *FAULTS[key](FAULT_EPS))
        assert main(argv) == 1
        assert f"[{key}]" in capsys.readouterr().err


def sign_checked_loop(A, inverse_err=0.0):
    """Reference route: the sign check and geometric mean, pair by pair."""
    n = A.shape[0]
    scale = np.abs(A).max()
    tiny = 1e-12 * max(1.0, scale)
    A_sym = np.diag(np.diag(A)).astype(float)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = A[i, j], A[j, i]
            zero = max(tiny, inverse_err) if i > 0 else tiny   # row 0 is c and r
            if abs(x) <= zero or abs(y) <= zero:
                continue
            if x > 0 or y > 0:
                if x * y < 0:
                    raise IdentityError(
                        "inverse-m-matrix",
                        f"off-diagonal pair ({i},{j}) has mismatched signs "
                        f"({float(x)!r}, {float(y)!r})",
                    )
                raise IdentityError(
                    "inverse-m-matrix",
                    f"positive off-diagonal pair ({i},{j}) breaks the "
                    "M-matrix sign pattern",
                )
            A_sym[i, j] = A_sym[j, i] = -np.sqrt(x * y)
    return A_sym


# entries around the skip threshold: one ulp inside, on it, one ulp beyond
BOUNDARY_STEPS = (
    lambda tiny: np.nextafter(tiny, 0.0),
    lambda tiny: tiny,
    lambda tiny: np.nextafter(tiny, np.inf),
)


@st.composite
def sign_pattern_inputs(draw):
    """(n+1) x (n+1) matrices in the M-matrix sign pattern with planted faults.

    The bulk is negative off the diagonal, with some exact zeros. Distinct
    off-diagonal pairs then get positive or mismatched-sign entries (several
    of them, so only the first in row-major order may be reported), NaN,
    and entries within one ulp of the skip threshold tiny.
    """
    size = draw(st.integers(1, 40)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 1.0, 30.0]))
    A = -scale * 10.0 ** rng.uniform(-8.0, 0.0, (size, size))
    A[rng.uniform(size=A.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    np.fill_diagonal(A, scale)

    faults = draw(st.lists(st.sampled_from(["positive", "mismatched"]), max_size=4))
    nans = draw(st.lists(st.sampled_from(["both", "one"]), max_size=2))
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(BOUNDARY_STEPS), st.sampled_from([-1.0, 1.0])),
            max_size=8,
        )
    )
    rows, cols = np.triu_indices(size, 1)
    picks = rng.permutation(rows.size)[: len(faults) + len(nans) + len(edges)]
    pairs = [
        (rows[p], cols[p]) if rng.uniform() < 0.5 else (cols[p], rows[p])
        for p in picks
    ]
    for (i, j), kind in zip(pairs, faults + nans):
        if kind == "positive":
            A[i, j], A[j, i] = scale * rng.uniform(0.1, 1.0, 2)
        elif kind == "mismatched":
            A[i, j], A[j, i] = scale * rng.uniform(0.1, 1.0, 2) * [1.0, -1.0]
        elif kind == "both":
            A[i, j] = A[j, i] = np.nan
        else:
            A[i, j] = np.nan
    # the pairs are distinct and the edge entries small, so tiny is final here
    tiny = 1e-12 * max(1.0, np.abs(A).max())
    for (i, j), (step, sign) in zip(pairs[len(faults) + len(nans) :], edges):
        A[i, j] = sign * step(tiny)
    return A


# hypothesis's report of a failing example imports libcst, whose import
# warning the "error" filter would turn into an INTERNALERROR that hides it
LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


class TestSignCheck:
    # a warning would reach the stderr of a CLI refusal
    @pytest.mark.filterwarnings("error", LIBCST_IMPORT)
    @settings(max_examples=300, deadline=None)
    @given(A=sign_pattern_inputs())
    def test_matches_pair_loop(self, A):
        try:
            ref = sign_checked_loop(A)
        except IdentityError as exc:
            with pytest.raises(IdentityError) as err:
                _symmetrize_sign_checked(A)
            assert err.value.key == exc.key
            assert str(err.value) == str(exc)
        else:
            assert np.array_equal(_symmetrize_sign_checked(A), ref, equal_nan=True)

    @pytest.mark.filterwarnings("error", LIBCST_IMPORT)
    @settings(max_examples=150, deadline=None)
    @given(A=sign_pattern_inputs(), level=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-3]))
    def test_window_block_reads_above_the_inverse_bound(self, A, level):
        inverse_err = level * np.abs(A[np.isfinite(A)]).max()
        try:
            ref = sign_checked_loop(A, inverse_err)
        except IdentityError as exc:
            with pytest.raises(IdentityError) as err:
                _symmetrize_sign_checked(A, inverse_err)
            assert str(err.value) == str(exc)
        else:
            got = _symmetrize_sign_checked(A, inverse_err)
            assert np.array_equal(got, ref, equal_nan=True)

    def test_round_off_pair_of_the_window_block_is_zero(self):
        # a mismatched pair within the inverse's bound in the window block is
        # zero; the same pair in row 0, c and r, is still refused
        A = -np.full((4, 4), 0.5)
        np.fill_diagonal(A, 4.0)
        A[2, 3], A[3, 2] = 1.35e-8, -1.13e-8
        got = _symmetrize_sign_checked(A, 7.7e-7)
        assert got[2, 3] == got[3, 2] == 0.0 and got[1, 2] == -0.5
        with pytest.raises(IdentityError, match="mismatched signs"):
            _symmetrize_sign_checked(A)
        A[0, 3], A[3, 0] = A[2, 3], A[3, 2]
        A[2, 3] = A[3, 2] = -0.5
        with pytest.raises(IdentityError, match=r"pair \(0,3\) has mismatched"):
            _symmetrize_sign_checked(A, 7.7e-7)

    def test_first_fault_in_row_major_order_is_reported(self):
        A = -np.ones((5, 5))
        np.fill_diagonal(A, 4.0)
        A[3, 4] = A[4, 3] = 0.5          # positive pair, later in row-major order
        A[2, 1] = 0.25                   # mismatched pair (1, 2), earlier
        with pytest.raises(IdentityError) as err:
            _symmetrize_sign_checked(A)
        assert str(err.value) == (
            "[inverse-m-matrix] off-diagonal pair (1,2) has mismatched signs "
            "(-1.0, 0.25)"
        )


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
