"""Kernel construction, structured inverses, generators, and dual checks."""

import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from potkernels import (
    AR1,
    AR1Shifted,
    ARk,
    ARkGen,
    ExpKernel,
    IdentityError,
    KernelSpec,
    KilledWalk,
    MinKernel,
    RankOneUpdate,
    ScaledMinKernel,
    ShiftedScaled,
    Window,
    build_generator,
    build_kernel,
    check_inverse_m_matrix,
    check_q_matrix,
    decay_envelope,
    decide_shift_admissible,
    kernel_diagonal,
    killed_walk_potential,
    phi_recursive,
    predict,
    rank_one_update,
    sample_gaussian,
    verify_duality,
    window_inverse,
)
from potkernels import kernels

from conftest import random_increasing_s

CLOSED_VS_DENSE = 1e-10
PRODUCT_TOL = 1e-12


def dense_window(spec, window):
    return np.asarray(build_kernel(spec, window).entries)


class TestWindow:
    def test_labels(self):
        w = Window(3, 4)
        assert list(w.labels) == [4, 5, 6, 7]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Window(-1, 3)
        with pytest.raises(ValueError):
            Window(0, 0)


class TestMinKernel:
    def test_entries_are_min(self):
        s = np.array([1.0, 2.0, 3.0, 5.0])
        U = dense_window(MinKernel(s=s), Window(0, 4))
        assert np.array_equal(U, np.minimum.outer(s, s))

    def test_known_inverse_full_window(self):
        A = window_inverse(MinKernel(s=[1.0, 2.0, 3.0]), Window(0, 3))
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(A, expected, atol=1e-14)

    def test_known_inverse_shifted_window(self):
        s = np.arange(1.0, 6.0)
        A = window_inverse(MinKernel(s=s), Window(2, 2))
        expected = np.array([[4.0 / 3.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(A, expected, atol=1e-14)

    def test_inverse_column_sums_concentrate_on_first(self):
        s = random_increasing_s(np.random.default_rng(5), 12)
        spec = MinKernel(s=s)
        A = window_inverse(spec, Window(3, 8))
        cols = A.sum(axis=0)
        np.testing.assert_allclose(cols[0], 1.0 / s[3], rtol=1e-12)
        np.testing.assert_allclose(cols[1:], 0.0, atol=1e-12)

    def test_requires_increasing_s(self):
        with pytest.raises(ValueError):
            MinKernel(s=[1.0, 1.0, 2.0])


class TestStructuredInverseAgainstDense:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_min_windows(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 60))
        l = int(r.integers(0, 40))
        s = random_increasing_s(r, l + n + 1)
        spec = MinKernel(s=s)
        w = Window(l, n)
        U = dense_window(spec, w)
        A = window_inverse(spec, w)
        np.testing.assert_allclose(A, np.linalg.inv(U), atol=CLOSED_VS_DENSE)
        residual = np.abs(A @ U - np.eye(n)).max()
        assert residual <= PRODUCT_TOL

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: ScaledMinKernel(
                s=random_increasing_s(r, 15), b=r.uniform(0.5, 2.0, 15)
            ),
            lambda r: ShiftedScaled(
                s=random_increasing_s(r, 15),
                b=r.uniform(0.5, 2.0, 15),
                Delta=r.uniform(0.1, 2.0),
            ),
            lambda r: ExpKernel(v=np.cumsum(r.uniform(0.1, 1.0, 15))),
            lambda r: AR1(x=np.sort(r.uniform(0.3, 0.9, 15))),
            lambda r: ARk(p=(0.5, 0.25)),
            lambda r: ARk(p=(1 / 3, 5 / 9, 1 / 9)),
        ],
    )
    def test_family_inverse_matches_dense(self, make):
        r = np.random.default_rng(99)
        spec = make(r)
        w = Window(2, 10)
        U = dense_window(spec, w)
        A = window_inverse(spec, w)
        np.testing.assert_allclose(A, np.linalg.inv(U), atol=CLOSED_VS_DENSE)


class TestExpKernel:
    def test_entries(self):
        v = np.array([0.0, 0.4, 1.1, 1.5])
        U = dense_window(ExpKernel(v=v), Window(0, 4))
        np.testing.assert_allclose(U, np.exp(-np.abs(np.subtract.outer(v, v))))

    def test_as_scaled_min_equivalence(self):
        v = np.cumsum(np.array([0.2, 0.7, 0.3, 1.1, 0.5]))
        spec = ExpKernel(v=v)
        w = Window(1, 3)
        np.testing.assert_allclose(
            dense_window(spec, w),
            dense_window(spec.as_scaled_min(), w),
            rtol=1e-14,
        )


class TestAR1:
    def test_known_entries(self):
        spec = AR1(x=np.full(4, 0.5))
        U = dense_window(spec, Window(0, 4))
        assert U[0, 1] == 0.5
        assert U[1, 1] == 1.25
        assert U[1, 2] == 0.625
        assert U[2, 2] == 1.3125

    def test_diagonal_recursion(self):
        x = np.sort(np.random.default_rng(3).uniform(0.2, 0.95, 20))
        spec = AR1(x=x)
        d = spec.diagonal(21)
        assert d[0] == 1.0
        np.testing.assert_allclose(d[1:], x**2 * d[:-1] + 1.0, rtol=1e-15)

    def test_diagonal_recursion_across_scan_blocks(self):
        # x_j = 1 - c / sqrt(j) -> 1: 2000 indices cross three block edges
        n = 2000
        x = 1.0 - 0.3 / np.sqrt(np.arange(1.0, n))
        d = AR1(x=x).diagonal(n)
        assert d[0] == 1.0
        np.testing.assert_allclose(d[1:], x**2 * d[:-1] + 1.0, rtol=1e-15)

    def test_rejects_decreasing_x(self):
        with pytest.raises(ValueError):
            AR1(x=[0.9, 0.5])

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        runs=st.lists(st.integers(1, 8), min_size=4, max_size=4),
    )
    @example(levels=[0.5], runs=[9, 1, 1, 1])          # constant x
    @example(levels=[0.3, 0.7, 1.0], runs=[3, 1, 5, 1])  # varying, with runs
    def test_diagonal_is_sum_of_products(self, levels, runs):
        # non-decreasing x made of constant runs; a single level is constant
        levels = sorted(levels)
        x = np.repeat(levels, runs[: len(levels)])
        n = x.size + 1
        explicit = [
            sum(np.prod(x[i:j] ** 2) for i in range(j + 1)) for j in range(n)
        ]
        np.testing.assert_allclose(AR1(x=x).diagonal(n), explicit, rtol=1e-12)


def one_pole_loop(a, u, y0):
    """Reference route: y[..., j] = a[j] y[..., j-1] + u[..., j], step by step."""
    y = np.empty_like(u)
    yt, ut = y.T, u.T
    prev = y0
    for j in range(ut.shape[0]):
        prev = yt[j] = a[j] * prev + ut[j]
    return y


# past one block the scan may differ from the loop by this much relative to
# max(1, max|y|); at n = 10^6 with a_j = 1 - 0.5 / sqrt(j) the ratio is 5e-15
SCAN_TOL = 1e-13


@st.composite
def one_pole_inputs(draw, lengths):
    n = draw(lengths)
    rows = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.0, 1.0, n)
    for value in (0.0, 1.0):     # a run of 0 cuts the carry, a run of 1 keeps it
        start = draw(st.integers(0, n - 1))
        a[start : start + draw(st.integers(0, n // 3))] = value
    u = rng.standard_normal((n,) if rows is None else (rows, n))
    per_row = rows is not None and draw(st.booleans())
    y0 = rng.standard_normal(rows) if per_row else float(rng.standard_normal())
    return a, u, y0


def assert_scan_matches_loop(a, u, y0):
    got = kernels._one_pole(a, u, y0)
    ref = one_pole_loop(a, u, y0)
    if u.shape[-1] <= kernels.SCAN_BLOCK:
        assert np.array_equal(got, ref)
    else:
        bound = SCAN_TOL * max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(got, ref, rtol=0, atol=bound)


BLOCK_EDGE_LENGTHS = st.one_of(
    st.sampled_from([1, 511, 512, 513, 1024, 1025]),
    st.builds(
        lambda k, r: k * kernels.SCAN_BLOCK + r,
        st.integers(0, 4),
        st.integers(1, kernels.SCAN_BLOCK - 1),
    ),
)


class TestOnePoleScan:
    @settings(max_examples=100, deadline=None)
    @given(case=one_pole_inputs(BLOCK_EDGE_LENGTHS))
    def test_matches_per_step_reference(self, case):
        assert_scan_matches_loop(*case)

    @settings(max_examples=100, deadline=None)
    @given(block=st.integers(2, 4), case=one_pole_inputs(st.integers(1, 300)))
    def test_carries_recurse_through_small_blocks(self, block, case):
        # blocks of 2 to 4 put the carry solve several levels deep
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "SCAN_BLOCK", block)
            assert_scan_matches_loop(*case)

    def test_constant_coefficient_takes_one_start_for_all_rows(self):
        a = np.full(5, 0.5)
        u = np.random.default_rng(3).standard_normal((3, 5))
        np.testing.assert_allclose(
            kernels._one_pole(a, u, 0.7), one_pole_loop(a, u, 0.7), rtol=1e-12
        )

    def test_critical_ar1_coefficients_at_one_million(self):
        n = 1_000_000
        a = 1.0 - 0.5 / np.sqrt(np.arange(1.0, n + 1.0))
        u = np.random.default_rng(5).standard_normal(n)
        assert_scan_matches_loop(a, u, 0.0)


def stream_one_pole_untiled(a, scale, y0, rng, rows, n_max, chunk, first_scale=1.0):
    """Reference route: one (rows, m) draw and one `_one_pole` per chunk."""
    for j0, m in kernels._chunks(n_max, chunk):
        g = rng.standard_normal((rows, m))
        if j0 == 0:
            g[:, 0] *= first_scale
        g *= kernels._part(scale, j0, m)
        block = kernels._one_pole(kernels._part(a, j0, m), g, y0)
        y0 = block[:, -1].copy()
        yield block


def ark_stream_untiled(self, n_max, rng, rows, chunk, first_scale=1.0):
    """Reference route for `ARk.path_stream`: one draw and one lfilter per chunk."""
    a = np.concatenate(([1.0], -self.p))
    zi = np.zeros((rows, a.size - 1))
    for j0, m in kernels._chunks(n_max, chunk):
        g = rng.standard_normal((rows, m))
        if j0 == 0:
            g[:, 0] *= first_scale
        block, zi = lfilter([1.0], a, g, axis=1, zi=zi)
        yield block


class CallerThreadRng:
    """A Generator's `standard_normal` that fails on any other thread."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.Philox(seed))
        self._thread = threading.current_thread()

    def standard_normal(self, *args, **kwargs):
        assert threading.current_thread() is self._thread
        return self._rng.standard_normal(*args, **kwargs)


# three chunks of 7, 7 and 6 columns, so the filter state crosses chunks
STREAM_N, STREAM_CHUNK = 20, 7
_coef = np.random.default_rng(4)
STREAMED = {
    "min": MinKernel(s=random_increasing_s(_coef, STREAM_N)),
    "scaled_min": ScaledMinKernel(
        s=np.arange(1.0, STREAM_N + 1.0), b=np.exp(0.1 * np.arange(STREAM_N))
    ),
    "shifted_scaled": ShiftedScaled(
        s=np.arange(1.0, STREAM_N + 1.0), b=np.exp(0.1 * np.arange(STREAM_N)),
        Delta=0.5,
    ),
    "exp-even": ExpKernel(v=0.7 * np.arange(STREAM_N)),
    "exp-uneven": ExpKernel(v=np.cumsum(_coef.uniform(0.1, 1.5, STREAM_N))),
    "ar1": AR1(x=np.full(STREAM_N - 1, 0.5)),
    "ar1-varying": AR1(x=np.sort(_coef.uniform(0.3, 0.9, STREAM_N - 1))),
    "ar1_shifted": AR1Shifted(
        x=np.sort(_coef.uniform(0.3, 0.9, STREAM_N - 1)), delta_tilde=1.5
    ),
    "ark": ARk(p=(0.5, 0.25)),
    "ark_gen": ARkGen(p=(0.5, 0.25), a_sq=0.4),
}


def untiled_stream(spec, rows, seed, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "_stream_one_pole", stream_one_pole_untiled)
        mp.setattr(ARk, "path_stream", ark_stream_untiled)
        return list(spec.path_stream(STREAM_N, CallerThreadRng(seed), rows, STREAM_CHUNK))


def assert_stream_equal(got, ref):
    assert len(got) == len(ref) == 3
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


class TestTiledStreams:
    @pytest.mark.parametrize("tile", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(STREAMED))
    def test_matches_untiled_reference(self, family, tile, monkeypatch):
        spec = STREAMED[family]
        for rows in (1, tile, tile + 1, 3 * tile + 2):
            ref = untiled_stream(spec, rows, 9, monkeypatch)
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "ROW_TILE", tile)
                got = list(spec.path_stream(
                    STREAM_N, CallerThreadRng(9), rows, STREAM_CHUNK
                ))
            assert_stream_equal(got, ref)

    @pytest.mark.parametrize("failing_tile", [0, 2])
    def test_filter_error_surfaces_from_the_stream(self, failing_tile, monkeypatch):
        # 5 rows in tiles of 2: the first chunk filters tiles 0, 1 and 2
        ran_on = []
        one_pole = kernels._one_pole

        def failing(a, u, y0):
            ran_on.append(threading.current_thread())
            if len(ran_on) == failing_tile + 1:
                raise RuntimeError("filter failed")
            return one_pole(a, u, y0)

        monkeypatch.setattr(kernels, "ROW_TILE", 2)
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_one_pole", failing)
            stream = STREAMED["ar1"].path_stream(STREAM_N, CallerThreadRng(1), 5, 7)
            with pytest.raises(RuntimeError, match="filter failed"):
                next(stream)
        assert ran_on and threading.current_thread() not in ran_on
        # the helper is free again, and there is one
        ref = untiled_stream(STREAMED["ar1"], 5, 1, monkeypatch)
        got = list(STREAMED["ar1"].path_stream(STREAM_N, CallerThreadRng(1), 5, 7))
        assert_stream_equal(got, ref)
        helpers = [t for t in threading.enumerate() if t.name.startswith("potkernels")]
        assert len(helpers) == 1

    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        # a child forked after the helper ran inherits no thread to run it
        monkeypatch.setattr(kernels, "ROW_TILE", 2)
        spec = STREAMED["ar1"]
        list(spec.path_stream(STREAM_N, CallerThreadRng(1), 5, STREAM_CHUNK))
        child = multiprocessing.get_context("fork").Process(
            target=lambda: list(spec.path_stream(STREAM_N, CallerThreadRng(1), 5, 7))
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_concurrent_callers_share_one_helper(self, monkeypatch):
        # more callers than cores, switching often: each stream's rows and
        # carried state must stay its own
        cases = [(family, 7 + i, 11 + i) for i, family in enumerate(sorted(STREAMED))]
        refs = {c: untiled_stream(STREAMED[c[0]], c[1], c[2], monkeypatch) for c in cases}

        def run(case):
            family, rows, seed = case
            rng = CallerThreadRng(seed)
            return list(STREAMED[family].path_stream(STREAM_N, rng, rows, STREAM_CHUNK))

        monkeypatch.setattr(kernels, "ROW_TILE", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [(c, pool.submit(run, c)) for c in cases * 3]
                results = [(c, f.result(timeout=60)) for c, f in runs]
        finally:
            sys.setswitchinterval(interval)
        for case, got in results:
            assert_stream_equal(got, refs[case])


class TestShiftAdmissibility:
    def test_ar1_shift_bound(self):
        # admissibility cap at x = 1/2 is delta^2 < 1/(x1 (1 - x1)) = 4
        x = np.full(6, 0.5)
        assert decide_shift_admissible(AR1Shifted(x=x, delta_tilde=1.9)).admissible
        bad = AR1Shifted(x=x, delta_tilde=2.1)
        assert not decide_shift_admissible(bad).admissible
        with pytest.raises(IdentityError):
            decide_shift_admissible(bad, raise_on_fail=True)

    def test_arkgen_threshold(self):
        # p = (1/2, 1/4) admits a^2 above 5/16 only
        assert decide_shift_admissible(ARkGen(p=(0.5, 0.25), a_sq=0.4)).admissible
        assert not decide_shift_admissible(ARkGen(p=(0.5, 0.25), a_sq=0.3)).admissible

    @pytest.mark.parametrize(
        "entry",
        [
            lambda spec: build_kernel(spec, Window(0, 8)),
            lambda spec: build_generator(spec, 8),
            lambda spec: kernel_diagonal(spec, 8),
            lambda spec: sample_gaussian(spec, 8, seed=1, trials=2),
            lambda spec: predict(spec, "zero", 0.5),
        ],
        ids=["build_kernel", "build_generator", "kernel_diagonal",
             "sample_gaussian", "predict"],
    )
    @pytest.mark.parametrize(
        "spec, key",
        [
            # upper bound (b1 s2 - b2 s1)/(b2 - b1) = 47 < Delta
            (ShiftedScaled(s=np.arange(1.0, 50.0), b=np.linspace(1.0, 2.0, 49),
                           Delta=50.0), "shift-admissible-scaled"),
            # delta^2 = 6.25 > 1/(x1 (1 - x1)) = 4
            (AR1Shifted(x=np.full(9, 0.5), delta_tilde=2.5), "shift-admissible-ar1"),
            # a^2 = 0.3 < 5/16
            (ARkGen(p=(0.5, 0.25), a_sq=0.3), "shift-admissible-arkgen"),
        ],
        ids=["shifted_scaled", "ar1_shifted", "ark_gen"],
    )
    def test_every_entry_point_refuses_inadmissible(self, spec, key, entry):
        assert not decide_shift_admissible(spec).admissible
        with pytest.raises(IdentityError) as info:
            entry(spec)
        assert info.value.key == key


class TestDiagonalLength:
    @pytest.mark.parametrize(
        "spec",
        [
            MinKernel(s=[1.0, 2.0, 3.0]),
            ScaledMinKernel(s=[1.0, 2.0, 3.0], b=[1.0, 1.5, 2.0]),
            ExpKernel(v=[0.0, 1.0, 2.0]),
            AR1(x=[0.5, 0.5]),
        ],
        ids=["min", "scaled_min", "exp", "ar1"],
    )
    def test_refuses_past_the_stored_sequence(self, spec):
        assert kernel_diagonal(spec, 3).shape == (3,)
        with pytest.raises(ValueError, match="shorter|too short"):
            kernel_diagonal(spec, 5)


class TestARkGen:
    @pytest.mark.parametrize(
        "p, a_sq", [((0.5, 0.25), 0.4), ((1 / 3, 5 / 9, 1 / 9), 0.5)]
    )
    def test_diagonal_takes_phi_once(self, p, a_sq, monkeypatch):
        spec = ARkGen(p=p, a_sq=a_sq)
        n = 2_000
        inherited = spec.base.diagonal(n) + spec._weight * spec._response(n) ** 2
        calls = []

        def counted(*args):
            calls.append(args)
            return phi_recursive(*args)

        monkeypatch.setattr("potkernels.kernels.phi_recursive", counted)
        assert np.array_equal(spec.diagonal(n), inherited)
        assert len(calls) == 1

    def test_covariance_decomposition(self):
        base = ARk(p=(0.5, 0.25))
        gen = ARkGen(p=(0.5, 0.25), a_sq=0.4)
        w = Window(0, 6)
        phi = phi_recursive(base.p, 6).values
        correction = ((1.0 - 0.4) / 0.4) * np.outer(phi, phi)
        np.testing.assert_allclose(
            dense_window(gen, w),
            dense_window(base, w) + correction,
            rtol=1e-12,
        )


class TestRankOneUpdate:
    def test_sherman_morrison_matches_dense(self):
        base = ExpKernel(v=np.log(2.0) * np.arange(6))
        w = Window(0, 6)
        updated = rank_one_update(build_kernel(base, w), 1, 2, 2.0 / 3.0)
        W = np.asarray(updated.entries)
        assert W[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert W[0, 1] == pytest.approx(1.5, abs=1e-12)
        assert W[1, 0] == pytest.approx(0.75, abs=1e-12)
        assert W[2, 2] == pytest.approx(1.125, abs=1e-12)
        spec = RankOneUpdate(base=base, k=1, l=2, b=2.0 / 3.0)
        np.testing.assert_allclose(W, dense_window(spec, w), atol=1e-12)

    def test_rejects_b_at_singularity(self):
        base = ExpKernel(v=np.log(2.0) * np.arange(6))
        with pytest.raises(IdentityError):
            rank_one_update(build_kernel(base, Window(0, 6)), 1, 2, 2.0)


class TestGenerators:
    def test_min_generator_is_tridiagonal_dual(self):
        s = np.arange(1.0, 15.0)
        rep = verify_duality(MinKernel(s=s), Window(0, 12))
        assert rep.worst[2] <= 1e-12

    def test_ark_generator_layout(self):
        G = build_generator(ARk(p=(0.5, 0.25)), 12)
        assert G.band == 2
        assert G.entries[5, 5] == pytest.approx(-21.0 / 16.0, abs=1e-14)
        assert G.entries[5, 6] == pytest.approx(3.0 / 8.0, abs=1e-14)
        assert G.entries[5, 7] == pytest.approx(1.0 / 4.0, abs=1e-14)
        interior = G.row_sums[G.interior_rows[2:]]
        np.testing.assert_allclose(interior, -1.0 / 16.0, atol=1e-14)

    def test_ark_rejects_increasing_p(self):
        with pytest.raises(IdentityError):
            build_generator(ARk(p=(0.25, 0.5)), 8)

    def test_q_matrix_checker(self):
        G = build_generator(AR1(x=np.full(13, 0.5)), 12)
        rep = check_q_matrix(G)
        assert rep.ok
        assert rep.norm > 0

    def test_inverse_m_matrix_checker(self):
        s = np.arange(1.0, 9.0)
        K = dense_window(MinKernel(s=s), Window(0, 8))
        assert check_inverse_m_matrix(K).ok
        # tridiagonal Toeplitz inverse has a positive corner entry
        not_m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert not check_inverse_m_matrix(not_m).ok


class TestKilledWalk:
    def test_u00_and_row_sums(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=120)
        res = killed_walk_potential(spec)
        assert res.u00 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)
        assert res.max_row_sum_gap <= 1e-6
        assert res.max_diag_gap <= 1e-6

    def test_truncation_tightens(self):
        gaps = [
            killed_walk_potential(
                KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=r)
            ).max_row_sum_gap
            for r in (25, 50, 100)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_no_window_route(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=20)
        with pytest.raises(TypeError):
            build_kernel(spec, Window(0, 5))


class TestDecayEnvelope:
    def test_banded_inverse_decays(self):
        U = dense_window(AR1(x=np.full(30, 0.5)), Window(0, 30))
        C, lam, monotone = decay_envelope(U)
        assert C > 0
        assert lam > 0
        assert monotone


class TestSpecEquality:
    @pytest.mark.parametrize(
        "a, b",
        [
            (MinKernel(s=[1, 2, 3]), MinKernel(s=np.arange(1.0, 4.0))),
            (MinKernel(s=[1.0, 2.0, 3.0]),
             KernelSpec.from_config({"family": "min", "s": [1, 2, 3]})),
            (ExpKernel(v=[-0.0, 1.0]), ExpKernel(v=[0.0, 1.0])),
            (ARkGen(p=(0.5, 0.25), a_sq=0.5), ARkGen(p=np.array([0.5, 0.25]), a_sq=1 / 2)),
            (RankOneUpdate(base=MinKernel(s=[1.0, 2.0, 3.0]), k=1, l=3, b=0.25),
             RankOneUpdate(base=MinKernel(s=(1, 2, 3)), k=np.int64(1), l=3.0, b=np.float64(0.25))),
            (KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=10),
             KilledWalk(step_rates={"1": 0.5, "-1": 0.5}, beta=1, radius=10)),
        ],
        ids=["list-vs-array", "config", "signed-zero", "ark_gen", "rank-one-nested",
             "killed-walk"],
    )
    def test_equal_specs_hash_equal(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "a, b",
        [
            (MinKernel(s=[1.0, 2.0, 3.0]), ExpKernel(v=[1.0, 2.0, 3.0])),
            (MinKernel(s=[1.0, 2.0, 3.0]), MinKernel(s=[1.0, 2.0, 4.0])),
            (MinKernel(s=[1.0, 2.0, 3.0]), MinKernel(s=[1.0, 2.0])),
            (ScaledMinKernel(s=[1.0, 2.0], b=[1.0, 1.0]),
             ShiftedScaled(s=[1.0, 2.0], b=[1.0, 1.0], Delta=0.0)),
            (RankOneUpdate(base=MinKernel(s=[1.0, 2.0, 3.0]), k=1, l=3, b=0.25),
             RankOneUpdate(base=MinKernel(s=[1.0, 2.0, 5.0]), k=1, l=3, b=0.25)),
            (KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=10),
             KilledWalk(step_rates={-1: 0.5, 1: 0.25}, beta=1.0, radius=10)),
        ],
        ids=["family", "array-value", "array-length", "shifted-vs-scaled",
             "rank-one-base", "killed-walk-rates"],
    )
    def test_different_specs_are_unequal(self, a, b):
        assert a != b


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            MinKernel(s=[1.0, 2.5, 4.0]),
            ScaledMinKernel(s=[1.0, 2.0, 3.0], b=[1.0, 0.5, 2.0]),
            ShiftedScaled(s=[1.0, 2.0, 3.0], b=[1.0, 1.0, 1.0], Delta=0.5),
            ExpKernel(v=[0.0, 0.7, 1.4]),
            AR1(x=[0.5, 0.5]),
            AR1Shifted(x=[0.5, 0.5], delta_tilde=1.5),
            ARk(p=(0.5, 0.25)),
            ARkGen(p=(0.5, 0.25), a_sq=0.5),
            KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=10),
        ],
    )
    def test_to_from_config(self, spec):
        doc = spec.to_config()
        clone = KernelSpec.from_config(doc)
        assert type(clone) is type(spec)
        assert clone.to_config() == doc

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"family": "ar1_shifted", "x": [0.5, 0.5]}, "delta_tilde"),
            ({"family": "ar1", "x": [0.5, 0.5], "delta_tilde": 1.5}, "delta_tilde"),
            ({"family": "ark_gen", "p": [0.5, 0.25], "a_sq": None}, "a_sq"),
            ({"family": "killed_walk", "step_rates": {"1": [0.5]}, "beta": 1.0,
              "radius": 10}, "step_rates"),
            ({"family": "killed_walk", "step_rates": {"1": 0.5}, "beta": 1.0,
              "radius": 2.5}, "radius"),
            ({"family": "min", "s": [{}]}, "s"),
            ({"family": ["min"], "s": [1.0]}, "family"),
        ],
        ids=["missing", "unknown", "null-scalar", "rate-list", "float-int",
             "array-of-objects", "family-list"],
    )
    def test_malformed_config_is_a_value_error(self, doc, named):
        with pytest.raises(ValueError, match=named):
            KernelSpec.from_config(doc)
