"""Kernel construction, structured inverses, generators, and dual checks."""

import multiprocessing
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, lfiltic

from potkernels import (
    AR1,
    AR1Shifted,
    ARk,
    ARkGen,
    ExpKernel,
    IdentityError,
    InputError,
    KernelSpec,
    KilledWalk,
    MinKernel,
    RankOneUpdate,
    ScaledMinKernel,
    ShiftedScaled,
    Window,
    analyze,
    build_generator,
    build_kernel,
    check_inverse_m_matrix,
    check_q_matrix,
    decay_envelope,
    extend,
    gamma_marginal_test,
    kernel_diagonal,
    killed_walk_potential,
    phi_recursive,
    predict,
    rank_one_update,
    sample_gaussian,
    verify_duality,
    window_inverse,
)
from potkernels import argen, kernels, mcsim
from potkernels.argen import linear_recurrence

from conftest import random_density, random_increasing_s

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


def one_pole(a, u, y0):
    """`linear_recurrence` at k = 1 on a copy of u, from y0 at j = -1."""
    return linear_recurrence(np.reshape(a, (1, -1)), u.copy(), np.expand_dims(y0, -1))


def routed_recurrence(c, u, history, route=None):
    """`linear_recurrence` on a copy of u, forced to the column loop or to
    the band solve by its shape bounds (by the shipped bounds when route is
    None), and whether it called `dtbtrs`."""
    calls = []
    solve = argen.lapack.dtbtrs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argen.lapack, "dtbtrs", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        if route == "loop":
            mp.setattr(argen, "LOOP_COLUMNS", np.inf)
            mp.setattr(argen, "LOOP_ROWS_PER_COLUMN", 0)
        elif route == "band":
            mp.setattr(argen, "LOOP_COLUMNS", 0)
        y = linear_recurrence(c, u.copy(), history)
    return y, bool(calls)


def same_bits(a, b):
    """Equal arrays bit for bit: -0.0 differs from 0.0, unlike np.array_equal."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def signed_zeros(rng, x, share):
    """x with about `share` of its entries set to +0.0 or -0.0."""
    x = np.array(x, dtype=float)
    hit = rng.random(x.shape) < share
    x[hit] = np.copysign(0.0, rng.standard_normal(x.shape))[hit]
    return x


@st.composite
def one_pole_routes(draw):
    """k = 1 inputs on both sides of the column loop's bounds: n at and past
    LOOP_COLUMNS, rows at, just below and around LOOP_ROWS_PER_COLUMN n, 1-d
    to 3-d u, scalar or per-row history, constant or per-index c with runs of
    0 and 1, and signed zeros throughout."""
    cap = argen.LOOP_COLUMNS
    n = draw(st.one_of(st.sampled_from([1, cap, cap + 1]), st.integers(1, 2 * cap)))
    edge = argen.LOOP_ROWS_PER_COLUMN * n
    ndim = draw(st.sampled_from([1, 2, 3]))
    rows = 1 if ndim == 1 else draw(
        st.one_of(st.sampled_from([edge - 1, edge]), st.integers(1, 2 * edge))
    )
    lead = {1: (), 2: (rows,), 3: (2, rows // 2) if rows % 2 == 0 else (1, rows)}[ndim]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):                      # constant in j
        c = np.full((1, 1), draw(st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.75])))
    else:
        c = signed_zeros(rng, rng.uniform(-1.0, 1.0, (1, n)), 0.1)
        for value in (0.0, 1.0):
            start = draw(st.integers(0, n - 1))
            c[0, start : start + draw(st.integers(0, n // 2 + 1))] = value
    u = signed_zeros(rng, rng.standard_normal(lead + (n,)), 0.3)
    if draw(st.booleans()):
        history = signed_zeros(rng, rng.standard_normal(lead + (1,)), 0.3)
    else:
        history = draw(st.sampled_from([0.0, -0.0, 0.7]))
    return c, u, history


# order-k families: simple real roots, a unit root with a repeated pair,
# and a complex pair (the tests of `argen` use the same three)
ORDER_K = {
    "transient": np.array([0.5, 0.25]),
    "unit-drift": np.array([1 / 3, 5 / 9, 1 / 9]),
    "complex": np.array([0.25, 0.125, 0.5]),
}


ZERO_ROWS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from potkernels import AR1, KilledWalk
from potkernels.argen import linear_recurrence
walk = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=4)
rng = np.random.default_rng(0)
for _ in range(300):
    y = linear_recurrence(np.full((1, 7), 0.5), np.empty((0, 7)), np.zeros((0, 1)))
    ar1 = np.concatenate(list(AR1(x=np.full(9, 0.5)).path_stream(9, rng, 0, 9)))
    lattice = np.concatenate(list(walk.path_stream(9, rng, 0, 9)))
    head = AR1(x=np.full(9, 0.5)).diagonal(1)
print(y.shape, ar1.shape, lattice.shape, head)
"""


class TestLinearRecurrence:
    @settings(max_examples=200, deadline=None)
    @given(case=one_pole_inputs(st.one_of(
        st.integers(1, 8), st.integers(9, 3000), st.sampled_from([511, 512, 513, 1025])
    )))
    def test_one_pole_matches_per_step_reference(self, case):
        assert np.array_equal(one_pole(*case), one_pole_loop(*case))

    @settings(max_examples=300, deadline=None)
    @given(case=one_pole_routes())
    def test_column_loop_and_band_solve_agree_bit_for_bit(self, case):
        c, u, history = case
        loop, loop_solved = routed_recurrence(c, u, history, "loop")
        band, band_solved = routed_recurrence(c, u, history, "band")
        assert not loop_solved and band_solved
        assert same_bits(loop, band)
        got, solved = routed_recurrence(c, u, history)
        n = u.shape[-1]
        assert solved == (n > argen.LOOP_COLUMNS
                          or u.size < argen.LOOP_ROWS_PER_COLUMN * n * n)
        assert same_bits(got, band)

    @pytest.mark.parametrize("rows, n", [(1, 5), (300, 3), (4096, 8), (40, 200)])
    @pytest.mark.parametrize("family", sorted(ORDER_K))
    def test_order_k_never_loops(self, family, rows, n):
        # even with the column loop's bounds open to every shape
        p = ORDER_K[family]
        rng = np.random.default_rng(rows + n)
        u, history = rng.standard_normal((rows, n)), rng.standard_normal((rows, p.size))
        got, solved = routed_recurrence(p[:, None], u, history, "loop")
        assert solved
        assert same_bits(got, routed_recurrence(p[:, None], u, history, "band")[0])

    def test_constant_coefficient_takes_one_start_for_all_rows(self):
        u = np.random.default_rng(3).standard_normal((3, 5))
        got = linear_recurrence(np.array([[0.5]]), u.copy(), 0.7)
        assert np.array_equal(got, one_pole_loop(np.full(5, 0.5), u, 0.7))

    @pytest.mark.parametrize(
        "varying, rows", [(False, None), (True, None), (True, 3)],
        ids=["constant", "varying", "varying-rows"],
    )
    def test_one_pole_at_one_million(self, varying, rows):
        n = 1_000_000
        j = np.arange(1.0, n + 1.0)
        a = 1.0 - 0.5 / np.sqrt(j) if varying else np.full(n, 0.5)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(n if rows is None else (rows, n))
        y0 = 0.3 if rows is None else rng.standard_normal(rows)
        got = one_pole(a if varying else 0.5, u, y0)
        assert np.array_equal(got, one_pole_loop(a, u, y0))

    def test_solves_in_place(self):
        u = np.random.default_rng(6).standard_normal((4, 9))
        y = linear_recurrence(np.full((2, 1), 0.25), u, 0.0)
        assert np.shares_memory(y, u) and np.array_equal(y, u)

    def test_zero_rows_leave_lapack_alone(self):
        # an empty right-hand side to dtbtrs corrupts the heap, which kills
        # the interpreter within a few hundred calls; run them in a child
        proc = subprocess.run(
            [sys.executable, "-c", ZERO_ROWS_CHILD, str(Path(kernels.__file__).parents[1])],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["(0,", "7)", "(0,", "9)", "(0,", "9)", "[1.]"]

    @pytest.mark.parametrize("n", [1, 2, 3, 5000])
    @pytest.mark.parametrize("rows", [1, 21])
    @pytest.mark.parametrize("family", sorted(ORDER_K))
    def test_order_k_matches_lfilter(self, family, rows, n):
        # lfilter runs the transposed direct form, which rounds in another
        # order. Each step of either route sums u[j] and k products p[i]
        # y[j-i], with |u[j]| <= 2 M for M = max|y| over history and values
        # since sum(p) <= 1, so it rounds by at most 3 (k + 1) eps M; a
        # step's error reaches later values through phi, which lies in
        # [0, 1], so over n steps the routes differ by at most
        # 6 (k + 1) n eps M. Below n = k, history alone feeds later values
        p = ORDER_K[family]
        rng = np.random.default_rng(rows * n)
        u, history = rng.standard_normal((rows, n)), rng.standard_normal((rows, p.size))
        a = np.concatenate(([1.0], -p))
        zi = np.array([lfiltic([1.0], a, h[::-1]) for h in history])
        ref = lfilter([1.0], a, u, axis=-1, zi=zi)[0]
        got = linear_recurrence(p[:, None], u.copy(), history)
        per_index = np.repeat(p[:, None], n, axis=1)      # the band built row by row
        assert np.array_equal(linear_recurrence(per_index, u.copy(), history), got)
        M = max(np.abs(ref).max(), np.abs(history).max())
        bound = 6 * (p.size + 1) * n * np.finfo(float).eps * M
        np.testing.assert_allclose(got, ref, rtol=0, atol=bound)


def stream_untiled(c, scale, history, rng, rows, n_max, chunk, cols=None,
                   first_scale=1.0):
    """Reference route: one (rows, m) draw and one `linear_recurrence` per chunk."""
    assert cols is None              # the reference keeps every column
    k = len(c)
    c = np.broadcast_to(c, (k, n_max))
    for j0, m in kernels._chunks(n_max, chunk):
        g = rng.standard_normal((rows, m))
        if j0 == 0:
            g[:, 0] *= first_scale
        g *= kernels._part(scale, j0, m)
        block = linear_recurrence(c[:, j0 : j0 + m], g, history)
        history = np.concatenate((history, block), axis=1)[:, -k:]
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
        mp.setattr(kernels, "_stream_recurrence", stream_untiled)
        return list(spec.path_stream(STREAM_N, CallerThreadRng(seed), rows, STREAM_CHUNK))


def assert_stream_equal(got, ref):
    assert len(got) == len(ref) == 3
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


def filter_threads():
    return [t for t in threading.enumerate() if t.name.startswith("potkernels-filter")]


class TestTiledStreams:
    # 4096 is the production tile width, so rows 4097 and 12290 take 2 and 4 tiles
    @pytest.mark.parametrize("tile", [1, 2, 3, kernels.ROW_TILE])
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
        recurrence = kernels.linear_recurrence

        def failing(c, u, history):
            ran_on.append(threading.current_thread())
            if len(ran_on) == failing_tile + 1:
                raise RuntimeError("filter failed")
            return recurrence(c, u, history)

        monkeypatch.setattr(kernels, "ROW_TILE", 2)
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "linear_recurrence", failing)
            stream = STREAMED["ar1"].path_stream(STREAM_N, CallerThreadRng(1), 5, 7)
            with pytest.raises(RuntimeError, match="filter failed"):
                next(stream)
        assert ran_on and threading.current_thread() not in ran_on
        # a later stream runs as before, and no helper outlives its stream
        ref = untiled_stream(STREAMED["ar1"], 5, 1, monkeypatch)
        got = list(STREAMED["ar1"].path_stream(STREAM_N, CallerThreadRng(1), 5, 7))
        assert_stream_equal(got, ref)
        assert filter_threads() == []

    def test_closed_stream_ends_its_helper(self, monkeypatch):
        monkeypatch.setattr(kernels, "ROW_TILE", 2)
        stream = STREAMED["ar1"].path_stream(STREAM_N, CallerThreadRng(1), 5, 7)
        next(stream)
        assert len(filter_threads()) == 1
        stream.close()
        assert filter_threads() == []

    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        # a child forked after a wide stream ran must still stream
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

    def test_concurrent_streams_keep_their_own_rows_and_state(self, monkeypatch):
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


# 0-based columns of the 20 steps that chunks of 7 split at 7 and 14
KEPT_COLUMNS = {
    "sparse": [1, 2, 16],          # the middle chunk keeps no column
    "run": list(range(5, 16)),     # a contiguous run across both chunk edges
    "one-per-chunk": [3, 9, 19],
}
KEPT_STREAMED = {
    **STREAMED,
    "killed_walk": KilledWalk(step_rates={-1: 0.5, 1: 0.5, -3: 0.1, 3: 0.1},
                              beta=0.3, radius=(STREAM_N - 1) // 2),
}


class TestKeptColumns:
    @pytest.mark.parametrize("tile", [2, 3])
    @pytest.mark.parametrize("kept", sorted(KEPT_COLUMNS))
    @pytest.mark.parametrize("family", sorted(KEPT_STREAMED))
    def test_kept_columns_are_the_full_streams_columns(self, family, kept, tile,
                                                       monkeypatch):
        # rows above the tile width take the helper thread's wide branch
        spec = KEPT_STREAMED[family]
        n = STREAM_N - (family == "killed_walk")     # the walk's 2R + 1 sites
        cols = np.array([c for c in KEPT_COLUMNS[kept] if c < n])
        monkeypatch.setattr(kernels, "ROW_TILE", tile)
        monkeypatch.setattr(mcsim, "_chunk_size", lambda rows: STREAM_CHUNK)
        for rows in (1, tile + 1, 3 * tile + 2):
            full_rng, kept_rng = CallerThreadRng(5), CallerThreadRng(5)
            full = mcsim._gaussian_paths(spec, n, full_rng, rows)
            got = mcsim._gaussian_paths(spec, n, kept_rng, rows, cols)
            assert got.shape == (rows, cols.size)
            assert np.array_equal(got, full[:, cols])
            # the kept stream makes the same draws, so the stream after it is the same
            assert np.array_equal(kept_rng.standard_normal(4), full_rng.standard_normal(4))


class NoDrawRng:
    """An RNG that fails on its first draw."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("drawn before the refusal")


class IdentityRng:
    """`standard_normal` that hands out the columns of the identity, in draw order.

    Path i of a stream with `rows` paths gets the unit vector e_i as its
    sequence of draws, 1-d starts and 2-d chunk tiles alike, so the stacked
    paths are the transpose of the stream's linear map from draws to values.
    """

    def __init__(self, rows):
        self._eye = np.eye(rows)
        self._row = self._col = 0

    def standard_normal(self, shape):
        rows, cols = (shape, 1) if np.ndim(shape) == 0 else shape
        block = self._eye[self._row : self._row + rows, self._col : self._col + cols]
        self._row += rows
        if self._row == self._eye.shape[0]:
            self._row, self._col = 0, self._col + cols
        return block.copy().reshape(shape)


class TestStreamCovariance:
    @pytest.mark.parametrize("tile", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(STREAMED))
    def test_identity_draws_give_the_kernel(self, family, tile, monkeypatch):
        # with draws e_i the stream is R = M^T for paths M g, so R^T R = M M^T
        spec = STREAMED[family]
        rows = STREAM_N + (spec.family == "exp")     # exp draws its start first
        monkeypatch.setattr(kernels, "ROW_TILE", tile)
        R = np.hstack(list(spec.path_stream(
            STREAM_N, IdentityRng(rows), rows, STREAM_CHUNK
        )))
        U = dense_window(spec, Window(0, STREAM_N))
        assert np.abs(R.T @ R - U).max() <= 1e-14 * np.abs(U).max()

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.deferred(lambda: chain_windows(n_min=2)),   # strategy defined below
        tile=st.integers(1, 3),
        data=st.data(),
    )
    def test_drawn_chain_streams_give_the_kernel(self, case, tile, data):
        spec, w = case
        n = w.l + w.n                        # the spec stores n + 1 values
        chunk = data.draw(st.integers(1, n - 1), label="chunk")
        rows = n + (spec.family == "exp")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "ROW_TILE", tile)
            R = np.hstack(list(spec.path_stream(n, IdentityRng(rows), rows, chunk)))
        U = dense_window(spec, Window(0, n))
        assert np.abs(R.T @ R - U).max() <= 1e-14 * np.abs(U).max()

    @pytest.mark.parametrize("tile", [1, 2, 3])
    @pytest.mark.parametrize("radius", [1, 7])
    @pytest.mark.parametrize("beta", [0.03, 1.0])
    @pytest.mark.parametrize(
        "rates", [{-1: 0.5, 1: 0.5}, {-1: 0.5, 1: 0.5, -3: 0.1, 3: 0.1}],
        ids=["nearest", "with-3"],
    )
    def test_killed_walk_stream_gives_the_potential(self, rates, beta, radius, tile,
                                                    monkeypatch):
        # the whole lattice is one chunk, whatever chunk is asked for
        spec = KilledWalk(step_rates=rates, beta=beta, radius=radius)
        n = 2 * radius + 1
        monkeypatch.setattr(kernels, "ROW_TILE", tile)
        R = np.hstack(list(spec.path_stream(n, IdentityRng(n), n, 2)))
        U = killed_walk_potential(spec).kernel.entries
        assert np.abs(R.T @ R - U).max() <= 1e-14 * np.abs(U).max()


# the families whose KS harness draws the kept values as their own chain
KEPT_CHAIN_FAMILIES = ("min", "exp-even", "exp-uneven", "ar1", "ar1-varying", "ar1_shifted")
# 0-based kept columns of the 20 steps: with column 0, adjacent ones across
# the chunk edge at 7, a single one, and the last
KEPT_CHAIN_COLUMNS = {
    "first": [0, 6, 13], "adjacent": [4, 5, 6, 7, 8, 9, 10, 11], "single": [9],
    "last": [2, 11, 19],
}


def kept_chain_map(spec, n, cols, chunk):
    """R with R^T R the covariance of the kept chain's values at `cols`,
    one identity draw per kept value (`IdentityRng`)."""
    rows = cols.size
    return np.hstack(list(mcsim._path_stream(
        spec, n, IdentityRng(rows), rows, chunk, cols, thin=True
    )))


class TestKeptChain:
    # one kept value per chunk, chunk edges inside every set of 3, and the
    # streams' chunk, which splits only the adjacent set
    @pytest.mark.parametrize("chunk", [1, 2, STREAM_CHUNK])
    @pytest.mark.parametrize("kept", sorted(KEPT_CHAIN_COLUMNS))
    @pytest.mark.parametrize("family", KEPT_CHAIN_FAMILIES)
    def test_identity_draws_give_the_kept_kernel(self, family, kept, chunk):
        spec, cols = STREAMED[family], np.array(KEPT_CHAIN_COLUMNS[kept])
        R = kept_chain_map(spec, STREAM_N, cols, chunk)
        assert R.shape == (cols.size, cols.size)
        U = dense_window(spec, Window(0, STREAM_N))[np.ix_(cols, cols)]
        assert np.abs(R.T @ R - U).max() <= 1e-14 * np.abs(U).max()

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.deferred(lambda: chain_windows(builders={
            family: CHAIN_BUILDERS[family] for family in ("min", "exp", "ar1", "ar1_shifted")
        })),
        data=st.data(),
    )
    def test_drawn_kept_chains_give_the_kept_kernel(self, case, data):
        spec, w = case
        n = w.l + w.n
        cols = np.array(sorted(data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n), label="cols"
        )))
        chunk = data.draw(st.integers(1, cols.size), label="chunk")
        R = kept_chain_map(spec, n, cols, chunk)
        U = dense_window(spec, Window(0, n))[np.ix_(cols, cols)]
        assert np.abs(R.T @ R - U).max() <= 1e-14 * np.abs(U).max()

    @pytest.mark.parametrize("family", KEPT_CHAIN_FAMILIES)
    def test_thin_path_keeps_the_tiled_draws(self, family):
        # more rows than one tile and 8 kept columns in chunks of 3; the
        # reference is the tiled stream over the same kept chain
        spec, cols = STREAMED[family], np.array(KEPT_CHAIN_COLUMNS["adjacent"])
        rows, chunk = 2 * kernels.ROW_TILE + 3, 3
        A, sd = spec._kept_chain(cols)
        tiled = kernels._stream_recurrence(
            A[None], sd, np.zeros((rows, 1)), CallerThreadRng(5), rows, cols.size, chunk
        )
        ref = [next(tiled)]
        assert len(filter_threads()) == 1
        ref += list(tiled)
        thin = mcsim._path_stream(spec, STREAM_N, CallerThreadRng(5), rows, chunk, cols,
                                  thin=True)
        got = []
        for block in thin:
            assert filter_threads() == []
            got.append(block)
        assert len(got) == len(ref) == 3
        assert all(same_bits(g, r) for g, r in zip(got, ref))


class TestShiftAdmissibility:
    def test_ar1_shift_bound(self):
        # admissibility cap at x = 1/2 is delta^2 < 1/(x1 (1 - x1)) = 4
        x = np.full(6, 0.5)
        assert AR1Shifted(x=x, delta_tilde=1.9).admissibility().admissible
        bad = AR1Shifted(x=x, delta_tilde=2.1)
        assert not bad.admissibility().admissible
        with pytest.raises(IdentityError):
            bad.admissibility().require()

    @pytest.mark.parametrize("delta", [0.0, np.nan, np.inf, 1e200])
    def test_ar1_shift_needs_a_finite_nonzero_square(self, delta):
        # 1e200 ** 2 overflows a Python float instead of reading as inf
        with pytest.raises(InputError, match="delta_tilde"):
            AR1Shifted(x=np.full(6, 1.0), delta_tilde=delta)

    def test_arkgen_threshold(self):
        # p = (1/2, 1/4) admits a^2 above 5/16 only
        assert ARkGen(p=(0.5, 0.25), a_sq=0.4).admissibility().admissible
        assert not ARkGen(p=(0.5, 0.25), a_sq=0.3).admissibility().admissible

    @pytest.mark.parametrize(
        "entry",
        [
            lambda spec: build_kernel(spec, Window(0, 8)),
            lambda spec: build_generator(spec, 8),
            lambda spec: kernel_diagonal(spec, 8),
            lambda spec: sample_gaussian(spec, 8, seed=1, trials=2),
            lambda spec: gamma_marginal_test(spec, None, 0.5, [2, 8], 100, seed=1),
            lambda spec: predict(spec, "zero", 0.5),
        ],
        ids=["build_kernel", "build_generator", "kernel_diagonal",
             "sample_gaussian", "gamma_marginal_test", "predict"],
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
    def test_every_entry_point_refuses_inadmissible(self, spec, key, entry,
                                                    monkeypatch):
        # every refusal comes before the samplers' first draw
        monkeypatch.setattr(mcsim, "_trial_rng", lambda seed, trial: NoDrawRng())
        assert not spec.admissibility().admissible
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


def ark_window_per_lag(p, window):
    """The ARk window as it was built before: one cumsum and two writes per lag."""
    hi = window.l + window.n
    ph = phi_recursive(p, hi).values
    out = np.empty((window.n, window.n))
    for dlag in range(window.n):
        csum = np.cumsum(ph[: hi - dlag] * ph[dlag:hi])
        idx = np.arange(window.n - dlag)
        out[idx, idx + dlag] = csum[window.l + idx]
        out[idx + dlag, idx] = csum[window.l + idx]
    return out


@st.composite
def ark_weights(draw):
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4)))
    total = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    return w * (total / w.sum())


class TestARkWindowEntries:
    @settings(max_examples=60, deadline=None)
    @given(
        p=ark_weights(),
        l=st.integers(0, 30),
        n=st.integers(1, 300),
        a_sq=st.floats(0.1, 2.0),
    )
    @example(p=np.array([0.5, 0.5]), l=0, n=1, a_sq=0.5)
    @example(p=np.array([0.25] * 4), l=30, n=3, a_sq=1.0)
    @example(p=np.array([0.1, 0.2, 0.3]), l=2, n=300, a_sq=0.3)
    def test_matches_the_per_lag_loop_bit_for_bit(self, p, l, n, a_sq):
        window = Window(l, n)
        want = ark_window_per_lag(p, window)
        assert np.array_equal(ARk(p=p).window_entries(window), want)
        gen = ARkGen(p=p, a_sq=a_sq)
        t = gen._response(l + n)[l:]
        assert np.array_equal(gen.window_entries(window), want + gen._weight * np.outer(t, t))

    @pytest.mark.parametrize(
        "l", [kernels._LAG_ROWS - 1, kernels._LAG_ROWS, 2 * kernels._LAG_ROWS + 5]
    )
    def test_running_sums_carry_across_blocks(self, l):
        p, window = np.array([0.6, 0.3, 0.1]), Window(l, 40)
        assert np.array_equal(ARk(p=p).window_entries(window), ark_window_per_lag(p, window))


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


def scaled_min_parts(r, size):
    s = random_increasing_s(r, size)
    b = r.uniform(0.5, 2.0, size)
    b[1] = b[0] * r.uniform(1.0, 1.5)      # b[1] >= b[0] leaves room for a shift
    return s, b


def shifted_scaled(r, size):
    s, b = scaled_min_parts(r, size)
    upper = ShiftedScaled(s=s, b=b, Delta=0.0).admissibility().bound[1]
    return ShiftedScaled(s=s, b=b, Delta=-s[0] + r.uniform(0.1, 0.9) * (min(upper, 2.0) + s[0]))


# ledger refusals that come from round-off: nu and K_isymi lose their last
# digits where sqrt(c r) lifts stray entries of a dense U^{-1} 1 and U^{-T} f
ROUNDOFF_REFUSALS = {"nu-two-routes", "isymi-block-identity"}


def ark_p(r):
    # non-increasing or increasing p of order 1-3, with sum(p) < 1 or unit drift
    p = np.sort(r.uniform(0.1, 1.0, int(r.integers(1, 4))))
    p = p[::-1] if r.integers(2) else p
    return p / p.sum() * (1.0 if r.integers(2) else r.uniform(0.5, 0.95))


def ark_gen(r):
    p = ark_p(r)
    lower = ARkGen(p=p, a_sq=1.0).admissibility().bound[0]
    return ARkGen(p=p, a_sq=lower + r.uniform(0.1, 1.0))


# family -> spec of that family with `size` stored values
CHAIN_BUILDERS = {
    "min": lambda r, size: MinKernel(s=random_increasing_s(r, size)),
    "scaled_min": lambda r, size: ScaledMinKernel(*scaled_min_parts(r, size)),
    "shifted_scaled": shifted_scaled,
    "exp": lambda r, size: ExpKernel(v=np.cumsum(r.uniform(0.05, 1.5, size))),
    "ar1": lambda r, size: AR1(x=np.sort(r.uniform(0.3, 0.95, size))),
    "ar1_shifted": lambda r, size: AR1Shifted(
        x=np.sort(r.uniform(0.3, 0.95, size)), delta_tilde=r.uniform(0.6, 1.8)
    ),
    "ark": lambda r, size: ARk(p=ark_p(r)),
    "ark_gen": lambda r, size: ark_gen(r),
}


def scaled_min_sqrt(r, size):
    # b = c sqrt(s), as the window-analytic benchmark draws it
    s = random_increasing_s(r, size)
    return ScaledMinKernel(s=s, b=r.uniform(0.5, 2.0) * np.sqrt(s))


# the chain builders, and scaled-min and shifted-scaled specs whose
# window inverses mostly keep nonnegative row sums, so that their ledgers
# complete on both routes and get compared
LEDGER_BUILDERS = {
    **CHAIN_BUILDERS,
    "scaled_min_sqrt": scaled_min_sqrt,
    "shifted_scaled_constant": lambda r, size: ShiftedScaled(
        s=random_increasing_s(r, size), b=np.full(size, r.uniform(0.5, 2.0)),
        Delta=r.uniform(0.0, 0.5),
    ),
}


@st.composite
def chain_windows(draw, n_min=1, n_max=30, builders=CHAIN_BUILDERS):
    family = draw(st.sampled_from(sorted(builders)))
    l, n = draw(st.integers(0, 20)), draw(st.integers(n_min, n_max))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return builders[family](r, l + n + 1), Window(l, n)


class TestOnePoleChains:
    def test_strategy_covers_every_closed_window_family(self):
        closed = {
            spec.family for spec in ROUND_TRIP_SPECS
            if spec._window_precision(Window(0, 2)) is not None
        }
        assert set(CHAIN_BUILDERS) == closed

    @settings(max_examples=200, deadline=None)
    @given(case=chain_windows())
    def test_window_inverse_and_generator_are_the_chain_precision(self, case):
        spec, w = case
        k = spec._order
        U = dense_window(spec, w)
        P = window_inverse(spec, w)
        assert not np.triu(P, k + 1).any() and not np.tril(P, -k - 1).any()
        cond = np.linalg.norm(U, 1) * np.linalg.norm(P, 1)
        bound = kernels.DENSE_CHECK_TOL * max(1.0, cond / 1e2)
        assert np.abs(P @ U - np.eye(w.n)).max() <= bound
        # the generator is minus the leading block of the precision of k
        # more values, which the residual above checks against the kernel
        size = w.l + w.n
        if isinstance(spec, (ARk, ARkGen)) and not spec.p_non_increasing:
            with pytest.raises(IdentityError) as err:
                build_generator(spec, size)
            assert err.value.key == "q-matrix-signs"
            return
        G = build_generator(spec, size)
        assert G.band == k
        chain = window_inverse(spec, Window(0, size + k))[:size, :size]
        np.testing.assert_array_equal(-G.entries, chain)

    @settings(max_examples=150, deadline=None)
    @given(case=chain_windows(n_min=2), data=st.data())
    def test_rank_one_window_takes_the_base_precision_less_b(self, case, data):
        base, w = case
        hi = w.l + w.n
        # k and l at most 3 apart, as the benchmark's (1, 3): b up to 0.9/U[l,k]
        # then keeps the window within the condition limit
        k = data.draw(st.integers(1, hi), label="k")
        l = data.draw(st.integers(max(1, k - 3), min(hi, k + 3)).filter(
            lambda j: j != k), label="l")
        U = dense_window(base, Window(0, hi))
        b = data.draw(st.floats(0.05, 0.9), label="b U[l,k]") / U[l - 1, k - 1]
        spec = RankOneUpdate(base=base, k=k, l=l, b=b)
        P = window_inverse(spec, w)
        ki, li = k - w.l - 1, l - w.l - 1
        if min(ki, li) < 0:
            # a window that misses k or l has no closed form and is solved
            assert spec._window_precision(w) is None
        else:
            expected = window_inverse(base, w).copy()
            expected[ki, li] -= b
            np.testing.assert_array_equal(P, expected)
        W = dense_window(spec, w)
        cond = np.linalg.norm(W, 1) * np.linalg.norm(P, 1)
        bound = kernels.DENSE_CHECK_TOL * max(1.0, cond / 1e2)
        assert np.abs(P @ W - np.eye(w.n)).max() <= bound

    def test_min_closed_form_passes_the_shared_check(self):
        # a large min precision (increments down to 1.7e-3) that a dense
        # solve misses by 1.6e-10; the closed form is within its residual bound
        r = np.random.default_rng(21)
        l, n = int(r.integers(0, 21)), int(r.integers(2, 41))
        spec, w = MinKernel(s=random_increasing_s(r, l + n + 1)), Window(l, n)
        assert (l, n) == (6, 32)
        window = build_kernel(spec, w)
        P, residual = window.inverse
        np.testing.assert_array_equal(P, spec._window_precision(w))
        assert not P.flags.writeable
        cond = np.linalg.norm(window.entries, 1) * np.linalg.norm(P, 1)
        assert residual <= kernels.DENSE_CHECK_TOL * max(1.0, cond / 1e2)

    @settings(max_examples=300, deadline=None)
    @given(
        case=chain_windows(n_min=2, n_max=40, builders=LEDGER_BUILDERS),
        seed=st.integers(0, 2**32 - 1),
    )
    # scaled-min windows of condition 1.6e6 and 5.5e5, whose dense inverses
    # hold round-off beyond the band of 3e-8 and of mixed sign (1.6e-8,
    # -1.6e-8), above 1e-12 max|A| but within the inverse's error bound
    @example(case=(scaled_min_sqrt(np.random.default_rng(1988621901), 34), Window(0, 33)),
             seed=0)
    @example(case=(scaled_min_sqrt(np.random.default_rng(115447), 54), Window(19, 34)),
             seed=0)
    def test_ledger_takes_the_chain_precision(self, case, seed):
        spec, w = case
        window = build_kernel(spec, w)
        f = window.entries @ random_density(np.random.default_rng(seed), w.n)
        K = extend(window, f)
        outcomes = []
        for route in (window, window.entries):      # closed, then dense reference
            try:
                outcomes.append(analyze(K, route, f))
            except IdentityError as exc:
                outcomes.append(exc.key)
        closed, dense = outcomes
        if isinstance(closed, str):
            # only a sign refusal, which belongs to the drawn spec, so both
            # routes make it
            assert closed == dense == "inverse-m-matrix"
            return
        k = spec._order
        B = closed.A[1:, 1:]
        assert not np.triu(B, k + 1).any() and not np.tril(B, -k - 1).any()
        if isinstance(dense, str):
            # the dense reference keeps round-off beyond the band
            assert dense in ROUNDOFF_REFUSALS
            return
        # normwise, as r = U^{-1} 1 and c = U^{-T} f: the dense reference loses
        # digits of a near-zero entry in proportion to the inverse, not to it
        scale = np.abs(dense.A[1:, 1:]).sum(axis=1).max()
        assert np.abs(closed.r_vec - dense.r_vec).max() <= 1e-9 * scale
        assert np.abs(closed.c_vec - dense.c_vec).max() <= 1e-9 * scale * f.max()
        assert closed.rho == pytest.approx(dense.rho, rel=1e-9)

    def test_singular_bare_window_refuses(self):
        U = np.ones((3, 3))
        for check in (lambda: analyze(np.eye(4), U, np.zeros(3)),
                      lambda: check_inverse_m_matrix(U)):
            with pytest.raises(IdentityError) as err:
                check()
            assert err.value.key == "window-inverse-identity"

    def test_non_finite_window_refuses(self):
        # NaN compares False with every bound, so it must fail them, not pass
        nan_spec = ARkGen(p=(0.5, 0.25), a_sq=np.inf)
        for check in (lambda: window_inverse(nan_spec, Window(0, 3)),
                      lambda: check_inverse_m_matrix(np.full((3, 3), np.nan))):
            with pytest.raises(IdentityError) as err:
                check()
            assert err.value.key == "window-inverse-identity"


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


@st.composite
def walk_rates(draw):
    """Rates on up to 5 offsets in [-90, 90], mirrored or not; offsets past
    2R leave the lattice."""
    offsets = draw(st.lists(st.integers(-90, 90).filter(bool), min_size=1,
                            max_size=5, unique=True))
    rate = st.floats(0.0, 2.0)
    if draw(st.booleans()):
        rates = {}
        for d in offsets:
            rates[d] = rates[-d] = draw(rate)
    else:
        rates = {d: draw(rate) for d in offsets}
    if sum(rates.values()) <= 0:
        rates[offsets[0]] = 1.0
    return rates


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
        with pytest.raises(ValueError, match="killed_walk"):
            build_kernel(spec, Window(0, 5))

    def test_generator_takes_only_its_whole_lattice(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=10)
        assert build_generator(spec, 21).entries.shape == (21, 21)
        with pytest.raises(InputError, match="killed_walk needs n = 21 sites"):
            build_generator(spec, 3)

    @pytest.mark.parametrize(
        "rates, beta",
        [({-1: 0.5, 1: 0.5}, np.inf), ({-1: 0.5, 1: 0.5}, np.nan),
         ({-1: np.nan, 1: 0.5}, 1.0), ({-1: np.inf, 1: 0.5}, 1.0)],
        ids=["beta-inf", "beta-nan", "rate-nan", "rate-inf"],
    )
    def test_refuses_non_finite_beta_and_rates(self, rates, beta):
        with pytest.raises(InputError, match="beta|step_rates"):
            KilledWalk(step_rates=rates, beta=beta, radius=3)

    def test_potential_is_solved_once_and_read_only(self):
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=5)
        res = killed_walk_potential(spec)
        assert killed_walk_potential(spec) is res
        for a in (res.kernel.entries, res.kernel.labels, res.row_sums, res.interior):
            assert not a.flags.writeable

    @staticmethod
    def reference_precision(spec):
        # beta I - G entry by entry: rate r_d at (i, i + d), killed beyond the lattice
        size = 2 * spec.radius + 1
        total = sum(spec.step_rates.values())
        M = np.zeros((size, size))
        for i in range(size):
            for j in range(size):
                M[i, j] = (spec.beta + total if i == j
                           else 0.0 - spec.step_rates.get(j - i, 0.0))
        return M

    @settings(max_examples=60, deadline=None)
    @given(radius=st.integers(1, 40), rates=walk_rates())
    @example(radius=1, rates={-1: 0.5, 1: 0.5})
    @example(radius=3, rates={-3: 0.1, -1: 0.3, 1: 0.7, 3: 0.1})
    @example(radius=2, rates={-1: 0.5, 2: 0.25, 7: 0.4})
    def test_band_is_written_from_the_rates(self, radius, rates):
        spec = KilledWalk(step_rates=rates, beta=0.3, radius=radius)
        M = self.reference_precision(spec)
        band = kernels._walk_band(spec)
        w = min(max(abs(d) for d in rates), 2 * radius)
        assert band.shape == (2 * w + 1, 2 * radius + 1)
        assert np.array_equal(kernels._band_matrix(band), M)
        G = build_generator(spec, 2 * radius + 1).entries
        assert np.array_equal(G, -M)
        U = killed_walk_potential(spec).kernel.entries
        assert np.array_equal(U, np.linalg.solve(M, np.eye(2 * radius + 1)))

    def test_stream_holds_one_band(self):
        # a dense (2R+1)^2 array at R = 1000 is 30.5 MiB
        spec = KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=1000)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            paths = np.hstack(list(spec.path_stream(2001, rng, 3, 256)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.shape == (3, 2001)
        assert peak < 1 << 20


def masked_envelope(U):
    """Reference route: each distance's maximum through an n x n mask."""
    n = U.shape[0]
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    dmax = max(2, (3 * n) // 4)
    envelope = np.array([np.abs(U[dist == d]).max() for d in range(dmax)])
    slope, intercept = np.polyfit(np.arange(dmax), np.log(np.maximum(envelope, 1e-300)), 1)
    return float(np.exp(intercept)), float(-slope), bool(np.all(np.diff(envelope) <= 1e-12))


class TestDecayEnvelope:
    def test_banded_inverse_decays(self):
        U = dense_window(AR1(x=np.full(30, 0.5)), Window(0, 30))
        C, lam, monotone = decay_envelope(U)
        assert C > 0
        assert lam > 0
        assert monotone

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_asymmetric_window_matches_mask_route(self, n):
        # a rank-one update with k != l makes U[i, i+d] and U[i+d, i] differ
        spec = RankOneUpdate(base=AR1(x=np.full(n + 5, 0.5)), k=1, l=n, b=0.4)
        U = dense_window(spec, Window(0, n))
        assert not np.array_equal(U, U.T)
        assert decay_envelope(U) == masked_envelope(U)

    def test_refuses_a_single_entry(self):
        with pytest.raises(InputError, match="n >= 2"):
            decay_envelope(np.ones((1, 1)))


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


ROUND_TRIP_SPECS = [
    MinKernel(s=[1.0, 2.5, 4.0]),
    ScaledMinKernel(s=[1.0, 2.0, 3.0], b=[1.0, 0.5, 2.0]),
    ShiftedScaled(s=[1.0, 2.0, 3.0], b=[1.0, 1.0, 1.0], Delta=0.5),
    ExpKernel(v=[0.0, 0.7, 1.4]),
    AR1(x=[0.5, 0.5]),
    AR1Shifted(x=[0.5, 0.5], delta_tilde=1.5),
    ARk(p=(0.5, 0.25)),
    ARkGen(p=(0.5, 0.25), a_sq=0.5),
    KilledWalk(step_rates={-1: 0.5, 1: 0.5}, beta=1.0, radius=10),
    RankOneUpdate(base=MinKernel(s=[1.0, 2.0, 3.0]), k=1, l=3, b=0.25),
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_to_from_config(self, spec):
        doc = spec.to_config()
        clone = KernelSpec.from_config(doc)
        assert type(clone) is type(spec)
        assert clone == spec
        assert clone.to_config() == doc

    def test_covers_every_family(self):
        assert {spec.family for spec in ROUND_TRIP_SPECS} == set(kernels._FAMILIES)

    def test_rates_are_written_in_offset_order(self):
        walk = KilledWalk(step_rates={10: 0.25, 2: 0.5, -1: 0.5}, beta=1.0, radius=12)
        assert list(walk.to_config()["step_rates"]) == ["-1", "2", "10"]

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
            ({"family": "killed_walk", "step_rates": {"x": 0.5}, "beta": 1.0,
              "radius": 10}, "step_rates"),
            ({"family": "killed_walk", "step_rates": {"1.5": 0.5}, "beta": 1.0,
              "radius": 10}, "step_rates"),
            ({"family": "rank_one_update", "base": [1.0, 2.0], "k": 1, "l": 2,
              "b": 0.25}, "'base' must be a kernel config object"),
        ],
        ids=["missing", "unknown", "null-scalar", "rate-list", "float-int",
             "array-of-objects", "family-list", "rate-key-word", "rate-key-float",
             "base-not-object"],
    )
    def test_malformed_config_is_a_value_error(self, doc, named):
        with pytest.raises(ValueError, match=named):
            KernelSpec.from_config(doc)
