"""Seeded Monte Carlo for Gaussian and permanental sequences.

Gaussian paths are generated through the defining recursions of each kernel
family (independent increments for min kernels, a unit band solve of the
recurrence for exponential and autoregressive kernels, a band Cholesky
factor of the precision for the killed walk), so covariances are exact and
the work per index is O(order or band); a rank-one update, not symmetric,
is refused.
Permanental samples with half-integer alpha are sums of squared Gaussian
replicas over the symmetrized kernel U + a a^T, with the sandwich weights
attached to quantify the distance to the law of the original non-symmetric
kernel.

Trend experiments stream running maxima at constant memory per trial. Each
trial owns a counter-based RNG stream split from the master seed, so trials
are independent and insensitive to execution order, and identical
configurations reproduce bitwise-identical reports. So the trials run on the
calling thread and on helper threads up to the usable CPUs (`_each_trial`):
a trial's maxima are the same arithmetic on the same stream on any thread,
and it writes them to its own row, so every value keeps its bits.

The Gamma-marginal KS harness draws only the indices it tests. For min, exp,
AR1 and AR1Shifted, whose values at any increasing indices are again a
Gaussian Markov chain, that chain is drawn alone (`_Chain._kept_chain`), one
(rows, kept) draw per chunk on this thread; every other family draws its full
stream, and a helper thread that the stream owns filters each row tile of a
wide batch and writes just the tested columns (`kernels._filtered_chunks`).
Its KS supremum takes the Gamma CDF at knots every KS_KNOT_STRIDE sorted
points and then only between knots where the supremum can sit (`_ks_gamma`).
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, gammainc, gammaincc, gammaln

from .excessive import PotentialFunction
from .identities import IdentityError, InputError, check
from .argen import linear_recurrence
from .kernels import ExpKernel, Window, _chunks, build_kernel
from .normalizers import koval
from .symmetrize import _as_values, analyze, extend, sandwich_factor

KS_CRITICAL_5PCT = 1.3581
# the KS supremum takes the CDF at every this-many sorted points first
KS_KNOT_STRIDE = 32
# CDF round-off allowed against monotonicity when intervals are pruned
KS_MONOTONE_SLACK = 1e-12
BAND_COARSE_STRIDE = 64         # distinct ratios per group of the band's coarse model
BAND_CERTIFICATE_RTOL = 1e-12   # relative width of a band edge's sign-change check


def _trial_rng(seed, trial):
    if seed < 0:
        raise InputError("seed must be >= 0")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed), int(trial))))
    )


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_trial(run, trials, out):
    """out[t] = run(t) for t < trials, on this thread and min(trials, usable
    CPUs) - 1 helper threads, each taking the next trial in index order.

    After a failure no trial is handed out, so every lower trial has run and
    the lowest failure is raised, as a serial loop raises it; an interrupt or
    exit is raised over any failure. The helpers end before this returns or
    raises; with one worker none starts.
    """
    order = iter(range(trials))
    lock = threading.Lock()
    failed = {}

    def work():
        while True:
            with lock:
                trial = None if failed else next(order, None)
            if trial is None:
                return
            try:
                out[trial] = run(trial)
            except BaseException as exc:
                with lock:
                    failed[trial] = exc
                if not isinstance(exc, Exception):
                    raise

    helpers = min(trials, _usable_cpus()) - 1
    with ThreadPoolExecutor(max(helpers, 1), thread_name_prefix="potkernels-trial") as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
    for future in futures:
        future.result()
    if failed:
        raise failed[min(failed)]


def _chunk_size(rows):
    return int(max(256, min(1 << 16, (1 << 22) // max(rows, 1))))


def _path_stream(spec, n_max, rng, rows, chunk=None, cols=None, thin=False):
    """Chunked zero-mean Gaussian paths with the kernel as covariance, kept at
    the sorted 0-based columns `cols` (all by default); the one route of every
    sampler (`KernelSpec.path_stream` refuses the rest). With `thin` and
    `cols`, an order-1 chain draws only its values at `cols`, as the chain
    that they form (`_Chain._kept_chain`): other draws with the same law."""
    spec.admissibility().require()
    chunk = chunk or _chunk_size(rows)
    if not thin or spec._kept_chain is None:
        return spec.path_stream(n_max, rng, rows, chunk, cols)
    return _kept_chain_stream(*spec._kept_chain(cols), rng, rows, chunk)


def _kept_chain_stream(A, sd, rng, rows, chunk):
    """y[i] = A[i] y[i-1] + sd[i] g, one (rows, m) draw per chunk filtered on
    this thread: `_stream_recurrence`'s values, without its row tiles."""
    y = np.zeros((rows, 1))
    for j0, m in _chunks(A.size, chunk):
        g = rng.standard_normal((rows, m))
        g *= sd[j0 : j0 + m]
        y = linear_recurrence(A[None, j0 : j0 + m], g, y[:, -1:].copy())
        yield y


def _gaussian_paths(spec, n_max, rng, rows, cols=None, thin=False):
    """rows Gaussian paths of n_max steps at the sorted 0-based columns `cols`
    (all by default), which the stream alone keeps (`kernels._filtered_chunks`),
    or draws alone with `thin` (`_path_stream`)."""
    width = n_max if cols is None else cols.size
    if rows * width * 8 > np.iinfo(np.intp).max:     # numpy's largest array
        raise InputError(f"{rows} rows x {width} columns of paths exceed one array")
    kept = np.empty((rows, width))
    j = 0
    for block in _path_stream(spec, n_max, rng, rows, cols=cols, thin=thin):
        kept[:, j : j + block.shape[1]] = block
        j += block.shape[1]
    return kept


def _k_half(alpha):
    # alpha = k_half/2 for an integer k_half >= 1, the squared-Gaussian replicas
    k_half = int(round(2 * alpha)) if np.isfinite(2 * alpha) else 0
    if abs(2 * alpha - k_half) > 1e-12 or k_half < 1:
        raise InputError("alpha must be a positive half-integer")
    return k_half


def kernel_diagonal(spec, n):
    """U[j,j] for j = 1..n through the per-family closed forms."""
    spec.admissibility().require()
    return spec.diagonal(n)


@dataclass(frozen=True)
class SampleBatch:
    values: np.ndarray           # trials x n
    spec: object
    seed: int
    alpha: float = None          # None for plain Gaussian batches
    rho: float = 0.0
    a_vec: np.ndarray = None
    sandwich: object = None
    window: Window = None


def sample_gaussian(spec, n, seed, trials=1):
    """Gaussian sample paths with covariance build_kernel(spec, Window(0, n)).

    O(n) per path through the family's `path_stream`; the killed walk needs
    n = 2R + 1 and symmetric rates. A rank-one update, trials < 1 and n < 1
    are refused before any draw.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    window = Window(0, n)
    values = _gaussian_paths(spec, n, _trial_rng(seed, 0), trials)
    return SampleBatch(values=values, spec=spec, seed=seed, window=window)


def _f_values(f, l, n):
    if f is None:
        return np.zeros(n)
    if isinstance(f, PotentialFunction):
        return _as_values(f.on_window(Window(l, n)).copy(), n)
    arr = np.asarray(f)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise TypeError(
            "f must be None, a PotentialFunction or a 1-d sequence of numbers, "
            f"not {type(f).__name__}"
        )
    if arr.size < l + n:
        raise InputError(f"f must cover labels 1..{l + n}")
    return _as_values(arr[l : l + n].astype(float), n)


def _replica_draws(spec, n_max, cols, seed, count, k_half, a, thin=False):
    """count permanental draws at the 0-based columns cols: k_half Gaussian
    replicas per draw (`_gaussian_paths`, with `thin`), each shifted by a xi
    (a given at cols), then squared and halved, all from the RNG stream
    (seed, 0)."""
    rng = _trial_rng(seed, 0)
    paths = _gaussian_paths(spec, n_max, rng, count * k_half, cols, thin)
    xi = rng.standard_normal((count, k_half))
    shifted = paths.reshape(count, k_half, cols.size)
    shifted += a[None, None, :] * xi[:, :, None]
    return np.square(shifted, out=shifted).sum(axis=1) / 2.0


def sample_permanental(spec, f, k_half, n, seed, trials=1, l=0):
    """Permanental samples with alpha = k_half/2 over the window (l, n).

    The sampled kernel is the symmetrized representative U + a a^T from the
    extension ledger; the attached sandwich weights bound the difference
    from the law of the original kernel. Only half-integer alpha is
    supported, matching the squared-Gaussian construction.
    """
    if not isinstance(k_half, (int, np.integer)) or k_half < 1:
        raise InputError(
            "only half-integer alpha = k_half/2 with integer k_half >= 1 is "
            "supported"
        )
    if trials < 1:
        raise InputError("trials must be >= 1")
    alpha = k_half / 2.0
    window = Window(l, n)
    fw = _f_values(f, l, n)
    if fw.any():
        U = build_kernel(spec, window)
        ledger = analyze(extend(U, fw), U, fw)
        a_vec = ledger.a_vec
        rho = ledger.rho
    else:
        a_vec = np.zeros(n)
        rho = 0.0
    weights = sandwich_factor(alpha, rho)

    values = _replica_draws(spec, l + n, np.arange(l, l + n), seed, trials, k_half, a_vec)
    return SampleBatch(
        values=values,
        spec=spec,
        seed=seed,
        alpha=alpha,
        rho=rho,
        a_vec=a_vec,
        sandwich=weights,
        window=window,
    )


@dataclass(frozen=True)
class IndexKS:
    index: int
    statistic: float
    critical: float
    passed: bool
    sample_mean: float
    expected_mean: float


@dataclass(frozen=True)
class GammaMarginalReport:
    alpha: float
    m_samples: int
    seed: int
    records: tuple


def _ks_terms(cdf, pos, m):
    # the larger of cdf - pos/m and (pos + 1)/m - cdf over sorted positions pos
    return float(max((cdf - pos / m).max(), ((pos + 1.0) / m - cdf).max()))


def _ks_statistic(cdf_at_sorted):
    # cdf_at_sorted: model CDF evaluated at the sorted sample
    m = cdf_at_sorted.size
    return _ks_terms(cdf_at_sorted, np.arange(m, dtype=float), m)


def _ks_gamma(alpha, t_sorted):
    """_ks_statistic(gammainc(alpha, t_sorted)), bit for bit, from fewer CDFs.

    The CDF is taken at every KS_KNOT_STRIDE-th sorted point and at the
    last. It is monotone, so at the positions p <= i < q from one knot to
    the next the terms of the statistic are at most F(t_q) - p/m and
    q/m - F(t_p). Only the intervals where that bound reaches the
    largest knot term, less KS_MONOTONE_SLACK for round-off in the CDF,
    are evaluated point by point; no other point can hold the maximum.
    """
    m = t_sorted.size
    knots = np.arange(0, m, KS_KNOT_STRIDE)
    if knots[-1] != m - 1:
        knots = np.append(knots, m - 1)
    pos = knots.astype(float)
    cdf = gammainc(alpha, t_sorted[knots])
    best = _ks_terms(cdf, pos, m)
    bound = np.maximum(cdf[1:] - pos[:-1] / m, pos[1:] / m - cdf[:-1])
    live = np.repeat(bound >= best - KS_MONOTONE_SLACK, np.diff(knots))
    inner = np.flatnonzero(live)
    if inner.size:
        best = max(best, _ks_terms(
            gammainc(alpha, t_sorted[inner]), inner.astype(float), m
        ))
    return best


def gamma_marginal_test(spec, f, alpha, indices, m_samples, seed):
    """One-sample KS test of X[j]/(U[j,j] + f[j]) against Gamma(alpha, 1).

    The rank-one representative U + sqrt(f) sqrt(f)^T is sampled because its
    diagonal matches U[j,j] + f[j] exactly, which is all the marginal law
    depends on. For min, exp, AR1 and AR1Shifted only the tested values are
    drawn, as the Markov chain that they form (`_Chain._kept_chain`); every
    other family keeps them from its full stream. Then xi, as for
    `sample_permanental`, all from the RNG stream (seed, 0). Pass/fail per
    index at the asymptotic 5% level. The statistic is the full KS supremum,
    evaluated from knots and the live intervals between them (`_ks_gamma`).
    """
    k_half = _k_half(alpha)
    idx = np.unique(np.asarray(indices, dtype=int))
    if idx.size == 0 or idx[0] < 1:
        raise InputError("indices are 1-based")
    if m_samples < 1:
        raise InputError("m_samples must be >= 1")
    n_max = int(idx[-1])
    fw = _f_values(f, 0, n_max)
    scale = kernel_diagonal(spec, n_max) + fw
    X = _replica_draws(
        spec, n_max, idx - 1, seed, m_samples, k_half, np.sqrt(fw[idx - 1]), thin=True
    )

    critical = KS_CRITICAL_5PCT / np.sqrt(m_samples)
    records = []
    for pos, j in enumerate(idx):
        t = X[:, pos] / scale[j - 1]
        D = _ks_gamma(alpha, np.sort(t))
        records.append(
            IndexKS(
                index=int(j),
                statistic=D,
                critical=float(critical),
                passed=bool(D < critical),
                sample_mean=float(t.mean()),
                expected_mean=float(alpha),
            )
        )
    return GammaMarginalReport(
        alpha=float(alpha), m_samples=int(m_samples), seed=int(seed),
        records=tuple(records),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    spec: object
    alpha: float
    checkpoints: tuple
    trials: int
    seed: int
    f: object = None             # None, array, or a PotentialFunction
    mode: str = "permanental"    # or "gaussian-lil"
    log_s: object = None         # gaussian-lil only


@dataclass(frozen=True)
class TrendReport:
    checkpoints: tuple
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    constant: float
    theorem: str
    alpha: float
    trials: int
    seed: int
    mode: str
    raw_max: np.ndarray          # trials x checkpoints, before normalization
    normalized: np.ndarray       # trials x checkpoints

    def to_json(self):
        return {
            "checkpoints": [int(c) for c in self.checkpoints],
            "median": [float(v) for v in self.median],
            "q25": [float(v) for v in self.q25],
            "q75": [float(v) for v in self.q75],
            "constant": float(self.constant),
            "theorem": self.theorem,
            "alpha": float(self.alpha) if self.alpha is not None else None,
            "trials": int(self.trials),
            "seed": int(self.seed),
            "mode": self.mode,
            "citation": "trend-direction",
        }


def limsup_experiment(config, prediction=None):
    """Streamed running maxima, normalized at each checkpoint.

    Permanental mode tracks max_{j<=N} X[j] and reports it divided by
    phi(N), the predicted normalizer at the checkpoint; the limsup constant
    is the trend target. Gaussian-lil mode tracks the per-index ratio
    eta[j]/sqrt(2 s_j K_s(j)) on the grid log_s (indices where K_s is not
    yet positive are skipped) with constant 1. Medians and quartiles over
    trials are reported; no pass/fail at this layer.

    Each trial is one call of `trial_maxima` on its own stream (seed, trial).
    The trials are handed out in index order to this thread and to
    min(trials, usable CPUs) - 1 helpers, which overlap the draws and the
    running maxima, the parts that release the GIL; a failure raises the
    lowest failing trial's error, as a serial loop would (`_each_trial`).
    """
    cps = tuple(int(c) for c in config.checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 2:
        raise InputError("checkpoints must be increasing integers >= 2")
    n_max = cps[-1]
    if config.trials < 1:
        raise InputError("trials must be >= 1")

    lil = config.mode == "gaussian-lil"
    if lil:
        logs = np.asarray(config.log_s, dtype=float)
        if logs.size < n_max:
            raise InputError("log_s shorter than the largest checkpoint")
        # eta_j/sqrt(s_j) is the exp kernel path on the grid log(s)/2
        stream_spec = ExpKernel(v=logs / 2.0)
        ratio_norm = np.full(n_max, np.inf)
        kvals = 2.0 * koval(log_s=logs, j=np.arange(2, n_max + 1))
        ratio_norm[1:] = np.where(kvals > 0, np.sqrt(np.maximum(kvals, 0)), np.inf)
        phi_at = np.ones(len(cps))
        constant, theorem, k_half = 1.0, "gaussian-lil", 1
    else:
        if prediction is None:
            raise InputError("permanental mode needs a prediction")
        k_half = _k_half(config.alpha)
        stream_spec = config.spec
        phi_at = np.asarray(
            prediction.normalizer(np.asarray(cps, dtype=int)), dtype=float
        )
        if not np.all(np.isfinite(phi_at) & (phi_at > 0)):
            raise InputError("normalizer must be positive at every checkpoint")
        constant, theorem = prediction.constant, prediction.theorem
    fw = None
    if not lil and config.f is not None:
        fw = _f_values(config.f, 0, n_max)
        if not fw.any():
            fw = None
    a_full = np.sqrt(fw) if fw is not None else None

    rows = 1 if lil else k_half

    def trial_maxima(trial):
        # the running maximum at each checkpoint, from the stream (seed, trial)
        rng = _trial_rng(config.seed, trial)
        xi = rng.standard_normal(rows)
        out = np.empty(len(cps))
        carry = -np.inf
        cp_pos = 0
        j0 = 0
        for block in _path_stream(stream_spec, n_max, rng, rows):
            m = block.shape[1]
            if lil:
                X = block[0] / ratio_norm[j0 : j0 + m]
            else:
                if a_full is not None:
                    block = block + a_full[j0 : j0 + m][None, :] * xi[:, None]
                X = np.square(block).sum(axis=0)
                X /= 2.0
            # in place: each thread's malloc arena keeps what it frees
            acc = np.maximum.accumulate(X, out=X)
            np.maximum(acc, carry, out=acc)
            while cp_pos < len(cps) and cps[cp_pos] <= j0 + m:
                out[cp_pos] = acc[cps[cp_pos] - j0 - 1]
                cp_pos += 1
            carry = acc[-1]
            j0 += m
        return out

    raw = np.empty((config.trials, len(cps)))
    _each_trial(trial_maxima, config.trials, raw)
    check("trend-direction", -np.diff(raw, axis=1).min(initial=0.0), 0.0,
          "largest fall of a running maximum as N grows")
    normalized = raw / phi_at[None, :]
    return TrendReport(
        checkpoints=cps,
        median=np.median(normalized, axis=0),
        q25=np.percentile(normalized, 25, axis=0),
        q75=np.percentile(normalized, 75, axis=0),
        constant=float(constant),
        theorem=theorem,
        alpha=None if lil else config.alpha,
        trials=config.trials,
        seed=config.seed,
        mode=config.mode,
        raw_max=raw,
        normalized=normalized,
    )


def _log_gamma_cdf(alpha, x):
    """log P(alpha, x) at increasing x: the log of `gammainc` below x = alpha
    and, where P > 1/2, log1p of minus `gammaincc`, which keeps its digits."""
    k = np.searchsorted(x, alpha)
    return np.concatenate((np.log(gammainc(alpha, x[:k])), np.log1p(-gammaincc(alpha, x[k:]))))


def _band_root(f, level, s, lo=np.log(1e-9), hi=np.log(1e9)):
    """The s in [lo, hi] where f, increasing and concave, with its value and
    slope, reaches level: Newton from s to a step of 1e-9, bisecting the
    bracket in place of a step that leaves it or is not finite."""
    for _ in range(200):
        value, slope = f(s)
        lo, hi = (s, hi) if value < level else (lo, s)
        new = s - (value - level) / slope
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - s) <= 1e-9:
            return new
        s = new
    raise IdentityError("trend-band", "band edge solve did not converge")


def analytic_median_band(diag, phi_at_n, alpha, trials, coverage=0.95):
    """Calibration band for the median of max_{j<=N} X[j] / phi(N).

    Surrogate model: independent Gamma(alpha, scale U[j,j]) coordinates, for
    which the per-trial CDF of the normalized running maximum is the product
    of the marginal CDFs, and the median of an odd number of trials has an
    exact Beta order-statistic law. Returns the central `coverage` interval.

    The log of that product, logH(t), is a sum over the distinct ratios
    phi_at_n / U[j,j], each weighted by its count (`_log_gamma_cdf`). It is
    concave in s = log t, since log X has a log-concave density for
    X ~ Gamma(alpha), so each edge solves logH = log(betaincinv(m, m, target))
    by Newton in s (`_band_root`). The solve starts from the root of a coarse
    model, in which the middle ratio of each run of BAND_COARSE_STRIDE carries
    the run's counts. The Beta form betainc(m, m, H) - target must change
    sign within a relative BAND_CERTIFICATE_RTOL of each edge, and each edge
    must lie in [1e-9, 1e9]; otherwise the band is refused (`trend-band`).
    """
    if trials < 1 or trials % 2 != 1:
        raise InputError("trials must be a positive odd count")
    if not (np.isfinite(alpha) and alpha > 0):
        raise InputError("alpha must be finite and positive")
    if not 0.0 < coverage < 1.0:
        raise InputError("coverage must lie in (0, 1)")
    diag = np.asarray(diag, dtype=float)
    if diag.size == 0:
        raise InputError("diagonal must be nonempty")
    if not (np.isfinite(phi_at_n) and phi_at_n > 0 and np.all(diag > 0)):
        raise InputError("need positive diagonal and normalizer")
    ratio, counts = np.unique(float(phi_at_n) / diag, return_counts=True)
    m = (trials + 1) // 2
    log_scale = alpha * np.log(ratio) - gammaln(alpha)
    starts = np.arange(0, ratio.size, BAND_COARSE_STRIDE)
    coarse = (np.minimum(starts + BAND_COARSE_STRIDE // 2, ratio.size - 1),
              np.add.reduceat(counts, starts))

    def log_h(s, keep=slice(None), weights=counts):
        # logH(e^s) over ratio[keep]; d/ds log P(alpha, x) = x^alpha e^-x / (Gamma P)
        x = np.exp(s) * ratio[keep]
        log_p = _log_gamma_cdf(alpha, x)
        return weights @ log_p, weights @ np.exp(log_scale[keep] + alpha * s - x - log_p)

    def edge(target, s):
        level = np.log(betaincinv(m, m, target))
        s = _band_root(log_h, level, _band_root(lambda u: log_h(u, *coarse), level, s))
        below, above = (betainc(m, m, np.exp(log_h(s + d)[0]))
                        for d in (-BAND_CERTIFICATE_RTOL, BAND_CERTIFICATE_RTOL))
        if not below <= target <= above:
            raise IdentityError("trend-band", f"no certified edge in [1e-9, 1e9]: {np.exp(s)!r}")
        return float(np.exp(s))

    tail = (1.0 - coverage) / 2.0
    with np.errstate(all="ignore"):   # log(0) and inf / inf steps fall back to bisection
        lo = edge(tail, 0.0)
        return lo, edge(1.0 - tail, np.log(lo))


def calibration_band(spec, prediction, alpha, n_max, trials, coverage=0.95):
    """Analytic band for a permanental trend experiment at size n_max."""
    diag = kernel_diagonal(spec, n_max)
    phi_at_n = float(np.asarray(prediction.normalizer(n_max)))
    return analytic_median_band(diag, phi_at_n, alpha, trials, coverage)


@dataclass(frozen=True)
class SubsequenceResult:
    indices: tuple
    partial: bool
    epsilon: float
    norm_bound: float            # (||M|| + ||M^T||)/epsilon

    def __iter__(self):
        return iter(self.indices)


def sparse_subsequence(M, epsilon, count, *, limit=None, row_norm=None, col_norm=None):
    """Greedy extraction of indices whose pairwise entries are <= epsilon.

    M is a square array or a callable (i, j) -> value over 1-based indices;
    callables need `limit` and both norms (max absolute row/column sums).
    Each accepted index is checked exactly against all previous picks, and
    the growth bound i_n <= n (||M|| + ||M^T||)/epsilon is asserted. Fewer
    than `count` indices within the accessible range yields a partial
    result, flagged rather than raised.
    """
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if callable(M):
        if limit is None or row_norm is None or col_norm is None:
            raise InputError("callable accessors need limit, row_norm, col_norm")
        entry = M
    else:
        arr = np.asarray(M, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("M must be square")
        limit = arr.shape[0] if limit is None else min(limit, arr.shape[0])
        sums = np.abs(arr).sum(axis=1)
        row_norm = float(sums.max())
        col_norm = float(np.abs(arr).sum(axis=0).max())
        entry = lambda i, j: float(arr[i - 1, j - 1])

    bound = (row_norm + col_norm) / epsilon
    chosen = []
    for i in range(1, limit + 1):
        if all(entry(i, c) <= epsilon and entry(c, i) <= epsilon for c in chosen):
            chosen.append(i)
            if len(chosen) == count:
                break
    n = np.arange(1, len(chosen) + 1)
    check("subsequence-growth-bound", np.max(chosen - n * bound, initial=-np.inf), 1e-9,
          "largest i[n] - n (||M|| + ||M^T||)/eps")
    pairs = [(i, j) for a_pos, i in enumerate(chosen) for j in chosen[a_pos + 1 :]]
    check("subsequence-pairwise-bound",
          np.max([entry(i, j) for i, j in pairs] + [entry(j, i) for i, j in pairs],
                 initial=-np.inf),
          epsilon, "largest entry over extracted pairs")
    return SubsequenceResult(
        indices=tuple(chosen),
        partial=len(chosen) < count,
        epsilon=float(epsilon),
        norm_bound=float(bound),
    )
