"""Seeded Monte Carlo for Gaussian and permanental sequences.

Gaussian paths are generated through the defining recursions of each kernel
family (independent increments for min kernels, one-pole filters for
exponential and autoregressive kernels), so covariances are exact and the
work per index is O(1). Permanental samples with half-integer alpha are sums
of squared Gaussian replicas over the symmetrized kernel U + a a^T, with the
sandwich weights attached to quantify the distance to the law of the
original non-symmetric kernel.

Trend experiments stream running maxima at constant memory per trial. Each
trial owns a counter-based RNG stream split from the master seed, so trials
are independent and insensitive to execution order, and identical
configurations reproduce bitwise-identical reports.

The Gamma-marginal KS harness draws its paths through the same streams; a
wide batch is drawn in row tiles while one helper thread filters the tile
before (`kernels._filtered_chunks`). Its KS supremum takes the Gamma CDF at
knots every KS_KNOT_STRIDE sorted points and then only on the intervals
between knots where the supremum can sit (`_ks_gamma`).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, gammainc

from .identities import IdentityError
from .kernels import ExpKernel, Window, build_kernel
from .normalizers import koval
from .symmetrize import _as_values, analyze, extend, sandwich_factor

KS_CRITICAL_5PCT = 1.3581
# the KS supremum takes the CDF at every this-many sorted points first
KS_KNOT_STRIDE = 32
# CDF round-off allowed against monotonicity when intervals are pruned
KS_MONOTONE_SLACK = 1e-12
JITTER_ATTEMPTS = 3


def _trial_rng(seed, trial):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed), int(trial))))
    )


def _chunk_size(rows):
    return int(max(256, min(1 << 16, (1 << 22) // max(rows, 1))))


def _path_stream(spec, n_max, rng, rows, chunk=None):
    """Chunked zero-mean Gaussian paths with the kernel as covariance."""
    spec.admissibility().require()
    return spec.path_stream(n_max, rng, rows, chunk or _chunk_size(rows))


def _dense_paths(spec, n, rng, rows):
    entries = np.asarray(spec.path_covariance(n), dtype=float)
    if np.abs(entries - entries.T).max() > 1e-10 * max(1.0, np.abs(entries).max()):
        raise ValueError("sample_gaussian needs a symmetric kernel family")
    jitter = 0.0
    base = 1e-12 * max(1.0, float(np.trace(entries)) / n)
    for attempt in range(JITTER_ATTEMPTS + 1):
        try:
            L = np.linalg.cholesky(entries + jitter * np.eye(n))
            break
        except np.linalg.LinAlgError:
            jitter = base * 100.0**attempt
    else:
        raise IdentityError(
            "gaussian-covariance", "factorization failed after jitter escalation"
        )
    return rng.standard_normal((rows, n)) @ L.T


def _gaussian_paths(spec, n_max, rng, rows):
    stream = _path_stream(spec, n_max, rng, rows)
    if stream is None:
        return _dense_paths(spec, n_max, rng, rows)
    return np.concatenate(list(stream), axis=1)


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

    O(n) per path for the structured families, dense factorization with
    jitter escalation otherwise.
    """
    rng = _trial_rng(seed, 0)
    values = _gaussian_paths(spec, n, rng, trials)
    return SampleBatch(values=values, spec=spec, seed=seed, window=Window(0, n))


def _f_values(f, l, n):
    if f is None:
        return np.zeros(n)
    values = getattr(f, "values", None)
    if values is not None:
        start = getattr(f, "start", 1)
        lo = l + 1 - start
        if lo < 0 or lo + n > len(values):
            raise ValueError("f does not cover the requested window")
        return _as_values(np.asarray(values, dtype=float)[lo : lo + n].copy(), n)
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.size < l + n:
        raise ValueError(f"f must cover labels 1..{l + n}")
    return _as_values(arr[l : l + n].copy(), n)


def sample_permanental(spec, f, k_half, n, seed, trials=1, l=0):
    """Permanental samples with alpha = k_half/2 over the window (l, n).

    The sampled kernel is the symmetrized representative U + a a^T from the
    extension ledger; the attached sandwich weights bound the difference
    from the law of the original kernel. Only half-integer alpha is
    supported, matching the squared-Gaussian construction.
    """
    if not isinstance(k_half, (int, np.integer)) or k_half < 1:
        raise ValueError(
            "only half-integer alpha = k_half/2 with integer k_half >= 1 is "
            "supported"
        )
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

    rng = _trial_rng(seed, 0)
    rows = trials * k_half
    paths = _gaussian_paths(spec, l + n, rng, rows)[:, l : l + n]
    xi = rng.standard_normal((trials, k_half))
    shifted = paths.reshape(trials, k_half, n) + a_vec[None, None, :] * xi[:, :, None]
    values = (shifted**2).sum(axis=1) / 2.0
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

    @property
    def all_passed(self):
        return all(r.passed for r in self.records)


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
    depends on. Pass/fail per index at the asymptotic 5% level. The
    statistic is the full KS supremum, evaluated from knots and the live
    intervals between them (`_ks_gamma`).
    """
    k_half = int(round(2 * alpha))
    if abs(2 * alpha - k_half) > 1e-12 or k_half < 1:
        raise ValueError("alpha must be a positive half-integer")
    idx = np.unique(np.asarray(indices, dtype=int))
    if idx.size == 0 or idx[0] < 1:
        raise ValueError("indices are 1-based")
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    n_max = int(idx[-1])
    fw = _f_values(f, 0, n_max)
    a = np.sqrt(fw)
    scale = kernel_diagonal(spec, n_max) + fw

    rng = _trial_rng(seed, 0)
    rows = m_samples * k_half
    cols = idx - 1
    stream = _path_stream(spec, n_max, rng, rows)
    if stream is None:
        paths_at = _dense_paths(spec, n_max, rng, rows)[:, cols]
    else:
        collected = np.empty((rows, idx.size))
        j0 = 0
        for block in stream:
            m = block.shape[1]
            hit = (cols >= j0) & (cols < j0 + m)
            if hit.any():
                collected[:, hit] = block[:, cols[hit] - j0]
            j0 += m
        paths_at = collected
    xi = rng.standard_normal((m_samples, k_half))
    shifted = (
        paths_at.reshape(m_samples, k_half, idx.size)
        + a[cols][None, None, :] * xi[:, :, None]
    )
    X = (shifted**2).sum(axis=1) / 2.0

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
    """
    cps = tuple(int(c) for c in config.checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 2:
        raise ValueError("checkpoints must be increasing integers >= 2")
    n_max = cps[-1]
    if config.trials < 1:
        raise ValueError("trials must be >= 1")

    lil = config.mode == "gaussian-lil"
    if lil:
        logs = np.asarray(config.log_s, dtype=float)
        if logs.size < n_max:
            raise ValueError("log_s shorter than the largest checkpoint")
        # eta_j/sqrt(s_j) is the exp kernel path on the grid log(s)/2
        stream_spec = ExpKernel(v=logs / 2.0)
        ratio_norm = np.full(n_max, np.inf)
        kvals = 2.0 * koval(log_s=logs, j=np.arange(2, n_max + 1))
        ratio_norm[1:] = np.where(kvals > 0, np.sqrt(np.maximum(kvals, 0)), np.inf)
        phi_at = np.ones(len(cps))
        constant, theorem, k_half = 1.0, "gaussian-lil", 1
    else:
        if prediction is None:
            raise ValueError("permanental mode needs a prediction")
        k_half = int(round(2 * config.alpha))
        if abs(2 * config.alpha - k_half) > 1e-12 or k_half < 1:
            raise ValueError("alpha must be a positive half-integer")
        stream_spec = config.spec
        phi_at = np.asarray(
            prediction.normalizer(np.asarray(cps, dtype=int)), dtype=float
        )
        if not np.all(np.isfinite(phi_at) & (phi_at > 0)):
            raise ValueError("normalizer must be positive at every checkpoint")
        constant, theorem = prediction.constant, prediction.theorem
    fw = None
    if not lil and config.f is not None:
        fw = _f_values(config.f, 0, n_max)
        if not fw.any():
            fw = None
    a_full = np.sqrt(fw) if fw is not None else None

    rows = 1 if lil else k_half
    raw = np.empty((config.trials, len(cps)))
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        xi = rng.standard_normal(rows)
        carry = -np.inf
        cp_pos = 0
        j0 = 0
        stream = _path_stream(stream_spec, n_max, rng, rows)
        if stream is None:
            raise TypeError(
                f"{type(stream_spec).__name__} has no streaming sampler"
            )
        for block in stream:
            m = block.shape[1]
            if lil:
                X = block[0] / ratio_norm[j0 : j0 + m]
            else:
                if a_full is not None:
                    block = block + a_full[j0 : j0 + m][None, :] * xi[:, None]
                X = (block**2).sum(axis=0) / 2.0
            acc = np.maximum(np.maximum.accumulate(X), carry)
            while cp_pos < len(cps) and cps[cp_pos] <= j0 + m:
                raw[trial, cp_pos] = acc[cps[cp_pos] - j0 - 1]
                cp_pos += 1
            carry = acc[-1]
            j0 += m
    if np.any(np.diff(raw, axis=1) < 0):
        raise IdentityError(
            "trend-direction", "running maxima must be nondecreasing in N"
        )
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


def analytic_median_band(diag, phi_at_n, alpha, trials, coverage=0.95):
    """Calibration band for the median of max_{j<=N} X[j] / phi(N).

    Surrogate model: independent Gamma(alpha, scale U[j,j]) coordinates, for
    which the per-trial CDF of the normalized running maximum is the product
    of the marginal CDFs, and the median of an odd number of trials has an
    exact Beta order-statistic law. Returns the central `coverage` interval.

    Coordinates with equal U[j,j] share a marginal CDF, so the log of the
    product is a sum over the distinct values of phi_at_n / U[j,j], each
    weighted by its count: one `gammainc` term per distinct value. Each edge
    is bracketed by doubling or halving from t = 1 within [1e-9, 1e9] and
    then solved by Brent's method (`brentq`) to a relative 4 eps.
    """
    if trials < 1 or trials % 2 != 1:
        raise ValueError("trials must be a positive odd count")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie in (0, 1)")
    diag = np.asarray(diag, dtype=float)
    if diag.size == 0:
        raise ValueError("diagonal must be nonempty")
    if not (np.isfinite(phi_at_n) and phi_at_n > 0 and np.all(diag > 0)):
        raise ValueError("need positive diagonal and normalizer")
    ratio, counts = np.unique(float(phi_at_n) / diag, return_counts=True)
    m = (trials + 1) // 2

    def excess(t, target):
        logH = counts @ np.log(gammainc(alpha, t * ratio))
        return float(betainc(m, m, np.exp(logH))) - target

    def invert(target):
        below = excess(1.0, target) < 0
        step = 2.0 if below else 0.5
        t = 1.0
        while True:
            u = t * step
            if not 1e-9 <= u <= 1e9:
                raise IdentityError("trend-band", "band bracket failed")
            if (excess(u, target) < 0) != below:
                break
            t = u
        lo, hi = min(t, u), max(t, u)
        # the default xtol is an absolute 2e-12; a negligible one leaves
        # the stop to rtol
        return brentq(excess, lo, hi, args=(target,), xtol=1e-300,
                      rtol=4 * np.finfo(float).eps)

    tail = (1.0 - coverage) / 2.0
    return invert(tail), invert(1.0 - tail)


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
        raise ValueError("epsilon must be positive")
    if callable(M):
        if limit is None or row_norm is None or col_norm is None:
            raise ValueError("callable accessors need limit, row_norm, col_norm")
        entry = M
    else:
        arr = np.asarray(M, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("M must be square")
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
            if i > len(chosen) * bound + 1e-9:
                raise IdentityError(
                    "subsequence-growth-bound",
                    f"index {i} exceeds n (||M|| + ||M^T||)/eps = "
                    f"{len(chosen) * bound!r}",
                )
            if len(chosen) == count:
                break
    for a_pos, i in enumerate(chosen):
        for j in chosen[a_pos + 1 :]:
            if entry(i, j) > epsilon or entry(j, i) > epsilon:
                raise IdentityError(
                    "subsequence-pairwise-bound",
                    f"pair ({i}, {j}) exceeds epsilon after extraction",
                )
    return SubsequenceResult(
        indices=tuple(chosen),
        partial=len(chosen) < count,
        epsilon=float(epsilon),
        norm_bound=float(bound),
    )
