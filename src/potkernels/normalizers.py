"""Growth normalizers and limsup predictions.

The central object is the capped-increment normalizer

    K_s(j) = log( sum_{i<j} min(M, log(s[i+1]/s[i])) ),

computed from log(s) so that astronomically large sequences stay in range.
`regime` classifies how K_s grows on a probe range, and `predict` maps a
kernel family plus caller-declared limit hypotheses to the normalizer
sequence and limsup constant of the matching limit theorem. Hypotheses about
asymptotics are never inferred from finitely many stored terms; the caller
must state them.
"""

from dataclasses import dataclass, field

import numpy as np

from .identities import IdentityError
from .argen import c_star, phi_recursive

GEOMETRIC_MARGIN = np.log(1.05)
RATIO_TREND_FLOOR = -0.05
CEILING_SLACK = 1e-9

F_CLASSES = ("zero", "potential-l1", "c0")


def _log_sequence(s, log_s):
    if (s is None) == (log_s is None):
        raise ValueError("pass exactly one of s and log_s")
    if log_s is not None:
        logs = np.asarray(log_s, dtype=float)
    else:
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0):
            raise ValueError("s must be positive")
        logs = np.log(s)
    if logs.ndim != 1 or logs.size < 2:
        raise ValueError("need at least two stored terms")
    if np.any(np.diff(logs) <= 0):
        raise ValueError("s must be strictly increasing")
    return logs


def koval(s=None, j=None, M=1.0, *, log_s=None):
    """K_s(j) = log(sum_{i<j} min(M, log(s[i+1]/s[i]))) for j >= 2.

    Pass either s or log_s (the latter for sequences too large to store as
    floats). j may be a scalar or an integer array; scalar in, scalar out.
    """
    if M <= 0:
        raise ValueError("cap M must be positive")
    logs = _log_sequence(s, log_s)
    jj = np.asarray(j)
    if jj.size == 0 or np.any(jj < 2):
        raise ValueError("j must be >= 2")
    if np.any(jj > logs.size):
        raise ValueError("j beyond stored sequence length")
    capped = np.cumsum(np.minimum(M, np.diff(logs)))
    out = np.log(capped[jj - 2])
    return float(out) if np.isscalar(j) else out


@dataclass(frozen=True)
class RegimeReport:
    classification: str          # log-j | log-log-s | indeterminate
    probe_range: tuple
    probes: np.ndarray
    ceiling_gap: float           # max K_s(j) - ceiling over checked probes
    min_ratio: float             # smallest log(s[i+1]/s[i]) on the range
    max_ratio: float
    ratio_trend: float           # slope of log ratio against log j
    kappa_start: float           # loglog s / log j at the range ends
    kappa_end: float


def regime(s=None, probe_range=None, *, log_s=None):
    """Classify the growth regime of K_s on a probe range of indices.

    Geometric growth (every ratio bounded away from 1 and not trending
    down) pins K_s to log j; bounded ratios with a falling
    loglog(s_j)/log(j) pin it to loglog s_j; anything else is reported
    indeterminate rather than guessed. The ceiling
    K_s(j) <= min(loglog s_j, log j) is asserted on the probes regardless.
    """
    logs = _log_sequence(s, log_s)
    n = logs.size
    if probe_range is None:
        probe_range = (max(2, n // 2), n)
    lo, hi = int(probe_range[0]), int(probe_range[1])
    if not (2 <= lo < hi <= n):
        raise ValueError("probe range must satisfy 2 <= lo < hi <= stored length")
    probes = np.unique(np.linspace(lo, hi, 64).astype(int))

    ratios = np.diff(logs)[lo - 1 : hi - 1]
    kval = koval(log_s=logs, j=probes)

    # the telescoped sum picks up -log s[0] when s starts below 1
    slack = CEILING_SLACK + max(0.0, -float(logs[0]))
    checked = logs[probes - 1] >= 1.0
    gap = -np.inf
    if checked.any():
        pj = probes[checked]
        ceiling = np.minimum(np.log(pj), np.log(logs[pj - 1]))
        gap = float((kval[checked] - ceiling).max())
        if gap > slack:
            raise IdentityError(
                "growth-normalizer-ceiling",
                f"K_s(j) exceeds min(loglog s_j, log j) by {gap:.3e}",
            )

    def kappa(j):
        if logs[j - 1] <= 1.0:
            return np.nan
        return float(np.log(logs[j - 1]) / np.log(j))

    k_lo, k_hi = kappa(lo), kappa(hi)
    # ratios above the margin but decaying on a log-log scale (such as
    # 1/log j) are heading below any margin eventually; refuse log-j there
    trend = float(
        np.polyfit(np.log(np.arange(lo, hi)), np.log(ratios), 1)[0]
    )
    if ratios.min() >= GEOMETRIC_MARGIN and trend >= RATIO_TREND_FLOOR:
        cls = "log-j"
    elif np.isfinite(k_lo) and np.isfinite(k_hi) and k_hi < k_lo - 1e-12:
        cls = "log-log-s"
    else:
        cls = "indeterminate"
    return RegimeReport(
        classification=cls,
        probe_range=(lo, hi),
        probes=probes,
        ceiling_gap=gap,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        ratio_trend=trend,
        kappa_start=k_lo,
        kappa_end=k_hi,
    )


@dataclass(frozen=True)
class Prediction:
    """Normalizer sequence and limsup constant from a matched limit theorem."""

    normalizer: callable = field(repr=False)
    normalizer_label: str
    constant: float
    theorem: str
    alpha_validity: str          # all-alpha | alpha-ge-half
    citation: str = "predicted-limsup"

    def to_json(self):
        return {
            "outcome": "prediction",
            "theorem": self.theorem,
            "normalizer": self.normalizer_label,
            "constant": self.constant,
            "alpha_validity": self.alpha_validity,
            "citation": self.citation,
        }


@dataclass(frozen=True)
class NoTheorem:
    """Explicit refusal: the declared configuration is not covered."""

    reason: str

    def to_json(self):
        return {"outcome": "no-theorem", "reason": self.reason}


def _as_index(j):
    jj = np.asarray(j)
    if np.any(jj < 1):
        raise ValueError("indices are 1-based")
    return jj


def _scalar_like(j, out):
    return float(out) if np.isscalar(j) else out


def _log_j(j):
    return _scalar_like(j, np.log(_as_index(j)))


def _growth_normalizer(logs, diag, diag_label):
    capped = np.concatenate(([np.nan], np.cumsum(np.minimum(1.0, np.diff(logs)))))

    def normalizer(j):
        jj = _as_index(j)
        if np.any(jj > logs.size):
            raise ValueError("j beyond stored sequence length")
        return _scalar_like(j, diag(jj) * np.log(capped[jj - 1]))

    return normalizer, f"{diag_label} * K_s(j)"


def _tagged(normalizer, label, constant, tag, validity="all-alpha"):
    return Prediction(
        normalizer=normalizer,
        normalizer_label=label,
        constant=float(constant),
        theorem=tag,
        alpha_validity=validity,
    )


def _predict_min_like(logs, diag, diag_label, family, f_class, growth):
    if f_class not in ("zero", "potential-l1"):
        return NoTheorem(
            f"{family} kernels need f = 0 or f built from a summable density"
        )
    if growth is None:
        normalizer, label = _growth_normalizer(logs, diag, diag_label)
        return _tagged(normalizer, label, 1.0, f"{family}-growth")
    if growth == "geometric":
        def normalizer(j):
            jj = _as_index(j)
            return _scalar_like(j, diag(jj) * np.log(jj))
        return _tagged(normalizer, f"{diag_label} * log(j)", 1.0, f"{family}-geometric")
    if growth == "bounded-ratio":
        def normalizer(j):
            jj = _as_index(j)
            if np.any(jj > logs.size):
                raise ValueError("j beyond stored sequence length")
            return _scalar_like(j, diag(jj) * np.log(logs[jj - 1]))
        return _tagged(
            normalizer, f"{diag_label} * loglog(s[j])", 1.0, f"{family}-bounded-ratio"
        )
    raise ValueError("growth must be None, 'geometric', or 'bounded-ratio'")


def _predict_ar1(spec, f_class, alpha, x_limit=None, reg_var_index=None,
                 rate_limit=None, rate_index=None):
    stated = [h for h in (x_limit, reg_var_index, rate_limit, rate_index) if h is not None]
    if len(stated) == 0:
        return NoTheorem(
            "declare a limit hypothesis for x: x_limit, reg_var_index, "
            "rate_limit, or rate_index"
        )
    if len(stated) > 1:
        raise ValueError("declare exactly one limit hypothesis for x")

    x = spec.x
    n_max = x.size
    diag = spec.diagonal(n_max + 1)
    logt = np.concatenate(([0.0], np.cumsum(np.log(x))))

    def u_diag(jj):
        if np.any(jj > n_max + 1):
            raise ValueError("j beyond stored sequence length")
        return diag[jj - 1]

    if x_limit is not None:
        if not 0 < x_limit <= 1:
            raise ValueError("x_limit must lie in (0, 1]")
        if x_limit == 1:
            if f_class not in ("zero", "potential-l1"):
                return NoTheorem(
                    "the critical chain needs f = 0 or f built from a "
                    "summable density"
                )

            def normalizer(j):
                jj = _as_index(j)
                d = u_diag(jj)
                log_s = np.log(d) - 2 * logt[np.minimum(jj, n_max + 1) - 1]
                return _scalar_like(j, d * np.log(log_s))

            return _tagged(
                normalizer, "U[j,j] * loglog(s[j])", 1.0, "ar1-critical"
            )
        if f_class not in ("zero", "c0"):
            return NoTheorem("the subcritical chain needs f = 0 or f vanishing at infinity")
        return _tagged(
            _log_j, "log(j)", 1.0 / (1.0 - x_limit**2), "ar1-subcritical"
        )

    if f_class not in ("zero", "potential-l1"):
        return NoTheorem("this hypothesis needs f = 0 or f built from a summable density")

    if reg_var_index is not None:
        beta = float(reg_var_index)
        if not 0 < beta < 1:
            raise ValueError("reg_var_index must lie in (0, 1)")

        def normalizer(j):
            jj = _as_index(j)
            return _scalar_like(j, u_diag(jj) * np.log(jj))

        return _tagged(
            normalizer, "U[j,j] * log(j)", 1.0 - beta, "ar1-regular-variation"
        )

    if rate_limit is not None:
        c = float(rate_limit)
        if c < 0:
            raise ValueError("rate_limit must be >= 0")

        def normalizer(j):
            jj = _as_index(j)
            return _scalar_like(j, jj * np.log(np.log(jj)))

        return _tagged(
            normalizer, "j * loglog(j)", 1.0 / (1.0 + c), "ar1-critical-rate"
        )

    beta = float(rate_index)
    if not 0 < beta < 1:
        raise ValueError("rate_index must lie in (0, 1)")

    def normalizer(j):
        jj = _as_index(j)
        return _scalar_like(j, jj**beta * np.log(jj))

    return _tagged(
        normalizer, "j^beta * log(j)", 1.0 - beta, "ar1-critical-index"
    )


def _predict_ark(p, f_class, alpha, f_sqrt_small):
    if abs(p.sum() - 1.0) > 1e-12:
        if f_class not in ("zero", "c0", "potential-l1"):
            raise ValueError(f"unknown f_class {f_class!r}")
        return _tagged(_log_j, "log(j)", c_star(p).value, "ark-transient")

    if f_class not in ("zero", "potential-l1"):
        return NoTheorem(
            "the unit-drift chain needs f = 0 or f built from a summable density"
        )
    c1 = phi_recursive(p, 1).c1

    def normalizer(j):
        jj = _as_index(j)
        return _scalar_like(j, jj * np.log(np.log(jj)))

    upgraded = f_sqrt_small or f_class == "zero"
    validity = "all-alpha" if upgraded else "alpha-ge-half"
    if not upgraded and alpha < 0.5:
        return NoTheorem(
            "the unit-drift theorem is proven for alpha >= 1/2; assert "
            "f_sqrt_small (f[j] = o(sqrt(j))) to extend it"
        )
    return _tagged(normalizer, "j * loglog(j)", c1**2, "ark-unit-drift", validity)


def _predict_exp(v, f_class, growth, gaps):
    if gaps is None:
        return _predict_min_like(
            2.0 * v, lambda jj: np.ones(np.shape(jj)), "1", "exp", f_class, growth
        )
    if growth is not None:
        raise ValueError("exp kernels read growth only when no gaps are declared")
    if gaps == "bounded":
        if f_class not in ("zero", "potential-l1"):
            return NoTheorem(
                "bounded gaps need f = 0 or f built from a summable density"
            )

        def normalizer(j):
            jj = _as_index(j)
            if np.any(jj > v.size):
                raise ValueError("j beyond stored sequence length")
            return _scalar_like(j, np.log(v[jj - 1]))

        return _tagged(normalizer, "log(v[j])", 1.0, "exp-bounded-gaps")
    if gaps == "separated":
        if f_class not in ("zero", "c0"):
            return NoTheorem(
                "separated gaps need f = 0 or f vanishing at infinity"
            )
        return _tagged(_log_j, "log(j)", 1.0, "exp-separated-gaps")
    raise ValueError("gaps must be None, 'bounded', or 'separated'")


def _predict_killed_walk(u00):
    return _tagged(_log_j, "log(n)", u00, "killed-walk")


def predict(
    spec,
    f_class,
    alpha,
    *,
    growth=None,
    gaps=None,
    x_limit=None,
    reg_var_index=None,
    rate_limit=None,
    rate_index=None,
    f_sqrt_small=False,
):
    """Match the declared configuration to a limit theorem.

    Returns a Prediction, or a NoTheorem outcome when nothing covers the
    configuration. Limit hypotheses (growth / gaps / x_limit / reg_var_index
    / rate_limit / rate_index / f_sqrt_small) are taken as stated, never
    checked against the stored finite prefix. A hypothesis that the family
    does not read (`spec.hypotheses`) is refused with ValueError, as is an
    inadmissible spec with its IdentityError.
    """
    if f_class not in F_CLASSES:
        raise ValueError(f"f_class must be one of {F_CLASSES}")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    stated = dict(
        growth=growth, gaps=gaps, x_limit=x_limit, reg_var_index=reg_var_index,
        rate_limit=rate_limit, rate_index=rate_index,
        f_sqrt_small=f_sqrt_small or None,    # False is not a declaration
    )
    declared = {name: value for name, value in stated.items() if value is not None}
    spec.admissibility().require()
    unread = [name for name in declared if name not in spec.hypotheses]
    if unread:
        raise ValueError(
            f"{spec.family} kernels do not read the hypotheses {unread}"
        )
    return spec.prediction(f_class, alpha, **declared)
