"""Growth normalizers and limsup predictions.

The central object is the capped-increment normalizer

    K_s(j) = log( sum_{i<j} min(M, log(s[i+1]/s[i])) ),

computed from log(s) so that astronomically large sequences stay in range.
`regime` classifies how K_s grows on a probe range, and `predict` maps a
kernel family plus caller-declared limit hypotheses to the normalizer
sequence and limsup constant of the matching limit theorem. Hypotheses about
asymptotics are never inferred from finitely many stored terms; the caller
must state them. Their names and JSON kinds are written once, in
`HYPOTHESES`, which the CLI's config check reads. Each theorem gives only its
normalizer's formula, label and stored length to one constructor, `_tagged`,
which checks the indices; the default growth route reads K_s from `koval`.
"""

from dataclasses import dataclass, field

import numpy as np

from .identities import IdentityError, InputError
from .argen import c_star, phi_recursive

GEOMETRIC_MARGIN = np.log(1.05)
RATIO_TREND_FLOOR = -0.05
CEILING_SLACK = 1e-9

F_CLASSES = ("zero", "potential-l1", "c0")

# the limit hypotheses that `predict` takes, with the JSON kind of each
# (`kernels._KINDS`); a family reads those in its `hypotheses`
HYPOTHESES = {
    "growth": "string",
    "gaps": "string",
    "x_limit": "number",
    "reg_var_index": "number",
    "rate_limit": "number",
    "rate_index": "number",
    "f_sqrt_small": "bool",
}


def _log_sequence(s, log_s):
    # strictness is checked on what is given: the logs of a strictly
    # increasing s may tie where s steps by less than an ulp of its log
    if (s is None) == (log_s is None):
        raise InputError("pass exactly one of s and log_s")
    given = np.asarray(s if log_s is None else log_s, dtype=float)
    if log_s is None and np.any(given <= 0):
        raise InputError("s must be positive")
    if given.ndim != 1 or given.size < 2:
        raise InputError("need at least two stored terms")
    if np.any(np.diff(given) <= 0):
        raise InputError("s must be strictly increasing")
    return given if log_s is not None else np.log(given)


def koval(s=None, j=None, M=1.0, *, log_s=None):
    """K_s(j) = log(sum_{i<j} min(M, log(s[i+1]/s[i]))) for j >= 2.

    Pass either s or log_s (the latter for sequences too large to store as
    floats). j may be a scalar or an integer array; scalar in, scalar out.
    """
    if M <= 0:
        raise InputError("cap M must be positive")
    return _koval(_log_sequence(s, log_s), j, M)


def _koval(logs, j, M=1.0):      # K_s(j) on checked logs, which may tie
    jj = np.asarray(j)
    if jj.size == 0 or np.any(jj < 2):
        raise InputError("j must be >= 2")
    if np.any(jj > logs.size):
        raise InputError("j beyond stored sequence length")
    capped = np.cumsum(np.minimum(M, np.diff(logs)))[jj - 2]
    if np.any(capped == 0):
        raise InputError(f"K_s(j) = log 0: the logs of s tie up to j = {jj[capped == 0].tolist()}")
    out = np.log(capped)
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
        raise InputError("probe range must satisfy 2 <= lo < hi <= stored length")
    probes = np.unique(np.linspace(lo, hi, 64).astype(int))

    ratios = np.diff(logs)[lo - 1 : hi - 1]
    kval = _koval(logs, probes)

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
    # 1/log j) are heading below any margin eventually; refuse log-j there.
    # A tied pair of logs has ratio 0, no log and no trend (NaN), and no log-j
    logj = np.log(np.arange(lo, hi))
    trend = float(np.polyfit(logj, np.log(ratios), 1)[0]) if ratios.min() > 0 else np.nan
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


def _tagged(expr, label, constant, tag, validity="all-alpha", stored=None):
    """A Prediction whose normalizer is expr on 1-based indices.

    This is the one normalizer constructor. The normalizer refuses j < 1,
    and j past the `stored` terms that expr reads, before expr runs; scalar
    in, scalar out.
    """
    def normalizer(j):
        jj = np.asarray(j)
        if np.any(jj < 1):
            raise InputError("indices are 1-based")
        if stored is not None and np.any(jj > stored):
            raise InputError("j beyond stored sequence length")
        out = expr(jj)
        return float(out) if np.isscalar(j) else out

    return Prediction(
        normalizer=normalizer,
        normalizer_label=label,
        constant=float(constant),
        theorem=tag,
        alpha_validity=validity,
    )


def _j_loglog_j(jj):
    return jj * np.log(np.log(jj))


def _predict_min_like(logs, diag, diag_label, family, f_class, growth):
    if f_class not in ("zero", "potential-l1"):
        return NoTheorem(
            f"{family} kernels need f = 0 or f built from a summable density"
        )
    if growth is None:
        expr, label, tag = lambda jj: _koval(logs, jj), "K_s(j)", "growth"
    elif growth == "geometric":
        expr, label, tag = np.log, "log(j)", "geometric"
    elif growth == "bounded-ratio":
        expr, label, tag = lambda jj: np.log(logs[jj - 1]), "loglog(s[j])", "bounded-ratio"
    else:
        raise InputError("growth must be None, 'geometric', or 'bounded-ratio'")
    return _tagged(
        lambda jj: diag(jj) * expr(jj), f"{diag_label} * {label}", 1.0,
        f"{family}-{tag}", stored=logs.size,
    )


def _predict_ar1(spec, f_class, alpha, x_limit=None, reg_var_index=None,
                 rate_limit=None, rate_index=None):
    stated = [h for h in (x_limit, reg_var_index, rate_limit, rate_index) if h is not None]
    if len(stated) == 0:
        return NoTheorem(
            "declare a limit hypothesis for x: x_limit, reg_var_index, "
            "rate_limit, or rate_index"
        )
    if len(stated) > 1:
        raise InputError("declare exactly one limit hypothesis for x")

    stored = spec.x.size + 1
    diag = spec.diagonal(stored)
    logt = np.concatenate(([0.0], np.cumsum(np.log(spec.x))))

    if x_limit is not None:
        if not 0 < x_limit <= 1:
            raise InputError("x_limit must lie in (0, 1]")
        if x_limit == 1:
            if f_class not in ("zero", "potential-l1"):
                return NoTheorem(
                    "the critical chain needs f = 0 or f built from a "
                    "summable density"
                )

            def critical(jj):
                d = diag[jj - 1]
                return d * np.log(np.log(d) - 2 * logt[jj - 1])

            return _tagged(
                critical, "U[j,j] * loglog(s[j])", 1.0, "ar1-critical", stored=stored
            )
        if f_class not in ("zero", "c0"):
            return NoTheorem("the subcritical chain needs f = 0 or f vanishing at infinity")
        return _tagged(
            np.log, "log(j)", 1.0 / (1.0 - x_limit**2), "ar1-subcritical"
        )

    if f_class not in ("zero", "potential-l1"):
        return NoTheorem("this hypothesis needs f = 0 or f built from a summable density")

    if reg_var_index is not None:
        beta = float(reg_var_index)
        if not 0 < beta < 1:
            raise InputError("reg_var_index must lie in (0, 1)")
        return _tagged(
            lambda jj: diag[jj - 1] * np.log(jj), "U[j,j] * log(j)", 1.0 - beta,
            "ar1-regular-variation", stored=stored,
        )

    if rate_limit is not None:
        c = float(rate_limit)
        if c < 0:
            raise InputError("rate_limit must be >= 0")
        return _tagged(
            _j_loglog_j, "j * loglog(j)", 1.0 / (1.0 + c), "ar1-critical-rate"
        )

    beta = float(rate_index)
    if not 0 < beta < 1:
        raise InputError("rate_index must lie in (0, 1)")
    return _tagged(
        lambda jj: jj**beta * np.log(jj), "j^beta * log(j)", 1.0 - beta,
        "ar1-critical-index",
    )


def _predict_ark(p, f_class, alpha, f_sqrt_small):
    if abs(p.sum() - 1.0) > 1e-12:
        return _tagged(np.log, "log(j)", c_star(p).value, "ark-transient")

    if f_class not in ("zero", "potential-l1"):
        return NoTheorem(
            "the unit-drift chain needs f = 0 or f built from a summable density"
        )
    c1 = phi_recursive(p, 1).c1
    upgraded = f_sqrt_small or f_class == "zero"
    validity = "all-alpha" if upgraded else "alpha-ge-half"
    if not upgraded and alpha < 0.5:
        return NoTheorem(
            "the unit-drift theorem is proven for alpha >= 1/2; assert "
            "f_sqrt_small (f[j] = o(sqrt(j))) to extend it"
        )
    return _tagged(_j_loglog_j, "j * loglog(j)", c1**2, "ark-unit-drift", validity)


def _predict_exp(v, f_class, growth, gaps):
    if gaps is None:
        return _predict_min_like(
            2.0 * v, lambda jj: np.ones(np.shape(jj)), "1", "exp", f_class, growth
        )
    if growth is not None:
        raise InputError("exp kernels read growth only when no gaps are declared")
    if gaps == "bounded":
        if f_class not in ("zero", "potential-l1"):
            return NoTheorem(
                "bounded gaps need f = 0 or f built from a summable density"
            )
        return _tagged(
            lambda jj: np.log(v[jj - 1]), "log(v[j])", 1.0, "exp-bounded-gaps",
            stored=v.size,
        )
    if gaps == "separated":
        if f_class not in ("zero", "c0"):
            return NoTheorem(
                "separated gaps need f = 0 or f vanishing at infinity"
            )
        return _tagged(np.log, "log(j)", 1.0, "exp-separated-gaps")
    raise InputError("gaps must be None, 'bounded', or 'separated'")


def _predict_killed_walk(u00):
    return _tagged(np.log, "log(n)", u00, "killed-walk")


def predict(spec, f_class, alpha, **declared):
    """Match the declared configuration to a limit theorem.

    Returns a Prediction, or a NoTheorem outcome when nothing covers the
    configuration. The limit hypotheses are the names in `HYPOTHESES`,
    taken as stated, never checked against the stored finite prefix; None,
    and False for a flag, is no declaration. A declared hypothesis that the
    family does not read (`spec.hypotheses`) is refused with InputError, as
    is an inadmissible spec with its IdentityError. Every normalizer comes
    from the one constructor `_tagged`, which refuses indices below 1 and
    past the stored terms that its formula reads.
    """
    if f_class not in F_CLASSES:
        raise InputError(f"f_class must be one of {F_CLASSES}")
    if not alpha > 0:
        raise InputError("alpha must be positive")
    declared = {    # None, and a false flag, is no declaration
        name: value for name, value in declared.items()
        if value is not None and (value or HYPOTHESES.get(name) != "bool")
    }
    spec.admissibility().require()
    unread = [name for name in declared if name not in spec.hypotheses]
    if unread:
        raise InputError(
            f"{spec.family} kernels do not read the hypotheses {unread}"
        )
    return spec.prediction(f_class, alpha, **declared)
