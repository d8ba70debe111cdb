"""Excessive functions and potentials for the birth-death kernel family.

The classification works through the difference ratios
(f[n] - f[n-1])/(s[n] - s[n-1]) with f[0] = s[0] = 0: f is excessive exactly
when the ratios are non-increasing, and a potential when they also fall
to zero.
"""

from dataclasses import dataclass

import numpy as np

from .identities import IdentityError, InputError
from .kernels import MinKernel, Window, build_kernel

RATIO_SLACK = 1e-10        # relative slack before a ratio increase counts
DELTA_FLAT_TOL = 1e-6      # terminal-segment spread for a reliable slope
POTENTIAL_DELTA_TOL = 1e-8


@dataclass(frozen=True)
class DensitySequence:
    """Nonnegative density h over labels start ... start+len-1.

    ``tail`` is mass beyond the stored range: 0 for finite support, a
    positive cap for truncations, inf for a declared non-summable tail.
    """

    values: np.ndarray
    start: int = 1
    tail: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise InputError("h must be 1-d")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise InputError("h must be finite and nonnegative")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "tail", float(self.tail))
        if self.start < 1 or self.tail < 0:
            raise InputError("start must be >= 1 and tail >= 0")

    @property
    def l1(self):
        return float(self.values.sum() + self.tail)

    @property
    def summable(self):
        return np.isfinite(self.tail)


@dataclass(frozen=True)
class PotentialFunction:
    """Finite nonnegative f over labels start ... start+len-1."""

    values: np.ndarray
    start: int = 1

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("f must be a nonempty 1-d sequence")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise InputError("f must be finite and nonnegative")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "start", int(self.start))

    def on_window(self, window):
        """Values at labels l+1 ... l+n."""
        lo = window.l + 1 - self.start
        hi = lo + window.n
        if lo < 0 or hi > self.values.size:
            raise InputError("window extends past stored f")
        return self.values[lo:hi]


@dataclass(frozen=True)
class ExcessiveClassification:
    is_excessive: bool
    delta: float
    is_potential: bool
    delta_reliable: bool
    ratios: np.ndarray


def apply_potential(spec, h, window):
    """f = U h on the window; exact two-sum form for min kernels.

    For the min kernel, f[n] = sum_{k<=n} s[k] h[k] + s[n] sum_{k>n} h[k],
    which handles any finite support exactly without a dense matrix.
    """
    if not h.summable:
        raise InputError("h declared non-summable; supply a finite tail")
    if h.tail > 0:
        raise InputError("h has declared mass beyond the stored range; "
                         "apply_potential needs finite support")
    if isinstance(spec, MinKernel):
        s = spec.s
        hi_support = h.start + h.values.size - 1
        hi = max(window.l + window.n, hi_support)
        if hi > s.size:
            raise InputError("s too short for the union of window and support")
        dense_h = np.zeros(hi)
        dense_h[h.start - 1 : hi_support] = h.values
        weighted = np.cumsum(s[:hi] * dense_h)          # sum_{k<=n} s[k] h[k]
        tail = h.l1 - np.cumsum(dense_h)                # sum_{k>n} h[k]
        f_all = weighted + s[:hi] * tail
        vals = f_all[window.l : window.l + window.n]
    else:
        lo = min(window.l + 1, h.start)
        hi = max(window.l + window.n, h.start + h.values.size - 1)
        big = Window(lo - 1, hi - lo + 1)
        U = build_kernel(spec, big).entries
        dense_h = np.zeros(hi - lo + 1)
        dense_h[h.start - lo : h.start - lo + h.values.size] = h.values
        f_all = U @ dense_h
        off = window.l + 1 - lo
        vals = f_all[off : off + window.n]
    return PotentialFunction(values=np.maximum(vals, 0.0), start=window.l + 1)


def _difference_ratios(s, f):
    s = np.asarray(s, dtype=float)
    f = np.asarray(f, dtype=float)
    if s.shape != f.shape:
        raise InputError("s and f must have equal length")
    gaps = np.empty_like(s)
    gaps[0] = s[0]
    gaps[1:] = np.diff(s)
    if np.any(gaps <= 0):
        raise InputError("s must be strictly increasing and positive")
    incs = np.empty_like(f)
    incs[0] = f[0]
    incs[1:] = np.diff(f)
    return incs / gaps


def classify_excessive(s, f):
    """Classify f against the increasing sequence s (both from label 1)."""
    if isinstance(f, PotentialFunction):
        if f.start != 1:
            raise InputError("classification needs f from label 1")
        f = f.values
    ratios = _difference_ratios(s, f)
    scale = max(1.0, float(np.abs(ratios).max()))
    increases = np.diff(ratios)
    is_excessive = bool(np.all(increases <= RATIO_SLACK * scale))
    m = max(1, ratios.size // 10)
    terminal = ratios[-m:]
    delta = float(terminal.mean())
    reliable = bool(terminal.max() - terminal.min() <= DELTA_FLAT_TOL * scale)
    is_potential = is_excessive and abs(delta) <= POTENTIAL_DELTA_TOL * scale
    return ExcessiveClassification(
        is_excessive=is_excessive,
        delta=max(delta, 0.0) if is_excessive else delta,
        is_potential=is_potential,
        delta_reliable=reliable,
        ratios=ratios,
    )


def riesz_decompose(s, f):
    """Split excessive f as f_tilde + delta * s with f_tilde a potential."""
    if isinstance(f, PotentialFunction):
        f = f.values
    cls = classify_excessive(s, f)
    if not cls.is_excessive:
        raise IdentityError("riesz-decomposition", "f is not excessive for s")
    s = np.asarray(s, dtype=float)
    f_tilde = np.asarray(f, dtype=float) - cls.delta * s
    f_tilde = np.where(np.abs(f_tilde) < 1e-12 * max(1.0, cls.delta), 0.0, f_tilde)
    if np.any(f_tilde < 0):
        raise IdentityError(
            "riesz-decomposition",
            "potential part went negative; slope estimate unreliable",
        )
    return PotentialFunction(values=f_tilde, start=1), cls.delta


def recover_density(s, f):
    """Recover h with f = V h from second differences of the ratios.

    The terminal ratio is mass at or beyond the last stored label and is
    returned as the ``tail``; the telescoping identity sum(h) + tail =
    f[1]/s[1] is asserted.
    """
    if isinstance(f, PotentialFunction):
        if f.start != 1:
            raise InputError("density recovery needs f from label 1")
        f = f.values
    cls = classify_excessive(s, f)
    if not cls.is_potential:
        raise IdentityError(
            "density-recovery",
            f"f is not a potential (delta = {cls.delta:.3e})",
        )
    ratios = cls.ratios
    h = -np.diff(ratios)
    scale = max(1.0, float(np.abs(ratios).max()))
    if np.any(h < -RATIO_SLACK * scale):
        raise IdentityError("density-recovery", "negative density recovered")
    h = np.maximum(h, 0.0)
    tail = max(float(ratios[-1]), 0.0)
    dens = DensitySequence(values=h, start=1, tail=tail)
    s1 = float(np.asarray(s, dtype=float)[0])
    target = float(np.asarray(f, dtype=float)[0]) / s1
    if abs(dens.l1 - target) > 1e-10 * max(1.0, abs(target)):
        raise IdentityError(
            "density-l1-identity",
            f"||h||_1 = {dens.l1} but f[1]/s[1] = {target}",
        )
    return dens


def rho(spec, f, window):
    """rho[l,n]: total mass of the window inverse applied to f.

    For min kernels the column sums of the window inverse collapse the
    double sum to f[l+1]/s[l+1]; this closed form is asserted against the
    computed value.
    """
    fw = f.on_window(window) if isinstance(f, PotentialFunction) else np.asarray(f, float)
    if fw.size != window.n:
        raise InputError("f must cover the window")
    return _window_rho(build_kernel(spec, window), fw)


def _window_rho(kernel, fw):
    """rho of the values fw on a DenseKernelWindow, from its checked inverse."""
    value = float(kernel.inverse[0].sum(axis=0) @ fw)
    scale = max(1.0, float(np.abs(fw).max()))
    if value < -1e-10 * scale:
        raise IdentityError("rho-nonnegative", f"rho = {value:.3e} < 0")
    if isinstance(kernel.spec, MinKernel):
        closed = fw[0] / kernel.spec.s[kernel.window.l]
        if abs(value - closed) > 1e-10 * scale:
            raise IdentityError(
                "rho-min-closed-form",
                f"rho = {value!r} but f[l+1]/s[l+1] = {closed!r}",
            )
    return max(value, 0.0)
