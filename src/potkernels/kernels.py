"""Kernel families, their generators, and the structural identity checks.

Sequences are stored 0-based; a Window(l, n) covers positions l+1 ... l+n in
the 1-based labelling used throughout the docstrings, so entry (j, k) of a
window sits at [j-l-1, k-l-1] of the dense array.

Each family spec says what it is through one method set, which the module
functions call after checking `admissibility()`:

- `window_entries(window)`: dense kernel values (`build_kernel`);
- `generator(size)`: truncated generator and its band (`build_generator`);
- `diagonal(n)`: U[j,j] for j = 1..n (`mcsim.kernel_diagonal`);
- `path_stream(n_max, rng, rows, chunk)`: chunked Gaussian paths with the
  kernel as covariance, or None where only the dense route of
  `path_covariance(n)` exists (rank-one updates, the killed walk);
- `admissibility()`: the family's `AdmissibilityDecision`;
- `hypotheses` and `prediction(f_class, alpha, **declared)`: the limit
  hypotheses that `normalizers.predict` reads, and the theorem they select.

The shifted families delegate to the family they are built from, `base`:
`ShiftedScaled` is `ScaledMinKernel(s + Delta, b)`, and `AR1Shifted` and
`ARkGen` are AR1 and ARk with the first innovation scaled.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np
from scipy.signal import lfilter

from .argen import phi_recursive
from .identities import IdentityError
from .normalizers import (
    NoTheorem,
    _predict_ar1,
    _predict_ark,
    _predict_exp,
    _predict_killed_walk,
    _predict_min_like,
)

# s values beyond this would silently lose the increments that the closed
# inverses divide by, so builders refuse rather than degrade.
OVERFLOW_LIMIT = 1e300

CLOSED_FORM_TOL = 1e-12
DENSE_CHECK_TOL = 1e-10
CONDITION_LIMIT = 1e12

# a spread of at most this many ulp of the magnitude of a stored sequence is
# rounding, so such a sequence of coefficients or gaps counts as constant
CONSTANT_ULPS = 4

# block length of the varying-coefficient scan in `_one_pole`
SCAN_BLOCK = 512

# rows of innovations drawn at a time by a path stream wider than this
ROW_TILE = 4096


def _as_float_array(values, name):
    try:
        arr = np.asarray(values, dtype=float)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of numbers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _steady(a, scale=None):
    """`a` as one float when its spread is rounding at `scale`, else as is.

    The default scale is the largest magnitude in `a`; an empty sequence
    reduces to 0.0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim and a.size:
        scale = np.abs(a).max() if scale is None else scale
        if np.ptp(a) > CONSTANT_ULPS * np.spacing(scale):
            return a
    return float(a.flat[0]) if a.size else 0.0


def _by_position(x, b, k):
    """x[..., m*b + i] at [i, ..., m] for k blocks of b; zero past the end."""
    n, lead = x.shape[-1], x.shape[:-1]
    whole = n - n % b
    out = np.zeros((b,) + lead + (k,))
    blocks = np.moveaxis(out, 0, -1)
    blocks[..., : whole // b, :] = x[..., :whole].reshape(lead + (whole // b, b))
    blocks[..., -1, : n - whole] = x[..., whole:]
    return out


def _one_pole(a, u, y0):
    """y[..., j] = a[j] y[..., j-1] + u[..., j] along the last axis from y0.

    y0 stands at j = -1 and carries the state from the previous chunk; it
    is one number or one per row of u.
    Constant coefficients (a scalar, or a sequence that `_steady` reduces
    to one) run through lfilter. Varying ones run a blocked scan
    (Blelloch, CMU-CS-90-190, 1990) over blocks of SCAN_BLOCK steps:
    one pass over the positions advances every block at once, block 0
    from y0 and the others from 0. The carries into the blocks solve the
    same recurrence, with the products of `a` over each block as
    coefficients and the block ends as inputs, and come back into each
    block times the running product of `a`. Only products of the
    coefficients are formed and nothing is divided, so a in [0, 1] cannot
    overflow. A sequence of at most one block runs the plain recurrence.
    Rows never mix, so the path streams filter a wide chunk in row tiles
    of ROW_TILE rows, one call per tile on one helper thread
    (`_filtered_chunks`), with the values of one call on the whole chunk.
    """
    a = _steady(a)
    if np.ndim(a) == 0:
        y0 = np.broadcast_to(np.asarray(y0, dtype=float), u.shape[:-1])
        zi = np.expand_dims(a * y0, -1)
        return lfilter([1.0], [1.0, -a], u, axis=-1, zi=zi)[0]
    n, lead = u.shape[-1], u.shape[:-1]
    b = min(SCAN_BLOCK, n)
    k = -(-n // b)
    v = _by_position(u, b, k)      # each step is one row per block
    c = _by_position(a, b, k)
    prev = np.zeros(lead + (k,))
    prev[..., 0] = y0
    for i in range(b):
        prev = v[i] = c[i] * prev + v[i]
    if k > 1:
        p = np.cumprod(c, axis=0)
        carry = _one_pole(p[-1, :-1], v[-1][..., :-1], 0.0)
        for i in range(b):
            v[i][..., 1:] += p[i, 1:] * carry
    return np.moveaxis(v, 0, -1).reshape(lead + (k * b,))[..., :n]


def _chunks(n_max, chunk):
    j = 0
    while j < n_max:
        m = min(chunk, n_max - j)
        yield j, m
        j += m


def _part(c, j0, m):
    return c if np.ndim(c) == 0 else c[j0 : j0 + m]


_helper = None
_helper_lock = threading.Lock()


def _forget_helper():
    # a forked child inherits the executor but not its thread
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _filter_thread():
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(1, thread_name_prefix="potkernels-filter")
        return _helper


def _fill(out, rows, filt, g, j0):
    out[rows] = filt(g, j0, rows)


def _filtered_chunks(rng, rows, n_max, chunk, filt):
    """Chunks of filtered Gaussian innovations, drawn in row tiles.

    filt(g, j0, rows) filters the innovations g of the paths `rows` for
    the chunk starting at column j0, and carries their state into the next
    chunk. A chunk of at most ROW_TILE rows is one draw and one call. A
    wider chunk is drawn in tiles of ROW_TILE rows, each a block of
    consecutive rows, so the draws are the values of one (rows, m) draw.
    While this thread draws tile k + 1, one helper thread filters tile k
    into the chunk; at most one tile is in flight, every tile is done
    before the chunk is yielded, and only this thread touches rng.
    """
    for j0, m in _chunks(n_max, chunk):
        if rows <= ROW_TILE:
            yield filt(rng.standard_normal((rows, m)), j0, slice(None))
            continue
        out = np.empty((rows, m))
        pending = None
        try:
            for lo in range(0, rows, ROW_TILE):
                tile = slice(lo, min(lo + ROW_TILE, rows))
                g = rng.standard_normal((tile.stop - lo, m))
                if pending is not None:
                    pending.result()
                pending = _filter_thread().submit(_fill, out, tile, filt, g, j0)
            pending.result()
        finally:
            # a draw that raises must not leave a tile writing into `out`
            if pending is not None:
                wait((pending,))
        yield out


def _stream_one_pole(a, scale, y0, rng, rows, n_max, chunk, first_scale=1.0):
    # y[j] = a[j] y[j-1] + scale[j] g[j] from y[-1] = y0, with a and scale
    # scalars or per-index arrays; the first innovation is scaled
    y0 = np.array(y0, dtype=float)

    def filt(g, j0, r):
        m = g.shape[1]
        if j0 == 0:
            g[:, 0] *= first_scale
        g *= _part(scale, j0, m)           # in place: rows x m can be large
        block = _one_pole(_part(a, j0, m), g, y0[r])
        y0[r] = block[:, -1]
        return block

    return _filtered_chunks(rng, rows, n_max, chunk, filt)


@dataclass(frozen=True)
class Window:
    """Index window covering positions l+1 ... l+n."""

    l: int
    n: int

    def __post_init__(self):
        if self.l < 0 or self.n < 1:
            raise ValueError("window requires l >= 0 and n >= 1")

    @property
    def labels(self):
        return np.arange(self.l + 1, self.l + self.n + 1)


@dataclass(frozen=True)
class DenseKernelWindow:
    """Dense kernel values on a window, tagged with their source spec."""

    window: Window
    entries: np.ndarray
    spec: "KernelSpec"
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", self.window.labels)

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class GeneratorMatrix:
    """Truncation of a banded generator Q with row diagnostics.

    ``entries`` holds the infinite matrix restricted to the leading block, so
    every stored entry is exact; rows whose band sticks out of the truncation
    are boundary rows and excluded from ``interior_rows``.
    """

    entries: np.ndarray
    band: int
    spec: "KernelSpec"

    @property
    def size(self):
        return self.entries.shape[0]

    @property
    def interior_rows(self):
        # row j (0-based) is complete iff j + band < size
        return np.arange(0, max(0, self.size - self.band))

    @property
    def row_sums(self):
        return self.entries.sum(axis=1)

    def offdiag_sign_summary(self):
        off = self.entries.copy()
        np.fill_diagonal(off, 0.0)
        return {
            "negative": int((off < 0).sum()),
            "zero": int((off == 0).sum()),
            "positive": int((off > 0).sum()),
        }


# ---------------------------------------------------------------------------
# kernel family specs
# ---------------------------------------------------------------------------

_FAMILIES = {}


def _register(cls):
    _FAMILIES[cls.family] = cls
    return cls


def _field_equal(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def _field_key(value):
    if isinstance(value, np.ndarray):
        return (value + 0.0).tobytes()      # + 0.0 turns -0.0 into 0.0
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


@dataclass(frozen=True)
class KernelSpec:
    """Base for the tagged kernel families (protocol: module docstring)."""

    family = None
    hypotheses = ()

    def __eq__(self, other):
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return type(self) is type(other) and all(
            map(_field_equal, self._values(), other._values())
        )

    def __hash__(self):
        return hash((self.family, *map(_field_key, self._values())))

    def _values(self):
        return [getattr(self, f.name) for f in fields(self)]

    def to_config(self):
        raise NotImplementedError

    def path_stream(self, n_max, rng, rows, chunk):
        return None

    def path_covariance(self, n):
        return self.window_entries(Window(0, n))

    def admissibility(self):
        return _NO_CONSTRAINT

    @staticmethod
    def from_config(doc):
        """Spec from a config object; a malformed one raises ValueError.

        The fields are exactly the family's dataclass fields, all required.
        Scalar fields must hold numbers of their annotated type, and `dict`
        fields objects of numbers; arrays are checked where they are
        converted.
        """
        fam = doc.get("family") if isinstance(doc, dict) else None
        if not isinstance(fam, str):
            raise ValueError("kernel config requires a 'family' tag")
        try:
            cls = _FAMILIES[fam]
        except KeyError:
            raise ValueError(f"unknown kernel family: {fam!r}") from None
        unknown = sorted(set(doc) - {"family"} - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown fields in {fam} kernel config: {unknown}")
        for f in fields(cls):
            if f.name not in doc:
                raise ValueError(f"{fam} kernel config needs {f.name!r}")
            if not _config_value_ok(doc[f.name], f.type):
                raise ValueError(
                    f"{fam} kernel field {f.name!r} must be of type "
                    f"{f.type.__name__}, got {doc[f.name]!r:.40}"
                )
        return cls._from_config(doc)


class _Derived(KernelSpec):
    """A family that is the kernel of another family, `base`.

    Every protocol method that the subclass does not override runs on
    `base`; the subclass keeps its own config and admissibility bound.
    """

    @property
    def hypotheses(self):
        return self.base.hypotheses

    def window_entries(self, window):
        return self.base.window_entries(window)

    def generator(self, size):
        return self.base.generator(size)

    def diagonal(self, n):
        return self.base.diagonal(n)

    def path_stream(self, n_max, rng, rows, chunk):
        return self.base.path_stream(n_max, rng, rows, chunk)

    def prediction(self, f_class, alpha, **declared):
        return self.base.prediction(f_class, alpha, **declared)


class _FirstInnovationScaled(_Derived):
    """An autoregression `base` whose first innovation is scaled.

    With t the base's response to the first innovation, the kernel is the
    base kernel plus `_weight` t t^T and the generator differs from the
    base only at [0, 0], where -Q holds `_corner`. The path stream scales
    the first innovation by `_first_scale`. Subclasses give these and
    `_response(n)`, each in the arithmetic of their own parametrization.
    """

    def window_entries(self, window):
        t = self._response(window.l + window.n)[window.l :]
        return self.base.window_entries(window) + self._weight * np.outer(t, t)

    def diagonal(self, n):
        return self.base.diagonal(n) + self._weight * self._response(n) ** 2

    def generator(self, size):
        Q, band = self.base.generator(size)
        Q[0, 0] = -self._corner
        return Q, band

    def path_stream(self, n_max, rng, rows, chunk):
        return self.base.path_stream(
            n_max, rng, rows, chunk, first_scale=self._first_scale
        )


def _is_real(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def _config_value_ok(value, kind):
    if kind is float:
        return _is_real(value)
    if kind is int:
        return isinstance(value, Integral) and not isinstance(value, bool)
    if kind is dict:
        return isinstance(value, dict) and all(map(_is_real, value.values()))
    return True


def _require_increasing_positive(s, name="s"):
    if s[0] <= 0:
        raise ValueError(f"{name} must start positive")
    if np.any(np.diff(s) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if s[-1] > OVERFLOW_LIMIT:
        raise ValueError(f"{name} exceeds {OVERFLOW_LIMIT:g}; rebuild in log space")


def _min_entries(s, window):
    idx = np.arange(window.l, window.l + window.n)
    if idx[-1] >= s.size:
        raise ValueError("window extends past supplied s")
    return s[np.minimum.outer(idx, idx)]


def _min_generator(s, size):
    # -Q with a[0] = 1/s1, a[m] = 1/(s_{m+1} - s_m)
    if s.size < size + 1:
        raise ValueError("generator truncation needs len(s) >= size + 1")
    gaps = np.empty(size + 1)
    gaps[0] = s[0]
    gaps[1:] = np.diff(s[: size + 1])
    a = 1.0 / gaps
    return _tridiag(a[:size] + a[1 : size + 1], -a[1:size])


def _tridiag(diag, off):
    n = diag.size
    M = np.zeros((n, n))
    M[np.arange(n), np.arange(n)] = diag
    M[np.arange(n - 1), np.arange(1, n)] = off
    M[np.arange(1, n), np.arange(n - 1)] = off
    return M


def _stored(values, n, name):
    """The first n stored values; a longer request is refused, not truncated."""
    if values.size < n:
        raise ValueError(f"stored {name} shorter than the requested length")
    return values[:n]


def _stream_min(s, b, rng, rows, n_max, chunk):
    # independent increments of variance s[j] - s[j-1], divided by b if given
    inc = np.sqrt(np.diff(np.concatenate(([0.0], _stored(s, n_max, "s")))))
    stream = _stream_one_pole(1.0, inc, np.zeros(rows), rng, rows, n_max, chunk)
    for j0, block in zip(range(0, n_max, chunk), stream):
        yield block if b is None else block / b[j0 : j0 + block.shape[1]]


@_register
@dataclass(frozen=True, eq=False)
class MinKernel(KernelSpec):
    """V[j,k] = s[min(j,k)] for strictly increasing positive s."""

    s: np.ndarray
    family = "min"
    hypotheses = ("growth",)

    def __post_init__(self):
        object.__setattr__(self, "s", _as_float_array(self.s, "s"))
        _require_increasing_positive(self.s)

    def to_config(self):
        return {"family": self.family, "s": self.s.tolist()}

    @classmethod
    def _from_config(cls, doc):
        return cls(s=doc["s"])

    def window_entries(self, window):
        return _min_entries(self.s, window)

    def generator(self, size):
        return -_min_generator(self.s, size), 1

    def diagonal(self, n):
        return _stored(self.s, n, "s").copy()

    def path_stream(self, n_max, rng, rows, chunk):
        return _stream_min(self.s, None, rng, rows, n_max, chunk)

    def prediction(self, f_class, alpha, growth=None):
        s = self.s
        return _predict_min_like(
            np.log(s), lambda jj: s[jj - 1], "s[j]", "min", f_class, growth
        )


@_register
@dataclass(frozen=True, eq=False)
class ScaledMinKernel(KernelSpec):
    """W[j,k] = s[min(j,k)] / (b[j] b[k])."""

    s: np.ndarray
    b: np.ndarray
    family = "scaled_min"
    hypotheses = ("growth",)

    def __post_init__(self):
        object.__setattr__(self, "s", _as_float_array(self.s, "s"))
        object.__setattr__(self, "b", _as_float_array(self.b, "b"))
        _require_increasing_positive(self.s)
        if self.b.size != self.s.size:
            raise ValueError("s and b must have equal length")
        if np.any(self.b <= 0):
            raise ValueError("b must be positive")

    def to_config(self):
        return {"family": self.family, "s": self.s.tolist(), "b": self.b.tolist()}

    @classmethod
    def _from_config(cls, doc):
        return cls(s=doc["s"], b=doc["b"])

    def window_entries(self, window):
        b = self.b[window.l : window.l + window.n]
        return _min_entries(self.s, window) / np.outer(b, b)

    def generator(self, size):
        if self.b.size < size:
            raise ValueError("generator truncation needs len(b) >= size")
        b = self.b[:size]
        return -(_min_generator(self.s, size) * np.outer(b, b)), 1

    def diagonal(self, n):
        return _stored(self.s, n, "s") / self.b[:n] ** 2

    def path_stream(self, n_max, rng, rows, chunk):
        return _stream_min(self.s, self.b[:n_max], rng, rows, n_max, chunk)

    def prediction(self, f_class, alpha, growth=None):
        s, b = self.s, self.b
        return _predict_min_like(
            np.log(s), lambda jj: s[jj - 1] / b[jj - 1] ** 2, "W[j,j]", "scaled-min",
            f_class, growth,
        )


@_register
@dataclass(frozen=True, eq=False)
class ExpKernel(KernelSpec):
    """W[j,k] = exp(-|v[j] - v[k]|) for strictly increasing v."""

    v: np.ndarray
    family = "exp"
    hypotheses = ("growth", "gaps")

    def __post_init__(self):
        object.__setattr__(self, "v", _as_float_array(self.v, "v"))
        if np.any(np.diff(self.v) <= 0):
            raise ValueError("v must be strictly increasing")

    def to_config(self):
        return {"family": self.family, "v": self.v.tolist()}

    @classmethod
    def _from_config(cls, doc):
        return cls(v=doc["v"])

    def as_scaled_min(self):
        """Equivalent ScaledMinKernel with b = e^v, s = e^{2v}.

        Only valid while e^{2v} stays in range; the direct exp form never
        overflows and is preferred for computation.
        """
        if 2.0 * self.v[-1] > np.log(OVERFLOW_LIMIT):
            raise ValueError("e^{2v} overflows; use the exp form directly")
        return ScaledMinKernel(s=np.exp(2.0 * self.v), b=np.exp(self.v))

    def window_entries(self, window):
        if window.l + window.n > self.v.size:
            raise ValueError("window extends past supplied v")
        v = self.v[window.l : window.l + window.n]
        return np.exp(-np.abs(np.subtract.outer(v, v)))

    def generator(self, size):
        # gap form of D_b Q(s) D_b with b = e^v, s = e^{2v}; stays finite for any v
        if self.v.size < size + 1:
            raise ValueError("generator truncation needs len(v) >= size + 1")
        g = np.diff(self.v[: size + 1])
        diag = np.empty(size)
        diag[0] = 1.0 + 1.0 / np.expm1(2.0 * g[0])
        if size > 1:
            diag[1:] = 1.0 / -np.expm1(-2.0 * g[:-1]) + 1.0 / np.expm1(2.0 * g[1:])
        return -_tridiag(diag, -0.5 / np.sinh(g[:-1])), 1

    def diagonal(self, n):
        return np.ones_like(_stored(self.v, n, "v"))

    def path_stream(self, n_max, rng, rows, chunk):
        v = _stored(self.v, n_max, "v")
        gaps = np.diff(v)
        gap = _steady(gaps, np.abs(v).max()) if gaps.size else np.inf
        state = rng.standard_normal(rows)      # stationary start, unit variance
        if np.ndim(gap) == 0:
            # even grid: the path starts one gap after the stationary draw
            a = float(np.exp(-gap))
        else:
            # uneven grid: the path starts at the stationary draw
            a = np.exp(-np.concatenate(([0.0], gap)))
        yield from _stream_one_pole(
            a, np.sqrt(1.0 - a * a), state, rng, rows, n_max, chunk
        )

    def prediction(self, f_class, alpha, growth=None, gaps=None):
        return _predict_exp(self.v, f_class, growth, gaps)


@_register
@dataclass(frozen=True, eq=False)
class AR1(KernelSpec):
    """Covariance of xi[n] = x[n-1] xi[n-1] + g[n] with iid standard g.

    x in (0, 1], non-decreasing. Entries carry the product form
    U[j,k] = U[j,j] prod(x[j..k-1]) for j <= k, which never overflows.
    """

    x: np.ndarray
    family = "ar1"
    hypotheses = ("x_limit", "reg_var_index", "rate_limit", "rate_index")

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_array(self.x, "x"))
        if np.any(self.x <= 0) or np.any(self.x > 1):
            raise ValueError("x must lie in (0, 1]")
        if np.any(np.diff(self.x) < 0):
            raise ValueError("x must be non-decreasing")

    def to_config(self):
        return {"family": self.family, "x": self.x.tolist()}

    @classmethod
    def _from_config(cls, doc):
        return cls(x=doc["x"])

    def diagonal(self, n):
        """U[j,j] for j = 1..n via U[j+1,j+1] = x[j]^2 U[j,j] + 1."""
        if n > self.x.size + 1:
            raise ValueError("x too short for requested diagonal")
        d = np.ones(n)
        d[1:] = _one_pole(self.x[: n - 1] ** 2, d[1:], 1.0)
        return d

    def window_entries(self, window):
        x = self.x
        hi = window.l + window.n
        if hi > x.size + 1:
            raise ValueError("window extends past supplied x")
        d = self.diagonal(hi)
        # U[j,k] = U[j,j] prod(x[j..k-1]) for j <= k; the product is built from
        # log sums so long windows underflow to 0 instead of degrading to NaN
        lo = window.l
        dj = d[lo:hi]
        logt = np.zeros(hi)
        logt[1:] = np.cumsum(np.log(x[: hi - 1]))
        lt = logt[lo:hi]
        decay = np.exp(-np.abs(np.subtract.outer(lt, lt)))
        # the diagonal factor belongs to the smaller index of the pair
        return np.minimum.outer(dj, dj) * decay

    def generator(self, size):
        x = self.x
        if x.size < size:
            raise ValueError("generator truncation needs len(x) >= size")
        return -_tridiag(1.0 + x[:size] ** 2, -x[: size - 1]), 1

    def path_stream(self, n_max, rng, rows, chunk, first_scale=1.0):
        # xi[1] = first_scale g[1], xi[n] = x[n-1] xi[n-1] + g[n]
        a = _steady(_stored(self.x, n_max - 1, "x"))
        if np.ndim(a):
            a = np.concatenate((a[:1], a))     # a[0] meets y[-1] = 0
        yield from _stream_one_pole(
            a, 1.0, np.zeros(rows), rng, rows, n_max, chunk, first_scale
        )

    def prediction(self, f_class, alpha, **declared):
        return _predict_ar1(self, f_class, alpha, **declared)


@_register
@dataclass(frozen=True, eq=False)
class AR1Shifted(_FirstInnovationScaled):
    """AR1 with the first innovation scaled by delta_tilde."""

    x: np.ndarray
    delta_tilde: float
    family = "ar1_shifted"

    def __post_init__(self):
        object.__setattr__(self, "x", AR1(self.x).x)
        object.__setattr__(self, "delta_tilde", float(self.delta_tilde))
        if self.delta_tilde == 0.0:
            raise ValueError("delta_tilde must be nonzero")

    def to_config(self):
        return {
            "family": self.family,
            "x": self.x.tolist(),
            "delta_tilde": self.delta_tilde,
        }

    @classmethod
    def _from_config(cls, doc):
        return cls(x=doc["x"], delta_tilde=doc["delta_tilde"])

    @cached_property
    def base(self):
        return AR1(self.x)

    _first_scale = property(lambda self: self.delta_tilde)
    _weight = property(lambda self: self.delta_tilde**2 - 1.0)
    _corner = property(lambda self: 1.0 / self.delta_tilde**2 + self.x[0] ** 2)

    def _response(self, n):
        # t[j] = prod(x[:j-1]), the response of xi[j] to the first innovation
        return np.concatenate(([1.0], np.cumprod(self.x[: n - 1])))

    def admissibility(self):
        x1 = self.x[0]
        upper = np.inf if x1 >= 1.0 else 1.0 / (x1 * (1.0 - x1))
        val = self.delta_tilde**2
        return AdmissibilityDecision(
            admissible=bool(0.0 < val <= upper),
            key="shift-admissible-ar1",
            value=val,
            bound=(0.0, float(upper)),
            detail=f"0 < delta_tilde^2 <= 1/(x1 (1 - x1)) = {upper:.6g}",
        )


@_register
@dataclass(frozen=True, eq=False)
class ARk(KernelSpec):
    """Covariance of xi[n] = sum(p[l] xi[n-l]) + g[n], sum(p) <= 1.

    ``p_non_increasing`` records whether the generator construction is
    available; the covariance analytics do not need it.
    """

    p: np.ndarray
    family = "ark"
    hypotheses = ("f_sqrt_small",)

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float_array(self.p, "p"))
        if np.any(self.p <= 0):
            raise ValueError("p must be positive")
        if self.p.sum() > 1.0 + 1e-12:
            raise ValueError("sum(p) must be <= 1")

    @property
    def k(self):
        return self.p.size

    @property
    def p_non_increasing(self):
        return bool(np.all(np.diff(self.p) <= 0))

    def to_config(self):
        return {"family": self.family, "p": self.p.tolist()}

    @classmethod
    def _from_config(cls, doc):
        return cls(p=doc["p"])

    def window_entries(self, window):
        hi = window.l + window.n
        ph = phi_recursive(self.p, hi).values
        # V[m,n] = sum_{t=1..min(m,n)} phi[t] phi[t+|m-n|]; a cumsum per lag
        out = np.empty((window.n, window.n))
        for dlag in range(window.n):
            csum = np.cumsum(ph[: hi - dlag] * ph[dlag:hi])
            idx = np.arange(window.n - dlag)
            out[idx, idx + dlag] = csum[window.l + idx]
            out[idx + dlag, idx] = csum[window.l + idx]
        return out

    def generator(self, size):
        if not self.p_non_increasing:
            raise IdentityError(
                "q-matrix-signs",
                "ARk generator requires non-increasing p; increasing weights can "
                "flip off-diagonal signs",
            )
        p, k = self.p, self.k
        A = np.zeros((size, size))
        np.fill_diagonal(A, 1.0 + np.sum(p**2))
        for d in range(1, min(k, size - 1) + 1):
            val = -p[d - 1] + np.dot(p[: k - d], p[d:k])
            idx = np.arange(size - d)
            A[idx, idx + d] = val
            A[idx + d, idx] = val
        return -A, k

    def diagonal(self, n):
        return np.cumsum(phi_recursive(self.p, n).values ** 2)

    def path_stream(self, n_max, rng, rows, chunk, first_scale=1.0):
        # y[n] = sum p[l] y[n-l] + g[n] with empty history; y[1] scaled
        a = np.concatenate(([1.0], -self.p))
        zi = np.zeros((rows, a.size - 1))

        def filt(g, j0, r):
            if j0 == 0:
                g[:, 0] *= first_scale
            block, zi[r] = lfilter([1.0], a, g, axis=1, zi=zi[r])
            return block

        yield from _filtered_chunks(rng, rows, n_max, chunk, filt)

    def prediction(self, f_class, alpha, f_sqrt_small=False):
        return _predict_ark(self.p, f_class, alpha, f_sqrt_small)


@_register
@dataclass(frozen=True, eq=False)
class ARkGen(_FirstInnovationScaled):
    """ARk with first innovation g[1]/a; kernel gains ((1-a^2)/a^2) phi phi^T."""

    p: np.ndarray
    a_sq: float
    family = "ark_gen"

    def __post_init__(self):
        object.__setattr__(self, "p", ARk(self.p).p)
        object.__setattr__(self, "a_sq", float(self.a_sq))
        if self.a_sq <= 0:
            raise ValueError("a_sq must be positive")

    def to_config(self):
        return {"family": self.family, "p": self.p.tolist(), "a_sq": self.a_sq}

    @classmethod
    def _from_config(cls, doc):
        return cls(p=doc["p"], a_sq=doc["a_sq"])

    @cached_property
    def base(self):
        return ARk(self.p)

    _first_scale = property(lambda self: 1.0 / np.sqrt(self.a_sq))
    _weight = property(lambda self: (1.0 - self.a_sq) / self.a_sq)
    _corner = property(lambda self: self.a_sq + np.sum(self.p**2))

    def _response(self, n):
        return phi_recursive(self.p, n).values

    def diagonal(self, n):
        # the inherited route computes phi once for the base and once here
        phi_sq = phi_recursive(self.p, n).values ** 2
        return np.cumsum(phi_sq) + self._weight * phi_sq

    def admissibility(self):
        ps = self.p.sum()
        lower = 0.5 * (ps * (2.0 - ps) - np.sum(self.p**2))
        return AdmissibilityDecision(
            admissible=bool(self.a_sq >= lower),
            key="shift-admissible-arkgen",
            value=self.a_sq,
            bound=(float(lower), np.inf),
            detail=f"a^2 >= (sum(p)(2 - sum(p)) - sum(p^2))/2 = {lower:.6g}",
        )


@_register
@dataclass(frozen=True, eq=False)
class ShiftedScaled(_Derived):
    """ScaledMinKernel on the shifted sequence s + Delta, which is `base`."""

    s: np.ndarray
    b: np.ndarray
    Delta: float
    family = "shifted_scaled"

    def __post_init__(self):
        unshifted = ScaledMinKernel(self.s, self.b)
        object.__setattr__(self, "s", unshifted.s)
        object.__setattr__(self, "b", unshifted.b)
        object.__setattr__(self, "Delta", float(self.Delta))
        if self.Delta <= -self.s[0]:
            raise IdentityError(
                "shift-admissible-scaled",
                f"Delta = {self.Delta} must exceed -s1 = {-self.s[0]}",
            )

    def to_config(self):
        return {
            "family": self.family,
            "s": self.s.tolist(),
            "b": self.b.tolist(),
            "Delta": self.Delta,
        }

    @classmethod
    def _from_config(cls, doc):
        return cls(s=doc["s"], b=doc["b"], Delta=doc["Delta"])

    @cached_property
    def base(self):
        return ScaledMinKernel(self.s + self.Delta, self.b)

    def admissibility(self):
        b, s = self.b, self.s
        if b.size >= 2 and not np.isclose(b[1], b[0]):
            upper = (b[0] * s[1] - b[1] * s[0]) / (b[1] - b[0])
        else:
            upper = np.inf
        return AdmissibilityDecision(
            admissible=bool(-s[0] < self.Delta <= upper),
            key="shift-admissible-scaled",
            value=self.Delta,
            bound=(-s[0], float(upper)),
            detail=f"-s1 < Delta <= (b1 s2 - b2 s1)/(b2 - b1) = {upper:.6g}",
        )


@_register
@dataclass(frozen=True, eq=False)
class RankOneUpdate(KernelSpec):
    """Kernel of the generator Q + b E(k, l); indices are 1-based."""

    base: KernelSpec
    k: int
    l: int
    b: float
    family = "rank_one_update"

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "b", float(self.b))
        if self.k < 1 or self.l < 1 or self.k == self.l:
            raise ValueError("k, l must be distinct 1-based indices")

    def to_config(self):
        return {
            "family": self.family,
            "base": self.base.to_config(),
            "k": self.k,
            "l": self.l,
            "b": self.b,
        }

    @classmethod
    def _from_config(cls, doc):
        return cls(
            base=KernelSpec.from_config(doc["base"]),
            k=doc["k"],
            l=doc["l"],
            b=doc["b"],
        )

    def window_entries(self, window):
        # the update references absolute indices k, l; build the base on a
        # window reaching all of them, apply the closed form, then slice
        hi = max(window.l + window.n, self.k, self.l)
        U = build_kernel(self.base, Window(0, hi)).entries
        W = _sherman_morrison(U, self.k - 1, self.l - 1, self.b)
        lo = window.l
        return W[lo : lo + window.n, lo : lo + window.n]

    def generator(self, size):
        Q, band = self.base.generator(size)
        if self.k > size or self.l > size:
            raise ValueError("bump indices outside generator truncation")
        Q[self.k - 1, self.l - 1] += self.b
        return Q, max(band, abs(self.k - self.l))

    def diagonal(self, n):
        return np.diag(self.window_entries(Window(0, n))).copy()

    def admissibility(self):
        U = build_kernel(self.base, Window(0, max(self.k, self.l))).entries
        return _rank_one_decision(self.b, U[self.l - 1, self.k - 1])

    def prediction(self, f_class, alpha):
        return NoTheorem("no stated limit theorem covers rank-one updates")


@_register
@dataclass(frozen=True, eq=False)
class KilledWalk(KernelSpec):
    """Lattice walk on Z with jump rates by signed offset, killed at rate beta."""

    step_rates: dict
    beta: float
    radius: int
    family = "killed_walk"

    def __post_init__(self):
        rates = {int(d): float(r) for d, r in dict(self.step_rates).items()}
        if any(d == 0 for d in rates):
            raise ValueError("offsets must be nonzero")
        if any(r < 0 for r in rates.values()):
            raise ValueError("rates must be nonnegative")
        if sum(rates.values()) <= 0:
            raise ValueError("at least one positive rate required")
        object.__setattr__(self, "step_rates", rates)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "radius", int(self.radius))
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")

    def to_config(self):
        return {
            "family": self.family,
            "step_rates": {str(d): r for d, r in sorted(self.step_rates.items())},
            "beta": self.beta,
            "radius": self.radius,
        }

    @classmethod
    def _from_config(cls, doc):
        rates = {int(d): r for d, r in doc["step_rates"].items()}
        return cls(step_rates=rates, beta=doc["beta"], radius=doc["radius"])

    def window_entries(self, window):
        raise TypeError("KilledWalk lives on Z; use killed_walk_potential")

    def generator(self, size):
        # the whole truncated lattice, whatever the size asked for
        G = _walk_generator(self)
        band = max(abs(d) for d in self.step_rates)
        return G - self.beta * np.eye(G.shape[0]), band

    def diagonal(self, n):
        raise TypeError("no diagonal closed form for KilledWalk")

    def path_covariance(self, n):
        entries = killed_walk_potential(self).kernel.entries
        if n != entries.shape[0]:
            raise ValueError(f"killed walk sampling needs n = {entries.shape[0]} sites")
        return entries

    def prediction(self, f_class, alpha):
        if f_class != "zero":
            return NoTheorem("the killed walk is covered for f = 0 only")
        return _predict_killed_walk(killed_walk_potential(self).u00)


# ---------------------------------------------------------------------------
# kernels and generators of a spec
# ---------------------------------------------------------------------------

def build_kernel(spec, window):
    """Dense kernel values of the family on the window."""
    spec.admissibility().require()
    return DenseKernelWindow(
        window=window, entries=spec.window_entries(window), spec=spec
    )


def _sherman_morrison(U, ki, li, b):
    # kernel of Q + b E(k, l) from the kernel U of Q (0-based ki, li)
    return U + b * np.outer(U[:, ki], U[li, :]) / (1.0 - b * U[ki, li])


def rank_one_update(kernel, k, l, b):
    """Sherman-Morrison update of a dense kernel window for Q + b E(k, l).

    k, l are 1-based labels that must lie inside the window.
    """
    labels = kernel.labels
    if k not in labels or l not in labels:
        raise ValueError("k and l must lie inside the kernel window")
    ki = int(np.searchsorted(labels, k))
    li = int(np.searchsorted(labels, l))
    U = kernel.entries
    _rank_one_decision(b, U[li, ki]).require()
    spec = RankOneUpdate(base=kernel.spec, k=int(k), l=int(l), b=float(b))
    return DenseKernelWindow(
        window=kernel.window, entries=_sherman_morrison(U, ki, li, b), spec=spec
    )


def build_generator(spec, size):
    """Leading size x size block of the family's generator Q.

    Entries are those of the infinite matrix, so the last ``band`` rows are
    boundary rows whose off-block entries are cut.
    """
    spec.admissibility().require()
    entries, band = spec.generator(size)
    return GeneratorMatrix(entries=entries, band=band, spec=spec)


def ark_band_factor(spec, size):
    """Unit lower band factor L with A = L^T L (rows beyond k are shifts)."""
    p = spec.p
    L = np.eye(size)
    for d in range(1, min(spec.k, size - 1) + 1):
        idx = np.arange(size - d)
        L[idx + d, idx] = -p[d - 1]
    return L


def _walk_generator(spec):
    R = spec.radius
    size = 2 * R + 1
    G = np.zeros((size, size))
    total = sum(spec.step_rates.values())
    np.fill_diagonal(G, -total)
    for d, r in spec.step_rates.items():
        if r == 0.0:
            continue
        if abs(d) < size:
            idx = np.arange(size - abs(d))
            if d > 0:
                G[idx, idx + d] = r
            else:
                G[idx + abs(d), idx] = r
    return G


# ---------------------------------------------------------------------------
# window inverses
# ---------------------------------------------------------------------------

def min_window_inverse(s, window):
    """Closed tridiagonal inverse of a min-kernel window.

    With a[m] = 1/(s[m] - s[m-1]) (s[0] = 0):
      (1) first diagonal entry 1/s[l+1] + a[l+2]
      (2) interior diagonal a[l+j] + a[l+j+1]
      (3) last diagonal a[l+n]
      (4) off-diagonal entries -a[l+j+1]
    A 1x1 window degenerates to [1/s[l+1]].
    """
    l, n = window.l, window.n
    if l + n > s.size:
        raise ValueError("window extends past supplied s")
    svals = s[l : l + n]
    prev = s[l - 1] if l > 0 else 0.0
    gaps = np.empty(n)
    gaps[0] = svals[0] - prev
    gaps[1:] = np.diff(svals)
    a = 1.0 / gaps  # a[j] = a_{l+j+1} in 1-based labels
    if n == 1:
        return np.array([[1.0 / svals[0]]])
    diag = np.empty(n)
    diag[0] = 1.0 / svals[0] + a[1]
    diag[1:-1] = a[1:-1] + a[2:]
    diag[-1] = a[-1]
    return _tridiag(diag, -a[1:])


def window_inverse(spec, window, check=True):
    """Inverse of the kernel window; closed form for min kernels.

    The closed form is cross-checked against a dense solve; the dense path
    refuses windows whose condition estimate exceeds CONDITION_LIMIT.
    """
    kernel = build_kernel(spec, window)
    if isinstance(spec, MinKernel):
        inv = min_window_inverse(spec.s, window)
        if check:
            dense = np.linalg.solve(kernel.entries, np.eye(window.n))
            gap = np.abs(inv - dense).max()
            if gap > DENSE_CHECK_TOL:
                raise IdentityError(
                    "min-window-inverse",
                    f"closed form differs from dense solve by {gap:.3e}",
                )
        return inv
    K = kernel.entries
    try:
        inv = np.linalg.solve(K, np.eye(K.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise IdentityError("window-inverse-identity", f"singular window: {exc}")
    cond = np.linalg.norm(K, 1) * np.linalg.norm(inv, 1)
    if cond > CONDITION_LIMIT:
        raise IdentityError(
            "window-inverse-identity",
            f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:g}",
        )
    if check:
        gap = np.abs(inv @ K - np.eye(K.shape[0])).max()
        if gap > DENSE_CHECK_TOL * max(1.0, cond / 1e2):
            raise IdentityError(
                "window-inverse-identity",
                f"inverse residual {gap:.3e} with condition {cond:.3e}",
            )
    return inv


# ---------------------------------------------------------------------------
# duality and sign-structure reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    checks: dict            # name -> max interior residual
    excluded_rows: int
    worst: tuple            # (check name, row label, residual)
    tol: float

    @property
    def ok(self):
        return all(v <= self.tol for v in self.checks.values())


def verify_duality(spec, window, tol=1e-8):
    """Residuals of the kernel/generator dualities on a truncation.

    Runs Q U + I on rows whose band lies inside the truncation, the band
    factorization check for ARk, and the kernel-times-generator identity on
    the columns it is exact for. Boundary rows/columns are counted, not
    asserted.
    """
    size = window.l + window.n
    G = build_generator(spec, size)
    U = build_kernel(spec, Window(0, size)).entries
    interior = G.interior_rows
    excluded = size - interior.size
    checks = {}
    worst = ("", -1, 0.0)

    resid = G.entries @ U + np.eye(size)
    sub = np.abs(resid[interior, :])
    checks["generator-times-kernel"] = float(sub.max()) if sub.size else 0.0
    if sub.size:
        r = int(np.unravel_index(np.argmax(sub), sub.shape)[0])
        worst = ("generator-times-kernel", int(interior[r]) + 1, checks["generator-times-kernel"])

    # U Q is exact on columns whose band lies inside; for symmetric families
    # it mirrors the row check, for rank-one updates it does not
    residc = U @ G.entries + np.eye(size)
    subc = np.abs(residc[:, interior])
    checks["kernel-times-generator"] = float(subc.max()) if subc.size else 0.0
    if subc.size and checks["kernel-times-generator"] > worst[2]:
        c = int(np.unravel_index(np.argmax(subc), subc.shape)[1])
        worst = ("kernel-times-generator", int(interior[c]) + 1, checks["kernel-times-generator"])

    if isinstance(spec, ARk):
        L = ark_band_factor(spec, size)
        A = -G.entries
        prod = L.T @ L
        k = spec.k
        inner = np.abs(prod - A)[: size - k, : size - k]
        checks["band-factorization"] = float(inner.max()) if inner.size else 0.0
        if inner.size and checks["band-factorization"] > worst[2]:
            r = int(np.unravel_index(np.argmax(inner), inner.shape)[0])
            worst = ("band-factorization", r + 1, checks["band-factorization"])

    return DualityReport(checks=checks, excluded_rows=excluded, worst=worst, tol=tol)


@dataclass(frozen=True)
class QMatrixReport:
    diag_negative: bool
    offdiag_nonnegative: bool
    row_sums_nonpositive: bool
    norm: float
    row_sums_bounded_away: bool
    violations: tuple

    @property
    def ok(self):
        return self.diag_negative and self.offdiag_nonnegative and self.row_sums_nonpositive


def check_q_matrix(G, bounded_threshold=0.0, sign_tol=1e-12):
    """Sign-pattern and row-sum diagnostics for a generator truncation."""
    Q = G.entries
    diag = np.diag(Q)
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    violations = []
    diag_ok = bool(np.all(diag < 0))
    if not diag_ok:
        violations.append(("diagonal", int(np.argmax(diag >= 0)) + 1))
    off_ok = bool(np.all(off >= -sign_tol))
    if not off_ok:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        violations.append(("off-diagonal", (int(i) + 1, int(j) + 1)))
    rs = G.row_sums
    interior = G.interior_rows
    rows_ok = bool(np.all(rs[interior] <= sign_tol)) if interior.size else True
    if not rows_ok:
        violations.append(("row-sum", int(interior[np.argmax(rs[interior] > sign_tol)]) + 1))
    norm = float(np.abs(Q).sum(axis=1).max())
    bounded = (
        bool(np.all(-rs[interior] >= bounded_threshold)) if interior.size else False
    )
    return QMatrixReport(
        diag_negative=diag_ok,
        offdiag_nonnegative=off_ok,
        row_sums_nonpositive=rows_ok,
        norm=norm,
        row_sums_bounded_away=bounded,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class InverseMReport:
    diag_nonnegative: bool
    offdiag_nonpositive: bool
    row_sums_nonnegative: bool
    inverse: np.ndarray

    @property
    def ok(self):
        return self.diag_nonnegative and self.offdiag_nonpositive and self.row_sums_nonnegative


def check_inverse_m_matrix(entries, sign_tol=1e-9):
    """Invert a kernel window and test the M-matrix sign pattern."""
    if isinstance(entries, DenseKernelWindow):
        entries = entries.entries
    K = np.asarray(entries, dtype=float)
    try:
        inv = np.linalg.inv(K)
    except np.linalg.LinAlgError as exc:
        raise IdentityError("inverse-m-matrix", f"singular kernel window: {exc}")
    scale = max(1.0, np.abs(inv).max())
    tol = sign_tol * scale
    off = inv.copy()
    np.fill_diagonal(off, 0.0)
    return InverseMReport(
        diag_nonnegative=bool(np.all(np.diag(inv) >= -tol)),
        offdiag_nonpositive=bool(np.all(off <= tol)),
        row_sums_nonnegative=bool(np.all(inv.sum(axis=1) >= -tol)),
        inverse=inv,
    )


# ---------------------------------------------------------------------------
# admissibility of the shifted / generalized families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityDecision:
    admissible: bool
    key: str
    value: float
    bound: tuple      # (lower, upper); None for an unconstrained side
    detail: str

    def require(self):
        """Raise the decision's IdentityError unless the spec is admissible."""
        if not self.admissible:
            raise IdentityError(self.key, self.detail + f" (got {self.value:.6g})")


_NO_CONSTRAINT = AdmissibilityDecision(
    admissible=True, key="derived", value=0.0, bound=(-np.inf, np.inf),
    detail="family carries no shift constraint",
)


def _rank_one_decision(b, u_lk):
    # Q + b E(k, l) keeps a kernel while b < 1/U[l,k]
    upper = 1.0 / u_lk
    return AdmissibilityDecision(
        admissible=bool(b < upper),
        key="rank-one-admissible",
        value=b,
        bound=(-np.inf, float(upper)),
        detail=f"b < 1/U[l,k] = {upper:.6g}",
    )


def decide_shift_admissible(spec, raise_on_fail=False):
    """Admissibility decision for shifted and generalized families."""
    decision = spec.admissibility()
    if raise_on_fail:
        decision.require()
    return decision


# ---------------------------------------------------------------------------
# killed walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KilledWalkResult:
    kernel: DenseKernelWindow          # labels are lattice sites -R..R
    row_sums: np.ndarray
    interior: np.ndarray               # boolean mask |site| <= R/2
    max_row_sum_gap: float             # vs 1/beta on the interior
    max_diag_gap: float                # vs U[0,0] on the interior

    @property
    def u00(self):
        R = self.kernel.spec.radius
        return float(self.kernel.entries[R, R])


def killed_walk_potential(spec):
    """Potential of the killed walk on the truncated lattice {-R..R}.

    Solves (beta I - G) U = I with absorbing truncation. Away from the
    boundary the row sums approach 1/beta and the diagonal is flat; both
    gaps shrink as the radius grows.
    """
    G = _walk_generator(spec)
    size = G.shape[0]
    U = np.linalg.solve(spec.beta * np.eye(size) - G, np.eye(size))
    sites = np.arange(-spec.radius, spec.radius + 1)
    interior = np.abs(sites) <= spec.radius // 2
    row_sums = U.sum(axis=1)
    diag = np.diag(U)
    u00 = diag[spec.radius]
    kernel = DenseKernelWindow(
        window=Window(0, size), entries=U, spec=spec, labels=sites
    )
    return KilledWalkResult(
        kernel=kernel,
        row_sums=row_sums,
        interior=interior,
        max_row_sum_gap=float(np.abs(row_sums[interior] - 1.0 / spec.beta).max()),
        max_diag_gap=float(np.abs(diag[interior] - u00).max()),
    )


# ---------------------------------------------------------------------------
# banded-decay envelope
# ---------------------------------------------------------------------------

def decay_envelope(entries):
    """Fit |U[i,k]| <= C exp(-lam |i-k|) through the per-distance maxima.

    Returns (C, lam, ok) where ok means the log-envelope is non-increasing
    in the distance, so a positive decay rate is real and not an artifact
    of one small corner entry.
    """
    U = np.asarray(entries, dtype=float)
    n = U.shape[0]
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    # drop the largest distances, which only a corner entry attains
    dmax = max(2, (3 * n) // 4)
    envelope = np.array(
        [np.abs(U[dist == d]).max() for d in range(dmax)]
    )
    ok = bool(np.all(np.diff(envelope) <= 1e-12))
    logs = np.log(np.maximum(envelope, 1e-300))
    slope, intercept = np.polyfit(np.arange(dmax), logs, 1)
    return float(np.exp(intercept)), float(-slope), ok
