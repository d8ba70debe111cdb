"""Kernel families, their generators, and the structural identity checks.

Sequences are stored 0-based; a Window(l, n) covers positions l+1 ... l+n in
the 1-based labelling used throughout the docstrings, so entry (j, k) of a
window sits at [j-l-1, k-l-1] of the dense array.

Each family spec says what it is through one method set, which the module
functions call after checking `admissibility()`:

- `window_entries(window)`: dense kernel values (`build_kernel`);
- `generator(size)`: truncated generator and its band (`build_generator`);
- `diagonal(n)`: U[j,j] for j = 1..n (`mcsim.kernel_diagonal`);
- `path_stream(n_max, rng, rows, chunk, cols=None)`: chunked Gaussian paths
  with the kernel as covariance at the sorted 0-based columns `cols` (all by
  default): the chain's recurrence, one `argen.linear_recurrence` per
  chunk, the killed walk's solve with the band Cholesky factor of its
  precision, and the base's refusal for rank-one updates;
- `_kept_chain(cols)`: for min, exp, AR1 and AR1Shifted, the values at the
  sorted 0-based `cols` as a Markov chain of their own, which the KS harness
  draws alone (`mcsim._path_stream`); None for every other family;
- `admissibility()`: the family's `AdmissibilityDecision`;
- `hypotheses` and `prediction(f_class, alpha, **declared)`: the limit
  hypotheses, names from `normalizers.HYPOTHESES`, that `normalizers.predict`
  reads, and the theorem they select.

The autoregressive families (min, exp, AR1, AR1Shifted, ARk, ARkGen) state
their Gaussian chain once, `_chain(lo, hi)`, and its `_order`; the banded
precision of that chain gives `generator(size)` and the closed window
inverses, and ScaledMinKernel scales that of the min chain of s by b b^T; a
rank-one update takes b off it at (k, l). A `DenseKernelWindow` keeps its
`inverse` from first read: the closed one where it exists, else a dense
solve, each passing the condition and residual checks of `_checked_inverse`.

A family's config is its dataclass fields: `to_config` writes them under a
`family` tag and `KernelSpec.from_config` reads them back through
`_check_fields`, the one config field checker, which the CLI shares.

The shifted families delegate to the family they are built from, `base`:
`ShiftedScaled` is `ScaledMinKernel(s + Delta, b)`, and `AR1Shifted` and
`ARkGen` are AR1 and ARk with the first innovation scaled.

The killed walk lives on Z. `_walk_band` writes its precision beta I - G
once, from the rates, as a band that its stream factors and its generator
and potential expand; it has no windows, and takes only its whole lattice.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np
from scipy.linalg import cholesky_banded, lapack

from .argen import linear_recurrence, phi_recursive
from .identities import IdentityError, InputError, check
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

DENSE_CHECK_TOL = 1e-10
CONDITION_LIMIT = 1e12
DUALITY_TOL = 1e-8

# sign tolerances of the generator and inverse-kernel patterns, and the
# least -row sum on interior rows that counts as bounded away from zero
Q_SIGN_TOL = 1e-12
Q_BOUNDED_THRESHOLD = 0.0
M_SIGN_TOL = 1e-9

# a spread of at most this many ulp of the magnitude of a grid is rounding,
# so gaps with such a spread count as even
CONSTANT_ULPS = 4

# rows of innovations drawn at a time by a path stream wider than this
ROW_TILE = 4096
# indices summed per block of an ARk window's running sums, to bound their memory
_LAG_ROWS = 1024


def _as_float_array(values, name):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):     # objects, strings, ragged nesting
        raise InputError(f"{name} must be a sequence of numbers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


def _steady(a, scale):
    """`a` as one float when its spread is rounding at `scale`, else as is."""
    if np.ptp(a) > CONSTANT_ULPS * np.spacing(scale):
        return a
    return float(a[0])


def _chunks(n_max, chunk):
    j = 0
    while j < n_max:
        m = min(chunk, n_max - j)
        yield j, m
        j += m


def _part(c, j0, m):
    return c if np.ndim(c) == 0 else c[j0 : j0 + m]


def _fill(out, rows, filt, g, j0, take):
    out[rows] = filt(g, j0, rows)[:, take]


def _filtered_chunks(rng, rows, n_max, chunk, filt, cols=None):
    """Chunks of filtered Gaussian innovations, drawn in row tiles.

    filt(g, j0, rows) filters the innovations g of the paths `rows` for
    the chunk starting at column j0, and carries their state into the next
    chunk. A chunk keeps its columns among the sorted 0-based `cols` (all
    by default), maybe none, with every draw and call made as for all. A
    chunk of at most ROW_TILE rows is one draw and one call. A wider chunk
    is drawn in tiles of ROW_TILE rows, each a block of consecutive rows,
    so the draws are the values of one (rows, m) draw; a band solve never
    mixes rows, so the filtered tiles are the values of one call on the
    whole chunk too. While this thread draws tile k + 1, a helper thread
    that the stream owns filters tile k and writes its kept columns into
    the chunk: a wide chunk is (rows, kept), never (rows, m). The band
    solve holds the GIL and the draw does not, so the two overlap only in
    part. At most one tile is in flight, every tile is done before the
    chunk is yielded, and only this thread touches rng. Leaving the stream,
    by a raise or by closing it, waits for a pending tile and ends the helper.
    """
    def kept(j0, m):     # the chunk's kept columns and their count
        if cols is None:
            return slice(None), m
        take = cols[np.searchsorted(cols, j0) : np.searchsorted(cols, j0 + m)] - j0
        return take, take.size

    if rows <= ROW_TILE:
        for j0, m in _chunks(n_max, chunk):
            yield filt(rng.standard_normal((rows, m)), j0, slice(None))[:, kept(j0, m)[0]]
        return
    with ThreadPoolExecutor(1, thread_name_prefix="potkernels-filter") as helper:
        for j0, m in _chunks(n_max, chunk):
            take, width = kept(j0, m)
            out = np.empty((rows, width))
            pending = None
            for lo in range(0, rows, ROW_TILE):
                tile = slice(lo, min(lo + ROW_TILE, rows))
                g = rng.standard_normal((tile.stop - lo, m))
                if pending is not None:
                    pending.result()
                pending = helper.submit(_fill, out, tile, filt, g, j0, take)
            pending.result()
            yield out


def _stream_recurrence(c, scale, history, rng, rows, n_max, chunk, cols=None, first_scale=1.0):
    # y[j] = sum_i c[i-1, j] y[j-i] + scale[j] g[j] from the (rows, k) values
    # of history, with c (k, n_max) or (k, 1) and scale a scalar or per-index
    # array; the first innovation is scaled, and each chunk's last k values
    # carry into the next
    k = len(c)
    c = np.broadcast_to(c, (k, n_max))

    def filt(g, j0, r):
        m = g.shape[1]
        if j0 == 0:
            g[:, 0] *= first_scale
        g *= _part(scale, j0, m)           # in place: rows x m can be large
        block = linear_recurrence(c[:, j0 : j0 + m], g, history[r])
        history[r] = np.concatenate((history[r], block[:, -k:]), axis=1)[:, -k:]
        return block

    return _filtered_chunks(rng, rows, n_max, chunk, filt, cols)


@dataclass(frozen=True)
class Window:
    """Index window covering positions l+1 ... l+n."""

    l: int
    n: int

    def __post_init__(self):
        if self.l < 0 or self.n < 1:
            raise InputError("window requires l >= 0 and n >= 1")

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

    @cached_property
    def inverse(self):
        """(U^{-1}, residual) from `_checked_inverse` of the entries and the
        spec's closed chain precision, if any; built on first read."""
        return _checked_inverse(self.entries, self.spec._window_precision(self.window))


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
    _kept_chain = None      # an order-1 chain's kept values as their own chain

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
        """The family tag and every dataclass field as JSON-ready values."""
        doc = {"family": self.family}
        for f in fields(self):
            doc[f.name] = _config_value(getattr(self, f.name))
        return doc

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
        raise InputError("sample_gaussian needs a symmetric kernel family")

    def admissibility(self):
        return _NO_CONSTRAINT

    def _window_precision(self, window):
        # the closed inverse of a window, or None where only a dense solve exists
        return None

    @staticmethod
    def from_config(doc):
        """Spec from a config object; a malformed one raises InputError.

        The fields are exactly the family's dataclass fields, all required,
        as `to_config` writes them, each checked by `_check_fields` for the
        kind of its annotation (`_ANNOTATION_KINDS`); a field annotated
        KernelSpec is a nested config.
        """
        if not _has_kind(doc, "spec"):
            raise InputError("kernel config requires a 'family' tag")
        try:
            cls = _FAMILIES[doc["family"]]
        except KeyError:
            raise InputError(f"unknown kernel family: {doc['family']!r}") from None
        kinds = {f.name: _ANNOTATION_KINDS[f.type] for f in fields(cls)}
        _check_fields(doc, dict(kinds, family="string"), kinds, f"{cls.family} kernel config")
        return cls(**{
            name: KernelSpec.from_config(doc[name]) if kind == "spec" else doc[name]
            for name, kind in kinds.items()
        })


def _config_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, KernelSpec):
        return value.to_config()
    if isinstance(value, dict):
        return {str(k): v for k, v in sorted(value.items())}
    return value


class _Derived(KernelSpec):
    """A family that is the kernel of another family, `base`.

    Every protocol method that the subclass does not override runs on
    `base`; the subclass keeps its own config and admissibility bound.
    """

    hypotheses = property(lambda self: self.base.hypotheses)
    _order = property(lambda self: self.base._order)

    def window_entries(self, window):
        return self.base.window_entries(window)

    def generator(self, size):
        return self.base.generator(size)

    def diagonal(self, n):
        return self.base.diagonal(n)

    def _chain(self, lo, hi):
        return self.base._chain(lo, hi)

    def _window_precision(self, window):
        return self.base._window_precision(window)

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
        return self.base.path_stream(n_max, rng, rows, chunk, cols)

    def prediction(self, f_class, alpha, **declared):
        return self.base.prediction(f_class, alpha, **declared)


class _FirstInnovationScaled(_Derived):
    """An autoregression `base` whose first innovation is scaled.

    With t the base's response to the first innovation, the kernel is the
    base kernel plus `_weight` t t^T; the chain is the base's, with its first
    innovation in the head block that `_Chain` takes from the kernel. The
    path stream scales the first innovation by `_first_scale`. Subclasses
    give these and `_response(n)`, each in their own parametrization.
    """

    def window_entries(self, window):
        t = self._response(window.l + window.n)[window.l :]
        return self.base.window_entries(window) + self._weight * np.outer(t, t)

    def diagonal(self, n):
        return self.base.diagonal(n) + self._weight * self._response(n) ** 2

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
        return self.base.path_stream(
            n_max, rng, rows, chunk, cols, first_scale=self._first_scale
        )


# JSON kinds of the config fields that the CLI and `from_config` check, as
# (Python type, text). Numbers are finite, as JSON reads 1e999 as inf;
# "rates" holds numbers at integer keys, which JSON writes as strings; "spec"
# is a kernel config object with its family tag
_KINDS = {
    "bool": (bool, "a boolean"), "int": (Integral, "an integer in the int64 range"),
    "number": (Real, "a finite number"), "string": (str, "a string"),
    "object": (dict, "an object"), "spec": (dict, "a kernel config object"),
    "rates": (dict, "an object of numbers keyed by integers"),
    "list": (list, "a list"), "numbers": (list, "a list of finite numbers"),
    "ints": (list, "a list of integers"),
}
# a family's config field has the kind of its annotation; arrays are lists
# here and numbers where `_as_float_array` converts them
_ANNOTATION_KINDS = {
    float: "number", int: "int", dict: "rates", KernelSpec: "spec", np.ndarray: "list",
}


def _has_kind(value, kind):
    if isinstance(value, bool):          # JSON true/false is not a number
        return kind == "bool"
    if not isinstance(value, _KINDS[kind][0]):
        return False
    if kind in ("numbers", "ints"):
        try:
            arr = np.asarray(value)
        except ValueError:          # ragged nesting
            return False
        return (arr.ndim == 1 and arr.dtype.kind in ("i" if kind == "ints" else "if")
                and bool(np.isfinite(arr).all()))
    if kind == "rates":
        return all(str(k).removeprefix("-").isdecimal() and _has_kind(v, "number")
                   for k, v in value.items())
    if kind in ("number", "int"):   # NaN, inf and integers past float or int64 fail
        return abs(value) <= (sys.float_info.max if kind == "number" else 2**63 - 1)
    return kind != "spec" or isinstance(value.get("family"), str)


def _check_fields(doc, kinds, required, where):
    """Refuse a config object with unknown, missing or wrongly typed fields.

    `kinds` maps every allowed field to its JSON kind (`_KINDS`).
    """
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise InputError(f"unknown fields in {where}: {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise InputError(f"missing fields in {where}: {missing}")
    for key, value in doc.items():
        if not _has_kind(value, kinds[key]):
            raise InputError(
                f"{where} field {key!r} must be {_KINDS[kinds[key]][1]}, got {value!r:.40}"
            )


def _require_increasing_positive(s, name="s"):
    if s[0] <= 0:
        raise InputError(f"{name} must start positive")
    if np.any(np.diff(s) <= 0):
        raise InputError(f"{name} must be strictly increasing")
    if s[-1] > OVERFLOW_LIMIT:
        raise InputError(f"{name} exceeds {OVERFLOW_LIMIT:g}; rebuild in log space")


def _min_entries(s, window):
    idx = np.arange(window.l, window.l + window.n)
    if idx[-1] >= s.size:
        raise InputError("window extends past supplied s")
    return s[np.minimum.outer(idx, idx)]


def _chain_precision(a, w, head):
    """Precision of a window of y[j] = sum_i a[i-1, j] y[j-i] + g[j] / sqrt(w[j]).

    head is the precision of the window's first k values, the inverse of
    the kernel there; a, one row per lag, and w hold the chain at the m
    later values. Each adds w[j] l_j l_j^T, with l_j row j of the unit lower
    band factor: 1 at j and -a[i-1, j] at j - i (Rue & Held, Gaussian Markov
    Random Fields, 2005, ch. 2). The band is written one diagonal at a time,
    so every entry beyond band k is an exact zero.
    """
    k = head.shape[0]
    n = k + w.size
    c = np.empty((a.shape[0] + 1, w.size))     # c[e, j - k] = l_j[j - e]
    c[0] = 1.0
    np.negative(a, out=c[1:])
    P = np.zeros((n, n))
    flat = P.reshape(-1)
    for d in range(min(c.shape[0], n)):
        band = flat[d * n :: n + 1]           # diagonal -d, a view
        for e in range(d, c.shape[0]):
            band[k - e : n - e] += c[e] * c[e - d] * w
        flat[d : (n - d) * n : n + 1] = band
    P[:k, :k] += head
    return P


class _Chain(KernelSpec):
    """A family whose Gaussian sequence is a chain of `_order` k.

    `_chain(lo, hi)` gives (a, w) at the 0-based indices lo .. hi-1, lo >= k.
    A window's precision is `_chain_precision` with the inverse of the
    kernel on its first k values as head: 1/U[l+1, l+1] from the diagonal
    for k = 1. The generator is minus the leading block of the precision
    over k more values, which the band never leaves.
    """

    _order = 1

    def generator(self, size):
        k = self._order
        return -self._window_precision(Window(0, size + k))[:size, :size], k

    def _window_precision(self, window):
        l, k = window.l, min(self._order, window.n)
        try:
            head = (1.0 / self.diagonal(l + 1)[l:] if k == 1
                    else np.linalg.inv(self.window_entries(Window(l, k))))
        except np.linalg.LinAlgError as exc:
            raise IdentityError("window-inverse-identity", f"singular window head: {exc}")
        return _chain_precision(*self._chain(l + k, l + window.n), head)

    def _kept_chain(self, cols):
        """(A, sqrt V): the order-1 chain's values at the sorted 0-based
        `cols` as a chain of their own, y[c_0] = sqrt(U[c_0, c_0]) g and
        y[c_{i+1}] = A[i+1] y[c_i] + sqrt(V[i+1]) g, with A[0] = 0.

        From `_chain(1, n)` and `diagonal(n)`: across a gap, A is the product
        of the chain's coefficients and V the sum of the innovation variances
        carried to its end, terms that are never negative; both restart at
        each kept column, one `linear_recurrence` each.
        """
        n = int(cols[-1]) + 1
        a, w = self._chain(1, n)             # steps j = 1 .. n - 1 at j - 1
        restart = np.zeros(n - 1, dtype=bool)
        restart[cols[:-1]] = True            # the step after a kept column
        carry = np.where(restart, 0.0, a[0])[None]
        prod = linear_recurrence(carry, np.where(restart, a[0], 0.0), 0.0)
        var = linear_recurrence(carry**2, 1.0 / w, 0.0)
        ends = cols[1:] - 1
        A = np.concatenate(([0.0], prod[ends]))
        return A, np.sqrt(np.concatenate((self.diagonal(n)[cols[:1]], var[ends])))


def _stored(values, n, name):
    """The first n stored values; a longer request is refused, not truncated."""
    if values.size < n:
        raise InputError(f"stored {name} shorter than the requested length")
    return values[:n]


def _stream_min(s, b, rng, rows, n_max, chunk, cols):
    # independent increments of variance s[j] - s[j-1], divided by b at the
    # kept columns if b is given: the blocks keep them in order
    inc = np.sqrt(np.diff(np.concatenate(([0.0], _stored(s, n_max, "s")))))
    stream = _stream_recurrence(
        np.ones((1, 1)), inc, np.zeros((rows, 1)), rng, rows, n_max, chunk, cols
    )
    b, k = (b if b is None or cols is None else b[cols]), 0
    for block in stream:
        yield block if b is None else block / b[k : k + block.shape[1]]
        k += block.shape[1]


@_register
@dataclass(frozen=True, eq=False)
class MinKernel(_Chain):
    """V[j,k] = s[min(j,k)] for strictly increasing positive s."""

    s: np.ndarray
    family = "min"
    hypotheses = ("growth",)

    def __post_init__(self):
        object.__setattr__(self, "s", _as_float_array(self.s, "s"))
        _require_increasing_positive(self.s)

    def window_entries(self, window):
        return _min_entries(self.s, window)

    def _chain(self, lo, hi):
        # independent increments of variance s[j] - s[j-1]
        s = _stored(self.s, hi, "s")
        return np.ones((1, hi - lo)), 1.0 / (s[lo:] - s[lo - 1 : -1])

    def diagonal(self, n):
        return _stored(self.s, n, "s").copy()

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
        return _stream_min(self.s, None, rng, rows, n_max, chunk, cols)

    def prediction(self, f_class, alpha, growth=None):
        s = self.s
        return _predict_min_like(
            np.log(s), lambda jj: s[jj - 1], "s[j]", "min", f_class, growth
        )


@_register
@dataclass(frozen=True, eq=False)
class ScaledMinKernel(_Chain):
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
            raise InputError("s and b must have equal length")
        if np.any(self.b <= 0):
            raise InputError("b must be positive")

    def window_entries(self, window):
        b = self.b[window.l : window.l + window.n]
        return _min_entries(self.s, window) / np.outer(b, b)

    _kept_chain = None       # no `_chain`: kept values come from the full stream

    def _window_precision(self, window):
        # the min chain of s divided by b: its precision times b b^T
        b = self.b[window.l : window.l + window.n]
        return MinKernel(self.s)._window_precision(window) * np.outer(b, b)

    def diagonal(self, n):
        return _stored(self.s, n, "s") / self.b[:n] ** 2

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
        return _stream_min(self.s, self.b[:n_max], rng, rows, n_max, chunk, cols)

    def prediction(self, f_class, alpha, growth=None):
        s, b = self.s, self.b
        return _predict_min_like(
            np.log(s), lambda jj: s[jj - 1] / b[jj - 1] ** 2, "W[j,j]", "scaled-min",
            f_class, growth,
        )


@_register
@dataclass(frozen=True, eq=False)
class ExpKernel(_Chain):
    """W[j,k] = exp(-|v[j] - v[k]|) for strictly increasing v."""

    v: np.ndarray
    family = "exp"
    hypotheses = ("growth", "gaps")

    def __post_init__(self):
        object.__setattr__(self, "v", _as_float_array(self.v, "v"))
        if np.any(np.diff(self.v) <= 0):
            raise InputError("v must be strictly increasing")

    def as_scaled_min(self):
        """Equivalent ScaledMinKernel with b = e^v, s = e^{2v}.

        Only valid while e^{2v} stays in range; the direct exp form never
        overflows and is preferred for computation.
        """
        if 2.0 * self.v[-1] > np.log(OVERFLOW_LIMIT):
            raise InputError("e^{2v} overflows; use the exp form directly")
        return ScaledMinKernel(s=np.exp(2.0 * self.v), b=np.exp(self.v))

    def window_entries(self, window):
        if window.l + window.n > self.v.size:
            raise InputError("window extends past supplied v")
        v = self.v[window.l : window.l + window.n]
        return np.exp(-np.abs(np.subtract.outer(v, v)))

    def _chain(self, lo, hi):
        # stationary unit variance; in gap form, finite for any v
        v = _stored(self.v, hi, "v")
        g = v[lo:] - v[lo - 1 : -1]
        return np.exp(-g)[None], 1.0 / -np.expm1(-2.0 * g)

    def diagonal(self, n):
        return np.ones_like(_stored(self.v, n, "v"))

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
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
        yield from _stream_recurrence(
            np.reshape(a, (1, -1)), np.sqrt(1.0 - a * a), state[:, None],
            rng, rows, n_max, chunk, cols,
        )

    def prediction(self, f_class, alpha, growth=None, gaps=None):
        return _predict_exp(self.v, f_class, growth, gaps)


@_register
@dataclass(frozen=True, eq=False)
class AR1(_Chain):
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
            raise InputError("x must lie in (0, 1]")
        if np.any(np.diff(self.x) < 0):
            raise InputError("x must be non-decreasing")

    def diagonal(self, n):
        """U[j,j] for j = 1..n via U[j+1,j+1] = x[j]^2 U[j,j] + 1."""
        if n > self.x.size + 1:
            raise InputError("x too short for requested diagonal")
        d = np.ones(n)
        d[1:] = linear_recurrence(self.x[None, : n - 1] ** 2, d[1:], 1.0)
        return d

    def window_entries(self, window):
        x = self.x
        hi = window.l + window.n
        if hi > x.size + 1:
            raise InputError("window extends past supplied x")
        lo, n = window.l, window.n
        # U[j,k] = U[j,j] prod(x[j..k-1]) for j <= k as a running product along
        # each row from its diagonal: nothing is divided, and a long window
        # underflows to 0 instead of degrading to NaN
        steps = np.tril(np.ones((n, n)), -1)
        steps[:, 1:] += np.triu(np.broadcast_to(x[lo : hi - 1], (n, n - 1)))
        np.fill_diagonal(steps, self.diagonal(hi)[lo:])
        upper = np.triu(np.cumprod(steps, axis=1))
        return upper + np.triu(upper, 1).T

    def _chain(self, lo, hi):
        return _stored(self.x, hi - 1, "x")[None, lo - 1 :], np.ones(hi - lo)

    def path_stream(self, n_max, rng, rows, chunk, cols=None, first_scale=1.0):
        # xi[1] = first_scale g[1], xi[n] = x[n-1] xi[n-1] + g[n]
        a = np.concatenate(([0.0], _stored(self.x, n_max - 1, "x")))
        yield from _stream_recurrence(
            a[None], 1.0, np.zeros((rows, 1)), rng, rows, n_max, chunk, cols, first_scale
        )

    def prediction(self, f_class, alpha, **declared):
        return _predict_ar1(self, f_class, alpha, **declared)


@_register
@dataclass(frozen=True, eq=False)
class AR1Shifted(_Chain, _FirstInnovationScaled):
    """AR1 with the first innovation scaled by delta_tilde."""

    x: np.ndarray
    delta_tilde: float
    family = "ar1_shifted"

    def __post_init__(self):
        object.__setattr__(self, "x", AR1(self.x).x)
        object.__setattr__(self, "delta_tilde", float(self.delta_tilde))
        if not 0.0 < abs(self.delta_tilde) < 1e154:      # delta_tilde^2 stays finite
            raise InputError("delta_tilde must be nonzero with a finite square")

    @cached_property
    def base(self):
        return AR1(self.x)

    _first_scale = property(lambda self: self.delta_tilde)
    _weight = property(lambda self: self.delta_tilde**2 - 1.0)

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
class ARk(_Chain):
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
            raise InputError("p must be positive")
        if self.p.sum() > 1.0 + 1e-12:
            raise InputError("sum(p) must be <= 1")

    k = _order = property(lambda self: self.p.size)
    p_non_increasing = property(lambda self: bool(np.all(np.diff(self.p) <= 0)))
    _kept_chain = None       # order k: kept values come from the full stream

    def window_entries(self, window):
        l, n = window.l, window.n
        ph = phi_recursive(self.p, l + n).values
        # V[i, i+d] = sum_{t <= l+i} phi[t] phi[t+d], summed down t in order for all d
        lagged = np.lib.stride_tricks.sliding_window_view(np.concatenate((ph, np.zeros(n - 1))), n)
        g, edges = np.zeros((1, n)), [*range(0, l, _LAG_ROWS), l, l + n]
        for t0, t1 in zip(edges, edges[1:]):
            g = np.cumsum(np.concatenate((g[-1:], ph[t0:t1, None] * lagged[t0:t1])), axis=0)[1:]
        # reread g padded by one column n to a row: cell (i, i+d) is then g[i, d]
        upper = np.pad(g, ((0, 0), (0, 1))).reshape(-1)[: n * n].reshape(n, n)
        return np.where(np.tri(n, dtype=bool), upper.T, upper)

    def generator(self, size):
        if not self.p_non_increasing:
            raise IdentityError(
                "q-matrix-signs",
                "ARk generator requires non-increasing p; increasing weights can "
                "flip off-diagonal signs",
            )
        return _Chain.generator(self, size)

    def _chain(self, lo, hi):
        # p in every row, unit innovations
        return np.broadcast_to(self.p[:, None], (self.k, hi - lo)), np.ones(hi - lo)

    def diagonal(self, n):
        return np.cumsum(phi_recursive(self.p, n).values ** 2)

    def path_stream(self, n_max, rng, rows, chunk, cols=None, first_scale=1.0):
        # y[n] = sum p[l] y[n-l] + g[n] with empty history; y[1] scaled
        yield from _stream_recurrence(
            self.p[:, None], 1.0, np.zeros((rows, self.k)), rng, rows, n_max, chunk,
            cols, first_scale,
        )

    def prediction(self, f_class, alpha, f_sqrt_small=False):
        return _predict_ark(self.p, f_class, alpha, f_sqrt_small)


@_register
@dataclass(frozen=True, eq=False)
class ARkGen(_Chain, _FirstInnovationScaled):
    """ARk with first innovation g[1]/a; kernel gains ((1-a^2)/a^2) phi phi^T."""

    p: np.ndarray
    a_sq: float
    family = "ark_gen"

    def __post_init__(self):
        object.__setattr__(self, "p", ARk(self.p).p)
        object.__setattr__(self, "a_sq", float(self.a_sq))
        if self.a_sq <= 0:
            raise InputError("a_sq must be positive")

    @cached_property
    def base(self):
        return ARk(self.p)

    _first_scale = property(lambda self: 1.0 / np.sqrt(self.a_sq))
    _weight = property(lambda self: (1.0 - self.a_sq) / self.a_sq)
    _order, _kept_chain = ARk._order, ARk._kept_chain
    p_non_increasing = ARk.p_non_increasing
    generator = ARk.generator

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
            raise InputError("k, l must be distinct 1-based indices")

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
            raise InputError("bump indices outside generator truncation")
        Q[self.k - 1, self.l - 1] += self.b
        return Q, max(band, abs(self.k - self.l))

    def _window_precision(self, window):
        # E(k, l) in the window block of the Schur complement that inverts a
        # window holding k and l: the base's precision less b at (k, l)
        ki, li = self.k - window.l - 1, self.l - window.l - 1
        inside = 0 <= ki < window.n and 0 <= li < window.n
        P = self.base._window_precision(window) if inside else None
        if P is not None:
            P[ki, li] -= self.b
        return P

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
            raise InputError("step_rates offsets must be nonzero")
        if not all(0.0 <= r < np.inf for r in rates.values()):
            raise InputError("step_rates must be finite and nonnegative")
        if sum(rates.values()) <= 0:
            raise InputError("step_rates need at least one positive rate")
        object.__setattr__(self, "step_rates", rates)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "radius", int(self.radius))
        if not 0.0 < self.beta < np.inf:
            raise InputError("beta must be finite and positive")
        if self.radius < 1:
            raise InputError("radius must be >= 1")

    def window_entries(self, window):
        raise InputError("killed_walk has no kernel windows; use killed_walk_potential")

    def generator(self, size):
        # the whole lattice only; 0 - M keeps +0.0 off the band
        self._require_sites(size)
        band = max(abs(d) for d in self.step_rates)
        return 0.0 - _band_matrix(_walk_band(self)), band

    def _require_sites(self, n, l=0):
        if l != 0 or n != 2 * self.radius + 1:
            raise InputError(f"killed_walk needs n = {2 * self.radius + 1} sites from l = 0")
        return n

    def diagonal(self, n):
        self._require_sites(n)
        return np.diag(self._potential.kernel.entries).copy()

    @cached_property
    def _potential(self):
        # `killed_walk_potential`, solved once: `predict` reads its u00 and
        # the band its diagonal
        size = 2 * self.radius + 1
        U = np.linalg.solve(_band_matrix(_walk_band(self)), np.eye(size))
        sites = np.arange(-self.radius, self.radius + 1)
        interior = np.abs(sites) <= self.radius // 2
        row_sums = U.sum(axis=1)
        for a in (U, sites, interior, row_sums):
            a.flags.writeable = False
        diag, u00 = np.diag(U), U[self.radius, self.radius]
        return KilledWalkResult(
            kernel=DenseKernelWindow(Window(0, size), U, self, labels=sites),
            row_sums=row_sums,
            interior=interior,
            max_row_sum_gap=float(np.abs(row_sums[interior] - 1.0 / self.beta).max()),
            max_diag_gap=float(np.abs(diag[interior] - u00).max()),
        )

    def path_stream(self, n_max, rng, rows, chunk, cols=None):
        # paths F^{-1} g, F^T F = beta I - G from the upper half of its band, one
        # chunk: covariance U exactly (Rue & Held, Gaussian Markov Random Fields, 2.4)
        size = self._require_sites(n_max)
        rates = self.step_rates
        if any(r != rates.get(-d, 0.0) for d, r in rates.items()):
            raise InputError("sample_gaussian needs a symmetric kernel family")
        band = _walk_band(self)
        factor = cholesky_banded(band[: band.shape[0] // 2 + 1])

        def filt(g, j0, r):      # one triangular band solve, in place on g
            if g.size == 0:      # an empty right-hand side corrupts the heap
                return g
            return lapack.dtbtrs(factor, g.T, overwrite_b=1)[0].T

        return _filtered_chunks(rng, rows, size, size, filt, cols)

    def prediction(self, f_class, alpha):
        if f_class != "zero":
            return NoTheorem("the killed walk is covered for f = 0 only")
        return _predict_killed_walk(self._potential.u00)


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
        raise InputError("k and l must lie inside the kernel window")
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


def _walk_band(spec):
    """beta I - G on {-R..R} from the rates, in `scipy.linalg` general band
    storage band[w + i - j, j]: w is the widest offset, capped at 2R, since a
    longer jump leaves the lattice, is killed, and adds to the diagonal only."""
    size = 2 * spec.radius + 1
    w = min(max(abs(d) for d in spec.step_rates), size - 1)
    band = np.zeros((2 * w + 1, size))
    band[w] = spec.beta + sum(spec.step_rates.values())
    for d, r in spec.step_rates.items():
        if r != 0.0 and abs(d) < size:     # G[i, i + d] = r
            band[w - d, max(d, 0) : size + min(d, 0)] = -r
    return band


def _band_matrix(band):
    # the dense square matrix of a general band store with half widths w, w
    w, size = band.shape[0] // 2, band.shape[1]
    M = np.zeros((size, size))
    for d in range(-w, w + 1):         # M[i, i + d] = band[w - d, i + d]
        np.fill_diagonal(M[max(-d, 0) :, max(d, 0) :], band[w - d, max(d, 0) : size + min(d, 0)])
    return M


# ---------------------------------------------------------------------------
# window inverses
# ---------------------------------------------------------------------------

def _checked_inverse(U, inv=None):
    """Read-only inverse of a kernel window and its residual max |inv U - I|.

    A DenseKernelWindow answers with its `inverse`. For a matrix, `inv` is
    a closed inverse to check, or None for a dense solve, which only bare
    matrices and rank-one windows that miss k or l take. Every inverse is
    refused when the window is singular, when ||U||_1 ||U^{-1}||_1 exceeds
    CONDITION_LIMIT, or when the residual exceeds DENSE_CHECK_TOL
    max(1, cond/100); no family has a check of its own.
    """
    if isinstance(U, DenseKernelWindow):
        return U.inverse
    K = np.asarray(U, dtype=float)
    eye = np.eye(K.shape[0])
    if inv is None:
        try:
            inv = np.linalg.solve(K, eye)
        except np.linalg.LinAlgError as exc:
            raise IdentityError("window-inverse-identity", f"singular window: {exc}")
    cond = check("window-inverse-identity", np.linalg.norm(K, 1) * np.linalg.norm(inv, 1),
                 CONDITION_LIMIT, "condition estimate")
    gap = check("window-inverse-identity", float(np.abs(inv @ K - eye).max()),
                DENSE_CHECK_TOL * max(1.0, cond / 1e2), "inverse residual")
    inv.flags.writeable = False
    return inv, gap


def window_inverse(spec, window):
    """Checked inverse of the kernel window (`DenseKernelWindow.inverse`)."""
    return build_kernel(spec, window).inverse[0]


# ---------------------------------------------------------------------------
# duality and sign-structure reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    checks: dict            # name -> max interior residual
    excluded_rows: int
    worst: tuple            # (check name, row label, residual)
    tol: float
    generator: GeneratorMatrix


def verify_duality(spec, window):
    """Residuals of the kernel/generator dualities on a truncation.

    Runs Q U + I on rows whose band lies inside the truncation, the band
    factorization check for ARk, and the kernel-times-generator identity on
    the columns it is exact for. Boundary rows/columns are counted, not
    asserted. The report keeps the generator it checked.
    """
    size = window.l + window.n
    G = build_generator(spec, size)
    U = build_kernel(spec, Window(0, size)).entries
    interior, eye = G.interior_rows, np.eye(size)
    # (name, |residual|, axis of the interior labels); U Q is exact on columns
    # whose band lies inside, a mirror of Q U but for rank-one updates
    parts = [
        ("generator-times-kernel", np.abs(G.entries @ U + eye)[interior, :], 0),
        ("kernel-times-generator", np.abs(U @ G.entries + eye)[:, interior], 1),
    ]
    if isinstance(spec, ARk):      # the band is k, so interior rows are 0..size-k-1
        L = ark_band_factor(spec, size)
        parts.append(("band-factorization", np.abs(L.T @ L + G.entries)[
            np.ix_(interior, interior)], 0))
    # a NaN residual ranks above every number, so the check refuses it
    checks, worst, rank = {}, ("", -1, 0.0), lambda v: (np.isnan(v), v)
    for name, sub, axis in parts:
        checks[name] = float(sub.max()) if sub.size else 0.0
        if sub.size and (rank(checks[name]) > rank(worst[2]) or not worst[0]):
            at = np.unravel_index(np.argmax(sub), sub.shape)[axis]
            worst = (name, int(interior[at]) + 1, checks[name])
    return DualityReport(
        checks=checks, excluded_rows=size - interior.size, worst=worst,
        tol=DUALITY_TOL, generator=G,
    )


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


def check_q_matrix(G):
    """Sign-pattern and row-sum diagnostics for a generator truncation."""
    Q = G.entries
    diag = np.diag(Q)
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    violations = []
    diag_ok = bool(np.all(diag < 0))
    if not diag_ok:
        violations.append(("diagonal", int(np.argmax(diag >= 0)) + 1))
    off_ok = bool(np.all(off >= -Q_SIGN_TOL))
    if not off_ok:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        violations.append(("off-diagonal", (int(i) + 1, int(j) + 1)))
    rs = G.row_sums
    interior = G.interior_rows
    rows_ok = bool(np.all(rs[interior] <= Q_SIGN_TOL)) if interior.size else True
    if not rows_ok:
        violations.append(("row-sum", int(interior[np.argmax(rs[interior] > Q_SIGN_TOL)]) + 1))
    norm = float(np.abs(Q).sum(axis=1).max())
    bounded = (
        bool(np.all(-rs[interior] >= Q_BOUNDED_THRESHOLD)) if interior.size else False
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

    @property
    def ok(self):
        return self.diag_nonnegative and self.offdiag_nonpositive and self.row_sums_nonnegative


def check_inverse_m_matrix(entries):
    """Test the M-matrix sign pattern of a window's checked inverse."""
    inv = _checked_inverse(entries)[0]
    tol = M_SIGN_TOL * max(1.0, np.abs(inv).max())
    off = inv.copy()
    np.fill_diagonal(off, 0.0)
    return InverseMReport(
        diag_nonnegative=bool(np.all(np.diag(inv) >= -tol)),
        offdiag_nonpositive=bool(np.all(off <= tol)),
        row_sums_nonnegative=bool(np.all(inv.sum(axis=1) >= -tol)),
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

    Solves (beta I - G) U = I, expanded from the band `_walk_band` that the
    stream factors, with absorbing truncation. Away from the boundary the row
    sums approach 1/beta and the diagonal is flat; both gaps shrink as R grows.
    The result is solved once per spec and kept on it, with read-only arrays.
    """
    return spec._potential


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
    if n < 2:
        raise InputError("decay envelope needs a window of n >= 2")
    # drop the largest distances, which only a corner entry attains
    dmax = max(2, (3 * n) // 4)
    envelope = np.array([
        np.abs(np.concatenate((np.diagonal(U, d), np.diagonal(U, -d)))).max()
        for d in range(dmax)
    ])
    ok = bool(np.all(np.diff(envelope) <= 1e-12))
    logs = np.log(np.maximum(envelope, 1e-300))
    slope, intercept = np.polyfit(np.arange(dmax), logs, 1)
    return float(np.exp(intercept)), float(-slope), ok
