"""Generating-function analytics for the AR(k) weight sequence p.

Everything is driven by P(x) = 1 - sum(p[l] x^l): its roots, the partial
fractions of x/P(x), the impulse-response coefficients phi, and the limit
variance c* = sum(phi^2). Complex arithmetic is used throughout; the final
real projections are asserted, not assumed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import comb

from .identities import IdentityError, InputError

ROOT_CLUSTER_RADIUS = 1e-7
ROOT_RESIDUAL_TOL = 1e-10
REAL_PROJECTION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
SERIES_EPS = 1e-15
AGREEMENT_TOL = 1e-9

# seed of the interior points that the partial fractions are checked at
RECONSTRUCTION_SEED = 20


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InputError("p must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(p)):
        raise InputError("p must be finite")
    if np.any(p <= 0):
        raise InputError("p must be positive")
    if p.sum() > 1.0 + 1e-12:
        raise InputError("sum(p) must be <= 1")
    return p


def _poly_coeffs(p):
    # ascending coefficients of P(x) = 1 - sum p[l] x^l
    return np.concatenate(([1.0], -p))


def _poly_eval(coeffs, x):
    powers = np.power.outer(x, np.arange(len(coeffs)))
    return powers @ coeffs


@dataclass(frozen=True)
class PhiSequence:
    """phi[1..N] (stored 0-based); psi and c1 are set when sum(p) = 1."""

    values: np.ndarray
    c1: float = None
    psi: np.ndarray = None


@dataclass(frozen=True)
class RootSet:
    roots: np.ndarray            # distinct roots
    multiplicities: np.ndarray
    classification: str          # all-outside-unit-disk | unit-root-simple
    residuals: np.ndarray        # |P(q)| per distinct root


@dataclass(frozen=True)
class PartialFractionTable:
    root_set: RootSet
    B: tuple                     # B[l][j-1] = B_j(q_l) per distinct root
    constant: float = 0.0        # polynomial part of x/P; nonzero only for k=1

    def coefficient(self, l, j):
        """a[l,j] in x/P(x) = constant + sum a[l,j]/(x - q_l)^j."""
        q = self.root_set.roots[l]
        return (-1.0) ** j * self.B[l][j - 1] * q**j


@dataclass(frozen=True)
class CStarResult:
    value: float                 # series route
    direct: float                # truncated sum of phi^2
    l1: float
    l1_expected: float
    lower: float
    upper: float


def linear_recurrence(c, u, history):
    """y[..., j] = sum_i c[i-1, j] y[..., j-i] + u[..., j], in place on u.

    c is (k, n), or (k, 1) for coefficients constant in j, whose band is
    one column repeated; history holds y[..., -k:], the k values before
    j = 0, oldest first, and broadcasts against u's leading axes. The
    history is added into the first k inputs, and then one unit
    lower-triangular band solve L y = u runs, with L[j, j-i] = -c[i-1, j]:
    LAPACK's `dtbtrs` on L^T in upper band storage with trans="T", so each
    y[j] is u[j] less a dot product of the band with the k values before
    it (Rue & Held, Gaussian Markov Random Fields, 2005, ch. 2). At k = 1
    that is u[j] + c[j] y[j-1], the plain recurrence bit for bit. The band
    is held in Fortran order and u solved as u.T, so a C-contiguous u is
    solved in place, with no copy. An empty u is returned untouched: LAPACK
    must not see an empty right-hand side, which corrupts the heap.
    """
    if u.size == 0:
        return u
    k, n = len(c), u.shape[-1]
    c = np.broadcast_to(c, (k, n))
    if c.strides[1] == 0:      # constant in j: one band column, repeated
        band = np.repeat(np.append(-c[::-1, 0], 1.0)[None], n, axis=0).T
    else:                      # row by row: a (k + 1)-wide copy loops per column
        band = np.empty((k + 1, n), order="F")
        band[k] = 1.0
        for i in range(1, k + 1):
            np.negative(c[i - 1], out=band[k - i])
    history = np.broadcast_to(history, u.shape[:-1] + (k,))
    for i in range(1, k + 1):
        m = min(i, n)          # y[j-i] is history for j < i
        u[..., :m] += c[i - 1, :m] * history[..., k - i : k - i + m]
    return lapack.dtbtrs(band, u.T, trans="T", diag="U", overwrite_b=1)[0].T


def phi_recursive(p, N):
    """phi[1]=1, phi[n] = sum p[l] phi[n-l] with phi[m]=0 for m <= 0.

    phi is the impulse response of 1/P(z), one `linear_recurrence` solve.
    """
    p = _check_p(p)
    if N < 1:
        raise InputError("N must be >= 1")
    impulse = np.zeros(N)
    impulse[0] = 1.0
    return _attach_drift(p, linear_recurrence(p[:, None], impulse, 0.0))


def _attach_drift(p, ph):
    if abs(p.sum() - 1.0) <= 1e-12:
        c1 = 1.0 / float(np.dot(np.arange(1, p.size + 1), p))
        return PhiSequence(values=ph, c1=c1, psi=ph - c1)
    return PhiSequence(values=ph, c1=None, psi=None)


def char_roots(p):
    """Roots of P(x) with multiplicities by clustering, then polishing.

    A root of multiplicity d is found as a simple root of the (d-1)-th
    derivative, so polishing stays well-conditioned at repeated roots.
    """
    p = _check_p(p)
    coeffs = _poly_coeffs(p)
    raw = np.polynomial.polynomial.polyroots(coeffs)
    clusters = []            # [center, count]
    for r in sorted(raw, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(r - c[0]) <= ROOT_CLUSTER_RADIUS * max(1.0, abs(c[0])):
                c[0] = (c[0] * c[1] + r) / (c[1] + 1)
                c[1] += 1
                break
        else:
            clusters.append([r, 1])
    roots = np.array([c[0] for c in clusters])
    mults = np.array([c[1] for c in clusters], dtype=int)

    # ambiguity guard: separate clusters must sit far from the merge radius
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            sep = abs(roots[i] - roots[j])
            if sep < 10 * ROOT_CLUSTER_RADIUS * max(1.0, abs(roots[i])):
                raise IdentityError(
                    "char-roots-location",
                    f"root clusters {roots[i]:.6g} and {roots[j]:.6g} are "
                    "too close to separate; tighten parameters",
                )

    polished = roots.astype(complex)
    for i, (q, d) in enumerate(zip(roots, mults)):
        target = coeffs.astype(complex)
        for _ in range(d - 1):
            target = np.polynomial.polynomial.polyder(target)
        dtarget = np.polynomial.polynomial.polyder(target)
        z = q
        for _ in range(50):
            fz = np.polynomial.polynomial.polyval(z, target)
            dz = np.polynomial.polynomial.polyval(z, dtarget)
            if dz == 0:
                break
            step = fz / dz
            z -= step
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
        polished[i] = z
    roots = polished

    residuals = np.abs(_poly_eval(coeffs, roots))
    if np.any(residuals > ROOT_RESIDUAL_TOL * max(1.0, np.abs(coeffs).max())):
        raise IdentityError(
            "char-roots-location",
            f"polished root residual {residuals.max():.3e} too large",
        )
    psum = p.sum()
    unit = np.abs(roots - 1.0) <= 1e-8
    if abs(psum - 1.0) <= 1e-12:
        if unit.sum() != 1 or mults[unit][0] != 1:
            raise IdentityError(
                "char-roots-location", "sum(p)=1 requires a simple root at 1"
            )
        others = np.abs(roots[~unit])
        if others.size and others.min() <= 1.0:
            raise IdentityError(
                "char-roots-location", "non-unit roots must lie outside the unit disk"
            )
        classification = "unit-root-simple"
    else:
        if np.abs(roots).min() <= 1.0:
            raise IdentityError(
                "char-roots-location",
                "sum(p)<1 requires all roots outside the unit disk",
            )
        classification = "all-outside-unit-disk"
    return RootSet(
        roots=roots,
        multiplicities=mults,
        classification=classification,
        residuals=residuals,
    )


def _series_mul(a, b, order):
    out = np.zeros(order + 1, dtype=complex)
    for i, ai in enumerate(a[: order + 1]):
        hi = min(len(b), order + 1 - i)
        out[i : i + hi] += ai * np.asarray(b[:hi])
    return out


def _series_div(num, den, order):
    # Taylor coefficients of num/den up to the given order; den[0] != 0
    out = np.zeros(order + 1, dtype=complex)
    num = np.asarray(num, dtype=complex)
    for m in range(order + 1):
        acc = num[m] if m < num.size else 0.0
        for i in range(1, m + 1):
            if i < den.size:
                acc -= den[i] * out[m - i]
        out[m] = acc / den[0]
    return out


def partial_fractions(p):
    """Coefficients B_j(q_l) of x/P(x) = sum over B via local expansions.

    At each root the deflated quotient is expanded by exact series division
    of polynomial coefficients; no numerical differentiation is involved.
    The reconstruction is verified at random interior points.
    """
    p = _check_p(p)
    rs = char_roots(p)
    lead = -p[-1]            # leading coefficient of P
    roots, mults = rs.roots, rs.multiplicities
    B = []
    for l, (q, d) in enumerate(zip(roots, mults)):
        # denominator series: lead * prod_{l' != l} (u + (q - q_l'))^{d_l'}
        den = np.array([lead], dtype=complex)
        for l2, (q2, d2) in enumerate(zip(roots, mults)):
            if l2 == l:
                continue
            factor = np.array([q - q2, 1.0], dtype=complex)
            for _ in range(d2):
                den = _series_mul(den, factor, d - 1)
        num = np.array([q, 1.0], dtype=complex)
        g = _series_div(num, den, d - 1)
        # principal part a[l,j] is the coefficient of u^{d-j}
        a = g[::-1]          # a[j-1] = a[l,j], j = 1..d
        Bl = np.array([(-1.0) ** j * a[j - 1] / q**j for j in range(1, d + 1)])
        B.append(Bl)
    # x/P is proper for k >= 2; at k = 1 a constant polynomial part remains
    constant = -1.0 / float(p[0]) if p.size == 1 else 0.0
    table = PartialFractionTable(root_set=rs, B=tuple(B), constant=constant)

    rng = np.random.default_rng(RECONSTRUCTION_SEED)
    pts = (rng.uniform(-0.95, 0.95, 20) + 1j * rng.uniform(-0.95, 0.95, 20)) / np.sqrt(2)
    coeffs = _poly_coeffs(p)
    direct = pts / _poly_eval(coeffs, pts)
    recon = np.full_like(pts, constant)
    for l, (q, d) in enumerate(zip(roots, mults)):
        for j in range(1, d + 1):
            recon += table.coefficient(l, j) / (pts - q) ** j
    gap = np.abs(direct - recon).max()
    if gap > RECONSTRUCTION_TOL * max(1.0, np.abs(direct).max()):
        raise IdentityError(
            "partial-fraction-reconstruction",
            f"reconstruction error {gap:.3e} at sample points",
        )
    return table


def _truncation_index(r, d_max, eps=SERIES_EPS):
    # smallest n with r^n n^d_max < eps; r < 1
    if r >= 1.0:        # char_roots puts every root outside the unit disk
        raise ValueError("series ratio must be < 1")
    n = 16
    while n < 10**7:
        if r**n * n**d_max < eps:
            return n
        n *= 2
    raise IdentityError("phi-closed-form", f"series with ratio {r} converges too slowly")


def phi_closed(p, N):
    """phi[n] = sum_l sum_j B_j(q_l) C(j-1+n, j-1) q_l^{-n} for n = 1..N."""
    p = _check_p(p)
    if N < 1:
        raise InputError("N must be >= 1")
    tbl = partial_fractions(p)
    roots = tbl.root_set.roots
    mults = tbl.root_set.multiplicities
    n = np.arange(1, N + 1)
    acc = np.zeros(N, dtype=complex)
    for l, (q, d) in enumerate(zip(roots, mults)):
        inv_pow = np.power(1.0 / q, n)
        for j in range(1, d + 1):
            acc += tbl.B[l][j - 1] * comb(j - 1 + n, j - 1) * inv_pow
    imag = np.abs(acc.imag).max()
    if imag > REAL_PROJECTION_TOL:
        raise IdentityError(
            "phi-closed-form", f"imaginary residue {imag:.3e} after conjugate pairing"
        )
    return _attach_drift(p, acc.real)


def _f_series(j, jp, z_inv):
    # sum_{n>=0} C(j-1+n, j-1) C(jp-1+n, jp-1) z^{-n} for |z| > 1
    r = abs(z_inv)
    N = _truncation_index(r, j + jp - 2 if j + jp > 2 else 1)
    n = np.arange(N)
    terms = comb(j - 1 + n, j - 1) * comb(jp - 1 + n, jp - 1) * np.power(z_inv, n)
    return terms.sum()


def c_star(p):
    """Limit variance c* by two routes, with the l1 identity and bounds.

    Route one pairs the partial-fraction coefficients through the mixed
    series F; route two sums phi[n]^2 directly past the truncation index.
    Requires sum(p) < 1 (otherwise the variance grows linearly).
    """
    p = _check_p(p)
    if abs(p.sum() - 1.0) <= 1e-12:
        raise IdentityError(
            "cstar-two-routes", "sum(p) = 1 makes c* infinite; use c1 instead"
        )
    tbl = partial_fractions(p)
    roots = tbl.root_set.roots
    mults = tbl.root_set.multiplicities

    series = 0.0 + 0.0j
    for l, (q, d) in enumerate(zip(roots, mults)):
        for lp, (qp, dp) in enumerate(zip(roots, mults)):
            for j in range(1, d + 1):
                for jp in range(1, dp + 1):
                    series += (
                        tbl.B[l][j - 1]
                        * tbl.B[lp][jp - 1]
                        * _f_series(j, jp, 1.0 / (q * qp))
                    )
    if abs(series.imag) > REAL_PROJECTION_TOL:
        raise IdentityError(
            "cstar-two-routes", f"imaginary residue {series.imag:.3e} in series route"
        )
    # the n=0 terms of F sum to the squared x^0 coefficient of the proper
    # part, which is -constant; drop it so the series starts at n=1
    value = float(series.real) - tbl.constant**2

    r = float(np.abs(1.0 / roots).max())
    d_max = int(mults.max())
    N = _truncation_index(r, d_max)
    ph = phi_recursive(p, N).values
    direct = float(np.dot(ph, ph))
    if abs(value - direct) > AGREEMENT_TOL * max(1.0, direct):
        raise IdentityError(
            "cstar-two-routes",
            f"series route {value!r} vs direct route {direct!r}",
        )

    l1 = float(ph.sum())
    l1_expected = 1.0 / float(_poly_eval(_poly_coeffs(p), np.array([1.0]))[0])
    if abs(l1 - l1_expected) > AGREEMENT_TOL * max(1.0, l1_expected):
        raise IdentityError(
            "phi-l1-identity", f"sum(phi) = {l1!r} but 1/P(1) = {l1_expected!r}"
        )
    lower = 1.0 + float(p[0]) ** 2
    upper = 1.0 / (1.0 - float(p.sum()) ** 2)
    if not (lower - 1e-12 <= value <= upper + 1e-12):
        raise IdentityError(
            "cstar-bounds", f"c* = {value!r} outside [{lower!r}, {upper!r}]"
        )
    return CStarResult(
        value=value,
        direct=direct,
        l1=l1,
        l1_expected=l1_expected,
        lower=lower,
        upper=upper,
    )
