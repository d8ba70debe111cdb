"""Extension and symmetrization of a perturbed kernel window.

A window U of a potential kernel and a nonnegative perturbation f on the
same labels extend to the (n+1) x (n+1) kernel

    K[0,0] = 1,  K[j,0] = 1,  K[0,k] = f[k],  K[j,k] = U[j,k] + f[k],

whose inverse A has a closed form in terms of the window inverse. The
geometric-mean symmetrization of A, its inverse K_isymi, and the scalars
rho and nu quantify how far the extension is from a symmetric kernel; the
sandwich weights translate that distance into a comparison of laws.
Both closed-form inverses are checked by residual products against the
matrices they invert, not by dense inversion.
"""

from dataclasses import dataclass

import numpy as np

from .identities import IdentityError, InputError, check
from .kernels import DenseKernelWindow, _checked_inverse

EXTEND_DET_TOL = 1e-10
A_CLOSED_FORM_TOL = 1e-9
ROW_SUM_TOL = 1e-8
NU_TOL = 1e-8
BLOCK_TOL = 1e-8
BOUND_SLACK = 1e-9


def _as_matrix(U_window):
    if isinstance(U_window, DenseKernelWindow):
        U_window = U_window.entries
    U = np.asarray(U_window, dtype=float)
    if not np.all(np.isfinite(U)):
        raise InputError("U_window must be finite")
    return U


def _as_values(f_window, n):
    values = np.asarray(getattr(f_window, "values", f_window), dtype=float)
    if values.shape != (n,):
        raise InputError(f"f_window must have length {n}")
    if np.any(values < 0):
        raise InputError("f_window must be nonnegative")
    if not np.all(np.isfinite(values)):
        raise InputError("f_window must be finite")
    return values


def extend(U_window, f_window):
    """Extended kernel with a constant first column and f along the first row.

    Subtracting the first row from every other row shows the determinant
    equals det(U); that identity is asserted in log space.
    """
    U = _as_matrix(U_window)
    n = U.shape[0]
    f = _as_values(f_window, n)
    K = np.empty((n + 1, n + 1))
    K[0, 0] = 1.0
    K[1:, 0] = 1.0
    K[0, 1:] = f
    K[1:, 1:] = U + f[None, :]
    sign_k, logdet_k = np.linalg.slogdet(K)
    sign_u, logdet_u = np.linalg.slogdet(U)
    gap = abs(logdet_k - logdet_u) if sign_k == sign_u else np.inf
    check("extended-kernel-determinant", gap, EXTEND_DET_TOL * max(1.0, abs(logdet_u)),
          "gap between log det K_ext and log det U (inf if the signs differ)")
    return K


@dataclass(frozen=True)
class SymmetrizationLedger:
    K_ext: np.ndarray
    A: np.ndarray
    rho: float
    A_sym: np.ndarray
    nu: float
    a_vec: np.ndarray
    K_isymi: np.ndarray
    c_vec: np.ndarray          # couplings: sum_i c[i] U[i,j] = f[j]
    r_vec: np.ndarray          # window-inverse row sums: sum_i r[i] U[i,j] = 1
    m_vec: np.ndarray          # sqrt(c * r)


def _extension_inverse(Uinv, c, r, rho):
    """Closed-form inverse of K_ext: [[1 + rho, -c^T], [-r, U^{-1}]]."""
    n = c.size
    A = np.empty((n + 1, n + 1))
    A[0, 0] = 1.0 + rho
    A[0, 1:] = -c
    A[1:, 0] = -r
    A[1:, 1:] = Uinv
    return A


def _isymi(U, a_vec, nu):
    """Closed-form inverse of A_sym = [[1 + rho, -m^T], [-m, U^{-1}]], whose
    Schur complement of the window block is nu = 1 + rho - m U m^T:
    [[1/nu, a^T/sqrt(nu)], [a/sqrt(nu), U + a a^T]] with a = U m / sqrt(nu)."""
    n = a_vec.size
    K = np.empty((n + 1, n + 1))
    K[0, 0] = 1.0 / nu
    K[0, 1:] = K[1:, 0] = a_vec / np.sqrt(nu)
    K[1:, 1:] = U + np.outer(a_vec, a_vec)
    return K


def _inverse_gap(X, K, block=slice(None)):
    """max |X (K X - I)| over `block` x `block`, the first-order gap between
    X and K^{-1} there.

    With E = X K - I, X - K^{-1} = (I + E)^{-1} E X exactly (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 14), and E X = X (K X - I).
    It takes two matrix products and no factorization.
    """
    R = K @ X
    R[np.diag_indices_from(R)] -= 1.0
    return float(np.abs(X[block] @ R[:, block]).max())


def _symmetrize_sign_checked(A, inverse_err=0.0):
    # an entry counts as zero within 1e-12 max|A|, and one of the window block
    # also within inverse_err, the error bound of the window inverse
    absA = np.abs(A)
    tiny = 1e-12 * max(1.0, absA.max())
    # NaN is never <= tiny, so a NaN pair is kept and symmetrizes to NaN
    small = absA <= max(tiny, inverse_err)
    small[0], small[:, 0] = absA[0] <= tiny, absA[:, 0] <= tiny
    kept = ~(small | small.T)
    positive = A > 0
    bad = np.argwhere(np.triu(kept & (positive | positive.T), 1))
    if bad.size:
        i, j = bad[0]
        x, y = A[i, j], A[j, i]
        if x * y < 0:
            raise IdentityError(
                "inverse-m-matrix",
                f"off-diagonal pair ({i},{j}) has mismatched signs "
                f"({float(x)!r}, {float(y)!r})",
            )
        raise IdentityError(
            "inverse-m-matrix",
            f"positive off-diagonal pair ({i},{j}) breaks the "
            "M-matrix sign pattern",
        )
    # a skipped pair may have a negative product; np.where drops its root
    with np.errstate(invalid="ignore"):
        A_sym = np.where(kept, -np.sqrt(A * A.T), 0.0)
    np.fill_diagonal(A_sym, np.diag(A))
    return A_sym


def analyze(K_ext, U_window, f_window):
    """Full symmetrization ledger for an extended kernel.

    The inverse A is assembled from the closed form and checked by its
    residual against K_ext, the first-order gap max|A (K_ext A) - A|; nu
    is computed both as the determinant ratio det(A_sym)/det(A) and
    through the closed form (1 + rho) - m U m^T, and the two must agree.
    K_isymi is the Schur-complement closed form of the inverse of A_sym,
    checked the same way on its bottom block. The window inverse is the
    checked one of `kernels`: the closed chain precision of an
    autoregressive family's window, else a dense solve. No other inverse is
    formed.

    An entry of c = U^{-T} f or r = U^{-1} 1 within its dot-product error
    bound, n eps (|U^{-1}|^T f)_i or n eps (|U^{-1}| 1)_i (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1), is zero before
    anything reads it; m = sqrt(c r) would lift its round-off to 1e-7 in nu.
    Likewise the M-matrix sign pattern reads an entry of the window inverse
    only above its error bound, the measured residual of `_checked_inverse`
    times ||U^{-1}||_1: a dense solve of a window of condition 10^6 leaves
    round-off of either sign beyond the band.
    """
    U = _as_matrix(U_window)
    n = U.shape[0]
    f = _as_values(f_window, n)
    K_ext = np.asarray(K_ext, dtype=float)
    if K_ext.shape != (n + 1, n + 1):
        raise InputError("K_ext does not match the window size")
    scale_u = np.abs(U).max()
    if np.abs(U - U.T).max() > 1e-10 * max(1.0, scale_u):
        raise InputError("U_window must be symmetric")
    Uinv, resid = _checked_inverse(U_window)

    c = Uinv.T @ f
    r = Uinv.sum(axis=1)
    err, absinv = n * np.finfo(float).eps, np.abs(Uinv)
    c[np.abs(c) <= err * (absinv.T @ f)] = 0.0
    r[np.abs(r) <= err * absinv.sum(axis=1)] = 0.0
    rho = float(c.sum())

    A = _extension_inverse(Uinv, c, r, rho)
    scale_a = max(1.0, np.abs(A).max())
    check("extension-inverse-closed-form", _inverse_gap(A, K_ext),
          A_CLOSED_FORM_TOL * scale_a, "first-order gap between A and the inverse of K_ext")
    row_sums = A.sum(axis=1)
    check("extension-row-sums", abs(row_sums[0] - 1.0), ROW_SUM_TOL, "first row sum minus 1")
    check("extension-row-sums", np.abs(row_sums[1:]).max(initial=0.0),
          ROW_SUM_TOL * scale_a, "largest later row sum")
    check("inverse-m-matrix", -c.min(), BOUND_SLACK * max(1.0, np.abs(c).max()),
          "f is not excessive for this kernel: negative coupling -min(c)")
    check("inverse-m-matrix", -r.min(), BOUND_SLACK * max(1.0, np.abs(r).max()),
          "negative window-inverse row sum -min(r)")

    # inv - U^{-1} = (inv U - I) U^{-1}, so no entry of inv is off by more
    # than resid ||U^{-1}||_1: the sign pattern reads nothing below that
    A_sym = _symmetrize_sign_checked(A, resid * absinv.sum(axis=0).max())
    sign_s, logdet_s = np.linalg.slogdet(A_sym)
    sign_a, logdet_a = np.linalg.slogdet(A)
    if sign_s <= 0 or sign_a <= 0:
        raise IdentityError(
            "nu-two-routes", "determinants must stay positive for the ratio"
        )
    nu_det = float(np.exp(logdet_s - logdet_a))
    m = np.sqrt(np.clip(c, 0.0, None) * np.clip(r, 0.0, None))
    nu = (1.0 + rho) - float(m @ U @ m)
    check("nu-two-routes", abs(nu_det - nu), NU_TOL * max(1.0, nu),
          "gap between the determinant ratio and the closed form")
    check("nu-bounds", 1.0 - nu, NU_TOL, "1 - nu")
    check("nu-bounds", nu - (1.0 + rho), NU_TOL * max(1.0, rho), "nu - (1 + rho)")

    a_vec = (U @ m) / np.sqrt(nu)
    cap = np.sqrt(f)
    check("a-vector-bound", np.maximum(-a_vec, (a_vec - cap) / np.maximum(1.0, cap)).max(),
          BOUND_SLACK, "distance of a_vec outside [0, sqrt(f)] relative to max(1, sqrt(f))")

    K_isymi = _isymi(U, a_vec, nu)
    check("isymi-block-identity", _inverse_gap(K_isymi, A_sym, block=slice(1, None)),
          BLOCK_TOL * max(1.0, scale_u),
          "first-order gap between the bottom block of K_isymi and of the inverse of A_sym")
    return SymmetrizationLedger(
        K_ext=K_ext,
        A=A,
        rho=rho,
        A_sym=A_sym,
        nu=nu,
        a_vec=a_vec,
        K_isymi=K_isymi,
        c_vec=c,
        r_vec=r,
        m_vec=m,
    )


@dataclass(frozen=True)
class SandwichWeights:
    lower: float               # (1/(1+rho))^alpha
    slack: float               # 1 - lower
    linear_slack: float        # 2 alpha rho, an upper bound on slack

    def __iter__(self):
        return iter((self.lower, self.slack))


def sandwich_factor(alpha, rho):
    """Probability weights comparing the true law to the symmetrized one.

    The lower weight multiplies events under the symmetrized kernel; the
    slack bounds the total-variation style correction, and 2*alpha*rho is
    its linearization, valid as an upper bound for small rho.
    """
    if not alpha > 0:
        raise InputError("alpha must be positive")
    if rho < 0:
        raise InputError("rho must be nonnegative")
    lower = (1.0 / (1.0 + rho)) ** alpha
    slack = 1.0 - lower
    linear = 2.0 * alpha * rho
    check("sandwich-linear-bound", (1.0 - linear) - lower, 1e-15,
          "1 - 2 alpha rho - (1/(1+rho))^alpha")
    return SandwichWeights(lower=lower, slack=slack, linear_slack=linear)
