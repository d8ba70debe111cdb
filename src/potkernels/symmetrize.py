"""Extension and symmetrization of a perturbed kernel window.

A window U of a potential kernel and a nonnegative perturbation f on the
same labels extend to the (n+1) x (n+1) kernel

    K[0,0] = 1,  K[j,0] = 1,  K[0,k] = f[k],  K[j,k] = U[j,k] + f[k],

whose inverse A has a closed form in terms of the window inverse. The
geometric-mean symmetrization of A, its inverse K_isymi, and the scalars
rho and nu quantify how far the extension is from a symmetric kernel; the
sandwich weights translate that distance into a comparison of laws.
"""

from dataclasses import dataclass

import numpy as np

from .identities import IdentityError, InputError
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
    if sign_k != sign_u or abs(logdet_k - logdet_u) > EXTEND_DET_TOL * max(
        1.0, abs(logdet_u)
    ):
        raise IdentityError(
            "extended-kernel-determinant",
            f"log det K_ext = {logdet_k!r} but log det U = {logdet_u!r}",
        )
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


def _symmetrize_sign_checked(A):
    tiny = 1e-12 * max(1.0, np.abs(A).max())
    # NaN is never <= tiny, so a NaN pair is kept and symmetrizes to NaN
    small = np.abs(A) <= tiny
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

    The inverse A is assembled from the closed form and cross-checked
    against dense inversion of K_ext; nu is computed both as the
    determinant ratio det(A_sym)/det(A) and through the closed form
    (1 + rho) - m U m^T, and the two must agree. The window inverse is
    the checked one of `kernels`: the closed chain precision of an
    autoregressive family's window, else a dense solve.

    An entry of c = U^{-T} f or r = U^{-1} 1 within its dot-product error
    bound, n eps (|U^{-1}|^T f)_i or n eps (|U^{-1}| 1)_i (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1), is zero before
    anything reads it; m = sqrt(c r) would lift its round-off to 1e-7 in nu.
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
    Uinv = _checked_inverse(U_window)[0]

    c = Uinv.T @ f
    r = Uinv.sum(axis=1)
    err, absinv = n * np.finfo(float).eps, np.abs(Uinv)
    c[np.abs(c) <= err * (absinv.T @ f)] = 0.0
    r[np.abs(r) <= err * absinv.sum(axis=1)] = 0.0
    rho = float(c.sum())

    A = np.empty((n + 1, n + 1))
    A[0, 0] = 1.0 + rho
    A[0, 1:] = -c
    A[1:, 0] = -r
    A[1:, 1:] = Uinv
    dense = np.linalg.inv(K_ext)
    gap = np.abs(A - dense).max()
    if gap > A_CLOSED_FORM_TOL * max(1.0, np.abs(A).max()):
        raise IdentityError(
            "extension-inverse-closed-form",
            f"closed-form inverse differs from dense inversion by {gap:.3e}",
        )
    row_sums = A.sum(axis=1)
    if abs(row_sums[0] - 1.0) > ROW_SUM_TOL or (
        n and np.abs(row_sums[1:]).max() > ROW_SUM_TOL * max(1.0, np.abs(A).max())
    ):
        raise IdentityError(
            "extension-row-sums",
            "row sums of the extended inverse must vanish except the first",
        )
    if c.min() < -BOUND_SLACK * max(1.0, np.abs(c).max()):
        raise IdentityError(
            "inverse-m-matrix",
            f"negative coupling c = {float(c.min())!r}: f is not excessive "
            "for this kernel",
        )
    if r.min() < -BOUND_SLACK * max(1.0, np.abs(r).max()):
        raise IdentityError(
            "inverse-m-matrix",
            f"negative window-inverse row sum {float(r.min())!r}",
        )

    A_sym = _symmetrize_sign_checked(A)
    sign_s, logdet_s = np.linalg.slogdet(A_sym)
    sign_a, logdet_a = np.linalg.slogdet(A)
    if sign_s <= 0 or sign_a <= 0:
        raise IdentityError(
            "nu-two-routes", "determinants must stay positive for the ratio"
        )
    nu_det = float(np.exp(logdet_s - logdet_a))
    m = np.sqrt(np.clip(c, 0.0, None) * np.clip(r, 0.0, None))
    nu_closed = (1.0 + rho) - float(m @ U @ m)
    if abs(nu_det - nu_closed) > NU_TOL * max(1.0, nu_closed):
        raise IdentityError(
            "nu-two-routes",
            f"determinant ratio {nu_det!r} vs closed form {nu_closed!r}",
        )
    nu = nu_closed
    if not (1.0 - NU_TOL <= nu <= 1.0 + rho + NU_TOL * max(1.0, rho)):
        raise IdentityError("nu-bounds", f"nu = {nu!r} outside [1, 1 + rho]")

    a_vec = (U @ m) / np.sqrt(nu)
    cap = np.sqrt(f)
    if np.any(a_vec < -BOUND_SLACK) or np.any(
        a_vec > cap + BOUND_SLACK * np.maximum(1.0, cap)
    ):
        raise IdentityError(
            "a-vector-bound", "a_vec must lie within [0, sqrt(f)] entrywise"
        )

    K_isymi = np.linalg.inv(A_sym)
    block_gap = np.abs(K_isymi[1:, 1:] - (U + np.outer(a_vec, a_vec))).max()
    if block_gap > BLOCK_TOL * max(1.0, scale_u):
        raise IdentityError(
            "isymi-block-identity",
            f"bottom block differs from U + a a^T by {block_gap:.3e}",
        )
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
    if lower <= 1.0 - linear - 1e-15:
        raise IdentityError(
            "sandwich-linear-bound",
            f"(1/(1+rho))^alpha = {lower!r} undercuts 1 - 2 alpha rho",
        )
    return SandwichWeights(lower=lower, slack=slack, linear_slack=linear)
