"""Registry of the named identities and bounds the library checks.

Every number emitted by the CLI, and every structural error raised by the
library, carries one of these keys (or the marker ``"derived"`` for values
that are plain arithmetic on user inputs). The keys are stable: reports from
different versions can be diffed by key.

`IdentityError` names a failed check and `InputError` refuses input outside
a routine's hypotheses, in the config field checker of `kernels` that the
CLI shares and in each module's guards. Any other exception is a bug.
"""

IDENTITIES = {
    # kernel / generator structure
    "min-kernel-definition": "V[j,k] = s[min(j,k)] for a strictly increasing positive s",
    "min-window-inverse": "closed tridiagonal inverse of a min-kernel window",
    "min-inverse-column-sums": "column sums of the min-kernel window inverse vanish except the first, which is 1/s[l+1]",
    "window-inverse-identity": "window_inverse(spec, w) @ build_kernel(spec, w) = I",
    "generator-duality": "Q U = -I on interior rows of a truncation",
    "ark-cholesky-factor": "ARk generator factors as A = L^T L with unit band factor L",
    "ark-interior-row-sums": "interior row sums of the ARk generator A equal (1 - sum(p))^2",
    "ark-window-row-sums": "for sum(p)=1, window-inverse row sums beyond the first k vanish",
    "ark-diagonal-monotone": "ARk kernel diagonal increases monotonically to c*",
    "q-matrix-signs": "generator has negative diagonal, nonnegative off-diagonal, row sums <= 0",
    "inverse-m-matrix": "kernel inverse has nonnegative diagonal, nonpositive off-diagonal, nonnegative row sums",
    "kernel-domination": "U[j,k] <= min(U[j,j], U[k,k]) for symmetric families",
    "diagonal-generator-bound": "U[i,i] >= 1/|Q[i,i]|",
    "banded-kernel-decay": "|U[i,k]| <= C exp(-lam |i-k|) for banded generators with row sums bounded away from 0",
    "shift-admissible-scaled": "Delta <= (b1 s2 - b2 s1)/(b2 - b1) and Delta > -s1 for shifted scaled-min kernels",
    "shift-admissible-ar1": "0 < delta_tilde^2 <= 1/(x1 (1 - x1)) for the shifted AR(1) kernel",
    "shift-admissible-arkgen": "a^2 >= (sum(p) (2 - sum(p)) - sum(p^2))/2 for the generalized ARk kernel",
    "rank-one-admissible": "b < 1/U[l,k] for the rank-one kernel update",
    "rank-one-update": "W = U + b U[:,k] U[l,:] / (1 - b U[k,l])",
    "killed-walk-row-sums": "row sums of the killed-walk potential equal 1/beta away from the truncation boundary",
    "killed-walk-flat-diagonal": "U[j,j] = U[0,0] for the killed walk away from the truncation boundary",
    # excessive / potential structure
    "potential-application": "f = U h with the two-sum closed form on min kernels",
    "potential-upper-bound": "f[k] <= U[k,k] ||h||_1",
    "excessive-ratio-test": "f is excessive iff (f[n]-f[n-1])/(s[n]-s[n-1]) is non-increasing",
    "riesz-decomposition": "excessive f splits as f = f_tilde + delta s with f_tilde a potential",
    "density-recovery": "h[m] recovered from second differences of f against s",
    "density-l1-identity": "||h||_1 = f[1]/s[1] for potentials of the min kernel",
    "potential-ratio-decreasing": "f[n]/s[n] strictly decreases to 0 for potentials",
    "rho-quadratic-form": "rho[l,n] = sum over the window inverse applied to f",
    "rho-min-closed-form": "rho[l,n] = f[l+1]/s[l+1] for min kernels, independent of n",
    "rho-nonnegative": "rho >= 0 for excessive f",
    # argen
    "phi-recursion": "phi[1]=1, phi[n] = sum p[l] phi[n-l]",
    "phi-range": "0 <= phi[n] < 1 for n >= 2",
    "phi-closed-form": "phi[n] = sum over roots of B[j](q) C(j-1+n, j-1) q^{-n}",
    "char-roots-location": "all roots outside the unit disk; q=1 simple exactly when sum(p)=1",
    "partial-fraction-reconstruction": "x/P(x) equals the partial-fraction sum at interior sample points",
    "b1-at-unit-root": "B1(1) = -1/P'(1) = c1 when sum(p)=1",
    "phi-l1-identity": "sum phi[n] = 1/P(1) when sum(p) < 1",
    "cstar-two-routes": "series route and direct sum of phi[n]^2 agree for c*",
    "cstar-bounds": "1 + p1^2 <= c* <= 1/(1 - sum(p)^2)",
    # normalizers
    "growth-normalizer-ceiling": "K_s(j) <= min(log log s[j], log j) up to slack",
    "growth-normalizer-cap-invariance": "K_s(j)/K_{s,M}(j) -> 1 for any cap M",
    "predicted-limsup": "limsup of the normalized sequence equals the predicted constant",
    "gaussian-lil": "running max of eta[j]/sqrt(2 s[j] K_s(j)) tends to 1",
    # symmetrize
    "extended-kernel-determinant": "det K_ext = det U",
    "extension-inverse-closed-form": "closed form for the inverse of the extended kernel",
    "extension-row-sums": "row sums of the extended inverse vanish except the first, which is 1",
    "coupling-sum-identities": "sum_i c_i U[i,j] = f[l+j] and sum_i r_i U[i,j] = 1",
    "nu-two-routes": "det(A_sym)/det(A) equals (1 + rho) - m U m^T",
    "nu-bounds": "1 <= nu <= 1 + rho",
    "a-vector-bound": "0 <= a[j] <= sqrt(f[l+j])",
    "isymi-block-identity": "bottom block of the resymmetrized kernel is U + a a^T",
    "sandwich-weights": "law comparison weights ((1+rho)^-alpha, 1 - (1+rho)^-alpha)",
    "sandwich-linear-bound": "(1+rho)^-alpha > 1 - 2 alpha rho",
    # mcsim
    "gaussian-covariance": "sampler covariance matches the kernel entrywise",
    "gamma-marginal-law": "X[alpha,j] / (U[j,j] + f[j]) is Gamma(alpha, 1)",
    "permanental-marginal-mean": "mean of the permanental sample at j is alpha (U[j,j] + a[j]^2)",
    "subsequence-pairwise-bound": "off-diagonal entries over the extracted indices are <= eps",
    "subsequence-growth-bound": "i[n] <= n (||M|| + ||M^T||)/eps",
    "trend-band": "median normalized running max lies in the band calibrated on the iid Gamma surrogate",
    "trend-direction": "median normalized running max moves toward the predicted constant as N grows",
}


def describe(key):
    """Return the registered description for an identity key."""
    try:
        return IDENTITIES[key]
    except KeyError:
        raise KeyError(f"unknown identity key: {key!r}") from None


class IdentityError(ValueError):
    """A named identity or admissibility bound failed.

    Carries the registry key so reports and exit paths can cite which
    check failed without parsing the message.
    """

    def __init__(self, key, message):
        describe(key)  # unknown keys are programming errors
        self.key = key
        super().__init__(f"[{key}] {message}")


class InputError(ValueError):
    """Input outside a routine's stated hypotheses; the message names it."""
