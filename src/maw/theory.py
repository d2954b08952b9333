"""Closed-form Gaussian distances and the mixture-approximation minimizers.

The central object is the weighted two-mode approximation of a Gaussian
"prior" N(mu0, Sigma0):

    minimize  eta R(N(mu1, S1), N(mu0, S0)) + (1 - eta) R(N(mu2, S2), N(mu0, S0))
    s.t.      ||mu1 - mu2|| = eps

for a regularizer R that is either a Wasserstein metric or the KL divergence.
With shared covariances the W_p minimizer puts mu1 exactly on mu0 while the
KL minimizer only satisfies the barycentric identity mu0 = eta mu1 +
(1 - eta) mu2.  With a rank-kappa inlier covariance the W2 problem has a
closed-form minimizer driven by a scalar colinearity parameter; the KL
problem is ill-posed because KL from a rank-deficient Gaussian is infinite.
Each analytic fact is paired with an independent numeric oracle
(a grid over the reduced colinear/diagonal parameterization, refined by a
bracket zoom over one scalar, and an exact-assignment empirical W1).

Inputs are checked once, where they enter: the public distances and
mixture_objective, which take one candidate each, TheoryProblem and every seed
(a non-negative int, else DomainError).  Only the unchecked kernels take stacks
of candidates: the oracle builds its candidates from a validated problem,
factors the prior once per solve and calls the kernel objective on its whole
grid as one stack.  Each oracle searches one scalar whose profile is unimodal
(a shared-covariance problem's offset, the low-rank W2 problem's colinearity u
at inlier diagonal 1), so it refines by re-gridding the bracket around the best
point, each round one stack again.  In the shared-covariance KL oracle every
mode has the prior's covariance, s I, so KL's covariance terms are computed
once per solve from s itself, and each evaluation computes only the
Mahalanobis terms (a GEMM and row dots) of candidates written in place into one
array: the solve makes no eigendecomposition.  A zoom round costs about 20
numpy calls whatever its size, so the oracles grid GRID_POINTS = 101 points a
round, over more rounds, and stop at a bracket X_TOL of their scalar's scale
wide (X_TOL eps for an offset, X_TOL for u): 7 grids at any eps.

SciPy is loaded only here, and only on first use: empirical_w1's assignment
solver imports scipy.optimize when it runs.  `import maw` (training, scoring
and the CLI's data path) and both oracles never load it, so such a process
peaks at ~28 MB resident after the import instead of ~76 MB.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError, NumericalError, ShapeError

KL_SINGULAR_REL_TOL = 1e-12
MAX_EMPIRICAL_N = 512
X_TOL = 1e-10  # an oracle zoom's last bracket width, relative to its scalar's scale
GRID_POINTS = 101  # an oracle zoom's points a round; odd, so x = 0 (W_p's minimizer) is on grid
ALPHA_STEP = 1e-4  # the low-rank oracle's move of each inlier root-diagonal entry off 1

REGULARIZERS = ("wp", "w2", "kl")
CONSTRAINTS = ("shared", "low-rank-inlier")


# ------------------------------------------------------------ closed forms
#
# Each distance is a checked entry for one candidate: a mean is (k,), a
# covariance (k, k), and the result a float; a stacked operand is a ShapeError.
# _operands validates, then its kernel (_wp, _w2, _kl) computes on stacks, (G,
# k) means and (1 or G, k, k) covariances, checking only the spectra it
# computes: the oracle calls the kernels on its whole grid through _objective.
# _kl takes S0 factored by _kl_prior and S1's terms from _kl_mode, so a fixed
# covariance is factored once.


def _operands(name: str, means, covariances=()):
    """One candidate's means as (1, k) arrays and covariances as (1, k, k)
    arrays, the kernels' stacks of one; ShapeError unless every mean is (k,)
    and every covariance (k, k) for the first mean's k."""
    means = [linalg.as_vector(m) for m in means]
    k = len(means[0])
    if any(len(m) != k for m in means) or any(np.shape(c) != (k, k) for c in covariances):
        raise ShapeError(f"{name} takes one candidate: means (k,) and covariances (k, k)")
    return [m[None] for m in means], [linalg.require_symmetric(c)[None] for c in covariances]


def _trace(m3: np.ndarray) -> np.ndarray:
    return np.trace(m3, axis1=1, axis2=2)


def wp_equal_cov(mu_i, mu_0):
    """W_p distance (any p >= 1) between Gaussians sharing one covariance.

    For equal covariances the optimal coupling is the mean shift itself, so
    the distance is ||mu_i - mu_0||_2 independently of p.
    """
    (mu_i, mu_0), _ = _operands("wp_equal_cov", (mu_i, mu_0))
    return float(_wp(mu_i, mu_0)[0])


def _wp(mu_i, mu_0):
    return np.sqrt(np.sum((mu_i - mu_0) ** 2, axis=1))


def w2_gaussian(mu1, sigma1, mu2, sigma2):
    """2-Wasserstein distance between Gaussians.

    W2^2 = ||dmu||^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}).
    """
    (mu1, mu2), (s1, s2) = _operands("w2_gaussian", (mu1, mu2), (sigma1, sigma2))
    return float(_w2(mu1, s1, mu2, s2)[0])


def _w2(mu1, s1, mu2, s2):
    r1 = linalg._psd_sqrt(s1)
    inner = r1 @ s2 @ r1
    cross = linalg._psd_sqrt(0.5 * (inner + np.swapaxes(inner, 1, 2)))
    sq = np.sum((mu1 - mu2) ** 2, axis=1) + _trace(s1) + _trace(s2) - 2.0 * _trace(cross)
    return np.sqrt(np.maximum(sq, 0.0))


def kl_gaussian(mu1, sigma1, mu0, sigma0):
    """KL(N(mu1, S1) || N(mu0, S0)); +inf when S1 is rank deficient.

    KL = (log det S0 / det S1 - K + tr(S0^{-1} S1) + dmu^T S0^{-1} dmu) / 2.
    S0 must be positive definite and S1 positive semidefinite (no eigenvalue
    below -1e-9 of its largest magnitude, at any scale); an S1 whose smallest
    eigenvalue is at most 1e-12 of its largest is treated as exactly singular
    (+inf).
    """
    (mu1, mu0), (s1, s0) = _operands("kl_gaussian", (mu1, mu0), (sigma1, sigma0))
    prior = _kl_prior(s0)
    return float(_kl(mu1, _kl_mode(s1, prior), mu0, prior)[0])


def _kl_prior(s0, w0=None):
    """(S0^{-1}, log det S0) of a (1, k, k) stack, from one sym_eig_batch call or,
    for an isotropic S0 whose eigenvalues w0 the caller knows, from w0 alone
    (eigenvectors I, so S0^{-1} = I / w0 with no GEMM); DomainError unless S0
    is positive definite."""
    q0 = None
    if w0 is None:
        w0, q0 = linalg.sym_eig_batch(s0)
    if np.any(w0[:, -1] <= 0.0):
        raise DomainError("reference covariance must be positive definite")
    log_det0 = np.sum(np.log(w0), axis=1)
    if q0 is None:  # eigenvectors I: the GEMM below would give I / w0's bits
        return np.eye(w0.shape[1]) / w0[:, None, :], log_det0
    return (q0 / w0[:, None, :]) @ np.swapaxes(q0, 1, 2), log_det0


def _kl_mode(s1, prior, w1=None):
    """KL's fixed covariance term of each matrix of a (1 or G, k, k) stack
    against a prior factored by _kl_prior, log det S0 - log det S1 - k +
    tr(S0^{-1} S1) summed, and whether S1 is singular (None when none is), from
    one sym_eig_batch call or from its (descending) eigenvalues w1 where the
    caller knows them; DomainError unless every S1 is positive semidefinite,
    its smallest eigenvalue no less than -1e-9 of its largest magnitude, at any
    scale."""
    inv0, log_det0 = prior
    if w1 is None:
        w1 = linalg.sym_eig_batch(s1)[0]
    if np.any(w1[:, -1] < -1e-9 * np.max(np.abs(w1), axis=1)):
        raise DomainError("sigma1 is not positive semidefinite")
    singular = w1[:, -1] <= KL_SINGULAR_REL_TOL * w1[:, 0]
    w1 = np.where(singular[:, None], 1.0, w1)  # their entries are +inf in _kl
    log_det = log_det0 - np.sum(np.log(w1), axis=1)
    fixed = log_det - s1.shape[-1] + np.sum(inv0 * np.swapaxes(s1, 1, 2), axis=(1, 2))
    return fixed, singular if singular.any() else None


def _kl(mu1, mode, mu0, prior):
    """KL of (G, k) means whose covariance terms _kl_mode computed: only the
    Mahalanobis term is computed here, a GEMM against the one prior's S0^{-1},
    and a singular mode's +inf is written only when there is one."""
    fixed, singular = mode
    dmu = mu1 - mu0
    val = np.einsum("ij,ij->i", dmu @ prior[0][0], dmu)  # row dots; np.sum's is ~3x slower
    val += fixed
    val *= 0.5
    return val if singular is None else np.where(singular, math.inf, val)


# ------------------------------------------------------------ problem objects


@dataclass(frozen=True)
class TheoryProblem:
    """Instance of the constrained two-mode approximation problem.

    k and kappa are ints of at most linalg.SIZE_MAX (an integral float counts,
    a bool does not), and epsilon and eta are finite ints or floats (not
    bools), epsilon positive; anything else raises DomainError.
    """

    k: int
    epsilon: float
    eta: float
    regularizer: str = "wp"
    constraint: str = "shared"
    kappa: int | None = None
    mu0: np.ndarray | None = None
    sigma0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "k", linalg.as_size(self.k, "ambient dimension k", DomainError))
        for key, what in (("epsilon", "mean separation epsilon"), ("eta", "mixture weight eta")):
            object.__setattr__(self, key, linalg.as_float(getattr(self, key), what, DomainError))
        if self.kappa is not None:
            object.__setattr__(self, "kappa", linalg.as_size(self.kappa, "rank kappa", DomainError))
        if self.k < 1:
            raise DomainError("ambient dimension must be >= 1")
        if self.epsilon <= 0.0:
            raise DomainError("mean separation must be positive")
        if not (0.5 < self.eta < 1.0):
            raise DomainError("mixture weight must lie in (0.5, 1)")
        if self.regularizer not in REGULARIZERS:
            raise DomainError(f"regularizer must be one of {REGULARIZERS}")
        if self.constraint not in CONSTRAINTS:
            raise DomainError(f"constraint must be one of {CONSTRAINTS}")
        if self.constraint == "low-rank-inlier":
            if self.kappa is None or not (1 <= self.kappa < self.k):
                raise DomainError("low-rank constraint needs 1 <= kappa < k")
        object.__setattr__(
            self, "mu0",
            np.zeros(self.k) if self.mu0 is None else linalg.as_vector(self.mu0),
        )
        object.__setattr__(
            self, "sigma0",
            np.eye(self.k) if self.sigma0 is None else linalg.require_symmetric(self.sigma0),
        )
        if self.mu0.shape != (self.k,) or self.sigma0.shape != (self.k, self.k):
            raise ShapeError("mu0 / sigma0 do not match the ambient dimension")


@dataclass
class TheorySolution:
    mu1: np.ndarray
    mu2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    objective: float
    u: float | None = None

    def separation_residual(self, epsilon: float) -> float:
        return abs(float(np.linalg.norm(self.mu1 - self.mu2)) - epsilon)


def mixture_objective(problem: TheoryProblem, mu1, mu2, sigma1, sigma2) -> float:
    """eta R(mode1, prior) + (1 - eta) R(mode2, prior) for the problem's R.

    The modes are one candidate, checked as the distances check theirs, in the
    problem's k (W_p reads no covariance).  Both go through one kernel call, as
    a stack of two means and, but for W_p, two covariances.
    """
    covs = () if problem.regularizer == "wp" else (sigma1, sigma2)
    # the prior's mean first, so that the modes are checked against the problem's k
    (_, *means), covs = _operands("mixture_objective", (problem.mu0, mu1, mu2), covs)
    cov = np.concatenate(covs) if covs else None
    return float(_objective(problem)(np.concatenate(means), cov)[0])


def _objective(problem: TheoryProblem, fixed=None, w0=None):
    """mixture_objective's kernel for one problem, with the prior factored here,
    once: a function of checked (2G, k) means, mode 1's G candidates first, and
    (but for W_p) a checked (1 or 2G, k, k) covariance stack, giving the (G,)
    objective values.  A solve whose modes all have one covariance passes it as
    fixed, (1, k, k), and then calls the function with the means alone; KL's
    covariance terms of fixed are computed here, once, so each call computes
    only the Mahalanobis terms.  A KL solve whose fixed is an isotropic sigma0
    passes sigma0's eigenvalues w0: nothing is eigendecomposed."""
    mu0, sigma0, eta = problem.mu0[None], problem.sigma0[None], problem.eta
    prior = _kl_prior(sigma0, w0) if problem.regularizer == "kl" else None

    def covariance(cov, w=None):
        return cov if prior is None or cov is None else _kl_mode(cov, prior, w)

    fixed = covariance(fixed, w0)

    def objective(means, cov=None):
        cov = fixed if cov is None else covariance(cov)
        if problem.regularizer == "wp":
            r = _wp(means, mu0)
        elif problem.regularizer == "w2":
            r = _w2(means, cov, mu0, sigma0)
        else:
            r = _kl(means, cov, mu0, prior)
        g = len(r) // 2
        return eta * r[:g] + (1.0 - eta) * r[g:]

    return objective


# ------------------------------------------------------------ analytic solvers


def solve_shared_cov(problem: TheoryProblem) -> TheorySolution:
    """Closed-form minimizer when all covariances equal the prior's.

    W_p (any p): mu1 = mu0 and the outlier mode sits at distance eps along a
    free direction (fixed here to the first coordinate axis), with objective
    (1 - eta) eps.  KL: the modes straddle the prior mean on a line through it
    with ||mu1 - mu0|| = (1 - eta) eps and ||mu2 - mu0|| = eta eps; the free
    direction is fixed to the top eigenvector of the shared covariance (any
    axis for an isotropic prior), signed so that its largest-magnitude entry
    (the first on ties) is positive.
    """
    if problem.constraint != "shared":
        raise DomainError("solve_shared_cov handles the shared-covariance case only")
    k, eps, eta = problem.k, problem.epsilon, problem.eta
    sigma = problem.sigma0
    if problem.regularizer in ("wp", "w2"):
        direction = np.zeros(k)
        direction[0] = 1.0
        mu1 = problem.mu0.copy()
        mu2 = problem.mu0 + eps * direction
        objective = (1.0 - eta) * eps
    else:
        top = linalg.sym_eig_batch(sigma[None])[1][0, :, 0]
        direction = top * np.copysign(1.0, top[np.argmax(np.abs(top))])
        mu1 = problem.mu0 + (1.0 - eta) * eps * direction
        mu2 = problem.mu0 - eta * eps * direction
        objective = mixture_objective(problem, mu1, mu2, sigma, sigma)
    return TheorySolution(mu1, mu2, sigma.copy(), sigma.copy(), objective)


def regime_threshold(k: int, kappa: int, epsilon: float) -> float:
    """Smallest mixture weight for which the low-rank W2 minimizer formula holds."""
    gap = k - kappa
    return (gap + epsilon**2) / (gap + 2.0 * epsilon**2)


def colinearity_minimizer(k: int, kappa: int, epsilon: float, eta: float) -> float:
    """u* = ((k - kappa)(1 - eta) / (eps^2 (2 eta - 1)))^(1/3), in (0, 1) in regime."""
    return ((k - kappa) * (1.0 - eta) / (epsilon**2 * (2.0 * eta - 1.0))) ** (1.0 / 3.0)


def colinearity_objective(u: float, k: int, kappa: int, epsilon: float, eta: float) -> float:
    """Squared objective profile f(u) of the low-rank W2 problem.

    After reducing to colinear means and diagonal covariances the problem
    collapses to minimizing sqrt(f(u)) over u != 0, with

      f(u) = (k - kappa) ((1-eta) |u-1| / |u| + eta)^2
             + eps^2 (eta |u| + (1-eta) |u-1|)^2

    evaluated branch-wise (u in (0, 1] uses the reflected |1-u| form).
    """
    if u == 0.0:
        raise DomainError("the objective profile has a pole at u = 0")
    gap = k - kappa
    if 0.0 < u <= 1.0:
        spread = (1.0 - u) / u * (1.0 - eta) + eta
        shift = eta * u + (1.0 - eta) * (1.0 - u)
    else:
        spread = (u - 1.0) / u * (1.0 - eta) + eta
        shift = eta * u + (1.0 - eta) * (u - 1.0)
    return gap * spread**2 + epsilon**2 * shift**2


def low_rank_w2_minimizer(k: int, kappa: int, epsilon: float, eta: float) -> TheorySolution:
    """Closed-form W2 minimizer with a rank-kappa inlier covariance.

    Valid for eta above the regime threshold; returns means of norms u* eps
    and (1 - u*) eps straddling the origin along the first axis,
    Sigma1 = diag(1_kappa, 0) and Sigma2 = diag(1_kappa, u*^{-2} 1).
    """
    if not 1 <= kappa < k:
        raise DomainError("need 1 <= kappa < k")
    if epsilon <= 0.0:
        raise DomainError("mean separation must be positive")
    threshold = regime_threshold(k, kappa, epsilon)
    if not (threshold < eta < 1.0):
        raise DomainError(
            f"mixture weight {eta} is out of regime (needs ({threshold:.6f}, 1))"
        )
    u = colinearity_minimizer(k, kappa, epsilon, eta)
    e1 = np.zeros(k)
    e1[0] = 1.0
    mu1 = u * epsilon * e1
    mu2 = -(1.0 - u) * epsilon * e1
    sigma1 = np.diag(np.concatenate([np.ones(kappa), np.zeros(k - kappa)]))
    sigma2 = np.diag(np.concatenate([np.ones(kappa), np.full(k - kappa, u**-2.0)]))
    objective = math.sqrt(colinearity_objective(u, k, kappa, epsilon, eta))
    return TheorySolution(mu1, mu2, sigma1, sigma2, objective, u=float(u))


# ------------------------------------------------------------ numeric oracle


def _zoom(evaluate, lo: float, hi: float, grid_points: int, x_tol: float):
    """Minimizer and minimum of a unimodal function of one scalar on [lo, hi].

    evaluate maps a (G,) array of points to their (G,) values.  Each round
    evaluates grid_points points of the bracket as one call; as the function is
    unimodal, its minimizer lies between the best point's two neighbours, which
    become the next bracket.  Of points that tie for best, the middle one is
    taken, so the result sits mid-way in the range that rounding cannot tell
    apart.  The rounds stop when the bracket is at most x_tol wide (the
    caller scales it to its scalar) or no longer shrinks (floating-point
    resolution), and the best point is
    evaluated alone last, as a one-point call, for the minimum.  A non-finite
    value, or a first-round minimum on an edge of [lo, hi], raises
    NumericalError.
    """
    ramp = np.arange(grid_points, dtype=np.float64)
    last = grid_points - 1
    width = math.inf
    for rounds in itertools.count():
        # np.linspace(lo, hi, grid_points)'s own arithmetic, so its bits
        grid = ramp * ((hi - lo) / last)
        grid += lo
        grid[last] = hi
        values = evaluate(grid)
        # the stack's min and max, a NaN if there is one: arg-reductions are ~4x faster
        low, high = values[values.argmin()], values[values.argmax()]
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NumericalError("a bracket zoom met a non-finite objective value")
        ties = (values == low).nonzero()[0]  # rounding flattens the bottom
        i = int(ties[len(ties) // 2])
        if rounds == 0 and i in (0, last):
            raise NumericalError("the objective's minimum is on the edge of its grid")
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, last)]
        if hi - lo <= x_tol or hi - lo >= width:
            break
        width = hi - lo
    return float(grid[i]), float(evaluate(grid[i:i + 1])[0])


def brute_force_minimizer(problem: TheoryProblem) -> TheorySolution:
    """Numeric minimizer over the reduced parameterization: a bracket zoom over
    one scalar, as stacked calls of the kernel objective.

    Shared-covariance case: a scalar mean offset x along a fixed axis, with
    mu1 = mu0 + x e1 and mu2 = mu1 - eps e1.  The objective is convex in x:
    W_p gives eta |x| + (1 - eta) |x - eps|, KL a quadratic in x.  So the best
    of GRID_POINTS offsets over [-2 eps, 2 eps] brackets the minimizer between
    its neighbours, and _zoom re-grids that bracket until it is X_TOL eps wide,
    so its precision relative to eps is the same at any eps.  The
    KL solve factors the isotropic prior s I from s itself (eigenvalues s,
    eigenvectors I, S0^{-1} = I / s), so it makes no eigendecomposition.
    Low-rank case: the colinearity-coupled family (scalar u for the means,
    inlier root diagonal alpha, outlier root diagonal induced by the coupling),
    which is the family the closed-form minimizer lives in.  At alpha = 1 the
    profile in u is unimodal on (0, 2], and _zoom finds u on [1e-3, 2] with
    GRID_POINTS points a round until its bracket is X_TOL wide.  Two stacked
    calls then check the result without the closed form: the negative branch's
    grid, and alpha moved by +-ALPHA_STEP in each coordinate; a lower value on
    either raises NumericalError.  The KL + low-rank combination is rejected as
    ill-posed (the objective is identically infinite), and only W2 supports
    free covariances.  The KL oracle needs an isotropic prior and the low-rank
    one a standard normal, each Sigma0[i,j] within 1e-12 * max(1, |Sigma0[i,j]|)
    of it (linalg.is_symmetric's rule), else DomainError.
    """
    k, eps = problem.k, problem.epsilon
    e1 = np.zeros(k)
    e1[0] = 1.0
    if problem.constraint == "shared":
        sigma = problem.sigma0
        w0 = None
        if problem.regularizer == "kl":
            if not _is_scaled_identity(sigma, sigma[0, 0]):
                # the fixed-axis reduction is only exhaustive for isotropic priors
                raise DomainError("the KL oracle requires an isotropic shared covariance")
            w0 = np.full((1, k), sigma[0, 0])
        objective = _objective(problem, sigma[None], w0)
        means = np.empty((2 * GRID_POINTS, k))
        means[:] = problem.mu0

        def evaluate(offsets):
            # g candidates a mode, with the prior's covariance, written in place:
            # mode 1's rows (mu0 + x e1) end where mode 2's (mu1 - eps e1) begin
            g = len(offsets)
            stack = means[GRID_POINTS - g:GRID_POINTS + g]
            np.add(problem.mu0[0], offsets, out=stack[:g, 0])
            np.subtract(stack[:g, 0], eps, out=stack[g:, 0])
            return objective(stack)

        x, fun = _zoom(evaluate, -2.0 * eps, 2.0 * eps, GRID_POINTS, X_TOL * eps)
        mu1 = problem.mu0 + x * e1
        return TheorySolution(mu1, mu1 - eps * e1, sigma.copy(), sigma.copy(), fun)

    if problem.regularizer == "kl":
        raise DomainError("KL with a rank-deficient inlier covariance is ill-posed")
    if problem.regularizer != "w2":
        raise DomainError("the low-rank oracle supports the W2 regularizer only")
    if np.any(problem.mu0 != 0.0) or not _is_scaled_identity(problem.sigma0, 1.0):
        raise DomainError("the low-rank oracle assumes a standard-normal prior")
    kappa = problem.kappa

    # Parameterization: the colinearity-coupled family.  The scalar u places the
    # means (mu1 = u eps e1, mu2 = -(1-u) eps e1); the inlier root diagonal a'
    # is free; the outlier root diagonal is induced by the colinearity relations
    # b_i = (1 + (u-1) a_i) / u on the shared block and b_i = 1 / u on the tail.
    # u is (G,) and alpha (G, kappa), or 1 for alpha = 1.
    def unpack(u, alpha=1.0):
        u = u[:, None]
        alpha = np.broadcast_to(alpha, (len(u), kappa))
        mu1 = u * eps * e1
        mu2 = -(1.0 - u) * eps * e1
        tail = np.broadcast_to(1.0 / u, (len(u), k - kappa))
        beta = np.concatenate([(1.0 + (u - 1.0) * alpha) / u, tail], axis=1)
        alpha_sq = np.concatenate([alpha**2, np.zeros_like(tail)], axis=1)
        sigma1 = alpha_sq[:, :, None] * np.eye(k)
        sigma2 = (beta**2)[:, :, None] * np.eye(k)
        return mu1, mu2, sigma1, sigma2

    objective = _objective(problem)

    def evaluate(u, alpha=1.0):
        mu1, mu2, sigma1, sigma2 = unpack(u, alpha)
        return objective(np.concatenate([mu1, mu2]), np.concatenate([sigma1, sigma2]))

    u, fun = _zoom(evaluate, 1e-3, 2.0, GRID_POINTS, X_TOL)
    if np.any(evaluate(np.linspace(-2.0, -1e-3, GRID_POINTS)) < fun):
        raise NumericalError("the low-rank objective is lower on the negative branch of u")
    steps = ALPHA_STEP * np.concatenate([np.eye(kappa), -np.eye(kappa)])
    if np.any(evaluate(np.full(2 * kappa, u), 1.0 + steps) < fun):
        raise NumericalError("the low-rank objective is lower off the inlier diagonal 1")
    mu1, mu2, sigma1, sigma2 = unpack(np.array([u]))
    return TheorySolution(mu1[0], mu2[0], sigma1[0], sigma2[0], fun, u=u)


def _is_scaled_identity(m, scale) -> bool:
    """|M[i,j] - scale delta_ij| <= 1e-12 * max(1, |M[i,j]|): is_symmetric's rule."""
    tol = linalg.SYM_REL_TOL * np.maximum(1.0, np.abs(m))
    return bool(np.all(np.abs(m - scale * np.eye(len(m))) <= tol))


def empirical_w1(samples_a, samples_b) -> float:
    """Exact W1 between two equal-size empirical point clouds.

    Solves the optimal assignment on the Euclidean cost matrix and divides by
    the number of points; inputs are nonempty, finite (n, K) arrays (or
    length-n vectors).
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ShapeError("empirical_w1 needs two equally-shaped sample arrays")
    if a.size == 0:
        raise ShapeError(f"empirical_w1 needs nonempty sample arrays, got shape {a.shape}")
    if a.shape[0] > MAX_EMPIRICAL_N:
        raise DomainError(f"empirical_w1 supports at most {MAX_EMPIRICAL_N} points per side")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("empirical_w1 samples must be finite")
    from scipy.optimize import linear_sum_assignment  # on first use: `import maw` loads no SciPy

    cost = np.zeros((len(a), len(a)))
    for j in range(a.shape[1]):  # a coordinate at a time: np.linalg.norm's bits for K < 8
        d = a[:, j, None] - b[None, :, j]
        cost += d * d
    rows, cols = linear_sum_assignment(np.sqrt(cost, out=cost))
    return float(cost[rows, cols].sum() / a.shape[0])


# ------------------------------------------------------------ verification


SHARED_GRID_ETAS = (0.6, 0.75, 5.0 / 6.0)
SHARED_GRID_EPSILONS = (0.5, 1.0, 2.0)
SHARED_GRID_DIMS = (2, 5)

MEAN_TOL = 1e-3
OBJECTIVE_TOL = 1e-4
U_TOL = 1e-3
PROFILE_TOL = 1e-9
# |empirical W1 - true W1| is at most the sum of the two clouds' W1 to their
# own laws (triangle inequality), and each of those is at most, in
# expectation, the W1 between two independent clouds of that law (Jensen).
MC_NOISE_FLOOR_FACTOR = 2.0


def _random_spd(rng, k):
    b = rng.standard_normal((k, k))
    return b @ b.T + 0.5 * np.eye(k)


def verify_shared_cov_recovery(regularizer: str) -> dict:
    """Grid check of the shared-covariance minimizer facts via the oracle.

    For W_p the oracle's inlier mean must coincide with the prior mean and the
    objective must equal (1 - eta) eps; for KL the oracle minimizer must
    satisfy the barycentric identity mu0 = eta mu1 + (1 - eta) mu2.
    """
    instances = []
    for eta in SHARED_GRID_ETAS:
        for eps in SHARED_GRID_EPSILONS:
            for k in SHARED_GRID_DIMS:
                problem = TheoryProblem(k=k, epsilon=eps, eta=eta, regularizer=regularizer)
                sol = brute_force_minimizer(problem)
                rec = {"k": k, "epsilon": eps, "eta": eta}
                if regularizer == "kl":
                    combo = eta * sol.mu1 + (1.0 - eta) * sol.mu2
                    rec["barycenter_error"] = float(np.linalg.norm(problem.mu0 - combo))
                    rec["pass"] = rec["barycenter_error"] <= MEAN_TOL * eps
                else:
                    analytic = solve_shared_cov(problem)
                    rec["inlier_mean_error"] = float(np.linalg.norm(sol.mu1 - problem.mu0))
                    rec["objective"] = sol.objective
                    rec["objective_expected"] = analytic.objective
                    rec["pass"] = (
                        rec["inlier_mean_error"] <= MEAN_TOL * eps
                        and abs(sol.objective - analytic.objective) <= OBJECTIVE_TOL
                    )
                instances.append(rec)
    return {"instances": instances, "pass": all(r["pass"] for r in instances)}


def verify_low_rank_w2(seed: int = 0, extra_instances: int = 5) -> dict:
    """Canonical + random in-regime checks of the low-rank W2 minimizer."""
    seed = linalg.as_seed(seed, "seed", DomainError)
    instances = []

    def check(k, kappa, eps, eta, canonical=False):
        analytic = low_rank_w2_minimizer(k, kappa, eps, eta)
        problem = TheoryProblem(
            k=k, epsilon=eps, eta=eta, regularizer="w2",
            constraint="low-rank-inlier", kappa=kappa,
        )
        oracle = brute_force_minimizer(problem)
        rec = {
            "k": k, "kappa": kappa, "epsilon": eps, "eta": eta,
            "u_analytic": analytic.u, "u_oracle": oracle.u,
            "objective_analytic": analytic.objective,
            "objective_oracle": oracle.objective,
        }
        ok = abs(analytic.u - oracle.u) <= U_TOL
        ok = ok and abs(analytic.objective - oracle.objective) <= 1e-4
        tail = np.diag(oracle.sigma2)[kappa:]
        rec["sigma2_tail_error"] = float(np.max(np.abs(tail - analytic.u**-2.0)))
        ok = ok and rec["sigma2_tail_error"] <= MEAN_TOL * max(1.0, analytic.u**-2.0)
        if canonical:
            rec["f_half"] = colinearity_objective(0.5, k, kappa, eps, eta)
            rec["f_one"] = colinearity_objective(1.0, k, kappa, eps, eta)
            ok = ok and abs(rec["f_half"] - 1.25) <= PROFILE_TOL
            ok = ok and abs(rec["f_one"] - 1.62) <= PROFILE_TOL
            ok = ok and abs(analytic.u - 0.5) <= 1e-12
        rec["pass"] = bool(ok)
        instances.append(rec)

    check(2, 1, 1.0, 0.9, canonical=True)
    rng = np.random.default_rng(seed)
    made = 0
    while made < extra_instances:
        k = int(rng.integers(2, 6))
        kappa = int(rng.integers(1, k))
        eps = float(rng.uniform(0.5, 2.0))
        threshold = regime_threshold(k, kappa, eps)
        eta = threshold + (1.0 - threshold) * float(rng.uniform(0.3, 0.9))
        check(k, kappa, eps, eta)
        made += 1
    return {"instances": instances, "pass": all(r["pass"] for r in instances)}


def verify_kl_rank_deficiency(seed: int = 0, per_dim: int = 20) -> dict:
    """KL from a rank-deficient Gaussian must be flagged infinite."""
    rng = np.random.default_rng(linalg.as_seed(seed, "seed", DomainError))
    instances = []
    for k in (2, 3, 5):
        hits = 0
        for _ in range(per_dim):
            sigma0 = _random_spd(rng, k)
            rank = int(rng.integers(1, k))
            c = rng.standard_normal((k, rank))
            sigma1 = c @ c.T
            mu1 = rng.standard_normal(k)
            mu0 = rng.standard_normal(k)
            if math.isinf(kl_gaussian(mu1, sigma1, mu0, sigma0)):
                hits += 1
        instances.append({"k": k, "flagged": hits, "total": per_dim, "pass": hits == per_dim})
    return {"instances": instances, "pass": all(r["pass"] for r in instances)}


def w1_shift_within_floor(estimate: float, shift: float, noise_floor: float) -> bool:
    """Whether an empirical W1 matches a mean shift, given the draw's null W1."""
    return abs(estimate - shift) <= MC_NOISE_FLOOR_FACTOR * noise_floor


def verify_w1_mean_shift(seed: int = 0, n: int = 256, n_sigmas: int = 5) -> dict:
    """Monte-Carlo: empirical W1 across a mean shift approximates the shift.

    Per covariance, the noise floor is the empirical W1 between two unshifted
    clouds, drawn from a second generator so the shifted draws stay those of
    the seed.
    """
    seed = linalg.as_seed(seed, "seed", DomainError)
    rng = np.random.default_rng(seed)
    null_rng = np.random.default_rng((seed, 1))
    k = 2
    instances = []
    for i in range(n_sigmas):
        sigma = 0.25 * _random_spd(rng, k)
        root = linalg.psd_sqrt(sigma)
        floor = empirical_w1(*(null_rng.standard_normal((2, n, k)) @ root.T))
        for shift in (1.0, 2.0):
            dmu = rng.standard_normal(k)
            dmu = shift * dmu / np.linalg.norm(dmu)
            a = rng.standard_normal((n, k)) @ root.T + dmu
            b = rng.standard_normal((n, k)) @ root.T
            est = empirical_w1(a, b)
            instances.append({
                "sigma_index": i, "shift": shift, "estimate": est, "noise_floor": floor,
                "relative_error": abs(est - shift) / shift,
                "pass": w1_shift_within_floor(est, shift, floor),
            })
    return {"instances": instances, "pass": all(r["pass"] for r in instances)}


def verification_report(seed: int = 0) -> dict:
    """Full numeric verification of the closed-form results; JSON-friendly.

    The seed is checked by the first section that draws with it: perfbench's
    tracer takes each call made here into the package for a report section.
    """
    sections = {
        "shared_cov_w1_recovers_prior": verify_shared_cov_recovery("wp"),
        "shared_cov_kl_barycenter": verify_shared_cov_recovery("kl"),
        "low_rank_w2_minimizer": verify_low_rank_w2(seed),
        "kl_rank_deficiency_infinite": verify_kl_rank_deficiency(seed),
        "w1_mean_shift_monte_carlo": verify_w1_mean_shift(seed),
    }
    return {
        "seed": seed,
        "sections": sections,
        "all_pass": all(section["pass"] for section in sections.values()),
    }
