import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from maw import linalg, theory
from maw.errors import DomainError, NotPSDError, NumericalError, ShapeError


# ------------------------------------------------------------ distances


def test_wp_equal_cov_values():
    assert theory.wp_equal_cov([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert theory.wp_equal_cov([1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)


def test_wp_equal_cov_monte_carlo_cross_check():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 2)) + np.array([1.0, 0.0])
    b = rng.standard_normal((200, 2))
    est = theory.empirical_w1(a, b)
    assert est == pytest.approx(1.0, rel=0.10)


def test_w2_identical_is_zero():
    s = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert theory.w2_gaussian([0.5, -1.0], s, [0.5, -1.0], s) == pytest.approx(0.0, abs=1e-7)


def test_w2_hand_values():
    mu = np.zeros(2)
    assert theory.w2_gaussian(mu, np.diag([4.0, 4.0]), mu, np.eye(2)) == pytest.approx(
        np.sqrt(2.0)
    )
    assert theory.w2_gaussian(mu, np.diag([4.0, 1.0]), mu, np.diag([1.0, 9.0])) == pytest.approx(
        np.sqrt(5.0)
    )


def test_w2_rejects_asymmetric():
    with pytest.raises(DomainError):
        theory.w2_gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.eye(2))


def test_w2_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        mus = [rng.standard_normal(k) for _ in range(3)]
        sigmas = []
        for _ in range(3):
            b = rng.standard_normal((k, k))
            sigmas.append(b @ b.T + 0.3 * np.eye(k))
        ab = theory.w2_gaussian(mus[0], sigmas[0], mus[1], sigmas[1])
        ba = theory.w2_gaussian(mus[1], sigmas[1], mus[0], sigmas[0])
        assert abs(ab - ba) <= 1e-10
        bc = theory.w2_gaussian(mus[1], sigmas[1], mus[2], sigmas[2])
        ac = theory.w2_gaussian(mus[0], sigmas[0], mus[2], sigmas[2])
        assert ac <= ab + bc + 1e-8


def test_w2_equals_wp_for_shared_covariance():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        b = rng.standard_normal((k, k))
        sigma = b @ b.T + 0.3 * np.eye(k)
        mu1, mu0 = rng.standard_normal(k), rng.standard_normal(k)
        w2 = theory.w2_gaussian(mu1, sigma, mu0, sigma)
        assert abs(w2 - theory.wp_equal_cov(mu1, mu0)) <= 1e-10


def test_kl_values():
    mu = np.zeros(2)
    assert theory.kl_gaussian(mu, np.eye(2), mu, np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    # N(0, 2I) vs N(0, I): (log(1/4) - 2 + 4) / 2 = 1 - ln 2
    assert theory.kl_gaussian(mu, 2.0 * np.eye(2), mu, np.eye(2)) == pytest.approx(
        1.0 - math.log(2.0), abs=1e-12
    )


def test_kl_rank_deficient_is_infinite():
    mu = np.zeros(2)
    assert math.isinf(theory.kl_gaussian(mu, np.diag([1.0, 0.0]), mu, np.eye(2)))


def test_kl_rejects_singular_reference():
    mu = np.zeros(2)
    with pytest.raises(DomainError):
        theory.kl_gaussian(mu, np.eye(2), mu, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("scale", [1e-10, 1e-3, 1e3])
def test_kl_of_a_negative_definite_covariance_is_a_domain_error_at_any_scale(scale):
    # the sign check is relative to the spectrum's largest magnitude, with no absolute floor
    mu = np.zeros(2)
    with pytest.raises(DomainError, match="not positive semidefinite"):
        theory.kl_gaussian(mu, -scale * np.eye(2), mu, np.eye(2))


def test_kl_of_the_zero_covariance_is_infinite():
    mu = np.zeros(2)
    assert math.isinf(theory.kl_gaussian(mu, np.zeros((2, 2)), mu, np.eye(2)))


def test_kl_of_a_tiny_full_rank_covariance_is_finite():
    # 1e-13 I is full rank: its smallest eigenvalue is all of its largest
    k, scale = 2, 1e-13
    value = theory.kl_gaussian(np.zeros(k), scale * np.eye(k), np.zeros(k), np.eye(k))
    expected = 0.5 * (-k * math.log(scale) - k + k * scale)  # 28.93
    assert math.isfinite(value)
    assert abs(value - expected) <= 1e-12 * expected


@pytest.mark.parametrize("scale", [1e-8, 1e4])
@pytest.mark.parametrize("k, rank", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_kl_of_a_scaled_rank_deficient_covariance_is_infinite(k, rank, scale):
    rng = np.random.default_rng(k + rank)
    c = rng.standard_normal((k, rank))
    value = theory.kl_gaussian(np.zeros(k), scale * (c @ c.T), np.zeros(k), np.eye(k))
    assert math.isinf(value)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        b1, b0 = rng.standard_normal((k, k)), rng.standard_normal((k, k))
        s1 = b1 @ b1.T + 0.3 * np.eye(k)
        s0 = b0 @ b0.T + 0.3 * np.eye(k)
        val = theory.kl_gaussian(rng.standard_normal(k), s1, rng.standard_normal(k), s0)
        assert val >= -1e-10
        assert theory.kl_gaussian(rng.standard_normal(k), s1, rng.standard_normal(k), s1) >= -1e-10


# ------------------------------------------------------------ one candidate a call


def _spd_stack(rng, g, k):
    b = rng.standard_normal((g, k, k))
    return b @ np.swapaxes(b, 1, 2) + 0.3 * np.eye(k)


def _problem(rng, k, regularizer):
    """A problem with a random prior in dimension k."""
    return theory.TheoryProblem(k=k, epsilon=1.0, eta=0.8, regularizer=regularizer,
                                mu0=rng.standard_normal(k), sigma0=_spd_stack(rng, 1, k)[0])


@pytest.mark.parametrize("covs", ["fixed", "shared", "per-candidate"])
@pytest.mark.parametrize("regularizer", theory.REGULARIZERS)
def test_a_kernel_evaluation_of_g_candidates_equals_g_single_calls(regularizer, covs):
    # the oracle's path, _objective on a stack, has the bits of one public call a
    # candidate; one covariance for every mode is passed once, fixed as a
    # shared-covariance solve passes it, or with the means
    rng = np.random.default_rng(11)
    g, k = 6, 3
    problem = _problem(rng, k, regularizer)
    mu1, mu2 = rng.standard_normal((g, k)), rng.standard_normal((g, k))
    s1, s2 = _spd_stack(rng, g, k), _spd_stack(rng, g, k)
    means = np.concatenate([mu1, mu2])
    if covs == "per-candidate":
        got = theory._objective(problem)(means, np.concatenate([s1, s2]))
    elif covs == "fixed":
        got = theory._objective(problem, s1[:1])(means)
    else:
        got = theory._objective(problem)(means, s1[:1])
    if covs != "per-candidate":
        s1 = s2 = np.broadcast_to(s1[0], (g, k, k))
    single = [theory.mixture_objective(problem, mu1[i], mu2[i], s1[i], s2[i]) for i in range(g)]
    assert all(type(value) is float for value in single)
    assert got.shape == (g,) and np.array_equal(got, single)


@pytest.mark.parametrize("shared", [True, False], ids=["shared-cov", "two-covs"])
@pytest.mark.parametrize("regularizer", theory.REGULARIZERS)
def test_mixture_objective_equals_two_single_mode_distance_calls(regularizer, shared):
    rng = np.random.default_rng(11)
    k = 3
    problem = _problem(rng, k, regularizer)
    mu0, s0 = problem.mu0, problem.sigma0
    mu1, mu2 = rng.standard_normal(k), rng.standard_normal(k)
    s1, s2 = _spd_stack(rng, 2, k)
    s2 = s1 if shared else s2
    if regularizer == "wp":
        r1, r2 = theory.wp_equal_cov(mu1, mu0), theory.wp_equal_cov(mu2, mu0)
    else:
        distance = theory.w2_gaussian if regularizer == "w2" else theory.kl_gaussian
        r1, r2 = distance(mu1, s1, mu0, s0), distance(mu2, s2, mu0, s0)
    got = theory.mixture_objective(problem, mu1, mu2, s1, s2)
    assert type(got) is float
    assert got == problem.eta * r1 + (1.0 - problem.eta) * r2


@pytest.mark.parametrize("mode", [1, 2])
def test_kl_mixture_objective_with_a_rank_deficient_mode_is_infinite(mode):
    rng = np.random.default_rng(6)
    g, k = 5, 3
    problem = _problem(rng, k, "kl")
    mu, s = rng.standard_normal((2, g, k)), _spd_stack(rng, 2 * g, k)
    c = rng.standard_normal((k, 1))
    s[(mode - 1) * g + 2] = c @ c.T
    single = [theory.mixture_objective(problem, mu[0, i], mu[1, i], s[i], s[g + i])
              for i in range(g)]
    assert np.isinf(single).tolist() == [False, False, True, False, False]
    # on a stack, the kernel is infinite at that candidate only
    assert np.array_equal(theory._objective(problem)(np.concatenate(mu), s), single)


PUBLIC_ENTRIES = {  # each public entry and its operands' kinds: m a mean, s a covariance
    "wp_equal_cov": (theory.wp_equal_cov, "mm"),
    "w2_gaussian": (theory.w2_gaussian, "msms"),
    "kl_gaussian": (theory.kl_gaussian, "msms"),
    "mixture_objective": (lambda *operands: theory.mixture_objective(
        theory.TheoryProblem(k=2, epsilon=1.0, eta=0.8, regularizer="kl"), *operands), "mmss"),
}


@pytest.mark.parametrize("entry, at", [(name, at) for name, (_, kinds) in PUBLIC_ENTRIES.items()
                                       for at in range(len(kinds))])
def test_public_entries_reject_a_stacked_operand(entry, at):
    call, kinds = PUBLIC_ENTRIES[entry]
    operands = [np.zeros(2) if kind == "m" else np.eye(2) for kind in kinds]
    assert type(call(*operands)) is float
    for g in (1, 3):  # a stack of one is a stack too
        stacked = list(operands)
        stacked[at] = np.stack([operands[at]] * g)
        with pytest.raises(ShapeError, match="takes one candidate|expected a nonempty vector"):
            call(*stacked)


def test_operands_of_another_dimension_raise():
    rng = np.random.default_rng(12)
    k = 3
    problem = theory.TheoryProblem(k=k, epsilon=1.0, eta=0.8, regularizer="kl")
    mu, s = rng.standard_normal(k), _spd_stack(rng, 2, k)
    bad = [
        (mu, np.zeros(k + 1), s[0], s[1]),  # a mean of another dimension
        (mu, mu, s[0], s[1, :2, :2]),  # a covariance of another dimension
        (np.zeros(k + 1), np.zeros(k + 1), np.eye(k + 1), np.eye(k + 1)),  # not the problem's k
    ]
    for operands in bad:
        with pytest.raises(ShapeError):
            theory.mixture_objective(problem, *operands)
    with pytest.raises(ShapeError):
        theory.wp_equal_cov(mu, np.zeros(k + 1))
    with pytest.raises(ShapeError):
        theory.kl_gaussian(mu, s[0], mu, np.eye(k + 1))


def _spy(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


ORACLE_PROBLEMS = [
    dict(k=3, epsilon=1.0, eta=0.75, regularizer="wp"),
    dict(k=3, epsilon=1.0, eta=0.75, regularizer="kl"),
    dict(k=3, epsilon=1.0, eta=0.9, regularizer="w2", constraint="low-rank-inlier", kappa=1),
]


@pytest.mark.parametrize("problem", ORACLE_PROBLEMS, ids=lambda p: p["regularizer"])
def test_each_objective_evaluation_makes_one_distance_call(monkeypatch, problem):
    problem = theory.TheoryProblem(**problem)
    evaluations = []
    make_objective = theory._objective

    def counted(problem, *fixed):
        objective = make_objective(problem, *fixed)

        def evaluate(*args):
            evaluations.append(args)
            return objective(*args)

        return evaluate

    monkeypatch.setattr(theory, "_objective", counted)
    distance_calls = _spy(monkeypatch, theory, "_" + problem.regularizer)  # its kernel
    theory.brute_force_minimizer(problem)
    assert len(distance_calls) == len(evaluations)
    sizes = [len(args[0]) for args in evaluations]  # two means a candidate
    # the default 101 points a round: the grid and 6 zoom rounds (the bracket is
    # then 4 eps (2/100)^7 < X_TOL eps, or 2 (2/100)^7 < X_TOL for u), the winner alone
    zoom = [2 * 101] * 7 + [2]
    if problem.constraint == "shared":
        assert sizes == zoom
    else:
        # then the negative branch's grid and +-ALPHA_STEP on the one inlier coordinate
        assert sizes == zoom + [2 * 101, 2 * 2]


@pytest.mark.parametrize("problem", ORACLE_PROBLEMS, ids=lambda p: p["regularizer"])
def test_the_oracle_checks_no_operand_it_built(monkeypatch, problem):
    problem = theory.TheoryProblem(**problem)
    checks = [
        _spy(monkeypatch, owner, name)
        for owner, name in [(theory, "_operands"), (theory, "mixture_objective"),
                            (linalg, "require_symmetric"), (linalg, "psd_sqrt")]
    ]
    theory.brute_force_minimizer(problem)
    assert [len(calls) for calls in checks] == [0] * len(checks)


def test_shared_kl_solve_factors_the_prior_once(monkeypatch):
    # from the spectrum of sigma0 = s I that the isotropy check has read: no eigendecomposition
    problem = theory.TheoryProblem(k=5, epsilon=1.0, eta=5.0 / 6.0, regularizer="kl")
    calls = _spy(monkeypatch, linalg, "sym_eig_batch")
    priors = _spy(monkeypatch, theory, "_kl_prior")
    modes = _spy(monkeypatch, theory, "_kl_mode")
    theory.brute_force_minimizer(problem)
    assert len(priors) == len(modes) == 1
    assert calls == []


@pytest.mark.parametrize("scale", [1.0, 0.7, 1e-3, 1e3])
def test_an_isotropic_priors_known_spectrum_gives_the_eigensolvers_bits(scale):
    k = 4
    problem = theory.TheoryProblem(k=k, epsilon=1.0, eta=0.75, regularizer="kl",
                                   sigma0=scale * np.eye(k))
    sigma = problem.sigma0[None]
    w0 = np.full((1, k), scale)
    # S0^{-1} = I / s and log det S0 from the eigenvalues alone, as the eigensolver's
    for known, solved in zip(theory._kl_prior(sigma, w0), theory._kl_prior(sigma)):
        assert np.array_equal(known, solved)
    means = np.random.default_rng(3).standard_normal((2 * 7, k))
    known = theory._objective(problem, sigma, w0)(means)
    assert np.array_equal(known, theory._objective(problem, sigma)(means))


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_the_kl_oracle_refuses_a_prior_that_is_not_positive_definite(scale):
    problem = theory.TheoryProblem(k=3, epsilon=1.0, eta=0.75, regularizer="kl",
                                   sigma0=scale * np.eye(3))
    with pytest.raises(DomainError, match="positive definite"):
        theory.brute_force_minimizer(problem)


SHARED_GRID = [  # verify_shared_cov_recovery's problems
    dict(k=k, epsilon=eps, eta=eta, regularizer=regularizer)
    for regularizer in ("wp", "kl")
    for eta in theory.SHARED_GRID_ETAS
    for eps in theory.SHARED_GRID_EPSILONS
    for k in theory.SHARED_GRID_DIMS
]
SHARED_KL_GRID = [p for p in SHARED_GRID if p["regularizer"] == "kl"]


@pytest.mark.parametrize("problem", SHARED_KL_GRID,
                         ids=lambda p: f"k{p['k']}-eps{p['epsilon']}-eta{p['eta']:.3f}")
def test_shared_kl_oracle_objective_is_the_mixture_objective_bit_for_bit(problem):
    problem = theory.TheoryProblem(**problem)
    sol = theory.brute_force_minimizer(problem)
    sigma = problem.sigma0
    assert sol.objective == theory.mixture_objective(problem, sol.mu1, sol.mu2, sigma, sigma)


def _mahalanobis(mu1, mu0, prior):
    """_kl's Mahalanobis term alone: a mode whose log det - k + tr is 0."""
    mode = (np.zeros(1), None)
    return 2.0 * theory._kl(mu1, mode, mu0, prior)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_kl_mahalanobis_term_matches_the_row_sum(k):
    rng = np.random.default_rng(k)
    for g in (1, 2, 7, 801):
        prior = theory._kl_prior(_spd_stack(rng, 1, k))
        mu1, mu0 = rng.standard_normal((g, k)), rng.standard_normal((1, k))
        dmu = mu1 - mu0
        expected = np.sum((dmu @ prior[0][0]) * dmu, axis=1)
        assert np.all(np.abs(_mahalanobis(mu1, mu0, prior) - expected) <= 1e-15 * expected)


@pytest.mark.parametrize("prior", ["isotropic", "random"])
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_kl_mahalanobis_term_on_line_candidates_is_the_row_sum_bit_for_bit(k, prior):
    # the oracle's candidates: mu0 + x e1 and mu0 + (x - eps) e1, one nonzero
    # term a row, so the order of the sum cannot move a bit
    rng = np.random.default_rng(10 + k)
    sigma0 = 0.7 * np.eye(k)[None] if prior == "isotropic" else _spd_stack(rng, 1, k)
    factored = theory._kl_prior(sigma0)
    mu0 = rng.standard_normal(k)
    offsets = np.linspace(-2.0, 2.0, 801)
    mu1 = np.tile(mu0, (2 * len(offsets), 1))
    mu1[:801, 0] += offsets
    mu1[801:, 0] = mu1[:801, 0] - 1.0
    dmu = mu1 - mu0
    expected = np.sum((dmu @ factored[0][0]) * dmu, axis=1)
    assert np.array_equal(_mahalanobis(mu1, mu0[None], factored), expected)


@pytest.mark.parametrize("drift", [5e-6, 1e-9])
def test_oracles_refuse_a_prior_off_the_identity_by_more_than_the_bound(drift):
    sigma0 = np.diag([1.0, 1.0 + drift])
    kl = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.75, regularizer="kl", sigma0=sigma0)
    with pytest.raises(DomainError, match="isotropic"):
        theory.brute_force_minimizer(kl)
    w2 = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.9, regularizer="w2",
                              constraint="low-rank-inlier", kappa=1, sigma0=sigma0)
    with pytest.raises(DomainError, match="standard-normal"):
        theory.brute_force_minimizer(w2)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_shared_kl_oracle_takes_a_scaled_identity_prior(scale):
    problem = theory.TheoryProblem(k=3, epsilon=1.0, eta=0.75, regularizer="kl",
                                   sigma0=scale * np.eye(3))
    sol = theory.brute_force_minimizer(problem)
    analytic = theory.solve_shared_cov(problem)
    assert sol.objective == pytest.approx(analytic.objective, rel=1e-9)


@pytest.mark.parametrize("grid_points", [0, -3, 1, 2, 3, 2.5, True, "801", None])
def test_brute_force_minimizer_rejects_a_bad_grid_size(grid_points):
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.75, regularizer="kl")
    with pytest.raises(DomainError, match="grid_points"):
        theory.brute_force_minimizer(problem, grid_points=grid_points)


@pytest.mark.parametrize("problem", SHARED_GRID, ids=lambda p: (
    f"{p['regularizer']}-k{p['k']}-eps{p['epsilon']}-eta{p['eta']:.3f}"))
def test_shared_oracle_finds_the_closed_form_offset(problem):
    # W_p: mu1 on mu0; KL: mu1 (1 - eta) eps from mu0 along the oracle's axis
    problem = theory.TheoryProblem(**problem)
    sol = theory.brute_force_minimizer(problem)
    eps, eta = problem.epsilon, problem.eta
    offset = (1.0 - eta) * eps if problem.regularizer == "kl" else 0.0
    assert np.all(np.abs(sol.mu1 - problem.mu0 - offset * np.eye(problem.k)[0]) <= 1e-8 * eps)
    assert sol.separation_residual(eps) <= 1e-12 * eps


@pytest.mark.parametrize("regularizer", ["wp", "kl"])
@pytest.mark.parametrize("eta", [0.75, 5.0 / 6.0])
@pytest.mark.parametrize("epsilon", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_shared_oracle_zoom_ends_at_floating_point_resolution(monkeypatch, regularizer, eta,
                                                              epsilon):
    # the zoom stops at a bracket X_TOL eps wide: as many kernel calls and the
    # same precision relative to eps at any scale; (1 - eta) eps = eps / 6 is on no grid
    problem = theory.TheoryProblem(k=3, epsilon=epsilon, eta=eta, regularizer=regularizer)
    calls = _spy(monkeypatch, theory, "_" + regularizer)
    sol = theory.brute_force_minimizer(problem)
    assert len(calls) == 8  # 7 grids and the winner alone
    offset = (1.0 - eta) * epsilon if regularizer == "kl" else 0.0  # KL: the barycenter's error
    assert abs(sol.mu1[0] - offset) <= 1e-8 * epsilon


@pytest.mark.parametrize("problem", SHARED_GRID, ids=lambda p: (
    f"{p['regularizer']}-k{p['k']}-eps{p['epsilon']}-eta{p['eta']:.3f}"))
def test_the_default_grid_agrees_with_801_points(problem):
    problem = theory.TheoryProblem(**problem)
    sol = theory.brute_force_minimizer(problem)
    fine = theory.brute_force_minimizer(problem, grid_points=801)
    assert abs(sol.mu1[0] - fine.mu1[0]) <= 1e-7 * problem.epsilon
    assert abs(sol.objective - fine.objective) <= 1e-12


def _shared_objective(monkeypatch, values):
    """Make the oracle's objective values(call number, offsets of mode 1)."""
    calls = []

    def make(problem, *fixed):
        def objective(means):
            calls.append(len(means))
            return values(len(calls), means[:len(means) // 2, 0])

        return objective

    monkeypatch.setattr(theory, "_objective", make)
    return calls


@pytest.mark.parametrize("bad_call", [1, 2, 3])
def test_a_non_finite_zoom_value_is_a_numerical_error(monkeypatch, bad_call):
    calls = _shared_objective(monkeypatch, lambda n, x: (
        np.where(x > 0.0, math.nan, x**2) if n == bad_call else (x - 0.1)**2))
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.75, regularizer="kl")
    with pytest.raises(NumericalError, match="non-finite"):
        theory.brute_force_minimizer(problem)
    assert len(calls) == bad_call


def test_the_zoom_takes_the_middle_of_tied_points():
    # flat on [-0.25, 0.25]: the middle of the ties, not the first, so the bracket
    # closes on the flat part's centre
    x, fun = theory._zoom(lambda x: np.maximum(np.abs(x) - 0.25, 0.0), -1.0, 1.5, 801,
                          theory.X_TOL)
    assert abs(x) <= 2.5 / 800 and fun == 0.0


@pytest.mark.parametrize("grid_points", [4, 5, 100, 801])
@pytest.mark.parametrize("centre", [-1.3, 0.3, 2.4])
def test_the_zoom_finds_the_minimum_of_a_unimodal_function_that_is_not_convex(centre, grid_points):
    # -exp(-(x - a)^2) is concave beyond |x - a| = 1/sqrt(2): unimodal, not convex
    x, fun = theory._zoom(lambda x: -np.exp(-(x - centre) ** 2), -3.0, 4.0, grid_points,
                          theory.X_TOL)
    assert abs(x - centre) <= 1e-7 and fun == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("lo, hi, grid_points", [
    (-2.0, 2.0, 801), (1e-3, 2.0, 100), (-2e12, 2e12, 801), (-2e-9, 3e-9, 4), (0.1, 0.7, 7),
])
def test_the_zoom_grids_are_linspaces_bit_for_bit(lo, hi, grid_points):
    grids = []

    def evaluate(x):
        grids.append(x.copy())
        return (x - (0.3 * lo + 0.7 * hi)) ** 2

    theory._zoom(evaluate, lo, hi, grid_points, theory.X_TOL)
    assert np.array_equal(grids[0], np.linspace(lo, hi, grid_points))
    for grid in grids[:-1]:  # the last call is the winner alone
        assert np.array_equal(grid, np.linspace(grid[0], grid[-1], grid_points))
    assert len(grids) > 2


@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_a_minimum_on_the_grid_edge_is_a_numerical_error(monkeypatch, slope):
    _shared_objective(monkeypatch, lambda n, x: slope * x)
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.75, regularizer="wp")
    with pytest.raises(NumericalError, match="edge"):
        theory.brute_force_minimizer(problem)


BAD_MODE_COVARIANCES = {  # (covariance, the message of the error for w2 and for kl)
    "asymmetric": ([[1.0, 0.5], [0.0, 1.0]], ("not symmetric",) * 2),
    "non-finite": ([[math.nan, 0.0], [0.0, 1.0]], ("must be finite",) * 2),
    "indefinite": ([[0.0, 1.0], [1.0, 0.0]], ("has eigenvalue", "not positive semidefinite")),
}


@pytest.mark.parametrize("bad", BAD_MODE_COVARIANCES)
@pytest.mark.parametrize("regularizer", ["w2", "kl"])
def test_mixture_objective_rejects_a_bad_mode_covariance(regularizer, bad):
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.8, regularizer=regularizer)
    cov, messages = BAD_MODE_COVARIANCES[bad]
    mu, sigma2 = np.zeros(2), np.eye(2)
    error = NotPSDError if (regularizer, bad) == ("w2", "indefinite") else DomainError
    with pytest.raises(error, match=messages[regularizer == "kl"]):
        theory.mixture_objective(problem, mu, mu, cov, sigma2)


def test_w2_overflow_is_a_numerical_error():
    # finite operands whose S1^{1/2} S2 S1^{1/2} overflows to inf
    huge = 1e200 * np.eye(2)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        theory.w2_gaussian(np.zeros(2), huge, np.zeros(2), huge)


def _low_rank_objective(monkeypatch, change):
    """Make the low-rank oracle's objective the real one plus change(u, alpha):
    u read from mode 1's means, alpha from its first inlier variance."""
    make = theory._objective

    def patched(problem, *fixed):
        real = make(problem, *fixed)

        def objective(means, cov):
            g = len(means) // 2
            u = means[:g, 0] / problem.epsilon
            return real(means, cov) + change(u, np.sqrt(cov[:g, 0, 0]))

        return objective

    monkeypatch.setattr(theory, "_objective", patched)


LOW_RANK = ORACLE_PROBLEMS[2]


@pytest.mark.parametrize("change, message", [
    (lambda u, alpha: np.where(u > 0.5, math.nan, 0.0), "non-finite"),
    (lambda u, alpha: np.where(u < -1.0, -10.0, 0.0), "negative branch"),
    (lambda u, alpha: 0.5 * (alpha**2 - 2.0) ** 2, "inlier diagonal"),  # least at alpha^2 = 2
], ids=["non-finite", "negative-branch", "off-alpha-one"])
def test_the_low_rank_oracle_checks_what_its_zoom_did_not_search(monkeypatch, change, message):
    _low_rank_objective(monkeypatch, change)
    with pytest.raises(NumericalError, match=message):
        theory.brute_force_minimizer(theory.TheoryProblem(**LOW_RANK))


# ------------------------------------------------------------ shared covariance


def test_shared_cov_wp_solution():
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=5.0 / 6.0, regularizer="wp")
    sol = theory.solve_shared_cov(problem)
    assert np.allclose(sol.mu1, 0.0)
    assert sol.objective == pytest.approx(1.0 / 6.0)
    assert sol.separation_residual(1.0) <= 1e-8


def test_shared_cov_kl_solution():
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=5.0 / 6.0, regularizer="kl")
    sol = theory.solve_shared_cov(problem)
    assert np.linalg.norm(sol.mu1) == pytest.approx(1.0 / 6.0)
    assert np.linalg.norm(sol.mu2) == pytest.approx(5.0 / 6.0)
    combo = problem.eta * sol.mu1 + (1 - problem.eta) * sol.mu2
    assert np.allclose(combo, problem.mu0, atol=1e-12)


def test_shared_cov_kl_direction_is_the_signed_top_eigenvector():
    # the one output that reads an eigenvector alone: its largest-magnitude
    # entry is made positive, whatever sign LAPACK gave the column
    rng = np.random.default_rng(13)
    lapack_signs = set()
    for _ in range(20):
        k = int(rng.integers(2, 6))
        sigma0 = _spd_stack(rng, 1, k)[0]
        problem = theory.TheoryProblem(k=k, epsilon=2.0, eta=0.75, regularizer="kl",
                                       sigma0=sigma0)
        sol = theory.solve_shared_cov(problem)
        direction = (sol.mu1 - problem.mu0) / ((1.0 - problem.eta) * problem.epsilon)
        assert direction[np.argmax(np.abs(direction))] > 0.0
        top = np.linalg.eigh(sigma0)[1][:, -1]  # with LAPACK's sign
        sign = np.sign(top[np.argmax(np.abs(top))])
        assert np.allclose(direction, sign * top, rtol=0.0, atol=1e-12)
        lapack_signs.add(sign)
    assert lapack_signs == {1.0, -1.0}  # the rule flipped some columns


def test_eta_at_half_rejected():
    with pytest.raises(DomainError):
        theory.TheoryProblem(k=2, epsilon=1.0, eta=0.5, regularizer="wp")


def test_shared_cov_kl_matches_grid_oracle():
    problem = theory.TheoryProblem(k=3, epsilon=1.0, eta=5.0 / 6.0, regularizer="kl")
    oracle = theory.brute_force_minimizer(problem)
    analytic = theory.solve_shared_cov(problem)
    assert oracle.objective == pytest.approx(analytic.objective, abs=1e-8)
    assert np.linalg.norm(oracle.mu1 - problem.mu0) == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_shared_cov_wp_oracle_with_nonzero_mu0():
    mu0 = np.array([0.7, -0.4])
    problem = theory.TheoryProblem(k=2, epsilon=1.5, eta=0.75, regularizer="wp", mu0=mu0)
    oracle = theory.brute_force_minimizer(problem)
    assert np.linalg.norm(oracle.mu1 - mu0) <= 1e-3 * 1.5
    assert oracle.objective == pytest.approx(0.25 * 1.5, abs=1e-4)


# ------------------------------------------------------------ low-rank W2


def test_colinearity_objective_hand_values():
    assert theory.colinearity_objective(1.0, 2, 1, 1.0, 0.9) == pytest.approx(1.62, abs=1e-12)
    assert theory.colinearity_objective(0.5, 2, 1, 1.0, 0.9) == pytest.approx(1.25, abs=1e-12)
    with pytest.raises(DomainError):
        theory.colinearity_objective(0.0, 2, 1, 1.0, 0.9)


def test_colinearity_profile_grid_minimum():
    k, kappa, eps, eta = 2, 1, 1.0, 0.9
    ustar = theory.colinearity_minimizer(k, kappa, eps, eta)
    grid = np.concatenate([
        np.logspace(-2, 2, 5000), -np.logspace(-2, 2, 5000),
    ])
    best = min(theory.colinearity_objective(float(u), k, kappa, eps, eta) for u in grid)
    fstar = theory.colinearity_objective(ustar, k, kappa, eps, eta)
    assert fstar <= best + 1e-6


def test_low_rank_minimizer_canonical_instance():
    sol = theory.low_rank_w2_minimizer(2, 1, 1.0, 0.9)
    assert theory.regime_threshold(2, 1, 1.0) == pytest.approx(2.0 / 3.0)
    assert sol.u == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(sol.mu1) == pytest.approx(0.5)
    assert np.linalg.norm(sol.mu2) == pytest.approx(0.5)
    assert np.allclose(sol.sigma2, np.diag([1.0, 4.0]))
    assert np.allclose(sol.sigma1, np.diag([1.0, 0.0]))
    # colinearity identity 0 = u mu2 + (1 - u) mu1
    assert np.allclose(sol.u * sol.mu2 + (1 - sol.u) * sol.mu1, 0.0, atol=1e-12)
    assert sol.separation_residual(1.0) <= 1e-8


def test_low_rank_minimizer_out_of_regime():
    with pytest.raises(DomainError):
        theory.low_rank_w2_minimizer(2, 1, 1.0, 0.6)  # threshold is 2/3
    with pytest.raises(DomainError):
        theory.low_rank_w2_minimizer(2, 2, 1.0, 0.9)


def test_colinearity_minimizer_high_eta_limit():
    # frozen from the formula: ((1 * 0.001) / (1 * 0.998))^(1/3)
    expected = (0.001 / 0.998) ** (1.0 / 3.0)
    assert expected == pytest.approx(0.100067, abs=1e-6)
    assert theory.colinearity_minimizer(2, 1, 1.0, 0.999) == pytest.approx(expected, rel=1e-12)
    us = [theory.colinearity_minimizer(2, 1, 1.0, e) for e in (0.7, 0.9, 0.99, 0.999)]
    assert all(b < a for a, b in zip(us, us[1:]))  # u* -> 0 as eta -> 1


def test_low_rank_oracle_matches_analytic():
    problem = theory.TheoryProblem(
        k=2, epsilon=1.0, eta=0.9, regularizer="w2",
        constraint="low-rank-inlier", kappa=1,
    )
    oracle = theory.brute_force_minimizer(problem)
    assert oracle.u == pytest.approx(0.5, abs=1e-3)
    analytic = theory.low_rank_w2_minimizer(2, 1, 1.0, 0.9)
    assert oracle.objective == pytest.approx(analytic.objective, abs=1e-6)


def _in_regime_instances(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 9))
        kappa = int(rng.integers(1, k))
        eps = float(rng.uniform(0.2, 3.0))
        threshold = theory.regime_threshold(k, kappa, eps)
        yield k, kappa, eps, threshold + (1.0 - threshold) * float(rng.uniform(0.02, 0.98))


def test_low_rank_oracle_matches_the_closed_form_on_random_instances():
    for k, kappa, eps, eta in _in_regime_instances(100, seed=8):
        problem = theory.TheoryProblem(k=k, epsilon=eps, eta=eta, regularizer="w2",
                                       constraint="low-rank-inlier", kappa=kappa)
        oracle = theory.brute_force_minimizer(problem)
        analytic = theory.low_rank_w2_minimizer(k, kappa, eps, eta)
        assert abs(oracle.u - theory.colinearity_minimizer(k, kappa, eps, eta)) <= theory.U_TOL
        assert abs(oracle.objective - analytic.objective) <= 1e-9
        assert oracle.separation_residual(eps) <= 1e-12 * eps


def test_low_rank_oracle_rejects_ill_posed_combinations():
    problem = theory.TheoryProblem(
        k=2, epsilon=1.0, eta=0.9, regularizer="kl",
        constraint="low-rank-inlier", kappa=1,
    )
    with pytest.raises(DomainError):
        theory.brute_force_minimizer(problem)
    with pytest.raises(DomainError):
        theory.TheoryProblem(k=2, epsilon=0.0, eta=0.9, regularizer="w2")


# ------------------------------------------------------------ empirical W1


def test_empirical_w1_examples():
    assert theory.empirical_w1([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert theory.empirical_w1([0.0, 1.0], [2.0, 3.0]) == pytest.approx(2.0)
    assert theory.empirical_w1([0.0, 1.0], [1.0, 0.0]) == 0.0
    with pytest.raises(ShapeError):
        theory.empirical_w1([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        theory.empirical_w1(np.zeros((600, 2)), np.zeros((600, 2)))


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_empirical_w1_cost_is_the_norm_of_the_differences(monkeypatch, k):
    # bit for bit for K < 8, where numpy's reduce sums a row in order
    costs = []
    real = scipy.optimize.linear_sum_assignment

    def spy(cost):
        costs.append(cost.copy())
        return real(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    rng = np.random.default_rng(k)
    a, b = rng.standard_normal((2, 40, k))
    value = theory.empirical_w1(a, b)
    expected = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    rows, cols = real(expected)
    if k < 8:
        assert np.array_equal(costs[0], expected)
        assert value == expected[rows, cols].sum() / len(a)
    else:
        assert np.all(np.abs(costs[0] - expected) <= 1e-15 * expected)
        assert value == pytest.approx(expected[rows, cols].sum() / len(a), rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_empirical_w1_rejects_non_finite_samples(side, bad):
    clouds = {"a": np.zeros((4, 2)), "b": np.ones((4, 2))}
    clouds[side][2, 1] = bad
    with pytest.raises(DomainError, match="finite"):
        theory.empirical_w1(clouds["a"], clouds["b"])


@pytest.mark.parametrize("shape", [(0, 3), (0,), (4, 0)])
def test_empirical_w1_rejects_empty_clouds(shape):
    with pytest.raises(ShapeError, match="nonempty"):
        theory.empirical_w1(np.zeros(shape), np.zeros(shape))


def test_empirical_w1_decreases_with_sample_size():
    vals = {}
    for n in (64, 256):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2))
        vals[n] = theory.empirical_w1(a, b)
    assert 0.0 < vals[256] < vals[64]


@pytest.fixture(scope="module")
def w1_sections():
    """The Monte Carlo W1 section for seeds 0-39; seeds 2, 4, 8, 14-17, 20-22,
    25, 26, 29, 30, 33 and 36 failed under a fixed 12% relative tolerance."""
    return [theory.verify_w1_mean_shift(seed) for seed in range(40)]


def test_w1_mean_shift_passes_for_every_seed(w1_sections):
    assert [seed for seed, section in enumerate(w1_sections) if not section["pass"]] == []


@pytest.mark.parametrize("factor", [0.8, 1.25])
def test_w1_mean_shift_rejects_a_wrong_shift(w1_sections, factor):
    # negative control: the same draws checked against a shift off by 20-25%
    caught = [
        not all(theory.w1_shift_within_floor(r["estimate"], factor * r["shift"], r["noise_floor"])
                for r in section["instances"])
        for section in w1_sections[:20]
    ]
    assert sum(caught) >= 19  # >= 95% of seeds 0-19


# ------------------------------------------------------------ report sections


def test_report_sections_small():
    low = theory.verify_low_rank_w2(seed=1, extra_instances=1)
    assert low["pass"]
    kl = theory.verify_kl_rank_deficiency(seed=1, per_dim=3)
    assert kl["pass"]
    mc = theory.verify_w1_mean_shift(seed=1, n=128, n_sigmas=1)
    assert mc["pass"]


# ------------------------------------------------------------ input checks


@pytest.mark.parametrize("field, value", [
    ("k", 2.5), ("k", True), ("k", "3"), ("k", None),
    ("kappa", 1.5), ("kappa", True), ("kappa", "1"),
    ("epsilon", math.inf), ("epsilon", math.nan), ("epsilon", -1.0),
    ("epsilon", "0.7"), ("epsilon", True), ("epsilon", -math.inf), ("epsilon", None),
    *[("eta", bad) for bad in ("0.7", True, math.nan, math.inf, -math.inf, None)],
])
def test_theory_problem_rejects_bad_numbers(field, value):
    args = dict(k=3, epsilon=1.0, eta=0.9, regularizer="w2",
                constraint="low-rank-inlier", kappa=1)
    args[field] = value
    with pytest.raises(DomainError):
        theory.TheoryProblem(**args)


def test_theory_problem_takes_an_int_epsilon_as_a_float():
    problem = theory.TheoryProblem(k=2, epsilon=1, eta=0.75, regularizer="wp")
    assert problem.epsilon == 1.0 and type(problem.epsilon) is float


def test_theory_problem_takes_integral_floats_as_ints():
    problem = theory.TheoryProblem(
        k=3.0, epsilon=1.0, eta=0.9, regularizer="w2", constraint="low-rank-inlier", kappa=1.0,
    )
    assert (problem.k, problem.kappa) == (3, 1)
    assert type(problem.k) is int and type(problem.kappa) is int
    assert problem.mu0.shape == (3,)



# numpy's "Maximum allowed dimension exceeded" used to escape at these sizes
@pytest.mark.parametrize("size", [linalg.SIZE_MAX + 1, 10**19])
def test_theory_problem_bounds_k(size):
    with pytest.raises(DomainError, match="ambient dimension k must be at most 2147483647"):
        theory.TheoryProblem(k=size, epsilon=1.0, eta=0.75)


@pytest.mark.parametrize("size", [linalg.SIZE_MAX + 1, 10**19])
def test_theory_problem_bounds_kappa(size):
    with pytest.raises(DomainError, match="rank kappa must be at most 2147483647"):
        theory.TheoryProblem(k=3, epsilon=1.0, eta=0.9, regularizer="w2",
                             constraint="low-rank-inlier", kappa=size)


@pytest.mark.parametrize("size", [linalg.SIZE_MAX + 1, 10**19])
def test_brute_force_minimizer_bounds_grid_points(size):
    problem = theory.TheoryProblem(k=2, epsilon=1.0, eta=0.75, regularizer="kl")
    with pytest.raises(DomainError, match="grid_points must be at most 2147483647"):
        theory.brute_force_minimizer(problem, grid_points=size)


SEEDED = {
    "verification_report": theory.verification_report,
    "verify_low_rank_w2": theory.verify_low_rank_w2,
    "verify_kl_rank_deficiency": theory.verify_kl_rank_deficiency,
    "verify_w1_mean_shift": theory.verify_w1_mean_shift,
}


@pytest.mark.parametrize("seed", [1.5, -1, True, "1", None, math.nan, math.inf])
@pytest.mark.parametrize("verifier", SEEDED)
def test_verifiers_reject_a_seed_that_is_not_a_non_negative_int(verifier, seed):
    with pytest.raises(DomainError, match="seed"):
        SEEDED[verifier](seed=seed)


def test_verifiers_take_an_integral_float_seed_as_an_int():
    assert theory.verify_kl_rank_deficiency(seed=1.0, per_dim=2) == \
        theory.verify_kl_rank_deficiency(seed=1, per_dim=2)


def test_no_minimize_in_the_package():
    # the oracles zoom over one scalar; SciPy backs only empirical_w1's assignment solver
    found = [(path.name, node.lineno)
             for path in sorted(Path(theory.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and any(a.name == "minimize" for a in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "minimize"
             or isinstance(node, ast.Name) and node.id == "minimize"]
    assert found == []
