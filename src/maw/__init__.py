"""maw: robust novelty detection with a mixture-latent autoencoder.

The package trains a variational autoencoder whose latent posterior is a
two-mode Gaussian mixture (low-rank inlier mode, full-rank outlier mode)
regularized toward the standard-normal prior with a clipped-critic
Wasserstein-1 penalty, and scores test points by cosine similarity against
decodes of the inlier mode.  A companion theory module numerically verifies
the closed-form facts about Wasserstein vs. KL regularization of Gaussian
mixtures that motivate the design.
"""

from .evaluation import (
    Dataset,
    PoolFamily,
    SplitSpec,
    SyntheticFamily,
    ap,
    auc,
    load_csv,
    run_experiment,
)
from .model import (
    Hyperparams,
    MawModel,
    VARIANTS,
    score,
    score_batch,
    train,
)
from .theory import (
    TheoryProblem,
    TheorySolution,
    brute_force_minimizer,
    colinearity_minimizer,
    colinearity_objective,
    empirical_w1,
    kl_gaussian,
    low_rank_w2_minimizer,
    solve_shared_cov,
    verification_report,
    w2_gaussian,
    wp_equal_cov,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "PoolFamily", "SplitSpec", "SyntheticFamily", "ap", "auc",
    "load_csv", "run_experiment",
    "Hyperparams", "MawModel", "VARIANTS", "score", "score_batch", "train",
    "TheoryProblem", "TheorySolution", "brute_force_minimizer",
    "colinearity_minimizer", "colinearity_objective", "empirical_w1",
    "kl_gaussian", "low_rank_w2_minimizer", "solve_shared_cov",
    "verification_report", "w2_gaussian", "wp_equal_cov",
]
