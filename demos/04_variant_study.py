#!/usr/bin/env python3
"""Small ablation study: swap one ingredient of the detector at a time.

Each variant replaces exactly one component (squared-error reconstruction,
standard-GAN regularizer, full-rank inlier mode, single latent Gaussian,
diagonal covariances) and "vae" is the plain baseline.  Desk scale: one seed,
short training; the point is the machinery, not the exact ordering.
"""

import time

from maw import Hyperparams, SplitSpec, SyntheticFamily, run_experiment

VARIANTS = ["maw", "maw-mse", "maw-same-rank", "vae"]

family = SyntheticFamily(dim=20, rank=1, noise=0.1, seed=0)
split = SplitSpec(n_train=200, c=0.2, n_test=100, c_tests=(0.3, 0.5), seed=0)

print(f"{'variant':<16} {'AUC':>8} {'AP':>8} {'secs':>6}")
for variant in VARIANTS:
    t0 = time.time()
    hp = Hyperparams(
        d=2, dprime=16, samples=5, epochs=25, batch_size=32,
        lr_vae=5e-5, lr_critic=5e-4, variant=variant,
    )
    rep = run_experiment(family, split, seeds=[0], hp=hp)
    print(f"{variant:<16} {rep.auc_mean:>8.4f} {rep.ap_mean:>8.4f} {time.time() - t0:>6.1f}")

print("\nmetrics average over the c_test grid; rerun with more seeds/epochs for")
print("stable comparisons (see the eval and sweep CLI commands).")
