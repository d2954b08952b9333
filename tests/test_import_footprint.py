"""Training, scoring, the CLI's data path and a shared-covariance oracle solve
load no SciPy; the low-rank oracle does.

SciPy's optimize package roughly doubles a process's resident memory, and
only the low-rank theory oracle (Nelder-Mead) and empirical_w1 (an assignment
solver) use it, so they import it on first call.  The check runs in a fresh
interpreter, since pytest's own process has loaded SciPy long before.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json
import sys

import maw
import maw.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


family = maw.SyntheticFamily(6, 1, noise=0.1, seed=0)
train_set = family.sample(20, 4, sample_seed=1)
hp = maw.Hyperparams(d=2, dprime=4, samples=2, epochs=1, batch_size=8,
                     encoder_widths=(8, 8), decoder_widths=(8, 8), critic_widths=(8, 8))
model, _ = maw.train(train_set.features, hp, seed=0)
model = maw.MawModel.from_payload(json.loads(json.dumps(model.to_payload())))
maw.score(model, train_set.features[0])
maw.score_batch(model, train_set.features, seed=2)
code = maw.cli.main(["--output-dir", sys.argv[1], "--set", "split.n_train=24",
                     "--set", "data.features=6", "gen-data"])
assert code == 0, code
assert not scipy_modules(), scipy_modules()[:3]

problem = maw.TheoryProblem(k=2, epsilon=1.0, eta=0.75, regularizer="kl")
maw.brute_force_minimizer(problem, grid_points=21)  # a grid and a bracket zoom
assert not scipy_modules(), scipy_modules()[:3]

problem = maw.TheoryProblem(k=2, epsilon=1.0, eta=0.9, regularizer="w2",
                            constraint="low-rank-inlier", kappa=1)
maw.brute_force_minimizer(problem, grid_points=21)  # a grid and Nelder-Mead
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_training_scoring_and_gen_data_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "out" / "dataset.csv").is_file()
