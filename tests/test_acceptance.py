"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The end-to-end benchmark
(criteria 9 and 10) trains real models and takes a few minutes.
"""

import json
import os
import time

import numpy as np
import pytest

from _gradcheck import check_grads, dense_case, random_projection_head, symmetric_fd_check
from test_evaluation import _brute_force_pr_ap, _brute_force_roc_auc
from test_model import draw_latents, loss_model_and_noise, loss_value, pinned_model

from maw import cli
from maw import evaluation as E
from maw import model as M
from maw import theory
from maw.autodiff import ACTIVATIONS, DenseNode, SpectralNode, Tape

N_GRAD_INSTANCES = 50


def _report(criterion: int, description: str, ok: bool):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion}: {description}"


# ---------------------------------------------------------------- criteria 1-5


def test_criterion_1_shared_cov_wp_recovery():
    t0 = time.time()
    section = theory.verify_shared_cov_recovery("wp")
    elapsed = time.time() - t0
    for rec in section["instances"]:
        assert rec["inlier_mean_error"] <= 1e-3 * rec["epsilon"]
        expected = (1.0 - rec["eta"]) * rec["epsilon"]
        assert abs(rec["objective"] - expected) <= 1e-4
    _report(1, f"W_p shared-cov recovery on 18 instances in {elapsed:.1f}s",
            section["pass"] and elapsed < 30.0)


def test_criterion_2_shared_cov_kl_barycenter():
    t0 = time.time()
    section = theory.verify_shared_cov_recovery("kl")
    elapsed = time.time() - t0
    for rec in section["instances"]:
        assert rec["barycenter_error"] <= 1e-3 * rec["epsilon"]
    _report(2, f"KL shared-cov barycentric identity on 18 instances in {elapsed:.1f}s",
            section["pass"] and elapsed < 30.0)


def test_criterion_3_low_rank_w2_minimizer():
    t0 = time.time()
    section = theory.verify_low_rank_w2(seed=0, extra_instances=5)
    elapsed = time.time() - t0
    canonical = section["instances"][0]
    assert canonical["u_analytic"] == pytest.approx(0.5, abs=1e-12)
    assert abs(canonical["u_analytic"] - canonical["u_oracle"]) <= 1e-3
    assert canonical["f_half"] == pytest.approx(1.25, abs=1e-9)
    assert canonical["f_one"] == pytest.approx(1.62, abs=1e-9)
    assert canonical["sigma2_tail_error"] <= 1e-3 * 4.0  # diag(1, 4) within 1e-3
    _report(3, f"low-rank W2 minimizer (canonical + 5 random) in {elapsed:.1f}s",
            section["pass"] and elapsed < 30.0)


def test_criterion_4_kl_rank_deficiency():
    section = theory.verify_kl_rank_deficiency(seed=0, per_dim=20)
    for rec in section["instances"]:
        assert rec["flagged"] == rec["total"] == 20
    _report(4, "KL from rank-deficient Gaussians flagged infinite (3 dims x 20)",
            section["pass"])


def test_criterion_5_empirical_w1_mean_shift():
    section = theory.verify_w1_mean_shift(seed=0, n=256, n_sigmas=5)
    for rec in section["instances"]:
        assert rec["relative_error"] <= 0.12
    _report(5, "empirical W1 within 12% of the mean shift (5 sigmas x 2 shifts)",
            section["pass"])


# ---------------------------------------------------------------- criterion 6


def _mk(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def _kink_free(rng, *shape, margin=5e-2):
    x = rng.uniform(-2.0, 2.0, size=shape)
    return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * margin, x)


def _op_cases(rng):
    """One (name, build, arrays) triple per autodiff op, freshly randomized."""
    cases = []
    x34 = _kink_free(rng, 3, 4)
    y34 = _mk(rng, 3, 4)
    p34 = rng.uniform(-1, 1, size=(3, 4))
    cases += [
        ("softplus", lambda t, a: random_projection_head(t, t.softplus(a), p34), [x34]),
        ("exp", lambda t, a: random_projection_head(t, t.exp(t.scale(a, 0.4)), p34), [x34]),
        ("add_scale", lambda t, a, b: random_projection_head(
            t, t.add(t.scale(a, 1.7), b), p34), [x34, y34]),
        ("hadamard", lambda t, a, b: random_projection_head(t, t.hadamard(a, b), p34),
         [x34, y34]),
        ("mean_all", lambda t, a: t.mean_all(a), [y34]),
        ("sum_all", lambda t, a: t.sum_all(t.hadamard(a, p34)), [y34]),
    ]
    for act in ACTIVATIONS:
        for batch_norm in (True, False):
            cases.append((f"dense_{act}_{'batch_norm' if batch_norm else 'plain'}",
                          *dense_case(rng, act, batch_norm)))
    a43 = _mk(rng, 4, 3)
    b32 = _mk(rng, 3, 2)
    p42 = rng.uniform(-1, 1, size=(4, 2))
    cases.append(("matmul", lambda t, aa, bb: random_projection_head(
        t, t.matmul(aa, bb), p42), [a43, b32]))

    x53 = _mk(rng, 5, 3)

    am, bm = _mk(rng, 3, 4), _mk(rng, 3, 4)
    if np.min(np.linalg.norm(am - bm, axis=1)) < 5e-2:
        am = am + 0.3
    cases.append(("mean_rowwise_norm_diff", lambda t, a, bb: t.mean_rowwise_norm_diff(a, bb),
                  [am, bm]))
    cases.append(("mean_rowwise_sqnorm_diff",
                  lambda t, a, bb: t.mean_rowwise_norm_diff(a, bb, squared=True), [am, bm]))
    rows_ok = am + np.sign(am) * 0.1
    cases.append(("normalize_rows", lambda t, a: random_projection_head(
        t, t.normalize_rows(a), p34), [rows_ok]))

    a52 = _mk(rng, 5, 2)
    s35 = _mk(rng, 3, 5)
    p62 = rng.uniform(-1, 1, size=(6, 2))
    cases.append(("batch_diag_sandwich", lambda t, aa, ss: random_projection_head(
        t, t.batch_diag_sandwich(aa, ss), p62), [a52, s35]))
    # spectral truncation after the sandwich, as in training; at d=2 the one
    # gap is the gap across the cut, the only non-smooth point
    while True:
        a_eig = _mk(rng, 5, 2)
        s_eig = _mk(rng, 3, 5)
        blocks = np.einsum("pk,lp,pq->lkq", a_eig, s_eig, a_eig)
        gaps = [np.diff(np.sort(np.linalg.eigvalsh(m)))[0] for m in blocks]
        if min(gaps) >= 0.1:
            break
    cases.append(("spectral_truncate", lambda t, aa, ss: random_projection_head(
        t, t.spectral_truncate(t.batch_diag_sandwich(aa, ss), 2), p62), [a_eig, s_eig]))

    nrows, dd, ndraws = 3, 2, 8
    labels = rng.integers(1, 3, size=ndraws)
    pidx = rng.integers(0, nrows, size=ndraws)
    e1 = rng.standard_normal((ndraws, dd))
    e2 = rng.standard_normal((ndraws, dd))
    p82 = rng.uniform(-1, 1, size=(ndraws, dd))
    cases.append(("mixture_sample", lambda t, m1, m2_, f1, f2: random_projection_head(
        t, t.mixture_sample(m1, m2_, f1, f2, labels, pidx, e1, e2), p82),
        [_mk(rng, 3, 2), _mk(rng, 3, 2), _mk(rng, 6, 2), _mk(rng, 6, 2)]))
    s32 = _mk(rng, 3, 2)
    cases.append(("rows_to_diag_blocks", lambda t, ss: random_projection_head(
        t, t.rows_to_diag_blocks(ss), p62), [s32]))
    idx = rng.integers(0, 5, size=7)
    p73 = rng.uniform(-1, 1, size=(7, 3))
    cases.append(("gather_rows", lambda t, a: random_projection_head(
        t, t.gather_rows(a, idx), p73), [x53]))
    p52 = rng.uniform(-1, 1, size=(5, 2))
    cases.append(("col_block", lambda t, a: random_projection_head(
        t, t.col_block(a, 1, 3), p52), [x53]))
    mu42 = _mk(rng, 4, 2)
    lv42 = rng.uniform(-1.5, 1.5, size=(4, 2))
    cases.append(("vae_kl_diag", lambda t, m, l: t.vae_kl_diag(m, l), [mu42, lv42]))
    return cases


def test_criterion_6a_every_op_matches_finite_differences():
    rng = np.random.default_rng(60)
    names = None
    for _ in range(N_GRAD_INSTANCES):
        cases = _op_cases(rng)
        names = [c[0] for c in cases]
        for name, build, arrays in cases:
            check_grads(build, arrays)
    _report(6, f"{len(names)} ops x {N_GRAD_INSTANCES} instances match central FD", True)


@pytest.mark.parametrize("split", [0.0, 1e-7])
@pytest.mark.parametrize("d", [4, 8])
def test_criterion_6a_truncation_with_tied_kept_eigenvalues(d, split):
    # The truncation is smooth wherever the gap across the cut is open, however
    # close the kept eigenvalues are; its backward must match FD there too.
    rng = np.random.default_rng(62)
    kept = [3.0 + split, 3.0] + [2.0, 1.5][: d // 2 - 2]
    dropped = [0.5, -0.5, -1.0, -2.0][: d // 2]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = (q * np.array(kept + dropped)) @ q.T
    m = 0.5 * (m + m.T)
    proj = rng.uniform(-1.0, 1.0, size=(d, d))

    def build(t, mn):
        return random_projection_head(t, t.spectral_truncate(mn, d), proj)

    tape = Tape()
    grads = tape.backward(build(tape, tape.param(m, "m")))
    worst = symmetric_fd_check(build, m, grads["m"])
    _report(6, f"truncation at d={d}, kept eigenvalues 3 and 3+{split:g}: "
               f"symmetric FD within {worst:.1e}", True)


def _instance_is_clean(tape, model, xb, point_idx):
    """Reject relu kinks, tiny eigen-gaps across the truncation cut, and
    near-zero norms for FD accuracy."""
    kinked_layers = sum(
        act != "linear" for net in ("enc", "dec") for act in model.specs[net].activations
    )
    seen = truncations = 0
    for node in tape.nodes:
        if isinstance(node, DenseNode) and node.act != "linear":
            seen += 1
            if np.min(np.abs(node.pre)) < 1e-3:
                return False
        if isinstance(node, SpectralNode):
            truncations += 1
            keep = node.eigenvalues.shape[1] // 2
            if np.min(node.eigenvalues[:, keep - 1] - node.eigenvalues[:, keep]) < 0.05:
                return False
        if node.tag == "mean_rowwise_norm_diff" and node.parents:
            decoded = node.parents[0].value
            if np.min(np.linalg.norm(decoded - xb[point_idx], axis=1)) < 1e-2:
                return False
    assert seen == kinked_layers, f"kink filter saw {seen} of {kinked_layers} relu layers"
    assert truncations == 1, f"gap filter saw {truncations} truncations, expected 1"
    return True


def test_criterion_6b_three_losses_match_finite_differences():
    rng = np.random.default_rng(61)
    h = 1e-5
    coords_per_instance = 6
    done = 0
    while done < N_GRAD_INSTANCES:
        model, xb, noise = loss_model_and_noise(rng)
        tape, root = loss_value(model, xb, noise, "vae")
        if not _instance_is_clean(tape, model, xb, noise[1]):
            continue
        done += 1
        for which in ("vae", "critic", "gen"):
            tape, root = loss_value(model, xb, noise, which)
            grads = tape.backward(root)
            names = list(model.store.params)
            for _ in range(coords_per_instance):
                name = names[int(rng.integers(0, len(names)))]
                flat = model.store.params[name].reshape(-1)
                idx = int(rng.integers(0, flat.size))
                orig = flat[idx]
                flat[idx] = orig + h
                _, rp = loss_value(model, xb, noise, which)
                up = float(rp.value)
                flat[idx] = orig - h
                _, rm = loss_value(model, xb, noise, which)
                down = float(rm.value)
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                if name in grads:
                    ad = grads[name].reshape(-1)[idx]
                else:
                    ad = 0.0  # parameter not on this loss's tape: gradient is zero
                assert abs(ad - fd) / max(1.0, abs(fd)) <= 1e-4, (
                    f"{which} loss, {name}[{idx}]: ad={ad} fd={fd}"
                )
    _report(6, f"three losses x {N_GRAD_INSTANCES} instances match central FD "
               "(frozen noise)", True)


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_sampler_statistics():
    # the training sampler (_draw_batch_noise -> _forward_generated) on an encoder
    # pinned to fixed outputs, against the mixture computed here
    rng = np.random.default_rng(70)
    d = 2
    a = rng.standard_normal((5, d))
    mu01, mu02, s01, s02 = rng.standard_normal((4, 5))
    n = 100_000
    model = pinned_model(mu01, mu02, s01, s02, a=a, samples=n)
    z, labels, _ = draw_latents(model, 71)
    w, q = np.linalg.eigh(a.T @ (s01[:, None] * a))
    top = q[:, np.argmax(w)]
    m1 = w.max() * np.outer(top, top)  # keep the larger signed eigenvalue (d/2 = 1)
    m2 = a.T @ (s02[:, None] * a)
    eta = model.hp.eta
    mu1, mu2 = a.T @ mu01, a.T @ mu02
    expected_mean = eta * mu1 + (1.0 - eta) * mu2
    mc_sigma = np.sqrt(np.var(z, axis=0) / n)
    assert np.all(np.abs(z.mean(axis=0) - expected_mean) <= 3.0 * mc_sigma)
    for mode, m in ((1, m1), (2, m2)):
        sigma = m @ m.T + np.eye(d)
        sel = z[labels == mode]
        nm = sel.shape[0]
        emp = np.cov(sel.T, bias=True)
        # MC sigma of a Gaussian covariance entry: sqrt((S_ii S_jj + S_ij^2) / n)
        bound = 3.0 * np.sqrt(
            (np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / nm
        )
        assert np.all(np.abs(emp - sigma) <= bound + 1e-12)
    _report(7, "training sampler reproduces mixture mean and per-mode covariance "
               "(1e5 draws, 3 MC sigma)", True)


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(80)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert E.auc(scores, labels) == pytest.approx(
            _brute_force_roc_auc(scores, labels), abs=0.0
        )
        tied = np.round(scores, 1)  # tie-heavy: about 40 distinct values
        assert E.auc(tied, labels) == pytest.approx(_brute_force_roc_auc(tied, labels), abs=0.0)
        assert E.ap(scores, labels) == pytest.approx(
            _brute_force_pr_ap(scores, labels), abs=1e-12
        )
    _report(8, "AUC/AP equal brute-force all-thresholds constructions on 200 sets "
               "(AUC also with rounded, tied scores)", True)


# ---------------------------------------------------------------- criteria 9-10


BENCH_SPLIT = dict(n_train=500, c=0.2, n_test=200, c_tests=(0.1, 0.3, 0.5), seed=0)


def _bench_family():
    return E.SyntheticFamily(20, 1, noise=0.1, seed=0)


def _bench_hp(variant):
    return M.Hyperparams(
        d=2, dprime=16, samples=5, epochs=100, batch_size=32,
        lr_vae=5e-5, lr_critic=5e-4, eta=5.0 / 6.0, variant=variant,
    )


def test_criterion_9_end_to_end_benchmark():
    t0 = time.time()
    family = _bench_family()
    split = E.SplitSpec(**BENCH_SPLIT)
    reports = E.run_experiment(
        family, [split], ["maw", "vae"], [0, 1, 2], _bench_hp("maw")
    )
    elapsed = time.time() - t0
    by_variant = {r.variant: r for r in reports}
    maw_auc = by_variant["maw"].auc_mean
    vae_auc = by_variant["vae"].auc_mean
    ok = maw_auc >= 0.85 and maw_auc > vae_auc and elapsed <= 600.0
    _report(9, f"benchmark AUC maw={maw_auc:.4f} (>=0.85) vs vae={vae_auc:.4f} "
               f"in {elapsed:.0f}s (<=600s)", ok)


ABLATIONS = ("maw-mse", "maw-kl", "maw-same-rank", "maw-single-gaussian", "maw-diagonal-cov")


def test_criterion_10_ablations_run_to_completion():
    # same benchmark, c = 0.2, one seed per ablation; only completion and
    # finiteness are asserted
    family = _bench_family()
    split = E.SplitSpec(**BENCH_SPLIT)
    results = {}
    for variant in ABLATIONS:
        reports = E.run_experiment(family, [split], [variant], [0], _bench_hp(variant))
        rep = reports[0]
        assert np.isfinite(rep.auc_mean) and np.isfinite(rep.ap_mean)
        assert 0.0 <= rep.auc_mean <= 1.0
        results[variant] = rep.auc_mean
    summary = " ".join(f"{k}={v:.3f}" for k, v in results.items())
    _report(10, f"ablations finite: {summary}", True)


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_cli_determinism(tmp_path):
    out_dir = tmp_path / "run"
    cfg = {
        "data": {"features": 8, "rank": 1, "noise": 0.1},
        "model": {
            "d": 2, "dprime": 4, "samples": 2, "epochs": 3, "batch_size": 16,
            "lr_vae": 1e-3, "lr_critic": 1e-3,
            "encoder_widths": [8, 8], "decoder_widths": [8, 8], "critic_widths": [8, 8],
        },
        "split": {"n_train": 30, "c": 0.2, "n_test": 16, "c_tests": [0.5], "seed": 0},
        "seeds": [0],
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for _ in range(2):
        assert cli.main(["--config", str(cfg_path), "train"]) == 0
        assert cli.main([
            "--config", str(cfg_path), "score",
            "--checkpoint", str(out_dir / "checkpoint.json"),
        ]) == 0
        blobs.append({
            name: (out_dir / name).read_bytes()
            for name in ("checkpoint.json", "loss_trace.csv", "scores.csv")
        })
    _report(11, "repeated train/score: byte-identical trace, checkpoint, scores",
            blobs[0] == blobs[1])
