import numpy as np
import pytest

from maw import model as M
from maw.autodiff import Tape
from maw.errors import ConfigError, DomainError, ShapeError


A_EMBED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def tiny_hp(**kw):
    base = dict(
        d=2, dprime=4, samples=2, epochs=3, batch_size=8,
        encoder_widths=(8, 8), decoder_widths=(8, 8), critic_widths=(8, 8),
        lr_vae=1e-3, lr_critic=1e-3,
    )
    base.update(kw)
    return M.Hyperparams(**base)


def line_data(n, dim, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    q = np.zeros(dim)
    q[0] = 1.0
    x = rng.standard_normal((n, 1)) * q[None, :] + noise * rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ----------------------------------------------------------------- reduce


def test_reduce_identity_embedding():
    post = M.reduce(np.zeros(3), np.zeros(3), [4.0, 1.0, 9.0], [1.0, 1.0, 1.0], A_EMBED)
    assert np.allclose(post.mtilde1, np.diag([4.0, 0.0]))
    assert np.allclose(post.sigma1, np.diag([17.0, 1.0]))
    assert np.allclose(post.sigma2, 2.0 * np.eye(2))


def test_reduce_signed_value_rule():
    # M1 = diag(-5, 2); the largest signed eigenvalue (2) survives
    post = M.reduce(np.zeros(3), np.zeros(3), [-5.0, 2.0, 0.0], np.zeros(3), A_EMBED)
    assert np.allclose(post.mtilde1, np.diag([0.0, 2.0]))
    assert np.allclose(post.sigma1, np.diag([1.0, 5.0]))


def test_reduce_zero_mean_maps_to_zero():
    post = M.reduce(np.zeros(3), np.ones(3), np.ones(3), np.ones(3), A_EMBED)
    assert np.allclose(post.mu1, 0.0)


def test_reduce_shape_error():
    with pytest.raises(ShapeError):
        M.reduce(np.zeros(4), np.zeros(3), np.zeros(3), np.zeros(3), A_EMBED)


def test_reduce_skip_truncation_keeps_m1():
    post = M.reduce(np.zeros(3), np.zeros(3), [-5.0, 2.0, 0.0], np.zeros(3), A_EMBED,
                    truncate=False)
    assert np.allclose(post.mtilde1, np.diag([-5.0, 2.0]))


def test_sigma1_has_half_unit_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((6, 4))
        post = M.reduce(rng.standard_normal(6), rng.standard_normal(6),
                        rng.standard_normal(6), rng.standard_normal(6), a)
        w = np.sort(np.linalg.eigvalsh(post.sigma1))
        assert np.sum(np.abs(w - 1.0) < 1e-9) >= 2  # d/2 identity-floor eigenvalues
        w2 = np.linalg.eigvalsh(post.sigma2 - np.eye(4))
        assert np.all(w2 >= -1e-9)
        assert np.linalg.matrix_rank(post.sigma2 - np.eye(4), tol=1e-8) == np.linalg.matrix_rank(post.m2, tol=1e-8)


# ----------------------------------------------------------------- sampling


def _point_mass_posterior(eta=5.0 / 6.0, d=2):
    zeros = np.zeros(d)
    zmat = np.zeros((d, d))
    return M.MixturePosterior(zeros, zeros, zmat, zmat, np.eye(d), np.eye(d), eta)


def test_sample_latent_degenerate_eta():
    post = _point_mass_posterior(eta=1.0)
    _, labels = M.sample_latent(post, 100, np.random.default_rng(0))
    assert np.all(labels == 1)


def test_sample_latent_standard_normal_covariance():
    post = _point_mass_posterior()
    z, _ = M.sample_latent(post, 100_000, np.random.default_rng(1))
    cov = np.cov(z.T)
    assert np.all(np.abs(cov - np.eye(2)) <= 0.03)


def test_sample_latent_mode_fraction():
    post = _point_mass_posterior(eta=5.0 / 6.0)
    _, labels = M.sample_latent(post, 100_000, np.random.default_rng(2))
    frac = np.mean(labels == 1)
    assert abs(frac - 5.0 / 6.0) <= 0.005  # 3-sigma binomial bound is ~0.0035


def test_sample_latent_mixture_mean():
    d = 2
    mu1 = np.array([1.0, 0.0])
    mu2 = np.array([-2.0, 1.0])
    post = M.MixturePosterior(mu1, mu2, np.zeros((d, d)), np.zeros((d, d)),
                              np.eye(d), np.eye(d), 5.0 / 6.0)
    z, _ = M.sample_latent(post, 100_000, np.random.default_rng(3))
    expected = post.eta * mu1 + (1 - post.eta) * mu2
    # 3 sigma Monte-Carlo bound per coordinate
    sig = np.sqrt(np.var(z, axis=0) / z.shape[0])
    assert np.all(np.abs(z.mean(axis=0) - expected) <= 3.0 * sig + 1e-12)


def test_sample_latent_forced_mode():
    post = _point_mass_posterior(eta=0.9)
    _, labels = M.sample_latent(post, 50, np.random.default_rng(4), mode=2)
    assert np.all(labels == 2)


# ----------------------------------------------------------------- losses


def test_loss_vae_perfect_reconstruction():
    x = np.array([[1.0, 2.0]])
    decoded = x[:, None, :].repeat(3, axis=1)
    assert M.loss_vae(x, decoded) == 0.0


def test_loss_vae_hand_value():
    x = np.array([[1.0, 1.0]])
    decoded = np.zeros((1, 1, 2))
    assert M.loss_vae(x, decoded) == pytest.approx(np.sqrt(2.0))


def test_loss_vae_mean_of_norms():
    x = np.array([[1.0, 0.0], [3.0, 0.0]])
    decoded = np.zeros((2, 1, 2))
    assert M.loss_vae(x, decoded) == pytest.approx(2.0)
    # MSE variant: (1 + 9) / 2
    assert M.loss_vae(x, decoded, squared=True) == pytest.approx(5.0)


def test_loss_vae_invariances():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3))
    decoded = rng.standard_normal((4, 2, 3))
    base = M.loss_vae(x, decoded)
    perm = rng.permutation(4)
    assert M.loss_vae(x[perm], decoded[perm]) == pytest.approx(base, rel=1e-12)
    # scaling all residuals scales the loss linearly
    scaled = M.loss_vae(3.0 * x, 3.0 * decoded)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_loss_w1_and_gen():
    assert M.loss_w1_critic([1.0, 2.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert M.loss_w1_critic([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert M.loss_gen([1.0, 3.0]) == pytest.approx(-2.0)
    with pytest.raises(ShapeError):
        M.loss_w1_critic([1.0], [1.0, 2.0])


def test_cosine_score_examples():
    y = np.array([1.0, 1.0])
    assert M.cosine_score(y, [y, y]) == pytest.approx(1.0)
    assert M.cosine_score(y, [[1.0, -1.0]]) == pytest.approx(0.0, abs=1e-12)
    assert M.cosine_score(y, [[1.0, 0.0]]) == pytest.approx(1.0 / np.sqrt(2.0))
    assert M.cosine_score(np.zeros(2), [[1.0, 0.0]]) == 0.0
    assert M.cosine_score(y, [[0.0, 0.0]]) == 0.0


# ----------------------------------------------------------------- variants


def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        tiny_hp(d=3)
    with pytest.raises(ConfigError):
        tiny_hp(eta=0.5)
    with pytest.raises(ConfigError):
        tiny_hp(variant="maw-unknown")


def test_single_gaussian_noise_uses_full_mode():
    hp = tiny_hp(variant="maw-single-gaussian")
    labels, *_ = M._draw_batch_noise(hp, np.random.default_rng(0), 4)
    assert np.all(labels == 2)


# ----------------------------------------------------------------- training


def test_train_zero_epochs_returns_init():
    hp = tiny_hp(epochs=0)
    x = line_data(8, 5, seed=0)
    model, trace = M.train(x, hp, seed=1)
    assert trace == []
    fresh = M.init_model(hp, 5, np.random.default_rng(1))
    for k in fresh.store.params:
        assert np.array_equal(fresh.store.params[k], model.store.params[k])


def test_train_decreases_reconstruction_loss():
    hp = tiny_hp(epochs=50, lr_vae=2e-3)
    x = line_data(8, 5, seed=2)
    first, last = [], []
    for seed in (0, 1, 2):
        _, trace = M.train(x, hp, seed=seed)
        first.append(trace[0]["loss_vae"])
        last.append(trace[-1]["loss_vae"])
    assert np.median(last) < np.median(first)


def test_train_is_deterministic():
    hp = tiny_hp(epochs=4)
    x = line_data(10, 4, seed=3)
    m1, t1 = M.train(x, hp, seed=7)
    m2, t2 = M.train(x, hp, seed=7)
    assert t1 == t2  # bit-identical floats
    for k in m1.store.params:
        assert np.array_equal(m1.store.params[k], m2.store.params[k])


def test_train_keeps_critic_weights_clipped():
    hp = tiny_hp(epochs=2, lr_critic=0.5)  # large steps to force clipping
    x = line_data(8, 4, seed=4)
    model, _ = M.train(x, hp, seed=0)
    for name in model.store.names("cri."):
        assert np.all(model.store.params[name] >= -1.0)
        assert np.all(model.store.params[name] <= 1.0)


@pytest.mark.parametrize("variant", [v for v in M.VARIANTS if v != "maw"])
def test_variants_train_and_score(variant):
    hp = tiny_hp(epochs=2, variant=variant)
    x = line_data(9, 4, seed=5)
    model, trace = M.train(x, hp, seed=0)
    assert len(trace) == 2
    assert all(np.isfinite(list(row.values())).all() for row in trace)
    scores = M.score_batch(model, x, seed=0)
    assert scores.shape == (9,)
    assert np.all(np.isfinite(scores))
    assert np.all(scores >= -1.0 - 1e-9)
    assert np.all(scores <= 1.0 + 1e-9)


def test_train_rejects_bad_data():
    hp = tiny_hp()
    with pytest.raises(ShapeError):
        M.train(np.ones(4), hp, seed=0)
    with pytest.raises(DomainError):
        M.train(np.array([[np.nan, 1.0], [0.0, 1.0]]), hp, seed=0)


# ----------------------------------------------------------------- scoring


def test_score_rescaling_invariance():
    hp = tiny_hp(epochs=2)
    x = line_data(8, 4, seed=6)
    model, _ = M.train(x, hp, seed=0)
    y = x[0]
    s1 = M.score(model, y, rng=np.random.default_rng(9))
    s2 = M.score(model, 7.5 * y, rng=np.random.default_rng(9))
    assert s1 == pytest.approx(s2, abs=1e-12)
    assert -1.0 - 1e-9 <= s1 <= 1.0 + 1e-9


def test_score_batch_deterministic_and_split_invariant():
    hp = tiny_hp(epochs=2)
    x = line_data(8, 4, seed=7)
    model, _ = M.train(x, hp, seed=0)
    s_all = M.score_batch(model, x, seed=3)
    s_again = M.score_batch(model, x, seed=3)
    assert np.array_equal(s_all, s_again)
    # row j always draws from child stream j, so any prefix scores alone as in
    # the whole batch; other slices get other streams
    for k in (1, 3, 5):
        s_prefix = M.score_batch(model, x[:k], seed=3)
        assert np.allclose(s_prefix, s_all[:k], rtol=0.0, atol=1e-12)


def test_zero_critic_gives_zero_w1_and_zero_generator_gradient():
    hp = tiny_hp()
    x = line_data(8, 4, seed=8)
    model = M.init_model(hp, 4, np.random.default_rng(0))
    for name in model.store.names("cri."):
        model.store.params[name][:] = 0.0
    noise = M._draw_batch_noise(hp, np.random.default_rng(1), 8)
    labels, point_idx, eps1, eps2, z_hyp = noise

    tape = Tape()
    z = M._forward_generated(tape, model, x, labels, point_idx, eps1, eps2, True)
    d_gen = M._critic(tape, model, z, True)
    d_hyp = M._critic(tape, model, tape.const(z_hyp), True)
    l_w1 = tape.add(tape.mean_all(d_gen), tape.scale(tape.mean_all(d_hyp), -1.0))
    assert float(l_w1.value) == 0.0
    l_gen = tape.scale(tape.mean_all(d_gen), -1.0)
    grads = tape.backward(l_gen)
    for name in model.store.names("enc.") + ["A"]:
        assert np.allclose(grads[name], 0.0)


def test_checkpoint_roundtrip():
    hp = tiny_hp(epochs=2)
    x = line_data(8, 4, seed=9)
    model, _ = M.train(x, hp, seed=0)
    payload = model.to_payload()
    clone = M.MawModel.from_payload(payload)
    s1 = M.score_batch(model, x, seed=5)
    s2 = M.score_batch(clone, x, seed=5)
    assert np.array_equal(s1, s2)
    assert clone.optimizers["vae"].slots["step"] == model.optimizers["vae"].slots["step"]
