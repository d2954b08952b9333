import ast
import copy
import dataclasses
import inspect
import json
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from _gradcheck import one_pass_mlp
from maw import model as M
from maw import autodiff, linalg, nets
from maw.autodiff import BN_EPS, MlpNode, Tape
from maw.errors import ConfigError, DataError, DomainError, ShapeError


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


# ------------------------------------------------------- pinned encoder


def pinned_model(mu01, mu02, s01, s02, a=A_EMBED, **hp_kw):
    """A model whose encoder emits (mu01, mu02, s01, s02) for every input row.

    The last encoder layer's weights are zero and its bias holds the four
    blocks, so the reduction, truncation and sampling downstream of the
    encoder see chosen values.
    """
    a = np.asarray(a, dtype=np.float64)
    hp = tiny_hp(dprime=a.shape[0], d=a.shape[1], **hp_kw)
    model = as_float64(M.init_model(hp, 4, np.random.default_rng(0)))
    last = len(hp.encoder_widths)
    model.store.params[f"enc.l{last}.W"][:] = 0.0
    model.store.params[f"enc.l{last}.b"] = np.concatenate(
        [np.asarray(v, dtype=np.float64) for v in (mu01, mu02, s01, s02)]
    )
    model.store.params["A"] = a
    return model


PINNED_INPUT = np.full((1, 4), 0.5)


def inlier_mode(model):
    mu, factors = M._inlier_mode_factors(model, M._scoring_plan(model), PINNED_INPUT)
    return mu[0], factors[0]


def fresh_optimizers(model):
    """model with new optimizers at step 0 over its store, in its arrays' dtype."""
    model.optimizers = {key: nets.Optimizer(o.kind, o.learning_rate, o.names, model.store)
                        for key, o in model.optimizers.items()}
    return model


def as_float64(model):
    """model with its parameters and state cast up to float64, and float64
    optimizers over them, so that its tapes and steps run in float64 (the
    finite-difference checks' dtype)."""
    store = model.store
    store.params = {k: v.astype(np.float64) for k, v in store.params.items()}
    store.state = {k: v.astype(np.float64) for k, v in store.state.items()}
    return fresh_optimizers(model)


def float64_noise(hp, rng, batch_rows):
    """M._draw_batch_noise with its draws cast back up to float64."""
    labels, point_idx, *draws = M._draw_batch_noise(hp, rng, batch_rows)
    return (labels, point_idx, *(e.astype(np.float64) for e in draws))


def draw_latents(model, seed):
    """hp.samples training draws for one row: (z, labels, eps2).  Batch norm
    needs two rows; the row twice normalizes to zero, and the pinned last
    layer's zero weights keep its bias's bits."""
    labels, _, eps1, eps2, _ = float64_noise(model.hp, np.random.default_rng(seed), 1)
    z = M._forward_generated(Tape(), model, np.repeat(PINNED_INPUT, 2, axis=0), labels,
                             eps1, eps2)
    return z.value, labels, eps2


# ----------------------------------------------------------------- reduce


def test_reduce_identity_embedding():
    mu, f = inlier_mode(pinned_model([1.0, 2.0, 3.0], np.zeros(3),
                                     [4.0, 1.0, 9.0], [1.0, 1.0, 1.0]))
    assert np.allclose(mu, [1.0, 2.0])
    assert np.allclose(f, np.diag([4.0, 0.0]))
    assert np.allclose(f @ f.T + np.eye(2), np.diag([17.0, 1.0]))


def test_reduce_signed_value_rule():
    # M1 = diag(-5, 2); the largest signed eigenvalue (2) survives
    _, f = inlier_mode(pinned_model(np.zeros(3), np.zeros(3), [-5.0, 2.0, 0.0], np.zeros(3)))
    assert np.allclose(f, np.diag([0.0, 2.0]))
    assert np.allclose(f @ f.T + np.eye(2), np.diag([1.0, 5.0]))


def test_reduce_zero_mean_maps_to_zero():
    mu, _ = inlier_mode(pinned_model(np.zeros(3), np.ones(3), np.ones(3), np.ones(3)))
    assert np.allclose(mu, 0.0)


def test_reduce_skip_truncation_keeps_m1():
    _, f = inlier_mode(pinned_model(np.zeros(3), np.zeros(3), [-5.0, 2.0, 0.0], np.zeros(3),
                                       variant="maw-same-rank"))
    assert np.allclose(f, np.diag([-5.0, 2.0]))


def test_reduce_single_gaussian_scores_full_mode():
    # the ablation samples only mode 2 in training, so scoring uses mode 2, untruncated
    mu, f = inlier_mode(pinned_model(
        [1.0, 2.0, 3.0], [-1.0, 4.0, 0.0], [4.0, 1.0, 9.0], [-5.0, 2.0, 0.0],
        variant="maw-single-gaussian",
    ))
    assert np.allclose(mu, [-1.0, 4.0])
    assert np.allclose(f, np.diag([-5.0, 2.0]))


def test_sigma1_has_half_unit_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((6, 4))
        _, f = inlier_mode(pinned_model(*rng.standard_normal((4, 6)), a=a))
        w = np.linalg.eigvalsh(f @ f.T + np.eye(4))
        assert np.sum(np.abs(w - 1.0) < 1e-9) >= 2  # d/2 identity-floor eigenvalues
        assert np.all(w >= 1.0 - 1e-9)


# ----------------------------------------------------------------- sampling


def test_sample_latent_standard_normal_covariance():
    # zero means and factors leave only the identity floor: z = eps2
    model = pinned_model(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), samples=100_000)
    z, _, eps2 = draw_latents(model, 1)
    assert np.array_equal(z, eps2)
    assert np.all(np.abs(np.cov(z.T) - np.eye(2)) <= 0.03)


def test_sample_latent_mixture_mean():
    # mode means (1, 0) and (-2, 1) with zero factors: z = mu_k + eps2
    model = pinned_model([1.0, 0.0, 0.0], [-2.0, 1.0, 0.0], np.zeros(3), np.zeros(3),
                         samples=100_000)
    z, _, _ = draw_latents(model, 3)
    eta = model.hp.eta
    expected = eta * np.array([1.0, 0.0]) + (1.0 - eta) * np.array([-2.0, 1.0])
    # 3 sigma Monte-Carlo bound per coordinate
    sig = np.sqrt(np.var(z, axis=0) / z.shape[0])
    assert np.all(np.abs(z.mean(axis=0) - expected) <= 3.0 * sig + 1e-12)


def test_sample_latent_mode_fraction():
    labels, *_ = M._draw_batch_noise(tiny_hp(samples=100_000), np.random.default_rng(2), 1)
    frac = np.mean(labels == 1)
    assert abs(frac - 5.0 / 6.0) <= 0.005  # 3-sigma binomial bound is ~0.0035


def test_sample_latent_forced_mode():
    model = pinned_model([1.0, 0.0, 0.0], [-2.0, 1.0, 0.0], np.zeros(3), np.zeros(3),
                         samples=50, variant="maw-single-gaussian")
    z, labels, eps2 = draw_latents(model, 4)
    assert np.all(labels == 2)
    assert np.allclose(z - eps2, [-2.0, 1.0], rtol=0.0, atol=1e-12)


# ----------------------------------------------------------------- losses


def loss_vae(x, decoded, squared=False):
    """The training reconstruction loss for rows x (L, D) and decodes (L, T, D)."""
    x = np.asarray(x, dtype=np.float64)
    decoded = np.asarray(decoded, dtype=np.float64)
    nrows, ndraws, _ = decoded.shape
    tape = Tape()
    out = tape.mean_rowwise_norm_diff(
        tape.const(decoded.reshape(nrows * ndraws, -1)),
        tape.const(np.repeat(x, ndraws, axis=0)),
        squared=squared,
    )
    return float(out.value)


def test_loss_vae_perfect_reconstruction():
    x = np.array([[1.0, 2.0]])
    decoded = x[:, None, :].repeat(3, axis=1)
    assert loss_vae(x, decoded) == 0.0


def test_loss_vae_hand_value():
    x = np.array([[1.0, 1.0]])
    decoded = np.zeros((1, 1, 2))
    assert loss_vae(x, decoded) == pytest.approx(np.sqrt(2.0))


def test_loss_vae_mean_of_norms():
    x = np.array([[1.0, 0.0], [3.0, 0.0]])
    decoded = np.zeros((2, 1, 2))
    assert loss_vae(x, decoded) == pytest.approx(2.0)
    # MSE variant: (1 + 9) / 2
    assert loss_vae(x, decoded, squared=True) == pytest.approx(5.0)


def test_loss_vae_invariances():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3))
    decoded = rng.standard_normal((4, 2, 3))
    base = loss_vae(x, decoded)
    perm = rng.permutation(4)
    assert loss_vae(x[perm], decoded[perm]) == pytest.approx(base, rel=1e-12)
    # scaling all residuals scales the loss linearly
    scaled = loss_vae(3.0 * x, 3.0 * decoded)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_cosine_score_examples():
    # scoring passes only unit and zero rows
    y = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert M.cosine_score(y, [y, y]) == pytest.approx(1.0)
    assert M.cosine_score(y, [[y[0], -y[1]]]) == pytest.approx(0.0, abs=1e-12)
    assert M.cosine_score(y, [[1.0, 0.0]]) == pytest.approx(1.0 / np.sqrt(2.0))
    assert M.cosine_score(y, [[1.0, 0.0], [0.0, 0.0]]) == pytest.approx(0.5 / np.sqrt(2.0))
    assert M.cosine_score(np.zeros(2), [[1.0, 0.0]]) == 0.0
    assert M.cosine_score(y, [[0.0, 0.0]]) == 0.0


def test_cosine_score_stays_in_its_range():
    # without the clip, 3,442 of these rows scored 4.4e-16 beyond +-1
    y = linalg.normalize_rows(np.random.default_rng(3).standard_normal((20_000, 16)))
    for sign in (1.0, -1.0):
        got = M.cosine_score(y, sign * np.repeat(y[:, None, :], 5, axis=1))
        assert np.all(np.abs(got) <= 1.0)
        np.testing.assert_allclose(got, sign, rtol=0.0, atol=1e-15)


# ----------------------------------------------------------------- variants


def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        tiny_hp(d=3)
    with pytest.raises(ConfigError):
        tiny_hp(eta=0.5)
    with pytest.raises(ConfigError):
        tiny_hp(variant="maw-unknown")


@pytest.mark.parametrize("variant", [["maw"], {"a": 1}, 5, None, True, "MAW"])
def test_hyperparams_reject_bad_variants(variant):
    # the table is a dict: an unhashable name must not reach the lookup as a TypeError
    with pytest.raises(ConfigError, match="variant"):
        tiny_hp(variant=variant)


def test_each_ablation_removes_exactly_one_ingredient():
    assert M.VARIANTS == tuple(M.INGREDIENTS)
    fields, maw = [f.name for f in dataclasses.fields(M.Ingredients)], M.INGREDIENTS["maw"]
    removed = []
    for variant in M.VARIANTS:
        if variant.startswith("maw-"):
            ing = tiny_hp(variant=variant).ingredients
            (field,) = [f for f in fields if getattr(ing, f) != getattr(maw, f)]
            removed.append(field)
    assert sorted(removed) == sorted(fields)  # no field removed twice
    assert tiny_hp(variant="vae").ingredients is None
    assert "ingredients" not in tiny_hp().to_dict()


def _hyperparams_validation_nodes(tree):
    """The nodes of Hyperparams.__post_init__, the one place that reads the name."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Hyperparams":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    return {id(node) for node in ast.walk(fn)}
    return set()


@pytest.mark.parametrize("module", [M, nets])
def test_no_code_compares_a_variant_name(module):
    # the model reads INGREDIENTS' fields; a name check would spread what a
    # variant means over the functions again
    tree = ast.parse(inspect.getsource(module))
    allowed = _hyperparams_validation_nodes(tree)
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in allowed
        and any(isinstance(x, ast.Attribute) and x.attr == "variant"
                for x in [node.left, *node.comparators])
    ]
    assert found == []


@pytest.mark.parametrize("key", M.INT_KEYS)
def test_hyperparams_int_fields(key):
    for bad in (2.5, True, np.bool_(True), "4", None):
        with pytest.raises(ConfigError, match=key):
            tiny_hp(**{key: bad})
    for good in (4.0, np.int64(4), np.uint32(4)):
        value = getattr(tiny_hp(**{key: good}), key)
        assert value == 4 and type(value) is int


@pytest.mark.parametrize("key", M.INT_KEYS + M.WIDTH_KEYS)
def test_hyperparams_bound_every_size(key):
    top = linalg.SIZE_MAX - (key == "d")  # d is even
    value = (1, top) if key in M.WIDTH_KEYS else top
    assert getattr(tiny_hp(**{key: value}), key) == value
    for bad in (linalg.SIZE_MAX + 1, 10**18, 10**29, 2.0**64):
        with pytest.raises(ConfigError, match=key):
            tiny_hp(**{key: (8, bad) if key in M.WIDTH_KEYS else bad})



@pytest.mark.parametrize("key", M.WIDTH_KEYS)
def test_network_specs_bound_each_product_of_adjacent_widths(key):
    # one weight of the network is that product's size: Hyperparams bounds each
    # width alone, and network_specs, the one bound on the weights, the product
    for good in ((46340, 46340), (1, linalg.SIZE_MAX, 1)):
        assert M.network_specs(tiny_hp(**{key: good}), 4)[key[:3]].widths[:-1] == good
    for bad, detail in (((65536, 32768), "65536 x 32768"), ((8, linalg.SIZE_MAX), "8 x 2147483647"),
                        ((8, 65536, 65536, 8), "65536 x 65536")):
        hp = tiny_hp(**{key: bad})
        with pytest.raises(ConfigError, match=f"a {detail} weight has more than {linalg.SIZE_MAX}"):
            M.network_specs(hp, 4)


@pytest.mark.parametrize("variant, d, detail", [
    ("maw", 16, "268435456 x 16"),  # A, dprime x d
    ("vae", 2, "1073741824 x 4"),  # the head, 4 dprime x 2 d
], ids=["A", "head"])
def test_init_model_bounds_the_weights_outside_the_networks(monkeypatch, variant, d, detail):
    # each network's weights are within linalg.SIZE_MAX (4 dprime = 2^30 entries
    # at most, in the encoder's last layer); the bound refuses before any draw
    def no_draw(*args):
        raise AssertionError("a weight was drawn")

    monkeypatch.setattr(nets, "glorot_init", no_draw)
    hp = tiny_hp(d=d, dprime=2**28, encoder_widths=(1,), variant=variant)
    with pytest.raises(ConfigError, match=f"a {detail} weight has more than {linalg.SIZE_MAX}"):
        M.init_model(hp, 4, np.random.default_rng(0))


@pytest.mark.parametrize("kw, feature_dim, detail", [
    (dict(encoder_widths=(32768,)), 65536, "65536 x 32768"),
    (dict(encoder_widths=(1, 65536), dprime=8192), 4, "65536 x 32768"),  # x 4 dprime
    (dict(decoder_widths=(2**30,)), 4, "2 x 1073741824"),
    (dict(critic_widths=(2**30,)), 4, "2 x 1073741824"),
    (dict(decoder_widths=(1, 65536)), 32768, "65536 x 32768"),
], ids=["feature_dim x first encoder", "last encoder x quarters", "d x first decoder",
        "d x first critic", "last decoder x feature_dim"])
def test_init_model_bounds_the_weights_across_sections(monkeypatch, kw, feature_dim, detail):
    # each size and each product of adjacent widths within one list is within
    # linalg.SIZE_MAX; the weight joining two sections is not, and network_specs
    # refuses it before any draw
    def no_draw(*args):
        raise AssertionError("a weight was drawn")

    monkeypatch.setattr(nets, "glorot_init", no_draw)
    hp = tiny_hp(**kw)
    with pytest.raises(ConfigError, match=f"a {detail} weight has more than {linalg.SIZE_MAX}"):
        M.init_model(hp, feature_dim, np.random.default_rng(0))


@pytest.mark.parametrize("key", M.FLOAT_KEYS)
def test_hyperparams_float_fields(key):
    for bad in (True, np.bool_(False), float("nan"), float("inf"), -float("inf"),
                np.float32("inf"), "x", "0.7", None, 10**400):
        with pytest.raises(ConfigError, match=key):
            tiny_hp(**{key: bad})
    if key != "eta":  # an int learning rate is taken as its float
        for good in (1, np.int64(1), np.float32(1.0)):
            value = getattr(tiny_hp(**{key: good}), key)
            assert value == 1.0 and type(value) is float


@pytest.mark.parametrize("widths", ["ab", (), (8, 0), (8, True), (8, 2.0), 8, None])
def test_hyperparams_reject_bad_widths(widths):
    for key in M.WIDTH_KEYS:
        with pytest.raises(ConfigError, match=key):
            tiny_hp(**{key: widths})
    assert tiny_hp(encoder_widths=[3, 5]).encoder_widths == (3, 5)


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


BAD_SEEDS = [None, True, np.bool_(True), -1, 1.5, "1", np.int64(-2)]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_train_checks_its_seed(seed):
    with pytest.raises(DomainError, match="seed must be"):
        M.train(line_data(8, 4, seed=0), tiny_hp(epochs=1), seed=seed)


def test_train_takes_a_numpy_or_integral_float_seed_as_its_int():
    hp = tiny_hp(epochs=2)
    x = line_data(10, 4, seed=3)
    m1, t1 = M.train(x, hp, seed=7)
    for seed in (np.uint32(7), np.int64(7), 7.0):
        m2, t2 = M.train(x, hp, seed=seed)
        assert t1 == t2
        assert json.dumps(m1.to_payload()) == json.dumps(m2.to_payload())


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


def test_score_batch_deterministic_and_prefix_invariant():
    hp = tiny_hp(epochs=2)
    x = line_data(8, 4, seed=7)
    model, _ = M.train(x, hp, seed=0)
    s_all = M.score_batch(model, x, seed=3)
    s_again = M.score_batch(model, x, seed=3)
    assert np.array_equal(s_all, s_again)
    # row j always uses block j of the seed's normal draws, so any prefix scores
    # alone as in the whole batch; other slices get other draws
    for k in (1, 3, 5):
        s_prefix = M.score_batch(model, x[:k], seed=3)
        assert np.allclose(s_prefix, s_all[:k], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_score_batch_checks_its_seed(seed):
    model = M.init_model(tiny_hp(), 4, np.random.default_rng(0))
    with pytest.raises(DomainError, match="seed must be"):
        M.score_batch(model, line_data(3, 4, seed=1), seed=seed)


def test_score_batch_takes_a_numpy_seed_as_its_int():
    model = M.init_model(tiny_hp(), 4, np.random.default_rng(0))
    rows = line_data(3, 4, seed=1)
    want = M.score_batch(model, rows, seed=3)
    for seed in (np.uint32(3), np.int64(3), 3.0):
        assert np.array_equal(M.score_batch(model, rows, seed=seed), want)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_score_is_score_batch_of_one_row(variant):
    model = M.init_model(tiny_hp(variant=variant), 4, np.random.default_rng(1))
    y = np.random.default_rng(2).standard_normal((3, 4))
    for s, row in enumerate(y):
        one = M.score(model, row, rng=np.random.default_rng(s))
        batch = M.score_batch(model, row[None], seed=s)[0]
        assert one == pytest.approx(batch, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_score_batch_is_independent_of_chunk_size(variant, monkeypatch):
    model = M.init_model(tiny_hp(variant=variant), 4, np.random.default_rng(1))
    y = np.random.default_rng(2).standard_normal((20, 4))
    whole = M.score_batch(model, y, seed=5)
    for block in (1, 3, 4, 256):  # mlp_apply's row blocks, inside each chunk
        monkeypatch.setattr(nets, "BLOCK_ROWS", block)
        for chunk in (1, 7, 2048, len(y)):
            monkeypatch.setattr(M, "SCORE_CHUNK", chunk)
            chunked = M.score_batch(model, y, seed=5)
            assert np.allclose(chunked, whole, rtol=0.0, atol=1e-12)
            one = M.score(model, y[0], rng=np.random.default_rng(5))
            assert one == pytest.approx(chunked[0], rel=0.0, abs=1e-12)


def test_score_batch_memory_is_bounded_by_the_chunk():
    # 10^5 rows at d=2, dprime=16: the 16 MB input is made before tracing starts,
    # and all n*t decoder activations at once would take ~1.5 GB
    model = M.init_model(M.Hyperparams(d=2, dprime=16), 20, np.random.default_rng(0))
    y = np.random.default_rng(1).standard_normal((100_000, 20))
    tracemalloc.start()
    try:
        scores = M.score_batch(model, y, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (100_000,) and np.all(np.isfinite(scores))
    assert peak < 64 * 2**20


def test_score_rejects_bad_rows():
    model = M.init_model(tiny_hp(), 4, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        M.score_batch(model, np.ones((2, 3)))
    with pytest.raises(ShapeError):
        M.score(model, np.ones(3))
    for bad in (np.nan, np.inf):
        rows = np.ones((3, 4))
        rows[1, 2] = bad
        with pytest.raises(DomainError):
            M.score_batch(model, rows)
        with pytest.raises(DomainError):
            M.score(model, rows[1])


def test_zero_critic_gives_zero_w1_and_zero_generator_gradient():
    hp = tiny_hp()
    x = line_data(8, 4, seed=8).astype(M.TRAIN_DTYPE)
    model = M.init_model(hp, 4, np.random.default_rng(0))
    for name in model.store.names("cri."):
        model.store.params[name][:] = 0.0
    noise = M._draw_batch_noise(hp, np.random.default_rng(1), 8)
    labels, _, eps1, eps2, z_hyp = noise

    tape = Tape()
    z = M._forward_generated(tape, model, x, labels, eps1, eps2)
    d_gen = M._critic(tape, model, z)
    d_hyp = M._critic(tape, model, tape.const(z_hyp))
    l_w1 = tape.add(tape.mean_all(d_gen), tape.scale(tape.mean_all(d_hyp), -1.0))
    assert float(l_w1.value) == 0.0
    l_gen = tape.scale(tape.mean_all(d_gen), -1.0)
    grads = tape.backward(l_gen)
    for name in model.store.names("enc.") + ["A"]:
        assert np.allclose(grads[name], 0.0)


# ------------------------------------------------- fully attached reference


def loss_model_and_noise(rng, variant="maw"):
    """A tiny float64 model with jittered weights, a 3-row unit batch and its
    float64 draws."""
    hp = M.Hyperparams(
        d=2, dprime=3, samples=2, epochs=1, batch_size=4,
        encoder_widths=(5, 4), decoder_widths=(4, 5), critic_widths=(4, 3),
        lr_vae=1e-3, lr_critic=1e-3, variant=variant,
    )
    feature_dim = 4
    model = as_float64(M.init_model(hp, feature_dim, rng))
    for name in model.store.params:
        model.store.params[name] = model.store.params[name] + 0.05 * rng.standard_normal(
            model.store.params[name].shape
        )
    xb = rng.standard_normal((3, feature_dim))
    xb = xb / np.linalg.norm(xb, axis=1, keepdims=True)
    return model, xb, float64_noise(hp, rng, 3)


def loss_value(model, xb, noise, which):
    """One of the three losses ("vae", "critic", "gen") on a fully attached tape.

    Every draw and every weight keeps its gradient, so backward reaches all
    parameters the loss depends on.  The variant picks the loss forms
    (maw-mse: squared reconstruction; maw-kl: the standard-GAN pair).  Every
    node must be float64, the dtype the finite-difference checks need.
    """
    labels, point_idx, eps1, eps2, z_hyp = noise
    variant = model.hp.variant
    tape = Tape()
    z = M._forward_generated(tape, model, xb, labels, eps1, eps2)
    if which == "vae":
        decoded = M._decode(tape, model, z)
        root = tape.mean_rowwise_norm_diff(
            decoded, tape.const(xb[point_idx]), squared=variant == "maw-mse"
        )
    elif which == "critic":
        d_gen = M._critic(tape, model, z)
        d_hyp = M._critic(tape, model, tape.const(z_hyp))
        if variant == "maw-kl":
            root = tape.add(
                tape.mean_all(tape.softplus(tape.scale(d_hyp, -1.0))),
                tape.mean_all(tape.softplus(d_gen)),
            )
        else:
            root = tape.add(tape.mean_all(d_gen), tape.scale(tape.mean_all(d_hyp), -1.0))
    else:
        d_gen = M._critic(tape, model, z)
        if variant == "maw-kl":
            root = tape.mean_all(tape.softplus(tape.scale(d_gen, -1.0)))
        else:
            root = tape.scale(tape.mean_all(d_gen), -1.0)
    assert {node.value.dtype for node in tape.nodes} == {np.dtype(np.float64)}
    return tape, root


@pytest.mark.parametrize("variant", ["maw", "maw-mse", "maw-kl"])
def test_batch_update_matches_fully_attached_tapes(variant):
    # the critic step's constant draws and the generator step's constant critic
    # weights drop only gradients that no optimizer reads
    rng = np.random.default_rng(62)
    model, xb, noise = loss_model_and_noise(rng, variant)
    # a deep copy's slot views are arrays of their own: ref gets its own
    # optimizers over its store, the same state at step 0
    ref = fresh_optimizers(copy.deepcopy(model))
    for _ in range(2):
        losses = M._maw_batch_update(model, xb, noise)
        ref_losses = []
        for which in ("vae", "critic", "gen"):
            tape, root = loss_value(ref, xb, noise, which)
            ref.optimizers[which].step(ref.store, tape.backward(root))
            if which == "critic" and variant != "maw-kl":
                nets.clip_weights(ref.store, ref.store.names("cri."))
            ref_losses.append(float(root.value))
        assert losses == tuple(ref_losses)
        noise = float64_noise(model.hp, rng, 3)
    for name, value in ref.store.params.items():
        assert np.array_equal(model.store.params[name], value), name
    for name, value in ref.store.state.items():
        assert np.array_equal(model.store.state[name], value), name
    for key, opt in ref.optimizers.items():
        slots = model.optimizers[key].slots
        assert slots["step"] == opt.slots["step"] == 2
        assert slots.keys() == opt.slots.keys() == {"step", *nets.MOMENTS[opt.kind]}
        for moment in nets.MOMENTS[opt.kind]:
            for name, value in opt.slots[moment].items():
                assert np.array_equal(slots[moment][name], value), (key, moment, name)


MAW_FAMILY = [v for v in M.VARIANTS if v != "vae"]


@pytest.mark.parametrize("variant", MAW_FAMILY[1:])
def test_each_removed_ingredient_acts(variant):
    # from the same seeds, an ablation's batch update (its noise drawn for its
    # own ingredients) loses other values than maw's; without A the parameter
    # layout differs instead
    def update(variant):
        model, xb, noise = loss_model_and_noise(np.random.default_rng(65), variant)
        layout = {name: value.shape for name, value in model.store.params.items()}
        return layout, M._maw_batch_update(model, xb, noise)

    layout, losses = update("maw")
    got_layout, got_losses = update(variant)
    if not M.INGREDIENTS[variant].reduction:
        assert got_layout != layout
    else:
        assert got_layout == layout and got_losses != losses


@pytest.mark.parametrize("variant", MAW_FAMILY)
def test_encoder_quarters_concatenate_to_its_output(variant, monkeypatch):
    # _forward_generated cuts the encoder's output into four equal column
    # blocks on the tape; together they are the output, bit for bit
    model, xb, noise = loss_model_and_noise(np.random.default_rng(66), variant)
    labels, _, eps1, eps2, _ = noise
    seen, modes = [], M._modes

    def watched(ops, model, enc):
        seen.append(enc)
        return modes(ops, model, enc)

    monkeypatch.setattr(M, "_modes", watched)
    M._forward_generated(Tape(), model, xb, labels, eps1, eps2)
    tape = Tape()
    full = nets.mlp_forward(tape, model.store, "enc", model.specs["enc"], tape.const(xb)).value
    (quarters,) = seen
    assert [q.value.shape[1] for q in quarters] == [full.shape[1] // 4] * 4
    assert np.array_equal(np.concatenate([q.value for q in quarters], axis=1), full)


@pytest.mark.parametrize("variant", ["maw", "vae"])
def test_decoded_rows_are_unit_length_or_zero(variant):
    model = as_float64(M.init_model(tiny_hp(variant=variant), 4, np.random.default_rng(3)))
    z = np.random.default_rng(4).standard_normal((6, 2))
    tape = Tape()
    norms = np.linalg.norm(M._decode(tape, model, tape.const(z)).value, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-12)
    last = len(model.hp.decoder_widths)
    for name in (f"dec.l{last}.W", f"dec.l{last}.b"):
        model.store.params[name] = np.zeros_like(model.store.params[name])
    tape = Tape()
    assert np.array_equal(M._decode(tape, model, tape.const(z)).value, np.zeros((6, 4)))


@pytest.mark.parametrize("variant", MAW_FAMILY)
def test_batch_update_runs_the_encoder_twice(variant, monkeypatch):
    # structural guard for the shared generator forward: the reconstruction
    # step's forward, and one that the critic and generator steps share
    model, xb, noise = loss_model_and_noise(np.random.default_rng(63), variant)
    prefixes = []
    inner = nets.mlp_forward

    def counted(tape, store, prefix, *args, **kwargs):
        prefixes.append(prefix)
        return inner(tape, store, prefix, *args, **kwargs)

    monkeypatch.setattr(nets, "mlp_forward", counted)
    M._maw_batch_update(model, xb, noise)
    assert prefixes.count("enc") == 2
    assert prefixes.count("dec") == 1


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_a_batch_update_records_one_node_per_network_run(variant, monkeypatch):
    # structural guard for Tape.mlp: each network run is one node, and its
    # weights are bound by name: no leaf holds a network array, and only A is a
    # parameter leaf
    model, xb, noise = loss_model_and_noise(np.random.default_rng(67), variant)
    tapes, held = [], []
    init, forward = Tape.__init__, nets.mlp_forward

    def recorded(self):
        init(self)
        tapes.append(self)

    def holding(tape, store, *args, **kwargs):
        held.extend(store.params.values())  # every array a run may read, kept alive
        return forward(tape, store, *args, **kwargs)

    monkeypatch.setattr(Tape, "__init__", recorded)
    monkeypatch.setattr(nets, "mlp_forward", holding)
    update = M._vae_batch_update if variant == "vae" else M._maw_batch_update
    update(model, xb, noise)
    nodes = [node for tape in tapes for node in tape.nodes]
    runs = Counter(node.names[0].split(".")[0] for node in nodes if isinstance(node, MlpNode))
    assert runs == ({"enc": 1, "head": 1, "dec": 1} if variant == "vae"
                    else {"enc": 2, "dec": 1, "cri": 3})
    assert {name for tape in tapes for name in tape.params} <= {"A"}
    held_ids = {id(a) for a in held}
    assert not [node for node in nodes if node.tag == "const" and id(node.value) in held_ids]


@pytest.mark.parametrize("module", [autodiff, nets, M])
def test_no_per_layer_tape_op_is_left(module):
    # one op runs a whole network; nets binds no weight as a tape leaf
    assert not hasattr(Tape, "dense") and not hasattr(autodiff, "DenseNode")
    leaf_calls = ("param", "const") if module is nets else ()
    found = [node.lineno for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, ast.Attribute) and node.attr in ("dense", *leaf_calls)
             or isinstance(node, ast.Name) and node.id == "DenseNode"]
    assert found == []


def _encoder_batch_statistics(params, spec, xb):
    """(mean, biased variance) of each batch-normed encoder layer's
    pre-activation, from the textbook train-mode forward."""
    assert set(spec.activations[:-1]) == {"relu"}
    h, stats = xb, []
    for k in range(len(spec.widths) - 1):
        pre = h @ params[f"enc.l{k}.W"]
        mean, var = pre.mean(axis=0), pre.var(axis=0)
        stats.append((mean, var))
        h = (pre - mean) / np.sqrt(var + BN_EPS) * params[f"enc.l{k}.gamma"]
        h = np.maximum(h + params[f"enc.l{k}.beta"], 0.0)
    return stats


@pytest.mark.parametrize("variant", MAW_FAMILY)
def test_encoder_running_statistics_take_three_steps_per_batch(variant):
    # one momentum step from the batch statistics before the reconstruction
    # step, then two from those after it (the critic and generator steps')
    model, xb, noise = loss_model_and_noise(np.random.default_rng(64), variant)
    spec = model.specs["enc"]
    before = _encoder_batch_statistics(model.store.params, spec, xb)
    running = {k: v.copy() for k, v in model.store.state.items()}
    vae = model.optimizers["vae"]
    after = []

    def step(store, grads, inner=vae.step):
        inner(store, grads)
        after.extend(_encoder_batch_statistics(store.params, spec, xb))

    vae.step = step
    M._maw_batch_update(model, xb, noise)
    for k, stats in enumerate(zip(before, after)):
        for j, key in enumerate(("running_mean", "running_var")):
            ref = running[f"enc.l{k}.{key}"]
            for batch in (stats[0][j], stats[1][j], stats[1][j]):
                ref = 0.9 * ref + 0.1 * batch
            np.testing.assert_allclose(model.store.state[f"enc.l{k}.{key}"], ref,
                                       rtol=1e-12, atol=1e-14)


def test_checkpoint_roundtrip():
    hp = tiny_hp(epochs=2)
    x = line_data(8, 4, seed=9)
    model, _ = M.train(x, hp, seed=0)
    payload = model.to_payload()
    clone = M.MawModel.from_payload(payload)
    s1 = M.score_batch(model, x, seed=5)
    s2 = M.score_batch(clone, x, seed=5)
    assert np.array_equal(s1, s2)


def _stored_arrays(model):
    """Every parameter, running statistic and optimizer moment array of model."""
    slots = [a for opt in model.optimizers.values() for moment in nets.MOMENTS[opt.kind]
             for a in opt.slots[moment].values()]
    return [*model.store.params.values(), *model.store.state.values(), *slots]


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_float32_checkpoint_round_trips_exactly(variant):
    # float32 values are exact in JSON's float64 and load back in TRAIN_DTYPE:
    # the clone writes the same payload and scores with the same bits
    x = line_data(8, 4, seed=9)
    model, _ = M.train(x, tiny_hp(epochs=2, variant=variant), seed=0)
    payload = model.to_payload()
    assert payload.keys() == {"format", "version", "hyperparams", "feature_dim", "params", "state"}
    clone = M.MawModel.from_payload(json.loads(json.dumps(payload)))
    assert {a.dtype for a in _stored_arrays(clone)} == {np.dtype(M.TRAIN_DTYPE)}
    assert json.dumps(clone.to_payload()) == json.dumps(payload)
    assert np.array_equal(M.score_batch(clone, x, seed=5), M.score_batch(model, x, seed=5))


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_a_loaded_model_optimizers_start_at_step_0(variant):
    # a checkpoint holds no optimizer state: the clone has the model's
    # optimizers, kind, rate and names, at step 0 with zero moments, and its
    # slot views read what the next step writes
    x = line_data(8, 4, seed=9)
    model, _ = M.train(x, tiny_hp(epochs=2, variant=variant), seed=0)
    clone = M.MawModel.from_payload(json.loads(json.dumps(model.to_payload())))
    assert clone.optimizers.keys() == model.optimizers.keys()
    rng = np.random.default_rng(1)
    for key, opt in clone.optimizers.items():
        trained = model.optimizers[key]
        assert trained.slots["step"] > 0 and opt.slots["step"] == 0
        assert (opt.kind, opt.learning_rate, opt.names) == (
            trained.kind, trained.learning_rate, trained.names)
        assert opt.slots.keys() == {"step", *nets.MOMENTS[opt.kind]}
        for moment in nets.MOMENTS[opt.kind]:
            assert opt.slots[moment].keys() == set(opt.names)
            for name, value in opt.slots[moment].items():
                assert value.dtype == M.TRAIN_DTYPE
                assert value.shape == clone.store.params[name].shape and not value.any()
        grads = {n: rng.standard_normal(clone.store.params[n].shape).astype(M.TRAIN_DTYPE)
                 for n in opt.names}
        opt.step(clone.store, grads)
        decay = nets.BETA2 if opt.kind == "adam" else nets.RHO
        assert opt.slots["step"] == 1
        for name, g in grads.items():
            assert np.array_equal(opt.slots["v"][name], (1.0 - decay) * g * g), (key, name)


def test_float64_checkpoint_loads_in_the_training_dtype():
    # a checkpoint of arbitrary float64 values, as float64 training wrote them,
    # loads rounded to TRAIN_DTYPE and scores as those rounded weights set in
    # the store do
    x = line_data(8, 4, seed=9)
    model = as_float64(M.train(x, tiny_hp(epochs=2), seed=0)[0])
    rng = np.random.default_rng(3)
    for arrays in (model.store.params, model.store.state):
        for name, value in arrays.items():
            arrays[name] = value + 1e-9 * rng.random(value.shape)
    clone = M.MawModel.from_payload(model.to_payload())
    assert {a.dtype for a in _stored_arrays(clone)} == {np.dtype(M.TRAIN_DTYPE)}
    for arrays, loaded in ((model.store.params, clone.store.params),
                           (model.store.state, clone.store.state)):
        for name, value in arrays.items():
            assert np.array_equal(loaded[name], value.astype(M.TRAIN_DTYPE)), name
            arrays[name] = value.astype(M.TRAIN_DTYPE)
    assert np.array_equal(M.score_batch(clone, x, seed=5), M.score_batch(model, x, seed=5))


def _fresh_copy(model):
    """A model that has never scored, holding copies of model's arrays."""
    fresh = M.init_model(model.hp, model.feature_dim, np.random.default_rng(0))
    fresh.store.params = {k: v.copy() for k, v in model.store.params.items()}
    fresh.store.state = {k: v.copy() for k, v in model.store.state.items()}
    return fresh


def _optimizer_step(model, rng):
    opt = model.optimizers["vae"]  # the encoder, A or the head, and the decoder
    opt.step(model.store, {n: rng.standard_normal(model.store.params[n].shape).astype(M.TRAIN_DTYPE)
                           for n in opt.names})


def _running_stats(model, rng):
    tape = Tape()
    z = rng.standard_normal((6, model.hp.d)).astype(M.TRAIN_DTYPE)
    nets.mlp_forward(tape, model.store, "dec", model.specs["dec"], tape.const(z))


def _clip(model, rng):
    nets.clip_weights(model.store, model.store.names("enc.") + model.store.names("dec."),
                      -0.05, 0.05)


def _assign(model, rng):
    name = "head.W" if "head.W" in model.store.params else "A"  # read outside the networks
    model.store.params[name] = rng.standard_normal(model.store.params[name].shape)


def _load(model, rng):
    payload = M.train(line_data(8, 4, seed=9), model.hp, seed=1)[0].to_payload()
    M._load_arrays(model.store.params, payload["params"], "params")
    M._load_arrays(model.store.state, payload["state"], "state")


@pytest.mark.parametrize("variant", ["maw", "vae"])
@pytest.mark.parametrize("writer", [_optimizer_step, _running_stats, _clip, _assign, _load])
def test_scoring_plan_follows_every_writer(writer, variant):
    # scoring memoizes its plan on the store: after each writer it must score
    # as a model that never scored does with the same arrays
    x = line_data(8, 4, seed=9)
    model, _ = M.train(x, tiny_hp(epochs=1, variant=variant), seed=0)
    before = M.score_batch(model, x, seed=5)
    assert np.array_equal(before, M.score_batch(_fresh_copy(model), x, seed=5))
    writer(model, np.random.default_rng(8))
    after = M.score_batch(model, x, seed=5)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, M.score_batch(_fresh_copy(model), x, seed=5))


def test_scoring_folds_each_network_once(monkeypatch):
    # guards the memoized plan by counting, not by timing scores: 50 one-row
    # scores fold each network and build A-outer-A once, and every posterior
    # reads the same float64 A, cast once from the trained float32 A
    x = line_data(8, 4, seed=9)
    model, _ = M.train(x, tiny_hp(epochs=1), seed=0)
    assert model.store.params["A"].dtype == M.TRAIN_DTYPE
    calls, seen = [], []
    fold, sandwich, modes = nets.fold_layers, linalg.diag_sandwich, M._modes

    def counted_fold(store, prefix, spec):
        calls.append(prefix)
        return fold(store, prefix, spec)

    def counted_sandwich(a, s_rows):
        calls.append("sandwich")
        return sandwich(a, s_rows)

    def watched_modes(ops, model, enc, wanted):
        seen.append(ops.param(model.store.params["A"], "A"))
        return modes(ops, model, enc, wanted)

    monkeypatch.setattr(nets, "fold_layers", counted_fold)
    monkeypatch.setattr(linalg, "diag_sandwich", counted_sandwich)
    monkeypatch.setattr(M, "_modes", watched_modes)
    for i in range(50):
        M.score(model, x[i % 8], rng=np.random.default_rng(i))
    assert sorted(calls) == ["dec", "enc", "sandwich"]
    assert len(seen) == 50 and all(a is seen[0] for a in seen)
    assert seen[0].dtype == np.float64 and np.array_equal(seen[0], model.store.params["A"])


def _unplanned_scores(model, y, seed):
    """score_batch's scores the long way, nothing memoized: the whole encoder
    split in four quarters, and A cast and sandwiched on every call; each
    network runs all its rows through one layer at a time (one_pass_mlp)."""
    hp, store, specs = model.hp, model.store, model.specs
    k = 1 if hp.variant == "vae" else 2
    noise = np.random.default_rng(seed).standard_normal((len(y), k, hp.samples, hp.d))
    y = linalg.normalize_rows(y)
    enc = one_pass_mlp(nets.fold_layers(store, "enc", specs["enc"])[1], y)
    if hp.variant == "vae":
        head = enc @ store.params["head.W"] + store.params["head.b"]
        mu, factors = head[:, :hp.d], linalg.diag_blocks(np.exp(0.5 * head[:, hp.d:]))
    else:
        ops = SimpleNamespace(
            param=lambda value, name: np.asarray(value, dtype=np.float64), matmul=np.matmul,
            hadamard=np.multiply, rows_to_diag_blocks=linalg.diag_blocks,
            batch_diag_sandwich=lambda a, s_rows: linalg.diag_sandwich(a, s_rows)[0],
            spectral_truncate=lambda blocks, d: linalg.spectral_truncate(blocks)[0])
        mode = 2 if hp.variant == "maw-single-gaussian" else 1
        (mu,), (factors,) = M._modes(ops, model, np.hsplit(enc, 4), (mode,))
    z = mu[:, None, :] + noise[:, 0] @ np.swapaxes(factors, 1, 2)
    if k == 2:
        z = z + noise[:, 1]
    decoded = one_pass_mlp(nets.fold_layers(store, "dec", specs["dec"])[1], z.reshape(-1, hp.d))
    return M.cosine_score(y, linalg.normalize_rows(decoded).reshape(len(y), hp.samples, -1))


@pytest.mark.parametrize("dprime", [2, 3, 5, 6, 8])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_scoring_plan_scores_as_the_unplanned_forward(variant, dprime):
    # pins the encoder's column cut and the cached A-outer-A, on a round-tripped
    # checkpoint; bit for bit at dprime 8, where the quarters are 8 columns wide
    # (a multiple of OpenBLAS's column blocks) and a cut GEMM column keeps its
    # bits, else within rounding (measured <= 1.3e-15)
    x = line_data(40, 4, seed=9)
    hp = tiny_hp(d=min(4, dprime - dprime % 2), dprime=dprime, epochs=1, variant=variant)
    model, _ = M.train(x, hp, seed=0)
    model = M.MawModel.from_payload(json.loads(json.dumps(model.to_payload())))
    atol = 0.0 if dprime == 8 else 1e-14  # atol 0 asserts equal bits
    for rows in (1, 3, 32):
        want = _unplanned_scores(model, x[:rows], seed=rows)
        for _ in range(2):  # the first call builds the plan, the second reuses it
            got = M.score_batch(model, x[:rows], seed=rows)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
    one = M.score(model, x[0], rng=np.random.default_rng(1))
    want = _unplanned_scores(model, x[:1], seed=1)[0]
    np.testing.assert_allclose(one, want, rtol=0.0, atol=atol)


@pytest.mark.parametrize("variant", [v for v in M.VARIANTS if v != "vae"])
def test_modes_on_tape_and_arrays_agree_bit_for_bit(variant):
    # training samples the tape's modes and scoring reads the arrays' inlier mode
    # on a float64 model, as scoring casts its weights up to float64
    hp = tiny_hp(d=4, dprime=6, variant=variant)
    model = as_float64(M.init_model(hp, 4, np.random.default_rng(0)))
    width = hp.d if variant == "maw-diagonal-cov" else hp.dprime
    enc = tuple(np.random.default_rng(1).standard_normal((4, 5, width)))
    tape = Tape()
    means, blocks = M._modes(tape, model, [tape.const(e) for e in enc])
    ops = M._scoring_plan(model).ops
    both = M._modes(ops, model, enc)
    for j in (1, 2):
        (mu,), (factors,) = M._modes(ops, model, enc, (j,))
        for got in (mu, both[0][j - 1]):
            assert np.array_equal(got, means[j - 1].value)
        for got in (factors, both[1][j - 1]):
            assert np.array_equal(got.reshape(-1, hp.d), blocks[j - 1].value)
    ranks = np.linalg.matrix_rank(blocks[0].value.reshape(-1, hp.d, hp.d))
    assert (ranks <= hp.d // 2).all() == (variant != "maw-same-rank")  # mode 1 is truncated


def test_scoring_builds_no_tape(monkeypatch):
    # scoring on a throwaway tape was tried: it added ~15% to one-row score
    x = line_data(8, 4, seed=9)
    models = [M.init_model(tiny_hp(variant=v), 4, np.random.default_rng(0)) for v in M.VARIANTS]

    def no_tape():
        raise AssertionError("scoring built a Tape")

    monkeypatch.setattr(M, "Tape", no_tape)
    monkeypatch.setattr(nets, "Tape", no_tape)
    for model in models:
        assert np.isfinite(M.score_batch(model, x)).all()
        assert np.isfinite(M.score(model, x[0]))


def test_score_samples_must_be_an_int():
    model = M.init_model(tiny_hp(), 4, np.random.default_rng(0))
    rows = line_data(3, 4, seed=1)
    for bad in (2.5, True, "3", [3]):
        with pytest.raises(DomainError, match="samples"):
            M.score_batch(model, rows, samples=bad)
        with pytest.raises(DomainError, match="samples"):
            M.score(model, rows[0], samples=bad)
    assert np.array_equal(M.score_batch(model, rows, samples=3.0),
                          M.score_batch(model, rows, samples=3))
    assert M.score(model, rows[0], samples=3.0) == M.score(model, rows[0], samples=3)


def _tiny_payload():
    model = M.init_model(tiny_hp(), 4, np.random.default_rng(0))
    return json.loads(json.dumps(model.to_payload()))


def _nan_parameter(payload):
    payload["params"]["dec.l0.W"][0][0] = float("nan")


def _missing_parameter(payload):
    del payload["params"]["dec.l0.gamma"]


def _batch_normed_bias(payload):
    # a hidden layer with batch norm has no bias
    payload["params"]["dec.l0.b"] = [0.0] * len(payload["params"]["dec.l0.beta"])


def _critic_running_statistics(payload):
    payload["state"]["cri.l0.running_mean"] = [0.0] * len(payload["params"]["cri.l0.beta"])


def _unexpected_state(payload):
    payload["state"]["dec.l9.running_mean"] = [0.0]


def _misshapen_parameter(payload):
    payload["params"]["A"] = payload["params"]["A"][:-1]


def _beyond_float32_parameter(payload):
    payload["params"]["enc.l0.gamma"][1] = 1e39  # finite in float64 only


@pytest.mark.parametrize(
    "corrupt", [
        _nan_parameter, _missing_parameter, _batch_normed_bias, _critic_running_statistics,
        _unexpected_state, _misshapen_parameter, _beyond_float32_parameter,
    ]
)
def test_checkpoint_rejects_bad_arrays(corrupt):
    payload = _tiny_payload()
    corrupt(payload)
    with pytest.raises(DataError):
        M.MawModel.from_payload(payload)


@pytest.mark.parametrize("dim", ["abc", "20", 0, -3, True, 2.5, None])
def test_checkpoint_rejects_bad_feature_dim(dim):
    payload = _tiny_payload()
    payload["feature_dim"] = dim
    with pytest.raises(DataError, match="feature_dim"):
        M.MawModel.from_payload(payload)


def test_checkpoint_accepts_integral_float_feature_dim():
    payload = _tiny_payload()
    payload["feature_dim"] = float(payload["feature_dim"])
    assert M.MawModel.from_payload(payload).feature_dim == _tiny_payload()["feature_dim"]


def test_checkpoint_unknown_hyperparameter_is_config_error():
    payload = _tiny_payload()
    payload["hyperparams"]["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        M.MawModel.from_payload(payload)


@pytest.mark.parametrize("version", [1, 2, "3", True, 3.0, None, "missing"])
def test_checkpoint_rejects_other_versions(version, monkeypatch):
    payload = _tiny_payload()
    if version == "missing":
        del payload["version"]
    else:
        payload["version"] = version
    del payload["params"]  # the version is checked before any array is read
    monkeypatch.setattr(M, "_load_arrays", None)
    with pytest.raises(DataError, match=r"version .* expected 3"):
        M.MawModel.from_payload(payload)


@pytest.mark.parametrize("payload", [[], "maw-checkpoint", {"format": "other", "version": 3}])
def test_non_checkpoint_payload_is_data_error(payload):
    with pytest.raises(DataError, match="not a model checkpoint"):
        M.MawModel.from_payload(payload)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_training_runs_in_float32(variant, monkeypatch):
    # one float64 operand promotes the rest of its tape: maw-diagonal-cov's
    # truncation mask once did.  Scalar losses may be float64 (their sums are)
    dtypes = {}
    record = Tape._record

    def recorded(self, value, *args):
        node = record(self, value, *args)
        if node.value.ndim:
            dtypes.setdefault(node.value.dtype, set()).add(node.tag)
        return node

    monkeypatch.setattr(Tape, "_record", recorded)
    model, _ = M.train(line_data(8, 4, seed=0), tiny_hp(epochs=1, variant=variant), seed=0)
    assert dtypes.keys() == {np.dtype(np.float32)}, dtypes
    slots = [a for opt in model.optimizers.values() for moment in nets.MOMENTS[opt.kind]
             for a in opt.slots[moment].values()]
    arrays = [*model.store.params.values(), *model.store.state.values(), *slots]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


# ------------------------------------------------------------ no dead state


def _optimizer_gradients(model, xb, noise):
    """The gradient each optimizer receives from its own loss in one batch update."""
    seen = {}
    for key, opt in model.optimizers.items():
        def step(store, grads, key=key, opt=opt, inner=opt.step):
            seen[key] = {name: grads[name] for name in opt.names}
            inner(store, grads)
        opt.step = step
    update = M._vae_batch_update if model.hp.variant == "vae" else M._maw_batch_update
    update(model, xb, noise)
    return seen


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_every_stepped_tensor_gets_a_gradient(variant):
    # a bias before train-mode batch norm would get ~1e-14 here; none is built.
    # The W1 critic is defined up to a constant, so its loss gives the critic's
    # output bias exactly zero (maw-kl's critic loss does not)
    hp = M.Hyperparams(d=2, dprime=16, samples=5, batch_size=32, variant=variant)
    model = M.init_model(hp, 20, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    xb = rng.standard_normal((32, 20))
    xb /= np.linalg.norm(xb, axis=1, keepdims=True)
    # a float64 batch would promote the tape and give the dead bias ~1e-7
    xb = xb.astype(M.TRAIN_DTYPE)
    grads = _optimizer_gradients(model, xb, M._draw_batch_noise(hp, rng, 32))
    w1_shift = f"cri.l{len(hp.critic_widths)}.b" if variant not in ("maw-kl", "vae") else None
    for key, opt in model.optimizers.items():
        assert grads[key].keys() == set(opt.names)
        for name, g in grads[key].items():
            if name == w1_shift:
                assert np.array_equal(g, np.zeros_like(g)), name
            else:
                assert np.max(np.abs(g)) > 1e-8, (key, name)
    assert not [name for name in model.store.state if name.startswith("cri.")]
    for opt in model.optimizers.values():
        assert set(opt.slots) == {"step", "v"} | ({"m"} if opt.kind == "adam" else set())
    if variant != "vae":
        assert model.optimizers["critic"].kind == "rmsprop"
