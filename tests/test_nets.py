import json

import numpy as np
import pytest

from _gradcheck import textbook_batch_norm
from maw import model as M
from maw import nets
from maw.autodiff import Tape
from maw.errors import ConfigError, DomainError, NumericalError


def test_glorot_bounds_and_limits():
    rng = np.random.default_rng(0)
    w = nets.glorot_init(2, 3, rng)
    limit = np.sqrt(6.0 / 5.0)
    assert limit == pytest.approx(1.0954, abs=1e-4)
    assert np.all(np.abs(w) <= limit)
    w11 = nets.glorot_init(1, 1, rng)
    assert np.abs(w11[0, 0]) <= np.sqrt(3.0)


def test_glorot_empirical_variance():
    rng = np.random.default_rng(1)
    rows, cols = 100, 1000  # 1e5 draws
    w = nets.glorot_init(rows, cols, rng)
    target = 2.0 / (rows + cols)  # uniform variance L^2 / 3
    assert np.var(w) == pytest.approx(target, rel=0.05)


def _scalar_adam_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # frozen reference recurrence, independent of the implementation under test
    theta, m, v = 0.0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        theta -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
        out.append(theta)
    return out


def _scalar_optimizer(kind, lr, value, name="w", **moments):
    """An optimizer over one scalar parameter, its moment slots set to moments."""
    store = nets.ParamStore()
    store.add(name, np.array(value))
    opt = nets.Optimizer(kind, lr, [name], store)
    for moment, start in moments.items():
        opt.slots[moment][name][...] = start
    return store, opt


def test_adam_first_step():
    store, opt = _scalar_optimizer("adam", 1e-3, 0.0)
    opt.step(store, {"w": np.array(1.0)})
    assert store.params["w"] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_zero_gradient_keeps_params():
    store, opt = _scalar_optimizer("adam", 1e-3, 1.5, m=0.2, v=0.3)
    opt.step(store, {"w": np.array(0.0)})
    assert store.params["w"] != 1.5 or opt.slots["m"]["w"] == 0.0  # moments decay
    # with zero moments the parameter is exactly unchanged
    store, opt = _scalar_optimizer("adam", 1e-3, 1.5)
    opt.step(store, {"w": np.array(0.0)})
    assert store.params["w"] == 1.5


def test_adam_matches_scalar_oracle():
    store, opt = _scalar_optimizer("adam", 1e-3, 0.0)
    seen = []
    for _ in range(5):
        opt.step(store, {"w": np.array(1.0)})
        seen.append(float(store.params["w"]))
    oracle = _scalar_adam_oracle([1.0] * 5, 1e-3)
    assert np.allclose(seen, oracle, rtol=1e-12)
    assert all(b < a for a, b in zip(seen, seen[1:]))  # decreasing


def test_rmsprop_first_step():
    store, opt = _scalar_optimizer("rmsprop", 0.0005, 0.0)
    opt.step(store, {"w": np.array(1.0)})
    assert store.params["w"] == pytest.approx(-0.0005 / (np.sqrt(0.1) + 1e-8), rel=1e-9)


def test_rmsprop_zero_gradient():
    store, opt = _scalar_optimizer("rmsprop", 0.0005, 2.0, v=0.5)
    opt.step(store, {"w": np.array(0.0)})
    assert store.params["w"] == 2.0


def test_rmsprop_update_magnitude_approaches_lr():
    store, opt = _scalar_optimizer("rmsprop", 0.0005, 0.0)
    deltas = []
    prev = 0.0
    for _ in range(200):
        opt.step(store, {"w": np.array(1.0)})
        deltas.append(abs(float(store.params["w"]) - prev))
        prev = float(store.params["w"])
    # v -> g^2 so |update| -> lr
    assert deltas[-1] == pytest.approx(0.0005, rel=1e-3)
    assert deltas[0] > deltas[-1]


def test_nan_gradient_raises_with_name():
    store, opt = _scalar_optimizer("adam", 1e-3, 0.0, name="enc.w")
    with pytest.raises(NumericalError, match="enc.w"):
        opt.step(store, {"enc.w": np.array(np.nan)})


def test_clip_weights():
    store = nets.ParamStore()
    store.add("cri.w", np.array([-2.0, 0.5, 3.0]))
    nets.clip_weights(store, ["cri.w"])
    assert np.array_equal(store.params["cri.w"], [-1.0, 0.5, 1.0])
    nets.clip_weights(store, ["cri.w"])  # idempotent
    assert np.array_equal(store.params["cri.w"], [-1.0, 0.5, 1.0])
    store.add("cri.ok", np.array([0.1, -0.9]))
    nets.clip_weights(store, ["cri.ok"])
    assert np.array_equal(store.params["cri.ok"], [0.1, -0.9])
    with pytest.raises(DomainError):
        nets.clip_weights(store, ["cri.w"], lo=1.0, hi=-1.0)


def test_mlp_spec_validation():
    with pytest.raises(ConfigError):
        nets.MlpSpec(0, (3,), ("relu",))
    with pytest.raises(ConfigError):
        nets.MlpSpec(2, (3, 4), ("relu",))
    with pytest.raises(ConfigError):
        nets.MlpSpec(2, (3,), ("tanh",))
    with pytest.raises(ConfigError):
        nets.MlpSpec(2, (6,), ("linear",), final_transform="split4")


@pytest.mark.parametrize("running_stats", [True, False])
def test_batch_normed_layers_have_no_bias(running_stats):
    # beta is the shift of a layer with batch norm; only the output layer has a bias
    spec = nets.mlp(3, (5, 6, 4), "relu")
    store = nets.ParamStore()
    nets.build_mlp_params(store, "net", spec, np.random.default_rng(0), running_stats)
    hidden = [f"net.l{k}.{p}" for k in (0, 1) for p in ("W", "gamma", "beta")]
    assert set(store.params) == {*hidden, "net.l2.W", "net.l2.b"}
    stats = {f"net.l{k}.{s}" for k in (0, 1) for s in ("running_mean", "running_var")}
    assert set(store.state) == (stats if running_stats else set())
    tape = Tape()
    out = nets.mlp_forward(tape, store, "net", spec, tape.const(np.ones((4, 3))))
    assert out.value.shape == (4, 4)


def test_mlp_forward_updates_running_stats():
    # one momentum-0.9 step toward the batch {1, 3}: mean 2, biased variance 1
    spec = nets.MlpSpec(1, (1, 1), ("linear", "linear"))
    store = nets.ParamStore()
    nets.build_mlp_params(store, "net", spec, np.random.default_rng(0))
    store.params["net.l0.W"] = np.ones((1, 1))
    tape = Tape()
    nets.mlp_forward(tape, store, "net", spec, tape.const([[1.0], [3.0]]))
    assert np.allclose(store.state["net.l0.running_mean"], [0.1 * 2.0])
    assert np.allclose(store.state["net.l0.running_var"], [0.9 * 1.0 + 0.1 * 1.0])


def test_mlp_forward_stat_steps_equal_as_many_forwards():
    # _stat_steps=k gives the bits of k forwards over the batch, and the stored
    # running statistics are replaced by new arrays, never edited
    rng = np.random.default_rng(11)
    spec = nets.mlp(3, (4, 5, 2), "relu")
    once = nets.ParamStore()
    nets.build_mlp_params(once, "net", spec, rng)
    once.state = {k: rng.uniform(0.5, 2.0, v.shape) for k, v in once.state.items()}
    twice = nets.ParamStore()
    twice.params, twice.state = dict(once.params), {k: v.copy() for k, v in once.state.items()}
    x = rng.standard_normal((6, 3))
    for steps in (3, 1):
        for _ in range(steps):
            tape = Tape()
            nets.mlp_forward(tape, once, "net", spec, tape.const(x))
        old = {k: (v, v.copy()) for k, v in twice.state.items()}
        tape = Tape()
        nets.mlp_forward(tape, twice, "net", spec, tape.const(x), _stat_steps=steps)
        for name, (array, copy) in old.items():
            assert twice.state[name] is not array and np.array_equal(array, copy), name
            assert np.array_equal(twice.state[name], once.state[name]), name


def test_split4_is_a_bijection_on_the_output():
    rng = np.random.default_rng(2)
    spec = nets.mlp(3, (5, 8), "relu", final_transform="split4")
    store = nets.ParamStore()
    nets.build_mlp_params(store, "enc", spec, rng)
    x = rng.standard_normal((4, 3))
    full_spec = nets.MlpSpec(3, (5, 8), ("relu", "linear"), True, "none")
    full = nets.mlp_apply(store, "enc", full_spec, x)
    parts = nets.mlp_apply(store, "enc", spec, x)
    assert len(parts) == 4
    assert np.array_equal(np.concatenate(parts, axis=1), full)
    assert set(store.folded) == {("enc", full_spec), ("enc", spec)}  # one entry per spec


def test_unit_normalize_transform():
    rng = np.random.default_rng(3)
    spec = nets.mlp(2, (4, 3), "relu", final_transform="unit_normalize")
    plain = nets.MlpSpec(2, (4, 3), ("relu", "linear"), True, "none")
    store = nets.ParamStore()
    nets.build_mlp_params(store, "dec", spec, rng)
    x = rng.standard_normal((6, 2))
    pre = nets.mlp_apply(store, "dec", plain, x)
    out = nets.mlp_apply(store, "dec", spec, x)
    norms = np.linalg.norm(out, axis=1)
    nonzero = np.linalg.norm(pre, axis=1) > 0.0
    assert nonzero.any()
    assert np.all(np.abs(norms[nonzero] - 1.0) <= 1e-9)
    assert np.all(norms[~nonzero] == 0.0)


def _textbook_scoring_forward(store, prefix, spec, x):
    """Layer by layer, unfolded: act(gamma (h W - running_mean) /
    sqrt(running_var + 1e-5) + beta) after batch norm, else act(h W + b); then
    unit-length rows."""
    h = x
    for k, act in enumerate(spec.activations):
        layer = f"{prefix}.l{k}"
        z = h @ store.params[f"{layer}.W"]
        if k < len(spec.widths) - 1:
            _, _, h = textbook_batch_norm(
                z, store.params[f"{layer}.gamma"], store.params[f"{layer}.beta"],
                store.state[f"{layer}.running_mean"], store.state[f"{layer}.running_var"], act)
        else:
            h = z + store.params[f"{layer}.b"]
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def test_folded_forward_matches_textbook_batch_norm():
    # mlp_apply folds each batch norm into its layer; the reference keeps it unfolded
    rng = np.random.default_rng(4)
    for act in ("relu", "leaky_relu"):
        spec = nets.mlp(3, (5, 6, 4), act, final_transform="unit_normalize")
        store = nets.ParamStore()
        nets.build_mlp_params(store, "net", spec, rng)
        # push every hidden layer's stats and affine off their init to make the check real
        for k in range(len(spec.widths) - 1):
            width = spec.widths[k]
            store.state[f"net.l{k}.running_mean"] += rng.normal(0.0, 0.5, width)
            store.state[f"net.l{k}.running_var"] *= rng.uniform(0.2, 3.0, width)
            store.params[f"net.l{k}.gamma"] *= rng.uniform(0.5, 2.0, width)
            store.params[f"net.l{k}.beta"] += rng.normal(0.0, 0.5, width)
        x = rng.standard_normal((5, 3))
        want = _textbook_scoring_forward(store, "net", spec, x)
        assert np.allclose(nets.mlp_apply(store, "net", spec, x), want, rtol=0.0, atol=1e-12)


def _fresh_apply(store, prefix, spec, x):
    """mlp_apply on a new store holding copies of store's arrays (nothing memoized)."""
    fresh = nets.ParamStore()
    fresh.params = {k: v.copy() for k, v in store.params.items()}
    fresh.state = {k: v.copy() for k, v in store.state.items()}
    return nets.mlp_apply(fresh, prefix, spec, x)


def _adam_step(store, spec, rng):
    opt = nets.Optimizer("adam", 1e-2, store.names("net."), store)
    opt.step(store, {k: rng.standard_normal(v.shape) for k, v in store.params.items()})


def _train_forward(store, spec, rng):
    tape = Tape()
    nets.mlp_forward(tape, store, "net", spec, tape.const(rng.standard_normal((6, 3))))


def _clip(store, spec, rng):
    nets.clip_weights(store, store.names("net."), -0.3, 0.3)


def _assign(store, spec, rng):
    store.params["net.l1.gamma"] = rng.uniform(0.5, 2.0, spec.widths[1])
    store.state["net.l0.running_var"] = rng.uniform(0.2, 3.0, spec.widths[0])


@pytest.mark.parametrize("writer", [_adam_step, _train_forward, _clip, _assign])
def test_eval_fold_follows_every_writer(writer):
    # mlp_apply memoizes its fold on the store: after each writer it must
    # give what a store that never folded gives for the same arrays
    rng = np.random.default_rng(8)
    spec = nets.mlp(3, (5, 6, 4), "leaky_relu")
    store = nets.ParamStore()
    nets.build_mlp_params(store, "net", spec, rng)
    for name in store.names("net."):  # weights beyond the clip, non-trivial batch norms
        store.params[name] = 2.0 * rng.standard_normal(store.params[name].shape)
    x = rng.standard_normal((7, 3))
    before = nets.mlp_apply(store, "net", spec, x)
    assert np.array_equal(before, _fresh_apply(store, "net", spec, x))
    writer(store, spec, rng)
    after = nets.mlp_apply(store, "net", spec, x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _fresh_apply(store, "net", spec, x))


def test_eval_fold_is_per_spec():
    # the same prefix under a spec without batch norm must not reuse the folded layers
    rng = np.random.default_rng(9)
    spec = nets.mlp(3, (5, 4), "relu")
    plain = nets.mlp(3, (5, 4), "relu", batch_norm=False)
    store = nets.ParamStore()
    nets.build_mlp_params(store, "net", spec, rng)
    store.state["net.l0.running_var"] = rng.uniform(0.2, 3.0, 5)
    store.add("net.l0.b", rng.standard_normal(5))  # the bias only the plain spec reads
    x = rng.standard_normal((4, 3))
    with_norm = nets.mlp_apply(store, "net", spec, x)
    without = nets.mlp_apply(store, "net", plain, x)
    assert not np.array_equal(with_norm, without)
    assert np.array_equal(without, _fresh_apply(store, "net", plain, x))


def test_optimizer_steps_are_deterministic():
    rng = np.random.default_rng(5)
    spec = nets.mlp(3, (4, 2), "relu")
    results = []
    for _ in range(2):
        store = nets.ParamStore()
        nets.build_mlp_params(store, "n", spec, np.random.default_rng(7))
        opt = nets.Optimizer("adam", 1e-3, store.names("n"), store)
        grads = {k: np.ones_like(v) for k, v in store.params.items()}
        for _ in range(3):
            opt.step(store, grads)
        results.append({k: v.copy() for k, v in store.params.items()})
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k])


def _reference_step(kind, theta, g, m, v, t, lr):
    """The out-of-place update formulas; returns (theta, m, v)."""
    if kind == "adam":
        m = nets.BETA1 * m + (1.0 - nets.BETA1) * g
        v = nets.BETA2 * v + (1.0 - nets.BETA2) * g * g
        mhat = m / (1.0 - nets.BETA1**t)
        vhat = v / (1.0 - nets.BETA2**t)
        return theta - lr * mhat / (np.sqrt(vhat) + nets.EPS), m, v
    v = nets.RHO * v + (1.0 - nets.RHO) * g * g
    return theta - lr * g / (np.sqrt(v) + nets.EPS), m, v


@pytest.mark.parametrize("kind", ["adam", "rmsprop"])
def test_in_place_optimizer_matches_out_of_place_formulas(kind):
    rng = np.random.default_rng(8)
    shapes = {"s": (), "b": (7,), "W": (4, 3)}
    store = nets.ParamStore()
    for k, s in shapes.items():
        store.add(k, rng.standard_normal(s))
    opt = nets.Optimizer(kind, 1e-2, list(shapes), store)
    slots = opt.slots
    ref = {k: (store.params[k].copy(), np.zeros(s), np.zeros(s)) for k, s in shapes.items()}
    for t in range(1, 4):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        before = {k: g.copy() for k, g in grads.items()}
        opt.step(store, grads)
        assert grads.keys() == before.keys()
        for k in shapes:
            assert np.array_equal(grads[k], before[k])
            theta, m, v = ref[k]
            ref[k] = _reference_step(kind, theta, grads[k], m, v, t, 1e-2)
            assert np.array_equal(store.params[k], ref[k][0])
            assert np.array_equal(slots["v"][k], ref[k][2])
            if kind == "adam":
                assert np.array_equal(slots["m"][k], ref[k][1])
    assert slots["step"] == 3


def test_optimizer_slots_survive_a_checkpoint_round_trip():
    hp = M.Hyperparams(d=2, dprime=4, samples=2, batch_size=8, encoder_widths=(8,),
                       decoder_widths=(8,), critic_widths=(8,))
    model = M.init_model(hp, 4, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for opt in model.optimizers.values():
        for _ in range(3):
            opt.step(model.store, {k: rng.standard_normal(np.shape(v))
                                   for k, v in model.store.params.items()})
    loaded = M.MawModel.from_payload(json.loads(json.dumps(model.to_payload())))
    for name, opt in model.optimizers.items():
        again = loaded.optimizers[name].slots
        assert again["step"] == opt.slots["step"] == 3
        assert again.keys() == opt.slots.keys() == {"step", *nets.MOMENTS[opt.kind]}
        for slot in nets.MOMENTS[opt.kind]:
            for k, value in opt.slots[slot].items():
                assert np.array_equal(again[slot][k], value)
