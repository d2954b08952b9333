import json
import tracemalloc

import numpy as np
import pytest

from _gradcheck import one_pass_mlp, textbook_batch_norm
from maw import model as M
from maw import linalg, nets
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
    # each weight, the input layer's too, has at most linalg.SIZE_MAX entries
    top = linalg.SIZE_MAX
    for in_dim, widths in ((top, (1,)), (1, (top, 1)), (8, (268435455, 1))):
        assert nets.mlp(in_dim, widths, "relu").widths == widths
    for in_dim, widths in ((top, (2,)), (2, (top,)), (65536, (32768,)), (8, (8, 268435456))):
        with pytest.raises(ConfigError, match=f"weight has more than {top} entries"):
            nets.mlp(in_dim, widths, "relu")


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
    # fold_layers folds each batch norm into its layer; the reference keeps it unfolded
    rng = np.random.default_rng(4)
    for act in ("relu", "leaky_relu"):
        spec = nets.mlp(3, (5, 6, 4), act)
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
        got = linalg.normalize_rows(nets.mlp_apply(nets.fold_layers(store, "net", spec)[1], x))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _scoring_stack(rng):
    """Folded layers 2 -> 128 -> 64 -> 32 -> 20, one of each activation."""
    widths, acts = (2, 128, 64, 32, 20), ("relu", "leaky_relu", "linear", "linear")
    return [(rng.standard_normal((i, o)) / np.sqrt(i), rng.normal(0.0, 0.5, o), act)
            for i, o, act in zip(widths, widths[1:], acts)]


def test_mlp_apply_blocks_score_as_one_pass():
    # rows on both sides of every block boundary; up to one block mlp_apply makes
    # the one-pass calls, so the bits are equal there
    rng = np.random.default_rng(11)
    layers, block = _scoring_stack(rng), nets.BLOCK_ROWS
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        x = rng.standard_normal((n, 2))
        got, want = nets.mlp_apply(layers, x), one_pass_mlp(layers, x)
        assert got.shape == (n, 20) and got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0 if n <= block else 1e-12)


def test_mlp_apply_working_set_is_a_block():
    # one 20,000 x 128 float64 intermediate would take 20 MB; the output takes 3.2 MB
    rng = np.random.default_rng(12)
    layers = _scoring_stack(rng)
    x = rng.standard_normal((20_000, 2))
    tracemalloc.start()
    try:
        out = nets.mlp_apply(layers, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (20_000, 20)
    assert peak < out.nbytes + 4 * 2**20


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


def _per_parameter_step(opt, store, grads):
    """Optimizer.step written as one loop over the parameters, each moment
    entry updated in place: the reference the flat step must match bit for bit."""
    for name in opt.names:
        if not np.isfinite(grads[name]).all():
            raise NumericalError(f"non-finite gradient for parameter {name}")
    opt.slots["step"] = t = int(opt.slots["step"]) + 1
    for name in opt.names:
        g, v = grads[name], opt.slots["v"][name]
        if opt.kind == "adam":
            m = opt.slots["m"][name]
            m *= nets.BETA1
            m += (1.0 - nets.BETA1) * g
            gg = (1.0 - nets.BETA2) * g
            gg *= g
            v *= nets.BETA2
            v += gg
            step = m / (1.0 - nets.BETA1**t)
            step *= opt.learning_rate
            denom = np.sqrt(v / (1.0 - nets.BETA2**t))
        else:
            gg = (1.0 - nets.RHO) * g
            gg *= g
            v *= nets.RHO
            v += gg
            step = opt.learning_rate * g
            denom = np.sqrt(v)
        denom += nets.EPS
        step /= denom
        store.params[name] = store.params[name] - step


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_flat_step_trains_the_per_parameter_loops_bits(monkeypatch, variant):
    hp = M.Hyperparams(d=2, dprime=4, samples=2, epochs=2, batch_size=8, encoder_widths=(8, 8),
                       decoder_widths=(8, 8), critic_widths=(8, 8), variant=variant)
    x = np.random.default_rng(4).standard_normal((20, 5))
    runs, optimizers = [], []
    for step in (nets.Optimizer.step, _per_parameter_step):
        monkeypatch.setattr(nets.Optimizer, "step", step)
        model, trace = M.train(x, hp, seed=2)
        assert next(iter(model.store.params.values())).dtype == M.TRAIN_DTYPE
        runs.append((json.dumps(model.to_payload()), json.dumps(trace)))
        optimizers.append(model.optimizers)
    assert runs[0] == runs[1]
    flat, loops = optimizers
    assert flat.keys() == loops.keys()
    for key, opt in flat.items():  # the payload holds no moments: compare them here
        slots = loops[key].slots
        assert slots.keys() == opt.slots.keys() == {"step", *nets.MOMENTS[opt.kind]}
        assert slots["step"] == opt.slots["step"] > 0
        for moment in nets.MOMENTS[opt.kind]:
            for name, value in opt.slots[moment].items():
                assert value.dtype == M.TRAIN_DTYPE
                assert np.array_equal(slots[moment][name], value), (key, moment, name)


def _three_parameter_optimizer(kind):
    """A float32 optimizer over three parameters, and one set of their gradients."""
    store = nets.ParamStore()
    rng = np.random.default_rng(6)
    for name, shape in (("a", (3, 2)), ("b", (2,)), ("c", (1,))):
        store.add(name, rng.standard_normal(shape))
    store.params = {k: v.astype(np.float32) for k, v in store.params.items()}
    opt = nets.Optimizer(kind, 1e-2, list(store.params), store)
    grads = {k: rng.standard_normal(v.shape).astype(np.float32) for k, v in store.params.items()}
    return store, opt, grads


@pytest.mark.parametrize("kind", ["adam", "rmsprop"])
def test_a_non_finite_gradient_changes_nothing(kind):
    store, opt, grads = _three_parameter_optimizer(kind)
    opt.step(store, grads)
    before = ({k: v.copy() for k, v in store.params.items()},
              {m: {n: a.copy() for n, a in opt.slots[m].items()} for m in nets.MOMENTS[kind]})
    bad = dict(grads, b=np.array([1.0, np.inf], np.float32), c=np.array([np.nan], np.float32))
    with pytest.raises(NumericalError, match="parameter b$"):
        opt.step(store, bad)
    assert opt.slots["step"] == 1
    for name in opt.names:
        assert np.array_equal(store.params[name], before[0][name])
        for moment in nets.MOMENTS[kind]:
            assert np.array_equal(opt.slots[moment][name], before[1][moment][name])


def test_step_leaves_the_tapes_adjoints_unchanged():
    store = nets.ParamStore()
    store.add("p", np.array([1.0, -2.0]))
    store.add("q", np.array([0.5, 3.0]))
    tape = Tape()
    p, q = tape.param(store.params["p"], "p"), tape.param(store.params["q"], "q")
    s = tape.add(p, q)
    grads = tape.backward(tape.mean_all(tape.hadamard(s, s)))
    assert grads["p"] is grads["q"]  # backward hands out the tape's arrays, uncopied
    before = grads["p"].copy()
    nets.Optimizer("adam", 1e-2, ["p", "q"], store).step(store, grads)
    assert np.array_equal(grads["p"], before) and grads["p"] is grads["q"]


@pytest.mark.parametrize("kind", ["adam", "rmsprop"])
def test_one_step_makes_as_many_sqrt_and_isfinite_calls_for_3_or_30_parameters(monkeypatch,
                                                                                 kind):
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    seen = []
    for size in (3, 30):
        store = nets.ParamStore()
        for k in range(size):
            store.add(f"p{k}", np.ones((2, k % 4 + 1)))
        opt = nets.Optimizer(kind, 1e-3, store.names("p"), store)
        grads = {k: np.ones_like(v) for k, v in store.params.items()}
        counts.clear()
        with monkeypatch.context() as patch:
            for name in ("sqrt", "isfinite"):
                patch.setattr(np, name, counting(name, getattr(np, name)))
            opt.step(store, grads)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"sqrt": 1, "isfinite": 1}
