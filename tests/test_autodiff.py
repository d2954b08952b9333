import numpy as np
import pytest

from _gradcheck import (
    activation_slope,
    check_grads,
    network_case,
    random_projection_head,
    random_symmetric,
    rel_err,
    symmetric_fd_check,
    textbook_batch_norm,
)
from maw.autodiff import ACTIVATIONS, Tape
from maw.errors import DomainError, NumericalError, ShapeError

N_QUICK = 8  # instances per op here; the acceptance suite reruns with >= 50


# ---------------------------------------------------------------- forward values


def _unit_layer(t, x, act="linear", norm=None):
    """A one-layer Tape.mlp run with an identity weight (and a zero bias when
    there is no batch norm), so x is the affine output."""
    width = np.shape(x)[1]
    shift = [("b", np.zeros(width))] if norm is None else [("gamma", norm[0]), ("beta", norm[1])]
    return t.mlp(t.const(x), [(act, ("W", np.eye(width)), *shift)])


def test_relu_value():
    out = _unit_layer(Tape(), [[-1.0, 2.0]], "relu")
    assert np.array_equal(out.value, [[0.0, 2.0]])
    assert np.array_equal(out.pres[0], [[-1.0, 2.0]]) and out.acts == ["relu"]


def test_leaky_relu_value():
    out = _unit_layer(Tape(), [[-1.0, 2.0]], "leaky_relu")
    assert np.allclose(out.value, [[-0.2, 2.0]])


def test_mlp_rejects_unknown_activation():
    with pytest.raises(DomainError):
        _unit_layer(Tape(), [[-1.0, 2.0]], "tanh")


def test_batch_norm_train_value():
    # batch {1, 3}: mean 2, std 1 -> roughly {-1, +1} (eps = 1e-5)
    out = _unit_layer(Tape(), [[1.0], [3.0]], norm=(np.array([1.0]), np.array([0.0])))
    assert np.allclose(out.value, [[-1.0], [1.0]], atol=1e-4)


def test_batch_norm_matches_numpy_statistics_exactly():
    # the batch statistics use np.mean / np.var's own arithmetic, and the node keeps them
    x = np.random.default_rng(3).standard_normal((7, 5))
    out = _unit_layer(Tape(), x, norm=(np.ones(5), np.zeros(5)))
    assert np.array_equal(out.value, (x - x.mean(axis=0)) * (1.0 / np.sqrt(x.var(axis=0) + 1e-5)))
    (mean, var), = out.batch_stats
    assert np.array_equal(mean, x.mean(axis=0)) and np.array_equal(var, x.var(axis=0))
    assert _unit_layer(Tape(), x).batch_stats == [None]


def test_batch_norm_batch_of_one_rejected():
    with pytest.raises(DomainError):
        _unit_layer(Tape(), np.ones((1, 2)), norm=(np.ones(2), np.zeros(2)))


def _three_layers(rng, act, batch_norm, prefix="net"):
    """Named layers 3 -> 4 -> 5 -> 4 for Tape.mlp, each with act and batch norm or a bias."""
    layers = []
    for k, (fan_in, width) in enumerate(((3, 4), (4, 5), (5, 4))):
        shift = ("gamma", "beta") if batch_norm else ("b",)
        layers.append((act, (f"{prefix}.l{k}.W", rng.standard_normal((fan_in, width))),
                       *((f"{prefix}.l{k}.{n}", rng.standard_normal(width)) for n in shift)))
    return layers


@pytest.mark.parametrize("batch_norm", [True, False])
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_mlp_writes_to_no_operand(act, batch_norm):
    # forward and backward leave x, every W and gamma, beta (or b) bit-unchanged,
    # and the adjoint the run is given, which an add shares with another leaf
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 3))
    layers = _three_layers(rng, act, batch_norm)
    before = [x.copy(), *(a.copy() for _, *named in layers for _, a in named)]
    proj = rng.standard_normal((6, 4))
    t = Tape()
    out = t.mlp(t.param(x, "x"), layers)
    t.backward(t.sum_all(t.hadamard(t.add(out, t.param(np.zeros((6, 4)), "other")), proj)))
    after = [x, *(a for _, *named in layers for _, a in named)]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert np.array_equal(t.params["other"].adjoint, proj)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_diag_sandwich_a_gradient_matches_its_einsum(d):
    # the vjp sums over blocks with a GEMM; the definition sums in one einsum
    rng = np.random.default_rng(d)
    nblocks, p = 32, 16
    a, s = rng.standard_normal((p, d)), rng.standard_normal((nblocks, p))
    g = rng.standard_normal((nblocks, d, d))
    t = Tape()
    out = t.batch_diag_sandwich(t.param(a, "a"), t.const(s))
    grads = t.backward(t.sum_all(t.hadamard(out, t.const(g.reshape(nblocks * d, d)))))
    ref = np.einsum("lp,pk,lkq->pq", s, a, g + np.swapaxes(g, 1, 2))
    np.testing.assert_allclose(grads["a"], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nblocks", [1, 32, 1024])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_diag_sandwich_s_gradient_matches_its_einsum(d, nblocks):
    # the vjp is one GEMM against the node's A kron A; the definition sums in one einsum
    rng = np.random.default_rng(d * nblocks)
    a, s = rng.standard_normal((16, d)), rng.standard_normal((nblocks, 16))
    g = rng.standard_normal((nblocks, d, d))
    t = Tape()
    out = t.batch_diag_sandwich(t.const(a), t.param(s, "s"))
    grads = t.backward(t.sum_all(t.hadamard(out, t.const(g.reshape(nblocks * d, d)))))
    np.testing.assert_allclose(grads["s"], np.einsum("pk,lqk,pq->lp", a, g, a),
                               rtol=1e-12, atol=1e-12)


def test_diag_sandwich_value():
    t = Tape()
    a = t.const(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    out = t.batch_diag_sandwich(a, t.const([[4.0, 1.0, 9.0]]))
    assert np.allclose(out.value, np.diag([4.0, 1.0]))


def test_shape_errors():
    t = Tape()
    with pytest.raises(ShapeError):
        t.add(t.const(np.ones(2)), t.const(np.ones(3)))
    with pytest.raises(ShapeError):
        t.matmul(t.const(np.ones((2, 3))), t.const(np.ones((2, 3))))
    with pytest.raises(ShapeError):  # only a constant may broadcast
        t.hadamard(t.param(np.ones((2, 3)), "x"), t.param(np.ones(3), "y"))
    def linear(w, b):
        return ("linear", ("W", np.ones(w)), ("b", np.ones(b)))

    with pytest.raises(ShapeError):
        t.mlp(t.const(np.ones((2, 3))), [linear((4, 2), 2)])
    with pytest.raises(ShapeError):
        t.mlp(t.const(np.ones(3)), [linear((3, 2), 2)])
    with pytest.raises(ShapeError):
        t.mlp(t.const(np.ones((2, 3))), [linear((3, 2), 3)])
    with pytest.raises(ShapeError):  # the second layer's W must take the first's width
        t.mlp(t.const(np.ones((2, 3))), [linear((3, 2), 2), linear((3, 2), 2)])
    with pytest.raises(ShapeError):
        t.mlp(t.const(np.ones(2)), [("relu", ("W", np.eye(2)), ("g", np.ones(2)),
                                     ("beta", np.zeros(2)))])
    with pytest.raises(ShapeError):
        t.spectral_truncate(t.const(np.ones((5, 2))), 2)
    for bad in range(2):  # gamma and beta must have the layer's width
        norm = [("gamma", np.ones(5)), ("beta", np.zeros(5))]
        norm[bad] = (norm[bad][0], np.ones(1))
        with pytest.raises(ShapeError):
            t.mlp(t.const(np.ones((3, 2))), [("relu", ("W", np.ones((2, 5))), *norm)])
    for ndraws in (3, 5):  # draws must come a whole number per row of the 2
        eps = np.zeros((ndraws, 2))
        with pytest.raises(ShapeError, match="grouped"):
            t.mixture_sample(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 2)),
                             np.zeros((4, 2)), np.ones(ndraws), eps, eps)
    for idx in ([0, 2], [-1, 0]):  # row indices outside [0, 2)
        with pytest.raises(ShapeError):
            t.gather_rows(np.zeros((2, 2)), idx)


# ------------------------------------------------------ batch-norm backward, scatter


def _textbook_layer_adjoints(x, w, gamma, beta, dy, act):
    """Adjoints of act(batch_norm(x @ w)) under the upstream adjoint dy,
    step by step through the batch statistics (Ioffe & Szegedy, Alg. 1)."""
    z = x @ w
    nrows = z.shape[0]
    mu = z.mean(axis=0)
    var = ((z - mu) ** 2).mean(axis=0)
    xhat, pre, _ = textbook_batch_norm(z, gamma, beta, mu, var, act)
    dpre = dy * activation_slope(pre, act)
    dgamma = np.sum(dpre * xhat, axis=0)
    dbeta = np.sum(dpre, axis=0)
    dxhat = dpre * gamma
    dvar = np.sum(dxhat * (z - mu), axis=0) * -0.5 * (var + 1e-5) ** -1.5
    dmu = -np.sum(dxhat, axis=0) / np.sqrt(var + 1e-5) + dvar * np.mean(-2.0 * (z - mu), axis=0)
    dz = dxhat / np.sqrt(var + 1e-5) + dvar * 2.0 * (z - mu) / nrows + dmu / nrows
    return {"x": dz @ w.T, "w": x.T @ dz, "gamma": dgamma, "beta": dbeta}


@pytest.mark.parametrize("act", ACTIVATIONS)
@pytest.mark.parametrize("rows", [2, 160])
def test_batch_norm_backward_matches_textbook(rows, act):
    rng = np.random.default_rng(rows)
    x, w = rng.standard_normal((rows, 6)), rng.standard_normal((6, 5))
    beta = rng.standard_normal(5)
    gamma = rng.uniform(0.5, 2.0, 5)  # gamma != 1
    dy = rng.standard_normal((rows, 5))
    t = Tape()
    names = ("x", "w", "gamma", "beta")
    out = t.mlp(t.param(x, "x"), [(act, ("w", w), ("gamma", gamma), ("beta", beta))])
    grads = t.backward(t.sum_all(t.hadamard(out, dy)))
    want = _textbook_layer_adjoints(x, w, gamma, beta, dy, act)
    for name in names:
        np.testing.assert_allclose(grads[name], want[name], rtol=0.0, atol=1e-12, err_msg=name)


def test_mlp_layer_takes_a_bias_or_gamma_and_beta():
    t = Tape()
    x, w = t.const(np.ones((3, 2))), ("W", np.ones((2, 4)))
    bias, gamma, beta = ("b", np.zeros(4)), ("gamma", np.ones(4)), ("beta", np.zeros(4))
    for shift in ((), (bias, gamma, beta), (gamma, beta, bias, bias)):
        with pytest.raises(ShapeError, match="bias or batch norm"):
            t.mlp(x, [("relu", w, *shift)])


@pytest.mark.parametrize("layout", ["shuffled", "repeated", "empty_rows"])
def test_scatter_matches_add_at(layout):
    # gather_rows scatters any row layout; mixture_sample's draws come grouped
    # per row, and its masked sums match np.add.at over the grouped rows
    rng = np.random.default_rng(5)
    nrows, d, ndraws = 6, 3, 30
    point_idx = {
        "shuffled": rng.permutation(np.repeat(np.arange(nrows), ndraws // nrows)),
        "repeated": rng.integers(0, nrows, ndraws),
        "empty_rows": rng.choice([1, 4], ndraws),
    }[layout]
    grouped = np.repeat(np.arange(nrows), ndraws // nrows)
    labels = rng.integers(1, 3, ndraws)
    if layout == "empty_rows":  # mode 1 draws only for rows 1 and 4
        labels[~np.isin(grouped, [1, 4])] = 2
    eps1, eps2 = rng.standard_normal((ndraws, d)), rng.standard_normal((ndraws, d))
    dz, dx = rng.standard_normal((ndraws, d)), rng.standard_normal((ndraws, d))
    t = Tape()
    x = t.param(rng.standard_normal((nrows, d)), "x")
    mu1, mu2 = t.param(rng.standard_normal((nrows, d)), "mu1"), t.param(np.zeros((nrows, d)), "mu2")
    m1 = t.param(rng.standard_normal((nrows * d, d)), "m1")
    m2 = t.param(rng.standard_normal((nrows * d, d)), "m2")
    z = t.mixture_sample(mu1, mu2, m1, m2, labels, eps1, eps2)
    gathered = t.gather_rows(x, point_idx)
    root = t.add(t.sum_all(t.hadamard(z, dz)), t.sum_all(t.hadamard(gathered, dx)))
    grads = t.backward(root)
    want = {k: np.zeros((nrows, d)) for k in ("x", "mu1", "mu2")}
    want.update({k: np.zeros((nrows, d, d)) for k in ("m1", "m2")})
    for mode, mask in ((1, labels == 1), (2, labels == 2)):
        np.add.at(want[f"mu{mode}"], grouped[mask], dz[mask])
        np.add.at(want[f"m{mode}"], grouped[mask], dz[mask, :, None] * eps1[mask, None, :])
    np.add.at(want["x"], point_idx, dx)  # the gather's scatter
    for name in want:
        np.testing.assert_allclose(grads[name].reshape(want[name].shape), want[name],
                                   rtol=0.0, atol=1e-13, err_msg=name)
    if layout == "empty_rows":
        untouched = np.setdiff1d(np.arange(nrows), point_idx)
        for name in ("x", "mu1", "m1"):
            assert not grads[name].reshape(want[name].shape)[untouched].any()


# ---------------------------------------------------------------- backward basics


def test_backward_sqnorm():
    t = Tape()
    x = t.param(np.array([[1.0, 2.0]]), "x")
    root = t.mean_rowwise_norm_diff(x, t.const(np.zeros((1, 2))), squared=True)
    grads = t.backward(root)
    assert np.allclose(grads["x"], [[2.0, 4.0]])


def test_backward_l2norm_of_diff():
    t = Tape()
    x = t.param(np.array([[3.0, 4.0]]), "x")
    root = t.mean_rowwise_norm_diff(x, t.const(np.zeros((1, 2))))
    grads = t.backward(root)
    assert np.allclose(grads["x"], [[0.6, 0.8]])


def test_backward_constant_root_gives_zero():
    t = Tape()
    x = t.param(np.array([1.0, 2.0]), "x")
    t.exp(x)  # x participates in the graph but not in the root
    root = t.scale(t.const(5.0), 1.0)
    grads = t.backward(root)
    assert np.array_equal(grads["x"], np.zeros(2))


def test_backward_requires_scalar_root():
    t = Tape()
    x = t.param(np.ones(3), "x")
    with pytest.raises(DomainError):
        t.backward(t.exp(x))


def test_single_use_tape():
    t = Tape()
    x = t.param(np.array(2.0), "x")
    root = t.scale(x, 3.0)
    t.backward(root)
    with pytest.raises(DomainError):
        t.backward(root)


def test_backward_accumulation_is_linear():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2.0, 2.0, size=4)

    def parts(tape, x):
        f = tape.sum_all(tape.hadamard(x, x))
        g = tape.sum_all(tape.softplus(x))
        return f, g

    t1 = Tape()
    f, _ = parts(t1, t1.param(x0, "x"))
    gf = t1.backward(f)["x"]
    t2 = Tape()
    _, g = parts(t2, t2.param(x0, "x"))
    gg = t2.backward(g)["x"]
    t3 = Tape()
    f3, g3 = parts(t3, t3.param(x0, "x"))
    combo = t3.add(t3.scale(f3, 2.5), t3.scale(g3, -1.5))
    gc = t3.backward(combo)["x"]
    assert np.allclose(gc, 2.5 * gf - 1.5 * gg, atol=1e-12)


def test_backward_calls_each_reached_node_once():
    # one vjp per node: a reached node's vjp runs once, however many parents
    # it has; a branch fed only by constants, or off the root's path, never runs
    rng = np.random.default_rng(6)
    t = Tape()
    h = t.mlp(t.const(rng.standard_normal((4, 3))),
              [("relu", ("W", rng.standard_normal((3, 4))), ("gamma", np.ones(4)),
                ("beta", np.zeros(4)))])
    a = t.param(rng.standard_normal((4, 2)), "A")
    s_rows = t.exp(h)
    blocks = t.batch_diag_sandwich(a, s_rows)
    mu1, mu2, truncated = t.matmul(h, a), t.matmul(h, a), t.spectral_truncate(blocks, 2)
    z = t.mixture_sample(mu1, mu2, truncated, blocks, [1, 2, 1, 2, 1, 2, 1, 1],
                         rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
    scaled = t.scale(t.const(rng.standard_normal((8, 2))), 2.0)
    constant_branch = t.exp(scaled)
    unreached = t.exp(a)
    total = t.add(z, constant_branch)
    root = t.sum_all(total)
    calls = {}
    for node in t.nodes:
        if node.vjp is not None:
            def counted(g, node=node, vjp=node.vjp):
                calls[node] = calls.get(node, 0) + 1
                return vjp(g)
            node.vjp = counted
    t.backward(root)
    once = [h, s_rows, blocks, mu1, mu2, truncated, z, total, root]
    assert [calls.get(node, 0) for node in once] == [1] * len(once)
    assert [calls.get(node, 0) for node in (scaled, constant_branch, unreached)] == [0, 0, 0]
    assert sum(calls.values()) == len(once)


# ------------------------------------------------- network runs: named adjoints


def _critic_terms(tape, layers, z_gen, z_prior, terms=("gen", "prior")):
    """The critic step's loss on one tape: mean D(z_gen) - mean D(z_prior),
    D run on the generated draws first; terms keeps one or both of them."""
    parts = []
    if "gen" in terms:
        parts.append(tape.mean_all(tape.mlp(tape.const(z_gen), layers)))
    if "prior" in terms:
        parts.append(tape.scale(tape.mean_all(tape.mlp(tape.const(z_prior), layers)), -1.0))
    return parts[0] if len(parts) == 1 else tape.add(*parts)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_two_runs_of_one_network_add_their_adjoints(dtype):
    # the critic step runs the critic twice on one tape: each parameter's adjoint
    # is the prior run's plus the generated run's, bit for bit
    rng = np.random.default_rng(30)
    layers = [(act, *((n, a.astype(dtype)) for n, a in named))
              for act, *named in _three_layers(rng, "leaky_relu", True, "cri")]
    layers[-1] = ("linear", layers[-1][1], ("cri.l2.b", np.zeros(4, dtype)))
    z_gen, z_prior = (rng.standard_normal((8, 3)).astype(dtype) for _ in range(2))
    both = Tape()
    grads = both.backward(_critic_terms(both, layers, z_gen, z_prior))
    alone = {}
    for term in ("prior", "gen"):
        t = Tape()
        alone[term] = t.backward(_critic_terms(t, layers, z_gen, z_prior, (term,)))
    names = [n for _, *named in layers for n, _ in named]
    assert list(grads) == names
    for name in names:
        assert grads[name].dtype == dtype
        assert np.array_equal(grads[name], alone["prior"][name] + alone["gen"][name]), name


def test_a_frozen_run_gives_its_input_alone_an_adjoint():
    rng = np.random.default_rng(31)
    layers = _three_layers(rng, "leaky_relu", True)
    x = rng.standard_normal((6, 3))
    proj = rng.standard_normal((6, 4))
    seen = []
    for frozen in (True, False):
        t = Tape()
        out = t.mlp(t.param(x, "x"), layers, frozen)
        seen.append(t.backward(t.sum_all(t.hadamard(out, proj))))
    assert list(seen[0]) == ["x"] and not Tape().mlp(x, layers, frozen=True).needs_grad
    assert np.array_equal(seen[0]["x"], seen[1]["x"])
    assert len(seen[1]) == 1 + 3 * 3


def test_unreached_network_parameters_get_zeros():
    # a run off the root's path, and a name that only a frozen run binds
    rng = np.random.default_rng(32)
    layers = _three_layers(rng, "relu", False)
    t = Tape()
    x = t.param(rng.standard_normal((4, 3)), "x")
    t.mlp(x, layers)
    reached = t.mlp(x, _three_layers(rng, "relu", False, "other"), frozen=True)
    grads = t.backward(t.sum_all(reached))
    assert set(grads) == {"x", *(n for _, *named in layers for n, _ in named)}
    for _, *named in layers:
        for name, value in named:
            assert np.array_equal(grads[name], np.zeros_like(value)), name
    assert np.any(grads["x"])


def test_a_name_is_a_leaf_or_a_network_parameter_not_both():
    layer = ("linear", ("W", np.eye(2)), ("b", np.zeros(2)))
    t = Tape()
    t.param(np.eye(2), "W")
    with pytest.raises(DomainError, match="leaf"):
        t.mlp(np.ones((2, 2)), [layer])
    t.mlp(np.ones((2, 2)), [layer], frozen=True)  # binds no name
    t = Tape()
    t.mlp(np.ones((2, 2)), [layer])
    with pytest.raises(DomainError, match="duplicate"):
        t.param(np.zeros(2), "b")


def test_normalize_rows_scales_extreme_rows():
    # rows whose sum of squares overflows or underflows still come out unit,
    # with the adjoint at [3, 4] divided by the row's length ratio to [3, 4]
    weights = np.array([[0.3, -1.1], [-0.7, 0.2]])

    def value_and_adjoint(rows):
        t = Tape()
        y = t.normalize_rows(t.param(rows, "x"))
        return y.value, t.backward(t.sum_all(t.hadamard(y, weights)))["x"]

    y, grad = value_and_adjoint(np.array([[3e200, 4e200], [3e-200, 4e-200]]))
    _, ref = value_and_adjoint(np.array([[3.0, 4.0], [3.0, 4.0]]))
    assert np.allclose(y, [[0.6, 0.8], [0.6, 0.8]], rtol=1e-15, atol=0.0)
    assert np.allclose(grad[0], ref[0] * 1e-200, rtol=1e-12, atol=0.0)
    assert np.allclose(grad[1], ref[1] * 1e200, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- spectral truncation


def test_eigenvalue_adjoint_of_diagonal():
    # diag(3, 1) keeps 3: F = [[1, 3/2], [3/2, 0]], so the adjoint of G is F o G
    t = Tape()
    out = t.spectral_truncate(t.param(np.diag([3.0, 1.0]), "m"), 2)
    assert np.array_equal(out.value, np.diag([3.0, 0.0]))
    assert np.array_equal(out.eigenvalues, [[3.0, 1.0]])
    grads = t.backward(t.sum_all(out))
    assert np.allclose(grads["m"], [[1.0, 1.5], [1.5, 0.0]], atol=1e-12)


def test_sym_eig_fd_random_2x2():
    rng = np.random.default_rng(7)
    for _ in range(N_QUICK):
        m = random_symmetric(rng, 2, min_gap=0.5)
        proj = rng.uniform(-1.0, 1.0, size=(2, 2))

        def build(tape, mn):
            return random_projection_head(tape, tape.spectral_truncate(mn, 2), proj)

        t = Tape()
        node = t.param(m, "m")
        grads = t.backward(build(t, node))
        symmetric_fd_check(build, m, grads["m"])


def test_sym_eig_degenerate_input_is_finite():
    # a tie at the cut: the clamped gap keeps the backward finite
    t = Tape()
    m = t.param(np.eye(2), "m")
    proj = np.array([[1.0, 2.0], [0.5, -1.0]])
    head = random_projection_head(t, t.spectral_truncate(m, 2), proj)
    grads = t.backward(head)
    assert np.all(np.isfinite(grads["m"]))


@pytest.mark.parametrize("d", [2, 4])
def test_spectral_truncate_rejects_nan_block(d):
    blocks = np.tile(np.eye(d), (3, 1))
    blocks[d, 0] = np.nan  # second block
    with pytest.raises(NumericalError):
        Tape().spectral_truncate(blocks, d)


# ---------------------------------------------------------------- FD sweep over ops


def _mat(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def _away_from_kinks(rng, *shape, margin=5e-2):
    x = rng.uniform(-2.0, 2.0, size=shape)
    return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * margin, x)


def test_fd_elementwise_and_reductions():
    rng = np.random.default_rng(11)
    for _ in range(N_QUICK):
        proj = rng.uniform(-1.0, 1.0, size=(3, 4))
        x = _away_from_kinks(rng, 3, 4)
        y = _mat(rng, 3, 4)
        check_grads(*network_case(rng, "relu"))
        check_grads(*network_case(rng, "leaky_relu"))
        check_grads(lambda t, a: random_projection_head(t, t.softplus(a), proj), [x])
        check_grads(lambda t, a: random_projection_head(t, t.exp(t.scale(a, 0.3)), proj), [x])
        check_grads(lambda t, a, b: random_projection_head(t, t.add(a, b), proj), [x, y])
        check_grads(lambda t, a, b: random_projection_head(t, t.hadamard(a, b), proj), [x, y])
        check_grads(lambda t, a: t.mean_all(a), [x])
        check_grads(lambda t, a: t.sum_all(t.hadamard(a, proj)), [x])


def test_fd_hadamard_broadcast_mask():
    rng = np.random.default_rng(12)
    mask = np.array([1.0, 0.0, 1.0])
    for _ in range(N_QUICK):
        x = _mat(rng, 4, 3)
        proj = rng.uniform(-1.0, 1.0, size=(4, 3))
        check_grads(
            lambda t, a: random_projection_head(t, t.hadamard(a, t.const(mask)), proj),
            [x],
        )


def test_fd_linear_maps():
    rng = np.random.default_rng(13)
    for _ in range(N_QUICK):
        check_grads(*network_case(rng, "linear"))
        a = _mat(rng, 4, 3)
        bmat = _mat(rng, 3, 2)
        projm = rng.uniform(-1.0, 1.0, size=(4, 2))
        check_grads(
            lambda t, aa, bb: random_projection_head(t, t.matmul(aa, bb), projm),
            [a, bmat],
        )


def test_fd_gather_and_blocks():
    rng = np.random.default_rng(14)
    for _ in range(N_QUICK):
        x = _mat(rng, 5, 3)
        idx = rng.integers(0, 5, size=7)
        proj = rng.uniform(-1.0, 1.0, size=(7, 3))
        check_grads(
            lambda t, a: random_projection_head(t, t.gather_rows(a, idx), proj), [x]
        )
        proj2 = rng.uniform(-1.0, 1.0, size=(5, 2))
        check_grads(
            lambda t, a: random_projection_head(t, t.col_block(a, 1, 3), proj2), [x]
        )
        s = _mat(rng, 4, 3)
        proj3 = rng.uniform(-1.0, 1.0, size=(12, 3))
        check_grads(
            lambda t, a: random_projection_head(t, t.rows_to_diag_blocks(a), proj3), [s]
        )


def test_fd_norm_ops():
    rng = np.random.default_rng(15)
    for _ in range(N_QUICK):
        am = _mat(rng, 3, 4)
        bm = _mat(rng, 3, 4)
        if np.min(np.linalg.norm(am - bm, axis=1)) < 1e-2:
            continue
        check_grads(lambda t, a, b: t.mean_rowwise_norm_diff(a, b), [am, bm])
        check_grads(lambda t, a, b: t.mean_rowwise_norm_diff(a, b, squared=True), [am, bm])
        if np.min(np.linalg.norm(am, axis=1)) > 1e-2:
            projm = rng.uniform(-1.0, 1.0, size=(3, 4))
            check_grads(
                lambda t, a: random_projection_head(t, t.normalize_rows(a), projm), [am]
            )


def test_fd_batch_norm():
    # every activation after batch norm, one layer and three in one network node
    rng = np.random.default_rng(16)
    for _ in range(N_QUICK):
        for act in ACTIVATIONS:
            check_grads(*network_case(rng, act, batch_norm=True))
            check_grads(*network_case(rng, act, batch_norm=True, depth=3))


def test_fd_frozen_network():
    # a frozen run's input adjoint, through three batch-normed leaky_relu layers
    rng = np.random.default_rng(18)
    for _ in range(N_QUICK):
        check_grads(*network_case(rng, "leaky_relu", batch_norm=True, depth=3, frozen=True))


def test_fd_diag_sandwich():
    rng = np.random.default_rng(17)
    for _ in range(N_QUICK):
        a = _mat(rng, 5, 2)
        srows = _mat(rng, 3, 5)
        projb = rng.uniform(-1.0, 1.0, size=(6, 2))
        check_grads(
            lambda t, aa, ss: random_projection_head(
                t, t.batch_diag_sandwich(aa, ss), projb
            ),
            [a, srows],
        )


def test_fd_spectral_truncation_chain():
    # batch_diag_sandwich -> spectral_truncate, the exact composite the training
    # graph uses; FD runs on the unconstrained A, S inputs.  Only a small gap
    # across the cut is a non-smooth point, so only that gap is filtered.
    rng = np.random.default_rng(19)
    for d in (2, 4):
        done = 0
        while done < N_QUICK:
            a = _mat(rng, 5, d)
            srows = _mat(rng, 3, 5)
            blocks = np.einsum("pk,lp,pq->lkq", a, srows, a)
            w = -np.sort(-np.linalg.eigvalsh(blocks), axis=1)
            if np.min(w[:, d // 2 - 1] - w[:, d // 2]) < 0.1:
                continue
            done += 1
            proj = rng.uniform(-1.0, 1.0, size=(3 * d, d))

            def build(t, aa, ss):
                out = t.spectral_truncate(t.batch_diag_sandwich(aa, ss), d)
                return random_projection_head(t, out, proj)

            check_grads(build, [a, srows])


def test_fd_mixture_sample():
    rng = np.random.default_rng(20)
    for _ in range(N_QUICK):
        nrows, d, ndraws = 3, 2, 9
        mu1 = _mat(rng, nrows, d)
        mu2 = _mat(rng, nrows, d)
        m1 = _mat(rng, nrows * d, d)
        m2 = _mat(rng, nrows * d, d)
        labels = rng.integers(1, 3, size=ndraws)
        eps1 = rng.standard_normal((ndraws, d))
        eps2 = rng.standard_normal((ndraws, d))
        proj = rng.uniform(-1.0, 1.0, size=(ndraws, d))

        def build(t, a, b, c, e):
            out = t.mixture_sample(a, b, c, e, labels, eps1, eps2)
            return random_projection_head(t, out, proj)

        check_grads(build, [mu1, mu2, m1, m2])


def test_fd_vae_kl_diag():
    rng = np.random.default_rng(21)
    for _ in range(N_QUICK):
        mu = _mat(rng, 4, 2)
        lv = rng.uniform(-1.5, 1.5, size=(4, 2))
        check_grads(lambda t, m, l: t.vae_kl_diag(m, l), [mu, lv])


def test_mixture_sample_value_covariance_structure():
    # with mu = 0 and M = 0 the draws are exactly eps1-independent: z = eps2
    t = Tape()
    nrows, d, ndraws = 2, 2, 6
    eps1 = np.random.default_rng(0).standard_normal((ndraws, d))
    eps2 = np.random.default_rng(1).standard_normal((ndraws, d))
    z = t.mixture_sample(
        t.const(np.zeros((nrows, d))), t.const(np.zeros((nrows, d))),
        t.const(np.zeros((nrows * d, d))), t.const(np.zeros((nrows * d, d))),
        np.array([1, 2, 1, 2, 1, 2]), eps1, eps2,
    )
    assert np.allclose(z.value, eps2)
