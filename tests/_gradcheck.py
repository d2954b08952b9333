"""Central finite-difference utilities shared by the gradient test suites."""

import numpy as np

from maw.autodiff import Tape

FD_H = 1e-5
FD_TOL = 1e-4


def assert_float64(tape):
    """Finite differences at h = 1e-5 need every node of the tape in float64."""
    dtypes = {node.value.dtype for node in tape.nodes}
    assert dtypes == {np.dtype(np.float64)}, f"tape dtypes {dtypes}, expected float64 only"


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def numeric_grad(f, x, h=FD_H):
    """Central differences of a scalar function over every entry of x."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_grads(build, arrays, leaves=None, tol=FD_TOL, h=FD_H):
    """Compare tape gradients of build(tape, *inputs) -> scalar node against FD.

    arrays is the list of differentiable inputs; build must be a pure function
    of them (any randomness fixed by closure).  The first `leaves` of them
    (default: all) enter as parameter leaves named p0, p1, ...; the rest as
    (name, array) pairs, parameters that Tape.mlp binds by name.  Returns the
    worst relative error over all inputs.
    """

    def inputs(tape, values):
        count = len(values) if leaves is None else leaves
        return [tape.param(a.copy(), f"p{i}") if i < count else (f"p{i}", a.copy())
                for i, a in enumerate(values)]

    def value_at(replaced):
        tape = Tape()
        return float(build(tape, *inputs(tape, replaced)).value)

    tape = Tape()
    root = build(tape, *inputs(tape, arrays))
    assert_float64(tape)
    grads = tape.backward(root)

    worst = 0.0
    for i, a in enumerate(arrays):
        def f(x, i=i):
            replaced = [x if j == i else arrays[j] for j in range(len(arrays))]
            return value_at(replaced)

        fd = numeric_grad(f, a, h=h)
        err = rel_err(grads[f"p{i}"], fd)
        worst = max(worst, err)
        assert err <= tol, f"input {i}: autodiff/FD mismatch {err:.3e}"
    return worst


def random_projection_head(tape, out, proj):
    """sum(out * proj) as a scalar head for vector/matrix-valued ops."""
    return tape.sum_all(tape.hadamard(out, proj))


def random_symmetric(rng, dim, min_gap=0.0, lo=-2.0, hi=2.0):
    """Random symmetric matrix; optionally resampled until eigen-gaps >= min_gap."""
    while True:
        b = rng.uniform(lo, hi, size=(dim, dim))
        m = 0.5 * (b + b.T)
        if min_gap <= 0.0:
            return m
        w = np.sort(np.linalg.eigvalsh(m))
        if np.all(np.diff(w) >= min_gap):
            return m


def symmetric_fd_check(build, m, grad_m, tol=FD_TOL, h=FD_H):
    """FD over the symmetric-pair basis E_ij + E_ji (diagonal: E_ii).

    grad_m is the tape adjoint for the symmetric input; the directional
    derivative along E equals <grad_m, E> only for symmetric perturbations,
    which is the constraint the op is defined under.
    """
    def value_at(x):
        tape = Tape()
        node = tape.param(x, "m")
        value = float(build(tape, node).value)
        assert_float64(tape)
        return value

    n = m.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            e = np.zeros_like(m)
            e[i, j] += 1.0
            e[j, i] += 1.0
            if i == j:
                e[i, j] = 1.0
            fp = value_at(m + h * e)
            fm = value_at(m - h * e)
            fd = (fp - fm) / (2.0 * h)
            an = float(np.sum(grad_m * e))
            err = abs(an - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
            assert err <= tol, f"symmetric pair ({i},{j}): {err:.3e}"
    return worst


def network_case(rng, act, batch_norm=False, depth=1, frozen=False):
    """(build, arrays, leaves) for an FD check of one Tape.mlp run on a (5, 3)
    batch: one layer 3 -> 4, or three layers 3 -> 4 -> 5 -> 3, each with act and
    batch norm or a bias.

    The arrays are x, then each layer's W and its bias b, or gamma and beta with
    batch norm; x is a leaf and the rest are bound by name.  A frozen run
    checks x alone, its parameters fixed.  For relu/leaky_relu, instances with
    a pre-activation within 5e-2 of the kink, in any layer, are redrawn.
    """
    rows, margin = 5, 5e-2
    widths = (3, 4) if depth == 1 else (3, 4, 5, 3)
    while True:
        arrays = [rng.uniform(-2.0, 2.0, size=(rows, 3))]
        for fan_in, width in zip(widths, widths[1:]):
            arrays.append(rng.uniform(-2.0, 2.0, size=(fan_in, width)))
            if batch_norm:
                arrays += [rng.uniform(0.5, 1.5, size=width), rng.uniform(-2.0, 2.0, size=width)]
            else:
                arrays.append(rng.uniform(-2.0, 2.0, size=width))
        proj = rng.uniform(-1.0, 1.0, size=(rows, widths[-1]))
        per_layer = 3 if batch_norm else 2
        named = [(f"p{i}", a) for i, a in enumerate(arrays) if i]

        def run(tape, x, *params):
            params = named if frozen else params
            layers = [(act, *params[k:k + per_layer]) for k in range(0, len(params), per_layer)]
            return tape.mlp(x, layers, frozen)

        pres = run(Tape(), arrays[0], *named).pres
        if act == "linear" or min(np.min(np.abs(pre)) for pre in pres) >= margin:
            return (lambda tape, *inputs: random_projection_head(tape, run(tape, *inputs), proj),
                    arrays[:1] if frozen else arrays, 1)


def textbook_batch_norm(z, gamma, beta, mean, var, act):
    """(xhat, pre, act(pre)) of batch norm written out unfolded (Ioffe & Szegedy,
    Alg. 1): xhat = (z - mean) / sqrt(var + 1e-5), pre = gamma xhat + beta.  With
    the batch's own mean and biased variance it is the training layer; with the
    running statistics, the layer scoring folds."""
    xhat = (z - mean) / np.sqrt(var + 1e-5)
    pre = gamma * xhat + beta
    return xhat, pre, pre * activation_slope(pre, act)


def one_pass_mlp(layers, x):
    """The folded scoring forward written out, every row through each layer at
    once: act(h @ W' + b') for each (W', b', activation) of nets.fold_layers."""
    for w, b, act in layers:
        pre = x @ w + b
        x = pre * activation_slope(pre, act)
    return x


def activation_slope(pre, act):
    """The activation's slope at each pre-activation (0.2 below zero for leaky_relu)."""
    return {"relu": (pre > 0.0) * 1.0, "leaky_relu": np.where(pre > 0.0, 1.0, 0.2),
            "linear": np.ones_like(pre)}[act]
