"""Central finite-difference utilities shared by the gradient test suites."""

import numpy as np

from maw.autodiff import Tape

FD_H = 1e-5
FD_TOL = 1e-4


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


def check_grads(build, arrays, tol=FD_TOL, h=FD_H):
    """Compare tape gradients of build(tape, *nodes) -> scalar node against FD.

    arrays is the list of differentiable inputs; build must be a pure function
    of them (any randomness fixed by closure).  Returns the worst relative
    error over all inputs.
    """

    def value_at(replaced):
        tape = Tape()
        nodes = [tape.param(a.copy(), f"p{i}") for i, a in enumerate(replaced)]
        return float(build(tape, *nodes).value)

    tape = Tape()
    nodes = [tape.param(a.copy(), f"p{i}") for i, a in enumerate(arrays)]
    root = build(tape, *nodes)
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
        return float(build(tape, node).value)

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


def dense_case(rng, act, batch_norm=False):
    """(build, arrays) for an FD check of one Tape.dense layer (5, 3) -> (5, 4).

    The arrays are x, W and then the bias b without batch norm, or gamma and
    beta with it (the layer has no bias then).  For relu/leaky_relu, instances
    whose pre-activation lies within 5e-2 of the kink are redrawn.
    """
    rows, margin = 5, 5e-2
    while True:
        arrays = [rng.uniform(-2.0, 2.0, size=(rows, 3)), rng.uniform(-2.0, 2.0, size=(3, 4))]
        if batch_norm:
            arrays += [rng.uniform(0.5, 1.5, size=4), rng.uniform(-2.0, 2.0, size=4)]
        else:
            arrays.append(rng.uniform(-2.0, 2.0, size=4))
        proj = rng.uniform(-1.0, 1.0, size=(rows, 4))

        def layer(tape, x, w, *rest):
            if batch_norm:
                return tape.dense(x, w, None, act, rest)
            return tape.dense(x, w, rest[0], act)

        if act == "linear" or np.min(np.abs(layer(Tape(), *arrays).pre)) >= margin:
            return (lambda tape, *nodes: random_projection_head(tape, layer(tape, *nodes), proj),
                    arrays)


def textbook_batch_norm(z, gamma, beta, mean, var, act):
    """(xhat, pre, act(pre)) of batch norm written out unfolded (Ioffe & Szegedy,
    Alg. 1): xhat = (z - mean) / sqrt(var + 1e-5), pre = gamma xhat + beta.  With
    the batch's own mean and biased variance it is the training layer; with the
    running statistics, the layer scoring folds."""
    xhat = (z - mean) / np.sqrt(var + 1e-5)
    pre = gamma * xhat + beta
    return xhat, pre, pre * activation_slope(pre, act)


def activation_slope(pre, act):
    """The activation's slope at each pre-activation (0.2 below zero for leaky_relu)."""
    return {"relu": (pre > 0.0) * 1.0, "leaky_relu": np.where(pre > 0.0, 1.0, 0.2),
            "linear": np.ones_like(pre)}[act]
