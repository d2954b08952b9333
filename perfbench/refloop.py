"""The reference loop: fixed work the benchmark times next to the package's.

The benchmark runs on a shared virtual machine whose speed swings by up to
half within seconds, for fixed work, in CPU time as much as in wall time.
Dividing an operation's time by the time of this loop, run just before and
just after it, cancels the host's speed and leaves the package's own cost.
The loop mixes the kinds of work the package spends its time on: a fresh
random generator and normal draws, small matrix products, batch-norm
arithmetic, activations, row norms, an einsum over 8x8 blocks, slices,
tuples and dicts, and a small tape of nodes whose closures a reverse sweep
calls, all on arrays of a few dozen numbers.
It depends on nothing in the package, so a change to the package never
changes the unit its times are measured in.  Times are reported scaled to
a reference host on which one run of the loop takes SECONDS, about what it
takes on a 2-vCPU cloud VM (Python 3.11, numpy 2.4) in its fast state.
"""

from __future__ import annotations

import numpy as np

SIZE = 8
ROUNDS = 100
SECONDS = 0.005


class _Node:
    __slots__ = ("value", "adjoint", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.adjoint = np.zeros_like(value)
        self.parents = parents


def _tanh_vjp(value):
    return lambda adjoint: adjoint * (1.0 - np.tanh(value) ** 2)


def run() -> float:
    """One pass of the loop; returns a value so that no step can be skipped."""
    x = np.linspace(-1.0, 1.0, SIZE * SIZE).reshape(SIZE, SIZE)
    params = {"W": x * 0.1, "b": np.linspace(0.0, 0.1, SIZE), "var": np.full(SIZE, 2.0)}
    acc = 0.0
    for i in range(ROUNDS):
        rng = np.random.default_rng(i)
        h = rng.standard_normal((5, SIZE)) @ params["W"] + params["b"]
        h = (h - h.mean(axis=0)) / np.sqrt(params["var"] + 1e-5)
        h = np.maximum(np.where(h > 0.0, h, 0.2 * h), 0.0) + np.tanh(h)
        norms = np.linalg.norm(h, axis=-1, keepdims=True)
        h = np.where(norms > 0.0, h / np.where(norms > 0.0, norms, 1.0), 0.0)
        blocks = np.einsum("pk,lp,pq->lkq", x, h, x)
        parts = tuple(h[:, j * 2:(j + 1) * 2] for j in range(4))
        node = {"value": float(blocks[i % 5, 0, 1]), "parents": parts, "grad": None}
        acc += node["value"] * 1e-3 + float(np.concatenate(node["parents"], axis=1).sum()) * 1e-6
        tape = [_Node(h)]
        for k in range(3):
            prev = tape[-1]
            tape.append(_Node(np.tanh(prev.value) * x[k], ((prev, _tanh_vjp(prev.value)),)))
        tape[-1].adjoint = tape[-1].adjoint + 1.0
        for node in reversed(tape):
            for parent, vjp in node.parents:
                parent.adjoint = parent.adjoint + vjp(node.adjoint)
        acc += float(tape[0].adjoint[0, 0]) * 1e-6
    return acc
