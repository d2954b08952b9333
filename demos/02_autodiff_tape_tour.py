#!/usr/bin/env python3
"""Walkthrough of the reverse-mode tape that trains the detector.

Builds a few graphs by hand, runs backward, and checks one gradient against
central finite differences -- the spectral truncation, whose backward is the
Daleckii-Krein divided-difference form over an eigendecomposition.  Exits
non-zero if that check fails.
"""

import sys

import numpy as np

from maw.autodiff import Tape
from maw.errors import DomainError

FD_TOL = 1e-6  # largest accepted |FD - tape| in the truncation check

print("=== a scalar chain ===")
tape = Tape()
x = tape.param(np.array([[3.0, 4.0]]), "x")  # one row
dist = tape.mean_rowwise_norm_diff(x, tape.const(np.zeros((1, 2))))  # ||x||
grads = tape.backward(dist)
print(f"d||x|| / dx at (3,4) = {grads['x'][0]}  (expected the unit vector (0.6, 0.8))")

print("\n=== gradients flow through a batch-normalized layer ===")
tape = Tape()
xb = tape.param(np.array([[1.0, -2.0], [3.0, 0.5], [0.0, 1.5]]), "batch")
# a one-layer network run, one node: identity weights (no bias: beta is the
# shift), then batch norm on the batch statistics, then relu; the parameters
# are bound by name
net = tape.mlp(xb, [("relu", ("W", np.eye(2)), ("gamma", np.ones(2)), ("beta", np.zeros(2)))])
head = tape.mean_all(net)
grads = tape.backward(head)
print("column sums of the gradient:", np.round(grads["batch"].sum(axis=0), 12))
print("(each column sums to ~0: standardization removes the batch mean direction)")
print("gamma's adjoint, by name:", np.round(grads["gamma"], 6))
(mean, var), = net.batch_stats
print("the layer's batch mean and variance:", np.round(mean, 6), np.round(var, 6))

print("\n=== differentiating through spectral truncation ===")
rng = np.random.default_rng(0)
a_val = rng.standard_normal((5, 2))
s_val = rng.standard_normal((3, 5))
# fixed random weights: an adjoint off the eigenbasis reaches every term of the backward
weights = rng.standard_normal((6, 2))

def truncated_readout(a_arr, s_arr):
    t = Tape()
    a = t.param(a_arr, "A")
    s = t.param(s_arr, "S")
    blocks = t.batch_diag_sandwich(a, s)          # per-row A^T diag(S_l) A
    low_rank = t.spectral_truncate(blocks, 2)     # keep the top eigenvalue of each
    root = t.sum_all(t.hadamard(low_rank, t.const(weights)))
    return t, root

tape, root = truncated_readout(a_val, s_val)
grads = tape.backward(root)
print(f"weighted sum of the rank-1 truncations: {float(root.value):.6f}")

h = 1e-6
fd = np.zeros_like(a_val)
for i in range(a_val.shape[0]):
    for j in range(a_val.shape[1]):
        up, down = a_val.copy(), a_val.copy()
        up[i, j] += h
        down[i, j] -= h
        fd[i, j] = (float(truncated_readout(up, s_val)[1].value)
                    - float(truncated_readout(down, s_val)[1].value)) / (2 * h)
err = np.max(np.abs(fd - grads["A"]))
print(f"max |finite difference - tape gradient| over A: {err:.2e}")
if err > FD_TOL:
    sys.exit(f"gradient check failed: {err:.2e} > {FD_TOL:.0e}")

print("\n=== one backward pass per tape ===")


def five_x():
    t = Tape()
    return t, t.scale(t.param(np.array(2.0), "x"), 5.0)


tape, root = five_x()
tape.backward(root)
try:
    tape.backward(root)
except DomainError as exc:
    print(f"second backward raised: {exc}")
tape, root = five_x()
print("on a new tape:", tape.backward(root)["x"], "(gradient of 5x)")
