"""Network plumbing: MLP specs, Glorot init, optimizers, weight clipping.

Every hidden layer is affine without bias -> batch norm (beta shifts) ->
activation; output layers are affine with a bias (batch norm on an output layer
would re-center the produced distribution parameters, so only hidden layers
have it).  The critic keeps batch norm too, deliberately.  On the tape a network
run is one `Tape.mlp` node on the batch statistics, its parameters bound by
name; mlp_forward steps the running statistics that fold_layers folds into each
layer for scoring, and the critic keeps none.  mlp_apply runs the folded layers
over blocks of BLOCK_ROWS rows, each block through every layer while its
intermediates are still in cache; model memoizes the fold per model.
A network ends at its last affine layer: model cuts and normalizes its outputs.
An Optimizer keeps each moment as one flat buffer over its parameters, allocated
once, and steps them all in one vectorized pass, rebinding each parameter to a
new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ACTIVATIONS, BN_EPS, LEAKY_SLOPE, MlpNode, Tape
from .errors import ConfigError, DomainError, NumericalError
from .linalg import SIZE_MAX

BN_MOMENTUM = 0.9  # a running statistic r steps to BN_MOMENTUM r + (1 - BN_MOMENTUM) batch
BLOCK_ROWS = 256  # mlp_apply's rows per block: 256 KB at a 128-wide float64 layer, inside L2


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected network layout.

    widths are output channels per layer; activations must match widths
    one-to-one ("linear" for no nonlinearity).  Each layer's weight, of
    consecutive entries of (in_dim, *widths), is bounded (check_weight_size).
    """

    in_dim: int
    widths: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        if self.in_dim <= 0 or len(self.widths) < 1 or any(w <= 0 for w in self.widths):
            raise ConfigError("MlpSpec needs a positive input dim and >= 1 positive width")
        if len(self.activations) != len(self.widths):
            raise ConfigError("MlpSpec needs one activation per layer")
        if any(a not in ACTIVATIONS for a in self.activations):
            raise ConfigError(f"activations must be among {ACTIVATIONS}")
        dims = (self.in_dim, *self.widths)
        for rows, cols in zip(dims, dims[1:]):
            check_weight_size(rows, cols)


def check_weight_size(rows: int, cols: int):
    """A rows x cols weight has at most SIZE_MAX entries, else ConfigError:
    numpy would refuse a larger array with a ValueError, or fail to allocate it."""
    if rows * cols > SIZE_MAX:
        raise ConfigError(f"a {rows} x {cols} weight has more than {SIZE_MAX} entries")


def mlp(in_dim, widths, activation) -> MlpSpec:
    """Spec with one hidden activation and a linear output layer."""
    acts = tuple(activation for _ in widths[:-1]) + ("linear",)
    return MlpSpec(in_dim, tuple(widths), acts)


class ParamStore:
    """Named parameter arrays plus non-trainable state (batch-norm stats)."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        self.folded: dict = {}  # model._scoring_plan's memo; clip_weights clears it

    def add(self, name: str, value: np.ndarray):
        if name in self.params:
            raise ConfigError(f"duplicate parameter {name}")
        self.params[name] = np.asarray(value, dtype=np.float64)

    def add_state(self, name: str, value: np.ndarray):
        if name in self.state:
            raise ConfigError(f"duplicate state entry {name}")
        self.state[name] = np.asarray(value, dtype=np.float64)

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.params if n.startswith(prefix)]


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform on [-L, L] with L = sqrt(6 / (rows + cols))."""
    if rows <= 0 or cols <= 0:
        raise DomainError("glorot_init needs positive dimensions")
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _normed(spec: MlpSpec, k: int) -> bool:
    """Whether layer k of spec is followed by batch norm: every layer but the last."""
    return k < len(spec.widths) - 1


def build_mlp_params(store: ParamStore, prefix: str, spec: MlpSpec, rng: np.random.Generator,
                     running_stats: bool = True):
    """Glorot weights; a zero bias where no batch norm follows, else unit/zero
    gamma/beta, plus running statistics unless running_stats is False (a
    network that is never scored)."""
    fan_in = spec.in_dim
    for k, width in enumerate(spec.widths):
        store.add(f"{prefix}.l{k}.W", glorot_init(fan_in, width, rng))
        if _normed(spec, k):
            store.add(f"{prefix}.l{k}.gamma", np.ones(width))
            store.add(f"{prefix}.l{k}.beta", np.zeros(width))
            if running_stats:
                store.add_state(f"{prefix}.l{k}.running_mean", np.zeros(width))
                store.add_state(f"{prefix}.l{k}.running_var", np.ones(width))
        else:
            store.add(f"{prefix}.l{k}.b", np.zeros(width))
        fan_in = width


def mlp_forward(tape: Tape, store: ParamStore, prefix: str, spec: MlpSpec, x,
                _frozen: bool = False, _stat_steps: int = 1) -> MlpNode:
    """Run the MLP on the tape as one Tape.mlp node, its parameters bound by
    their store names; returns the node.  _frozen gives them no adjoints.  Each
    stored running statistic is replaced by a new array, _stat_steps momentum
    steps toward its batch statistic: the bits of as many forwards."""
    params, state, layers = store.params, store.state, []
    for k, act in enumerate(spec.activations):
        names = [f"{prefix}.l{k}.{n}" for n in (("W", "gamma", "beta") if _normed(spec, k)
                                                  else ("W", "b"))]
        layers.append((act, *((name, params[name]) for name in names)))
    node = tape.mlp(x, layers, _frozen)
    for k, stats in enumerate(node.batch_stats):
        names = (f"{prefix}.l{k}.running_mean", f"{prefix}.l{k}.running_var")
        if stats is not None and names[0] in state:
            for name, batch in zip(names, stats):
                running = state[name]
                for _ in range(_stat_steps):
                    running = running * BN_MOMENTUM + (1.0 - BN_MOMENTUM) * batch
                state[name] = running
    return node


def fold_layers(store: ParamStore, prefix: str, spec: MlpSpec) -> tuple[list, list]:
    """(keys, layers): the (section, name) of each store array the scoring
    forward reads, and each layer's (W', b', activation) in float64 (scoring
    does not depend on the stored dtype).  A hidden batch norm folds into its
    bias-free layer, with s = gamma / sqrt(running_var + BN_EPS): W' = W s and
    b' = beta - running_mean s; other layers keep their W and b."""
    keys, layers = [], []
    for k, act in enumerate(spec.activations):
        layer, normed = f"{prefix}.l{k}", _normed(spec, k)
        names = [("params", f"{layer}.{n}")
                 for n in (("W", "gamma", "beta") if normed else ("W", "b"))]
        names += [("state", f"{layer}.running_{n}") for n in ("mean", "var") if normed]
        arrays = [np.asarray(getattr(store, section)[name], dtype=np.float64)
                  for section, name in names]
        if normed:
            w, gamma, beta, mean, var = arrays
            s = gamma / np.sqrt(var + BN_EPS)
            w, b = w * s, beta - mean * s
        else:
            w, b = arrays
        keys += names
        layers.append((w, b, act))
    return keys, layers


def _walk(layers: list, h: np.ndarray) -> np.ndarray:
    """h through every layer: h @ W', h += b', the activation in place."""
    for w, b, act in layers:
        h = h @ w
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "leaky_relu":  # max(h, a h) for a slope 0 < a < 1
            np.maximum(h, LEAKY_SLOPE * h, out=h)
    return h


def mlp_apply(layers: list, x: np.ndarray) -> np.ndarray:
    """Scoring forward pass over fold_layers' layers (batch norm on the running
    statistics).  More than BLOCK_ROWS rows go through every layer one block at
    a time, so a block's intermediates stay in cache from one layer to the
    next, and each block's output fills its rows of one (n, width) array.
    A row's value does not depend on the block it falls in, up to rounding: a
    GEMM may round a row differently as the number of rows changes."""
    if len(x) <= BLOCK_ROWS:
        return _walk(layers, x)
    out = np.empty((len(x), layers[-1][0].shape[1]), np.result_type(x, *(w for w, _, _ in layers)))
    for start in range(0, len(x), BLOCK_ROWS):
        out[start:start + BLOCK_ROWS] = _walk(layers, x[start:start + BLOCK_ROWS])
    return out


# ----------------------------------------------------------------- optimizers


BETA1, BETA2 = 0.9, 0.999  # Adam's moment decays
RHO = 0.9  # RMSprop's second-moment decay
EPS = 1e-8  # both kinds' denominator floor
MOMENTS = {"adam": ("m", "v"), "rmsprop": ("v",)}  # the slots each optimizer kind keeps


class Optimizer:
    """Adam (bias-corrected) or RMSprop over a fixed, non-empty set of parameter
    names: a step count and its kind's MOMENTS.  Each moment is one flat buffer
    of the parameters' total size, and slots[moment][name] are reshaped views of
    it in names order, so step updates all the moments in one vectorized pass."""

    def __init__(self, kind: str, learning_rate: float, names: list[str], store: ParamStore):
        if kind not in MOMENTS:
            raise ConfigError(f"unknown optimizer kind {kind!r}")
        if learning_rate <= 0.0:
            raise ConfigError("learning rate must be positive")
        self.kind, self.learning_rate, self.names = kind, learning_rate, list(names)
        if not self.names:
            raise ConfigError("an optimizer needs at least one parameter")
        for name in self.names:
            if name not in store.params:
                raise ConfigError(f"optimizer refers to unknown parameter {name}")
        self._spans, size = [], 0  # (name, start, stop, shape) of each parameter in a buffer
        for name in self.names:
            shape = np.shape(store.params[name])
            self._spans.append((name, size, size + math.prod(shape), shape))
            size = self._spans[-1][2]
        dtype = np.result_type(*{store.params[n].dtype for n in self.names})
        self._buffers = [np.zeros(size, dtype) for _ in MOMENTS[kind]]  # in MOMENTS order
        self.slots = {"step": 0}
        for moment, flat in zip(MOMENTS[kind], self._buffers):
            self.slots[moment] = {n: flat[a:b].reshape(shape) for n, a, b, shape in self._spans}

    def step(self, store: ParamStore, grads: dict[str, np.ndarray]):
        """One update of all the parameters, in the moments' dtype: Adam's m <-
        beta1 m + (1 - beta1) g, v <- beta2 v + (1 - beta2) g^2, theta <- theta
        - lr m^ / (sqrt(v^) + eps); RMSprop's v <- rho v + (1 - rho) g^2, theta
        <- theta - lr g / (sqrt(v) + eps).  grads is only read.  A non-finite
        gradient raises NumericalError, naming the first such parameter, before
        anything changes.  Each named store.params entry is rebound to a new
        array."""
        moments = self._buffers
        g = np.concatenate([grads[n] for n in self.names], axis=None, dtype=moments[0].dtype)
        if not np.isfinite(g).all():
            bad = next(n for n in self.names if not np.isfinite(grads[n]).all())
            raise NumericalError(f"non-finite gradient for parameter {bad}")
        self.slots["step"] = t = int(self.slots["step"]) + 1
        lr = self.learning_rate
        # two temporaries of the buffers' size, g and work, take every result in turn
        if self.kind == "adam":
            m, v = moments
            m *= BETA1
            work = np.multiply(1.0 - BETA1, g)
            m += work
            gg = np.multiply(1.0 - BETA2, g, out=work)
            gg *= g
            v *= BETA2
            v += gg
            step = np.divide(m, 1.0 - BETA1**t, out=work)
            step *= lr
            denom = np.sqrt(np.divide(v, 1.0 - BETA2**t, out=g), out=g)
        else:
            (v,) = moments
            gg = np.multiply(1.0 - RHO, g)
            gg *= g
            v *= RHO
            v += gg
            step = np.multiply(lr, g, out=g)
            denom = np.sqrt(v, out=gg)
        denom += EPS
        step /= denom
        params = store.params
        for name, a, b, shape in self._spans:
            params[name] = params[name] - step[a:b].reshape(shape)


def clip_weights(store: ParamStore, names: list[str], lo: float = -1.0, hi: float = 1.0):
    """Elementwise clamp of the named parameters (the critic's, in training)."""
    if lo >= hi:
        raise DomainError("clip_weights needs lo < hi")
    store.folded.clear()
    for name in names:
        np.clip(store.params[name], lo, hi, out=store.params[name])
