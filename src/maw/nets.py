"""Network plumbing: MLP specs, Glorot init, optimizers, weight clipping.

Every hidden layer is affine without bias -> batch norm (beta shifts) ->
activation; output layers are affine with a bias (batch norm on an output layer
would re-center the produced distribution parameters, so the flag covers hidden
layers).  The critic keeps batch norm too, deliberately.  On the tape each layer
is one `Tape.dense` node on the batch statistics; mlp_forward steps the running
statistics that mlp_apply folds in for scoring, and the critic keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .autodiff import ACTIVATIONS, BN_EPS, LEAKY_SLOPE, Tape, Node
from .errors import ConfigError, DomainError, NumericalError

FINAL_TRANSFORMS = ("none", "unit_normalize", "split4")
BN_MOMENTUM = 0.9  # a running statistic r steps to BN_MOMENTUM r + (1 - BN_MOMENTUM) batch


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected network layout.

    widths are output channels per layer; activations must match widths
    one-to-one ("linear" for no nonlinearity).  final_transform post-processes
    the last layer: "unit_normalize" rescales each output row to unit length,
    "split4" returns four equal column blocks.
    """

    in_dim: int
    widths: tuple[int, ...]
    activations: tuple[str, ...]
    batch_norm: bool = True
    final_transform: str = "none"

    def __post_init__(self):
        if self.in_dim <= 0 or len(self.widths) < 1 or any(w <= 0 for w in self.widths):
            raise ConfigError("MlpSpec needs a positive input dim and >= 1 positive width")
        if len(self.activations) != len(self.widths):
            raise ConfigError("MlpSpec needs one activation per layer")
        if any(a not in ACTIVATIONS for a in self.activations):
            raise ConfigError(f"activations must be among {ACTIVATIONS}")
        if self.final_transform not in FINAL_TRANSFORMS:
            raise ConfigError(f"final_transform must be among {FINAL_TRANSFORMS}")
        if self.final_transform == "split4" and self.widths[-1] % 4 != 0:
            raise ConfigError("split4 needs an output width divisible by 4")


def mlp(in_dim, widths, activation, final_transform="none", batch_norm=True) -> MlpSpec:
    """Spec with one hidden activation and a linear output layer."""
    acts = tuple(activation for _ in widths[:-1]) + ("linear",)
    return MlpSpec(in_dim, tuple(widths), acts, batch_norm, final_transform)


class ParamStore:
    """Named parameter arrays plus non-trainable state (batch-norm stats)."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        self.folded: dict = {}  # _eval_layers' memo of each network's folded scoring layers

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
    """Whether layer k of spec is followed by batch norm (hidden layers only)."""
    return spec.batch_norm and k < len(spec.widths) - 1


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


def _bind(tape: Tape, store: ParamStore, name: str, frozen: bool) -> Node:
    if frozen:
        return tape.const(store.params[name])
    if name in tape.params:
        return tape.params[name]
    return tape.param(store.params[name], name)


def mlp_forward(tape: Tape, store: ParamStore, prefix: str, spec: MlpSpec, x,
                _frozen: bool = False, _stat_steps: int = 1):
    """Run the MLP on the tape, one dense node per layer; returns a node or a
    4-tuple for split4.  _frozen binds the weights as constants (no gradients).
    Each stored running statistic is replaced by a new array, _stat_steps
    momentum steps toward its batch statistic: the bits of as many forwards."""
    h = tape._as_node(x)
    for k, act in enumerate(spec.activations):
        layer = f"{prefix}.l{k}"
        w = _bind(tape, store, f"{layer}.W", _frozen)
        if _normed(spec, k):
            norm = (_bind(tape, store, f"{layer}.gamma", _frozen),
                    _bind(tape, store, f"{layer}.beta", _frozen))
            h = tape.dense(h, w, None, act, norm)
            names = (f"{layer}.running_mean", f"{layer}.running_var")
            for name, batch in zip(names, h.batch_stats if names[0] in store.state else ()):
                running = store.state[name]
                for _ in range(_stat_steps):
                    running = running * BN_MOMENTUM + (1.0 - BN_MOMENTUM) * batch
                store.state[name] = running
        else:
            h = tape.dense(h, w, _bind(tape, store, f"{layer}.b", _frozen), act)
    if spec.final_transform == "unit_normalize":
        return tape.normalize_rows(h)
    if spec.final_transform == "split4":
        quarter = spec.widths[-1] // 4
        return tuple(
            tape.col_block(h, i * quarter, (i + 1) * quarter) for i in range(4)
        )
    return h


def _eval_layers(store: ParamStore, prefix: str, spec: MlpSpec) -> list:
    """Each layer's (W', b', activation), memoized in store.folded under (prefix,
    spec) until an array the fold reads is replaced (optimizer steps, mlp_forward,
    checkpoint loads, assignment); clip_weights edits in place and clears it."""
    sources = []
    for k in range(len(spec.widths)):
        layer = f"{prefix}.l{k}"
        sources.append(store.params[f"{layer}.W"])
        if _normed(spec, k):
            sources += [store.params[f"{layer}.gamma"], store.params[f"{layer}.beta"],
                        store.state[f"{layer}.running_mean"], store.state[f"{layer}.running_var"]]
        else:
            sources.append(store.params[f"{layer}.b"])
    hit = store.folded.get((prefix, spec))
    if hit is None or any(a is not b for a, b in zip(hit[0], sources)):
        hit = store.folded[prefix, spec] = (sources, _fold_layers(sources, spec))
    return hit[1]


def _fold_layers(sources: list, spec: MlpSpec) -> list:
    """Fold each hidden batch norm of _eval_layers' sources into its bias-free
    layer, with s = gamma / sqrt(running_var + BN_EPS): W' = W s and
    b' = beta - running_mean s.  Layers without batch norm keep their W and b."""
    arrays, layers = iter(sources), []
    for k, act in enumerate(spec.activations):
        w = next(arrays)
        if _normed(spec, k):
            gamma, beta, mean, var = (next(arrays) for _ in range(4))
            s = gamma / np.sqrt(var + BN_EPS)
            w, b = w * s, beta - mean * s
        else:
            b = next(arrays)
        layers.append((w, b, act))
    return layers


def mlp_apply(store: ParamStore, prefix: str, spec: MlpSpec, x: np.ndarray):
    """Scoring forward pass in plain numpy, batch norm on the running statistics.

    Runs _eval_layers' folded layers: h @ W', h += b', the activation in
    place.  The fold is memoized on the store, so replace arrays instead of
    editing them in place, which the memo does not see (clip_weights clears it).
    """
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in _eval_layers(store, prefix, spec):
        h = h @ w
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "leaky_relu":  # max(h, a h) for a slope 0 < a < 1
            np.maximum(h, LEAKY_SLOPE * h, out=h)
    if spec.final_transform == "unit_normalize":
        h = linalg.normalize_rows(h)
    elif spec.final_transform == "split4":
        quarter = spec.widths[-1] // 4
        return tuple(h[..., i * quarter:(i + 1) * quarter] for i in range(4))
    return h


# ----------------------------------------------------------------- optimizers


BETA1, BETA2 = 0.9, 0.999  # Adam's moment decays
RHO = 0.9  # RMSprop's second-moment decay
EPS = 1e-8  # both kinds' denominator floor
MOMENTS = {"adam": ("m", "v"), "rmsprop": ("v",)}  # the slots each optimizer kind keeps


class Optimizer:
    """Adam (bias-corrected) or RMSprop over a fixed set of parameter names:
    a step count and its kind's MOMENTS, which step updates in place."""

    def __init__(self, kind: str, learning_rate: float, names: list[str], store: ParamStore):
        if kind not in MOMENTS:
            raise ConfigError(f"unknown optimizer kind {kind!r}")
        if learning_rate <= 0.0:
            raise ConfigError("learning rate must be positive")
        self.kind, self.learning_rate, self.names = kind, learning_rate, list(names)
        for name in self.names:
            if name not in store.params:
                raise ConfigError(f"optimizer refers to unknown parameter {name}")
        self.slots = {"step": 0}
        for moment in MOMENTS[kind]:
            self.slots[moment] = {n: np.zeros_like(store.params[n]) for n in self.names}

    def step(self, store: ParamStore, grads: dict[str, np.ndarray]):
        """One update: Adam's m <- beta1 m + (1 - beta1) g, v <- beta2 v +
        (1 - beta2) g^2, theta <- theta - lr m^ / (sqrt(v^) + eps); RMSprop's
        v <- rho v + (1 - rho) g^2, theta <- theta - lr g / (sqrt(v) + eps).
        Each named store.params entry is rebound to a new array."""
        self.slots["step"] = t = int(self.slots["step"]) + 1
        adam, lr = self.kind == "adam", self.learning_rate
        correct1, correct2 = 1.0 - BETA1**t, 1.0 - BETA2**t
        for name in self.names:
            g = grads[name]
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for parameter {name}")
            v = self.slots["v"][name]
            if adam:
                m = self.slots["m"][name]
                m *= BETA1
                m += (1.0 - BETA1) * g
                gg = (1.0 - BETA2) * g
                gg *= g
                v *= BETA2
                v += gg
                step = m / correct1
                step *= lr
                denom = np.sqrt(v / correct2)
            else:
                gg = (1.0 - RHO) * g
                gg *= g
                v *= RHO
                v += gg
                step = lr * g
                denom = np.sqrt(v)
            denom += EPS
            step /= denom
            store.params[name] = store.params[name] - step


def clip_weights(store: ParamStore, names: list[str], lo: float = -1.0, hi: float = 1.0):
    """Elementwise clamp of the named parameters (the critic's, in training)."""
    if lo >= hi:
        raise DomainError("clip_weights needs lo < hi")
    store.folded.clear()
    for name in names:
        np.clip(store.params[name], lo, hi, out=store.params[name])
