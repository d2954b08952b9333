"""The mixture-latent autoencoder: checkpoints, training, scoring.

A variant is its INGREDIENTS entry, the paper's changes to a VAE that it
keeps; the code reads those fields, never the name (None: the plain VAE).
Training alternates three updates per batch: an Adam step on the least
absolute deviation reconstruction loss (encoder, reduction matrix, decoder),
an RMSprop step on the clipped critic's Wasserstein-1 surrogate, and an Adam
step pushing the generator (encoder + reduction matrix) against the critic.
The generator forward runs twice per batch: once for the reconstruction step,
and once shared by the critic step (its draws as constants, on a tape of its
own) and the generator step (the updated critic, frozen, on its tape).
Training's batch norm uses batch statistics, scoring's the running statistics
that each training forward steps.  Training's arrays are TRAIN_DTYPE, cast from
float64 draws so that the RNG streams do not move; scoring casts the weights up
to float64, where a prefix scored alone keeps its bits (float32 GEMMs round a
row differently as the row count changes).  Scoring draws from the inlier mode
only and averages cosine similarity between a test point and its decodes: the
mean dot product of unit (or zero) rows, clipped to [-1, 1], from a plan
built once per set of weights (_scoring_plan).  _modes is the one posterior
after the encoder's four output quarters: training runs it on the tape,
scoring on plain arrays.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import linalg, nets
from .autodiff import Tape
from .errors import ConfigError, DataError, DomainError, NumericalError, ShapeError


@dataclass(frozen=True)
class Ingredients:
    """Which of the paper's four changes to a VAE a variant keeps: A, the
    mixture (its two modes, and the inlier mode's truncation), W1 and LAD."""

    reduction: bool = True
    mixture: bool = True
    truncation: bool = True
    w1: bool = True
    lad: bool = True


# Each ablation removes one ingredient; None is the plain diagonal-Gaussian VAE.
INGREDIENTS = {
    "maw": Ingredients(),
    "maw-mse": Ingredients(lad=False),
    "maw-kl": Ingredients(w1=False),
    "maw-same-rank": Ingredients(truncation=False),
    "maw-single-gaussian": Ingredients(mixture=False),
    "maw-diagonal-cov": Ingredients(reduction=False),
    "vae": None,
}
VARIANTS = tuple(INGREDIENTS)

DEFAULT_ETA = 5.0 / 6.0
SCORE_CHUNK = 2048  # rows per score_batch step; bounds its working set
WIDTH_KEYS = ("encoder_widths", "decoder_widths", "critic_widths")
INT_KEYS = ("d", "dprime", "samples", "epochs", "batch_size")
FLOAT_KEYS = ("eta", "lr_vae", "lr_critic")
CHECKPOINT_VERSION = 2
TRAIN_DTYPE = np.float32  # training's arrays; scoring and theory stay float64


@dataclass
class Hyperparams:
    d: int = 2
    dprime: int = 128
    eta: float = DEFAULT_ETA
    samples: int = 5
    epochs: int = 100
    batch_size: int = 128
    lr_vae: float = 5e-5
    lr_critic: float = 5e-4
    variant: str = "maw"
    encoder_widths: tuple = (32, 64, 128)
    decoder_widths: tuple = (128, 64, 32)
    critic_widths: tuple = (32, 64, 128)

    def __post_init__(self):
        for key in WIDTH_KEYS:
            widths = getattr(self, key)
            if (not isinstance(widths, (list, tuple)) or not widths
                    or any(isinstance(w, bool) or not isinstance(w, int)
                           or not 1 <= w <= linalg.SIZE_MAX for w in widths)):
                raise ConfigError(f"{key} must be a non-empty list of ints in "
                                  f"[1, {linalg.SIZE_MAX}], got {widths!r}")
            setattr(self, key, tuple(widths))
        for key in INT_KEYS:
            setattr(self, key, linalg.as_size(getattr(self, key), key, ConfigError))
        for key in FLOAT_KEYS:
            setattr(self, key, linalg.as_float(getattr(self, key), key, ConfigError))
        if self.d < 2 or self.d % 2 != 0:
            raise ConfigError("latent dimension d must be even and >= 2")
        if not (0.5 < self.eta < 1.0):
            raise ConfigError("mixture weight eta must lie in (0.5, 1)")
        if self.dprime < 1 or self.samples < 1 or self.epochs < 0:
            raise ConfigError("dprime >= 1, samples >= 1, epochs >= 0 required")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batch norm)")
        if self.lr_vae <= 0.0 or self.lr_critic <= 0.0:
            raise ConfigError("learning rates must be positive")
        if not isinstance(self.variant, str) or self.variant not in INGREDIENTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")

    @property
    def ingredients(self) -> Ingredients | None:
        return INGREDIENTS[self.variant]

    def to_dict(self):
        out = dataclasses.asdict(self)
        for key in WIDTH_KEYS:
            out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad hyperparameters: {exc}") from exc


def cosine_score(y, decodes):
    """Mean cosine similarity between y and each of its decodes, for rows that
    are unit length or zero (a zero row scores 0): their mean dot product,
    clipped to [-1, 1] against rounding.

    y is (..., D) and decodes (..., T, D); the result has shape y.shape[:-1].
    """
    decodes = np.asarray(decodes, dtype=np.float64)
    total = np.einsum("...td,...d->...", decodes, np.asarray(y, dtype=np.float64))
    return np.clip(total / decodes.shape[-2], -1.0, 1.0)


# --------------------------------------------------------------------- model


class MawModel:
    """Trainable parameters plus hyperparameters for one detector instance."""

    def __init__(self, hp: Hyperparams, feature_dim: int, store: nets.ParamStore,
                 specs: dict, optimizers: dict):
        self.hp = hp
        self.feature_dim = feature_dim
        self.store = store
        self.specs = specs
        self.optimizers = optimizers

    def to_payload(self) -> dict:
        return {
            "format": "maw-checkpoint",
            "version": CHECKPOINT_VERSION,
            "hyperparams": self.hp.to_dict(),
            "feature_dim": self.feature_dim,
            "params": {k: v.tolist() for k, v in self.store.params.items()},
            "state": {k: v.tolist() for k, v in self.store.state.items()},
            "optimizers": {  # each optimizer's step and moment slots
                name: {k: v if k == "step" else {n: a.tolist() for n, a in v.items()}
                       for k, v in opt.slots.items()}
                for name, opt in self.optimizers.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MawModel":
        """Rebuild a model from to_payload's dict.

        Unknown hyperparameters raise ConfigError.  A payload of another
        format or version (an int) is a DataError.  feature_dim must be a
        positive integer, and every parameter, state and optimizer slot array
        must match init_model's names and shapes and be finite, and optimizer
        steps and second moments >= 0, else DataError: a missing entry would
        silently keep its init value.
        """
        if not isinstance(payload, dict) or payload.get("format") != "maw-checkpoint":
            raise DataError("not a model checkpoint payload")
        version = payload.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise DataError(f"checkpoint version {version!r} is not supported; "
                            f"expected {CHECKPOINT_VERSION}")
        missing = [k for k in ("hyperparams", "feature_dim", "params", "state", "optimizers")
                   if k not in payload]
        if missing:
            raise DataError(f"checkpoint lacks {missing}")
        hp = Hyperparams.from_dict(payload["hyperparams"])
        dim = linalg.as_size(payload["feature_dim"], "checkpoint feature_dim", DataError)
        if dim < 1:
            raise DataError(f"checkpoint feature_dim must be positive, got {dim}")
        model = init_model(hp, dim, np.random.default_rng(0))
        _load_arrays(model.store.params, payload["params"], "params")
        _load_arrays(model.store.state, payload["state"], "state")
        _load_optimizers(model.optimizers, payload["optimizers"])
        return model


def _load_optimizers(optimizers: dict, source):
    """Replace each optimizer's slots (its step and its kind's moments) by
    source's checked entries."""
    _check_names(optimizers, source, "optimizers")
    for name, opt in optimizers.items():
        _check_names(opt.slots, source[name], f"optimizers.{name}")
        step = source[name]["step"]
        if type(step) is not int or step < 0:
            raise DataError(f"checkpoint optimizers.{name}.step must be an integer >= 0")
        for moment in opt.slots.keys() - {"step"}:
            _load_arrays(opt.slots[moment], source[name][moment], f"optimizers.{name}.{moment}")
        if any(np.any(v < 0.0) for v in opt.slots["v"].values()):
            raise DataError(f"checkpoint optimizers.{name}.v has a negative entry")
        opt.slots["step"] = step


def _check_names(names, source, section: str):
    """source must be a dict holding exactly the given names."""
    if not isinstance(source, dict) or source.keys() != set(names):
        found = set(source) if isinstance(source, dict) else set()
        raise DataError(
            f"checkpoint {section} do not match the model: missing "
            f"{sorted(set(names) - found)}, unexpected {sorted(found - set(names))}"
        )


def _load_arrays(target: dict, source, section: str):
    """Replace each array of target by source's entry of the same name and shape."""
    _check_names(target, source, section)
    for name, ref in target.items():
        try:
            value = np.asarray(source[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"checkpoint {section} entry {name} is not numeric") from exc
        if value.shape != ref.shape:
            raise DataError(
                f"checkpoint {section} entry {name} has shape {value.shape}, expected {ref.shape}"
            )
        if not np.all(np.isfinite(value)):
            raise DataError(f"checkpoint {section} entry {name} is not finite")
        target[name] = value


def _network_specs(hp: Hyperparams, feature_dim: int) -> dict:
    """The networks' specs; the encoder's four quarters are d wide without A, else dprime."""
    quarter = hp.dprime if hp.ingredients is None or hp.ingredients.reduction else hp.d
    specs = {
        "enc": nets.mlp(feature_dim, hp.encoder_widths + (4 * quarter,), "relu"),
        "dec": nets.mlp(hp.d, hp.decoder_widths + (feature_dim,), "relu"),
    }
    if hp.ingredients is not None:
        specs["cri"] = nets.mlp(hp.d, hp.critic_widths + (1,), "leaky_relu")
    return specs


def init_model(hp: Hyperparams, feature_dim: int, rng: np.random.Generator) -> MawModel:
    """Glorot-initialized model; parameter creation order is fixed for determinism."""
    if feature_dim < 1:
        raise ConfigError("feature dimension must be positive")
    specs = _network_specs(hp, feature_dim)
    store = nets.ParamStore()
    nets.build_mlp_params(store, "enc", specs["enc"], rng)
    ing = hp.ingredients
    uses_reduction = ing is not None and ing.reduction
    if uses_reduction:
        store.add("A", nets.glorot_init(hp.dprime, hp.d, rng))
    if ing is None:
        store.add("head.W", nets.glorot_init(4 * hp.dprime, 2 * hp.d, rng))
        store.add("head.b", np.zeros(2 * hp.d))
    nets.build_mlp_params(store, "dec", specs["dec"], rng)
    if "cri" in specs:  # the critic is never scored: no running statistics
        nets.build_mlp_params(store, "cri", specs["cri"], rng, running_stats=False)
    store.params = {k: v.astype(TRAIN_DTYPE) for k, v in store.params.items()}
    store.state = {k: v.astype(TRAIN_DTYPE) for k, v in store.state.items()}

    gen_names = store.names("enc.") + (["A"] if uses_reduction else [])
    if ing is None:
        vae_names = store.names("enc.") + store.names("head.") + store.names("dec.")
    else:
        vae_names = gen_names + store.names("dec.")
    optimizers = {"vae": nets.Optimizer("adam", hp.lr_vae, vae_names, store)}
    if "cri" in specs:
        optimizers["critic"] = nets.Optimizer("rmsprop", hp.lr_critic, store.names("cri."), store)
        optimizers["gen"] = nets.Optimizer("adam", hp.lr_vae, gen_names, store)
    return MawModel(hp, feature_dim, store, specs, optimizers)


def _modes(ops, model: MawModel, enc, modes=(1, 2)):
    """([mean], [factor blocks]) of the ascending modes from the encoder's four
    outputs (enc[j - 1] and enc[j + 1] of mode j), on ops: a Tape in training,
    the scoring plan's ops on plain arrays in scoring.  The tape's node
    order (means, blocks, truncation) fixes the order in which A's adjoint adds
    its parts; each block node's part sums over the batch rows in one GEMM."""
    hp, ing = model.hp, model.hp.ingredients
    means, rows = [enc[j - 1] for j in modes], [enc[j + 1] for j in modes]
    truncate = modes[0] == 1 and ing.truncation
    if not ing.reduction:
        if truncate:
            dtype = getattr(rows[0], "value", rows[0]).dtype  # a tape node's or an array's
            rows[0] = ops.hadamard(rows[0], linalg.truncation_mask(hp.d, dtype))
        return means, [ops.rows_to_diag_blocks(s) for s in rows]
    a = ops.param(model.store.params["A"], "A")
    means = [ops.matmul(mu, a) for mu in means]
    blocks = [ops.batch_diag_sandwich(a, s) for s in rows]
    if truncate:
        blocks[0] = ops.spectral_truncate(blocks[0], hp.d)
    return means, blocks


def _forward_generated(tape: Tape, model: MawModel, xb: np.ndarray,
                       labels, eps1, eps2, stat_steps: int = 1):
    """Encoder -> its four quarters -> posterior (_modes) -> latent draws, on the
    tape.  The encoder's running statistics take stat_steps steps (nets.mlp_forward)."""
    spec = model.specs["enc"]
    h = nets.mlp_forward(tape, model.store, "enc", spec, tape.const(xb), _stat_steps=stat_steps)
    q = spec.widths[-1] // 4
    enc = [tape.col_block(h, i * q, (i + 1) * q) for i in range(4)]
    (mu1, mu2), (m1, m2) = _modes(tape, model, enc)
    return tape.mixture_sample(mu1, mu2, m1, m2, labels, eps1, eps2)


def _decode(tape: Tape, model: MawModel, z):
    """The decoder's rows, unit-normalized (zero rows stay zero)."""
    return tape.normalize_rows(nets.mlp_forward(tape, model.store, "dec", model.specs["dec"], z))


def _critic(tape: Tape, model: MawModel, z):
    return nets.mlp_forward(tape, model.store, "cri", model.specs["cri"], z)


def _draw_batch_noise(hp: Hyperparams, rng: np.random.Generator, batch_rows: int):
    """Per-batch noise in a fixed order: labels, eps1, eps2, prior draws (float64
    draws cast to TRAIN_DTYPE), each hp.samples draws at a time per batch row
    (Tape.mixture_sample's grouping); returns them with point_idx, each draw's row.
    Without the mixture every draw is from mode 2, the full-rank one; the plain
    VAE draws labels it never reads, which keeps its RNG stream."""
    total = batch_rows * hp.samples
    if hp.ingredients is not None and not hp.ingredients.mixture:
        labels = np.full(total, 2, dtype=int)
    else:
        labels = np.where(rng.random(total) < hp.eta, 1, 2)
    eps1, eps2, z_hyp = (rng.standard_normal((total, hp.d)).astype(TRAIN_DTYPE)
                         for _ in range(3))
    point_idx = np.repeat(np.arange(batch_rows), hp.samples)
    return labels, point_idx, eps1, eps2, z_hyp


def _maw_batch_update(model: MawModel, xb: np.ndarray, noise) -> tuple[float, float, float]:
    ing = model.hp.ingredients
    labels, point_idx, eps1, eps2, z_hyp = noise
    x_rep = xb[point_idx]
    squared, bce = not ing.lad, not ing.w1

    # reconstruction step: encoder, reduction matrix, decoder
    tape = Tape()
    z = _forward_generated(tape, model, xb, labels, eps1, eps2)
    decoded = _decode(tape, model, z)
    l_vae = tape.mean_rowwise_norm_diff(decoded, tape.const(x_rep), squared=squared)
    grads = tape.backward(l_vae)
    model.optimizers["vae"].step(model.store, grads)

    # one forward of the updated generator serves the critic and generator
    # steps, as the critic step changes neither enc.* nor A; the encoder's
    # running statistics take the two steps that two forwards took.
    gen_tape = Tape()
    z = _forward_generated(gen_tape, model, xb, labels, eps1, eps2, stat_steps=2)

    # critic step on its own tape, the draws as constants
    tape = Tape()
    d_gen = _critic(tape, model, tape.const(z.value))
    d_hyp = _critic(tape, model, tape.const(z_hyp))
    if bce:
        l_cri = tape.add(
            tape.mean_all(tape.softplus(tape.scale(d_hyp, -1.0))),
            tape.mean_all(tape.softplus(d_gen)),
        )
    else:
        l_cri = tape.add(tape.mean_all(d_gen), tape.scale(tape.mean_all(d_hyp), -1.0))
    grads = tape.backward(l_cri)
    model.optimizers["critic"].step(model.store, grads)
    if not bce:
        nets.clip_weights(model.store, model.store.names("cri."))

    # generator step: the updated critic, its weights bound as constants, on
    # the shared forward's draws
    d_gen = nets.mlp_forward(gen_tape, model.store, "cri", model.specs["cri"], z, _frozen=True)
    if bce:
        l_gen = gen_tape.mean_all(gen_tape.softplus(gen_tape.scale(d_gen, -1.0)))
    else:
        l_gen = gen_tape.scale(gen_tape.mean_all(d_gen), -1.0)
    grads = gen_tape.backward(l_gen)
    model.optimizers["gen"].step(model.store, grads)

    return float(l_vae.value), float(l_cri.value), float(l_gen.value)


def _vae_batch_update(model: MawModel, xb: np.ndarray, noise) -> tuple[float, float, float]:
    hp = model.hp
    _, point_idx, eps1, _, _ = noise
    x_rep = xb[point_idx]

    tape = Tape()
    feats = nets.mlp_forward(tape, model.store, "enc", model.specs["enc"], tape.const(xb))
    head = tape.dense(
        feats,
        tape.param(model.store.params["head.W"], "head.W"),
        tape.param(model.store.params["head.b"], "head.b"),
    )
    mu = tape.col_block(head, 0, hp.d)
    logvar = tape.col_block(head, hp.d, 2 * hp.d)
    sigma = tape.exp(tape.scale(logvar, 0.5))
    z = tape.add(
        tape.gather_rows(mu, point_idx),
        tape.hadamard(tape.gather_rows(sigma, point_idx), tape.const(eps1)),
    )
    decoded = _decode(tape, model, z)
    recon = tape.mean_rowwise_norm_diff(decoded, tape.const(x_rep), squared=True)
    kl = tape.vae_kl_diag(mu, logvar)
    total = tape.add(recon, kl)
    grads = tape.backward(total)
    model.optimizers["vae"].step(model.store, grads)
    return float(recon.value), float(kl.value), 0.0


def train(features, hp: Hyperparams, seed: int):
    """Train a detector; returns (model, per-epoch loss trace).

    features is an (n, D) array (rows are unit-normalized, then cast to
    TRAIN_DTYPE).  The run
    is fully determined by (features, hp, seed).  Trace entries are dicts with
    the per-epoch means of the three loss streams; for the plain-VAE variant
    the critic column carries the KL term and the generator column is zero.
    seed is a non-negative int (linalg.as_seed), else DomainError.
    """
    seed = linalg.as_seed(seed, "seed", DomainError)
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeError("training data must be an (n >= 2, D) matrix")
    if not np.all(np.isfinite(x)):
        raise DomainError("training data must be finite")
    x = linalg.normalize_rows(x).astype(TRAIN_DTYPE)

    rng = np.random.default_rng(seed)
    model = init_model(hp, x.shape[1], rng)
    update = _vae_batch_update if hp.ingredients is None else _maw_batch_update

    trace = []
    n = x.shape[0]
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(3)
        count = 0
        for start in range(0, n, hp.batch_size):
            idx = perm[start:start + hp.batch_size]
            if idx.size < 2:
                continue  # a trailing singleton cannot be batch-normalized
            noise = _draw_batch_noise(hp, rng, idx.size)
            losses = update(model, x[idx], noise)
            if not np.all(np.isfinite(losses)):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {start // hp.batch_size}"
                )
            sums += losses
            count += 1
        if count == 0:
            raise DomainError("no usable batch (need >= 2 points)")
        trace.append({
            "epoch": epoch,
            "loss_vae": sums[0] / count,
            "loss_critic": sums[1] / count,
            "loss_gen": sums[2] / count,
        })
    return model, trace


# --------------------------------------------------------------------- scoring


def _scoring_plan(model: MawModel) -> SimpleNamespace:
    """What scoring reads, memoized in model.store.folded while each source
    array (keys: (section, name)) is the same object; clip_weights, which edits
    arrays in place, clears it.  enc and dec are the folded networks
    (nets.fold_layers); mean and diag slice enc's output for the inlier mode;
    ops are the Tape methods _modes calls, on plain arrays, bound to A in
    float64 and its A-outer-A rows.  Where A reduces the quarters, enc's last
    layer keeps the mode's two: a GEMM's column keeps its bits then (on
    OpenBLAS, for quarters of a multiple of 4 columns)."""
    store, hp = model.store, model.hp
    plan = store.folded.get("plan")
    if plan is not None and all(map(operator.is_, [getattr(store, section)[name] for
                                                   section, name in plan.keys], plan.sources)):
        return plan
    keys, enc = nets.fold_layers(store, "enc", model.specs["enc"])
    dec_keys, dec = nets.fold_layers(store, "dec", model.specs["dec"])
    j = 2 if hp.ingredients is not None and not hp.ingredients.mixture else 1  # inlier mode
    w, b, act = enc[-1]
    q = w.shape[1] // 4
    mean, diag = slice((j - 1) * q, j * q), slice((j + 1) * q, (j + 2) * q)
    ops = SimpleNamespace(matmul=np.matmul, hadamard=np.multiply,
                          rows_to_diag_blocks=linalg.diag_blocks,
                          spectral_truncate=lambda blocks, d: linalg.spectral_truncate(blocks)[0])
    if "A" in store.params:
        keys.append(("params", "A"))
        cols = np.r_[mean, diag]
        enc[-1] = (w.take(cols, axis=1), b[cols], act)  # C order, as w: GEMM's path
        mean, diag = slice(0, q), slice(q, 2 * q)
        a = np.asarray(store.params["A"], dtype=np.float64)
        _, aa = linalg.diag_sandwich(a, np.empty((0, a.shape[0])))  # the blocks of no rows
        ops.param = lambda value, name: a
        ops.batch_diag_sandwich = lambda _, s_rows: (s_rows @ aa).reshape(-1, hp.d, hp.d)
    keys += dec_keys
    sources = [getattr(store, section)[name] for section, name in keys]
    plan = store.folded["plan"] = SimpleNamespace(keys=keys, sources=sources, enc=enc, mean=mean,
                                                  diag=diag, mode=j, dec=dec, ops=ops)
    return plan


def _inlier_mode_factors(model: MawModel, plan: SimpleNamespace, y_rows: np.ndarray):
    """Per-point inlier-mode mean (n, d) and covariance factor (n, d, d) for
    scoring: _modes on the plan.  The plain VAE's factor is diag(sigma)."""
    hp, enc = model.hp, nets.mlp_apply(plan.enc, y_rows)
    if hp.ingredients is None:
        head = enc @ model.store.params["head.W"] + model.store.params["head.b"]
        return head[:, :hp.d], linalg.diag_blocks(np.exp(0.5 * head[:, hp.d:]))
    # _modes reads mode j's mean as enc[j - 1] and its diagonal as enc[j + 1]
    mean, diag = enc[:, plan.mean], enc[:, plan.diag]
    (mu,), (factors,) = _modes(plan.ops, model, (mean, mean, diag, diag), (plan.mode,))
    return mu, factors


def _prepare_rows(model: MawModel, y_rows, samples: int | None):
    """Validate rows to score; returns (rows, noise block shape).

    The block is (n, k, t, d): k = 2 (factor noise, then identity-floor
    noise), or k = 1 for the plain VAE, whose draws have no identity floor.
    """
    y = np.asarray(y_rows, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != model.feature_dim:
        raise ShapeError(f"expected (n, {model.feature_dim}) test matrix, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise DomainError("rows to score must be finite")
    t = model.hp.samples if samples is None else linalg.as_size(samples, "samples", DomainError)
    if t < 1:
        raise DomainError("need at least one scoring draw")
    k = 1 if model.hp.ingredients is None else 2
    return y, (y.shape[0], k, t, model.hp.d)


def _score_rows(model: MawModel, y: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Scores of rows y (n, D), unit-normalized here, row j decoding the draws from noise[j]."""
    n, k, t, d = noise.shape
    y = linalg.normalize_rows(y)
    plan = _scoring_plan(model)
    mu, factors = _inlier_mode_factors(model, plan, y)
    z = mu[:, None, :] + noise[:, 0] @ np.swapaxes(factors, 1, 2)
    if k == 2:
        z = z + noise[:, 1]
    decoded = linalg.normalize_rows(nets.mlp_apply(plan.dec, z.reshape(n * t, d)))
    return cosine_score(y, decoded.reshape(n, t, -1))


def score_batch(model: MawModel, y_rows, samples: int | None = None, seed: int = 0) -> np.ndarray:
    """Normality scores in [-1, 1] for each row of y_rows (higher = more normal).

    One default_rng(seed) call draws an (n, k, t, d) block of standard
    normals and row j uses block j, so a prefix of a batch scored alone gets
    the same scores as in the whole batch, and score(model, y,
    rng=default_rng(seed)) equals score_batch(model, y[None], seed=seed)[0].
    Any other slice gets other draws, and so other scores.  Rows are scored
    SCORE_CHUNK at a time, each chunk drawing its rows of the block from the
    same generator in order (the same bits as one draw), so memory is
    bounded by the chunk, not n.  seed is a non-negative int (linalg.as_seed),
    else DomainError.
    """
    y, (n, k, t, d) = _prepare_rows(model, y_rows, samples)
    rng = np.random.default_rng(linalg.as_seed(seed, "seed", DomainError))
    scores = np.empty(n)
    for start in range(0, n, SCORE_CHUNK):
        rows = y[start:start + SCORE_CHUNK]
        noise = rng.standard_normal((rows.shape[0], k, t, d))
        scores[start:start + rows.shape[0]] = _score_rows(model, rows, noise)
    return scores


def score(model: MawModel, y, samples: int | None = None,
          rng: np.random.Generator | None = None) -> float:
    """Single-point normality score; its draws are the next block of rng (default seed 0)."""
    y, shape = _prepare_rows(model, np.asarray(y, dtype=np.float64)[None], samples)
    if rng is None:
        rng = np.random.default_rng(0)
    return float(_score_rows(model, y, rng.standard_normal(shape))[0])
