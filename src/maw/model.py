"""The mixture-latent autoencoder: checkpoints, training, scoring.

Training alternates three updates per batch: an Adam step on the least
absolute deviation reconstruction loss (encoder, reduction matrix, decoder),
an RMSprop step on the clipped critic's Wasserstein-1 surrogate, and an Adam
step pushing the generator (encoder + reduction matrix) against the critic.
The generator forward runs twice per batch: once for the reconstruction step,
and once shared by the critic step (its draws as constants, on a tape of its
own) and the generator step (the updated critic, frozen, on its tape).
Training's batch norm uses batch statistics, scoring's the running statistics
that each training forward steps.  Scoring draws from the inlier mode only and
averages cosine similarity between a test point and its decodes.  _modes is
the one posterior after the encoder: training runs it on the tape, scoring on
plain arrays (ARRAY_OPS).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import linalg, nets
from .autodiff import Tape
from .errors import ConfigError, DataError, DomainError, NumericalError, ShapeError

VARIANTS = (
    "maw",
    "maw-mse",
    "maw-kl",
    "maw-same-rank",
    "maw-single-gaussian",
    "maw-diagonal-cov",
    "vae",
)

DEFAULT_ETA = 5.0 / 6.0
SCORE_CHUNK = 2048  # rows per score_batch step; bounds its working set
WIDTH_KEYS = ("encoder_widths", "decoder_widths", "critic_widths")
INT_KEYS = ("d", "dprime", "samples", "epochs", "batch_size")
FLOAT_KEYS = ("eta", "lr_vae", "lr_critic")
CHECKPOINT_VERSION = 2


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
                    or any(isinstance(w, bool) or not isinstance(w, int) or w < 1
                           for w in widths)):
                raise ConfigError(f"{key} must be a non-empty list of positive ints, "
                                  f"got {widths!r}")
            setattr(self, key, tuple(widths))
        for key in INT_KEYS:
            setattr(self, key, linalg.as_int(getattr(self, key), key, ConfigError))
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
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")

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
    """Mean cosine similarity between y and each of its decodes; zero vectors score 0.

    y is (..., D) and decodes (..., T, D); the result has shape y.shape[:-1].
    """
    y = np.asarray(y, dtype=np.float64)
    decodes = np.asarray(decodes, dtype=np.float64)
    denom = (np.sqrt(np.add.reduce(decodes * decodes, axis=-1))  # np.linalg.norm's arithmetic
             * np.sqrt(np.add.reduce(y * y, axis=-1))[..., None])
    dots = np.einsum("...td,...d->...t", decodes, y)
    positive = denom > 0.0
    cos = np.where(positive, dots / np.where(positive, denom, 1.0), 0.0)
    return np.mean(cos, axis=-1)


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
        dim = linalg.as_int(payload["feature_dim"], "checkpoint feature_dim", DataError)
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
    enc_out = 4 * (hp.d if hp.variant == "maw-diagonal-cov" else hp.dprime)
    specs = {
        "enc": nets.mlp(
            feature_dim,
            hp.encoder_widths + (enc_out,),
            "relu",
            final_transform="none" if hp.variant == "vae" else "split4",
        ),
        "dec": nets.mlp(
            hp.d,
            hp.decoder_widths + (feature_dim,),
            "relu",
            final_transform="unit_normalize",
        ),
    }
    if hp.variant != "vae":
        specs["cri"] = nets.mlp(hp.d, hp.critic_widths + (1,), "leaky_relu")
    return specs


def init_model(hp: Hyperparams, feature_dim: int, rng: np.random.Generator) -> MawModel:
    """Glorot-initialized model; parameter creation order is fixed for determinism."""
    if feature_dim < 1:
        raise ConfigError("feature dimension must be positive")
    specs = _network_specs(hp, feature_dim)
    store = nets.ParamStore()
    nets.build_mlp_params(store, "enc", specs["enc"], rng)
    uses_reduction = hp.variant not in ("vae", "maw-diagonal-cov")
    if uses_reduction:
        store.add("A", nets.glorot_init(hp.dprime, hp.d, rng))
    if hp.variant == "vae":
        store.add("head.W", nets.glorot_init(4 * hp.dprime, 2 * hp.d, rng))
        store.add("head.b", np.zeros(2 * hp.d))
    nets.build_mlp_params(store, "dec", specs["dec"], rng)
    if "cri" in specs:  # the critic is never scored: no running statistics
        nets.build_mlp_params(store, "cri", specs["cri"], rng, running_stats=False)

    gen_names = store.names("enc.") + (["A"] if uses_reduction else [])
    if hp.variant == "vae":
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
    outputs, on ops: a Tape in training, ARRAY_OPS in scoring.  The tape's node
    order (means, blocks, truncation) fixes the order in which A's adjoint adds
    its parts; each block node's part sums over the batch rows in one GEMM."""
    hp = model.hp
    means, rows = [enc[j - 1] for j in modes], [enc[j + 1] for j in modes]
    truncate = modes[0] == 1 and hp.variant != "maw-same-rank"
    if hp.variant == "maw-diagonal-cov":
        if truncate:
            rows[0] = ops.hadamard(rows[0], linalg.truncation_mask(hp.d))
        return means, [ops.rows_to_diag_blocks(s) for s in rows]
    a = ops.param(model.store.params["A"], "A")
    means = [ops.matmul(mu, a) for mu in means]
    blocks = [ops.batch_diag_sandwich(a, s) for s in rows]
    if truncate:
        blocks[0] = ops.spectral_truncate(blocks[0], hp.d)
    return means, blocks


# The Tape methods _modes calls, on plain arrays: blocks are (L, d, d), not (L*d, d).
ARRAY_OPS = SimpleNamespace(
    param=lambda value, name: value,
    matmul=np.matmul,
    hadamard=np.multiply,
    batch_diag_sandwich=linalg.diag_sandwich,
    rows_to_diag_blocks=linalg.diag_blocks,
    spectral_truncate=lambda blocks, d: linalg.spectral_truncate(blocks)[0],
)


def _forward_generated(tape: Tape, model: MawModel, xb: np.ndarray,
                       labels, point_idx, eps1, eps2, stat_steps: int = 1):
    """Encoder -> posterior (_modes) -> reparameterized latent draws, on the tape.
    The encoder's running statistics take stat_steps steps (nets.mlp_forward)."""
    enc = nets.mlp_forward(tape, model.store, "enc", model.specs["enc"], tape.const(xb),
                           _stat_steps=stat_steps)
    (mu1, mu2), (m1, m2) = _modes(tape, model, enc)
    return tape.mixture_sample(mu1, mu2, m1, m2, labels, point_idx, eps1, eps2)


def _decode(tape: Tape, model: MawModel, z):
    return nets.mlp_forward(tape, model.store, "dec", model.specs["dec"], z)


def _critic(tape: Tape, model: MawModel, z):
    return nets.mlp_forward(tape, model.store, "cri", model.specs["cri"], z)


def _draw_batch_noise(hp: Hyperparams, rng: np.random.Generator, batch_rows: int):
    """Per-batch noise in a fixed order: labels, eps1, eps2, prior draws."""
    total = batch_rows * hp.samples
    if hp.variant == "maw-single-gaussian":
        labels = np.full(total, 2, dtype=int)
    else:
        labels = np.where(rng.random(total) < hp.eta, 1, 2)
    eps1 = rng.standard_normal((total, hp.d))
    eps2 = rng.standard_normal((total, hp.d))
    z_hyp = rng.standard_normal((total, hp.d))
    point_idx = np.repeat(np.arange(batch_rows), hp.samples)
    return labels, point_idx, eps1, eps2, z_hyp


def _maw_batch_update(model: MawModel, xb: np.ndarray, noise) -> tuple[float, float, float]:
    hp = model.hp
    labels, point_idx, eps1, eps2, z_hyp = noise
    x_rep = xb[point_idx]
    squared = hp.variant == "maw-mse"
    bce = hp.variant == "maw-kl"

    # reconstruction step: encoder, reduction matrix, decoder
    tape = Tape()
    z = _forward_generated(tape, model, xb, labels, point_idx, eps1, eps2)
    decoded = _decode(tape, model, z)
    l_vae = tape.mean_rowwise_norm_diff(decoded, tape.const(x_rep), squared=squared)
    grads = tape.backward(l_vae)
    model.optimizers["vae"].step(model.store, grads)

    # one forward of the updated generator serves the critic and generator
    # steps, as the critic step changes neither enc.* nor A; the encoder's
    # running statistics take the two steps that two forwards took.
    gen_tape = Tape()
    z = _forward_generated(gen_tape, model, xb, labels, point_idx, eps1, eps2, stat_steps=2)

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

    features is an (n, D) array (rows are unit-normalized on entry).  The run
    is fully determined by (features, hp, seed).  Trace entries are dicts with
    the per-epoch means of the three loss streams; for the plain-VAE variant
    the critic column carries the KL term and the generator column is zero.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeError("training data must be an (n >= 2, D) matrix")
    if not np.all(np.isfinite(x)):
        raise DomainError("training data must be finite")
    x = linalg.normalize_rows(x)

    rng = np.random.default_rng(seed)
    model = init_model(hp, x.shape[1], rng)
    update = _vae_batch_update if hp.variant == "vae" else _maw_batch_update

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


def _inlier_mode_factors(model: MawModel, y_rows: np.ndarray):
    """Per-point inlier-mode mean (n, d) and covariance factor (n, d, d) for
    scoring: _modes' mode 1 on plain arrays, or the single Gaussian ablation's
    only mode 2.  The plain VAE's factor is diag(sigma)."""
    hp = model.hp
    enc = nets.mlp_apply(model.store, "enc", model.specs["enc"], y_rows)
    if hp.variant == "vae":
        head = enc @ model.store.params["head.W"] + model.store.params["head.b"]
        return head[:, :hp.d], linalg.diag_blocks(np.exp(0.5 * head[:, hp.d:]))
    (mu,), (factors,) = _modes(ARRAY_OPS, model, enc,
                               (2 if hp.variant == "maw-single-gaussian" else 1,))
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
    t = model.hp.samples if samples is None else linalg.as_int(samples, "samples", DomainError)
    if t < 1:
        raise DomainError("need at least one scoring draw")
    k = 1 if model.hp.variant == "vae" else 2
    return y, (y.shape[0], k, t, model.hp.d)


def _score_rows(model: MawModel, y: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Scores of rows y (n, D), unit-normalized here, row j decoding the draws from noise[j]."""
    n, k, t, d = noise.shape
    y = linalg.normalize_rows(y)
    mu, factors = _inlier_mode_factors(model, y)
    z = mu[:, None, :] + np.einsum("lde,lte->ltd", factors, noise[:, 0])
    if k == 2:
        z = z + noise[:, 1]
    decoded = nets.mlp_apply(model.store, "dec", model.specs["dec"], z.reshape(n * t, d))
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
    bounded by the chunk, not n.
    """
    y, (n, k, t, d) = _prepare_rows(model, y_rows, samples)
    rng = np.random.default_rng(seed)
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
