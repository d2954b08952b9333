"""Datasets, contaminated splits, threshold-free metrics, one-cell experiment driver.

Synthetic data puts inliers on a low-dimensional linear structure plus noise
and outliers on the isotropic sphere; every ingested feature row is unit-L2
normalized.  AUC uses the rank (Mann-Whitney) form with half credit for ties;
AP is the step-wise precision sum with stable index tie-breaks.  The detector
emits normality scores, so the driver negates them before computing metrics
(outliers count as positives).  The driver, run_experiment, trains and scores
one cell, a Hyperparams whose variant names the variant and a SplitSpec, over
seeds; the CLI's eval and sweep run lists of such cells.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg
from . import model as model_mod
from .errors import DataError, DomainError, MetricError, ShapeError


@dataclass
class Dataset:
    features: np.ndarray  # (n, D), rows unit-normalized
    labels: np.ndarray  # 0 = inlier, 1 = outlier
    provenance: str = "synthetic"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError("features and labels are inconsistent")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise DomainError("labels must be 0 (inlier) or 1 (outlier)")

    @property
    def n_outliers(self) -> int:
        return int(self.labels.sum())


class SyntheticFamily:
    """A fixed low-rank inlier structure that can emit train/test splits.

    Inliers are x = Q s + sigma e with a fixed orthonormal frame Q (D x r) and
    s ~ N(0, I_r); outliers are isotropic Gaussians scaled to a comparable
    norm.  All rows are unit-normalized.  The frame is derived from the family
    seed so train and test splits share the same structure.  dim and rank are
    ints of at most linalg.SIZE_MAX and seed a non-negative int (an integral
    float counts, a bool does not), noise a finite number, and sample's counts
    and sample_seed non-negative ints; anything else raises DomainError.
    """

    def __init__(self, dim: int, rank: int, noise: float = 0.1, seed: int = 0):
        dim = linalg.as_size(dim, "dim", DomainError)
        rank = linalg.as_size(rank, "rank", DomainError)
        noise = linalg.as_float(noise, "noise", DomainError)
        if not 1 <= rank < dim:
            raise DomainError("need 1 <= rank < dim")
        if noise < 0.0:
            raise DomainError("noise level must be nonnegative")
        self.dim = dim
        self.rank = rank
        self.noise = noise
        self.seed = linalg.as_seed(seed, "seed", DomainError)
        frame_rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xF8A)))
        basis = frame_rng.standard_normal((dim, rank))
        q, _ = np.linalg.qr(basis)
        self.frame = q[:, :rank]

    def sample(self, n_inliers: int, n_outliers: int, sample_seed: int) -> Dataset:
        n_inliers, n_outliers, sample_seed = _sample_args(n_inliers, n_outliers, sample_seed)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5A7, sample_seed)))
        coords = rng.standard_normal((n_inliers, self.rank))
        inliers = coords @ self.frame.T
        inliers += self.noise * rng.standard_normal((n_inliers, self.dim))
        scale = np.sqrt((self.rank + self.noise**2 * self.dim) / self.dim)
        outliers = scale * rng.standard_normal((n_outliers, self.dim))
        features = linalg.normalize_rows(np.vstack([inliers, outliers]))
        labels = np.concatenate([np.zeros(n_inliers, int), np.ones(n_outliers, int)])
        return Dataset(features, labels, provenance="synthetic")


def _sample_args(n_inliers, n_outliers, sample_seed) -> list[int]:
    """A family's sample arguments as non-negative ints (linalg.as_int), else DomainError."""
    args = [linalg.as_int(v, what, DomainError) for v, what in zip(
        (n_inliers, n_outliers, sample_seed), ("n_inliers", "n_outliers", "sample_seed"))]
    if min(args) < 0:
        raise DomainError(f"sample's counts and seed must be >= 0, got {args}")
    return args


class PoolFamily:
    """Contaminated splits drawn without replacement from a labeled pool.

    Mirrors the sampling protocol on a fixed dataset: each split takes a fresh
    uniform subsample of inliers and of outliers.  seed and sample's arguments
    are checked as SyntheticFamily's are.
    """

    def __init__(self, dataset: Dataset, seed: int = 0):
        self.dataset = dataset
        self.seed = linalg.as_seed(seed, "seed", DomainError)
        self._inliers = np.flatnonzero(dataset.labels == 0)
        self._outliers = np.flatnonzero(dataset.labels == 1)

    def sample(self, n_inliers: int, n_outliers: int, sample_seed: int) -> Dataset:
        n_inliers, n_outliers, sample_seed = _sample_args(n_inliers, n_outliers, sample_seed)
        if n_inliers > len(self._inliers) or n_outliers > len(self._outliers):
            raise DataError(
                f"pool has {len(self._inliers)} inliers / {len(self._outliers)} outliers; "
                f"requested {n_inliers} / {n_outliers}"
            )
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x9001, sample_seed)))
        pick_in = rng.choice(self._inliers, size=n_inliers, replace=False)
        pick_out = rng.choice(self._outliers, size=n_outliers, replace=False)
        idx = np.concatenate([pick_in, pick_out])
        return Dataset(
            self.dataset.features[idx], self.dataset.labels[idx],
            provenance=self.dataset.provenance,
        )


def load_csv(path) -> Dataset:
    """Read a headed CSV of numeric feature columns plus an optional `label`.

    Rows are unit-normalized; a missing label column means all inliers.
    Comment lines starting with '#' are skipped.  Malformed or non-finite
    (nan, inf) cells raise DataError with their (1-based) row and column, and
    a missing or unreadable file (a directory, say) raises DataError naming it.
    """
    try:
        with open(path, newline="") as fh:
            content = [line for line in fh if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:  # OSError's text names the path
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not content:
        raise DataError(f"empty file: {path}")
    reader = csv.reader(io.StringIO("".join(content)))
    header = next(reader)
    header = [h.strip() for h in header]
    if len(header) == 0 or any(not h for h in header):
        raise DataError("malformed header row")
    label_col = header.index("label") if "label" in header else None
    feat_cols = [i for i in range(len(header)) if i != label_col]
    if not feat_cols:
        raise DataError("no feature columns")
    rows, labels = [], []
    for r, rec in enumerate(reader, start=1):
        if len(rec) != len(header):
            raise DataError(f"row {r}: expected {len(header)} cells, got {len(rec)}")
        bad = next((i for i in feat_cols if not _is_finite_number(rec[i])), None)
        if bad is not None:
            raise DataError(
                f"row {r}, column {header[bad]!r}: expected a finite number, got {rec[bad]!r}"
            )
        rows.append([float(rec[i]) for i in feat_cols])
        if label_col is None:
            labels.append(0)
        else:
            cell = rec[label_col].strip()
            if cell not in ("0", "1"):
                raise DataError(f"row {r}, column 'label': expected 0 or 1, got {cell!r}")
            labels.append(int(cell))
    if not rows:
        raise DataError(f"no data rows in {path}")
    features = linalg.normalize_rows(np.asarray(rows, dtype=np.float64))
    return Dataset(features, np.asarray(labels), provenance="csv")


def _is_finite_number(cell: str) -> bool:
    try:
        return bool(np.isfinite(float(cell)))
    except ValueError:
        return False


# --------------------------------------------------------------------- metrics


def auc(scores, labels) -> float:
    """Area under the ROC over all thresholds, outliers (label 1) positive.

    Mann-Whitney form with half credit for ties, (#(pos > neg) + #(pos == neg)
    / 2) / (#pos * #neg), from the positives' rank sum with average ranks for
    ties.  Twice the count is an exact integer, so only the division rounds.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError("scores and labels must be matching vectors")
    npos, nneg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    if npos == 0 or nneg == 0:
        raise MetricError("AUC is undefined with a single class")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # a tie group holds 1-based ranks last - count + 1 .. last
    twice_rank = (2 * last - counts + 1)[group]
    return (int(twice_rank[labels == 1].sum()) - npos * (npos + 1)) / (2 * npos * nneg)


def ap(scores, labels) -> float:
    """Average precision: mean precision at each positive's rank.

    Scores sort descending with ties broken by the stable original index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError("scores and labels must be matching vectors")
    if not np.any(labels == 1):
        raise MetricError("AP is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_tp = np.cumsum(ranked)
    precision = cum_tp / np.arange(1, len(ranked) + 1)
    return float(precision[ranked == 1].mean())


# --------------------------------------------------------------------- protocol


@dataclass(frozen=True)
class SplitSpec:
    """Contaminated train/test split sizes and ratios for one experiment cell.

    n_train and n_test are ints of at most linalg.SIZE_MAX (an integral float
    counts, a bool does not), c a finite number and c_tests a nonempty list or
    tuple of them; anything else raises DomainError.
    """

    n_train: int
    c: float
    n_test: int
    c_tests: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    seed: int = 0

    def __post_init__(self):
        for key in ("n_train", "n_test"):
            object.__setattr__(self, key, linalg.as_size(getattr(self, key), key, DomainError))
        object.__setattr__(self, "c", linalg.as_float(self.c, "c", DomainError))
        if not isinstance(self.c_tests, (list, tuple)) or not self.c_tests:
            raise DomainError(f"c_tests must be a nonempty list, got {self.c_tests!r}")
        object.__setattr__(self, "c_tests", tuple(
            linalg.as_float(c, "c_tests entry", DomainError) for c in self.c_tests
        ))
        if self.n_train < 2 or self.n_test < 1:
            raise DomainError("split sizes too small")
        if not 0.0 <= self.c <= 1.0 or any(not 0.0 <= c <= 1.0 for c in self.c_tests):
            raise DomainError("contamination ratios must lie in [0, 1]")

    @property
    def n_train_outliers(self) -> int:
        return int(round(self.n_train * self.c))

    def n_test_outliers(self, c_test: float) -> int:
        return int(round(self.n_test * c_test))


@dataclass
class MetricReport:
    """Mean +- population std of AUC/AP over seeds for one (variant, c) cell."""

    variant: str
    c: float
    auc_mean: float
    auc_std: float
    ap_mean: float
    ap_std: float
    per_seed: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def draw_train(family, split: SplitSpec, seed: int) -> Dataset:
    """The contaminated train split of one seed."""
    sample_seed = np.random.SeedSequence((split.seed, seed, 0x7E5)).generate_state(1)[0]
    return family.sample(split.n_train, split.n_train_outliers, sample_seed=sample_seed)


def draw_test(family, split: SplitSpec, seed: int, j: int) -> Dataset:
    """Test split j of one seed, contaminated at split.c_tests[j]."""
    sample_seed = np.random.SeedSequence((split.seed, seed, 0x7E57, j)).generate_state(1)[0]
    return family.sample(split.n_test, split.n_test_outliers(split.c_tests[j]),
                         sample_seed=sample_seed)


def evaluate_split(model, family: "SyntheticFamily | PoolFamily", split: SplitSpec, seed: int):
    """Score the test splits of one trained model; returns mean AUC/AP over c_test."""
    aucs, aps = [], []
    for j in range(len(split.c_tests)):
        test = draw_test(family, split, seed, j)
        normality = model_mod.score_batch(model, test.features, seed=_score_seed(split.seed, seed, j))
        outlierness = -normality
        aucs.append(auc(outlierness, test.labels))
        aps.append(ap(outlierness, test.labels))
    return float(np.mean(aucs)), float(np.mean(aps))


def _score_seed(split_seed: int, seed: int, j: int) -> int:
    return int(np.random.SeedSequence((split_seed, seed, 0x5C0, j)).generate_state(1)[0])


def run_experiment(family: "SyntheticFamily | PoolFamily", split: SplitSpec, seeds,
                   hp: "model_mod.Hyperparams") -> MetricReport:
    """Train and evaluate one cell, the variant hp.variant on split, over the seeds.

    Per seed: train on the contaminated train split, score every test split and
    average AUC/AP over c_test; the report holds the across-seed mean and
    population standard deviation.  Fully deterministic given the seeds.
    """
    entries = []
    for seed in seeds:
        train_set = draw_train(family, split, seed)
        model, _ = model_mod.train(train_set.features, hp, seed=seed)
        auc_val, ap_val = evaluate_split(model, family, split, seed)
        entries.append({"seed": seed, "auc": auc_val, "ap": ap_val})
    aucs = np.array([e["auc"] for e in entries])
    aps = np.array([e["ap"] for e in entries])
    return MetricReport(
        variant=hp.variant, c=split.c,
        auc_mean=float(aucs.mean()), auc_std=float(aucs.std()),
        ap_mean=float(aps.mean()), ap_std=float(aps.std()),
        per_seed=entries,
    )
