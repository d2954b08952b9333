import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maw import evaluation as E
from maw import linalg
from maw import model as M
from maw.errors import DataError, DomainError, MetricError


# ------------------------------------------------------------ synthetic data


def test_synthetic_sample_counts_and_labels():
    ds = E.SyntheticFamily(6, 2, noise=0.1, seed=0).sample(100, 20, sample_seed=0)
    assert ds.features.shape == (120, 6)
    assert ds.n_outliers == 20
    assert np.all(ds.labels[:100] == 0)
    assert np.all(ds.labels[100:] == 1)
    assert np.allclose(np.linalg.norm(ds.features, axis=1), 1.0)


def test_synthetic_sample_rank_one_no_noise():
    ds = E.SyntheticFamily(5, 1, noise=0.0, seed=1).sample(50, 0, sample_seed=0)
    q = ds.features[0]
    dots = np.abs(ds.features @ q)
    assert np.allclose(dots, 1.0, atol=1e-9)  # all rows are +-q


def test_synthetic_sample_deterministic():
    a = E.SyntheticFamily(6, 2, noise=0.05, seed=3).sample(40, 10, sample_seed=0)
    b = E.SyntheticFamily(6, 2, noise=0.05, seed=3).sample(40, 10, sample_seed=0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_family_shares_frame_across_splits():
    family = E.SyntheticFamily(8, 1, noise=0.0, seed=5)
    train = family.sample(20, 0, sample_seed=0)
    test = family.sample(20, 0, sample_seed=1)
    # same rank-1 frame: every train row is colinear with every test row
    dots = np.abs(train.features @ test.features.T)
    assert np.allclose(dots, 1.0, atol=1e-9)
    assert not np.array_equal(train.features, test.features)


def test_family_takes_numpy_scalars_as_python_numbers():
    plain = E.SyntheticFamily(6, 2, noise=0.25, seed=4).sample(5, 1, sample_seed=3)
    family = E.SyntheticFamily(np.int64(6), np.int64(2), noise=np.float32(0.25), seed=np.uint32(4))
    split = family.sample(np.int64(5), np.int64(1), np.uint32(3))
    assert np.array_equal(split.features, plain.features)
    assert np.array_equal(split.labels, plain.labels)
    with pytest.raises(DomainError, match="rank"):
        E.SyntheticFamily(6, np.bool_(True))


def test_synthetic_family_rejects_bad_rank():
    with pytest.raises(DomainError):
        E.SyntheticFamily(4, 4, noise=0.1, seed=0)


@pytest.mark.parametrize("size", [linalg.SIZE_MAX + 1, 10**26])
def test_family_and_split_sizes_are_bounded(size):
    # checked before anything is allocated
    for key, make in (("dim", lambda v: E.SyntheticFamily(v, 2)),
                      ("rank", lambda v: E.SyntheticFamily(6, v)),
                      ("n_train", lambda v: E.SplitSpec(n_train=v, c=0.25, n_test=12)),
                      ("n_test", lambda v: E.SplitSpec(n_train=24, c=0.25, n_test=v))):
        with pytest.raises(DomainError, match=f"{key} must be at most 2147483647"):
            make(size)
    split = E.SplitSpec(n_train=linalg.SIZE_MAX, c=0.25, n_test=linalg.SIZE_MAX)
    assert split.n_train == split.n_test == linalg.SIZE_MAX



def test_synthetic_family_bounds_dim_times_rank():
    # each is within linalg.SIZE_MAX, the frame they size is not
    for dim, rank in ((linalg.SIZE_MAX, linalg.SIZE_MAX - 1), (linalg.SIZE_MAX, 4194304),
                      (65536, 32768)):
        with pytest.raises(DomainError, match="dim x rank must be at most 2147483647"):
            E.SyntheticFamily(dim, rank)
    assert E.SyntheticFamily(8, 2).frame.shape == (8, 2)


BAD_SAMPLE_ARGS = [  # (n_inliers, n_outliers, sample_seed), one bad value each
    (-1, 2, 0), (4, -2, 0), (2.5, 2, 0), (4, "2", 0), (True, 2, 0), (4, 2, -3), (4, 2, 1.5),
    (4, 2, True),
]


@pytest.mark.parametrize("args", BAD_SAMPLE_ARGS)
def test_sample_checks_its_arguments(args):
    for family in (E.SyntheticFamily(6, 2, seed=0), E.PoolFamily(_pool(), seed=0)):
        with pytest.raises(DomainError, match="n_inliers|n_outliers|sample"):
            family.sample(*args)


# ------------------------------------------------------------ pooled splits


def _pool(n_in=12, n_out=5):
    # row i is the i-th unit vector scaled, so a split's rows name their pool rows
    features = np.eye(n_in + n_out)
    labels = np.r_[np.zeros(n_in, int), np.ones(n_out, int)]
    return E.Dataset(features, labels, provenance="pool.csv")


def _pool_rows(split):
    return np.argmax(split.features, axis=1)


def test_pool_family_split_sizes_and_labels():
    pool = _pool()
    split = E.PoolFamily(pool, seed=1).sample(7, 3, sample_seed=0)
    assert split.features.shape == (10, pool.features.shape[1])
    assert np.array_equal(split.labels, [0] * 7 + [1] * 3)
    rows = _pool_rows(split)
    assert np.array_equal(pool.labels[rows], split.labels)
    assert len(set(rows)) == len(rows)  # drawn without replacement
    assert split.provenance == "pool.csv"
    whole = E.PoolFamily(pool, seed=1).sample(12, 5, sample_seed=0)
    assert sorted(_pool_rows(whole)) == list(range(17))


def test_pool_family_is_seeded():
    family = E.PoolFamily(_pool(), seed=1)
    first = _pool_rows(family.sample(6, 2, sample_seed=0))
    assert np.array_equal(first, _pool_rows(E.PoolFamily(_pool(), seed=1).sample(6, 2, 0)))
    assert not np.array_equal(first, _pool_rows(family.sample(6, 2, sample_seed=1)))
    assert not np.array_equal(first, _pool_rows(E.PoolFamily(_pool(), seed=2).sample(6, 2, 0)))


@pytest.mark.parametrize("seed", ["7", True, 1.5, -1])
def test_pool_family_checks_its_seed(seed):
    with pytest.raises(DomainError, match="seed must be"):
        E.PoolFamily(_pool(), seed=seed)


def test_pool_family_rejects_oversized_requests():
    family = E.PoolFamily(_pool(), seed=0)
    for n_in, n_out in ((13, 0), (0, 6), (13, 6)):
        with pytest.raises(DataError, match="pool has 12 inliers / 5 outliers"):
            family.sample(n_in, n_out, sample_seed=0)


# ------------------------------------------------------------ CSV ingestion


def test_load_csv_normalizes(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f1,f2,label\n3,4,0\n")
    ds = E.load_csv(p)
    assert np.allclose(ds.features, [[0.6, 0.8]])
    assert ds.labels.tolist() == [0]
    assert ds.provenance == "csv"


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f1,f2\n1,0\n0,2\n")
    ds = E.load_csv(p)
    assert ds.labels.tolist() == [0, 0]


def test_load_csv_parse_error_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f1\nabc\n")
    with pytest.raises(DataError, match="row 1"):
        E.load_csv(p)


def test_load_csv_empty_and_missing(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError):
        E.load_csv(p)
    with pytest.raises(DataError):
        E.load_csv(tmp_path / "nope.csv")


def test_load_csv_skips_comment_lines(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('# config {"seed": 1}\nf1,f2,label\n1,0,1\n')
    ds = E.load_csv(p)
    assert ds.labels.tolist() == [1]


# ------------------------------------------------------------ metrics


def test_auc_examples():
    assert E.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert E.auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert E.auc([0.5, 0.5], [1, 0]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(MetricError):
        E.auc([0.1, 0.2], [1, 1])


def test_ap_examples():
    assert E.ap([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    # ranking (1, 0, 1, 0): (1/1 + 2/3) / 2
    assert E.ap([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5.0 / 6.0)
    assert E.ap([0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]) == pytest.approx(0.25)
    with pytest.raises(MetricError):
        E.ap([0.5, 0.6], [0, 0])


# tie-heavy scored sets: small integer scores, both classes present
scored_sets = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 1)), min_size=2, max_size=60
).filter(lambda rows: len({label for _, label in rows}) == 2)
hypothesis_settings = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _unzip(rows):
    return np.array([r[0] for r in rows], dtype=np.float64), np.array([r[1] for r in rows])


@hypothesis_settings
@given(scored_sets, st.integers(1, 5), st.integers(-3, 3))
def test_auc_monotone_transform_invariance(rows, slope, shift):
    # each map is strictly increasing and exact on these scores, ties included
    s, labels = _unzip(rows)
    base = E.auc(s, labels)
    assert E.auc(slope * s + shift, labels) == base
    assert E.auc(np.exp(s), labels) == base
    assert E.auc(np.unique(s, return_inverse=True)[1], labels) == base


@hypothesis_settings
@given(scored_sets)
def test_auc_complement_with_ties(rows):
    s, labels = _unzip(rows)
    assert E.auc(-s, labels) == pytest.approx(1.0 - E.auc(s, labels), abs=1e-15)


def test_auc_complement_without_ties():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(60)
    labels = np.concatenate([np.ones(20, int), np.zeros(40, int)])
    assert E.auc(s, labels) + E.auc(-s, labels) == pytest.approx(1.0)


def test_ap_is_one_iff_perfect_ranking():
    rng = np.random.default_rng(2)
    for _ in range(20):
        labels = rng.integers(0, 2, size=12)
        if labels.sum() in (0, 12):
            continue
        scores = rng.standard_normal(12)
        perfect = bool(np.min(scores[labels == 1]) > np.max(scores[labels == 0]))
        assert (E.ap(scores, labels) == 1.0) == perfect


def _brute_force_roc_auc(scores, labels):
    # explicit all-thresholds ROC with trapezoidal area, in exact rationals
    from fractions import Fraction

    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    thresholds = np.concatenate([[np.inf], np.sort(np.unique(scores))[::-1]])
    pos, neg = int(labels.sum()), int((1 - labels).sum())
    points = []
    for th in thresholds:
        pred = scores >= th
        tpr = Fraction(int(np.sum(pred & (labels == 1))), pos)
        fpr = Fraction(int(np.sum(pred & (labels == 0))), neg)
        points.append((fpr, tpr))
    area = Fraction(0)
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2
    return float(area)


def _brute_force_pr_ap(scores, labels):
    # step-wise AP from the explicit precision/recall sequence
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    pos = ranked.sum()
    tp = 0
    total = 0.0
    for k, lab in enumerate(ranked, start=1):
        if lab == 1:
            tp += 1
            total += tp / k
    return total / pos


def test_metrics_match_brute_force_constructions():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(5, 40))
        scores = rng.standard_normal(n)  # continuous, ties a.s. absent
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert E.auc(scores, labels) == pytest.approx(_brute_force_roc_auc(scores, labels), abs=1e-12)
        assert E.ap(scores, labels) == pytest.approx(_brute_force_pr_ap(scores, labels), abs=1e-12)


def test_metric_row_permutation_invariance():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal(30)
    labels = rng.integers(0, 2, size=30)
    labels[0] = 1
    labels[1] = 0
    perm = rng.permutation(30)
    assert E.auc(scores, labels) == pytest.approx(E.auc(scores[perm], labels[perm]))
    # AP's stable tie-break only matters with ties; continuous scores permute freely
    assert E.ap(scores, labels) == pytest.approx(E.ap(scores[perm], labels[perm]))


# ------------------------------------------------------------ experiment driver


def _tiny_hp():
    return M.Hyperparams(
        d=2, dprime=4, samples=2, epochs=2, batch_size=16,
        encoder_widths=(8, 8), decoder_widths=(8, 8), critic_widths=(8, 8),
        lr_vae=1e-3, lr_critic=1e-3,
    )


def test_run_experiment_single_cell():
    family = E.SyntheticFamily(6, 1, noise=0.1, seed=0)
    split = E.SplitSpec(n_train=24, c=0.25, n_test=16, c_tests=(0.5,), seed=0)
    rep = E.run_experiment(family, split, [0], _tiny_hp())
    assert rep.variant == "maw" and rep.c == 0.25
    assert rep.auc_std == 0.0 and rep.ap_std == 0.0
    assert 0.0 <= rep.auc_mean <= 1.0
    assert len(rep.per_seed) == 1


def test_run_experiment_std_is_population_std():
    family = E.SyntheticFamily(6, 1, noise=0.1, seed=1)
    split = E.SplitSpec(n_train=24, c=0.25, n_test=16, c_tests=(0.5,), seed=0)
    rep = E.run_experiment(family, split, [0, 1, 2], _tiny_hp())
    vals = np.array([e["auc"] for e in rep.per_seed])
    assert rep.auc_mean == pytest.approx(vals.mean())
    assert rep.auc_std == pytest.approx(vals.std())  # ddof=0


def test_run_experiment_deterministic():
    family = E.SyntheticFamily(6, 1, noise=0.1, seed=3)
    split = E.SplitSpec(n_train=20, c=0.2, n_test=12, c_tests=(0.3,), seed=0)
    r1 = E.run_experiment(family, split, [0], _tiny_hp())
    r2 = E.run_experiment(family, split, [0], _tiny_hp())
    assert r1.to_dict() == r2.to_dict()
