import numpy as np
import pytest

from maw import linalg
from maw.autodiff import Tape
from maw.errors import DomainError, NotPSDError, NumericalError, ShapeError


def test_vector_validation():
    with pytest.raises(ShapeError):
        linalg.as_vector([])
    with pytest.raises(DomainError):
        linalg.as_vector([1.0, np.nan])
    with pytest.raises(ShapeError):
        linalg.as_vector(np.ones((2, 2)))


def _eig(m):
    """sym_eig_batch on one matrix: (eigenvalues, eigenvector columns)."""
    w, q = linalg.sym_eig_batch(np.asarray(m, dtype=np.float64)[None])
    return w[0], q[0]


def test_as_int_rule():
    for bad in (2.5, True, np.bool_(True), np.bool_(False), np.float32(1.5), np.nan, "3",
                np.str_("3"), np.timedelta64(3), np.datetime64(5, "ns"), None, np.array([3])):
        with pytest.raises(DomainError, match="width must be an int"):
            linalg.as_int(bad, "width", DomainError)
    for good, want in ((3, 3), (-2, -2), (4.0, 4), (np.int64(6), 6), (np.uint32(3), 3),
                       (np.float32(2.0), 2), (np.float64(5.0), 5)):
        value = linalg.as_int(good, "width", DomainError)
        assert value == want and type(value) is int


def test_as_float_rule():
    for bad in ("0.7", True, np.bool_(True), np.nan, np.inf, -np.inf, np.float32(np.inf),
                np.float32(np.nan), np.timedelta64(3), None, 10**400, [1.0]):
        with pytest.raises(DomainError, match="rate must be a finite number"):
            linalg.as_float(bad, "rate", DomainError)
    for good, want in ((0.7, 0.7), (3, 3.0), (np.float64(-2.5), -2.5), (np.float32(0.5), 0.5),
                       (np.int64(3), 3.0), (np.uint32(2), 2.0)):
        value = linalg.as_float(good, "rate", DomainError)
        assert value == want and type(value) is float


def test_as_seed_rule():
    for bad in (-1, 1.5, True, np.bool_(True), np.int64(-1), "1", None, np.nan, np.inf):
        with pytest.raises(DomainError, match="seed"):
            linalg.as_seed(bad, "seed", DomainError)
    for good, want in ((0, 0), (7, 7), (3.0, 3), (np.uint32(3), 3), (np.int64(2**40), 2**40)):
        value = linalg.as_seed(good, "seed", DomainError)
        assert value == want and type(value) is int


def test_sym_eig_diagonal():
    w, q = _eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(q), np.eye(2))


def test_sym_eig_hand_2x2():
    # [[2,1],[1,2]]: charpoly (2-l)^2 - 1 -> eigenvalues 3, 1
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, q = _eig(m)
    assert np.allclose(w, [3.0, 1.0], atol=1e-12)
    v = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(q[:, 0]), [v, v], atol=1e-12)
    assert np.allclose(np.abs(q[:, 1]), [v, v], atol=1e-12)
    assert np.allclose((q * w) @ q.T, m, atol=1e-12)


def test_sym_eig_tie_break_identity():
    w, q = _eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    # stable tie-break keeps the original index order -> Q = I exactly
    assert np.array_equal(q, np.eye(2))


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ShapeError):
        linalg.sym_eig_batch(np.eye(2))
    with pytest.raises(ShapeError):
        linalg.sym_eig_batch(np.ones((1, 2, 3)))


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for dim in range(1, 9):
        for _ in range(10):
            b = rng.uniform(-2.0, 2.0, size=(dim, dim))
            m = 0.5 * (b + b.T)
            w, q = _eig(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.linalg.norm(q.T @ q - np.eye(dim)) <= 1e-8
            err = np.linalg.norm((q * w) @ q.T - m)
            assert err <= 1e-8 * max(1.0, np.linalg.norm(m))
            # eigenvalue sum vs trace
            assert abs(np.sum(w) - np.trace(m)) <= 1e-9
            # independent cross-check against LAPACK
            assert np.allclose(np.sort(w), np.linalg.eigvalsh(m), atol=1e-9)


def test_sym_eig_larger_dim():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((64, 64))
    m = 0.5 * (b + b.T)
    w, q = _eig(m)
    assert np.linalg.norm((q * w) @ q.T - m) <= 1e-8 * np.linalg.norm(m)


def test_psd_sqrt_identity():
    assert np.allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_diagonal():
    assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_rejects_indefinite():
    # [[0,1],[1,0]] has eigenvalues +-1
    with pytest.raises(NotPSDError):
        linalg.psd_sqrt(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_psd_sqrt_squares_back_random():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 5, 8):
        for _ in range(5):
            b = rng.uniform(-2.0, 2.0, size=(dim, dim))
            m = b.T @ b
            r = linalg.psd_sqrt(m)
            assert linalg.is_symmetric(r)
            assert np.linalg.norm(r @ r - m) <= 1e-8 * max(1.0, np.linalg.norm(m))


def test_psd_sqrt_clamps_tiny_negative():
    m = np.diag([1.0, -5e-11])
    r = linalg.psd_sqrt(m)
    assert np.allclose(r, np.diag([1.0, 0.0]))


def test_psd_sqrt_on_a_stack_equals_per_matrix():
    rng = np.random.default_rng(9)
    b = rng.uniform(-2.0, 2.0, size=(2, 6, 3, 3))
    m = b @ np.swapaxes(b, -1, -2)
    m[0, 1] = np.diag([2.0, 1.0, 0.0])  # singular member
    roots = linalg.psd_sqrt(m)
    assert roots.shape == m.shape
    for index in np.ndindex(m.shape[:-2]):
        assert np.array_equal(roots[index], linalg.psd_sqrt(m[index]))


def test_psd_sqrt_kernel_matches_the_checked_entry():
    rng = np.random.default_rng(10)
    b = rng.standard_normal((5, 3, 3))
    m = b @ np.swapaxes(b, 1, 2)
    assert np.array_equal(linalg._psd_sqrt(m), linalg.psd_sqrt(m))
    m[2] = np.diag([1.0, 0.0, -1e-3])
    with pytest.raises(NotPSDError):  # the kernel still checks the spectrum it computes
        linalg._psd_sqrt(m)


def test_stacks_check_every_member():
    m = np.stack([np.eye(2), np.eye(2), np.eye(2)])
    m[1, 0, 1] = 0.5  # not symmetric
    with pytest.raises(DomainError):
        linalg.require_symmetric(m)
    with pytest.raises(DomainError):
        linalg.psd_sqrt(m)
    m[1] = [[0.0, 1.0], [1.0, 0.0]]  # symmetric, indefinite
    assert linalg.require_symmetric(m).shape == m.shape
    with pytest.raises(NotPSDError):
        linalg.psd_sqrt(m)
    m[1, 0, 0] = np.inf
    with pytest.raises(DomainError):
        linalg.require_symmetric(m)
    with pytest.raises(ShapeError):
        linalg.require_symmetric(np.ones((3, 2, 3)))


def test_sym_eig_batch_conventions():
    rng = np.random.default_rng(8)
    stacks = []
    for n in (1, 2, 4, 8):
        b = rng.uniform(-2.0, 2.0, size=(20, n, n))
        stacks.append(0.5 * (b + np.swapaxes(b, 1, 2)))
    # 2x2 edge cases: diagonal, reversed diagonal, identity multiple, zero,
    # rank-1, anti-diagonal, identity
    stacks.append(np.stack([
        np.diag([3.0, 1.0]), np.diag([1.0, 3.0]), 2.0 * np.eye(2),
        np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 1.0]),
    ]))
    for m3 in stacks:
        ws, qs = linalg.sym_eig_batch(m3)
        for m, w, q in zip(m3, ws, qs):
            # exact agreement keeps score_batch prefix-invariant
            ref_w, ref_q = _eig(m)
            assert np.array_equal(w, ref_w)
            assert np.array_equal(q, ref_q)
            assert np.all(np.diff(w) <= 0.0)
            lead = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
            assert np.all(lead > 0.0)
            assert np.allclose((q * w) @ q.T, m, atol=1e-12)
    assert np.array_equal(linalg.sym_eig_batch(np.eye(3)[None])[1][0], np.eye(3))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_spectral_truncate_matches_its_einsum(d):
    # the reconstruction is a batched matmul over the kept columns; it has the
    # bits of the product over all columns with the dropped ones masked to 0,
    # and the definition sums in one einsum
    rng = np.random.default_rng(d)
    m = rng.standard_normal((32, d, d))
    tied = np.diag(np.repeat([2.0, 1.0], d // 2))[None]
    for stack in (m + np.swapaxes(m, 1, 2), np.eye(d)[None], tied):
        out, w, q = linalg.spectral_truncate(stack)
        kept = w * linalg.truncation_mask(d)
        assert np.array_equal(out, (q * kept[:, None, :]) @ np.swapaxes(q, 1, 2))
        np.testing.assert_allclose(out, np.einsum("lik,lk,ljk->lij", q, kept, q),
                                   rtol=1e-12, atol=1e-12)


def test_sym_eig_batch_rejects_non_finite():
    m3 = np.stack([np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])
    with pytest.raises(NumericalError):
        linalg.sym_eig_batch(m3)
    with pytest.raises(NumericalError):
        linalg.sym_eig_batch(np.full((1, 3, 3), np.inf))
    with pytest.raises(ShapeError):
        linalg.sym_eig_batch(np.ones((2, 2, 3)))


def test_normalize_rows_keeps_ordinary_rows_bits():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-150, 150, (50, 1))
    x[3] = 0.0
    x[4, 0] = 1e-170  # its square underflows harmlessly: the row is still ordinary
    want = x / np.where(np.linalg.norm(x, axis=1, keepdims=True) > 0.0,
                        np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    assert np.array_equal(linalg.normalize_rows(x), want)
    for empty in (np.zeros((0, 3)), np.zeros((2, 0))):
        assert np.array_equal(linalg.normalize_rows(empty), empty)


def test_normalize_rows_plain_divide_has_the_masked_divides_bits():
    # both normalize_rows divide by the lengths with 1 for a zero row, which
    # took under half the time of a divide masked to the nonzero rows
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 6))
    x[1] *= 1e200
    x[2] *= 1e-200
    x[3, :3] = [1e200, -1e-200, 0.0]
    x[::7] = 0.0
    x32 = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-30, 30, (40, 1))
    x32 = x32.astype(np.float32)
    x32[::5] = 0.0
    for rows in (x, x32):
        scaled, length, _ = linalg.scaled_rows(rows)
        masked = np.divide(scaled, length, out=np.zeros_like(scaled), where=length > 0.0)
        for out in (linalg.normalize_rows(rows), Tape().normalize_rows(rows).value):
            assert out.dtype == rows.dtype and out.tobytes() == masked.tobytes()


def _scaled_row(row):
    """scaled_rows of one row, written out: the plain formula unless the row's sum
    of squares is not a normal float while its entries are finite and not all 0."""
    with np.errstate(over="ignore", under="ignore"):
        sq = np.add.reduce(row * row)
    peak = np.max(np.abs(row))
    if np.isfinite(peak) and peak > 0.0 and not np.finfo(row.dtype).tiny <= sq < np.inf:
        row = row / peak
        return row, np.sqrt(np.add.reduce(row * row)), peak
    return row, np.sqrt(sq), 1.0


def _scaled_rows_cases(dtype):
    """Named batches of rows of dtype: an entry whose square underflows in a
    normal sum, zero rows, rows of 10^(+-big), non-finite rows and plain rows."""
    big = 200 if dtype == np.float64 else 30
    rng = np.random.default_rng(8)
    plain = rng.standard_normal((3, 5))
    cases = {
        "entry underflows": [[10.0**-big, 3.0, -4.0, 0.0, 1.0]],
        "zero": np.zeros((2, 5)),
        "huge": plain * 10.0**big,
        "tiny": plain * 10.0**-big,
        "non-finite": [[np.nan, 1.0, 2.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0, 0.0],
                       [-np.inf, np.nan, 0.0, 0.0, 0.0]],
        "plain": plain,
    }
    cases = {name: np.asarray(rows, dtype=dtype) for name, rows in cases.items()}
    # every finite kind in one batch, and the non-finite rows beside plain ones
    cases["finite mix"] = np.vstack([cases[n] for n in ("entry underflows", "zero", "huge",
                                                        "tiny", "plain")])
    cases["non-finite mix"] = np.vstack([cases["non-finite"], cases["plain"]])
    return cases


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scaled_rows_bits_are_each_rows_own(dtype):
    for name, rows in _scaled_rows_cases(dtype).items():
        scaled, length, scale = linalg.scaled_rows(rows)
        assert scaled.dtype == length.dtype == dtype, name
        scale = np.broadcast_to(scale, length.shape)
        for i, row in enumerate(rows):
            want = _scaled_row(row)
            got = (scaled[i], length[i, 0], scale[i, 0])
            for w, g in zip(want, got):
                assert np.asarray(w, dtype).tobytes() == np.asarray(g, dtype).tobytes(), name


def test_normalize_rows_rescales_rows_that_overflow_or_underflow():
    # the plain sum of squares is inf at 1e200 and 0 at 1e-200: such rows used to be zeroed
    row = np.array([3.0, -4.0, 12.0, 0.5])
    ordinary = np.array([[0.25, 1.0, -2.0, 0.0], np.zeros(4)])
    x = np.vstack([row, row * 1e200, row * 1e-200, row * 1e-160, -row * 1e300, ordinary])
    out = linalg.normalize_rows(x)  # pytest turns any RuntimeWarning into an error
    for scaled in out[1:4]:
        np.testing.assert_allclose(scaled, out[0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(out[4], -out[0], rtol=0.0, atol=1e-15)
    assert np.array_equal(out[5:], linalg.normalize_rows(ordinary))
    assert np.array_equal(out[6], np.zeros(4))


def test_diag_kernels():
    rng = np.random.default_rng(1)
    a, s = rng.standard_normal((5, 3)), rng.standard_normal((4, 5))
    blocks = linalg.diag_blocks(s)
    assert blocks.shape == (4, 5, 5)
    for l in range(4):
        assert np.array_equal(blocks[l], np.diag(s[l]))
        np.testing.assert_allclose(linalg.diag_sandwich(a, s)[0][l], a.T @ np.diag(s[l]) @ a,
                                   rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("nblocks", [1, 32, 1024])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_diag_sandwich_matches_its_einsum(d, nblocks):
    # the kernel is one GEMM against A kron A; the definition sums in one einsum
    rng = np.random.default_rng(d * nblocks)
    a, s = rng.standard_normal((16, d)), rng.standard_normal((nblocks, 16))
    blocks, aa = linalg.diag_sandwich(a, s)
    assert aa.shape == (16, d * d)
    np.testing.assert_allclose(blocks, np.einsum("pk,lp,pq->lkq", a, s, a),
                               rtol=1e-12, atol=1e-12)
