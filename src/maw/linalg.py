"""Dense double-precision linear algebra kernels.

Vectors are 1-d float64 arrays, matrices are 2-d float64 arrays (row major)
and stacks of matrices are (..., n, n) arrays.
The symmetric eigensolver is one batched LAPACK call (np.linalg.eigh) with a
fixed order and sign convention; everything downstream (PSD square roots,
spectral truncation and its gradient, closed-form Gaussian distances) is built
on top of it.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError, NotPSDError, NumericalError, ShapeError

SYM_REL_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
TINY = np.finfo(np.float64).tiny  # the smallest normal float


def as_vector(x) -> np.ndarray:
    """Validate and convert to a nonempty finite 1-d float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def as_int(value, what: str, error: type) -> int:
    """An int or integral float as an int; a bool, fraction or other type raises error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an int, got {value!r}")
    return value


def as_float(value, what: str, error: type) -> float:
    """A finite int or float as a float; a bool, other type, nan or inf raises error."""
    # the bound also rejects nan and ints too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)


def as_seed(value, what: str, error: type) -> int:
    """A random seed: a non-negative int as as_int takes it; anything else raises error."""
    seed = as_int(value, what, error)
    if seed < 0:
        raise error(f"{what} must be a non-negative int, got {seed}")
    return seed


def is_symmetric(m: np.ndarray) -> bool:
    """Entrywise check |M[i,j] - M[j,i]| <= 1e-12 * max(1, |M[i,j]|), over every
    matrix of a (..., n, n) stack."""
    if m.shape[-1] != m.shape[-2]:
        return False
    diff = np.abs(m - np.swapaxes(m, -1, -2))
    tol = SYM_REL_TOL * np.maximum(1.0, np.abs(m))
    return bool(np.all(diff <= tol))


def require_symmetric(m) -> np.ndarray:
    """Validate a finite symmetric float64 matrix, or a (..., n, n) stack of them."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.size == 0:
        raise ShapeError(f"expected a nonempty matrix, got shape {m.shape}")
    if m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    if not is_symmetric(m):
        raise DomainError("matrix is not symmetric within tolerance")
    return m


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row of x to unit L2 norm; zero rows stay zero.

    A nonzero row whose sum of squares overflows or falls below the smallest
    normal float (entries beyond about 1e+-154) is first divided by its
    largest |entry|; every other row keeps the plain formula's bits.
    """
    try:  # the floating-point flags are a cheaper test than scanning the sums
        with np.errstate(over="raise", under="raise"):
            sq = np.add.reduce(x * x, axis=-1, keepdims=True)  # np.linalg.norm's arithmetic
    except FloatingPointError:
        with np.errstate(over="ignore"):
            sq = np.add.reduce(x * x, axis=-1, keepdims=True)
        peak = np.max(np.abs(x), axis=-1, keepdims=True)
        x = x / np.where(((sq >= TINY) & (sq < np.inf)) | (peak == 0.0), 1.0, peak)
        sq = np.add.reduce(x * x, axis=-1, keepdims=True)
    norms = np.sqrt(sq)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)


def diag_blocks(rows: np.ndarray) -> np.ndarray:
    """Each row of an (L, d) array as the diagonal of a d x d block: (L, d, d)."""
    idx = np.arange(rows.shape[1])
    out = np.zeros((rows.shape[0], idx.size, idx.size))
    out[:, idx, idx] = rows
    return out


def diag_sandwich(a: np.ndarray, s_rows: np.ndarray) -> np.ndarray:
    """Blocks A^T diag(s_l) A for each row s_l of s_rows (L, p), with A (p, d): (L, d, d)."""
    return np.einsum("pk,lp,pq->lkq", a, s_rows, a)


def sym_eig_batch(m3) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a stack of symmetric matrices with one LAPACK call.

    m3 is (L, n, n); only its lower triangle is read.  Returns (w (L, n),
    q (L, n, n)): each row of w is sorted descending (ties keep LAPACK's
    order, so the identity gives q = I), and the columns of q[l] are the
    matching orthonormal eigenvectors, each with its largest-magnitude entry
    (the first one on ties) made positive, so the factorization is unique up
    to repeated eigenvalues.  Non-finite input and LAPACK failures raise
    NumericalError.
    """
    m3 = np.asarray(m3, dtype=np.float64)
    if m3.ndim != 3 or m3.shape[1] != m3.shape[2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {m3.shape}")
    if not np.isfinite(m3).all():
        raise NumericalError("eigensolver input has non-finite entries")
    try:
        w, q = np.linalg.eigh(m3)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    rows = np.arange(m3.shape[0])[:, None]
    cols = np.arange(m3.shape[1])
    order = np.argsort(-w, axis=1, kind="stable")
    w = w[rows, order]
    # qt[l, j] is eigenvector j of block l, as a row
    qt = np.swapaxes(q, 1, 2)[rows, order]
    lead = qt[rows, cols, np.argmax(np.abs(qt), axis=2)]
    qt *= np.copysign(1.0, lead)[:, :, None]
    return w, np.swapaxes(qt, 1, 2)


def truncation_mask(n: int) -> np.ndarray:
    """Keep the n/2 largest (by signed value) of n descending eigenvalues."""
    keep = n // 2
    return np.concatenate([np.ones(keep), np.zeros(n - keep)])


def spectral_truncate(m3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-n/2 truncation q diag(w * truncation_mask(n)) q^T of each block of
    an (L, n, n) symmetric stack; returns (truncated stack, w, q) with w and q
    from sym_eig_batch."""
    w, q = sym_eig_batch(m3)
    return np.einsum("lik,lk,ljk->lij", q, w * truncation_mask(w.shape[1]), q), w, q


def psd_sqrt(m) -> np.ndarray:
    """Symmetric PSD square root of a matrix or of each matrix of a (..., n, n)
    stack, from one sym_eig_batch call.

    Eigenvalues in [-1e-10, 0) are treated as round-off and clamped to zero;
    anything below that, in any matrix, raises NotPSDError.
    """
    m = require_symmetric(m)
    n = m.shape[-1]
    return _psd_sqrt(m.reshape(-1, n, n)).reshape(m.shape)


def _psd_sqrt(m3: np.ndarray) -> np.ndarray:
    """psd_sqrt's kernel for an (L, n, n) float64 stack whose symmetry the
    caller has checked; only the spectrum's floor is checked here."""
    w, q = sym_eig_batch(m3)
    low = float(np.min(w[:, -1]))
    if low < PSD_EIG_FLOOR:
        raise NotPSDError(f"matrix has eigenvalue {low:.3e} < {PSD_EIG_FLOOR}")
    root = (q * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (root + np.swapaxes(root, 1, 2))
