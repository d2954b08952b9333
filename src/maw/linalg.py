"""Dense linear algebra kernels: float64 vectors (1-d), matrices (2-d, row
major) and stacks of matrices (..., n, n), except that the row and block
kernels keep their input's dtype (float32 in training).
The symmetric eigensolver, sym_eig_batch, is the one batched LAPACK call
(np.linalg.eigh) with a fixed order; everything downstream (PSD square roots,
spectral truncation and its gradient, closed-form Gaussian distances) is built
on top of it, reading its eigenvectors in forms where their signs cancel.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError, NotPSDError, NumericalError, ShapeError

SYM_REL_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
SIZE_MAX = 2**31 - 1  # the largest count or width a config or checkpoint may give


def as_vector(x) -> np.ndarray:
    """Validate and convert to a nonempty finite 1-d float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def _python_scalar(value):
    """The Python number a numpy scalar holds (np.bool_ gives a bool); numpy's
    times, whose item() can be an int, and every other value come back as is."""
    if isinstance(value, np.generic) and not isinstance(value, (np.datetime64, np.timedelta64)):
        return value.item()
    return value


def as_int(value, what: str, error: type) -> int:
    """An int or integral float, Python's or numpy's, as an int; a bool (numpy's
    too), fraction or other type raises error."""
    value = _python_scalar(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an int, got {value!r}")
    return value


def as_float(value, what: str, error: type) -> float:
    """A finite int or float, Python's or numpy's, as a float; a bool (numpy's
    too), other type, nan or inf raises error."""
    value = _python_scalar(value)  # numpy would cast the bound below to the scalar's dtype
    # the bound also rejects nan and ints too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)


def as_size(value, what: str, error: type) -> int:
    """A count or width: an int as as_int takes it, at most SIZE_MAX; a larger
    one raises error here rather than numpy's own ValueError where it sizes an
    array."""
    size = as_int(value, what, error)
    if size > SIZE_MAX:
        raise error(f"{what} must be at most {SIZE_MAX}, got {size}")
    return size


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


def scaled_rows(x: np.ndarray):
    """(x / s, the row lengths of x / s, s), per row with s of shape (..., 1).

    s is 1 except for a nonzero, finite row whose sum of squares overflows or
    falls below the smallest normal float of x's dtype (float64 entries beyond
    about 1e+-154), where it is the row's largest |entry|; it is 1.0 when no row
    needs it.
    A row with s = 1 gets the plain formula's bits.
    """
    try:  # the floating-point flags are a cheaper test than scanning the sums
        with np.errstate(over="raise", under="raise"):
            sq = np.add.reduce(x * x, axis=-1, keepdims=True)  # np.linalg.norm's arithmetic
        scale = 1.0
    except FloatingPointError:
        with np.errstate(over="ignore"):
            sq = np.add.reduce(x * x, axis=-1, keepdims=True)
        peak = np.max(np.abs(x), axis=-1, keepdims=True)
        normal = (sq >= np.finfo(sq.dtype).tiny) & (sq < np.inf)
        scale = np.where(normal | (peak == 0.0) | ~np.isfinite(peak), 1.0, peak)
        x = x / scale
        sq = np.add.reduce(x * x, axis=-1, keepdims=True)
    return x, np.sqrt(sq), scale


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row of x to unit L2 norm (through scaled_rows); zero rows stay
    zero (divided by 1: a masked divide's bits in under half its time)."""
    x, length, _ = scaled_rows(x)
    return x / np.where(length > 0.0, length, 1.0)


def diag_blocks(rows: np.ndarray) -> np.ndarray:
    """Each row of an (L, d) array as the diagonal of a d x d block: (L, d, d)."""
    idx = np.arange(rows.shape[1])
    out = np.zeros((rows.shape[0], idx.size, idx.size), dtype=rows.dtype)
    out[:, idx, idx] = rows
    return out


def diag_sandwich(a: np.ndarray, s_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks A^T diag(s_l) A for each row s_l of s_rows (L, p), with A (p, d), as
    one GEMM s_rows @ AA; returns (blocks (L, d, d), AA (p, d*d)), whose row p
    is the flattened outer product a_p a_p^T."""
    p, d = a.shape
    aa = (a[:, :, None] * a[:, None, :]).reshape(p, d * d)
    return (s_rows @ aa).reshape(-1, d, d), aa


def sym_eig_batch(m3) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a stack of symmetric matrices with one LAPACK call.

    m3 is (L, n, n); only its lower triangle is read.  Returns (w (L, n),
    q (L, n, n)): each row of w is sorted descending (ties keep LAPACK's
    order, so the identity gives q = I), and the columns of q[l] are the
    matching orthonormal eigenvectors with the signs LAPACK gave them.  A
    column's sign cancels bit for bit in q diag(.) q^T, so a caller that reads
    a column itself fixes its sign.  Non-finite input and LAPACK failures
    raise NumericalError.
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
    order = np.argsort(-w, axis=1, kind="stable")
    return w[rows, order], np.swapaxes(q[rows, :, order], 1, 2)


def truncation_mask(n: int, dtype=np.float64) -> np.ndarray:
    """Keep the n/2 largest (by signed value) of n descending eigenvalues: n//2
    ones, then zeros, of the given dtype."""
    return (np.arange(n) < n // 2).astype(dtype)


def spectral_truncate(m3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-n/2 truncation q diag(w * truncation_mask(n)) q^T of each block of
    an (L, n, n) symmetric stack, built from the n/2 kept columns of q only;
    returns (truncated stack, w, q) as sym_eig_batch gives them: a column's
    sign cancels bit for bit in the truncation and in the tape's
    Daleckii-Krein backward."""
    w, q = sym_eig_batch(m3)
    kept = q[:, :, :w.shape[1] // 2]
    return (kept * w[:, None, :kept.shape[2]]) @ np.swapaxes(kept, 1, 2), w, q


def psd_sqrt(m) -> np.ndarray:
    """Symmetric PSD square root of a matrix or of each matrix of a (..., n, n)
    stack, q diag(sqrt(w)) q^T from one sym_eig_batch call (the eigenvectors'
    signs cancel).

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
