"""Reverse-mode automatic differentiation over the op set the model needs.

A Tape records nodes in topological (insertion) order; each node stores its
value, its parents and one vjp that maps its adjoint to one adjoint per
parent.  backward calls each reached node's vjp once and pushes the results
into the parents that need a gradient; the first push allocates a parent's
adjoint, and nodes no push reached are skipped.  A tape runs one backward
pass; build a new tape for the next one.  Sampling noise enters as constant
leaves so the reparameterized gradients flow only into distribution
parameters.

Ops on blocks take a whole minibatch as one node: a batch of L dxd matrices
is stored row-stacked as an (L*d) x d matrix.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DomainError, ShapeError

EIG_GAP_CLAMP = 1e-6
BN_EPS = 1e-5
LEAKY_SLOPE = 0.2
ACTIVATIONS = ("relu", "leaky_relu", "linear")


def _row_indices(idx, nrows: int) -> np.ndarray:
    """idx as an intp array, every entry a row number in [0, nrows)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= nrows):
        raise ShapeError(f"row indices must lie in [0, {nrows})")
    return idx


def _scatter_rows(idx, rows, nrows: int) -> np.ndarray:
    """out[i] = sum of rows[k] over k with idx[k] == i, for nrows output rows.

    One np.bincount over flat element indices: it adds in k order, as
    np.add.at does, so the sums have the same bits.  Rows no index names are 0.
    """
    width = int(np.prod(rows.shape[1:]))
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, rows.ravel(), nrows * width).reshape((nrows, *rows.shape[1:]))


class Node:
    """A value, its parents and vjp(g), which returns one adjoint per parent
    (it may give None for a parent that needs no gradient).  A node needs a
    gradient when a parent does; vjp is None for leaves and for nodes no
    parameter feeds."""

    __slots__ = ("value", "adjoint", "parents", "vjp", "needs_grad", "tag")

    def __init__(self, value, parents=(), vjp=None, tag=""):
        self.value = value
        self.adjoint = None  # set by the first push in backward
        self.parents = parents
        self.needs_grad = any(p.needs_grad for p in parents)
        self.vjp = vjp if self.needs_grad else None
        self.tag = tag


class DenseNode(Node):
    """A dense layer's node: its activation name, its pre-activation and, with
    batch norm, its batch statistics (mean, var); else batch_stats is None."""

    __slots__ = ("act", "pre", "batch_stats")


class SpectralNode(Node):
    """A spectral truncation's node: the eigenvalue rows (L, d) of its input blocks."""

    __slots__ = ("eigenvalues",)


class Tape:
    """Append-only DAG of Node records; single backward pass per build."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}
        self._consumed = False

    # -- leaves ------------------------------------------------------------

    def param(self, value, name: str) -> Node:
        if name in self.params:
            raise DomainError(f"duplicate parameter name on tape: {name}")
        node = self._record(value, (), None, "param")
        node.needs_grad = True
        self.params[name] = node
        return node

    def const(self, value) -> Node:
        return self._record(value, (), None, "const")

    def _as_node(self, x) -> Node:
        return x if isinstance(x, Node) else self.const(x)

    def _record(self, value, parents, vjp, tag, kind=Node):
        node = kind(np.asarray(value, dtype=np.float64), parents, vjp, tag)
        self.nodes.append(node)
        return node

    # -- backward ----------------------------------------------------------

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Seed d(root)/d(root)=1 and accumulate adjoints in reverse order.

        Returns a map from parameter name to adjoint; parameters never
        reached by the sweep get zeros.
        """
        if self._consumed:
            raise DomainError("tape already ran backward; build a new tape")
        if root.value.ndim != 0:
            raise DomainError("backward root must be a scalar node")
        self._consumed = True
        root.adjoint = np.ones_like(root.value)
        for node in reversed(self.nodes):
            if node.adjoint is None or node.vjp is None:
                continue
            for parent, g in zip(node.parents, node.vjp(node.adjoint)):
                if parent.needs_grad:
                    parent.adjoint = g if parent.adjoint is None else parent.adjoint + g
        return {
            name: np.zeros_like(n.value) if n.adjoint is None else n.adjoint.copy()
            for name, n in self.params.items()
        }

    # -- elementwise / arithmetic -------------------------------------------

    def add(self, a, b) -> Node:
        a, b = self._as_node(a), self._as_node(b)
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")
        return self._record(a.value + b.value, (a, b), lambda g: (g, g), "add")

    def scale(self, x, c: float) -> Node:
        x = self._as_node(x)
        c = float(c)
        return self._record(c * x.value, (x,), lambda g: (c * g,), "scale")

    def hadamard(self, x, y) -> Node:
        """Elementwise product; y has x's shape or is a constant that broadcasts to it."""
        x, y = self._as_node(x), self._as_node(y)
        xv, yv = x.value, y.value
        out = xv * yv
        if out.shape != xv.shape or (y.needs_grad and yv.shape != xv.shape):
            raise ShapeError(f"hadamard shapes {xv.shape} and {yv.shape} do not match")
        return self._record(out, (x, y), lambda g: (g * yv, g * xv if y.needs_grad else None),
                            "hadamard")

    def exp(self, x) -> Node:
        x = self._as_node(x)
        out = np.exp(x.value)
        return self._record(out, (x,), lambda g: (g * out,), "exp")

    def softplus(self, x) -> Node:
        x = self._as_node(x)
        v = x.value
        out = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))
        sig = 1.0 / (1.0 + np.exp(-v))
        return self._record(out, (x,), lambda g: (g * sig,), "softplus")

    def mean_all(self, x) -> Node:
        x = self._as_node(x)
        size = x.value.size
        return self._record(np.asarray(x.value.mean()), (x,),
                            lambda g: (np.full_like(x.value, float(g) / size),), "mean_all")

    def sum_all(self, x) -> Node:
        x = self._as_node(x)
        return self._record(np.asarray(x.value.sum()), (x,),
                            lambda g: (np.full_like(x.value, float(g)),), "sum_all")

    # -- linear maps ---------------------------------------------------------

    def dense(self, x, w, b=None, act: str = "linear", norm=None) -> DenseNode:
        """act(X @ W + b), or act(batch_norm(X @ W)) when norm = (gamma, beta) is
        given (beta is then the shift, and b is None), for a batch matrix X (L, n),
        as one node.

        Batch norm needs L >= 2 and uses the batch statistics (biased variance),
        which the node keeps as batch_stats = (mean, var); the layer writes to
        none of its operands.  act is one of ACTIVATIONS; leaky_relu has slope
        LEAKY_SLOPE below zero.
        """
        if (b is None) == (norm is None):
            raise DomainError("dense takes a bias exactly when it has no batch norm")
        x, w = self._as_node(x), self._as_node(w)
        shift = [self._as_node(p) for p in ((b,) if norm is None else norm)]
        xv, wv = x.value, w.value
        shapes = [p.value.shape for p in shift]
        if (xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]
                or shapes != [wv.shape[1:]] * (1 if norm is None else 2)):
            raise ShapeError(f"dense shapes x{xv.shape} W{wv.shape}, bias or batch norm {shapes} "
                             "incompatible")
        if act not in ACTIVATIONS:
            raise DomainError(f"dense activation must be among {ACTIVATIONS}, got {act!r}")
        pre = xv @ wv
        if norm is None:
            pre += shift[0].value
        else:
            gamma, beta = shift
            nrows, xhat = pre.shape[0], pre
            if nrows < 2:
                raise DomainError("batch norm needs a batch of >= 2")
            # np.mean and np.var's own arithmetic, sharing the centred batch
            mean = pre.sum(axis=0) / nrows
            xhat -= mean
            sq = xhat * xhat
            var = sq.sum(axis=0) / nrows
            inv = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= inv
            pre = np.multiply(xhat, gamma.value, out=sq)
            pre += beta.value
        # branch-free float slopes: np.where on a random sign pattern is ~10x
        # slower here, and a product with a bool mask ~2x slower than with floats
        out, slope = pre, None
        if act == "relu":
            out, slope = np.maximum(pre, 0.0), (pre > 0.0).astype(np.float64)
        elif act == "leaky_relu":
            slope = (pre > 0.0).astype(np.float64)
            np.maximum(slope, LEAKY_SLOPE, out=slope)
            out = pre * slope

        def vjp(g):  # adjoints of (x, W, b) or (x, W, gamma, beta)
            if slope is not None:
                g = g * slope
            if norm is None:
                shift_grads = (g.sum(axis=0) if shift[0].needs_grad else None,)
            else:
                dgamma = np.einsum("ij,ij->j", g, xhat)
                dbeta = g.sum(axis=0)
                shift_grads = (dgamma, dbeta)
                # the batch statistics' closed form, through dgamma and dbeta
                g = g - dbeta / nrows
                g -= xhat * (dgamma / nrows)
                g *= gamma.value * inv
            return (g @ wv.T if x.needs_grad else None, xv.T @ g if w.needs_grad else None,
                    *shift_grads)

        node = self._record(out, (x, w, *shift), vjp, "dense", DenseNode)
        node.act, node.pre, node.batch_stats = act, pre, None if norm is None else (mean, var)
        return node

    def matmul(self, a, b) -> Node:
        a, b = self._as_node(a), self._as_node(b)
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul shapes {av.shape} x {bv.shape} do not chain")
        return self._record(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g), "matmul")

    def gather_rows(self, x, idx) -> Node:
        """Row gather X[idx]; backward scatter-adds."""
        x = self._as_node(x)
        nrows = x.value.shape[0]
        idx = _row_indices(idx, nrows)
        return self._record(x.value[idx], (x,), lambda g: (_scatter_rows(idx, g, nrows),),
                            "gather_rows")

    def col_block(self, x, start: int, stop: int) -> Node:
        x = self._as_node(x)
        if x.value.ndim != 2:
            raise ShapeError("col_block expects a matrix")

        def vjp(g):
            out = np.zeros_like(x.value)
            out[:, start:stop] = g
            return (out,)

        return self._record(x.value[:, start:stop], (x,), vjp, "col_block")

    # -- norms and normalization ----------------------------------------------

    def mean_rowwise_norm_diff(self, a, b, squared: bool = False) -> Node:
        """Mean over rows of ||a_r - b_r||_2 (or its square)."""
        a, b = self._as_node(a), self._as_node(b)
        if a.value.shape != b.value.shape or a.value.ndim != 2:
            raise ShapeError("mean_rowwise_norm_diff expects two equal-shape matrices")
        diff = a.value - b.value
        norms = np.linalg.norm(diff, axis=1)
        nrows = diff.shape[0]
        if squared:
            out = float(np.mean(norms**2))

            def base(g):
                return (2.0 * float(g) / nrows) * diff

        else:
            out = float(np.mean(norms))
            safe = np.where(norms > 0.0, norms, 1.0)
            unit = np.where(norms[:, None] > 0.0, diff / safe[:, None], 0.0)

            def base(g):
                return (float(g) / nrows) * unit

        def vjp(g):
            ga = base(g)
            return ga, -ga if b.needs_grad else None

        return self._record(np.asarray(out), (a, b), vjp, "mean_rowwise_norm_diff")

    def normalize_rows(self, x) -> Node:
        """Unit-normalize each row of a matrix; zero rows stay zero.  The rows
        and their lengths come from linalg.scaled_rows, so a row whose sum of
        squares overflows or underflows is normalized too."""
        x = self._as_node(x)
        if x.value.ndim != 2:
            raise ShapeError("normalize_rows expects a matrix")
        scaled, length, scale = linalg.scaled_rows(x.value)
        y = np.divide(scaled, length, out=np.zeros_like(scaled), where=length > 0.0)
        length = length * scale  # each row's own length; a scale of 1 keeps the bits

        def vjp(g):
            dots = np.sum(y * g, axis=1, keepdims=True)
            return (np.divide(g - y * dots, length, out=np.zeros_like(g), where=length > 0.0),)

        return self._record(y, (x,), vjp, "normalize_rows")

    # -- quadratic forms and spectra ------------------------------------------

    def batch_diag_sandwich(self, a, s_rows) -> Node:
        """Blocks M_l = A^T diag(S[l]) A stacked into an (L*d, d) matrix."""
        a, s_rows = self._as_node(a), self._as_node(s_rows)
        av, sv = a.value, s_rows.value
        if av.ndim != 2 or sv.ndim != 2 or sv.shape[1] != av.shape[0]:
            raise ShapeError(
                f"batch_diag_sandwich shapes A{av.shape} S{sv.shape} incompatible"
            )
        nblocks, d = sv.shape[0], av.shape[1]
        blocks = linalg.diag_sandwich(av, sv)

        def vjp(g):
            g3 = g.reshape(nblocks, d, d)
            sym = g3 + np.transpose(g3, (0, 2, 1))
            # A's adjoint sum_l S[l, p] (A sym_l)[p, q]: the sum over blocks is one GEMM
            s_sym = (sv.T @ sym.reshape(nblocks, d * d)).reshape(-1, d, d)
            return (np.einsum("pk,pkq->pq", av, s_sym),
                    np.einsum("pk,lqk,pq->lp", av, g3, av))

        return self._record(blocks.reshape(nblocks * d, d), (a, s_rows), vjp,
                            "batch_diag_sandwich")

    def spectral_truncate(self, mblocks, d: int) -> SpectralNode:
        """Rank-d/2 truncation U diag(w * mask) U^T of each symmetric d x d block.

        mblocks is (L*d, d); linalg.spectral_truncate keeps the d/2 largest
        eigenvalues by signed value.  The backward is the Daleckii-Krein form
        U (F o U^T sym(G) U) U^T, F holding the divided differences of
        f = w * mask: 1 within the kept block, 0 within the dropped block and
        w_i / (w_i - w_j) across the cut.  Ties inside either block are smooth
        points and need no care; the gap across the cut is clamped at
        EIG_GAP_CLAMP, so the backward stays finite at a tie there.
        """
        mblocks = self._as_node(mblocks)
        mv = mblocks.value
        if mv.ndim != 2 or mv.shape[1] != d or mv.shape[0] % d != 0:
            raise ShapeError(f"spectral_truncate got shape {mv.shape} for block size {d}")
        nblocks, keep = mv.shape[0] // d, d // 2
        out, ws, us = linalg.spectral_truncate(mv.reshape(nblocks, d, d))

        def vjp(g):
            kept = ws[:, :keep, None]
            cross = kept / np.maximum(kept - ws[:, None, keep:], EIG_GAP_CLAMP)
            f = np.zeros((nblocks, d, d))
            f[:, :keep, :keep] = 1.0
            f[:, :keep, keep:] = cross
            f[:, keep:, :keep] = np.swapaxes(cross, 1, 2)
            g3 = g.reshape(nblocks, d, d)
            ut = np.swapaxes(us, 1, 2)
            inner = ut @ (0.5 * (g3 + np.swapaxes(g3, 1, 2))) @ us
            return ((us @ (f * inner) @ ut).reshape(nblocks * d, d),)

        node = self._record(out.reshape(nblocks * d, d), (mblocks,), vjp, "spectral_truncate",
                            SpectralNode)
        node.eigenvalues = ws
        return node

    def rows_to_diag_blocks(self, s_rows) -> Node:
        """Embed each row of S as a diagonal d x d block, stacked (L*d, d)."""
        s_rows = self._as_node(s_rows)
        sv = s_rows.value
        if sv.ndim != 2:
            raise ShapeError("rows_to_diag_blocks expects a matrix of diagonal rows")
        nblocks, d = sv.shape
        idx = np.arange(d)
        return self._record(linalg.diag_blocks(sv).reshape(nblocks * d, d), (s_rows,),
                            lambda g: (g.reshape(nblocks, d, d)[:, idx, idx],),
                            "rows_to_diag_blocks")

    def mixture_sample(self, mu1, mu2, m1blocks, m2blocks, labels, point_idx, eps1, eps2) -> Node:
        """Reparameterized mixture draws z_k = mu_j[i] + M_j[i] eps1_k + eps2_k.

        labels (values in {1, 2}) pick the mode per draw, point_idx maps each
        draw to its batch row; eps1/eps2 are fixed standard-normal constants so
        the covariance of each mode is exactly M M^T + I.
        """
        mu1, mu2 = self._as_node(mu1), self._as_node(mu2)
        m1blocks, m2blocks = self._as_node(m1blocks), self._as_node(m2blocks)
        labels = np.asarray(labels, dtype=np.intp)
        point_idx = np.asarray(point_idx, dtype=np.intp)
        eps1 = np.asarray(eps1, dtype=np.float64)
        eps2 = np.asarray(eps2, dtype=np.float64)
        nrows, d = mu1.value.shape
        ndraws = labels.shape[0]
        if point_idx.shape != (ndraws,) or eps1.shape != (ndraws, d) or eps2.shape != (ndraws, d):
            raise ShapeError("mixture_sample draw arrays are inconsistent")
        _row_indices(point_idx, nrows)
        m1 = m1blocks.value.reshape(nrows, d, d)
        m2 = m2blocks.value.reshape(nrows, d, d)
        pick1 = labels == 1
        picks = (pick1, ~pick1)
        msel = np.where(pick1[:, None, None], m1[point_idx], m2[point_idx])
        musel = np.where(pick1[:, None], mu1.value[point_idx], mu2.value[point_idx])
        out = musel + np.einsum("kde,ke->kd", msel, eps1) + eps2

        def vjp(g):  # adjoints of (mu1, mu2, m1blocks, m2blocks)
            means = [_scatter_rows(point_idx[p], g[p], nrows) for p in picks]
            blocks = [_scatter_rows(point_idx[p], g[p, :, None] * eps1[p, None, :], nrows)
                      .reshape(nrows * d, d) for p in picks]
            return (*means, *blocks)

        return self._record(out, (mu1, mu2, m1blocks, m2blocks), vjp, "mixture_sample")

    def vae_kl_diag(self, mu_rows, logvar_rows) -> Node:
        """Batch-mean KL(N(mu, diag(e^logvar)) || N(0, I)) for row-wise params."""
        mu_rows, logvar_rows = self._as_node(mu_rows), self._as_node(logvar_rows)
        mv, lv = mu_rows.value, logvar_rows.value
        if mv.shape != lv.shape or mv.ndim != 2:
            raise ShapeError("vae_kl_diag expects matching (L, d) matrices")
        nrows = mv.shape[0]
        var = np.exp(lv)
        kl = 0.5 * float(np.sum(mv * mv + var - lv - 1.0)) / nrows
        return self._record(np.asarray(kl), (mu_rows, logvar_rows),
                            lambda g: ((float(g) / nrows) * mv,
                                       (0.5 * float(g) / nrows) * (var - 1.0)),
                            "vae_kl_diag")

