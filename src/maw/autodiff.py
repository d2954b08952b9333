"""Reverse-mode automatic differentiation over the op set the model needs.

A Tape records nodes in topological (insertion) order; each node stores its
value and vjp closures that push its adjoint into the parents that need one.
The first push allocates a node's adjoint; backward skips nodes none reached.
A tape runs one backward pass; build a new tape for the next one.  Sampling
noise enters as constant leaves so the reparameterized gradients flow only
into distribution parameters.

Ops on blocks take a whole minibatch as one node: a batch of L dxd matrices
is stored row-stacked as an (L*d) x d matrix.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DomainError, ShapeError

EIG_GAP_CLAMP = 1e-6
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
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
    __slots__ = ("value", "adjoint", "parents", "needs_grad", "tag")

    def __init__(self, value, parents=(), needs_grad=False, tag=""):
        self.value = value
        self.adjoint = None  # set by the first push in backward
        self.parents = parents
        self.needs_grad = needs_grad
        self.tag = tag


class DenseNode(Node):
    """A dense layer's node: its activation name and its pre-activation."""

    __slots__ = ("act", "pre")


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
        node = self._make(np.asarray(value, dtype=np.float64), (), True, "param")
        self.params[name] = node
        return node

    def const(self, value) -> Node:
        return self._make(np.asarray(value, dtype=np.float64), (), False, "const")

    def _make(self, value, parents, needs_grad, tag):
        node = Node(value, parents, needs_grad, tag)
        self.nodes.append(node)
        return node

    def _as_node(self, x) -> Node:
        return x if isinstance(x, Node) else self.const(x)

    def _record(self, value, parent_vjps, tag=""):
        kept = tuple((p, vjp) for p, vjp in parent_vjps if p.needs_grad)
        return self._make(np.asarray(value, dtype=np.float64), kept, bool(kept), tag)

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
            a = node.adjoint
            if a is None or not node.parents:
                continue
            for parent, vjp in node.parents:
                g = vjp(a)
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
        return self._record(
            a.value + b.value,
            [(a, lambda g: g), (b, lambda g: g)],
            "add",
        )

    def scale(self, x, c: float) -> Node:
        x = self._as_node(x)
        c = float(c)
        return self._record(c * x.value, [(x, lambda g: c * g)], "scale")

    def hadamard(self, x, y) -> Node:
        """Elementwise product; y has x's shape or is a constant that broadcasts to it."""
        x, y = self._as_node(x), self._as_node(y)
        xv, yv = x.value, y.value
        out = xv * yv
        if out.shape != xv.shape or (y.needs_grad and yv.shape != xv.shape):
            raise ShapeError(f"hadamard shapes {xv.shape} and {yv.shape} do not match")
        return self._record(out, [(x, lambda g: g * yv), (y, lambda g: g * xv)], "hadamard")

    def exp(self, x) -> Node:
        x = self._as_node(x)
        out = np.exp(x.value)
        return self._record(out, [(x, lambda g: g * out)], "exp")

    def softplus(self, x) -> Node:
        x = self._as_node(x)
        v = x.value
        out = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))
        sig = 1.0 / (1.0 + np.exp(-v))
        return self._record(out, [(x, lambda g: g * sig)], "softplus")

    def mean_all(self, x) -> Node:
        x = self._as_node(x)
        size = x.value.size
        return self._record(
            np.asarray(x.value.mean()),
            [(x, lambda g: np.full_like(x.value, float(g) / size))],
            "mean_all",
        )

    def sum_all(self, x) -> Node:
        x = self._as_node(x)
        return self._record(
            np.asarray(x.value.sum()),
            [(x, lambda g: np.full_like(x.value, float(g)))],
            "sum_all",
        )

    # -- linear maps ---------------------------------------------------------

    def dense(self, x, w, b=None, act: str = "linear", norm=None, train: bool = True) -> Node:
        """act(X @ W + b), or act(batch_norm(X @ W)) when norm is given (beta is
        then the shift, and b is None), for a batch matrix X (L, n), as one node.

        norm is (gamma, beta, running_mean, running_var), all of width
        W.shape[1].  Train mode needs L >= 2, uses the batch statistics (biased
        variance) and updates the running arrays in place (momentum 0.9), if
        they are not both None; eval mode uses the running statistics.  act is
        one of ACTIVATIONS; leaky_relu has slope LEAKY_SLOPE below zero.  One
        backward call yields every parent's adjoint.
        """
        if (b is None) == (norm is None):
            raise DomainError("dense takes a bias exactly when it has no batch norm")
        x, w = self._as_node(x), self._as_node(w)
        shift = [self._as_node(p) for p in ((b,) if norm is None else norm[:2])]
        stats = () if norm is None or (norm[2] is None and norm[3] is None) else norm[2:]
        xv, wv = x.value, w.value
        shapes = [np.shape(a) for a in [p.value for p in shift] + list(stats)]
        if (xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]
                or any(s != wv.shape[1:] for s in shapes)):
            raise ShapeError(f"dense shapes x{xv.shape} W{wv.shape}, bias or batch norm {shapes} "
                             "incompatible")
        if act not in ACTIVATIONS:
            raise DomainError(f"dense activation must be among {ACTIVATIONS}, got {act!r}")
        pre = xv @ wv
        parents = [x, w, *shift]
        if norm is None:
            pre += shift[0].value
        else:
            gamma, beta = shift
            nrows, xhat, sq = pre.shape[0], pre, None
            if train:
                if nrows < 2:
                    raise DomainError("batch norm in train mode needs a batch of >= 2")
                # np.mean and np.var's own arithmetic, sharing the centred batch
                mean = pre.sum(axis=0) / nrows
                xhat -= mean
                sq = xhat * xhat
                var = sq.sum(axis=0) / nrows
                for running, batch in zip(stats, (mean, var)):
                    running *= BN_MOMENTUM
                    running += (1.0 - BN_MOMENTUM) * batch
            elif stats:
                xhat -= stats[0]
                var = stats[1]
            else:
                raise DomainError("batch norm in eval mode needs running statistics")
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
        kept = [p for p in parents if p.needs_grad]

        def backward(g):
            if slope is not None:
                g = g * slope
            grads = {}
            if norm is not None:
                dgamma = grads[gamma] = np.einsum("ij,ij->j", g, xhat)
                dbeta = grads[beta] = g.sum(axis=0)
                if train:  # the batch statistics' closed form, through dgamma and dbeta
                    g = g - dbeta / nrows
                    g -= xhat * (dgamma / nrows)
                    g *= gamma.value * inv
                else:
                    g = g * gamma.value * inv
            elif shift[0].needs_grad:
                grads[shift[0]] = g.sum(axis=0)
            grads[x] = g @ wv.T if x.needs_grad else None
            grads[w] = xv.T @ g if w.needs_grad else None
            return [grads[p] for p in kept]

        memo = {}

        def vjp_of(i):
            def vjp(g):
                if memo.get("g") is not g:
                    memo.update(g=g, grads=backward(g))
                return memo["grads"][i]
            return vjp

        node = DenseNode(out, tuple((p, vjp_of(i)) for i, p in enumerate(kept)), bool(kept),
                         "dense")
        node.act, node.pre = act, pre
        self.nodes.append(node)
        return node

    def matmul(self, a, b) -> Node:
        a, b = self._as_node(a), self._as_node(b)
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul shapes {av.shape} x {bv.shape} do not chain")
        return self._record(
            av @ bv,
            [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)],
            "matmul",
        )

    def gather_rows(self, x, idx) -> Node:
        """Row gather X[idx]; backward scatter-adds."""
        x = self._as_node(x)
        nrows = x.value.shape[0]
        idx = _row_indices(idx, nrows)
        return self._record(x.value[idx], [(x, lambda g: _scatter_rows(idx, g, nrows))],
                            "gather_rows")

    def col_block(self, x, start: int, stop: int) -> Node:
        x = self._as_node(x)
        if x.value.ndim != 2:
            raise ShapeError("col_block expects a matrix")

        def vjp(g):
            out = np.zeros_like(x.value)
            out[:, start:stop] = g
            return out

        return self._record(x.value[:, start:stop], [(x, vjp)], "col_block")

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

        return self._record(
            np.asarray(out),
            [(a, base), (b, lambda g: -base(g))],
            "mean_rowwise_norm_diff",
        )

    def normalize_rows(self, x) -> Node:
        """Unit-normalize each row of a matrix; zero rows stay zero."""
        x = self._as_node(x)
        if x.value.ndim != 2:
            raise ShapeError("normalize_rows expects a matrix")
        norms = np.linalg.norm(x.value, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        y = np.where(norms[:, None] > 0.0, x.value / safe[:, None], 0.0)

        def vjp(g):
            dots = np.sum(y * g, axis=1, keepdims=True)
            return np.where(norms[:, None] > 0.0, (g - y * dots) / safe[:, None], 0.0)

        return self._record(y, [(x, vjp)], "normalize_rows")

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

        def vjp_a(g):
            g3 = g.reshape(nblocks, d, d)
            sym = g3 + np.transpose(g3, (0, 2, 1))
            return np.einsum("lp,pk,lkq->pq", sv, av, sym)

        def vjp_s(g):
            g3 = g.reshape(nblocks, d, d)
            return np.einsum("pk,lqk,pq->lp", av, g3, av)

        return self._record(
            blocks.reshape(nblocks * d, d), [(a, vjp_a), (s_rows, vjp_s)], "batch_diag_sandwich"
        )

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
            return (us @ (f * inner) @ ut).reshape(nblocks * d, d)

        parents = ((mblocks, vjp),) if mblocks.needs_grad else ()
        node = SpectralNode(out.reshape(nblocks * d, d), parents, bool(parents),
                            "spectral_truncate")
        node.eigenvalues = ws
        self.nodes.append(node)
        return node

    def rows_to_diag_blocks(self, s_rows) -> Node:
        """Embed each row of S as a diagonal d x d block, stacked (L*d, d)."""
        s_rows = self._as_node(s_rows)
        sv = s_rows.value
        if sv.ndim != 2:
            raise ShapeError("rows_to_diag_blocks expects a matrix of diagonal rows")
        nblocks, d = sv.shape
        idx = np.arange(d)
        return self._record(linalg.diag_blocks(sv).reshape(nblocks * d, d),
                            [(s_rows, lambda g: g.reshape(nblocks, d, d)[:, idx, idx])],
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
        msel = np.where(pick1[:, None, None], m1[point_idx], m2[point_idx])
        musel = np.where(pick1[:, None], mu1.value[point_idx], mu2.value[point_idx])
        out = musel + np.einsum("kde,ke->kd", msel, eps1) + eps2

        def vjp_mu(g, mask):
            return _scatter_rows(point_idx[mask], g[mask], nrows)

        def vjp_m(g, mask):
            outer = g[mask, :, None] * eps1[mask, None, :]
            return _scatter_rows(point_idx[mask], outer, nrows).reshape(nrows * d, d)

        return self._record(
            out,
            [
                (mu1, lambda g: vjp_mu(g, pick1)),
                (mu2, lambda g: vjp_mu(g, ~pick1)),
                (m1blocks, lambda g: vjp_m(g, pick1)),
                (m2blocks, lambda g: vjp_m(g, ~pick1)),
            ],
            "mixture_sample",
        )

    def vae_kl_diag(self, mu_rows, logvar_rows) -> Node:
        """Batch-mean KL(N(mu, diag(e^logvar)) || N(0, I)) for row-wise params."""
        mu_rows, logvar_rows = self._as_node(mu_rows), self._as_node(logvar_rows)
        mv, lv = mu_rows.value, logvar_rows.value
        if mv.shape != lv.shape or mv.ndim != 2:
            raise ShapeError("vae_kl_diag expects matching (L, d) matrices")
        nrows = mv.shape[0]
        var = np.exp(lv)
        kl = 0.5 * float(np.sum(mv * mv + var - lv - 1.0)) / nrows
        return self._record(
            np.asarray(kl),
            [
                (mu_rows, lambda g: (float(g) / nrows) * mv),
                (logvar_rows, lambda g: (0.5 * float(g) / nrows) * (var - 1.0)),
            ],
            "vae_kl_diag",
        )

