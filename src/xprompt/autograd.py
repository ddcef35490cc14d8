"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value in the graph is a 2-D double-precision array. A graph is built
per forward pass and consumed by a single ``backward`` call; prune masks
enter as ordinary leaves, so their gradients are exact rather than
approximated. Single-threaded evaluation is bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.special import erf

from .errors import ShapeError, StateError

LAYER_NORM_EPS = 1e-6

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Node:
    """One vertex of the computation graph: a value plus a gradient slot."""

    __slots__ = ("value", "parents", "requires_grad", "op", "_grad", "_backprop", "_done")

    def __init__(self, value, parents=(), requires_grad=False, op="leaf"):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"graph nodes hold 2-D matrices, got shape {arr.shape}")
        self.value = arr
        self.parents = tuple(parents)
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.op = op
        self._grad = None
        self._backprop = None
        self._done = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def grad(self) -> np.ndarray:
        """Accumulated d(loss)/d(value); zeros until backward reaches this node."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def accum(self, g: np.ndarray) -> None:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        self._grad += g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(op={self.op}, shape={self.value.shape}, requires_grad={self.requires_grad})"


@dataclass
class LossScalar:
    """A scalar training loss: plain float plus the 1x1 node that produced it."""

    value: float
    node: Node


def leaf(value, requires_grad: bool = True, op: str = "leaf") -> Node:
    return Node(value, requires_grad=requires_grad, op=op)


def constant(value, op: str = "const") -> Node:
    """A leaf that backward never descends into (frozen weights, mask-free data)."""
    return Node(value, requires_grad=False, op=op)


def backward(loss: LossScalar | Node) -> None:
    """Run reverse-mode accumulation from a 1x1 loss node.

    Each graph supports exactly one backward pass; rebuild the forward graph
    before differentiating again.
    """
    node = loss.node if isinstance(loss, LossScalar) else loss
    if node.shape != (1, 1):
        raise ShapeError(f"backward starts from a 1x1 loss node, got shape {node.shape}")
    if node._done:
        raise StateError("backward already ran on this graph; rebuild the forward pass first")
    node._done = True

    # Iterative post-order over the requires_grad subgraph; reversed, it is a
    # topological order, so every node's grad is complete before its backprop runs.
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            order.append(n)
            continue
        if id(n) in visited:
            continue
        visited.add(id(n))
        stack.append((n, True))
        for p in n.parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    node.accum(np.ones((1, 1)))
    for n in reversed(order):
        if n._backprop is not None:
            n._backprop(n.grad)


# --- primitives -------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = Node(a.value @ b.value, (a, b), op="matmul")
    if out.requires_grad:
        def backprop(g, a=a, b=b):
            if a.requires_grad:
                a.accum(g @ b.value.T)
            if b.requires_grad:
                b.accum(a.value.T @ g)
        out._backprop = backprop
    return out


def add(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes: {a.shape} vs {b.shape}")
    out = Node(a.value + b.value, (a, b), op="add")
    if out.requires_grad:
        def backprop(g, a=a, b=b):
            if a.requires_grad:
                a.accum(g)
            if b.requires_grad:
                b.accum(g)
        out._backprop = backprop
    return out


def bias_add(x: Node, b: Node) -> Node:
    """x (T,n) + b (1,n), broadcast down the rows."""
    if b.rows != 1 or b.cols != x.cols:
        raise ShapeError(f"bias_add needs a (1,{x.cols}) bias, got {b.shape} for x {x.shape}")
    out = Node(x.value + b.value, (x, b), op="bias_add")
    if out.requires_grad:
        def backprop(g, x=x, b=b):
            if x.requires_grad:
                x.accum(g)
            if b.requires_grad:
                b.accum(g.sum(axis=0, keepdims=True))
        out._backprop = backprop
    return out


def transpose(x: Node) -> Node:
    out = Node(x.value.T.copy(), (x,), op="transpose")
    if out.requires_grad:
        def backprop(g, x=x):
            x.accum(g.T)
        out._backprop = backprop
    return out


def rowwise_scale(x: Node, s: Node) -> Node:
    """Scale row i of x by s[i, 0]. The backward into s is the token-importance
    integrand: s.grad[i] += sum_j out.grad[i, j] * x[i, j]."""
    if s.cols != 1 or s.rows != x.rows:
        raise ShapeError(f"rowwise_scale needs s of shape ({x.rows},1), got {s.shape} for x {x.shape}")
    out = Node(x.value * s.value, (x, s), op="rowwise_scale")
    if out.requires_grad:
        def backprop(g, x=x, s=s):
            if x.requires_grad:
                x.accum(g * s.value)
            if s.requires_grad:
                s.accum((g * x.value).sum(axis=1, keepdims=True))
        out._backprop = backprop
    return out


def blockwise_scale(x: Node, z: Node) -> Node:
    """Scale piece c of row i (a contiguous block of e/k columns) by z[i, c]."""
    m, e = x.shape
    if z.rows != m:
        raise ShapeError(f"blockwise_scale needs z with {m} rows, got {z.shape}")
    k = z.cols
    if k < 1 or e % k != 0:
        raise ShapeError(f"embedding width e={e} does not split into k={k} pieces (e mod k = {e % k})")
    w = e // k
    expanded = np.repeat(z.value, w, axis=1)
    out = Node(x.value * expanded, (x, z), op="blockwise_scale")
    if out.requires_grad:
        def backprop(g, x=x, z=z, expanded=expanded, m=m, k=k, w=w):
            if x.requires_grad:
                x.accum(g * expanded)
            if z.requires_grad:
                z.accum((g * x.value).reshape(m, k, w).sum(axis=2))
        out._backprop = backprop
    return out


def concat_rows(*parts: Node) -> Node:
    """Stack matrices vertically, preserving order. Zero-row parts are allowed."""
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError(f"concat_rows column mismatch: {p.shape} vs (*,{cols})")
    out = Node(np.concatenate([p.value for p in parts], axis=0), parts, op="concat_rows")
    if out.requires_grad:
        offsets = np.cumsum([0] + [p.rows for p in parts])
        def backprop(g, parts=parts, offsets=offsets):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    p.accum(g[lo:hi])
        out._backprop = backprop
    return out


def embedding_lookup(table: Node, ids) -> Node:
    """Gather rows of table by integer id. Duplicate ids accumulate gradient."""
    idx = [int(i) for i in ids]
    for i in idx:
        if i < 0 or i >= table.rows:
            raise IndexError(f"token id {i} out of range for a {table.rows}-row table")
    out = Node(table.value[idx], (table,), op="embedding_lookup")
    if out.requires_grad:
        def backprop(g, table=table, idx=idx):
            table.grad  # ensure allocation
            np.add.at(table._grad, idx, g)
        out._backprop = backprop
    return out


def mean_pool(x: Node, start: int = 0, stop: int | None = None) -> Node:
    """Mean of a contiguous row slice -> a single (1, cols) row."""
    stop = x.rows if stop is None else stop
    if not (0 <= start < stop <= x.rows):
        raise ShapeError(f"mean_pool rows [{start}:{stop}] invalid for {x.rows} rows")
    n = stop - start
    out = Node(x.value[start:stop].mean(axis=0, keepdims=True), (x,), op="mean_pool")
    if out.requires_grad:
        def backprop(g, x=x, start=start, stop=stop, n=n):
            x.grad  # ensure allocation
            x._grad[start:stop] += g / n
        out._backprop = backprop
    return out


def gelu(x: Node) -> Node:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    xv = x.value
    e = erf(xv * _INV_SQRT2)
    out = Node(0.5 * xv * (1.0 + e), (x,), op="gelu")
    if out.requires_grad:
        def backprop(g, x=x, xv=xv, e=e):
            local = 0.5 * (1.0 + e) + xv * np.exp(-0.5 * xv * xv) * _INV_SQRT2PI
            x.accum(g * local)
        out._backprop = backprop
    return out


def layer_norm(x: Node, gain: Node, bias: Node, eps: float = LAYER_NORM_EPS) -> Node:
    """Per-row normalization with a learned affine: gain * xhat + bias.

    A constant row normalizes to the zero vector before the affine terms.
    """
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(
            f"layer_norm affine must be (1,{x.cols}); got gain {gain.shape}, bias {bias.shape}")
    xv = x.value
    mu = xv.mean(axis=1, keepdims=True)
    var = ((xv - mu) ** 2).mean(axis=1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * istd
    out = Node(xhat * gain.value + bias.value, (x, gain, bias), op="layer_norm")
    if out.requires_grad:
        def backprop(g, x=x, gain=gain, bias=bias, xhat=xhat, istd=istd):
            if bias.requires_grad:
                bias.accum(g.sum(axis=0, keepdims=True))
            if gain.requires_grad:
                gain.accum((g * xhat).sum(axis=0, keepdims=True))
            if x.requires_grad:
                dxhat = g * gain.value
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
                x.accum(istd * (dxhat - m1 - xhat * m2))
        out._backprop = backprop
    return out


def take_rows(x: Node, spans: list[tuple[int, int]]) -> Node:
    """Stack the row ranges [a, b) of x, in order; the ranges ascend and do
    not overlap, so the backward scatter-adds each gradient row once."""
    cursor = 0
    for a, b in spans:
        if a < cursor or b <= a:
            raise ShapeError(f"row spans must ascend without overlap, got {spans}")
        cursor = b
    if cursor > x.rows:
        raise ShapeError(f"row spans reach row {cursor}, matrix has {x.rows}")
    idx = np.concatenate([np.arange(a, b) for a, b in spans])
    out = Node(x.value[idx], (x,), op="take_rows")
    if out.requires_grad:
        def backprop(g, x=x, idx=idx):
            x.grad  # ensure allocation
            x._grad[idx] += g
        out._backprop = backprop
    return out


def attention_blocks(q: Node, k: Node, v: Node, heads: int,
                     bounds: list[tuple[int, int]],
                     queries: list[tuple[int, int]] | None = None) -> Node:
    """Multi-head attention restricted to independent row blocks.

    Rows of k and v in [a, b) form one block; blocks must tile their full
    height exactly. queries gives, per block, the rows [qa, qb) inside it
    that ask for an output (default: every row of the block); q holds
    exactly those rows, stacked in block order, and so does the result.
    Packing many sequences into one matrix this way keeps every
    position-wise op a single large operation.
    """
    if q.cols != k.cols or q.cols != v.cols:
        raise ShapeError(f"attention width mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if k.rows != v.rows:
        raise ShapeError("block attention needs k and v with identical rows")
    e = q.cols
    if heads < 1 or e % heads != 0:
        raise ShapeError(f"width e={e} does not split into {heads} heads")
    cursor = 0
    for a, b in bounds:
        if a != cursor or b <= a:
            raise ShapeError(f"blocks must tile rows contiguously, got {bounds}")
        cursor = b
    if cursor != k.rows:
        raise ShapeError(f"blocks cover {cursor} rows, matrix has {k.rows}")
    queries = bounds if queries is None else queries
    if len(queries) != len(bounds) or any(
            not a <= qa < qb <= b for (a, b), (qa, qb) in zip(bounds, queries)):
        raise ShapeError(f"query rows {queries} must be one non-empty range "
                         f"inside each block of {bounds}")
    starts = list(accumulate((qb - qa for qa, qb in queries), initial=0))
    if starts[-1] != q.rows:
        raise ShapeError(f"query ranges cover {starts[-1]} rows, q has {q.rows}")
    # (q rows, k/v rows) of each block
    blocks = [((c, c + qb - qa), ab) for c, (qa, qb), ab in zip(starts, queries, bounds)]
    d = e // heads
    scale = 1.0 / np.sqrt(d)

    def heads_first(arr, a, b):
        return np.ascontiguousarray(arr[a:b].reshape(b - a, heads, d).transpose(1, 0, 2))

    out_val = np.empty((q.rows, e))
    weights = []
    for (qa, qb), (a, b) in blocks:
        qh = heads_first(q.value, qa, qb)
        kh = heads_first(k.value, a, b)
        vh = heads_first(v.value, a, b)
        scores = (qh @ kh.transpose(0, 2, 1)) * scale
        scores -= scores.max(axis=2, keepdims=True)
        ex = np.exp(scores)
        att = ex / ex.sum(axis=2, keepdims=True)
        weights.append(att)
        out_val[qa:qb] = (att @ vh).transpose(1, 0, 2).reshape(qb - qa, e)

    out = Node(out_val, (q, k, v), op="attention_blocks")
    if out.requires_grad:
        def backprop(g, q=q, k=k, v=v, weights=weights, blocks=blocks,
                     heads=heads, d=d, scale=scale):
            for ((qa, qb), (a, b)), att in zip(blocks, weights):
                gh = heads_first(g, qa, qb)
                qh = heads_first(q.value, qa, qb)
                kh = heads_first(k.value, a, b)
                vh = heads_first(v.value, a, b)
                if v.requires_grad:
                    v.grad
                    dv = att.transpose(0, 2, 1) @ gh
                    v._grad[a:b] += dv.transpose(1, 0, 2).reshape(b - a, e)
                da = gh @ vh.transpose(0, 2, 1)
                ds = att * (da - (da * att).sum(axis=2, keepdims=True))
                if q.requires_grad:
                    q.grad
                    dq = (ds @ kh) * scale
                    q._grad[qa:qb] += dq.transpose(1, 0, 2).reshape(qb - qa, e)
                if k.requires_grad:
                    k.grad
                    dk = (ds.transpose(0, 2, 1) @ qh) * scale
                    k._grad[a:b] += dk.transpose(1, 0, 2).reshape(b - a, e)
        out._backprop = backprop
    return out


def softmax_cross_entropy(logits: Node, labels) -> LossScalar:
    """Mean cross-entropy of row-wise softmax against integer labels."""
    b, c = logits.shape
    lab = [int(l) for l in labels]
    if len(lab) != b:
        raise ShapeError(f"{b} logit rows but {len(lab)} labels")
    if b < 1:
        raise ShapeError("softmax_cross_entropy needs at least one row")
    for l in lab:
        if l < 0 or l >= c:
            raise IndexError(f"label {l} out of range for {c} classes")

    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    value = float(-np.log(probs[rows, lab]).mean())

    node = Node([[value]], (logits,), op="softmax_cross_entropy")
    if node.requires_grad:
        onehot = np.zeros_like(probs)
        onehot[rows, lab] = 1.0
        def backprop(g, logits=logits, probs=probs, onehot=onehot, b=b):
            logits.accum(g[0, 0] * (probs - onehot) / b)
        node._backprop = backprop
    return LossScalar(value, node)
