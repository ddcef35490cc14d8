"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value in the graph is a 2-D double-precision array. A graph is built
per forward pass and consumed by a single ``backward`` call; prune masks
enter as ordinary leaves, so their gradients are exact rather than
approximated. Single-threaded evaluation is bitwise deterministic.

Nodes point only at their parents, so a graph lives exactly as long as a
reference to its output (the loss or the logits node). Callers that build
one graph per step keep what they read, the loss value, the leaves'
gradients or the logits array, and drop the output node before they build
the next graph; otherwise two graphs are resident at each step's peak.

``gelu``'s erf is this module's own: a numpy port of Cephes' ``erf`` (the
algorithm behind ``scipy.special.erf``) with its coefficients, its Horner
order and one rounding per step. The ``exp(-x**2)`` of its |x| > 1 branch
is the C library's ``exp``, reached through numpy's complex ``exp`` at zero
imaginary part; numpy's real ``np.exp`` has vector code of its own, whose
results differ in the last bit. Its bytes equal ``scipy.special.erf``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ShapeError, StateError

LAYER_NORM_EPS = 1e-6

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Elements per in-place pass of erf and gelu. Slices this size keep a pass's
# operands in cache, and malloc reuses their scratch, where whole-matrix
# temporaries are often page-faulted in afresh on every call.
_CHUNK = 1 << 14

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1; above that
# erf = 1 - erfc with erfc(x) = exp(-x^2) P(x) / Q(x). U and Q have an
# implied leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


class Node:
    """One vertex of the computation graph: a value plus a gradient slot."""

    __slots__ = ("value", "parents", "requires_grad", "op", "_grad", "_backprop", "_done",
                 "__weakref__")

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


# --- erf --------------------------------------------------------------------


def _polevl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule, into out (Cephes polevl)."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], into out (Cephes p1evl)."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erf_fit(u: np.ndarray, e: np.ndarray, z: np.ndarray, q: np.ndarray,
             big: np.ndarray) -> None:
    """Write Cephes' |u| <= 1 fit u T(u^2) / U(u^2) into e and flag in big
    the elements with |u| > 1, where it does not hold; z and q are scratch,
    and q may be u, which is read before q is written. Huge |u| overflow
    the fit, so run it with over and invalid ignored."""
    np.multiply(u, u, out=z)
    np.greater(z, 1.0, out=big)  # u * u > 1 exactly when |u| > 1
    _polevl(z, _ERF_T, e)
    e *= u
    e /= _p1evl(z, _ERF_U, q)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, as a new float64 array.

    A port of Cephes' erf (see the module docstring): its bytes equal
    scipy.special.erf's, except that a NaN keeps its sign where scipy's is
    always positive. The |x| <= 1 fit runs over all of x in slices of
    _CHUNK elements; the elements with |x| > 1 are then gathered and
    recomputed once.
    """
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    big = np.empty(flat.size, dtype=bool)
    z, q = np.empty(min(flat.size, _CHUNK)), np.empty(min(flat.size, _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _CHUNK):
            s = slice(lo, lo + _CHUNK)
            u = flat[s]
            _erf_fit(u, out[s], z[:u.size], q[:u.size], big[s])
    idx = np.flatnonzero(big)
    if idx.size:
        out[idx] = _erf_big(flat[idx])
    return out.reshape(np.shape(x))


def _erf_big(u: np.ndarray) -> np.ndarray:
    """erf(u) for 1-D u with every |u| > 1: 1 - erfc(|u|), signed like u.

    From |u| = 6 on, erfc < 2^-55 and 1 - erfc rounds to exactly 1, so
    clipping |u| at 6 gives Cephes' result there without its fit for
    |u| >= 8 or its underflow branch, which only erfc itself needs.
    """
    a = np.minimum(np.abs(u), 6.0)
    ez = np.exp((-(a * a)).astype(np.complex128))  # the C library's exp
    p = _polevl(a, _ERFC_P, np.empty_like(a))
    p *= ez.real
    p /= _p1evl(a, _ERFC_Q, np.empty_like(a))
    np.subtract(1.0, p, out=p)
    return np.copysign(p, u, out=p)


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
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    erf is this module's port of Cephes' erf (see the module docstring), so
    its bytes equal scipy.special.erf's. Forward and backward run as
    in-place passes over slices of at most _CHUNK elements that round each
    operation of the plain expressions once, in their order, so every byte
    is theirs; as in erf, the elements with |x / sqrt(2)| > 1 are gathered
    and redone once. The backward reuses the forward's 1 + erf.
    """
    xv = x.value
    flat = xv.reshape(-1)
    y, ope = np.empty_like(flat), np.empty_like(flat)
    big = np.empty(flat.size, dtype=bool)
    z = np.empty(min(flat.size, _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _CHUNK):
            s = slice(lo, lo + _CHUNK)
            xs, e, o = flat[s], ope[s], y[s]
            np.multiply(xs, _INV_SQRT2, out=o)  # o serves as u, then as q
            _erf_fit(o, e, z[:o.size], o, big[s])
            e += 1.0
            np.multiply(xs, 0.5, out=o)
            o *= e
    idx = np.flatnonzero(big)
    if idx.size:
        xt = flat[idx]
        e = _erf_big(xt * _INV_SQRT2)
        e += 1.0
        ope[idx] = e
        xt *= 0.5
        xt *= e
        y[idx] = xt
    out = Node(y.reshape(xv.shape), (x,), op="gelu")
    if out.requires_grad:
        def backprop(g, x=x, flat=flat, ope=ope):
            # local = (0.5 * (1 + erf) + x * exp(-0.5 * x * x) / sqrt(2 pi)) * g;
            # nothing reads ope after this, so it is halved in place
            local, gf = np.empty_like(flat), g.reshape(-1)
            fresh = x._grad is None  # then local becomes the grad
            for lo in range(0, flat.size, _CHUNK):
                s = slice(lo, lo + _CHUNK)
                xs, t, h = flat[s], local[s], ope[s]
                np.multiply(xs, -0.5, out=t)
                t *= xs
                np.exp(t, out=t)
                np.multiply(xs, t, out=t)
                t *= _INV_SQRT2PI
                h *= 0.5
                t += h
                t *= gf[s]
                if fresh:
                    t += 0.0  # as accum's zeros + local: -0.0 + 0.0 = 0.0
            if fresh:
                x._grad = local.reshape(x.shape)
            else:
                x.accum(local.reshape(x.shape))
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
