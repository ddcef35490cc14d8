"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value in the graph is a 2-D double-precision array. A graph is built
per forward pass and consumed by a single ``backward`` call. Single-threaded
evaluation is bitwise deterministic.

A node is two parts. Its value belongs to the code that builds the graph
and lives only as long as that code holds the node. Its gradient slot
(``Slot``: the gradient, the backward closure and the parents' slots)
exists only where a gradient is needed, and is all the graph links to.
Each op's closure saves exactly the arrays its backward reads: ``matmul``
keeps ``b``'s value only when ``a`` needs a gradient, and ``a``'s only when
``b`` does; ``add``, ``bias_add`` and ``transpose`` keep none; ``gelu``
keeps its input and its 1 + erf; ``layer_norm`` keeps its normalized input
and inverse deviations, not its input or output. So a forward value that
no backward reads is freed as soon as the forward code drops its node, and
a graph with no gradient holds no values at all. The slots live as long as
a reference to the output (the loss or the logits node); callers that build
one graph per step keep what they read, the loss value, the leaves'
gradients or the logits array, and drop the output node before they build
the next graph; otherwise two graphs are resident at each step's peak.

``erf`` is this module's own, and ``gelu`` takes its erf from it: a numpy
port of Cephes' ``erf`` (the algorithm behind ``scipy.special.erf``) with
its coefficients, its Horner order and one rounding per step. The
``exp(-x**2)`` of its |x| > 1 branch is the C library's ``exp``, reached
through numpy's complex ``exp`` at zero imaginary part; numpy's real
``np.exp`` has vector code of its own, whose results differ in the last
bit. Its bytes equal ``scipy.special.erf``'s.

Packed passes use whole-pack ops, so a graph does not grow with its number
of sequences: ``embedding_lookup`` is the one row gather, of token ids or
of any rows, and ``mean_pool`` gives one row mean per block of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ShapeError, StateError

LAYER_NORM_EPS = 1e-6

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Elements per in-place pass of erf. Slices this size keep a pass's
# operands in cache, and malloc reuses their scratch, where whole-matrix
# temporaries are often page-faulted in afresh on every call.
_CHUNK = 1 << 14
# Elements per pass of gelu's backward. Its scratch buffer adds to the
# backward's peak memory, so it is half of _CHUNK, at a few percent of the
# pass's speed.
_GRAD_CHUNK = 1 << 13

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


class Slot:
    """The part of a node that the graph links to: the gradient, the closure
    that sends it on to the parents, and the parents' slots (those of the
    parents that need a gradient, in parent order)."""

    __slots__ = ("shape", "parents", "grad", "backprop", "spent")

    def __init__(self, shape: tuple[int, int], parents: tuple["Slot", ...]):
        self.shape = shape
        self.parents = parents
        self.grad: np.ndarray | None = None
        self.backprop = None
        self.spent = False  # set once backward has run through this slot

    def buffer(self) -> np.ndarray:
        """The gradient array, zeros until something accumulates into it."""
        if self.grad is None:
            if self.spent:
                raise StateError("backward consumed this interior gradient; "
                                 "only leaves keep theirs")
            self.grad = np.zeros(self.shape)
        return self.grad

    def accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into the gradient. An owned g is a new array that nothing
        else holds; the first one becomes the gradient itself, after an
        in-place g + 0.0, which equals zeros + g bit for bit (-0.0 turns into
        0.0 either way), so no zeros or second copy are made."""
        if owned and self.grad is None and not self.spent:
            g += 0.0
            self.grad = g
        else:
            self.buffer()
            self.grad += g


class Node:
    """One vertex of the computation graph: a value, plus a gradient slot when
    a leaf below it requires a gradient (see the module docstring)."""

    __slots__ = ("value", "op", "slot", "__weakref__")

    def __init__(self, value, parents=(), requires_grad=False, op="leaf"):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"graph nodes hold 2-D matrices, got shape {arr.shape}")
        self.value = arr
        self.op = op
        links = tuple(p.slot for p in parents if p.slot is not None)
        self.slot = Slot(arr.shape, links) if requires_grad or links else None

    @property
    def requires_grad(self) -> bool:
        return self.slot is not None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def _need_slot(self) -> Slot:
        if self.slot is None:
            raise StateError(f"this {self.op} node does not require a gradient")
        return self.slot

    @property
    def grad(self) -> np.ndarray:
        """Accumulated d(loss)/d(value); zeros until backward reaches this node.

        Backward consumes interior gradients, so after it only leaves have one;
        reading an interior node's raises StateError.
        """
        return self._need_slot().buffer()

    @property
    def _backprop(self):
        return None if self.slot is None else self.slot.backprop

    @_backprop.setter
    def _backprop(self, fn) -> None:
        self._need_slot().backprop = fn

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
    """A leaf with no gradient slot (frozen weights, mask-free data)."""
    return Node(value, requires_grad=False, op=op)


def backward(loss: LossScalar | Node) -> None:
    """Run reverse-mode accumulation from a 1x1 loss node.

    Only slots take part: each op's closure holds the few arrays it reads
    (see the module docstring), never the nodes. Backward consumes the
    graph: right after an interior slot sends its gradient to its parents,
    it drops that gradient, its closure and its parent links, so the arrays
    they held are freed as it goes. Leaves keep their gradients; an interior
    node's ``grad`` raises StateError afterwards. Each graph supports exactly
    one backward pass; rebuild the forward graph before differentiating
    again.
    """
    node = loss.node if isinstance(loss, LossScalar) else loss
    if node.shape != (1, 1):
        raise ShapeError(f"backward starts from a 1x1 loss node, got shape {node.shape}")
    root = node.slot
    if root is None:
        raise StateError("backward needs a loss that depends on a leaf requiring a gradient")
    if root.spent:
        raise StateError("backward already ran on this graph; rebuild the forward pass first")

    # Iterative post-order over the slots; reversed, it is a topological
    # order, so every slot's grad is complete before its backprop runs.
    order: list[Slot] = []
    visited: set[int] = set()
    stack: list[tuple[Slot, bool]] = [(root, False)]
    while stack:
        s, expanded = stack.pop()
        if expanded:
            order.append(s)
            continue
        if id(s) in visited:
            continue
        visited.add(id(s))
        stack.append((s, True))
        for p in s.parents:
            if id(p) not in visited:
                stack.append((p, False))

    root.accum(np.ones((1, 1)))
    root.spent = True
    for s in reversed(order):
        if s.backprop is not None:
            s.backprop(s.buffer())
            s.grad = s.backprop = None
            s.parents = ()
            s.spent = True


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


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, as a new float64 array.

    A port of Cephes' erf (see the module docstring): its bytes equal
    scipy.special.erf's, except that a NaN keeps its sign where scipy's is
    always positive. The |x| <= 1 fit x T(x^2) / U(x^2) runs over all of x
    in slices of _CHUNK elements, with over and invalid ignored, since huge
    |x| overflow it; the elements with |x| > 1 are then gathered and
    recomputed once.
    """
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    big = np.empty(flat.size, dtype=bool)
    z, q = np.empty(min(flat.size, _CHUNK)), np.empty(min(flat.size, _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _CHUNK):
            s = slice(lo, lo + _CHUNK)
            u, e = flat[s], out[s]
            zs = z[:u.size]
            np.multiply(u, u, out=zs)
            np.greater(zs, 1.0, out=big[s])  # u * u > 1 exactly when |u| > 1
            _polevl(zs, _ERF_T, e)
            e *= u
            e /= _p1evl(zs, _ERF_U, q[:u.size])
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
        sa, sb = a.slot, b.slot
        av = a.value if sb is not None else None
        bv = b.value if sa is not None else None
        def backprop(g):
            if sa is not None:
                sa.accum(g @ bv.T, owned=True)
            if sb is not None:
                sb.accum(av.T @ g, owned=True)
        out.slot.backprop = backprop
    return out


def add(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes: {a.shape} vs {b.shape}")
    out = Node(a.value + b.value, (a, b), op="add")
    if out.requires_grad:
        sa, sb = a.slot, b.slot
        def backprop(g):
            # g is this node's own gradient, so one parent may adopt it
            if sa is not None:
                sa.accum(g, owned=True)
            if sb is not None:
                sb.accum(g, owned=sa is None)
        out.slot.backprop = backprop
    return out


def bias_add(x: Node, b: Node) -> Node:
    """x (T,n) + b (1,n), broadcast down the rows."""
    if b.rows != 1 or b.cols != x.cols:
        raise ShapeError(f"bias_add needs a (1,{x.cols}) bias, got {b.shape} for x {x.shape}")
    out = Node(x.value + b.value, (x, b), op="bias_add")
    if out.requires_grad:
        sx, sb = x.slot, b.slot
        def backprop(g):
            if sb is not None:
                sb.accum(g.sum(axis=0, keepdims=True), owned=True)
            if sx is not None:
                sx.accum(g, owned=True)
        out.slot.backprop = backprop
    return out


def transpose(x: Node) -> Node:
    out = Node(x.value.T.copy(), (x,), op="transpose")
    if out.requires_grad:
        sx = x.slot
        def backprop(g):
            sx.accum(g.T)
        out.slot.backprop = backprop
    return out


def rowwise_scale(x: Node, s: Node) -> Node:
    """Scale row i of x by s[i, 0]; s.grad[i] += sum_j out.grad[i, j] * x[i, j].
    The token-importance gradient has this form; pruning.mask_gradients
    computes it from the masked prompt's gradient."""
    if s.cols != 1 or s.rows != x.rows:
        raise ShapeError(f"rowwise_scale needs s of shape ({x.rows},1), got {s.shape} for x {x.shape}")
    out = Node(x.value * s.value, (x, s), op="rowwise_scale")
    if out.requires_grad:
        sx, ss = x.slot, s.slot
        xv = x.value if ss is not None else None
        sv = s.value if sx is not None else None
        def backprop(g):
            if sx is not None:
                sx.accum(g * sv, owned=True)
            if ss is not None:
                ss.accum((g * xv).sum(axis=1, keepdims=True), owned=True)
        out.slot.backprop = backprop
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
        sx, sz = x.slot, z.slot
        xv = x.value if sz is not None else None
        ev = expanded if sx is not None else None
        def backprop(g):
            if sx is not None:
                sx.accum(g * ev, owned=True)
            if sz is not None:
                sz.accum((g * xv).reshape(m, k, w).sum(axis=2), owned=True)
        out.slot.backprop = backprop
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
        spans = [(p.slot, lo, hi) for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])
                 if p.slot is not None]
        def backprop(g):
            for sp, lo, hi in spans:
                sp.accum(g[lo:hi])
        out.slot.backprop = backprop
    return out


def embedding_lookup(table: Node, ids) -> Node:
    """Gather rows of table by integer id, in the order given: token ids, or
    any rows of a matrix. Duplicate ids accumulate gradient."""
    idx = np.asarray(ids, dtype=np.intp).reshape(-1)
    bad = (idx < 0) | (idx >= table.rows)
    if bad.any():
        raise IndexError(f"token id {idx[bad.argmax()]} out of range for a "
                         f"{table.rows}-row table")
    out = Node(table.value[idx], (table,), op="embedding_lookup")
    if out.requires_grad:
        st = table.slot
        def backprop(g):
            np.add.at(st.buffer(), idx, g)
        out.slot.backprop = backprop
    return out


def mean_pool(x: Node, sizes=None) -> Node:
    """One row mean per block, for consecutive blocks of sizes[i] rows that
    tile x (default: one block of every row). Each block is summed by
    np.add.reduce, as ndarray.mean sums, so the bytes are those of
    x[a:b].mean(axis=0); np.add.reduceat sums in another order."""
    sizes = [x.rows] if sizes is None else [int(n) for n in sizes]
    if not sizes or min(sizes) < 1 or sum(sizes) != x.rows:
        raise ShapeError(f"mean_pool blocks {sizes} must be non-empty and tile {x.rows} rows")
    n = np.array(sizes)[:, None]
    sums = [np.add.reduce(x.value[b - k:b], axis=0) for k, b in zip(sizes, accumulate(sizes))]
    out = Node(np.stack(sums) / n, (x,), op="mean_pool")
    if out.requires_grad:
        sx = x.slot
        def backprop(g):
            sx.accum(np.repeat(g / n, sizes, axis=0), owned=True)
        out.slot.backprop = backprop
    return out


def gelu(x: Node) -> Node:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    erf is this module's port of Cephes' erf (see the module docstring), so
    its bytes equal scipy.special.erf's. The forward rounds each operation
    of the plain expression once, in its order, so every byte is its. The
    backward runs as in-place passes over slices of at most _GRAD_CHUNK
    elements; it reuses the forward's 1 + erf and writes the input's
    gradient over it.
    """
    xv = x.value
    ope = erf(xv * _INV_SQRT2)
    ope += 1.0
    y = xv * 0.5
    y *= ope
    out = Node(y, (x,), op="gelu")
    if out.requires_grad:
        sx = x.slot
        flat, hf = xv.reshape(-1), ope.reshape(-1)
        def backprop(g):
            # (0.5 * (1 + erf) + x * exp(-0.5 * x * x) / sqrt(2 pi)) * g, written
            # over ope, which nothing reads after this; + and * commute exactly
            gf, t = g.reshape(-1), np.empty(min(flat.size, _GRAD_CHUNK))
            for lo in range(0, flat.size, _GRAD_CHUNK):
                s = slice(lo, lo + _GRAD_CHUNK)
                xs, h = flat[s], hf[s]
                u = t[:xs.size]
                np.multiply(xs, -0.5, out=u)
                u *= xs
                np.exp(u, out=u)
                np.multiply(xs, u, out=u)
                u *= _INV_SQRT2PI
                h *= 0.5
                h += u
                h *= gf[s]
            sx.accum(ope, owned=True)
        out.slot.backprop = backprop
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
        sx, sg, sb = x.slot, gain.slot, bias.slot
        gv = gain.value
        def backprop(g):
            if sb is not None:
                sb.accum(g.sum(axis=0, keepdims=True), owned=True)
            if sg is not None:
                sg.accum((g * xhat).sum(axis=0, keepdims=True), owned=True)
            if sx is not None:
                # istd * (dxhat - m1 - xhat * m2), in place in two buffers
                dxhat = g * gv
                m1 = dxhat.mean(axis=1, keepdims=True)
                t = dxhat * xhat
                m2 = t.mean(axis=1, keepdims=True)
                dxhat -= m1
                dxhat -= np.multiply(xhat, m2, out=t)
                dxhat *= istd
                sx.accum(dxhat, owned=True)
        out.slot.backprop = backprop
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
        sq, sk, sv = q.slot, k.slot, v.slot
        qv = q.value if sk is not None else None
        kv = k.value if sq is not None else None
        vv = v.value if sq is not None or sk is not None else None
        def backprop(g):
            for ((qa, qb), (a, b)), att in zip(blocks, weights):
                gh = heads_first(g, qa, qb)
                if sv is not None:
                    dv = att.transpose(0, 2, 1) @ gh
                    sv.buffer()[a:b] += dv.transpose(1, 0, 2).reshape(b - a, e)
                if vv is None:
                    continue
                da = gh @ heads_first(vv, a, b).transpose(0, 2, 1)
                ds = att * (da - (da * att).sum(axis=2, keepdims=True))
                if sq is not None:
                    dq = (ds @ heads_first(kv, a, b)) * scale
                    sq.buffer()[qa:qb] += dq.transpose(1, 0, 2).reshape(qb - qa, e)
                if sk is not None:
                    dk = (ds.transpose(0, 2, 1) @ heads_first(qv, qa, qb)) * scale
                    sk.buffer()[a:b] += dk.transpose(1, 0, 2).reshape(b - a, e)
        out.slot.backprop = backprop
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
        sl = logits.slot
        def backprop(g):
            sl.accum(g[0, 0] * (probs - onehot) / b, owned=True)
        node.slot.backprop = backprop
    return LossScalar(value, node)
