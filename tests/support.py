"""Shared test oracles: central finite differences, gradient comparison, and
full-row attention as the reference for ``attention_blocks``."""

from __future__ import annotations

import numpy as np

from xprompt.autograd import Node
from xprompt.errors import ShapeError

FD_EPS = 1e-5


def central_diff(f, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    """Numerical d f() / d x by central differences, perturbing x in place.

    f takes no arguments and must rebuild its forward pass from x on each
    call, so the perturbation is visible.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst relative disagreement; entries tiny next to the matrix scale are
    compared on that absolute scale instead so 0-vs-roundoff does not explode."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4 * scale)
    return float((np.abs(a - b) / denom).max())


def attention(q: Node, k: Node, v: Node, heads: int) -> Node:
    """Multi-head scaled dot-product attention over full (unmasked) rows.

    q is (Tq, e); k and v are (Tk, e); columns split into equal heads.
    """
    if q.cols != k.cols or q.cols != v.cols:
        raise ShapeError(f"attention width mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if k.rows != v.rows:
        raise ShapeError(f"attention needs matching key/value rows: k {k.shape}, v {v.shape}")
    e = q.cols
    if heads < 1 or e % heads != 0:
        raise ShapeError(f"width e={e} does not split into {heads} heads")
    d = e // heads
    scale = 1.0 / np.sqrt(d)

    out_val = np.empty((q.rows, e))
    weights = []
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        scores = (q.value[:, sl] @ k.value[:, sl].T) * scale
        scores -= scores.max(axis=1, keepdims=True)
        ex = np.exp(scores)
        a = ex / ex.sum(axis=1, keepdims=True)
        weights.append(a)
        out_val[:, sl] = a @ v.value[:, sl]

    out = Node(out_val, (q, k, v), op="attention")
    if out.requires_grad:
        def backprop(g, q=q, k=k, v=v, weights=weights, heads=heads, d=d, scale=scale):
            for h in range(heads):
                sl = slice(h * d, (h + 1) * d)
                a = weights[h]
                gh = g[:, sl]
                if v.requires_grad:
                    v.grad  # ensure allocation
                    v._grad[:, sl] += a.T @ gh
                da = gh @ v.value[:, sl].T
                ds = a * (da - (da * a).sum(axis=1, keepdims=True))
                if q.requires_grad:
                    q.grad
                    q._grad[:, sl] += (ds @ k.value[:, sl]) * scale
                if k.requires_grad:
                    k.grad
                    k._grad[:, sl] += (ds.T @ q.value[:, sl]) * scale
        out._backprop = backprop
    return out
