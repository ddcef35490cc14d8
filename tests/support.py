"""Shared test oracles: central finite differences, gradient comparison,
full-row attention and block-at-a-time attention over (start, stop) row
ranges as the references for ``attention_blocks``, a
scipy-based GELU as the reference for ``gelu``, the masked prompt as a
graph with gamma and zeta leaves as the reference for ``effective_values``
and ``mask_gradients``, the full-row encoder as the reference for
``forward_batch``, ``batch_loss`` and pretraining's ``_mlm_loss``, one pass
per example through the mask leaves as the reference for ``score_tokens``,
per-cell rescoring as the reference for ``hierarchical_prune``, readers of
(gamma, zeta) selection masks, a content hash of backbone weights, and the
acceptance criteria's report lines."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import erf

from xprompt import autograd as ag
from xprompt import backbone as bbm
from xprompt import pruning as pr
from xprompt.autograd import Node
from xprompt.errors import ShapeError
from xprompt.prompt import PromptBank, tune
from xprompt.util import sha256_hex

FD_EPS = 1e-5

# the acceptance criteria's report lines, printed by conftest's terminal summary
CRITERIA: list[str] = []


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
                    v.slot.buffer()[:, sl] += a.T @ gh
                da = gh @ v.value[:, sl].T
                ds = a * (da - (da * a).sum(axis=1, keepdims=True))
                if q.requires_grad:
                    q.slot.buffer()[:, sl] += (ds @ k.value[:, sl]) * scale
                if k.requires_grad:
                    k.slot.buffer()[:, sl] += (ds.T @ q.value[:, sl]) * scale
        out._backprop = backprop
    return out


def per_block_attention(q: Node, k: Node, v: Node, heads: int,
                        bounds: list[tuple[int, int]],
                        queries: list[tuple[int, int]] | None = None) -> Node:
    """Block-diagonal multi-head attention, one block at a time, as the byte
    reference for ``attention_blocks``: rows [a, b) of k and v form a block,
    and queries gives the rows [qa, qb) inside each block that q holds
    (default: every row). Each block is copied head-major on its own, in the
    forward and again in the backward, and its gradients are added into
    zeroed buffers."""
    e = q.cols
    d = e // heads
    scale = 1.0 / np.sqrt(d)
    queries = bounds if queries is None else queries
    starts = np.cumsum([0] + [qb - qa for qa, qb in queries])
    blocks = [((c, c + qb - qa), ab) for c, (qa, qb), ab in zip(starts, queries, bounds)]

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

    out = Node(out_val, (q, k, v), op="per_block_attention")
    if out.requires_grad:
        def backprop(g, q=q, k=k, v=v):
            for ((qa, qb), (a, b)), att in zip(blocks, weights):
                gh = heads_first(g, qa, qb)
                if v.requires_grad:
                    dv = att.transpose(0, 2, 1) @ gh
                    v.slot.buffer()[a:b] += dv.transpose(1, 0, 2).reshape(b - a, e)
                da = gh @ heads_first(v.value, a, b).transpose(0, 2, 1)
                ds = att * (da - (da * att).sum(axis=2, keepdims=True))
                if q.requires_grad:
                    dq = (ds @ heads_first(k.value, a, b)) * scale
                    q.slot.buffer()[qa:qb] += dq.transpose(1, 0, 2).reshape(qb - qa, e)
                if k.requires_grad:
                    dk = (ds.transpose(0, 2, 1) @ heads_first(q.value, qa, qb)) * scale
                    k.slot.buffer()[a:b] += dk.transpose(1, 0, 2).reshape(b - a, e)
        out._backprop = backprop
    return out


def gelu(x: Node) -> Node:
    """Exact-erf GELU over whole matrices with scipy's erf, as the reference
    for ``autograd.gelu``: the same expressions, so the same bytes."""
    xv = x.value
    e = erf(xv * (1.0 / np.sqrt(2.0)))
    out = Node(0.5 * xv * (1.0 + e), (x,), op="gelu")
    if out.requires_grad:
        def backprop(g, x=x, xv=xv, e=e):
            local = 0.5 * (1.0 + e) + xv * np.exp(-0.5 * xv * xv) * (1.0 / np.sqrt(2.0 * np.pi))
            x.slot.accum(g * local)
        out._backprop = backprop
    return out


def _encode_full_rows(cfg, w, h, sizes):
    """Every block, the last one too, run on every packed row."""
    for i in range(cfg.layers):
        att = ag.attention_blocks(ag.matmul(h, w[f"l{i}.wq"]), ag.matmul(h, w[f"l{i}.wk"]),
                                  ag.matmul(h, w[f"l{i}.wv"]), cfg.heads, sizes)
        h = ag.layer_norm(ag.add(h, ag.matmul(att, w[f"l{i}.wo"])),
                          w[f"l{i}.ln1_g"], w[f"l{i}.ln1_b"])
        f = ag.bias_add(ag.matmul(h, w[f"l{i}.w1"]), w[f"l{i}.b1"])
        f = ag.bias_add(ag.matmul(ag.gelu(f), w[f"l{i}.w2"]), w[f"l{i}.b2"])
        h = ag.layer_norm(ag.add(h, f), w[f"l{i}.ln2_g"], w[f"l{i}.ln2_b"])
    return h


def forward_batch_full_rows(bb, prompt_rows, sequences):
    """forward_batch with every block, the last one too, run on every packed
    row; the logits then pool each sequence's non-prompt rows."""
    cfg = bb.cfg
    w = bb.nodes
    m = prompt_rows.rows
    parts, pos_ids, live = [], [], []
    sizes = [m + len(seq) for seq in sequences]
    for seq in sequences:
        if m > 0:
            parts.append(prompt_rows)
        parts.append(ag.embedding_lookup(w["tok_emb"], seq))
        pos_ids += [0] * m + list(range(len(seq)))
        live += [0.0] * m + [1.0] * len(seq)
    pos = ag.embedding_lookup(w["pos_emb"], pos_ids)
    if m > 0:
        pos = ag.rowwise_scale(pos, ag.constant(np.array(live)[:, None]))
    h = _encode_full_rows(cfg, w, ag.add(ag.concat_rows(*parts), pos), sizes)
    tokens = np.flatnonzero(live)
    pooled = ag.mean_pool(ag.embedding_lookup(h, tokens), [len(seq) for seq in sequences])
    return ag.matmul(pooled, w["head"])


def mlm_loss_full_rows(bb, w, batch, positions):
    """_mlm_loss with every block, the last one too, run on every packed row;
    the masked rows are gathered from the last block's output."""
    ids = np.concatenate(batch)
    sizes = [len(seq) for seq in batch]
    starts = np.cumsum([0] + sizes[:-1])
    masked = starts + positions
    targets = ids[masked]
    ids[masked] = bbm.MASK_TOKEN
    pos = np.arange(len(ids)) - np.repeat(starts, sizes)
    h = _encode_full_rows(bb.cfg, w, ag.add(ag.embedding_lookup(w["tok_emb"], ids),
                                            ag.embedding_lookup(w["pos_emb"], pos)), sizes)
    logits = ag.matmul(ag.embedding_lookup(h, masked), ag.transpose(w["tok_emb"]))
    return ag.softmax_cross_entropy(logits, targets)


class MaskedGraph(NamedTuple):
    """Leaves and output of the masked prompt built as a graph."""

    prompt: Node      # (m, e) leaf over P
    token_mask: Node  # (m, 1) leaf, gamma
    piece_mask: Node  # (m, k) leaf, zeta
    output: Node      # (m, e) blockwise(rowwise(P, gamma), zeta)


def masked_graph(bank) -> MaskedGraph:
    """The masked prompt with both masks as leaves, so backward gives the
    batch's mask gradients through ``rowwise_scale`` and ``blockwise_scale``,
    a path ``mask_gradients`` does not share."""
    prompt = ag.leaf(bank.p, op="prompt")
    gamma = ag.leaf(bank.token_mask[:, None].copy(), op="token_mask")
    zeta = ag.leaf(bank.piece_mask.copy(), op="piece_mask")
    return MaskedGraph(prompt, gamma, zeta,
                       ag.blockwise_scale(ag.rowwise_scale(prompt, gamma), zeta))


def masked_batch_loss(bank, bb, batch, forward=bbm.forward_batch):
    """The mean batch loss through masked_graph, and the graph."""
    g = masked_graph(bank)
    logits = forward(bb, g.output, [ex.tokens for ex in batch])
    return ag.softmax_cross_entropy(logits, [ex.label for ex in batch]), g


def batch_loss_full_rows(bank, bb, batch):
    """masked_batch_loss through forward_batch_full_rows."""
    return masked_batch_loss(bank, bb, batch, forward=forward_batch_full_rows)


def score_per_example(bank, bb, train) -> pr.ImportanceReport:
    """score_tokens one example at a time: a masked_batch_loss and backward
    per example, then the means of the absolute mask gradients."""
    tok, pc = np.zeros(bank.m), np.zeros((bank.m, bank.k))
    for ex in train:
        loss, g = masked_batch_loss(bank, bb, [ex])
        ag.backward(loss)
        tok += np.abs(g.token_mask.grad[:, 0])
        pc += np.abs(g.piece_mask.grad)
    token_live = bank.token_mask > 0
    piece_live = token_live[:, None] & (bank.piece_mask > 0)
    return pr.ImportanceReport(np.where(token_live, tok / len(train), 0.0),
                               np.where(piece_live, pc / len(train), 0.0),
                               token_live, piece_live, len(train))


def hierarchical_prune(bank, bb, train, dev, sched, retrain_epochs,
                       learning_rate=0.05, weight_decay=1e-5, batch_size=16, seed=0):
    """Grid search that rescores tokens and pieces from scratch in every cell.

    Each cell assigns the prompt the call was given back into the bank's own
    arrays with all-ones masks, scores tokens, installs the token selection,
    scores pieces, then installs the cell's masks and retrains: two sweeps per
    cell and no state shared between cells. Each cell keeps a snapshot of its
    retrained bank, and the bank ends in the best cell's state. seed seeds the
    selections and the retraining.
    """
    def install(values, gamma, zeta):
        bank.p[:], bank.token_mask[:], bank.piece_mask[:] = values, gamma, zeta

    cells = []
    best = None
    start = bank.p.copy()
    for t_ratio in sched.token_ratios:
        for p_ratio in sched.piece_ratios:
            install(start, 1.0, 1.0)
            token_report = pr.score_tokens(bank, bb, train, batch_size=batch_size)
            token_sel = pr.select_tokens(token_report, t_ratio, sched.rule, seed)
            install(start, *token_sel)
            piece_report = pr.score_tokens(bank, bb, train, batch_size=batch_size)
            selection = pr.select_pieces(piece_report, p_ratio, sched.rule, seed)
            install(start, *selection)
            kept_params = int(bank.effective_mask().sum())
            retrain = tune(bank, bb, train, dev, retrain_epochs, learning_rate, weight_decay,
                           batch_size=batch_size, seed=seed)
            snapshot = PromptBank(bank.p.copy(), bank.token_mask.copy(),
                                  bank.piece_mask.copy(), bank.k)
            cell = pr.CellResult(t_ratio, p_ratio, snapshot, retrain.best_dev_acc,
                                 kept_params, retrain,
                                 token_report=token_report, piece_report=piece_report)
            cells.append(cell)
            rank = (-cell.dev_acc, cell.kept_params, t_ratio, p_ratio)
            if best is None or rank < (-best.dev_acc, best.kept_params,
                                       best.token_ratio, best.piece_ratio):
                best = cell
    install(best.bank.p, best.bank.token_mask, best.bank.piece_mask)
    return pr.PruneResult(best, cells)


def kept_tokens(masks) -> set[int]:
    """Indices of the tokens a (gamma, zeta) selection keeps."""
    return {int(i) for i in np.flatnonzero(masks[0] > 0)}


def same_masks(a, b) -> bool:
    """Two (gamma, zeta) selections hold equal masks."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def weight_hash(bb) -> str:
    """sha256 over the backbone's weight names and float64 bytes, in name order."""
    return sha256_hex(b"".join(
        name.encode() + np.ascontiguousarray(bb.weights[name], dtype="<f8").tobytes()
        for name in sorted(bb.weights)))
