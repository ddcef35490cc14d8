"""Frozen mini-transformer encoder.

The encoder is pretrained once on masked-token prediction, then frozen for
good: prompt tuning trains only the rows prepended in front of the input
embeddings. Architecture: learned token + absolute position embeddings
(real-token positions only; prompt rows are position-free, so the encoder
treats them as a set), post-LN residual blocks (multi-head attention, GELU
FFN of width 4e, each residual sum followed by a layer norm), mean pooling
over the non-prompt positions, and a linear classifier head that stays at
its seeded init (pretraining never touches it).

Every pass packs its sequences into one matrix and is built from whole-pack
ops, so its graph does not grow with the number of sequences. Its last block
runs only on the rows its loss reads (see _encode): the pooled rows of a
prompted pass, each sequence's masked row in pretraining. A prompted pass
differentiates only the prompt: it reads the weights as bb.nodes, the graph
constants freeze() builds once, and adds the position rows to the token
rows in numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import autograd as ag
from .errors import ConfigError, DataError, StateError
from .optim import Adam
from .util import stable_seed

log = logging.getLogger("xprompt.backbone")

INIT_STD = 0.02
MASK_TOKEN = 0
FFN_MULT = 4
PRETRAIN_BATCH = 32
# Sequences per forward pass in predict, with the same logits at any size. A
# pack's graph grows with its rows (128 template dev examples: 2.4 MB traced
# peak in packs of 16, 17 MB in one); time per example stops falling near 16.
PREDICT_CHUNK = 16


@dataclass(frozen=True)
class BackboneConfig:
    vocab_size: int = 64
    embed_dim: int = 64
    layers: int = 2
    heads: int = 4
    max_seq_len: int = 64
    num_classes: int = 2
    seed: int = 0

    def validate(self) -> None:
        if self.vocab_size < 8:
            raise ConfigError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if self.embed_dim < 1 or self.layers < 1 or self.max_seq_len < 2:
            raise ConfigError("embed_dim, layers, max_seq_len must be positive")
        if self.heads < 1 or self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must divide into heads {self.heads}")
        if self.num_classes not in (2, 3):
            raise ConfigError(f"num_classes must be 2 or 3, got {self.num_classes}")


def _weight_shapes(cfg: BackboneConfig) -> dict[str, tuple[int, int]]:
    e = cfg.embed_dim
    f = FFN_MULT * e
    shapes = {
        "tok_emb": (cfg.vocab_size, e),
        "pos_emb": (cfg.max_seq_len, e),
        "head": (e, cfg.num_classes),
    }
    for i in range(cfg.layers):
        shapes |= {
            f"l{i}.ln1_g": (1, e), f"l{i}.ln1_b": (1, e),
            f"l{i}.wq": (e, e), f"l{i}.wk": (e, e),
            f"l{i}.wv": (e, e), f"l{i}.wo": (e, e),
            f"l{i}.ln2_g": (1, e), f"l{i}.ln2_b": (1, e),
            f"l{i}.w1": (e, f), f"l{i}.b1": (1, f),
            f"l{i}.w2": (f, e), f"l{i}.b2": (1, e),
        }
    return shapes


def _is_normal_drawn(name: str) -> bool:
    """Layer-norm gains start at 1 and all biases at 0; the rest are N(0, 0.02^2)."""
    short = name.split(".")[-1]
    return not (short.endswith("_g") or short.endswith("_b") or short in ("b1", "b2"))


@dataclass
class FrozenBackbone:
    cfg: BackboneConfig
    weights: dict[str, np.ndarray]
    frozen: bool = False
    pretrain_losses: list[float] = field(default_factory=list)
    nodes: dict[str, ag.Node] = field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    def freeze(self) -> None:
        for arr in self.weights.values():
            arr.flags.writeable = False
        self.nodes = {name: ag.constant(arr) for name, arr in self.weights.items()}
        self.frozen = True


def init_backbone(cfg: BackboneConfig) -> FrozenBackbone:
    """Seeded init; draw order is the sorted weight-name order, so identical
    configs give bitwise-identical weights."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    weights = {}
    for name, shape in sorted(_weight_shapes(cfg).items()):
        if _is_normal_drawn(name):
            weights[name] = rng.normal(0.0, INIT_STD, size=shape)
        elif name.split(".")[-1].endswith("_g"):
            weights[name] = np.ones(shape)
        else:
            weights[name] = np.zeros(shape)
    return FrozenBackbone(cfg, weights)


# --- forward ------------------------------------------------------------------


def _encode(cfg: BackboneConfig, w: dict[str, ag.Node], h: ag.Node,
            sizes: list[int], rows: np.ndarray) -> ag.Node:
    """Post-LN residual blocks over packed rows that already hold their positions.

    Each sequence is the next sizes[i] rows; attention is block-diagonal,
    every other op is position-wise, so any number of sequences share one
    graph. Normalization comes after each residual sum (post-LN) so that
    scaling an input row stays visible to attention; a pre-LN block would
    normalize row scalings away and leave mask variables with no first-order
    effect in shallow stacks.

    The last block computes only the packed rows given in rows, ascending,
    at least one per sequence, gathered by one embedding_lookup: they alone
    issue queries and carry the residual stream, while keys and values
    still come from every row of the block. This is exact, not an
    approximation: every op but attention is row-wise, and the rows left
    out would feed nothing but outputs nobody reads, so the gradient they
    send back is exactly zero. The bytes match a full-row last block
    wherever BLAS uses one kernel for both row counts. Packs of a few short
    sequences can fall on OpenBLAS's small-matrix kernels, and pretraining's
    weight-gradient products sum over fewer rows, so both can differ in the
    last bits. The result holds the given rows, in their order.
    """
    skip = np.array(sizes) - np.diff(np.searchsorted(rows, list(accumulate(sizes))), prepend=0)
    for i in range(cfg.layers):
        last = i == cfg.layers - 1
        x = ag.embedding_lookup(h, rows) if last else h
        att = ag.attention_blocks(ag.matmul(x, w[f"l{i}.wq"]), ag.matmul(h, w[f"l{i}.wk"]),
                                  ag.matmul(h, w[f"l{i}.wv"]), cfg.heads, sizes,
                                  skip if last else None)
        h = ag.layer_norm(ag.add(x, ag.matmul(att, w[f"l{i}.wo"])),
                          w[f"l{i}.ln1_g"], w[f"l{i}.ln1_b"])
        f = ag.bias_add(ag.matmul(h, w[f"l{i}.w1"]), w[f"l{i}.b1"])
        f = ag.bias_add(ag.matmul(ag.gelu(f), w[f"l{i}.w2"]), w[f"l{i}.b2"])
        h = ag.layer_norm(ag.add(h, f), w[f"l{i}.ln2_g"], w[f"l{i}.ln2_b"])
    return h


def _check_ids(cfg: BackboneConfig, input_ids, prompt_rows_count: int) -> list[int]:
    ids = [int(t) for t in input_ids]
    if not ids:
        raise DataError("empty input sequence")
    total = prompt_rows_count + len(ids)
    if total > cfg.max_seq_len:
        raise DataError(
            f"sequence length {prompt_rows_count}+{len(ids)}={total} exceeds "
            f"max_seq_len {cfg.max_seq_len}")
    for t in ids:
        if t < 0 or t >= cfg.vocab_size:
            raise DataError(f"token id {t} out of range for vocab {cfg.vocab_size}")
    return ids


def forward_batch(bb: FrozenBackbone, prompt_rows: ag.Node, sequences) -> ag.Node:
    """Logits (B, C) for sequences, each with prompt rows prepended.

    The batch is packed into one graph: the prompt node is concatenated
    before every sequence, attention is restricted to per-sequence blocks,
    and each row of the output pools that sequence's non-prompt positions.
    Only those positions run through the last block (see _encode), so one
    block mean pools its whole output. Gradients flow into prompt_rows;
    the frozen weights are the graph constants of bb.nodes.
    """
    return _forward_packed(bb, [prompt_rows] * len(sequences), sequences)


def _forward_packed(bb: FrozenBackbone, prompts: list[ag.Node], sequences) -> ag.Node:
    """forward_batch with prompts[i] prepended to sequences[i]. Given one
    leaf per sequence, each leaf's gradient is its own sequence's share.

    The token rows of the pack, token plus position embedding, enter it as
    numpy constants; prompt rows get no position row (see the module
    docstring)."""
    if not bb.frozen:
        raise StateError("backbone must be frozen before prompted forward passes")
    cfg = bb.cfg
    for prompt in prompts:
        if prompt.cols != cfg.embed_dim:
            raise ConfigError(
                f"prompt width {prompt.cols} != backbone embed_dim {cfg.embed_dim}")
    if not sequences:
        raise DataError("forward_batch needs at least one sequence")

    lens = [prompt.rows for prompt in prompts]
    seqs = [_check_ids(cfg, seq, m) for seq, m in zip(sequences, lens)]
    counts = [len(ids) for ids in seqs]
    positions = np.concatenate([np.arange(n) for n in counts])
    rows = bb.weights["tok_emb"][np.concatenate(seqs)] + bb.weights["pos_emb"][positions]
    parts: list[ag.Node] = []
    for prompt, tokens in zip(prompts, np.split(rows, np.cumsum(counts)[:-1])):
        parts += [prompt, ag.constant(tokens)]
    sizes = [m + n for m, n in zip(lens, counts)]
    pooled = np.concatenate([np.arange(b - n, b) for n, b in zip(counts, accumulate(sizes))])
    h = _encode(cfg, bb.nodes, ag.concat_rows(*parts), sizes, pooled)
    return ag.matmul(ag.mean_pool(h, counts), bb.nodes["head"])


def predict(bb: FrozenBackbone, prompt_values: np.ndarray, dataset) -> list[int]:
    """Argmax class per example (ties resolve to the lowest index), packing
    at most PREDICT_CHUNK sequences into one forward pass."""
    prompt = ag.constant(prompt_values)
    preds: list[int] = []
    for lo in range(0, len(dataset), PREDICT_CHUNK):
        chunk = [ex.tokens for ex in dataset[lo:lo + PREDICT_CHUNK]]
        # only the logits array outlives the statement, so each pack's graph
        # is freed before the next is built
        logits = forward_batch(bb, prompt, chunk).value
        preds += [int(np.argmax(row)) for row in logits]
    return preds


# --- pretraining ----------------------------------------------------------------


def _mlm_loss(bb: FrozenBackbone, w: dict[str, ag.Node], batch, positions) -> ag.LossScalar:
    """Masked-token prediction: replace one position per sequence with the
    mask symbol and predict the original id through the tied embedding."""
    ids = np.concatenate(batch)
    sizes = [len(seq) for seq in batch]
    starts = np.cumsum([0] + sizes[:-1])
    masked = starts + positions
    targets = ids[masked]
    ids[masked] = MASK_TOKEN
    pos = np.arange(len(ids)) - np.repeat(starts, sizes)
    h = _encode(bb.cfg, w, ag.add(ag.embedding_lookup(w["tok_emb"], ids),
                                  ag.embedding_lookup(w["pos_emb"], pos)), sizes, masked)
    logits = ag.matmul(h, ag.transpose(w["tok_emb"]))
    return ag.softmax_cross_entropy(logits, targets)


def pretrain(bb: FrozenBackbone, corpus, steps: int, lr: float) -> FrozenBackbone:
    """Train every weight except the classifier head, then freeze.

    The head has no gradient path under the tied-embedding objective and
    stays at its seeded init. Per-step losses land in bb.pretrain_losses.
    """
    if bb.frozen:
        raise StateError("backbone is already frozen")
    seqs = [tuple(int(t) for t in seq) for seq in corpus]
    if steps > 0 and not seqs:
        raise DataError("pretraining corpus is empty")
    for seq in seqs:
        _check_ids(bb.cfg, seq, 0)

    rng = np.random.default_rng(stable_seed(bb.cfg.seed, "pretrain"))
    opts = {name: Adam() for name in bb.weights if name != "head"}
    warmup = max(1, steps // 10)

    cursor = 0
    for step in range(1, steps + 1):
        if step <= warmup:
            lr_t = lr * step / warmup
        else:
            progress = (step - warmup) / max(1, steps - warmup)
            lr_t = lr * (0.1 + 0.45 * (1.0 + np.cos(np.pi * progress)))
        batch = []
        for _ in range(min(PRETRAIN_BATCH, len(seqs))):
            batch.append(seqs[cursor % len(seqs)])
            cursor += 1
        positions = [int(rng.integers(0, len(seq))) for seq in batch]

        w = {name: ag.leaf(arr) for name, arr in bb.weights.items()}
        loss = _mlm_loss(bb, w, batch, positions)
        ag.backward(loss)
        bb.pretrain_losses.append(loss.value)
        del loss  # w's leaves hold the gradients; free the graph before the next step

        sq = sum(float((w[n].grad * w[n].grad).sum()) for n in opts)
        clip = min(1.0, 1.0 / max(np.sqrt(sq), 1e-12))
        for name, opt in opts.items():
            opt.step(bb.weights[name], w[name].grad * clip, lr_t)

    if steps >= 2 and bb.pretrain_losses[-1] >= bb.pretrain_losses[0]:
        log.warning("pretraining loss did not decrease (%.4f -> %.4f)",
                    bb.pretrain_losses[0], bb.pretrain_losses[-1])
    bb.freeze()
    return bb
