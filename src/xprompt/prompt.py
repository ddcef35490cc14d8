"""Trainable soft prompt: an (m, e) matrix with token and piece masks.

The prompt starts from m distinct vocabulary rows of the backbone's token
embedding, sampled with a seed (init_prompt), as in Lester et al. (2021).
The masks meet the prompt in one place, in numpy: effective_values gives
P * gamma * zeta, the masked prompt that every prompted pass starts from.
Tuning trains one leaf over it, and every tune call builds its own
optimizer, which steps only live entries; the signed mask gradients come
from pruning.mask_gradients.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .backbone import FrozenBackbone, forward_batch, predict
from .errors import ConfigError, DataError, ShapeError
from .optim import AdafactorLite
from .tasks import accuracy
from .util import stable_seed

log = logging.getLogger("xprompt.prompt")

DEFAULT_BATCH = 16


@dataclass
class PromptBank:
    p: np.ndarray                 # (m, e)
    token_mask: np.ndarray        # (m,) of 0/1
    piece_mask: np.ndarray        # (m, k) of 0/1
    k: int

    @property
    def m(self) -> int:
        return self.p.shape[0]

    @property
    def e(self) -> int:
        return self.p.shape[1]

    def effective_mask(self) -> np.ndarray:
        """(m, e) 0/1 matrix: entry live iff its token and piece are both live."""
        w = self.e // self.k
        return self.token_mask[:, None] * np.repeat(self.piece_mask, w, axis=1)

    def effective_values(self) -> np.ndarray:
        return self.p * self.effective_mask()

    def with_masks(self, selection) -> "PromptBank":
        """A new bank: a copy of p under a copy of selection's (gamma (m,), zeta
        (m, k)) masks, so writing to either bank leaves the other as it was."""
        gamma, zeta = selection
        if (gamma.shape, zeta.shape) != ((self.m,), (self.m, self.k)):
            raise ConfigError(f"selection masks {gamma.shape} and {zeta.shape} do not "
                              f"match bank ({self.m}, {self.k})")
        return PromptBank(p=self.p.copy(), token_mask=gamma.astype(float),
                          piece_mask=zeta.astype(float), k=self.k)

    def copy(self) -> "PromptBank":
        return self.with_masks((self.token_mask, self.piece_mask))


def init_prompt(m: int, e: int, k: int, seed: int, bb: FrozenBackbone) -> PromptBank:
    """Fresh bank with all-ones masks whose prompt is m distinct rows of
    bb's token embedding, drawn from default_rng(seed) (the sampled
    vocabulary initialization of Lester et al., 2021)."""
    if m < 1:
        raise ConfigError(f"prompt length m must be >= 1, got {m}")
    if e != bb.cfg.embed_dim:
        raise ConfigError(f"prompt width {e} != backbone embed_dim {bb.cfg.embed_dim}")
    if k < 1 or e % k != 0:
        raise ShapeError(f"embedding width e={e} does not split into k={k} pieces (e mod k = {e % k})")
    if m > bb.cfg.vocab_size:
        raise ConfigError(f"cannot sample {m} distinct vocabulary rows from {bb.cfg.vocab_size}")

    idx = np.random.default_rng(seed).choice(bb.cfg.vocab_size, size=m, replace=False)
    p = bb.weights["tok_emb"][idx].copy()
    return PromptBank(p=p, token_mask=np.ones(m), piece_mask=np.ones((m, k)), k=k)


def evaluate(bank: PromptBank, bb: FrozenBackbone, dataset) -> float:
    """Dev accuracy under the current masked prompt values."""
    if not dataset:
        raise DataError("cannot evaluate on an empty dataset")
    preds = predict(bb, bank.effective_values(), dataset)
    return accuracy(preds, [ex.label for ex in dataset])


def batch_loss(bank: PromptBank, bb: FrozenBackbone, batch) -> tuple[ag.LossScalar, ag.Node]:
    """One shared graph over a batch: stacked per-example logits -> mean CE.
    Returns the loss and its one leaf, over the masked prompt values."""
    leaf = ag.leaf(bank.effective_values(), op="prompt")
    logits = forward_batch(bb, leaf, [ex.tokens for ex in batch])
    return ag.softmax_cross_entropy(logits, [ex.label for ex in batch]), leaf


@dataclass
class TuneResult:
    best_dev_acc: float
    best_epoch: int            # 0 means the untuned bank won
    steps: int
    losses: list[float] = field(default_factory=list)
    dev_history: list[float] = field(default_factory=list)


def tune(bank: PromptBank, bb: FrozenBackbone, train, dev, epochs: int, lr: float,
         weight_decay: float = 0.0, batch_size: int = DEFAULT_BATCH,
         seed: int = 0) -> TuneResult:
    """Stage-style prompt tuning with best-dev checkpointing, by a fresh
    AdafactorLite(weight_decay) that each call builds for itself.

    The dev set is scored before any update and after every epoch; the best
    checkpoint (ties to the earliest) is restored into the bank at the end.
    Only the prompt moves: backbone weights are graph constants, and the
    optimizer steps only live entries, so dead ones are bitwise unchanged.
    """
    if not 0 < lr < np.inf:
        raise ConfigError(f"lr must be positive and finite, got {lr}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not train:
        raise DataError("cannot tune on an empty training set")

    opt = AdafactorLite(weight_decay)
    mask = bank.effective_mask()
    best_acc = evaluate(bank, bb, dev)
    best_epoch = 0
    best_p = bank.p.copy()
    result = TuneResult(best_acc, 0, 0, dev_history=[best_acc])

    n = len(train)
    for epoch in range(1, epochs + 1):
        # cosine anneal from lr to 0.1 * lr over the stage; damps late oscillation
        lr_t = lr * (0.1 + 0.45 * (1.0 + np.cos(np.pi * (epoch - 1) / max(1, epochs - 1))))
        order = np.random.default_rng(stable_seed(seed, "shuffle", epoch)).permutation(n)
        for lo in range(0, n, batch_size):
            batch = [train[int(i)] for i in order[lo:lo + batch_size]]
            loss, leaf = batch_loss(bank, bb, batch)
            ag.backward(loss)
            result.losses.append(loss.value)
            del loss  # the leaf keeps its gradient; the graph above it goes now
            opt.step(bank.p, leaf.grad, mask, lr_t)
            result.steps += 1
        acc = evaluate(bank, bb, dev)
        result.dev_history.append(acc)
        log.debug("epoch %d: dev=%.4f loss=%.4f", epoch, acc, result.losses[-1])
        if acc > best_acc:
            best_acc, best_epoch, best_p = acc, epoch, bank.p.copy()

    bank.p[:] = best_p
    result.best_dev_acc = best_acc
    result.best_epoch = best_epoch
    return result
