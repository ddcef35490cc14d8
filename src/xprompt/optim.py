"""Optimizers for the prompt matrix; backbone pretraining steps Adam too,
with an all-ones mask.

All three step rules update only live entries: the masked-graph gradient is
already exactly zero on dead cells, and the final step is multiplied by the
effective mask besides, so a masked entry is bitwise untouched (no decay
either).

AdafactorLite keeps factored second moments (one row vector, one column
vector) like the full optimizer, but no first moment, a constant learning
rate, and update-RMS clipping at 1.0. Its statistics are computed over live
cells only: dead cells are excluded from both numerators and divisors, so a
fully masked row or column behaves exactly as if it were deleted from the
matrix, and masking in one row cannot alter the step taken by another.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

EPS_ACCUM = 1e-30
CLIP_THRESHOLD = 1.0
DECAY_EXPONENT = -0.8

KINDS = ("adafactor", "adam", "sgd")


class OptimizerState:
    """Base: holds hyperparameters and the step counter; subclasses own slots."""

    def __init__(self, learning_rate: float, weight_decay: float = 0.0):
        if learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.lr_scale = 1.0  # stage engines may anneal this between epochs
        self.step_count = 0

    @property
    def effective_lr(self) -> float:
        return self.learning_rate * self.lr_scale

    def reset(self) -> None:
        self.step_count = 0
        self.lr_scale = 1.0

    def step(self, p: np.ndarray, grad: np.ndarray, mask: np.ndarray) -> None:
        raise NotImplementedError


class AdafactorLite(OptimizerState):
    def __init__(self, learning_rate: float, weight_decay: float = 0.0):
        super().__init__(learning_rate, weight_decay)
        self.row_accum: np.ndarray | None = None
        self.col_accum: np.ndarray | None = None

    def reset(self) -> None:
        super().reset()
        self.row_accum = None
        self.col_accum = None

    def step(self, p, grad, mask):
        m, e = p.shape
        if self.row_accum is None:
            self.row_accum = np.zeros(m)
            self.col_accum = np.zeros(e)
        self.step_count += 1
        beta = 1.0 - self.step_count ** DECAY_EXPONENT

        live = mask > 0
        row_n = live.sum(axis=1)
        col_n = live.sum(axis=0)
        live_rows = row_n > 0
        live_cols = col_n > 0
        if not live_rows.any():
            return

        g2 = (grad * grad + EPS_ACCUM) * live
        row_mean = g2.sum(axis=1)[live_rows] / row_n[live_rows]
        col_mean = g2.sum(axis=0)[live_cols] / col_n[live_cols]
        self.row_accum[live_rows] = beta * self.row_accum[live_rows] + (1 - beta) * row_mean
        self.col_accum[live_cols] = beta * self.col_accum[live_cols] + (1 - beta) * col_mean

        mean_row_accum = self.row_accum[live_rows].mean()
        precond = np.outer(self.row_accum, self.col_accum) / mean_row_accum
        update = np.zeros_like(grad)
        np.divide(grad, np.sqrt(precond), out=update, where=live)

        rms = np.sqrt((update * update).sum() / live.sum())
        update *= 1.0 / max(1.0, rms / CLIP_THRESHOLD)

        if self.weight_decay:
            p -= self.effective_lr * self.weight_decay * (p * live)
        p -= self.effective_lr * (update * live)


class Adam(OptimizerState):
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float, weight_decay: float = 0.0):
        super().__init__(learning_rate, weight_decay)
        self.m1: np.ndarray | None = None
        self.m2: np.ndarray | None = None

    def reset(self) -> None:
        super().reset()
        self.m1 = None
        self.m2 = None

    def step(self, p, grad, mask):
        if self.m1 is None:
            self.m1 = np.zeros_like(p)
            self.m2 = np.zeros_like(p)
        self.step_count += 1
        t = self.step_count
        self.m1 = self.BETA1 * self.m1 + (1 - self.BETA1) * grad
        self.m2 = self.BETA2 * self.m2 + (1 - self.BETA2) * grad * grad
        mh = self.m1 / (1 - self.BETA1 ** t)
        vh = self.m2 / (1 - self.BETA2 ** t)
        update = self.effective_lr * mh / (np.sqrt(vh) + self.EPS)
        if self.weight_decay:
            update += self.effective_lr * self.weight_decay * p
        p -= update * (mask > 0)


class SGD(OptimizerState):
    def step(self, p, grad, mask):
        self.step_count += 1
        p -= self.effective_lr * (grad + self.weight_decay * p) * (mask > 0)


def make_optimizer(kind: str, learning_rate: float, weight_decay: float = 0.0) -> OptimizerState:
    if kind == "adafactor":
        return AdafactorLite(learning_rate, weight_decay)
    if kind == "adam":
        return Adam(learning_rate, weight_decay)
    if kind == "sgd":
        return SGD(learning_rate, weight_decay)
    raise ConfigError(f"unknown optimizer kind {kind!r}; expected one of {KINDS}")
