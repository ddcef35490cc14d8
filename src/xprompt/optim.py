"""Step rules: AdafactorLite for the prompt matrix, Adam for backbone
pretraining. Each step is given its learning rate, and the loop that steps
an optimizer builds it: every prompt.tune call its own AdafactorLite.

AdafactorLite updates only live entries: the step is multiplied by the
mask, whatever gradient a dead cell carries, so a masked entry is bitwise
untouched (no decay either). It keeps factored second moments (one row
vector, one column vector) like the full optimizer, but no first moment,
and clips the update RMS at 1.0. Its statistics are computed over live
cells only: dead cells are excluded from both numerators and divisors, so
a fully masked row or column behaves exactly as if it were deleted from
the matrix, and masking in one row cannot alter the step taken by another.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

EPS_ACCUM = 1e-30
CLIP_THRESHOLD = 1.0
DECAY_EXPONENT = -0.8


class OptimizerState:
    """Base: the step counter; subclasses own their slots."""

    def __init__(self):
        self.step_count = 0


class AdafactorLite(OptimizerState):
    def __init__(self, weight_decay: float = 0.0):
        if not 0 <= weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {weight_decay}")
        super().__init__()
        self.weight_decay = weight_decay
        self.row_accum: np.ndarray | None = None
        self.col_accum: np.ndarray | None = None

    def step(self, p, grad, mask, lr):
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
            p -= lr * self.weight_decay * (p * live)
        p -= lr * (update * live)


class Adam(OptimizerState):
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        super().__init__()
        self.m1: np.ndarray | None = None
        self.m2: np.ndarray | None = None

    def step(self, p, grad, lr):
        if self.m1 is None:
            self.m1 = np.zeros_like(p)
            self.m2 = np.zeros_like(p)
        self.step_count += 1
        t = self.step_count
        self.m1 = self.BETA1 * self.m1 + (1 - self.BETA1) * grad
        self.m2 = self.BETA2 * self.m2 + (1 - self.BETA2) * grad * grad
        mh = self.m1 / (1 - self.BETA1 ** t)
        vh = self.m2 / (1 - self.BETA2 ** t)
        p -= lr * mh / (np.sqrt(vh) + self.EPS)
