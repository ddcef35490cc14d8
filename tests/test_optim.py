"""Optimizer step rules: reference equivalence, mask discipline, clipping,
and the rate each step is given."""

import numpy as np
import pytest

from xprompt import optim
from xprompt.errors import ConfigError


def reference_adafactor_lite(p, grads, lr, wd=0.0):
    """Maskless textbook rule, written independently of the package class:
    factored second moments with decay 1 - t^-0.8, no first moment, constant
    lr, update-RMS clip at 1.0, decoupled weight decay."""
    p = p.copy()
    m, e = p.shape
    r = np.zeros(m)
    c = np.zeros(e)
    for t, g in enumerate(grads, start=1):
        beta = 1.0 - t ** -0.8
        g2 = g * g + 1e-30
        r = beta * r + (1 - beta) * g2.mean(axis=1)
        c = beta * c + (1 - beta) * g2.mean(axis=0)
        v = np.outer(r, c) / r.mean()
        u = g / np.sqrt(v)
        rms = np.sqrt((u * u).mean())
        u = u / max(1.0, rms)
        p = p - lr * wd * p - lr * u
    return p


def test_adafactor_all_ones_matches_maskless_reference():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(5, 8))
    grads = [rng.normal(size=(5, 8)) for _ in range(7)]
    mask = np.ones((5, 8))

    p = p0.copy()
    opt = optim.AdafactorLite(weight_decay=1e-5)
    for g in grads:
        opt.step(p, g, mask, 0.05)
    want = reference_adafactor_lite(p0, grads, 0.05, wd=1e-5)
    assert np.max(np.abs(p - want)) <= 1e-10


def test_adafactor_dead_row_equals_deleted_row():
    # a fully masked row must not change any other row's trajectory
    rng = np.random.default_rng(1)
    p_full = rng.normal(size=(6, 8))
    grads = [rng.normal(size=(6, 8)) for _ in range(5)]
    dead = 2
    mask = np.ones((6, 8))
    mask[dead] = 0.0
    for g in grads:
        g[dead] = 0.0  # the masked graph produces exact zeros there

    pa = p_full.copy()
    opt = optim.AdafactorLite()
    for g in grads:
        opt.step(pa, g, mask, 0.1)

    keep = [i for i in range(6) if i != dead]
    pb = p_full[keep].copy()
    opt2 = optim.AdafactorLite()
    for g in grads:
        opt2.step(pb, g[keep], np.ones((5, 8)), 0.1)

    assert np.array_equal(pa[keep], pb)
    assert np.array_equal(pa[dead], p_full[dead])  # bitwise untouched


def test_adafactor_dead_column_equals_deleted_column():
    rng = np.random.default_rng(2)
    p_full = rng.normal(size=(4, 6))
    grads = [rng.normal(size=(4, 6)) for _ in range(4)]
    dead = 5
    mask = np.ones((4, 6))
    mask[:, dead] = 0.0
    for g in grads:
        g[:, dead] = 0.0

    pa = p_full.copy()
    opt = optim.AdafactorLite()
    for g in grads:
        opt.step(pa, g, mask, 0.1)

    keep = [j for j in range(6) if j != dead]
    pb = p_full[:, keep].copy()
    opt2 = optim.AdafactorLite()
    for g in grads:
        opt2.step(pb, g[:, keep], np.ones((4, 5)), 0.1)

    assert np.array_equal(pa[:, keep], pb)
    assert np.array_equal(pa[:, dead], p_full[:, dead])


def test_adafactor_update_clipping_bounds_first_step():
    # zero-history + huge gradient: the clipped step is at most lr per entry (RMS 1)
    p = np.zeros((3, 4))
    g = np.full((3, 4), 1e6)
    opt = optim.AdafactorLite()
    opt.step(p, g, np.ones((3, 4)), 0.05)
    rms = np.sqrt((p / 0.05) ** 2).mean()
    assert rms <= 1.0 + 1e-12


@pytest.mark.parametrize("rule", [optim.AdafactorLite], ids=["adafactor"])
def test_masked_entries_never_move(rule):
    """Dead entries stay bitwise unchanged whatever gradient they carry, and
    live entries move exactly as under the masked gradient."""
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 8))
    mask = (rng.uniform(size=(4, 8)) > 0.4).astype(float)
    mask[2] = 0.0  # a whole dead row too
    frozen = p[mask == 0].copy()
    p_raw = p.copy()
    opt, raw = rule(weight_decay=1e-2), rule(weight_decay=1e-2)
    for _ in range(6):
        g = rng.normal(size=(4, 8))
        opt.step(p, g * mask, mask, 0.05)
        raw.step(p_raw, g, mask, 0.05)
    assert np.array_equal(p[mask == 0], frozen)
    assert not np.array_equal(p[mask == 1], np.zeros_like(p[mask == 1]))
    assert p_raw.tobytes() == p.tobytes()


def test_adafactor_rejects_bad_weight_decay():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            optim.AdafactorLite(bad)


def test_adam_hand_value():
    """Bias correction makes a first step of lr * sign(g); a second step with
    one entry's gradient reversed moves that entry by lr / 19, each at the
    rate its step is given."""
    p = np.array([[1.0, 2.0]])
    opt = optim.Adam()
    opt.step(p, np.array([[0.2, -0.4]]), 0.5)
    assert np.allclose(p, [[0.5, 2.5]], rtol=0, atol=1e-6)
    opt.step(p, np.array([[-0.2, -0.4]]), 0.19)
    assert np.allclose(p, [[0.51, 2.69]], rtol=0, atol=1e-6)
