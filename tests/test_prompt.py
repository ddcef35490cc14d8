"""Prompt bank construction, masking identities, and tuning."""

import tracemalloc
import weakref

import numpy as np
import pytest

from xprompt import autograd as ag
from xprompt import backbone, prompt, pruning, tasks
from xprompt.backbone import forward_batch
from xprompt.errors import ConfigError, DataError

from conftest import MICRO_CFG
from support import masked_graph, weight_hash


# --- initialization -------------------------------------------------------------


def test_sampled_vocab_rows_come_from_embedding_table(micro_backbone):
    bank = prompt.init_prompt(6, 16, 4, 3, micro_backbone)
    table = micro_backbone.weights["tok_emb"]
    hits = []
    for row in bank.p:
        matches = np.where((table == row).all(axis=1))[0]
        assert matches.size == 1
        hits.append(int(matches[0]))
    assert len(set(hits)) == 6
    assert bank.token_mask.shape == (6,)
    assert bank.piece_mask.shape == (6, 4)
    assert np.all(bank.token_mask == 1.0) and np.all(bank.piece_mask == 1.0)


def test_sampled_vocab_deterministic_and_seed_sensitive(micro_backbone):
    a = prompt.init_prompt(4, 16, 4, 5, micro_backbone)
    b = prompt.init_prompt(4, 16, 4, 5, micro_backbone)
    c = prompt.init_prompt(4, 16, 4, 6, micro_backbone)
    assert np.array_equal(a.p, b.p)
    assert not np.array_equal(a.p, c.p)


def test_init_errors(micro_backbone):
    with pytest.raises(ConfigError):
        prompt.init_prompt(17, 16, 4, 0, micro_backbone)  # m > V
    with pytest.raises(ConfigError):
        prompt.init_prompt(4, 32, 4, 0, micro_backbone)  # e mismatch
    with pytest.raises(ConfigError):
        prompt.init_prompt(0, 16, 4, 0, micro_backbone)


# --- masking identities ---------------------------------------------------------


def test_effective_values_identity_bitwise(micro_backbone):
    bank = prompt.init_prompt(4, 16, 4, 2, micro_backbone)
    bank.token_mask[1] = 0.0
    bank.piece_mask[2, 3] = 0.0
    want = bank.p * bank.effective_mask()
    assert np.array_equal(masked_graph(bank).output.value, want)
    assert np.array_equal(bank.effective_values(), want)


def test_all_ones_masks_leave_prompt_bitwise(micro_backbone):
    bank = prompt.init_prompt(4, 16, 4, 2, micro_backbone)
    assert np.array_equal(masked_graph(bank).output.value, bank.p)


def test_masked_forward_equals_literally_zeroed_prompt(micro_backbone, micro_data):
    bank = prompt.init_prompt(4, 16, 4, 9, micro_backbone)
    bank.token_mask[0] = 0.0
    bank.piece_mask[3, 1] = 0.0

    zeroed = bank.with_masks((np.ones(bank.m), np.ones((bank.m, bank.k))))
    zeroed.p[:] = bank.effective_values()

    seqs = [ex.tokens for ex in micro_data["dev"][:8]]
    a = forward_batch(micro_backbone, ag.constant(bank.effective_values()), seqs)
    b = forward_batch(micro_backbone, ag.constant(zeroed.effective_values()), seqs)
    assert np.array_equal(a.value, b.value)


def test_mask_gradients_flow_to_leaves(micro_backbone, micro_data):
    bank = prompt.init_prompt(4, 16, 4, 9, micro_backbone)
    batch = micro_data["train"][:6]
    loss, leaf = prompt.batch_loss(bank, micro_backbone, batch)
    ag.backward(loss)
    assert leaf.grad.shape == (4, 16)
    g_tok, g_pc = pruning.mask_gradients(bank, micro_backbone, batch)
    assert g_tok.shape == (6, 4)
    assert g_pc.shape == (6, 4, 4)
    assert np.isfinite(g_tok).all()
    assert np.any(g_tok != 0)


def test_tune_step_graph_has_one_gradient_leaf(monkeypatch, micro_backbone, micro_data):
    """Every tune step's graph reaches exactly one slot without parents, the
    masked-prompt leaf batch_loss returns: no mask leaves, no weights."""
    real = prompt.batch_loss
    leaves_per_step = []

    def tracked(*args, **kwargs):
        loss, leaf = real(*args, **kwargs)
        stack, seen, leaves = [loss.node.slot], set(), []
        while stack:
            s = stack.pop()
            if id(s) in seen:
                continue
            seen.add(id(s))
            stack.extend(s.parents)
            if not s.parents:
                leaves.append(s)
        leaves_per_step.append(leaves == [leaf.slot])
        return loss, leaf

    monkeypatch.setattr(prompt, "batch_loss", tracked)
    bank = prompt.init_prompt(4, 16, 4, 9, micro_backbone)
    bank.token_mask[1] = 0.0
    bank.piece_mask[2, 3] = 0.0
    prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"], epochs=1,
                lr=0.05)
    assert len(leaves_per_step) >= 2 and all(leaves_per_step)


def test_batch_loss_matches_mean_of_single_losses(micro_backbone, micro_data):
    bank = prompt.init_prompt(4, 16, 4, 9, micro_backbone)
    batch = micro_data["train"][:5]
    loss, _ = prompt.batch_loss(bank, micro_backbone, batch)
    singles = [prompt.batch_loss(bank, micro_backbone, [ex])[0].value for ex in batch]
    assert abs(loss.value - np.mean(singles)) <= 1e-12


# --- copies ---------------------------------------------------------------------


def test_copy_is_deep(micro_backbone):
    bank = prompt.init_prompt(4, 16, 4, 4, micro_backbone)
    dup = bank.copy()
    dup.p += 1.0
    dup.token_mask[0] = 0.0
    assert not np.array_equal(bank.p, dup.p)
    assert bank.token_mask[0] == 1.0


# --- tuning ---------------------------------------------------------------------


def test_tune_zero_epochs_is_a_no_op(micro_backbone, micro_data):
    bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
    before = bank.p.copy()
    res = prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                      epochs=0, lr=0.05)
    assert np.array_equal(bank.p, before)
    assert res.best_epoch == 0
    assert res.steps == 0
    assert len(res.dev_history) == 1


def test_tune_deterministic(micro_backbone, micro_data):
    results = []
    for _ in range(2):
        bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
        res = prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                          epochs=3, lr=0.02, seed=11)
        results.append((bank.p.copy(), tuple(res.losses), tuple(res.dev_history)))
    assert np.array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]
    assert results[0][2] == results[1][2]


def test_tune_never_moves_masked_entries(micro_backbone, micro_data):
    # the restored best checkpoint may be any epoch, including the initial
    # one, so only the dead entries have a guaranteed final value
    bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
    bank.token_mask[2] = 0.0
    bank.piece_mask[0, 1] = 0.0
    dead = bank.effective_mask() == 0
    frozen = bank.p[dead].copy()
    res = prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                      epochs=3, lr=0.05, weight_decay=1e-2, seed=1)
    assert np.array_equal(bank.p[dead], frozen)
    assert res.steps == 3 * len(range(0, len(micro_data["train"]), 16))


def test_tune_leaves_backbone_untouched(micro_backbone, micro_data):
    before = weight_hash(micro_backbone)
    bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
    prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                epochs=2, lr=0.05, seed=1)
    assert weight_hash(micro_backbone) == before


def test_tune_restores_best_checkpoint(micro_backbone, micro_data):
    bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
    res = prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                      epochs=4, lr=0.02, seed=3)
    assert res.best_dev_acc == max(res.dev_history)
    assert res.best_epoch == int(np.argmax(res.dev_history))
    assert prompt.evaluate(bank, micro_backbone, micro_data["dev"]) == res.best_dev_acc


def test_tune_reduces_training_loss(micro_backbone, micro_data):
    bank = prompt.init_prompt(8, 16, 4, 8, micro_backbone)
    res = prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                      epochs=30, lr=0.02, weight_decay=1e-5,
                      batch_size=len(micro_data["train"]), seed=3)
    assert min(res.losses) < res.losses[0] - 2e-3


def test_tune_errors(micro_backbone, micro_data):
    bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
    with pytest.raises(ConfigError):
        prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                    epochs=-1, lr=0.05)
    with pytest.raises(DataError):
        prompt.tune(bank, micro_backbone, (), micro_data["dev"],
                    epochs=1, lr=0.05)
    for bad in ({"lr": 0.0}, {"lr": -0.1}, {"lr": float("nan")}, {"lr": float("inf")},
                {"lr": 0.05, "weight_decay": -1.0},
                {"lr": 0.05, "weight_decay": float("nan")}):
        with pytest.raises(ConfigError):
            prompt.tune(bank, micro_backbone, micro_data["train"], micro_data["dev"],
                        epochs=1, **bad)
    with pytest.raises(DataError):
        prompt.evaluate(bank, micro_backbone, ())


# --- graph lifetime ---------------------------------------------------------------


def _track_graphs(monkeypatch, module, name, output_node):
    """Wrap module.name, keeping a weakref to the output node of each graph it
    builds; returns the number of earlier graphs still alive at each call."""
    real = getattr(module, name)
    refs: list[weakref.ref] = []
    alive_at_build: list[int] = []

    def tracked(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in refs))
        out = real(*args, **kwargs)
        refs.append(weakref.ref(output_node(out)))
        return out

    monkeypatch.setattr(module, name, tracked)
    return alive_at_build


def _loss_node(out):
    return (out[0] if isinstance(out, tuple) else out).node


@pytest.mark.parametrize("loop", ["tune", "predict", "pretrain", "score_tokens"])
def test_each_step_frees_its_graph_before_the_next(monkeypatch, micro_backbone, micro_data,
                                                    loop):
    """Every loop that builds one graph per step drops it before building the
    next, so a single graph is resident at a time."""
    train, dev = micro_data["train"], micro_data["dev"]
    bank = prompt.init_prompt(4, 16, 4, 8, micro_backbone)
    if loop == "tune":
        alive = _track_graphs(monkeypatch, prompt, "batch_loss", _loss_node)
        prompt.tune(bank, micro_backbone, train, dev, epochs=2,
                    lr=0.05)
    elif loop == "predict":
        alive = _track_graphs(monkeypatch, backbone, "forward_batch", lambda out: out)
        backbone.predict(micro_backbone, bank.p, dev)
    elif loop == "pretrain":
        alive = _track_graphs(monkeypatch, backbone, "_mlm_loss", _loss_node)
        backbone.pretrain(backbone.init_backbone(MICRO_CFG),
                          tasks.pretrain_corpus(train), steps=3, lr=1e-2)
    else:
        alive = _track_graphs(monkeypatch, pruning, "_forward_packed", lambda out: out)
        pruning.score_tokens(bank, micro_backbone, train)
    assert len(alive) >= 2
    assert alive == [0] * len(alive)


# --- memory of one step -------------------------------------------------------------


def _step_memory(monkeypatch):
    """(bytes of every node value built, bytes held after the forward, peak
    bytes during backward) of one prompted 16-sequence training step, from
    tracemalloc, on a frozen backbone at the default run config's scale."""
    cfg = backbone.BackboneConfig(vocab_size=32, embed_dim=32, layers=2, heads=4,
                                  max_seq_len=40, num_classes=2, seed=3)
    spec = tasks.TaskSpec(name="mem", vocab_size=32, num_classes=2,
                          seq_len_min=8, seq_len_max=16, train_size=16, dev_size=4, seed=11)
    bb = backbone.init_backbone(cfg)
    bb.freeze()
    bank = prompt.init_prompt(20, 32, 16, 8, bb)
    batch = tasks.generate(spec)["train"]
    built = []
    real_init = ag.Node.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.value.nbytes)

    monkeypatch.setattr(ag.Node, "__init__", counting_init)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, leaf = prompt.batch_loss(bank, bb, batch)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        ag.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.abs(leaf.grad).sum() > 0.0
    return sum(built), held, peak


def test_forward_keeps_only_what_backward_reads(monkeypatch):
    """Values no backward reads (matmul outputs into bias_add, gelu outputs,
    residual sums, layer-norm outputs) are freed during the forward."""
    built, held, _ = _step_memory(monkeypatch)
    assert held <= 0.75 * built, f"held {held} of {built} bytes built"


def test_backward_frees_as_it_goes(monkeypatch):
    """Backward drops each interior gradient and closure once it has run, so
    its peak stays near what the forward left held."""
    _, held, peak = _step_memory(monkeypatch)
    assert peak <= 1.1 * held, f"backward peak {peak}, {held} held after the forward"
