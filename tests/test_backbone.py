"""Backbone init, pretraining, freezing, prompted forward, checkpoints."""

import dataclasses

import numpy as np
import pytest

from xprompt import autograd as ag
from xprompt import backbone as bbm
from xprompt import checkpoint as ckpt
from xprompt import pruning as pr
from xprompt import tasks
from xprompt.errors import ConfigError, DataError, StateError
from xprompt.prompt import batch_loss, init_prompt

from conftest import MICRO_CFG
from support import (batch_loss_full_rows, central_diff, forward_batch_full_rows,
                     max_rel_err, mlm_loss_full_rows, weight_hash)


def test_init_same_config_bitwise_identical():
    a = bbm.init_backbone(MICRO_CFG)
    b = bbm.init_backbone(MICRO_CFG)
    assert weight_hash(a) == weight_hash(b)
    for name in a.weights:
        assert np.array_equal(a.weights[name], b.weights[name])


def test_init_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        bbm.init_backbone(bbm.BackboneConfig(embed_dim=10, heads=4))


def test_init_weight_mean_statistics():
    # mean of N(0, std) over n draws is within 3*std/sqrt(n) of 0 (checked
    # across 10 seeds; ~99.7% per seed, and the draw is fixed, not flaky)
    for seed in range(10):
        bb = bbm.init_backbone(bbm.BackboneConfig(seed=seed))
        drawn = np.concatenate([arr.ravel() for name, arr in sorted(bb.weights.items())
                                if bbm._is_normal_drawn(name)])
        assert abs(drawn.mean()) <= 3 * bbm.INIT_STD / np.sqrt(drawn.size)
        assert abs(drawn.std() - bbm.INIT_STD) <= 0.1 * bbm.INIT_STD


def test_pretrain_zero_steps_keeps_weights_and_freezes(micro_data):
    bb = bbm.init_backbone(MICRO_CFG)
    before = weight_hash(bb)
    out = bbm.pretrain(bb, [ex.tokens for ex in micro_data["train"]], steps=0, lr=1e-3)
    assert out.frozen
    assert weight_hash(out) == before


def test_pretrain_loss_decreases(micro_backbone):
    losses = micro_backbone.pretrain_losses
    assert len(losses) == 80
    assert losses[-1] < losses[0]
    # regression baseline for this frozen config
    assert losses[-1] < losses[0] - 0.4


def test_pretrain_is_deterministic(micro_data):
    corpus = [ex.tokens for ex in micro_data["train"]]
    a = bbm.pretrain(bbm.init_backbone(MICRO_CFG), corpus, steps=5, lr=1e-3)
    b = bbm.pretrain(bbm.init_backbone(MICRO_CFG), corpus, steps=5, lr=1e-3)
    assert weight_hash(a) == weight_hash(b)
    assert a.pretrain_losses == b.pretrain_losses


def test_pretrain_on_frozen_backbone_rejected(raw_micro_backbone):
    with pytest.raises(StateError):
        bbm.pretrain(raw_micro_backbone, [(2, 3)], steps=1, lr=1e-3)


def test_forward_requires_frozen():
    bb = bbm.init_backbone(MICRO_CFG)
    with pytest.raises(StateError):
        bbm.forward_batch(bb, ag.constant(np.zeros((0, MICRO_CFG.embed_dim))), [[2, 3, 4]])


def test_frozen_weights_are_immutable(raw_micro_backbone):
    with pytest.raises(ValueError):
        raw_micro_backbone.weights["tok_emb"][0, 0] = 1.0


def test_forward_reproducible_bitwise(raw_micro_backbone):
    rng = np.random.default_rng(0)
    prompt = rng.normal(scale=0.02, size=(4, MICRO_CFG.embed_dim))
    ids = [2, 5, 7]
    a = bbm.forward_batch(raw_micro_backbone, ag.constant(prompt), [ids])
    b = bbm.forward_batch(raw_micro_backbone, ag.constant(prompt), [ids])
    assert np.array_equal(a.value, b.value)
    assert a.shape == (1, MICRO_CFG.num_classes)
    assert np.isfinite(a.value).all()


def test_forward_rejects_overlong_and_bad_ids(raw_micro_backbone):
    too_long = [2] * (MICRO_CFG.max_seq_len + 1)
    empty = ag.constant(np.zeros((0, MICRO_CFG.embed_dim)))
    with pytest.raises(DataError) as exc:
        bbm.forward_batch(raw_micro_backbone, empty, [too_long])
    assert str(MICRO_CFG.max_seq_len) in str(exc.value)
    with pytest.raises(DataError):
        bbm.forward_batch(raw_micro_backbone, empty, [[MICRO_CFG.vocab_size]])
    prompt = ag.constant(np.zeros((30, MICRO_CFG.embed_dim)))
    with pytest.raises(DataError):
        bbm.forward_batch(raw_micro_backbone, prompt, [[2, 3, 4]])


def test_prompt_gradients_match_finite_differences(raw_micro_backbone):
    rng = np.random.default_rng(1)
    pv = rng.uniform(-0.5, 0.5, size=(3, MICRO_CFG.embed_dim))
    ids = [2, 9, 4, 4]

    def loss_value():
        node = bbm.forward_batch(raw_micro_backbone, ag.leaf(pv), [ids])
        return ag.softmax_cross_entropy(node, [1]).value

    prompt = ag.leaf(pv)
    loss = ag.softmax_cross_entropy(
        bbm.forward_batch(raw_micro_backbone, prompt, [ids]), [1])
    ag.backward(loss)
    fd = central_diff(loss_value, pv)
    assert max_rel_err(prompt.grad, fd) <= 1e-5


def test_pooling_covers_only_input_positions(raw_micro_backbone):
    # an input change must move the logits even when the prompt is frozen junk
    prompt = ag.constant(np.zeros((2, MICRO_CFG.embed_dim)))
    a = bbm.forward_batch(raw_micro_backbone, prompt, [[2, 3, 4]])
    b = bbm.forward_batch(raw_micro_backbone, prompt, [[2, 3, 5]])
    assert not np.array_equal(a.value, b.value)


# --- the last block runs on pooled rows only -----------------------------------------


@pytest.fixture(scope="module", params=[1, 2], ids=["layers1", "layers2"])
def oracle_case(request, micro_data):
    """A pretrained 1- or 2-layer micro backbone and a bank with a dead
    token and a dead piece."""
    bb = bbm.init_backbone(dataclasses.replace(MICRO_CFG, layers=request.param))
    bbm.pretrain(bb, tasks.pretrain_corpus(micro_data["train"]), steps=30, lr=1e-2)
    bank = init_prompt(6, MICRO_CFG.embed_dim, 4, 4, bb)
    bank.p += np.random.default_rng(4).normal(scale=0.3, size=bank.p.shape)
    bank.token_mask[1] = 0.0
    bank.piece_mask[3, 2] = 0.0
    return bb, bank


def _same_loss_and_grads(bank, bb, batch):
    """The loss and the prompt gradient of batch_loss and of the full-row
    reference graph, and the batch's mask gradients from mask_gradients and
    from the reference graph's gamma and zeta leaves."""
    loss, leaf = batch_loss(bank, bb, batch)
    ag.backward(loss)
    ref, g_ref = batch_loss_full_rows(bank, bb, batch)
    ag.backward(ref)
    # the reference's prompt gradient is zero on dead entries, which the
    # optimizer never steps
    got = [loss.node.value, np.where(bank.effective_mask() > 0, leaf.grad, 0.0)]
    want = [ref.node.value, g_ref.prompt.grad]
    got_masks = [g.mean(axis=0) for g in pr.mask_gradients(bank, bb, batch)]
    want_masks = [g_ref.token_mask.grad[:, 0], g_ref.piece_mask.grad]
    return got, want, got_masks, want_masks


def _assert_near(got, want):
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("size", [16, 1], ids=["mixed_lengths", "one_sequence"])
def test_restricted_last_block_is_bitwise_the_full_row_encoder(oracle_case, micro_data, size):
    bb, bank = oracle_case
    batch = micro_data["train"][:size]
    seqs = [ex.tokens for ex in batch]
    assert size == 1 or len({len(s) for s in seqs}) > 1
    empty = ag.constant(np.zeros((0, MICRO_CFG.embed_dim)))
    for prompt_rows in (empty, ag.constant(bank.effective_values())):
        got = bbm.forward_batch(bb, prompt_rows, seqs).value
        assert got.tobytes() == forward_batch_full_rows(bb, prompt_rows, seqs).value.tobytes()
    got, want, got_masks, want_masks = _same_loss_and_grads(bank, bb, batch)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    _assert_near(got_masks, want_masks)
    # the dead token and the dead piece get no prompt gradient, yet gamma does
    assert not want[1][1].any() and not want[1][3, 8:12].any()
    assert want_masks[0][1] != 0.0


def test_restricted_last_block_small_packs_agree_to_rounding(oracle_case, micro_data):
    """Packs of a few sequences can land on different BLAS kernels at the
    restricted and the full row count (OpenBLAS has separate small-matrix
    kernels for products with a transposed operand), which may change the
    last bits of a gradient; the values still agree to rounding."""
    bb, bank = oracle_case
    for size in range(2, 9):
        got, want, got_masks, want_masks = _same_loss_and_grads(
            bank, bb, micro_data["train"][:size])
        for a, b in zip(got, want):
            assert max_rel_err(a, b) <= 1e-12
        _assert_near(got_masks, want_masks)


@pytest.mark.parametrize("size", [1, 2, 7, 32])
def test_mlm_last_block_on_masked_rows_agrees_with_full_rows(oracle_case, micro_data,
                                                             size, monkeypatch):
    """Pretraining's loss and weight gradients match every row through the
    last block, with the masked row first, in the middle or last."""
    bb, _ = oracle_case
    batch = [ex.tokens for ex in micro_data["train"][:size]]
    starts = np.cumsum([0] + [len(seq) for seq in batch[:-1]])
    lookup = ag.embedding_lookup
    for where in (lambda n: 0, lambda n: n // 2, lambda n: n - 1):
        positions = [where(len(seq)) for seq in batch]
        gathered = []
        w = {name: ag.leaf(arr) for name, arr in bb.weights.items()}
        with monkeypatch.context() as m:
            m.setattr(ag, "embedding_lookup",
                      lambda table, ids: gathered.append(np.asarray(ids)) or lookup(table, ids))
            loss = bbm._mlm_loss(bb, w, batch, positions)
        ag.backward(loss)
        w_ref = {name: ag.leaf(arr) for name, arr in bb.weights.items()}
        ref = mlm_loss_full_rows(bb, w_ref, batch, positions)
        ag.backward(ref)
        assert max_rel_err(loss.value, ref.value) <= 1e-12
        # entries that cancel to under 1e-4 of a gradient's largest can differ
        # by a few ulps of that largest, which max_rel_err's floor magnifies
        # past 1e-12, so each gradient is compared on its own scale
        names = [name for name in w if name != "head"]
        _assert_near([w[n].grad for n in names], [w_ref[n].grad for n in names])
        # token rows, position rows, then one row per sequence for the last block
        assert len(gathered) == 3
        assert gathered[-1].tolist() == (starts + positions).tolist()


def _count_ops(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(ag, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ag, name, counted)
    return counts


def test_pass_graph_does_not_grow_with_the_pack(oracle_case, micro_data, monkeypatch):
    bb, bank = oracle_case
    counts = _count_ops(monkeypatch, ("embedding_lookup", "mean_pool", "concat_rows",
                                      "add", "rowwise_scale"))
    prompt = ag.constant(bank.effective_values())
    seen = {}
    for n in (1, 16):
        seqs = [ex.tokens for ex in micro_data["train"][:n]]
        bbm.forward_batch(bb, prompt, seqs)
        seen["forward", n] = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        bbm._mlm_loss(bb, bb.nodes, seqs, [0] * n)
        seen["mlm", n] = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
    # a prompted pass gathers only its query rows, and its token rows come
    # with their positions; pretraining gathers token, position and masked
    # rows and adds the first two; each block adds two residuals
    blocks = 2 * bb.cfg.layers
    assert seen["forward", 1] == seen["forward", 16] == {
        "embedding_lookup": 1, "mean_pool": 1, "concat_rows": 1,
        "add": blocks, "rowwise_scale": 0}
    assert seen["mlm", 1] == seen["mlm", 16] == {
        "embedding_lookup": 3, "mean_pool": 0, "concat_rows": 0,
        "add": 1 + blocks, "rowwise_scale": 0}


def test_predict_chunks_give_the_logits_of_one_pack(oracle_case, micro_data):
    bb, bank = oracle_case
    prompt = ag.constant(bank.effective_values())
    seqs = [ex.tokens for ex in micro_data["dev"]]
    n = bbm.PREDICT_CHUNK
    assert len(seqs) > n
    one_pack = bbm.forward_batch(bb, prompt, seqs).value
    chunks = [bbm.forward_batch(bb, prompt, seqs[lo:lo + n]).value
              for lo in range(0, len(seqs), n)]
    assert np.concatenate(chunks).tobytes() == one_pack.tobytes()
    assert bbm.predict(bb, bank.effective_values(), micro_data["dev"]) == [
        int(np.argmax(row)) for row in one_pack]


def test_backbone_checkpoint_round_trip(tmp_path, micro_backbone):
    d = str(tmp_path / "bb")
    ckpt.save_backbone(micro_backbone, d)
    back = ckpt.load_backbone(ckpt.read_manifest(d, ckpt.BACKBONE_FORMAT), micro_backbone.cfg)
    assert back.cfg == micro_backbone.cfg
    assert back.frozen
    assert weight_hash(back) == weight_hash(micro_backbone)
    for name in micro_backbone.weights:
        assert np.array_equal(back.weights[name], micro_backbone.weights[name])


def test_backbone_checkpoint_detects_corruption(tmp_path, micro_backbone):
    d = str(tmp_path / "bb")
    ckpt.save_backbone(micro_backbone, d)
    blob = tmp_path / "bb" / "head.bin"
    data = bytearray(blob.read_bytes())
    data[0] ^= 0xFF
    blob.write_bytes(bytes(data))
    with pytest.raises(DataError):
        ckpt.read_manifest(d, ckpt.BACKBONE_FORMAT)


def test_backbone_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        ckpt.read_manifest(str(tmp_path / "nope"), ckpt.BACKBONE_FORMAT)
