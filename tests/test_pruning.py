"""Importance scoring, selection, rewinding, and hierarchical pruning.

The scoring oracles are finite-difference probes of each example's loss with
masks baked into a constant prompt, so no autograd path is shared with the
scores under test, and one backward pass per example through the mask
leaves (support.score_per_example). Selection oracles enumerate every removal subset and rank them
with explicitly spelled-out tie-break keys.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xprompt import autograd as ag
from xprompt import harness as hz
from xprompt import pruning as pr
from xprompt.backbone import forward_batch, init_backbone, pretrain
from xprompt.errors import ConfigError, DataError
from xprompt.prompt import PromptBank, evaluate, init_prompt, tune

import support


# --- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tuned(micro_backbone, micro_data):
    """A lightly tuned 6x16 bank (k=4)."""
    bank = init_prompt(6, 16, 4, 1, micro_backbone)
    tune(bank, micro_backbone, micro_data["train"], micro_data["dev"], 3, *RECIPE,
         batch_size=16, seed=2)
    return bank


@pytest.fixture()
def bank(tuned):
    return tuned.copy()


# the (lr, weight_decay) the tests tune and retrain with
RECIPE = (0.05, 1e-5)


@pytest.fixture(scope="module")
def fd_batch(micro_data):
    return micro_data["train"][:12]


def masked_loss_value(bank, bb, batch, gamma, zeta) -> float:
    """Batch loss with the masks baked into a constant prompt (no mask leaves)."""
    w = bank.e // bank.k
    eff = bank.p * (np.asarray(gamma)[:, None] * np.repeat(np.asarray(zeta), w, axis=1))
    logits = forward_batch(bb, ag.constant(eff), [ex.tokens for ex in batch])
    return ag.softmax_cross_entropy(logits, [ex.label for ex in batch]).value


def mean_abs_fd(bank, bb, batch, bumped, eps) -> float:
    """Mean over examples of |L_x(all-ones masks) - L_x(bumped masks)| / eps:
    a forward difference of each example's own loss, in absolute value."""
    ones = np.ones(bank.m), np.ones((bank.m, bank.k))
    return float(np.mean([abs(masked_loss_value(bank, bb, [ex], *ones)
                              - masked_loss_value(bank, bb, [ex], *bumped))
                          for ex in batch])) / eps


def make_report(token_scores, piece_scores, token_live=None, piece_live=None):
    ts = np.asarray(token_scores, dtype=float)
    ps = np.asarray(piece_scores, dtype=float)
    tl = np.ones(ts.shape, dtype=bool) if token_live is None else np.asarray(token_live)
    pl = np.ones(ps.shape, dtype=bool) if piece_live is None else np.asarray(piece_live)
    return pr.ImportanceReport(ts, ps, tl, pl, 1)


# --- finite-difference oracles ------------------------------------------------


def test_token_scores_match_finite_differences(bank, micro_backbone, fd_batch):
    """Per-example forward differences at eps=1e-4, averaged in absolute
    value, agree with every token score within 2%."""
    eps = 1e-4
    rep = pr.score_tokens(bank, micro_backbone, fd_batch, batch_size=5)
    zeta = np.ones((bank.m, bank.k))
    for i in range(bank.m):
        gamma = np.ones(bank.m)
        gamma[i] = 1.0 - eps
        fd = mean_abs_fd(bank, micro_backbone, fd_batch, (gamma, zeta), eps)
        assert abs(fd - rep.token_scores[i]) <= 0.02 * max(fd, 1e-12), (
            f"token {i}: fd {fd} vs score {rep.token_scores[i]}")


def test_piece_scores_match_finite_differences(bank, micro_backbone, fd_batch):
    eps = 1e-4
    rep = pr.score_tokens(bank, micro_backbone, fd_batch, batch_size=5)
    gamma = np.ones(bank.m)
    for t in range(bank.m):
        for q in range(bank.k):
            zeta = np.ones((bank.m, bank.k))
            zeta[t, q] = 1.0 - eps
            fd = mean_abs_fd(bank, micro_backbone, fd_batch, (gamma, zeta), eps)
            assert abs(fd - rep.piece_scores[t, q]) <= 0.02 * max(fd, 1e-12)


def test_second_order_remainder_bounded(bank, micro_backbone, fd_batch):
    """|L(1-eps) - L(1) + eps * dL/dgamma_i| shrinks like eps^2."""
    loss, g = support.masked_batch_loss(bank, micro_backbone, fd_batch)
    ag.backward(loss)
    grad = g.token_mask.grad[:, 0]
    i = int(np.argmax(np.abs(grad)))
    gamma = np.ones(bank.m)
    zeta = np.ones((bank.m, bank.k))
    base = masked_loss_value(bank, micro_backbone, fd_batch, gamma, zeta)

    def remainder(eps):
        bumped = gamma.copy()
        bumped[i] = 1.0 - eps
        shifted = masked_loss_value(bank, micro_backbone, fd_batch, bumped, zeta)
        return abs(shifted - base + eps * grad[i])

    c_hat = remainder(1e-2) / 1e-2 ** 2
    assert remainder(1e-3) <= 2.0 * c_hat * 1e-3 ** 2 + 1e-12


# --- scoring semantics ----------------------------------------------------------


def test_dead_structures_score_zero_and_are_flagged(bank, micro_backbone, fd_batch):
    bank.token_mask[1] = 0.0
    bank.piece_mask[3, 2] = 0.0
    rep = pr.score_tokens(bank, micro_backbone, fd_batch)
    assert rep.examples_seen == len(fd_batch)
    assert (rep.token_scores >= 0).all() and (rep.piece_scores >= 0).all()
    assert rep.token_scores[1] == 0.0
    assert not rep.token_live[1]
    assert not rep.piece_live[1].any()
    assert (rep.piece_scores[1] == 0.0).all()
    assert rep.piece_scores[3, 2] == 0.0 and not rep.piece_live[3, 2]
    live = [i for i in range(bank.m) if i != 1]
    assert rep.token_live[live].all()
    assert (rep.token_scores[live] > 0).all()
    # dead tokens never come back through selection
    sel = pr.select_tokens(rep, 0.0, "lowest_score")
    assert 1 not in support.kept_tokens(sel)
    assert support.kept_tokens(sel) == set(live)


def test_zero_prompt_row_scores_exactly_zero(bank, micro_backbone, fd_batch):
    bank.p[2, :] = 0.0
    rep = pr.score_tokens(bank, micro_backbone, fd_batch)
    assert rep.token_scores[2] == 0.0
    assert (rep.piece_scores[2] == 0.0).all()
    assert rep.token_live[2]  # still live, just irrelevant


def test_duplicated_batches_leave_scores_unchanged(bank, micro_backbone, fd_batch):
    once = pr.score_tokens(bank, micro_backbone, fd_batch, batch_size=6)
    twice = pr.score_tokens(bank, micro_backbone, list(fd_batch) * 2, batch_size=6)
    assert twice.examples_seen == 2 * once.examples_seen
    np.testing.assert_allclose(twice.token_scores, once.token_scores, rtol=1e-12)
    np.testing.assert_allclose(twice.piece_scores, once.piece_scores, rtol=1e-12)


def test_aggregations_differ_generically(bank, micro_backbone, fd_batch):
    """The mean over examples of |grad| is not |grad of the batch mean|: the
    two disagree whenever per-example gradients have mixed signs, and by
    Jensen the second never exceeds the first."""
    rep = pr.score_tokens(bank, micro_backbone, fd_batch)
    loss, g = support.masked_batch_loss(bank, micro_backbone, fd_batch)
    ag.backward(loss)
    for batch_grad, scores in ((g.token_mask.grad[:, 0], rep.token_scores),
                               (g.piece_mask.grad, rep.piece_scores)):
        assert not np.allclose(np.abs(batch_grad), scores)
        assert (np.abs(batch_grad) <= scores + 1e-12).all()


def assert_same_scores(got: pr.ImportanceReport, want: pr.ImportanceReport) -> None:
    """Equal liveness, and scores within 1e-12 of each report's largest."""
    assert got.examples_seen == want.examples_seen
    assert np.array_equal(got.token_live, want.token_live)
    assert np.array_equal(got.piece_live, want.piece_live)
    for a, b in ((got.token_scores, want.token_scores),
                 (got.piece_scores, want.piece_scores)):
        assert np.abs(a - b).max() <= 1e-12 * b.max(), np.abs(a - b).max() / b.max()


@pytest.mark.parametrize("dead", [False, True])
@pytest.mark.parametrize("batch_size", [1, 5, 16])
def test_scores_equal_per_example_oracle(bank, micro_backbone, micro_data, batch_size,
                                         dead):
    """Per-example gradients read off one packed batch equal one backward
    pass per example; 48 examples in batches of 5 leave a ragged last one."""
    if dead:
        bank.token_mask[1] = 0.0
        bank.piece_mask[3, 2] = 0.0
    train = micro_data["train"]
    got = pr.score_tokens(bank, micro_backbone, train, batch_size=batch_size)
    assert_same_scores(got, support.score_per_example(bank, micro_backbone, train))


@pytest.fixture(scope="module")
def calibration_bank():
    """A bank at the default run config's scale (m=20, e=32, k=16) on a
    briefly pretrained default backbone, with the default 192 examples."""
    cfg = hz.RunConfig.from_mapping({"pretrain.steps": 40})
    data = hz.load_splits(cfg)
    bb = pretrain(init_backbone(cfg.backbone_config()), hz.build_corpus(cfg, data["train"]),
                  cfg["pretrain.steps"], cfg["pretrain.lr"])
    bank = init_prompt(cfg["prompt.m"], cfg["backbone.embed_dim"], cfg["prompt.k"],
                       1, bb)
    return bank, bb, data["train"]


@pytest.mark.parametrize("scale", ["micro", "calibration"])
def test_selections_equal_per_example_oracle(bank, micro_backbone, micro_data, request,
                                             scale):
    """Token selections at the full masks, then piece selections rescored on
    the surviving tokens, are the oracle's under every rule."""
    if scale == "micro":
        bb, train = micro_backbone, micro_data["train"]
    else:
        bank, bb, train = request.getfixturevalue("calibration_bank")
    for rule in pr.RULES:
        full = bank.with_masks(keep_all_selection(bank))
        reports = [pr.score_tokens(full, bb, train), support.score_per_example(full, bb, train)]
        tokens = [pr.select_tokens(r, 0.3, rule, seed=1) for r in reports]
        assert support.same_masks(*tokens)
        survivors = bank.with_masks(tokens[0])
        reports = [pr.score_tokens(survivors, bb, train),
                   support.score_per_example(survivors, bb, train)]
        assert support.same_masks(*(pr.select_pieces(r, 0.5, rule, seed=1) for r in reports))


def test_k1_piece_scores_equal_token_scores(micro_backbone, micro_data):
    bank = init_prompt(5, 16, 1, 4, micro_backbone)
    rep = pr.score_tokens(bank, micro_backbone, micro_data["train"][:8])
    assert rep.piece_scores.shape == (5, 1)
    assert np.array_equal(rep.piece_scores[:, 0], rep.token_scores)


def test_scores_are_permutation_equivariant(bank, micro_backbone, fd_batch):
    rep = pr.score_tokens(bank, micro_backbone, fd_batch)
    perm = np.random.default_rng(9).permutation(bank.m)
    shuffled = bank.copy()
    shuffled.p[:] = bank.p[perm]
    shuffled.token_mask[:] = bank.token_mask[perm]
    shuffled.piece_mask[:] = bank.piece_mask[perm]
    rep2 = pr.score_tokens(shuffled, micro_backbone, fd_batch)
    np.testing.assert_allclose(rep2.token_scores, rep.token_scores[perm],
                               rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(rep2.piece_scores, rep.piece_scores[perm],
                               rtol=1e-9, atol=1e-15)


def test_scoring_errors(bank, micro_backbone):
    with pytest.raises(DataError):
        pr.score_tokens(bank, micro_backbone, [])


# --- selection vs exhaustive enumeration ------------------------------------------


def exhaustive_removal(scores, live, p, rule):
    """Best removal subset by brute force over all size-p subsets.

    lowest_score: minimize the sorted (score, index) sequence of the removed
    set; reversed: maximize the sorted (score, index) sequence, which favors
    higher scores and, on ties, higher indices.
    """
    subsets = itertools.combinations(live, p)
    if rule == "lowest_score":
        return set(min(subsets, key=lambda s: sorted((scores[i], i) for i in s)))
    return set(max(subsets, key=lambda s: sorted((scores[i], i) for i in s)))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("rule", ["lowest_score", "reversed"])
def test_select_tokens_matches_exhaustive_argmin(p, rule):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(0, 1, size=5), 1)  # coarse grid forces ties
        rep = make_report(scores, np.tile(scores[:, None], (1, 2)))
        sel = pr.select_tokens(rep, p / 5, rule)
        removed = set(range(5)) - support.kept_tokens(sel)
        assert removed == exhaustive_removal(scores, range(5), p, rule), (
            f"seed {seed}: scores {scores}")


def test_select_tokens_tie_breaks():
    rep = make_report([0.5, 0.2, 0.2, 0.2, 0.9], np.zeros((5, 2)))
    sel = pr.select_tokens(rep, 0.4, "lowest_score")
    assert support.kept_tokens(sel) == {0, 3, 4}  # ties: lower index removed first

    rep = make_report([0.3, 0.3, 0.3, 0.3], np.zeros((4, 2)))
    low = pr.select_tokens(rep, 0.5, "lowest_score")
    high = pr.select_tokens(rep, 0.5, "reversed")
    assert support.kept_tokens(low) == {2, 3}
    assert support.kept_tokens(high) == {0, 1}  # ties: higher index removed first


@given(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5]), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_lowest_and_reversed_remove_disjoint_sets(scores, p):
    m = len(scores)
    p = min(p, m // 2)  # 2p <= live count
    rep = make_report(scores, np.zeros((m, 2)))
    low = set(range(m)) - support.kept_tokens(
        pr.select_tokens(rep, p / m if m else 0, "lowest_score"))
    high = set(range(m)) - support.kept_tokens(
        pr.select_tokens(rep, p / m if m else 0, "reversed"))
    assert not (low & high)


@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=3,
                max_size=10),
       st.sampled_from(["lowest_score", "reversed", "random"]))
@settings(max_examples=60, deadline=None)
def test_monotone_transform_leaves_selection_unchanged(scores, rule):
    # 2-decimal grid keeps both transforms strictly increasing in float
    # arithmetic; distinct subnormals would collapse under 3x + 1
    scores = list(np.round(scores, 2))
    m = len(scores)
    rep = make_report(scores, np.tile(np.asarray(scores)[:, None], (1, 2)))
    base = pr.select_tokens(rep, 0.5, rule, seed=7)
    for f in (np.exp, lambda x: 3.0 * x + 1.0):
        warped = make_report(f(np.asarray(scores)), f(rep.piece_scores))
        again = pr.select_tokens(warped, 0.5, rule, seed=7)
        assert support.same_masks(again, base)


def test_random_selection_is_seeded():
    rep = make_report(np.arange(8.0), np.zeros((8, 2)))
    a = pr.select_tokens(rep, 0.5, "random", seed=3)
    b = pr.select_tokens(rep, 0.5, "random", seed=3)
    c = pr.select_tokens(rep, 0.5, "random", seed=4)
    assert support.same_masks(a, b)
    assert len(support.kept_tokens(a)) == 4
    assert support.kept_tokens(a) != support.kept_tokens(c)


def test_removal_counts_use_floor():
    rep = make_report(np.arange(5.0), np.zeros((5, 2)))
    def kept(report, ratio):
        return len(support.kept_tokens(pr.select_tokens(report, ratio, "lowest_score")))

    assert kept(rep, 0.5) == 3   # floor(2.5)=2
    assert kept(rep, 0.39) == 4  # floor(1.95)=1
    assert kept(rep, 0.0) == 5
    big = make_report(np.arange(20.0), np.zeros((20, 4)))
    assert kept(big, 0.99) == 1


def test_selection_rejects_bad_ratios_and_rules():
    rep = make_report(np.arange(5.0), np.zeros((5, 2)))
    for ratio in (1.0, 1.5, -0.1):
        with pytest.raises(ConfigError):
            pr.select_tokens(rep, ratio, "lowest_score")
        with pytest.raises(ConfigError):
            pr.select_pieces(rep, ratio, "lowest_score")
    with pytest.raises(ConfigError):
        pr.select_tokens(rep, 0.5, "highest_score")


def test_select_pieces_pools_globally():
    """The removal budget is global, not a per-token quota: when one token's
    pieces all score lowest, that entire row goes first."""
    rep = make_report([1.0, 1.0], [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]])
    gamma, zeta = pr.select_pieces(rep, 0.5, "lowest_score")
    assert np.array_equal(zeta, [[0, 0, 0, 0], [1, 1, 1, 1]])
    assert np.array_equal(gamma, [1, 1])


@pytest.mark.parametrize("rule", ["lowest_score", "reversed"])
def test_select_pieces_matches_exhaustive(rule):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ps = np.round(rng.uniform(0, 1, size=(2, 4)), 1)
        rep = make_report(np.ones(2), ps)
        _, zeta = pr.select_pieces(rep, 0.25, rule)  # floor(0.25 * 8) = 2 cells
        removed = {(t, q) for t in range(2) for q in range(4) if zeta[t, q] == 0}
        cells = [(t, q) for t in range(2) for q in range(4)]
        subsets = itertools.combinations(cells, 2)
        key = lambda s: sorted((ps[c], c) for c in s)
        want = set(min(subsets, key=key) if rule == "lowest_score"
                   else max(subsets, key=key))
        assert removed == want, f"seed {seed}: {ps}"


def test_select_pieces_skips_dead_tokens():
    piece_live = np.array([[False] * 4, [True] * 4])
    rep = make_report([0.0, 1.0], [[0.0] * 4, [0.5, 0.1, 0.9, 0.7]],
                      token_live=[False, True], piece_live=piece_live)
    gamma, zeta = pr.select_pieces(rep, 0.25, "lowest_score")  # floor(0.25 * 4 live) = 1
    assert np.array_equal(gamma, [0, 1])
    assert np.array_equal(zeta, [[0, 0, 0, 0], [1, 0, 1, 1]])


def test_golden_hand_trace():
    """Hand-stepped m=4, k=2 hierarchy: tokens 1 and 3 go (lowest two), then
    the weakest surviving piece (2,0) goes at piece ratio 0.25."""
    rep = make_report([0.40, 0.05, 0.20, 0.10],
                      [[0.5, 0.3], [0.0, 0.0], [0.2, 0.6], [0.1, 0.1]])
    tok = pr.select_tokens(rep, 0.5, "lowest_score")
    assert np.array_equal(tok[0], [1, 0, 1, 0])
    assert np.array_equal(tok[1], [[1, 1], [0, 0], [1, 1], [0, 0]])

    survivors = make_report(
        [0.40, 0.0, 0.20, 0.0],
        [[0.5, 0.3], [0.0, 0.0], [0.2, 0.6], [0.0, 0.0]],
        token_live=[True, False, True, False],
        piece_live=[[True] * 2, [False] * 2, [True] * 2, [False] * 2])
    sel = pr.select_pieces(survivors, 0.25, "lowest_score")
    gamma, zeta = sel
    assert np.array_equal(gamma, [1, 0, 1, 0])
    assert np.array_equal(zeta, [[1, 1], [0, 0], [0, 1], [0, 0]])
    assert pr.kept_params(sel, 2) == 3  # three cells of width e/k = 1


def test_with_masks_and_geometry_check(bank):
    rep = pr.ImportanceReport(np.arange(float(bank.m)),
                              np.arange(float(bank.m * bank.k)).reshape(bank.m, bank.k),
                              np.ones(bank.m, bool), np.ones((bank.m, bank.k), bool), 1)
    sel = pr.select_tokens(rep, 0.34, "lowest_score")
    masked = bank.with_masks(sel)
    gamma, zeta = sel
    assert np.array_equal(masked.token_mask, gamma)
    assert np.array_equal(masked.piece_mask, zeta)
    assert np.array_equal(masked.p, bank.p)
    for wrong in ((np.ones(3), np.ones((3, 2))),
                  (np.ones(bank.m + 1), np.ones((bank.m, bank.k)))):
        with pytest.raises(ConfigError):
            bank.with_masks(wrong)


# --- rewinding -------------------------------------------------------------------


def keep_all_selection(bank):
    return np.ones(bank.m), np.ones((bank.m, bank.k))


def bank_bytes(bank) -> tuple[bytes, ...]:
    return bank.p.tobytes(), bank.token_mask.tobytes(), bank.piece_mask.tobytes()


def test_with_masks_copies_prompt_and_masks(bank):
    """The new bank holds the bank's prompt under the given masks, and writing
    to it leaves the bank and the selection it was made from as they were."""
    snap = bank.p.copy()
    bank.token_mask[:] = 0.0
    sel = keep_all_selection(bank)
    rewound = bank.with_masks(sel)
    assert np.array_equal(rewound.p, snap)
    assert (rewound.token_mask == 1.0).all() and (rewound.piece_mask == 1.0).all()
    rewound.p += 1.0
    rewound.token_mask[0] = rewound.piece_mask[0, 0] = 0.0
    assert np.array_equal(bank.p, snap)
    assert (bank.token_mask == 0.0).all() and (bank.piece_mask == 1.0).all()
    assert (sel[0] == 1.0).all() and (sel[1] == 1.0).all()


def test_rewind_retrain_reproduces_fresh_trajectory(micro_backbone, micro_data):
    """Retraining a keep-all copy of the untuned prompt walks the stage-1 loss
    path exactly."""
    bank = init_prompt(6, 16, 4, 8, micro_backbone)
    start = bank.copy()
    first = tune(bank, micro_backbone, micro_data["train"], micro_data["dev"], 3,
                 *RECIPE, batch_size=16, seed=5)
    second = tune(start.with_masks(keep_all_selection(start)), micro_backbone,
                  micro_data["train"], micro_data["dev"], 3, *RECIPE, batch_size=16, seed=5)
    assert len(first.losses) == len(second.losses)
    diff = max(abs(a - b) for a, b in zip(first.losses, second.losses))
    assert diff <= 1e-10


# --- hierarchical pruning ----------------------------------------------------------


def test_hierarchical_prune_grid(bank, micro_backbone, micro_data):
    before_hash = support.weight_hash(micro_backbone)
    before = bank_bytes(bank)
    start = bank.p.copy()
    sched = pr.PruneSchedule((0.0, 0.34), (0.0, 0.25), "lowest_score")
    out = pr.hierarchical_prune(bank, micro_backbone, micro_data["train"],
                                micro_data["dev"], sched, 2, *RECIPE,
                                batch_size=16, seed=2)
    assert [(c.token_ratio, c.piece_ratio) for c in out.cells] == [
        (0.0, 0.0), (0.0, 0.25), (0.34, 0.0), (0.34, 0.25)]

    top = max(c.dev_acc for c in out.cells)
    contenders = [c for c in out.cells if c.dev_acc == top]
    fewest = min(c.kept_params for c in contenders)
    finalists = [c for c in contenders if c.kept_params == fewest]
    assert out.best is min(finalists, key=lambda c: (c.token_ratio, c.piece_ratio))

    # the bank given is untouched; the best cell keeps its retrained configuration
    assert bank_bytes(bank) == before
    best = out.best.bank
    gamma, zeta = out.best.selection
    assert np.array_equal(best.token_mask, gamma)
    assert np.array_equal(best.piece_mask, zeta)
    assert evaluate(best, micro_backbone, micro_data["dev"]) == out.best.dev_acc

    for c in out.cells:
        gamma, zeta = c.selection
        assert not zeta[gamma == 0].any()  # removed tokens keep no pieces
        assert c.kept_params == np.count_nonzero(zeta) * (bank.e // bank.k)

    assert support.weight_hash(micro_backbone) == before_hash
    # the best cell rewound to the prompt it was given; retraining moved only live entries
    dead = best.effective_mask() == 0
    assert dead.any() and np.array_equal(best.p[dead], start[dead])


MICRO_GRID = ((0.0, 0.34, 0.5), (0.0, 0.25))


def report_arrays(report: pr.ImportanceReport) -> tuple[np.ndarray, ...]:
    return (report.token_scores, report.piece_scores, report.token_live,
            report.piece_live)


@pytest.mark.parametrize("rule", pr.RULES)
def test_hierarchical_prune_matches_per_cell_reference(bank, micro_backbone, micro_data,
                                                       monkeypatch, rule):
    """Scoring once per mask state gives exactly what per-cell rescoring
    gives.

    The micro task barely learns, so retraining alone may leave the prompt
    at the rewind point; every retrain here also shifts the live entries, so a
    missing rewind before piece scoring changes the scores.
    """
    def shifting_tune(bank, *args, **kwargs):
        result = tune(bank, *args, **kwargs)
        bank.p += 0.01 * bank.effective_mask()
        return result

    monkeypatch.setattr(pr, "tune", shifting_tune)
    monkeypatch.setattr(support, "tune", shifting_tune)
    sched = pr.PruneSchedule(*MICRO_GRID, rule)
    args = (micro_backbone, micro_data["train"], micro_data["dev"], sched)
    ref_bank = bank.copy()
    ref = support.hierarchical_prune(ref_bank, *args, retrain_epochs=2, seed=2)
    before = bank_bytes(bank)
    out = pr.hierarchical_prune(bank, *args, 2, *RECIPE, seed=2)
    assert bank_bytes(bank) == before

    assert len(out.cells) == len(ref.cells) == 6
    for got, want in zip(out.cells, ref.cells):
        assert (got.token_ratio, got.piece_ratio) == (want.token_ratio, want.piece_ratio)
        assert support.same_masks(got.selection, want.selection)
        assert got.dev_acc == want.dev_acc
        assert got.kept_params == want.kept_params
        assert got.retrain.best_epoch == want.retrain.best_epoch
        assert got.retrain.losses == want.retrain.losses
        for report, ref_report in ((got.token_report, want.token_report),
                                   (got.piece_report, want.piece_report)):
            assert report.examples_seen == ref_report.examples_seen
            for a, b in zip(report_arrays(report), report_arrays(ref_report)):
                assert np.array_equal(a, b)
    assert (out.best.token_ratio, out.best.piece_ratio) == (
        ref.best.token_ratio, ref.best.piece_ratio)
    assert bank_bytes(out.best.bank) == bank_bytes(ref_bank)


def test_hierarchical_prune_scores_once_per_mask_state(bank, micro_backbone, micro_data,
                                                       monkeypatch):
    """A |T| x |P| grid runs 1 + |T| sweeps; cells share their reports, and
    the saliency export leaves the shared arrays as they were."""
    calls = []
    score = pr.score_tokens

    def counting(*args, **kwargs):
        calls.append(1)
        return score(*args, **kwargs)

    monkeypatch.setattr(pr, "score_tokens", counting)
    t_ratios, p_ratios = MICRO_GRID
    sched = pr.PruneSchedule(t_ratios, p_ratios, "lowest_score")
    out = pr.hierarchical_prune(bank, micro_backbone, micro_data["train"],
                                micro_data["dev"], sched, 1, *RECIPE)
    assert len(calls) == 1 + len(t_ratios)

    token_report = out.cells[0].token_report
    assert all(c.token_report is token_report for c in out.cells)
    rows = [out.cells[i:i + len(p_ratios)] for i in range(0, len(out.cells), len(p_ratios))]
    for row in rows:
        assert all(c.piece_report is row[0].piece_report for c in row)
    assert len({id(row[0].piece_report) for row in rows}) == len(t_ratios)

    shared = [token_report] + [row[0].piece_report for row in rows]
    before = [[a.copy() for a in report_arrays(r)] for r in shared]
    for cell in out.cells:
        hz.saliency_text(cell.saliency(), cell.selection)
    for report, arrays in zip(shared, before):
        for a, b in zip(report_arrays(report), arrays):
            assert np.array_equal(a, b)


def test_hierarchical_prune_is_deterministic(bank, micro_backbone, micro_data):
    sched = pr.PruneSchedule((0.34,), (0.25,), "lowest_score")
    args = (micro_backbone, micro_data["train"], micro_data["dev"], sched)
    first = pr.hierarchical_prune(bank, *args, 2, *RECIPE, batch_size=16, seed=2)
    second = pr.hierarchical_prune(bank, *args, 2, *RECIPE, batch_size=16, seed=2)
    assert first.best.dev_acc == second.best.dev_acc
    assert support.same_masks(first.best.selection, second.best.selection)
    assert first.best.retrain.losses == second.best.retrain.losses


def test_degenerate_grid_repeats_stage_one(micro_backbone, micro_data):
    """Grid {(0,0)} with stage 1's seed and epoch count, pruning the untuned
    bank, lands exactly on a stage-1 tune of a copy of it."""
    bank = init_prompt(6, 16, 4, 8, micro_backbone)
    twin = bank.copy()
    stage1 = tune(twin, micro_backbone, micro_data["train"], micro_data["dev"], 3,
                  *RECIPE, batch_size=16, seed=5)
    sched = pr.PruneSchedule((0.0,), (0.0,), "lowest_score")
    out = pr.hierarchical_prune(bank, micro_backbone, micro_data["train"],
                                micro_data["dev"], sched, 3, *RECIPE,
                                batch_size=16, seed=5)
    best = out.best.bank
    assert out.best.dev_acc == stage1.best_dev_acc
    assert best.p.tobytes() == twin.p.tobytes()
    assert (best.token_mask == 1.0).all() and (best.piece_mask == 1.0).all()


def test_hierarchical_prune_guards(bank, micro_backbone, micro_data):
    sched = pr.PruneSchedule((0.0,), (0.0,), "lowest_score")
    with pytest.raises(ConfigError):
        pr.hierarchical_prune(bank, micro_backbone, micro_data["train"],
                              micro_data["dev"], sched, -1, *RECIPE)
    for bad in (pr.PruneSchedule((), (0.0,), "lowest_score"),
                pr.PruneSchedule((0.5,), (1.0,), "lowest_score"),
                pr.PruneSchedule((0.5,), (0.0,), "top_k")):
        with pytest.raises(ConfigError):
            bad.validate()


def test_cell_rank_prefers_accuracy_then_fewer_params_then_smaller_ratios():
    def cell(t_ratio, p_ratio, dev_acc, kept):
        return pr.CellResult(t_ratio, p_ratio, None, dev_acc, kept, None)

    cells = [cell(0.0, 0.0, 0.75, 96), cell(0.5, 0.5, 0.75, 24), cell(0.5, 0.0, 0.75, 24),
             cell(0.34, 0.25, 0.5, 8), cell(0.34, 0.5, 0.8, 64)]
    ranked = sorted(cells, key=pr.CellResult.rank)
    assert [(c.token_ratio, c.piece_ratio) for c in ranked] == [
        (0.34, 0.5), (0.5, 0.0), (0.5, 0.5), (0.0, 0.0), (0.34, 0.25)]


def test_cell_saliency_mixes_stages():
    tok = make_report([0.4, 0.1], [[0.5, 0.6], [0.7, 0.8]])
    piece = pr.ImportanceReport(np.array([0.9, 0.0]), np.array([[1.5, 1.6], [0.0, 0.0]]),
                                np.array([True, False]),
                                np.array([[True, True], [False, False]]), 3)
    sel = np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])
    cell = pr.CellResult(0.5, 0.5, PromptBank(np.zeros((2, 2)), *sel, k=2), 0.8, 8, None,
                         token_report=tok, piece_report=piece)
    merged = cell.saliency()
    assert np.array_equal(merged.token_scores, [0.4, 0.1])      # token-stage scores
    assert np.array_equal(merged.piece_scores[0], [1.5, 1.6])   # survivor: piece stage
    assert np.array_equal(merged.piece_scores[1], [0.7, 0.8])   # removed: token stage
    assert merged.examples_seen == 3


# --- ablation baselines -------------------------------------------------------------


def test_negative_masking_leaves_bank_untouched(bank, micro_backbone, micro_data):
    before = bank_bytes(bank)
    report = pr.score_tokens(bank, micro_backbone, micro_data["train"])
    acc, selection = pr.baseline_negative_masking(bank, micro_backbone, report,
                                                  micro_data["dev"], 0.34)
    assert 0.0 <= acc <= 1.0
    assert len(support.kept_tokens(selection)) == bank.m - int(np.floor(0.34 * bank.m))
    assert bank_bytes(bank) == before


def test_negative_masking_ratio_zero_is_identity(bank, micro_backbone, micro_data):
    report = pr.score_tokens(bank, micro_backbone, micro_data["train"])
    acc, selection = pr.baseline_negative_masking(bank, micro_backbone, report,
                                                  micro_data["dev"], 0.0)
    assert acc == evaluate(bank, micro_backbone, micro_data["dev"])
    assert support.kept_tokens(selection) == set(range(bank.m))


def test_negative_masking_random_rule_is_seeded(bank, micro_backbone, micro_data):
    report = pr.score_tokens(bank, micro_backbone, micro_data["train"])
    args = (bank, micro_backbone, report, micro_data["dev"], 0.34)
    a = pr.baseline_negative_masking(*args, rule="random", seed=1)
    b = pr.baseline_negative_masking(*args, rule="random", seed=1)
    assert a[0] == b[0] and support.same_masks(a[1], b[1])
