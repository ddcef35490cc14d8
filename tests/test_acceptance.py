"""Acceptance checks: one test per release criterion, one printed line each.

Every check prints `criterion N (name): PASS/FAIL ...` with the measured
value, its tolerance, and the wall-clock time, then asserts. The lines are
kept in support.CRITERIA, and conftest prints them in pytest's terminal
summary, so they appear in any pytest run, -q included.

Criteria 1-5 and 8-10 run at micro scale. Criteria 6 and 7 run the real
pipeline and baseline arms at the calibration defaults shipped in the
config template (restricted to a two-cell ratio grid so the whole check
fits its time budget) and compare 5-seed median dev accuracies. They carry
the ``calibration`` marker: their shared fixture takes most of tier-1's
time, so a fast local loop is ``pytest -m "not calibration"``, while the
tier-1 command, with no ``-m``, still runs every test.
"""

import os
import time

import numpy as np
import pytest

from xprompt import autograd as ag
from xprompt import harness as hz
from xprompt import pruning as pr
from xprompt.backbone import BackboneConfig, forward_batch, init_backbone, pretrain
from xprompt.prompt import PromptBank, init_prompt, tune
from xprompt.tasks import Example, TaskSpec, fewshot_subsample, generate, pretrain_corpus

from support import CRITERIA

# --- reporting --------------------------------------------------------------------


def report(num: int, name: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    took = time.monotonic() - t0
    verdict = "PASS" if ok and took < budget else "FAIL"
    CRITERIA.append(f"criterion {num:2d} ({name}): {verdict} "
                    f"[{detail}; {took:.1f}s of {budget:.0f}s budget]")
    assert ok, f"criterion {num}: {detail}"
    assert took < budget, f"criterion {num}: took {took:.1f}s, budget {budget:.0f}s"


# --- micro-instance construction -----------------------------------------------------


def mask_instance(seed: int):
    """One random gradient-check instance: tiny frozen net, random prompt.

    The classifier head is scaled up so logits are O(1) and the instance is
    only accepted when every mask variable has gradient magnitude >= 1e-4;
    finite differences cannot resolve a vanishing gradient to fine relative
    error in float64, so the fidelity check is run at well-conditioned
    points.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    e = int(rng.choice((8, 16)))
    k = int(rng.choice((2, 4)))
    cfg = BackboneConfig(vocab_size=12, embed_dim=e, layers=1,
                         heads=2 if e >= 16 else 1, max_seq_len=24,
                         num_classes=2, seed=seed)
    bb = init_backbone(cfg)
    bb.weights["head"] *= 50.0
    bb.freeze()
    bank = PromptBank(rng.uniform(-1.0, 1.0, size=(m, e)),
                      np.ones(m), np.ones((m, k)), k)
    batch = [Example(tuple(int(x) for x in rng.integers(2, 12, size=rng.integers(3, 7))),
                     int(rng.integers(0, 2)))]
    return bb, bank, batch


def mask_gradients(bank, bb, batch):
    """The batch's mask gradients: the means of the per-example ones."""
    g_t, g_z = pr.mask_gradients(bank, bb, batch)
    return g_t.mean(axis=0), g_z.mean(axis=0)


def masked_loss(bank, bb, batch, token: np.ndarray, piece: np.ndarray) -> float:
    token_node = ag.constant(token.reshape(-1, 1))
    piece_node = ag.constant(piece)
    rows = ag.constant(bank.p)
    eff = ag.blockwise_scale(ag.rowwise_scale(rows, token_node), piece_node)
    logits = forward_batch(bb, eff, [ex.tokens for ex in batch])
    return ag.softmax_cross_entropy(logits, [ex.label for ex in batch]).value


def well_conditioned_instances(count: int, floor: float = 1e-4):
    found, seed = [], 0
    while len(found) < count:
        bb, bank, batch = mask_instance(seed)
        g_t, g_z = mask_gradients(bank, bb, batch)
        if min(np.abs(g_t).min(), np.abs(g_z).min()) >= floor:
            found.append((bb, bank, batch))
        seed += 1
    return found


# --- criterion 1: gradient fidelity ---------------------------------------------------


def test_01_gradient_fidelity():
    t0 = time.monotonic()
    eps, worst, checked = 1e-5, 0.0, 0
    for bb, bank, batch in well_conditioned_instances(20):
        m, k = bank.piece_mask.shape
        g_t, g_z = mask_gradients(bank, bb, batch)
        ones_t, ones_z = np.ones(m), np.ones((m, k))
        for i in range(m):
            up, dn = ones_t.copy(), ones_t.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (masked_loss(bank, bb, batch, up, ones_z)
                  - masked_loss(bank, bb, batch, dn, ones_z)) / (2 * eps)
            worst = max(worst, abs(fd - g_t[i]) / abs(fd))
            checked += 1
        for i in range(m):
            for q in range(k):
                up, dn = ones_z.copy(), ones_z.copy()
                up[i, q] += eps
                dn[i, q] -= eps
                fd = (masked_loss(bank, bb, batch, ones_t, up)
                      - masked_loss(bank, bb, batch, ones_t, dn)) / (2 * eps)
                worst = max(worst, abs(fd - g_z[i, q]) / abs(fd))
                checked += 1
    report(1, "gradient fidelity", worst <= 1e-5,
           f"worst relative error {worst:.2e} <= 1e-05 over {checked} mask variables",
           t0, budget=10.0)


# --- criterion 2: mask identity ------------------------------------------------------


def test_02_mask_identity():
    t0 = time.monotonic()
    identical = 0
    for seed in range(10):
        bb, bank, batch = mask_instance(100 + seed)
        seqs = [ex.tokens for ex in batch]
        raw = forward_batch(bb, ag.constant(bank.p), seqs).value
        eff = ag.blockwise_scale(ag.rowwise_scale(ag.constant(bank.p),
                                                  ag.constant(np.ones((bank.m, 1)))),
                                 ag.constant(np.ones((bank.m, bank.k))))
        masked = forward_batch(bb, eff, seqs).value
        identical += int(np.array_equal(raw, masked))
    report(2, "mask identity", identical == 10,
           f"{identical}/10 instances bitwise equal under all-ones masks",
           t0, budget=1.0)


# --- criterion 3: first-order prediction ----------------------------------------------


def test_03_first_order_prediction():
    t0 = time.monotonic()
    cfg = BackboneConfig(vocab_size=16, embed_dim=32, layers=2, heads=4,
                         max_seq_len=32, num_classes=2, seed=3)
    bb = init_backbone(cfg)
    spec = TaskSpec(name="toy", vocab_size=16, num_classes=2,
                    seq_len_min=5, seq_len_max=9, train_size=48, dev_size=32, seed=11)
    data = generate(spec)
    pretrain(bb, pretrain_corpus(data["train"]), steps=400, lr=1e-2)
    bank = init_prompt(m=8, e=32, k=4, seed=1, bb=bb)
    tune(bank, bb, data["train"], data["dev"], epochs=15,
         lr=0.02, weight_decay=1e-5, batch_size=16, seed=1)

    batch = data["train"][:16]
    base = masked_loss(bank, bb, batch, np.ones(bank.m), bank.piece_mask)
    g_t, _ = mask_gradients(bank, bb, batch)
    eps, worst = 1e-3, 0.0
    for i in range(bank.m):
        token = np.ones(bank.m)
        token[i] = 1.0 - eps
        actual = abs(masked_loss(bank, bb, batch, token, bank.piece_mask) - base)
        predicted = eps * abs(g_t[i])
        worst = max(worst, abs(actual - predicted) / predicted)
    report(3, "first-order prediction", worst <= 0.05,
           f"worst relative error {worst:.2%} <= 5% over {bank.m} tokens",
           t0, budget=30.0)


# --- criterion 4: selection oracle ----------------------------------------------------


def exhaustive_keep(scores: np.ndarray, p: int) -> frozenset[int]:
    from itertools import combinations
    best = min(combinations(range(len(scores)), p),
               key=lambda removed: sum(scores[list(removed)]))
    return frozenset(range(len(scores))) - frozenset(best)


def test_04_selection_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    agree, trials = 0, 0
    for _ in range(50):
        scores = rng.uniform(0.0, 1.0, size=5)
        live = np.ones(5, bool)
        rep = pr.ImportanceReport(scores, np.ones((5, 2)), live,
                                  np.ones((5, 2), bool), 1)
        for p in (1, 2):
            sel = pr.select_tokens(rep, ratio=p / 5.0, rule="lowest_score", seed=0)
            kept = frozenset(int(i) for i in np.flatnonzero(sel[0]))
            agree += int(kept == exhaustive_keep(scores, p))
            trials += 1
    report(4, "selection oracle", agree == trials,
           f"{agree}/{trials} selections equal the exhaustive argmin",
           t0, budget=1.0)


# --- criterion 5: parameter-count table -----------------------------------------------


def keep_cells(m: int, k: int, cells: dict[int, int]):
    gamma, zeta = np.zeros(m), np.zeros((m, k))
    for t, n in cells.items():
        gamma[t] = 1.0
        zeta[t, :n] = 1.0
    return gamma, zeta


def test_05_param_count_table():
    t0 = time.monotonic()
    m, e, k = 20, 2048, 16
    expected = [({t: 16 for t in range(20)}, 40960, "100.0000"),
                ({0: 16, 1: 16, 2: 16}, 6144, "15.0000"),
                ({0: 16, 1: 4}, 2560, "6.2500"),
                ({0: 4}, 512, "1.2500")]
    got = [hz._record("final", 0, 1.0, keep_cells(m, k, cells), e) for cells, _, _ in expected]
    ok = all((g.kept_params, g.percent) == (c, p) for g, (_, c, p) in zip(got, expected))
    report(5, "parameter-count table", ok,
           "the metrics record reproduces (40960, 100.0000), (6144, 15.0000), "
           "(2560, 6.2500), (512, 1.2500) exactly",
           t0, budget=1.0)


# --- criteria 6 and 7: ordering of the arms at calibration scale -----------------------


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    """Pipeline + ordering baselines at template defaults, 5 seeds.

    The ratio grid is restricted to token {0.1, 0.3} x piece {0.25} and
    retraining to 25 epochs so both criteria fit their budgets; every other
    value is the shipped default. Wall-clock is split: the pipeline and the
    pruned arms belong to criterion 6, the post-hoc masking arms to 7.
    """
    out = str(tmp_path_factory.mktemp("cal") / "run")
    cfg = hz.RunConfig.from_mapping({
        "run.out": out,
        "prune.token_ratios": (0.1, 0.3),
        "prune.piece_ratios": (0.25,),
        "prune.retrain_epochs": 25,
    })
    t0 = time.monotonic()
    records = hz.run_pipeline(cfg)
    ordering = hz.run_baselines(cfg, which=("vanilla", "random", "reversed"))
    wall_prune = time.monotonic() - t0
    t1 = time.monotonic()
    masking = hz.run_baselines(cfg, which=("negative",))
    wall_mask = time.monotonic() - t1

    def median(recs, stage):
        return float(np.median([r.dev_acc for r in recs if r.stage == stage]))

    return {
        "xprompt": median(records, "final"),
        "vanilla": median(ordering, "vanilla"),
        "random": median(ordering, "random"),
        "reversed": median(ordering, "reversed"),
        "negative": median(masking, "negative"),
        "negative_random": median(masking, "negative_random"),
        "wall_prune": wall_prune,
        "wall_mask": wall_mask,
    }


@pytest.mark.calibration
def test_06_pruned_arm_ordering(calibration):
    c = calibration
    t0 = time.monotonic() - c["wall_prune"]
    ok = (c["xprompt"] >= c["vanilla"] - 0.005
          and c["reversed"] <= c["vanilla"] - 0.02
          and c["random"] <= c["xprompt"])
    report(6, "pruned-arm ordering", ok,
           f"medians over 5 seeds: xprompt {c['xprompt']:.4f} >= vanilla - 0.5pt "
           f"({c['vanilla'] - 0.005:.4f}), reversed {c['reversed']:.4f} <= vanilla - 2pt "
           f"({c['vanilla'] - 0.02:.4f}), random {c['random']:.4f} <= xprompt",
           t0, budget=600.0)


@pytest.mark.calibration
def test_07_masking_arm_ordering(calibration):
    c = calibration
    t0 = time.monotonic() - c["wall_mask"]
    ok = c["negative"] >= c["negative_random"]
    report(7, "masking-arm ordering", ok,
           f"negative masking median {c['negative']:.4f} >= random masking "
           f"median {c['negative_random']:.4f} at token ratio 0.3 over 5 seeds",
           t0, budget=120.0)


# --- criterion 8: rewinding correctness -----------------------------------------------


def test_08_rewinding_correctness(micro_backbone, micro_data):
    t0 = time.monotonic()
    train, dev = micro_data["train"], micro_data["dev"]
    fresh = init_prompt(m=6, e=16, k=4, seed=5, bb=micro_backbone)
    start = fresh.p.copy()
    first = tune(fresh, micro_backbone, train, dev, epochs=3,
                 lr=0.05, weight_decay=1e-5, seed=9)

    keep_all = np.ones(6), np.ones((6, 4))
    pr.rewind(fresh, start, keep_all)
    second = tune(fresh, micro_backbone, train, dev, epochs=3,
                  lr=0.05, weight_decay=1e-5, seed=9)

    gap = max(abs(a - b) for a, b in zip(first.losses, second.losses))
    ok = len(first.losses) == len(second.losses) and gap <= 1e-10
    report(8, "rewinding correctness", ok,
           f"retrained loss sequence matches a fresh run, max gap {gap:.1e} <= 1e-10 "
           f"over {len(first.losses)} steps",
           t0, budget=60.0)


# --- criterion 9: determinism and resume ----------------------------------------------


def acceptance_cfg(out: str, **extra) -> hz.RunConfig:
    values = {
        "backbone.vocab_size": 16, "backbone.embed_dim": 16, "backbone.layers": 1,
        "backbone.heads": 2, "backbone.max_seq_len": 32, "backbone.seed": 3,
        "pretrain.steps": 80, "pretrain.lr": 0.01, "pretrain.extra_sequences": 40,
        "task.name": "micro", "task.seq_len_min": 5, "task.seq_len_max": 9,
        "task.train_size": 48, "task.dev_size": 32, "task.seed": 11,
        "prompt.m": 6, "prompt.k": 4, "optim.lr": 0.05,
        "tune.epochs": 3, "tune.batch_size": 16,
        "prune.token_ratios": (0.34,), "prune.piece_ratios": (0.25,),
        "prune.retrain_epochs": 2, "run.seeds": (1, 2), "run.out": out,
    }
    return hz.RunConfig.from_mapping({**values, **extra})


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_09_determinism_and_resume(tmp_path):
    t0 = time.monotonic()
    straight = str(tmp_path / "straight")
    hz.run_pipeline(acceptance_cfg(straight))

    resumed = str(tmp_path / "resumed")
    hz.run_pipeline(acceptance_cfg(resumed), "stage1")
    interrupted = not os.path.exists(os.path.join(resumed, "metrics.tsv"))
    hz.run_pipeline(acceptance_cfg(resumed), resume=True)

    same = (read_bytes(os.path.join(straight, "metrics.tsv"))
            == read_bytes(os.path.join(resumed, "metrics.tsv")))
    report(9, "determinism and resume", interrupted and same,
           "run interrupted after stage 1 then resumed; metrics.tsv bitwise equal "
           "to the uninterrupted run",
           t0, budget=300.0)


# --- criterion 10: few-shot harness ----------------------------------------------------


def test_10_fewshot_harness(tmp_path):
    t0 = time.monotonic()
    spec = TaskSpec(name="micro", vocab_size=16, num_classes=2,
                    seq_len_min=5, seq_len_max=9, train_size=48, dev_size=32, seed=11)
    full = generate(spec)["train"]
    shot_a = fewshot_subsample(full, 32, seed=7)
    shot_b = fewshot_subsample(full, 32, seed=7)
    distinct = len({ex.tokens for ex in shot_a}) == 32
    stable = [ex.tokens for ex in shot_a] == [ex.tokens for ex in shot_b]

    outs = []
    for name in ("fs_a", "fs_b"):
        out = str(tmp_path / name)
        hz.run_pipeline(acceptance_cfg(out, **{"task.shots": 32, "run.seeds": (1,)}))
        outs.append(read_bytes(os.path.join(out, "metrics.tsv")))
    ok = distinct and stable and outs[0] == outs[1]
    report(10, "few-shot harness", ok,
           "32-shot subsample is 32 distinct reproducible examples and the "
           "pipeline completes on it with identical metrics across runs",
           t0, budget=120.0)
