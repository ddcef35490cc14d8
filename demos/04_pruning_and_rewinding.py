"""Hierarchical pruning: score, remove, rewind, retrain.

Importance of a prompt structure is the mean absolute gradient of the
loss with respect to its mask variable. Token-level pruning removes
whole rows; piece-level pruning removes width-e/k slices of the
survivors. Each cell retrains a fresh copy of the stage-1 prompt under its
masks, which is the lottery-ticket recipe, so the stage-1 bank itself stays
as it was and serves the post-hoc masking at the end.
"""

import os
import tempfile

import numpy as np

from xprompt.backbone import BackboneConfig, init_backbone, pretrain
from xprompt.harness import exact_percent, saliency_text
from xprompt.prompt import evaluate, init_prompt, tune
from xprompt.pruning import PruneSchedule, hierarchical_prune, score_tokens, select_tokens
from xprompt.tasks import TaskSpec, generate, pretrain_corpus

# --- stage 1: tune a prompt -----------------------------------------------------

cfg = BackboneConfig(vocab_size=16, embed_dim=32, layers=2, heads=4,
                     max_seq_len=32, num_classes=2, seed=3)
bb = init_backbone(cfg)
spec = TaskSpec(name="demo", vocab_size=16, num_classes=2,
                seq_len_min=5, seq_len_max=9, train_size=48, dev_size=32, seed=11)
data = generate(spec)
train, dev = data["train"], data["dev"]
pretrain(bb, pretrain_corpus(train), steps=400, lr=1e-2)

bank = init_prompt(m=8, e=32, k=4, seed=1, bb=bb)
tuned = tune(bank, bb, train, dev, epochs=15, lr=0.02, weight_decay=1e-5, seed=1)
print(f"stage-1 dev accuracy {tuned.best_dev_acc:.3f}")

# --- importance scores rank the prompt tokens ---------------------------------------

report = score_tokens(bank, bb, train)
order = np.argsort(report.token_scores)
print("token scores (low to high):",
      [f"{i}:{report.token_scores[i]:.5f}" for i in order])
selection = select_tokens(report, ratio=0.34, rule="lowest_score", seed=0)
gamma, zeta = selection  # a selection is the (token mask, piece mask) pair
print(f"removing the lowest 34% keeps tokens {np.flatnonzero(gamma).tolist()}")

# --- the full grid: prune, rewind, retrain per cell ----------------------------------

sched = PruneSchedule(token_ratios=(0.17, 0.34), piece_ratios=(0.25, 0.5),
                      rule="lowest_score")
result = hierarchical_prune(bank, bb, train, dev, sched, retrain_epochs=4,
                            lr=0.02, weight_decay=1e-5, seed=1)
for cell in result.cells:
    print(f"  cell ({cell.token_ratio}, {cell.piece_ratio}): "
          f"dev {cell.dev_acc:.3f}, kept params {cell.kept_params}")
best = result.best
percent = exact_percent(best.kept_params, bank.m * bank.e)
print(f"best cell ({best.token_ratio}, {best.piece_ratio}): dev {best.dev_acc:.3f} "
      f"with {best.kept_params} params = {percent}% of the full prompt")

# --- saliency export for plotting ---------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "saliency.txt")
    with open(path, "w") as fh:
        fh.write(saliency_text(best.saliency(), best.selection))
    with open(path) as fh:
        head = [next(fh) for _ in range(6)]
print("saliency file head:")
print("".join(f"  {line}" for line in head), end="")

# --- post-hoc masking: does targeted removal beat random removal? --------------------

# the stage-1 report from above serves every rule and draw; each masked copy is
# evaluated as it is, with no rewind and no retraining
kept = select_tokens(report, ratio=0.75, rule="lowest_score")
neg = evaluate(bank.with_masks(kept), bb, dev)
draws = [evaluate(bank.with_masks(select_tokens(report, ratio=0.75, rule="random", seed=s)),
                  bb, dev) for s in range(1, 6)]
print(f"post-hoc masking at 75% keeps tokens {np.flatnonzero(kept[0]).tolist()}: "
      f"lowest-score {neg:.3f} vs random draws "
      f"{[f'{d:.3f}' for d in draws]} (median {float(np.median(draws)):.3f})")
print("targeted masking keeps the high-scoring tokens; random draws scatter below it")
