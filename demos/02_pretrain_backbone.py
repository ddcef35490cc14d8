"""Pretrain a miniature frozen backbone with masked-token prediction.

The backbone is a small transformer encoder. Pretraining masks one
position per sequence and asks the model to recover the original symbol
through the tied embedding head; after this script the weights are
frozen for good and every later stage trains prompts only.
"""

import os
import tempfile

import numpy as np

from xprompt.backbone import BackboneConfig, init_backbone, predict, pretrain
from xprompt.checkpoint import BACKBONE_FORMAT, load_backbone, read_manifest, save_backbone
from xprompt.tasks import Example

cfg = BackboneConfig(vocab_size=16, embed_dim=16, layers=1, heads=2,
                     max_seq_len=32, num_classes=2, seed=3)
bb = init_backbone(cfg)

# --- corpus: sorted random sequences so neighbors predict masked symbols ---------------

rng = np.random.default_rng(7)
corpus = [tuple(int(t) for t in sorted(rng.integers(2, cfg.vocab_size,
                                                    size=rng.integers(5, 10))))
          for _ in range(60)]
print(f"corpus of {len(corpus)} sequences, e.g. {corpus[0]}")

pretrain(bb, corpus, steps=200, lr=1e-2)
losses = bb.pretrain_losses
print(f"mlm loss: step 0 {losses[0]:.4f} -> final {losses[-1]:.4f} "
      f"(decreased: {losses[-1] < losses[0]})")

# --- the checkpoint round-trips bitwise --------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    save_backbone(bb, os.path.join(tmp, "backbone"))
    # read_manifest reads and checks the fragment once; load_backbone parses it
    again = load_backbone(read_manifest(os.path.join(tmp, "backbone"), BACKBONE_FORMAT))
same = all(np.array_equal(bb.weights[k], again.weights[k]) for k in bb.weights)
print(f"checkpoint round trip bitwise identical: {same}")

# --- a frozen backbone still classifies (at chance, prompts come later) ---------------

probe = [Example(tokens=seq, label=0) for seq in corpus[:8]]
guesses = predict(bb, np.zeros((0, cfg.embed_dim)), probe)
print(f"classifier head output before any tuning: {guesses}")
print("the head stays at its seeded init; prompt tuning adapts to it without"
      " touching a single backbone weight")
