"""Tune a soft prompt on a synthetic classification task.

The prompt bank holds m trainable embedding rows that are prepended to
every input; the backbone never changes. This script generates a task,
tunes for a handful of epochs, and shows the dev-accuracy trajectory and
the best-epoch checkpointing behavior.
"""

import os
import tempfile
from collections import Counter

from xprompt.backbone import BackboneConfig, init_backbone, pretrain
from xprompt.checkpoint import PROMPT_FORMAT, load_prompt, read_manifest, save_prompt
from xprompt.prompt import evaluate, init_prompt, tune
from xprompt.tasks import TaskSpec, generate, pretrain_corpus

# --- a small pretrained backbone and a synthetic task -------------------------------

cfg = BackboneConfig(vocab_size=16, embed_dim=32, layers=2, heads=4,
                     max_seq_len=32, num_classes=2, seed=3)
bb = init_backbone(cfg)

spec = TaskSpec(name="demo", vocab_size=16, num_classes=2,
                seq_len_min=5, seq_len_max=9, train_size=48, dev_size=32, seed=11)
data = generate(spec)
train, dev = data["train"], data["dev"]
pretrain(bb, pretrain_corpus(train), steps=400, lr=1e-2)
print(f"task: majority_class, {len(train)} train / {len(dev)} dev, "
      f"majority baseline {max(Counter(ex.label for ex in dev).values()) / len(dev):.3f}")

# --- tune m=8 prompt rows, k=4 pieces each -----------------------------------------

bank = init_prompt(m=8, e=cfg.embed_dim, k=4, seed=1, bb=bb)
print(f"untuned dev accuracy {evaluate(bank, bb, dev):.3f}")

result = tune(bank, bb, train, dev, epochs=15, lr=0.02, weight_decay=1e-5,
              batch_size=16, seed=1)

print(f"dev accuracy per epoch: {[round(a, 3) for a in result.dev_history]}")
print(f"best {result.best_dev_acc:.3f} at epoch {result.best_epoch} "
      f"(bank restored to that epoch, ties go to the earliest)")

# --- prompt checkpoints carry values and masks --------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    save_prompt(bank, os.path.join(tmp, "prompt"))
    again = load_prompt(read_manifest(os.path.join(tmp, "prompt"), PROMPT_FORMAT))
print(f"reloaded, dev accuracy {evaluate(again, bb, dev):.3f} (identical by construction)")
