"""The experiment harness end to end: config file, pipeline, baselines.

Everything the library does by hand in demos 02-04 is packaged behind a
flat dotted config file and the `xprompt` command line. This script
writes the default config, shrinks it to demo scale, and drives the CLI entry
point in-process: pretrain -> stage-1 tune -> hierarchical prune ->
report, then the ablation baselines.
"""

import os
import tempfile

from xprompt import cli
from xprompt.harness import RunConfig

scratch = tempfile.TemporaryDirectory(prefix="xprompt_demo_")  # removed at the end
workdir = scratch.name
out = os.path.join(workdir, "run")
cfg_path = os.path.join(workdir, "run.cfg")

# --- start from the reference defaults and scale them down ----------------------------

with open(cfg_path, "w") as fh:
    fh.write(RunConfig.from_mapping().to_text())
print(f"defaults written to {cfg_path} (they reproduce the reference protocol)")

cfg = RunConfig.from_file(cfg_path).with_overrides(
    backbone__vocab_size=16, backbone__embed_dim=32, backbone__layers=2,
    backbone__heads=4, backbone__max_seq_len=32, backbone__seed=3,
    pretrain__steps=400, pretrain__lr=0.01, pretrain__extra_sequences=40,
    task__name="demo", task__seq_len_min=5, task__seq_len_max=9,
    task__train_size=48, task__dev_size=32, task__seed=11,
    prompt__m=8, prompt__k=4, optim__lr=0.02,
    tune__epochs=10, tune__batch_size=16,
    prune__token_ratios=(0.34,), prune__piece_ratios=(0.25,),
    prune__retrain_epochs=3, run__seeds=(1, 2), run__out=out,
)
with open(cfg_path, "w") as fh:
    fh.write(cfg.to_text())
print(f"demo config hash {cfg.config_hash()[:16]} (stable under changes of run.out and run.seeds)")

# --- the pipeline: one command, resumable, deterministic -----------------------------

code = cli.main(["pipeline", "--config", cfg_path])
print(f"xprompt pipeline exited {code}")
with open(os.path.join(out, "metrics.tsv")) as fh:
    print(fh.read().rstrip())

# --- ablation arms share the pipeline's checkpoints ----------------------------------

code = cli.main(["baselines", "--config", cfg_path])
print(f"xprompt baselines exited {code}")
with open(os.path.join(out, "baseline_medians.tsv")) as fh:
    print(fh.read().rstrip())

print(f"artifacts under {out}: config.txt, metrics.tsv, report.txt, "
      "per-seed checkpoints, saliency.txt, baselines.tsv")
print("rerunning either command reproduces every metrics file byte for byte")
scratch.cleanup()
