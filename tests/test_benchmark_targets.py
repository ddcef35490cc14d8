"""Every function and autograd op that the benchmark's tracer wraps still
exists, and its info extractors still read what the wrapped calls pass and
return: a traced run whose target is gone exits 0 without its per-layer
metrics, and one whose extractor breaks fails only when traced, so renaming,
deleting or reordering the arguments of a traced name must fail here instead.

The probe traces one micro pipeline (2 seeds, a 2 x 2 grid, jobs 1); the
module takes about 1.5 s on a 2-vCPU VM.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS, TOKEN_RATIOS, PIECE_RATIOS = (1, 2), (0.0, 0.34), (0.0, 0.25)

# measured by perfbench/run.py itself, not from spans
OWN_MEASUREMENTS = {"harness.cpu_s", "harness.parallelism", "harness.dev_acc",
                    "trace.overhead"}

# install() patches module globals, so it runs in a process of its own
PROBE = f"""
import json, os, sys, time
sys.path.insert(0, "perfbench")
import xprompt
import tracer
from xprompt import harness
from xprompt.backbone import init_backbone
t = tracer.Tracer()
t.install()
cfg = harness.RunConfig.from_mapping({{
    "backbone.vocab_size": 16, "backbone.embed_dim": 16, "backbone.layers": 1,
    "backbone.heads": 2, "backbone.max_seq_len": 32, "backbone.seed": 3,
    "pretrain.steps": 20, "pretrain.extra_sequences": 10,
    "task.seq_len_min": 5, "task.seq_len_max": 9, "task.train_size": 32,
    "task.dev_size": 16, "prompt.m": 6, "prompt.k": 4, "tune.epochs": 2,
    "prune.token_ratios": {TOKEN_RATIOS!r}, "prune.piece_ratios": {PIECE_RATIOS!r},
    "prune.retrain_epochs": 1, "run.seeds": {SEEDS!r}, "run.out": sys.argv[1]}})
setup_done = time.monotonic()
harness.run_pipeline(cfg, jobs=1)
path = os.path.join(sys.argv[1], "spans.json")
t.dump(path, setup_done, time.monotonic())
with open(path, encoding="utf-8") as fh:
    metrics = tracer.summarize(json.load(fh))
trained = sum(name != "head" for name in init_backbone(cfg.backbone_config()).weights)
print(json.dumps({{"missing": t.missing, "metrics": metrics, "trained_weights": trained,
                  "names": [name for name, _ in tracer.METRICS]}}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("traced") / "run")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE, out], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_finds_every_target(probe):
    assert probe["missing"] == []


def test_traced_pipeline_reports_every_metric(probe):
    metrics = probe["metrics"]
    want = set(probe["names"]) - OWN_MEASUREMENTS
    assert sorted(want - metrics.keys()) == []
    assert [name for name in sorted(want) if not math.isfinite(metrics[name])] == []
    assert metrics["pruning.cells"] == len(TOKEN_RATIOS) * len(PIECE_RATIOS) * len(SEEDS)
    # every optimizer step is timed: one per trained weight per pretraining
    # step, and one per prompt tuning step
    assert metrics["optim.step.calls"] == (probe["trained_weights"]
                                           * metrics["backbone.pretrain.steps"]
                                           + metrics["prompt.tune.steps"])
