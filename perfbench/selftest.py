"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload traced at the smallest scale (``--seconds 1``) on the
default seed and on a second one, and checks that

- every run is correct, so the traced records are byte-identical to the
  untraced ones (run.py fails a run whose records' sha256 differs);
- the exact counts repeat: 2 * |T| * |P| scoring sweeps with 1 + |T| distinct
  inputs on ``prune_grid``, ``pretrain.steps`` pretraining steps on
  ``pipeline``, and the same ``prompt.tune.steps`` on both seeds;
- metrics of a traced function that no longer exists are missing, not zero;
- the benchmark refuses to run without the xprompt sources.

Exits 1 if any check fails. Takes a few minutes on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer

SEEDS = (0, 1)


def bench(workload: str, seed: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    expected = {
        "pipeline": {"backbone.pretrain.steps": run.SCALE["pretrain.steps"]},
        "prune_grid": {
            "pruning.score_tokens.calls": 2 * len(run.GRID5) ** 2,
            "pruning.score_tokens.distinct": 1 + len(run.GRID5),
            "pruning.cells": len(run.GRID5) ** 2,
        },
        "seeds_jobs2": {"pruning.score_tokens.calls": 0},
    }
    for workload, counts in expected.items():
        tune_steps = set()
        for seed in SEEDS:
            proc = bench(workload, seed)
            name = f"{workload} seed {seed}"
            if proc.returncode != 0:
                check(False, f"{name}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            check(result["correct"] and result["failed"] == 0,
                  f"{name}: all {result['attempted']} runs correct, traced one included")
            check(set(metrics) == {m for m, _ in tracer.METRICS},
                  f"{name}: every per-layer metric reported")
            for metric, want in counts.items():
                check(metrics.get(metric) == want, f"{name}: {metric} = "
                      f"{metrics.get(metric)}, expected {want}")
            tune_steps.add(metrics.get("prompt.tune.steps"))
        check(len(tune_steps) == 1, f"{workload}: prompt.tune.steps {sorted(tune_steps)} "
              "repeats across seeds")

    sys.path.insert(0, str(run.ROOT / "src"))
    from xprompt import prompt
    evaluate = prompt.evaluate
    del prompt.evaluate
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        prompt.evaluate = evaluate
    summary = tracer.summarize({"spans": [], "missing": t.missing,
                                "setup_done": 0.0, "work_end": 1.0})
    check("prompt.evaluate.calls" not in summary and "prompt.step_ms" not in summary
          and summary.get("prompt.tune.steps") == 0,
          "without prompt.evaluate its metrics are absent, not zero")

    bare = run.ROOT / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("pipeline", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.parent.rmdir()  # only if no benchmark is running
    except OSError:
        pass
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"without sources: exit code {proc.returncode}, no result printed")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
