"""Benchmark of the xprompt command-line tool.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; run every workload with

    for w in pipeline prune_grid seeds_jobs2; do python3 perfbench/run.py --workload $w; done

Each workload is one ``xprompt``
command, run again and again as a separate process through
``xprompt.cli.main`` (see child.py) for ``--seconds`` seconds, with at least
three runs. Inputs that the command needs beforehand (a pretrained backbone,
a stage-1 checkpoint) are built once per invocation with the same config and
copied into a fresh output directory for every run. Every workload process
runs with OpenBLAS, OpenMP and MKL pinned to one thread.

Workloads (a researcher running ``xprompt`` on 2 shared cores):

- ``pipeline``: a fresh ``xprompt pipeline``, one seed, ``--jobs 1``, on the
  calibration grid (token ratios 0.1 and 0.3, piece ratio 0.25). The only
  workload that pretrains, so the only one with trainable weights in autograd.
- ``prune_grid``: ``xprompt prune`` on a prepared stage-1 checkpoint over a 5x5
  ratio grid with one retrain epoch. Importance scoring and per-cell overhead
  dominate it; no pretraining runs.
- ``seeds_jobs2``: ``xprompt tune --resume --jobs 2`` over four seeds on a
  prepared backbone. The only concurrent workload (harness's thread pool under
  the GIL); no pruning runs.

Epochs, pretraining steps and, for ``prune_grid``, the split sizes are scaled
down from the calibration config so that several runs fit in one invocation.
The amount of work does not depend on the seed: every epoch, step and grid
cell always runs.

End-to-end metrics (``--trace 0``), measured from this process with tracing
off, medians over the runs:

- ``setup_s``: spawn until xprompt is imported, the config is validated and
  ``harness.load_splits`` has returned.
- ``total_s``: spawn until the process exits.
- ``peak_rss_mb``: ``ru_maxrss`` of the process, from ``os.wait4``.

``dev_acc``, the median over the workload's seeds of the last record's dev
accuracy (the ``final`` row, or ``stage1`` for ``seeds_jobs2``), is printed on
every invocation and reported as the per-layer metric ``harness.dev_acc``. It
repeats exactly for a seed, but at this scale it ranges from about 0.4 to 0.8
over seeds 1 to 10 (quartile spread near 30% of the median), so it cannot
carry a bound. The records' sha256 is printed too: any change in results
shows there.

With ``--trace 1`` one more run is traced (tracer.py) and the per-layer
metrics of tracer.METRICS are printed instead, with the tracing overhead.

A run fails when it exits non-zero, when its records are malformed or break
the pruning arithmetic (see ``check_records``), or when their sha256 differs
from the first run's. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"

MIN_RUNS = 3
TRACE_COST = 1.5     # a traced run takes up to this many untraced runs
RUN_TIMEOUT_S = 150  # a workload process still alive after this is killed

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Prompt geometry, pinned because check_records relies on it.
M, K, EMBED = 20, 16, 32
METRICS_HEADER = "stage\tseed\tdev_acc\tkept_tokens\tkept_params\tpercent"
GRID5 = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class Workload:
    command: str             # the timed xprompt subcommand
    prepare: str | None      # subcommand that builds the prepared inputs
    jobs: int
    seeds: int               # length of run.seeds
    dev_size: int
    overrides: dict          # config keys beyond SCALE and the template defaults
    token_ratios: tuple[float, ...] = ()  # the pruning grid, if the command prunes
    piece_ratios: tuple[float, ...] = ()


SCALE = {"pretrain.steps": 60, "tune.epochs": 4}

WORKLOADS = {
    "pipeline": Workload("pipeline", None, jobs=1, seeds=1, dev_size=128,
                         overrides={"prune.retrain_epochs": 1},
                         token_ratios=(0.1, 0.3), piece_ratios=(0.25,)),
    "prune_grid": Workload("prune", "tune", jobs=1, seeds=1, dev_size=32,
                           overrides={"prune.retrain_epochs": 1, "task.train_size": 32},
                           token_ratios=GRID5, piece_ratios=GRID5),
    "seeds_jobs2": Workload("tune", "pretrain", jobs=2, seeds=4, dev_size=128,
                            overrides={"tune.epochs": 5}),
}


def run_seeds(wl: Workload, seed: int) -> list[int]:
    return [100 * seed + i for i in range(1, wl.seeds + 1)]


def config_text(wl: Workload, seed: int) -> str:
    """The run config: template defaults plus the workload's keys and the
    task, backbone and run seeds derived from the benchmark seed."""
    values = {**SCALE, "prompt.m": M, "prompt.k": K, "backbone.embed_dim": EMBED,
              "task.dev_size": wl.dev_size, **wl.overrides,
              "task.seed": seed, "backbone.seed": seed,
              "run.seeds": ",".join(map(str, run_seeds(wl, seed)))}
    if wl.token_ratios:
        values["prune.token_ratios"] = ",".join(map(repr, wl.token_ratios))
        values["prune.piece_ratios"] = ",".join(map(repr, wl.piece_ratios))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


# --- correctness ---------------------------------------------------------------


def exact_percent(count: int, total: int) -> str:
    """count/total in percent, 4 decimals, rounded half to even."""
    q, r = divmod(count * 100 * 10_000, total)
    if 2 * r > total or (2 * r == total and q % 2 == 1):
        q += 1
    return f"{q // 10_000}.{q % 10_000:04d}"


def cell_tag(t: float, p: float) -> str:
    return f"cell[{t!r},{p!r}]"


def expected_cell(t: float, p: float) -> tuple[int, int]:
    """(kept tokens, kept params) of a grid cell: floor(ratio * live) removed
    at each level, pieces pooled over all live cells."""
    tokens = M - math.floor(t * M)
    live = tokens * K
    return tokens, (live - math.floor(p * live)) * (EMBED // K)


def check_records(wl: Workload, seeds: list[int],
                  files: list[bytes]) -> dict[int, list[tuple]]:
    """Parse and check the records; raise ValueError on any defect."""
    rows: dict[int, list[tuple]] = {s: [] for s in seeds}
    for data in files:
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != METRICS_HEADER:
            raise ValueError("records have a bad header")
        for line in lines[1:]:
            stage, seed, acc, tokens, params, pct = line.split("\t")
            if int(seed) not in rows:
                raise ValueError(f"record for unexpected seed {seed}")
            rows[int(seed)].append((stage, float(acc), int(tokens), int(params), pct))

    cells = [(t, p) for t in wl.token_ratios for p in wl.piece_ratios]
    stages = {"pipeline": ["stage1"] + [cell_tag(*c) for c in cells] + ["final"],
              "prune": [cell_tag(*c) for c in cells] + ["final"],
              "tune": ["stage1"]}[wl.command]
    for seed, recs in rows.items():
        if [r[0] for r in recs] != stages:
            raise ValueError(f"seed {seed}: stages {[r[0] for r in recs]}, "
                             f"expected {stages}")
        by_stage = {r[0]: r for r in recs}
        for stage, acc, tokens, params, pct in recs:
            correct = acc * wl.dev_size
            if not 0.0 <= acc <= 1.0 or abs(correct - round(correct)) > 1e-9:
                raise ValueError(f"seed {seed} {stage}: dev_acc {acc} is not a "
                                 f"share of {wl.dev_size} examples")
            if pct != exact_percent(params, M * EMBED):
                raise ValueError(f"seed {seed} {stage}: percent {pct} for {params} params")
        if "stage1" in by_stage and by_stage["stage1"][2:4] != (M, M * EMBED):
            raise ValueError(f"seed {seed}: stage1 does not keep the whole prompt")
        if "final" in by_stage:
            grid = {c: by_stage[cell_tag(*c)] for c in cells}
            for c, rec in grid.items():
                if rec[2:4] != expected_cell(*c):
                    raise ValueError(f"seed {seed} {cell_tag(*c)}: kept {rec[2:4]}, "
                                     f"expected {expected_cell(*c)}")
            # the harness's rank: best dev_acc, then fewer params, then ratios
            best = min(cells, key=lambda c: (-grid[c][1], grid[c][3], c))
            if by_stage["final"][1:] != grid[best][1:]:
                raise ValueError(f"seed {seed}: final row is not the best cell")
    return rows


def record_files(wl: Workload, seeds: list[int], out: Path) -> list[Path]:
    if wl.command == "pipeline":
        return [out / "metrics.tsv"]
    stage = "prune" if wl.command == "prune" else "stage1"
    return [out / f"seed{s}" / stage / "records.tsv" for s in seeds]


# --- workload processes ----------------------------------------------------------


@dataclass
class Run:
    total_s: float
    setup_s: float = float("nan")
    rss_mb: float = float("nan")
    cpu_s: float = float("nan")
    digest: str = ""
    dev_acc: float = float("nan")
    error: str = ""
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], log: Path) -> tuple[float, float, int, object]:
    """Run child.py with args; return (spawn time, exit time, exit code, rusage)."""
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage


def log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def cli_args(wl: Workload, cfg: Path, out: Path, command: str) -> list[str]:
    args = [command, "--config", str(cfg), "--out", str(out), "--jobs", str(wl.jobs)]
    return args + ["--resume"] if command == "tune" else args


def run_once(wl: Workload, seed: int, work: Path, index: int, traced: bool) -> Run:
    cfg, prepared = work / "bench.cfg", work / "prepared"
    out = work / f"run{index}"
    if wl.prepare:
        shutil.copytree(prepared, out)
    mark, spans, log = (work / f"run{index}.{ext}" for ext in ("mark", "spans", "log"))
    t0, t1, code, usage = spawn([str(mark), str(spans) if traced else "-", "--",
                                 *cli_args(wl, cfg, out, wl.command)], log)
    run = Run(total_s=t1 - t0, rss_mb=usage.ru_maxrss / 1024.0,
              cpu_s=usage.ru_utime + usage.ru_stime)
    if code != 0:
        run.error = f"exit code {code}: {log_tail(log)}"
        return run
    try:
        run.setup_s = float(mark.read_text()) - t0
        seeds = run_seeds(wl, seed)
        data = [path.read_bytes() for path in record_files(wl, seeds, out)]
        rows = check_records(wl, seeds, data)
        run.digest = hashlib.sha256(b"".join(data)).hexdigest()
        run.dev_acc = statistics.median(recs[-1][1] for recs in rows.values())
        if traced:
            run.trace = json.loads(spans.read_text())
    except (OSError, ValueError) as exc:
        run.error = f"bad output: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return run


def prepare(wl: Workload, work: Path) -> float:
    """Build the prepared inputs; return the time it took."""
    if not wl.prepare:
        return 0.0
    log = work / "prepare.log"
    t0, t1, code, _ = spawn([str(work / "prepare.mark"), "-", "--",
                             *cli_args(wl, work / "bench.cfg", work / "prepared",
                                       wl.prepare)], log)
    if code != 0:
        raise RuntimeError(f"preparing inputs with `xprompt {wl.prepare}` failed: "
                           f"exit code {code}: {log_tail(log)}")
    return t1 - t0


def environment() -> dict:
    """Environment block of a workload process, plus the git commit if known."""
    out = subprocess.run([sys.executable, str(HERE / "child.py"), "--env"], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, timeout=60,
                         check=True).stdout
    env = json.loads(out)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {**env, "git_commit": commit}


# --- reporting -------------------------------------------------------------------


def end_to_end(runs: list[Run]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(r.setup_s for r in runs), "s"),
        "total_s": (statistics.median(r.total_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
    }


def per_layer(runs: list[Run], traced: Run) -> tuple[dict[str, tuple[float, str]], list[str]]:
    units = dict(tracer.METRICS)
    values = tracer.summarize(traced.trace)
    values["harness.cpu_s"] = statistics.median(r.cpu_s for r in runs)
    values["harness.parallelism"] = statistics.median(
        r.cpu_s / (r.total_s - r.setup_s) for r in runs)
    values["harness.dev_acc"] = runs[0].dev_acc
    values["trace.overhead"] = traced.total_s / statistics.median(r.total_s for r in runs)
    missing = [name for name in units if name not in values]
    return {name: (values[name], units[name]) for name in units if name in values}, missing


def bench(wl: Workload, args: argparse.Namespace, work: Path) -> int:
    (work / "bench.cfg").write_text(config_text(wl, args.seed), encoding="utf-8")
    command = " ".join(cli_args(wl, Path("CONFIG"), Path("OUT"), wl.command))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: xprompt {command}")
    print("env " + json.dumps(environment()))
    print(f"prepare_s {prepare(wl, work):.4f} s (building inputs, not part of setup_s)")

    runs: list[Run] = []
    start = time.monotonic()
    while True:
        runs.append(run_once(wl, args.seed, work, len(runs), traced=False))
        spent = time.monotonic() - start
        per_run = spent / len(runs)
        reserve = per_run * (1 + (TRACE_COST if args.trace else 0))
        if len(runs) >= MIN_RUNS and spent + reserve > args.seconds:
            break
    if args.trace:
        runs.append(run_once(wl, args.seed, work, len(runs), traced=True))

    reference = next((r.digest for r in runs if not r.error), "")
    for r in runs:
        if not r.error and r.digest != reference:
            r.error = f"records sha256 {r.digest} differs from the first run's {reference}"
    for i, r in enumerate(runs):
        kind = "traced" if r.trace is not None else "run"
        print(f"{kind} {i}: total {r.total_s:.4f} s, setup {r.setup_s:.4f} s, "
              f"rss {r.rss_mb:.1f} MB, cpu {r.cpu_s:.3f} s, dev_acc {r.dev_acc}"
              + (f", FAILED: {r.error}" if r.error else ""))

    ok = [r for r in runs if not r.error and r.trace is None]
    failed = sum(1 for r in runs if r.error)
    print(f"records_sha256 {reference or 'none'}")
    print(f"dev_acc {next((r.dev_acc for r in runs if not r.error), 'none')}")
    print(f"correctness: {'ok' if not failed else 'FAILED'}, {failed} of {len(runs)} "
          f"runs failed ({100.0 * failed / len(runs):.1f}%)")
    if not ok:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1
    if args.trace:
        traced = runs[-1]
        if traced.error:
            print("perfbench: the traced run failed", file=sys.stderr)
            return 1
        metrics, missing = per_layer(ok, traced)
        for name in missing:
            print(f"{name} missing (its traced function no longer exists)")
    else:
        metrics = end_to_end(ok)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="derives task.seed, backbone.seed and run.seeds (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on timed runs (at least three are made)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and print per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "xprompt" / "cli.py").is_file():
        print(f"perfbench: no xprompt sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    work = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(WORKLOADS[args.workload], args, work)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other invocation is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
