"""Experiment orchestration around the tune -> prune -> rewind pipeline.

A run is described by a flat key-value config file with dotted section
names. The pipeline stages (backbone, stage1, prune) each persist a
checkpoint plus a deterministic metrics fragment, so an interrupted run
resumes from the last completed stage and reproduces the uninterrupted
metrics file byte for byte. Wall-clock times appear only in the human
report, never in metrics.

Per-seed stages (stage 1, prune, the baseline arms and the transfer arms)
run in forked worker processes, one seed per task, when jobs > 1. Each
seed's work depends only on the config and that seed, so every metric and
every file in the run directory is the same for any jobs.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint, tasks
from .backbone import BackboneConfig, FrozenBackbone, init_backbone, pretrain
from .errors import ConfigError, DataError, StageError
from .optim import make_optimizer
from .prompt import InitStrategy, PromptBank, init_prompt, tune
from .pruning import (CellResult, ImportanceReport, Masks, PruneSchedule,
                      baseline_negative_masking, hierarchical_prune, kept_params)
from .tasks import RESERVED_SYMBOLS, TaskSpec
from .util import sha256_hex, stable_seed, write_text_atomic

log = logging.getLogger("xprompt.harness")

STAGES = ("backbone", "stage1", "prune")
BASELINE_ARMS = ("vanilla", "negative", "random", "reversed", "length")
# worker processes for per-seed stages: one per CPU this process may run on
DEFAULT_JOBS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# --- config schema ----------------------------------------------------------------

# (key, type, default); the template lists every key in this order
SCHEMA: tuple[tuple[str, str, object], ...] = (
    ("backbone.vocab_size", "int", 32),
    ("backbone.embed_dim", "int", 32),
    ("backbone.layers", "int", 2),
    ("backbone.heads", "int", 4),
    ("backbone.max_seq_len", "int", 40),
    ("backbone.num_classes", "int", 2),
    ("backbone.seed", "int", 0),
    ("pretrain.steps", "int", 800),
    ("pretrain.lr", "float", 5e-3),
    ("pretrain.extra_sequences", "int", 300),
    ("task.name", "str", "cal"),
    ("task.kind", "str", "majority_class"),
    ("task.seq_len_min", "int", 8),
    ("task.seq_len_max", "int", 16),
    ("task.train_size", "int", 192),
    ("task.dev_size", "int", 128),
    ("task.seed", "int", 0),
    ("task.train_path", "str", ""),
    ("task.dev_path", "str", ""),
    ("task.shots", "int", 0),
    ("task.shots_seed", "int", 7),
    ("prompt.m", "int", 20),
    ("prompt.k", "int", 16),
    ("prompt.init", "str", "sampled_vocab"),
    ("prompt.uniform_bound", "float", 0.5),
    ("optim.kind", "str", "adafactor"),
    ("optim.lr", "float", 0.02),
    ("optim.weight_decay", "float", 1e-5),
    ("tune.epochs", "int", 100),
    ("tune.batch_size", "int", 16),
    ("prune.token_ratios", "floats", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    ("prune.piece_ratios", "floats", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    ("prune.rule", "str", "lowest_score"),
    ("prune.retrain_epochs", "int", 30),
    ("prune.negative_ratio", "float", 0.3),
    ("run.seeds", "ints", (1, 2, 3, 4, 5)),
    ("run.out", "str", "runs/xprompt"),
)

_TYPES = {key: kind for key, kind, _ in SCHEMA}
_DEFAULTS = {key: default for key, _, default in SCHEMA}


def _coerce(key: str, raw: str):
    kind = _TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip() != "")
        if kind == "floats":
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from exc


def _render(key: str, value) -> str:
    if _TYPES[key] in ("ints", "floats"):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class RunConfig:
    """Typed view over the flat config mapping; unknown keys are rejected."""

    values: dict[str, object]

    @classmethod
    def from_mapping(cls, overrides: dict[str, object] | None = None) -> "RunConfig":
        values = dict(_DEFAULTS)
        for key, val in (overrides or {}).items():
            if key not in _TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, val) if isinstance(val, str) else val
        return cls(values)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        overrides: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key not in _TYPES:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            if key in overrides:
                raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
            overrides[key] = _coerce(key, val.strip())
        return cls({**_DEFAULTS, **overrides})

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, **pairs) -> "RunConfig":
        """A copy with keys given as section__name, e.g. run__out="x"."""
        return RunConfig.from_mapping(
            {**self.values, **{k.replace("__", "."): v for k, v in pairs.items()}})

    def to_text(self) -> str:
        return "\n".join(f"{key} = {_render(key, self.values[key])}"
                         for key, _, _ in SCHEMA) + "\n"

    def config_hash(self) -> str:
        lines = [f"{key} = {_render(key, self.values[key])}"
                 for key, _, _ in SCHEMA if key != "run.out"]
        return sha256_hex("\n".join(lines).encode())

    # --- composition into module objects ---

    def backbone_config(self) -> BackboneConfig:
        v = self.values
        return BackboneConfig(
            vocab_size=v["backbone.vocab_size"], embed_dim=v["backbone.embed_dim"],
            layers=v["backbone.layers"], heads=v["backbone.heads"],
            max_seq_len=v["backbone.max_seq_len"],
            num_classes=v["backbone.num_classes"], seed=v["backbone.seed"])

    def task_spec(self) -> TaskSpec:
        v = self.values
        return TaskSpec(
            name=v["task.name"], kind=v["task.kind"],
            vocab_size=v["backbone.vocab_size"], num_classes=v["backbone.num_classes"],
            seq_len_min=v["task.seq_len_min"], seq_len_max=v["task.seq_len_max"],
            train_size=v["task.train_size"], dev_size=v["task.dev_size"],
            seed=v["task.seed"])

    def schedule(self) -> PruneSchedule:
        v = self.values
        return PruneSchedule(tuple(v["prune.token_ratios"]),
                             tuple(v["prune.piece_ratios"]),
                             v["prune.rule"], seed=0)

    def init_strategy(self, seed: int) -> InitStrategy:
        return InitStrategy(kind=self.values["prompt.init"],
                            uniform_bound=self.values["prompt.uniform_bound"],
                            seed=seed)

    def optimizer(self):
        v = self.values
        return make_optimizer(v["optim.kind"], v["optim.lr"], v["optim.weight_decay"])

    def validate(self) -> None:
        v = self.values
        if v["prompt.m"] < 1:
            raise ConfigError(f"prompt.m must be >= 1, got {v['prompt.m']}")
        if not v["run.seeds"]:
            raise ConfigError("run.seeds must list at least one seed")
        for key in ("task.train_path", "task.dev_path"):
            if v[key] and not os.path.exists(v[key]):
                raise ConfigError(f"{key} does not exist: {v[key]}")
        if bool(v["task.train_path"]) != bool(v["task.dev_path"]):
            raise ConfigError("task.train_path and task.dev_path come as a pair")
        if v["task.shots"] < 0:
            raise ConfigError("task.shots must be >= 0")
        self.backbone_config().validate()
        if not v["task.train_path"]:
            self.task_spec().validate()
        self.schedule().validate()
        self.init_strategy(0).validate()
        if v["tune.epochs"] < 0 or v["prune.retrain_epochs"] < 0:
            raise ConfigError("epoch counts must be >= 0")
        if not 0.0 <= v["prune.negative_ratio"] < 1.0:
            raise ConfigError("prune.negative_ratio must be in [0, 1)")


TEMPLATE_HEADER = """\
# Run configuration: flat `key = value` lines, # for comments.
# Protocol defaults: m=20 prompt tokens in k=16 pieces, pruning ratio grids
# 0.1-0.9 in steps of 0.1, 100 tuning epochs at batch 16, weight decay 1e-5.
"""


def write_template(path: str) -> None:
    write_text_atomic(path, TEMPLATE_HEADER + RunConfig.from_mapping().to_text())


# --- parameter accounting ------------------------------------------------------------


def exact_percent(count: int, total: int) -> str:
    """count/total as a percentage with exactly 4 decimals (half-even),
    computed in integer arithmetic so the rendering is exact."""
    if total <= 0:
        raise DataError(f"total must be positive, got {total}")
    num = count * 100 * 10_000
    q, r = divmod(num, total)
    if 2 * r > total or (2 * r == total and q % 2 == 1):
        q += 1
    return f"{q // 10_000}.{q % 10_000:04d}"


def param_count(e: int, masks: Masks) -> dict[str, object]:
    """Kept tunable parameters of the (gamma, zeta) masks, plus the exact
    percentage of the full m*e prompt."""
    m, k = masks[1].shape
    if k < 1 or e % k != 0:
        raise DataError(f"piece count k={k} does not divide e={e}")
    count = kept_params(masks, e)
    return {"count": count, "percentage": exact_percent(count, m * e)}


# --- metrics ---------------------------------------------------------------------


METRICS_HEADER = "stage\tseed\tdev_acc\tkept_tokens\tkept_params\tpercent"


@dataclass(frozen=True)
class MetricsRecord:
    stage: str
    seed: int
    dev_acc: float
    kept_tokens: int
    kept_params: int
    percent: str

    def tsv_line(self) -> str:
        return (f"{self.stage}\t{self.seed}\t{self.dev_acc!r}\t"
                f"{self.kept_tokens}\t{self.kept_params}\t{self.percent}")


def _write_records(path: str, records: list[MetricsRecord]) -> None:
    lines = [METRICS_HEADER] + [r.tsv_line() for r in records]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _read_records(path: str) -> list[MetricsRecord]:
    if not os.path.exists(path):
        raise DataError(f"metrics fragment missing: {path}")
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise DataError(f"metrics fragment {path} has a bad header")
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            stage, seed, acc, ktok, kpar, pct = line.split("\t")
            float(pct)  # copied verbatim, but must still be a number
            records.append(MetricsRecord(stage, int(seed), float(acc), int(ktok),
                                         int(kpar), pct))
        except ValueError:
            raise DataError(f"metrics fragment {path} line {lineno}: "
                            f"malformed record {line!r}") from None
    return records


# --- saliency export -------------------------------------------------------------


def _norm(value: float, peak: float) -> float:
    """Per-row max scaling to [0, 100]; a flat row (even all-zero) maps to 100."""
    return 100.0 if peak <= 0.0 else 100.0 * value / peak


def export_saliency(report: ImportanceReport, masks: Masks, path: str) -> None:
    """Plot-ready text: raw and row-max-normalized scores with pruned flags
    read from the (gamma, zeta) masks.

    Every token row of piece scores contains a 100.0 after normalization;
    pruned structures keep their pre-prune raw score alongside pruned=1.
    """
    gamma, zeta = masks
    m, k = report.piece_scores.shape
    if (gamma.shape, zeta.shape) != ((m,), (m, k)):
        raise DataError(f"selection masks {gamma.shape} and {zeta.shape} do not "
                        f"match report ({m}, {k})")
    live = gamma[:, None] * zeta > 0
    lines = ["format saliency v1",
             f"aggregation {report.aggregation}",
             f"batches_seen {report.batches_seen}"]
    peak = float(report.token_scores.max())
    for i in range(m):
        raw = float(report.token_scores[i])
        gone = int(not gamma[i] > 0)
        lines.append(f"token {i} raw {raw!r} norm {_norm(raw, peak)!r} pruned {gone}")
    for i in range(m):
        row_peak = float(report.piece_scores[i].max())
        for q in range(k):
            raw = float(report.piece_scores[i, q])
            gone = int(not live[i, q])
            lines.append(f"piece {i} {q} raw {raw!r} "
                         f"norm {_norm(raw, row_peak)!r} pruned {gone}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def merge_saliency_report(cell: CellResult) -> ImportanceReport:
    """One report covering both pruning levels of a grid cell.

    Token scores come from the token-stage sweep; piece rows come from the
    piece-stage sweep for tokens that survived, and from the token-stage
    sweep for tokens removed there, so every pruned cell still carries the
    score it had when it was last live.
    """
    tok, pc = cell.token_report, cell.piece_report
    alive = pc.token_live[:, None]
    return ImportanceReport(
        token_scores=tok.token_scores.copy(),
        piece_scores=np.where(alive, pc.piece_scores, tok.piece_scores),
        token_live=tok.token_live.copy(),
        piece_live=tok.piece_live.copy(),
        batches_seen=pc.batches_seen,
        aggregation=pc.aggregation)


# --- datasets and corpus --------------------------------------------------------------


def load_splits(cfg: RunConfig) -> dict[str, tuple]:
    v = cfg.values
    if v["task.train_path"]:
        train = tasks.load_jsonl(v["task.train_path"], v["backbone.vocab_size"],
                                 v["backbone.num_classes"])
        dev = tasks.load_jsonl(v["task.dev_path"], v["backbone.vocab_size"],
                               v["backbone.num_classes"])
        data = {"train": tuple(train), "dev": tuple(dev)}
    else:
        data = tasks.generate(cfg.task_spec())
    if v["task.shots"]:
        data = {"train": tuple(tasks.fewshot_subsample(data["train"], v["task.shots"],
                                                       v["task.shots_seed"])),
                "dev": data["dev"]}
    return data


def build_corpus(cfg: RunConfig, train) -> list[tuple[int, ...]]:
    """Pretraining stream: seeded sorted random sequences plus the (sorted)
    task inputs, so masked positions are predictable from their neighbors."""
    v = cfg.values
    rng = np.random.default_rng(stable_seed(v["backbone.seed"], "corpus"))
    lo, hi = v["task.seq_len_min"], v["task.seq_len_max"]
    extra = [tuple(sorted(rng.integers(RESERVED_SYMBOLS, v["backbone.vocab_size"],
                                       size=rng.integers(lo, hi + 1))))
             for _ in range(v["pretrain.extra_sequences"])]
    return extra + tasks.pretrain_corpus(train)


# --- pipeline --------------------------------------------------------------------


@contextmanager
def _stage(name: str):
    """Let config and data errors through; report any other failure as one
    of stage name (exit code 4)."""
    try:
        yield
    except (ConfigError, DataError):
        raise
    except Exception as exc:
        raise StageError(f"stage {name} failed: {exc}") from exc


def _record(stage: str, seed: int, dev_acc: float, masks: Masks, e: int) -> MetricsRecord:
    counted = param_count(e, masks)
    return MetricsRecord(stage, seed, dev_acc, int(np.count_nonzero(masks[0] > 0)),
                         counted["count"], counted["percentage"])


def _tune(cfg: RunConfig, bank: PromptBank, bb: FrozenBackbone, data, seed: int):
    """tune with the run's stage-1 recipe."""
    return tune(bank, bb, data["train"], data["dev"], cfg["tune.epochs"],
                cfg.optimizer(), batch_size=cfg["tune.batch_size"], seed=seed)


def _prune(cfg: RunConfig, bank: PromptBank, bb: FrozenBackbone, data,
           sched: PruneSchedule, seed: int):
    """hierarchical_prune with the run's retraining recipe."""
    return hierarchical_prune(bank, bb, data["train"], data["dev"], sched,
                              cfg["prune.retrain_epochs"], cfg.optimizer(),
                              batch_size=cfg["tune.batch_size"], seed=seed)


def _seed_dir(out: str, seed: int, stage: str) -> str:
    return os.path.join(out, f"seed{seed}", stage)


def stage_done(dirpath: str) -> bool:
    return (os.path.exists(os.path.join(dirpath, "manifest.txt"))
            and os.path.exists(os.path.join(dirpath, "records.tsv")))


def _check_resume_config(cfg: RunConfig, out: str, resume: bool) -> None:
    cfg_path = os.path.join(out, "config.txt")
    if resume and os.path.exists(cfg_path):
        with open(cfg_path, "r", encoding="utf-8") as fh:
            if RunConfig.from_text(fh.read()).config_hash() != cfg.config_hash():
                raise ConfigError(
                    "resume refused: config does not match the one in the run directory")
    write_text_atomic(cfg_path, cfg.to_text())


def ensure_backbone(cfg: RunConfig, out: str, train, resume: bool = True,
                    wall: dict[str, float] | None = None) -> FrozenBackbone:
    """Load the run's backbone checkpoint or pretrain and save it."""
    bb_dir = os.path.join(out, "backbone")
    if resume and os.path.exists(os.path.join(bb_dir, "manifest.txt")):
        bb = checkpoint.load_backbone(bb_dir)
        if bb.cfg != cfg.backbone_config():
            raise ConfigError("backbone checkpoint does not match backbone config")
        return bb
    t0 = time.monotonic()
    with _stage("backbone"):
        bb = init_backbone(cfg.backbone_config())
        pretrain(bb, build_corpus(cfg, train), cfg["pretrain.steps"], cfg["pretrain.lr"])
        checkpoint.save_backbone(bb, bb_dir)
    if wall is not None:
        wall["backbone"] = time.monotonic() - t0
    return bb


def _run_stage1(cfg: RunConfig, out: str, bb: FrozenBackbone, data, seed: int,
                resume: bool) -> tuple[PromptBank, MetricsRecord]:
    stage_dir = _seed_dir(out, seed, "stage1")
    if resume and stage_done(stage_dir):
        return _load_stage1(out, seed)
    v = cfg.values
    with _stage("stage1"):
        bank = init_prompt(v["prompt.m"], v["backbone.embed_dim"], v["prompt.k"],
                           cfg.init_strategy(seed), bb)
        res = _tune(cfg, bank, bb, data, seed)
        bank.take_snapshot()
        checkpoint.save_prompt(bank, stage_dir, "stage1")
        record = _record("stage1", seed, res.best_dev_acc,
                         (bank.token_mask, bank.piece_mask), v["backbone.embed_dim"])
        _write_records(os.path.join(stage_dir, "records.tsv"), [record])
    return bank, record


def _run_prune(cfg: RunConfig, out: str, bb: FrozenBackbone, data, seed: int,
               bank: PromptBank, resume: bool) -> list[MetricsRecord]:
    stage_dir = _seed_dir(out, seed, "prune")
    records_path = os.path.join(stage_dir, "records.tsv")
    if resume and stage_done(stage_dir):
        return _read_records(records_path)
    e = cfg["backbone.embed_dim"]
    with _stage("prune"):
        result = _prune(cfg, bank, bb, data, cfg.schedule(), seed)
        records = [_record(f"cell[{cell.token_ratio!r},{cell.piece_ratio!r}]", seed,
                           cell.dev_acc, cell.selection, e)
                   for cell in result.cells]
        best = result.best
        records.append(_record("final", seed, best.dev_acc, best.selection, e))
        checkpoint.save_prompt(bank, stage_dir, "final")
        write_text_atomic(os.path.join(stage_dir, "best.txt"),
                          f"token_ratio = {best.token_ratio!r}\n"
                          f"piece_ratio = {best.piece_ratio!r}\n")
        export_saliency(merge_saliency_report(best), best.selection,
                        os.path.join(stage_dir, "saliency.txt"))
        _write_records(records_path, records)
    return records


def _check_jobs(jobs: int) -> None:
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError(f"jobs = {jobs} needs worker processes started by fork, "
                          "which this platform lacks; use jobs = 1")


# set by the pool initializer in each worker, never in the calling process
_seed_fn = None


def _install_seed_fn(fn) -> None:
    global _seed_fn
    _seed_fn = fn


def _call_seed_fn(seed: int):
    return _seed_fn(seed)


def _map_seeds(stage: str, jobs: int, fn, seeds: list[int]) -> list:
    """[fn(seed) for seed in seeds], in min(jobs, len(seeds)) forked worker
    processes when that is more than one.

    A worker inherits fn, and the backbone, splits and config it closes over,
    at fork, so a task sends only its seed; only fn's result comes back,
    pickled. Results merge in seed order, so they, and every file fn writes,
    do not depend on jobs. A worker that dies fails the stage.
    """
    workers = min(jobs, len(seeds))
    if workers <= 1:
        return [fn(s) for s in seeds]
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install_seed_fn, initargs=(fn,)) as pool:
            return list(pool.map(_call_seed_fn, seeds))
    except BrokenProcessPool as exc:
        raise StageError(f"stage {stage} failed: a worker process died ({exc})") from exc


def _write_report(out: str, cfg: RunConfig, records: list[MetricsRecord],
                  wall: dict[str, float]) -> None:
    lines = ["run report", "==========", ""]
    lines.append(f"config hash: {cfg.config_hash()}")
    for stage, secs in sorted(wall.items()):
        lines.append(f"wall[{stage}]: {secs:.1f}s")
    lines.append("")
    lines.append(METRICS_HEADER.replace("\t", "  "))
    for r in records:
        lines.append(r.tsv_line().replace("\t", "  "))
    write_text_atomic(os.path.join(out, "report.txt"), "\n".join(lines) + "\n")


def run_pipeline(cfg: RunConfig, resume: bool = False, stop_after: str | None = None,
                 jobs: int = DEFAULT_JOBS) -> list[MetricsRecord]:
    """pretrain-or-load -> stage-1 tune -> snapshot -> hierarchical prune ->
    final rewound-retrained model, with metrics, checkpoints, and saliency.

    stop_after names a stage from STAGES to halt behind (the pretrain, tune
    and prune subcommands); metrics.tsv and report.txt are written only by a
    run that goes through every stage. jobs is how many seeds run at once
    (see _map_seeds); it changes no result.
    """
    if stop_after is not None and stop_after not in STAGES:
        raise ConfigError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    _check_jobs(jobs)
    cfg.validate()
    out = cfg["run.out"]
    os.makedirs(out, exist_ok=True)
    _check_resume_config(cfg, out, resume)
    data = load_splits(cfg)
    wall: dict[str, float] = {}

    bb = ensure_backbone(cfg, out, data["train"], resume=resume, wall=wall)
    if stop_after == "backbone":
        return []

    def stage1_for(seed: int):
        return _run_stage1(cfg, out, bb, data, seed, resume)

    seeds = list(cfg["run.seeds"])
    t0 = time.monotonic()
    stage1 = dict(zip(seeds, _map_seeds("stage1", jobs, stage1_for, seeds)))
    wall["stage1"] = time.monotonic() - t0
    if stop_after == "stage1":
        return [stage1[s][1] for s in seeds]

    def prune_for(seed: int):
        return _run_prune(cfg, out, bb, data, seed, stage1[seed][0], resume)

    t0 = time.monotonic()
    pruned = dict(zip(seeds, _map_seeds("prune", jobs, prune_for, seeds)))
    wall["prune"] = time.monotonic() - t0

    records: list[MetricsRecord] = []
    for seed in seeds:
        records.append(stage1[seed][1])
        records.extend(pruned[seed])
    if stop_after == "prune":
        return records

    _write_records(os.path.join(out, "metrics.tsv"), records)
    _write_report(out, cfg, records, wall)
    return records


def collect_report(cfg: RunConfig) -> list[MetricsRecord]:
    """Regenerate metrics.tsv and report.txt from existing stage fragments."""
    cfg.validate()
    out = cfg["run.out"]
    records: list[MetricsRecord] = []
    for seed in cfg["run.seeds"]:
        for stage in ("stage1", "prune"):
            records.extend(_read_records(os.path.join(_seed_dir(out, seed, stage),
                                                      "records.tsv")))
    _write_records(os.path.join(out, "metrics.tsv"), records)
    _write_report(out, cfg, records, wall={})
    return records


# --- baselines ----------------------------------------------------------------------


def _open_run(cfg: RunConfig) -> tuple[str, dict[str, tuple], FrozenBackbone]:
    """Output directory, splits and backbone of a run that builds on an
    existing one; the backbone is pretrained if the run has none yet."""
    cfg.validate()
    out = cfg["run.out"]
    os.makedirs(out, exist_ok=True)
    data = load_splits(cfg)
    return out, data, ensure_backbone(cfg, out, data["train"], resume=True)


def _load_stage1(out: str, seed: int) -> tuple[PromptBank, MetricsRecord]:
    stage_dir = _seed_dir(out, seed, "stage1")
    if not stage_done(stage_dir):
        raise DataError(f"stage-1 checkpoint missing for seed {seed}; "
                        f"run the pipeline (or tune) first: {stage_dir}")
    bank, _ = checkpoint.load_prompt(stage_dir)
    return bank, _read_records(os.path.join(stage_dir, "records.tsv"))[0]


def _load_best_cell(out: str, seed: int) -> tuple[PromptBank, float, float]:
    stage_dir = _seed_dir(out, seed, "prune")
    best_path = os.path.join(stage_dir, "best.txt")
    if not stage_done(stage_dir) or not os.path.exists(best_path):
        raise DataError(f"prune checkpoint missing for seed {seed}; "
                        f"run the pipeline first: {stage_dir}")
    bank, _ = checkpoint.load_prompt(stage_dir)
    ratios: dict[str, float] = {}
    with open(best_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            key, _, val = line.partition("=")
            try:
                ratio = float(val)
            except ValueError:
                ratio = float("nan")  # fails the range check below
            if not 0.0 <= ratio < 1.0:
                raise DataError(f"best cell {best_path} line {lineno}: "
                                f"malformed ratio {line.rstrip()!r}")
            ratios[key.strip()] = ratio
    try:
        return bank, ratios["token_ratio"], ratios["piece_ratio"]
    except KeyError as missing:
        raise DataError(f"best cell {best_path}: no {missing.args[0]} line") from None


def run_baselines(cfg: RunConfig, which=BASELINE_ARMS, jobs: int = 1) -> list[MetricsRecord]:
    """Ablation arms over all configured seeds, with a median per arm.

    vanilla reuses (or builds) stage-1; every other arm needs stage-1, and
    random, reversed, and length also need the pruned checkpoint because
    they run at the best cell's ratios or surviving length. Each seed loads
    each checkpoint at most once.
    """
    if not which:
        raise ConfigError(f"no baseline arm given; expected some of {BASELINE_ARMS}")
    for arm in which:
        if arm not in BASELINE_ARMS:
            raise ConfigError(f"unknown baseline {arm!r}; expected from {BASELINE_ARMS}")
    _check_jobs(jobs)
    out, data, bb = _open_run(cfg)
    v = cfg.values
    e = v["backbone.embed_dim"]

    def arm_records(seed: int) -> list[MetricsRecord]:
        recs: list[MetricsRecord] = []
        with _stage("baselines"):
            if "vanilla" in which:
                stage1, rec = _run_stage1(cfg, out, bb, data, seed, resume=True)
                recs.append(replace(rec, stage="vanilla"))
            else:
                stage1, _ = _load_stage1(out, seed)
            if "negative" in which:
                for stage, rule in (("negative", "lowest_score"),
                                    ("negative_random", "random")):
                    acc, selection = baseline_negative_masking(
                        stage1, bb, data["train"], data["dev"], v["prune.negative_ratio"],
                        rule=rule, batch_size=v["tune.batch_size"], seed=seed)
                    recs.append(_record(stage, seed, acc, selection, e))
            if not {"random", "reversed", "length"} & set(which):
                return recs
            final, t_ratio, p_ratio = _load_best_cell(out, seed)
            for arm in ("random", "reversed"):
                if arm in which:
                    sched = PruneSchedule((t_ratio,), (p_ratio,), arm, seed=seed)
                    best = _prune(cfg, stage1.copy(), bb, data, sched, seed).best
                    recs.append(_record(arm, seed, best.dev_acc, best.selection, e))
            if "length" in which:
                # excision against masking: a fresh prompt of the surviving length
                m_kept = int((final.token_mask > 0).sum())
                if not 1 <= m_kept <= stage1.m:
                    raise DataError(f"best cell keeps {m_kept} tokens, not 1 to "
                                    f"{stage1.m}: {_seed_dir(out, seed, 'prune')}")
                short = init_prompt(m_kept, stage1.e, stage1.k, cfg.init_strategy(seed), bb)
                acc = _tune(cfg, short, bb, data, seed).best_dev_acc
                # counted as the best cell's tokens with every piece kept
                whole = (final.token_mask, np.ones_like(final.piece_mask))
                recs.append(_record("length", seed, acc, whole, e))
        return recs

    seeds = list(cfg["run.seeds"])
    per_seed = _map_seeds("baselines", jobs, arm_records, seeds)
    records = [r for recs in per_seed for r in recs]
    _write_records(os.path.join(out, "baselines.tsv"), records)

    stages = sorted({r.stage for r in records})
    lines = ["arm\tmedian_dev_acc"]
    for stage in stages:
        med = float(np.median([r.dev_acc for r in records if r.stage == stage]))
        lines.append(f"{stage}\t{med!r}")
    write_text_atomic(os.path.join(out, "baseline_medians.tsv"), "\n".join(lines) + "\n")
    return records


# --- transfer ------------------------------------------------------------------------


def run_transfer(cfg: RunConfig, source_dir: str, variants=("transfer_o", "transfer"),
                 jobs: int = 1) -> list[MetricsRecord]:
    """Initialize the target prompt from a source checkpoint and either tune
    (transfer_o) or run tune + hierarchical prune (transfer) on the target."""
    if not variants:
        raise ConfigError("no transfer variant given; expected transfer_o or transfer")
    for variant in variants:
        if variant not in ("transfer_o", "transfer"):
            raise ConfigError(f"unknown transfer variant {variant!r}")
    _check_jobs(jobs)
    source, _ = checkpoint.load_prompt(source_dir)
    v = cfg.values
    if (source.m, source.e, source.k) != (v["prompt.m"], v["backbone.embed_dim"],
                                          v["prompt.k"]):
        raise ConfigError(
            f"source prompt ({source.m}, {source.e}, k={source.k}) does not match "
            f"target config ({v['prompt.m']}, {v['backbone.embed_dim']}, "
            f"k={v['prompt.k']})")
    out, data, bb = _open_run(cfg)
    e = v["backbone.embed_dim"]

    def transfer_for(seed: int) -> list[MetricsRecord]:
        recs = []
        with _stage("transfer"):
            bank = source.copy()
            res = _tune(cfg, bank, bb, data, seed)
            if "transfer_o" in variants:
                recs.append(_record("transfer_o", seed, res.best_dev_acc,
                                    (bank.token_mask, bank.piece_mask), e))
            if "transfer" in variants:
                bank.take_snapshot()
                best = _prune(cfg, bank, bb, data, cfg.schedule(), seed).best
                recs.append(_record("transfer", seed, best.dev_acc, best.selection, e))
        return recs

    seeds = list(cfg["run.seeds"])
    per_seed = _map_seeds("transfer", jobs, transfer_for, seeds)
    records = [r for recs in per_seed for r in recs]
    _write_records(os.path.join(out, "transfer.tsv"), records)
    return records
