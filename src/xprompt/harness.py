"""Experiment orchestration around the tune -> prune -> rewind pipeline.

A run is described by a flat key-value config file with dotted section
names. The pipeline stages (backbone, stage1, prune) each persist a
checkpoint plus a deterministic metrics fragment, so an interrupted run
resumes from the last finished stage and reproduces the uninterrupted
metrics file byte for byte. Wall-clock times appear only in report.txt:
wall[backbone], and wall[stage1] and wall[prune], each summed over seeds.

The run directory (run.out) has one owner, RunDir, the one reader and writer
of its fragments. It holds config.txt, backbone/, seed<N>/stage1/ and
seed<N>/prune/ (the fragments, see checkpoint: the backbone's checkpoint, which
loads frozen under the run's backbone config, and the others' with records.tsv;
prune adds saliency.txt, the best cell's pruning.CellResult.saliency in format
saliency v2 (see saliency_text), and its ratios as the manifest field ``best_cell``),
and the merged metrics.tsv, report.txt, baselines.tsv, baseline_medians.tsv and
transfer.tsv. Each fragment's manifest.txt holds provenance lines: ``run_hash``,
the config hash, which leaves out run.out and run.seeds since neither changes
what a fragment holds; ``parent``, the sha256 of the bytes of the parent's
manifest.txt (the backbone's for stage 1, stage 1's for prune, ``none`` for
the backbone); ``run_seed``, the seed, in stage 1 and prune only; and
``blas_threads``, the BLAS thread variables in effect, recorded, not checked.
Every command opens the directory before any work and refuses:

- with a ConfigError (exit 2) when config.txt holds another run hash, with
  or without resume; config.txt is written once and never overwritten;
- with a DataError (exit 3) when a fragment it reuses, or one up to the
  backbone, fails checkpoint.read_manifest's digest checks, or, naming it
  as stale, lacks provenance, has another run hash or seed or a parent
  digest that no longer matches; and when a fragment it builds on but cannot
  build is missing. Fragments it rebuilds are not checked; a rebuild that
  changes bytes leaves their children stale. A process reads each fragment
  once and none that it wrote: RunDir keeps each it checked or saved.

Each command maps one task per seed (stage 1 then prune; every ablation arm,
all written here; transfer's tune then prune) over forked worker processes when
jobs > 1. Each seed's work depends only on the config and that seed, so every
metric and every file in the run directory is the same for any jobs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint, tasks
from .backbone import BackboneConfig, FrozenBackbone, init_backbone, pretrain
from .errors import ConfigError, DataError, StageError
from .prompt import PromptBank, evaluate, init_prompt, tune
from .pruning import (ImportanceReport, Masks, PruneSchedule, hierarchical_prune,
                      kept_params, score_tokens, select_tokens)
from .tasks import RESERVED_SYMBOLS, TaskSpec
from .util import BLAS_THREAD_VARS, sha256_hex, stable_seed, write_text_atomic

STAGES = ("backbone", "stage1", "prune")
BASELINE_ARMS = ("vanilla", "negative", "random", "reversed", "length")
# worker processes for per-seed stages: one per CPU this process may run on
DEFAULT_JOBS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# --- config schema ----------------------------------------------------------------

# (key, type, default); to_text writes every key in this order
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
    ("optim.lr", "float", 0.02),
    ("optim.weight_decay", "float", 1e-5),
    ("tune.epochs", "int", 100),
    ("tune.batch_size", "int", 16),
    ("prune.token_ratios", "floats", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    ("prune.piece_ratios", "floats", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    ("prune.retrain_epochs", "int", 30),
    ("prune.negative_ratio", "float", 0.3),
    ("run.seeds", "ints", (1, 2, 3, 4, 5)),
    ("run.out", "str", "runs/xprompt"),
)

_TYPES = {key: kind for key, kind, _ in SCHEMA}
_DEFAULTS = {key: default for key, _, default in SCHEMA}


_PARSERS = {"int": int, "float": float, "str": str,
            "ints": lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()),
            "floats": lambda raw: tuple(float(v) for v in raw.split(",") if v.strip())}


def _coerce(key: str, raw: str):
    try:
        return _PARSERS[_TYPES[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {_TYPES[key]}") from exc


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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except ConfigError as exc:  # a parse error, named with the file it is in
            raise ConfigError(f"config file {path}: {exc}") from None

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
        """The run hash: every key but run.out and run.seeds."""
        lines = [f"{key} = {_render(key, self.values[key])}"
                 for key, _, _ in SCHEMA if key not in ("run.out", "run.seeds")]
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
            name=v["task.name"],
            vocab_size=v["backbone.vocab_size"], num_classes=v["backbone.num_classes"],
            seq_len_min=v["task.seq_len_min"], seq_len_max=v["task.seq_len_max"],
            train_size=v["task.train_size"], dev_size=v["task.dev_size"],
            seed=v["task.seed"])

    def schedule(self) -> PruneSchedule:
        v = self.values
        return PruneSchedule(tuple(v["prune.token_ratios"]), tuple(v["prune.piece_ratios"]))

    def validate(self) -> None:
        v = self.values
        for key, kind, _ in SCHEMA:
            if kind in ("float", "floats") and not np.isfinite(v[key]).all():
                raise ConfigError(f"{key} must be finite, got {_render(key, v[key])}")
            if kind == "str" and "\0" in v[key]:  # no path or name may hold one
                raise ConfigError(f"{key} must not hold a NUL byte, got {v[key]!r}")
        for key in ("pretrain.lr", "optim.lr"):
            if v[key] <= 0:
                raise ConfigError(f"{key} must be positive, got {v[key]!r}")
        if v["prompt.m"] < 1:
            raise ConfigError(f"prompt.m must be >= 1, got {v['prompt.m']}")
        if not v["run.seeds"]:
            raise ConfigError("run.seeds must list at least one seed")
        if len(set(v["run.seeds"])) < len(v["run.seeds"]):
            raise ConfigError("run.seeds must not list a seed twice")
        if not v["run.out"] or os.path.isfile(v["run.out"]):
            raise ConfigError(f"run.out must name a directory, got {v['run.out']!r}")
        for key in ("run.seeds", "backbone.seed", "task.shots_seed", "task.shots",
                    "pretrain.steps", "pretrain.extra_sequences", "optim.weight_decay"):
            if min(v[key] if key == "run.seeds" else (v[key],)) < 0:
                raise ConfigError(f"{key} must be non-negative, got {_render(key, v[key])}")
        for key in ("task.train_path", "task.dev_path"):
            if v[key] and not os.path.exists(v[key]):
                raise ConfigError(f"{key} does not exist: {v[key]}")
        if bool(v["task.train_path"]) != bool(v["task.dev_path"]):
            raise ConfigError("task.train_path and task.dev_path come as a pair")
        self.backbone_config().validate()
        lo, hi, cap = v["task.seq_len_min"], v["task.seq_len_max"], v["backbone.max_seq_len"]
        if not 1 <= lo <= hi <= cap:  # build_corpus draws from this range for file data too
            raise ConfigError(f"task.seq_len_min {lo} and task.seq_len_max {hi} must "
                              f"satisfy 1 <= min <= max <= backbone.max_seq_len {cap}")
        if not v["task.train_path"]:
            self.task_spec().validate()
            if v["prompt.m"] + v["task.seq_len_max"] > v["backbone.max_seq_len"]:
                raise ConfigError(
                    f"prompt.m + task.seq_len_max = {v['prompt.m']}+{v['task.seq_len_max']} "
                    f"exceeds backbone.max_seq_len {v['backbone.max_seq_len']}")
        self.schedule().validate()
        if v["prompt.k"] < 1 or v["backbone.embed_dim"] % v["prompt.k"]:
            raise ConfigError(f"prompt.k must divide backbone.embed_dim, got {v['prompt.k']}")
        if v["prompt.m"] > v["backbone.vocab_size"]:
            raise ConfigError("prompt.m must be <= backbone.vocab_size: the prompt starts "
                              "from distinct vocabulary rows")
        if v["tune.epochs"] < 0 or v["prune.retrain_epochs"] < 0:
            raise ConfigError("epoch counts must be >= 0")
        if v["tune.batch_size"] < 1:
            raise ConfigError(f"tune.batch_size must be >= 1, got {v['tune.batch_size']}")
        if not 0.0 <= v["prune.negative_ratio"] < 1.0:
            raise ConfigError("prune.negative_ratio must be in [0, 1)")


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


def _records_text(records: list[MetricsRecord]) -> str:
    return "\n".join([METRICS_HEADER] + [r.tsv_line() for r in records]) + "\n"


def _read_records(frag: checkpoint.Fragment) -> list[MetricsRecord]:
    """The records of a checked fragment's records.tsv, each of its run_seed; no read."""
    dirpath, text = frag.path, frag.files.get("records.tsv", "")
    run_seed = dict(frag.entries).get("run_seed")
    header, *lines = text.splitlines() or [""]
    if header != METRICS_HEADER or not lines:
        raise DataError(f"records.tsv in {dirpath} is unlisted, has a bad header or "
                        "holds no record")
    records = []
    for lineno, line in enumerate(lines, start=2):
        try:
            stage, seed, acc, ktok, kpar, pct = line.split("\t")
            if not np.isfinite(float(pct)):  # copied verbatim, but must be a number
                raise ValueError
            if not 0.0 <= float(acc) <= 1.0:  # also refuses nan
                raise ValueError
            records.append(MetricsRecord(stage, int(seed), float(acc), int(ktok),
                                         int(kpar), pct))
        except ValueError:
            raise DataError(f"records.tsv in {dirpath} line {lineno}: "
                            f"malformed record {line!r}") from None
        if seed != run_seed:
            raise DataError(f"records.tsv in {dirpath} line {lineno}: seed {seed}, not {run_seed}")
    return records


# --- saliency export -------------------------------------------------------------


def _norm(value: float, peak: float) -> float:
    """Per-row max scaling to [0, 100]; a flat row (even all-zero) maps to 100."""
    return 100.0 if peak <= 0.0 else 100.0 * value / peak


def saliency_text(report: ImportanceReport, masks: Masks) -> str:
    """Plot-ready text, format saliency v2: the number of examples the
    scores average over (each score is the mean over training examples of
    |dL(x)/d mask|, see pruning.score_tokens), then raw and row-max-normalized
    scores with pruned flags read from the (gamma, zeta) masks.

    Every token row of piece scores contains a 100.0 after normalization;
    pruned structures keep their pre-prune raw score alongside pruned=1.
    """
    gamma, zeta = masks
    m, k = report.piece_scores.shape
    if (gamma.shape, zeta.shape) != ((m,), (m, k)):
        raise DataError(f"selection masks {gamma.shape} and {zeta.shape} do not "
                        f"match report ({m}, {k})")
    live = gamma[:, None] * zeta > 0
    lines = ["format saliency v2", f"examples_seen {report.examples_seen}"]
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
    return "\n".join(lines) + "\n"


# --- datasets and corpus --------------------------------------------------------------


def load_splits(cfg: RunConfig) -> dict[str, tuple]:
    """The train and dev splits, from a validated cfg and before RunDir writes;
    file data must fit the encoder with the prompt prepended, which
    RunConfig.validate checks for generated tasks."""
    cfg.validate()
    v = cfg.values
    if v["task.train_path"]:
        data = {split: tasks.load_jsonl(v[f"task.{split}_path"], v["backbone.vocab_size"],
                                        v["backbone.num_classes"])
                for split in ("train", "dev")}
        m, cap = v["prompt.m"], v["backbone.max_seq_len"]
        for split, examples in data.items():
            if not examples:
                raise DataError(f"the {split} split is empty: {v[f'task.{split}_path']}")
            for i, ex in enumerate(examples, 1):
                if m + len(ex.tokens) > cap:
                    raise DataError(f"{split} example {i}: sequence length "
                                    f"{m}+{len(ex.tokens)}={m + len(ex.tokens)} "
                                    f"exceeds max_seq_len {cap}")
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
    """The record of masks: kept tokens, kept parameters and their exact percent of m*e."""
    count = kept_params(masks, e)
    return MetricsRecord(stage, seed, dev_acc, int(np.count_nonzero(masks[0] > 0)),
                         count, exact_percent(count, masks[0].size * e))


def _tune(cfg: RunConfig, bank: PromptBank, bb: FrozenBackbone, data, seed: int):
    """tune with the run's stage-1 recipe."""
    return tune(bank, bb, data["train"], data["dev"], cfg["tune.epochs"], cfg["optim.lr"],
                cfg["optim.weight_decay"], batch_size=cfg["tune.batch_size"], seed=seed)


def _prune(cfg: RunConfig, bank: PromptBank, bb: FrozenBackbone, data,
           sched: PruneSchedule, seed: int):
    """hierarchical_prune with the run's retraining recipe."""
    return hierarchical_prune(bank, bb, data["train"], data["dev"], sched,
                              cfg["prune.retrain_epochs"], cfg["optim.lr"],
                              cfg["optim.weight_decay"], batch_size=cfg["tune.batch_size"],
                              seed=seed)


# --- run directory --------------------------------------------------------------

PARENT = {"backbone": None, "stage1": "backbone", "prune": "stage1"}
BUILT_BY = {"backbone": "pretrain", "stage1": "tune", "prune": "prune"}


class RunDir:
    """cfg's run directory, opened for one command (see the module docstring): the
    one reader and writer of its fragments. The command loads the fragments of the
    stages in need, which must be finished for every seed, and the finished ones in
    reuse, and builds the rest. It keeps each fragment it checks (those reused with
    their files, and the parents of those reused or built) and, with no files, each
    it saves. A runner asks reused() before it builds, so none it built is reused."""

    def __init__(self, cfg: RunConfig, need=(), reuse=()):
        cfg.validate()
        self.cfg, self.out, self.run_hash = cfg, cfg["run.out"], cfg.config_hash()
        self.reuse = {*need, *reuse}
        self._fragments: dict[str, checkpoint.Fragment] = {}
        cfg_path = self.path("config.txt")
        theirs = (RunConfig.from_file(cfg_path).config_hash()
                  if os.path.exists(cfg_path) else None)
        if theirs not in (None, self.run_hash):
            raise ConfigError(f"{cfg_path} holds another config (run hash {theirs[:12]}, "
                              f"not {self.run_hash[:12]}); refused, use another run.out")
        for stage in [*reversed(need), *reuse]:
            for seed in self.cfg["run.seeds"]:
                if self.finished(stage, seed):
                    self._verify(stage, seed)
                elif stage in need:
                    raise DataError(f"{stage.replace('stage1', 'stage-1')} checkpoint missing "
                                    f"for seed {seed}; run {BUILT_BY[stage]} first: "
                                    f"{os.path.dirname(self._file(stage, seed))}")
        try:
            os.makedirs(self.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create run.out {self.out}: "
                              f"{exc.strerror or exc}") from None
        if theirs is None:
            write_text_atomic(cfg_path, cfg.to_text())

    def path(self, *names: str, seed: int | None = None) -> str:
        """out/names..., or out/seed<seed>/names... for a per-seed stage."""
        return os.path.join(self.out, *([] if seed is None else [f"seed{seed}"]), *names)

    def _file(self, stage: str, seed: int | None) -> str:
        """The manifest of the fragment of stage for seed; the backbone is every seed's."""
        return self.path(stage, "manifest.txt", seed=None if PARENT[stage] is None else seed)

    def finished(self, stage: str, seed: int | None = None) -> bool:
        return os.path.exists(self._file(stage, seed))

    def reused(self, stage: str, seed: int | None = None) -> checkpoint.Fragment | None:
        """The fragment of stage for seed, checked, or None when the command builds it."""
        return (self._verify(stage, seed) if stage in self.reuse and self.finished(stage, seed)
                else None)

    def save(self, stage: str, seed: int | None, saver, obj, head=(), **kwargs) -> None:
        """Commit obj with saver as stage's fragment for seed (head, then provenance); keep it."""
        threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
        parent = self._verify(PARENT[stage], seed).digest if PARENT[stage] else "none"
        lines = [*head, f"run_hash {self.run_hash}", f"parent {parent}",
                 f"blas_threads {threads}", *([f"run_seed {seed}"] if PARENT[stage] else [])]
        path = os.path.dirname(self._file(stage, seed))
        self._fragments[path] = saver(obj, path, lines, **kwargs)

    def _verify(self, stage: str, seed: int | None) -> checkpoint.Fragment:
        """The finished fragment of stage for seed, read once; a DataError naming
        it as stale unless its provenance holds, and its parent's, up to the backbone."""
        path = os.path.dirname(self._file(stage, seed))
        if path in self._fragments:
            return self._fragments[path]
        parent = PARENT[stage]
        fmt = checkpoint.PROMPT_FORMAT if parent else checkpoint.BACKBONE_FORMAT
        fields = dict((frag := checkpoint.read_manifest(path, fmt)).entries)
        if not {"run_hash", "parent", "blas_threads"} <= fields.keys():
            reason = "its manifest has no provenance lines"
        elif fields["run_hash"] != self.run_hash:
            reason = "it was built under another run hash"
        elif fields.get("run_seed") != (None if parent is None else str(seed)):
            reason = f"its run_seed is {fields.get('run_seed', 'missing')}, not {seed}"
        elif parent is not None and not self.finished(parent, seed):
            reason = f"its parent {parent} is missing or unfinished"
        elif fields["parent"] != (self._verify(parent, seed).digest if parent else "none"):
            reason = f"its parent {parent} changed after it was built"
        else:
            self._fragments[path] = frag if stage in self.reuse else replace(frag, files={})
            return self._fragments[path]
        name = os.path.relpath(path, self.out)
        raise DataError(f"stale fragment {name} in {self.out}: {reason}; remove it or "
                        "rebuild it without resume")


def ensure_backbone(rd: RunDir, train) -> FrozenBackbone:
    """Load the run's backbone checkpoint or pretrain and save it."""
    cfg = rd.cfg
    if frag := rd.reused("backbone"):
        return checkpoint.load_backbone(frag, cfg.backbone_config())
    with _stage("backbone"):
        bb = init_backbone(cfg.backbone_config())
        pretrain(bb, build_corpus(cfg, train), cfg["pretrain.steps"], cfg["pretrain.lr"])
        rd.save("backbone", None, checkpoint.save_backbone, bb)
    return bb


def _run_stage1(rd: RunDir, bb: FrozenBackbone, data,
                seed: int) -> tuple[PromptBank, MetricsRecord]:
    if frag := rd.reused("stage1", seed):
        return checkpoint.load_prompt(frag), _read_records(frag)[0]
    v = rd.cfg.values
    with _stage("stage1"):
        bank = init_prompt(v["prompt.m"], v["backbone.embed_dim"], v["prompt.k"], seed, bb)
        res = _tune(rd.cfg, bank, bb, data, seed)
        record = _record("stage1", seed, res.best_dev_acc,
                         (bank.token_mask, bank.piece_mask), v["backbone.embed_dim"])
        rd.save("stage1", seed, checkpoint.save_prompt, bank,
                files={"records.tsv": _records_text([record])})
    return bank, record


def _run_prune(rd: RunDir, bb: FrozenBackbone, data, seed: int,
               bank: PromptBank) -> list[MetricsRecord]:
    if frag := rd.reused("prune", seed):
        return _read_records(frag)
    e = rd.cfg["backbone.embed_dim"]
    with _stage("prune"):
        result = _prune(rd.cfg, bank, bb, data, rd.cfg.schedule(), seed)
        records = [_record(f"cell[{cell.token_ratio!r},{cell.piece_ratio!r}]", seed,
                           cell.dev_acc, cell.selection, e)
                   for cell in result.cells]
        best = result.best
        records.append(_record("final", seed, best.dev_acc, best.selection, e))
        rd.save("prune", seed, checkpoint.save_prompt, best.bank,
                head=[f"best_cell {best.token_ratio!r} {best.piece_ratio!r}"],
                files={"records.tsv": _records_text(records),
                       "saliency.txt": saliency_text(best.saliency(), best.selection)})
    return records


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return
    import multiprocessing  # the process pool's modules load only when a run uses it
    if "fork" not in multiprocessing.get_all_start_methods():
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

    A worker inherits fn at fork, with the backbone, splits, config and RunDir's
    kept fragments it closes over, so a task sends only its seed; only fn's result
    comes back, pickled. Results merge in seed order, so they, and every file fn
    writes, do not depend on jobs. A worker that dies fails stage: what one task runs.
    """
    workers = min(jobs, len(seeds))
    if workers <= 1:
        return [fn(s) for s in seeds]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install_seed_fn, initargs=(fn,)) as pool:
            return list(pool.map(_call_seed_fn, seeds))
    except BrokenProcessPool as exc:
        raise StageError(f"stage {stage} failed: a worker process died ({exc})") from exc


def _write_metrics(rd: RunDir, records: list[MetricsRecord], wall: dict[str, float]) -> None:
    """metrics.tsv, and report.txt with the run hash and wall-clock times."""
    text = _records_text(records)
    write_text_atomic(rd.path("metrics.tsv"), text)
    lines = ["run report", "==========", "", f"config hash: {rd.run_hash}",
             *(f"wall[{stage}]: {secs:.1f}s" for stage, secs in sorted(wall.items())), ""]
    write_text_atomic(rd.path("report.txt"), "\n".join(lines) + "\n" + text.replace("\t", "  "))


def run_pipeline(cfg: RunConfig, stage: str | None = None, resume: bool = False,
                 jobs: int = DEFAULT_JOBS) -> list[MetricsRecord]:
    """pretrain -> stage-1 tune -> hierarchical prune, rewinding to the
    stage-1 prompt -> final retrained model, with metrics, checkpoints, and
    saliency.

    Given a stage (the pretrain, tune and prune subcommands), the call
    builds that stage alone in the directory RunDir opens and reuses the
    earlier ones, which must be finished; only the backbone is built when it
    is not. Without one it builds every stage and writes metrics.tsv and
    report.txt. Each seed is one task, stage 1 then prune; jobs is how many
    run at once (see _map_seeds), and changes no result.
    """
    if stage not in (None, *STAGES):
        raise ConfigError(f"stage must be one of {STAGES}, got {stage!r}")
    _check_jobs(jobs)
    before = STAGES[:STAGES.index(stage)] if stage else ()
    built = (stage,) if stage else STAGES
    data = load_splits(cfg)
    rd = RunDir(cfg, need=before[1:], reuse=before[:1] + (built if resume else ()))
    t0 = time.monotonic()
    bb = ensure_backbone(rd, data["train"])
    wall = {"backbone": time.monotonic() - t0}
    if stage == "backbone":
        return []

    def seed_task(seed: int) -> tuple[list[MetricsRecord], float, float]:
        """seed's records, and its seconds in stage 1 and in prune."""
        t0 = time.monotonic()
        bank, record = _run_stage1(rd, bb, data, seed)
        t1 = time.monotonic()
        pruned = [] if stage == "stage1" else _run_prune(rd, bb, data, seed, bank)
        return [record, *pruned], t1 - t0, time.monotonic() - t1

    per_seed = _map_seeds("+".join(built[-2:]), jobs, seed_task, list(cfg["run.seeds"]))
    wall.update(stage1=sum(s for _, s, _ in per_seed), prune=sum(s for *_, s in per_seed))
    records = [r for recs, *_ in per_seed for r in recs]
    if stage is None:
        _write_metrics(rd, records, wall)
    return records


def collect_report(cfg: RunConfig) -> list[MetricsRecord]:
    """Regenerate metrics.tsv and report.txt from existing stage fragments."""
    rd = RunDir(cfg, need=("stage1", "prune"))
    records = [r for seed in cfg["run.seeds"] for stage in ("stage1", "prune")
               for r in _read_records(rd.reused(stage, seed))]
    _write_metrics(rd, records, wall={})
    return records


# --- baselines ----------------------------------------------------------------------


def _best_cell(frag: checkpoint.Fragment) -> tuple[PromptBank, float, float]:
    """The pruned bank of a prune fragment and its best cell's token and piece ratios."""
    field = dict(frag.entries).get("best_cell", "")
    try:
        ratio = [float(r) for r in field.split(" ")]
    except ValueError:
        ratio = []
    if len(ratio) != 2 or not all(0.0 <= r < 1.0 for r in ratio):
        raise DataError(f"prune manifest in {frag.path}: best_cell must hold two ratios in "
                        f"[0, 1), got {field!r}")
    return checkpoint.load_prompt(frag), *ratio


def run_baselines(cfg: RunConfig, which=BASELINE_ARMS,
                  jobs: int = DEFAULT_JOBS) -> list[MetricsRecord]:
    """Ablation arms over all configured seeds, with a median per arm.

    vanilla reuses (or builds) stage-1; every other arm needs stage-1, and
    random, reversed, and length also need the pruned checkpoint because
    they run at the best cell's ratios or surviving length. Each seed loads
    each checkpoint at most once.
    """
    if not which or not set(which) <= set(BASELINE_ARMS):
        raise ConfigError(f"baseline arms must be some of {BASELINE_ARMS}, got {tuple(which)}")
    _check_jobs(jobs)
    pruned_arms = {"random", "reversed", "length"} & set(which)
    need = ([] if "vanilla" in which else ["stage1"]) + (["prune"] if pruned_arms else [])
    data = load_splits(cfg)
    rd = RunDir(cfg, need=need, reuse=("backbone", "stage1"))
    bb = ensure_backbone(rd, data["train"])
    v = cfg.values
    e = v["backbone.embed_dim"]

    def arm_records(seed: int) -> list[MetricsRecord]:
        recs: list[MetricsRecord] = []
        with _stage("baselines"):
            stage1, rec = _run_stage1(rd, bb, data, seed)
            if "vanilla" in which:
                recs.append(replace(rec, stage="vanilla"))
            if "negative" in which:
                # post-hoc masking of the trained prompt: no rewind, no retraining
                report = score_tokens(stage1, bb, data["train"], batch_size=v["tune.batch_size"])
                for stage, rule in (("negative", "lowest_score"),
                                    ("negative_random", "random")):
                    selection = select_tokens(report, v["prune.negative_ratio"], rule, seed)
                    acc = evaluate(stage1.with_masks(selection), bb, data["dev"])
                    recs.append(_record(stage, seed, acc, selection, e))
            if not pruned_arms:
                return recs
            final, t_ratio, p_ratio = _best_cell(rd.reused("prune", seed))
            for arm in ("random", "reversed"):
                if arm in which:
                    sched = PruneSchedule((t_ratio,), (p_ratio,), arm)
                    best = _prune(cfg, stage1, bb, data, sched, seed).best
                    recs.append(_record(arm, seed, best.dev_acc, best.selection, e))
            if "length" in which:
                # excision against masking: a fresh prompt of the surviving length
                m_kept = int((final.token_mask > 0).sum())
                if not 1 <= m_kept <= stage1.m:
                    raise DataError(f"best cell keeps {m_kept} tokens, not 1 to "
                                    f"{stage1.m}: {rd.path('prune', seed=seed)}")
                short = init_prompt(m_kept, stage1.e, stage1.k, seed, bb)
                acc = _tune(cfg, short, bb, data, seed).best_dev_acc
                # counted as the best cell's tokens with every piece kept
                whole = (final.token_mask, np.ones_like(final.piece_mask))
                recs.append(_record("length", seed, acc, whole, e))
        return recs

    per_seed = _map_seeds("baselines", jobs, arm_records, list(cfg["run.seeds"]))
    records = [r for recs in per_seed for r in recs]
    write_text_atomic(rd.path("baselines.tsv"), _records_text(records))

    medians = [f"{arm}\t{float(np.median([r.dev_acc for r in records if r.stage == arm]))!r}"
               for arm in sorted({r.stage for r in records})]
    write_text_atomic(rd.path("baseline_medians.tsv"),
                      "\n".join(["arm\tmedian_dev_acc", *medians]) + "\n")
    return records


# --- transfer ------------------------------------------------------------------------


def run_transfer(cfg: RunConfig, source_dir: str,
                 jobs: int = DEFAULT_JOBS) -> list[MetricsRecord]:
    """Initialize the target prompt from a source checkpoint and, per seed,
    write two records: transfer_o, the prompt tuned on the target, then
    transfer, that prompt pruned from its live tokens and pieces."""
    _check_jobs(jobs)
    data = load_splits(cfg)
    source = checkpoint.load_prompt(checkpoint.read_manifest(source_dir, checkpoint.PROMPT_FORMAT))
    v = cfg.values
    want = (v["prompt.m"], v["backbone.embed_dim"], v["prompt.k"])
    if (source.m, source.e, source.k) != want:
        raise ConfigError(f"source prompt (m, e, k) = {(source.m, source.e, source.k)} "
                          f"does not match target config {want}")
    rd = RunDir(cfg, reuse=("backbone",))
    bb = ensure_backbone(rd, data["train"])
    e = v["backbone.embed_dim"]

    def transfer_for(seed: int) -> list[MetricsRecord]:
        with _stage("transfer"):
            bank = source.copy()
            res = _tune(cfg, bank, bb, data, seed)
            best = _prune(cfg, bank, bb, data, cfg.schedule(), seed).best
            return [_record("transfer_o", seed, res.best_dev_acc,
                            (bank.token_mask, bank.piece_mask), e),
                    _record("transfer", seed, best.dev_acc, best.selection, e)]

    per_seed = _map_seeds("transfer", jobs, transfer_for, list(cfg["run.seeds"]))
    records = [r for recs in per_seed for r in recs]
    write_text_atomic(rd.path("transfer.tsv"), _records_text(records))
    return records
