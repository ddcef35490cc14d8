"""Experiment orchestration around the tune -> prune -> rewind pipeline.

A run is described by a flat key-value config file with dotted section
names. The pipeline stages (backbone, stage1, prune) each persist a
checkpoint plus a deterministic metrics fragment, so an interrupted run
resumes from the last finished stage and reproduces the uninterrupted
metrics file byte for byte. Wall-clock times appear only in the human
report, never in metrics.

The run directory (run.out) has one owner, RunDir. It holds config.txt,
backbone/, seed<N>/stage1/ and seed<N>/prune/ (the fragments: a checkpoint
and, but for the backbone, records.tsv; prune adds best.txt and
saliency.txt, in format saliency v2, see export_saliency), and the merged
metrics.tsv, report.txt, baselines.tsv, baseline_medians.tsv and
transfer.tsv. Each fragment's manifest.txt ends in three provenance lines:
``run_hash``, the config hash, which leaves out run.out and run.seeds
since neither changes what a fragment holds;
``parent``, the sha256 of the parent's manifest.txt (the backbone's for
stage 1, stage 1's for prune, ``none`` for the backbone); and
``blas_threads``, the BLAS thread variables in effect, recorded, not
checked. Every command opens the directory before any work and refuses:

- with a ConfigError (exit 2) when config.txt holds another run hash, with
  or without resume; config.txt is written once and never overwritten;
- with a DataError (exit 3), naming the fragment as stale, when a fragment
  it reuses lacks provenance, has another run hash or a parent digest that
  no longer matches, checked up to the backbone; and with a DataError when
  a fragment it builds on but cannot build is missing. Fragments it
  rebuilds are not checked; a rebuild that changes bytes leaves their
  children stale.

Per-seed stages (stage 1, prune, the baseline arms and the transfer arms)
run in forked worker processes, one seed per task, when jobs > 1. Each
seed's work depends only on the config and that seed, so every metric and
every file in the run directory is the same for any jobs.
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
from .optim import make_optimizer
from .prompt import InitStrategy, PromptBank, init_prompt, tune
from .pruning import (CellResult, ImportanceReport, Masks, PruneSchedule,
                      baseline_negative_masking, hierarchical_prune, kept_params)
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
        for key, kind, _ in SCHEMA:
            if kind in ("float", "floats") and not np.isfinite(v[key]).all():
                raise ConfigError(f"{key} must be finite, got {_render(key, v[key])}")
        if v["pretrain.lr"] <= 0:
            raise ConfigError(f"pretrain.lr must be positive, got {v['pretrain.lr']!r}")
        if v["prompt.m"] < 1:
            raise ConfigError(f"prompt.m must be >= 1, got {v['prompt.m']}")
        if not v["run.seeds"]:
            raise ConfigError("run.seeds must list at least one seed")
        for key in ("run.seeds", "backbone.seed", "task.shots_seed", "task.shots",
                    "pretrain.steps", "pretrain.extra_sequences"):
            if min(v[key] if key == "run.seeds" else (v[key],)) < 0:
                raise ConfigError(f"{key} must be non-negative, got {_render(key, v[key])}")
        for key in ("task.train_path", "task.dev_path"):
            if v[key] and not os.path.exists(v[key]):
                raise ConfigError(f"{key} does not exist: {v[key]}")
        if bool(v["task.train_path"]) != bool(v["task.dev_path"]):
            raise ConfigError("task.train_path and task.dev_path come as a pair")
        self.backbone_config().validate()
        if not v["task.train_path"]:
            self.task_spec().validate()
            if v["prompt.m"] + v["task.seq_len_max"] > v["backbone.max_seq_len"]:
                raise ConfigError(
                    f"prompt.m + task.seq_len_max = {v['prompt.m']}+{v['task.seq_len_max']} "
                    f"exceeds backbone.max_seq_len {v['backbone.max_seq_len']}")
        self.schedule().validate()
        self.init_strategy(0).validate()
        if v["tune.epochs"] < 0 or v["prune.retrain_epochs"] < 0:
            raise ConfigError("epoch counts must be >= 0")
        if v["tune.batch_size"] < 1:
            raise ConfigError(f"tune.batch_size must be >= 1, got {v['tune.batch_size']}")
        self.optimizer()  # rejects an unknown optim.kind and a bad lr or weight_decay
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
    with open(path, "r", encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines() or [""]
    if header != METRICS_HEADER:
        raise DataError(f"metrics fragment {path} has a bad header")
    records = []
    for lineno, line in enumerate(lines, start=2):
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
        examples_seen=pc.examples_seen)


# --- datasets and corpus --------------------------------------------------------------


def load_splits(cfg: RunConfig) -> dict[str, tuple]:
    """The train and dev splits; file data must fit the encoder with the
    prompt prepended, which RunConfig.validate checks for generated tasks."""
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


# --- run directory --------------------------------------------------------------

PARENT = {"backbone": None, "stage1": "backbone", "prune": "stage1"}
BUILT_BY = {"backbone": "pretrain", "stage1": "tune", "prune": "prune"}


class RunDir:
    """cfg's run directory, opened for one command (see the module docstring).
    The command loads the fragments of the stages in need, which must be
    finished for every seed, and the finished ones in reuse; it builds the rest."""

    def __init__(self, cfg: RunConfig, need=(), reuse=()):
        cfg.validate()
        self.cfg, self.out, self.run_hash = cfg, cfg["run.out"], cfg.config_hash()
        self.reuse = {*need, *reuse}
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
        os.makedirs(self.out, exist_ok=True)
        if theirs is None:
            write_text_atomic(cfg_path, cfg.to_text())

    def path(self, *names: str, seed: int | None = None) -> str:
        """out/names..., or out/seed<seed>/names... for a per-seed stage."""
        return os.path.join(self.out, *([] if seed is None else [f"seed{seed}"]), *names)

    def _file(self, stage: str, seed: int | None, name: str = "manifest.txt") -> str:
        """A file of the fragment of stage for seed; the backbone is every seed's."""
        return self.path(stage, name, seed=None if PARENT[stage] is None else seed)

    def finished(self, stage: str, seed: int | None = None) -> bool:
        names = ["manifest.txt"] + (["records.tsv"] if PARENT[stage] else [])
        return all(os.path.exists(self._file(stage, seed, name)) for name in names)

    def _parent_digest(self, stage: str, seed: int | None) -> str:
        if PARENT[stage] is None:
            return "none"
        with open(self._file(PARENT[stage], seed), "rb") as fh:
            return sha256_hex(fh.read())

    def provenance(self, stage: str, seed: int | None = None) -> list[str]:
        """The provenance lines of the fragment of stage for seed, as of now."""
        threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
        return [f"run_hash {self.run_hash}", f"parent {self._parent_digest(stage, seed)}",
                f"blas_threads {threads}"]

    def _verify(self, stage: str, seed: int | None) -> None:
        """Raise a DataError naming the finished fragment as stale unless its
        provenance holds, and its parent's, up to the backbone."""
        with open(self._file(stage, seed), encoding="utf-8", errors="replace") as fh:
            fields = dict(line.partition(" ")[::2] for line in fh.read().splitlines())
        parent = PARENT[stage]
        if not {"run_hash", "parent", "blas_threads"} <= fields.keys():
            reason = "its manifest has no provenance lines"
        elif fields["run_hash"] != self.run_hash:
            reason = "it was built under another run hash"
        elif parent is not None and not self.finished(parent, seed):
            reason = f"its parent {parent} is missing or unfinished"
        elif fields["parent"] != self._parent_digest(stage, seed):
            reason = f"its parent {parent} changed after it was built"
        else:
            return None if parent is None else self._verify(parent, seed)
        name = os.path.relpath(os.path.dirname(self._file(stage, seed)), self.out)
        raise DataError(f"stale fragment {name} in {self.out}: {reason}; remove it or "
                        "rebuild it without resume")


def ensure_backbone(rd: RunDir, train) -> FrozenBackbone:
    """Load the run's backbone checkpoint or pretrain and save it."""
    cfg = rd.cfg
    if "backbone" in rd.reuse and rd.finished("backbone"):
        bb = checkpoint.load_backbone(rd.path("backbone"))
        if bb.cfg != cfg.backbone_config():
            raise ConfigError("backbone checkpoint does not match backbone config")
        return bb
    with _stage("backbone"):
        bb = init_backbone(cfg.backbone_config())
        pretrain(bb, build_corpus(cfg, train), cfg["pretrain.steps"], cfg["pretrain.lr"])
        checkpoint.save_backbone(bb, rd.path("backbone"), rd.provenance("backbone"))
    return bb


def _run_stage1(rd: RunDir, bb: FrozenBackbone, data,
                seed: int) -> tuple[PromptBank, MetricsRecord]:
    path = rd.path("stage1", seed=seed)
    if "stage1" in rd.reuse and rd.finished("stage1", seed):
        bank, _ = checkpoint.load_prompt(path)
        return bank, _read_records(rd.path("stage1", "records.tsv", seed=seed))[0]
    v = rd.cfg.values
    with _stage("stage1"):
        bank = init_prompt(v["prompt.m"], v["backbone.embed_dim"], v["prompt.k"],
                           rd.cfg.init_strategy(seed), bb)
        res = _tune(rd.cfg, bank, bb, data, seed)
        bank.take_snapshot()
        checkpoint.save_prompt(bank, path, "stage1", rd.provenance("stage1", seed))
        record = _record("stage1", seed, res.best_dev_acc,
                         (bank.token_mask, bank.piece_mask), v["backbone.embed_dim"])
        _write_records(rd.path("stage1", "records.tsv", seed=seed), [record])
    return bank, record


def _run_prune(rd: RunDir, bb: FrozenBackbone, data, seed: int,
               bank: PromptBank) -> list[MetricsRecord]:
    if "prune" in rd.reuse and rd.finished("prune", seed):
        return _read_records(rd.path("prune", "records.tsv", seed=seed))
    e = rd.cfg["backbone.embed_dim"]
    with _stage("prune"):
        result = _prune(rd.cfg, bank, bb, data, rd.cfg.schedule(), seed)
        records = [_record(f"cell[{cell.token_ratio!r},{cell.piece_ratio!r}]", seed,
                           cell.dev_acc, cell.selection, e)
                   for cell in result.cells]
        best = result.best
        records.append(_record("final", seed, best.dev_acc, best.selection, e))
        checkpoint.save_prompt(bank, rd.path("prune", seed=seed), "final",
                               rd.provenance("prune", seed))
        write_text_atomic(rd.path("prune", "best.txt", seed=seed),
                          f"token_ratio = {best.token_ratio!r}\n"
                          f"piece_ratio = {best.piece_ratio!r}\n")
        export_saliency(merge_saliency_report(best), best.selection,
                        rd.path("prune", "saliency.txt", seed=seed))
        _write_records(rd.path("prune", "records.tsv", seed=seed), records)
    return records


def _check_names(kind: str, given, allowed) -> None:
    if not given or not set(given) <= set(allowed):
        raise ConfigError(f"{kind} must be some of {allowed}, got {tuple(given)}")


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

    A worker inherits fn, and the backbone, splits and config it closes over,
    at fork, so a task sends only its seed; only fn's result comes back,
    pickled. Results merge in seed order, so they, and every file fn writes,
    do not depend on jobs. A worker that dies fails the stage.
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
    _write_records(rd.path("metrics.tsv"), records)
    lines = ["run report", "==========", "", f"config hash: {rd.run_hash}",
             *(f"wall[{stage}]: {secs:.1f}s" for stage, secs in sorted(wall.items())), "",
             *(line.replace("\t", "  ") for line in
               [METRICS_HEADER] + [r.tsv_line() for r in records])]
    write_text_atomic(rd.path("report.txt"), "\n".join(lines) + "\n")


def run_pipeline(cfg: RunConfig, resume: bool = False, stop_after: str | None = None,
                 jobs: int = DEFAULT_JOBS, start: str = "backbone") -> list[MetricsRecord]:
    """pretrain -> stage-1 tune -> snapshot -> hierarchical prune -> final
    rewound-retrained model, with metrics, checkpoints, and saliency.

    The call builds the stages from start through stop_after (the pretrain,
    tune and prune subcommands) in the directory RunDir opens, and reuses
    the earlier ones, which must be finished; only the backbone is built
    when it is not. metrics.tsv and report.txt are written only by a run
    that goes through every stage. jobs is how many seeds run at once (see
    _map_seeds); it changes no result.
    """
    stages = STAGES[:STAGES.index(stop_after) + 1] if stop_after in STAGES else STAGES
    if stop_after not in (None, *STAGES) or start not in stages:
        raise ConfigError(f"start and stop_after must be stages of {STAGES} in order, "
                          f"got {start!r} and {stop_after!r}")
    _check_jobs(jobs)
    first = stages.index(start)
    before, built = stages[:first], stages[first:]
    rd = RunDir(cfg, need=before[1:], reuse=before[:1] + (built if resume else ()))
    data = load_splits(cfg)
    t0 = time.monotonic()
    bb = ensure_backbone(rd, data["train"])
    wall = {"backbone": time.monotonic() - t0}
    if stop_after == "backbone":
        return []

    seeds = list(cfg["run.seeds"])
    t0 = time.monotonic()
    stage1 = _map_seeds("stage1", jobs, lambda seed: _run_stage1(rd, bb, data, seed), seeds)
    wall["stage1"] = time.monotonic() - t0
    if stop_after == "stage1":
        return [record for _, record in stage1]

    banks = dict(zip(seeds, (bank for bank, _ in stage1)))
    t0 = time.monotonic()
    pruned = _map_seeds("prune", jobs,
                        lambda seed: _run_prune(rd, bb, data, seed, banks[seed]), seeds)
    wall["prune"] = time.monotonic() - t0
    records = [r for (_, record), recs in zip(stage1, pruned) for r in [record, *recs]]
    if stop_after == "prune":
        return records

    _write_metrics(rd, records, wall)
    return records


def collect_report(cfg: RunConfig) -> list[MetricsRecord]:
    """Regenerate metrics.tsv and report.txt from existing stage fragments."""
    rd = RunDir(cfg, need=("stage1", "prune"))
    records = [r for seed in cfg["run.seeds"] for stage in ("stage1", "prune")
               for r in _read_records(rd.path(stage, "records.tsv", seed=seed))]
    _write_metrics(rd, records, wall={})
    return records


# --- baselines ----------------------------------------------------------------------


def _best_cell(rd: RunDir, seed: int) -> tuple[PromptBank, float, float]:
    bank, _ = checkpoint.load_prompt(rd.path("prune", seed=seed))
    best_path = rd.path("prune", "best.txt", seed=seed)
    try:
        with open(best_path, "r", encoding="utf-8") as fh:
            ratios = {key.strip(): float(val) for key, _, val in
                      (line.partition("=") for line in fh.read().splitlines())}
        ratio = ratios["token_ratio"], ratios["piece_ratio"]
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"best cell {best_path} is missing or malformed ({exc!r})") from None
    if not all(0.0 <= r < 1.0 for r in ratio):
        raise DataError(f"best cell {best_path}: ratios {ratio} are not in [0, 1)")
    return bank, *ratio


def run_baselines(cfg: RunConfig, which=BASELINE_ARMS,
                  jobs: int = DEFAULT_JOBS) -> list[MetricsRecord]:
    """Ablation arms over all configured seeds, with a median per arm.

    vanilla reuses (or builds) stage-1; every other arm needs stage-1, and
    random, reversed, and length also need the pruned checkpoint because
    they run at the best cell's ratios or surviving length. Each seed loads
    each checkpoint at most once.
    """
    _check_names("baseline arms", which, BASELINE_ARMS)
    _check_jobs(jobs)
    pruned_arms = {"random", "reversed", "length"} & set(which)
    need = ([] if "vanilla" in which else ["stage1"]) + (["prune"] if pruned_arms else [])
    rd = RunDir(cfg, need=need, reuse=("backbone", "stage1"))
    data = load_splits(cfg)
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
                for stage, rule in (("negative", "lowest_score"),
                                    ("negative_random", "random")):
                    acc, selection = baseline_negative_masking(
                        stage1, bb, data["train"], data["dev"], v["prune.negative_ratio"],
                        rule=rule, batch_size=v["tune.batch_size"], seed=seed)
                    recs.append(_record(stage, seed, acc, selection, e))
            if not pruned_arms:
                return recs
            final, t_ratio, p_ratio = _best_cell(rd, seed)
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
                                    f"{stage1.m}: {rd.path('prune', seed=seed)}")
                short = init_prompt(m_kept, stage1.e, stage1.k, cfg.init_strategy(seed), bb)
                acc = _tune(cfg, short, bb, data, seed).best_dev_acc
                # counted as the best cell's tokens with every piece kept
                whole = (final.token_mask, np.ones_like(final.piece_mask))
                recs.append(_record("length", seed, acc, whole, e))
        return recs

    per_seed = _map_seeds("baselines", jobs, arm_records, list(cfg["run.seeds"]))
    records = [r for recs in per_seed for r in recs]
    _write_records(rd.path("baselines.tsv"), records)

    medians = [f"{arm}\t{float(np.median([r.dev_acc for r in records if r.stage == arm]))!r}"
               for arm in sorted({r.stage for r in records})]
    write_text_atomic(rd.path("baseline_medians.tsv"),
                      "\n".join(["arm\tmedian_dev_acc", *medians]) + "\n")
    return records


# --- transfer ------------------------------------------------------------------------


def run_transfer(cfg: RunConfig, source_dir: str, variants=("transfer_o", "transfer"),
                 jobs: int = DEFAULT_JOBS) -> list[MetricsRecord]:
    """Initialize the target prompt from a source checkpoint and either tune
    (transfer_o) or run tune + hierarchical prune (transfer) on the target."""
    _check_names("transfer variants", variants, ("transfer_o", "transfer"))
    _check_jobs(jobs)
    source, _ = checkpoint.load_prompt(source_dir)
    v = cfg.values
    want = (v["prompt.m"], v["backbone.embed_dim"], v["prompt.k"])
    if (source.m, source.e, source.k) != want:
        raise ConfigError(f"source prompt (m, e, k) = {(source.m, source.e, source.k)} "
                          f"does not match target config {want}")
    rd = RunDir(cfg, reuse=("backbone",))
    data = load_splits(cfg)
    bb = ensure_backbone(rd, data["train"])
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

    per_seed = _map_seeds("transfer", jobs, transfer_for, list(cfg["run.seeds"]))
    records = [r for recs in per_seed for r in recs]
    _write_records(rd.path("transfer.tsv"), records)
    return records
