"""Config files, pipeline orchestration, baselines, transfer, exports, CLI.

Percentage arithmetic is checked against an independent decimal-module
oracle; pipeline determinism is checked by byte comparison of metrics files
across rerun, resume, and parallel execution.
"""

import ast
import decimal
import hashlib
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from xprompt import checkpoint, cli, tasks, util
from xprompt import harness as hz
from xprompt import pruning as pr
from xprompt.backbone import _weight_shapes
from xprompt.checkpoint import PROMPT_FORMAT, load_prompt, read_manifest, save_prompt
from xprompt.errors import ConfigError, DataError, StageError
from xprompt.prompt import PromptBank

from conftest import MICRO_SPEC


# --- fixtures -----------------------------------------------------------------


def micro_overrides(out: str) -> dict[str, object]:
    return {
        "backbone.vocab_size": 16, "backbone.embed_dim": 16, "backbone.layers": 1,
        "backbone.heads": 2, "backbone.max_seq_len": 32, "backbone.seed": 3,
        "pretrain.steps": 80, "pretrain.lr": 0.01, "pretrain.extra_sequences": 40,
        "task.name": "micro", "task.seq_len_min": 5, "task.seq_len_max": 9,
        "task.train_size": 48, "task.dev_size": 32, "task.seed": 11,
        "prompt.m": 6, "prompt.k": 4, "optim.lr": 0.05,
        "tune.epochs": 3, "tune.batch_size": 16,
        "prune.token_ratios": (0.34,), "prune.piece_ratios": (0.25,),
        "prune.retrain_epochs": 2, "run.seeds": (1, 2), "run.out": out,
    }


def micro_cfg(out: str, **extra) -> hz.RunConfig:
    return hz.RunConfig.from_mapping({**micro_overrides(out), **extra})


@pytest.fixture(scope="module")
def pipe_run(tmp_path_factory):
    """One finished micro pipeline run shared by read-only tests."""
    out = str(tmp_path_factory.mktemp("run") / "base")
    cfg = micro_cfg(out)
    records = hz.run_pipeline(cfg)
    return cfg, out, records


def copy_run(pipe_run, tmp_path) -> tuple[hz.RunConfig, str]:
    """Config and directory of a private copy of the shared run, for tests
    that write into it."""
    cfg, out, _ = pipe_run
    copy = str(tmp_path / "copy")
    shutil.copytree(out, copy)
    return cfg.with_overrides(run__out=copy), copy


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def reseal(path: str) -> None:
    """Recompute the file lines and the digest line of the manifest at path,
    so that a fragment edited on purpose passes the digest checks and the
    edit reaches the parser behind them."""
    lines = []
    for line in read(path).splitlines():
        key, _, rest = line.partition(" ")
        if key == "file":
            name = rest.split(" ")[0]
            with open(os.path.join(os.path.dirname(path), name), "rb") as fh:
                line = f"file {name} {hashlib.sha256(fh.read()).hexdigest()}"
        if key != "digest":
            lines.append(line)
    body = "".join(line + "\n" for line in lines)
    hz.write_text_atomic(path, f"{body}digest {hashlib.sha256(body.encode()).hexdigest()}\n")


# --- config files -----------------------------------------------------------------


def write_defaults(tmp_path) -> str:
    path = str(tmp_path / "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hz.RunConfig.from_mapping().to_text())
    return path


def test_template_round_trips(tmp_path):
    cfg = hz.RunConfig.from_file(write_defaults(tmp_path))
    assert cfg.values == hz.RunConfig.from_mapping().values
    assert cfg.config_hash() == hz.RunConfig.from_mapping().config_hash()


def test_template_protocol_defaults(tmp_path):
    cfg = hz.RunConfig.from_file(write_defaults(tmp_path))
    assert cfg["prompt.m"] == 20
    assert cfg["prompt.k"] == 16
    grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
    assert cfg["prune.token_ratios"] == grid
    assert cfg["prune.piece_ratios"] == grid
    assert cfg["tune.epochs"] == 100
    assert cfg["tune.batch_size"] == 16
    assert cfg["optim.weight_decay"] == 1e-5


@pytest.mark.parametrize("classes, digest", [
    (2, "15ed30587c5841dd436c2c5caf4dcdf85fd69ae2c1c981bff6dc59b4c75c87fb"),
    (3, "532bf69a3049d4d7159dfe52ffa34de792431a86cb54633f5a37d4f094cc3872"),
])
def test_template_splits_are_pinned(classes, digest):
    """Every byte-identity guarantee downstream rests on this stream: the
    template's generated splits, as token tuples and labels, hash the same."""
    data = hz.load_splits(hz.RunConfig.from_mapping({"backbone.num_classes": classes}))
    text = repr({split: tuple((ex.tokens, ex.label) for ex in data[split])
                 for split in ("train", "dev")})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec, digest", [
    (MICRO_SPEC, "817ddd9723804352639e2c909279db7fa6172efe86ebfb5a135e56592151878b"),
    (replace(MICRO_SPEC, name="micro-majority-3", vocab_size=20, num_classes=3, dev_size=30),
     "d75f0f79511570063aa458902de355c9cb9e72ca64a2524bbf41f2f819c2a962"),
], ids=["micro", "three-classes"])
def test_micro_splits_are_pinned(spec, digest):
    """The splits most tests train on hash the same, like the template's."""
    data = tasks.generate(spec)
    text = repr({split: tuple((ex.tokens, ex.label) for ex in data[split])
                 for split in ("train", "dev")})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("line, fragment", [
    ("bogus.key = 3", "unknown key"),
    ("prompt.m 4", "expected 'key = value'"),
    ("prompt.m = four", "cannot parse"),
    ("prompt.m = 4\nprompt.m = 5", "duplicate key"),
])
def test_config_parse_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        hz.RunConfig.from_text(line)


def test_config_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        hz.RunConfig.from_text("# comment\nprompt.m = 4\nwhat = ever\n")


def test_config_accepts_comments_and_blanks():
    cfg = hz.RunConfig.from_text("\n# note\nprompt.m = 7\n\n")
    assert cfg["prompt.m"] == 7


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        hz.RunConfig.from_file("/nonexistent/run.cfg")


def test_config_hash_ignores_out_dir_and_seeds_only():
    a = hz.RunConfig.from_mapping({"run.out": "x"})
    b = hz.RunConfig.from_mapping({"run.out": "y"})
    c = hz.RunConfig.from_mapping({"run.out": "x", "prompt.m": 21})
    d = hz.RunConfig.from_mapping({"run.out": "x", "run.seeds": (7,)})
    assert a.config_hash() == b.config_hash() == d.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_validate_errors(tmp_path):
    with pytest.raises(ConfigError):
        hz.RunConfig.from_mapping({"prompt.m": 0}).validate()
    with pytest.raises(ConfigError):
        hz.RunConfig.from_mapping({"run.seeds": ()}).validate()
    with pytest.raises(ConfigError):
        hz.RunConfig.from_mapping({"prune.negative_ratio": 1.0}).validate()
    with pytest.raises(ConfigError, match="unknown config key"):
        hz.RunConfig.from_mapping({"prompt.init": "zeros"}).validate()
    with pytest.raises(ConfigError):
        hz.RunConfig.from_mapping({"tune.epochs": -1}).validate()
    with pytest.raises(ConfigError):
        hz.RunConfig.from_mapping({"task.train_path": "/nope.jsonl",
                                   "task.dev_path": "/nope.jsonl"}).validate()
    train = tmp_path / "t.jsonl"
    train.write_text('{"tokens": [2, 3], "label": 0}\n')
    with pytest.raises(ConfigError, match="pair"):
        hz.RunConfig.from_mapping({"task.train_path": str(train)}).validate()
    with pytest.raises(ConfigError, match="unknown config key"):
        hz.RunConfig.from_mapping({"prune.rule": "top_k"}).validate()


def test_with_overrides_rejects_unknown():
    with pytest.raises(ConfigError):
        hz.RunConfig.from_mapping().with_overrides(prompt__width=3)


# --- percentage arithmetic -----------------------------------------------------------


def decimal_percent(count: int, total: int) -> str:
    """Independent rendering: exact decimal division, half-even to 4 places."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        value = decimal.Decimal(count * 100) / decimal.Decimal(total)
        return str(value.quantize(decimal.Decimal("0.0001"),
                                  rounding=decimal.ROUND_HALF_EVEN))


def test_exact_percent_matches_decimal_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        total = int(rng.integers(1, 100_000))
        count = int(rng.integers(0, total + 1))
        assert hz.exact_percent(count, total) == decimal_percent(count, total)


def test_exact_percent_half_even_ties():
    assert hz.exact_percent(1, 16000) == "0.0062"   # exact tie, even stays
    assert hz.exact_percent(3, 16000) == "0.0188"   # exact tie, odd rounds up


def test_exact_percent_rejects_bad_total():
    with pytest.raises(DataError):
        hz.exact_percent(1, 0)


def full_selection(m: int, k: int, cells: dict[int, int]):
    """(gamma, zeta) keeping the first cells[t] pieces of each listed token."""
    gamma, zeta = np.zeros(m), np.zeros((m, k))
    for t, n in cells.items():
        gamma[t] = 1.0
        zeta[t, :n] = 1.0
    return gamma, zeta


def test_param_count_reference_table():
    m, e, k = 20, 2048, 16
    cases = [
        ({t: 16 for t in range(20)}, 40960, "100.0000"),
        ({0: 16, 1: 16, 2: 16}, 6144, "15.0000"),
        ({0: 16, 1: 4}, 2560, "6.2500"),
        ({0: 4}, 512, "1.2500"),
    ]
    for cells, count, pct in cases:
        got = hz._record("final", 0, 1.0, full_selection(m, k, cells), e)
        assert (got.kept_params, got.percent) == (count, pct)


def test_param_count_rejects_inconsistent_selections():
    gamma, zeta = full_selection(20, 16, {0: 1})
    zeta[1, 0] = 1.0  # a piece row of removed token 1 counts zero
    got = hz._record("final", 0, 1.0, (gamma, zeta), 2048)
    assert (got.kept_tokens, got.kept_params, got.percent) == (1, 128, "0.3125")


# --- metrics records ---------------------------------------------------------------


def test_metrics_records_round_trip(tmp_path):
    """Records read back as written, and only in a fragment of their seed."""
    records = [hz.MetricsRecord("stage1", 1, 0.1 + 0.2, 6, 96, "100.0000"),
               hz.MetricsRecord("cell[0.3,0.25]", 1, 1.0 / 3.0, 4, 48, "50.0000")]
    bank = PromptBank(p=np.zeros((1, 4)), token_mask=np.ones(1), piece_mask=np.ones((1, 2)), k=2)
    for seed in (1, 2):
        save_prompt(bank, str(tmp_path / f"seed{seed}"), [f"run_seed {seed}"],
                    files={"records.tsv": hz._records_text(records)})
    back = hz._read_records(read_manifest(str(tmp_path / "seed1"), PROMPT_FORMAT))
    assert [r.tsv_line() for r in back] == [r.tsv_line() for r in records]
    assert back[0].dev_acc == 0.1 + 0.2  # float repr round trip is exact
    with pytest.raises(DataError, match="line 2: seed 1, not 2"):
        hz._read_records(read_manifest(str(tmp_path / "seed2"), PROMPT_FORMAT))


# --- saliency export ----------------------------------------------------------------


def make_report(token_scores, piece_scores):
    ts = np.asarray(token_scores, dtype=float)
    ps = np.asarray(piece_scores, dtype=float)
    return pr.ImportanceReport(ts, ps, np.ones(ts.shape, bool), np.ones(ps.shape, bool), 1)


def parse_saliency(text: str):
    tokens, pieces = {}, {}
    for line in text.strip().split("\n"):
        parts = line.split(" ")
        if parts[0] == "token":
            tokens[int(parts[1])] = (float(parts[3]), float(parts[5]), int(parts[7]))
        elif parts[0] == "piece":
            pieces[(int(parts[1]), int(parts[2]))] = (
                float(parts[4]), float(parts[6]), int(parts[8]))
    return tokens, pieces


def test_export_saliency_row_max_is_100():
    rep = make_report([0.2, 0.4], [[0.1, 0.2], [0.3, 0.0]])
    sel = np.ones(2), np.ones((2, 2))
    text = hz.saliency_text(rep, sel)
    assert text.startswith("format saliency v2\nexamples_seen 1\n")
    tokens, pieces = parse_saliency(text)
    assert tokens[0] == (0.2, 50.0, 0)
    assert tokens[1] == (0.4, 100.0, 0)
    for i in range(2):
        row = [pieces[(i, q)][1] for q in range(2)]
        assert max(row) == 100.0
    assert pieces[(0, 0)] == (0.1, 50.0, 0)
    assert pieces[(1, 1)] == (0.0, 0.0, 0)


def test_export_saliency_flat_rows_normalize_to_100():
    rep = make_report([0.5, 0.5], [[0.3, 0.3], [0.0, 0.0]])
    sel = np.ones(2), np.ones((2, 2))
    tokens, pieces = parse_saliency(hz.saliency_text(rep, sel))
    assert tokens[0][1] == 100.0 and tokens[1][1] == 100.0
    assert all(pieces[(i, q)][1] == 100.0 for i in range(2) for q in range(2))


def test_export_saliency_pruned_flags_keep_raw_scores():
    rep = make_report([0.2, 0.4], [[0.1, 0.2], [0.3, 0.4]])
    sel = np.array([0.0, 1.0]), np.array([[0.0, 0.0], [0.0, 1.0]])
    tokens, pieces = parse_saliency(hz.saliency_text(rep, sel))
    assert tokens[0] == (0.2, 50.0, 1)           # pruned token keeps its score
    assert pieces[(0, 0)][2] == 1 and pieces[(0, 0)][0] == 0.1
    assert pieces[(1, 0)] == (0.3, 75.0, 1)      # pruned piece of a kept token
    assert pieces[(1, 1)] == (0.4, 100.0, 0)


def test_export_saliency_geometry_mismatch():
    rep = make_report([0.2], [[0.1, 0.2]])
    sel = np.ones(3), np.ones((3, 2))
    with pytest.raises(DataError):
        hz.saliency_text(rep, sel)


# --- pipeline ---------------------------------------------------------------------


def test_pipeline_record_layout(pipe_run):
    cfg, out, records = pipe_run
    tags = [(r.stage, r.seed) for r in records]
    assert tags == [("stage1", 1), ("cell[0.34,0.25]", 1), ("final", 1),
                    ("stage1", 2), ("cell[0.34,0.25]", 2), ("final", 2)]
    for name in ("config.txt", "metrics.tsv", "report.txt"):
        assert os.path.exists(os.path.join(out, name))
    assert read(os.path.join(out, "config.txt")) == cfg.to_text()
    for seed in (1, 2):
        assert os.path.exists(os.path.join(out, f"seed{seed}", "prune", "saliency.txt"))


def test_pipeline_percentages_recompute(pipe_run):
    _, _, records = pipe_run
    m, e = 6, 16
    for r in records:
        assert float(r.percent) == pytest.approx(100.0 * r.kept_params / (m * e),
                                                 abs=1e-4)
        assert r.percent == hz.exact_percent(r.kept_params, m * e)


def test_pipeline_rerun_is_bitwise_identical(pipe_run, tmp_path):
    _, out, _ = pipe_run
    other = str(tmp_path / "again")
    hz.run_pipeline(micro_cfg(other))
    assert read(os.path.join(other, "metrics.tsv")) == read(os.path.join(out, "metrics.tsv"))


def test_pipeline_resume_matches_uninterrupted(pipe_run, tmp_path):
    _, out, _ = pipe_run
    part = str(tmp_path / "part")
    assert hz.run_pipeline(micro_cfg(part), "backbone") == []
    hz.run_pipeline(micro_cfg(part), "stage1", resume=True)
    assert not os.path.exists(os.path.join(part, "metrics.tsv"))
    hz.run_pipeline(micro_cfg(part), resume=True)
    assert read(os.path.join(part, "metrics.tsv")) == read(os.path.join(out, "metrics.tsv"))


def test_pipeline_given_stage1_reuses_a_finished_backbone(pipe_run, tmp_path, monkeypatch):
    """Given stage1 and no resume, the call builds stage 1 alone, as tune
    does: it never pretrains over a finished backbone, and it writes no
    prune fragment and no metrics."""
    cfg, out, _ = pipe_run
    part = str(tmp_path / "part")
    shutil.copytree(os.path.join(out, "backbone"), os.path.join(part, "backbone"))
    shutil.copy(os.path.join(out, "config.txt"), part)
    manifest = os.path.join(part, "backbone", "manifest.txt")
    with open(manifest, "rb") as fh:
        before = fh.read()
    monkeypatch.setattr(hz, "pretrain", lambda *args: pytest.fail("pretrained again"))
    records = hz.run_pipeline(cfg.with_overrides(run__out=part), "stage1")
    assert [(r.stage, r.seed) for r in records] == [("stage1", 1), ("stage1", 2)]
    with open(manifest, "rb") as fh:
        assert fh.read() == before
    for seed in (1, 2):
        assert os.path.exists(os.path.join(part, f"seed{seed}", "stage1", "manifest.txt"))
        assert not os.path.exists(os.path.join(part, f"seed{seed}", "prune"))
    assert not os.path.exists(os.path.join(part, "metrics.tsv"))


def test_pipeline_resume_refuses_config_change(pipe_run):
    cfg, out, _ = pipe_run
    changed = micro_cfg(out, **{"tune.epochs": 4})
    with pytest.raises(ConfigError, match="holds another config"):
        hz.run_pipeline(changed, resume=True)


def tree_bytes(top: str) -> dict[str, bytes]:
    """Every file under top by relative path."""
    files = {}
    for root, _, names in os.walk(top):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, top)] = fh.read()
    return files


def run_files(out: str) -> dict[str, bytes]:
    """Every file under a run directory by relative path, less the two
    lines allowed to differ between runs: config.txt's run.out and
    report.txt's wall-clock times."""
    files = tree_bytes(out)
    for name, line in (("config.txt", rb"^run\.out = .*\n"), ("report.txt", rb"^wall\[.*\n")):
        files[name] = re.sub(line, b"", files[name], flags=re.M)
    return files


def test_pipeline_parallel_jobs_match_serial(tmp_path):
    """Pipeline, every baseline arm and transfer write the same bytes for
    any number of worker processes, and tune then prune --jobs 2 write the
    same fragments as the pipeline's per-seed tasks."""
    runs = []
    for jobs in (1, 2, 3):
        cfg = micro_cfg(str(tmp_path / f"jobs{jobs}"), **{"run.seeds": (1, 2, 3)})
        hz.run_pipeline(cfg, jobs=jobs)
        hz.run_baselines(cfg, jobs=jobs)
        hz.run_transfer(cfg, os.path.join(cfg["run.out"], "seed1", "prune"), jobs=jobs)
        runs.append(run_files(cfg["run.out"]))
    assert {"metrics.tsv", "baselines.tsv", "transfer.tsv",
            os.path.join("seed3", "prune", "saliency.txt")} <= set(runs[0])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    split = micro_cfg(str(tmp_path / "split"), **{"run.seeds": (1, 2, 3)})
    hz.run_pipeline(split, "stage1", jobs=1)
    hz.run_pipeline(split, "prune", jobs=2)
    fragments = tree_bytes(split["run.out"])
    del fragments["config.txt"]  # it differs from the others in run.out alone
    assert fragments == {name: data for name, data in runs[0].items()
                         if name.startswith(("backbone", "seed"))}


# the records of the micro run, every baseline arm and transfer; they were the
# same bytes under native, Haswell-only OpenBLAS and pre-AVX-512 numpy kernels,
# so the pin is not keyed by kernel set, and other bytes elsewhere are a finding
RECORD_DIGESTS = {
    "metrics.tsv": "65cff084e19777102f84919caf643379e6b4484ebb2e78ff46324725c542e7b4",
    "baselines.tsv": "d74ee25d39addc3d8b45613db06b903541b4e64e2a1510f354089344539ff66c",
    "transfer.tsv": "40db227291995bdc2ec4673a604068c96d6fe8b75d58b64aa9d89c0032fc8f65",
}


def test_records_are_pinned(pipe_run, tmp_path):
    cfg, copy = copy_run(pipe_run, tmp_path)
    hz.run_baselines(cfg, jobs=1)
    hz.run_transfer(cfg, os.path.join(copy, "seed1", "prune"), jobs=1)
    files = tree_bytes(copy)
    assert {name: hashlib.sha256(files[name]).hexdigest() for name in RECORD_DIGESTS} == \
        RECORD_DIGESTS


class Crash(BaseException):
    """The process dying at a write: no handler of the program catches it."""


@pytest.mark.parametrize("half", [False, True], ids=["before", "half"])
@pytest.mark.parametrize("point", [
    "config.txt", os.path.join("backbone", "manifest.txt"),
    os.path.join("seed1", "stage1", "manifest.txt"), os.path.join("seed1", "prune", "manifest.txt"),
    os.path.join("seed2", "stage1", "manifest.txt"), os.path.join("seed2", "prune", "manifest.txt"),
], ids=["first-write", "backbone", "seed1-stage1", "seed1-prune", "seed2-stage1", "seed2-prune"])
def test_cli_resume_after_a_crash_at_a_commit_point_gives_the_same_bytes(
        pipe_run, tmp_path, monkeypatch, point, half):
    """A pipeline that dies at the run's first write or at a fragment's commit
    (its manifest), before writing or with half of the temp file written,
    resumes to the uninterrupted run's bytes and leaves no temp file."""
    out = str(tmp_path / "crashed")
    cfg = write_cfg_file(tmp_path, out)
    write = util.write_bytes_atomic

    def crashing(path, data):
        if path == os.path.join(out, point):
            if half:
                with open(path + ".tmp", "wb") as fh:
                    fh.write(data[:len(data) // 2])
            raise Crash(path)
        write(path, data)

    monkeypatch.setattr(util, "write_bytes_atomic", crashing)
    monkeypatch.setattr(checkpoint, "write_bytes_atomic", crashing)
    with pytest.raises(Crash):
        cli.main(["pipeline", "--config", cfg, "--jobs", "1"])
    monkeypatch.undo()
    assert cli.main(["pipeline", "--config", cfg, "--resume", "--jobs", "1"]) == 0
    files = run_files(out)
    assert files == run_files(pipe_run[1])
    assert not [name for name in files if name.endswith(".tmp")]


@pytest.mark.parametrize("point", [
    os.path.join("seed2", "stage1", "manifest.txt"),
    os.path.join("seed2", "prune", "manifest.txt"),
], ids=["seed2-stage1", "seed2-prune"])
def test_cli_resume_after_a_worker_dies_at_a_commit_point_gives_the_same_bytes(
        pipe_run, tmp_path, monkeypatch, capsys, point):
    """Under --jobs 2, a worker that dies at a fragment's commit with half of the
    temp file written fails the pipeline as a stage failure, and a resume with
    --jobs 2 gives the uninterrupted run's bytes and leaves no temp file."""
    out = str(tmp_path / "crashed")
    cfg = write_cfg_file(tmp_path, out)
    write, parent = util.write_bytes_atomic, os.getpid()

    def dying(path, data):
        if path == os.path.join(out, point) and os.getpid() != parent:
            with open(path + ".tmp", "wb") as fh:
                fh.write(data[:len(data) // 2])
            os._exit(1)
        write(path, data)

    monkeypatch.setattr(util, "write_bytes_atomic", dying)
    monkeypatch.setattr(checkpoint, "write_bytes_atomic", dying)
    capsys.readouterr()
    assert cli.main(["pipeline", "--config", cfg, "--jobs", "2"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("stage failure: ")
    assert os.path.exists(os.path.join(out, point + ".tmp"))
    monkeypatch.undo()
    assert cli.main(["pipeline", "--config", cfg, "--resume", "--jobs", "2"]) == 0
    files = run_files(out)
    assert files == run_files(pipe_run[1])
    assert not [name for name in files if name.endswith(".tmp")]


# an xprompt command whose Nth write puts half of the temp file on disk and then
# SIGKILLs its own process: argv is N, then the command line
KILLED_AT_WRITE = """
import os, signal, sys
from xprompt import checkpoint, cli, util
n, count, write = int(sys.argv[1]), [0], util.write_bytes_atomic

def killed(path, data):
    count[0] += 1
    if count[0] == n:
        with open(path + ".tmp", "wb") as fh:
            fh.write(data[:len(data) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    write(path, data)

util.write_bytes_atomic = checkpoint.write_bytes_atomic = killed
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("n", [1, 4, 9, 16])
def test_cli_resume_after_a_sigkill_at_a_write_gives_the_same_bytes(pipe_run, tmp_path, n):
    """A pipeline process killed by SIGKILL at its Nth write, with half of the
    temp file written, resumes to the uninterrupted run's bytes and leaves no
    temp file."""
    out = str(tmp_path / "killed")
    cfg = write_cfg_file(tmp_path, out)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", KILLED_AT_WRITE, str(n), "pipeline",
                           "--config", cfg, "--jobs", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert [name for name in tree_bytes(out) if name.endswith(".tmp")]
    assert cli.main(["pipeline", "--config", cfg, "--resume", "--jobs", "1"]) == 0
    files = run_files(out)
    assert files == run_files(pipe_run[1])
    assert not [name for name in files if name.endswith(".tmp")]


def arm_commands(out: str) -> list[list[str]]:
    """baselines, every arm, then transfer from seed 1's pruned prompt."""
    return [["baselines"], ["transfer", "--source", os.path.join(out, "seed1", "prune")]]


def fragment_bytes(out: str) -> dict[str, bytes]:
    return {name: data for name, data in tree_bytes(out).items()
            if name.startswith(("backbone", "seed"))}


@pytest.fixture(scope="module")
def arms_run(pipe_run, tmp_path_factory):
    """The files of a copy of the shared run after arm_commands, uninterrupted."""
    out = str(tmp_path_factory.mktemp("arms") / "run")
    shutil.copytree(pipe_run[1], out)
    cfg = write_cfg_file(tmp_path_factory.mktemp("arms-cfg"), out)
    for command in arm_commands(out):
        assert cli.main([*command, "--config", cfg, "--jobs", "1"]) == 0
    return run_files(out)


@pytest.mark.parametrize("half", [False, True], ids=["before", "half"])
@pytest.mark.parametrize("command, point", [
    ("baselines", "baselines.tsv"), ("baselines", "baseline_medians.tsv"),
    ("transfer", "transfer.tsv"),
], ids=["baselines", "baseline-medians", "transfer"])
def test_cli_rerun_after_a_crash_in_baselines_or_transfer_gives_the_same_bytes(
        pipe_run, arms_run, tmp_path, monkeypatch, command, point, half):
    """baselines or transfer dying at one of its tsv files, before writing or
    with half of the temp file written, leaves every fragment as it was, and
    rerunning the command gives the uninterrupted run's bytes and leaves no
    temp file."""
    out = str(tmp_path / "crashed")
    shutil.copytree(pipe_run[1], out)
    cfg = write_cfg_file(tmp_path, out)
    fragments = fragment_bytes(out)
    write = util.write_bytes_atomic

    def crashing(path, data):
        if path == os.path.join(out, point):
            if half:
                with open(path + ".tmp", "wb") as fh:
                    fh.write(data[:len(data) // 2])
            raise Crash(path)
        write(path, data)

    monkeypatch.setattr(util, "write_bytes_atomic", crashing)
    monkeypatch.setattr(checkpoint, "write_bytes_atomic", crashing)
    for args in arm_commands(out):
        args = [*args, "--config", cfg, "--jobs", "1"]
        if args[0] == command:
            with pytest.raises(Crash):
                cli.main(args)
            monkeypatch.undo()
            assert fragment_bytes(out) == fragments
        assert cli.main(args) == 0
    files = run_files(out)
    assert fragment_bytes(out) == fragments
    assert files == arms_run
    assert not [name for name in files if name.endswith(".tmp")]


def test_pipeline_degenerate_grid_repeats_stage1(tmp_path):
    # keep-all cell with no retraining evaluates the rewound = stage-1 state
    out = str(tmp_path / "deg")
    cfg = micro_cfg(out, **{"prune.token_ratios": (0.0,), "prune.piece_ratios": (0.0,),
                            "prune.retrain_epochs": 0, "run.seeds": (1,)})
    records = hz.run_pipeline(cfg)
    by_stage = {r.stage: r for r in records}
    assert by_stage["final"].dev_acc == by_stage["stage1"].dev_acc
    assert by_stage["final"].kept_params == by_stage["stage1"].kept_params


def test_pipeline_rejects_unknown_stage(tmp_path):
    for stage in ("nowhere", "report"):
        with pytest.raises(ConfigError):
            hz.run_pipeline(micro_cfg(str(tmp_path / "x")), stage)


def test_fewshot_pipeline_completes_and_reproduces(tmp_path):
    outs = []
    for name in ("fs1", "fs2"):
        out = str(tmp_path / name)
        cfg = micro_cfg(out, **{"task.shots": 16, "run.seeds": (1,)})
        hz.run_pipeline(cfg)
        outs.append(read(os.path.join(out, "metrics.tsv")))
    assert outs[0] == outs[1]


# --- baselines ---------------------------------------------------------------------


def test_baselines_records(pipe_run, tmp_path):
    records = pipe_run[2]
    cfg, out = copy_run(pipe_run, tmp_path)
    brecs = hz.run_baselines(cfg)
    by = {(r.stage, r.seed): r for r in brecs}
    stage1 = {r.seed: r for r in records if r.stage == "stage1"}
    final = {r.seed: r for r in records if r.stage == "final"}
    for seed in (1, 2):
        assert by[("vanilla", seed)].dev_acc == stage1[seed].dev_acc
        assert by[("length", seed)].kept_tokens == final[seed].kept_tokens
        assert by[("negative", seed)].kept_tokens == 6 - int(np.floor(0.3 * 6))
        assert by[("negative_random", seed)].kept_tokens == by[("negative", seed)].kept_tokens
    assert os.path.exists(os.path.join(out, "baselines.tsv"))
    med_lines = read(os.path.join(out, "baseline_medians.tsv")).strip().split("\n")[1:]
    medians = dict(line.split("\t") for line in med_lines)
    want = float(np.median([by[("vanilla", s)].dev_acc for s in (1, 2)]))
    assert float(medians["vanilla"]) == want


def test_baselines_require_prune_checkpoint(tmp_path):
    out = str(tmp_path / "nopr")
    cfg = micro_cfg(out, **{"run.seeds": (1,)})
    hz.run_pipeline(cfg, "stage1")
    with pytest.raises(DataError, match="prune checkpoint missing"):
        hz.run_baselines(cfg, which=("random",))
    # vanilla and negative masking only need stage-1
    recs = hz.run_baselines(cfg, which=("vanilla", "negative"))
    assert {r.stage for r in recs} == {"vanilla", "negative", "negative_random"}


def test_negative_masking_rules_share_one_sweep_per_seed(pipe_run, tmp_path, monkeypatch):
    """Both masking rules of a seed read one importance sweep of its stage-1
    prompt: the random rule never reads the scores."""
    cfg, _ = copy_run(pipe_run, tmp_path)
    score = pr.score_tokens
    swept = []

    def counting(bank, *args, **kwargs):
        swept.append(bank.p.tobytes())
        return score(bank, *args, **kwargs)

    for module in (pr, hz):  # wherever the sweep is looked up from
        monkeypatch.setattr(module, "score_tokens", counting, raising=False)
    hz.run_baselines(cfg, which=("negative",), jobs=1)
    seeds = len(cfg["run.seeds"])
    assert len(swept) == seeds, f"{len(swept)} sweeps for {seeds} seeds"
    assert len(set(swept)) == seeds


def test_random_arm_draws_with_each_run_seed(pipe_run, tmp_path, monkeypatch):
    """The random arm prunes each seed at that seed's best cell with the
    random rule, drawing its masks from that seed."""
    cfg, _ = copy_run(pipe_run, tmp_path)
    drawn = {}
    prune = hz.hierarchical_prune

    def recording(bank, bb, train, dev, sched, *args, seed, **kwargs):
        result = prune(bank, bb, train, dev, sched, *args, seed=seed, **kwargs)
        drawn[seed] = sched.rule, result.best
        return result

    monkeypatch.setattr(hz, "hierarchical_prune", recording)
    hz.run_baselines(cfg, which=("random",), jobs=1)
    assert sorted(drawn) == [1, 2]
    for seed, (rule, best) in drawn.items():
        assert rule == "random"
        tokens = pr.select_tokens(best.token_report, best.token_ratio, "random", seed=seed)
        assert np.array_equal(best.selection[0], tokens[0])
    (_, a), (_, b) = drawn.values()
    assert not all(np.array_equal(x, y) for x, y in zip(a.selection, b.selection))


def test_baselines_load_each_checkpoint_once(pipe_run, tmp_path, monkeypatch):
    """All arms of a seed share one stage-1 load and one best-cell load, and
    the length arm reruns to the same record."""
    cfg, copy = copy_run(pipe_run, tmp_path)
    loaded = []
    load = checkpoint.load_prompt

    def counting(frag):
        loaded.append(os.path.relpath(frag.path, copy))
        return load(frag)

    monkeypatch.setattr(checkpoint, "load_prompt", counting)
    brecs = hz.run_baselines(cfg, jobs=1)
    assert sorted(loaded) == [os.path.join(f"seed{seed}", stage)
                              for seed in (1, 2) for stage in ("prune", "stage1")]
    again = hz.run_baselines(cfg, which=("length",), jobs=1)
    assert again == [r for r in brecs if r.stage == "length"]
    assert all(0.0 <= r.dev_acc <= 1.0 for r in again)


def test_baselines_reject_unknown_arm(pipe_run):
    cfg, _, _ = pipe_run
    with pytest.raises(ConfigError):
        hz.run_baselines(cfg, which=("bogus",))


# --- transfer ----------------------------------------------------------------------


def test_transfer_self_resumes_at_source_accuracy(pipe_run, tmp_path):
    records = pipe_run[2]
    cfg, out = copy_run(pipe_run, tmp_path)
    source = os.path.join(out, "seed1", "prune")
    trecs = hz.run_transfer(cfg.with_overrides(run__seeds=(1,)), source)
    by = {r.stage: r for r in trecs}
    final = next(r for r in records if r.stage == "final" and r.seed == 1)
    assert by["transfer_o"].dev_acc >= final.dev_acc  # epoch-0 eval is the floor
    assert os.path.exists(os.path.join(out, "transfer.tsv"))


def test_transfer_tunes_each_seed_once(pipe_run, tmp_path, monkeypatch):
    """transfer_o records the tune that transfer then prunes."""
    cfg, copy = copy_run(pipe_run, tmp_path)
    seeds = []
    tune = hz.tune

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return tune(*args, **kwargs)

    monkeypatch.setattr(hz, "tune", counting)
    trecs = hz.run_transfer(cfg, os.path.join(copy, "seed1", "prune"), jobs=1)
    assert seeds == [1, 2]
    assert [(r.stage, r.seed) for r in trecs] == [
        ("transfer_o", 1), ("transfer", 1), ("transfer_o", 2), ("transfer", 2)]


@pytest.mark.parametrize("overrides, pruned", [
    (dict(run__seeds=(1,), tune__epochs=0), (3, 28)),
    # a grid that removes nothing keeps what transfer_o keeps
    (dict(prune__token_ratios=(0.0,), prune__piece_ratios=(0.0,)), None),
    # the micro grid removes floor(0.34 * 4) = 1 of the source's 4 live tokens
    ({}, (3, 28)),
], ids=["frozen", "zero_grid", "micro_grid"])
def test_transfer_carries_masks_verbatim(pipe_run, tmp_path, overrides, pruned):
    """transfer_o keeps the source's masks, and transfer prunes only what
    they keep live: no token or piece the source pruned comes back."""
    cfg, out = copy_run(pipe_run, tmp_path)
    source = os.path.join(out, "seed1", "prune")
    src_bank = load_prompt(read_manifest(source, PROMPT_FORMAT))
    kept = int((src_bank.token_mask > 0).sum()), int(src_bank.effective_mask().sum())
    assert kept == (4, 48)
    if overrides:
        # another config runs in a directory of its own
        cfg = cfg.with_overrides(run__out=str(tmp_path / "other"), **overrides)
    trecs = hz.run_transfer(cfg, source, jobs=1)
    assert [r.stage for r in trecs] == ["transfer_o", "transfer"] * len(cfg["run.seeds"])
    for tuned, pruned_rec in zip(trecs[::2], trecs[1::2]):
        assert (tuned.kept_tokens, tuned.kept_params) == kept
        assert (pruned_rec.kept_tokens, pruned_rec.kept_params) == (pruned or kept)


def test_transfer_shape_mismatch(pipe_run):
    cfg, out, _ = pipe_run
    wrong = cfg.with_overrides(prompt__m=5)
    with pytest.raises(ConfigError, match="does not match"):
        hz.run_transfer(wrong, os.path.join(out, "seed1", "prune"))


# --- report regeneration --------------------------------------------------------------


def test_collect_report_rebuilds_metrics(pipe_run, tmp_path):
    cfg, out = copy_run(pipe_run, tmp_path)
    metrics = os.path.join(out, "metrics.tsv")
    original = read(metrics)
    os.remove(metrics)
    hz.collect_report(cfg)
    assert read(metrics) == original


# --- CLI --------------------------------------------------------------------------


def write_cfg_file(tmp_path, out: str, **extra) -> str:
    """The micro config with extra's keys set; keys the schema lacks are
    written as they are, for the command to refuse."""
    known = {key for key, _, _ in hz.SCHEMA}
    text = micro_cfg(out, **{k: v for k, v in extra.items() if k in known}).to_text()
    text += "".join(f"{k} = {v}\n" for k, v in extra.items() if k not in known)
    path = str(tmp_path / "run.cfg")
    hz.write_text_atomic(path, text)
    return path


def test_cli_pipeline_and_subcommand_chain_match(tmp_path):
    out_a = str(tmp_path / "a")
    cfg_a = write_cfg_file(tmp_path, out_a)
    assert cli.main(["pipeline", "--config", cfg_a]) == 0
    assert os.path.exists(os.path.join(out_a, "metrics.tsv"))

    out_b = str(tmp_path / "b")
    cfg_b = str(tmp_path / "b.cfg")
    hz.write_text_atomic(cfg_b, micro_cfg(out_b).to_text())
    assert cli.main(["pretrain", "--config", cfg_b]) == 0
    assert cli.main(["tune", "--config", cfg_b, "--resume"]) == 0
    assert cli.main(["prune", "--config", cfg_b]) == 0
    assert cli.main(["report", "--config", cfg_b]) == 0
    assert read(os.path.join(out_b, "metrics.tsv")) == read(os.path.join(out_a, "metrics.tsv"))


def test_cli_seed_and_out_overrides(tmp_path):
    out = str(tmp_path / "o")
    cfg = write_cfg_file(tmp_path, str(tmp_path / "ignored"))
    assert cli.main(["pipeline", "--config", cfg, "--seed", "1", "--out", out]) == 0
    lines = read(os.path.join(out, "metrics.tsv")).strip().split("\n")[1:]
    assert all(line.split("\t")[1] == "1" for line in lines)


def test_cli_empty_out_exits_2_before_any_write(tmp_path, capsys):
    """--out "" overrides run.out like any other value, and an empty run.out is
    refused; the config's run.out is not used in its place."""
    cfg = write_cfg_file(tmp_path, str(tmp_path / "from-config"))
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", cfg, "--out", ""]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: run.out must name a directory")
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_empty_config_path_exits_2_before_any_write(tmp_path, monkeypatch, capsys):
    """--config "" names a file like any other path, and no file has that name;
    the template defaults are not used in its place."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["report", "--config", ""]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert os.listdir(tmp_path) == []


def test_cli_exit_code_2_on_config_errors(pipe_run, tmp_path, capsys):
    assert cli.main(["pipeline", "--config", "/nonexistent.cfg"]) == 2
    # a NUL byte in a path or name is refused before anything is written
    out = str(tmp_path / "nul")
    for key in ("run.out", "task.train_path", "task.dev_path", "task.name"):
        cfg = write_cfg_file(tmp_path, out, **{key: str(tmp_path / "a") + "\0b"})
        capsys.readouterr()
        assert cli.main(["pretrain", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key} must not hold a NUL")
        assert not os.path.exists(out) and not os.path.exists(tmp_path / "a")
    bad = str(tmp_path / "bad.cfg")
    hz.write_text_atomic(bad, "nonsense.key = 1\n")
    assert cli.main(["pipeline", "--config", bad]) == 2
    # an empty arm list is refused before anything is written
    _, copy = copy_run(pipe_run, tmp_path)
    earlier = [os.path.join(copy, name) for name in ("baselines.tsv", "transfer.tsv")]
    for path in earlier:
        hz.write_text_atomic(path, "earlier records\n")
    cfg = write_cfg_file(tmp_path, copy)
    assert cli.main(["baselines", "--config", cfg, "--which", ","]) == 2
    # and so are fewer than one worker
    for command in ("pretrain", "baselines"):
        assert cli.main([command, "--config", cfg, "--jobs", "0"]) == 2
    assert cli.main(["transfer", "--config", cfg, "--jobs", "0",
                     "--source", os.path.join(copy, "seed1", "prune")]) == 2
    assert all(read(path) == "earlier records\n" for path in earlier)


@pytest.mark.parametrize("bad", [{"tune.batch_size": 0}, {"optim.lr": -1.0},
                                 {"optim.kind": "adagrad"}, {"optim.lr": float("nan")},
                                 {"optim.weight_decay": float("inf")}, {"optim.lr": 0.0},
                                 {"optim.weight_decay": -1e-5},
                                 {"pretrain.lr": float("nan")}, {"pretrain.lr": 0.0},
                                 {"prompt.init": "sampled_vocab"},
                                 {"prompt.uniform_bound": 0.5},
                                 {"prune.rule": "lowest_score"},
                                 {"pretrain.steps": -1}, {"pretrain.extra_sequences": -1},
                                 {"prompt.k": 5}, {"prompt.m": 17}, {"run.seeds": (1, 1)},
                                 {"prune.token_ratios": (0.34, 0.34)},
                                 {"prune.piece_ratios": (0.25, 0.0, 0.25)},
                                 {"task.kind": "majority_class"}],
                         ids=["batch-size-0", "negative-lr", "unknown-optimizer", "nan-lr",
                              "inf-weight-decay", "zero-lr", "negative-weight-decay",
                              "nan-pretrain-lr", "zero-pretrain-lr",
                              "removed-prompt-init", "removed-uniform-bound",
                              "removed-prune-rule", "negative-pretrain-steps",
                              "negative-extra-sequences", "k-not-dividing-e",
                              "m-over-sampled-vocab", "duplicate-seed",
                              "duplicate-token-ratio", "duplicate-piece-ratio",
                              "removed-task-kind"])
def test_cli_tuning_config_errors_exit_before_any_work(tmp_path, capsys, bad):
    """Caught before pretraining, so nothing is written under the bad run hash
    and the corrected config can run in the same directory. A key the schema
    lacks, such as a removed option, is named as unknown. transfer names the
    config's error before it reads its source, here a missing one."""
    out = str(tmp_path / "bad")
    cfg = write_cfg_file(tmp_path, out, **bad)
    known = {key for key, _, _ in hz.SCHEMA}
    for command in (["tune"], ["pipeline"], ["transfer", "--source", str(tmp_path / "none")]):
        capsys.readouterr()
        assert cli.main([*command, "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert all(f"unknown key {key!r}" in err[0] for key in bad if key not in known)
        assert not os.path.exists(out)


@pytest.mark.parametrize("bad", [{"task.seq_len_min": 1, "task.seq_len_max": 1,
                                  "backbone.vocab_size": 8, "task.train_size": 200}],
                         ids=["majority-one-token"])
def test_cli_dev_split_that_cannot_avoid_train_exits_before_any_work(tmp_path, bad):
    """Only generation can find these: every dev draw of some label is a
    train sequence. A subprocess with a timeout turns a redraw that never
    ends into a failure."""
    out = str(tmp_path / "bad")
    cfg = write_cfg_file(tmp_path, out, **bad)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("pipeline", "baselines"):
        proc = subprocess.run([sys.executable, "-m", "xprompt.cli", command, "--config", cfg],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert re.fullmatch(r"config error: the dev split found no label-\d sequence "
                            r"outside the train split .*\n", proc.stderr)
        assert not os.path.exists(os.path.join(out, "config.txt"))
        assert not os.path.exists(os.path.join(out, "backbone"))


@pytest.mark.parametrize("bad, args", [({}, ["--seed", "-1"]),
                                       ({"backbone.seed": -2}, []),
                                       ({"task.shots": 4, "task.shots_seed": -1}, [])],
                         ids=["run-seeds", "backbone-seed", "shots-seed"])
def test_cli_negative_seeds_exit_before_any_work(tmp_path, bad, args):
    out = str(tmp_path / "bad")
    cfg = write_cfg_file(tmp_path, out, **bad)
    assert cli.main(["tune", "--config", cfg, *args]) == 2
    assert not os.path.exists(os.path.join(out, "config.txt"))


def test_cli_prompt_that_cannot_fit_exits_before_any_work(tmp_path, capsys):
    # generated tasks: 16 prompt rows + up to 9 tokens > max_seq_len 24
    out = str(tmp_path / "generated")
    cfg = write_cfg_file(tmp_path, out, **{"prompt.m": 16, "backbone.max_seq_len": 24})
    for command in ("tune", "pipeline"):
        assert cli.main([command, "--config", cfg]) == 2
        assert not os.path.exists(os.path.join(out, "config.txt"))
        assert not os.path.exists(os.path.join(out, "backbone"))
    # file data: 6 prompt rows + the 27 tokens of the second train example
    paths = {}
    for split, lengths in (("train", (5, 27, 8)), ("dev", (5, 6))):
        paths[f"task.{split}_path"] = str(tmp_path / f"{split}.jsonl")
        hz.write_text_atomic(paths[f"task.{split}_path"], "".join(
            f'{{"tokens": {[2] * n}, "label": {i % 2}}}\n' for i, n in enumerate(lengths)))
    out = str(tmp_path / "files")
    cfg = write_cfg_file(tmp_path, out, **paths)
    capsys.readouterr()
    assert cli.main(["pipeline", "--config", cfg]) == 3
    assert "train example 2: sequence length 6+27=33 exceeds max_seq_len 32" in (
        capsys.readouterr().err)
    assert not os.path.exists(os.path.join(out, "backbone"))


@pytest.mark.parametrize("bad", [{"task.seq_len_min": 5, "task.seq_len_max": 3},
                                 {"task.seq_len_max": 60}],
                         ids=["min-over-max", "max-over-max-seq-len"])
def test_cli_file_data_length_range_exits_before_any_work(tmp_path, capsys, bad):
    """Pretraining draws its extra sequences from the task's length range,
    file data or not, so the range must fit the encoder either way."""
    paths = {}
    for split in ("train", "dev"):
        paths[f"task.{split}_path"] = str(tmp_path / f"{split}.jsonl")
        hz.write_text_atomic(paths[f"task.{split}_path"], "".join(
            f'{{"tokens": [2, 3, 15], "label": {i % 2}}}\n' for i in range(4)))
    out = str(tmp_path / "run")
    cfg = write_cfg_file(tmp_path, out, **paths, **bad)
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not os.path.exists(os.path.join(out, "config.txt"))
    assert not os.path.exists(os.path.join(out, "backbone"))


@pytest.mark.parametrize("empty", ["train", "dev"])
def test_cli_empty_split_exits_before_any_work(tmp_path, capsys, empty):
    paths = {}
    for split in ("train", "dev"):
        paths[f"task.{split}_path"] = str(tmp_path / f"{split}.jsonl")
        hz.write_text_atomic(paths[f"task.{split}_path"], "" if split == empty else "".join(
            f'{{"tokens": [2, 3, 4], "label": {i % 2}}}\n' for i in range(4)))
    out = str(tmp_path / "run")
    cfg = write_cfg_file(tmp_path, out, **paths)
    capsys.readouterr()
    assert cli.main(["pipeline", "--config", cfg]) == 3
    assert f"the {empty} split is empty" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "backbone"))


def _unreadable_config(tmp_path, kind: str) -> list[str]:
    """CLI arguments whose config cannot be read or names no usable run.out."""
    if kind == "not-utf8":
        path = tmp_path / "run.cfg"
        path.write_bytes(b"prompt.m = 6\n# caf\xe9\n")
        return ["--config", str(path)]
    if kind == "directory":
        (tmp_path / "cfg.d").mkdir()
        return ["--config", str(tmp_path / "cfg.d")]
    if kind in ("taken-out", "out-under-a-file"):
        (tmp_path / "taken").write_text("a file, not a run directory\n")
        out = tmp_path / "taken"
        if kind == "out-under-a-file":
            out = out / "sub"
        return ["--config", write_cfg_file(tmp_path, str(out))]
    return ["--config", write_cfg_file(tmp_path, "")]


@pytest.mark.parametrize("kind", ["not-utf8", "directory", "empty-out", "taken-out",
                                  "out-under-a-file"])
def test_cli_unreadable_config_exits_2_before_any_write(tmp_path, monkeypatch, capsys, kind):
    args = _unreadable_config(tmp_path, kind)
    monkeypatch.chdir(tmp_path)
    before = tree_bytes(str(tmp_path))
    capsys.readouterr()
    assert cli.main(["tune", *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert tree_bytes(str(tmp_path)) == before


def test_cli_data_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    paths = {}
    for split in ("train", "dev"):
        paths[f"task.{split}_path"] = str(tmp_path / f"{split}.jsonl")
        hz.write_text_atomic(paths[f"task.{split}_path"], "".join(
            f'{{"tokens": [2, 3, 4], "label": {i % 2}}}\n' for i in range(4)))
    with open(paths["task.dev_path"], "ab") as fh:
        fh.write(b'{"tokens": [2], "label": 0, "note": "\xff"}\n')
    out = str(tmp_path / "run")
    cfg = write_cfg_file(tmp_path, out, **paths)
    capsys.readouterr()
    assert cli.main(["pipeline", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and "not UTF-8" in err[0]
    assert not os.path.exists(os.path.join(out, "backbone"))


def test_cli_data_file_that_is_a_directory_exits_3(tmp_path, capsys):
    data = str(tmp_path / "data.d")
    os.mkdir(data)
    out = str(tmp_path / "run")
    cfg = write_cfg_file(tmp_path, out, **{"task.train_path": data, "task.dev_path": data})
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and data in err[0]
    assert not os.path.exists(os.path.join(out, "config.txt"))
    assert not os.path.exists(os.path.join(out, "backbone"))


def test_cli_exit_code_3_on_missing_prerequisites(pipe_run, tmp_path, capsys):
    out = str(tmp_path / "empty")
    cfg = write_cfg_file(tmp_path, out)
    assert cli.main(["prune", "--config", cfg]) == 3
    # a stage-1 fragment without its records is missing a file its manifest lists
    _, copy = copy_run(pipe_run, tmp_path)
    os.remove(os.path.join(copy, "seed1", "stage1", "records.tsv"))
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main(["prune", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert os.path.join("seed1", "stage1", "records.tsv") in err[0]
    assert not os.path.exists(os.path.join(copy, "seed1", "stage1", "records.tsv"))


# checkpoint files of seed 1, relative to the run directory
STAGE1_MANIFEST = os.path.join("seed1", "stage1", "manifest.txt")
FINAL_MANIFEST = os.path.join("seed1", "prune", "manifest.txt")
BACKBONE_MANIFEST = os.path.join("backbone", "manifest.txt")
STAGE1_RECORDS = os.path.join("seed1", "stage1", "records.tsv")
FINAL_RECORDS = os.path.join("seed1", "prune", "records.tsv")


@pytest.mark.parametrize("path, pattern, replacement, command", [
    (STAGE1_MANIFEST, r"^m .*\n", "", "prune"),
    (STAGE1_MANIFEST, r"^e .*", "e wide", "prune"),
    (STAGE1_MANIFEST, r"^k .*", "k 5", "prune"),
    (STAGE1_MANIFEST, r"^file p_e\.bin .*\n", "", "prune"),
    (STAGE1_MANIFEST, r"^token_mask 1", "token_mask 7", "prune"),
    (STAGE1_MANIFEST, r"^token_mask 1 ", "token_mask ", "prune"),
    (STAGE1_MANIFEST, r"^piece_mask 2 1", "piece_mask 2 0.5", "prune"),
    (STAGE1_MANIFEST, r"^piece_mask 0 1 ", "piece_mask 0 ", "prune"),
    (BACKBONE_MANIFEST, r"^layers .*\n", "", "pretrain --resume"),
    (BACKBONE_MANIFEST, r"^heads .*", "heads two", "pretrain --resume"),
    (BACKBONE_MANIFEST, r"^heads 2$", "heads 4", "pretrain --resume"),
    (BACKBONE_MANIFEST, r"^file l0\.wq\.bin .*\n", "", "pretrain --resume"),
    (BACKBONE_MANIFEST, r"^layers 1$", "layers 1000000000", "pretrain --resume"),
    (FINAL_RECORDS, r"^(final\t1\t)[^\t]*", r"\1abc", "report"),
    (STAGE1_RECORDS, r"^(stage1\t.*)\t[^\t]*$", r"\1", "tune --resume"),
    (FINAL_RECORDS, r"^(final\t.*\t)[^\t]*$", r"\1inf", "report"),
    (STAGE1_RECORDS, r"^(stage1\t1\t)[^\t]*", r"\1nan", "tune --resume"),
    (STAGE1_RECORDS, r"^(stage1\t1\t)[^\t]*", r"\g<1>2.5", "tune --resume"),
    (FINAL_MANIFEST, r"^best_cell \S+", "best_cell x", "baselines --which random"),
    (FINAL_MANIFEST, r"^best_cell \S+ ", "best_cell ", "baselines --which random"),
    (FINAL_MANIFEST, r"^best_cell \S+", "best_cell 1.0", "baselines --which random"),
    (FINAL_MANIFEST, r"^token_mask .*", "token_mask 0 0 0 0 0 0", "baselines --which length"),
    (STAGE1_RECORDS, r"\n[\s\S]*", "\n", "tune --resume"),
    (STAGE1_RECORDS, r"\n[\s\S]*", "\n", "baselines --which vanilla"),
    (FINAL_RECORDS, r"\n[\s\S]*", "\n", "report"),
    (FINAL_RECORDS, r"^(final\t)1\t", r"\g<1>2\t", "report"),
    (STAGE1_RECORDS, r"^(stage1\t)1\t", r"\g<1>7\t", "baselines --which vanilla"),
], ids=["no-m", "bad-e", "bad-k", "no-p_e-blob", "token-mask-7",
        "short-token-mask", "piece-mask-0.5", "short-piece-mask", "backbone-no-layers",
        "backbone-bad-heads", "backbone-other-heads", "backbone-no-blob",
        "backbone-huge-layers", "records-dev-acc-abc",
        "records-short-row", "records-percent-inf", "records-dev-acc-nan",
        "records-dev-acc-above-1", "best-cell-bad-ratio", "best-cell-one-ratio",
        "best-cell-ratio-1", "final-keeps-no-tokens", "records-header-only-tune",
        "records-header-only-vanilla", "records-header-only-report",
        "records-final-of-seed-2", "records-stage1-of-seed-7-vanilla"])
def test_cli_exit_code_3_on_malformed_artifacts(pipe_run, tmp_path, capsys, path, pattern,
                                                replacement, command):
    """Each edit is resealed, so it passes the digest checks and is refused
    by the parser of the file it damages, which the error names when it is
    the backbone's: a backbone of another config is refused before any of
    its weights is read or allocated."""
    _, copy = copy_run(pipe_run, tmp_path)
    target = os.path.join(copy, path)
    text, count = re.subn(pattern, replacement, read(target), count=1, flags=re.M)
    assert count == 1
    hz.write_text_atomic(target, text)
    reseal(os.path.join(os.path.dirname(target), "manifest.txt"))
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.split(), "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: ")
    if path == BACKBONE_MANIFEST:
        assert os.path.join(copy, "backbone") in lines[0]


@pytest.mark.parametrize("edit", [
    None, ("frozen 1", "frozen 0"), ("weight l0.wq 16 16\n", ""),
    ("weight tok_emb 16 16", "weight tok_emb 8 32"),
], ids=["as-saved", "frozen-0", "no-l0.wq-line", "tok_emb-8x32"])
def test_cli_backbone_manifest_in_the_old_layout_still_loads(pipe_run, tmp_path, capsys, edit):
    """A backbone manifest in the layout that also listed the frozen flag and a
    weight line per weight loads with those lines ignored, whatever they say:
    the run's backbone config gives the layout, and a loaded backbone is frozen."""
    cfg, copy = copy_run(pipe_run, tmp_path)
    shapes = sorted(_weight_shapes(cfg.backbone_config()).items())
    old = "frozen 1\n" + "".join(f"weight {name} {r} {c}\n" for name, (r, c) in shapes)
    if edit:
        assert edit[0] in old
        old = old.replace(*edit)
    target = os.path.join(copy, BACKBONE_MANIFEST)
    text = re.sub(r"^(frozen|weight) .*\n", "", read(target), flags=re.M)
    text, count = re.subn(r"^seed \d+\n", lambda m: m.group(0) + old, text, count=1, flags=re.M)
    assert count == 1
    hz.write_text_atomic(target, text)
    reseal(target)
    capsys.readouterr()
    assert cli.main(["tune", "--seed", "1", "--config", write_cfg_file(tmp_path, copy)]) == 0
    assert capsys.readouterr().err == ""
    assert read(os.path.join(copy, STAGE1_RECORDS)) == \
        read(os.path.join(pipe_run[1], STAGE1_RECORDS))


@pytest.mark.parametrize("path, command", [
    (os.path.join("seed1", "stage1", "records.tsv"), "report"),
    (STAGE1_MANIFEST, "prune"),
    (os.path.join("backbone", "manifest.txt"), "tune"),
    (FINAL_MANIFEST, "transfer --source {copy}/seed1/prune"),
], ids=["records", "stage1-manifest", "backbone-manifest", "transfer-source-manifest"])
def test_cli_fragment_that_is_not_utf8_exits_3(pipe_run, tmp_path, capsys, path, command):
    _, copy = copy_run(pipe_run, tmp_path)
    with open(os.path.join(copy, path), "ab") as fh:
        fh.write(b"\xff\n" if path.endswith(".tsv") else b"# \xff\n")
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.format(copy=copy).split(), "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and "not UTF-8" in err[0]


@pytest.mark.parametrize("path, command", [
    (os.path.join("seed1", "stage1", "records.tsv"), "report"),
    (FINAL_MANIFEST, "report"),
    (STAGE1_MANIFEST, "report"),
    (STAGE1_MANIFEST, "prune"),
    (STAGE1_MANIFEST, "transfer --source {copy}/seed1/stage1"),
    (os.path.join("seed1", "prune", "p_e.bin"), "baselines --which random"),
], ids=["records", "prune-manifest", "stage1-manifest-as-parent", "stage1-manifest",
        "transfer-source-manifest", "p_e-blob"])
def test_cli_fragment_that_cannot_be_read_exits_3(pipe_run, tmp_path, capsys, path, command):
    """A fragment file replaced by a directory is a data error, not a crash
    or a stage failure."""
    _, copy = copy_run(pipe_run, tmp_path)
    os.remove(os.path.join(copy, path))
    os.mkdir(os.path.join(copy, path))
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.format(copy=copy).split(), "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: cannot read ")


def test_cli_names_the_run_config_it_cannot_parse(pipe_run, tmp_path, capsys):
    """A fault in the run directory's own config.txt names that file, not the
    --config file."""
    _, copy = copy_run(pipe_run, tmp_path)
    run_cfg = os.path.join(copy, "config.txt")
    hz.write_text_atomic(run_cfg, read(run_cfg) + "optim.kind = adafactor\n")
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert run_cfg in err[0] and "unknown key 'optim.kind'" in err[0]


# --- run directory ownership ---------------------------------------------------------

PROVENANCE = ("run_hash", "parent", "blas_threads", "run_seed")


def test_cli_refuses_another_config(pipe_run, tmp_path, capsys):
    """Config b (a with tune.epochs = 1) neither re-tunes a seed of run a nor
    runs baseline arms on it, and leaves the directory as it was."""
    _, copy = copy_run(pipe_run, tmp_path)
    cfg_b = write_cfg_file(tmp_path, copy, **{"tune.epochs": 1})
    before = tree_bytes(copy)
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg_b, "--seed", "1"]) == 2
    assert cli.main(["baselines", "--config", cfg_b, "--which", "negative"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("holds another config" in line for line in err)
    assert tree_bytes(copy) == before


def test_cli_report_refuses_stale_prune_fragment(pipe_run, tmp_path, capsys):
    """A stage 1 rewritten with valid but different values, its own
    provenance intact, leaves the prune fragment built on the old one stale."""
    _, copy = copy_run(pipe_run, tmp_path)
    stage1 = os.path.join(copy, "seed1", "stage1")
    provenance = [line for line in read(os.path.join(stage1, "manifest.txt")).splitlines()
                  if line.split(" ")[0] in PROVENANCE]
    bank = load_prompt(read_manifest(stage1, PROMPT_FORMAT))
    bank.p = bank.p + 0.5
    save_prompt(bank, stage1, provenance,
                files={"records.tsv": read(os.path.join(stage1, "records.tsv"))})
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "stale" in err and "seed1/prune" in err and "changed" in err
    # the stage-1 fragment itself still checks, so building on it does too
    assert cli.main(["baselines", "--config", cfg, "--which", "negative"]) == 0


@pytest.mark.parametrize("fragment, command", [
    (os.path.join("seed1", "prune"), "report"),
    (os.path.join("seed2", "stage1"), "prune"),
    ("backbone", "baselines --which vanilla"),
])
def test_cli_refuses_fragment_without_provenance(pipe_run, tmp_path, capsys, fragment,
                                                 command):
    _, copy = copy_run(pipe_run, tmp_path)
    manifest = os.path.join(copy, fragment, "manifest.txt")
    lines = read(manifest).splitlines(keepends=True)
    kept = [line for line in lines if line.split(" ")[0] not in PROVENANCE]
    assert len(lines) - len(kept) == (3 if fragment == "backbone" else 4)
    hz.write_text_atomic(manifest, "".join(kept))
    reseal(manifest)
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.split(), "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: stale fragment {fragment} ")
    assert "no provenance" in err[0]


@pytest.mark.parametrize("command", ["report", "baselines --which random"])
def test_cli_refuses_another_seeds_fragments(pipe_run, tmp_path, capsys, command):
    """Seed 2's stage 1 and prune copied over seed 1's pass every digest and
    parent check; their run_seed line names them as stale."""
    _, copy = copy_run(pipe_run, tmp_path)
    for stage in ("stage1", "prune"):
        shutil.rmtree(os.path.join(copy, "seed1", stage))
        shutil.copytree(os.path.join(copy, "seed2", stage), os.path.join(copy, "seed1", stage))
    before = tree_bytes(copy)
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.split(), "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: stale fragment seed1/prune ")
    assert "run_seed is 2, not 1" in err[0]
    assert tree_bytes(copy) == before


@pytest.mark.parametrize("fragment, command", [
    (os.path.join("seed1", "prune"), "report"),
    (os.path.join("seed2", "stage1"), "tune --resume"),
])
def test_cli_refuses_fragment_without_run_seed(pipe_run, tmp_path, capsys, fragment, command):
    """A per-seed fragment built before manifests recorded run_seed is stale."""
    _, copy = copy_run(pipe_run, tmp_path)
    manifest = os.path.join(copy, fragment, "manifest.txt")
    text, count = re.subn(r"^run_seed .*\n", "", read(manifest), flags=re.M)
    assert count == 1
    hz.write_text_atomic(manifest, text)
    reseal(manifest)
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.split(), "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: stale fragment {fragment} ")
    assert "run_seed is missing" in err[0]


def test_cli_prune_one_seed_of_a_two_seed_run(pipe_run, tmp_path):
    """The run hash leaves out run.seeds, so prune --seed 1 builds on the
    two-seed run's stage 1 and writes the full run's seed-1 fragment."""
    _, out, _ = pipe_run
    _, copy = copy_run(pipe_run, tmp_path)
    for seed in (1, 2):
        shutil.rmtree(os.path.join(copy, f"seed{seed}", "prune"))
    cfg = write_cfg_file(tmp_path, copy)
    assert cli.main(["prune", "--config", cfg, "--seed", "1"]) == 0
    fragment = os.path.join("seed1", "prune")
    assert tree_bytes(os.path.join(copy, fragment)) == tree_bytes(os.path.join(out, fragment))
    assert not os.path.exists(os.path.join(copy, "seed2", "prune"))
    assert read(os.path.join(copy, "config.txt")) == read(os.path.join(out, "config.txt"))


def test_cli_tune_reuses_a_finished_backbone(pipe_run, tmp_path, monkeypatch):
    """tune builds the backbone only when none is finished: a re-tune, also one
    under another value of the BLAS thread variables, which manifests record
    and the run hash leaves out, leaves the backbone, and the other seeds built
    on it, as they were. The value is set after OpenBLAS has loaded, so the
    re-tune itself still runs on the threads it had."""
    _, copy = copy_run(pipe_run, tmp_path)
    cfg = write_cfg_file(tmp_path, copy)
    manifest = os.path.join(copy, "backbone", "manifest.txt")
    before = read(manifest), os.stat(manifest).st_mtime_ns
    assert cli.main(["tune", "--config", cfg, "--seed", "1"]) == 0
    assert (read(manifest), os.stat(manifest).st_mtime_ns) == before
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert cli.main(["tune", "--config", cfg, "--seed", "1"]) == 0
    assert (read(manifest), os.stat(manifest).st_mtime_ns) == before
    assert cli.main(["report", "--config", cfg, "--seed", "2"]) == 0


def test_provenance_lines_name_parent_manifests(pipe_run):
    cfg, out, _ = pipe_run

    def fields(*parts):
        return dict(line.split(" ", 1) for line in
                    read(os.path.join(out, *parts, "manifest.txt")).splitlines())

    def digest(*parts):
        with open(os.path.join(out, *parts, "manifest.txt"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    backbone = fields("backbone")
    stage1, prune = fields("seed2", "stage1"), fields("seed2", "prune")
    assert {backbone["run_hash"], stage1["run_hash"], prune["run_hash"]} == {cfg.config_hash()}
    assert backbone["parent"] == "none"
    assert stage1["parent"] == digest("backbone")
    assert prune["parent"] == digest("seed2", "stage1")
    assert prune["blas_threads"].startswith("OPENBLAS_NUM_THREADS=")
    assert (stage1["run_seed"], prune["run_seed"]) == ("2", "2") and "run_seed" not in backbone


def test_prompt_checkpoints_hold_one_blob(pipe_run):
    """Stage 1 and prune each store the prompt once: one .bin file line, one .bin."""
    _, out, _ = pipe_run
    for stage in ("stage1", "prune"):
        path = os.path.join(out, "seed1", stage)
        blobs = [line for line in read(os.path.join(path, "manifest.txt")).splitlines()
                 if line.startswith("file ") and line.split(" ")[1].endswith(".bin")]
        assert len(blobs) == 1 and blobs[0].startswith("file p_e.bin ")
        assert [name for name in os.listdir(path) if name.endswith(".bin")] == ["p_e.bin"]


def test_manifest_without_a_digest_line_is_refused(pipe_run, tmp_path, capsys):
    """Fragments built before manifests ended in a digest line are refused,
    by a resumed stage and as a transfer source, with one line naming the
    manifest."""
    _, copy = copy_run(pipe_run, tmp_path)
    manifest = os.path.join(copy, FINAL_MANIFEST)
    text, count = re.subn(r"^digest .*\n", "", read(manifest), flags=re.M)
    assert count == 1
    hz.write_text_atomic(manifest, text)
    cfg = write_cfg_file(tmp_path, copy)
    for command in (["prune", "--resume"], ["transfer", "--source", os.path.dirname(manifest)]):
        capsys.readouterr()
        assert cli.main([*command, "--config", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and manifest in err[0]
        assert "older xprompt" in err[0] and "without --resume" in err[0]


def test_every_fragment_file_is_listed_in_its_manifest(pipe_run):
    _, out, _ = pipe_run
    texts = {"stage1": {"records.tsv"}, "prune": {"records.tsv", "saliency.txt"}}
    for parts in [("backbone",), *((f"seed{seed}", stage) for seed in (1, 2)
                                   for stage in ("stage1", "prune"))]:
        path = os.path.join(out, *parts)
        listed = {line.split(" ")[1]
                  for line in read(os.path.join(path, "manifest.txt")).splitlines()
                  if line.startswith("file ")}
        assert set(os.listdir(path)) == listed | {"manifest.txt"}
        assert texts.get(parts[-1], set()) <= listed


ALL_FRAGMENTS = ["backbone", *(os.path.join(f"seed{seed}", stage) for seed in (1, 2)
                              for stage in ("stage1", "prune"))]
SEED1_FRAGMENTS = ["backbone", os.path.join("seed1", "stage1"), os.path.join("seed1", "prune")]


@pytest.mark.parametrize("command, fragments", [
    ("report", ALL_FRAGMENTS),
    ("baselines --which random --seed 1 --jobs 1", SEED1_FRAGMENTS),
    ("baselines --which random,length --seed 1 --jobs 1", SEED1_FRAGMENTS),
    ("prune --resume --jobs 1", ALL_FRAGMENTS),
], ids=["report", "baselines-random-seed1", "baselines-random-length-seed1", "prune-resume"])
def test_opening_the_run_checks_each_fragment_once(pipe_run, tmp_path, monkeypatch, command,
                                                   fragments):
    """A whole command, run in one process, reads every file of every
    fragment it uses exactly once: opening the run checks each fragment, and
    the loaders parse what was checked."""
    _, copy = copy_run(pipe_run, tmp_path)
    files = sorted(os.path.join(fragment, name) for fragment in fragments
                   for name in os.listdir(os.path.join(copy, fragment)))
    read_files, read_fragment = [], util.read_fragment

    def counted(path, what):
        read_files.append(os.path.relpath(path, copy))
        return read_fragment(path, what)

    monkeypatch.setattr(util, "read_fragment", counted)
    monkeypatch.setattr(checkpoint, "read_fragment", counted)
    assert cli.main([*command.split(), "--config", write_cfg_file(tmp_path, copy)]) == 0
    assert sorted(read_files) == files


def test_a_fresh_pipeline_reads_back_no_fragment_it_built(tmp_path, monkeypatch):
    """Each parent digest comes from the fragment its process saved or
    inherited at fork, so a fresh pipeline reads no fragment file, in the
    calling process or in a worker; reads are logged to a file so that the
    workers' reads count too."""
    log, read_fragment = tmp_path / "reads.log", util.read_fragment

    def logged(path, what):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(path + "\n")
        return read_fragment(path, what)

    def reads() -> list[str]:
        return log.read_text(encoding="utf-8").splitlines() if log.exists() else []

    monkeypatch.setattr(util, "read_fragment", logged)
    monkeypatch.setattr(checkpoint, "read_fragment", logged)
    for jobs in (1, 2):
        cfg = micro_cfg(str(tmp_path / f"jobs{jobs}"), **{"run.seeds": (1, 2, 3)})
        hz.run_pipeline(cfg, jobs=jobs)
        assert reads() == [], f"--jobs {jobs}"
    hz.collect_report(cfg)  # the log sees the reads of a command that reuses fragments
    assert len(reads()) == len(set(reads())) > 0


def test_only_rundir_calls_the_fragment_savers_and_reader():
    """harness writes and reads fragments only through RunDir; the one other
    call is run_transfer's read of its source directory."""
    guarded = {"save_backbone", "save_prompt", "read_manifest"}
    calls = set()
    for top in ast.parse(read(hz.__file__)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in guarded:
                    calls.add((getattr(top, "name", None), name))
    assert ("RunDir", "read_manifest") in calls
    assert {call for call in calls if call[0] != "RunDir"} == {("run_transfer", "read_manifest")}


@pytest.mark.parametrize("command", [
    "baselines --resume", "transfer --source src --resume", "report --resume",
    "report --jobs 1", "transfer --source src --variants transfer_o"],
    ids=["baselines-resume", "transfer-resume", "report-resume", "report-jobs",
         "transfer-variants"])
def test_cli_refuses_options_no_code_reads(tmp_path, capsys, command):
    """baselines, transfer and report take no --resume, report no --jobs,
    transfer no --variants; the building subcommands keep both."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    for name in ("pretrain", "tune", "prune", "pipeline"):
        args = cli.build_parser().parse_args([name, "--resume", "--jobs", "2"])
        assert (args.resume, args.jobs) == (True, 2)
    assert not os.path.exists(tmp_path / "run")


def test_prune_without_a_manifest_is_unfinished_and_resume_rebuilds_it(pipe_run, tmp_path):
    _, out, _ = pipe_run
    cfg, copy = copy_run(pipe_run, tmp_path)
    os.remove(os.path.join(copy, FINAL_MANIFEST))
    assert not hz.RunDir(cfg).finished("prune", 1)
    hz.run_pipeline(cfg, "prune", resume=True)
    fragment = os.path.dirname(FINAL_MANIFEST)
    assert tree_bytes(os.path.join(copy, fragment)) == tree_bytes(os.path.join(out, fragment))


def test_prune_rebuild_that_fails_midway_leaves_no_manifest(pipe_run, tmp_path, monkeypatch):
    """The old manifest goes before the first file is rewritten, so a rebuild
    that stops after it leaves an unfinished fragment, not a stale finished one."""
    cfg, copy = copy_run(pipe_run, tmp_path)
    written, write = [], checkpoint.write_bytes_atomic

    def fail_after_first_file(path, data):
        write(path, data)
        written.append(os.path.basename(path))
        raise RuntimeError("synthetic fault after the first file")

    monkeypatch.setattr(checkpoint, "write_bytes_atomic", fail_after_first_file)
    with pytest.raises(StageError):
        hz.run_pipeline(cfg.with_overrides(run__seeds=(1,)), "prune")
    assert written == ["p_e.bin"]
    assert not os.path.exists(os.path.join(copy, FINAL_MANIFEST))
    assert not hz.RunDir(cfg).finished("prune", 1)


TAMPERED = [
    (FINAL_RECORDS, r"^(final\t1\t)[^\t]*", r"\g<1>0.99", "report"),
    (os.path.join("seed1", "prune", "saliency.txt"), r"^(token 0 raw )\S+", r"\g<1>0.5",
     "report"),
    (FINAL_MANIFEST, r"^(token_mask [0 ]*)1", r"\g<1>0", "baselines --which length"),
    (FINAL_MANIFEST, r"^best_cell .*", "best_cell 0.5 0.5", "baselines --which random"),
    (os.path.join("seed1", "prune", "p_e.bin"), None, None, "report"),
    # text files whose line ends went from LF to CRLF
    (FINAL_RECORDS, b"\n", b"\r\n", "report"),
    (FINAL_MANIFEST, b"\n", b"\r\n", "report"),
    (FINAL_MANIFEST, b"\n", b"\r\n", "transfer --source {copy}/seed1/prune"),
    (STAGE1_MANIFEST, b"\n", b"\r\n", "report"),
]


@pytest.mark.parametrize("path, pattern, replacement, command", TAMPERED,
                         ids=["records-dev-acc", "saliency-raw-score", "manifest-token-mask",
                              "manifest-best-cell", "p_e-flipped-byte", "records-crlf",
                              "manifest-crlf", "transfer-source-manifest-crlf",
                              "stage1-manifest-crlf-as-parent"])
def test_cli_exit_code_3_on_tampered_fragment(pipe_run, tmp_path, capsys, path, pattern,
                                              replacement, command):
    """A valid-looking change to any file of a fragment, its manifest
    included, fails the digest checks before anything is parsed, and the one
    error names that file, also when it is the parent of the fragment reused."""
    _, copy = copy_run(pipe_run, tmp_path)
    target = os.path.join(copy, path)
    with open(target, "rb") as fh:
        before = fh.read()
    if pattern is None:
        after = bytes([before[0] ^ 1]) + before[1:]
    elif isinstance(pattern, bytes):
        after = before.replace(pattern, replacement)
    else:
        after = re.sub(pattern, replacement, before.decode(), count=1, flags=re.M).encode()
    assert after != before
    with open(target, "wb") as fh:
        fh.write(after)
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.format(copy=copy).split(), "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: ") and target in lines[0]


@pytest.mark.parametrize("command, target, stage", [
    ("pipeline", "tune", "stage1"),
    ("pipeline", "pretrain", "backbone"),
    ("pipeline", "hierarchical_prune", "prune"),
    ("baselines", "select_tokens", "baselines"),
    ("transfer", "tune", "transfer"),
])
def test_cli_exit_code_4_on_stage_failure(pipe_run, tmp_path, monkeypatch, capsys,
                                          command, target, stage):
    # baselines and transfer build on a copy of the finished run; a failed arm writes nothing
    out = copy_run(pipe_run, tmp_path)[1] if command != "pipeline" else str(tmp_path / "boom")
    cfg = write_cfg_file(tmp_path, out)
    extra = {"baselines": ["--which", "negative"],
             "transfer": ["--source", os.path.join(out, "seed1", "prune")]}.get(command, [])

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(hz, target, explode)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg, *extra]) == 4
    assert f"stage {stage} failed" in capsys.readouterr().err


@pytest.mark.parametrize("command, blocked", [
    ("pipeline --resume", "report.txt"),
    ("report", "metrics.tsv"),
    ("baselines --which vanilla", "baselines.tsv.tmp"),
    ("transfer --source {copy}/seed1/prune", "transfer.tsv.tmp"),
    ("report", "config.txt.tmp"),
], ids=["pipeline", "report", "baselines", "transfer", "config"])
def test_cli_run_file_that_cannot_be_written_exits_4(pipe_run, tmp_path, capsys, command,
                                                     blocked):
    """A directory where a command writes a file of the run, or its temp
    file, is a stage failure naming the file, not a crash; a temp file the
    command wrote is removed, and a directory in its place is left alone."""
    _, copy = copy_run(pipe_run, tmp_path)
    written = os.path.join(copy, blocked.removesuffix(".tmp"))
    if os.path.exists(written):  # config.txt too, so that the command writes it anew
        os.remove(written)
    os.mkdir(os.path.join(copy, blocked))
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.format(copy=copy).split(), "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.fullmatch(f"stage failure: cannot write {re.escape(written)}: .*\n", err)
    left = {os.path.relpath(os.path.join(root, name), copy)
            for root, dirs, files in os.walk(copy) for name in dirs + files
            if name.endswith(".tmp")}
    assert left == ({blocked} if blocked.endswith(".tmp") else set())


def test_cli_exit_code_4_when_a_worker_dies(tmp_path, monkeypatch, capsys):
    """A worker that dies fails the stages its task runs: stage 1 under tune,
    stage 1 and prune under pipeline."""
    parent = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == parent:
            pytest.fail("tune ran in the test process, not in a worker")
        os._exit(1)

    monkeypatch.setattr(hz, "tune", die)
    for command, stages in (("tune", "stage1"), ("pipeline", "stage1+prune")):
        cfg = write_cfg_file(tmp_path, str(tmp_path / command))
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--jobs", "2"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"stage failure: stage {stages} failed")


def test_cli_exit_code_2_when_workers_cannot_fork(tmp_path, monkeypatch):
    out = str(tmp_path / "nofork")
    cfg = write_cfg_file(tmp_path, out)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    for command in ("pipeline", "baselines"):
        assert cli.main([command, "--config", cfg, "--jobs", "2"]) == 2
    assert not os.path.exists(out)


def test_cli_module_runs_without_warnings():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "xprompt.cli",
                           "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: xprompt" in proc.stdout


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, xprompt.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


FAULT_PROBE = """
import resource
import xprompt
import numpy as np

def step():
    arrays = [np.ones(45_000) for _ in range(2)]
    del arrays

for _ in range(20):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


def _is_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _is_glibc(), reason="the allocator policy is glibc's mallopt")
def test_import_keeps_freed_memory_unless_the_user_set_malloc():
    """Arrays the size of a gelu input, freed and allocated again, reuse the
    process's memory instead of faulting it in afresh; a malloc setting in
    the environment takes precedence over the package's."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def faults_per_step(**extra) -> float:
        proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env={**env, **extra},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return float(proc.stdout)

    assert faults_per_step() <= 4
    # glibc's own handling of the user's threshold: each pair is mmapped anew
    assert faults_per_step(MALLOC_TRIM_THRESHOLD_="131072") >= 50


def test_cli_respects_log_env(tmp_path, monkeypatch):
    monkeypatch.setenv("XPROMPT_LOG", "DEBUG")
    out = str(tmp_path / "logged")
    cfg = write_cfg_file(tmp_path, out, **{"run.seeds": (1,)})
    assert cli.main(["pretrain", "--config", cfg]) == 0
