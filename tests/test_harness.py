"""Config files, pipeline orchestration, baselines, transfer, exports, CLI.

Percentage arithmetic is checked against an independent decimal-module
oracle; pipeline determinism is checked by byte comparison of metrics files
across rerun, resume, and parallel execution.
"""

import decimal
import hashlib
import multiprocessing
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from xprompt import checkpoint, cli
from xprompt import harness as hz
from xprompt import pruning as pr
from xprompt.checkpoint import load_prompt, save_prompt
from xprompt.errors import ConfigError, DataError


# --- fixtures -----------------------------------------------------------------


def micro_overrides(out: str) -> dict[str, object]:
    return {
        "backbone.vocab_size": 16, "backbone.embed_dim": 16, "backbone.layers": 1,
        "backbone.heads": 2, "backbone.max_seq_len": 32, "backbone.seed": 3,
        "pretrain.steps": 80, "pretrain.lr": 0.01, "pretrain.extra_sequences": 40,
        "task.name": "micro", "task.kind": "majority_class",
        "task.seq_len_min": 5, "task.seq_len_max": 9,
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
    with pytest.raises(ConfigError):
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
    with pytest.raises(ConfigError):
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
        got = hz.param_count(e, full_selection(m, k, cells))
        assert got == {"count": count, "percentage": pct}


def test_param_count_rejects_inconsistent_selections():
    gamma, zeta = full_selection(20, 16, {0: 1})
    zeta[1, 0] = 1.0  # a piece row of removed token 1 counts zero
    assert hz.param_count(2048, (gamma, zeta)) == {"count": 128, "percentage": "0.3125"}
    with pytest.raises(DataError):
        hz.param_count(100, full_selection(20, 16, {0: 16}))  # k does not divide e


# --- metrics records ---------------------------------------------------------------


def test_metrics_records_round_trip(tmp_path):
    records = [hz.MetricsRecord("stage1", 1, 0.1 + 0.2, 6, 96, "100.0000"),
               hz.MetricsRecord("cell[0.3,0.25]", 2, 1.0 / 3.0, 4, 48, "50.0000")]
    path = str(tmp_path / "records.tsv")
    hz._write_records(path, records)
    back = hz._read_records(path)
    assert [r.tsv_line() for r in back] == [r.tsv_line() for r in records]
    assert back[0].dev_acc == 0.1 + 0.2  # float repr round trip is exact


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


def test_export_saliency_row_max_is_100(tmp_path):
    rep = make_report([0.2, 0.4], [[0.1, 0.2], [0.3, 0.0]])
    sel = np.ones(2), np.ones((2, 2))
    path = str(tmp_path / "sal.txt")
    hz.export_saliency(rep, sel, path)
    text = read(path)
    assert text.startswith("format saliency v2\nexamples_seen 1\n")
    tokens, pieces = parse_saliency(text)
    assert tokens[0] == (0.2, 50.0, 0)
    assert tokens[1] == (0.4, 100.0, 0)
    for i in range(2):
        row = [pieces[(i, q)][1] for q in range(2)]
        assert max(row) == 100.0
    assert pieces[(0, 0)] == (0.1, 50.0, 0)
    assert pieces[(1, 1)] == (0.0, 0.0, 0)


def test_export_saliency_flat_rows_normalize_to_100(tmp_path):
    rep = make_report([0.5, 0.5], [[0.3, 0.3], [0.0, 0.0]])
    sel = np.ones(2), np.ones((2, 2))
    path = str(tmp_path / "sal.txt")
    hz.export_saliency(rep, sel, path)
    tokens, pieces = parse_saliency(read(path))
    assert tokens[0][1] == 100.0 and tokens[1][1] == 100.0
    assert all(pieces[(i, q)][1] == 100.0 for i in range(2) for q in range(2))


def test_export_saliency_pruned_flags_keep_raw_scores(tmp_path):
    rep = make_report([0.2, 0.4], [[0.1, 0.2], [0.3, 0.4]])
    sel = np.array([0.0, 1.0]), np.array([[0.0, 0.0], [0.0, 1.0]])
    path = str(tmp_path / "sal.txt")
    hz.export_saliency(rep, sel, path)
    tokens, pieces = parse_saliency(read(path))
    assert tokens[0] == (0.2, 50.0, 1)           # pruned token keeps its score
    assert pieces[(0, 0)][2] == 1 and pieces[(0, 0)][0] == 0.1
    assert pieces[(1, 0)] == (0.3, 75.0, 1)      # pruned piece of a kept token
    assert pieces[(1, 1)] == (0.4, 100.0, 0)


def test_export_saliency_geometry_mismatch(tmp_path):
    rep = make_report([0.2], [[0.1, 0.2]])
    sel = np.ones(3), np.ones((3, 2))
    with pytest.raises(DataError):
        hz.export_saliency(rep, sel, str(tmp_path / "sal.txt"))


def test_merge_saliency_report_mixes_stages():
    tok = make_report([0.4, 0.1], [[0.5, 0.6], [0.7, 0.8]])
    piece = pr.ImportanceReport(np.array([0.9, 0.0]), np.array([[1.5, 1.6], [0.0, 0.0]]),
                                np.array([True, False]),
                                np.array([[True, True], [False, False]]), 3)
    sel = np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])
    cell = pr.CellResult(0.5, 0.5, sel, 0.8, 8, 1, None,
                         token_report=tok, piece_report=piece)
    merged = hz.merge_saliency_report(cell)
    assert np.array_equal(merged.token_scores, [0.4, 0.1])      # token-stage scores
    assert np.array_equal(merged.piece_scores[0], [1.5, 1.6])   # survivor: piece stage
    assert np.array_equal(merged.piece_scores[1], [0.7, 0.8])   # removed: token stage
    assert merged.examples_seen == 3


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
    assert hz.run_pipeline(micro_cfg(part), stop_after="backbone") == []
    hz.run_pipeline(micro_cfg(part), resume=True, stop_after="stage1")
    assert not os.path.exists(os.path.join(part, "metrics.tsv"))
    hz.run_pipeline(micro_cfg(part), resume=True)
    assert read(os.path.join(part, "metrics.tsv")) == read(os.path.join(out, "metrics.tsv"))


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
    any number of worker processes."""
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


def test_pipeline_degenerate_grid_repeats_stage1(tmp_path):
    # keep-all cell with no retraining evaluates the rewound = stage-1 state
    out = str(tmp_path / "deg")
    cfg = micro_cfg(out, **{"prune.token_ratios": (0.0,), "prune.piece_ratios": (0.0,),
                            "prune.retrain_epochs": 0, "run.seeds": (1,)})
    records = hz.run_pipeline(cfg)
    by_stage = {r.stage: r for r in records}
    assert by_stage["final"].dev_acc == by_stage["stage1"].dev_acc
    assert by_stage["final"].kept_params == by_stage["stage1"].kept_params


def test_pipeline_rejects_bad_stop_after(tmp_path):
    for stage in ("nowhere", "report"):
        with pytest.raises(ConfigError):
            hz.run_pipeline(micro_cfg(str(tmp_path / "x")), stop_after=stage)


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
    hz.run_pipeline(cfg, stop_after="stage1")
    with pytest.raises(DataError, match="prune checkpoint missing"):
        hz.run_baselines(cfg, which=("random",))
    # vanilla and negative masking only need stage-1
    recs = hz.run_baselines(cfg, which=("vanilla", "negative"))
    assert {r.stage for r in recs} == {"vanilla", "negative", "negative_random"}


def test_baselines_load_each_checkpoint_once(pipe_run, tmp_path, monkeypatch):
    """All arms of a seed share one stage-1 load and one best-cell load, and
    the length arm reruns to the same record."""
    cfg, copy = copy_run(pipe_run, tmp_path)
    loaded = []
    load = checkpoint.load_prompt

    def counting(dirpath):
        loaded.append(os.path.relpath(dirpath, copy))
        return load(dirpath)

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
    """transfer_o records the tune that transfer then snapshots and prunes."""
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


def test_transfer_carries_masks_verbatim(pipe_run, tmp_path):
    cfg, out = copy_run(pipe_run, tmp_path)
    src_bank, _ = load_prompt(os.path.join(out, "seed1", "prune"))
    # tune.epochs = 0 is another config, so it runs in a directory of its own
    frozen = cfg.with_overrides(run__seeds=(1,), tune__epochs=0,
                                run__out=str(tmp_path / "frozen"))
    trecs = hz.run_transfer(frozen, os.path.join(out, "seed1", "prune"),
                            variants=("transfer_o",))
    rec = trecs[0]
    assert rec.kept_tokens == int((src_bank.token_mask > 0).sum())
    assert rec.kept_params == int(src_bank.effective_mask().sum())


def test_transfer_shape_mismatch(pipe_run):
    cfg, out, _ = pipe_run
    wrong = cfg.with_overrides(prompt__m=5)
    with pytest.raises(ConfigError, match="does not match"):
        hz.run_transfer(wrong, os.path.join(out, "seed1", "prune"))
    with pytest.raises(ConfigError):
        hz.run_transfer(cfg, os.path.join(out, "seed1", "prune"),
                        variants=("sideways",))


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
    path = str(tmp_path / "run.cfg")
    hz.write_text_atomic(path, micro_cfg(out, **extra).to_text())
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


def test_cli_exit_code_2_on_config_errors(pipe_run, tmp_path):
    assert cli.main(["pipeline", "--config", "/nonexistent.cfg"]) == 2
    bad = str(tmp_path / "bad.cfg")
    hz.write_text_atomic(bad, "nonsense.key = 1\n")
    assert cli.main(["pipeline", "--config", bad]) == 2
    # an empty arm or variant list is refused before anything is written
    _, copy = copy_run(pipe_run, tmp_path)
    earlier = [os.path.join(copy, name) for name in ("baselines.tsv", "transfer.tsv")]
    for path in earlier:
        hz.write_text_atomic(path, "earlier records\n")
    cfg = write_cfg_file(tmp_path, copy)
    assert cli.main(["baselines", "--config", cfg, "--which", ","]) == 2
    assert cli.main(["transfer", "--config", cfg, "--variants", ",",
                     "--source", os.path.join(copy, "seed1", "prune")]) == 2
    # and so are fewer than one worker
    for command in ("pretrain", "baselines"):
        assert cli.main([command, "--config", cfg, "--jobs", "0"]) == 2
    assert all(read(path) == "earlier records\n" for path in earlier)


@pytest.mark.parametrize("bad", [{"tune.batch_size": 0}, {"optim.lr": -1.0},
                                 {"optim.kind": "adagrad"}, {"optim.lr": float("nan")},
                                 {"optim.weight_decay": float("inf")},
                                 {"pretrain.lr": float("nan")}, {"pretrain.lr": 0.0},
                                 {"prompt.uniform_bound": float("nan")},
                                 {"pretrain.steps": -1}, {"pretrain.extra_sequences": -1}],
                         ids=["batch-size-0", "negative-lr", "unknown-optimizer", "nan-lr",
                              "inf-weight-decay", "nan-pretrain-lr", "zero-pretrain-lr",
                              "nan-uniform-bound", "negative-pretrain-steps",
                              "negative-extra-sequences"])
def test_cli_tuning_config_errors_exit_before_any_work(tmp_path, bad):
    """Caught before pretraining, so nothing is written under the bad run hash
    and the corrected config can run in the same directory."""
    out = str(tmp_path / "bad")
    cfg = write_cfg_file(tmp_path, out, **bad)
    for command in ("tune", "pipeline"):
        assert cli.main([command, "--config", cfg]) == 2
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


def test_cli_exit_code_3_on_missing_prerequisites(pipe_run, tmp_path, capsys):
    out = str(tmp_path / "empty")
    cfg = write_cfg_file(tmp_path, out)
    assert cli.main(["prune", "--config", cfg]) == 3
    # a stage-1 checkpoint without its records is not a finished stage 1
    _, copy = copy_run(pipe_run, tmp_path)
    os.remove(os.path.join(copy, "seed1", "stage1", "records.tsv"))
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main(["prune", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: stage-1 checkpoint missing")
    assert not os.path.exists(os.path.join(copy, "seed1", "stage1", "records.tsv"))


# checkpoint files of seed 1, relative to the run directory
STAGE1_MANIFEST = os.path.join("seed1", "stage1", "manifest.txt")
BEST_TXT = os.path.join("seed1", "prune", "best.txt")
FINAL_MANIFEST = os.path.join("seed1", "prune", "manifest.txt")


@pytest.mark.parametrize("path, pattern, replacement, command", [
    (STAGE1_MANIFEST, r"^m .*\n", "", "prune"),
    (STAGE1_MANIFEST, r"^e .*", "e wide", "prune"),
    (STAGE1_MANIFEST, r"^k .*", "k 5", "prune"),
    (STAGE1_MANIFEST, r"^stage .*\n", "", "prune"),
    (STAGE1_MANIFEST, r"^blob p_e .*\n", "", "prune"),
    (STAGE1_MANIFEST, r"^token_mask 1", "token_mask 7", "prune"),
    (STAGE1_MANIFEST, r"^token_mask 1 ", "token_mask ", "prune"),
    (STAGE1_MANIFEST, r"^piece_mask 2 1", "piece_mask 2 0.5", "prune"),
    (STAGE1_MANIFEST, r"^piece_mask 0 1 ", "piece_mask 0 ", "prune"),
    (os.path.join("backbone", "manifest.txt"), r"^layers .*\n", "", "prune"),
    (os.path.join("backbone", "manifest.txt"), r"^heads .*", "heads two", "prune"),
    (os.path.join("backbone", "manifest.txt"), r"^weight head \S+", "weight head", "prune"),
    (os.path.join("seed1", "prune", "records.tsv"), r"^(final\t1\t)[^\t]*", r"\1abc", "report"),
    (os.path.join("seed1", "stage1", "records.tsv"), r"^(stage1\t.*)\t[^\t]*$", r"\1",
     "report"),
    (BEST_TXT, r"^token_ratio = .*", "token_ratio = x", "baselines --which random"),
    (BEST_TXT, r"^piece_ratio .*\n", "", "baselines --which random"),
    (FINAL_MANIFEST, r"^token_mask .*", "token_mask 0 0 0 0 0 0", "baselines --which length"),
], ids=["no-m", "bad-e", "bad-k", "no-stage", "no-p_e-blob", "token-mask-7",
        "short-token-mask", "piece-mask-0.5", "short-piece-mask", "backbone-no-layers",
        "backbone-bad-heads", "backbone-bad-weight-line", "records-dev-acc-abc",
        "records-short-row", "best-txt-bad-ratio", "best-txt-no-piece-ratio",
        "final-keeps-no-tokens"])
def test_cli_exit_code_3_on_malformed_artifacts(pipe_run, tmp_path, capsys, path, pattern,
                                                replacement, command):
    _, copy = copy_run(pipe_run, tmp_path)
    target = os.path.join(copy, path)
    text, count = re.subn(pattern, replacement, read(target), count=1, flags=re.M)
    assert count == 1
    hz.write_text_atomic(target, text)
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.split(), "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")


# --- run directory ownership ---------------------------------------------------------

PROVENANCE = ("run_hash", "parent", "blas_threads")


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
    bank, stage = load_prompt(stage1)
    bank.p = bank.p + 0.5
    save_prompt(bank, stage1, stage, provenance)
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
    assert len(lines) - len(kept) == 3
    hz.write_text_atomic(manifest, "".join(kept))
    cfg = write_cfg_file(tmp_path, copy)
    capsys.readouterr()
    assert cli.main([*command.split(), "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: stale fragment {fragment} ")
    assert "no provenance" in err[0]


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
    """tune builds the backbone only when none is finished, so a re-tune under
    other BLAS settings leaves the backbone, and the other seeds built on it,
    as they were."""
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


@pytest.mark.parametrize("command, target, stage", [
    ("pipeline", "tune", "stage1"),
    ("pipeline", "pretrain", "backbone"),
    ("pipeline", "hierarchical_prune", "prune"),
    ("baselines", "baseline_negative_masking", "baselines"),
    ("transfer", "tune", "transfer"),
])
def test_cli_exit_code_4_on_stage_failure(pipe_run, tmp_path, monkeypatch, capsys,
                                          command, target, stage):
    # baselines and transfer build on a copy of the finished run; a failed arm writes nothing
    out = copy_run(pipe_run, tmp_path)[1] if command != "pipeline" else str(tmp_path / "boom")
    cfg = write_cfg_file(tmp_path, out)
    extra = {"baselines": ["--which", "negative"],
             "transfer": ["--source", os.path.join(out, "seed1", "prune"),
                          "--variants", "transfer_o"]}.get(command, [])

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(hz, target, explode)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg, *extra]) == 4
    assert f"stage {stage} failed" in capsys.readouterr().err


def test_cli_exit_code_4_when_a_worker_dies(tmp_path, monkeypatch, capsys):
    cfg = write_cfg_file(tmp_path, str(tmp_path / "dies"))
    parent = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == parent:
            pytest.fail("tune ran in the test process, not in a worker")
        os._exit(1)

    monkeypatch.setattr(hz, "tune", die)
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg, "--jobs", "2"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("stage failure: stage stage1 failed")


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
