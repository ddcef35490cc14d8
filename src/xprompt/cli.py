"""Command-line front end.

Subcommands compose the pipeline: pretrain, tune and prune each build their
own stage (tune builds the backbone only when none is finished, prune requires
an existing stage-1 checkpoint), pipeline runs everything through the report,
and baselines/transfer/report build on a finished run, reusing what they find
without --resume. Every subcommand checks the run directory before any work
(see harness.RunDir). Exit codes: 0 success; 2 config error, including a run
directory whose config.txt holds another config; 3 data error, including a
missing input, a fragment changed after its manifest was written, and a stale
fragment, one whose recorded parent no longer matches the run directory's; 4
stage failure, including a file of the run (config.txt, metrics.tsv, ...) that
cannot be written. XPROMPT_LOG sets the logging level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConfigError, DataError, ShapeError, StageError, StateError
from .harness import (BASELINE_ARMS, BUILT_BY, DEFAULT_JOBS, RunConfig, collect_report,
                      run_baselines, run_pipeline, run_transfer)


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("XPROMPT_LOG", "").upper() or "WARNING", None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.INFO,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


# the pipeline stage each building subcommand builds; pipeline builds them all
PIPELINE_STAGES = {**{command: stage for stage, command in BUILT_BY.items()},
                   "pipeline": None}


def _add_common(sub: argparse.ArgumentParser, name: str) -> None:
    sub.add_argument("--config", help="run config file (defaults used if omitted)")
    sub.add_argument("--seed", type=int,
                     help="override run.seeds with a single seed; the run hash leaves "
                          "out run.seeds, so a per-seed command works on a multi-seed run "
                          "and reuses that seed's fragments")
    if name in PIPELINE_STAGES:
        sub.add_argument("--resume", action="store_true",
                         help="reuse the finished fragments of the stages this command "
                              "builds once their provenance checks, rather than rebuild them; "
                              "tune and prune always reuse a finished backbone, prune stage 1")
    if name != "report":
        sub.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                         help="worker processes, one seed per task; results do not "
                              f"depend on it (default {DEFAULT_JOBS}, one per usable CPU)")
    sub.add_argument("--out", help="override run.out output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xprompt",
        description="Soft-prompt tuning with hierarchical structured pruning "
                    "and rewinding on a frozen mini-transformer.")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("pretrain", "build and checkpoint the frozen backbone"),
            ("tune", "stage-1 prompt tuning (builds the backbone if needed)"),
            ("prune", "hierarchical pruning + rewinding from stage-1 checkpoints"),
            ("pipeline", "full run: backbone, tune, prune, metrics report"),
            ("baselines", "ablation arms over the configured seeds"),
            ("transfer", "tune a source prompt (transfer_o), then prune its live parts (transfer)"),
            ("report", "regenerate metrics.tsv and report.txt from checkpoints")):
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub, name)
        if name == "baselines":
            sub.add_argument("--which", default=",".join(BASELINE_ARMS),
                             help="comma list from: " + ", ".join(BASELINE_ARMS))
        if name == "transfer":
            sub.add_argument("--source", required=True,
                             help="prompt checkpoint directory to transfer from")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config is not None else RunConfig.from_mapping()
    if args.seed is not None:
        cfg = cfg.with_overrides(run__seeds=(args.seed,))
    if args.out is not None:
        cfg = cfg.with_overrides(run__out=args.out)
    return cfg


def _dispatch(args: argparse.Namespace) -> None:
    cfg = _load_config(args)
    if args.command in PIPELINE_STAGES:
        run_pipeline(cfg, PIPELINE_STAGES[args.command], args.resume, args.jobs)
    elif args.command == "baselines":
        which = tuple(w.strip() for w in args.which.split(",") if w.strip())
        run_baselines(cfg, which=which, jobs=args.jobs)
    elif args.command == "transfer":
        run_transfer(cfg, args.source, jobs=args.jobs)
    elif args.command == "report":
        collect_report(cfg)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (StageError, StateError, ShapeError) as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
