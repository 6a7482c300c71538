"""Command-line front end: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import pipeline, synth
from .config import PipelineConfig, load_config
from .util import CmrecError, ConfigError, read_json_object


class _Parser(argparse.ArgumentParser):
    """argparse's default exit code for bad arguments is 2; usage errors
    here must exit 1, so route them through ConfigError instead."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="cmrec",
                     description="Cross-market two-stage ranking pipeline.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def stage(name: str, help_: str, target_flag: bool = True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True,
                       help="pipeline config JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--workspace", default=None,
                       help="override the config's workspace directory")
        if target_flag:
            p.add_argument("--target", default=None,
                           help="run for one target market only")
        return p

    synth_p = sub.add_parser("synth", help="generate a synthetic dataset")
    synth_p.add_argument("--out", required=True, help="output data directory")
    synth_p.add_argument("--config", default=None,
                         help="generator config JSON (optional)")
    synth_p.add_argument("--seed", type=int, default=None,
                         help="override the generator seed")

    stage("ingest", "load markets, encode ids, snapshot the workspace",
          target_flag=False)
    stage("prerank", "score run files with the combination scorer plan")
    stage("select", "run the three-stage feature selection")
    stage("train", "grid search + bagged training + test ranking")
    eval_p = stage("evaluate", "score a ranked run file against qrels")
    eval_p.add_argument("--run", default=None,
                        help="run file to score (default: this target's "
                             "test_ranked.tsv)")
    eval_p.add_argument("--qrels", default=None,
                        help="qrels file (default: ingested test qrels)")
    stage("report", "combine per-target scores into the weighted final score",
          target_flag=False)
    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.workspace is not None:
        config = dataclasses.replace(config, workspace=args.workspace)
    return config


def _targets(config: PipelineConfig, args) -> list[str]:
    if getattr(args, "target", None) is None:
        return list(config.targets)
    return [args.target]


def _cmd_synth(args) -> None:
    payload = {} if args.config is None else read_json_object(args.config)
    payload["out_dir"] = args.out
    if args.seed is not None:
        payload["seed"] = args.seed
    meta = synth.generate(synth.synth_config_from_dict(payload))
    print(f"synthetic dataset written to {args.out} "
          f"({len(meta['markets'])} markets)")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            _cmd_synth(args)
            return 0
        config = _load_pipeline_config(args)
        ws = pipeline.workspace_for(config)
        with ws.lock():
            if args.command == "ingest":
                summary = pipeline.run_ingest(config)
                print(f"ingested {summary['total_samples']} rows from "
                      f"{len(summary['markets'])} markets into {ws.root}")
            elif args.command == "prerank":
                for target in _targets(config, args):
                    out = pipeline.run_prerank(config, target)
                    columns = f"{out['n_columns']} scorer columns"
                    print(f"[{target}] up to date ({columns})"
                          if out["up_to_date"] else f"[{target}] {columns}")
            elif args.command == "select":
                for target in _targets(config, args):
                    kept = pipeline.run_select(config, target)
                    print(f"[{target}] kept {len(kept)} features")
            elif args.command == "train":
                for target in _targets(config, args):
                    metrics = pipeline.run_train(config, target)
                    print(f"[{target}] offline NDCG@10 = "
                          f"{metrics['oof_ndcg_at_10']:.4f}")
            elif args.command == "evaluate":
                targets = _targets(config, args)
                if (args.run or args.qrels) and len(targets) > 1:
                    raise ConfigError("--run/--qrels need an explicit "
                                      "--target when several are configured")
                for target in targets:
                    report = pipeline.run_evaluate(config, target,
                                                   run_path=args.run,
                                                   qrels_path=args.qrels)
                    print(f"[{target}] NDCG@10 = "
                          f"{report['ndcg_at_10']:.4f} "
                          f"({report['n_users']} users)")
            elif args.command == "report":
                report = pipeline.run_report(config)
                print(f"weighted NDCG@10 = {report['weighted']:.4f}")
        return 0
    except CmrecError as exc:
        print(f"cmrec: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
