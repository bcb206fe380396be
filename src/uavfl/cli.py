"""Command-line entry points: run and compare."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, config_from_dict, load_config
from .errors import UavFlError
from .harness import (compare_strategies, emit_csv, emit_metadata, emit_summary_csv,
                      make_out_dir, run_experiment)

# CLI flag (argparse dest) -> the top-level config key it overrides
_OVERRIDES = {"strategy": "strategy", "ssim_th": "ssim_threshold", "seed": "master_seed",
              "workers": "workers"}


def _load(args) -> ExperimentConfig:
    """The config file (or the defaults) with the CLI overrides applied before
    validation, so a bad override fails like a bad file value."""
    overrides = {key: getattr(args, dest) for dest, key in _OVERRIDES.items()
                 if getattr(args, dest, None) is not None}
    if args.config:
        return load_config(args.config, **overrides)
    return config_from_dict(overrides)


def cmd_run(args) -> int:
    config = _load(args)
    out = args.out
    make_out_dir(out)
    summary = run_experiment(config)
    emit_csv(summary.records, os.path.join(out, f"rounds_{summary.label}.csv"))
    emit_summary_csv([summary], os.path.join(out, "summary.csv"))
    emit_metadata(config, os.path.join(out, "metadata.json"))
    print(f"strategy={summary.label} rounds={len(summary.records)} "
          f"final_accuracy={summary.final_accuracy:.4f} "
          f"lambda_t={summary.avg_round_time_s:.2f}s chi_r={summary.rounds_to_convergence} "
          f"rho_t={summary.time_to_convergence_min:.2f}min")
    return 0


def cmd_compare(args) -> int:
    config = _load(args)
    strategies = [("deeps", 0.1), ("deeps", 0.5), ("random", None)]
    compare_strategies(config, strategies, out_dir=args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavfl",
                                     description="UAV edge FL selection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--out", default="out", help="output directory (default out)")
    shared.add_argument("--workers", type=int,
                        help="threads that share data generation, dedup and training "
                             "(results do not depend on it; default 1)")

    run = sub.add_parser("run", parents=[shared], help="run one strategy")
    run.add_argument("--strategy", choices=["deeps", "random"])
    run.add_argument("--ssim-th", type=float, dest="ssim_th")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", parents=[shared],
                          help="run deeps(0.1)/deeps(0.5)/random on shared data")
    comp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UavFlError as exc:
        print(f"uavfl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
