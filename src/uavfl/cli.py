"""Command-line entry points: run, compare, gen-data, dedup-report."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, config_from_dict, load_config
from .datagen import (MANIFEST_HEADER, generate_uav_dataset, load_manifest,
                      write_pgm)
from .errors import UavFlError
from .harness import (compare_strategies, emit_csv, emit_metadata, emit_summary_csv,
                      make_out_dir, run_experiment, write_text)
from .similarity import deduplicate

# CLI flag (argparse dest) -> the top-level config key it overrides
_OVERRIDES = {"strategy": "strategy", "ssim_th": "ssim_threshold", "seed": "master_seed",
              "out": "output_dir", "workers": "workers"}


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
    out = config.output_dir
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
    compare_strategies(config, strategies, out_dir=config.output_dir)
    return 0


def cmd_gen_data(args) -> int:
    """Materialize the configured synthetic datasets as PGM files + manifest."""
    config = _load(args)
    out = config.output_dir
    make_out_dir(out)
    rows = [",".join(MANIFEST_HEADER)]
    for uid in range(1, config.n_uavs + 1):
        subregion = (uid - 1) % config.subregion_count + 1
        data = generate_uav_dataset(config.generator, subregion, uid, config.master_seed,
                                    shard_count=config.n_rounds_max)
        make_out_dir(os.path.join(out, f"uav{uid:03d}"))
        train = data.train.samples
        for i, (image, label) in enumerate(zip(train.images, train.labels)):
            rel = os.path.join(f"uav{uid:03d}", f"{i:05d}.pgm")
            write_pgm(os.path.join(out, rel), image)
            rows.append(f"{rel},{label},{subregion},{uid}")
    manifest = os.path.join(out, "manifest.csv")
    write_text(manifest, "\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} images and {manifest}")
    return 0


def cmd_dedup_report(args) -> int:
    config = _load(args)  # checks --ssim-th before the manifest is read
    datasets = load_manifest(args.manifest, config.n_rounds_max,
                             image_root=os.path.dirname(args.manifest))
    total_before = total_after = 0
    print(f"{'uav':>6}{'samples':>10}{'removed':>10}{'kept':>10}")
    for uid, ds in datasets.items():
        before = len(ds)
        removed = deduplicate(ds, config.ssim_threshold, config.ssim)
        total_before += before
        total_after += len(ds)
        print(f"{uid:>6}{before:>10}{removed:>10}{len(ds):>10}")
    print(f"total: {total_before} -> {total_after} at threshold {config.ssim_threshold:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavfl",
                                     description="UAV edge FL selection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one strategy")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--strategy", choices=["deeps", "random"])
    run.add_argument("--ssim-th", type=float, dest="ssim_th")
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.add_argument("--workers", type=int)
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="run deeps(0.1)/deeps(0.5)/random on shared data")
    comp.add_argument("--config", help="JSON config file")
    comp.add_argument("--seed", type=int)
    comp.add_argument("--out")
    comp.add_argument("--workers", type=int)
    comp.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen-data", help="write synthetic datasets as PGM + manifest")
    gen.add_argument("--config", help="JSON config file")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen_data)

    ded = sub.add_parser("dedup-report", help="near-duplicate removal stats for a manifest")
    ded.add_argument("--manifest", required=True)
    ded.add_argument("--config", help="JSON config file; its ssim section sets k1 and k2, "
                     "its n_rounds_max the shard count")
    ded.add_argument("--ssim-th", type=float, dest="ssim_th", default=0.5)
    ded.set_defaults(func=cmd_dedup_report)
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
