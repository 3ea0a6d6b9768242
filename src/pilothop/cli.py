"""Command-line entry point.

Subcommands: topology, simulate, detect, roc, rmsd, sweep-lambda.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness, sysmodel
from .errors import ConfigurationError, NumericalError


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is not None:
        config = harness.parse_config(args.config, quick=args.quick)
    else:
        config = harness.ExperimentConfig()
    if args.quick:
        config = harness.quick_preset(config)
    from dataclasses import replace

    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        config = replace(config, n_trials=args.trials)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {config.output_dir}: {exc.strerror or exc}"
        ) from exc
    return config


def _add_common(p, trials=True, campaign=False):
    p.add_argument("--config", metavar="PATH", help="experiment config JSON")
    p.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    if trials:
        p.add_argument("--trials", type=int, metavar="N", help="trial count override")
    p.add_argument("--out", metavar="DIR", help="output directory override")
    p.add_argument("--quick", action="store_true",
                   help="reduced-scale preset (18x18 grid, 6 pilots/intervals, "
                        "at most 50 trials)")
    if campaign:
        p.add_argument("--workers", type=int, default=1, metavar="N", help="worker processes")
        p.add_argument("--dump-trials", action="store_true", help="write per-trial JSON dumps")


def cmd_topology(args):
    config = _load_config(args)
    path = os.path.join(config.output_dir, "system.json")
    sysmodel.save_system(path, config.system, *harness.draw_system(config))
    print(f"wrote {path}")
    return 0


def cmd_simulate(args):
    config = _load_config(args)
    ctx = harness.build_context(config)
    trial_dir = harness.write_trial_dumps(config.output_dir, (
        harness.trial_dump(ctx, i, *harness.simulate_trial(ctx, i))
        for i in range(config.n_trials)
    ))
    print(f"wrote {config.n_trials} trial dumps to {trial_dir}")
    return 0


def cmd_detect(args):
    config = _load_config(args)
    ctx = harness.build_context(config)
    y_norm, truth = harness.read_trial_dump(args.trial, ctx)
    roc_rows, _ = harness.aggregate(config, [harness.evaluate(ctx, y_norm, truth)])
    path = os.path.join(config.output_dir, "detect.csv")
    harness.write_csv(path, harness.ROC_HEADER, roc_rows)
    print(f"wrote {path}")
    return 0


def cmd_campaign(args):
    """roc, rmsd and sweep-lambda: one Monte Carlo campaign writing both CSVs."""
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    config = _load_config(args)
    if args.command == "sweep-lambda":
        config = harness.sweep_lambda_config(config)
    harness.run_experiment(config, workers=args.workers, dump_trials=args.dump_trials,
                           out_dir=config.output_dir)
    print(f"wrote roc.csv and rmsd.csv to {config.output_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilothop",
        description="Activity detection experiments for pilot-hopping grant-free random access",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="build and dump the deterministic system")
    _add_common(p, trials=False)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("simulate", help="generate and dump trial realizations")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run detectors on a dumped trial")
    _add_common(p, trials=False)
    p.add_argument("--trial", required=True, metavar="PATH", help="trial dump JSON")
    p.set_defaults(func=cmd_detect)

    for name, help_text in (
        ("roc", "Monte Carlo ROC campaign"),
        ("rmsd", "Monte Carlo event-localization campaign"),
        ("sweep-lambda", "ROC family over the lambda grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, campaign=True)
        p.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
