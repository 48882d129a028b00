"""Command-line entry point: one subcommand per experiment, flags mirror
the experiment config, results go to stdout and optionally to CSV."""

from __future__ import annotations

import argparse
import functools
import sys

from .environments import TruncationError
from .harness import EXPERIMENTS, ExperimentConfig, emit_csv, run_experiment
from .mdp_teaching import StepLimitError, UnconvergedPlanError


def _parse_sweep(text: str) -> list[float]:
    """Accept ``lo:hi:steps`` (inclusive linear sweep) or a comma list."""
    try:
        if ":" not in text:
            return [float(v) for v in text.split(",") if v]
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError(f"--epsilon-sweep needs lo:hi:steps or a comma list, not {text!r}")
    if steps < 1:
        raise ValueError(f"--epsilon-sweep needs at least one step, not {text!r}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"{flag} needs a comma list of integers, not {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call,
    which must not change it. A parser is a cycle of some 400 objects: one
    built per call is left for the cyclic garbage collector, which a
    supervised run seldom wakes."""
    parser = argparse.ArgumentParser(
        prog="teachsim",
        description="Run seeded teaching-protocol experiments and emit CSV stats.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--epsilon", type=float, default=None,
                       help="accuracy target in (0,1)")
        p.add_argument("--epsilon-sweep", type=str, default=None, metavar="LO:HI:STEPS",
                       help="sweep of accuracy targets (lo:hi:steps or comma list)")
        p.add_argument("--delta", type=float, default=None,
                       help="failure probability in (0,1), default 0.05")
        p.add_argument("--runs", type=int, default=None, help="trials per cell")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--strategies", type=str, default=None,
                       help="comma list of strategy names")
        p.add_argument("--bits", type=str, default=None,
                       help="bit count, or comma list for sweeps")
        p.add_argument("--arms", type=str, default=None,
                       help="arm count, or comma list for sweeps")
        p.add_argument("--out", type=str, default=None, help="CSV output path")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its fields")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment != args.experiment:
            raise ValueError(
                f"config file is for {config.experiment!r}, not {args.experiment!r}")
    else:
        config = ExperimentConfig(experiment=args.experiment)
    if args.epsilon is not None:
        config.epsilon = args.epsilon
    if args.epsilon_sweep is not None:
        config.epsilon_sweep = _parse_sweep(args.epsilon_sweep)
    if args.delta is not None:
        config.delta = args.delta
    if args.runs is not None:
        config.runs = args.runs
    if args.seed is not None:
        config.master_seed = args.seed
    if args.strategies is not None:
        config.strategies = [s for s in args.strategies.split(",") if s]
    if args.bits is not None:
        config.bits = _parse_int_list(args.bits, "--bits")
    if args.arms is not None:
        config.arms = _parse_int_list(args.arms, "--arms")
    if args.out is not None:
        config.out = args.out
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        result = run_experiment(config)
        if config.out:
            emit_csv(result.stats, config.out)
    except (ValueError, OSError, TruncationError, UnconvergedPlanError,
            StepLimitError) as exc:
        print(f"teachsim: error: {exc}", file=sys.stderr)
        return 2
    print(f"{'strategy':<12} {'sweep':>12} {'runs':>6} {'mean':>12} "
          f"{'std':>10} {'ci95':>10}")
    for row in result.stats:
        sweep = (f"{row.sweep_value:.6g}" if isinstance(row.sweep_value, float)
                 else str(row.sweep_value))
        print(f"{row.strategy:<12} {sweep:>12} {row.runs:>6} "
              f"{row.mean:>12.3f} {row.std:>10.3f} {row.ci95:>10.3f}")
    if config.out:
        print(f"wrote {config.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
