"""Command-line interface: run experiments, validate the exact oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dpptrack")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo tracking experiment")
    source = run.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment config file (INI format)")
    source.add_argument(
        "--preset", help="named preset: spooky, death, birth, repulsion-bias, good-ratio"
    )
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--runs", type=int, help="override the Monte Carlo run count")
    run.add_argument("--filter", choices=["dpp", "ppp", "both"], help="override filter choice")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--threads", type=int, default=1, help="worker processes for runs")
    run.add_argument("--full", action="store_true", help="use paper-scale preset budgets")

    sub.add_parser("oracle-check", help="run the exact-oracle validation battery")
    sub.add_parser("version", help="print the package version")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "oracle-check":
        from .checks import run_all

        return 0 if run_all() else 1

    # run
    from .errors import ConfigError, UnknownPreset
    from .harness import load_config, preset, run_experiment

    try:
        if args.full and not args.preset:
            raise ConfigError("--full needs --preset")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.config:
            cfg = load_config(args.config)
        elif args.preset:
            cfg = preset(args.preset, full=args.full)
        else:
            raise ConfigError("provide --config or --preset")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.runs is not None:
            cfg = replace(cfg, mc_runs=args.runs)
        if args.filter is not None:
            cfg = replace(cfg, filter=args.filter)
    except (ConfigError, UnknownPreset, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(cfg, out_dir=args.out, threads=args.threads)
    print(
        f"{cfg.name}: {cfg.mc_runs} runs x {cfg.steps} steps -> {result.out_dir} "
        f"({result.wall_seconds:.1f}s, {result.clamp_events} sqrt clamps)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
