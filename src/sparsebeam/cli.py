"""Command-line entry point.

Two subcommands: ``run`` executes a config end to end and writes CSVs;
``validate`` only parses. Exit codes: 0 success, 1 configuration error
or an output directory that cannot be created or written, 2 solver
failures exceeding the configured failure budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiment import parse_config, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebeam",
        description="Run adaptive beamforming experiments from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment and write CSV outputs")
    run.add_argument("config", help="path to a key=value config file")
    run.add_argument("--out", help="override experiment.output_dir")
    run.add_argument("--runs", type=int, help="override experiment.monte_carlo_runs")
    run.add_argument("--seed", type=int, help="override scenario.rng_seed")
    validate = sub.add_parser("validate", help="parse and validate a config file")
    validate.add_argument("config", help="path to a key=value config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.command == "run":
            overrides = {}
            if args.out is not None:
                overrides["output_dir"] = args.out
            if args.runs is not None:
                overrides["monte_carlo_runs"] = args.runs
            if args.seed is not None:
                overrides["scenario"] = dataclasses.replace(
                    config.scenario, rng_seed=args.seed
                )
            if overrides:
                config = dataclasses.replace(config, **overrides)
    except (TypeError, ValueError) as exc:
        # ConfigError and DomainError are ValueErrors; dataclasses.replace
        # re-runs the invariant checks on the overrides.
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config OK: {len(config.methods)} method(s), "
              f"{config.monte_carlo_runs} run(s), output -> {config.output_dir}")
        return 0

    try:
        report = run_experiment(config)
    except OSError as exc:
        # mkdir's error and the CSV writers' errors name the path.
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    for method in report.methods:
        print(f"{method}: {config.monte_carlo_runs - report.failures[method]} run(s) ok, "
              f"{report.failures[method]} failed")
    print(f"wrote {len(report.methods)} pattern file(s) and metrics.csv to {config.output_dir}")
    if report.total_failures > config.failure_budget:
        print(
            f"solver failures ({report.total_failures}) exceed the failure budget "
            f"({config.failure_budget})",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
