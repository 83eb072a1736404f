"""Command-line entry point.

Two subcommands: ``run`` executes a config end to end and writes CSVs;
``validate`` only parses. ``run``'s flags are the config keys they
override, parsed and validated as those keys. ``run`` prints one line
per method: its runs ok and failed, then how many of the solves that
returned report convergence, and their median iteration count. Exit
codes: 0 success, 1 configuration error (a bad flag value included), an
output directory that cannot be created or written, or a study whose
data leaves the domain (a covariance that overflows, say), 2 failed runs
exceeding the configured failure budget; argparse's own usage errors
exit 2 too.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, DomainError
from .experiment import _from_section, _read_pairs, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebeam",
        description="Run adaptive beamforming experiments from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment and write CSV outputs")
    run.add_argument("config", help="path to a key=value config file")
    # Each flag's dest is the config key it overrides.
    for flag, key in (("--out", "experiment.output_dir"), ("--runs", "experiment.monte_carlo_runs"),
                      ("--seed", "scenario.rng_seed")):
        run.add_argument(flag, dest=key, help=f"override {key}")
    validate = sub.add_parser("validate", help="parse and validate a config file")
    validate.add_argument("config", help="path to a key=value config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pairs = _read_pairs(args.config)
        # A flag's value joins the file's pairs as a string, so it is
        # parsed and validated exactly as that key would be.
        pairs.update((key, value) for key, value in vars(args).items() if "." in key and value is not None)
        config = _from_section("experiment", pairs)
    except ConfigError as exc:
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
    except DomainError as exc:
        print(f"study error: {exc}", file=sys.stderr)
        return 1
    for method in report.methods:
        # Counted over the solves that returned, failed runs' kept solves included.
        returned = [s.diagnostics for s in report.solves[method] if s is not None]
        iterations = f" (median {np.median([d.iterations for d in returned]):g} iterations)" if returned else ""
        print(f"{method}: {config.monte_carlo_runs - report.failures[method]} run(s) ok, "
              f"{report.failures[method]} failed, "
              f"{sum(d.converged for d in returned)}/{len(returned)} converged{iterations}")
    print(f"wrote {len(report.methods)} pattern file(s) and metrics.csv to {config.output_dir}")
    if report.total_failures > config.failure_budget:
        print(
            f"failed runs ({report.total_failures}) exceed the failure budget "
            f"({config.failure_budget})",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
