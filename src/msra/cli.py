"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import ConfigurationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msra",
        description="Run autoscaling comparison experiments on the deterministic cluster simulator.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="experiment configuration JSON")
    source.add_argument("--paper", action="store_true",
                        help="use the bundled six-profile benchmark preset")
    parser.add_argument("--profiles", metavar="LIST",
                        help="comma-separated subset of profile names to run")
    parser.add_argument("--reps", type=int, metavar="N", help="override repetition count")
    parser.add_argument("--seed", type=int, metavar="N", help="override base seed")
    parser.add_argument("--out", metavar="DIR", default="results", help="output directory")
    parser.add_argument("--export-timeseries", action="store_true",
                        help="also write per-run metrics.csv time series")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration as JSON and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.paper:
            cfg = harness.benchmark_preset()
        else:
            cfg = harness.load_config(args.config)
        cfg = harness.override(cfg, repetitions=args.reps, seed=args.seed)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dump_config:
        print(json.dumps(harness.config_to_dict(cfg), indent=2))
        return 0

    profiles = args.profiles.split(",") if args.profiles else None
    try:
        reports = harness.run_experiment(cfg, profiles=profiles)
        summary = harness.export(reports, args.out, export_timeseries=args.export_timeseries)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    print(summary.to_text(), end="")
    print(f"results written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
