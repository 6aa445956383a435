"""Command line entry point: ``ett run --config <path> [options]``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, TrainingDivergedError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ett", description="Task-translation experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment or the invariant check suite")
    run_p.add_argument("--config", help="path to the experiment config file")
    run_p.add_argument("--seeds", type=int, help="number of seeds (overrides config)")
    run_p.add_argument(
        "--arm",
        action="append",
        dest="arms",
        help="restrict to one arm (repeatable)",
    )
    run_p.add_argument(
        "--check",
        action="store_true",
        help="run only the invariant suite (gradient checks, metric oracles)",
    )
    run_p.add_argument("--out", default="runs", help="output directory for reports")
    return parser


def _run(args: argparse.Namespace) -> int:
    from . import harness

    if args.check:
        ok = True
        for name, passed, detail in harness.check_suite():
            status = "ok" if passed else "FAIL"
            print(f"[{status}] {name} {detail}")
            ok = ok and passed
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if not args.config:
        raise ConfigError("--config is required unless --check is given")
    config = harness.load_config(args.config)
    seeds = range(args.seeds) if args.seeds is not None else None
    aggregate = harness.run_experiment(
        config, Path(args.out), arms=args.arms, seeds=seeds
    )
    changed = [arm for arm, s in aggregate["arms"].items() if not s["frozen_check_ok"]]
    if changed:
        _error_record("frozen_check", f"frozen task models changed during arms {changed}")
        return EXIT_CHECK_FAILED
    for arm, summary in aggregate["arms"].items():
        for metric, stats in summary["metrics"].items():
            print(f"{arm}: {metric} = {stats['mean']:.4f} +/- {stats['stddev']:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)  # ``run`` is the only command
    except ConfigError as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        _error_record("divergence", str(exc))
        return EXIT_DIVERGED
    except OSError as exc:
        _error_record("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
