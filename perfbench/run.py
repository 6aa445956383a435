"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload uplift --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in a fresh child process
(``workload.py``) with single-threaded BLAS and ``ETT_NUM_WORKERS=1``; set-up
time is measured on separate fresh processes, some before the workload and
some after it. Every end-to-end metric that
applies to the workload is printed with its unit and better direction; with
``--trace 1`` the per-layer metrics are printed instead. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the metrics ``BENCHMARK.json`` lists for the mode. ``--smoke`` runs
the same workloads on tiny splits for one epoch (for tests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import PINNED_ENV, ROOT, RUNS_DIR, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
# A run must end within three minutes; the child gets what is left of this.
DEADLINE_S = 170.0
# Set-up probes before and after the workload, so that their median does not
# rest on one moment of a machine whose speed drifts.
SETUP_PROBES = (2, 1)

DENSE = ("dense_windows", "dense_windows_warm")
# name -> (unit, better, workloads it applies to)
END_TO_END = {
    "run_s": ("s", "lower", tuple(WORKLOADS)),
    "stage2_samples_per_s": ("samples/s", "higher", tuple(WORKLOADS)),
    "setup_s": ("s", "lower", tuple(WORKLOADS)),
    "peak_rss_mb": ("MB", "lower", tuple(WORKLOADS)),
    "accuracy": ("fraction", "higher", ("uplift",)),
    "accuracy_gain": ("fraction", "higher", ("uplift",)),
    "loc_error_s": ("s", "lower", DENSE),
    "failed_share": ("fraction", "lower", tuple(WORKLOADS)),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def workload_command(args, mode: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), mode, "--workload", args.workload]
    if args.smoke:
        cmd.append("--smoke")
    return cmd + list(extra)


def measure_setup(args, deadline: float, probes: int) -> list[float]:
    """Wall times of fresh processes that import ettrans and load the
    workload's config, from process start to exit."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(
            workload_command(args, "setup"),
            env=child_env(),
            check=True,
            timeout=max(1.0, deadline - t0),
        )
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end_metrics(args, result: dict, setup_s: float) -> dict[str, float]:
    values = {
        "run_s": statistics.median(result["run_s"]),
        "stage2_samples_per_s": statistics.median(result["stage2_samples_per_s"]),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_share": result["failed"] / result["attempted"],
        **result["quality"],
    }
    return {
        name: values[name]
        for name, (_, _, workloads) in END_TO_END.items()
        if args.workload in workloads
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny splits, one epoch")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path = run_dir / "result.json"
    try:
        setup = [] if args.trace else measure_setup(args, deadline, SETUP_PROBES[0])
        subprocess.run(
            workload_command(
                args,
                "run",
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--result", str(result_path),
            ),
            env=child_env(),
            check=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
        result = json.loads(result_path.read_text())
        if not args.trace:
            setup += measure_setup(args, deadline, SETUP_PROBES[1])
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: workload process exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("perfbench: workload process ran past the deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not result["run_s"]:
        print("perfbench: no run of the workload completed", file=sys.stderr)
        return 1

    env = result["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload {args.workload} seed {args.seed}: {len(result['run_s'])} timed run(s), "
        f"{result['attempted']} (arm, seed) jobs attempted, {result['failed']} failed"
    )
    times = result["run_s"]
    print(
        f"run_s over the timed runs: fastest {min(times):.4g} s, "
        f"median {statistics.median(times):.4g} s, slowest {max(times):.4g} s"
    )
    if args.trace:
        all_metrics = result["layers"]
        wanted = spec["per_layer"]
    else:
        all_metrics = end_to_end_metrics(args, result, statistics.median(setup))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in all_metrics]
    if missing:
        print(f"perfbench: the run did not produce {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.trace:
        for m in wanted:
            print(f"layer {m['name']} = {all_metrics[m['name']]:.6g} {m['unit']}")
    else:
        for name, value in all_metrics.items():
            unit, better, _ = END_TO_END[name]
            print(f"metric {name} = {value:.6g} {unit} ({better} is better)")

    metrics = {m["name"]: {"value": all_metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": all_metrics,
    }
    with open(RUNS_DIR / "results.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
