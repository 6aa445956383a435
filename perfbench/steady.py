"""Steadiness check for the benchmark.

    python3 perfbench/steady.py

Runs ``run.py`` once per seed 0-9 on each workload (tracing off, for
``BENCHMARK.json``'s ``run_seconds``) and prints, for every end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median next to
the metric's bound in ``BENCHMARK.json``; the aim is a spread below a third
of the bound, and a spread above the bound fails the check. Then it runs the
traced mode twice on seed 0 per workload and requires every deterministic
count (``.calls``, ``.epochs``, ``.samples``, ``.bytes``,
``hit_ratio``) to repeat exactly. A summary goes to
``.bench_runs/steady.json``. Exit status 1 means a run failed, a spread
exceeded its bound or a count changed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workload import ROOT, RUNS_DIR, WORKLOADS

COUNT_SUFFIXES = (".calls", ".epochs", ".samples", ".bytes", ".hit_ratio")
SEEDS = list(range(10))
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (Q3 - Q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary: dict = {"seeds": SEEDS, "workloads": {}}

    for workload in WORKLOADS:
        results = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        entry: dict = {"failed": sum(r["failed"] for r in results), "metrics": {}}
        if entry["failed"] or not all(r["correct"] for r in results):
            print(f"{workload}: FAILED output checks in {entry['failed']} job(s)")
            ok = False
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            steady = rel <= bound / 3
            within = rel <= bound
            if not within:
                ok = False
            entry["metrics"][name] = {
                "values": values, "median": median, "q1": q1, "q3": q3,
                "spread": rel, "bound": bound,
            }
            flag = "ok" if steady else ("within bound" if within else "OVER BOUND")
            print(
                f"{workload:20s} {name:22s} median {median:10.4f}  "
                f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {rel:6.3f}  "
                f"bound {bound:4.2f}  {flag}"
            )
        first, second = (run_once(workload, TRACE_SEED, seconds, 1) for _ in range(2))
        changed = [
            name
            for name, m in first["metrics"].items()
            if name.endswith(COUNT_SUFFIXES) and m["value"] != second["metrics"][name]["value"]
        ]
        entry["counts_repeat"] = not changed
        entry["trace"] = {name: m["value"] for name, m in first["metrics"].items()}
        if changed:
            ok = False
            print(f"{workload}: counts changed between traced runs: {changed}")
        else:
            print(f"{workload}: every deterministic count repeated exactly")
        summary["workloads"][workload] = entry
        sys.stdout.flush()

    RUNS_DIR.mkdir(exist_ok=True)
    (RUNS_DIR / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
