"""One benchmark workload, run in a fresh process by ``run.py``.

Usage (normally only through ``run.py``):

    python3 perfbench/workload.py run --workload NAME [--smoke] --seed N \
        --seconds S --trace 0|1 --result PATH
    python3 perfbench/workload.py setup --workload NAME [--smoke]

The process imports ``ettrans`` from the ``src/`` directory of the checkout
it sits in, loads the workload's config, and repeats ``run_experiment`` into
fresh output directories until ``--seconds`` have passed (at least one
run). Every (arm, seed) job's report is checked; the timings,
check results and environment go to ``--result`` as JSON.

With ``--trace 1`` it makes one plain run and then one run under
``tracing.Tracer``; the difference of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"

# Child processes get single-threaded BLAS and one job worker: more than one
# busy thread on a small shared machine would measure the scheduler.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ETT_NUM_WORKERS": "1",
}

# A run stops starting new iterations once this much wall time has passed,
# so one benchmark run stays well inside its three-minute limit.
WALL_BUDGET_S = 120.0


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    arms: tuple[str, ...]
    warm: bool  # run into an output directory an untimed run already filled
    # (stage 1, stage 2) epochs per fit, with early stopping off, where the
    # config's early stopping would make the amount of work depend on the seed
    fixed_epochs: tuple[int, int] | None = None
    # (n_train, n_val, n_test) in place of the config's split sizes
    splits: tuple[int, int, int] | None = None


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "uplift": Workload(
        config="configs/default.cfg",
        arms=("translator", "primary_only"),
        warm=False,
        # As shipped, early stopping ends stage 2 after 12-24 epochs and each
        # stage-1 fit after 12-39 depending on the seed, so the amount of work
        # would depend on the seed; and one run takes ~40 s, too long to
        # repeat within a benchmark run. A quarter of the clips and fixed
        # epochs make one run ~5 s with the same tasks, models and code paths.
        fixed_epochs=(8, 6),
        splits=(128, 64, 128),
    ),
    "dense_windows": Workload(
        config="perfbench/configs/dense_windows.cfg",
        arms=("translator",),
        warm=False,
    ),
    "dense_windows_warm": Workload(
        config="perfbench/configs/dense_windows.cfg",
        arms=("translator",),
        warm=True,
    ),
}


def import_ettrans():
    """Import the package from this checkout's ``src/``, never another copy."""
    src = ROOT / "src"
    if not (src / "ettrans" / "__init__.py").is_file():
        raise SystemExit(f"no ettrans sources under {src}")
    sys.path.insert(0, str(src))
    import ettrans

    if Path(ettrans.__file__).resolve().parent != (src / "ettrans").resolve():
        raise SystemExit(f"imported ettrans from {ettrans.__file__}, not {src}")
    return ettrans


def load_workload_config(workload: Workload, smoke: bool):
    from ettrans import harness

    config = harness.load_config(ROOT / workload.config)
    if workload.fixed_epochs:
        stage1, stage2 = workload.fixed_epochs
        config = replace(
            config,
            stage1=replace(config.stage1, max_epochs=stage1, patience=stage1),
            stage2=replace(config.stage2, max_epochs=stage2, patience=stage2),
        )
    if workload.splits:
        n_train, n_val, n_test = workload.splits
        config = replace(config, n_train=n_train, n_val=n_val, n_test=n_test)
    return shrink(config) if smoke else config


def shrink(config):
    """The smoke variant: the same tasks and model on tiny splits, one epoch."""
    one_epoch = {"max_epochs": 1, "patience": 1}
    return replace(
        config,
        n_train=8,
        n_val=4,
        n_test=4,
        stage1=replace(config.stage1, **one_epoch),
        stage2=replace(config.stage2, **one_epoch),
    )


# ---------------------------------------------------------------------------
# output checks


def strip_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_clock(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    """Hash of a report without its wall-clock fields; equal digests mean the
    reports are byte-identical apart from timings."""
    text = json.dumps(strip_wall_clock(report), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(report: dict, reference_digest: str | None) -> list[str]:
    """Problems with one (arm, seed) report; an empty list means it passed."""
    problems = []
    if report.get("frozen_check", {}).get("ok") is not True:
        problems.append("frozen_check.ok is not true")
    for name, value in report.get("metrics", {}).items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"metric {name} = {value!r} is not finite")
    if not report.get("metrics"):
        problems.append("report has no metrics")
    if reference_digest is not None and report_digest(report) != reference_digest:
        problems.append("report differs from an earlier run of the same config and seed")
    return problems


class DigestStore:
    """Reference report digests, per (source code, config, arm, seed).

    The first report seen for a key becomes the reference; later ones are
    compared with it. References are also kept on disk under the checkout,
    keyed by a hash of ``src/`` and the config, so reruns in separate
    benchmark processes are compared too, and the warm workload is compared
    with the cold one.
    """

    def __init__(self, directory: Path, code_key: str):
        self.directory = directory
        self.code_key = code_key
        self.seen: dict[str, str] = {}

    def _key(self, arm: str, seed: int) -> str:
        return hashlib.sha256(f"{self.code_key}|{arm}|{seed}".encode()).hexdigest()[:32]

    def reference(self, arm: str, seed: int) -> str | None:
        key = self._key(arm, seed)
        if key not in self.seen:
            path = self.directory / key
            if path.is_file():
                self.seen[key] = path.read_text().strip()
        return self.seen.get(key)

    def remember(self, arm: str, seed: int, digest: str) -> None:
        key = self._key(arm, seed)
        if key in self.seen:
            return
        self.seen[key] = digest
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.directory / f"{key}.{os.getpid()}.tmp"
        tmp.write_text(digest + "\n")
        os.replace(tmp, self.directory / key)


def code_key(config) -> str:
    """Hash of every source file under ``src/`` plus the effective config."""
    from ettrans import harness

    h = hashlib.sha256(harness.config_hash(config).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# running


@dataclass
class Iteration:
    run_s: float
    reports: dict[str, dict]  # arm -> report, for every report that parsed


class Runner:
    def __init__(self, workload: Workload, config, seed: int, work_dir: Path, digests: DigestStore):
        self.workload = workload
        self.config = config
        self.seed = seed
        self.work_dir = work_dir
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def out_dir(self, label: str) -> Path:
        """The warm workload reuses one filled directory; the others start
        every run in an empty one."""
        if self.workload.warm:
            return self.work_dir / "primed"
        path = self.work_dir / label
        shutil.rmtree(path, ignore_errors=True)
        return path

    def run(self, label: str) -> Iteration | None:
        """One ``run_experiment`` call, timed, then every job's report checked.

        Returns None when the call raised (every job counts as failed) or a
        report cannot be read (that job counts as failed).
        """
        from ettrans import harness

        arms = self.workload.arms
        out_dir = self.out_dir(label)
        self.attempted += len(arms)
        t0 = time.perf_counter()
        try:
            harness.run_experiment(self.config, out_dir, arms=arms, seeds=[self.seed])
        except Exception as exc:  # recorded as failed jobs; the run goes on
            traceback.print_exc()
            self._fail(len(arms), f"run_experiment raised {type(exc).__name__}: {exc}")
            return None
        run_s = time.perf_counter() - t0

        reports, complete = {}, True
        for arm in arms:
            path = out_dir / f"report_{arm}_seed{self.seed}.json"
            try:
                reports[arm] = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                self._fail(1, f"{arm}: cannot read {path.name}: {exc}")
                complete = False
                continue
            problems = check_report(reports[arm], self.digests.reference(arm, self.seed))
            if problems:
                self._fail(1, f"{arm}: " + "; ".join(problems))
            else:
                self.digests.remember(arm, self.seed, report_digest(reports[arm]))
        if not self.workload.warm:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Iteration(run_s, reports) if complete else None

    def _fail(self, n: int, message: str) -> None:
        self.failed += n
        self.failures.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)


def stage2_samples_per_s(reports: dict[str, dict], n_train: int) -> float:
    """Stage-2 training throughput: per report, n_train samples for each epoch
    run over the fit's wall time (so early stopping is not a speed-up); the
    mean over the arms, so the figure does not depend on which arm trained
    longer."""
    rates = [
        n_train * len(r["train"]["train_losses"]) / r["train"]["wall_clock_s"]
        for r in reports.values()
    ]
    return sum(rates) / len(rates)


def quality(reports: dict[str, dict]) -> dict[str, float]:
    """Test-set figures of the translator arm, and its gain over primary-only."""
    out = {}
    translator = reports.get("translator", {}).get("metrics", {})
    if "accuracy" in translator:
        out["accuracy"] = translator["accuracy"]
        primary_only = reports.get("primary_only", {}).get("metrics", {})
        if "accuracy" in primary_only:
            out["accuracy_gain"] = translator["accuracy"] - primary_only["accuracy"]
    if "localization_error_s" in translator:
        out["loc_error_s"] = translator["localization_error_s"]
    return out


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        **{var: os.environ.get(var, "") for var in PINNED_ENV},
    }


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    config = load_workload_config(workload, args.smoke)
    work_dir = Path(args.result).parent
    digests = DigestStore(RUNS_DIR / "digests", code_key(config))
    runner = Runner(workload, config, args.seed, work_dir, digests)

    if workload.warm:
        shutil.rmtree(work_dir / "primed", ignore_errors=True)
        runner.run("primed")  # untimed: fills the feature cache

    iterations: list[Iteration] = []
    layers: dict[str, float] = {}
    if args.trace:
        from tracing import Tracer

        plain = runner.run("plain")
        with Tracer() as tracer:
            traced = runner.run("traced")
        if plain and traced:
            iterations = [plain]
            layers = tracer.metrics()
            layers["trace.untraced_run_s"] = plain.run_s
            layers["trace.run_s"] = traced.run_s
            layers["trace.overhead_s"] = traced.run_s - plain.run_s
            tracer.write_spans(RUNS_DIR / f"spans_{args.workload}_seed{args.seed}.json")
    else:
        started = time.perf_counter()
        while True:
            iteration = runner.run(f"run{len(iterations)}")
            if iteration is not None:
                iterations.append(iteration)
            elapsed = time.perf_counter() - started
            if elapsed >= min(args.seconds, WALL_BUDGET_S):
                break

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "run_s": [it.run_s for it in iterations],
        "stage2_samples_per_s": [
            stage2_samples_per_s(it.reports, config.n_train) for it in iterations
        ],
        "quality": quality(iterations[0].reports) if iterations else {},
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    return result


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    common.add_argument("--smoke", action="store_true")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup", parents=[common], help="import ettrans and load the config")
    run = modes.add_parser("run", parents=[common], help="run the workload")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import_ettrans()
    if args.mode == "setup":
        load_workload_config(WORKLOADS[args.workload], args.smoke)
        return 0
    result = run_workload(args)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
