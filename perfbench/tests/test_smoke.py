"""Tests of the benchmark itself, on the tiny smoke variant of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workload as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def run_benchmark(name: str, trace: int, cwd: Path = wl.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", name, "--seed", "0", "--seconds", "0.1",
            "--trace", str(trace), "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_agrees_with_the_metric_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for m in SPEC["end_to_end"]:
        unit, better, workloads = run.END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        # every listed metric is reported on every workload
        assert set(workloads) == set(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_metric_is_printed_with_unit_and_direction(name):
    proc = run_benchmark(name, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())

    printed = {}
    for line in lines[:-1]:
        match = re.fullmatch(r"metric (\S+) = (\S+) (\S+) \((lower|higher) is better\)", line)
        if match:
            printed[match[1]] = (float(match[2]), match[3], match[4])
    expected = {k: v for k, v in run.END_TO_END.items() if name in v[2]}
    assert set(printed) == set(expected)
    for metric, (value, unit, better) in printed.items():
        assert (unit, better) == expected[metric][:2]
        assert math.isfinite(value)
    assert printed["failed_share"][0] == 0.0
    assert any(line.startswith("env nproc=") for line in lines)


def test_traced_run_prints_every_layer_metric():
    proc = run_benchmark("dense_windows_warm", trace=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    printed = {line.split()[1] for line in lines[:-1] if line.startswith("layer ")}
    assert printed == {m["name"] for m in SPEC["per_layer"]}
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    # the warm run reads every feature from the cache
    assert layers["harness.cache.hit_ratio"] == 1.0
    assert layers["harness.cache_store.calls"] == 0
    assert layers["task_models.trunk_forward.calls"] == 0
    assert layers["nn_core.ops.calls"] > 0


def test_failed_output_check_raises_failed_share(tmp_path):
    wl.import_ettrans()
    workload = wl.WORKLOADS["uplift"]
    config = wl.load_workload_config(workload, smoke=True)
    digests = wl.DigestStore(tmp_path / "digests", "test")
    digests.remember("translator", 0, "0" * 64)  # a reference no report matches
    runner = wl.Runner(workload, config, 0, tmp_path, digests)
    iteration = runner.run("run0")
    assert iteration is not None
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "translator" in runner.failures[0]

    result = {
        "run_s": [iteration.run_s],
        "stage2_samples_per_s": [wl.stage2_samples_per_s(iteration.reports, config.n_train)],
        "peak_rss_mb": 100.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "quality": wl.quality(iteration.reports),
    }
    args = run.argparse.Namespace(workload="uplift")
    assert run.end_to_end_metrics(args, result, setup_s=1.0)["failed_share"] == 0.5


def test_check_report_catches_each_defect():
    report = {
        "metrics": {"accuracy": 0.75, "loss": 0.5},
        "frozen_check": {"ok": True, "checksums": {}},
        "train": {"wall_clock_s": 1.0},
        "wall_clock_s": 2.0,
    }
    digest = wl.report_digest(report)
    assert wl.check_report(report, digest) == []
    retimed = json.loads(json.dumps(report))
    retimed["wall_clock_s"] = 3.0
    retimed["train"]["wall_clock_s"] = 0.5
    assert wl.check_report(retimed, digest) == []

    thawed = json.loads(json.dumps(report))
    thawed["frozen_check"]["ok"] = False
    nan = json.loads(json.dumps(report))
    nan["metrics"]["loss"] = float("nan")
    drifted = json.loads(json.dumps(report))
    drifted["metrics"]["accuracy"] = 0.75000001
    for broken in (thawed, nan, drifted):
        assert wl.check_report(broken, digest)


def copy_benchmark(dest: Path) -> None:
    shutil.copy(wl.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_program_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_benchmark("uplift", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fails_when_a_listed_layer_metric_is_not_produced(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(wl.ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    spec["per_layer"].append({"name": "nn_core.no_such_op.calls", "unit": "count", "better": "lower"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    proc = run_benchmark("dense_windows_warm", trace=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert "nn_core.no_such_op.calls" in proc.stderr
    assert '"correct"' not in proc.stdout
