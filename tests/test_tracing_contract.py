"""The benchmark's per-layer tracer (``perfbench/tracing.py``) binds ``ettrans``
functions by name; a rename in the package would leave the benchmark without
the metrics ``BENCHMARK.json`` lists. These tests read the tracer as it is and
check that it still finds all of them, and that its training hooks still see
the work both stages do."""

import importlib.util
import json
from pathlib import Path

from ettrans import harness
from test_harness import TINY_CFG

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_per_layer_metric_the_benchmark_lists():
    tracing = _load_tracing()
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    with tracing.Tracer() as tracer:
        reported = set(tracer.metrics())
    # the run script adds the three trace.* timings around a whole traced run
    assert listed - reported == {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}


def test_tracer_training_hooks_see_both_stages(tmp_path):
    """The tracer wraps ``training.fit``, ``train_stage*`` and
    ``stage2_predictions`` where callers look them up: a stage that binds
    ``fit`` early, or validates without ``stage2_predictions``, hides its
    steps or samples from the benchmark."""
    tracing = _load_tracing()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    config = harness.load_config(cfg)
    out = tmp_path / "out"
    with tracing.Tracer() as tracer:
        harness.run_experiment(config, out)
    traced = tracer.metrics()

    reports = [json.loads(p.read_text()) for p in sorted(out.glob("report_*.json"))]
    assert len(reports) == len(config.arms)
    stage1_epochs = {
        task: r["stopped_epoch"] + 1 for report in reports for task, r in report["stage1"].items()
    }
    stage2_epochs = [len(report["train"]["train_losses"]) for report in reports]
    assert traced["training.step_ms.stage1.p50"] > 0
    assert traced["training.step_ms.stage2.p50"] > 0
    assert traced["training.train_stage1.epochs"] == sum(stage1_epochs.values())
    assert traced["training.train_stage2.epochs"] == sum(stage2_epochs)
    # each stage-2 epoch validates every val sample; the test split is read once
    assert traced["training.stage2_predictions.samples"] == sum(
        config.n_val * epochs + config.n_test for epochs in stage2_epochs
    )
    assert traced["training.stage2_predictions.samples"] == 2 * (24 * 3 + 24)  # 2 arms, 3 epochs
