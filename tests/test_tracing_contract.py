"""The benchmark's per-layer tracer (``perfbench/tracing.py``) binds ``ettrans``
functions by name; a rename in the package would leave the benchmark without
the metrics ``BENCHMARK.json`` lists. This test reads the tracer as it is and
checks that it still finds all of them."""

import importlib.util
import json
from pathlib import Path

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
