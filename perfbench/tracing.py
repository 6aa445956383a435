"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer`` replaces public functions of the ``ettrans`` modules with timing
wrappers at the place their callers look them up, and puts the originals
back on exit. Nothing under ``src/`` changes. Every wrapped call pushes a
frame on one stack, so each layer gets a call count, its busy time ``s`` and
its self time ``self_s`` (busy time minus the time of traced calls made
inside it).

Coarse layers (harness, training, extraction, data generation) also record
one span each: ``(name, start, end, parent)``, kept in memory and written
out by ``write_spans`` at the end. The graph-building ``nn_core`` ops run
millions of times per workload, so they are aggregated only.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from pathlib import Path

_STAGES = ("stage1", "stage2")


class Tracer:
    def __init__(self):
        # name -> [calls, busy_s, self_s, units]; ``units`` counts what the
        # layer processed (bytes, epochs, samples) where that applies.
        self.stats: dict[str, list] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.step_ms: dict[str, list[float]] = {stage: [] for stage in _STAGES}
        self._stack: list[float] = []  # traced child time of each open call
        self._open_span = -1
        self._stage: str | None = None
        self._step_start: float | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        from ettrans import harness, nn_core, synth_tasks, task_models, training, translator

        def cache_bytes(seq) -> int:
            return harness.cache_file_size(seq.task_id, *seq.values.shape)

        for name, fn in vars(nn_core).items():
            if _is_graph_op(nn_core, name, fn):
                self._patch(nn_core, name, f"nn_core.{name}", span=False)
        self._patch(nn_core.Tensor, "backward", "nn_core.Tensor.backward", span=False)
        self._patch(task_models.TaskModel, "trunk_forward", "task_models.trunk_forward")
        self._patch(translator, "align_and_extract", "translator.align_and_extract")
        # translator imported these by name from temporal_align
        for name in ("extract_features", "resample", "plan_windows"):
            self._patch(translator, name, f"temporal_align.{name}")
        self._patch(synth_tasks, "generate", "synth_tasks.generate")
        self._patch(harness, "run_experiment", "harness.run_experiment")
        self._patch(harness, "run_arm_seed", "harness.run_arm_seed")
        self._patch(
            harness, "cache_store", "harness.cache_store",
            units=lambda args, kwargs, result: cache_bytes(args[1]),
        )
        self._patch(
            harness, "cache_load", "harness.cache_load",
            units=lambda args, kwargs, result: cache_bytes(result),
        )
        self._patch(
            training, "train_stage1", "training.train_stage1",
            units=lambda args, kwargs, report: len(report.train_losses),
            stage="stage1",
        )
        self._patch(
            training, "train_stage2", "training.train_stage2",
            units=lambda args, kwargs, result: len(result[1].train_losses),
            stage="stage2",
        )
        self._patch(
            training, "stage2_predictions", "training.stage2_predictions",
            units=lambda args, kwargs, result: len(result[0]),
        )
        self._patch(training, "optimizer_step", "training.optimizer_step", ends_step=True)
        self._patch_fit(training)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, name, span=True, units=None, stage=None, ends_step=False):
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        plain = not (span or units or stage or ends_step)

        if plain:
            # the hot path: graph ops and backward, called millions of times

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - child

        else:

            def wrapper(*args, **kwargs):
                parent = self._open_span
                if span:
                    index = len(spans)
                    spans.append((name, 0.0, 0.0, parent))
                    self._open_span = index
                outer_stage = self._stage
                if stage:
                    self._stage = stage
                stack.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    dt = t1 - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - child
                    if span:
                        spans[index] = (name, t0, t1, parent)
                        self._open_span = parent
                    self._stage = outer_stage
                if ends_step and self._step_start is not None and self._stage:
                    self.step_ms[self._stage].append(1e3 * (t1 - self._step_start))
                    self._step_start = None
                if units:
                    stat[3] += units(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _patch_fit(self, training) -> None:
        """Mark the start of each minibatch step: the first loss built after
        the previous optimizer step. ``fit`` itself gets no span, so the
        training loop's own overhead stays in ``train_stage*.self_s``."""
        fit = training.fit
        signature = inspect.signature(fit)
        tracer = self

        def traced_fit(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            build_loss = bound.arguments["build_loss"]

            def marked_build_loss(*a, **k):
                if tracer._step_start is None:
                    tracer._step_start = time.perf_counter()
                return build_loss(*a, **k)

            bound.arguments["build_loss"] = marked_build_loss
            tracer._step_start = None
            try:
                return fit(*bound.args, **bound.kwargs)
            finally:
                tracer._step_start = None

        traced_fit.__wrapped__ = fit
        self._restore.append((training, "fit", fit))
        training.fit = traced_fit

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics named ``<module>.<function>.<kind>``."""
        unit_names = {
            "harness.cache_store": "bytes",
            "harness.cache_load": "bytes",
            "training.train_stage1": "epochs",
            "training.train_stage2": "epochs",
            "training.stage2_predictions": "samples",
        }
        out: dict[str, float] = {}
        op_calls = 0
        for name, (calls, busy, own, units) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = busy
            out[f"{name}.self_s"] = own
            if name in unit_names:
                out[f"{name}.{unit_names[name]}"] = units
            if name.startswith("nn_core.") and name != "nn_core.Tensor.backward":
                op_calls += calls
        out["nn_core.ops.calls"] = op_calls
        hits = out["harness.cache_load.calls"]
        misses = out["harness.cache_store.calls"]
        out["harness.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for stage, steps in self.step_ms.items():
            out[f"training.step_ms.{stage}.p50"] = statistics.median(steps) if steps else 0.0
            out[f"training.step_ms.{stage}.p90"] = _percentile(steps, 90)
        return out

    def write_spans(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], t0, t1, parent] for n, t0, t1, parent in self.spans],
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _is_graph_op(module, name: str, fn) -> bool:
    """Public functions defined in ``nn_core`` that return a graph node."""
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and name != "as_tensor"
        and inspect.signature(fn).return_annotation in ("Tensor", module.Tensor)
    )


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
