"""Two-stage training: task models on their own data, then the translator.

Stage 1 fits each task model independently on its native-geometry dataset.
Stage 2 freezes every task model and optimizes translator parameters only, on
the primary dataset; the frozen models contribute constant features, so no
gradient path into them exists. Both stages share one Adam loop with early
stopping on a validation metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import nn_core as nn
from . import task_models as tm
from . import translator as tr
from .errors import ContractViolationError, TrainingDivergedError
from .synth_tasks import LocalizationLabel, SyntheticDataset
from .temporal_align import FeatureSequence, FrameSeq


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10


@dataclass
class OptimState:
    """Adam accumulators, mirroring the trainable parameters of one ParamSet."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: nn.ParamSet, hyper: TrainHyper) -> "OptimState":
        return cls(
            lr=hyper.lr,
            beta1=hyper.beta1,
            beta2=hyper.beta2,
            eps=hyper.eps,
            step=0,
            m={n: np.zeros_like(params[n].value) for n in params.trainable_names()},
            v={n: np.zeros_like(params[n].value) for n in params.trainable_names()},
        )


def optimizer_step(
    params: nn.ParamSet, grads: Mapping[str, np.ndarray], state: OptimState
) -> tuple[nn.ParamSet, OptimState]:
    """One Adam update over exactly the trainable parameters.

    Frozen parameters are never touched; a gradient entry for anything else,
    or a missing one, is a caller bug and raises.
    """
    trainable = params.trainable_names()
    missing = [n for n in trainable if n not in grads]
    extra = [n for n in grads if n not in trainable]
    if missing or extra:
        raise ValueError(f"gradient keys mismatch: missing={missing}, extra={extra}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for name in trainable:
        g = grads[name]
        p = params[name]
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        p.value = p.value - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# losses


def batch_loss(output, labels: Sequence, kind: str) -> nn.Tensor:
    """Summed training loss of the samples a head output of the given task
    kind holds, one label each; a localization label is the target frame
    index."""
    if kind == tm.KIND_BINARY:
        return nn.sigmoid_cross_entropy(output, [float(label) for label in labels])
    if kind == tm.KIND_LOCALIZATION:
        return nn.softmax_cross_entropy(output, [int(label) for label in labels])
    if kind == tm.KIND_SEQUENCE:
        for label in labels:
            if len(output) != len(label):
                raise ValueError(f"{len(output)} predicted steps for {len(label)} labels")
        total = None
        for z, (verb_logits, noun_logits) in enumerate(output):
            term = nn.add(
                nn.softmax_cross_entropy(verb_logits, [label[z][0] for label in labels]),
                nn.softmax_cross_entropy(noun_logits, [label[z][1] for label in labels]),
            )
            total = term if total is None else nn.add(total, term)
        return nn.scale(total, 1.0 / (2.0 * len(output)))
    raise ValueError(f"unknown task kind: {kind!r}")


def localization_target_index(label: LocalizationLabel, frame_times_s: np.ndarray) -> int:
    """Index of the frame whose timestamp is nearest the labeled change time."""
    return int(np.argmin(np.abs(np.asarray(frame_times_s) - label.time_s)))


def _label_loss(output, labels: Sequence, kind: str, frame_times_s: np.ndarray) -> nn.Tensor:
    """``batch_loss`` against dataset labels; ``frame_times_s`` are the times
    of the frames a localization head scored in each sample."""
    if kind == tm.KIND_LOCALIZATION:
        labels = [localization_target_index(label, frame_times_s) for label in labels]
    return batch_loss(output, labels, kind)


# ---------------------------------------------------------------------------
# generic fit loop


@dataclass
class TrainReport:
    seed: int
    metric_name: str
    greater_is_better: bool
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_metrics: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1
    wall_clock_s: float = 0.0

    @property
    def best_val_metric(self) -> float | None:
        """The best epoch's validation metric; None if no epoch improved on
        the starting best (e.g. a NaN metric in every epoch)."""
        return self.val_metrics[self.best_epoch] if self.best_epoch >= 0 else None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "metric_name": self.metric_name,
            "greater_is_better": self.greater_is_better,
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "val_metrics": self.val_metrics,
            "best_epoch": self.best_epoch,
            "stopped_epoch": self.stopped_epoch,
            "best_val_metric": self.best_val_metric,
            "wall_clock_s": self.wall_clock_s,
        }


def _improved(candidate: float, best: float, greater_is_better: bool) -> bool:
    return candidate > best if greater_is_better else candidate < best


LossTerms = Callable[[list, dict[str, nn.Tensor]], Iterable[nn.Tensor]]


def _backward_terms(build_loss: LossTerms, batch: list, leaves, where: str) -> float:
    """Backpropagate every loss term ``build_loss`` yields for one minibatch
    into ``leaves``; returns their summed value."""
    total = 0.0
    for term in build_loss(batch, leaves):
        value = float(term.value)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"non-finite loss {value} {where}")
        total += value
        term.backward()
    return total


def fit(
    params: nn.ParamSet,
    train_samples: Sequence,
    val_samples: Sequence,
    build_loss: LossTerms,
    evaluate: Callable[[Sequence, nn.ParamSet], tuple[float, float]],
    metric_name: str,
    greater_is_better: bool,
    hyper: TrainHyper,
    seed: int,
) -> TrainReport:
    """Minibatch Adam with early stopping; restores the best-epoch parameters.

    ``build_loss`` maps (minibatch, leaves) to the minibatch's loss terms:
    scalar graph nodes whose values sum to the minibatch's summed loss.
    ``evaluate`` returns (mean loss, metric) for a sample set at the current
    parameters.
    """
    t_start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    state = OptimState.for_params(params, hyper)
    report = TrainReport(seed=seed, metric_name=metric_name, greater_is_better=greater_is_better)
    best_metric = -np.inf if greater_is_better else np.inf
    best_values: dict[str, np.ndarray] | None = None
    since_best = 0
    n = len(train_samples)

    for epoch in range(hyper.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, hyper.batch_size):
            batch = [train_samples[idx] for idx in order[lo : lo + hyper.batch_size]]
            leaves = params.as_tensors()
            where = f"at epoch {epoch}, step {lo // hyper.batch_size}"
            epoch_loss += _backward_terms(build_loss, batch, leaves, where)
            grads = {
                name: g / len(batch) for name, g in nn.collect_grads(leaves).items()
            }
            optimizer_step(params, grads, state)
        report.train_losses.append(epoch_loss / n)

        val_loss, val_metric = evaluate(val_samples, params)
        report.val_losses.append(val_loss)
        report.val_metrics.append(val_metric)
        if _improved(val_metric, best_metric, greater_is_better):
            best_metric = val_metric
            best_values = params.values_copy()
            report.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
        if since_best > hyper.patience:
            break

    report.stopped_epoch = len(report.train_losses) - 1
    if best_values is not None:
        params.load(best_values)
    report.wall_clock_s = time.perf_counter() - t_start
    return report


def run_steps(
    params: nn.ParamSet,
    samples: Sequence,
    build_loss: LossTerms,
    n_steps: int,
    hyper: TrainHyper,
) -> list[float]:
    """Full-batch updates without validation; returns the per-step mean loss.

    Capacity sanity harness: how fast can this parameter set drive its
    training loss down on a tiny memorization set.
    """
    state = OptimState.for_params(params, hyper)
    losses = []
    for step in range(n_steps):
        leaves = params.as_tensors()
        total = _backward_terms(build_loss, samples, leaves, f"at step {step}")
        grads = {name: g / len(samples) for name, g in nn.collect_grads(leaves).items()}
        optimizer_step(params, grads, state)
        losses.append(total / len(samples))
    return losses


# ---------------------------------------------------------------------------
# forward, loss and readout shared by both stages
#
# A stage's ``forward(samples, leaves)`` runs one graph over a list of
# samples and returns (head output, times of each sample's scored frames,
# labels); the loss and the predictions are read from that one output. Stage
# 1 runs a whole minibatch per graph (validation in minibatch-sized graphs),
# stage 2 groups of samples capped by token count (``_stage2_graph_samples``).


def _chunks(samples: Sequence, size: int | None):
    """Consecutive runs of ``size`` samples; None keeps them in one run."""
    size = size or len(samples)
    return (list(samples[lo : lo + size]) for lo in range(0, len(samples), size))


def _build_loss(kind: str, forward: Callable, graph_samples: int | None) -> LossTerms:
    """Loss terms of a minibatch: one per graph of ``graph_samples`` samples,
    or one for the whole minibatch if None."""

    def build_loss(batch, leaves):
        for part in _chunks(batch, graph_samples):
            output, frame_times_s, labels = forward(part, leaves)
            yield _label_loss(output, labels, kind, frame_times_s)

    return build_loss


def _predictions(
    samples: Sequence, leaves, kind: str, forward: Callable, graph_samples: int | None
) -> tuple[list, list, float]:
    preds, labels = [], []
    total_loss = 0.0
    for part in _chunks(samples, graph_samples):
        output, frame_times_s, part_labels = forward(part, leaves)
        total_loss += float(_label_loss(output, part_labels, kind, frame_times_s).value)
        preds.extend(tm.readout(kind, output, frame_times_s))
        labels.extend(part_labels)
    return preds, labels, total_loss / len(samples)


def _metric_for_kind(kind: str) -> tuple[str, bool]:
    if kind == tm.KIND_BINARY:
        return "accuracy", True
    if kind == tm.KIND_LOCALIZATION:
        return "localization_error_s", False
    return "edit_distance_action", False


def _score_predictions(kind: str, preds: list, labels: list) -> tuple[float, dict[str, float]]:
    """Headline metric plus a full metric dict for a batch of predictions."""
    if kind == tm.KIND_BINARY:
        logits = np.array([p for p in preds])
        classes = (logits > 0).astype(int).tolist()
        acc = metrics_mod.accuracy(classes, labels)
        out = {"accuracy": acc}
        if any(labels) and not all(labels):
            out["map"] = metrics_mod.average_precision(logits.tolist(), labels)
        return acc, out
    if kind == tm.KIND_LOCALIZATION:
        err = metrics_mod.mean_localization_error(
            [p for p in preds], [lab.time_s for lab in labels]
        )
        return err, {"localization_error_s": err}
    verb = noun = action = 0.0
    for pred_seq, true_seq in zip(preds, labels):
        ed = metrics_mod.edit_distance_at_z([pred_seq], list(true_seq))
        verb += ed.verb
        noun += ed.noun
        action += ed.action
    n = len(preds)
    return action / n, {
        "edit_distance_verb": verb / n,
        "edit_distance_noun": noun / n,
        "edit_distance_action": action / n,
    }


# ---------------------------------------------------------------------------
# stage 1


def _stage1_samples(dataset: SyntheticDataset, task_id: str) -> list[tuple[FrameSeq, object]]:
    return list(zip(dataset.clips, dataset.task_labels(task_id)))


def _stage1_forward(model: tm.TaskModel) -> Callable:
    """Trunk and head over native-geometry clips stacked along the frame
    axis, each clip from its own causal start."""

    def forward(samples, leaves):
        clips, labels = zip(*samples)
        first = clips[0]
        stacked = FrameSeq(
            np.concatenate([clip.values for clip in clips]),
            fps=first.fps,
            duration_s=len(clips) * first.duration_s,
        )
        features = model.trunk_graph(stacked, leaves, len(clips))
        output = model.head_forward(features, leaves, len(clips))
        return output, first.frame_times(), list(labels)

    return forward


def stage1_build_loss(model: tm.TaskModel) -> LossTerms:
    """One summed loss term per minibatch, from one graph over all of it."""
    return _build_loss(model.kind, _stage1_forward(model), None)


def train_stage1(
    model: tm.TaskModel,
    train_set: SyntheticDataset,
    val_set: SyntheticDataset,
    hyper: TrainHyper,
    seed: int,
) -> TrainReport:
    """Fit one task model on its own dataset; marks it stage-1 complete."""
    task_id = model.task_id
    train_samples = _stage1_samples(train_set, task_id)
    val_samples = _stage1_samples(val_set, task_id)
    metric_name, greater = _metric_for_kind(model.kind)
    forward = _stage1_forward(model)

    def evaluate(samples, params):
        preds, labels, mean_loss = _predictions(
            samples, params.as_tensors(train=False), model.kind, forward, hyper.batch_size
        )
        metric, _ = _score_predictions(model.kind, preds, labels)
        return mean_loss, metric

    report = fit(
        model.params,
        train_samples,
        val_samples,
        stage1_build_loss(model),
        evaluate,
        metric_name,
        greater,
        hyper,
        seed,
    )
    model.stage1_complete = True
    return report


# ---------------------------------------------------------------------------
# stage 2


Stage2Sample = tuple[dict[str, FeatureSequence], object]

# Tokens per stage-2 graph. Attention memory grows with samples x tokens^2,
# so a graph holds as many samples as fit in this many tokens, at least one.
_STAGE2_GRAPH_TOKENS = 128


def _stage2_graph_samples(config: tr.TranslatorConfig) -> int:
    return max(1, _STAGE2_GRAPH_TOKENS // config.total_tokens)


def _stage2_forward(config: tr.TranslatorConfig) -> Callable:
    def forward(samples: list[Stage2Sample], leaves):
        features, labels = zip(*samples)
        output = tr.translate(features, leaves, config)
        return output, features[0][config.primary_task_id].frame_times_s, list(labels)

    return forward


def stage2_build_loss(config: tr.TranslatorConfig) -> LossTerms:
    """One summed loss term per group of ``_stage2_graph_samples`` samples."""
    return _build_loss(
        config.decoder_kind, _stage2_forward(config), _stage2_graph_samples(config)
    )


def stage2_predictions(
    samples: Sequence[Stage2Sample], params: nn.ParamSet, config: tr.TranslatorConfig
) -> tuple[list, list, float]:
    """Forward every sample without gradients; returns preds, labels, mean loss."""
    return _predictions(
        samples,
        params.as_tensors(train=False),
        config.decoder_kind,
        _stage2_forward(config),
        _stage2_graph_samples(config),
    )


def evaluate_stage2(
    samples: Sequence[Stage2Sample], params: nn.ParamSet, config: tr.TranslatorConfig
) -> dict[str, float]:
    preds, labels, mean_loss = stage2_predictions(samples, params, config)
    _, metric_dict = _score_predictions(config.decoder_kind, preds, labels)
    metric_dict["loss"] = mean_loss
    return metric_dict


def train_stage2(
    train_samples: Sequence[Stage2Sample],
    val_samples: Sequence[Stage2Sample],
    config: tr.TranslatorConfig,
    models: Mapping[str, tm.TaskModel],
    hyper: TrainHyper,
    seed: int,
) -> tuple[nn.ParamSet, TrainReport, dict[str, str]]:
    """Optimize translator parameters against the primary dataset.

    Every task model must already be frozen; their parameter checksums are
    captured before and verified after training, and the report carries the
    verification result.
    """
    for task_id in config.task_ids:
        model = models.get(task_id)
        if model is None:
            raise ContractViolationError(f"no task model for {task_id!r}")
        if not model.frozen:
            raise ContractViolationError(
                f"task model {task_id!r} must be frozen before stage 2"
            )
    checksums_before = {t: models[t].checksum() for t in config.task_ids}

    params = tr.init_translator_params(
        config, np.random.default_rng(np.random.SeedSequence([seed, 0x7A51]))
    )
    metric_name, greater = _metric_for_kind(config.decoder_kind)

    def evaluate(samples, current_params):
        preds, labels, mean_loss = stage2_predictions(samples, current_params, config)
        metric, _ = _score_predictions(config.decoder_kind, preds, labels)
        return mean_loss, metric

    report = fit(
        params,
        train_samples,
        val_samples,
        stage2_build_loss(config),
        evaluate,
        metric_name,
        greater,
        hyper,
        seed,
    )

    checksums_after = {t: models[t].checksum() for t in config.task_ids}
    if checksums_after != checksums_before:
        changed = [t for t in checksums_before if checksums_before[t] != checksums_after[t]]
        raise ContractViolationError(
            f"frozen task models changed during stage 2: {changed}"
        )
    return params, report, checksums_before
