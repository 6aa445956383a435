"""Two-stage training: task models on their own data, then the translator.

Stage 1 fits each task model independently on its native-geometry dataset.
Stage 2 optimizes translator parameters only, on the primary dataset: it reads
the features extracted from the frozen models and never the models
themselves, so no gradient path into them exists. Both stages share one Adam
loop with early stopping on a validation metric.

A split stays stacked throughout: stage 1 reads a dataset's
(samples x frames x channels) clips, stage 2 one (samples x frames x
feature_dim) array per task plus the primary labels. A minibatch is an index
vector into the split, and a graph reads its samples' rows by that vector.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import metrics as metrics_mod
from . import nn_core as nn
from . import task_models as tm
from . import translator as tr
from .errors import ContractViolationError, TrainingDivergedError
from .synth_tasks import SyntheticDataset
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
    """Adam accumulators, laid out like one ParamSet's flat ``values``, and
    the hyperparameters that drive them."""

    hyper: TrainHyper
    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def for_params(cls, params: nn.ParamSet, hyper: TrainHyper) -> "OptimState":
        return cls(hyper, 0, np.zeros_like(params.values), np.zeros_like(params.values))


def optimizer_step(
    params: nn.ParamSet, grad: np.ndarray, state: OptimState
) -> tuple[nn.ParamSet, OptimState]:
    """One Adam update of the whole set from its flat gradient ``grad``, in
    place. A frozen set, or a gradient not shaped like ``params.values``, is
    a caller bug and raises."""
    if params.frozen:
        raise ContractViolationError("optimizer_step on a frozen parameter set")
    if grad.shape != params.values.shape:
        raise ValueError(f"gradient of shape {grad.shape} for {params.values.shape} parameters")
    hyper = state.hyper
    state.step += 1
    t = state.step
    bias1 = 1.0 - hyper.beta1**t
    bias2 = 1.0 - hyper.beta2**t
    state.m = hyper.beta1 * state.m + (1.0 - hyper.beta1) * grad
    state.v = hyper.beta2 * state.v + (1.0 - hyper.beta2) * (grad * grad)
    m_hat = state.m / bias1
    v_hat = state.v / bias2
    params.values -= hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
    return params, state


# ---------------------------------------------------------------------------
# losses


def batch_loss(output, labels, kind: str) -> nn.Tensor:
    """Summed training loss of the samples a head output of the given task
    kind holds, against their labels, samples first; a localization label is
    the target frame index, a sequence label the (horizon x 2) future pairs."""
    if kind == tm.KIND_BINARY:
        return nn.sigmoid_cross_entropy(output, labels)
    if kind == tm.KIND_LOCALIZATION:
        return nn.softmax_cross_entropy(output, labels)
    if kind == tm.KIND_SEQUENCE:
        labels = np.asarray(labels)
        if labels.shape[1:] != (len(output), 2):
            raise ValueError(f"{len(output)} predicted steps for labels of shape {labels.shape}")
        total = None
        for z, (verb_logits, noun_logits) in enumerate(output):
            term = nn.add(
                nn.softmax_cross_entropy(verb_logits, labels[:, z, 0]),
                nn.softmax_cross_entropy(noun_logits, labels[:, z, 1]),
            )
            total = term if total is None else nn.add(total, term)
        return nn.scale(total, 1.0 / (2.0 * len(output)))
    raise ValueError(f"unknown task kind: {kind!r}")


def localization_target_index(times_s, frame_times_s: np.ndarray) -> np.ndarray:
    """Index of the frame whose timestamp is nearest each labeled change time
    (the lowest one on a tie): one index per time in ``times_s``."""
    gaps = np.abs(np.asarray(frame_times_s) - np.asarray(times_s)[..., None])
    return np.argmin(gaps, axis=-1)


def _label_loss(output, labels: np.ndarray, kind: str, frame_times_s: np.ndarray) -> nn.Tensor:
    """``batch_loss`` against dataset labels; ``frame_times_s`` are the times
    of the frames a localization head scored in each sample."""
    if kind == tm.KIND_LOCALIZATION:
        labels = localization_target_index(labels, frame_times_s)
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
        return {**asdict(self), "best_val_metric": self.best_val_metric}


def _improved(candidate: float, best: float, greater_is_better: bool) -> bool:
    return candidate > best if greater_is_better else candidate < best


LossTerms = Callable[[np.ndarray, dict[str, nn.Tensor]], Iterable[nn.Tensor]]


def _train_step(
    params: nn.ParamSet, build_loss: LossTerms, idx: np.ndarray, state: OptimState, where: str
) -> float:
    """One Adam update on the mean loss of the minibatch ``idx``: backpropagate
    every term ``build_loss`` yields, then step. Returns the summed loss."""
    leaves = params.as_tensors()
    total = 0.0
    for term in build_loss(idx, leaves):
        value = float(term.value)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"non-finite loss {value} {where}")
        total += value
        term.backward()
    optimizer_step(params, leaves.grad / len(idx), state)
    return total


def fit(
    params: nn.ParamSet,
    n_train: int,
    build_loss: LossTerms,
    evaluate: Callable[[nn.ParamSet], tuple[float, float]],
    metric_name: str,
    greater_is_better: bool,
    hyper: TrainHyper,
    seed: int,
) -> TrainReport:
    """Minibatch Adam with early stopping; restores the best-epoch parameters.

    Each epoch draws one seeded permutation of the ``n_train`` training
    samples and cuts it into minibatches of ``hyper.batch_size`` indices.
    ``build_loss`` maps (minibatch indices, leaves) to the minibatch's loss
    terms: scalar graph nodes whose values sum to its summed loss.
    ``evaluate`` returns (mean loss, metric) on the validation split at the
    current parameters.
    """
    t_start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    state = OptimState.for_params(params, hyper)
    report = TrainReport(seed=seed, metric_name=metric_name, greater_is_better=greater_is_better)
    best_metric = -np.inf if greater_is_better else np.inf
    best_values: np.ndarray | None = None
    since_best = 0

    for epoch in range(hyper.max_epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for lo in range(0, n_train, hyper.batch_size):
            idx = order[lo : lo + hyper.batch_size]
            where = f"at epoch {epoch}, step {lo // hyper.batch_size}"
            epoch_loss += _train_step(params, build_loss, idx, state, where)
        report.train_losses.append(epoch_loss / n_train)

        val_loss, val_metric = evaluate(params)
        report.val_losses.append(val_loss)
        report.val_metrics.append(val_metric)
        if _improved(val_metric, best_metric, greater_is_better):
            best_metric = val_metric
            best_values = params.values.copy()
            report.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
        if since_best > hyper.patience:
            break

    report.stopped_epoch = len(report.train_losses) - 1
    if best_values is not None:
        params.values[...] = best_values
    report.wall_clock_s = time.perf_counter() - t_start
    return report


def run_steps(
    params: nn.ParamSet,
    n_samples: int,
    build_loss: LossTerms,
    n_steps: int,
    hyper: TrainHyper,
) -> list[float]:
    """Full-batch updates over all ``n_samples`` samples without validation;
    returns the per-step mean loss.

    Capacity sanity harness: how fast can this parameter set drive its
    training loss down on a tiny memorization set.
    """
    state = OptimState.for_params(params, hyper)
    idx = np.arange(n_samples)
    losses = []
    for step in range(n_steps):
        total = _train_step(params, build_loss, idx, state, f"at step {step}")
        losses.append(total / n_samples)
    return losses


# ---------------------------------------------------------------------------
# forward, loss and readout shared by both stages
#
# A stage's ``forward(idx, leaves)`` runs one graph over the samples of one
# split at the indices ``idx`` and returns (head output, times of each
# sample's scored frames, labels); the loss and the predictions are read from
# that one output. Stage 1 runs a whole minibatch per graph (validation in
# minibatch-sized graphs), stage 2 groups of samples capped by token count
# (``_stage2_graph_samples``).


def _chunks(idx: np.ndarray, size: int | None):
    """Consecutive runs of ``size`` indices; None keeps them in one run."""
    size = size or len(idx)
    return (idx[lo : lo + size] for lo in range(0, len(idx), size))


def _build_loss(kind: str, forward: Callable, graph_samples: int | None) -> LossTerms:
    """Loss terms of a minibatch: one per graph of ``graph_samples`` samples,
    or one for the whole minibatch if None."""

    def build_loss(idx, leaves):
        for part in _chunks(idx, graph_samples):
            output, frame_times_s, labels = forward(part, leaves)
            yield _label_loss(output, labels, kind, frame_times_s)

    return build_loss


def _predictions(
    n_samples: int, leaves, kind: str, forward: Callable, graph_samples: int | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Predictions, labels and mean loss over every sample of a split."""
    preds, labels = [], []
    total_loss = 0.0
    for part in _chunks(np.arange(n_samples), graph_samples):
        output, frame_times_s, part_labels = forward(part, leaves)
        total_loss += float(_label_loss(output, part_labels, kind, frame_times_s).value)
        preds.append(tm.readout(kind, output, frame_times_s))
        labels.append(part_labels)
    return np.concatenate(preds), np.concatenate(labels), total_loss / n_samples


def _metric_for_kind(kind: str) -> tuple[str, bool]:
    if kind == tm.KIND_BINARY:
        return "accuracy", True
    if kind == tm.KIND_LOCALIZATION:
        return "localization_error_s", False
    return "edit_distance_action", False


def _score_predictions(
    kind: str, preds: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, float]]:
    """Headline metric plus a full metric dict for a batch of predictions,
    arrays shaped like ``tm.readout``'s and the dataset's labels."""
    preds, labels = preds.tolist(), labels.tolist()
    if kind == tm.KIND_BINARY:
        acc = metrics_mod.accuracy([int(p > 0) for p in preds], labels)
        out = {"accuracy": acc}
        if any(labels) and not all(labels):
            out["map"] = metrics_mod.average_precision(preds, labels)
        return acc, out
    if kind == tm.KIND_LOCALIZATION:
        err = metrics_mod.mean_localization_error(preds, labels)
        return err, {"localization_error_s": err}
    verb = noun = action = 0.0
    for pred_seq, true_seq in zip(preds, labels):
        ed = metrics_mod.edit_distance_at_z([pred_seq], true_seq)
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


def _stage1_forward(model: tm.TaskModel, dataset: SyntheticDataset) -> Callable:
    """Trunk and head over a batch of a native-geometry dataset's indexed
    clips, each clip from its own causal start."""
    clips = dataset.clips
    labels = dataset.task_labels(model.task_id)

    def forward(idx, leaves):
        batch = FrameSeq(clips.values[idx], fps=clips.fps, duration_s=clips.duration_s)
        output = tm.head_graph(model.trunk_graph(batch, leaves), leaves, model.kind)
        return output, clips.frame_times(), labels[idx]

    return forward


def stage1_build_loss(model: tm.TaskModel, dataset: SyntheticDataset) -> LossTerms:
    """One summed loss term per minibatch of ``dataset``, from one graph over
    all of it."""
    return _build_loss(model.kind, _stage1_forward(model, dataset), None)


def train_stage1(
    model: tm.TaskModel,
    train_set: SyntheticDataset,
    val_set: SyntheticDataset,
    hyper: TrainHyper,
    seed: int,
) -> TrainReport:
    """Fit one task model on its own dataset."""
    metric_name, greater = _metric_for_kind(model.kind)
    val_forward = _stage1_forward(model, val_set)

    def evaluate(params):
        preds, labels, mean_loss = _predictions(
            val_set.n_samples, params.as_tensors(train=False), model.kind, val_forward,
            hyper.batch_size,
        )
        metric, _ = _score_predictions(model.kind, preds, labels)
        return mean_loss, metric

    return fit(
        model.params,
        train_set.n_samples,
        stage1_build_loss(model, train_set),
        evaluate,
        metric_name,
        greater,
        hyper,
        seed,
    )


# ---------------------------------------------------------------------------
# stage 2


# A stage-2 split: each task's features over every sample, stacked
# (samples x frames x feature_dim), and the primary labels, samples first.
Stage2Split = tuple[Mapping[str, FeatureSequence], np.ndarray]

# Tokens per stage-2 graph. Attention memory grows with samples x tokens^2,
# so a graph holds as many samples as fit in this many tokens, at least one.
_STAGE2_GRAPH_TOKENS = 128


def _stage2_graph_samples(config: tr.TranslatorConfig) -> int:
    return max(1, _STAGE2_GRAPH_TOKENS // config.total_tokens)


def _stage2_forward(config: tr.TranslatorConfig, split: Stage2Split) -> Callable:
    features, labels = split[0], np.asarray(split[1])
    frame_times_s = features[config.primary_task_id].frame_times_s

    def forward(idx, leaves):
        group = {t: features[t].values[idx] for t in config.task_ids}
        output = tr.translate(group, leaves, config)
        return output, frame_times_s, labels[idx]

    return forward


def stage2_build_loss(config: tr.TranslatorConfig, split: Stage2Split) -> LossTerms:
    """One summed loss term per group of ``_stage2_graph_samples`` samples of
    ``split``."""
    return _build_loss(
        config.decoder_kind, _stage2_forward(config, split), _stage2_graph_samples(config)
    )


def stage2_predictions(
    split: Stage2Split, params: nn.ParamSet, config: tr.TranslatorConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Forward every sample without gradients; returns preds, labels, mean loss."""
    return _predictions(
        len(split[1]),
        params.as_tensors(train=False),
        config.decoder_kind,
        _stage2_forward(config, split),
        _stage2_graph_samples(config),
    )


def evaluate_stage2(
    split: Stage2Split, params: nn.ParamSet, config: tr.TranslatorConfig
) -> dict[str, float]:
    preds, labels, mean_loss = stage2_predictions(split, params, config)
    _, metric_dict = _score_predictions(config.decoder_kind, preds, labels)
    metric_dict["loss"] = mean_loss
    return metric_dict


def train_stage2(
    train: Stage2Split,
    val: Stage2Split,
    config: tr.TranslatorConfig,
    hyper: TrainHyper,
    seed: int,
) -> tuple[nn.ParamSet, TrainReport]:
    """Optimize translator parameters against the primary labels of ``train``,
    stopping early on ``val``. Only features and labels are read; keeping the
    task models that produced the features unchanged is the caller's check
    (``harness.run_arm_seed``)."""
    params = tr.init_translator_params(
        config, np.random.default_rng(np.random.SeedSequence([seed, 0x7A51]))
    )
    metric_name, greater = _metric_for_kind(config.decoder_kind)

    def evaluate(current_params):
        preds, labels, mean_loss = stage2_predictions(val, current_params, config)
        metric, _ = _score_predictions(config.decoder_kind, preds, labels)
        return mean_loss, metric

    return params, fit(
        params,
        len(train[1]),
        stage2_build_loss(config, train),
        evaluate,
        metric_name,
        greater,
        hyper,
        seed,
    )
