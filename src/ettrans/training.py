"""Two-stage training: task models on their own data, then the translator.

Stage 1 fits each task model independently on its native-geometry dataset.
Stage 2 optimizes translator parameters only, on the primary dataset: it reads
the features extracted from the frozen models and never the models
themselves, so no gradient path into them exists. Both stages fit and
validate through one path, ``fit``: Adam, early-stopped on their task kind's
metric. Each kind's loss, metrics and stopping metric come from
``task_models``; nothing here branches on a kind.

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


def optimizer_step(params: nn.ParamSet, grad: np.ndarray, state: OptimState) -> None:
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


def fit(
    params: nn.ParamSet,
    n_train: int,
    build_loss: LossTerms,
    kind: str,
    val_predictions: Callable[[nn.ParamSet], tuple[np.ndarray, np.ndarray, float]],
    hyper: TrainHyper,
    seed: int,
) -> TrainReport:
    """Minibatch Adam, stopped early on ``kind``'s metric; restores the
    best-epoch parameters.

    Each epoch draws one seeded permutation of the ``n_train`` training
    samples and cuts it into minibatches of ``hyper.batch_size`` indices.
    ``build_loss`` maps (minibatch indices, leaves) to the minibatch's loss
    terms: scalar graph nodes whose values sum to its summed loss.
    ``val_predictions`` returns the predictions, labels and mean loss of the
    validation split at the current parameters.
    """
    t_start = time.perf_counter()
    metric_name, greater_is_better = tm.STOPPING_METRIC[kind]
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
            # one Adam update on the minibatch's mean loss: backpropagate
            # every term, then step
            leaves = params.as_tensors()
            step_loss = 0.0
            for term in build_loss(idx, leaves):
                value = float(term.value)
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss {value} at epoch {epoch}, step {lo // hyper.batch_size}"
                    )
                step_loss += value
                term.backward()
            optimizer_step(params, leaves.grad / len(idx), state)
            del leaves, term  # free this step's graph before validation or the next step
            epoch_loss += step_loss
        report.train_losses.append(epoch_loss / n_train)

        preds, labels, val_loss = val_predictions(params)
        val_metric = tm.score_predictions(kind, preds, labels)[metric_name]
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


# ---------------------------------------------------------------------------
# forward, loss and readout shared by both stages
#
# A stage's ``forward(idx, leaves)`` runs one graph over the samples of one
# split at the indices ``idx`` and returns (head output, times of each
# sample's scored frames, labels); the loss and the predictions are read from
# that one output. Stage 1 runs a whole minibatch per graph (validation in
# minibatch-sized graphs), stage 2 groups of samples capped by token count
# (``_stage2_graph_samples``).


def _chunks(idx: np.ndarray, size: int):
    """Consecutive runs of ``size`` indices."""
    return (idx[lo : lo + size] for lo in range(0, len(idx), size))


def _build_loss(kind: str, forward: Callable, graph_samples: int) -> LossTerms:
    """Loss terms of a minibatch: one per graph of ``graph_samples`` samples."""

    def build_loss(idx, leaves):
        for part in _chunks(idx, graph_samples):
            output, frame_times_s, labels = forward(part, leaves)
            yield tm.loss(kind, output, labels, frame_times_s)

    return build_loss


def _predictions(
    n_samples: int, params: nn.ParamSet, kind: str, forward: Callable, graph_samples: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Predictions, labels and mean loss over a whole split, without gradients."""
    leaves = params.as_tensors(train=False)
    preds, labels = [], []
    total_loss = 0.0
    for part in _chunks(np.arange(n_samples), graph_samples):
        output, frame_times_s, part_labels = forward(part, leaves)
        total_loss += float(tm.loss(kind, output, part_labels, frame_times_s).value)
        preds.append(tm.readout(kind, output, frame_times_s))
        labels.append(part_labels)
    return np.concatenate(preds), np.concatenate(labels), total_loss / n_samples


# ---------------------------------------------------------------------------
# stage 1


def _stage1_forward(model: tm.TaskModel, dataset: SyntheticDataset) -> Callable:
    """Trunk and head over a batch of a native-geometry dataset's indexed
    clips, each clip from its own causal start."""
    clips = dataset.clips
    labels = dataset.labels[model.spec.task_id]

    def forward(idx, leaves):
        batch = FrameSeq(clips.values[idx], fps=clips.fps, duration_s=clips.duration_s)
        output = tm.head_graph(model.trunk_graph(batch, leaves), leaves, model.spec.kind)
        return output, clips.frame_times(), labels[idx]

    return forward


def stage1_build_loss(model: tm.TaskModel, dataset: SyntheticDataset) -> LossTerms:
    """One summed loss term per minibatch of ``dataset``, from one graph over
    all of it."""
    return _build_loss(model.spec.kind, _stage1_forward(model, dataset), dataset.n_samples)


def train_stage1(
    model: tm.TaskModel,
    train_set: SyntheticDataset,
    val_set: SyntheticDataset,
    hyper: TrainHyper,
    seed: int,
) -> TrainReport:
    """Fit one task model on its own dataset."""
    val_forward = _stage1_forward(model, val_set)
    return fit(
        model.params,
        train_set.n_samples,
        stage1_build_loss(model, train_set),
        model.spec.kind,
        lambda params: _predictions(
            val_set.n_samples, params, model.spec.kind, val_forward, hyper.batch_size
        ),
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
        params,
        config.decoder_kind,
        _stage2_forward(config, split),
        _stage2_graph_samples(config),
    )


def evaluate_stage2(
    split: Stage2Split, params: nn.ParamSet, config: tr.TranslatorConfig
) -> dict[str, float]:
    preds, labels, mean_loss = stage2_predictions(split, params, config)
    return {**tm.score_predictions(config.decoder_kind, preds, labels), "loss": mean_loss}


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
    return params, fit(
        params,
        len(train[1]),
        stage2_build_loss(config, train),
        config.decoder_kind,
        lambda current_params: stage2_predictions(val, current_params, config),
        hyper,
        seed,
    )
