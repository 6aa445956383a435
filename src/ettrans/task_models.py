"""Small per-task models: a per-frame trunk plus a task head.

The trunk maps raw channels to per-frame features through a two-layer
perceptron and one causal lag-mixing layer, so features carry temporal
context. This module owns the task kind: the head for each kind (its
parameters, its graph and the readout of a prediction from its output) is
defined here once and reused, under another parameter prefix, as the
translator's decoder, and so are the kind's loss against dataset labels, its
metrics and the metric both training stages stop early on.
Models are trained in stage 1 and frozen afterwards; a frozen model's
parameters must survive any later training bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import metrics as metrics_mod
from . import nn_core as nn
from .errors import DimensionError
from .temporal_align import FrameSeq, whole_frames

if TYPE_CHECKING:  # synth_tasks imports this module's task kinds
    from .synth_tasks import TaskSpec

MIX_KERNEL = 4

KIND_BINARY = "binary"
KIND_LOCALIZATION = "localization"
KIND_SEQUENCE = "sequence"
TASK_KINDS = (KIND_BINARY, KIND_LOCALIZATION, KIND_SEQUENCE)


@dataclass
class TaskModel:
    """One task's model, shaped by its ``spec``: the trunk reads the fixed
    channel group ``spec.channels`` of a multichannel clip, over windows of
    the spec's native geometry; everything outside that group is invisible
    to it, the way a face model never sees the audio track."""

    spec: TaskSpec
    params: nn.ParamSet

    def __post_init__(self):
        whole_frames(self.spec.native_fps, self.spec.native_window_s, "native_window_s")

    @property
    def frozen(self) -> bool:
        return self.params.frozen

    def trunk_forward(self, window: FrameSeq) -> np.ndarray:
        """Per-frame features (no gradients) of one native-geometry window,
        or of a (windows x frames x channels) batch of them, each from its
        own causal start."""
        return self.trunk_graph(window, self.params.as_tensors(train=False)).value

    def trunk_graph(self, window: FrameSeq, leaves: dict[str, nn.Tensor]) -> nn.Tensor:
        """Trunk forward over a window or a batch of windows as a graph node."""
        self._check_window(window)
        return trunk_graph(nn.Tensor(window.values[..., list(self.spec.channels)]), leaves)

    def _check_window(self, window: FrameSeq) -> None:
        spec = self.spec
        frames = whole_frames(spec.native_fps, spec.native_window_s, "native_window_s")
        if window.fps != spec.native_fps or window.n_frames != frames:
            raise DimensionError(
                f"model {spec.task_id!r} expects {frames} frames "
                f"at {spec.native_fps} fps, got {window.n_frames} at {window.fps}"
            )
        if window.n_channels <= max(spec.channels):
            raise DimensionError(
                f"model {spec.task_id!r} reads channels {spec.channels}, "
                f"clip has only {window.n_channels}"
            )

    def checksum(self) -> str:
        return self.params.checksum()


def trunk_graph(x: nn.Tensor, leaves: dict[str, nn.Tensor]) -> nn.Tensor:
    h = nn.gelu(nn.linear(x, leaves["trunk/w1"], leaves["trunk/b1"]))
    h = nn.linear(h, leaves["trunk/w2"], leaves["trunk/b2"])
    return nn.causal_mix(h, leaves["trunk/mix"])


def head_graph(
    features: nn.Tensor,
    leaves: Mapping[str, nn.Tensor],
    kind: str,
    prefix: str = "head",
):
    """Head output for the per-frame features of one sample (frames x D) or
    of a (samples x frames x D) batch: one logit row per sample (binary), one
    score per frame (localization), or one (verb, noun) pair of logit rows
    per future step (sequence)."""
    if kind == KIND_BINARY:
        pooled = nn.mean_rows(features)
        return nn.linear(pooled, leaves[f"{prefix}/w"], leaves[f"{prefix}/b"])
    if kind == KIND_LOCALIZATION:
        return nn.linear(features, leaves[f"{prefix}/w"], leaves[f"{prefix}/b"])
    if kind == KIND_SEQUENCE:
        pooled = nn.mean_rows(features)
        steps = []
        z = 0
        while f"{prefix}/step{z}/verb_w" in leaves:
            step = f"{prefix}/step{z}"
            verb = nn.linear(pooled, leaves[f"{step}/verb_w"], leaves[f"{step}/verb_b"])
            noun = nn.linear(pooled, leaves[f"{step}/noun_w"], leaves[f"{step}/noun_b"])
            steps.append((verb, noun))
            z += 1
        return steps
    raise ValueError(f"unknown task kind: {kind!r}")


def add_head_params(
    params: nn.ParamSet,
    prefix: str,
    kind: str,
    width: int,
    rng: np.random.Generator,
    horizon: int = 0,
    n_verbs: int = 0,
    n_nouns: int = 0,
) -> None:
    """Add a fresh head over ``width``-wide features to ``params``; a
    sequence head's sizes are checked by the record it is made from."""
    def w(shape):
        return rng.normal(0.0, nn.WEIGHT_INIT_STD, size=shape)

    if kind in (KIND_BINARY, KIND_LOCALIZATION):
        params.add(f"{prefix}/w", w((width, 1)))
        params.add(f"{prefix}/b", np.zeros(1))
    elif kind == KIND_SEQUENCE:
        for z in range(horizon):
            params.add(f"{prefix}/step{z}/verb_w", w((width, n_verbs)))
            params.add(f"{prefix}/step{z}/verb_b", np.zeros(n_verbs))
            params.add(f"{prefix}/step{z}/noun_w", w((width, n_nouns)))
            params.add(f"{prefix}/step{z}/noun_b", np.zeros(n_nouns))
    else:
        raise ValueError(f"unknown task kind: {kind!r}")


def readout(kind: str, output, frame_times_s: np.ndarray) -> np.ndarray:
    """The predicted value of each sample in a head output, samples first:
    the logits, (samples,); the times of the earliest top-scoring frames,
    (samples,); or the argmax (verb, noun) of each step, (samples x horizon
    x 2)."""
    if kind == KIND_BINARY:
        return output.value.reshape(-1)
    if kind == KIND_LOCALIZATION:
        scores = output.value.reshape(-1, len(frame_times_s))
        return frame_times_s[np.argmax(scores, axis=1)]
    steps = [(np.argmax(v.value, axis=1), np.argmax(n.value, axis=1)) for v, n in output]
    return np.array(steps).transpose(2, 0, 1)


def localization_target_index(times_s, frame_times_s: np.ndarray) -> np.ndarray:
    """Index of the frame whose timestamp is nearest each labeled change time
    (the lowest one on a tie): one index per time in ``times_s``."""
    gaps = np.abs(np.asarray(frame_times_s) - np.asarray(times_s)[..., None])
    return np.argmin(gaps, axis=-1)


def loss(kind: str, output, labels, frame_times_s) -> nn.Tensor:
    """Summed training loss of the samples a head output holds, against their
    dataset labels, samples first: the classes (binary), the change times,
    each mapped to the nearest of the scored frames at ``frame_times_s``
    (localization), or the (horizon x 2) future pairs (sequence)."""
    if kind == KIND_BINARY:
        return nn.sigmoid_cross_entropy(output, labels)
    if kind == KIND_LOCALIZATION:
        return nn.softmax_cross_entropy(output, localization_target_index(labels, frame_times_s))
    if kind == KIND_SEQUENCE:
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


# Each task kind's early-stopping metric, a key of ``score_predictions``'s
# dict, and whether greater is better.
STOPPING_METRIC = {
    KIND_BINARY: ("accuracy", True),
    KIND_LOCALIZATION: ("localization_error_s", False),
    KIND_SEQUENCE: ("edit_distance_action", False),
}


def score_predictions(kind: str, preds: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """Every metric of a task kind for a batch of predictions, arrays shaped
    like ``readout``'s and the dataset's labels."""
    preds, labels = preds.tolist(), labels.tolist()
    if kind == KIND_BINARY:
        out = {"accuracy": metrics_mod.accuracy([int(p > 0) for p in preds], labels)}
        if any(labels) and not all(labels):
            out["map"] = metrics_mod.average_precision(preds, labels)
        return out
    if kind == KIND_LOCALIZATION:
        return {"localization_error_s": metrics_mod.mean_localization_error(preds, labels)}
    verb = noun = action = 0.0
    for pred_seq, true_seq in zip(preds, labels):
        ed = metrics_mod.edit_distance_at_z([pred_seq], true_seq)
        verb += ed.verb
        noun += ed.noun
        action += ed.action
    n = len(preds)
    return {
        "edit_distance_verb": verb / n,
        "edit_distance_noun": noun / n,
        "edit_distance_action": action / n,
    }


def init_task_model(spec: TaskSpec, rng: np.random.Generator) -> TaskModel:
    def w(shape):
        return rng.normal(0.0, nn.WEIGHT_INIT_STD, size=shape)

    params = nn.ParamSet()
    params.add("trunk/w1", w((len(spec.channels), spec.hidden)))
    params.add("trunk/b1", np.zeros(spec.hidden))
    params.add("trunk/w2", w((spec.hidden, spec.feature_dim)))
    params.add("trunk/b2", np.zeros(spec.feature_dim))
    mix = np.zeros(MIX_KERNEL)
    mix[0] = 1.0  # identity mixing at init
    params.add("trunk/mix", mix)

    add_head_params(
        params, "head", spec.kind, spec.feature_dim, rng, spec.horizon, spec.n_verbs, spec.n_nouns
    )
    return TaskModel(spec, params)


def freeze(model: TaskModel) -> TaskModel:
    """Mark a model immutable: no optimizer may touch its parameters again.
    Freezing an untrained model is allowed (frozen-random ablations)."""
    model.params.frozen = True
    return model
