"""Small per-task models: a per-frame trunk plus a task head.

The trunk maps raw channels to per-frame features through a two-layer
perceptron and one causal lag-mixing layer, so features carry temporal
context. This module owns the task kind: the head for each kind (its
parameters, its graph and the readout of a prediction from its output) is
defined here once and reused, under another parameter prefix, as the
translator's decoder.
Models are trained in stage 1 and frozen afterwards; a frozen model's
parameters must survive any later training bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import nn_core as nn
from .errors import DimensionError
from .temporal_align import FrameSeq, whole_frames

MIX_KERNEL = 4

KIND_BINARY = "binary"
KIND_LOCALIZATION = "localization"
KIND_SEQUENCE = "sequence"
TASK_KINDS = (KIND_BINARY, KIND_LOCALIZATION, KIND_SEQUENCE)


@dataclass
class TaskModel:
    """One task's model. ``channels`` is the fixed input slice its trunk reads
    from a multichannel clip; everything outside that group is invisible to
    it, the way a face model never sees the audio track."""

    task_id: str
    kind: str
    native_fps: float
    native_window_s: float
    channels: tuple[int, ...]
    feature_dim: int
    params: nn.ParamSet

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind: {self.kind!r}")
        if not self.channels:
            raise ValueError(f"model {self.task_id!r} needs at least one input channel")
        whole_frames(self.native_fps, self.native_window_s, "native_window_s")

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
        return trunk_graph(nn.Tensor(window.values[..., list(self.channels)]), leaves)

    def _check_window(self, window: FrameSeq) -> None:
        frames = whole_frames(self.native_fps, self.native_window_s, "native_window_s")
        if window.fps != self.native_fps or window.n_frames != frames:
            raise DimensionError(
                f"model {self.task_id!r} expects {frames} frames "
                f"at {self.native_fps} fps, got {window.n_frames} at {window.fps}"
            )
        if window.n_channels <= max(self.channels):
            raise DimensionError(
                f"model {self.task_id!r} reads channels {self.channels}, "
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
    """Add a fresh head over ``width``-wide features to ``params``."""
    def w(shape):
        return rng.normal(0.0, nn.WEIGHT_INIT_STD, size=shape)

    if kind in (KIND_BINARY, KIND_LOCALIZATION):
        params.add(f"{prefix}/w", w((width, 1)))
        params.add(f"{prefix}/b", np.zeros(1))
    elif kind == KIND_SEQUENCE:
        if horizon < 1 or n_verbs < 1 or n_nouns < 1:
            raise ValueError("sequence head needs horizon, n_verbs and n_nouns >= 1")
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


def init_task_model(
    task_id: str,
    kind: str,
    channels: tuple[int, ...],
    feature_dim: int,
    native_fps: float,
    native_window_s: float,
    rng: np.random.Generator,
    hidden: int = 16,
    horizon: int = 0,
    n_verbs: int = 0,
    n_nouns: int = 0,
) -> TaskModel:
    def w(shape):
        return rng.normal(0.0, nn.WEIGHT_INIT_STD, size=shape)

    params = nn.ParamSet()
    params.add("trunk/w1", w((len(channels), hidden)))
    params.add("trunk/b1", np.zeros(hidden))
    params.add("trunk/w2", w((hidden, feature_dim)))
    params.add("trunk/b2", np.zeros(feature_dim))
    mix = np.zeros(MIX_KERNEL)
    mix[0] = 1.0  # identity mixing at init
    params.add("trunk/mix", mix)

    add_head_params(params, "head", kind, feature_dim, rng, horizon, n_verbs, n_nouns)

    return TaskModel(
        task_id=task_id,
        kind=kind,
        native_fps=native_fps,
        native_window_s=native_window_s,
        channels=tuple(channels),
        feature_dim=feature_dim,
        params=params,
    )


def freeze(model: TaskModel) -> TaskModel:
    """Mark a model immutable: no optimizer may touch its parameters again.
    Freezing an untrained model is allowed (frozen-random ablations)."""
    model.params.frozen = True
    return model
