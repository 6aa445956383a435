"""The task translator: fuse per-task feature sequences into one prediction.

``translate`` builds the whole graph in one body from ``nn_core`` ops: each
task's features are projected into a shared latent space (one bias-free
``linear`` per task), the task blocks are concatenated (primary task first,
then auxiliaries in declared order), a learned task positional embedding is
added, a stack of transformer encoder layers mixes tokens across tasks and
time, and the primary task kind's head from ``task_models`` (under the
``dec/`` prefix) decodes the encoded tokens; a localization head reads only
the primary task's rows. A group of samples runs as one graph: each task's
features arrive as one (samples x frames x feature_dim) array, every graph
value keeps the samples as its leading axis and attention stays within each
sample.
Only parameters created here receive gradients; upstream task models stay
frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import nn_core as nn
from . import task_models
from .errors import DimensionError
from .temporal_align import FeatureSequence, FrameSeq, extract_features, plan_windows, resample


@dataclass(frozen=True)
class TranslatorConfig:
    """Architecture of one translator instance.

    ``task_dims`` lists (task_id, n_frames, feature_dim) in canonical token
    order: the primary task first, auxiliaries in declared order.
    """

    task_dims: tuple[tuple[str, int, int], ...]
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    decoder_kind: str
    horizon: int = 0
    n_verbs: int = 0
    n_nouns: int = 0
    norm_first: bool = True

    def __post_init__(self):
        ids = [t for t, _, _ in self.task_dims]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids: {ids}")
        if min(self.d_model, self.n_layers, self.n_heads, self.d_ff) < 1:
            raise ValueError("d_model, n_layers, n_heads and d_ff must all be >= 1")
        if self.d_model % self.n_heads != 0:
            raise DimensionError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads"
            )
        if self.decoder_kind not in task_models.TASK_KINDS:
            raise ValueError(f"unknown decoder kind: {self.decoder_kind!r}")
        if self.decoder_kind == task_models.KIND_SEQUENCE:
            if self.horizon < 1 or self.n_verbs < 1 or self.n_nouns < 1:
                raise ValueError("sequence decoder needs horizon, n_verbs, n_nouns >= 1")

    @property
    def primary_task_id(self) -> str:
        return self.task_dims[0][0]

    @property
    def total_tokens(self) -> int:
        return sum(t for _, t, _ in self.task_dims)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t for t, _, _ in self.task_dims)


def init_translator_params(config: TranslatorConfig, rng: np.random.Generator) -> nn.ParamSet:
    def w(shape):
        return rng.normal(0.0, nn.WEIGHT_INIT_STD, size=shape)

    params = nn.ParamSet()
    for task_id, _, d_k in config.task_dims:
        params.add(f"proj/{task_id}", w((d_k, config.d_model)))
    params.add("task_pos", w((config.total_tokens, config.d_model)))
    for layer in range(config.n_layers):
        for name, arr in nn.init_encoder_layer_arrays(rng, config.d_model, config.d_ff).items():
            params.add(f"enc{layer}/{name}", arr)
    task_models.add_head_params(
        params, "dec", config.decoder_kind, config.d_model, rng,
        config.horizon, config.n_verbs, config.n_nouns,
    )
    return params


def translate(
    features: Mapping[str, np.ndarray],
    leaves: Mapping[str, nn.Tensor],
    config: TranslatorConfig,
    weights_out: list | None = None,
):
    """The translator graph over a group of samples: task projections, task
    blocks concatenated, task embedding added, encoder layers, decoder head;
    each sample's tokens attend only to their own.

    ``features`` maps each task to the group's feature values: (samples x
    frames x feature_dim), or (frames x feature_dim) for one sample. Returns
    the raw head output for the primary task kind over the group, in sample
    order; a localization head scores only the primary task's tokens, rows
    ``0:T_primary`` of each sample. ``weights_out`` receives, layer by
    layer, one (heads x T x T) attention array per sample.
    """
    missing = [t for t in config.task_ids if t not in features]
    if missing:
        raise DimensionError(f"missing features for tasks {missing}")
    group = features[config.primary_task_id].shape[:-2]
    blocks = []
    for task_id, t_k, d_k in config.task_dims:
        values = features[task_id]
        if values.shape != group + (t_k, d_k):
            raise DimensionError(
                f"task {task_id!r}: expected features of shape {group + (t_k, d_k)}, "
                f"got {values.shape}"
            )
        blocks.append(nn.linear(values, leaves[f"proj/{task_id}"]))
    h = nn.add(nn.concat_rows(blocks), leaves["task_pos"])
    for layer in range(config.n_layers):
        h = nn.encoder_layer(
            h, leaves, f"enc{layer}/", config.n_heads, config.norm_first, weights_out
        )
    if config.decoder_kind == task_models.KIND_LOCALIZATION:
        h = nn.slice_rows(h, 0, config.task_dims[0][1])
    return task_models.head_graph(h, leaves, config.decoder_kind, "dec")


def align_and_extract(clip: FrameSeq, model: task_models.TaskModel) -> FeatureSequence:
    """Resample a clip, or a split of clips (samples x frames x channels), to
    one model's native fps, plan window starts at its spec's stride once for
    all of them, extract."""
    spec = model.spec
    clip_k = resample(clip, spec.native_fps)
    starts = plan_windows(clip_k.duration_s, spec.native_window_s, spec.stride_s, spec.native_fps)
    return extract_features(clip_k, model, starts)
