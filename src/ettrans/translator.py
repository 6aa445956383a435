"""The task translator: fuse per-task feature sequences into one prediction.

Per-task projections map heterogeneous feature widths into a shared latent
space; the projected sequences are concatenated (primary task first, then
auxiliaries in declared order), a learned task positional embedding is added,
a transformer encoder stack mixes tokens across tasks and time, and the
primary task kind's head from ``task_models`` (under the ``dec/`` prefix)
decodes the encoded tokens. A group of samples runs as one graph: their
tokens are stacked sample by sample and attention stays within each sample.
Only parameters created here receive gradients; upstream task models stay
frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import nn_core as nn
from . import task_models
from .errors import AlignmentError, DimensionError
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
    primary_task_id: str
    decoder_kind: str
    horizon: int = 0
    n_verbs: int = 0
    n_nouns: int = 0
    norm_first: bool = True

    def __post_init__(self):
        ids = [t for t, _, _ in self.task_dims]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids: {ids}")
        if self.primary_task_id not in ids:
            raise ValueError(f"primary task {self.primary_task_id!r} not in {ids}")
        if ids[0] != self.primary_task_id:
            raise ValueError("canonical token order puts the primary task first")
        if self.d_model % self.n_heads != 0:
            raise DimensionError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads"
            )
        if self.n_layers < 1:
            raise ValueError("need at least one encoder layer")
        if self.decoder_kind not in task_models.TASK_KINDS:
            raise ValueError(f"unknown decoder kind: {self.decoder_kind!r}")
        if self.decoder_kind == task_models.KIND_SEQUENCE:
            if self.horizon < 1 or self.n_verbs < 1 or self.n_nouns < 1:
                raise ValueError("sequence decoder needs horizon, n_verbs, n_nouns >= 1")

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


@dataclass
class TokenSequence:
    """Projected tokens of ``n_seqs`` samples, stacked sample by sample, plus
    the task -> (start, length) span map that holds within each sample."""

    tokens: nn.Tensor
    spans: dict[str, tuple[int, int]]
    n_seqs: int = 1

    def __post_init__(self):
        total = sum(length for _, length in self.spans.values())
        if total * self.n_seqs != self.tokens.rows:
            raise DimensionError(
                f"spans cover {total} tokens for each of {self.n_seqs} samples "
                f"but the sequence has {self.tokens.rows}"
            )


def project(h_k, p_k) -> nn.Tensor:
    """Map one task's features into the shared latent space (bare matrix product)."""
    x = nn.as_tensor(h_k)
    p_k = nn.as_tensor(p_k)
    if x.cols != p_k.rows:
        raise DimensionError(
            f"projection expects {p_k.rows} input columns, features have {x.cols}"
        )
    return nn.matmul(x, p_k)


def assemble_tokens(
    projected: Sequence[tuple[str, nn.Tensor]], task_pos, n_seqs: int = 1
) -> TokenSequence:
    """Concatenate projected task blocks in order, per sample, and add the
    positional embeddings to each sample's tokens. Every block holds
    ``n_seqs`` samples' rows, stacked sample by sample."""
    task_pos = nn.as_tensor(task_pos)
    spans = {}
    start = 0
    for task_id, block in projected:
        length = block.rows // n_seqs
        spans[task_id] = (start, length)
        start += length
    if task_pos.rows != start:
        raise DimensionError(
            f"positional embedding has {task_pos.rows} rows, tokens total {start}"
        )
    stacked = nn.concat_rows([block for _, block in projected], n_seqs)
    return TokenSequence(nn.add(stacked, task_pos, n_seqs), spans, n_seqs)


def encode(
    z0: TokenSequence,
    layers: Sequence[nn.EncoderLayerParams],
    norm_first: bool = True,
    weights_out: list | None = None,
) -> TokenSequence:
    """Apply the encoder stack; the span map is carried through unchanged.

    ``weights_out`` receives, layer by layer, one (heads x T x T) attention
    array per sample.
    """
    if len(layers) < 1:
        raise ValueError("need at least one encoder layer")
    h = z0.tokens
    for layer in layers:
        h = nn.encoder_layer(h, layer, norm_first, weights_out, z0.n_seqs)
    return TokenSequence(h, dict(z0.spans), z0.n_seqs)


def encoder_layers_from(
    leaves: Mapping[str, nn.Tensor], config: TranslatorConfig
) -> list[nn.EncoderLayerParams]:
    return [
        nn.EncoderLayerParams.from_tensors(leaves, f"enc{layer}/", config.n_heads)
        for layer in range(config.n_layers)
    ]


def translate(
    features: Sequence[Mapping[str, FeatureSequence]],
    leaves: Mapping[str, nn.Tensor],
    config: TranslatorConfig,
    weights_out: list | None = None,
):
    """Project, assemble, encode and decode a group of samples' feature
    sequences in one graph, each sample's tokens attending only to its own.

    Returns the raw head output for the primary task kind over the group, in
    sample order; a localization head scores only the primary task's tokens.
    The samples must share their primary frame times, which a localization
    readout maps scores to. ``weights_out`` receives, layer by layer, one
    (heads x T x T) attention array per sample.
    """
    n = len(features)
    if n < 1:
        raise DimensionError("translate needs at least one sample")
    projected = []
    for task_id, t_k, d_k in config.task_dims:
        blocks = []
        for sample in features:
            if task_id not in sample:
                raise DimensionError(f"missing features for task {task_id!r}")
            seq = sample[task_id]
            if seq.n_frames != t_k or seq.feature_dim != d_k:
                raise DimensionError(
                    f"task {task_id!r}: expected {t_k}x{d_k} features, "
                    f"got {seq.n_frames}x{seq.feature_dim}"
                )
            blocks.append(seq.values)
        projected.append((task_id, project(np.concatenate(blocks), leaves[f"proj/{task_id}"])))
    primary_times = features[0][config.primary_task_id].frame_times_s
    for sample in features[1:]:
        if not np.array_equal(sample[config.primary_task_id].frame_times_s, primary_times):
            raise AlignmentError("samples in one group have different primary frame times")
    z0 = assemble_tokens(projected, leaves["task_pos"], n)
    z_out = encode(z0, encoder_layers_from(leaves, config), config.norm_first, weights_out)

    tokens = z_out.tokens
    if config.decoder_kind == task_models.KIND_LOCALIZATION:
        start, length = z_out.spans[config.primary_task_id]
        tokens = nn.slice_rows(tokens, start, start + length, n)
    return task_models.head_graph(tokens, leaves, config.decoder_kind, "dec", n)


def align_and_extract(
    clip: FrameSeq,
    model: task_models.TaskModel,
    stride_s: float,
) -> FeatureSequence:
    """Resample a clip, or a split of clips (``temporal_align.stack_clips``),
    to one model's native fps, plan windows once for all of them, extract."""
    clip_k = resample(clip, model.native_fps)
    plan = plan_windows(clip_k.duration_s, model.native_window_s, stride_s, model.native_fps)
    return extract_features(clip_k, model, plan)
