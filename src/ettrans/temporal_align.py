"""Temporal alignment between a clip and a task model's native geometry.

A model trained on short windows at its own frame rate is applied to a longer
clip by (1) subsampling the clip down to the model's FPS, (2) planning sliding
windows of the model's native duration, (3) running the model over the
clip's windows stacked, each from its own causal start, and (4) averaging
per-frame features where windows overlap. A whole split of clips of one
geometry goes through the same steps at once: one resampling index and one
window plan serve every clip, and the clips' windows are stacked into trunk
calls of at most ``_EXTRACT_CHUNK_ROWS`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    ClipTooShortError,
    ContractViolationError,
    UpsamplingUnsupportedError,
)

_FRAME_ALIGN_TOL = 1e-9

# Window rows per trunk call in extraction: as many whole clips as fit, at
# least one. A whole dense split stacked at once would hold megabytes per
# activation.
_EXTRACT_CHUNK_ROWS = 4096


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def frame_count(fps: float, duration_s: float) -> int:
    return _round_half_up(fps * duration_s)


@dataclass
class FrameSeq:
    """An ordered stack of per-frame channel vectors at a fixed frame rate:
    one clip (frames x channels) or a split of clips of one geometry
    (clips x frames x channels)."""

    values: np.ndarray
    fps: float
    duration_s: float

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim not in (2, 3):
            raise AlignmentError(f"frame values must be 2-d or 3-d, got shape {self.values.shape}")
        if self.fps <= 0:
            raise AlignmentError(f"fps must be positive, got {self.fps}")
        expected = frame_count(self.fps, self.duration_s)
        if self.n_frames != expected:
            raise AlignmentError(
                f"{self.n_frames} frames but {self.fps} fps over "
                f"{self.duration_s} s implies {expected}"
            )

    @property
    def n_frames(self) -> int:
        return self.values.shape[-2]

    @property
    def n_channels(self) -> int:
        return self.values.shape[-1]

    def frame_times(self) -> np.ndarray:
        return np.arange(self.n_frames, dtype=np.float64) / self.fps


@dataclass(frozen=True)
class WindowPlan:
    """Window offsets covering a clip: regular stride plus an end-aligned tail."""

    window_s: float
    stride_s: float
    fps: float
    duration_s: float
    offsets_s: tuple[float, ...]

    @property
    def n_windows(self) -> int:
        return len(self.offsets_s)

    @property
    def frames_per_window(self) -> int:
        return frame_count(self.fps, self.window_s)


@dataclass
class FeatureSequence:
    """Per-frame features from one task model over a whole clip
    (frames x feature_dim), or over every clip of a split
    (clips x frames x feature_dim) sharing one set of frame times.

    Values are float32, the interchange precision of the on-disk feature
    cache; timestamps stay float64.
    """

    task_id: str
    values: np.ndarray
    frame_times_s: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        self.frame_times_s = np.asarray(self.frame_times_s, dtype=np.float64)
        if self.values.ndim not in (2, 3):
            raise AlignmentError(
                f"feature values must be 2-d or 3-d, got shape {self.values.shape}"
            )
        if self.frame_times_s.shape != (self.n_frames,):
            raise AlignmentError(
                f"{self.n_frames} feature rows but "
                f"{self.frame_times_s.shape[0]} timestamps"
            )
        if self.n_frames > 1 and not np.all(np.diff(self.frame_times_s) > 0):
            raise AlignmentError("timestamps must be strictly increasing")

    @property
    def n_frames(self) -> int:
        return self.values.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[-1]


def stack_clips(clips: Sequence[FrameSeq]) -> FrameSeq:
    """A split's clips as one (clips x frames x channels) sequence; clips
    that differ in fps, duration, shape or dtype are refused."""
    if not clips:
        raise AlignmentError("cannot stack an empty split")
    first = clips[0]
    geometry = (first.fps, first.duration_s, first.values.shape, first.values.dtype)
    for i, clip in enumerate(clips):
        if (clip.fps, clip.duration_s, clip.values.shape, clip.values.dtype) != geometry:
            raise AlignmentError(f"clip {i} differs from clip 0 in fps, duration, shape or dtype")
    return FrameSeq(
        np.stack([clip.values for clip in clips]), fps=first.fps, duration_s=first.duration_s
    )


def resample(clip: FrameSeq, target_fps: float) -> FrameSeq:
    """Subsample a clip, or every clip of a split, to a lower frame rate by
    nearest source index.

    Frame j of the output comes from source index round(j * source/target),
    clamped into range. Duration is preserved; upsampling is refused.
    """
    if target_fps <= 0:
        raise AlignmentError(f"target fps must be positive, got {target_fps}")
    if target_fps > clip.fps:
        raise UpsamplingUnsupportedError(
            f"cannot resample {clip.fps} fps up to {target_fps} fps"
        )
    n_out = frame_count(target_fps, clip.duration_s)
    ratio = clip.fps / target_fps
    idx = np.array(
        [min(_round_half_up(j * ratio), clip.n_frames - 1) for j in range(n_out)],
        dtype=np.intp,
    )
    return FrameSeq(clip.values[..., idx, :], fps=target_fps, duration_s=clip.duration_s)


def _check_frame_aligned(name: str, seconds: float, fps: float) -> None:
    frames = seconds * fps
    if abs(frames - round(frames)) > _FRAME_ALIGN_TOL * max(1.0, abs(frames)):
        raise AlignmentError(
            f"{name}={seconds} s is not a whole number of frames at {fps} fps"
        )


def plan_windows(duration_s: float, window_s: float, stride_s: float, fps: float) -> WindowPlan:
    """Plan window start offsets so their union covers the full clip."""
    if fps <= 0:
        raise AlignmentError(f"fps must be positive, got {fps}")
    if stride_s <= 0:
        raise AlignmentError(f"stride must be positive, got {stride_s}")
    if window_s <= 0:
        raise AlignmentError(f"window must be positive, got {window_s}")
    if window_s > duration_s:
        raise ClipTooShortError(
            f"window of {window_s} s does not fit a {duration_s} s clip"
        )
    if stride_s > window_s and window_s < duration_s:
        # an inter-window gap would leave frames uncovered
        raise AlignmentError(
            f"stride {stride_s} s exceeds window {window_s} s; coverage impossible"
        )
    for name, value in (("duration_s", duration_s), ("window_s", window_s), ("stride_s", stride_s)):
        _check_frame_aligned(name, value, fps)

    # Work on integer frame counts so offsets stay exactly frame-aligned.
    dur_f = frame_count(fps, duration_s)
    win_f = frame_count(fps, window_s)
    stride_f = frame_count(fps, stride_s)
    offsets_f = list(range(0, dur_f - win_f + 1, stride_f))
    if offsets_f[-1] + win_f < dur_f:
        offsets_f.append(dur_f - win_f)
    offsets = tuple(o / fps for o in offsets_f)
    return WindowPlan(
        window_s=window_s,
        stride_s=stride_s,
        fps=fps,
        duration_s=duration_s,
        offsets_s=offsets,
    )


def extract_features(clip: FrameSeq, model, plan: WindowPlan) -> FeatureSequence:
    """Run a frozen model's trunk over every planned window of a clip, or of
    every clip of a split, and merge outputs.

    The result keeps one feature row per clip frame, averaging rows that fall
    in several windows. Clips' windows are stacked into trunk calls of at most
    ``_EXTRACT_CHUNK_ROWS`` rows (at least one clip per call).
    """
    if abs(clip.fps - plan.fps) > _FRAME_ALIGN_TOL:
        raise AlignmentError(f"clip at {clip.fps} fps but plan was made for {plan.fps} fps")
    if abs(model.native_fps - plan.fps) > _FRAME_ALIGN_TOL:
        raise AlignmentError(
            f"model {model.task_id!r} runs at {model.native_fps} fps, plan is {plan.fps} fps"
        )
    if abs(model.native_window_s - plan.window_s) > _FRAME_ALIGN_TOL:
        raise AlignmentError(
            f"model {model.task_id!r} expects {model.native_window_s} s windows, "
            f"plan uses {plan.window_s} s"
        )
    if not model.frozen:
        raise ContractViolationError(
            f"model {model.task_id!r} must be frozen before feature extraction"
        )

    win_f = plan.frames_per_window
    starts = [frame_count(plan.fps, offset_s) for offset_s in plan.offsets_s]
    rows = (np.asarray(starts)[:, None] + np.arange(win_f)).reshape(-1)
    counts = np.bincount(rows, minlength=clip.n_frames)
    if np.any(counts == 0):
        raise AlignmentError("window plan leaves frames uncovered")

    clips = clip.values.reshape(-1, clip.n_frames, clip.n_channels)
    step = max(1, _EXTRACT_CHUNK_ROWS // rows.size)
    merged = []
    for lo in range(0, len(clips), step):
        chunk = clips[lo : lo + step, rows]
        n_windows = len(chunk) * plan.n_windows
        windows = FrameSeq(
            chunk.reshape(-1, clip.n_channels), fps=plan.fps, duration_s=n_windows * plan.window_s
        )
        feats = np.asarray(model.trunk_forward(windows, n_windows), dtype=np.float64)
        if feats.shape[0] != n_windows * win_f:
            raise AlignmentError(
                f"trunk returned {feats.shape[0]} rows for {n_windows} {win_f}-frame windows"
            )
        feats = feats.reshape(len(chunk), plan.n_windows, win_f, -1)
        # overlap-add in plan order, vectorized over the chunk's clips
        total = np.zeros((len(chunk), clip.n_frames, feats.shape[-1]), dtype=np.float64)
        for w, start in enumerate(starts):
            total[:, start : start + win_f] += feats[:, w]
        merged.append((total / counts[:, None]).astype(np.float32))
    values = np.concatenate(merged)
    values = values.reshape(clip.values.shape[:-1] + values.shape[-1:])
    return FeatureSequence(model.task_id, values, clip.frame_times())
