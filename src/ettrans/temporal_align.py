"""Temporal alignment between a clip and a task model's native geometry.

A model trained on short windows at its own frame rate is applied to a longer
clip by (1) subsampling the clip down to the model's FPS, (2) planning the
start frames of sliding windows of the model's native duration, (3) running
the model over a batch of the clip's windows, each from its own causal
start, and (4) averaging per-frame features where windows overlap. A whole
split of clips of one geometry goes through the same steps at once: one
resampling index and one tuple of window starts serve every clip, and the
clips' windows go to the trunk in (windows x frames x channels) batches of at
most ``_EXTRACT_CHUNK_FRAMES`` frames.
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

# Window frames per trunk call in extraction: as many whole clips' windows
# as fit, at least one clip's. A whole dense split in one batch would hold
# megabytes per activation.
_EXTRACT_CHUNK_FRAMES = 4096


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def frame_count(fps: float, duration_s: float) -> int:
    return _round_half_up(fps * duration_s)


@dataclass
class FrameSeq:
    """An ordered stack of per-frame channel vectors at a fixed frame rate:
    one clip (frames x channels) or a batch of clips of one geometry
    (clips x frames x channels), such as a split or a batch of windows."""

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
        if not (self.frame_times_s[1:] > self.frame_times_s[:-1]).all():
            raise AlignmentError("timestamps must be strictly increasing")

    @property
    def n_frames(self) -> int:
        return self.values.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[-1]


def check_downsampling(source_fps: float, target_fps: float) -> None:
    """Refuse to resample ``source_fps`` up to a higher ``target_fps``."""
    if target_fps > source_fps:
        raise UpsamplingUnsupportedError(f"cannot resample {source_fps} fps up to {target_fps} fps")


def resample(clip: FrameSeq, target_fps: float) -> FrameSeq:
    """Subsample a clip, or every clip of a split, to a lower frame rate by
    nearest source index.

    Frame j of the output comes from source index round(j * source/target),
    clamped into range. Duration is preserved; upsampling is refused.
    """
    if target_fps <= 0:
        raise AlignmentError(f"target fps must be positive, got {target_fps}")
    check_downsampling(clip.fps, target_fps)
    n_out = frame_count(target_fps, clip.duration_s)
    ratio = clip.fps / target_fps
    idx = np.array(
        [min(_round_half_up(j * ratio), clip.n_frames - 1) for j in range(n_out)],
        dtype=np.intp,
    )
    return FrameSeq(clip.values[..., idx, :], fps=target_fps, duration_s=clip.duration_s)


def whole_frames(fps: float, seconds: float, name: str) -> int:
    """The frame count of ``seconds`` at ``fps``, which must be a whole number
    of frames to a relative ``_FRAME_ALIGN_TOL``."""
    frames = seconds * fps
    if not abs(frames - np.rint(frames)) <= _FRAME_ALIGN_TOL * max(1.0, abs(frames)):
        raise AlignmentError(
            f"{name}={seconds} s is not a whole number of frames at {fps} fps"
        )
    return frame_count(fps, seconds)


def plan_windows(duration_s: float, window_s: float, stride_s: float, fps: float) -> tuple[int, ...]:
    """Window start frames at ``fps`` whose windows cover the full clip: a
    regular stride plus an end-aligned tail."""
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
    # Work on integer frame counts so window starts stay exactly frame-aligned.
    dur_f = whole_frames(fps, duration_s, "duration_s")
    win_f = whole_frames(fps, window_s, "window_s")
    stride_f = whole_frames(fps, stride_s, "stride_s")
    starts = list(range(0, dur_f - win_f + 1, stride_f))
    if starts[-1] + win_f < dur_f:
        starts.append(dur_f - win_f)
    return tuple(starts)


def extract_features(clip: FrameSeq, model, starts: Sequence[int]) -> FeatureSequence:
    """Run a frozen model's trunk over windows of its native length starting
    at frames ``starts`` of a clip, or of every clip of a split, at the
    model's native fps, and merge outputs.

    The result keeps one feature row per clip frame, averaging rows that fall
    in several windows. Clips' windows go to the trunk in batches of at most
    ``_EXTRACT_CHUNK_FRAMES`` frames (at least one clip per call).
    """
    spec = model.spec
    fps, window_s = spec.native_fps, spec.native_window_s
    if abs(clip.fps - fps) > _FRAME_ALIGN_TOL:
        raise AlignmentError(f"clip at {clip.fps} fps, model {spec.task_id!r} at {fps} fps")
    if not model.frozen:
        raise ContractViolationError(
            f"model {spec.task_id!r} must be frozen before feature extraction"
        )

    win_f = frame_count(fps, window_s)
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    outside = starts[(starts < 0) | (starts + win_f > clip.n_frames)]
    if outside.size:
        raise AlignmentError(
            f"windows of {win_f} frames starting at {outside.tolist()} "
            f"run outside the clip's {clip.n_frames} frames"
        )
    rows = (starts[:, None] + np.arange(win_f)).reshape(-1)
    counts = np.bincount(rows, minlength=clip.n_frames)
    if np.any(counts == 0):
        raise AlignmentError("window starts leave frames uncovered")

    clips = clip.values.reshape(-1, clip.n_frames, clip.n_channels)
    step = max(1, _EXTRACT_CHUNK_FRAMES // rows.size)
    merged = []
    for lo in range(0, len(clips), step):
        chunk = clips[lo : lo + step, rows]
        windows = FrameSeq(chunk.reshape(-1, win_f, clip.n_channels), fps=fps, duration_s=window_s)
        feats = model.trunk_forward(windows)
        if feats.shape[:-1] != windows.values.shape[:-1]:
            raise AlignmentError(
                f"trunk returned shape {feats.shape} for windows of shape {windows.values.shape}"
            )
        feats = feats.reshape(len(chunk), len(starts), win_f, -1)
        # overlap-add in start order, vectorized over the chunk's clips
        total = np.zeros((len(chunk), clip.n_frames, feats.shape[-1]), dtype=np.float64)
        for w, start in enumerate(starts.tolist()):
            total[:, start : start + win_f] += feats[:, w]
        merged.append((total / counts[:, None]).astype(np.float32))
    values = np.concatenate(merged)
    values = values.reshape(clip.values.shape[:-1] + values.shape[-1:])
    return FeatureSequence(spec.task_id, values, clip.frame_times())
