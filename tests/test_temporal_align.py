from dataclasses import dataclass, field

import numpy as np
import pytest

from ettrans import temporal_align as ta
from ettrans.errors import (
    AlignmentError,
    ClipTooShortError,
    ContractViolationError,
    UpsamplingUnsupportedError,
)


def make_clip(duration_s, fps, channels=3, seed=0):
    n = ta.frame_count(fps, duration_s)
    values = np.random.default_rng(seed).normal(size=(n, channels))
    return ta.FrameSeq(values, fps=fps, duration_s=duration_s)


@dataclass
class LinearStub:
    """Frozen stand-in whose trunk is a fixed per-frame channel mix, easy to
    replicate; with no temporal context it ignores window boundaries."""

    task_id: str = "stub"
    native_fps: float = 2.0
    native_window_s: float = 2.0
    frozen: bool = True
    matrix: np.ndarray = field(default_factory=lambda: np.arange(6.0).reshape(3, 2))

    def trunk_forward(self, window):
        return window.values @ self.matrix


# ---------------------------------------------------------------------------
# resample


def test_resample_halving_keeps_every_second_frame():
    clip = make_clip(16.0, 4.0)
    out = ta.resample(clip, 2.0)
    assert out.n_frames == 32
    np.testing.assert_array_equal(out.values, clip.values[::2])
    assert out.duration_s == clip.duration_s


def test_resample_identity_at_same_fps():
    clip = make_clip(3.0, 4.0)
    out = ta.resample(clip, 4.0)
    np.testing.assert_array_equal(out.values, clip.values)


def test_resample_matches_index_enumeration_oracle():
    clip = make_clip(10.0, 3.0)
    out = ta.resample(clip, 2.0)
    assert out.n_frames == 20
    indices = [min(int(np.floor(j * 3.0 / 2.0 + 0.5)), clip.n_frames - 1) for j in range(20)]
    np.testing.assert_array_equal(out.values, clip.values[indices])


def test_resample_rejects_upsampling():
    with pytest.raises(UpsamplingUnsupportedError):
        ta.resample(make_clip(4.0, 2.0), 4.0)


def test_resample_rejects_nonpositive_fps():
    with pytest.raises(AlignmentError):
        ta.resample(make_clip(4.0, 2.0), 0.0)


@pytest.mark.parametrize("src_fps,dst_fps", [(4.0, 2.0), (3.0, 2.0), (5.0, 2.0), (4.0, 4.0)])
def test_resample_is_a_projection(src_fps, dst_fps):
    clip = make_clip(8.0, src_fps, seed=3)
    once = ta.resample(clip, dst_fps)
    twice = ta.resample(once, dst_fps)
    np.testing.assert_array_equal(once.values, twice.values)


# ---------------------------------------------------------------------------
# window planning


def test_plan_windows_regular_cover():
    assert ta.plan_windows(16.0, 8.0, 4.0, 2.0) == (0, 8, 16)


def test_plan_windows_full_cover_single_window():
    for stride in (0.5, 1.0, 100.0):
        assert ta.plan_windows(4.0, 4.0, stride, 2.0) == (0,)


def test_plan_windows_exact_fit_without_tail():
    assert ta.plan_windows(10.0, 4.0, 3.0, 1.0) == (0, 3, 6)


def test_plan_windows_appends_end_aligned_tail():
    assert ta.plan_windows(10.0, 4.0, 4.0, 1.0) == (0, 4, 6)


def test_plan_windows_rejects_long_window():
    with pytest.raises(ClipTooShortError):
        ta.plan_windows(4.0, 8.0, 2.0, 2.0)


def test_plan_windows_rejects_unaligned_durations():
    with pytest.raises(AlignmentError):
        ta.plan_windows(4.0, 1.3, 1.0, 2.0)


def test_plan_windows_rejects_gapping_stride():
    with pytest.raises(AlignmentError):
        ta.plan_windows(10.0, 2.0, 3.0, 1.0)


def _oracle_offsets(dur_f, win_f, stride_f):
    """All stride-multiple offsets that fit, plus an end-aligned tail."""
    offsets = [o for o in range(0, dur_f - win_f + 1) if o % stride_f == 0]
    if offsets[-1] != dur_f - win_f:
        offsets.append(dur_f - win_f)
    return offsets


def test_plan_windows_matches_enumeration_oracle_on_1000_fuzz_cases():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        fps = float(rng.integers(1, 9))
        win_f = int(rng.integers(1, 33))
        dur_f = win_f + int(rng.integers(0, 65))
        stride_f = int(rng.integers(1, win_f + 1))
        starts = ta.plan_windows(dur_f / fps, win_f / fps, stride_f / fps, fps)
        expected = _oracle_offsets(dur_f, win_f, stride_f)
        assert list(starts) == expected
        # coverage: every frame of the clip lies inside at least one window
        covered = np.zeros(dur_f, dtype=bool)
        for o in expected:
            covered[o : o + win_f] = True
        assert covered.all()


# ---------------------------------------------------------------------------
# feature extraction


def test_extract_single_window_equals_whole_clip_trunk():
    model = LinearStub(native_fps=2.0, native_window_s=4.0)
    clip = make_clip(4.0, 2.0, seed=1)
    starts = ta.plan_windows(4.0, 4.0, 1.0, 2.0)
    seq = ta.extract_features(clip, model, starts)
    expected = (clip.values @ model.matrix).astype(np.float32)
    np.testing.assert_array_equal(seq.values, expected)
    np.testing.assert_array_equal(seq.frame_times_s, clip.frame_times())


def test_extract_duplicate_windows_average_to_single_window_output():
    model = LinearStub(native_fps=2.0, native_window_s=4.0)
    clip = make_clip(4.0, 2.0, seed=2)
    np.testing.assert_array_equal(
        ta.extract_features(clip, model, (0,)).values,
        ta.extract_features(clip, model, (0, 0)).values,
    )


@pytest.mark.parametrize("starts", [(0, 1), (-1, 0)])
def test_extract_rejects_windows_outside_the_clip(starts):
    """4 s windows at 2 fps are 8 frames, as long as the clip: a window
    starting at frame 1 ends past it, and one at -1 starts before it."""
    model = LinearStub(native_fps=2.0, native_window_s=4.0)
    clip = make_clip(4.0, 2.0, seed=2)
    with pytest.raises(AlignmentError, match="outside the clip's 8 frames"):
        ta.extract_features(clip, model, starts)


def test_extract_overlapping_windows_match_materialize_and_average_oracle():
    model = LinearStub(native_fps=2.0, native_window_s=2.0)
    clip = make_clip(4.0, 2.0, seed=3)
    starts = ta.plan_windows(4.0, 2.0, 1.0, 2.0)
    seq = ta.extract_features(clip, model, starts)

    win_f = ta.frame_count(model.native_fps, model.native_window_s)
    totals = np.zeros((clip.n_frames, 2))
    counts = np.zeros(clip.n_frames)
    for start in starts:
        window_out = clip.values[start : start + win_f] @ model.matrix
        totals[start : start + win_f] += window_out
        counts[start : start + win_f] += 1
    expected = (totals / counts[:, None]).astype(np.float32)
    np.testing.assert_array_equal(seq.values, expected)


def test_extract_with_task_model_restarts_causal_history_per_window():
    from scipy.special import erf

    from ettrans import task_models as tm

    model = tm.init_task_model(
        "real", "binary", (0, 2), 3, native_fps=2.0, native_window_s=2.0,
        rng=np.random.default_rng(7), hidden=5,
    )
    rng = np.random.default_rng(8)
    for name in model.params.names():
        model.params[name].value = rng.normal(0.0, 0.5, size=model.params[name].value.shape)
    taps = model.params["trunk/mix"].value
    assert np.all(np.abs(taps[1:]) > 1e-3)  # the mix reaches back across frames
    tm.freeze(model)
    clip = make_clip(5.0, 2.0, seed=9)
    starts = ta.plan_windows(5.0, 2.0, 0.5, 2.0)  # one-frame stride
    seq = ta.extract_features(clip, model, starts)

    p = {name: model.params[name].value for name in model.params.names()}

    def per_frame(x):
        h = x @ p["trunk/w1"] + p["trunk/b1"]
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        return h @ p["trunk/w2"] + p["trunk/b2"]

    def mix(frames):
        out = np.zeros_like(frames)
        for t in range(len(frames)):
            for tau in range(len(taps)):
                if t - tau >= 0:
                    out[t] += taps[tau] * frames[t - tau]
        return out

    win_f = ta.frame_count(model.native_fps, model.native_window_s)
    x = clip.values[:, [0, 2]]
    totals = np.zeros((clip.n_frames, 3))
    counts = np.zeros(clip.n_frames)
    for start in starts:
        totals[start : start + win_f] += mix(per_frame(x[start : start + win_f]))
        counts[start : start + win_f] += 1
    expected = totals / counts[:, None]
    np.testing.assert_allclose(seq.values, expected, rtol=1e-5, atol=1e-6)

    # history carried over from one window into the next would differ
    leaked = np.zeros((clip.n_frames, 3))
    whole = mix(per_frame(x))
    for start in starts:
        leaked[start : start + win_f] += whole[start : start + win_f]
    assert np.abs(leaked / counts[:, None] - expected).max() > 1e-2


def test_extract_rejects_fps_mismatch():
    model = LinearStub(native_fps=2.0, native_window_s=2.0)
    clip = make_clip(4.0, 4.0)
    starts = ta.plan_windows(4.0, 2.0, 1.0, 4.0)
    with pytest.raises(AlignmentError):
        ta.extract_features(clip, model, starts)


def test_extract_rejects_unfrozen_model():
    model = LinearStub(native_fps=2.0, native_window_s=2.0, frozen=False)
    clip = make_clip(4.0, 2.0)
    starts = ta.plan_windows(4.0, 2.0, 1.0, 2.0)
    with pytest.raises(ContractViolationError):
        ta.extract_features(clip, model, starts)


def test_extract_output_is_finite_full_length_and_deterministic():
    model = LinearStub(native_fps=2.0, native_window_s=2.0)
    clip = make_clip(6.0, 2.0, seed=4)
    starts = ta.plan_windows(6.0, 2.0, 1.5, 2.0)
    a = ta.extract_features(clip, model, starts)
    b = ta.extract_features(clip, model, starts)
    assert a.n_frames == clip.n_frames
    assert np.all(np.isfinite(a.values))
    assert np.all(np.diff(a.frame_times_s) > 0)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.frame_times_s.tobytes() == b.frame_times_s.tobytes()


# ---------------------------------------------------------------------------
# split extraction


def _per_window_oracle(clip, model, stride_s):
    """The per-clip path in plain numpy: resample by index enumeration, then
    one trunk call per window and an overlap-add in window order."""
    ratio = clip.fps / model.native_fps
    n_out = ta.frame_count(model.native_fps, clip.duration_s)
    x = clip.values[[min(int(np.floor(j * ratio + 0.5)), clip.n_frames - 1) for j in range(n_out)]]
    win_f = round(model.native_window_s * model.native_fps)
    stride_f = round(stride_s * model.native_fps)
    starts = list(range(0, n_out - win_f + 1, stride_f))
    if starts[-1] + win_f < n_out:
        starts.append(n_out - win_f)
    totals = np.zeros((n_out, model.feature_dim))
    counts = np.zeros(n_out, dtype=np.int64)
    for start in starts:
        window = ta.FrameSeq(x[start : start + win_f], fps=model.native_fps,
                             duration_s=model.native_window_s)
        totals[start : start + win_f] += model.trunk_forward(window)
        counts[start : start + win_f] += 1
    return (totals / counts[:, None]).astype(np.float32)


def test_split_extraction_equals_per_window_oracle_bit_for_bit(monkeypatch):
    from ettrans import task_models as tm
    from ettrans import translator as tr

    model = tm.init_task_model(
        "real", "binary", (0, 2, 3), 5, native_fps=4.0, native_window_s=2.0,
        rng=np.random.default_rng(17), hidden=7,
    )
    rng = np.random.default_rng(18)
    for name in model.params.names():
        model.params[name].value = rng.normal(0.0, 0.5, size=model.params[name].value.shape)
    tm.freeze(model)
    calls = []
    trunk_forward = model.trunk_forward

    def counting_trunk_forward(window):
        calls.append(window.values.shape)
        return trunk_forward(window)

    clips = [make_clip(7.5, 8.0, channels=4, seed=30 + i) for i in range(7)]
    split = ta.FrameSeq(np.stack([clip.values for clip in clips]), fps=8.0, duration_s=7.5)
    # 30 frames at 4 fps, 8-frame windows at a 3-frame stride: 8 windows plus
    # an end-aligned tail, up to 3 overlapping a frame, 72 frames a clip; 250
    # frames hold 3 clips, so 7 clips make batches of 3, 3 and 1 clips'
    # windows, each window 8 frames of 4 channels
    monkeypatch.setattr(ta, "_EXTRACT_CHUNK_FRAMES", 250)
    monkeypatch.setattr(model, "trunk_forward", counting_trunk_forward)
    seq = tr.align_and_extract(split, model, 0.75)
    monkeypatch.undo()

    assert calls == [(27, 8, 4), (27, 8, 4), (9, 8, 4)]
    assert seq.values.shape == (7, 30, 5) and seq.values.dtype == np.float32
    np.testing.assert_array_equal(seq.frame_times_s, np.arange(30) / 4.0)
    expected = np.stack([_per_window_oracle(clip, model, 0.75) for clip in clips])
    assert seq.values.tobytes() == expected.tobytes()
    # one clip on its own goes through the same path
    alone = tr.align_and_extract(clips[6], model, 0.75)
    assert alone.values.tobytes() == expected[6].tobytes()


# ---------------------------------------------------------------------------
# container invariants


def test_frameseq_validates_frame_count():
    with pytest.raises(AlignmentError):
        ta.FrameSeq(np.zeros((5, 2)), fps=2.0, duration_s=2.0)


def test_feature_sequence_requires_increasing_timestamps():
    with pytest.raises(AlignmentError):
        ta.FeatureSequence("x", np.zeros((3, 2)), np.array([0.0, 0.0, 1.0]))
