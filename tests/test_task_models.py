import numpy as np
import pytest

from ettrans import nn_core as nn
from ettrans import task_models as tm
from ettrans import training as tg
from ettrans import translator as tr
from ettrans.errors import AlignmentError, ContractViolationError, DimensionError
from ettrans.synth_tasks import TaskSpec
from ettrans.temporal_align import FrameSeq


def make_spec(kind="binary", channels=(0, 1, 2), feature_dim=5, native_window_s=2.0, **kw):
    return TaskSpec(
        "demo", kind, channels, noise_sigma=0.0, corr_rho=1.0, native_fps=2.0,
        native_window_s=native_window_s, feature_dim=feature_dim, **kw,
    )


def make_model(kind="binary", seed=0, **kw):
    return tm.init_task_model(make_spec(kind, **kw), np.random.default_rng(seed))


def make_window(seed=0, channels=4, frames=4, fps=2.0):
    values = np.random.default_rng(seed).normal(size=(frames, channels))
    return FrameSeq(values, fps=fps, duration_s=frames / fps)


# ---------------------------------------------------------------------------
# trunk


def test_trunk_zero_input_zero_biases_gives_zero_features():
    model = make_model()
    for name in ("trunk/b1", "trunk/b2"):
        model.params[name].value[:] = 0.0
    window = FrameSeq(np.zeros((4, 4)), fps=2.0, duration_s=2.0)
    np.testing.assert_array_equal(model.trunk_forward(window), np.zeros((4, 5)))


def test_trunk_is_deterministic():
    model = make_model(seed=1)
    window = make_window(seed=2)
    a = model.trunk_forward(window)
    b = model.trunk_forward(window)
    assert a.tobytes() == b.tobytes()


def test_trunk_matches_per_frame_loop_oracle():
    from scipy.special import erf

    model = make_model(seed=3)
    window = make_window(seed=4)
    got = model.trunk_forward(window)

    w1 = model.params["trunk/w1"].value
    b1 = model.params["trunk/b1"].value
    w2 = model.params["trunk/w2"].value
    b2 = model.params["trunk/b2"].value
    taps = model.params["trunk/mix"].value
    x = window.values[:, list(model.spec.channels)]
    per_frame = []
    for t in range(x.shape[0]):
        h = x[t] @ w1 + b1
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        per_frame.append(h @ w2 + b2)
    per_frame = np.asarray(per_frame)
    expected = np.zeros_like(per_frame)
    for t in range(x.shape[0]):
        for tau in range(len(taps)):
            if t - tau >= 0:
                expected[t] += taps[tau] * per_frame[t - tau]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_trunk_reads_only_its_channel_group():
    model = make_model(seed=5, channels=(1, 2))
    window = make_window(seed=6)
    tampered = FrameSeq(window.values.copy(), fps=2.0, duration_s=2.0)
    tampered.values[:, 0] += 100.0
    tampered.values[:, 3] -= 50.0
    np.testing.assert_array_equal(
        model.trunk_forward(window), model.trunk_forward(tampered)
    )


def test_trunk_rejects_wrong_geometry():
    model = make_model()
    with pytest.raises(DimensionError):
        model.trunk_forward(make_window(frames=6))
    with pytest.raises(DimensionError):
        model.trunk_forward(make_window(fps=4.0, frames=8))
    with pytest.raises(DimensionError):
        model.trunk_forward(FrameSeq(np.zeros((4, 2)), fps=2.0, duration_s=2.0))


def test_native_window_must_be_whole_frames():
    with pytest.raises(AlignmentError):
        tm.init_task_model(make_spec(native_window_s=1.25), np.random.default_rng(0))


@pytest.mark.parametrize("feature_dim", [6, 10, 14])
def test_trunk_feature_width_is_heterogeneous(feature_dim):
    model = make_model(feature_dim=feature_dim)
    assert model.trunk_forward(make_window()).shape == (4, feature_dim)


# ---------------------------------------------------------------------------
# heads: one graph per task kind, used by the stage-1 models under ``head/``
# and by the translator decoder under ``dec/``


def head_cases(kind="binary", seed=0, width=5, **kw):
    """(params, prefix) of a stage-1 head and of a translator decoder."""
    model = make_model(kind, seed=seed, feature_dim=width, **kw)
    config = tr.TranslatorConfig(
        (("p", 4, 3),), d_model=width, n_layers=1, n_heads=1, d_ff=4,
        decoder_kind=kind, **kw,
    )
    decoder = tr.init_translator_params(config, np.random.default_rng(seed))
    return [(model.params, "head"), (decoder, "dec")]


def run_head(params, prefix, feats, kind="binary"):
    return tm.head_graph(nn.Tensor(feats), params.as_tensors(train=False), kind, prefix)


def test_head_bias_only_logit():
    feats = np.random.default_rng(8).normal(size=(4, 5))
    for params, prefix in head_cases(seed=7):
        params[f"{prefix}/w"].value[:] = 0.0
        params[f"{prefix}/b"].value[:] = 1.25
        assert run_head(params, prefix, feats).item() == pytest.approx(1.25)


def test_head_classification_depends_only_on_feature_mean():
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(4, 5))
    shuffled = feats[[2, 0, 3, 1]]
    for params, prefix in head_cases(seed=9):
        assert run_head(params, prefix, feats).item() == pytest.approx(
            run_head(params, prefix, shuffled).item()
        )


def test_head_matches_mean_dot_oracle():
    feats = np.random.default_rng(12).normal(size=(6, 5))
    for params, prefix in head_cases(seed=11):
        w = params[f"{prefix}/w"].value
        b = params[f"{prefix}/b"].value
        expected = (feats.mean(axis=0) @ w + b).item()
        assert run_head(params, prefix, feats).item() == pytest.approx(expected, abs=1e-12)


def test_head_rejects_wrong_width():
    model = make_model()
    with pytest.raises(DimensionError):
        tm.head_graph(nn.Tensor(np.zeros((4, 7))), model.params.as_tensors(), model.spec.kind)


def test_sequence_head_shapes():
    feats = np.random.default_rng(0).normal(size=(4, 5))
    for params, prefix in head_cases("sequence", horizon=3, n_verbs=5, n_nouns=7):
        steps = run_head(params, prefix, feats, "sequence")
        assert len(steps) == 3
        for verb, noun in steps:
            assert verb.shape == (1, 5)
            assert noun.shape == (1, 7)


# ---------------------------------------------------------------------------
# freezing


def test_freeze_then_train_leaves_checksum_unchanged():
    frozen = make_model(seed=13)
    frozen.params.frozen = True
    checksum = frozen.params.checksum()

    # its own leaves track no gradient, and every step on its own set is refused
    assert frozen.params.as_tensors().grad is None
    state = tg.OptimState.for_params(frozen.params, tg.TrainHyper())
    rng = np.random.default_rng(14)
    for _ in range(100):
        with pytest.raises(ContractViolationError):
            tg.optimizer_step(frozen.params, rng.normal(size=frozen.params.values.shape), state)
    assert frozen.params.checksum() == checksum
