import math

import numpy as np
import pytest

from ettrans import nn_core as nn
from ettrans import synth_tasks as st
from ettrans import task_models as tm
from ettrans import training as tg
from ettrans import translator as tr
from ettrans.errors import ContractViolationError, TrainingDivergedError
from ettrans.temporal_align import FeatureSequence


# ---------------------------------------------------------------------------
# losses


def test_binary_loss_closed_form():
    logit = nn.Tensor(np.array([[0.0]]))
    assert tg.batch_loss(logit, [1], "binary").item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_localization_loss_closed_form_uniform_scores():
    scores = nn.Tensor(np.zeros((16, 1)))
    got = tg.batch_loss(scores, [5], "localization").item()
    assert got == pytest.approx(math.log(16.0), abs=1e-12)


def test_losses_match_direct_formula_oracle():
    rng = np.random.default_rng(0)

    z = float(rng.normal())
    y = int(rng.integers(2))
    got = tg.batch_loss(nn.Tensor(np.array([[z]])), [y], "binary").item()
    p = 1.0 / (1.0 + math.exp(-z))
    expected = -(y * math.log(p) + (1 - y) * math.log(1 - p))
    assert got == pytest.approx(expected, abs=1e-10)

    scores = rng.normal(size=(9, 1))
    target = 4
    got = tg.batch_loss(nn.Tensor(scores), [target], "localization").item()
    probs = np.exp(scores.ravel()) / np.exp(scores.ravel()).sum()
    assert got == pytest.approx(-math.log(probs[target]), abs=1e-10)

    steps = [
        (nn.Tensor(rng.normal(size=(1, 5))), nn.Tensor(rng.normal(size=(1, 7))))
        for _ in range(3)
    ]
    labels = [(int(rng.integers(5)), int(rng.integers(7))) for _ in range(3)]
    got = tg.batch_loss(steps, [labels], "sequence").item()
    total = 0.0
    for (verb, noun), (v, n) in zip(steps, labels):
        for logits, idx in ((verb.value.ravel(), v), (noun.value.ravel(), n)):
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            total += -math.log(probs[idx])
    assert got == pytest.approx(total / 6.0, abs=1e-10)


def test_loss_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        tg.batch_loss(nn.Tensor(np.zeros((4, 1))), [4], "localization")
    with pytest.raises(ValueError):
        tg.batch_loss(nn.Tensor(np.array([[0.0]])), [2.0], "binary")


# ---------------------------------------------------------------------------
# optimizer


def test_zero_gradient_leaves_parameters_unchanged():
    params = nn.ParamSet()
    params.add("w", np.arange(6.0).reshape(2, 3))
    before = params.values_copy()
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    tg.optimizer_step(params, {"w": np.zeros((2, 3))}, state)
    np.testing.assert_array_equal(params["w"].value, before["w"])
    assert state.step == 1


def test_adam_matches_scalar_reference_loop():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    params = nn.ParamSet()
    params.add("w", np.asarray(0.0))
    state = tg.OptimState.for_params(params, tg.TrainHyper(lr=lr))
    g = 2.5

    w_ref, m_ref, v_ref = 0.0, 0.0, 0.0
    for t in range(1, 101):
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        m_hat = m_ref / (1 - b1**t)
        v_hat = v_ref / (1 - b2**t)
        w_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)
        tg.optimizer_step(params, {"w": np.asarray(g)}, state)
        assert float(params["w"].value) == pytest.approx(w_ref, abs=1e-15)

    # with saturated moments the step magnitude approaches lr
    last = float(params["w"].value)
    tg.optimizer_step(params, {"w": np.asarray(g)}, state)
    assert abs(float(params["w"].value) - last) == pytest.approx(lr, rel=1e-3)


def test_frozen_parameters_survive_50_steps_bitwise():
    params = nn.ParamSet()
    params.add("live", np.ones(3))
    params.add("ice", np.pi * np.ones(4), trainable=False)
    frozen_bytes = params["ice"].value.tobytes()
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    rng = np.random.default_rng(1)
    for _ in range(50):
        tg.optimizer_step(params, {"live": rng.normal(size=3)}, state)
    assert params["ice"].value.tobytes() == frozen_bytes


def test_optimizer_rejects_gradient_key_mismatch():
    params = nn.ParamSet()
    params.add("a", np.zeros(2))
    params.add("b", np.zeros(2))
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    with pytest.raises(ValueError, match="missing"):
        tg.optimizer_step(params, {"a": np.zeros(2)}, state)
    with pytest.raises(ValueError, match="extra"):
        tg.optimizer_step(params, {"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)}, state)


# ---------------------------------------------------------------------------
# stage 1


def stage1_setup(signal, sigma, seed, n_train=512, n_val=256):
    spec = st.TaskSpec("t", "binary", (0, 1, 2, 3), sigma, 1.0, 2.0, 2.0, signal=signal)
    train = st.generate([spec], n_train, seed=seed, split="train")
    val = st.generate([spec], n_val, seed=seed, split="val")
    model = tm.init_task_model(
        "t", "binary", spec.channels, 8, 2.0, 2.0, np.random.default_rng(seed + 100)
    )
    return spec, train, val, model


def test_stage1_reaches_ceiling_on_mid_noise_task():
    # separation tuned for a Bayes ceiling just under 0.92
    spec, train, val, model = stage1_setup(signal=1.405 / 4.0, sigma=1.0, seed=3)
    assert st.bayes_optimal_accuracy(spec) == pytest.approx(0.92, abs=0.001)
    report = tg.train_stage1(model, train, val, tg.TrainHyper(lr=3e-3, max_epochs=50), seed=3)
    assert report.best_val_metric >= 0.85
    assert model.stage1_complete


def test_stage1_zero_signal_task_sits_at_chance():
    # large val split: best-epoch selection takes a max over noisy estimates
    spec, train, val, model = stage1_setup(
        signal=0.0, sigma=1.0, seed=4, n_train=256, n_val=1024
    )
    report = tg.train_stage1(model, train, val, tg.TrainHyper(max_epochs=10), seed=4)
    assert 0.45 <= report.best_val_metric <= 0.55


def test_stage1_is_deterministic():
    _, train, val, model_a = stage1_setup(signal=0.3, sigma=1.0, seed=5, n_train=128, n_val=64)
    _, _, _, model_b = stage1_setup(signal=0.3, sigma=1.0, seed=5, n_train=128, n_val=64)
    hyper = tg.TrainHyper(max_epochs=5)
    rep_a = tg.train_stage1(model_a, train, val, hyper, seed=5)
    rep_b = tg.train_stage1(model_b, train, val, hyper, seed=5)
    assert rep_a.train_losses == rep_b.train_losses
    assert rep_a.val_metrics == rep_b.val_metrics
    assert model_a.checksum() == model_b.checksum()


def test_stage1_divergence_aborts_with_report():
    _, train, val, model = stage1_setup(signal=0.3, sigma=1.0, seed=6, n_train=64, n_val=32)
    with np.errstate(all="ignore"):  # the blow-up itself is the point
        with pytest.raises(TrainingDivergedError):
            tg.train_stage1(model, train, val, tg.TrainHyper(lr=1e80, max_epochs=5), seed=6)


def _stage1_kind_setup(kind, seed, n=7):
    extra = dict(horizon=2, n_verbs=3, n_nouns=4) if kind == "sequence" else {}
    spec = st.TaskSpec("t", kind, (0, 1, 2), 1.0, 1.0, 2.0, 2.0, signal=0.5, **extra)
    data = st.generate([spec], n, seed=seed, split="train")
    model = tm.init_task_model(
        "t", kind, spec.channels, 4, 2.0, 2.0, np.random.default_rng(seed), hidden=5, **extra
    )
    rng = np.random.default_rng(seed + 1)
    for name in model.params.names():  # a generic point: every tap and bias matters
        model.params[name].value = rng.normal(0.0, 0.5, size=model.params[name].value.shape)
    return model, list(zip(data.clips, data.task_labels("t")))


@pytest.mark.parametrize("kind", ["binary", "localization", "sequence"])
def test_stage1_minibatch_loss_and_gradients_equal_sum_of_per_sample_ones(kind):
    model, samples = _stage1_kind_setup(kind, seed=11)

    leaves = model.params.as_tensors()
    terms = list(tg.stage1_build_loss(model)(samples, leaves))
    assert len(terms) == 1  # one graph for the whole minibatch
    terms[0].backward()
    batched = nn.collect_grads(leaves)

    leaves = model.params.as_tensors()
    total = 0.0
    for clip, label in samples:
        output = model.head_forward(model.trunk_graph(clip, leaves), leaves)
        if kind == "localization":
            label = tg.localization_target_index(label, clip.frame_times())
        term = tg.batch_loss(output, [label], kind)
        total += term.item()
        term.backward()
    per_sample = nn.collect_grads(leaves)

    assert terms[0].item() == pytest.approx(total, rel=1e-12, abs=1e-12)
    assert set(batched) == set(per_sample)
    for name, grad in per_sample.items():
        np.testing.assert_allclose(batched[name], grad, rtol=1e-12, atol=1e-12, err_msg=name)


def test_fit_without_an_improving_epoch_reports_no_best_metric():
    params = nn.ParamSet()
    params.add("w", np.zeros(2))

    def build_loss(batch, leaves):
        yield nn.sum_all(nn.mul(leaves["w"], leaves["w"]))

    report = tg.fit(
        params, [0, 1, 2], [0], build_loss, lambda samples, p: (0.0, float("nan")),
        "accuracy", True, tg.TrainHyper(max_epochs=3, patience=5), seed=0,
    )
    assert report.best_epoch == -1
    assert report.stopped_epoch == 2
    assert report.best_val_metric is None
    assert report.to_dict()["best_val_metric"] is None


# ---------------------------------------------------------------------------
# stage 2


def stage2_setup(seed=0, n=24):
    rng = np.random.default_rng(seed)
    dims = (("p", 4, 6),)
    config = tr.TranslatorConfig(
        task_dims=dims, d_model=8, n_layers=1, n_heads=2, d_ff=16,
        primary_task_id="p", decoder_kind=tm.KIND_BINARY,
    )
    model = tm.init_task_model("p", "binary", (0, 1), 6, 2.0, 2.0, rng)
    model.stage1_complete = True
    tm.freeze(model)
    samples = []
    for _ in range(n):
        feats = {"p": FeatureSequence("p", rng.normal(size=(4, 6)), np.arange(4) * 0.5)}
        samples.append((feats, int(rng.integers(2))))
    return config, model, samples


def _stage2_kind_setup(kind, seed, n=7):
    """Translator at a generic point over two tasks of 24 + 16 = 40 tokens,
    so a stage-2 graph holds 128 // 40 = 3 samples."""
    rng = np.random.default_rng(seed)
    extra = dict(horizon=2, n_verbs=3, n_nouns=4) if kind == tm.KIND_SEQUENCE else {}
    dims = (("p", 24, 6), ("a", 16, 5))
    config = tr.TranslatorConfig(
        task_dims=dims, d_model=8, n_layers=2, n_heads=2, d_ff=16,
        primary_task_id="p", decoder_kind=kind, **extra,
    )
    params = tr.init_translator_params(config, rng)
    for name in params.names():
        params[name].value = rng.normal(0.0, 0.3, size=params[name].value.shape)
    samples = []
    for _ in range(n):
        feats = {
            t: FeatureSequence(t, rng.normal(size=(t_k, d_k)), np.arange(t_k) * 0.25)
            for t, t_k, d_k in dims
        }
        if kind == tm.KIND_BINARY:
            label = int(rng.integers(2))
        elif kind == tm.KIND_LOCALIZATION:
            frame = int(rng.integers(24))
            label = st.LocalizationLabel(frame=frame, time_s=0.25 * frame)
        else:
            label = [(int(rng.integers(3)), int(rng.integers(4))) for _ in range(2)]
        samples.append((feats, label))
    return config, params, samples


@pytest.mark.parametrize("kind", ["binary", "localization", "sequence"])
def test_stage2_minibatch_loss_and_gradients_equal_sum_of_per_sample_ones(kind):
    config, params, samples = _stage2_kind_setup(kind, seed=12)

    leaves = params.as_tensors()
    terms = list(tg.stage2_build_loss(config)(samples, leaves))
    assert len(terms) == 3  # graphs of 3, 3 and 1 samples
    for term in terms:
        term.backward()
    batched = nn.collect_grads(leaves)
    batched_total = sum(term.item() for term in terms)

    leaves = params.as_tensors()
    total = 0.0
    for feats, label in samples:
        output = tr.translate([feats], leaves, config)
        if kind == "localization":
            label = tg.localization_target_index(label, feats["p"].frame_times_s)
        term = tg.batch_loss(output, [label], kind)
        total += term.item()
        term.backward()
    per_sample = nn.collect_grads(leaves)

    assert batched_total == pytest.approx(total, rel=1e-12, abs=1e-12)
    assert set(batched) == set(per_sample)
    for name, grad in per_sample.items():
        np.testing.assert_allclose(batched[name], grad, rtol=1e-12, atol=1e-12, err_msg=name)

    preds, labels, _ = tg.stage2_predictions(samples, params, config)
    leaves = params.as_tensors(train=False)
    for (feats, label), pred, got_label in zip(samples, preds, labels):
        output = tr.translate([feats], leaves, config)
        [want] = tm.readout(kind, output, feats["p"].frame_times_s)
        assert got_label is label
        if kind == "binary":
            assert pred == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert pred == want


def test_stage2_verifies_frozen_checksums():
    config, model, samples = stage2_setup()
    params, report, checksums = tg.train_stage2(
        samples[:16], samples[16:], config, {"p": model}, tg.TrainHyper(max_epochs=2), seed=0
    )
    assert checksums == {"p": model.checksum()}
    assert report.stopped_epoch >= 0


def test_stage2_rejects_unfrozen_models():
    config, model, samples = stage2_setup(seed=1)
    model.frozen = False
    with pytest.raises(ContractViolationError):
        tg.train_stage2(samples[:16], samples[16:], config, {"p": model},
                        tg.TrainHyper(max_epochs=1), seed=1)


def test_stage2_zero_learning_rate_keeps_initial_parameters():
    config, model, samples = stage2_setup(seed=2)
    init = tr.init_translator_params(
        config, np.random.default_rng(np.random.SeedSequence([2, 0x7A51]))
    )
    init_values = init.values_copy()
    leaves_metric = tg.evaluate_stage2(samples[16:], init, config)

    params, report, _ = tg.train_stage2(
        samples[:16], samples[16:], config, {"p": model},
        tg.TrainHyper(lr=0.0, max_epochs=3), seed=2,
    )
    for name, value in init_values.items():
        np.testing.assert_array_equal(params[name].value, value)
    assert report.val_metrics[0] == pytest.approx(leaves_metric["accuracy"])


def test_fit_restores_best_epoch_parameters():
    config, model, samples = stage2_setup(seed=3, n=32)
    params, report, _ = tg.train_stage2(
        samples[:24], samples[24:], config, {"p": model},
        tg.TrainHyper(max_epochs=6, patience=2), seed=3,
    )
    metrics = tg.evaluate_stage2(samples[24:], params, config)
    assert metrics["accuracy"] == pytest.approx(report.best_val_metric)


def test_localization_target_index_maps_time_to_nearest_frame():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    label = st.LocalizationLabel(frame=2, time_s=1.04)
    assert tg.localization_target_index(label, times) == 2
