import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ettrans import nn_core as nn
from ettrans import synth_tasks as st
from ettrans import task_models as tm
from ettrans import training as tg
from ettrans import translator as tr
from ettrans.errors import ContractViolationError, TrainingDivergedError
from ettrans.temporal_align import FeatureSequence, FrameSeq


# ---------------------------------------------------------------------------
# losses


def test_binary_loss_closed_form():
    logit = nn.Tensor(np.array([[0.0]]))
    assert tm.loss("binary", logit, [1], None).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_localization_loss_closed_form_uniform_scores():
    scores = nn.Tensor(np.zeros((16, 1)))
    got = tm.loss("localization", scores, [5], np.arange(16.0)).item()
    assert got == pytest.approx(math.log(16.0), abs=1e-12)


def test_losses_match_direct_formula_oracle():
    rng = np.random.default_rng(0)

    z = float(rng.normal())
    y = int(rng.integers(2))
    got = tm.loss("binary", nn.Tensor(np.array([[z]])), [y], None).item()
    p = 1.0 / (1.0 + math.exp(-z))
    expected = -(y * math.log(p) + (1 - y) * math.log(1 - p))
    assert got == pytest.approx(expected, abs=1e-10)

    scores = rng.normal(size=(9, 1))
    target = 4
    got = tm.loss("localization", nn.Tensor(scores), [target], np.arange(9.0)).item()
    probs = np.exp(scores.ravel()) / np.exp(scores.ravel()).sum()
    assert got == pytest.approx(-math.log(probs[target]), abs=1e-10)

    steps = [
        (nn.Tensor(rng.normal(size=(1, 5))), nn.Tensor(rng.normal(size=(1, 7))))
        for _ in range(3)
    ]
    labels = [(int(rng.integers(5)), int(rng.integers(7))) for _ in range(3)]
    got = tm.loss("sequence", steps, [labels], None).item()
    total = 0.0
    for (verb, noun), (v, n) in zip(steps, labels):
        for logits, idx in ((verb.value.ravel(), v), (noun.value.ravel(), n)):
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            total += -math.log(probs[idx])
    assert got == pytest.approx(total / 6.0, abs=1e-10)


def test_loss_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        tm.loss("localization", nn.Tensor(np.zeros((4, 1))), [4], np.arange(5.0))
    with pytest.raises(ValueError):
        tm.loss("binary", nn.Tensor(np.array([[0.0]])), [2.0], None)
    steps = [(nn.Tensor(np.zeros((1, 3))), nn.Tensor(np.zeros((1, 4))))] * 2
    with pytest.raises(ValueError, match="2 predicted steps"):
        tm.loss("sequence", steps, np.zeros((1, 3, 2), dtype=int), None)


# ---------------------------------------------------------------------------
# optimizer


def test_zero_gradient_leaves_parameters_unchanged():
    params = nn.ParamSet()
    params.add("w", np.arange(6.0).reshape(2, 3))
    before = params.values.copy()
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    tg.optimizer_step(params, np.zeros(6), state)
    np.testing.assert_array_equal(params.values, before)
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
        tg.optimizer_step(params, np.array([g]), state)
        assert float(params["w"].value) == pytest.approx(w_ref, abs=1e-15)

    # with saturated moments the step magnitude approaches lr
    last = float(params["w"].value)
    tg.optimizer_step(params, np.array([g]), state)
    assert abs(float(params["w"].value) - last) == pytest.approx(lr, rel=1e-3)


def test_adam_on_two_shapes_matches_the_scalar_reference_loop_entry_by_entry():
    hyper = tg.TrainHyper(lr=0.01)
    rng = np.random.default_rng(5)
    params = nn.ParamSet()
    params.add("w", rng.normal(size=(2, 3)))
    params.add("b", rng.normal(size=4))
    state = tg.OptimState.for_params(params, hyper)
    ref = params.values.tolist()
    m, v = [0.0] * len(ref), [0.0] * len(ref)
    for t in range(1, 21):
        grad = rng.normal(size=10) * np.arange(1, 11)  # each entry its own scale
        tg.optimizer_step(params, grad, state)
        for i, g in enumerate(grad.tolist()):
            m[i] = hyper.beta1 * m[i] + (1.0 - hyper.beta1) * g
            v[i] = hyper.beta2 * v[i] + (1.0 - hyper.beta2) * (g * g)
            m_hat = m[i] / (1.0 - hyper.beta1**t)
            v_hat = v[i] / (1.0 - hyper.beta2**t)
            ref[i] -= hyper.lr * m_hat / (math.sqrt(v_hat) + hyper.eps)
        assert params.values.tolist() == ref
    np.testing.assert_array_equal(params["w"].value.ravel(), ref[:6])
    np.testing.assert_array_equal(params["b"].value, ref[6:])


def test_optimizer_refuses_a_frozen_set_and_keeps_its_bytes():
    params = nn.ParamSet()
    params.add("ice", np.pi * np.ones(4))
    params.frozen = True
    frozen_bytes = params.values.tobytes()
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    with pytest.raises(ContractViolationError):
        tg.optimizer_step(params, np.ones(4), state)
    assert params.values.tobytes() == frozen_bytes
    assert state.step == 0 and not state.m.any()


def test_optimizer_rejects_gradient_shape_mismatch():
    params = nn.ParamSet()
    params.add("a", np.zeros(2))
    params.add("b", np.zeros(2))
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    for bad in (np.ones(3), np.ones(5), np.ones((2, 2))):
        with pytest.raises(ValueError, match="shape"):
            tg.optimizer_step(params, bad, state)
    assert state.step == 0 and not params.values.any()


# ---------------------------------------------------------------------------
# stage 1


def stage1_setup(signal, sigma, seed, n_train=512, n_val=256):
    spec = st.TaskSpec("t", "binary", (0, 1, 2, 3), sigma, 1.0, 2.0, 2.0, signal=signal)
    train = st.generate([spec], n_train, seed=seed, split="train")
    val = st.generate([spec], n_val, seed=seed, split="val")
    model = tm.init_task_model(spec, np.random.default_rng(seed + 100))
    return spec, train, val, model


def test_stage1_reaches_ceiling_on_mid_noise_task():
    # separation tuned for a Bayes ceiling just under 0.92
    spec, train, val, model = stage1_setup(signal=1.405 / 4.0, sigma=1.0, seed=3)
    assert st.bayes_optimal_accuracy(spec) == pytest.approx(0.92, abs=0.001)
    report = tg.train_stage1(model, train, val, tg.TrainHyper(lr=3e-3, max_epochs=50), seed=3)
    assert report.best_val_metric >= 0.85


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
    assert model_a.params.checksum() == model_b.params.checksum()


def test_stage1_divergence_aborts_with_report():
    _, train, val, model = stage1_setup(signal=0.3, sigma=1.0, seed=6, n_train=64, n_val=32)
    with np.errstate(all="ignore"):  # the blow-up itself is the point
        with pytest.raises(TrainingDivergedError):
            tg.train_stage1(model, train, val, tg.TrainHyper(lr=1e80, max_epochs=5), seed=6)


def _stage1_kind_setup(kind, seed, n=7):
    extra = dict(horizon=2, n_verbs=3, n_nouns=4) if kind == "sequence" else {}
    spec = st.TaskSpec(
        "t", kind, (0, 1, 2), 1.0, 1.0, 2.0, 2.0, signal=0.5, feature_dim=4, hidden=5, **extra
    )
    data = st.generate([spec], n, seed=seed, split="train")
    model = tm.init_task_model(spec, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for name in model.params.names():  # a generic point: every tap and bias matters
        model.params[name].value = rng.normal(0.0, 0.5, size=model.params[name].value.shape)
    return model, data


@pytest.mark.parametrize("kind", ["binary", "localization", "sequence"])
def test_stage1_minibatch_loss_and_gradients_equal_sum_of_per_sample_ones(kind):
    model, data = _stage1_kind_setup(kind, seed=11)

    leaves = model.params.as_tensors()
    idx = np.array([4, 0, 6, 2, 1, 5, 3])  # a minibatch is any order of indices
    terms = list(tg.stage1_build_loss(model, data)(idx, leaves))
    assert len(terms) == 1  # one graph for the whole minibatch
    terms[0].backward()
    batched = leaves

    leaves = model.params.as_tensors()
    total = 0.0
    for values, label in zip(data.clips.values, data.labels["t"]):
        clip = FrameSeq(values, fps=data.clips.fps, duration_s=data.clips.duration_s)
        output = tm.head_graph(model.trunk_graph(clip, leaves), leaves, model.spec.kind)
        term = tm.loss(kind, output, [label], clip.frame_times())
        total += term.item()
        term.backward()

    assert terms[0].item() == pytest.approx(total, rel=1e-12, abs=1e-12)
    for name, leaf in leaves.items():
        np.testing.assert_allclose(
            batched[name].grad, leaf.grad, rtol=1e-12, atol=1e-12, err_msg=name
        )


def test_fit_without_an_improving_epoch_reports_no_best_metric():
    params = nn.ParamSet()
    params.add("w", np.zeros(2))

    def build_loss(idx, leaves):
        yield nn.sum_all(nn.mul(leaves["w"], leaves["w"]))

    report = tg.fit(
        params, 3, build_loss, "localization", lambda p: (np.array([np.nan]), np.zeros(1), 0.0),
        tg.TrainHyper(max_epochs=3, patience=5), seed=0,
    )
    assert report.best_epoch == -1
    assert report.stopped_epoch == 2
    assert report.best_val_metric is None
    assert report.to_dict()["best_val_metric"] is None


def test_fit_hands_build_loss_each_epochs_seeded_permutation_in_minibatches():
    params = nn.ParamSet()
    params.add("w", np.zeros(2))
    seen = []

    def build_loss(idx, leaves):
        seen.append(np.array(idx))
        yield nn.sum_all(nn.mul(leaves["w"], leaves["w"]))

    n, seed, epochs = 23, 7, 3
    tg.fit(
        params, n, build_loss, "binary", lambda p: (np.zeros(1), np.zeros(1), 0.0),
        tg.TrainHyper(batch_size=5, max_epochs=epochs, patience=5), seed=seed,
    )
    assert len(seen) == 5 * epochs
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    for epoch in range(epochs):
        batches = seen[5 * epoch : 5 * (epoch + 1)]
        assert [len(idx) for idx in batches] == [5, 5, 5, 5, 3]
        order = np.concatenate(batches)
        assert sorted(order.tolist()) == list(range(n))  # each index once
        np.testing.assert_array_equal(order, rng.permutation(n))
    assert np.concatenate(seen[:5]).tolist() == [
        5, 17, 11, 3, 18, 14, 10, 1, 22, 12, 2, 6, 0, 4, 8, 7, 20, 16, 21, 9, 15, 19, 13
    ]


# ---------------------------------------------------------------------------
# stage 2


def as_split(samples):
    """Per-sample (features, label) pairs as one stage-2 split: each task's
    features stacked in sample order, and the labels."""
    features = {
        t: FeatureSequence(t, np.stack([f[t].values for f, _ in samples]), seq.frame_times_s)
        for t, seq in samples[0][0].items()
    }
    return features, [label for _, label in samples]


def values_of(feats):
    """One sample's features as ``translate`` takes them: values by task."""
    return {t: seq.values for t, seq in feats.items()}


def stage2_setup(seed=0, n=24):
    rng = np.random.default_rng(seed)
    dims = (("p", 4, 6),)
    config = tr.TranslatorConfig(
        task_dims=dims, shape=tr.TranslatorShape(d_model=8, n_layers=1, n_heads=2, d_ff=16),
        decoder_kind=tm.KIND_BINARY,
    )
    samples = []
    for _ in range(n):
        feats = {"p": FeatureSequence("p", rng.normal(size=(4, 6)), np.arange(4) * 0.5)}
        samples.append((feats, int(rng.integers(2))))
    return config, samples


def _stage2_kind_setup(kind, seed, n=7):
    """Translator at a generic point over two tasks of 24 + 16 = 40 tokens,
    so a stage-2 graph holds ``_stage2_graph_samples(config)`` of them
    (384 // 40 = 9)."""
    rng = np.random.default_rng(seed)
    extra = dict(horizon=2, n_verbs=3, n_nouns=4) if kind == tm.KIND_SEQUENCE else {}
    dims = (("p", 24, 6), ("a", 16, 5))
    config = tr.TranslatorConfig(
        task_dims=dims, shape=tr.TranslatorShape(d_model=8, n_layers=2, n_heads=2, d_ff=16),
        decoder_kind=kind, **extra,
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
            label = 0.25 * int(rng.integers(24))
        else:
            label = [(int(rng.integers(3)), int(rng.integers(4))) for _ in range(2)]
        samples.append((feats, label))
    return config, params, samples


@pytest.mark.parametrize("kind", ["binary", "localization", "sequence"])
def test_stage2_minibatch_loss_and_gradients_equal_sum_of_per_sample_ones(kind):
    config, params, samples = _stage2_kind_setup(kind, seed=12, n=20)
    split = as_split(samples)
    graph_samples = tg._stage2_graph_samples(config)
    assert 2 * graph_samples < len(samples) < 3 * graph_samples

    leaves = params.as_tensors()
    idx = np.random.default_rng(3).permutation(len(samples))  # any order of indices
    terms = list(tg.stage2_build_loss(config, split)(idx, leaves))
    assert len(terms) == 3  # two full graphs and a short last one
    for term in terms:
        term.backward()
    batched = leaves
    batched_total = sum(term.item() for term in terms)

    leaves = params.as_tensors()
    total = 0.0
    for feats, label in samples:
        output = tr.translate(values_of(feats), leaves, config)
        term = tm.loss(kind, output, [label], feats["p"].frame_times_s)
        total += term.item()
        term.backward()

    assert batched_total == pytest.approx(total, rel=1e-12, abs=1e-12)
    for name, leaf in leaves.items():
        np.testing.assert_allclose(
            batched[name].grad, leaf.grad, rtol=1e-12, atol=1e-12, err_msg=name
        )

    preds, labels, _ = tg.stage2_predictions(split, params, config)
    assert len(preds) == len(labels) == len(samples)
    leaves = params.as_tensors(train=False)
    for (feats, label), pred, got_label in zip(samples, preds, labels):
        output = tr.translate(values_of(feats), leaves, config)
        [want] = tm.readout(kind, output, feats["p"].frame_times_s)
        np.testing.assert_array_equal(got_label, label)
        if kind == "binary":
            assert pred == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            np.testing.assert_array_equal(pred, want)


def test_stage2_training_step_memory_at_the_dense_geometry():
    """The traced-allocation peak of one stage-2 training step at the dense
    benchmark config's geometry: 3 tasks x 32 frames (96 tokens), d_model 16,
    so 4 samples per graph and 8 graphs per 32-sample minibatch. ``backward``
    frees each graph as it runs, so the step holds one graph at a time; it
    read 7.20 MB, and 9.40 MB when interior nodes were kept until the next
    graph replaced them. The bound is 15% above the first."""
    rng = np.random.default_rng(0)
    dims = (("p", 32, 8), ("a", 32, 8), ("b", 32, 8))
    config = tr.TranslatorConfig(
        task_dims=dims, shape=tr.TranslatorShape(d_model=16, n_layers=2, n_heads=4, d_ff=32),
        decoder_kind=tm.KIND_LOCALIZATION,
    )
    assert tg._stage2_graph_samples(config) == 4

    def split(n):
        features = {
            t: FeatureSequence(
                t, rng.normal(size=(n, t_k, d_k)).astype(np.float32), np.arange(t_k) * 0.25
            )
            for t, t_k, d_k in dims
        }
        return features, [0.25 * int(rng.integers(32)) for _ in range(n)]

    train, val = split(32), split(4)
    tracemalloc.start()
    try:
        tg.train_stage2(train, val, config, tg.TrainHyper(batch_size=32, max_epochs=1), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.3e6


def test_stage2_zero_learning_rate_keeps_initial_parameters():
    config, samples = stage2_setup(seed=2)
    init = tr.init_translator_params(
        config, np.random.default_rng(np.random.SeedSequence([2, 0x7A51]))
    )
    init_values = init.values.copy()
    leaves_metric = tg.evaluate_stage2(as_split(samples[16:]), init, config)

    params, report = tg.train_stage2(
        as_split(samples[:16]), as_split(samples[16:]), config,
        tg.TrainHyper(lr=0.0, max_epochs=3), seed=2,
    )
    np.testing.assert_array_equal(params.values, init_values)
    assert report.val_metrics[0] == pytest.approx(leaves_metric["accuracy"])


def test_fit_restores_best_epoch_parameters():
    config, samples = stage2_setup(seed=3, n=32)
    params, report = tg.train_stage2(
        as_split(samples[:24]), as_split(samples[24:]), config,
        tg.TrainHyper(max_epochs=6, patience=2), seed=3,
    )
    metrics = tg.evaluate_stage2(as_split(samples[24:]), params, config)
    assert metrics["accuracy"] == pytest.approx(report.best_val_metric)


@pytest.mark.parametrize(
    "kind, metric_name, greater_is_better",
    [
        ("binary", "accuracy", True),
        ("localization", "localization_error_s", False),
        ("sequence", "edit_distance_action", False),
    ],
)
def test_both_stages_stop_early_on_their_task_kinds_metric(kind, metric_name, greater_is_better):
    hyper = tg.TrainHyper(lr=0.2, batch_size=4, max_epochs=2)
    model, data = _stage1_kind_setup(kind, seed=17)
    stage1 = tg.train_stage1(model, data, data, hyper, seed=17)
    config, _, samples = _stage2_kind_setup(kind, seed=18)
    split = as_split(samples)
    params, stage2 = tg.train_stage2(split, split, config, hyper, seed=18)

    best = max if greater_is_better else min
    for report in (stage1, stage2):
        assert (report.metric_name, report.greater_is_better) == (metric_name, greater_is_better)
        # two different epochs' metrics, so the direction decides the best one
        assert len(set(report.val_metrics)) == 2
        assert report.best_epoch == report.val_metrics.index(best(report.val_metrics))
        assert report.best_val_metric == report.val_metrics[report.best_epoch]
    # the best epoch's parameters are restored, and its metric is the test metric's name
    assert tg.evaluate_stage2(split, params, config)[metric_name] == stage2.best_val_metric


def test_localization_target_index_maps_time_to_nearest_frame():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    assert tm.localization_target_index(1.04, times) == 2
    # 0.25 and 1.25 lie halfway between two frames: the lower index wins
    np.testing.assert_array_equal(
        tm.localization_target_index(np.array([1.04, 0.25, 1.25, 9.0]), times), [2, 0, 2, 3]
    )


def test_training_names_no_task_kind_and_imports_no_metrics():
    """Each task kind's loss, metrics and stopping metric live in
    ``task_models``: ``training`` names no ``KIND_*`` constant and imports no
    ``metrics``, so no kind rule can grow a second owner there."""
    path = Path(__file__).resolve().parents[1] / "src" / "ettrans" / "training.py"
    tree = ast.parse(path.read_text())
    names, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
            imported.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.update(node.module.split("."))
    assert not [name for name in names if name.startswith("KIND_")]
    assert "metrics" not in imported
