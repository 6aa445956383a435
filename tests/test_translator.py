import numpy as np
import pytest
from scipy.special import erf

from ettrans import nn_core as nn
from ettrans import task_models as tm
from ettrans import translator as tr
from ettrans import training as tg
from ettrans.errors import ContractViolationError, DimensionError
from ettrans.synth_tasks import TaskSpec
from ettrans.temporal_align import FrameSeq

TOY_DIMS = (("p", 4, 6), ("a", 2, 10), ("b", 2, 14))


def toy_config(decoder=tm.KIND_BINARY, dims=TOY_DIMS, **kw):
    return tr.TranslatorConfig(
        task_dims=dims,
        d_model=8,
        n_layers=2,
        n_heads=2,
        d_ff=16,
        decoder_kind=decoder,
        **kw,
    )


def toy_features(dims=TOY_DIMS, seed=0):
    rng = np.random.default_rng(seed)
    return {t: rng.normal(size=(t_k, d_k)).astype(np.float32) for t, t_k, d_k in dims}


def stack_group(samples):
    """Per-sample feature mappings as one group: each task's values stacked."""
    return {t: np.stack([f[t] for f in samples]) for t in samples[0]}


# ---------------------------------------------------------------------------
# decoders: the task heads of ``task_models`` under the ``dec/`` prefix


def _decode_classification(tokens, leaves):
    return tm.head_graph(nn.Tensor(tokens), leaves, tm.KIND_BINARY, "dec")


def test_decode_classification_bias_passthrough():
    leaves = {"dec/w": nn.Tensor(np.zeros((8, 1))), "dec/b": nn.Tensor(np.array([0.7]))}
    assert _decode_classification(np.zeros((5, 8)), leaves).item() == pytest.approx(0.7)


def test_decode_classification_pooling_invariance():
    rng = np.random.default_rng(9)
    leaves = {"dec/w": nn.Tensor(rng.normal(size=(8, 1))), "dec/b": nn.Tensor(rng.normal(size=1))}
    x = rng.normal(size=(6, 8))
    shuffled = x[rng.permutation(6)]
    a = _decode_classification(x, leaves)
    b = _decode_classification(shuffled, leaves)
    assert a.item() == pytest.approx(b.item())


def test_decode_classification_matches_mean_dot_oracle():
    rng = np.random.default_rng(10)
    leaves = {"dec/w": nn.Tensor(rng.normal(size=(8, 1))), "dec/b": nn.Tensor(rng.normal(size=1))}
    x = rng.normal(size=(6, 8))
    logit = _decode_classification(x, leaves)
    expected = (x.mean(axis=0) @ leaves["dec/w"].value + leaves["dec/b"].value).item()
    assert logit.item() == pytest.approx(expected, abs=1e-12)


def _loc_leaves():
    # d_model 1 with unit decoder: scores equal the raw token column
    return {"dec/w": nn.Tensor(np.array([[1.0]])), "dec/b": nn.Tensor(np.zeros(1))}


def _decode_localization(span, times):
    scores = tm.head_graph(nn.Tensor(span), _loc_leaves(), tm.KIND_LOCALIZATION, "dec")
    [when] = tm.readout(tm.KIND_LOCALIZATION, scores, times)
    return scores, when


def test_decode_localization_single_frame_span():
    _, when = _decode_localization(np.array([[-5.0]]), np.array([2.25]))
    assert when == 2.25


def test_decode_localization_tie_breaks_to_earliest():
    _, when = _decode_localization(np.array([[0.1], [0.9], [0.9]]), np.array([0.0, 0.5, 1.0]))
    assert when == 0.5


def test_decode_localization_matches_linear_scan_oracle():
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(16, 1))
    times = np.arange(16) * 0.25
    got_scores, when = _decode_localization(scores, times)
    best, best_t = -np.inf, None
    for s, t in zip(scores.ravel(), times):
        if s > best:
            best, best_t = s, t
    assert when == best_t
    assert when in times
    np.testing.assert_allclose(got_scores.value, scores)


def test_decode_localization_requires_primary_span():
    """Localization decodes the primary task's tokens; translating without
    them is refused rather than scoring another task's span."""
    config = toy_config(decoder=tm.KIND_LOCALIZATION)
    params = tr.init_translator_params(config, np.random.default_rng(24))
    feats = toy_features(seed=25)
    del feats["p"]
    with pytest.raises(DimensionError):
        tr.translate(feats, params.as_tensors(train=False), config)


def test_translate_localization_scores_each_primary_frame_only():
    config = toy_config(decoder=tm.KIND_LOCALIZATION)
    params = tr.init_translator_params(config, np.random.default_rng(26))
    leaves = params.as_tensors(train=False)
    feats = toy_features(seed=27)
    scores = tr.translate(feats, leaves, config)
    assert scores.shape == (4, 1)  # primary "p" has 4 frames of 8 tokens

    blocks = [nn.linear(feats[t], leaves[f"proj/{t}"]) for t in config.task_ids]
    h = nn.add(nn.concat_rows(blocks), leaves["task_pos"])
    for layer in range(config.n_layers):
        h = nn.encoder_layer(h, leaves, f"enc{layer}/", config.n_heads, config.norm_first)
    expected = h.value[:4] @ leaves["dec/w"].value + leaves["dec/b"].value
    np.testing.assert_array_equal(scores.value, expected)


def test_decode_sequence_horizon_one_is_two_heads():
    config = toy_config(decoder=tm.KIND_SEQUENCE, horizon=1, n_verbs=5, n_nouns=7)
    rng = np.random.default_rng(12)
    params = tr.init_translator_params(config, rng)
    leaves = params.as_tensors(train=False)
    tokens = nn.Tensor(rng.normal(size=(8, 8)))
    steps = tm.head_graph(tokens, leaves, tm.KIND_SEQUENCE, "dec")
    assert len(steps) == 1
    pooled = tokens.value.mean(axis=0, keepdims=True)
    np.testing.assert_allclose(
        steps[0][0].value,
        pooled @ leaves["dec/step0/verb_w"].value + leaves["dec/step0/verb_b"].value,
        atol=1e-12,
    )


def test_decode_sequence_arity_and_argmax_scan_oracle():
    config = toy_config(decoder=tm.KIND_SEQUENCE, horizon=3, n_verbs=5, n_nouns=7)
    rng = np.random.default_rng(13)
    params = tr.init_translator_params(config, rng)
    leaves = params.as_tensors(train=False)
    tokens = nn.Tensor(rng.normal(size=(8, 8)))
    steps = tm.head_graph(tokens, leaves, tm.KIND_SEQUENCE, "dec")
    assert len(steps) == 3
    again = tm.head_graph(tokens, leaves, tm.KIND_SEQUENCE, "dec")
    for (v1, n1), (v2, n2) in zip(steps, again):
        np.testing.assert_array_equal(v1.value, v2.value)
        np.testing.assert_array_equal(n1.value, n2.value)
    [actions] = tm.readout(tm.KIND_SEQUENCE, steps, None)
    assert actions.shape == (3, 2)
    for (verb, noun), action in zip(steps, actions):
        assert verb.shape == (1, 5)
        assert noun.shape == (1, 7)
        scanned = []
        for logits in (verb.value.ravel(), noun.value.ravel()):
            best = 0
            for i in range(1, len(logits)):
                if logits[i] > logits[best]:
                    best = i
            scanned.append(best)
        assert action.tolist() == scanned


# ---------------------------------------------------------------------------
# full translation


def test_translate_matches_monolithic_reimplementation():
    """Whole pipeline vs an independent flat numpy reimplementation."""
    config = toy_config()
    rng = np.random.default_rng(14)
    params = tr.init_translator_params(config, rng)
    feats = toy_features(seed=15)
    logit = tr.translate(feats, params.as_tensors(train=False), config).item()

    def mono_ln(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    def mono_gelu(x):
        return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

    v = {n: params[n].value for n in params.names()}
    z = np.vstack([feats[t].astype(np.float64) @ v[f"proj/{t}"] for t, _, _ in config.task_dims])
    z = z + v["task_pos"]
    for l in range(config.n_layers):
        ln1 = mono_ln(z, v[f"enc{l}/ln1_gamma"], v[f"enc{l}/ln1_beta"])
        q = ln1 @ v[f"enc{l}/wq"] + v[f"enc{l}/bq"]
        k = ln1 @ v[f"enc{l}/wk"]
        val = ln1 @ v[f"enc{l}/wv"] + v[f"enc{l}/bv"]
        dh = config.d_model // config.n_heads
        heads = []
        for h in range(config.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            heads.append(w @ val[:, sl])
        z = z + np.hstack(heads) @ v[f"enc{l}/wo"] + v[f"enc{l}/bo"]
        ln2 = mono_ln(z, v[f"enc{l}/ln2_gamma"], v[f"enc{l}/ln2_beta"])
        z = z + mono_gelu(ln2 @ v[f"enc{l}/ffn_w1"] + v[f"enc{l}/ffn_b1"]) @ v[f"enc{l}/ffn_w2"] + v[f"enc{l}/ffn_b2"]
    expected = (z.mean(axis=0) @ v["dec/w"] + v["dec/b"]).item()
    assert abs(logit - expected) < 1e-10


def test_translate_pipeline_collapse_to_decoder():
    """Identity projection + zero-weight encoder reduces to decoding raw
    features plus the positional embedding."""
    dims = (("p", 4, 8),)
    config = tr.TranslatorConfig(
        task_dims=dims, d_model=8, n_layers=1, n_heads=2, d_ff=16,
        decoder_kind=tm.KIND_BINARY,
    )
    rng = np.random.default_rng(18)
    params = tr.init_translator_params(config, rng)
    params["proj/p"].value = np.eye(8)
    for name in params.names():
        if name.startswith("enc0/"):
            params[name].value = (
                np.ones_like(params[name].value)
                if "gamma" in name
                else np.zeros_like(params[name].value)
            )
    feats = {"p": rng.normal(size=(4, 8)).astype(np.float32)}
    got = tr.translate(feats, params.as_tensors(train=False), config).item()
    raw = feats["p"].astype(np.float64) + params["task_pos"].value
    expected = (raw.mean(axis=0) @ params["dec/w"].value + params["dec/b"].value).item()
    assert got == pytest.approx(expected, abs=1e-12)


def test_translate_validates_feature_shapes():
    config = toy_config()
    params = tr.init_translator_params(config, np.random.default_rng(19))
    feats = toy_features(seed=20)
    feats["a"] = np.zeros((3, 10), dtype=np.float32)
    with pytest.raises(DimensionError):
        tr.translate(feats, params.as_tensors(train=False), config)
    # every task of a group holds the same number of samples
    group = stack_group([toy_features(seed=20), toy_features(seed=21)])
    group["b"] = stack_group([toy_features(seed=22)] * 3)["b"]
    with pytest.raises(DimensionError):
        tr.translate(group, params.as_tensors(train=False), config)
    # a positional embedding whose rows miss the token count fails in nn.add
    leaves = params.as_tensors(train=False)
    leaves["task_pos"] = nn.Tensor(np.zeros((config.total_tokens - 1, config.d_model)))
    with pytest.raises(DimensionError):
        tr.translate(toy_features(seed=20), leaves, config)


def test_translate_group_captures_attention_per_sample_and_layer():
    config = toy_config()
    leaves = tr.init_translator_params(config, np.random.default_rng(33)).as_tensors(train=False)
    group = [toy_features(seed=34 + i) for i in range(3)]
    captured = []
    logits = tr.translate(stack_group(group), leaves, config, captured).value
    assert logits.shape == (3, 1)
    assert len(captured) == config.n_layers * 3  # layer by layer, one array per sample
    for i, feats in enumerate(group):
        alone = []
        logit = tr.translate(feats, leaves, config, alone).item()
        assert logits[i, 0] == pytest.approx(logit, rel=1e-12, abs=1e-12)
        for layer in range(config.n_layers):
            assert captured[3 * layer + i].shape == (2, 8, 8)
            np.testing.assert_allclose(captured[3 * layer + i], alone[layer], atol=1e-12)


def test_forward_requires_frozen_models_and_keeps_them_bit_identical():
    """The forward pass (align, extract, translate) refuses an unfrozen task
    model, and a translator training step leaves a frozen one bit-identical."""
    spec = TaskSpec("p", "binary", (0, 1), noise_sigma=0.0, corr_rho=1.0, native_fps=2.0,
                    native_window_s=2.0, stride_s=1.0, feature_dim=6)
    model = tm.init_task_model(spec, np.random.default_rng(21))
    clip = FrameSeq(np.random.default_rng(22).normal(size=(8, 2)), fps=2.0, duration_s=4.0)
    config = tr.TranslatorConfig(
        task_dims=(("p", 8, 6),), d_model=8, n_layers=1, n_heads=2, d_ff=16,
        decoder_kind=tm.KIND_BINARY,
    )
    params = tr.init_translator_params(config, np.random.default_rng(23))
    with pytest.raises(ContractViolationError):
        tr.align_and_extract(clip, model)

    model.params.frozen = True
    checksum = model.params.checksum()
    feats = {"p": tr.align_and_extract(clip, model).values}
    logit = tr.translate(feats, params.as_tensors(train=False), config).item()

    # one full training step over the translator touches nothing frozen
    leaves = params.as_tensors()
    loss = tm.loss(config.decoder_kind, tr.translate(feats, leaves, config), [1], None)
    loss.backward()
    assert all(leaf.requires_grad for leaf in leaves.values())
    assert all(np.shares_memory(leaf.grad, leaves.grad) for leaf in leaves.values())
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    tg.optimizer_step(params, leaves.grad, state)
    assert model.params.checksum() == checksum

    again = {"p": tr.align_and_extract(clip, model).values}
    fresh = tr.init_translator_params(config, np.random.default_rng(23))
    assert tr.translate(again, fresh.as_tensors(train=False), config).item() == pytest.approx(logit)


def test_config_rejects_bad_shapes_and_orders():
    # the first task is the primary, so the order itself cannot be wrong
    assert toy_config(dims=(("a", 2, 10), ("p", 4, 6))).primary_task_id == "a"
    with pytest.raises(ValueError, match="duplicate task ids"):
        toy_config(dims=(("p", 4, 6), ("a", 2, 10), ("p", 2, 14)))
    with pytest.raises(DimensionError):
        tr.TranslatorConfig(TOY_DIMS, d_model=9, n_layers=1, n_heads=2, d_ff=4,
                            decoder_kind=tm.KIND_BINARY)
    with pytest.raises(ValueError):
        toy_config(decoder=tm.KIND_SEQUENCE)  # missing horizon/vocabs
