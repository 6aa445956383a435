import itertools
import warnings

import numpy as np
import pytest
from scipy.special import erf

from ettrans import nn_core as nn
from ettrans import task_models as tm
from ettrans import translator as tr
from ettrans import training as tg
from ettrans.errors import AlignmentError, ContractViolationError, DimensionError
from ettrans.temporal_align import FeatureSequence, FrameSeq

TOY_DIMS = (("p", 4, 6), ("a", 2, 10), ("b", 2, 14))


def toy_config(decoder=tm.KIND_BINARY, dims=TOY_DIMS, **kw):
    return tr.TranslatorConfig(
        task_dims=dims,
        d_model=8,
        n_layers=2,
        n_heads=2,
        d_ff=16,
        primary_task_id=dims[0][0],
        decoder_kind=decoder,
        **kw,
    )


def toy_features(dims=TOY_DIMS, seed=0):
    rng = np.random.default_rng(seed)
    return {
        t: FeatureSequence(t, rng.normal(size=(t_k, d_k)), np.arange(t_k) * 0.25)
        for t, t_k, d_k in dims
    }


# ---------------------------------------------------------------------------
# projection


def test_project_identity():
    feats = np.random.default_rng(0).normal(size=(4, 6))
    np.testing.assert_array_equal(tr.project(feats, np.eye(6)).value, feats)


def test_project_zeros():
    np.testing.assert_array_equal(
        tr.project(np.zeros((3, 4)), np.ones((4, 8))).value, np.zeros((3, 8))
    )


def test_project_matches_triple_loop_oracle_and_is_linear():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(4, 6))
    p = rng.normal(size=(6, 8))
    expected = np.zeros((4, 8))
    for i in range(4):
        for j in range(8):
            for k in range(6):
                expected[i, j] += h[i, k] * p[k, j]
    np.testing.assert_allclose(tr.project(h, p).value, expected, atol=1e-12)
    np.testing.assert_allclose(tr.project(3.0 * h, p).value, 3.0 * tr.project(h, p).value)


def test_project_rejects_width_mismatch():
    with pytest.raises(DimensionError):
        tr.project(np.zeros((4, 5)), np.zeros((6, 8)))


# ---------------------------------------------------------------------------
# token assembly


def test_assemble_zero_positional_embedding_is_plain_concat():
    rng = np.random.default_rng(2)
    blocks = [("x", nn.Tensor(rng.normal(size=(3, 4)))), ("y", nn.Tensor(rng.normal(size=(2, 4))))]
    seq = tr.assemble_tokens(blocks, np.zeros((5, 4)))
    np.testing.assert_array_equal(
        seq.tokens.value, np.vstack([blocks[0][1].value, blocks[1][1].value])
    )


def test_assemble_single_task_spans_all_rows():
    rng = np.random.default_rng(3)
    block = nn.Tensor(rng.normal(size=(4, 4)))
    pos = rng.normal(size=(4, 4))
    seq = tr.assemble_tokens([("only", block)], pos)
    assert seq.spans == {"only": (0, 4)}
    np.testing.assert_allclose(seq.tokens.value, block.value + pos)


def test_assemble_span_map_matches_prefix_sums():
    rng = np.random.default_rng(4)
    blocks = [
        ("t1", nn.Tensor(rng.normal(size=(4, 4)))),
        ("t2", nn.Tensor(rng.normal(size=(2, 4)))),
        ("t3", nn.Tensor(rng.normal(size=(2, 4)))),
    ]
    seq = tr.assemble_tokens(blocks, np.zeros((8, 4)))
    assert seq.spans == {"t1": (0, 4), "t2": (4, 2), "t3": (6, 2)}
    lengths = sorted((start, length) for start, length in seq.spans.values())
    covered = []
    for start, length in lengths:
        covered.extend(range(start, start + length))
    assert covered == list(range(8))


def test_assemble_rejects_row_mismatch():
    with pytest.raises(DimensionError):
        tr.assemble_tokens([("x", nn.Tensor(np.zeros((3, 4))))], np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# encoding


def layers_for(config, seed=0, scale=0.2):
    rng = np.random.default_rng(seed)
    leaves = {}
    for layer in range(config.n_layers):
        for name, arr in nn.init_encoder_layer_arrays(rng, config.d_model, config.d_ff).items():
            leaves[f"enc{layer}/{name}"] = nn.Tensor(rng.normal(0.0, scale, arr.shape))
    return leaves


def test_encode_single_layer_equals_direct_call():
    config = toy_config()
    leaves = layers_for(config)
    rng = np.random.default_rng(5)
    tokens = nn.Tensor(rng.normal(size=(8, 8)))
    seq = tr.TokenSequence(tokens, {"p": (0, 8)})
    layer0 = nn.EncoderLayerParams.from_tensors(leaves, "enc0/", config.n_heads)
    out = tr.encode(seq, [layer0])
    np.testing.assert_array_equal(out.tokens.value, nn.encoder_layer(tokens, layer0).value)


def test_encode_zero_weight_layers_are_identity():
    config = toy_config()
    zero_leaves = {}
    for layer in range(2):
        for name, arr in nn.init_encoder_layer_arrays(np.random.default_rng(0), 8, 16).items():
            value = np.ones_like(arr) if "gamma" in name else np.zeros_like(arr)
            zero_leaves[f"enc{layer}/{name}"] = nn.Tensor(value)
    tokens = np.random.default_rng(6).normal(size=(8, 8))
    seq = tr.TokenSequence(nn.Tensor(tokens), {"p": (0, 8)})
    out = tr.encode(seq, tr.encoder_layers_from(zero_leaves, config))
    np.testing.assert_array_equal(out.tokens.value, tokens)


def test_encode_two_layers_equals_manual_composition():
    config = toy_config()
    leaves = layers_for(config, seed=7)
    tokens = nn.Tensor(np.random.default_rng(8).normal(size=(8, 8)))
    seq = tr.TokenSequence(tokens, {"p": (0, 8)})
    layers = tr.encoder_layers_from(leaves, config)
    out = tr.encode(seq, layers)
    manual = nn.encoder_layer(nn.encoder_layer(tokens, layers[0]), layers[1])
    np.testing.assert_array_equal(out.tokens.value, manual.value)
    assert out.spans == seq.spans


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
        tr.translate([feats], params.as_tensors(train=False), config)


def test_translate_localization_scores_each_primary_frame_only():
    config = toy_config(decoder=tm.KIND_LOCALIZATION)
    params = tr.init_translator_params(config, np.random.default_rng(26))
    leaves = params.as_tensors(train=False)
    feats = toy_features(seed=27)
    scores = tr.translate([feats], leaves, config)
    assert scores.shape == (4, 1)  # primary "p" has 4 frames of 8 tokens

    projected = [(t, tr.project(feats[t].values, leaves[f"proj/{t}"])) for t in config.task_ids]
    encoded = tr.encode(
        tr.assemble_tokens(projected, leaves["task_pos"]),
        tr.encoder_layers_from(leaves, config),
        config.norm_first,
    )
    expected = encoded.tokens.value[:4] @ leaves["dec/w"].value + leaves["dec/b"].value
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
    assert len(actions) == 3
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
        assert action == tuple(scanned)


# ---------------------------------------------------------------------------
# full translation


def test_translate_matches_monolithic_reimplementation():
    """Whole pipeline vs an independent flat numpy reimplementation."""
    config = toy_config()
    rng = np.random.default_rng(14)
    params = tr.init_translator_params(config, rng)
    feats = toy_features(seed=15)
    logit = tr.translate([feats], params.as_tensors(train=False), config).item()

    def mono_ln(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    def mono_gelu(x):
        return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

    v = {n: params[n].value for n in params.names()}
    z = np.vstack([feats[t].values.astype(np.float64) @ v[f"proj/{t}"] for t, _, _ in config.task_dims])
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


def test_translate_block_permutation_invariant_with_zero_positions():
    """Zeroed positional embeddings + mean pooling: task block order is moot."""
    config = toy_config()
    rng = np.random.default_rng(16)
    params = tr.init_translator_params(config, rng)
    params["task_pos"].value[:] = 0.0
    leaves = params.as_tensors(train=False)
    feats = toy_features(seed=17)

    projected = {
        t: tr.project(feats[t].values, leaves[f"proj/{t}"]) for t, _, _ in config.task_dims
    }
    layers = tr.encoder_layers_from(leaves, config)
    logits = []
    for order in itertools.permutations(config.task_ids):
        blocks = [(t, projected[t]) for t in order]
        seq = tr.assemble_tokens(blocks, leaves["task_pos"])
        encoded = tr.encode(seq, layers, config.norm_first)
        logits.append(tm.head_graph(encoded.tokens, leaves, tm.KIND_BINARY, "dec").item())
    assert max(logits) - min(logits) < 1e-6
    assert len(logits) == 6


def test_translate_pipeline_collapse_to_decoder():
    """Identity projection + zero-weight encoder reduces to decoding raw
    features plus the positional embedding."""
    dims = (("p", 4, 8),)
    config = tr.TranslatorConfig(
        task_dims=dims, d_model=8, n_layers=1, n_heads=2, d_ff=16,
        primary_task_id="p", decoder_kind=tm.KIND_BINARY,
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
    feats = {"p": FeatureSequence("p", rng.normal(size=(4, 8)), np.arange(4) * 0.5)}
    got = tr.translate([feats], params.as_tensors(train=False), config).item()
    raw = feats["p"].values.astype(np.float64) + params["task_pos"].value
    expected = (raw.mean(axis=0) @ params["dec/w"].value + params["dec/b"].value).item()
    assert got == pytest.approx(expected, abs=1e-12)


def test_translate_validates_feature_shapes():
    config = toy_config()
    params = tr.init_translator_params(config, np.random.default_rng(19))
    feats = toy_features(seed=20)
    feats["a"] = FeatureSequence("a", np.zeros((3, 10)), np.arange(3) * 0.5)
    with pytest.raises(DimensionError):
        tr.translate([feats], params.as_tensors(train=False), config)


def test_translate_refuses_a_group_with_different_primary_frame_times():
    config = toy_config(decoder=tm.KIND_LOCALIZATION)
    leaves = tr.init_translator_params(config, np.random.default_rng(30)).as_tensors(train=False)
    first, second = toy_features(seed=31), toy_features(seed=32)
    second["p"] = FeatureSequence("p", second["p"].values, np.arange(4) * 0.5)
    with pytest.raises(AlignmentError):
        tr.translate([first, second], leaves, config)
    tr.translate([first, toy_features(seed=32)], leaves, config)  # equal times pass


def test_translate_group_captures_attention_per_sample_and_layer():
    config = toy_config()
    leaves = tr.init_translator_params(config, np.random.default_rng(33)).as_tensors(train=False)
    group = [toy_features(seed=34 + i) for i in range(3)]
    captured = []
    logits = tr.translate(group, leaves, config, captured).value
    assert logits.shape == (3, 1)
    assert len(captured) == config.n_layers * 3  # layer by layer, one array per sample
    for i, feats in enumerate(group):
        alone = []
        logit = tr.translate([feats], leaves, config, alone).item()
        assert logits[i, 0] == pytest.approx(logit, rel=1e-12, abs=1e-12)
        for layer in range(config.n_layers):
            assert captured[3 * layer + i].shape == (2, 8, 8)
            np.testing.assert_allclose(captured[3 * layer + i], alone[layer], atol=1e-12)


def test_forward_requires_frozen_models_and_keeps_them_bit_identical():
    """The forward pass (align, extract, translate) refuses an unfrozen task
    model, and a translator training step leaves a frozen one bit-identical."""
    spec = dict(channels=(0, 1), feature_dim=6, native_fps=2.0, native_window_s=2.0)
    model = tm.init_task_model("p", "binary", spec["channels"], spec["feature_dim"],
                               spec["native_fps"], spec["native_window_s"],
                               np.random.default_rng(21))
    clip = FrameSeq(np.random.default_rng(22).normal(size=(8, 2)), fps=2.0, duration_s=4.0)
    config = tr.TranslatorConfig(
        task_dims=(("p", 8, 6),), d_model=8, n_layers=1, n_heads=2, d_ff=16,
        primary_task_id="p", decoder_kind=tm.KIND_BINARY,
    )
    params = tr.init_translator_params(config, np.random.default_rng(23))
    with pytest.raises(ContractViolationError):
        tr.align_and_extract(clip, model, 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tm.freeze(model)
    checksum = model.checksum()
    feats = {"p": tr.align_and_extract(clip, model, 1.0)}
    logit = tr.translate([feats], params.as_tensors(train=False), config).item()

    # one full training step over the translator touches nothing frozen
    leaves = params.as_tensors()
    loss = tg.batch_loss(tr.translate([feats], leaves, config), [1], config.decoder_kind)
    loss.backward()
    grads = nn.collect_grads(leaves)
    assert set(grads) == set(params.trainable_names())
    state = tg.OptimState.for_params(params, tg.TrainHyper())
    tg.optimizer_step(params, grads, state)
    assert model.checksum() == checksum

    again = {"p": tr.align_and_extract(clip, model, 1.0)}
    fresh = tr.init_translator_params(config, np.random.default_rng(23))
    assert tr.translate([again], fresh.as_tensors(train=False), config).item() == pytest.approx(logit)


def test_config_rejects_bad_shapes_and_orders():
    with pytest.raises(ValueError):
        tr.TranslatorConfig(  # primary not first
            (("a", 2, 10), ("p", 4, 6), ("b", 2, 14)),
            d_model=8, n_layers=1, n_heads=2, d_ff=16,
            primary_task_id="p", decoder_kind=tm.KIND_BINARY,
        )
    with pytest.raises(DimensionError):
        tr.TranslatorConfig(TOY_DIMS, d_model=9, n_layers=1, n_heads=2, d_ff=4,
                            primary_task_id="p", decoder_kind=tm.KIND_BINARY)
    with pytest.raises(ValueError):
        toy_config(decoder=tm.KIND_SEQUENCE)  # missing horizon/vocabs
