import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ettrans import nn_core as nn
from ettrans.errors import DimensionError


def rand_layer_arrays(rng, d, d_ff, scale=0.35):
    """Layer parameters at a generic point: all entries drawn at O(scale).

    Gradient checks need every partial derivative comfortably above the
    central-difference noise floor; the tiny production init (std 0.02) makes
    attention-weight gradients second-order small, which says nothing about
    the correctness of the derivative code.
    """
    arrays = nn.init_encoder_layer_arrays(rng, d, d_ff)
    return {k: rng.normal(0.0, scale, size=v.shape) for k, v in arrays.items()}


def rand_layer(rng, d, d_ff, n_heads, scale=0.35):
    tensors = {k: nn.Tensor(v) for k, v in rand_layer_arrays(rng, d, d_ff, scale).items()}
    return nn.EncoderLayerParams.from_tensors(tensors, "", n_heads)


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_input():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = nn.linear(np.eye(2), w)
    np.testing.assert_array_equal(out.value, w)


def test_linear_zero_annihilation():
    out = nn.linear(np.zeros((3, 4)), np.random.default_rng(0).normal(size=(4, 5)))
    np.testing.assert_array_equal(out.value, np.zeros((3, 5)))


def test_linear_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            acc = b[j]
            for k in range(3):
                acc += x[i, k] * w[k, j]
            expected[i, j] = acc
    np.testing.assert_allclose(nn.linear(x, w, b).value, expected, rtol=0, atol=1e-12)


def test_linear_shape_mismatch_names_both_operands():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.linear(np.zeros((2, 3)), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_maps_to_beta():
    out = nn.layer_norm(np.array([[5.0, 5.0, 5.0, 5.0]]), np.ones(4), np.zeros(4))
    np.testing.assert_allclose(out.value, np.zeros((1, 4)), atol=1e-9)
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    out2 = nn.layer_norm(np.array([[5.0, 5.0, 5.0, 5.0]]), np.ones(4), beta)
    np.testing.assert_allclose(out2.value, beta[None, :], atol=1e-9)


def test_layer_norm_already_normalized_row():
    out = nn.layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2), eps=1e-12)
    np.testing.assert_allclose(out.value, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_row_statistics():
    rng = np.random.default_rng(7)
    x = rng.normal(2.0, 3.0, size=(4, 8))
    out = nn.layer_norm(x, np.ones(8), np.zeros(8)).value
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4


def test_layer_norm_width_mismatch():
    with pytest.raises(DimensionError):
        nn.layer_norm(np.zeros((2, 4)), np.ones(3), np.zeros(3))


def test_layer_norm_requires_positive_eps():
    with pytest.raises(ValueError):
        nn.layer_norm(np.zeros((1, 2)), np.ones(2), np.zeros(2), eps=0.0)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    np.testing.assert_allclose(nn.softmax(np.array([0.0, 0.0])).value, [0.5, 0.5])


def test_softmax_large_inputs_do_not_overflow():
    out = nn.softmax(np.array([1000.0, 0.0])).value
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_softmax_matches_exp_sum_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=7)
    expected = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(nn.softmax(x).value, expected, atol=1e-12)


def test_softmax_empty_input_rejected():
    with pytest.raises(ValueError):
        nn.softmax(np.zeros(0))


@given(
    hst.lists(hst.floats(-50, 50), min_size=1, max_size=12),
    hst.floats(-100, 100),
)
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance(values, shift):
    x = np.array(values)
    base = nn.softmax(x).value
    shifted = nn.softmax(x + shift).value
    assert base.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(base > 0)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


# ---------------------------------------------------------------------------
# attention


def test_attention_single_token_weight_is_one():
    rng = np.random.default_rng(0)
    p = rand_layer(rng, 8, 16, 2)
    x = rng.normal(size=(1, 8))
    captured = []
    out = nn.multi_head_attention(nn.Tensor(x), p, weights_out=captured)
    np.testing.assert_allclose(captured[0], np.ones((2, 1, 1)))
    v = x @ p.wv.value + p.bv.value
    expected = v @ p.wo.value + p.bo.value
    np.testing.assert_allclose(out.value, expected, atol=1e-12)


def test_attention_identical_tokens_give_identical_rows():
    rng = np.random.default_rng(1)
    p = rand_layer(rng, 8, 16, 4)
    x = np.tile(rng.normal(size=(1, 8)), (5, 1))
    out = nn.multi_head_attention(nn.Tensor(x), p).value
    np.testing.assert_allclose(out, np.tile(out[:1], (5, 1)), atol=1e-12)


def test_attention_matches_dense_loop_oracle():
    rng = np.random.default_rng(2)
    p = rand_layer(rng, 6, 12, 1)
    x = rng.normal(size=(3, 6))
    out = nn.multi_head_attention(nn.Tensor(x), p).value

    q = x @ p.wq.value + p.bq.value
    k = x @ p.wk.value
    v = x @ p.wv.value + p.bv.value
    expected = np.zeros((3, 6))
    for i in range(3):
        logits = np.array([np.dot(q[i], k[j]) / math.sqrt(6) for j in range(3)])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        expected[i] = sum(weights[j] * v[j] for j in range(3))
    expected = expected @ p.wo.value + p.bo.value
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_attention_weight_rows_sum_to_one():
    rng = np.random.default_rng(4)
    p = rand_layer(rng, 8, 16, 4)
    captured = []
    nn.multi_head_attention(nn.Tensor(rng.normal(size=(7, 8))), p, weights_out=captured)
    (weights,) = captured
    assert weights.shape == (4, 7, 7)
    np.testing.assert_allclose(weights.sum(axis=2), np.ones((4, 7)), atol=1e-6)


def test_attention_rejects_indivisible_heads():
    rng = np.random.default_rng(5)
    arrays = nn.init_encoder_layer_arrays(rng, 6, 12)
    tensors = {k: nn.Tensor(v) for k, v in arrays.items()}
    with pytest.raises(DimensionError):
        nn.EncoderLayerParams.from_tensors(tensors, "", 4)


# ---------------------------------------------------------------------------
# encoder layer


@pytest.mark.parametrize("t,d", [(1, 8), (5, 16), (32, 32)])
def test_encoder_layer_preserves_shape(t, d):
    rng = np.random.default_rng(d)
    p = rand_layer(rng, d, 2 * d, 4)
    out = nn.encoder_layer(nn.Tensor(rng.normal(size=(t, d))), p)
    assert out.shape == (t, d)
    assert np.all(np.isfinite(out.value))


def test_encoder_layer_zero_weights_is_identity():
    zero = {k: np.zeros_like(v) for k, v in nn.init_encoder_layer_arrays(np.random.default_rng(0), 8, 16).items()}
    zero["ln1_gamma"] = np.ones(8)
    zero["ln2_gamma"] = np.ones(8)
    tensors = {k: nn.Tensor(v) for k, v in zero.items()}
    p = nn.EncoderLayerParams.from_tensors(tensors, "", 2)
    x = np.random.default_rng(1).normal(size=(5, 8))
    out = nn.encoder_layer(nn.Tensor(x), p).value
    np.testing.assert_array_equal(out, x)


def test_encoder_layer_permutation_equivariance_all_orders():
    import itertools

    rng = np.random.default_rng(6)
    p = rand_layer(rng, 8, 16, 2)
    x = rng.normal(size=(3, 8))
    base = nn.encoder_layer(nn.Tensor(x), p).value
    for perm in itertools.permutations(range(3)):
        perm = list(perm)
        permuted = nn.encoder_layer(nn.Tensor(x[perm]), p).value
        assert np.abs(permuted - base[perm]).max() < 1e-6


def test_encoder_layer_post_norm_variant_runs():
    rng = np.random.default_rng(8)
    p = rand_layer(rng, 8, 16, 2)
    x = rng.normal(size=(4, 8))
    pre = nn.encoder_layer(nn.Tensor(x), p, norm_first=True).value
    post = nn.encoder_layer(nn.Tensor(x), p, norm_first=False).value
    assert pre.shape == post.shape == (4, 8)
    assert not np.allclose(pre, post)


# ---------------------------------------------------------------------------
# gradient checking


def test_grad_check_quadratic_is_nearly_exact():
    params = nn.ParamSet()
    params.add("w", np.asarray(3.0))
    err = nn.grad_check(lambda p: nn.mul(p["w"], p["w"]), params, eps=1e-5)
    assert err < 1e-9
    leaves = params.as_tensors()
    out = nn.mul(leaves["w"], leaves["w"])
    out.backward()
    assert leaves["w"].grad == pytest.approx(6.0)


def test_grad_check_linear_under_squared_loss():
    rng = np.random.default_rng(11)
    params = nn.ParamSet()
    params.add("w", rng.normal(size=(4, 2)))
    params.add("b", rng.normal(size=2))
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 2))

    def f(p):
        diff = nn.sub(nn.linear(x, p["w"], p["b"]), y)
        return nn.mean_all(nn.mul(diff, diff))

    assert nn.grad_check(f, params, eps=1e-5) < 1e-7


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_every_parameterized_operation(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0

    params = nn.ParamSet()
    params.add("x", rng.normal(size=(3, 4)))
    params.add("w", rng.normal(size=(4, 2)))
    params.add("b", rng.normal(size=2))
    worst = max(worst, nn.grad_check(lambda p: nn.sum_all(nn.linear(p["x"], p["w"], p["b"])), params))

    params = nn.ParamSet()
    params.add("x", rng.normal(size=(3, 6)))
    params.add("g", rng.normal(1.0, 0.3, size=6))
    params.add("beta", rng.normal(size=6))
    worst = max(
        worst,
        nn.grad_check(lambda p: nn.mean_all(nn.layer_norm(p["x"], p["g"], p["beta"])), params),
    )

    params = nn.ParamSet()
    params.add("x", rng.normal(size=5))
    target = rng.normal(size=5)
    worst = max(
        worst,
        nn.grad_check(lambda p: nn.sum_all(nn.mul(nn.softmax(p["x"]), target)), params),
    )

    params = nn.ParamSet()
    for name, arr in rand_layer_arrays(rng, 8, 12).items():
        params.add(name, arr)
    params.add("tokens", rng.normal(size=(4, 8)))

    def attn_loss(p):
        layer = nn.EncoderLayerParams.from_tensors(p, "", 2)
        return nn.mean_all(nn.multi_head_attention(p["tokens"], layer))

    def enc_loss(p):
        layer = nn.EncoderLayerParams.from_tensors(p, "", 2)
        return nn.mean_all(nn.encoder_layer(p["tokens"], layer))

    worst = max(worst, nn.grad_check(attn_loss, params))
    worst = max(worst, nn.grad_check(enc_loss, params))

    params = nn.ParamSet()
    params.add("x", rng.normal(size=(6, 3)))
    params.add("taps", rng.normal(size=4))
    worst = max(worst, nn.grad_check(lambda p: nn.mean_all(nn.causal_mix(p["x"], p["taps"])), params))

    params = nn.ParamSet()
    params.add("logit", rng.normal(size=(1, 1)))
    worst = max(worst, nn.grad_check(lambda p: nn.sigmoid_cross_entropy(p["logit"], 1.0), params))

    params = nn.ParamSet()
    params.add("scores", rng.normal(size=(6, 1)))
    worst = max(worst, nn.grad_check(lambda p: nn.softmax_cross_entropy(p["scores"], 2), params))

    assert worst < 1e-4


# ---------------------------------------------------------------------------
# stacked sequences and row-batched losses


def test_stacked_sequence_ops_equal_per_sequence_ops():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4 * 5, 3))
    taps = rng.normal(size=4)
    mixed = nn.causal_mix(x, taps, n_seqs=4).value
    pooled = nn.mean_rows(x, n_seqs=4).value
    assert mixed.shape == (20, 3)
    assert pooled.shape == (4, 3)
    for i in range(4):
        seq = x[5 * i : 5 * (i + 1)]
        np.testing.assert_array_equal(mixed[5 * i : 5 * (i + 1)], nn.causal_mix(seq, taps).value)
        np.testing.assert_array_equal(pooled[i : i + 1], nn.mean_rows(seq).value)


def test_stacked_sequence_ops_reject_uneven_splits():
    with pytest.raises(DimensionError):
        nn.causal_mix(np.zeros((7, 2)), np.ones(3), n_seqs=2)
    with pytest.raises(DimensionError):
        nn.mean_rows(np.zeros((7, 2)), n_seqs=3)
    with pytest.raises(DimensionError):
        nn.mean_rows(np.zeros((6, 2)), n_seqs=0)


def test_row_batched_losses_equal_sum_of_per_row_losses():
    rng = np.random.default_rng(22)
    logits = rng.normal(size=(5, 1))
    targets = rng.integers(2, size=5).astype(float)
    got = nn.sigmoid_cross_entropy(logits, targets).item()
    want = sum(nn.sigmoid_cross_entropy(z.reshape(1, 1), t).item() for z, t in zip(logits, targets))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    scores = rng.normal(size=(4, 6))
    labels = rng.integers(6, size=4)
    want = sum(nn.softmax_cross_entropy(row, int(k)).item() for row, k in zip(scores, labels))
    assert nn.softmax_cross_entropy(scores, labels).item() == pytest.approx(want, rel=1e-12)
    # the same four score vectors held as one column
    column = scores.reshape(-1, 1)
    assert nn.softmax_cross_entropy(column, labels).item() == pytest.approx(want, rel=1e-12)


def test_row_batched_losses_reject_mismatched_targets():
    with pytest.raises(DimensionError):
        nn.sigmoid_cross_entropy(np.zeros((3, 1)), [0.0, 1.0])
    with pytest.raises(DimensionError):
        nn.softmax_cross_entropy(np.zeros((3, 4)), [0, 1])
    with pytest.raises(DimensionError):
        nn.softmax_cross_entropy(np.zeros((3, 4)), 1)
    with pytest.raises(ValueError):
        nn.softmax_cross_entropy(np.zeros((2, 4)), [0, 4])


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_stacked_sequences_and_row_batched_losses(seed):
    rng = np.random.default_rng(100 + seed)
    worst = 0.0

    # three stacked 4-row sequences, read out with unequal weights per row so
    # every boundary row carries its own gradient
    params = nn.ParamSet()
    params.add("x", rng.normal(size=(3 * 4, 2)))
    params.add("taps", rng.normal(size=4))
    readout = rng.normal(size=(3 * 4, 2))
    worst = max(
        worst,
        nn.grad_check(
            lambda p: nn.sum_all(nn.mul(nn.causal_mix(p["x"], p["taps"], 3), readout)), params
        ),
    )

    params = nn.ParamSet()
    params.add("x", rng.normal(size=(3 * 4, 5)))
    readout = rng.normal(size=(3, 5))
    worst = max(
        worst, nn.grad_check(lambda p: nn.sum_all(nn.mul(nn.mean_rows(p["x"], 3), readout)), params)
    )

    params = nn.ParamSet()
    params.add("logits", rng.normal(size=(5, 1)))
    targets = rng.integers(2, size=5).astype(float)
    worst = max(
        worst, nn.grad_check(lambda p: nn.sigmoid_cross_entropy(p["logits"], targets), params)
    )

    labels = rng.integers(6, size=4)
    for shape in ((4, 6), (4 * 6, 1)):
        params = nn.ParamSet()
        params.add("scores", rng.normal(size=shape))
        worst = max(
            worst, nn.grad_check(lambda p: nn.softmax_cross_entropy(p["scores"], labels), params)
        )

    assert worst < 1e-4


def test_stacked_attention_concat_and_slice_equal_per_sequence_ops():
    rng = np.random.default_rng(23)
    n, t, d, heads = 3, 5, 8, 2
    q, k, v = (rng.normal(size=(n * t, d)) for _ in range(3))
    captured = []
    attended = nn.scaled_dot_attention(q, k, v, heads, captured, n_seqs=n).value
    layer = rand_layer(rng, d, 16, heads)
    x = rng.normal(size=(n * t, d))
    encoded = nn.encoder_layer(x, layer, n_seqs=n).value
    first = rng.normal(size=(n * 2, d))
    joined = nn.concat_rows([first, x], n_seqs=n).value
    cut = nn.slice_rows(x, 1, 4, n_seqs=n).value
    pos = rng.normal(size=(t, d))
    shifted = nn.add(x, pos, n_seqs=n).value
    assert len(captured) == n
    for i in range(n):
        rows = slice(t * i, t * (i + 1))
        alone = []
        want = nn.scaled_dot_attention(q[rows], k[rows], v[rows], heads, alone).value
        np.testing.assert_allclose(attended[rows], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(captured[i], alone[0], rtol=1e-12, atol=1e-12)
        want = nn.encoder_layer(x[rows], layer).value
        np.testing.assert_allclose(encoded[rows], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(
            joined[(t + 2) * i : (t + 2) * (i + 1)],
            nn.concat_rows([first[2 * i : 2 * (i + 1)], x[rows]]).value,
        )
        np.testing.assert_array_equal(cut[3 * i : 3 * (i + 1)], nn.slice_rows(x[rows], 1, 4).value)
        np.testing.assert_array_equal(shifted[rows], nn.add(x[rows], pos).value)
    # attention over the stacked rows as one sequence lets tokens attend
    # across sequences, which the per-sequence results rule out
    leaky = nn.scaled_dot_attention(q, k, v, heads).value
    assert not np.allclose(leaky, attended, atol=1e-6)


def test_stacked_attention_concat_and_slice_reject_uneven_splits():
    with pytest.raises(DimensionError):
        nn.scaled_dot_attention(*(np.zeros((7, 4)) for _ in range(3)), 2, n_seqs=2)
    with pytest.raises(DimensionError):
        nn.concat_rows([np.zeros((4, 2)), np.zeros((3, 2))], n_seqs=2)
    with pytest.raises(DimensionError):
        nn.slice_rows(np.zeros((7, 2)), 0, 1, n_seqs=2)
    with pytest.raises(DimensionError):
        nn.add(np.zeros((7, 2)), np.zeros((3, 2)), n_seqs=2)


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_stacked_attention_concat_and_slice(seed):
    """Three stacked sequences through attention, a per-sequence join, a
    positional add and a per-sequence cut, read out with unequal weights."""
    rng = np.random.default_rng(200 + seed)
    n, d = 3, 4
    params = nn.ParamSet()
    for name, arr in rand_layer_arrays(rng, d, 8).items():
        params.add(name, arr)
    params.add("a", rng.normal(size=(n * 2, d)))
    params.add("b", rng.normal(size=(n * 3, d)))
    params.add("pos", rng.normal(size=(5, d)))
    readout = rng.normal(size=(n * 2, d))

    def f(p):
        layer = nn.EncoderLayerParams.from_tensors(p, "", 2)
        tokens = nn.add(nn.concat_rows([p["a"], p["b"]], n), p["pos"], n)
        attended = nn.multi_head_attention(tokens, layer, n_seqs=n)
        return nn.sum_all(nn.mul(nn.slice_rows(attended, 1, 3, n), readout))

    assert nn.grad_check(f, params) < 1e-4


def test_grad_check_passes_an_exactly_zero_gradient():
    """A shift of every score leaves a softmax loss unchanged: the analytic
    partial is zero up to roundoff and the central difference is roundoff."""
    rng = np.random.default_rng(5)
    params = nn.ParamSet()
    params.add("scores", rng.normal(size=(6, 1)))
    params.add("shift", np.zeros(1))
    f = lambda p: nn.softmax_cross_entropy(nn.add(p["scores"], p["shift"]), 2)
    leaves = params.as_tensors()
    f(leaves).backward()
    assert abs(leaves["shift"].grad[0]) < 1e-15
    assert nn.grad_check(f, params) < 1e-4


def _scale_dropping_small_partials(a, c):
    """Elementwise a * c whose VJP drops the partials of entries with
    |c| < 1e-6: a wrong derivative on near-zero-gradient entries only."""
    a = nn.as_tensor(a)

    def vjp(g):
        partial = g * c
        partial[np.abs(c) < 1e-6] = 0.0
        nn._accumulate(a, partial)

    return nn._node(a.value * c, (a,), vjp)


def test_grad_check_fails_a_wrong_vjp_on_a_near_zero_gradient():
    c = np.array([1.0, 2e-7, -0.5])
    params = nn.ParamSet()
    params.add("w", np.array([0.3, -1.2, 2.0]))
    right = nn.grad_check(lambda p: nn.sum_all(nn.mul(p["w"], c)), params)
    assert right < 1e-4
    wrong = nn.grad_check(lambda p: nn.sum_all(_scale_dropping_small_partials(p["w"], c)), params)
    assert wrong > 1e-4


def test_grad_check_rejects_nonfinite_base_point():
    params = nn.ParamSet()
    params.add("w", np.asarray(np.inf))
    with pytest.raises(ValueError):
        nn.grad_check(lambda p: nn.mul(p["w"], p["w"]), params)


def test_forward_operations_finite_on_extreme_inputs():
    rng = np.random.default_rng(12)
    big = np.array([[1e6, -1e6, 500.0, 0.0]])
    assert np.all(np.isfinite(nn.softmax(big.ravel()).value))
    assert np.all(np.isfinite(nn.layer_norm(big, np.ones(4), np.zeros(4)).value))
    assert np.all(np.isfinite(nn.gelu(big).value))
    p = rand_layer(rng, 4, 8, 2)
    assert np.all(np.isfinite(nn.encoder_layer(nn.Tensor(np.tile(big, (3, 1))), p).value))
    assert np.isfinite(nn.sigmoid_cross_entropy(np.asarray([[1e4]]), 0.0).value)
    assert np.isfinite(nn.softmax_cross_entropy(np.asarray([1e4, -1e4, 0.0]), 1).value)


# ---------------------------------------------------------------------------
# tensors and parameter sets


def test_tensor_rejects_3d_and_nonscalar_backward():
    with pytest.raises(DimensionError):
        nn.Tensor(np.zeros((2, 2, 2)))
    t = nn.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        t.backward()


def test_param_set_rejects_duplicate_names():
    params = nn.ParamSet()
    params.add("w", np.zeros(2))
    with pytest.raises(ValueError):
        params.add("w", np.zeros(2))


def test_param_set_checksum_tracks_values():
    params = nn.ParamSet()
    params.add("w", np.arange(4.0))
    before = params.checksum()
    assert params.checksum() == before
    params["w"].value = params["w"].value + 1.0
    assert params.checksum() != before


def test_frozen_leaves_do_not_collect_gradients():
    params = nn.ParamSet()
    params.add("w", np.ones((2, 2)), trainable=False)
    params.add("v", np.ones((2, 2)))
    leaves = params.as_tensors()
    out = nn.sum_all(nn.matmul(leaves["w"], leaves["v"]))
    out.backward()
    grads = nn.collect_grads(leaves)
    assert set(grads) == {"v"}
