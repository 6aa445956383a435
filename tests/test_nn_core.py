import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import expit

from ettrans import nn_core as nn
from ettrans.errors import ContractViolationError, DimensionError


def rand_layer_arrays(rng, d, d_ff, scale=0.35):
    """Layer parameters at a generic point: all entries drawn at O(scale).

    Gradient checks need every partial derivative comfortably above the
    central-difference noise floor; the tiny production init (std 0.02) makes
    attention-weight gradients second-order small, which says nothing about
    the correctness of the derivative code.
    """
    arrays = nn.init_encoder_layer_arrays(rng, d, d_ff)
    return {k: rng.normal(0.0, scale, size=v.shape) for k, v in arrays.items()}


def rand_layer(rng, d, d_ff, scale=0.35):
    """Layer leaves at a generic point, under the empty prefix."""
    return {k: nn.Tensor(v) for k, v in rand_layer_arrays(rng, d, d_ff, scale).items()}


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
    with pytest.raises(DimensionError, match=r"bias has shape \(4,\).*5 columns"):
        nn.linear(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


def test_bias_free_linear_on_a_batch_is_matmul_bit_for_bit_and_grad_checks():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 4, 5))
    w = rng.normal(size=(5, 2))
    out = nn.linear(x, w)
    assert out.shape == (3, 4, 2)
    np.testing.assert_array_equal(out.value, np.matmul(x, w))

    params = nn.ParamSet()
    params.add("x", x)
    params.add("w", w)
    readout = rng.normal(size=(3, 4, 2))
    f = lambda p: nn.sum_all(nn.mul(nn.linear(p["x"], p["w"]), readout))
    assert nn.grad_check(f, params) < 1e-7


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
# normal CDF and sigmoid


def test_normal_cdf_matches_mpmath_to_two_ulp():
    x = np.concatenate(
        [np.linspace(-12.0, 12.0, 4801), np.random.default_rng(31).normal(0.0, 2.0, 2000)]
    )
    want = np.array([float(mpmath.ncdf(v)) for v in x.tolist()])
    cdf, _ = nn._normal_cdf(x)
    assert np.max(np.abs(cdf - want)) <= 5e-16


def test_normal_cdf_exact_values_and_special_inputs():
    cdf, bell = nn._normal_cdf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    np.testing.assert_array_equal(cdf, [0.5, 0.5, 1.0, 0.0, np.nan])
    np.testing.assert_array_equal(bell, [1.0, 1.0, 0.0, 0.0, np.nan])
    for x in (np.asarray(0.3), 0.3, 1e200, -1e200):
        cdf, bell = nn._normal_cdf(x)
        assert np.shape(cdf) == np.shape(bell) == ()
        assert 0.0 <= float(cdf) <= 1.0
    assert nn._normal_cdf(1e200) == (1.0, 0.0)
    assert nn._normal_cdf(-1e200) == (0.0, 0.0)
    assert float(nn._normal_cdf(np.asarray(0.3))[0]) == float(nn._normal_cdf(0.3)[0])


def test_normal_cdf_second_output_is_exp_bit_for_bit():
    x = np.concatenate(
        [np.random.default_rng(32).normal(0.0, 2.0, 10_000), np.linspace(-45.0, 45.0, 9001)]
    )
    _, bell = nn._normal_cdf(x)
    np.testing.assert_array_equal(bell, np.exp(-x * x / 2))


def test_sigmoid_loss_gradient_is_expit():
    z = np.concatenate([np.random.default_rng(33).normal(0.0, 8.0, 5000), [1e3, -1e3]])
    logit = nn.Tensor(z.reshape(-1, 1), requires_grad=True)
    with np.errstate(all="raise"):  # softplus(-1e3) underflows to exactly 0
        loss = nn.sigmoid_cross_entropy(logit, np.zeros(z.size))
        loss.backward()  # d loss / d z = sigmoid(z) - 0
    # 0.5 tanh(z/2) + 0.5 is within one machine epsilon (2 ulp just below 1)
    np.testing.assert_allclose(logit.grad.ravel(), expit(z), rtol=0, atol=np.finfo(float).eps)


# ---------------------------------------------------------------------------
# attention


def test_attention_single_token_weight_is_one():
    rng = np.random.default_rng(0)
    p = rand_layer(rng, 8, 16)
    x = rng.normal(size=(1, 8))
    captured = []
    out = nn.multi_head_attention(nn.Tensor(x), p, "", 2, weights_out=captured)
    np.testing.assert_allclose(captured[0], np.ones((2, 1, 1)))
    v = x @ p["wv"].value + p["bv"].value
    expected = v @ p["wo"].value + p["bo"].value
    np.testing.assert_allclose(out.value, expected, atol=1e-12)


def test_attention_identical_tokens_give_identical_rows():
    rng = np.random.default_rng(1)
    p = rand_layer(rng, 8, 16)
    x = np.tile(rng.normal(size=(1, 8)), (5, 1))
    out = nn.multi_head_attention(nn.Tensor(x), p, "", 4).value
    np.testing.assert_allclose(out, np.tile(out[:1], (5, 1)), atol=1e-12)


def test_attention_matches_dense_loop_oracle():
    rng = np.random.default_rng(2)
    p = rand_layer(rng, 6, 12)
    x = rng.normal(size=(3, 6))
    out = nn.multi_head_attention(nn.Tensor(x), p, "", 1).value

    q = x @ p["wq"].value + p["bq"].value
    k = x @ p["wk"].value
    v = x @ p["wv"].value + p["bv"].value
    expected = np.zeros((3, 6))
    for i in range(3):
        logits = np.array([np.dot(q[i], k[j]) / math.sqrt(6) for j in range(3)])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        expected[i] = sum(weights[j] * v[j] for j in range(3))
    expected = expected @ p["wo"].value + p["bo"].value
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_attention_weight_rows_sum_to_one():
    rng = np.random.default_rng(4)
    p = rand_layer(rng, 8, 16)
    captured = []
    nn.multi_head_attention(nn.Tensor(rng.normal(size=(7, 8))), p, "", 4, weights_out=captured)
    (weights,) = captured
    assert weights.shape == (4, 7, 7)
    np.testing.assert_allclose(weights.sum(axis=2), np.ones((4, 7)), atol=1e-6)


@pytest.mark.parametrize("name", nn.ENCODER_PARAM_FIELDS)
def test_encoder_layer_params_reject_misshaped_vectors(name):
    arrays = nn.init_encoder_layer_arrays(np.random.default_rng(0), 8, 16)
    arrays[name] = np.zeros(1)
    leaves = {f"enc0/{k}": nn.Tensor(v) for k, v in arrays.items()}
    x = nn.Tensor(np.zeros((3, 8)))
    with pytest.raises(DimensionError, match=f"enc0/{name}"):
        nn.encoder_layer(x, leaves, "enc0/", 2)
    with pytest.raises(DimensionError, match=f"enc0/{name}"):
        nn.multi_head_attention(x, leaves, "enc0/", 2)


def test_encoder_layout_names_the_init_arrays_in_param_set_order():
    arrays = nn.init_encoder_layer_arrays(np.random.default_rng(0), 8, 16)
    assert tuple(arrays) == nn.ENCODER_PARAM_FIELDS


def test_attention_rejects_indivisible_heads():
    rng = np.random.default_rng(5)
    arrays = nn.init_encoder_layer_arrays(rng, 6, 12)
    tensors = {k: nn.Tensor(v) for k, v in arrays.items()}
    x = nn.Tensor(rng.normal(size=(3, 6)))
    for n_heads in (4, 0):
        with pytest.raises(DimensionError, match="heads"):
            nn.encoder_layer(x, tensors, "", n_heads)
        with pytest.raises(DimensionError, match="heads"):
            nn.multi_head_attention(x, tensors, "", n_heads)


# ---------------------------------------------------------------------------
# encoder layer


@pytest.mark.parametrize("t,d", [(1, 8), (5, 16), (32, 32)])
def test_encoder_layer_preserves_shape(t, d):
    rng = np.random.default_rng(d)
    p = rand_layer(rng, d, 2 * d)
    out = nn.encoder_layer(nn.Tensor(rng.normal(size=(t, d))), p, "", 4)
    assert out.shape == (t, d)
    assert np.all(np.isfinite(out.value))


def test_encoder_layer_zero_weights_is_identity():
    zero = {k: np.zeros_like(v) for k, v in nn.init_encoder_layer_arrays(np.random.default_rng(0), 8, 16).items()}
    zero["ln1_gamma"] = np.ones(8)
    zero["ln2_gamma"] = np.ones(8)
    p = {k: nn.Tensor(v) for k, v in zero.items()}
    x = np.random.default_rng(1).normal(size=(5, 8))
    out = nn.encoder_layer(nn.Tensor(x), p, "", 2).value
    np.testing.assert_array_equal(out, x)


def test_encoder_layer_permutation_equivariance_all_orders():
    import itertools

    rng = np.random.default_rng(6)
    p = rand_layer(rng, 8, 16)
    x = rng.normal(size=(3, 8))
    base = nn.encoder_layer(nn.Tensor(x), p, "", 2).value
    for perm in itertools.permutations(range(3)):
        perm = list(perm)
        permuted = nn.encoder_layer(nn.Tensor(x[perm]), p, "", 2).value
        assert np.abs(permuted - base[perm]).max() < 1e-6


# ---------------------------------------------------------------------------
# fused encoder layer against the public-op composition


def composed_encoder_layer(x, p, weights_out=None):
    """The encoder layer, with 2 heads and leaves ``p`` under the empty
    prefix, as a composition of public graph ops: the reference the fused
    single-node ``encoder_layer`` must reproduce."""

    def feed_forward(h):
        return nn.linear(nn.gelu(nn.linear(h, p["ffn_w1"], p["ffn_b1"])), p["ffn_w2"], p["ffn_b2"])

    normed = nn.layer_norm(x, p["ln1_gamma"], p["ln1_beta"])
    h = nn.add(x, nn.multi_head_attention(normed, p, "", 2, weights_out))
    return nn.add(h, feed_forward(nn.layer_norm(h, p["ln2_gamma"], p["ln2_beta"])))


def layer_value_and_grads(arrays, x0, readout, per_sample):
    """Value, input gradient, parameter gradients and captured attention of
    the fused layer over ``x0`` (one sample or a batch), or, with
    ``per_sample``, of ``composed_encoder_layer`` run on each sample alone,
    so no attention can cross from one sample into another."""
    leaves = {k: nn.Tensor(v, requires_grad=True) for k, v in arrays.items()}
    weights = []
    if per_sample:
        inputs = [nn.Tensor(x, requires_grad=True) for x in x0.reshape((-1,) + x0.shape[-2:])]
        outputs = [composed_encoder_layer(x, leaves, weights) for x in inputs]
        readouts = readout.reshape((-1,) + readout.shape[-2:])
        terms = [nn.sum_all(nn.mul(out, r)) for out, r in zip(outputs, readouts)]
        total = terms[0]
        for term in terms[1:]:
            total = nn.add(total, term)
        total.backward()
        value = np.stack([out.value for out in outputs]).reshape(x0.shape)
        dx = np.stack([x.grad for x in inputs]).reshape(x0.shape)
    else:
        x = nn.Tensor(x0, requires_grad=True)
        out = nn.encoder_layer(x, leaves, "", 2, weights)
        nn.sum_all(nn.mul(out, readout)).backward()
        value, dx = out.value, x.grad
    return value, dx, {k: t.grad for k, t in leaves.items()}, weights


def max_rel_diff(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n_samples", [1, 3])
def test_fused_encoder_layer_matches_public_op_composition(n_samples):
    """One sample as a (T x D) value, three as a (3 x T x D) batch."""
    rng = np.random.default_rng(50 + n_samples)
    arrays = rand_layer_arrays(rng, 8, 16)
    x0 = rng.normal(size=(n_samples, 5, 8))
    if n_samples == 1:
        x0 = x0[0]
    readout = rng.normal(size=x0.shape)
    value, dx, grads, weights = layer_value_and_grads(arrays, x0, readout, False)
    want_value, want_dx, want_grads, want_weights = layer_value_and_grads(
        arrays, x0, readout, True
    )
    assert value.shape == dx.shape == x0.shape
    assert max_rel_diff(value, want_value) <= 1e-12
    assert max_rel_diff(dx, want_dx) <= 1e-12
    assert sorted(grads) == sorted(nn.ENCODER_PARAM_FIELDS)
    for name in nn.ENCODER_PARAM_FIELDS:
        assert max_rel_diff(grads[name], want_grads[name]) <= 1e-12, name
    # one (heads x T x T) array per sample, as scaled_dot_attention captures
    assert len(weights) == len(want_weights) == n_samples
    for got, want in zip(weights, want_weights):
        assert got.shape == want.shape == (2, 5, 5)
        assert max_rel_diff(got, want) <= 1e-12
        np.testing.assert_allclose(got.sum(axis=2), 1.0, rtol=0, atol=1e-12)


def test_grad_check_fused_encoder_layer_three_sequences():
    rng = np.random.default_rng(61)
    params = nn.ParamSet()
    for name, arr in rand_layer_arrays(rng, 8, 16).items():
        params.add(name, arr)
    params.add("tokens", rng.normal(size=(3, 4, 8)))
    readout = rng.normal(size=(3, 4, 8))

    def f(p):
        out = nn.encoder_layer(p["tokens"], p, "", 2)
        return nn.sum_all(nn.mul(out, readout))

    assert nn.grad_check(f, params) < 1e-4


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
        diff = nn.add(nn.linear(x, p["w"], p["b"]), -y)
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
        return nn.mean_all(nn.multi_head_attention(p["tokens"], p, "", 2))

    def enc_loss(p):
        return nn.mean_all(nn.encoder_layer(p["tokens"], p, "", 2))

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
# batches of sequences and row-batched losses


def test_stacked_sequence_ops_equal_per_sequence_ops():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 5, 3))
    taps = rng.normal(size=4)
    mixed = nn.causal_mix(x, taps).value
    pooled = nn.mean_rows(x).value
    assert mixed.shape == (4, 5, 3)
    assert pooled.shape == (4, 3)
    for i in range(4):
        np.testing.assert_array_equal(mixed[i], nn.causal_mix(x[i], taps).value)
        np.testing.assert_array_equal(pooled[i : i + 1], nn.mean_rows(x[i]).value)


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
    # the same four score vectors held as one column, and as a batch of
    # per-frame scores (a localization head's output)
    for held in (scores.reshape(-1, 1), scores.reshape(4, 6, 1)):
        assert nn.softmax_cross_entropy(held, labels).item() == pytest.approx(want, rel=1e-12)


def test_row_batched_losses_reject_mismatched_targets():
    with pytest.raises(DimensionError):
        nn.sigmoid_cross_entropy(np.zeros((3, 1)), [0.0, 1.0])
    with pytest.raises(DimensionError):
        nn.softmax_cross_entropy(np.zeros((3, 4)), [0, 1])
    with pytest.raises(DimensionError):
        nn.softmax_cross_entropy(np.zeros((3, 4)), 1)
    with pytest.raises(DimensionError):
        nn.softmax_cross_entropy(np.zeros((3, 2, 1)), [0, 1])
    with pytest.raises(ValueError):
        nn.softmax_cross_entropy(np.zeros((2, 4)), [0, 4])


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_stacked_sequences_and_row_batched_losses(seed):
    rng = np.random.default_rng(100 + seed)
    worst = 0.0

    # a batch of three 4-row sequences, read out with unequal weights per
    # row so every boundary row carries its own gradient
    params = nn.ParamSet()
    params.add("x", rng.normal(size=(3, 4, 2)))
    params.add("taps", rng.normal(size=4))
    readout = rng.normal(size=(3, 4, 2))
    worst = max(
        worst,
        nn.grad_check(
            lambda p: nn.sum_all(nn.mul(nn.causal_mix(p["x"], p["taps"]), readout)), params
        ),
    )

    params = nn.ParamSet()
    params.add("x", rng.normal(size=(3, 4, 5)))
    readout = rng.normal(size=(3, 5))
    worst = max(
        worst, nn.grad_check(lambda p: nn.sum_all(nn.mul(nn.mean_rows(p["x"]), readout)), params)
    )

    params = nn.ParamSet()
    params.add("logits", rng.normal(size=(5, 1)))
    targets = rng.integers(2, size=5).astype(float)
    worst = max(
        worst, nn.grad_check(lambda p: nn.sigmoid_cross_entropy(p["logits"], targets), params)
    )

    labels = rng.integers(6, size=4)
    for shape in ((4, 6), (4 * 6, 1), (4, 6, 1)):
        params = nn.ParamSet()
        params.add("scores", rng.normal(size=shape))
        worst = max(
            worst, nn.grad_check(lambda p: nn.softmax_cross_entropy(p["scores"], labels), params)
        )

    assert worst < 1e-4


def test_stacked_attention_concat_and_slice_equal_per_sequence_ops():
    rng = np.random.default_rng(23)
    n, t, d, heads = 3, 5, 8, 2
    q, k, v = (rng.normal(size=(n, t, d)) for _ in range(3))
    captured = []
    attended = nn.scaled_dot_attention(q, k, v, heads, captured).value
    layer = rand_layer(rng, d, 16)
    x = rng.normal(size=(n, t, d))
    encoded = nn.encoder_layer(x, layer, "", heads).value
    first = rng.normal(size=(n, 2, d))
    joined = nn.concat_rows([first, x]).value
    cut = nn.slice_rows(x, 1, 4).value
    pos = rng.normal(size=(t, d))
    shifted = nn.add(x, pos).value
    assert attended.shape == encoded.shape == shifted.shape == (n, t, d)
    assert joined.shape == (n, t + 2, d) and cut.shape == (n, 3, d)
    assert len(captured) == n
    for i in range(n):
        alone = []
        want = nn.scaled_dot_attention(q[i], k[i], v[i], heads, alone).value
        np.testing.assert_allclose(attended[i], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(captured[i], alone[0], rtol=1e-12, atol=1e-12)
        want = nn.encoder_layer(x[i], layer, "", heads).value
        np.testing.assert_allclose(encoded[i], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(joined[i], nn.concat_rows([first[i], x[i]]).value)
        np.testing.assert_array_equal(cut[i], nn.slice_rows(x[i], 1, 4).value)
        np.testing.assert_array_equal(shifted[i], nn.add(x[i], pos).value)
    # attention over the batch's rows as one sequence lets tokens attend
    # across samples, which the per-sample results rule out
    flat = [a.reshape(n * t, d) for a in (q, k, v)]
    leaky = nn.scaled_dot_attention(*flat, heads).value
    assert not np.allclose(leaky, attended.reshape(n * t, d), atol=1e-6)


def test_batched_ops_reject_operands_whose_sample_axes_disagree():
    with pytest.raises(DimensionError):
        nn.concat_rows([np.zeros((3, 4, 2)), np.zeros((2, 4, 2))])
    with pytest.raises(DimensionError):
        nn.concat_rows([np.zeros((3, 4, 2)), np.zeros((4, 2))])
    with pytest.raises(DimensionError):
        nn.add(np.zeros((3, 4, 2)), np.zeros((2, 4, 2)))
    with pytest.raises(DimensionError):
        nn.scaled_dot_attention(np.zeros((3, 4, 2)), np.zeros((2, 4, 2)), np.zeros((3, 4, 2)), 2)
    # a (rows x D) operand adds to every sample
    np.testing.assert_array_equal(
        nn.add(np.zeros((3, 4, 2)), np.ones((4, 2))).value, np.ones((3, 4, 2))
    )


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_stacked_attention_concat_and_slice(seed):
    """A batch of three sequences through attention, a per-sample join, a
    positional add and a per-sample cut, read out with unequal weights."""
    rng = np.random.default_rng(200 + seed)
    n, d = 3, 4
    params = nn.ParamSet()
    for name, arr in rand_layer_arrays(rng, d, 8).items():
        params.add(name, arr)
    params.add("a", rng.normal(size=(n, 2, d)))
    params.add("b", rng.normal(size=(n, 3, d)))
    params.add("pos", rng.normal(size=(5, d)))
    readout = rng.normal(size=(n, 2, d))

    def f(p):
        tokens = nn.add(nn.concat_rows([p["a"], p["b"]]), p["pos"])
        attended = nn.multi_head_attention(tokens, p, "", 2)
        return nn.sum_all(nn.mul(nn.slice_rows(attended, 1, 3), readout))

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


def test_grad_check_refuses_a_frozen_parameter_set_before_calling_f():
    params = nn.ParamSet()
    params.add("w", np.asarray(3.0))
    params.frozen = True
    calls = []

    def f(p):
        calls.append(p)
        return nn.mul(p["w"], p["w"])

    with pytest.raises(ContractViolationError, match="frozen parameter set"):
        nn.grad_check(f, params)
    assert calls == []


def test_forward_operations_finite_on_extreme_inputs():
    rng = np.random.default_rng(12)
    big = np.array([[1e6, -1e6, 500.0, 0.0]])
    assert np.all(np.isfinite(nn.softmax(big.ravel()).value))
    assert np.all(np.isfinite(nn.layer_norm(big, np.ones(4), np.zeros(4)).value))
    assert np.all(np.isfinite(nn.gelu(big).value))
    p = rand_layer(rng, 4, 8)
    assert np.all(np.isfinite(nn.encoder_layer(nn.Tensor(np.tile(big, (3, 1))), p, "", 2).value))
    assert np.isfinite(nn.sigmoid_cross_entropy(np.asarray([[1e4]]), 0.0).value)
    assert np.isfinite(nn.softmax_cross_entropy(np.asarray([1e4, -1e4, 0.0]), 1).value)


# ---------------------------------------------------------------------------
# tensors and parameter sets


def test_tensor_rejects_4d_and_nonscalar_backward():
    assert nn.Tensor(np.zeros((2, 3, 4))).shape == (2, 3, 4)
    with pytest.raises(DimensionError):
        nn.Tensor(np.zeros((2, 2, 2, 2)))
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


def test_param_set_is_one_buffer_in_add_order_holding_copies():
    params = nn.ParamSet()
    a = np.arange(6.0).reshape(2, 3)
    params.add("a", a)
    params.add("s", np.asarray(7.0))
    params.add("b", -np.ones(4))
    a[0, 0] = 100.0  # add copied it
    np.testing.assert_array_equal(params.values, [0, 1, 2, 3, 4, 5, 7, -1, -1, -1, -1])
    assert [params[n].value.shape for n in params.names()] == [(2, 3), (), (4,)]
    for name in params.names():
        assert np.shares_memory(params[name].value, params.values)


def test_param_value_setter_refuses_a_shape_change_and_writes_through():
    params = nn.ParamSet()
    params.add("a", np.zeros((2, 3)))
    params.add("b", np.ones(4))
    before = params.checksum()
    for name, bad in (("a", np.zeros((3, 2))), ("a", np.zeros(6)), ("b", np.ones(5))):
        with pytest.raises(DimensionError, match=repr(name)):
            params[name].value = bad
    assert params.checksum() == before

    params["a"].value = np.arange(6.0).reshape(2, 3)
    assert params.checksum() != before
    np.testing.assert_array_equal(params.values[:6], np.arange(6.0))
    np.testing.assert_array_equal(
        params.as_tensors(train=False)["a"].value, np.arange(6.0).reshape(2, 3)
    )
    params["b"].value[:] = 0.0  # in place through the view
    np.testing.assert_array_equal(params.as_tensors()["b"].value, np.zeros(4))
    assert not params.values[6:].any()


def test_frozen_leaves_do_not_collect_gradients():
    params = nn.ParamSet()
    params.add("w", np.ones((2, 2)))
    params.frozen = True
    leaves = params.as_tensors()
    assert leaves.grad is None
    x = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    nn.sum_all(nn.linear(leaves["w"], x)).backward()
    assert leaves.grad is None
    assert all(leaf.grad is None and not leaf.requires_grad for leaf in leaves.values())
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))


def test_leaf_used_twice_accumulates_both_terms_in_its_flat_view():
    params = nn.ParamSet()
    params.add("u", np.zeros(2))
    params.add("w", np.array([3.0, -1.0, 0.5]))
    leaves = params.as_tensors()
    w = leaves["w"]
    nn.add(nn.sum_all(nn.mul(w, w)), nn.sum_all(nn.scale(w, 3.0))).backward()
    np.testing.assert_array_equal(leaves.grad[2:], 2.0 * params["w"].value + 3.0)
    assert np.shares_memory(w.grad, leaves.grad)
    np.testing.assert_array_equal(w.grad, leaves.grad[2:])


def test_unused_leaf_reads_zero_gradient():
    params = nn.ParamSet()
    params.add("used", np.ones(3))
    params.add("unused", np.ones((2, 2)))
    leaves = params.as_tensors()
    nn.sum_all(nn.scale(leaves["used"], 2.0)).backward()
    np.testing.assert_array_equal(leaves.grad, [2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(leaves["unused"].grad, np.zeros((2, 2)))
    assert np.shares_memory(leaves["unused"].grad, leaves.grad)


def _backward_keeping_the_graph(root):
    """Backpropagate ``root`` without freeing anything: every node keeps its
    gradient, VJP and parents. Returns the graph's nodes, root last."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents if parent.requires_grad)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._vjp is not None:
            node._vjp(node.grad)
    return order


def test_backward_frees_the_graph_and_keeps_leaf_gradients_bit_equal():
    rng = np.random.default_rng(5)
    params = nn.ParamSet()
    for prefix in ("enc0/", "enc1/"):
        for name, value in rand_layer_arrays(rng, 8, 16).items():
            params.add(prefix + name, value)
    leaves = params.as_tensors()
    x = nn.Tensor(rng.normal(size=(3, 5, 8)))
    h = nn.encoder_layer(x, leaves, "enc0/", 2)
    first_layer_value = weakref.ref(h.value)
    root = nn.sum_all(nn.mul(nn.encoder_layer(h, leaves, "enc1/", 2), rng.normal(size=(3, 5, 8))))
    del h

    nodes = _backward_keeping_the_graph(root)
    want = leaves.grad.copy()
    for node in nodes:
        if node._vjp is not None:
            node.grad = None
    leaves.grad[...] = 0.0  # every leaf's grad is a view into it
    del nodes
    assert first_layer_value() is not None  # the root still holds the graph

    root.backward()
    assert first_layer_value() is None
    np.testing.assert_array_equal(leaves.grad, want)
    with pytest.raises(RuntimeError, match="already backpropagated"):
        root.backward()
    np.testing.assert_array_equal(leaves.grad, want)


def test_a_second_backward_through_a_spent_graph_raises():
    w = nn.Tensor(np.asarray(3.0), requires_grad=True)
    loss = nn.sum_all(nn.mul(w, w))
    loss.backward()
    assert w.grad == 6.0
    with pytest.raises(RuntimeError, match="already backpropagated"):
        loss.backward()
    assert w.grad == 6.0

    # a second root over a spent subgraph finds it spent too
    shared = nn.mul(w, w)
    nn.sum_all(shared).backward()
    with pytest.raises(RuntimeError, match="already backpropagated"):
        nn.scale(shared, 2.0).backward()

    # a scalar leaf is its own graph and accumulates on every call; a root
    # that needs no gradient has nothing to backpropagate
    leaf = nn.Tensor(np.asarray(1.5), requires_grad=True)
    leaf.backward()
    leaf.backward()
    assert leaf.grad == 2.0
    constant = nn.Tensor(np.asarray(1.5))
    constant.backward()
    constant.backward()
    assert constant.grad is None
