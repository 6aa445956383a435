import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from ettrans import harness
from ettrans import synth_tasks as st
from ettrans.errors import GenerationError

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def binary_spec(task_id="p", rho=1.0, sigma=1.0, signal=0.5, channels=(0, 1)):
    return st.TaskSpec(task_id, "binary", channels, sigma, rho, 2.0, 2.0, signal=signal)


# ---------------------------------------------------------------------------
# generation


def test_fully_correlated_noiseless_auxiliary_copies_primary():
    specs = [
        binary_spec("p"),
        st.TaskSpec("a", "binary", (2, 3), 0.0, 1.0, 2.0, 2.0, signal=0.5),
    ]
    ds = st.generate(specs, 200, seed=0)
    np.testing.assert_array_equal(ds.labels["a"], ds.labels["p"])


def test_uncorrelated_auxiliary_is_statistically_independent():
    specs = [binary_spec("p"), st.TaskSpec("a", "binary", (2, 3), 1.0, 0.0, 2.0, 2.0)]
    ds = st.generate(specs, 2000, seed=1)
    y_p = np.array(ds.labels["p"])
    y_a = np.array(ds.labels["a"])
    corr = np.corrcoef(y_p, y_a)[0, 1]
    assert -0.1 < corr < 0.1


def test_agreement_rate_tracks_correlation_knob():
    # agreement = rho + (1 - rho)/2 under the redraw rule
    for rho in (0.0, 0.5, 0.9):
        specs = [binary_spec("p"), st.TaskSpec("a", "binary", (2, 3), 1.0, rho, 2.0, 2.0)]
        ds = st.generate(specs, 4000, seed=2)
        agree = np.mean(np.array(ds.labels["p"]) == np.array(ds.labels["a"]))
        expected = (1.0 + rho) / 2.0
        assert abs(agree - expected) < 0.03
        corr = np.corrcoef(ds.labels["p"], ds.labels["a"])[0, 1]
        assert abs(corr - rho) < 0.06


def label_lists(labels):
    return {task_id: values.tolist() for task_id, values in labels.items()}


def test_generation_is_deterministic_per_seed_and_split():
    specs = [binary_spec("p"), st.TaskSpec("a", "localization", (2, 3), 0.5, 0.0, 2.0, 2.0)]
    a = st.generate(specs, 50, seed=3, split="train")
    b = st.generate(specs, 50, seed=3, split="train")
    assert a.clips.values.shape == (50, 4, 4)
    assert a.clips.values.tobytes() == b.clips.values.tobytes()
    assert label_lists(a.labels) == label_lists(b.labels)
    c = st.generate(specs, 50, seed=3, split="val")
    assert any(x.tobytes() != y.tobytes() for x, y in zip(a.clips.values, c.clips.values))
    # each sample draws from its own stream: a split's first k samples are
    # the k-sample split
    k = st.generate(specs, 17, seed=3, split="train")
    assert k.clips.values.tobytes() == a.clips.values[:17].tobytes()
    assert label_lists(k.labels) == {t: labels[:17] for t, labels in label_lists(a.labels).items()}


def test_binary_labels_balanced_at_scale():
    ds = st.generate([binary_spec("p")], 2000, seed=4)
    rate = np.mean(ds.labels["p"])
    assert abs(rate - 0.5) <= 0.05


def test_an_unlikely_but_fair_label_draw_is_kept():
    """A fair coin's rate over 1,000 tosses strays more than 0.05 from 0.5
    about once in 700 draws; seed 103's 0.561 is returned as it fell."""
    ds = st.generate([binary_spec("p")], 1000, seed=103)
    assert np.mean(ds.labels["p"]) == pytest.approx(0.561)


def test_changepoints_uniform_over_valid_frames():
    spec = st.TaskSpec("loc", "localization", (0, 1), 0.5, 1.0, 4.0, 8.25, signal=1.0)
    ds = st.generate([spec], 5000, seed=5)
    times = ds.labels["loc"]
    assert times.shape == (5000,) and times.dtype == np.float64
    frames = np.rint(times * ds.clips.fps).astype(int)
    np.testing.assert_array_equal(frames / ds.clips.fps, times)
    n_frames = ds.clips.n_frames
    assert frames.min() >= 1 and frames.max() <= n_frames - 1
    counts, _ = np.histogram(frames, bins=16, range=(1, n_frames))
    _, p_value = chisquare(counts)
    assert p_value > 0.01


def test_sequence_labels_follow_the_latent_chain():
    spec = st.TaskSpec("seq", "sequence", (0, 1, 2, 3), 0.1, 1.0, 2.0, 2.0,
                       signal=0.5, horizon=4, n_verbs=5, n_nouns=3)
    a = st.generate([spec], 64, seed=6)
    b = st.generate([spec], 64, seed=6)
    assert label_lists(a.labels) == label_lists(b.labels)
    labels = a.labels["seq"]
    assert labels.shape == (64, 4, 2)
    assert labels[..., 0].min() >= 0 and labels[..., 0].max() < 5
    assert labels[..., 1].min() >= 0 and labels[..., 1].max() < 3
    # deterministic chain: equal first steps imply equal remaining steps
    by_first = {}
    for future in labels.tolist():
        by_first.setdefault(tuple(future[0]), set()).add(str(future[1:]))
    assert all(len(rest) == 1 for rest in by_first.values())


def test_generate_rejects_bad_specs():
    with pytest.raises(GenerationError):
        st.generate([binary_spec("p", rho=0.5)], 10, seed=0)  # primary must have rho 1
    with pytest.raises(GenerationError):
        st.generate(
            [binary_spec("p"), st.TaskSpec("a", "binary", (1, 2), 1.0, 0.0, 2.0, 2.0)],
            10,
            seed=0,
        )  # overlapping channels
    with pytest.raises(GenerationError):
        st.generate([binary_spec("p")], 0, seed=0)
    with pytest.raises(GenerationError):
        st.generate(
            [
                st.TaskSpec("loc", "localization", (0, 1), 0.5, 1.0, 2.0, 2.0),
                st.TaskSpec("a", "binary", (2, 3), 1.0, 0.5, 2.0, 2.0),
            ],
            10,
            seed=0,
        )  # correlated binary aux needs a binary primary


def test_stride_defaults_to_one_native_window():
    spec = st.TaskSpec("p", "binary", (0, 1), 1.0, 1.0, 4.0, 1.5)
    assert spec.stride_s == spec.native_window_s == 1.5
    assert dataclasses.replace(spec, stride_s=0.5).stride_s == 0.5


@pytest.mark.parametrize("width", ["feature_dim", "hidden"])
def test_spec_rejects_a_zero_model_width(width):
    with pytest.raises(GenerationError, match="positive widths"):
        st.TaskSpec("p", "binary", (0, 1), 1.0, 1.0, 2.0, 2.0, **{width: 0})


def test_signal_lands_on_the_declared_channels():
    specs = [binary_spec("p", sigma=0.0, channels=(0, 1))]
    ds = st.generate(specs, 20, seed=7, n_channels=4)
    for clip, label in zip(ds.clips.values, ds.labels["p"]):
        expected = (2 * label - 1) * 0.5
        np.testing.assert_allclose(clip[:, :2], expected)
        np.testing.assert_allclose(clip[:, 2:], 0.0)


# ---------------------------------------------------------------------------
# Bayes ceilings


def test_bayes_accuracy_limits():
    assert st.bayes_optimal_accuracy(binary_spec(sigma=1e9)) == pytest.approx(0.5, abs=1e-6)
    assert st.bayes_optimal_accuracy(binary_spec(sigma=0.0)) == 1.0


def test_bayes_accuracy_matches_monte_carlo_oracle():
    # one channel, one frame, so the statistic is the raw draw: d = 2*signal/sigma
    spec = st.TaskSpec("p", "binary", (0,), 1.0, 1.0, 1.0, 1.0, signal=1.0)
    assert st.bayes_optimal_accuracy(spec) == pytest.approx(norm.cdf(1.0), abs=1e-12)

    rng = np.random.default_rng(8)
    n = 1_000_000
    y = rng.integers(2, size=n) * 2 - 1
    x = y * spec.signal + rng.normal(0.0, spec.noise_sigma, size=n)
    mc = np.mean((x > 0) == (y > 0))
    assert abs(mc - norm.cdf(1.0)) < 1e-3


def test_bayes_accuracy_rejects_non_binary():
    with pytest.raises(ValueError):
        st.bayes_optimal_accuracy(st.TaskSpec("l", "localization", (0,), 1.0, 1.0, 2.0, 2.0))


def test_combined_ceiling_reduces_to_single_task_when_aux_uninformative():
    primary = binary_spec("p", sigma=2.0, signal=0.131, channels=(0, 1, 2, 3))
    aux_rho0 = st.TaskSpec("a", "binary", (4, 5), 0.5, 0.0, 2.0, 2.0, signal=0.4)
    solo = st.bayes_optimal_accuracy(primary, 4.0)
    combined = st.combined_bayes_accuracy(primary, [aux_rho0], 4.0)
    assert combined == pytest.approx(solo, abs=1e-9)


def test_combined_ceiling_matches_monte_carlo_oracle():
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 2.0, 1.0, 4.0, 4.0, signal=0.131)
    aux = st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.5, 0.9, 2.0, 2.0, signal=0.4)
    analytic = st.combined_bayes_accuracy(primary, [aux], 4.0)

    # simulate the generative process and apply the optimal fusion rule
    rng = np.random.default_rng(9)
    n = 2_000_000
    mu_u = st._separation(primary, 4.0) / 2.0
    mu_v = st._separation(aux, 4.0) / 2.0
    q = (1.0 + aux.corr_rho) / 2.0
    s_p = rng.integers(2, size=n) * 2 - 1
    agree = rng.random(n) < q
    s_a = np.where(agree, s_p, -s_p)
    u = mu_u * s_p + rng.normal(size=n)
    v = mu_v * s_a + rng.normal(size=n)
    llr = 2.0 * mu_u * u + st._aux_llr(v, mu_v, q)
    mc = np.mean(np.where(llr > 0, 1, -1) == s_p)
    assert abs(analytic - mc) < 2e-3
    assert analytic > st.bayes_optimal_accuracy(primary, 4.0)


def test_combined_ceiling_with_an_almost_uninformative_second_auxiliary_stays_put():
    """A second informative auxiliary moves the ceiling to the Monte Carlo
    branch; one that carries almost nothing leaves it within 1e-3 of the
    one-auxiliary quadrature."""
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 2.0, 1.0, 4.0, 4.0, signal=0.131)
    aux = st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.5, 0.9, 2.0, 2.0, signal=0.4)
    weak = st.TaskSpec("w", "binary", (8,), 50.0, 0.9, 2.0, 2.0, signal=0.01)
    quadrature = st.combined_bayes_accuracy(primary, [aux], 4.0)
    monte_carlo = st.combined_bayes_accuracy(primary, [aux, weak], 4.0)
    assert monte_carlo != quadrature
    assert abs(monte_carlo - quadrature) < 1e-3


def test_combined_ceiling_of_two_auxiliaries_matches_monte_carlo_oracle():
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 2.0, 1.0, 4.0, 4.0, signal=0.131)
    auxes = [
        st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.5, 0.9, 2.0, 2.0, signal=0.4),
        st.TaskSpec("b", "binary", (8, 9), 1.0, 0.6, 2.0, 2.0, signal=0.3),
    ]
    ceiling = st.combined_bayes_accuracy(primary, auxes, 4.0)

    # simulate the generative process under another seed and fuse optimally
    rng = np.random.default_rng(st.MC_SEED + 4)
    n = 2_000_000
    mu_u = st._separation(primary, 4.0) / 2.0
    s_p = rng.integers(2, size=n) * 2 - 1
    llr = 2.0 * mu_u * (mu_u * s_p + rng.normal(size=n))
    for aux in auxes:
        mu_v = st._separation(aux, 4.0) / 2.0
        q = (1.0 + aux.corr_rho) / 2.0
        s_a = np.where(rng.random(n) < q, s_p, -s_p)
        llr += st._aux_llr(mu_v * s_a + rng.normal(size=n), mu_v, q)
    mc = np.mean(np.where(llr > 0, 1, -1) == s_p)
    assert abs(ceiling - mc) < 2e-3
    assert ceiling > max(st.combined_bayes_accuracy(primary, [aux], 4.0) for aux in auxes)


def test_combined_ceiling_increases_with_correlation():
    primary = binary_spec("p", sigma=2.0, signal=0.131, channels=(0, 1, 2, 3))
    values = []
    for rho in (0.0, 0.5, 0.9, 1.0):
        aux = st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.5, rho, 2.0, 2.0, signal=0.4)
        values.append(st.combined_bayes_accuracy(primary, [aux], 4.0))
    assert values == sorted(values)
    assert values[-1] > 0.95


def test_full_correlation_ceiling_emits_no_warning():
    # corr_rho = 1 puts log(0) = -inf terms in the auxiliary log-likelihood ratio
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 2.0, 1.0, 4.0, 4.0, signal=0.131)
    aux = st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.5, 1.0, 2.0, 2.0, signal=0.4)
    v = np.array([-2.0, 0.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        llr = st._aux_llr(v, 0.8, 1.0)
        ceiling = st.combined_bayes_accuracy(primary, [aux], 4.0)
    np.testing.assert_allclose(llr, 2.0 * 0.8 * v)  # the auxiliary is the label
    assert 0.99 < ceiling <= 1.0


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 1.0])
def test_combined_ceiling_without_primary_signal_is_the_auxiliary_vote(rho):
    """At mu_u = 0 the optimal rule follows the sign of the auxiliary
    statistic, which agrees with the primary latent with probability
    q Phi(mu_v) + (1 - q) Phi(-mu_v)."""
    primary = binary_spec("p", signal=0.0, channels=(0, 1, 2, 3))
    aux = st.TaskSpec("a", "binary", (4, 5), 1.0, rho, 2.0, 2.0, signal=0.3)
    mu_v = st._separation(aux, 4.0) / 2.0
    q = (1.0 + rho) / 2.0
    want = q * norm.cdf(mu_v) + (1.0 - q) * norm.cdf(-mu_v)
    assert st.combined_bayes_accuracy(primary, [aux], 4.0) == pytest.approx(want, abs=1e-12)


def test_combined_ceiling_with_a_sharp_auxiliary_is_bounded_and_monotone():
    """Less auxiliary noise never lowers the ceiling, which lies between the
    primary-only ceiling and 1. An auxiliary separated by 9 noise stddevs or
    more is read without error: the ceiling is then the closed form
    q Phi(mu_u + L / 2 mu_u) + (1 - q) Phi(mu_u - L / 2 mu_u), L = log(q / (1 - q))."""
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 2.0, 1.0, 4.0, 4.0, signal=0.131)
    solo = st.bayes_optimal_accuracy(primary, 4.0)
    mu_u = st._separation(primary, 4.0) / 2.0
    q = (1.0 + 0.9) / 2.0
    shift = np.log(q / (1.0 - q)) / (2.0 * mu_u)
    exact = q * norm.cdf(mu_u + shift) + (1.0 - q) * norm.cdf(mu_u - shift)
    ceilings = []
    for sigma in (0.5, 0.02, 1e-3, 0.0):
        aux = st.TaskSpec("a", "binary", (4, 5, 6, 7), sigma, 0.9, 2.0, 2.0, signal=0.4)
        ceiling = st.combined_bayes_accuracy(primary, [aux], 4.0)
        assert solo < ceiling <= 1.0, sigma
        if st._separation(aux, 4.0) / 2.0 >= st.EXACT_SEPARATION:
            assert ceiling == pytest.approx(exact, abs=1e-12), sigma
        ceilings.append(ceiling)
    assert ceilings == sorted(ceilings)
    assert ceilings[0] == pytest.approx(exact, abs=1e-5)  # 0.5 is not yet sharp


def test_combined_ceiling_with_a_noiseless_auxiliary_in_monte_carlo_matches_closed_form():
    """A zero-noise auxiliary next to an almost uninformative one: the Monte
    Carlo ceiling stays within its sampling error of the one-auxiliary closed
    form, and without primary signal the ceiling is q."""
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 2.0, 1.0, 4.0, 4.0, signal=0.131)
    sharp = st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.0, 0.9, 2.0, 2.0, signal=0.4)
    weak = st.TaskSpec("w", "binary", (8,), 50.0, 0.9, 2.0, 2.0, signal=0.01)
    closed_form = st.combined_bayes_accuracy(primary, [sharp], 4.0)
    assert abs(st.combined_bayes_accuracy(primary, [sharp, weak], 4.0) - closed_form) < 1e-3
    silent = binary_spec("p", signal=0.0, channels=(0, 1, 2, 3))
    assert st.combined_bayes_accuracy(silent, [sharp], 4.0) == 0.95
    assert abs(st.combined_bayes_accuracy(silent, [sharp, weak], 4.0) - 0.95) < 1e-3


def test_combined_ceiling_of_a_noiseless_primary_is_one():
    primary = st.TaskSpec("p", "binary", (0, 1, 2, 3), 0.0, 1.0, 4.0, 4.0, signal=0.131)
    aux = st.TaskSpec("a", "binary", (4, 5, 6, 7), 0.5, 0.9, 2.0, 2.0, signal=0.4)
    sharp = dataclasses.replace(aux, noise_sigma=0.0)
    for auxiliaries in ([aux], [sharp], [aux, sharp]):
        assert st.combined_bayes_accuracy(primary, auxiliaries, 4.0) == 1.0


def test_default_config_ceilings_match_scipy_stats():
    """The combined ceiling agrees with adaptive quadrature (``scipy.integrate.quad``
    gave 0.950147492261849); the single-task ceilings are ``norm.cdf`` bit for bit."""
    config = harness.load_config(DEFAULT_CFG)
    summary = harness._bayes_summary(config)
    assert summary["combined_ceiling"] == pytest.approx(0.950147492261849, abs=1e-11)
    primary = config.primary
    d = st._separation(primary, config.duration_s)
    assert summary["primary_only_ceiling"] == float(norm.cdf(d / 2.0))
    assert summary["stage1_ceilings"] == {
        spec.task_id: float(norm.cdf(st._separation(spec, None) / 2.0))
        for spec in config.tasks
        if spec.kind == "binary"
    }


def test_normal_pdf_is_scipy_norm_pdf_bit_for_bit():
    x = np.random.default_rng(11).normal(0.0, 4.0, size=100_000)
    np.testing.assert_array_equal(st._normal_pdf(x), norm.pdf(x))
