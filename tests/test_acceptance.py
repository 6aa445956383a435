"""End-to-end acceptance: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The experiment-level criteria run the
shipped configs through the real harness; the rest exercise the verification
suites directly.
"""

import itertools
import json
import time

import numpy as np
import pytest

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

from ettrans import harness
from ettrans import metrics as mx
from ettrans import nn_core as nn
from ettrans import synth_tasks as st
from ettrans import task_models as tm
from ettrans import temporal_align as ta
from ettrans import training as tg
from ettrans import translator as tr
from ettrans.errors import CacheFormatError
from ettrans.temporal_align import FeatureSequence

from test_harness import TINY_CFG, strip_wall_clock
from test_metrics import _ap_brute_force, _dp_reference
from test_nn_core import rand_layer_arrays
from test_temporal_align import _oracle_offsets


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def uplift_run(tmp_path_factory):
    config = harness.load_config(CONFIG_DIR / "default.cfg")
    out = tmp_path_factory.mktemp("uplift")
    start = time.perf_counter()
    aggregate = harness.run_experiment(
        config, out, arms=("translator", "primary_only"), seeds=(0, 1, 2)
    )
    elapsed = time.perf_counter() - start
    return aggregate, out, elapsed


@pytest.fixture(scope="module")
def noharm_run(tmp_path_factory):
    config = harness.load_config(CONFIG_DIR / "noharm.cfg")
    out = tmp_path_factory.mktemp("noharm")
    aggregate = harness.run_experiment(
        config, out, arms=("translator", "primary_only"), seeds=(0, 1, 2)
    )
    return aggregate, out


def test_criterion_1_uplift_over_primary_only(uplift_run):
    aggregate, _, elapsed = uplift_run
    translator = aggregate["arms"]["translator"]["metrics"]["accuracy"]["mean"]
    primary_only = aggregate["arms"]["primary_only"]["metrics"]["accuracy"]["mean"]
    ceiling = aggregate["bayes"]["combined_ceiling"]
    uplift = translator - primary_only
    gap = abs(translator - ceiling)
    detail = (
        f"translator={translator:.4f} primary_only={primary_only:.4f} "
        f"uplift={uplift:+.4f} (need >= +0.10), |gap to ceiling {ceiling:.4f}|="
        f"{gap:.4f} (need <= 0.05), runtime={elapsed:.0f}s (need <= 300)"
    )
    report(1, "uplift", uplift >= 0.10 and gap <= 0.05 and elapsed <= 300.0, detail)


def test_criterion_2_no_harm_with_independent_auxiliary(noharm_run):
    aggregate, _ = noharm_run
    translator = aggregate["arms"]["translator"]["metrics"]["accuracy"]["mean"]
    primary_only = aggregate["arms"]["primary_only"]["metrics"]["accuracy"]["mean"]
    diff = translator - primary_only
    detail = (
        f"translator={translator:.4f} primary_only={primary_only:.4f} "
        f"difference={diff:+.4f} (need within +/-0.03)"
    )
    report(2, "no-harm", abs(diff) <= 0.03, detail)


def test_criterion_3_frozen_model_contract(uplift_run):
    aggregate, out, _ = uplift_run
    checks = []
    for path in sorted(out.glob("report_*_seed*.json")):
        payload = json.loads(path.read_text())
        checks.append(payload["frozen_check"]["ok"])
    ok = bool(checks) and all(checks) and all(
        aggregate["arms"][arm]["frozen_check_ok"] for arm in aggregate["arms"]
    )
    report(3, "frozen-model contract", ok, f"{len(checks)} reports, all checksums intact={ok}")


def test_criterion_4_gradient_suite_10_seeds_under_60s():
    start = time.perf_counter()
    worst_op = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)

        params = nn.ParamSet()
        params.add("x", rng.normal(size=(3, 4)))
        params.add("w", rng.normal(size=(4, 2)))
        params.add("b", rng.normal(size=2))
        worst_op = max(
            worst_op,
            nn.grad_check(lambda p: nn.sum_all(nn.linear(p["x"], p["w"], p["b"])), params),
        )

        params = nn.ParamSet()
        params.add("x", rng.normal(size=(3, 6)))
        params.add("g", rng.normal(1.0, 0.3, size=6))
        params.add("beta", rng.normal(size=6))
        worst_op = max(
            worst_op,
            nn.grad_check(
                lambda p: nn.mean_all(nn.layer_norm(p["x"], p["g"], p["beta"])), params
            ),
        )

        params = nn.ParamSet()
        params.add("x", rng.normal(size=5))
        mask = rng.normal(size=5)
        worst_op = max(
            worst_op,
            nn.grad_check(lambda p: nn.sum_all(nn.mul(nn.softmax(p["x"]), mask)), params),
        )

        params = nn.ParamSet()
        for name, arr in rand_layer_arrays(rng, 8, 12).items():
            params.add(name, arr)
        params.add("tokens", rng.normal(size=(4, 8)))

        def mha_loss(p):
            return nn.mean_all(nn.multi_head_attention(p["tokens"], p, "", 2))

        def enc_loss(p):
            return nn.mean_all(nn.encoder_layer(p["tokens"], p, "", 2))

        worst_op = max(worst_op, nn.grad_check(mha_loss, params))
        worst_op = max(worst_op, nn.grad_check(enc_loss, params))

        params = nn.ParamSet()
        params.add("x", rng.normal(size=(6, 3)))
        params.add("taps", rng.normal(size=4))
        worst_op = max(
            worst_op,
            nn.grad_check(lambda p: nn.mean_all(nn.causal_mix(p["x"], p["taps"])), params),
        )

        params = nn.ParamSet()
        params.add("logit", rng.normal(size=(1, 1)))
        worst_op = max(
            worst_op, nn.grad_check(lambda p: nn.sigmoid_cross_entropy(p["logit"], 1.0), params)
        )
        params = nn.ParamSet()
        params.add("scores", rng.normal(size=(6, 1)))
        worst_op = max(
            worst_op, nn.grad_check(lambda p: nn.softmax_cross_entropy(p["scores"], 2), params)
        )

    # full translator loss at a generic parameter point; eps larger than the
    # per-op default because the relative-error floor of 1e-8 demands absolute
    # agreement ~1e-12, which central differences at 1e-5 cannot deliver on
    # near-zero partials of a deep composite
    worst_full = 0.0
    dims = (("p", 4, 4), ("a", 2, 5), ("b", 2, 6))
    cfg = tr.TranslatorConfig(
        dims, shape=tr.TranslatorShape(d_model=8, n_layers=2, n_heads=2, d_ff=16),
        decoder_kind=tm.KIND_BINARY,
    )
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = tr.init_translator_params(cfg, rng)
        for name in params.names():
            params[name].value = rng.normal(0.0, 0.3, params[name].value.shape)
        batch = [
            (
                {t: rng.normal(size=(t_k, d_k)).astype(np.float32) for t, t_k, d_k in dims},
                int(rng.integers(2)),
            )
            for _ in range(2)
        ]

        def full_loss(leaves):
            total = None
            for feats, label in batch:
                output = tr.translate(feats, leaves, cfg)
                term = tm.loss(cfg.decoder_kind, output, [label], None)
                total = term if total is None else nn.add(total, term)
            return nn.scale(total, 0.5)

        worst_full = max(worst_full, nn.grad_check(full_loss, params, eps=1e-4))

    elapsed = time.perf_counter() - start
    detail = (
        f"per-op worst={worst_op:.2e}, full-loss worst={worst_full:.2e} "
        f"(need < 1e-4), runtime={elapsed:.0f}s (need <= 60)"
    )
    report(4, "gradient suite", worst_op < 1e-4 and worst_full < 1e-4 and elapsed <= 60.0, detail)


def test_criterion_5_task_block_permutation_property():
    dims = (("p", 4, 6), ("a", 2, 10), ("b", 2, 14))
    cfg = tr.TranslatorConfig(
        dims, shape=tr.TranslatorShape(d_model=8, n_layers=2, n_heads=2, d_ff=16),
        decoder_kind=tm.KIND_BINARY,
    )
    rng = np.random.default_rng(0)
    params = tr.init_translator_params(cfg, rng)
    params["task_pos"].value[:] = 0.0
    leaves = params.as_tensors(train=False)
    feats = {
        t: FeatureSequence(t, rng.normal(size=(t_k, d_k)), np.arange(t_k) * 0.25)
        for t, t_k, d_k in dims
    }
    # translate's graph, composed from the same public ops with the task
    # blocks concatenated in each of the six orders
    projected = {t: nn.linear(feats[t].values, leaves[f"proj/{t}"]) for t, _, _ in dims}
    logits = []
    for order in itertools.permutations(cfg.task_ids):
        h = nn.add(nn.concat_rows([projected[t] for t in order]), leaves["task_pos"])
        for i in range(cfg.shape.n_layers):
            h = nn.encoder_layer(h, leaves, f"enc{i}/", cfg.shape.n_heads)
        logits.append(tm.head_graph(h, leaves, tm.KIND_BINARY, "dec").item())
    spread = max(logits) - min(logits)
    report(
        5,
        "task-block permutation",
        len(logits) == 6 and spread < 1e-6,
        f"6 permutations, logit spread={spread:.2e} (need < 1e-6)",
    )


def test_criterion_6_metric_oracle_equivalence():
    rng = np.random.default_rng(10)
    ap_exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        labels = rng.integers(2, size=n).tolist()
        if sum(labels) == 0:
            labels[int(rng.integers(n))] = 1
        scores = (rng.integers(0, 4, size=n) / 4.0).tolist()
        ap_exact &= mx.average_precision(scores, labels) == _ap_brute_force(scores, labels)

    ed_exact = True
    for _ in range(1000):
        z = int(rng.integers(1, 9))
        a, b, c = (
            [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(z)] for _ in range(3)
        )
        ed_exact &= mx.levenshtein(a, b) == _dp_reference(a, b)
        ed_exact &= mx.levenshtein(b, c) == _dp_reference(b, c)
        ed_exact &= mx.edit_distance_at_z([a], c).action == _dp_reference(a, c) / z

    preds = rng.uniform(0, 8, size=1000).tolist()
    truths = rng.uniform(0, 8, size=1000).tolist()
    loop = 0.0
    for p, t in zip(preds, truths):
        loop += abs(p - t)
    loc_exact = mx.mean_localization_error(preds, truths) == loop / 1000

    report(
        6,
        "metric oracles",
        ap_exact and ed_exact and loc_exact,
        f"AP exact over 1000 cases={ap_exact}, ED exact over 1000 triples={ed_exact}, "
        f"loc-error exact={loc_exact}",
    )


def test_criterion_7_window_alignment():
    rng = np.random.default_rng(11)
    fuzz_ok = True
    for _ in range(1000):
        fps = float(rng.integers(1, 9))
        win_f = int(rng.integers(1, 33))
        dur_f = win_f + int(rng.integers(0, 65))
        stride_f = int(rng.integers(1, win_f + 1))
        starts = ta.plan_windows(dur_f / fps, win_f / fps, stride_f / fps, fps)
        fuzz_ok &= list(starts) == _oracle_offsets(dur_f, win_f, stride_f)

    clip = ta.FrameSeq(
        np.random.default_rng(12).normal(size=(64, 3)), fps=4.0, duration_s=16.0
    )
    resampled = ta.resample(clip, 2.0)
    starts = ta.plan_windows(resampled.duration_s, 8.0, 4.0, resampled.fps)
    example_ok = resampled.n_frames == 32 and len(starts) == 3
    report(
        7,
        "window alignment",
        fuzz_ok and example_ok,
        f"1000-case enumeration match={fuzz_ok}; 16s@4fps -> 2fps, 8s windows "
        f"stride 4s -> {len(starts)} windows (need 3)",
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    config = harness.load_config(cfg_path)
    harness.run_experiment(config, tmp_path / "a", arms=("translator",))
    harness.run_experiment(config, tmp_path / "b", arms=("translator",))
    ra = json.loads((tmp_path / "a" / "report_translator_seed0.json").read_text())
    rb = json.loads((tmp_path / "b" / "report_translator_seed0.json").read_text())
    deterministic = json.dumps(strip_wall_clock(ra), sort_keys=True) == json.dumps(
        strip_wall_clock(rb), sort_keys=True
    )

    rng = np.random.default_rng(13)
    seq = FeatureSequence(
        "roundtrip", rng.normal(size=(16, 10)).astype(np.float32), np.arange(16) * 0.25
    )
    path = tmp_path / "seq.ettf"
    harness.cache_store(path, seq)
    loaded = harness.cache_load(path)
    round_trip = (
        loaded.values.tobytes() == seq.values.tobytes()
        and loaded.frame_times_s.tobytes() == seq.frame_times_s.tobytes()
    )

    truncated_ok = True
    blob = path.read_bytes()
    for cut in (3, 11, len(blob) // 2, len(blob) - 1):
        bad = tmp_path / "bad.ettf"
        bad.write_bytes(blob[:cut])
        try:
            harness.cache_load(bad)
            truncated_ok = False
        except CacheFormatError:
            pass

    report(
        8,
        "determinism and persistence",
        deterministic and round_trip and truncated_ok,
        f"reports byte-identical={deterministic}, cache round-trip bit-exact={round_trip}, "
        f"truncation fail-closed={truncated_ok}",
    )


OVERFIT_SETUPS = (
    (tm.KIND_BINARY, 1e-2),
    (tm.KIND_LOCALIZATION, 3e-3),
    (tm.KIND_SEQUENCE, 1e-2),
)


@pytest.mark.parametrize("kind,lr", OVERFIT_SETUPS)
def test_criterion_9_overfit_sanity(kind, lr):
    extra = {}
    if kind == "binary":
        spec = st.TaskSpec("p", "binary", (0, 1, 2, 3), 1.0, 1.0, 4.0, 2.0, signal=0.3)
    elif kind == "localization":
        spec = st.TaskSpec("p", "localization", (0, 1, 2, 3), 1.0, 1.0, 4.0, 2.0, signal=0.5)
    else:
        spec = st.TaskSpec(
            "p", "sequence", (0, 1, 2, 3), 0.5, 1.0, 4.0, 2.0,
            signal=0.5, horizon=3, n_verbs=5, n_nouns=7,
        )
        extra = dict(horizon=3, n_verbs=5, n_nouns=7)
    dataset = st.generate([spec], 32, seed=0, split="train")
    model = tm.init_task_model(spec, np.random.default_rng(0))
    model.params.frozen = True
    split = ({"p": tr.align_and_extract(dataset.clips, model)}, dataset.labels["p"])
    t_p = split[0]["p"].n_frames
    # pooled width must exceed the sample count for raw memorization capacity
    config = tr.TranslatorConfig(
        (("p", t_p, 8),),
        shape=tr.TranslatorShape(d_model=48, n_layers=1, n_heads=4, d_ff=64),
        decoder_kind=kind, **extra,
    )
    params = tr.init_translator_params(config, np.random.default_rng(1))
    # one full-batch step an epoch, validated on the training split itself
    losses = tg.fit(
        params, dataset.n_samples, tg.stage2_build_loss(config, split), kind,
        lambda current: tg.stage2_predictions(split, current, config),
        tg.TrainHyper(lr=lr, batch_size=32, max_epochs=500, patience=500), seed=0,
    ).train_losses
    assert len(losses) == 500
    best = min(losses)
    step = next(i for i, l in enumerate(losses) if l == best)
    report(
        9,
        f"overfit sanity [{kind}]",
        best < 0.05,
        f"min training loss {best:.5f} at step {step} (need < 0.05 within 500 steps)",
    )


def test_frozen_random_features_underperform_trained_features(uplift_run, tmp_path_factory):
    """Ablation: a translator over frozen untrained trunks loses to one over
    stage-1-trained trunks on the correlated-auxiliary benchmark."""
    aggregate, _, _ = uplift_run
    config = harness.load_config(CONFIG_DIR / "default.cfg")
    out = tmp_path_factory.mktemp("ablation")
    ablation = harness.run_experiment(
        config, out, arms=("frozen_random_ablation",), seeds=(0, 1, 2)
    )
    trained = aggregate["arms"]["translator"]["metrics"]["accuracy"]["mean"]
    random_frozen = ablation["arms"]["frozen_random_ablation"]["metrics"]["accuracy"]["mean"]
    print(f"[INFO] ablation: trained-frozen={trained:.4f} random-frozen={random_frozen:.4f}")
    assert random_frozen < trained
