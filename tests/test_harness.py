import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

from ettrans import cli, harness, synth_tasks, task_models, training
from ettrans.errors import AlignmentError, CacheFormatError, CacheVersionError, ConfigError
from ettrans.temporal_align import FeatureSequence, FrameSeq, frame_count, plan_windows, resample

TINY_CFG = """
[experiment]
name = tiny
arms = translator, primary_only
seeds = 1
n_train = 48
n_val = 24
n_test = 24
duration_s = 2.0
fps = 4.0
n_channels = 6

[translator]
d_model = 8
n_layers = 1
n_heads = 2
d_ff = 16

[training]
lr = 0.003
batch_size = 16
max_epochs = 3
patience = 2
stage1_max_epochs = 3
stage1_patience = 2

[task:primary]
kind = binary
channels = 0-2
noise_sigma = 1.5
signal = 0.2
corr_rho = 1.0
native_fps = 4.0
native_window_s = 2.0
stride_s = 2.0
feature_dim = 5
hidden = 8

[task:helper]
kind = binary
channels = 3-5
noise_sigma = 0.4
signal = 0.5
corr_rho = 0.9
native_fps = 2.0
native_window_s = 1.0
stride_s = 0.5
feature_dim = 4
hidden = 8
"""


# TINY_CFG's clips under a localization primary and a sequence auxiliary.
# The primary's 2 fps is below the clip rate, so a change at an odd clip
# frame lies halfway between two primary frames and the lower index wins.
# Its 3-frame window is the shortest that gives stage 1 two labels.
LOC_SEQ_CFG = TINY_CFG[: TINY_CFG.index("[task:primary]")] + """[task:primary]
kind = localization
channels = 0-2
noise_sigma = 1.0
signal = 0.5
corr_rho = 1.0
native_fps = 2.0
native_window_s = 1.5
stride_s = 0.5
feature_dim = 5
hidden = 8

[task:helper]
kind = sequence
channels = 3-5
noise_sigma = 0.5
signal = 0.5
corr_rho = 0.0
horizon = 2
n_verbs = 3
n_nouns = 3
native_fps = 4.0
native_window_s = 2.0
stride_s = 2.0
feature_dim = 4
hidden = 8
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return harness.load_config(path)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing and hashing


def test_load_default_config_fields():
    config = harness.load_config(CONFIG_DIR / "default.cfg")
    assert config.primary.task_id == "primary"
    assert config.primary.corr_rho == 1.0
    assert [spec.task_id for spec in config.tasks] == ["primary", "aux_binary", "aux_loc"]
    assert config.d_model % config.n_heads == 0
    tconf = config.translator_config("translator")
    assert tconf.task_dims[0][0] == "primary"
    assert tconf.total_tokens == sum(t for _, t, _ in tconf.task_dims)
    only = config.translator_config("primary_only")
    assert only.task_ids == ("primary",)


def test_config_hash_stable_under_key_and_section_reordering(tmp_path):
    # keys shuffled within sections; non-task sections swapped. Task section
    # order stays put because it is semantic (first task = primary).
    reordered = TINY_CFG.replace(
        "kind = binary\nchannels = 0-2", "channels = 0-2\nkind = binary"
    ).replace(
        "name = tiny\narms = translator, primary_only", "arms = translator, primary_only\nname = tiny"
    )
    head, translator_sec, rest = reordered.partition("[translator]")
    translator_body, training_sec, tail = head_rest = rest.partition("[training]")
    task_start = tail.index("[task:")
    swapped = (
        head
        + training_sec
        + tail[:task_start]
        + translator_sec
        + translator_body
        + tail[task_start:]
    )
    a = harness.load_config(write_cfg(tmp_path, TINY_CFG, "a.cfg"))
    b = harness.load_config(write_cfg(tmp_path, swapped, "b.cfg"))
    assert harness.config_hash(a) == harness.config_hash(b)


def test_config_hash_changes_with_values(tmp_path):
    a = harness.load_config(write_cfg(tmp_path, TINY_CFG, "a.cfg"))
    b = harness.load_config(
        write_cfg(tmp_path, TINY_CFG.replace("noise_sigma = 1.5", "noise_sigma = 2.5"), "b.cfg")
    )
    assert harness.config_hash(a) != harness.config_hash(b)


@pytest.mark.parametrize(
    "mutation",
    [
        ("arms = translator, primary_only", "arms = translator, warp_drive"),
        ("channels = 3-5", "channels = 2-5"),  # overlaps primary group
        ("n_heads = 2", "n_heads = 3"),  # does not divide d_model
        ("native_fps = 2.0\nnative_window_s = 1.0", "native_fps = 8.0\nnative_window_s = 1.0"),
        ("corr_rho = 1.0", "corr_rho = 0.5"),  # primary must be fully correlated
        ("n_train = 48", "n_train = 0"),
        ("duration_s = 2.0", ""),  # required key removed
        ("arms = translator, primary_only", "arms ="),
        ("arms = translator, primary_only", "arms = translator, translator"),
    ],
)
def test_invalid_configs_rejected(tmp_path, mutation):
    old, new = mutation
    broken = TINY_CFG.replace(old, new)
    with pytest.raises(ConfigError):
        harness.load_config(write_cfg(tmp_path, broken))


@pytest.mark.parametrize(
    "path, digest",
    [
        (CONFIG_DIR / "default.cfg",
         "6f43530cf71030f8425726ac1cc480af0fa1c329025a528eddd2397b396df74b"),
        (CONFIG_DIR / "noharm.cfg",
         "1e09668bef0dd81dd7659e78ee3a09fe2f85fcf742a523105192626d17596e10"),
        (CONFIG_DIR.parent / "perfbench" / "configs" / "dense_windows.cfg",
         "65770bb160ed4398f32b077dd9699cc2380e4d74b1509c279fd3cfed6aa8b6d7"),
    ],
    ids=["default", "noharm", "dense_windows"],
)
def test_config_hash_of_the_shipped_configs_is_pinned(path, digest):
    """Reports and benchmark keys carry this hash; a change in how configs
    are serialized would silently split them from earlier runs."""
    assert harness.config_hash(harness.load_config(path)) == digest


@pytest.mark.parametrize("name", ["100%_tiny", "run_%(fps)s"])
def test_a_percent_sign_in_a_value_is_read_literally(tmp_path, name):
    assert TINY_CFG.count("name = tiny\n") == 1
    cfg = write_cfg(tmp_path, TINY_CFG.replace("name = tiny\n", f"name = {name}\n"))
    assert harness.load_config(cfg).name == name


def test_replacing_a_field_of_a_config_checks_it_again(tiny_config):
    """9 frames at the clips' 4 fps are 4.5 at the helper's 2 fps: a config
    made by ``replace`` is refused like one loaded from a file."""
    with pytest.raises(ConfigError, match="not a whole number of frames"):
        dataclasses.replace(tiny_config, duration_s=2.25)
    with pytest.raises(ConfigError, match="split sizes"):
        dataclasses.replace(tiny_config, n_test=0)


@pytest.mark.parametrize("arms", [(), ("bogus",), ("translator", "translator")])
def test_replacing_the_arms_of_a_config_checks_them(tiny_config, arms):
    with pytest.raises(ConfigError, match="arm"):
        dataclasses.replace(tiny_config, arms=arms)


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        harness.load_config(tmp_path / "absent.cfg")


@pytest.fixture(scope="module")
def tiny_base(tmp_path_factory):
    return harness.load_config(write_cfg(tmp_path_factory.mktemp("cfg"), TINY_CFG))


_QUARTERS = hst.integers(0, 32).map(lambda q: q / 4)


@settings(max_examples=300, deadline=None)
@given(fps=_QUARTERS, duration_s=_QUARTERS, native_fps=_QUARTERS,
       native_window_s=_QUARTERS, stride_s=_QUARTERS)
def test_validator_accepts_exactly_the_geometries_the_run_can_plan(
    tiny_base, fps, duration_s, native_fps, native_window_s, stride_s
):
    """The helper task's geometry on a quarter grid: making the config
    succeeds exactly when every task's clip resamples to its native fps and
    gets a window plan, the path a run takes."""
    primary, helper = tiny_base.tasks
    helper = dataclasses.replace(
        helper, native_fps=native_fps, native_window_s=native_window_s, stride_s=stride_s
    )
    try:
        for spec in (primary, helper):
            clip = FrameSeq(np.zeros((frame_count(fps, duration_s), 1)), fps=fps, duration_s=duration_s)
            clip = resample(clip, spec.native_fps)
            plan_windows(clip.duration_s, spec.native_window_s, spec.stride_s, spec.native_fps)
        runs = True
    except AlignmentError:
        runs = False
    try:
        dataclasses.replace(tiny_base, fps=fps, duration_s=duration_s, tasks=(primary, helper))
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted == runs


@pytest.fixture(scope="module")
def loc_seq_base(tmp_path_factory):
    return harness.load_config(write_cfg(tmp_path_factory.mktemp("cfg"), LOC_SEQ_CFG))


_NATIVE_FPS = hst.sampled_from([1.0, 2.0, 4.0])
_WINDOW_FRAMES = hst.integers(1, 4)


@settings(max_examples=300, deadline=None)
@given(fps=hst.sampled_from([4.0, 8.0]), duration_s=hst.sampled_from([2.0, 3.0, 4.0]),
       native_fps=_NATIVE_FPS, window_frames=_WINDOW_FRAMES,
       helper_kind=hst.sampled_from([task_models.KIND_SEQUENCE, task_models.KIND_LOCALIZATION]),
       helper_fps=_NATIVE_FPS, helper_frames=_WINDOW_FRAMES)
def test_every_accepted_config_gives_each_localization_task_two_labels(
    loc_seq_base, fps, duration_s, native_fps, window_frames, helper_kind, helper_fps,
    helper_frames,
):
    """A run draws every task's labels on the clips and on each task's native
    window (that task's stage-1 data). For a config that can be made, each
    localization task gets at least two labels on every window, and the
    localization primary at least two stage-2 target frames at its native
    fps."""
    native_window_s, helper_window_s = window_frames / native_fps, helper_frames / helper_fps
    primary, helper = loc_seq_base.tasks
    primary = dataclasses.replace(
        primary, native_fps=native_fps, native_window_s=native_window_s, stride_s=native_window_s
    )
    helper = dataclasses.replace(
        helper, kind=helper_kind, native_fps=helper_fps, native_window_s=helper_window_s,
        stride_s=helper_window_s,
    )
    try:
        config = dataclasses.replace(
            loc_seq_base, fps=fps, duration_s=duration_s, tasks=(primary, helper)
        )
    except ConfigError:
        return
    specs = [primary, helper]
    localization = [s.task_id for s in specs if s.kind == task_models.KIND_LOCALIZATION]

    def labels(duration_s, fps):
        return synth_tasks.generate(
            specs, 32, 0, duration_s=duration_s, fps=fps, n_channels=config.n_channels
        ).labels

    native_times = np.arange(frame_count(native_fps, duration_s)) / native_fps
    targets = task_models.localization_target_index(labels(duration_s, fps)["primary"], native_times)
    assert len(set(targets)) >= 2
    for spec in specs:
        window = labels(spec.native_window_s, spec.native_fps)
        assert min(len(set(window[task_id])) for task_id in localization) >= 2


def test_cli_refuses_a_two_frame_localization_window_before_the_output_directory(tmp_path, capsys):
    """A 1 s primary window at 2 fps holds 2 frames: every stage-1 change
    frame would be frame 1."""
    assert LOC_SEQ_CFG.count("native_window_s = 1.5") == 1
    cfg = write_cfg(tmp_path, LOC_SEQ_CFG.replace("native_window_s = 1.5", "native_window_s = 1.0"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "at least 3 frames" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# feature cache


def random_feature_sequence(rng, task_id="demo"):
    t_k = int(rng.integers(1, 24))
    d_k = int(rng.integers(1, 12))
    values = rng.normal(size=(t_k, d_k)).astype(np.float32)
    times = np.cumsum(rng.uniform(0.05, 0.4, size=t_k))
    return FeatureSequence(task_id, values, times)


def test_cache_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(20):
        seq = random_feature_sequence(rng, task_id=f"task_{i}")
        path = tmp_path / f"{i}.ettf"
        harness.cache_store(path, seq)
        loaded = harness.cache_load(path)
        assert loaded.task_id == seq.task_id
        assert loaded.values.tobytes() == seq.values.tobytes()
        assert loaded.frame_times_s.tobytes() == seq.frame_times_s.tobytes()


def test_cache_file_size_matches_arithmetic(tmp_path):
    """v2 header: 4 magic + 2 version + 2 id length + id + 1 rank + 4 per axis
    + 1 dtype tag."""
    rng = np.random.default_rng(1)
    for i in range(20):
        seq = random_feature_sequence(rng, task_id=f"t{i}")
        path = tmp_path / f"{i}.ettf"
        harness.cache_store(path, seq)
        t_k, d_k = seq.values.shape
        assert path.stat().st_size == harness.cache_file_size(seq.task_id, t_k, d_k)
        assert (
            harness.cache_file_size(seq.task_id, t_k, d_k)
            == 18 + len(seq.task_id.encode()) + 4 * t_k * d_k + 8 * t_k
        )
        n = int(rng.integers(1, 6))
        split = FeatureSequence(seq.task_id, np.stack([seq.values] * n), seq.frame_times_s)
        harness.cache_store(path, split)
        assert path.stat().st_size == harness.cache_file_size(seq.task_id, n, t_k, d_k)
        assert (
            harness.cache_file_size(seq.task_id, n, t_k, d_k)
            == 22 + len(seq.task_id.encode()) + 4 * n * t_k * d_k + 8 * t_k
        )


def test_cache_rejects_truncation_at_every_region(tmp_path):
    seq = FeatureSequence(
        "demo", np.arange(12, dtype=np.float32).reshape(4, 3), np.arange(4) * 0.5
    )
    path = tmp_path / "full.ettf"
    harness.cache_store(path, seq)
    blob = path.read_bytes()
    for cut in (0, 2, 5, 9, 17, len(blob) - 8, len(blob) - 1):
        short = tmp_path / "cut.ettf"
        short.write_bytes(blob[:cut])
        with pytest.raises(CacheFormatError):
            harness.cache_load(short)


def test_cache_rejects_bad_magic_version_and_trailer(tmp_path):
    seq = FeatureSequence("demo", np.ones((2, 2), dtype=np.float32), np.array([0.0, 0.5]))
    path = tmp_path / "good.ettf"
    harness.cache_store(path, seq)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ettf"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CacheFormatError, match="magic"):
        harness.cache_load(bad)

    bad.write_bytes(blob[:4] + struct.pack("<H", 99) + blob[6:])
    with pytest.raises(CacheVersionError):
        harness.cache_load(bad)

    bad.write_bytes(blob + b"\x00")
    with pytest.raises(CacheFormatError, match="trailing"):
        harness.cache_load(bad)


def random_split_features(rng, task_id="demo", n=5):
    seq = random_feature_sequence(rng, task_id)
    values = rng.normal(size=(n,) + seq.values.shape).astype(np.float32)
    return FeatureSequence(task_id, values, seq.frame_times_s)


def test_cache_round_trips_a_split_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(10):
        seq = random_split_features(rng, f"task_{i}", n=int(rng.integers(1, 9)))
        path = tmp_path / f"{i}.ettf"
        harness.cache_store(path, seq)
        loaded = harness.cache_load(path)
        assert loaded.task_id == seq.task_id
        assert loaded.values.shape == seq.values.shape
        assert loaded.values.tobytes() == seq.values.tobytes()
        assert loaded.frame_times_s.tobytes() == seq.frame_times_s.tobytes()


def test_cache_rejects_a_version_1_file(tmp_path):
    """The one-clip layout before the header recorded the value rank."""
    values = np.arange(6, dtype="<f4").reshape(3, 2)
    times = np.arange(3, dtype="<f8") * 0.5
    blob = (
        b"ETTF" + struct.pack("<HH", 1, 4) + b"demo" + struct.pack("<IIB", 3, 2, 0)
        + values.tobytes() + times.tobytes()
    )
    path = tmp_path / "v1.ettf"
    path.write_bytes(blob)
    with pytest.raises(CacheVersionError):
        harness.cache_load(path)


def test_cache_rejects_corrupt_split_files(tmp_path):
    seq = random_split_features(np.random.default_rng(4), "demo", n=4)
    path = tmp_path / "split.ettf"
    harness.cache_store(path, seq)
    blob = path.read_bytes()
    count_at = 4 + 2 + 2 + len(b"demo") + 1  # the sample count, first axis
    assert struct.unpack_from("<BI", blob, count_at - 1) == (3, 4)
    bad = tmp_path / "bad.ettf"
    for count in (3, 5, 0):
        bad.write_bytes(blob[:count_at] + struct.pack("<I", count) + blob[count_at + 4 :])
        with pytest.raises(CacheFormatError):
            harness.cache_load(bad)
    for rank in (0, 1, 4):
        bad.write_bytes(blob[: count_at - 1] + struct.pack("<B", rank) + blob[count_at:])
        with pytest.raises(CacheFormatError):
            harness.cache_load(bad)
    # a self-consistent rank-1 file: three values, no frame axis
    bad.write_bytes(
        blob[:8] + b"demo" + struct.pack("<BIB", 1, 3, 0) + np.zeros(3, dtype="<f4").tobytes()
    )
    with pytest.raises(CacheFormatError, match="rank"):
        harness.cache_load(bad)
    for cut in range(0, len(blob), 97):
        bad.write_bytes(blob[:cut])
        with pytest.raises(CacheFormatError):
            harness.cache_load(bad)
    bad.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(CacheFormatError, match="trailing"):
        harness.cache_load(bad)
    # a task id that is not UTF-8
    bad.write_bytes(blob[:8] + b"\xffemo" + blob[12:])
    with pytest.raises(CacheFormatError, match="UTF-8"):
        harness.cache_load(bad)


def test_interrupted_cache_write_leaves_the_old_file_whole(tmp_path, monkeypatch):
    old = FeatureSequence("demo", np.ones((2, 2), dtype=np.float32), np.array([0.0, 0.5]))
    path = tmp_path / "seq.ettf"
    harness.cache_store(path, old)

    def write_half_then_fail(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    new = FeatureSequence("demo", np.zeros((3, 2), dtype=np.float32), np.arange(3) * 0.5)
    with pytest.raises(OSError):
        harness.cache_store(path, new)
    monkeypatch.undo()
    loaded = harness.cache_load(path)
    assert loaded.values.tobytes() == old.values.tobytes()
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# experiment runner


def strip_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_clock(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


def test_run_experiment_writes_reports_and_aggregate(tiny_config, tmp_path):
    out = tmp_path / "run"
    aggregate = harness.run_experiment(tiny_config, out)
    for arm in ("translator", "primary_only"):
        report_path = out / f"report_{arm}_seed0.json"
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert report["frozen_check"]["ok"]
        assert "accuracy" in report["metrics"]
        assert report["config_hash"] == harness.config_hash(tiny_config)
    assert (out / "aggregate.json").exists()
    acc = aggregate["arms"]["translator"]["metrics"]["accuracy"]
    assert acc["mean"] == pytest.approx(math.fsum(acc["values"]) / len(acc["values"]), abs=1e-12)


@pytest.mark.parametrize("seeds", [(2, 3), (1, 2)])
def test_aggregate_holds_the_metrics_every_seed_reports(tiny_config, tmp_path, seeds):
    """Two test samples: a seed whose labels hold one class reports no ``map``,
    so the aggregate leaves it out whichever seed comes first."""
    config = dataclasses.replace(tiny_config, n_test=2)
    out = tmp_path / "run"
    aggregate = harness.run_experiment(config, out, arms=("translator",), seeds=seeds)
    reports = [json.loads((out / f"report_translator_seed{s}.json").read_text()) for s in seeds]
    assert sorted("map" in r["metrics"] for r in reports) == [False, True]
    stats = aggregate["arms"]["translator"]["metrics"]
    assert sorted(stats) == ["accuracy", "loss"]
    assert stats["accuracy"]["values"] == [r["metrics"]["accuracy"] for r in reports]


def test_rerun_is_byte_identical_modulo_wall_clock(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    harness.run_experiment(tiny_config, out_a, arms=("translator",))
    harness.run_experiment(tiny_config, out_b, arms=("translator",))
    ra = json.loads((out_a / "report_translator_seed0.json").read_text())
    rb = json.loads((out_b / "report_translator_seed0.json").read_text())
    assert json.dumps(strip_wall_clock(ra), sort_keys=True) == json.dumps(
        strip_wall_clock(rb), sort_keys=True
    )


def test_parallel_workers_reproduce_sequential_reports(tiny_config, tmp_path, monkeypatch):
    """One job per seed, so two seeds are needed for the pool to start."""
    seeds = (0, 1)
    harness.run_experiment(tiny_config, tmp_path / "seq", seeds=seeds)
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    # run_experiment imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("ETT_NUM_WORKERS", "2")
    harness.run_experiment(tiny_config, tmp_path / "par", seeds=seeds)
    assert pools == [{"max_workers": 2}]
    names = ["aggregate.json"] + [
        f"report_{arm}_seed{seed}.json" for arm in tiny_config.arms for seed in seeds
    ]
    for name in names:
        a = json.loads((tmp_path / "seq" / name).read_text())
        b = json.loads((tmp_path / "par" / name).read_text())
        assert strip_wall_clock(a) == strip_wall_clock(b)


def test_arms_of_a_seed_share_data_and_stage1_models(tiny_config, tmp_path, monkeypatch):
    stage1_tasks, main_splits = [], []
    train_stage1, generate = training.train_stage1, synth_tasks.generate

    def counting_train_stage1(model, *args, **kwargs):
        stage1_tasks.append(model.spec.task_id)
        return train_stage1(model, *args, **kwargs)

    def counting_generate(specs, n, seed, split, **kwargs):
        if seed == 0:  # stage-1 datasets use derived seeds
            main_splits.append(split)
        return generate(specs, n, seed, split, **kwargs)

    monkeypatch.setattr(training, "train_stage1", counting_train_stage1)
    monkeypatch.setattr(synth_tasks, "generate", counting_generate)
    harness.run_experiment(tiny_config, tmp_path / "run", arms=("translator", "primary_only"))
    assert sorted(stage1_tasks) == ["helper", "primary"]
    assert sorted(main_splits) == ["test", "train", "val"]


def test_each_arm_report_matches_that_arm_run_alone(tiny_config, tmp_path):
    harness.run_experiment(tiny_config, tmp_path / "all", arms=harness.ARMS)
    for arm in harness.ARMS:
        harness.run_experiment(tiny_config, tmp_path / arm, arms=(arm,))
        name = f"report_{arm}_seed0.json"
        together = json.loads((tmp_path / "all" / name).read_text())
        alone = json.loads((tmp_path / arm / name).read_text())
        assert strip_wall_clock(together) == strip_wall_clock(alone)


def test_feature_cache_is_reused_across_arms(tiny_config, tmp_path):
    out = tmp_path / "run"
    harness.run_experiment(tiny_config, out, arms=("translator",))
    cache_files = set(p.name for p in (out / "cache").iterdir())
    assert cache_files  # populated by the first arm
    harness.run_experiment(tiny_config, out, arms=("primary_only",))
    assert set(p.name for p in (out / "cache").iterdir()) == cache_files


def _count_cache_calls(monkeypatch):
    stored, loaded = [], []
    store, load = harness.cache_store, harness.cache_load

    def counting_store(path, seq):
        stored.append((seq.task_id, seq.values.shape[0]))
        return store(path, seq)

    def counting_load(path):
        seq = load(path)
        loaded.append((seq.task_id, seq.values.shape[0]))
        return seq

    monkeypatch.setattr(harness, "cache_store", counting_store)
    monkeypatch.setattr(harness, "cache_load", counting_load)
    return stored, loaded


def test_cold_run_extracts_each_split_and_task_once_and_rerun_reads_them(
    tiny_config, tmp_path, monkeypatch
):
    stored, loaded = _count_cache_calls(monkeypatch)
    arms = ("translator", "primary_only")
    out = tmp_path / "run"
    harness.run_experiment(tiny_config, out, arms=arms)
    per_split_and_task = sorted(
        (task_id, n) for task_id in ("helper", "primary") for n in (48, 24, 24)
    )
    assert loaded == []
    assert sorted(stored) == per_split_and_task
    assert len(list((out / "cache").iterdir())) == 6
    cold = {arm: json.loads((out / f"report_{arm}_seed0.json").read_text()) for arm in arms}

    stored.clear()
    harness.run_experiment(tiny_config, out, arms=arms)
    assert stored == []
    assert sorted(loaded) == per_split_and_task
    assert len(list((out / "cache").iterdir())) == 6
    for arm in arms:
        warm = json.loads((out / f"report_{arm}_seed0.json").read_text())
        assert strip_wall_clock(warm) == strip_wall_clock(cold[arm])


def _damage_dropped_sample(path):
    seq = harness.cache_load(path)
    harness.cache_store(path, FeatureSequence(seq.task_id, seq.values[:-1], seq.frame_times_s))


def _damage_truncated(path):
    path.write_bytes(path.read_bytes()[:-5])


def _damage_version_1(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])


@pytest.mark.parametrize(
    "damage", [_damage_dropped_sample, _damage_truncated, _damage_version_1],
    ids=["dropped_sample", "truncated", "version_1"],
)
def test_rerun_over_damaged_cache_files_matches_the_cold_run(tmp_path, damage):
    """A cached split counts as a hit only if it loads and holds the split's
    task and sample count; anything else is re-extracted and rewritten."""
    cfg = write_cfg(tmp_path, TINY_CFG)
    out = tmp_path / "out"
    args = ["run", "--config", str(cfg), "--out", str(out)]

    def outputs():
        reports = {p.name: strip_wall_clock(json.loads(p.read_text())) for p in out.glob("*.json")}
        return reports, {p.name: p.read_bytes() for p in (out / "cache").iterdir()}

    assert cli.main(args) == 0
    cold = outputs()
    for path in sorted((out / "cache").iterdir()):
        damage(path)
    assert outputs()[1] != cold[1]
    assert cli.main(args) == 0
    assert outputs() == cold


def test_changed_config_into_used_directory_matches_fresh_directory(tmp_path):
    """Untrained frozen models keep their checksum when the data changes, so
    only a content key stops the second config from reading the first one's
    cached features."""
    changed_cfg = TINY_CFG.replace("noise_sigma = 0.4", "noise_sigma = 0.8").replace(
        "stride_s = 0.5", "stride_s = 1.0"
    )
    assert "noise_sigma = 0.8" in changed_cfg and "stride_s = 1.0" in changed_cfg
    original = harness.load_config(write_cfg(tmp_path, TINY_CFG, "a.cfg"))
    changed = harness.load_config(write_cfg(tmp_path, changed_cfg, "b.cfg"))
    arms = ("frozen_random_ablation",)
    harness.run_experiment(original, tmp_path / "used", arms=arms)
    harness.run_experiment(changed, tmp_path / "used", arms=arms)
    harness.run_experiment(changed, tmp_path / "fresh", arms=arms)
    for name in ("report_frozen_random_ablation_seed0.json", "aggregate.json"):
        reused = json.loads((tmp_path / "used" / name).read_text())
        fresh = json.loads((tmp_path / "fresh" / name).read_text())
        assert strip_wall_clock(reused) == strip_wall_clock(fresh)


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file a run wrote, by path under ``out``: reports and
    the aggregate as sorted-key JSON without wall-clock fields, cache files
    as their raw bytes."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(strip_wall_clock(json.loads(data)), sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


# Digests of TINY_CFG's outputs, both arms, seeds 0-1, by numpy version: the
# bits depend on the numpy and BLAS build. A change that moves a number must
# update these and say why.
PINNED_OUTPUT_DIGESTS = {
    "2.4.6": {
        "aggregate.json":
            "1be226133b414807ff2c546780e867acd9bbec66ce9ab6c659a1d38d59c78b8b",
        "cache/helper_02b8042299e69ae462a88f1b73350e9e.ettf":
            "d6f60b46484af80f30c7f3f1c2fdcbbfc8db3f69a660d6c739bb698589ced03b",
        "cache/helper_371cbf7f471eef4b0f727af75028b8dc.ettf":
            "7bf4dc38140d707b35f05a13c94318e24b52a9af5c6a4c2903ec99b7da2e30ca",
        "cache/helper_3a15bbc68f1d3de87396404aee814bf8.ettf":
            "8ec14936bc732323f109a6a0465c2fd7b96d9669aa26ba62c37edcb0769f8299",
        "cache/helper_4e03cbe9f2bbb18c63bd7200262d83a4.ettf":
            "1f67fa0583c01d783d0c65c433dea1455ac814f11c8c08ad7486eb4213bd0620",
        "cache/helper_58bd9bf755ab97d8d5fe0e6018dafd61.ettf":
            "d0b6f022a3ee94ec83ca44bb18efda0351ed28519ebcd89560ebbc041fb69895",
        "cache/helper_f175d5206acf34691a6864fa9bdf1a53.ettf":
            "bf0e89bf6ef3dff1351785f6438e96230558c63cbccfab4326e9453fb58e59a6",
        "cache/primary_5985e2909a7da221bd3594ababaf56f7.ettf":
            "4d1549e7bf67fc8b240fed245bc7e3c1c0053b1953c3522b9133d6dac1fba76e",
        "cache/primary_6931ee1c9384435bcd22d574e13a6a08.ettf":
            "80049ccf3f43712e64c2a808ea90ae8f1b7a4ade7700955d155411ae495b7d2f",
        "cache/primary_6a8153f4146f7e5c34c7068009455e64.ettf":
            "f3ca2b3fec5fa53137c0fc50b1d7cd7c9afaabd6dd0b600fae6df15bf3c2cc27",
        "cache/primary_8b2d71a271fb7906fa97d2b2cf4a6a7d.ettf":
            "fef70d2c917ee57213fb4c4cacf6edddf93cd87a11f5961c062c03190285da85",
        "cache/primary_acae4b92c0e8588c4ca3ce6411710ec3.ettf":
            "692fd1314107b0e6026e4f1ceb34516bafd0753baad15ab45ac52a54e24699b2",
        "cache/primary_d0e56f40cc083c03d1103464b93c7e76.ettf":
            "0feb67cd8d3eb729a76d081c5d55a84f25d48e04c7467e20f1437d62a9c6b38e",
        "report_primary_only_seed0.json":
            "7405008dde77c13bd93a4f15e6ef57bea709dd75ed8e8f79e71823df25eda713",
        "report_primary_only_seed1.json":
            "4f10699e69d38b14b5715db61521ff39168fc8d903deaa10db44e51341241dcb",
        "report_translator_seed0.json":
            "b517778e8e6c372052c2004e0900cac592fa31ca5c768574e9481c36db7b0bbe",
        "report_translator_seed1.json":
            "ddbf9427dbf0adec06eb9259b1f65fc54d80a49ce4fc58bfd64bba0b2e87071d",
    },
}


@pytest.mark.skipif(
    np.__version__ not in PINNED_OUTPUT_DIGESTS,
    reason=f"no output digests pinned for numpy {np.__version__}",
)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, workers):
    """Every report, the aggregate and every cache file (name and bytes) of
    a small run equal the pinned ones, with one worker or two. On a numpy
    version with no pin the test is skipped and checks nothing."""
    monkeypatch.setenv("ETT_NUM_WORKERS", workers)
    config = harness.load_config(write_cfg(tmp_path, TINY_CFG))
    harness.run_experiment(config, tmp_path / "out", seeds=(0, 1))
    assert output_digests(tmp_path / "out") == PINNED_OUTPUT_DIGESTS[np.__version__]


# Digests of LOC_SEQ_CFG's outputs, both arms, seeds 0-1, by numpy version.
# They pin the localization target index, loss and readout, and the
# edit-distance scoring, which TINY_CFG's two binary tasks do not reach.
PINNED_LOC_SEQ_DIGESTS = {
    "2.4.6": {
        "aggregate.json":
            "a30254973185233ff48638562793365b15ef343fc6546e074c6d980772fbba78",
        "cache/helper_34ed148f8ec25b6ac32ac7f6dfa15e74.ettf":
            "9d6a3141662acaf0d0b63aad20b0950b91cb42110f11b40536bcffb7157a43e9",
        "cache/helper_5eebf4f35643de6af5879c3c583e2c16.ettf":
            "4b46a3a7d46c1fcb250e32c06e0e06bc0d1eea33aa3931e20279ba0b5f1e834c",
        "cache/helper_7d7e910ccfbc3b6236d7208e72616d87.ettf":
            "a623217c10d09f488a4a640d3b6773c034b3871e7b79c4db03d8858fc683f65b",
        "cache/helper_886706935d147420240fce6ccc9eff95.ettf":
            "d5b54c9c8cca0ff42725165508e0e919b45ae83b4135edd62377c6c8a9cb5c06",
        "cache/helper_db9ffd2b360ad24c6c473ec708d9c7e0.ettf":
            "5c5ee4ae968ba7984a1abbb57a23f5a2092fce592c40622bf46b52ce98b61845",
        "cache/helper_fb02d773ea2ce8fbe968380858ac3a1e.ettf":
            "8c50e62a7ce9e041741e62cc11418874c4433ec3ea1eeca5d021987959b8aa08",
        "cache/primary_570130bfc728e50c609a4f70b2a1ddae.ettf":
            "4204cfc879c0e9f46a72aa7a066f7549581f232404f94748e4be5b501fffcb37",
        "cache/primary_755417a6968b0c97fb73a313f6828961.ettf":
            "ce0d790dd0f7ac409690ceca0e2f9468512be98980ed3c64c724348c2e313715",
        "cache/primary_91dcdfcf6ec65665573d99f857d3fe89.ettf":
            "f86e2b9f2c4aa41de337e5038f5446e33647c5ee1113654ef90ef2cccfb5cbdc",
        "cache/primary_920eca6bc9c2e7b62d7718e9ae9e2b59.ettf":
            "789fa3bfe6aa58c6edc3f26880f7e30ed781224b92b4c256ffd74d78e8369448",
        "cache/primary_b9d4ff0b979a55298d48359c948549cc.ettf":
            "f84fd4b9036ba4e2758f277541f38c5aee8c597be4e6e41ae3bb0c56a3b28f1b",
        "cache/primary_f19f458bee52ce9a0b540094275e1c1c.ettf":
            "0c8bf5b04cc943f6037faa54898d5fb4ec6fd47620a27d0d00c86cf5a6b96a0d",
        "report_primary_only_seed0.json":
            "4659a57dcc056d21629a4d095186653a5e9de10dd3dc91908ba6fd6ac8637e5d",
        "report_primary_only_seed1.json":
            "28ab1e854353d855c5a03fe3cfc0baf5c9819dc1ce0d0d26577af61a11f76439",
        "report_translator_seed0.json":
            "84ebc1a75b4e3a54ea3be082d0455e575b75995dc9eccda11e6a390c927bc475",
        "report_translator_seed1.json":
            "b89da94216a5c7ff6c6f213fac38ae9e183698d05189de1551c8c56c38448b1d",
    },
}


@pytest.mark.skipif(
    np.__version__ not in PINNED_LOC_SEQ_DIGESTS,
    reason=f"no output digests pinned for numpy {np.__version__}",
)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_localization_and_sequence_outputs_match_the_pinned_digests(
    tmp_path, monkeypatch, workers
):
    monkeypatch.setenv("ETT_NUM_WORKERS", workers)
    config = harness.load_config(write_cfg(tmp_path, LOC_SEQ_CFG))
    harness.run_experiment(config, tmp_path / "out", seeds=(0, 1))
    assert output_digests(tmp_path / "out") == PINNED_LOC_SEQ_DIGESTS[np.__version__]


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_exits_zero(tiny_config, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--arm", "translator", "--out", str(out)])
    assert code == 0
    assert (out / "aggregate.json").exists()


def test_cli_run_with_a_noiseless_primary_reports_a_combined_ceiling_of_one(tmp_path):
    noiseless = TINY_CFG.replace("noise_sigma = 1.5", "noise_sigma = 0.0")
    cfg = write_cfg(tmp_path, noiseless)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--arm", "translator", "--out", str(out)])
    assert code == 0
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["bayes"]["primary_only_ceiling"] == 1.0
    assert aggregate["bayes"]["combined_ceiling"] == 1.0


def test_cli_missing_config_is_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "config"


@pytest.mark.parametrize(
    "old, new",
    [
        ("n_heads = 2", "n_heads = 0"),
        ("n_layers = 1", "n_layers = 0"),
        ("batch_size = 16", "batch_size = 0"),
        ("\nmax_epochs = 3", "\nmax_epochs = 0"),
        ("stage1_max_epochs = 3", "stage1_max_epochs = 0"),
        ("lr = 0.003", "lr = -1"),
        ("stage1_patience = 2", "stage1_patience = 2\nstage1_batch_size = 0"),
        ("lr = 0.003", "lr = 0.003\nbeta1 = 1.0"),
        ("lr = 0.003", "lr = 0.003\nbeta2 = 1.0"),
        ("lr = 0.003", "lr = 0.003\nbeta1 = -0.1"),
        ("lr = 0.003", "lr = 0.003\neps = 0"),
        ("lr = 0.003", "lr = 0.003\neps = nan"),
        ("stage1_patience = 2", "stage1_patience = 2\nstage1_beta1 = 1.0"),
        ("stage1_patience = 2", "stage1_patience = 2\nstage1_beta2 = 1.5"),
        ("stage1_patience = 2", "stage1_patience = 2\nstage1_eps = inf"),
        ("stride_s = 0.5", "stride_s = 0"),
        ("stride_s = 0.5", "stride_s = 2.0"),
        ("\npatience = 2", "\npatience = -1"),
        ("stage1_patience = 2", "stage1_patience = -1"),
        ("channels = 3-5", "channels = 3-x"),
        ("channels = 3-5", "channels = 3-"),
        ("channels = 3-5", "channels = 3-5,9-8"),
        ("duration_s = 2.0", "duration_s = 2.25"),  # 9 frames at 4 fps, 4.5 at 2 fps
        ("native_fps = 2.0", "native_fps = 0"),
        ("\nfps = 4.0", "\nfps = nan"),
        ("duration_s = 2.0", "duration_s = inf"),
        ("noise_sigma = 1.5", "noise_sigma = nan"),
        ("signal = 0.2", "signal = inf"),
        ("\nmax_epochs = 3", "\nmax_epoch = 3"),
        ("[translator]", "[translater]"),
        ("[experiment]", "[DEFAULT]\nhidden = 32\n\n[experiment]"),
        ("feature_dim = 5", "feature_dim = 0"),
        ("feature_dim = 5\nhidden = 8", "feature_dim = 5\nhidden = 0"),
        ("d_ff = 16", "d_ff = 16\nnorm_first = maybe"),
        ("[task:helper]", "[task:help.er]"),
        (TINY_CFG[TINY_CFG.index("[experiment]") : TINY_CFG.index("[translator]")], ""),
        ("n_channels = 6", "n_channels = 5"),
        ("noise_sigma = 1.5", "noise_sigma = -1"),
        ("[task:helper]\nkind = binary", "[task:helper]\nkind = bogus"),
        ("channels = 3-5", "channels = ,"),
        ("native_fps = 2.0", "native_fps = 8.0"),  # above the clips' 4 fps
        ("signal = 0.2", "signal = -0.2"),
    ],
    ids=["n_heads", "n_layers", "batch_size", "max_epochs", "stage1_max_epochs", "lr",
         "stage1_batch_size", "beta1", "beta2", "beta1_negative", "eps", "eps_nan",
         "stage1_beta1", "stage1_beta2", "stage1_eps", "stride_zero", "stride_over_window",
         "patience", "stage1_patience", "channels_not_integer", "channels_open_range",
         "channels_reversed_range", "duration_not_whole_at_native_fps", "native_fps_zero",
         "fps_nan", "duration_inf", "noise_sigma_nan", "signal_inf", "unknown_key",
         "unknown_section", "default_section", "feature_dim_zero", "hidden_zero",
         "norm_first_not_boolean", "task_id_with_dot", "no_experiment_section",
         "channels_exceed_clip", "noise_sigma_negative", "unknown_kind", "empty_channel_list",
         "native_fps_above_clip", "signal_negative"],
)
def test_cli_rejects_degenerate_hyperparameters_before_running(tmp_path, capsys, old, new):
    assert TINY_CFG.count(old) == 1
    cfg = write_cfg(tmp_path, TINY_CFG.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize(
    "arms_line, extra",
    [
        (None, ["--seeds", "0"]),
        (None, ["--seeds", "-1"]),
        (None, ["--arm", "bogus"]),
        (None, ["--arm", "translator", "--arm", "bogus"]),
        (None, ["--arm", "translator", "--arm", "translator"]),
        ("arms =", []),
        ("arms = translator, translator", []),
    ],
    ids=["zero_seeds", "negative_seeds", "unknown_arm", "one_unknown_arm", "repeated_arm",
         "empty_config_arms", "repeated_config_arms"],
)
def test_cli_rejects_bad_seeds_and_arms_before_running(tmp_path, capsys, arms_line, extra):
    text = TINY_CFG
    if arms_line is not None:
        text = text.replace("arms = translator, primary_only", arms_line)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("seeds", [[], [-1], [0, -2], [0, 0], [1, 0, 1]])
def test_run_experiment_rejects_empty_or_negative_seeds_before_writing(
    tiny_config, tmp_path, seeds
):
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        harness.run_experiment(tiny_config, out, seeds=seeds)
    assert not out.exists()


@pytest.mark.parametrize(
    "config_arms, arms", [((), None), (("translator",), []), (("translator",), ["translator"] * 2)]
)
def test_run_experiment_rejects_empty_or_repeated_arms_before_writing(
    tiny_config, tmp_path, config_arms, arms
):
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        config = dataclasses.replace(tiny_config, arms=config_arms)
        harness.run_experiment(config, out, arms=arms, seeds=[0])
    assert not out.exists()


@pytest.mark.parametrize("workers", ["abc", "1.5", "", "0", "-1"])
def test_run_experiment_rejects_a_bad_worker_count_before_writing(
    tiny_config, tmp_path, capsys, monkeypatch, workers
):
    monkeypatch.setenv("ETT_NUM_WORKERS", workers)
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        harness.run_experiment(tiny_config, out, seeds=[0])
    assert not out.exists()
    cfg = write_cfg(tmp_path, TINY_CFG)
    assert cli.main(["run", "--config", str(cfg), "--seeds", "1", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not out.exists()


def test_cli_config_required_without_check():
    assert cli.main(["run"]) == 2


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def test_cli_divergence_is_exit_3(tmp_path):
    broken = TINY_CFG.replace("lr = 0.003", "lr = 1e80")
    cfg = write_cfg(tmp_path, broken)
    with np.errstate(all="ignore"):
        code = cli.main(["run", "--config", str(cfg), "--arm", "translator",
                         "--out", str(tmp_path / "out")])
    assert code == 3


def test_model_changed_during_stage_2_fails_the_frozen_check_and_exits_1(
    tmp_path, monkeypatch, capsys
):
    """``run_arm_seed`` checksums each frozen model before stage 2 and after
    test evaluation; a model changed in between fails the arm's check, the
    aggregate's and the CLI run, and the report keeps the checksums taken
    when stage 1 ended."""
    at_freeze = {}
    train_stage1, train_stage2 = training.train_stage1, training.train_stage2

    def capturing_train_stage1(model, *args, **kwargs):
        report = train_stage1(model, *args, **kwargs)
        at_freeze[model.spec.task_id] = (model, model.params.checksum())
        return report

    def tampering_train_stage2(*args, **kwargs):
        result = train_stage2(*args, **kwargs)
        at_freeze["helper"][0].params.values[0] += 1.0
        return result

    monkeypatch.setattr(training, "train_stage1", capturing_train_stage1)
    monkeypatch.setattr(training, "train_stage2", tampering_train_stage2)
    cfg = write_cfg(tmp_path, TINY_CFG)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--arm", "translator", "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "frozen_check" and "translator" in record["message"]

    report = json.loads((out / "report_translator_seed0.json").read_text())
    assert report["frozen_check"]["ok"] is False
    assert report["frozen_check"]["checksums"] == {
        task_id: checksum for task_id, (_, checksum) in at_freeze.items()
    }
    assert at_freeze["helper"][0].params.checksum() != at_freeze["helper"][1]
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["arms"]["translator"]["frozen_check_ok"] is False


def test_cli_io_failure_is_exit_4(tmp_path):
    cfg = write_cfg(tmp_path, TINY_CFG)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = cli.main(["run", "--config", str(cfg), "--out", str(blocker)])
    assert code == 4


def test_cli_check_mode_runs_invariant_suite(capsys):
    assert cli.main(["run", "--check"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out
    assert "FAIL" not in out


def _fresh_python(code: str, env: dict) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this checkout."""
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_cli_import_pins_blas_to_one_thread():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    status = _fresh_python("import ettrans.cli; print(open('/proc/self/status').read())", env)
    threads = [line for line in status.splitlines() if line.startswith("Threads:")]
    assert threads == ["Threads:\t1"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_a_warm_process_keeps_its_heap_between_runs(tmp_path):
    """Once a process has run one seed, a run of the next seed reuses heap
    the first one freed: glibc neither trims it after each training step nor
    maps large extraction arrays afresh. Shrunk runs of the default and the
    dense-window configs made ~4.9k and ~16.6k minor page faults with glibc's
    default thresholds, and ~10 with the ones ``import ettrans`` sets."""
    configs = [CONFIG_DIR / "default.cfg", CONFIG_DIR.parent / "perfbench/configs/dense_windows.cfg"]
    code = (
        "import dataclasses, resource\n"
        "from pathlib import Path\n"
        "from ettrans import harness\n"
        f"out = Path({str(tmp_path)!r})\n"
        f"for i, path in enumerate({[str(c) for c in configs]!r}):\n"
        "    c = harness.load_config(path)\n"
        "    c = dataclasses.replace(\n"
        "        c, n_train=64, n_val=32, n_test=32,\n"
        "        stage1=dataclasses.replace(c.stage1, max_epochs=1),\n"
        "        stage2=dataclasses.replace(c.stage2, max_epochs=2),\n"
        "    )\n"
        "    harness.run_experiment(c, out / f'warm{i}', seeds=(0,))\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    harness.run_experiment(c, out / f'run{i}', seeds=(1,))\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = _fresh_python(code, dict(os.environ, ETT_NUM_WORKERS="1"))
    assert [int(n) < 500 for n in faults.split()] == [True, True], faults


def test_import_loads_neither_scipy_stats_nor_integrate_nor_process_pools():
    """The library is numpy only: its normal CDF is its own, so importing it
    loads no scipy, and the process pool (with ``multiprocessing``) is
    imported only when a run has 2+ workers."""
    code = "import sys, ettrans, ettrans.cli; print('\\n'.join(sorted(sys.modules)))"
    loaded = _fresh_python(code, os.environ).split()
    assert "ettrans.cli" in loaded
    assert [m for m in loaded if m.startswith(("scipy", "concurrent.futures.process"))] == []


def test_run_loads_no_scipy(tmp_path):
    """A lazy import would move scipy's cold start from import into the run."""
    cfg = write_cfg(tmp_path, TINY_CFG)
    code = (
        "import sys\n"
        "from ettrans import harness\n"
        f"harness.run_experiment(harness.load_config({str(cfg)!r}), {str(tmp_path / 'run')!r})\n"
        "print('\\n'.join(sorted(sys.modules)))"
    )
    env = dict(os.environ, ETT_NUM_WORKERS="1")
    loaded = _fresh_python(code, env).split()
    assert "ettrans.training" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []
