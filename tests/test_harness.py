import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

from ettrans import cli, harness, synth_tasks, training
from ettrans.errors import CacheFormatError, CacheVersionError, ConfigError
from ettrans.temporal_align import FeatureSequence

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
    assert config.primary.spec.task_id == "primary"
    assert config.primary.spec.corr_rho == 1.0
    assert [t.spec.task_id for t in config.tasks] == ["primary", "aux_binary", "aux_loc"]
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
    ],
)
def test_invalid_configs_rejected(tmp_path, mutation):
    old, new = mutation
    broken = TINY_CFG.replace(old, new)
    with pytest.raises(ConfigError):
        harness.load_config(write_cfg(tmp_path, broken))


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        harness.load_config(tmp_path / "absent.cfg")


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

    class RecordingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
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
        stage1_tasks.append(model.task_id)
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


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_exits_zero(tiny_config, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--arm", "translator", "--out", str(out)])
    assert code == 0
    assert (out / "aggregate.json").exists()


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
    ],
    ids=["n_heads", "n_layers", "batch_size", "max_epochs", "stage1_max_epochs", "lr",
         "stage1_batch_size", "beta1", "beta2", "beta1_negative", "eps", "eps_nan",
         "stage1_beta1", "stage1_beta2", "stage1_eps", "stride_zero", "stride_over_window",
         "patience", "stage1_patience"],
)
def test_cli_rejects_degenerate_hyperparameters_before_running(tmp_path, capsys, old, new):
    assert TINY_CFG.count(old) == 1
    cfg = write_cfg(tmp_path, TINY_CFG.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not out.exists()


def test_cli_config_required_without_check():
    assert cli.main(["run"]) == 2


def test_cli_divergence_is_exit_3(tmp_path):
    broken = TINY_CFG.replace("lr = 0.003", "lr = 1e80")
    cfg = write_cfg(tmp_path, broken)
    with np.errstate(all="ignore"):
        code = cli.main(["run", "--config", str(cfg), "--arm", "translator",
                         "--out", str(tmp_path / "out")])
    assert code == 3


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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_cli_import_pins_blas_to_one_thread():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    code = "import ettrans.cli; print(open('/proc/self/status').read())"
    status = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    threads = [line for line in status.splitlines() if line.startswith("Threads:")]
    assert threads == ["Threads:\t1"]
