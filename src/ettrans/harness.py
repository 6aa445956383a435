"""Experiment harness: config files, feature cache, seeded end-to-end runs.

A run executes, per seed: generate data, then stage-1-train and freeze each
task model the arms need, and extract (through the cache) each needed task's
features for each split, once; then per arm: train the translator on those
features, evaluate, and emit one JSON report. Reports are byte-stable for
identical configs and seeds apart from wall-clock fields.
Arms:

* ``translator``        all task tokens, stage-1-trained frozen models
* ``primary_only``      identical translator restricted to primary tokens
* ``frozen_random_ablation``  all tokens, but frozen untrained models
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import math
import os
import re
import struct
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import nn_core as nn
from . import synth_tasks as st
from . import task_models as tm
from . import training as tg
from . import translator as tr
from .errors import CacheFormatError, CacheVersionError, ConfigError
from .temporal_align import FeatureSequence, FrameSeq, frame_count, stack_clips

ARMS = ("translator", "primary_only", "frozen_random_ablation")

CACHE_MAGIC = b"ETTF"
CACHE_VERSION = 2
_CACHE_DTYPE_F32 = 0

_TASK_ID_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TaskConfig:
    spec: st.TaskSpec
    stride_s: float
    feature_dim: int
    hidden: int


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    arms: tuple[str, ...]
    seeds: int
    n_train: int
    n_val: int
    n_test: int
    duration_s: float
    fps: float
    n_channels: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    norm_first: bool
    stage2: tg.TrainHyper
    stage1: tg.TrainHyper
    tasks: tuple[TaskConfig, ...]

    @property
    def primary(self) -> TaskConfig:
        return self.tasks[0]

    def task(self, task_id: str) -> TaskConfig:
        for t in self.tasks:
            if t.spec.task_id == task_id:
                return t
        raise KeyError(task_id)

    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.spec.task_id for t in self.tasks)

    def tokens_for(self, task_id: str) -> int:
        spec = self.task(task_id).spec
        return frame_count(spec.native_fps, self.duration_s)

    def translator_config(self, arm: str) -> tr.TranslatorConfig:
        ids = (
            (self.primary.spec.task_id,)
            if arm == "primary_only"
            else self.task_ids()
        )
        dims = tuple(
            (t, self.tokens_for(t), self.task(t).feature_dim) for t in ids
        )
        p = self.primary.spec
        return tr.TranslatorConfig(
            task_dims=dims,
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_ff=self.d_ff,
            primary_task_id=p.task_id,
            decoder_kind=p.kind,
            horizon=p.horizon,
            n_verbs=p.n_verbs,
            n_nouns=p.n_nouns,
            norm_first=self.norm_first,
        )

    def canonical_dict(self) -> dict:
        return {
            "experiment": {
                "name": self.name,
                "arms": list(self.arms),
                "seeds": self.seeds,
                "n_train": self.n_train,
                "n_val": self.n_val,
                "n_test": self.n_test,
                "duration_s": self.duration_s,
                "fps": self.fps,
                "n_channels": self.n_channels,
            },
            "translator": {
                "d_model": self.d_model,
                "n_layers": self.n_layers,
                "n_heads": self.n_heads,
                "d_ff": self.d_ff,
                "norm_first": self.norm_first,
            },
            "training": {
                "stage2": vars(self.stage2).copy(),
                "stage1": vars(self.stage1).copy(),
            },
            "tasks": [
                {
                    "task_id": t.spec.task_id,
                    "kind": t.spec.kind,
                    "channels": list(t.spec.channels),
                    "noise_sigma": t.spec.noise_sigma,
                    "corr_rho": t.spec.corr_rho,
                    "signal": t.spec.signal,
                    "native_fps": t.spec.native_fps,
                    "native_window_s": t.spec.native_window_s,
                    "horizon": t.spec.horizon,
                    "n_verbs": t.spec.n_verbs,
                    "n_nouns": t.spec.n_nouns,
                    "stride_s": t.stride_s,
                    "feature_dim": t.feature_dim,
                    "hidden": t.hidden,
                }
                for t in self.tasks
            ],
        }


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _parse_channels(text: str) -> tuple[int, ...]:
    channels: list[int] = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            channels.extend(range(int(lo), int(hi) + 1))
        else:
            channels.append(int(part))
    if not channels:
        raise ConfigError(f"empty channel list: {text!r}")
    return tuple(channels)


def _get(section, key, cast, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in section [{section.name}]")
    raw = section[key]
    try:
        if cast is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a valid {cast.__name__}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a plain-text experiment config."""
    parser = configparser.ConfigParser()
    parser.read_dict({"translator": {}, "training": {}})  # both sections are optional
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("config needs an [experiment] section")
    exp = parser["experiment"]

    arms = tuple(
        a.strip() for a in _get(exp, "arms", str, "translator,primary_only").split(",") if a.strip()
    )
    for arm in arms:
        if arm not in ARMS:
            raise ConfigError(f"unknown arm {arm!r}; choose from {ARMS}")

    trans, train = parser["translator"], parser["training"]

    def hyper(prefix: str, defaults: tg.TrainHyper) -> tg.TrainHyper:
        return tg.TrainHyper(
            lr=_get(train, f"{prefix}lr", float, defaults.lr),
            beta1=_get(train, f"{prefix}beta1", float, defaults.beta1),
            beta2=_get(train, f"{prefix}beta2", float, defaults.beta2),
            eps=_get(train, f"{prefix}eps", float, defaults.eps),
            batch_size=_get(train, f"{prefix}batch_size", int, defaults.batch_size),
            max_epochs=_get(train, f"{prefix}max_epochs", int, defaults.max_epochs),
            patience=_get(train, f"{prefix}patience", int, defaults.patience),
        )

    task_sections = [s for s in parser.sections() if s.startswith("task:")]
    if not task_sections:
        raise ConfigError("config needs at least one [task:<id>] section")
    tasks = []
    for name in task_sections:
        section = parser[name]
        task_id = name.split(":", 1)[1]
        if not _TASK_ID_RE.match(task_id):
            raise ConfigError(f"task id {task_id!r} must match {_TASK_ID_RE.pattern}")
        try:
            spec = st.TaskSpec(
                task_id=task_id,
                kind=_get(section, "kind", str),
                channels=_parse_channels(_get(section, "channels", str)),
                noise_sigma=_get(section, "noise_sigma", float),
                corr_rho=_get(section, "corr_rho", float),
                native_fps=_get(section, "native_fps", float),
                native_window_s=_get(section, "native_window_s", float),
                signal=_get(section, "signal", float, 0.5),
                horizon=_get(section, "horizon", int, 0),
                n_verbs=_get(section, "n_verbs", int, 0),
                n_nouns=_get(section, "n_nouns", int, 0),
            )
        except st.GenerationError as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc
        tasks.append(
            TaskConfig(
                spec=spec,
                stride_s=_get(section, "stride_s", float, spec.native_window_s),
                feature_dim=_get(section, "feature_dim", int, 8),
                hidden=_get(section, "hidden", int, 16),
            )
        )

    config = ExperimentConfig(
        name=_get(exp, "name", str, "experiment"),
        arms=arms,
        seeds=_get(exp, "seeds", int, 3),
        n_train=_get(exp, "n_train", int, 1024),
        n_val=_get(exp, "n_val", int, 256),
        n_test=_get(exp, "n_test", int, 512),
        duration_s=_get(exp, "duration_s", float),
        fps=_get(exp, "fps", float),
        n_channels=_get(exp, "n_channels", int),
        d_model=_get(trans, "d_model", int, 32),
        n_layers=_get(trans, "n_layers", int, 2),
        n_heads=_get(trans, "n_heads", int, 4),
        d_ff=_get(trans, "d_ff", int, 64),
        norm_first=_get(trans, "norm_first", bool, True),
        stage2=hyper("", tg.TrainHyper(max_epochs=40, patience=8)),
        stage1=hyper("stage1_", tg.TrainHyper()),
        tasks=tuple(tasks),
    )
    validate_config(config)
    return config


def validate_config(config: ExperimentConfig) -> None:
    try:
        st.validate_specs([t.spec for t in config.tasks], config.n_channels)
    except st.GenerationError as exc:
        raise ConfigError(str(exc)) from exc
    if min(config.d_model, config.n_layers, config.n_heads, config.d_ff) < 1:
        raise ConfigError("d_model, n_layers, n_heads and d_ff must all be >= 1")
    if config.d_model % config.n_heads != 0:
        raise ConfigError(
            f"d_model {config.d_model} not divisible by n_heads {config.n_heads}"
        )
    if min(config.seeds, config.n_train, config.n_val, config.n_test) < 1:
        raise ConfigError("seeds and split sizes must all be >= 1")
    for prefix, hyper in (("", config.stage2), ("stage1_", config.stage1)):
        if not (0 < hyper.lr < math.inf and min(hyper.batch_size, hyper.max_epochs) >= 1):
            raise ConfigError(f"need 0 < {prefix}lr < inf and {prefix}batch_size, {prefix}max_epochs >= 1")
        if hyper.patience < 0:
            raise ConfigError(f"need {prefix}patience >= 0, got {hyper.patience}")
        # Adam divides by 1 - beta**t and by sqrt(v_hat) + eps
        if not (0 <= hyper.beta1 < 1 and 0 <= hyper.beta2 < 1 and 0 < hyper.eps < math.inf):
            raise ConfigError(
                f"need 0 <= {prefix}beta1, {prefix}beta2 < 1 and 0 < {prefix}eps < inf"
            )
    for t in config.tasks:
        spec = t.spec
        if spec.native_fps > config.fps + 1e-9:
            raise ConfigError(
                f"task {spec.task_id!r} needs {spec.native_fps} fps but clips "
                f"are recorded at {config.fps} fps (no upsampling)"
            )
        if spec.native_window_s > config.duration_s:
            raise ConfigError(
                f"task {spec.task_id!r} window {spec.native_window_s} s exceeds "
                f"clip duration {config.duration_s} s"
            )
        # the window plan needs a positive stride, and one no longer than the
        # window unless a single window covers the clip
        if not t.stride_s > 0:
            raise ConfigError(f"task {spec.task_id!r} stride_s={t.stride_s} must be positive")
        if t.stride_s > spec.native_window_s and spec.native_window_s < config.duration_s:
            raise ConfigError(
                f"task {spec.task_id!r} stride_s={t.stride_s} exceeds its "
                f"{spec.native_window_s} s window and would leave frames uncovered"
            )
        for label, value in (("stride_s", t.stride_s), ("native_window_s", spec.native_window_s)):
            frames = value * spec.native_fps
            if abs(frames - round(frames)) > 1e-9:
                raise ConfigError(
                    f"task {spec.task_id!r} {label}={value} is not frame-aligned "
                    f"at {spec.native_fps} fps"
                )
        if t.feature_dim < 1 or t.hidden < 1:
            raise ConfigError(f"task {spec.task_id!r} needs positive widths")


# ---------------------------------------------------------------------------
# feature cache


def cache_store(path: str | Path, seq: FeatureSequence) -> None:
    """Write one feature sequence, of one clip or of a whole split, in the
    binary cache format (bit-exact), atomically.

    Layout (little-endian): magic, u16 version, u16 task id length, task id,
    u8 rank (2 or 3), one u32 per axis of the value array (a split's sample
    count first), u8 dtype tag, float32 values, float64 frame times.
    """
    task_bytes = seq.task_id.encode("utf-8")
    shape = seq.values.shape
    header = (
        CACHE_MAGIC
        + struct.pack("<HH", CACHE_VERSION, len(task_bytes))
        + task_bytes
        + struct.pack(f"<B{len(shape)}IB", len(shape), *shape, _CACHE_DTYPE_F32)
    )
    values = np.ascontiguousarray(seq.values, dtype="<f4").tobytes()
    times = np.ascontiguousarray(seq.frame_times_s, dtype="<f8").tobytes()
    # write aside, then rename: a concurrent reader sees no file or a whole one
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(header + values + times)
    os.replace(tmp, path)


def cache_file_size(task_id: str, *shape: int) -> int:
    """Bytes of the cache file of a value array of this shape."""
    header = 4 + 2 + 2 + len(task_id.encode("utf-8")) + 1 + 4 * len(shape) + 1
    return header + 4 * math.prod(shape) + 8 * shape[-2]


def cache_load(path: str | Path) -> FeatureSequence:
    """Read one cached feature sequence; rejects corrupt files outright."""
    blob = Path(path).read_bytes()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CacheFormatError(
                f"truncated cache file: needed {n} bytes for {what} at offset {offset}, "
                f"file has {len(blob)}"
            )
        chunk = blob[offset : offset + n]
        offset += n
        return chunk

    if take(4, "magic") != CACHE_MAGIC:
        raise CacheFormatError("bad magic bytes at offset 0; not a feature cache file")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != CACHE_VERSION:
        raise CacheVersionError(
            f"cache format version {version} unsupported; this build reads {CACHE_VERSION}"
        )
    (id_len,) = struct.unpack("<H", take(2, "task id length"))
    task_id = take(id_len, "task id").decode("utf-8")
    (rank,) = struct.unpack("<B", take(1, "rank"))
    if rank not in (2, 3):
        raise CacheFormatError(f"value rank {rank} at offset {offset - 1}; need 2 or 3")
    shape = struct.unpack(f"<{rank}I", take(4 * rank, "shape"))
    (dtype_tag,) = struct.unpack("<B", take(1, "dtype tag"))
    if dtype_tag != _CACHE_DTYPE_F32:
        raise CacheFormatError(f"unknown dtype tag {dtype_tag} at offset {offset - 1}")
    values = np.frombuffer(take(4 * math.prod(shape), "feature values"), dtype="<f4")
    times = np.frombuffer(take(8 * shape[-2], "timestamps"), dtype="<f8")
    if offset != len(blob):
        raise CacheFormatError(
            f"{len(blob) - offset} trailing bytes after offset {offset}"
        )
    try:
        return FeatureSequence(task_id, values.reshape(shape).copy(), times.copy())
    except Exception as exc:
        raise CacheFormatError(f"decoded content is not a valid feature sequence: {exc}") from exc


# ---------------------------------------------------------------------------
# run pipeline


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _build_models(
    config: ExperimentConfig, seed: int, task_ids: Sequence[str]
) -> dict[str, tm.TaskModel]:
    models = {}
    for idx, t in enumerate(config.tasks):
        spec = t.spec
        if spec.task_id not in task_ids:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DE1, idx]))
        models[spec.task_id] = tm.init_task_model(
            task_id=spec.task_id,
            kind=spec.kind,
            channels=spec.channels,
            feature_dim=t.feature_dim,
            native_fps=spec.native_fps,
            native_window_s=spec.native_window_s,
            rng=rng,
            hidden=t.hidden,
            horizon=spec.horizon,
            n_verbs=spec.n_verbs,
            n_nouns=spec.n_nouns,
        )
    return models


def _bayes_summary(config: ExperimentConfig) -> dict:
    primary = config.primary.spec
    if primary.kind != tm.KIND_BINARY:
        return {}
    aux = [t.spec for t in config.tasks[1:]]
    out = {
        "primary_only_ceiling": st.bayes_optimal_accuracy(primary, config.duration_s),
        "combined_ceiling": st.combined_bayes_accuracy(primary, aux, config.duration_s),
        "stage1_ceilings": {
            s.task_id: st.bayes_optimal_accuracy(s)
            for s in [primary, *aux]
            if s.kind == tm.KIND_BINARY
        },
    }
    return out


def _split_features(
    cache_dir: Path, model: tm.TaskModel, clips: FrameSeq, stride_s: float
) -> FeatureSequence:
    """One task's features over a stacked split, in one cache file keyed on
    everything they are computed from: the model's parameters and input
    geometry, the stride and the clips themselves (their count included)."""
    digest = hashlib.sha256(
        repr(
            (
                model.checksum(), model.channels, model.native_fps, model.native_window_s,
                stride_s, clips.fps, clips.duration_s, clips.values.shape, clips.values.dtype.str,
            )
        ).encode()
    )
    digest.update(np.ascontiguousarray(clips.values).tobytes())
    path = cache_dir / f"{model.task_id}_{digest.hexdigest()[:32]}.ettf"
    if path.exists():
        return cache_load(path)
    seq = tr.align_and_extract(clips, model, stride_s)
    cache_store(path, seq)
    return seq


def _stage2_samples(
    features: Mapping[str, FeatureSequence], labels: Sequence, task_ids: Sequence[str]
) -> list[tg.Stage2Sample]:
    """Per-sample feature dicts of a split: float32 views into its arrays."""
    return [
        (
            {t: FeatureSequence(t, features[t].values[i], features[t].frame_times_s)
             for t in task_ids},
            label,
        )
        for i, label in enumerate(labels)
    ]


def run_seed(
    config: ExperimentConfig, arms: Sequence[str], seed: int, out_dir: Path
) -> dict[str, dict]:
    """Run every arm of one seed and return ``{arm: report}``.

    The datasets, the frozen task models and their features depend only on
    (config, seed), so they are made here once and shared by the arms: a task
    model is stage-1-trained if any trained arm reads it, untrained models are
    built only for ``frozen_random_ablation``, and each model's features are
    extracted once per split.
    """
    specs = [t.spec for t in config.tasks]
    datasets = {
        split: st.generate(
            specs,
            n,
            seed,
            split,
            duration_s=config.duration_s,
            fps=config.fps,
            n_channels=config.n_channels,
        )
        for split, n in (
            ("train", config.n_train),
            ("val", config.n_val),
            ("test", config.n_test),
        )
    }

    needed = {
        task_id
        for arm in arms
        if arm != "frozen_random_ablation"
        for task_id in config.translator_config(arm).task_ids
    }
    trained = _build_models(config, seed, needed)
    stage1_reports: dict[str, dict] = {}
    for idx, t in enumerate(config.tasks):
        spec = t.spec
        if spec.task_id not in trained:
            continue
        geo = {"duration_s": spec.native_window_s, "fps": spec.native_fps}
        ds_seed = _derived_seed(seed, 0x57A1, idx)
        s1_train = st.generate(
            specs, config.n_train, ds_seed, "train", n_channels=config.n_channels, **geo
        )
        s1_val = st.generate(
            specs, config.n_val, ds_seed, "val", n_channels=config.n_channels, **geo
        )
        report = tg.train_stage1(trained[spec.task_id], s1_train, s1_val, config.stage1, seed)
        stage1_reports[spec.task_id] = {
            "metric_name": report.metric_name,
            "best_val_metric": report.best_val_metric,
            "best_epoch": report.best_epoch,
            "stopped_epoch": report.stopped_epoch,
            "wall_clock_s": report.wall_clock_s,
        }
        tm.freeze(trained[spec.task_id])

    untrained: dict[str, tm.TaskModel] = {}
    if "frozen_random_ablation" in arms:
        untrained = _build_models(config, seed, config.task_ids())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for model in untrained.values():
                tm.freeze(model)

    cache_dir = Path(out_dir) / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    clips = {split: stack_clips(ds.clips) for split, ds in datasets.items()}

    def extract(models: Mapping[str, tm.TaskModel]) -> dict[str, dict[str, FeatureSequence]]:
        return {
            split: {
                t: _split_features(cache_dir, model, split_clips, config.task(t).stride_s)
                for t, model in models.items()
            }
            for split, split_clips in clips.items()
        }

    trained_features, untrained_features = extract(trained), extract(untrained)
    reports = {}
    for arm in arms:
        if arm == "frozen_random_ablation":
            shared = (untrained, untrained_features, {})
        else:
            shared = (trained, trained_features, stage1_reports)
        reports[arm] = run_arm_seed(config, arm, seed, datasets, *shared)
    return reports


def run_arm_seed(
    config: ExperimentConfig,
    arm: str,
    seed: int,
    datasets: Mapping[str, st.SyntheticDataset],
    models: Mapping[str, tm.TaskModel],
    features: Mapping[str, Mapping[str, FeatureSequence]],
    stage1_reports: Mapping[str, dict],
) -> dict:
    """Train and evaluate one arm's translator on the seed's datasets, frozen
    task models and their extracted features; return the arm's report."""
    t_start = time.perf_counter()
    tconfig = config.translator_config(arm)
    primary_id = config.primary.spec.task_id
    split_samples = {
        split: _stage2_samples(features[split], ds.task_labels(primary_id), tconfig.task_ids)
        for split, ds in datasets.items()
    }

    params, train_report, checksums_at_freeze = tg.train_stage2(
        split_samples["train"],
        split_samples["val"],
        tconfig,
        models,
        config.stage2,
        seed,
    )
    test_metrics = tg.evaluate_stage2(split_samples["test"], params, tconfig)

    checksums_after = {t: models[t].checksum() for t in tconfig.task_ids}
    return {
        "arm": arm,
        "seed": seed,
        "config_hash": config_hash(config),
        "name": config.name,
        "split": "test",
        "n_samples": config.n_test,
        "metrics": test_metrics,
        "bayes": _bayes_summary(config),
        "stage1": {t: r for t, r in stage1_reports.items() if t in tconfig.task_ids},
        "frozen_check": {
            "ok": checksums_after == checksums_at_freeze,
            "checksums": checksums_at_freeze,
        },
        "train": train_report.to_dict(),
        "dataset": {split: ds.summary() for split, ds in datasets.items()},
        "wall_clock_s": time.perf_counter() - t_start,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path,
    arms: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
) -> dict:
    """Run all requested arms for each seed (one job per seed) and write
    reports plus an aggregate with mean and stddev across seeds per arm."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    use_arms = tuple(arms) if arms else config.arms
    for arm in use_arms:
        if arm not in ARMS:
            raise ConfigError(f"unknown arm {arm!r}")
    use_seeds = tuple(seeds) if seeds is not None else tuple(range(config.seeds))

    job = functools.partial(run_seed, config, use_arms, out_dir=out_dir)
    workers = int(os.environ.get("ETT_NUM_WORKERS", "1"))
    if workers > 1 and len(use_seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, use_seeds))
    else:
        results = [job(seed) for seed in use_seeds]

    by_arm: dict[str, list[dict]] = {arm: [] for arm in use_arms}
    for seed, reports in zip(use_seeds, results):
        for arm, report in reports.items():
            _write_json(out_dir / f"report_{arm}_seed{seed}.json", report)
            by_arm[arm].append(report)

    aggregate: dict = {
        "name": config.name,
        "config_hash": config_hash(config),
        "seeds": list(use_seeds),
        "arms": {},
    }
    for arm, reports in by_arm.items():
        reports = sorted(reports, key=lambda r: r["seed"])
        metric_names = sorted(reports[0]["metrics"])
        stats = {}
        for metric in metric_names:
            values = [r["metrics"][metric] for r in reports]
            mean = math.fsum(values) / len(values)
            if len(values) > 1:
                var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
            else:
                var = 0.0
            stats[metric] = {"mean": mean, "stddev": math.sqrt(var), "values": values}
        aggregate["arms"][arm] = {
            "metrics": stats,
            "frozen_check_ok": all(r["frozen_check"]["ok"] for r in reports),
        }
        if reports[0]["bayes"]:
            aggregate["bayes"] = reports[0]["bayes"]
    _write_json(out_dir / "aggregate.json", aggregate)
    return aggregate


# ---------------------------------------------------------------------------
# invariant check suite (`run --check`)


def check_suite(n_seeds: int = 3) -> list[tuple[str, bool, str]]:
    """Quick self-verification: gradient checks and metric oracle spot checks."""
    results: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        params = nn.ParamSet()
        params.add("x", rng.normal(size=(4, 6)))
        params.add("w", rng.normal(size=(6, 3)))
        params.add("b", rng.normal(size=3))
        err = nn.grad_check(
            lambda p: nn.sum_all(nn.gelu(nn.linear(p["x"], p["w"], p["b"]))), params
        )
        record(f"grad_linear_gelu_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        enc_params = nn.ParamSet()
        # generic-scale point: the production init (std 0.02) leaves some
        # attention partials below the central-difference noise floor
        for name, arr in nn.init_encoder_layer_arrays(rng, 8, 16).items():
            enc_params.add(name, rng.normal(0.0, 0.35, size=arr.shape))
        enc_params.add("tokens", rng.normal(size=(5, 8)))

        def enc_loss(p):
            layer = nn.EncoderLayerParams.from_tensors(p, "", 2)
            return nn.mean_all(nn.encoder_layer(p["tokens"], layer))

        err = nn.grad_check(enc_loss, enc_params)
        record(f"grad_encoder_layer_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        # three 4-frame windows stacked as in extraction and stage 1, through
        # trunk, binary head and row-batched loss, at a generic point
        model = tm.init_task_model("check", tm.KIND_BINARY, (0, 1), 3, 2.0, 2.0, rng, hidden=5)
        stacked_params = nn.ParamSet()
        for name, param in model.params.items():
            stacked_params.add(name, rng.normal(0.0, 0.5, size=param.value.shape))
        stacked_params.add("x", rng.normal(size=(3 * 4, 2)))

        def stacked_loss(p):
            output = tm.head_graph(tm.trunk_graph(p["x"], p, 3), p, tm.KIND_BINARY, n_seqs=3)
            return tg.batch_loss(output, [1.0, 0.0, 1.0], tm.KIND_BINARY)

        err = nn.grad_check(stacked_loss, stacked_params)
        record(f"grad_stacked_trunk_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        # a 3-sample translator graph as in stage 2: per-sample attention,
        # the localization primary span cut per sample and the row-batched
        # loss, at a generic point
        tconfig = tr.TranslatorConfig(
            task_dims=(("p", 3, 2), ("a", 2, 3)), d_model=4, n_layers=1, n_heads=2,
            d_ff=8, primary_task_id="p", decoder_kind=tm.KIND_LOCALIZATION,
        )
        tparams = nn.ParamSet()
        for name, param in tr.init_translator_params(tconfig, rng).items():
            tparams.add(name, rng.normal(0.0, 0.5, size=param.value.shape))
        group = [
            {
                t: FeatureSequence(t, rng.normal(size=(t_k, d_k)), np.arange(t_k) * 0.5)
                for t, t_k, d_k in tconfig.task_dims
            }
            for _ in range(3)
        ]

        def translator_loss(p):
            output = tr.translate(group, p, tconfig)
            return tg.batch_loss(output, [0, 2, 1], tm.KIND_LOCALIZATION)

        err = nn.grad_check(translator_loss, tparams)
        record(f"grad_stacked_translator_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

    ap = metrics_mod.average_precision([0.9, 0.8, 0.1], [1, 0, 1])
    record("metric_ap_example", abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12, f"ap={ap}")
    ed = metrics_mod.edit_distance_at_z([[(0, 0), (1, 1), (2, 2)]], [(0, 0), (2, 2), (2, 2)])
    record("metric_ed_example", ed.action == 1.0 / 3.0, f"ed={ed.action}")
    rng = np.random.default_rng(0)
    pred_t = rng.uniform(0, 4, size=100)
    true_t = rng.uniform(0, 4, size=100)
    got = metrics_mod.mean_localization_error(pred_t.tolist(), true_t.tolist())
    want = float(np.mean(np.abs(pred_t - true_t)))
    record("metric_loc_error", abs(got - want) < 1e-12, f"err={got}")
    return results
