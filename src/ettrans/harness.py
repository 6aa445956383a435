"""Experiment harness: config files, feature cache, seeded end-to-end runs.

A config is one ``ExperimentConfig`` and each config section one record, read
by its field types: ``[experiment]`` the config's own fields, ``[translator]``
a ``TranslatorShape``, ``[training]`` the ``TrainHyper`` of stage 2 and, keys
prefixed ``stage1_``, of stage 1, and each ``[task:<id>]`` a ``TaskSpec``, the
primary first. Making a config checks that a run over its tasks can go through.

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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from . import metrics as metrics_mod
from . import nn_core as nn
from . import synth_tasks as st
from . import task_models as tm
from . import training as tg
from . import translator as tr
from .errors import AlignmentError, CacheFormatError, CacheVersionError, ConfigError
from .temporal_align import FeatureSequence, FrameSeq, check_downsampling, frame_count, plan_windows

ARMS = ("translator", "primary_only", "frozen_random_ablation")

CACHE_MAGIC = b"ETTF"
CACHE_VERSION = 2
_CACHE_DTYPE_F32 = 0

_SECTION_RE = re.compile(r"experiment|translator|training|task:[A-Za-z0-9_\-]+")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TranslatorShape:
    """The ``[translator]`` section: the encoder every arm's translator uses."""

    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 64
    norm_first: bool = True


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment. Making one, by ``load_config`` or by
    ``dataclasses.replace`` of another, raises ``ConfigError`` unless a run
    over its arms and tasks can go through: each geometry rule is asked of
    the code that the run itself calls."""

    name: str = "experiment"
    arms: tuple[str, ...] = ("translator", "primary_only")
    seeds: int = 3
    n_train: int = 1024
    n_val: int = 256
    n_test: int = 512
    duration_s: float
    fps: float
    n_channels: int
    translator: TranslatorShape = TranslatorShape()
    stage2: tg.TrainHyper = tg.TrainHyper(max_epochs=40, patience=8)
    stage1: tg.TrainHyper = tg.TrainHyper()
    tasks: tuple[st.TaskSpec, ...]

    def __post_init__(self):
        _check_arms(self.arms)
        try:
            st.validate_specs(self.tasks, self.n_channels)
        except st.GenerationError as exc:
            raise ConfigError(str(exc)) from exc
        if min(self.seeds, self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("seeds and split sizes must all be >= 1")
        for prefix, hyper in (("", self.stage2), ("stage1_", self.stage1)):
            if not (hyper.lr > 0 and min(hyper.batch_size, hyper.max_epochs) >= 1):
                raise ConfigError(
                    f"need {prefix}lr > 0 and {prefix}batch_size, {prefix}max_epochs >= 1"
                )
            if hyper.patience < 0:
                raise ConfigError(f"need {prefix}patience >= 0, got {hyper.patience}")
            # Adam divides by 1 - beta**t and by sqrt(v_hat) + eps
            if not (0 <= hyper.beta1 < 1 and 0 <= hyper.beta2 < 1 and hyper.eps > 0):
                raise ConfigError(f"need 0 <= {prefix}beta1, {prefix}beta2 < 1 and {prefix}eps > 0")
        for spec in self.tasks:
            try:
                check_downsampling(self.fps, spec.native_fps)
                plan_windows(self.duration_s, spec.native_window_s, spec.stride_s, spec.native_fps)
                # this task's stage-1 data draws every task's labels on its native
                # window; the clips hold at least as many frames
                st.check_frame_count(self.tasks, frame_count(spec.native_fps, spec.native_window_s))
            except (AlignmentError, st.GenerationError) as exc:
                raise ConfigError(f"task {spec.task_id!r}: {exc}") from exc
        try:
            self.translator_config("translator")
        except ValueError as exc:
            raise ConfigError(f"[translator]: {exc}") from exc

    @property
    def primary(self) -> st.TaskSpec:
        return self.tasks[0]

    def task_ids(self) -> tuple[str, ...]:
        return tuple(spec.task_id for spec in self.tasks)

    def translator_config(self, arm: str) -> tr.TranslatorConfig:
        specs = self.tasks[:1] if arm == "primary_only" else self.tasks
        dims = tuple(
            (s.task_id, frame_count(s.native_fps, self.duration_s), s.feature_dim) for s in specs
        )
        p = self.primary
        return tr.TranslatorConfig(
            task_dims=dims,
            decoder_kind=p.kind,
            horizon=p.horizon,
            n_verbs=p.n_verbs,
            n_nouns=p.n_nouns,
            **asdict(self.translator),
        )

    def canonical_dict(self) -> dict:
        """The config as nested plain data, the input of ``config_hash``."""
        plain = asdict(self)
        return {
            "translator": plain.pop("translator"),
            "training": {k: plain.pop(k) for k in ("stage2", "stage1")},
            "tasks": plain.pop("tasks"),
            "experiment": plain,
        }


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _parse_channels(text: str) -> tuple[int, ...]:
    """Comma-separated channel indices and ascending ``lo-hi`` ranges."""
    channels: list[int] = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError as exc:
            raise ConfigError(f"channel {part!r} in {text!r} is not an integer or a range") from exc
        if last < first:
            raise ConfigError(f"channel range {part!r} in {text!r} runs backwards")
        channels.extend(range(first, last + 1))
    if not channels:
        raise ConfigError(f"empty channel list: {text!r}")
    return tuple(channels)


def _check_arms(arms: Sequence[str]) -> None:
    if not arms:
        raise ConfigError(f"no arms to run; choose from {ARMS}")
    for arm in arms:
        if arm not in ARMS:
            raise ConfigError(f"unknown arm {arm!r}; choose from {ARMS}")
    if len(set(arms)) != len(arms):
        raise ConfigError(f"arms repeat: {list(arms)}")


_CASTS = {int: int, float: float, float | None: float, str: str, bool: bool}


def _cast(kind, section, key):
    """The value of ``key`` in config ``section`` as a ``kind``."""
    raw = section[key]
    if kind == tuple[int, ...]:
        return _parse_channels(raw)
    if kind == tuple[str, ...]:
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    cast = _CASTS[kind]
    try:
        value = section.getboolean(key) if cast is bool else cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a valid {cast.__name__}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a finite number")
    return value


def _read(record, section, prefix="", /, **given):
    """Make ``record``, a class or an instance that holds the defaults, from
    config ``section``: each field not ``given`` from the key ``prefix +
    name``, cast by the field's type and taken out of the section. A field
    with no default must be set. A read with no prefix is its section's
    last, so a key it leaves is unknown."""
    cls = record if isinstance(record, type) else type(record)
    hints = get_type_hints(cls)
    values = {}
    for field in fields(cls):
        key = prefix + field.name
        if field.name in given:
            continue
        if key in section:
            values[field.name] = _cast(hints[field.name], section, key)
            del section[key]
        elif record is cls and field.default is MISSING:
            raise ConfigError(f"missing key {key!r} in section [{section.name}]")
    if not prefix and len(section):
        raise ConfigError(f"unknown keys in [{section.name}]: {', '.join(sorted(section))}")
    if record is cls:
        return cls(**given, **values)
    return replace(record, **values)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a plain-text experiment config."""
    # values are read literally (a ``%`` is text, not an interpolation), and no
    # header can name the default section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    # a section left out reads as empty: [experiment] then misses its required keys
    parser.read_dict({"experiment": {}, "translator": {}, "training": {}})
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"config file not found or unreadable: {path}")
    for name in parser.sections():
        if not _SECTION_RE.fullmatch(name):
            raise ConfigError(
                f"unknown section [{name}]; use [experiment], [translator], [training] or "
                "[task:<id>], an <id> of letters, digits, _ and -"
            )
    tasks = []
    for name in [s for s in parser.sections() if s.startswith("task:")]:
        try:
            tasks.append(_read(st.TaskSpec, parser[name], task_id=name.removeprefix("task:")))
        except st.GenerationError as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc

    return _read(
        ExperimentConfig,
        parser["experiment"],
        translator=_read(TranslatorShape, parser["translator"]),
        # stage 1 first: stage 2's unprefixed read takes the rest of [training]
        stage1=_read(tg.TrainHyper(), parser["training"], "stage1_"),
        stage2=_read(ExperimentConfig.stage2, parser["training"]),
        tasks=tuple(tasks),
    )


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
    try:
        tmp.write_bytes(header + values + times)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    try:
        task_id = take(id_len, "task id").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"task id at offset 8 is not UTF-8: {exc}") from exc
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
    return {
        spec.task_id: tm.init_task_model(
            spec, np.random.default_rng(np.random.SeedSequence([seed, 0x0DE1, idx]))
        )
        for idx, spec in enumerate(config.tasks)
        if spec.task_id in task_ids
    }


def _bayes_summary(config: ExperimentConfig) -> dict:
    primary = config.primary
    if primary.kind != tm.KIND_BINARY:
        return {}
    aux = config.tasks[1:]
    return {
        "primary_only_ceiling": st.bayes_optimal_accuracy(primary, config.duration_s),
        "combined_ceiling": st.combined_bayes_accuracy(primary, aux, config.duration_s),
        "stage1_ceilings": {
            s.task_id: st.bayes_optimal_accuracy(s)
            for s in [primary, *aux]
            if s.kind == tm.KIND_BINARY
        },
    }


def _split_features(cache_dir: Path, model: tm.TaskModel, clips: FrameSeq) -> FeatureSequence:
    """One task's features over a split, at its spec's stride, in one cache
    file keyed on everything they are computed from: the model's parameters
    and input geometry, the stride and the clips themselves (their count
    included).
    A file that fails to load, or that holds another task or sample count,
    is a miss: the split is re-extracted and the file rewritten."""
    spec = model.spec
    digest = hashlib.sha256(
        repr(
            (
                model.params.checksum(), spec.channels, spec.native_fps, spec.native_window_s,
                spec.stride_s, clips.fps, clips.duration_s, clips.values.shape,
                clips.values.dtype.str,
            )
        ).encode()
    )
    digest.update(np.ascontiguousarray(clips.values).tobytes())
    path = cache_dir / f"{spec.task_id}_{digest.hexdigest()[:32]}.ettf"
    if path.exists():
        try:
            seq = cache_load(path)
        except CacheFormatError:
            pass  # a damaged file is a miss
        else:
            if seq.task_id == spec.task_id and len(seq.values) == len(clips.values):
                return seq
    seq = tr.align_and_extract(clips, model)
    cache_store(path, seq)
    return seq


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
    datasets = {
        split: st.generate(
            config.tasks,
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
    for idx, spec in enumerate(config.tasks):
        if spec.task_id not in trained:
            continue
        geo = {"duration_s": spec.native_window_s, "fps": spec.native_fps}
        ds_seed = _derived_seed(seed, 0x57A1, idx)
        s1_train = st.generate(
            config.tasks, config.n_train, ds_seed, "train", n_channels=config.n_channels, **geo
        )
        s1_val = st.generate(
            config.tasks, config.n_val, ds_seed, "val", n_channels=config.n_channels, **geo
        )
        report = tg.train_stage1(trained[spec.task_id], s1_train, s1_val, config.stage1, seed)
        stage1_reports[spec.task_id] = {
            "metric_name": report.metric_name,
            "best_val_metric": report.best_val_metric,
            "best_epoch": report.best_epoch,
            "stopped_epoch": report.stopped_epoch,
            "wall_clock_s": report.wall_clock_s,
        }
        trained[spec.task_id].params.frozen = True

    untrained: dict[str, tm.TaskModel] = {}
    if "frozen_random_ablation" in arms:
        untrained = _build_models(config, seed, config.task_ids())
        for model in untrained.values():
            model.params.frozen = True

    cache_dir = Path(out_dir) / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)

    def extract(models: Mapping[str, tm.TaskModel]) -> dict[str, dict[str, FeatureSequence]]:
        return {
            split: {
                t: _split_features(cache_dir, model, ds.clips)
                for t, model in models.items()
            }
            for split, ds in datasets.items()
        }

    trained_features, untrained_features = extract(trained), extract(untrained)
    bayes = _bayes_summary(config)
    reports = {}
    for arm in arms:
        if arm == "frozen_random_ablation":
            shared = (untrained, untrained_features, {})
        else:
            shared = (trained, trained_features, stage1_reports)
        reports[arm] = run_arm_seed(config, arm, seed, datasets, *shared, bayes)
    return reports


def run_arm_seed(
    config: ExperimentConfig,
    arm: str,
    seed: int,
    datasets: Mapping[str, st.SyntheticDataset],
    models: Mapping[str, tm.TaskModel],
    features: Mapping[str, Mapping[str, FeatureSequence]],
    stage1_reports: Mapping[str, dict],
    bayes: dict,
) -> dict:
    """Train and evaluate one arm's translator on the seed's datasets, frozen
    task models and their extracted features; return the arm's report, which
    carries the config's Bayes summary ``bayes`` (``_bayes_summary``).

    Only this function checksums the frozen models: each one the arm reads
    before stage 2 and again after test evaluation; ``frozen_check.ok`` is
    false if any changed."""
    t_start = time.perf_counter()
    tconfig = config.translator_config(arm)
    primary_id = config.primary.task_id
    splits = {
        split: (features[split], ds.labels[primary_id]) for split, ds in datasets.items()
    }

    checksums_before = {t: models[t].params.checksum() for t in tconfig.task_ids}
    params, train_report = tg.train_stage2(
        splits["train"], splits["val"], tconfig, config.stage2, seed
    )
    test_metrics = tg.evaluate_stage2(splits["test"], params, tconfig)
    checksums_after = {t: models[t].params.checksum() for t in tconfig.task_ids}
    return {
        "arm": arm,
        "seed": seed,
        "config_hash": config_hash(config),
        "name": config.name,
        "split": "test",
        "n_samples": config.n_test,
        "metrics": test_metrics,
        "bayes": bayes,
        "stage1": {t: r for t, r in stage1_reports.items() if t in tconfig.task_ids},
        "frozen_check": {
            "ok": checksums_after == checksums_before,
            "checksums": checksums_before,
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
    reports plus an aggregate with mean and stddev across seeds per arm.
    An empty, repeated or unknown arm list, an empty, negative or repeated
    seed list and an ``ETT_NUM_WORKERS`` that is not a positive integer
    raise ``ConfigError`` before the output directory is created."""
    use_arms = tuple(arms) if arms is not None else config.arms
    _check_arms(use_arms)
    use_seeds = tuple(seeds) if seeds is not None else tuple(range(config.seeds))
    if not use_seeds:
        raise ConfigError("no seeds to run; need at least one")
    if min(use_seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {list(use_seeds)}")
    if len(set(use_seeds)) != len(use_seeds):
        raise ConfigError(f"seeds must not repeat, got {list(use_seeds)}")
    workers_env = os.environ.get("ETT_NUM_WORKERS", "1")
    if not workers_env.strip().isdecimal() or int(workers_env) < 1:
        raise ConfigError(f"ETT_NUM_WORKERS must be an integer >= 1, got {workers_env!r}")
    workers = int(workers_env)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    job = functools.partial(run_seed, config, use_arms, out_dir=out_dir)
    if workers > 1 and len(use_seeds) > 1:
        # imported here: it loads multiprocessing, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor

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
        # a binary primary reports ``map`` only for test labels of both classes
        metric_names = sorted(set.intersection(*(set(r["metrics"]) for r in reports)))
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
            return nn.mean_all(nn.encoder_layer(p["tokens"], p, "", 2))

        err = nn.grad_check(enc_loss, enc_params)
        record(f"grad_encoder_layer_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        def post_norm_loss(p):
            return nn.mean_all(nn.encoder_layer(p["tokens"], p, "", 2, norm_first=False))

        err = nn.grad_check(post_norm_loss, enc_params)
        record(f"grad_encoder_layer_post_norm_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        # a batch of three 3-token sequences in one layer, each attending
        # only to itself, read out with unequal weights; drawn from their own
        # generator so the checks below keep their points
        stack_rng = np.random.default_rng([seed, 3])
        stacked_enc = nn.ParamSet()
        for name in enc_params.names():
            if name != "tokens":
                stacked_enc.add(name, enc_params[name].value)
        stacked_enc.add("tokens", stack_rng.normal(size=(3, 3, 8)))
        readout = stack_rng.normal(size=(3, 3, 8))

        def stacked_enc_loss(p):
            return nn.sum_all(nn.mul(nn.encoder_layer(p["tokens"], p, "", 2), readout))

        err = nn.grad_check(stacked_enc_loss, stacked_enc)
        record(f"grad_encoder_layer_stacked_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        # a batch of three 4-frame windows as in extraction and stage 1,
        # through trunk, binary head and row-batched loss, at a generic point
        spec = st.TaskSpec(
            task_id="check", kind=tm.KIND_BINARY, channels=(0, 1), noise_sigma=0.0, corr_rho=1.0,
            native_fps=2.0, native_window_s=2.0, feature_dim=3, hidden=5,
        )
        model = tm.init_task_model(spec, rng)
        stacked_params = nn.ParamSet()
        for name, param in model.params.items():
            stacked_params.add(name, rng.normal(0.0, 0.5, size=param.value.shape))
        stacked_params.add("x", rng.normal(size=(3, 4, 2)))

        def stacked_loss(p):
            output = tm.head_graph(tm.trunk_graph(p["x"], p), p, tm.KIND_BINARY)
            return tm.loss(tm.KIND_BINARY, output, [1.0, 0.0, 1.0], None)

        err = nn.grad_check(stacked_loss, stacked_params)
        record(f"grad_stacked_trunk_seed{seed}", err < 1e-4, f"rel_err={err:.2e}")

        # a 3-sample translator graph as in stage 2: per-sample attention,
        # the localization primary span cut per sample and the row-batched
        # loss, at a generic point
        tconfig = tr.TranslatorConfig(
            task_dims=(("p", 3, 2), ("a", 2, 3)), d_model=4, n_layers=1, n_heads=2,
            d_ff=8, decoder_kind=tm.KIND_LOCALIZATION,
        )
        tparams = nn.ParamSet()
        for name, param in tr.init_translator_params(tconfig, rng).items():
            tparams.add(name, rng.normal(0.0, 0.5, size=param.value.shape))
        draws = [
            {t: rng.normal(size=(t_k, d_k)) for t, t_k, d_k in tconfig.task_dims}
            for _ in range(3)
        ]
        group = {t: np.stack([d[t] for d in draws]) for t, _, _ in tconfig.task_dims}

        def translator_loss(p):
            output = tr.translate(group, p, tconfig)
            return tm.loss(tm.KIND_LOCALIZATION, output, [0, 2, 1], np.arange(3.0))

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
