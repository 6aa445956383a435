"""Seeded synthetic multi-task datasets with controlled cross-task structure.

Every sample is a multichannel clip. Each task owns a disjoint channel group
and embeds its own latent there as a class-conditional mean pattern plus
Gaussian noise, so how much one task can help another is a design choice, not
an accident:

* binary tasks share information with the primary through a correlation knob
  ``corr_rho``: the auxiliary latent copies the primary latent with
  probability rho and is redrawn uniformly otherwise (rho = 0 independent,
  rho = 1 identical, Pearson correlation = rho);
* localization tasks hide a uniform change-point frame where channel means
  flip sign;
* sequence tasks embed a hidden (verb, noun) state whose deterministic chain
  provides the future steps to anticipate.

Closed-form Bayes ceilings for the binary tasks calibrate how much headroom
an experiment has before anything is trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GenerationError
from .nn_core import _normal_cdf
from .task_models import KIND_BINARY, KIND_LOCALIZATION, KIND_SEQUENCE, TASK_KINDS
from .temporal_align import FrameSeq, frame_count

# draws and seed of the Monte Carlo combined ceiling (two or more informative
# auxiliaries)
MC_SAMPLES = 2_000_000
MC_SEED = 7
EXACT_SEPARATION = 9.0  # Phi(-9) ~ 1e-19: an auxiliary this separated is read without error

_SPLIT_CODES = {"train": 0, "val": 1, "test": 2}
_STRUCTURE_STREAM = 0xC0DE


@dataclass(frozen=True)
class TaskSpec:
    """One task, as one ``[task:<id>]`` config section describes it: the
    synthetic label rule, channel group, noise and correlation of its data;
    its model's native geometry and widths (``feature_dim``, ``hidden``); and
    the window stride its features are extracted at, one native window
    unless given. ``dataclasses.replace`` carries the resolved stride over,
    so a replace that changes the window passes the stride too."""

    task_id: str
    kind: str
    channels: tuple[int, ...]
    noise_sigma: float
    corr_rho: float
    native_fps: float
    native_window_s: float
    signal: float = 0.5
    horizon: int = 0
    n_verbs: int = 0
    n_nouns: int = 0
    stride_s: float | None = None
    feature_dim: int = 8
    hidden: int = 16

    def __post_init__(self):
        if self.stride_s is None:
            object.__setattr__(self, "stride_s", self.native_window_s)
        if self.kind not in TASK_KINDS:
            raise GenerationError(f"unknown task kind: {self.kind!r}")
        if not self.channels:
            raise GenerationError(f"task {self.task_id!r} has an empty channel group")
        if len(set(self.channels)) != len(self.channels):
            raise GenerationError(f"task {self.task_id!r} repeats channels")
        if self.noise_sigma < 0:
            raise GenerationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.signal < 0:
            raise GenerationError(f"signal must be >= 0, got {self.signal}")
        if not 0.0 <= self.corr_rho <= 1.0:
            raise GenerationError(f"corr_rho must lie in [0, 1], got {self.corr_rho}")
        if self.feature_dim < 1 or self.hidden < 1:
            raise GenerationError(f"task {self.task_id!r} needs positive widths")
        if self.kind == KIND_SEQUENCE:
            if self.horizon < 1 or self.n_verbs < 1 or self.n_nouns < 1:
                raise GenerationError(
                    f"sequence task {self.task_id!r} needs horizon, n_verbs, n_nouns >= 1"
                )
            if len(self.channels) < 2:
                raise GenerationError(
                    f"sequence task {self.task_id!r} needs at least 2 channels"
                )
        elif (self.horizon, self.n_verbs, self.n_nouns) != (0, 0, 0):
            raise GenerationError(f"{self.kind} task {self.task_id!r} sets a sequence-only size")


@dataclass
class SyntheticDataset:
    """A split of clips, stacked as one (samples x frames x channels)
    ``FrameSeq``, with one label array per task, samples first: the classes
    (binary), the change times in seconds (localization), or the future
    (verb, noun) pairs, (samples x horizon x 2) (sequence)."""

    clips: FrameSeq
    labels: dict[str, np.ndarray]
    specs: tuple[TaskSpec, ...]
    seed: int
    split: str

    @property
    def n_samples(self) -> int:
        return len(self.clips.values)

    def summary(self) -> dict:
        out = {
            "split": self.split,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "duration_s": self.clips.duration_s,
            "fps": self.clips.fps,
            "tasks": {},
        }
        for spec in self.specs:
            entry: dict = {"kind": spec.kind}
            if spec.kind == KIND_BINARY:
                entry["positive_rate"] = float(np.mean(self.labels[spec.task_id]))
            out["tasks"][spec.task_id] = entry
        return out


def validate_specs(specs: Sequence[TaskSpec], n_channels: int) -> None:
    if not specs:
        raise GenerationError("need at least one task spec")
    if specs[0].corr_rho != 1.0:
        raise GenerationError(
            f"primary task {specs[0].task_id!r} must have corr_rho = 1, "
            f"got {specs[0].corr_rho}"
        )
    ids = [s.task_id for s in specs]
    if len(set(ids)) != len(ids):
        raise GenerationError(f"duplicate task ids: {ids}")
    used: set[int] = set()
    for spec in specs:
        overlap = used.intersection(spec.channels)
        if overlap:
            raise GenerationError(
                f"task {spec.task_id!r} reuses channels {sorted(overlap)}"
            )
        used.update(spec.channels)
        if max(spec.channels) >= n_channels or min(spec.channels) < 0:
            raise GenerationError(
                f"task {spec.task_id!r} channels {spec.channels} exceed "
                f"{n_channels} clip channels"
            )
    for spec in specs[1:]:
        if spec.kind == KIND_BINARY and spec.corr_rho > 0 and specs[0].kind != KIND_BINARY:
            raise GenerationError(
                f"auxiliary {spec.task_id!r} correlates with the primary latent, "
                "but the primary task is not binary"
            )


def check_frame_count(specs: Sequence[TaskSpec], n_frames: int) -> None:
    """A localization label is a change frame drawn from ``[1, n_frames)``,
    so it takes at least two values only in clips of 3 or more frames."""
    for spec in specs:
        if spec.kind == KIND_LOCALIZATION and n_frames < 3:
            raise GenerationError(
                f"localization task {spec.task_id!r} needs clips of at least 3 frames, "
                f"got {n_frames}"
            )


def _sample_rng(seed: int, split: str, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _SPLIT_CODES[split], index]))


def _structure_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STRUCTURE_STREAM]))


def _codebook(rng: np.random.Generator, n_codes: int, width: int, signal: float) -> np.ndarray:
    book = rng.normal(0.0, 1.0, size=(n_codes, width))
    book /= np.linalg.norm(book, axis=1, keepdims=True)
    return book * signal * np.sqrt(width)


def generate(
    specs: Sequence[TaskSpec],
    n_samples: int,
    seed: int,
    split: str = "train",
    duration_s: float | None = None,
    fps: float | None = None,
    n_channels: int | None = None,
) -> SyntheticDataset:
    """Draw a dataset of multichannel clips plus per-task labels.

    Geometry defaults to the primary task's native window. Generation is
    deterministic given (specs, seed, split): each sample derives its own RNG
    stream, so the first k samples of a split do not depend on its size.
    """
    if n_samples < 1:
        raise GenerationError(f"n_samples must be >= 1, got {n_samples}")
    if split not in _SPLIT_CODES:
        raise GenerationError(f"unknown split {split!r}")
    specs = tuple(specs)
    if n_channels is None:
        n_channels = max(max(s.channels) for s in specs) + 1
    validate_specs(specs, n_channels)
    if duration_s is None:
        duration_s = specs[0].native_window_s
    if fps is None:
        fps = specs[0].native_fps
    n_frames = frame_count(fps, duration_s)
    check_frame_count(specs, n_frames)

    struct = _structure_rng(seed)
    chains: dict[str, tuple] = {}
    for spec in specs:
        if spec.kind == KIND_SEQUENCE:
            half = len(spec.channels) // 2
            verb_ch = spec.channels[:half]
            noun_ch = spec.channels[half:]
            chains[spec.task_id] = (
                struct.permutation(spec.n_verbs),
                struct.permutation(spec.n_nouns),
                _codebook(struct, spec.n_verbs, len(verb_ch), spec.signal),
                _codebook(struct, spec.n_nouns, len(noun_ch), spec.signal),
                verb_ch,
                noun_ch,
            )

    clips = np.zeros((n_samples, n_frames, n_channels), dtype=np.float64)
    labels: dict[str, list] = {s.task_id: [] for s in specs}
    for i, values in enumerate(clips):
        rng = _sample_rng(seed, split, i)
        primary_latent: int | None = None
        for spec in specs:
            group = list(spec.channels)
            if spec.kind == KIND_BINARY:
                if spec is specs[0]:
                    y = int(rng.integers(2))
                    primary_latent = y
                elif rng.random() < spec.corr_rho:
                    y = primary_latent
                    rng.integers(2)  # keep the stream aligned across rho values
                else:
                    y = int(rng.integers(2))
                values[:, group] += (2 * y - 1) * spec.signal
                labels[spec.task_id].append(y)
            elif spec.kind == KIND_LOCALIZATION:
                t_star = int(rng.integers(1, n_frames))
                sign = np.where(np.arange(n_frames) >= t_star, 1.0, -1.0)
                values[:, group] += sign[:, None] * spec.signal
                labels[spec.task_id].append(t_star / fps)
            else:
                perm_v, perm_n, code_v, code_n, verb_ch, noun_ch = chains[spec.task_id]
                v = int(rng.integers(spec.n_verbs))
                n = int(rng.integers(spec.n_nouns))
                values[:, verb_ch] += code_v[v]
                values[:, noun_ch] += code_n[n]
                future = []
                cv, cn = v, n
                for _ in range(spec.horizon):
                    cv = int(perm_v[cv])
                    cn = int(perm_n[cn])
                    future.append((cv, cn))
                labels[spec.task_id].append(future)
            if spec.noise_sigma > 0:
                values[:, group] += rng.normal(0.0, spec.noise_sigma, size=(n_frames, len(group)))

    labels = {task_id: np.asarray(values) for task_id, values in labels.items()}
    return SyntheticDataset(
        clips=FrameSeq(clips, fps=fps, duration_s=duration_s),
        labels=labels,
        specs=specs,
        seed=seed,
        split=split,
    )


# ---------------------------------------------------------------------------
# analytic ceilings


def _separation(spec: TaskSpec, duration_s: float | None) -> float:
    """Class-mean distance of the sufficient statistic, in noise stddev units."""
    if duration_s is None:
        duration_s = spec.native_window_s
    frames = frame_count(spec.native_fps, duration_s)
    evidence = np.sqrt(len(spec.channels) * frames)
    if spec.noise_sigma == 0:
        return np.inf if spec.signal > 0 else 0.0
    return 2.0 * spec.signal * evidence / spec.noise_sigma


def bayes_optimal_accuracy(spec: TaskSpec, duration_s: float | None = None) -> float:
    """Best achievable accuracy for one binary task in isolation: Phi(d/2).

    ``d`` is the separation of the two class means in noise-stddev units,
    pooling the task's channel group over the frames it observes
    (``duration_s`` defaults to one native window).
    """
    if spec.kind != KIND_BINARY:
        raise ValueError(f"Bayes accuracy is defined for binary tasks, not {spec.kind!r}")
    return float(_normal_cdf(_separation(spec, duration_s) / 2.0)[0])


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-x**2 / 2.0) / np.sqrt(2.0 * np.pi)


def _aux_llr(v: np.ndarray, mu_v: float, q: float) -> np.ndarray:
    """Log-likelihood ratio for the primary latent from one auxiliary statistic."""
    # P(v | s_p = +1) ~ q N(mu_v, 1) + (1-q) N(-mu_v, 1); flip weights for -1.
    a = mu_v * v
    with np.errstate(divide="ignore"):  # log(0) = -inf at q = 1 is exact here
        top = np.logaddexp(np.log(q) + a, np.log1p(-q) - a)
        bot = np.logaddexp(np.log1p(-q) + a, np.log(q) - a)
    return top - bot


def combined_bayes_accuracy(
    primary: TaskSpec,
    auxiliaries: Sequence[TaskSpec],
    duration_s: float | None = None,
) -> float:
    """Best achievable primary accuracy when auxiliary channel groups are visible.

    Only binary auxiliaries with corr_rho > 0 carry information about a binary
    primary; all others are ignored. One separated by ``EXACT_SEPARATION`` or
    more (zero noise included) adds +-log(q / (1 - q)) to the log-likelihood
    ratio. One other informative auxiliary is integrated over its statistic
    ``v`` by Gauss-Legendre quadrature on each side of ``v = 0``, where the
    log-likelihood ratio changes sign; more than one falls back to seeded
    Monte Carlo over the optimal decision rule.
    """
    if primary.kind != KIND_BINARY:
        raise ValueError("combined ceiling is defined for a binary primary task")
    mu_u = _separation(primary, duration_s) / 2.0
    informative = [
        (_separation(a, duration_s) / 2.0, (1.0 + a.corr_rho) / 2.0)
        for a in auxiliaries
        if a.kind == KIND_BINARY and a.corr_rho > 0
    ]
    informative = [(mu, q) for mu, q in informative if mu > 0]
    if not informative or np.isinf(mu_u):
        return float(_normal_cdf(mu_u)[0])
    with np.errstate(divide="ignore"):  # log(0) = -inf at q = 1 is exact here
        log_odds = [np.log(q) - np.log1p(-q) for _, q in informative]

    if len(informative) == 1:
        mu_v, q = informative[0]
        if mu_v >= EXACT_SEPARATION:
            if mu_u == 0:
                return q
            shifts = np.array([log_odds[0], -log_odds[0]]) / (2.0 * mu_u)
            return float(np.dot([q, 1.0 - q], _normal_cdf(mu_u + shifts)[0]))
        # a 64-point Gauss-Legendre rule on each half of [-mu_v-10, mu_v+10]:
        # lam changes sign at v = 0, where the mu_u = 0 integrand steps
        x, w = np.polynomial.legendre.leggauss(64)
        h = (mu_v + 10.0) / 2.0
        v = np.concatenate([h * (x - 1.0), h * (x + 1.0)])
        w = np.concatenate([h * w, h * w])
        lam = _aux_llr(v, mu_v, q)
        if mu_u > 0:
            correct = _normal_cdf(mu_u + lam / (2.0 * mu_u))[0]
        else:
            correct = 0.5 * (1.0 + np.sign(lam))
        dens = q * _normal_pdf(v - mu_v) + (1 - q) * _normal_pdf(v + mu_v)
        return float(np.sum(w * dens * correct))

    rng = np.random.default_rng(MC_SEED)
    s_p = rng.integers(2, size=MC_SAMPLES) * 2 - 1
    llr = 2.0 * mu_u * (mu_u * s_p + rng.normal(size=MC_SAMPLES)) if mu_u > 0 else np.zeros(MC_SAMPLES)
    for (mu_v, q), odds in zip(informative, log_odds):
        agree = rng.random(MC_SAMPLES) < q
        s_a = np.where(agree, s_p, -s_p)
        v = mu_v * s_a + rng.normal(size=MC_SAMPLES)  # drawn even if unread: streams stay aligned
        llr = llr + (s_a * odds if mu_v >= EXACT_SEPARATION else _aux_llr(v, mu_v, q))
    decision = np.where(llr > 0, 1, -1)
    return float(np.mean(decision == s_p))
