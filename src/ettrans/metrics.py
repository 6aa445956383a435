"""Evaluation metrics: accuracy, average precision, localization error and
normalized edit distance over future action sequences."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import UndefinedMetricError


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Fraction of exact matches."""
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not labels:
        raise ValueError("accuracy of an empty set is undefined")
    hits = sum(1 for p, y in zip(predictions, labels) if p == y)
    return hits / len(labels)


def average_precision(scores: Sequence[float], labels: Sequence[int]) -> float:
    """AP from a score ranking: mean precision at each positive's rank.

    Sorting is by score descending; ties break by original index ascending,
    so equal-score inputs still rank deterministically.
    """
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores vs {len(labels)} labels")
    n_pos = sum(1 for y in labels if y == 1)
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive label")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


def localization_error(pred_time_s: float, true_time_s: float) -> float:
    """Absolute keyframe timing error in seconds."""
    return abs(pred_time_s - true_time_s)


def mean_localization_error(pred_times_s: Sequence[float], true_times_s: Sequence[float]) -> float:
    if len(pred_times_s) != len(true_times_s):
        raise ValueError(
            f"{len(pred_times_s)} predictions vs {len(true_times_s)} labels"
        )
    if not pred_times_s:
        raise ValueError("localization error of an empty set is undefined")
    return sum(localization_error(p, t) for p, t in zip(pred_times_s, true_times_s)) / len(
        pred_times_s
    )


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost insert/delete/substitute edit distance over any hashable items."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current[j] = min(
                previous[j] + 1,      # delete
                current[j - 1] + 1,   # insert
                previous[j - 1] + cost,
            )
        previous = current
    return previous[len(b)]


class EditDistanceResult(NamedTuple):
    verb: float
    noun: float
    action: float


def edit_distance_at_z(
    candidates: Sequence[Sequence[tuple[int, int]]],
    truth: Sequence[tuple[int, int]],
) -> EditDistanceResult:
    """Normalized edit distance between candidate action sequences and truth.

    Each sequence is Z (verb, noun) pairs. A position matches as an action
    only when both factors match. Distances are Levenshtein counts divided by
    Z, minimized over the candidates; verb-only and noun-only variants use the
    single-factor alphabets.
    """
    if not candidates:
        raise ValueError("need at least one candidate sequence")
    z = len(truth)
    if z == 0:
        raise ValueError("true sequence must be nonempty")
    for cand in candidates:
        if len(cand) != z:
            raise ValueError(f"candidate length {len(cand)} does not match horizon {z}")
    true_verbs = [v for v, _ in truth]
    true_nouns = [n for _, n in truth]
    best = EditDistanceResult(np.inf, np.inf, np.inf)
    for cand in candidates:
        verbs = [v for v, _ in cand]
        nouns = [n for _, n in cand]
        best = EditDistanceResult(
            min(best.verb, levenshtein(verbs, true_verbs) / z),
            min(best.noun, levenshtein(nouns, true_nouns) / z),
            min(best.action, levenshtein(list(cand), list(truth)) / z),
        )
    return best
