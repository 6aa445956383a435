from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ettrans import metrics as mx
from ettrans.errors import UndefinedMetricError


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_all_correct():
    assert mx.accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_half_right():
    assert mx.accuracy([1, 1, 1, 1], [1, 0, 1, 0]) == 0.5


def test_accuracy_matches_counting_oracle():
    rng = np.random.default_rng(0)
    preds = rng.integers(2, size=1000).tolist()
    labels = rng.integers(2, size=1000).tolist()
    count = 0
    for p, y in zip(preds, labels):
        if p == y:
            count += 1
    assert mx.accuracy(preds, labels) == count / 1000


def test_accuracy_rejects_bad_input():
    with pytest.raises(ValueError):
        mx.accuracy([1], [1, 0])
    with pytest.raises(ValueError):
        mx.accuracy([], [])


# ---------------------------------------------------------------------------
# average precision


def test_ap_hand_computed_ranking():
    assert mx.average_precision([0.9, 0.8, 0.1], [1, 0, 1]) == pytest.approx(
        (1.0 + 2.0 / 3.0) / 2.0
    )


def test_ap_perfect_ranking():
    assert mx.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_ap_requires_a_positive():
    with pytest.raises(UndefinedMetricError):
        mx.average_precision([0.5, 0.2], [0, 0])


def _ap_brute_force(scores, labels):
    """Selection-scan ranking (no sort), precision accumulated per positive."""
    n = len(scores)
    remaining = list(range(n))
    order = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best] or (scores[i] == scores[best] and i < best):
                best = i
        order.append(best)
        remaining.remove(best)
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(labels)


def test_ap_matches_exhaustive_ranking_brute_force_1000_cases():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        labels = rng.integers(2, size=n).tolist()
        if sum(labels) == 0:
            labels[int(rng.integers(n))] = 1
        # draw from a tiny grid so score ties actually happen
        scores = (rng.integers(0, 4, size=n) / 4.0).tolist()
        assert mx.average_precision(scores, labels) == _ap_brute_force(scores, labels)


def test_ap_invariant_under_monotone_score_transforms():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=40).tolist()
    labels = rng.integers(2, size=40).tolist()
    labels[0] = 1
    base = mx.average_precision(scores, labels)
    assert mx.average_precision([3.0 * s + 7.0 for s in scores], labels) == base
    assert mx.average_precision([float(np.exp(s)) for s in scores], labels) == base


def test_ap_random_scores_sit_near_prevalence():
    rng = np.random.default_rng(3)
    values = []
    for _ in range(10_000):
        labels = rng.permutation([1] * 100 + [0] * 100).tolist()
        scores = rng.normal(size=200).tolist()
        values.append(mx.average_precision(scores, labels))
    assert abs(float(np.mean(values)) - 0.5) < 0.02


def test_ap_exact_against_rational_arithmetic():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        labels = rng.integers(2, size=n).tolist()
        if sum(labels) == 0:
            labels[0] = 1
        scores = rng.normal(size=n).tolist()
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        hits, acc = 0, 0.0
        for rank, idx in enumerate(order, start=1):
            if labels[idx] == 1:
                hits += 1
                acc += float(Fraction(hits, rank))
        assert mx.average_precision(scores, labels) == pytest.approx(
            acc / sum(labels), abs=1e-15
        )


# ---------------------------------------------------------------------------
# localization error


def test_localization_error_examples():
    assert mx.localization_error(2.0, 2.0) == 0.0
    assert mx.localization_error(2.5, 2.0) == 0.5


def test_mean_localization_error_matches_loop_oracle():
    rng = np.random.default_rng(5)
    preds = rng.uniform(0, 8, size=1000).tolist()
    truths = rng.uniform(0, 8, size=1000).tolist()
    total = 0.0
    for p, t in zip(preds, truths):
        total += abs(p - t)
    assert mx.mean_localization_error(preds, truths) == total / 1000


def test_localization_error_bounded_by_duration():
    rng = np.random.default_rng(6)
    duration = 8.0
    preds = rng.uniform(0, duration, size=100)
    truths = rng.uniform(0, duration, size=100)
    assert mx.mean_localization_error(preds.tolist(), truths.tolist()) <= duration


# ---------------------------------------------------------------------------
# edit distance


def _dp_reference(a, b):
    """Full-matrix edit distance, the classic quadratic recurrence."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[n][m]


def test_edit_distance_identical_sequences():
    seq = [(1, 2), (3, 4), (0, 0)]
    result = mx.edit_distance_at_z([seq], seq)
    assert result == (0.0, 0.0, 0.0)


def test_edit_distance_single_substitution():
    pred = [(0, 0), (1, 1), (2, 2)]
    true = [(0, 0), (2, 2), (2, 2)]
    assert mx.edit_distance_at_z([pred], true).action == pytest.approx(1.0 / 3.0)
    assert _dp_reference(pred, true) == 1


def test_edit_distance_disjoint_alphabets():
    pred = [(0, 0)] * 4
    true = [(9, 9)] * 4
    assert mx.edit_distance_at_z([pred], true).action == 1.0


def test_edit_distance_minimum_over_candidates():
    true = [(1, 1), (2, 2)]
    bad = [(9, 9), (8, 8)]
    good = [(1, 1), (2, 3)]  # noun wrong in step 2 only
    result = mx.edit_distance_at_z([bad, good], true)
    assert result.action == pytest.approx(0.5)
    assert result.verb == 0.0
    assert result.noun == pytest.approx(0.5)


def test_edit_distance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        mx.edit_distance_at_z([[(0, 0)]], [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        mx.edit_distance_at_z([], [(0, 0)])


def test_levenshtein_matches_dp_reference_on_1000_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        z = int(rng.integers(1, 9))
        seqs = [
            [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(z)]
            for _ in range(3)
        ]
        a, b, c = seqs
        dab = mx.levenshtein(a, b)
        dbc = mx.levenshtein(b, c)
        dac = mx.levenshtein(a, c)
        assert dab == _dp_reference(a, b)
        assert dbc == _dp_reference(b, c)
        assert dac == _dp_reference(a, c)
        assert dac <= dab + dbc  # triangle inequality
        norm = mx.edit_distance_at_z([a], b)
        assert norm.action == dab / z
        assert 0.0 <= norm.action <= 1.0


@given(
    hst.lists(hst.integers(0, 3), min_size=0, max_size=10),
    hst.lists(hst.integers(0, 3), min_size=0, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_levenshtein_symmetric_and_bounded(a, b):
    d = mx.levenshtein(a, b)
    assert d == mx.levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
