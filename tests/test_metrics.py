from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_ap,
    brute_auc,
    brute_eer_dense,
    brute_eer_exact,
    enumerate_count_instances,
    loop_average_precision,
    loop_eer,
    loop_video_level,
)
from subtune import linalg
from subtune.metrics import ScoredSet, auc, average_precision, eer, video_level


def ss(scores, labels, groups=None) -> ScoredSet:
    return ScoredSet(
        scores=np.asarray(scores, dtype=np.float64),
        labels=np.asarray(labels),
        group_ids=None if groups is None else np.asarray(groups),
    )


def test_auc_examples() -> None:
    assert auc(ss([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0
    assert auc(ss([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])) == 0.75
    assert auc(ss([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0])) == 0.5


def test_auc_errors() -> None:
    with pytest.raises(ValueError):
        auc(ss([0.1, 0.2], [1, 1]))
    with pytest.raises(ValueError):
        auc(ss([], []))
    with pytest.raises(ValueError):
        auc(ss([0.1, np.nan], [1, 0]))
    with pytest.raises(ValueError):
        auc(ss([0.1, 0.2], [1, 2]))


def test_ap_examples() -> None:
    assert average_precision(ss([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0
    got = average_precision(ss([0.9, 0.6, 0.4], [1, 0, 1]))
    assert abs(got - 5.0 / 6.0) <= 1e-16
    with pytest.raises(ValueError):
        average_precision(ss([0.5], [0]))


def test_eer_examples() -> None:
    assert eer(ss([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 0.0
    assert eer(ss([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0])) == 1.0
    assert eer(ss([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0])) == 0.5
    with pytest.raises(ValueError):
        eer(ss([0.1, 0.2], [0, 0]))


def test_exhaustive_small_instances_match_brute_force() -> None:
    # every (label, score) count configuration up to n=7 over a 4-value
    # alphabet; the acceptance suite pushes the same sweep to n=12
    checked = 0
    for scores, labels in enumerate_count_instances(7):
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        s = ss(scores, labels)
        if n_pos and n_neg:
            assert auc(s) == brute_auc(scores, labels)
            got = eer(s)
            assert got == brute_eer_exact(scores, labels)
            assert abs(got - brute_eer_dense(scores, labels)) <= 1e-12
            flipped = ss(scores, 1 - labels)
            assert auc(s) + auc(flipped) == 1.0
        if n_pos:
            assert average_precision(s) == brute_ap(scores, labels)
        checked += 1
    assert checked > 6000


def test_random_instances_match_brute_force() -> None:
    rng = linalg.make_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 21))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        s = ss(scores, labels)
        assert auc(s) == brute_auc(scores, labels)
        assert average_precision(s) == brute_ap(scores, labels)
        assert eer(s) == brute_eer_exact(scores, labels)
        assert abs(eer(s) - brute_eer_dense(scores, labels)) <= 1e-12


def test_metrics_invariant_under_monotone_transform() -> None:
    rng = linalg.make_rng(7)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        s = ss(scores, labels)
        squashed = ss(np.tanh(scores) * 0.5 + 0.5, labels)
        assert auc(s) == auc(squashed)
        assert average_precision(s) == average_precision(squashed)
        assert eer(s) == eer(squashed)


def test_metrics_invariant_under_permutation() -> None:
    rng = linalg.make_rng(8)
    scores = np.round(rng.normal(size=40), 1)
    labels = rng.integers(0, 2, size=40)
    perm = rng.permutation(40)
    a, b = ss(scores, labels), ss(scores[perm], labels[perm])
    assert auc(a) == auc(b)
    assert average_precision(a) == average_precision(b)
    assert eer(a) == eer(b)


def test_video_level_pooling() -> None:
    s = ss([0.2, 0.4, 0.9, 0.7], [0, 0, 1, 1], ["a", "a", "b", "b"])
    pooled = video_level(s)
    assert pooled.scores.tolist() == [0.30000000000000004, 0.8] or np.allclose(
        pooled.scores, [0.3, 0.8], atol=1e-15
    )
    assert pooled.labels.tolist() == [0, 1]
    singles = ss([0.1, 0.9], [0, 1], [5, 3])
    ident = video_level(singles)
    assert sorted(ident.scores.tolist()) == [0.1, 0.9]


def test_video_level_grouped_auc_matches_hand_computation() -> None:
    # 4 clips, 2 frames each; clip means: fake (0.8, 0.45), real (0.5, 0.2)
    s = ss(
        [0.9, 0.7, 0.4, 0.5, 0.6, 0.4, 0.3, 0.1],
        [1, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 2, 2, 3, 3],
    )
    pooled = video_level(s)
    # pairs: (0.8 vs 0.5, 0.2) both wins; (0.45 vs 0.5) loss, (0.45 vs 0.2) win
    assert auc(pooled) == 0.75


def test_video_level_errors() -> None:
    with pytest.raises(ValueError):
        video_level(ss([0.1, 0.2], [0, 1]))
    with pytest.raises(ValueError):
        video_level(ss([0.1, 0.2], [0, 1], ["a", "a"]))


@st.composite
def clip_sets(draw):
    """Frames of clips of uneven sizes (up to 20 frames, so pooled sums cross
    numpy's 8-way unrolled summation), shuffled, with integer or string
    clip ids, tied and extreme scores, and sometimes a clip of mixed labels."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = linalg.make_rng(seed)
    ids = rng.permutation(10 * len(sizes))[: len(sizes)]
    if draw(st.booleans()):
        ids = np.array([f"clip{i}" for i in ids])
    groups = np.repeat(ids, sizes)
    labels = np.repeat(rng.integers(0, 2, size=len(sizes)), sizes)
    if draw(st.booleans()) and len(groups) > 1:
        labels[int(rng.integers(0, len(labels)))] ^= 1
    pool = np.array([0.0, -0.0, 5e-324, 0.1, 0.5, 1.0, 1e300])
    scores = np.where(rng.random(len(groups)) < 0.3, pool[rng.integers(0, len(pool), len(groups))],
                      rng.normal(size=len(groups)))
    order = rng.permutation(len(groups))
    return scores[order], labels[order], groups[order]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clip_sets())
def test_video_level_matches_the_per_clip_loop_bit_for_bit(case) -> None:
    scores, labels, groups = case
    try:
        want = loop_video_level(scores, labels, groups)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            video_level(ss(scores, labels, groups))
        assert str(got.value) == str(exc)
        return
    got = video_level(ss(scores, labels, groups))
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert np.array_equal(got.group_ids, want.group_ids)
    assert got.group_ids.dtype == want.group_ids.dtype


@st.composite
def tied_score_sets(draw):
    """Scores drawn from a small pool (heavy ties, signed zeros, subnormal
    and huge values) or from all finite floats, with 0/1 labels."""
    n = draw(st.integers(1, 400))
    pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300]),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=draw(st.sampled_from([1, 3, 12, 400])),
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = linalg.make_rng(seed)
    scores = np.array(pool)[rng.integers(0, len(pool), size=n)]
    labels = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(np.int64)
    return scores, labels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_score_sets())
def test_vectorized_sweeps_match_the_loop_versions_bit_for_bit(case) -> None:
    scores, labels = case
    s = ss(scores, labels)
    n_pos = int(labels.sum())
    if n_pos:
        assert average_precision(s) == loop_average_precision(scores, labels)
    if 0 < n_pos < labels.size:
        assert eer(s) == loop_eer(scores, labels)
