"""Frame- and video-level AUC, average precision, and equal error rate.

Counts are accumulated as integers and the final ratios formed with exact
rational arithmetic, so tie handling, label-flip complements, and comparisons
against brute-force oracles are exact rather than tolerance-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray
    group_ids: np.ndarray | None = None


def _validated(s: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(s.scores, dtype=np.float64)
    labels = np.asarray(s.labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError(f"scores/labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    if scores.size == 0:
        raise ValueError("empty scored set")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def _split_counts(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return scores[labels == 1], scores[labels == 0]


def auc(s: ScoredSet) -> float:
    """Probability a positive outscores a negative, ties counting half."""
    scores, labels = _validated(s)
    pos, neg = _split_counts(scores, labels)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left").sum()
    equal = (np.searchsorted(neg_sorted, pos, side="right") - np.searchsorted(neg_sorted, pos, side="left")).sum()
    num = Fraction(int(2 * below + equal), 2)
    return float(num / (pos.size * neg.size))


def _sweep(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative true- and false-positive counts of a descending-threshold
    sweep: entry 0 is the empty prefix, then one entry per distinct score,
    taken after its whole block of tied scores."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), scores.size - 1)
    tp = np.concatenate(([0], np.cumsum(labels[order])[ends]))
    fp = np.concatenate(([0], ends + 1)) - tp
    return tp, fp


def average_precision(s: ScoredSet) -> float:
    """Descending-score sweep with tied scores processed as one block:
    the exact sum of (block positives / n_pos) * precision after the block."""
    scores, labels = _validated(s)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    tp, fp = _sweep(scores, labels)
    block_tp = np.diff(tp)
    hit = np.flatnonzero(block_tp)
    gains = block_tp[hit].tolist()
    hits = tp[hit + 1].tolist()
    cutoffs = (tp[hit + 1] + fp[hit + 1]).tolist()
    # the exact sum of gain * hits / cutoff over one common denominator
    common = math.lcm(*cutoffs)
    total = sum(g * t * (common // c) for g, t, c in zip(gains, hits, cutoffs))
    return float(Fraction(total, common * n_pos))


def eer(s: ScoredSet) -> float:
    """Crossing of the false-positive and false-negative rate polylines,
    linearly interpolated inside the segment where the sign flips."""
    scores, labels = _validated(s)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("EER needs at least one positive and one negative")
    tp, fp = _sweep(scores, labels)
    # vertex i is (FPR, FNR) = (fp_i / n_neg, (n_pos - tp_i) / n_pos); FPR - FNR
    # is nondecreasing along the sweep, -1 at vertex 0 and 1 at the last, so
    # the first vertex where it is >= 0 closes the segment that crosses zero
    i = int(np.flatnonzero(fp * n_pos >= (n_pos - tp) * n_neg)[0])
    prev_f, f = Fraction(int(fp[i - 1]), n_neg), Fraction(int(fp[i]), n_neg)
    prev_g, g = Fraction(n_pos - int(tp[i - 1]), n_pos), Fraction(n_pos - int(tp[i]), n_pos)
    denom = (f - prev_f) + (prev_g - g)
    if denom == 0:
        return float(prev_f)
    tau = (prev_g - prev_f) / denom
    return float(prev_f + tau * (f - prev_f))


def video_level(s: ScoredSet) -> ScoredSet:
    """Collapse frame scores to one score per clip, the mean of its frames;
    clip labels must be homogeneous."""
    scores, labels = _validated(s)
    if s.group_ids is None:
        raise ValueError("video-level pooling needs group ids")
    groups = np.asarray(s.group_ids)
    if groups.shape != scores.shape:
        raise ValueError("group ids must align with scores")
    # one stable sort by clip keeps each clip's frames in their given order,
    # so a clip's mean sums exactly as ``np.mean`` of its frames would
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_groups[1:] != sorted_groups[:-1])))
    sizes = np.diff(np.append(starts, groups.size))
    uniq = sorted_groups[starts]
    sorted_labels = labels[order]
    mixed = np.minimum.reduceat(sorted_labels, starts) != np.maximum.reduceat(sorted_labels, starts)
    if mixed.any():
        raise ValueError(f"clip {uniq[np.argmax(mixed)]!r} mixes real and fake frames")
    sorted_scores = scores[order]
    out_scores = np.empty(uniq.size)
    # clips of one size form a (clips, size) matrix whose rows reduce like
    # each clip's own vector
    for size in np.unique(sizes):
        clips = np.flatnonzero(sizes == size)
        members = sorted_scores[starts[clips, None] + np.arange(size)]
        out_scores[clips] = members.sum(axis=1) / size
    return ScoredSet(scores=out_scores, labels=sorted_labels[starts], group_ids=uniq)
