"""Brute-force metric oracles and exhaustive small-instance enumeration.

The brute-force oracles recount from scratch with plain loops (no sorting
tricks shared with the implementation) and exact rational arithmetic.  The
``loop_*`` versions at the end are the per-element tied-block sweeps that
the vectorized metrics replaced, kept to check them bit for bit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def brute_auc(scores, labels) -> float:
    """Direct pair counting: wins + half-ties over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    num = Fraction(0)
    for p in pos:
        for q in neg:
            if p > q:
                num += 1
            elif p == q:
                num += Fraction(1, 2)
    return float(num / (len(pos) * len(neg)))


def brute_ap(scores, labels) -> float:
    """Per-threshold full recount over descending distinct scores."""
    n_pos = sum(1 for y in labels if y == 1)
    thresholds = sorted(set(scores), reverse=True)
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if y == 1 and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if y == 0 and s >= t)
        recall = Fraction(tp, n_pos)
        precision = Fraction(tp, tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


def _brute_vertices(scores, labels) -> list[tuple[Fraction, Fraction]]:
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    verts = [(Fraction(0), Fraction(1))]
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if y == 1 and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if y == 0 and s >= t)
        verts.append((Fraction(fp, n_neg), Fraction(n_pos - tp, n_pos)))
    return verts


def brute_eer_exact(scores, labels) -> float:
    """Rational crossing of FPR and FNR, scanned from the lenient end."""
    verts = _brute_vertices(scores, labels)
    # walk backwards: diff = fpr - fnr is >= 0 at the end, find the last
    # vertex pair where it turns negative and solve that segment
    for idx in range(len(verts) - 1, 0, -1):
        f1, g1 = verts[idx]
        f0, g0 = verts[idx - 1]
        if f0 - g0 < 0 <= f1 - g1:
            rise = (f1 - f0) + (g0 - g1)
            if rise == 0:
                return float(f0)
            tau = (g0 - f0) / rise
            return float(f0 + tau * (f1 - f0))
    # diff >= 0 everywhere after the virtual start: crossing at the start
    return float(verts[0][0])


def brute_eer_dense(scores, labels) -> float:
    """Bisection on the polyline parameter; independent of any closed form."""
    verts = [(float(f), float(g)) for f, g in _brute_vertices(scores, labels)]

    def point(u: float) -> tuple[float, float]:
        seg = min(int(u), len(verts) - 2)
        t = u - seg
        f0, g0 = verts[seg]
        f1, g1 = verts[seg + 1]
        return f0 + t * (f1 - f0), g0 + t * (g1 - g0)

    lo, hi = 0.0, float(len(verts) - 1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f, g = point(mid)
        if f - g < 0:
            lo = mid
        else:
            hi = mid
    f, g = point(hi)
    return f


def enumerate_count_instances(n_max: int, alphabet=(0.0, 1.0, 2.0, 3.0)):
    """Every (scores, labels) configuration up to permutation: all ways to
    place counts of each (alphabet value, label) cell, totals 1..n_max."""
    v = len(alphabet)
    cells = 2 * v
    for n in range(1, n_max + 1):
        for cuts in itertools.combinations(range(n + cells - 1), cells - 1):
            counts = []
            prev = -1
            for c in cuts:
                counts.append(c - prev - 1)
                prev = c
            counts.append(n + cells - 2 - prev)
            scores = []
            labels = []
            for idx, count in enumerate(counts):
                val = alphabet[idx % v]
                lab = idx // v
                scores.extend([val] * count)
                labels.extend([lab] * count)
            yield np.array(scores), np.array(labels)


def _tied_blocks(scores, labels):
    """(positives, negatives) per block of tied scores, in descending score
    order: the per-element sweep the metrics module used before it was
    vectorized."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        block_tp = int(sorted_labels[i:j].sum())
        yield block_tp, (j - i) - block_tp
        i = j


def loop_average_precision(scores, labels) -> float:
    n_pos = int(labels.sum())
    ap = Fraction(0)
    tp = 0
    fp = 0
    for block_tp, block_fp in _tied_blocks(scores, labels):
        tp += block_tp
        fp += block_fp
        if block_tp:
            ap += Fraction(block_tp, n_pos) * Fraction(tp, tp + fp)
    return float(ap)


def loop_eer(scores, labels) -> float:
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    verts = [(Fraction(0), Fraction(1))]
    tp = 0
    fp = 0
    for block_tp, block_fp in _tied_blocks(scores, labels):
        tp += block_tp
        fp += block_fp
        verts.append((Fraction(fp, n_neg), Fraction(n_pos - tp, n_pos)))
    prev_f, prev_g = verts[0]
    for f, g in verts[1:]:
        if f - g >= 0:
            denom = (f - prev_f) + (prev_g - g)
            if denom == 0:
                return float(prev_f)
            tau = (prev_g - prev_f) / denom
            return float(prev_f + tau * (f - prev_f))
        prev_f, prev_g = f, g
    raise AssertionError("ROC sweep must end at FPR=1, FNR=0")
