"""Brute-force metric oracles, exhaustive small-instance enumeration, and
the per-layer training code that the stacked one replaced.

The brute-force oracles recount from scratch with plain loops (no sorting
tricks shared with the implementation) and exact rational arithmetic.  The
``loop_*`` versions are the per-element tied-block sweeps, the per-clip
pooling loop, the per-layer factor projection, EMA, BVG and
adaptive-moment code, and pretraining's whole-buffer adaptive-moment step
that the vectorized, stacked and shared versions replaced, kept to check
them bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from subtune.decomposition import recompose
from subtune.masking import _moment_step, _unusable
from subtune.metrics import ScoredSet
from subtune.model import attention_slots, backward, clone_model, stack_trainables


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


def loop_video_level(scores, labels, groups, pool: str = "mean") -> ScoredSet:
    """Clip pooling one clip at a time, by a mask over every frame."""
    uniq = np.unique(groups)
    out_scores = np.zeros(uniq.size)
    out_labels = np.zeros(uniq.size, dtype=np.int64)
    for idx, gid in enumerate(uniq):
        sel = groups == gid
        member_labels = np.unique(labels[sel])
        if member_labels.size != 1:
            raise ValueError(f"clip {gid!r} mixes real and fake frames")
        out_labels[idx] = member_labels[0]
        member = scores[sel]
        out_scores[idx] = float(member.mean()) if pool == "mean" else float(member.max())
    return ScoredSet(scores=out_scores, labels=out_labels, group_ids=uniq)


# --- per-layer training code ---------------------------------------------

def _loop_padded_factors(layer, vec):
    """(U, s, V) of a vector in the layer's padded ``params`` layout, the
    padding columns included."""
    width = vec.size // (layer.d_out + 1 + layer.d_in)
    n_u = layer.d_out * width
    return (
        vec[:n_u].reshape(layer.d_out, width),
        vec[n_u : n_u + width],
        vec[n_u + width :].reshape(layer.d_in, width),
    )


def _loop_cross_mask(ranks, width):
    mask = np.zeros((width, width))
    bounds = np.cumsum((0,) + tuple(ranks))
    for i, j in itertools.permutations(range(len(ranks)), 2):
        mask[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]] = 1.0
    return mask


def _loop_project(layer, g_w, w_eff, weights, n_layers):
    """One layer's (orth value, spec value, gradient row), formed from its
    padded row with 2-D products."""
    energy = float(np.sum(w_eff * w_eff))
    spec = abs(energy - layer.pretrained_frob_sq)
    g_total = g_w
    if weights.spectral_weight != 0.0:
        delta = energy - layer.pretrained_frob_sq
        if abs(delta) > 1e-9 * max(1.0, layer.pretrained_frob_sq):
            g_total = g_w + (weights.spectral_weight / n_layers) * math.copysign(2.0, delta) * w_eff
    u, s, v = _loop_padded_factors(layer, layer.params.copy())
    k = layer.n_subspaces
    pair_scale = 1.0 / (k * (k - 1)) if k > 1 else 0.0
    mask = _loop_cross_mask(layer.ranks, s.size)
    gram_u = (u.T @ u) * mask
    gram_v = (v.T @ v) * mask
    orth = (float(np.sum(gram_u * gram_u)) + float(np.sum(gram_v * gram_v))) * pair_scale
    coef = 4.0 * (weights.orth_weight / n_layers) * pair_scale
    orth_du, orth_dv = coef * (u @ gram_u), coef * (v @ gram_v)
    grad = np.empty_like(layer.params)
    du, ds, dv = _loop_padded_factors(layer, grad)
    g_v = g_total @ v
    np.multiply(g_v, s, out=du)
    du += orth_du
    np.multiply(g_total.T @ u, s, out=dv)
    dv += orth_dv
    ds[...] = np.sum(u * g_v, axis=0)
    return orth, spec, grad


def loop_backward(model, inputs, labels, weights):
    """(orth values, spec values, per-layer gradient rows) of a decomposed
    model, projected one layer at a time.  The effective-weight gradients
    come from a plain twin whose projections are the recomposed weights, so
    its forward and weight gradients are the decomposed model's; the value
    lists run last block first, q, k, v, o within a block."""
    twin = clone_model(model)
    slots = attention_slots(twin)
    for _, block, name in slots:
        setattr(block, name, recompose(getattr(block, name)))
    stack_trainables(twin)
    _, twin_grads = backward(twin, inputs, labels, weights)
    n_layers = len(slots)
    orth, spec, grads = {}, {}, {}
    for lid, block, name in attention_slots(model):
        layer = getattr(block, name)
        w_eff = getattr(twin.blocks[lid // 4], name)
        g_w = twin_grads.trainable[lid].reshape(w_eff.shape).copy()
        orth[lid], spec[lid], grads[lid] = _loop_project(layer, g_w, w_eff, weights, n_layers)
    order = [4 * b + j for b in range(len(model.blocks) - 1, -1, -1) for j in range(4)]
    return [orth[i] for i in order], [spec[i] for i in order], [grads[i] for i in range(n_layers)]


class LoopMasking:
    """EMA statistics, BVG and masked updates kept as one array per layer
    (a layer's padded row), stepped layer by layer."""

    def __init__(self, params, head, mode, lr, ema, floor, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [p.copy() for p in params]
        self.head = head.copy()
        self.first = [np.zeros(p.size) for p in params]
        self.second = [np.zeros(p.size) for p in params]
        self.m = [np.zeros(p.size) for p in params]
        self.v = [np.zeros(p.size) for p in params]
        self.steps = [0] * len(params)
        self.rest_m = np.zeros(head.size)
        self.rest_v = np.zeros(head.size)
        self.rest_step = 0
        self.mode, self.lr, self.ema, self.floor = mode, lr, ema, floor
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def update_stats(self, grads):
        a = self.ema
        for i, g in enumerate(grads):
            self.first[i] = a * self.first[i] + (1.0 - a) * g
            self.second[i] = a * self.second[i] + (1.0 - a) * g * g

    def bvg(self):
        out = np.zeros(len(self.first))
        for i, mu in enumerate(self.first):
            num = float(np.sum(mu * mu))
            den = float(np.sum(self.second[i] - mu * mu))
            out[i] = num / max(den, self.floor)
        return out

    def _adam(self, theta, grad, m, v, step):
        m = m * self.beta1
        m += (1.0 - self.beta1) * grad
        v = v * self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1**step)
        v_hat = v / (1.0 - self.beta2**step)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps), m, v

    def apply(self, grads, head_grad, bits):
        for i in np.flatnonzero(bits):
            if self.mode == "plain":
                self.params[i] = self.params[i] - self.lr * grads[i]
            else:
                self.steps[i] += 1
                self.params[i], self.m[i], self.v[i] = self._adam(
                    self.params[i], grads[i], self.m[i], self.v[i], self.steps[i]
                )
        head = self.head.ravel()
        if self.mode == "plain":
            new = head - self.lr * head_grad.ravel()
        else:
            self.rest_step += 1
            new, self.rest_m, self.rest_v = self._adam(
                head, head_grad.ravel(), self.rest_m, self.rest_v, self.rest_step
            )
        self.head = new.reshape(self.head.shape)


def step_buffer(theta, grad, m, v, step, opt, what):
    """Pretraining's step before it shared ``masking.staged_step``: one
    adaptive-moment update of a whole parameter buffer and its moments, in
    place, with ``step`` the already-incremented counter.  All or nothing:
    a non-finite update raises a ValueError naming ``what`` and writes
    nothing."""
    new, first, second = _moment_step(theta, grad, m, v, 1.0 - opt.beta1**step, 1.0 - opt.beta2**step, opt)
    if _unusable(new, second).any():
        raise ValueError(f"non-finite update at {what}")
    theta[...] = new
    m[...] = first
    v[...] = second
