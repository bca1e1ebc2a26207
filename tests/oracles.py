"""Brute-force metric oracles, exhaustive small-instance enumeration, the
per-layer training code that the stacked one replaced, and the offline
replay of a fine-tune's masks.

The brute-force oracles recount from scratch with plain loops (no sorting
tricks shared with the implementation) and exact rational arithmetic.  The
``loop_*`` versions are the per-element tied-block sweeps, the per-clip
pooling loop, the two-step rank split, the per-layer factor projection,
EMA, BVG and adaptive-moment code, and pretraining's whole-buffer
adaptive-moment step that the vectorized, single, stacked and shared
versions replaced, kept to check them bit for bit.  The replay rebuilds
each step's mask from the gradient rows that ``capture_gradients`` copies
off the live run.  ``zero_layers`` and ``StartCores`` are the test-side
hooks on a fine-tune: one freezes chosen layers through the mask, the
other keeps the frozen semantic cores a run starts from.  ``child_env`` is the environment of a fresh
interpreter that must import the ``subtune`` under test.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import subtune
from subtune import harness
from subtune.decomposition import DecomposedLayer, recompose, semantic_to_bytes
from subtune.masking import _moment_step, _unusable, init_stats
from subtune.metrics import ScoredSet
from subtune.model import PROJECTION_NAMES, attention_slots, backward, stack_trainables


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


def loop_video_level(scores, labels, groups) -> ScoredSet:
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
        out_scores[idx] = float(member.mean())
    return ScoredSet(scores=out_scores, labels=out_labels, group_ids=uniq)


# --- the rank split ------------------------------------------------------

def loop_split_ranks(s, cfg) -> tuple[int, tuple[int, ...]]:
    """The two-step split that ``split_ranks`` replaced, as plain loops:
    first the semantic rank (a running sum of squared singular values,
    clamped to leave K components), then the tail cut into [start, stop)
    blocks by dealing its components out one at a time, read back as
    sizes.  For a ``cfg`` the spectrum can hold."""
    total, k = len(s), cfg.n_subspaces
    if cfg.rank_policy == "fixed":
        r = cfg.fixed_rank
    else:
        cum, acc = [], 0.0
        for x in s:
            acc += float(x) * float(x)
            cum.append(acc)
        r = next(i + 1 for i, c in enumerate(cum) if c / cum[-1] >= cfg.energy_fraction)
        r = max(1, min(r, total - k))
    sizes = [0] * k
    for j in range(total - r):
        sizes[j % k] += 1
    blocks, start = [], r
    for size in sizes:
        blocks.append((start, start + size))
        start += size
    return r, tuple(hi - lo for lo, hi in blocks)


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
    blocks = [replace(block, **{name: recompose(getattr(block, name)) for name in PROJECTION_NAMES})
              for block in model.blocks]
    twin = stack_trainables(model.config, model.token_embed, blocks, model.head)
    slots = attention_slots(twin)
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

    def __init__(self, params, head, lr, ema, floor, beta1=0.9, beta2=0.999, eps=1e-8):
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
        self.lr, self.ema, self.floor = lr, ema, floor
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
            self.steps[i] += 1
            self.params[i], self.m[i], self.v[i] = self._adam(
                self.params[i], grads[i], self.m[i], self.v[i], self.steps[i]
            )
        self.rest_step += 1
        new, self.rest_m, self.rest_v = self._adam(
            self.head.ravel(), head_grad.ravel(), self.rest_m, self.rest_v, self.rest_step
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


def projection_param_vector(p) -> np.ndarray:
    """A copy of one attention slot's trainable values: a plain matrix, or a
    decomposed layer's U, s and V columns without their padding."""
    parts = p.split(p.params) if isinstance(p, DecomposedLayer) else [p]
    return np.concatenate([part.ravel() for part in parts])


def binary_head(model, rng: np.random.Generator) -> np.ndarray:
    """A one-row head for ``model`` drawn from ``rng`` at N(0, 1/d_model),
    as the gradient check's model gets it."""
    d = model.config.d_model
    return rng.normal(scale=1.0 / math.sqrt(d), size=(1, d))


# --- offline mask replay ---------------------------------------------------

def capture_gradients(monkeypatch) -> list[np.ndarray]:
    """A list that receives a copy of each fine-tune step's gradient rows
    from then on, taken by wrapping ``harness.apply_update``, which the
    fine-tune calls once per step and pretraining never."""
    rows = []
    apply_update = harness.apply_update

    def capturing(model, grads, mask, opt):
        rows.append(grads.trainable.copy())
        return apply_update(model, grads, mask, opt)

    monkeypatch.setattr(harness, "apply_update", capturing)
    return rows


def zero_layers(monkeypatch, layer_ids: tuple[int, ...]) -> None:
    """From then on, clear the bits of ``layer_ids`` in every mask built,
    by wrapping ``harness.build_mask``, which ``harness._mask_rule`` calls
    once per step: the layers stay at their start in a fine-tune, and a
    replay rebuilds the same masks."""
    build_mask = harness.build_mask
    ids = np.asarray(layer_ids, dtype=np.intp)

    def zeroing(*args, **kwargs):
        mask = build_mask(*args, **kwargs)
        mask.bits[ids] = 0
        return mask

    monkeypatch.setattr(harness, "build_mask", zeroing)


def semantic_cores(model) -> list[bytes]:
    """Each attention slot's frozen semantic core, serialized; none for a
    plain model."""
    if not model.decomposed:
        return []
    return [semantic_to_bytes(getattr(block, name)) for _, block, name in attention_slots(model)]


class StartCores:
    """An ``on_step`` hook that keeps the ``semantic_cores`` of the first
    state a fine-tune shows it: the run's start, before its first step (or
    after step k, for a run resumed there)."""

    def __init__(self):
        self.cores = None

    def __call__(self, state) -> None:
        if self.cores is None:
            self.cores = semantic_cores(state.model)


def replay_masks(record, cfg, n_layers: int, gradient_rows: list[np.ndarray]) -> list[np.ndarray]:
    """Every mask of ``record``'s run rebuilt offline from its steps'
    ``gradient_rows`` through the live run's own mask rule, so every arm
    (any budget, every layer's among them, and layers zeroed by
    ``zero_layers`` while the hook is still in place) is reproduced; the
    warmup is read from the record.  ``cfg`` supplies the stats section and
    the layer budget, as the run's own config did; ``n_layers`` must be the
    run's layer count, and there must be one gradient row set per step
    taken."""
    run_layers = record.model.trainable.shape[0]
    if n_layers != run_layers:
        raise ValueError(f"replay asked for {n_layers} layers, the run has {run_layers}")
    if len(gradient_rows) != record.step:
        raise ValueError(f"replay got gradient rows for {len(gradient_rows)} steps, the run took {record.step}")
    mask_rule = harness._mask_rule(cfg, record, init_stats(record.model.trainable.shape))
    return [mask_rule(step, rows).bits for step, rows in enumerate(gradient_rows, start=1)]


def recorded_masks(record) -> list[np.ndarray]:
    """Each step's mask as the run recorded it: its ``StepLog.mask_bits``."""
    return [np.array([int(bit) for bit in log.mask_bits], dtype=np.int8) for log in record.steps]


def child_env() -> dict[str, str]:
    """This process's environment with the directory of the ``subtune`` it
    imported first on ``PYTHONPATH``, so a child interpreter imports the
    same package, installed or not."""
    src = str(Path(subtune.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
