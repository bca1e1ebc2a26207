"""Selective layer masking: streamed per-layer gradient moments, the
bias-variance score derived from them, top-budget mask construction after
an all-active warmup, and the one adaptive-moment optimizer step, with
per-layer frozen state, that both the masked fine-tune update and
pretraining (every layer active) take."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Gradients, Model
from .settings import check, setting


@dataclass
class StatsConfig:
    ema_coeff: float = setting(0.9, ge=0.0, lt=1.0)
    moment_floor: float = setting(1e-12, gt=0.0)

    def validate(self) -> None:
        check(self, "stats")


@dataclass
class GradientStats:
    """EMA first and second moments of each layer's flattened gradient, one
    row per layer (``first[i]``, ``second[i]``).  The second moment here is
    the smoothed elementwise square, not a singular value."""

    first: np.ndarray
    second: np.ndarray


def init_stats(shape: tuple[int, int]) -> GradientStats:
    """Zero moments of the (n_layers, P) shape of ``Model.trainable``."""
    return GradientStats(np.zeros(shape), np.zeros(shape))


def update_stats(
    stats: GradientStats, grads: np.ndarray | Sequence[np.ndarray], cfg: StatsConfig
) -> GradientStats:
    """One EMA step over every layer, masked or not.  ``grads`` holds one
    gradient row per layer (``Gradients.trainable``, or a list of
    vectors).  Mutates ``stats``."""
    cfg.validate()
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != stats.first.shape:
        raise ValueError(f"gradients of shape {g.shape} do not match the stats' {stats.first.shape}")
    a = cfg.ema_coeff
    # a * m + (1 - a) * g and a * v + ((1 - a) * g) * g, in place
    scaled = (1.0 - a) * g
    stats.first *= a
    stats.first += scaled
    scaled *= g
    stats.second *= a
    stats.second += scaled
    return stats


def compute_bvg(stats: GradientStats, cfg: StatsConfig) -> np.ndarray:
    """Per-layer squared-bias over floored variance score, one row sum per
    layer, padding included (a row sums exactly as the layer's own vector
    would)."""
    cfg.validate()
    sq = stats.first * stats.first
    num = sq.sum(axis=1)
    np.subtract(stats.second, sq, out=sq)
    return num / np.maximum(sq.sum(axis=1), cfg.moment_floor)


@dataclass
class LayerMask:
    bits: np.ndarray


def build_mask(bvg: np.ndarray, budget: int, step: int, warmup: int) -> LayerMask:
    """All-active up to step ``warmup``; afterwards the ``budget`` largest
    scores win, ties going to the lower layer id."""
    scores = np.asarray(bvg, dtype=np.float64)
    n = scores.shape[0]
    bits = np.zeros(n, dtype=np.int8)
    if step <= warmup:
        bits[:] = 1
    else:
        take = min(budget, n)
        order = np.argsort(-scores, kind="stable")
        bits[order[:take]] = 1
    return LayerMask(bits=bits)


# the moments' decay rates and the denominator's guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adaptive-moment updates of the gradient buffer ``backward`` forms:
    the (n_layers, P) rows, one per attention layer, and the rest past them
    (the head for a binary head; the head, ``token_embed`` and every frozen
    slot for a pretraining head).  ``layer_m``/``layer_v`` hold the rows'
    moments, one row per layer, and ``rest_m``/``rest_v`` the rest's.
    Every layer and the rest own an independent step counter, so a masked
    layer's state, bias correction included, is bit-frozen while it sits
    out."""

    learning_rate: float
    layer_m: np.ndarray
    layer_v: np.ndarray
    layer_step: list[int]
    rest_m: np.ndarray
    rest_v: np.ndarray
    rest_step: int = 0


def init_optimizer(learning_rate: float, model: Model) -> OptimizerState:
    """Fresh state for the gradients ``backward`` forms for ``model``: its
    rows and head for a binary head, all of ``model.params`` for a
    pretraining head."""
    shape = model.trainable.shape
    rest = model.layout.grad_size - model.trainable.size
    return OptimizerState(learning_rate, np.zeros(shape), np.zeros(shape), [0] * shape[0],
                          np.zeros(rest), np.zeros(rest))


def _moment_step(theta, grad, m, v, c1, c2, opt: OptimizerState):
    """Bias-corrected adaptive-moment update with corrections ``c1`` =
    1 - BETA1**t and ``c2`` = 1 - BETA2**t (floats, or one per row);
    returns the new parameters and moments and leaves its arguments
    untouched."""
    m = m * BETA1
    m += (1.0 - BETA1) * grad
    v = v * BETA2
    v += (1.0 - BETA2) * grad * grad
    m_hat = m / c1
    v_hat = v / c2
    return theta - opt.learning_rate * m_hat / (np.sqrt(v_hat) + EPS), m, v


def _unusable(new: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Where a staged update must not be written: a non-finite parameter, or
    a second moment that overflowed to inf (which leaves the parameters
    finite but freezes the coordinate for good)."""
    return ~np.isfinite(new) | ~np.isfinite(second)


def staged_step(model: Model, grads: Gradients, active: np.ndarray, opt: OptimizerState,
                at: str | None = None) -> None:
    """One step of the ``active`` rows, gathered from ``model.trainable``
    and stepped as one array, each row with its own layer's bias
    corrections, and of the rest of the gradient buffer past the rows.
    Inactive rows and their moments are left bit-untouched.  All or
    nothing: every new value is staged and checked before any is written,
    so a non-finite update raises with the model and ``opt`` unchanged,
    naming ``at`` if given, else the first bad layer or the head."""
    rows = model.trainable
    if len(opt.layer_step) != rows.shape[0] or opt.layer_m.shape != rows.shape:
        raise ValueError("optimizer state is shaped for other layers than the model's")
    theta, grad = rows[active], grads.trainable[active]
    rest = model.params[rows.size : grads.params.size]
    rest_grad = grads.params[rows.size :]
    steps = [opt.layer_step[lid] + 1 for lid in active]
    c1 = np.array([1.0 - BETA1**t for t in steps])[:, None]
    c2 = np.array([1.0 - BETA2**t for t in steps])[:, None]
    t = opt.rest_step + 1
    # an inf or huge gradient overflows or divides inf by inf here; the
    # staged values are checked below, so the error is the one raised
    with np.errstate(over="ignore", invalid="ignore"):
        new, first, second = _moment_step(theta, grad, opt.layer_m[active], opt.layer_v[active], c1, c2, opt)
        new_rest, rest_first, rest_second = _moment_step(
            rest, rest_grad, opt.rest_m, opt.rest_v, 1.0 - BETA1**t, 1.0 - BETA2**t, opt
        )
    bad = _unusable(new, second).any(axis=1)
    bad_rest = _unusable(new_rest, rest_second).any()
    if at is not None and (bad.any() or bad_rest):
        raise ValueError(f"non-finite update at {at}")
    if bad.any():
        raise ValueError(f"non-finite update for layer {active[bad][0]}")
    if bad_rest:
        raise ValueError("non-finite update for the head")
    rows[active] = new
    rest[...] = new_rest
    opt.layer_m[active] = first
    opt.layer_v[active] = second
    for lid in active:
        opt.layer_step[lid] += 1
    opt.rest_m, opt.rest_v, opt.rest_step = rest_first, rest_second, t


def apply_update(
    model: Model, grads: Gradients, mask: LayerMask, opt: OptimizerState
) -> None:
    """Step the active attention layers and always the rest (for a binary
    head, the head) through ``staged_step``.  Masked layers' parameters and
    optimizer moments are left bit-untouched."""
    n_layers = model.trainable.shape[0]
    if mask.bits.shape[0] != n_layers:
        raise ValueError(f"mask covers {mask.bits.shape[0]} layers, model has {n_layers}")
    staged_step(model, grads, np.flatnonzero(mask.bits), opt)
