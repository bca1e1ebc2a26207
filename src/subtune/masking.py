"""Selective layer masking: streamed per-layer gradient moments, the
bias-variance score derived from them, top-budget mask construction, and
the one optimizer step, with per-layer frozen state, that both the masked
fine-tune update and pretraining (every layer active) take."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Gradients, Model


@dataclass
class StatsConfig:
    ema_coeff: float = 0.9
    moment_floor: float = 1e-12
    warmup_steps: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.ema_coeff < 1.0:
            raise ValueError(f"ema_coeff must be in [0, 1), got {self.ema_coeff}")
        if self.moment_floor <= 0.0:
            raise ValueError(f"moment_floor must be > 0, got {self.moment_floor}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


def _moment_shape(sizes: Sequence[int]) -> tuple[int, int]:
    """(n_layers, P) of per-layer state for layers of the given sizes, which
    must be equal: one row per layer, as in ``Model.trainable``."""
    sizes = [int(n) for n in sizes]
    if len(set(sizes)) > 1:
        raise ValueError(f"layer sizes must all be equal, got {sorted(set(sizes))}")
    return len(sizes), sizes[0] if sizes else 0


@dataclass
class GradientStats:
    """EMA first and second moments of each layer's flattened gradient, one
    row per layer (``first[i]``, ``second[i]``).  The second moment here is
    the smoothed elementwise square, not a singular value."""

    first: np.ndarray
    second: np.ndarray
    step: int = 0


def init_stats(sizes: Sequence[int]) -> GradientStats:
    """Zero moments for layers of the given (equal) sizes."""
    shape = _moment_shape(sizes)
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
    stats.step += 1
    return stats


def compute_bvg(stats: GradientStats, cfg: StatsConfig) -> np.ndarray:
    """Per-layer squared-bias over floored variance score, one row sum per
    layer (a row sums exactly as the layer's own vector would)."""
    cfg.validate()
    sq = stats.first * stats.first
    num = sq.sum(axis=1)
    np.subtract(stats.second, sq, out=sq)
    return num / np.maximum(sq.sum(axis=1), cfg.moment_floor)


@dataclass
class LayerMask:
    bits: np.ndarray
    budget: int

    @property
    def active(self) -> int:
        return int(self.bits.sum())


def build_mask(bvg: np.ndarray, budget: int, step: int, cfg: StatsConfig) -> LayerMask:
    """All-active during warmup; afterwards the ``budget`` largest scores win,
    ties going to the lower layer id."""
    cfg.validate()
    scores = np.asarray(bvg, dtype=np.float64)
    n = scores.shape[0]
    if budget < 1:
        raise ValueError(f"active-layer budget must be >= 1, got {budget}")
    bits = np.zeros(n, dtype=np.int8)
    if step <= cfg.warmup_steps:
        bits[:] = 1
    else:
        take = min(budget, n)
        order = np.argsort(-scores, kind="stable")
        bits[order[:take]] = 1
    return LayerMask(bits=bits, budget=budget)


@dataclass
class OptimizerState:
    """Plain gradient-descent or adaptive-moment updates of the gradient
    buffer ``backward`` forms: the (n_layers, P) rows, one per attention
    layer, and the rest past them (the head for a binary head; the head,
    ``token_embed`` and every frozen slot for a pretraining head).  Every
    layer and the rest own an independent step counter, so a masked
    layer's state, bias correction included, is bit-frozen while it sits
    out.  In adaptive mode ``layer_m``/``layer_v`` hold the rows' moments,
    one row per layer, and ``rest_m``/``rest_v`` the rest's."""

    mode: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    layer_m: np.ndarray | None = None
    layer_v: np.ndarray | None = None
    layer_step: list[int] = field(default_factory=list)
    rest_m: np.ndarray | None = None
    rest_v: np.ndarray | None = None
    rest_step: int = 0


def init_optimizer(mode: str, learning_rate: float, model: Model) -> OptimizerState:
    """Fresh state for the gradients ``backward`` forms for ``model``: its
    rows and head for a binary head, all of ``model.params`` for a
    pretraining head."""
    if mode not in ("plain", "adaptive"):
        raise ValueError(f"optimizer mode must be 'plain' or 'adaptive', got {mode!r}")
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    shape = model.trainable.shape
    opt = OptimizerState(mode=mode, learning_rate=learning_rate, layer_step=[0] * shape[0])
    if mode == "adaptive":
        rest = model.head.size if model.n_outputs == 1 else model.params.size - model.trainable.size
        opt.layer_m, opt.layer_v = np.zeros(shape), np.zeros(shape)
        opt.rest_m, opt.rest_v = np.zeros(rest), np.zeros(rest)
    return opt


def _moment_step(theta, grad, m, v, c1, c2, opt: OptimizerState):
    """Bias-corrected adaptive-moment update with corrections ``c1`` =
    1 - beta1**t and ``c2`` = 1 - beta2**t (floats, or one per row);
    returns the new parameters and moments and leaves its arguments
    untouched."""
    m = m * opt.beta1
    m += (1.0 - opt.beta1) * grad
    v = v * opt.beta2
    v += (1.0 - opt.beta2) * grad * grad
    m_hat = m / c1
    v_hat = v / c2
    return theta - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps), m, v


def _unusable(new: np.ndarray, second: np.ndarray | None) -> np.ndarray:
    """Where a staged update must not be written: a non-finite parameter, or
    a second moment that overflowed to inf (which leaves the parameters
    finite but freezes the coordinate for good)."""
    bad = ~np.isfinite(new)
    if second is not None:
        bad |= ~np.isfinite(second)
    return bad


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
    if len(opt.layer_step) != rows.shape[0] or (opt.layer_m is not None and opt.layer_m.shape != rows.shape):
        raise ValueError("optimizer state is shaped for other layers than the model's")
    theta, grad = rows[active], grads.trainable[active]
    rest = model.params[rows.size : grads.params.size]
    rest_grad = grads.params[rows.size :]
    if opt.mode == "plain":
        new = theta - opt.learning_rate * grad
        new_rest = rest - opt.learning_rate * rest_grad
        second = rest_second = None
    else:
        steps = [opt.layer_step[lid] + 1 for lid in active]
        c1 = np.array([1.0 - opt.beta1**t for t in steps])[:, None]
        c2 = np.array([1.0 - opt.beta2**t for t in steps])[:, None]
        new, first, second = _moment_step(
            theta, grad, opt.layer_m[active], opt.layer_v[active], c1, c2, opt
        )
        t = opt.rest_step + 1
        new_rest, rest_first, rest_second = _moment_step(
            rest, rest_grad, opt.rest_m, opt.rest_v, 1.0 - opt.beta1**t, 1.0 - opt.beta2**t, opt
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
    if opt.mode == "adaptive":
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
