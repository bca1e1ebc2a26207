"""Selective layer masking: streamed per-layer gradient moments, the
bias-variance score derived from them, top-budget mask construction, and
masked parameter updates with per-layer frozen optimizer state."""

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
    """Plain gradient-descent or adaptive-moment updates.  Every layer (and
    the head) owns an independent step counter so a masked layer's state,
    bias correction included, is bit-frozen while it sits out.  In adaptive
    mode ``layer_m``/``layer_v`` hold the moments, one row per layer."""

    mode: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    layer_m: np.ndarray | None = None
    layer_v: np.ndarray | None = None
    layer_step: list[int] = field(default_factory=list)
    head_m: np.ndarray | None = None
    head_v: np.ndarray | None = None
    head_step: int = 0


def init_optimizer(
    mode: str, learning_rate: float, sizes: Sequence[int], head_size: int
) -> OptimizerState:
    """Fresh state for layers of the given (equal) sizes."""
    if mode not in ("plain", "adaptive"):
        raise ValueError(f"optimizer mode must be 'plain' or 'adaptive', got {mode!r}")
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    shape = _moment_shape(sizes)
    opt = OptimizerState(mode=mode, learning_rate=learning_rate, layer_step=[0] * shape[0])
    if mode == "adaptive":
        opt.layer_m = np.zeros(shape)
        opt.layer_v = np.zeros(shape)
        opt.head_m = np.zeros(head_size)
        opt.head_v = np.zeros(head_size)
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


def step_buffer(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, step: int,
                opt: OptimizerState, what: str) -> None:
    """One adaptive-moment update of a whole parameter buffer and its
    moments, in place, with ``step`` the already-incremented counter.  All
    or nothing: a non-finite update raises a ValueError naming ``what`` and
    writes nothing."""
    new, first, second = _moment_step(theta, grad, m, v, 1.0 - opt.beta1**step, 1.0 - opt.beta2**step, opt)
    if _unusable(new, second).any():
        raise ValueError(f"non-finite update at {what}")
    theta[...] = new
    m[...] = first
    v[...] = second


def apply_update(
    model: Model, grads: Gradients, mask: LayerMask, opt: OptimizerState
) -> None:
    """Step the active attention layers and always the head.  Masked layers'
    parameters and optimizer moments are left bit-untouched.  The active
    layers' rows are gathered from ``model.trainable`` and stepped as one
    array, each row with its own layer's bias corrections.  All or nothing:
    every new value is staged and checked before any is written, so a
    non-finite update raises with the model and ``opt`` unchanged."""
    n_layers = model.trainable.shape[0]
    if mask.bits.shape[0] != n_layers:
        raise ValueError(f"mask covers {mask.bits.shape[0]} layers, model has {n_layers}")
    if len(opt.layer_step) != n_layers or (
        opt.layer_m is not None and opt.layer_m.shape != model.trainable.shape
    ):
        raise ValueError("optimizer state is shaped for other layers than the model's")
    active = np.flatnonzero(mask.bits)
    theta = model.trainable[active]
    grad = grads.trainable[active]
    head, head_grad = model.head.ravel(), grads.head.ravel()
    if opt.mode == "plain":
        new = theta - opt.learning_rate * grad
        new_head = head - opt.learning_rate * head_grad
        second = head_second = None
    else:
        steps = [opt.layer_step[lid] + 1 for lid in active]
        c1 = np.array([1.0 - opt.beta1**t for t in steps])[:, None]
        c2 = np.array([1.0 - opt.beta2**t for t in steps])[:, None]
        new, first, second = _moment_step(
            theta, grad, opt.layer_m[active], opt.layer_v[active], c1, c2, opt
        )
        t = opt.head_step + 1
        new_head, head_first, head_second = _moment_step(
            head, head_grad, opt.head_m, opt.head_v, 1.0 - opt.beta1**t, 1.0 - opt.beta2**t, opt
        )
    bad = _unusable(new, second)
    if bad.any():
        raise ValueError(f"non-finite update for layer {active[bad.any(axis=1)][0]}")
    if _unusable(new_head, head_second).any():
        raise ValueError("non-finite update for the head")
    model.trainable[active] = new
    model.head[...] = new_head.reshape(model.head.shape)
    if opt.mode == "adaptive":
        opt.layer_m[active] = first
        opt.layer_v[active] = second
        for lid in active:
            opt.layer_step[lid] += 1
        opt.head_m, opt.head_v, opt.head_step = head_first, head_second, opt.head_step + 1
