"""Selective layer masking: streamed per-layer gradient moments, the
bias-variance score derived from them, top-budget mask construction, and
masked parameter updates with per-layer frozen optimizer state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decomposition import TrainableLayout
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


def _layout(layers: TrainableLayout | Sequence[int]) -> TrainableLayout:
    return layers if isinstance(layers, TrainableLayout) else TrainableLayout.of_sizes(layers)


@dataclass
class GradientStats:
    """EMA first and second moments of each layer's flattened gradient.  The
    second moment here is the smoothed elementwise square, not a singular
    value.  ``first_moment``/``second_moment`` cover every layer in
    ``layout``; ``first[i]``/``second[i]`` are layer i's views of them."""

    layout: TrainableLayout
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    first: list[np.ndarray] = field(init=False, repr=False)
    second: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.first = self.layout.layer_views(self.first_moment)
        self.second = self.layout.layer_views(self.second_moment)

    @property
    def n_layers(self) -> int:
        return self.layout.n_layers


def init_stats(layers: TrainableLayout | Sequence[int]) -> GradientStats:
    """Zero moments in a model's ``layout``, or for layers given by size."""
    layout = _layout(layers)
    return GradientStats(layout, np.zeros(layout.size), np.zeros(layout.size))


def _gradient_buffer(layout: TrainableLayout, grads: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """``grads`` as one buffer in ``layout``: a buffer passes through, one
    vector per layer (by layer id) is packed."""
    if isinstance(grads, np.ndarray):
        if grads.shape != (layout.size,):
            raise ValueError(
                f"gradient buffer of shape {grads.shape} does not match the "
                f"{layout.size} values of the stats"
            )
        return grads
    if len(grads) != layout.n_layers:
        raise ValueError(f"got {len(grads)} gradient vectors for {layout.n_layers} layers")
    vectors = [np.asarray(g, dtype=np.float64) for g in grads]
    for i, g in enumerate(vectors):
        if g.shape != (layout.sizes[i],):
            raise ValueError(
                f"layer {i} gradient shape {g.shape} does not match stats ({layout.sizes[i]},)"
            )
    return np.concatenate([vectors[lid] for lid in layout.order])


def update_stats(
    stats: GradientStats, grads: np.ndarray | Sequence[np.ndarray], cfg: StatsConfig
) -> GradientStats:
    """One EMA step over every layer, masked or not.  ``grads`` is a
    gradient buffer in the stats' layout (``Gradients.trainable``) or one
    vector per layer.  Mutates ``stats``."""
    cfg.validate()
    g = _gradient_buffer(stats.layout, grads)
    a = cfg.ema_coeff
    # a * m + (1 - a) * g and a * v + ((1 - a) * g) * g, in place
    scaled = (1.0 - a) * g
    stats.first_moment *= a
    stats.first_moment += scaled
    scaled *= g
    stats.second_moment *= a
    stats.second_moment += scaled
    stats.step += 1
    return stats


def compute_bvg(stats: GradientStats, cfg: StatsConfig) -> np.ndarray:
    """Per-layer squared-bias over floored variance score, one row sum per
    layer group (a row sums exactly as the layer's own vector would)."""
    cfg.validate()
    out = np.zeros(stats.n_layers)
    for group in stats.layout.groups:
        mu = group.rows(stats.first_moment)
        sq = mu * mu
        num = sq.sum(axis=1)
        np.subtract(group.rows(stats.second_moment), sq, out=sq)
        out[group.ids] = num / np.maximum(sq.sum(axis=1), cfg.moment_floor)
    return out


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
    mode ``m``/``v`` hold every layer's moments in ``layout`` and
    ``layer_m[i]``/``layer_v[i]`` are layer i's views of them."""

    mode: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    layout: TrainableLayout | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    layer_m: list[np.ndarray] = field(default_factory=list)
    layer_v: list[np.ndarray] = field(default_factory=list)
    layer_step: list[int] = field(default_factory=list)
    head_m: np.ndarray | None = None
    head_v: np.ndarray | None = None
    head_step: int = 0


def init_optimizer(
    mode: str, learning_rate: float, layers: TrainableLayout | Sequence[int], head_size: int
) -> OptimizerState:
    """Fresh state for a model's ``layout`` (or layers given by size)."""
    if mode not in ("plain", "adaptive"):
        raise ValueError(f"optimizer mode must be 'plain' or 'adaptive', got {mode!r}")
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    layout = _layout(layers)
    opt = OptimizerState(mode=mode, learning_rate=learning_rate, layout=layout)
    opt.layer_step = [0] * layout.n_layers
    if mode == "adaptive":
        opt.m = np.zeros(layout.size)
        opt.v = np.zeros(layout.size)
        opt.layer_m = layout.layer_views(opt.m)
        opt.layer_v = layout.layer_views(opt.v)
        opt.head_m = np.zeros(head_size)
        opt.head_v = np.zeros(head_size)
    return opt


def _moment_step(theta, grad, m, v, c1, c2, opt: OptimizerState):
    """Bias-corrected adaptive-moment update with corrections ``c1`` =
    1 - beta1**t and ``c2`` = 1 - beta2**t (floats, or one per element);
    returns the new parameters and moments and leaves its arguments
    untouched."""
    m = m * opt.beta1
    m += (1.0 - opt.beta1) * grad
    v = v * opt.beta2
    v += (1.0 - opt.beta2) * grad * grad
    m_hat = m / c1
    v_hat = v / c2
    return theta - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps), m, v


def adaptive_step(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    opt: OptimizerState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive-moment update of one stream; ``step`` is its
    already-incremented counter."""
    return _moment_step(theta, grad, m, v, 1.0 - opt.beta1**step, 1.0 - opt.beta2**step, opt)


def apply_update(
    model: Model, grads: Gradients, mask: LayerMask, opt: OptimizerState
) -> None:
    """Step the active attention layers and always the head.  Masked layers'
    parameters and optimizer moments are left bit-untouched.  The active
    layers' values are gathered from the model buffer and stepped as one
    array, each element with its own layer's bias corrections.  All or
    nothing: every new value is staged and checked before any is written,
    so a non-finite update raises with the model and ``opt`` unchanged."""
    layout = model.layout
    if mask.bits.shape[0] != layout.n_layers:
        raise ValueError(f"mask covers {mask.bits.shape[0]} layers, model has {layout.n_layers}")
    if opt.layout is None or not layout.same_positions(opt.layout):
        raise ValueError("optimizer state is laid out for other layers than the model's")
    bits = mask.bits.astype(bool)
    picked = layout.element_mask(bits)
    # active layer ids in buffer order, and their value counts
    active = layout.order[bits[layout.order]]
    counts = layout.sizes[active]
    theta = model.trainable[picked]
    grad = grads.trainable[picked]
    head, head_grad = model.head.ravel(), grads.head.ravel()
    if opt.mode == "plain":
        new = theta - opt.learning_rate * grad
        new_head = head - opt.learning_rate * head_grad
        second = head_second = None
    else:
        steps = [opt.layer_step[lid] + 1 for lid in active]
        c1 = np.repeat([1.0 - opt.beta1**t for t in steps], counts)
        c2 = np.repeat([1.0 - opt.beta2**t for t in steps], counts)
        new, first, second = _moment_step(theta, grad, opt.m[picked], opt.v[picked], c1, c2, opt)
        new_head, head_first, head_second = adaptive_step(
            head, head_grad, opt.head_m, opt.head_v, opt.head_step + 1, opt
        )
    # a non-finite first moment always makes the parameters non-finite, but
    # a second moment that overflowed to inf leaves them finite
    bad = ~np.isfinite(new)
    if second is not None:
        bad |= ~np.isfinite(second)
    if bad.any():
        lid = int(np.repeat(active, counts)[bad].min())
        raise ValueError(f"non-finite update for layer {lid}")
    if not (np.isfinite(new_head).all() and (head_second is None or np.isfinite(head_second).all())):
        raise ValueError("non-finite update for the head")
    model.trainable[picked] = new
    model.head[...] = new_head.reshape(model.head.shape)
    if opt.mode == "adaptive":
        opt.m[picked] = first
        opt.v[picked] = second
        for lid in active:
            opt.layer_step[lid] += 1
        opt.head_m, opt.head_v, opt.head_step = head_first, head_second, opt.head_step + 1
