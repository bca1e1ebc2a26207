"""Selective layer masking: streamed per-layer gradient moments, the
bias-variance score derived from them, top-budget mask construction, and
masked parameter updates with per-layer frozen optimizer state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model as model_mod
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


@dataclass
class GradientStats:
    """EMA first and second moments of each layer's flattened gradient.  The
    second moment here is the smoothed elementwise square, not a singular
    value."""

    first: list[np.ndarray]
    second: list[np.ndarray]
    step: int = 0

    @property
    def n_layers(self) -> int:
        return len(self.first)


def init_stats(layer_sizes: Sequence[int]) -> GradientStats:
    return GradientStats(
        first=[np.zeros(n) for n in layer_sizes],
        second=[np.zeros(n) for n in layer_sizes],
    )


def update_stats(
    stats: GradientStats, grads: Sequence[np.ndarray], cfg: StatsConfig
) -> GradientStats:
    """One EMA step over every layer, masked or not.  Mutates ``stats``."""
    cfg.validate()
    if len(grads) != stats.n_layers:
        raise ValueError(f"got {len(grads)} gradient vectors for {stats.n_layers} layers")
    a = cfg.ema_coeff
    for i, g in enumerate(grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != stats.first[i].shape:
            raise ValueError(
                f"layer {i} gradient shape {g.shape} does not match stats {stats.first[i].shape}"
            )
        stats.first[i] = a * stats.first[i] + (1.0 - a) * g
        stats.second[i] = a * stats.second[i] + (1.0 - a) * g * g
    stats.step += 1
    return stats


def compute_bvg(stats: GradientStats, cfg: StatsConfig) -> np.ndarray:
    """Per-layer squared-bias over floored variance score."""
    cfg.validate()
    out = np.zeros(stats.n_layers)
    for i in range(stats.n_layers):
        mu = stats.first[i]
        num = float(np.sum(mu * mu))
        den = float(np.sum(stats.second[i] - mu * mu))
        out[i] = num / max(den, cfg.moment_floor)
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
    bias correction included, is bit-frozen while it sits out."""

    mode: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    layer_m: list[np.ndarray] = field(default_factory=list)
    layer_v: list[np.ndarray] = field(default_factory=list)
    layer_step: list[int] = field(default_factory=list)
    head_m: np.ndarray | None = None
    head_v: np.ndarray | None = None
    head_step: int = 0


def init_optimizer(
    mode: str, learning_rate: float, layer_sizes: Sequence[int], head_size: int
) -> OptimizerState:
    if mode not in ("plain", "adaptive"):
        raise ValueError(f"optimizer mode must be 'plain' or 'adaptive', got {mode!r}")
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    opt = OptimizerState(mode=mode, learning_rate=learning_rate)
    opt.layer_step = [0] * len(layer_sizes)
    if mode == "adaptive":
        opt.layer_m = [np.zeros(n) for n in layer_sizes]
        opt.layer_v = [np.zeros(n) for n in layer_sizes]
        opt.head_m = np.zeros(head_size)
        opt.head_v = np.zeros(head_size)
    return opt


def adaptive_step(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    opt: OptimizerState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias-corrected adaptive-moment update; returns the new parameters and
    moments and leaves its arguments untouched.  ``step`` is the
    already-incremented per-stream counter."""
    m = m * opt.beta1
    m += (1.0 - opt.beta1) * grad
    v = v * opt.beta2
    v += (1.0 - opt.beta2) * grad * grad
    m_hat = m / (1.0 - opt.beta1**step)
    v_hat = v / (1.0 - opt.beta2**step)
    return theta - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps), m, v


def _stage_step(
    theta: np.ndarray, grad: np.ndarray, opt: OptimizerState, stream: int | None
) -> tuple[np.ndarray, tuple | None]:
    """New parameters and, in adaptive mode, the new (m, v, step) of one
    stream (None: the head; else a layer index), without modifying ``opt``;
    ``_commit_stream`` writes the state back."""
    if opt.mode == "plain":
        return theta - opt.learning_rate * grad, None
    if stream is None:
        m, v, step = opt.head_m, opt.head_v, opt.head_step + 1
    else:
        m, v, step = opt.layer_m[stream], opt.layer_v[stream], opt.layer_step[stream] + 1
    new, m, v = adaptive_step(theta, grad, m, v, step, opt)
    return new, (m, v, step)


def _commit_stream(opt: OptimizerState, stream: int | None, state: tuple | None) -> None:
    if state is None:
        return
    m, v, step = state
    if stream is None:
        opt.head_m, opt.head_v, opt.head_step = m, v, step
    else:
        opt.layer_m[stream], opt.layer_v[stream], opt.layer_step[stream] = m, v, step


def _check_finite(what: str, new: np.ndarray, state: tuple | None) -> None:
    # a non-finite first moment always makes ``new`` non-finite, but a
    # second moment that overflowed to inf leaves ``new`` finite
    if not (np.isfinite(new).all() and (state is None or np.isfinite(state[1]).all())):
        raise ValueError(f"non-finite update for {what}")


def apply_update(
    model: Model, grads: Gradients, mask: LayerMask, opt: OptimizerState
) -> None:
    """Step the active attention layers and always the head.  Masked layers'
    parameters and optimizer moments are left bit-untouched.  All or
    nothing: every new value is staged and checked before any is written, so
    a non-finite update raises with the model and ``opt`` unchanged."""
    params = model_mod.trainable_arrays(model)
    grad_arrays = model_mod.trainable_arrays(grads)
    n_layers = len(params) - 1
    if mask.bits.shape[0] != n_layers:
        raise ValueError(f"mask covers {mask.bits.shape[0]} layers, model has {n_layers}")
    # stream None is the head, the last array
    streams = [lid for lid in range(n_layers) if mask.bits[lid]] + [None]
    staged = []
    for stream in streams:
        i = n_layers if stream is None else stream
        new, state = _stage_step(params[i].ravel(), grad_arrays[i].ravel(), opt, stream)
        _check_finite("the head" if stream is None else f"layer {stream}", new, state)
        staged.append((params[i], new, stream, state))
    for theta, new, stream, state in staged:
        theta[...] = new.reshape(theta.shape)
        _commit_stream(opt, stream, state)
