"""Central finite-difference verification of the hand-derived gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .losses import LossWeights
from .model import Model


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_index: int
    n_coords: int
    tol: float
    passed: bool
    warning: str | None = None


def grad_check(
    model: Model,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: LossWeights | None = None,
    h: float = 1e-5,
    tol: float = 1e-5,
    mode: str = "finetune",
) -> GradCheckReport:
    """Compare analytic gradients against central differences coordinate by
    coordinate.  Relative error uses max(|analytic|, |numeric|, 1e-3) as
    denominator so near-zero coordinates are compared at a sane absolute
    scale."""
    arrays = model_mod.trainable_arrays(model, mode)
    theta = model_mod.flat_vector(arrays)
    if theta.size > 10_000:
        raise ValueError(f"model too large for exhaustive checking: {theta.size} coordinates")

    _, grads = model_mod.backward(model, inputs, labels, weights)
    analytic = model_mod.flat_vector(model_mod.trainable_arrays(model, mode, grads))

    def loss_at(vec: np.ndarray) -> float:
        model_mod.set_flat(arrays, vec)
        return model_mod.backward(model, inputs, labels, weights)[0].total

    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        up = loss_at(bumped)
        bumped[i] = theta[i] - h
        down = loss_at(bumped)
        numeric[i] = (up - down) / (2.0 * h)
    model_mod.set_flat(arrays, theta)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    warning = None
    if h > 1e-2:
        warning = f"step {h} is large; truncation error may dominate the comparison"
    return GradCheckReport(
        max_rel_err=float(rel[worst]),
        worst_index=worst,
        n_coords=int(theta.size),
        tol=tol,
        passed=bool(rel[worst] <= tol),
        warning=warning,
    )


def jitter_trainables(model: Model, rng: np.random.Generator, scale: float = 0.05, mode: str = "finetune") -> None:
    """Move trainable parameters to a generic point.  The spectral penalty is
    an absolute value sitting exactly at its kink after decomposition, where
    finite differences are meaningless; checks run from a nearby offset."""
    arrays = model_mod.trainable_arrays(model, mode)
    theta = model_mod.flat_vector(arrays)
    model_mod.set_flat(arrays, theta + scale * rng.normal(size=theta.shape))
