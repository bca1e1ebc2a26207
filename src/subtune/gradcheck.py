"""Central finite-difference verification of the hand-derived gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .losses import LossWeights
from .model import Model

# central-difference step, pass bound on the relative error, and the spread
# of the offset that moves the trainables off the spectral penalty's kink
_STEP = 1e-5
_TOL = 1e-5
_JITTER = 0.05


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_index: int
    n_coords: int
    tol: float
    passed: bool


def grad_check(
    model: Model,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: LossWeights | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences at every
    coordinate of ``model.params`` that ``backward`` differentiates
    (``Layout.trained``), in buffer order.  Relative error uses
    max(|analytic|, |numeric|, 1e-3) as denominator so near-zero
    coordinates are compared at a sane absolute scale."""
    positions = model.layout.trained
    if positions.size > 10_000:
        raise ValueError(f"model too large for exhaustive checking: {positions.size} coordinates")

    _, grads = model_mod.backward(model, inputs, labels, weights)
    analytic = grads.params[positions]

    numeric = np.zeros(positions.size)
    for i, at in enumerate(positions):
        theta = model.params[at]
        model.params[at] = theta + _STEP
        up = model_mod.backward(model, inputs, labels, weights)[0].total
        model.params[at] = theta - _STEP
        down = model_mod.backward(model, inputs, labels, weights)[0].total
        model.params[at] = theta
        numeric[i] = (up - down) / (2.0 * _STEP)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradCheckReport(
        max_rel_err=float(rel[worst]),
        worst_index=worst,
        n_coords=int(positions.size),
        tol=_TOL,
        passed=bool(rel[worst] <= _TOL),
    )


def jitter_trainables(model: Model, rng: np.random.Generator) -> None:
    """Move the trained positions (``Layout.trained``) of ``model.params``
    to a generic point.  The spectral penalty is an absolute value sitting
    exactly at its kink after decomposition, where finite differences are
    meaningless; checks run from a nearby offset."""
    positions = model.layout.trained
    model.params[positions] += _JITTER * rng.normal(size=positions.shape)
