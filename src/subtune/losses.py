"""Objective terms: binary cross-entropy, cross-subspace orthogonality
penalty, spectral energy consistency penalty, and their weighted total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomposition import DecomposedLayer, FactorStack, recompose
from .settings import check, setting

PROB_FLOOR = 1e-12


@dataclass
class LossWeights:
    orth_weight: float = setting(1.0, ge=0.0)
    spectral_weight: float = setting(1.0, ge=0.0)

    def validate(self) -> None:
        check(self, "weights")


@dataclass
class LossReport:
    cls: float
    orth_mean: float
    spec_mean: float
    total: float


def _cross_gram(tail: np.ndarray, cross_mask: np.ndarray) -> np.ndarray:
    """Gram matrix of the concatenated artifact factors with every
    same-subspace block (and any padding) zeroed by ``cross_mask``, leaving
    only cross-subspace overlaps; one Gram per layer for a stack."""
    gram = np.swapaxes(tail, -1, -2) @ tail
    gram *= cross_mask
    return gram


# Every function below takes a DecomposedLayer or a FactorStack (every layer
# of a model as stacked views) and then returns one value per layer.  A
# stacked product or sum rounds exactly as the same call on each layer's
# padded factors.


def orth_loss(
    layer: DecomposedLayer | FactorStack, grams: tuple[np.ndarray, np.ndarray] | None = None
) -> float | np.ndarray:
    """Pairwise squared Frobenius overlap of artifact factor bases, averaged
    over the pair count.  Zero for a single subspace.  ``grams`` are the
    cross Grams of the left and right factors, for a caller that has built
    them already.

    The right-factor term is computed as ||V_i^T V_j||_F^2 on column-stored V;
    with row-stored right factors the same quantity reads ||V_i V_j^T||_F^2,
    so the two spellings are one Gram matrix in different conventions.
    """
    if grams is None:
        grams = (_cross_gram(layer.u, layer.cross_mask), _cross_gram(layer.v, layer.cross_mask))
    gram_u, gram_v = grams
    # each unordered pair appears twice in the symmetric Grams, so the
    # 2 / (K(K-1)) pair average becomes pair_scale = 1 / (K(K-1))
    sq_u = np.sum(gram_u * gram_u, axis=(-2, -1))
    sq_v = np.sum(gram_v * gram_v, axis=(-2, -1))
    return (sq_u + sq_v) * layer.pair_scale


def orth_loss_grads(
    layer: DecomposedLayer | FactorStack, scale: float
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """``orth_loss`` and the gradients of ``scale * orth_loss`` w.r.t. the
    whole left and right tail factors."""
    u, v, mask = layer.u, layer.v, layer.cross_mask
    gram_u = _cross_gram(u, mask)
    gram_v = _cross_gram(v, mask)
    coef = (4.0 * scale * np.asarray(layer.pair_scale))[..., None, None]
    value = orth_loss(layer, (gram_u, gram_v))
    return value, coef * (u @ gram_u), coef * (v @ gram_v)


def spec_loss(
    layer: DecomposedLayer | FactorStack, energy: float | np.ndarray | None = None
) -> float | np.ndarray:
    """Absolute drift of the effective weight's squared Frobenius energy from
    the pretrained value.  ``energy`` is that squared norm, for a caller that
    has summed it already (``model.forward`` has then checked the weights
    through its activations); a stack needs it."""
    if energy is None:
        energy = linalg.frobenius_sq(recompose(layer))
    return abs(energy - layer.pretrained_frob_sq)


def cls_loss(p: np.ndarray, y: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"probability/label shapes differ: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ValueError("cannot score an empty batch")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    pc = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


def total_loss(
    cls: float,
    orth_values: list[float],
    spec_values: list[float],
    weights: LossWeights,
) -> LossReport:
    if len(orth_values) != len(spec_values) or not orth_values:
        raise ValueError("need one orthogonality and one spectral value per decomposed layer")
    weights.validate()
    orth_mean = float(np.mean(orth_values))
    spec_mean = float(np.mean(spec_values))
    total = cls + weights.orth_weight * orth_mean + weights.spectral_weight * spec_mean
    return LossReport(cls=cls, orth_mean=orth_mean, spec_mean=spec_mean, total=total)
