"""Pairwise reference for the orthogonality penalty: one Gram product per
ordered pair of artifact subspaces, in plain loops, as a second opinion
against the single masked Gram per factor side in ``subtune.losses``.
Slow and only for tests."""

from __future__ import annotations

import numpy as np

from subtune.decomposition import DecomposedLayer


def pairwise_orth_loss(layer: DecomposedLayer) -> float:
    k = layer.n_subspaces
    if k < 2:
        return 0.0
    acc = 0.0
    for i in range(k):
        ai = layer.artifacts[i]
        for j in range(i + 1, k):
            aj = layer.artifacts[j]
            gu = ai.u.T @ aj.u
            gv = ai.v.T @ aj.v
            acc += float(np.sum(gu * gu)) + float(np.sum(gv * gv))
    return 2.0 / (k * (k - 1)) * acc


def pairwise_orth_loss_grads(layer: DecomposedLayer, scale: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of ``scale * orth_loss`` w.r.t. each artifact's (U, V)."""
    k = layer.n_subspaces
    out: list[tuple[np.ndarray, np.ndarray]] = []
    if k < 2:
        return [(np.zeros_like(a.u), np.zeros_like(a.v)) for a in layer.artifacts]
    coef = scale * 2.0 / (k * (k - 1))
    for i in range(k):
        ai = layer.artifacts[i]
        du = np.zeros_like(ai.u)
        dv = np.zeros_like(ai.v)
        for j in range(k):
            if j == i:
                continue
            aj = layer.artifacts[j]
            du += 2.0 * (aj.u @ (aj.u.T @ ai.u))
            dv += 2.0 * (aj.v @ (aj.v.T @ ai.v))
        out.append((coef * du, coef * dv))
    return out
