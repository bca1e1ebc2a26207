from __future__ import annotations

import math

import numpy as np
import pytest

from reference_losses import pairwise_orth_loss, pairwise_orth_loss_grads
from subtune import linalg
from subtune.decomposition import DecomposedLayer, DecompositionConfig, decompose, recompose
from subtune.losses import LossWeights, cls_loss, orth_loss, orth_loss_grads, spec_loss, total_loss


def fresh_layer(seed: int = 0, size: int = 10, n_subspaces: int = 3):
    rng = linalg.make_rng(seed)
    return decompose(rng.normal(size=(size, size)), DecompositionConfig(n_subspaces=n_subspaces))


def permute_groups(layer, order) -> DecomposedLayer:
    """The layer with its artifact subspaces reordered: a permutation of the
    tail's column blocks, and of ``ranks``."""
    groups = layer.artifacts
    us = [groups[i].u for i in order]
    ss = [groups[i].s for i in order]
    vs = [groups[i].v for i in order]
    params = np.concatenate([np.hstack(us).ravel(), np.concatenate(ss), np.hstack(vs).ravel()])
    ranks = tuple(layer.ranks[i] for i in order)
    return DecomposedLayer(layer.layer_id, layer.semantic, ranks, params, layer.pretrained_frob_sq)


def test_orth_loss_zero_at_init() -> None:
    for seed in range(5):
        assert orth_loss(fresh_layer(seed)) <= 1e-18


def test_orth_loss_single_subspace_is_zero() -> None:
    layer = fresh_layer(1, n_subspaces=1)
    assert orth_loss(layer) == 0.0


def test_orth_loss_duplicated_left_factor() -> None:
    # two rank-1 subspaces sharing a left factor: unit-norm overlap gives 1.0
    w = np.diag([4.0, 2.0, 1.0])
    layer = decompose(w, DecompositionConfig(n_subspaces=2, rank_policy="fixed", fixed_rank=1))
    assert all(a.rank == 1 for a in layer.artifacts)
    layer.artifacts[1].u[...] = layer.artifacts[0].u
    assert abs(orth_loss(layer) - 1.0) <= 1e-12


def test_orth_loss_symmetric_under_reordering() -> None:
    rng = linalg.make_rng(9)
    layer = fresh_layer(3, n_subspaces=4)
    for a in layer.artifacts:
        a.u[...] += 0.1 * rng.normal(size=a.u.shape)
        a.v[...] += 0.1 * rng.normal(size=a.v.shape)
    before = orth_loss(layer)
    layer = permute_groups(layer, (2, 0, 3, 1))
    assert abs(orth_loss(layer) - before) <= 1e-12


@pytest.mark.parametrize(
    "shape, fixed_rank, ranks",
    [
        ((10, 10), 3, [7]),
        ((12, 16), 5, [4, 3]),
        ((16, 12), 5, [3, 2, 2]),
        ((16, 16), 8, [2, 2, 2, 1, 1]),
        ((16, 16), 3, [2, 2, 2, 2, 1, 1, 1, 1, 1]),
    ],
)
def test_orth_value_and_gradients_match_pairwise_reference(shape, fixed_rank, ranks) -> None:
    rng = linalg.make_rng(sum(ranks) + len(ranks))
    cfg = DecompositionConfig(n_subspaces=len(ranks), rank_policy="fixed", fixed_rank=fixed_rank)
    layer = decompose(rng.normal(size=shape), cfg)
    assert [a.rank for a in layer.artifacts] == ranks
    # leave the orthonormal point so every pair overlaps
    for a in layer.artifacts:
        a.u[...] += 0.3 * rng.normal(size=a.u.shape)
        a.v[...] += 0.3 * rng.normal(size=a.v.shape)
    want = pairwise_orth_loss(layer)
    assert abs(orth_loss(layer) - want) <= 1e-12
    scale = 0.37
    value, du, dv = orth_loss_grads(layer, scale)
    assert abs(value - want) <= 1e-12
    if len(ranks) > 1:
        assert want > 0.01
    lo = 0
    for a, (ref_du, ref_dv) in zip(layer.artifacts, pairwise_orth_loss_grads(layer, scale)):
        assert np.max(np.abs(du[:, lo : lo + a.rank] - ref_du)) <= 1e-12
        assert np.max(np.abs(dv[:, lo : lo + a.rank] - ref_dv)) <= 1e-12
        lo += a.rank


def test_spec_loss_zero_at_init_and_energy_identity() -> None:
    layer = fresh_layer(4)
    assert spec_loss(layer) <= 1e-9
    # orthonormal factors: energy is the sum of squared strengths, so moving
    # one strength 2 -> 3 moves the loss by |9 - 4|
    w = np.diag([5.0, 2.0, 1.0, 0.5])
    layer2 = decompose(w, DecompositionConfig(n_subspaces=2, rank_policy="fixed", fixed_rank=1))
    target = next(a for a in layer2.artifacts if abs(a.s[0] - 2.0) < 1e-12)
    target.s[0] = 3.0
    assert abs(spec_loss(layer2) - 5.0) <= 1e-9


def test_spec_loss_all_strengths_zeroed() -> None:
    layer = fresh_layer(5)
    tail_energy = sum(float(np.sum(a.s**2)) for a in layer.artifacts)
    for a in layer.artifacts:
        a.s[:] = 0.0
    assert abs(spec_loss(layer) - tail_energy) <= 1e-8


def test_spec_loss_invariant_under_product_preserving_changes() -> None:
    layer = fresh_layer(6)
    before = spec_loss(layer)
    # sign flips of paired columns and subspace reordering keep the product
    for a in layer.artifacts:
        a.u[...] = -a.u
        a.v[...] = -a.v
    permute_groups(layer, tuple(reversed(range(layer.n_subspaces))))
    assert abs(spec_loss(layer) - before) <= 1e-12
    w_before = recompose(layer)
    assert np.allclose(w_before, recompose(layer), atol=1e-15)


def test_cls_loss_examples() -> None:
    p = np.full(6, 0.5)
    y = np.array([1.0, 0, 1, 0, 1, 0])
    assert abs(cls_loss(p, y) - math.log(2.0)) <= 1e-12
    exact = cls_loss(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
    assert exact <= 1e-11
    two = cls_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
    assert abs(two - (-(math.log(0.9) + math.log(0.8)) / 2.0)) <= 1e-12
    assert abs(two - 0.164252) <= 1e-6


def test_cls_loss_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        cls_loss(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        cls_loss(np.array([0.5]), np.array([2.0]))
    with pytest.raises(ValueError):
        cls_loss(np.array([0.5, 0.5]), np.array([1.0]))


def test_total_loss_combination() -> None:
    w = LossWeights(orth_weight=1.0, spectral_weight=1.0)
    rep = total_loss(0.5, [0.1, 0.1], [0.2, 0.2], w)
    assert abs(rep.total - 0.8) <= 1e-12
    # each term is the mean over the layers given
    two = total_loss(0.0, [0.1, 0.3], [0.2, 0.6], w)
    assert (two.orth_mean, two.spec_mean) == pytest.approx((0.2, 0.4))
    zero = total_loss(0.7, [0.3], [0.4], LossWeights(0.0, 0.0))
    assert zero.total == 0.7
    # report invariant
    assert abs(rep.total - (rep.cls + 1.0 * rep.orth_mean + 1.0 * rep.spec_mean)) <= 1e-12


def test_total_loss_at_freshly_decomposed_layers() -> None:
    layers = [fresh_layer(s) for s in range(3)]
    rep = total_loss(
        0.42,
        [orth_loss(l) for l in layers],
        [spec_loss(l) for l in layers],
        LossWeights(),
    )
    assert abs(rep.total - rep.cls) <= 1e-9


def test_total_loss_rejects_empty_or_ragged() -> None:
    with pytest.raises(ValueError):
        total_loss(0.1, [], [], LossWeights())
    with pytest.raises(ValueError):
        total_loss(0.1, [0.0], [], LossWeights())
    with pytest.raises(ValueError):
        total_loss(0.1, [0.0], [0.0], LossWeights(orth_weight=-1.0))
