from __future__ import annotations

import numpy as np
import pytest

from oracles import binary_head
from subtune import linalg
from subtune.decomposition import DecompositionConfig
from subtune.losses import LossWeights
from subtune.masking import (
    LayerMask,
    StatsConfig,
    _moment_step,
    apply_update,
    build_mask,
    compute_bvg,
    init_optimizer,
    init_stats,
    staged_step,
    update_stats,
)
from subtune.model import ModelConfig, backward, derive_model, init_model


def test_ema_hand_recursion() -> None:
    cfg = StatsConfig(ema_coeff=0.5)
    stats = init_stats((1, 2))
    g = np.array([1.0, 0.0])
    update_stats(stats, [g], cfg)
    assert np.array_equal(stats.first[0], [0.5, 0.0])
    assert np.array_equal(stats.second[0], [0.5, 0.0])
    assert abs(compute_bvg(stats, cfg)[0] - 1.0) <= 1e-12
    update_stats(stats, [g], cfg)
    assert np.array_equal(stats.first[0], [0.75, 0.0])
    assert np.array_equal(stats.second[0], [0.75, 0.0])
    assert abs(compute_bvg(stats, cfg)[0] - 3.0) <= 1e-12


def test_zero_gradients_stay_zero() -> None:
    cfg = StatsConfig(ema_coeff=0.9)
    stats = init_stats((2, 4))
    for _ in range(10):
        update_stats(stats, [np.zeros(4), np.zeros(4)], cfg)
    assert all(np.all(m == 0.0) for m in stats.first)
    assert all(np.all(v == 0.0) for v in stats.second)
    assert np.array_equal(compute_bvg(stats, cfg), [0.0, 0.0])


def test_update_stats_rejects_shape_mismatch() -> None:
    stats = init_stats((1, 2))
    with pytest.raises(ValueError):
        update_stats(stats, [np.zeros(3)], StatsConfig())
    with pytest.raises(ValueError):
        update_stats(stats, [np.zeros(2), np.zeros(2)], StatsConfig())


def test_bvg_floor_handles_degenerate_variance() -> None:
    # constant gradient stream: variance estimate collapses to rounding noise
    cfg = StatsConfig(ema_coeff=0.5, moment_floor=1e-12)
    stats = init_stats((1, 1))
    for _ in range(200):
        update_stats(stats, [np.array([1.0])], cfg)
    score = compute_bvg(stats, cfg)[0]
    assert np.isfinite(score) and score > 0.0


def test_build_mask_examples() -> None:
    mask = build_mask(np.array([3.0, 1.0, 2.0]), 2, 1, 0)
    assert mask.bits.tolist() == [1, 0, 1]
    tie = build_mask(np.array([1.0, 1.0, 1.0]), 1, 1, 0)
    assert tie.bits.tolist() == [1, 0, 0]
    allon = build_mask(np.array([1.0, 2.0]), 5, 1, 0)
    assert allon.bits.tolist() == [1, 1]
    assert allon.bits.sum() == 2


def test_build_mask_warmup_and_cardinality() -> None:
    scores = np.array([0.0, 5.0, 1.0, 4.0])
    for t in (1, 2, 3):
        assert build_mask(scores, 2, t, 3).bits.tolist() == [1, 1, 1, 1]
    post = build_mask(scores, 2, 4, 3)
    assert post.bits.tolist() == [0, 1, 0, 1]
    assert post.bits.sum() == 2


def test_build_mask_tie_prefers_lower_layer_id() -> None:
    rng = linalg.make_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        scores = rng.integers(0, 3, size=n).astype(np.float64)  # many ties
        m = int(rng.integers(1, n + 1))
        bits = build_mask(scores, m, 1, 0).bits
        assert bits.sum() == min(m, n)
        # no inactive layer may beat an active one; among equals the active
        # ones must be the earliest
        active = np.flatnonzero(bits == 1)
        inactive = np.flatnonzero(bits == 0)
        for j in inactive:
            for i in active:
                assert scores[i] > scores[j] or (scores[i] == scores[j] and i < j)


def test_adaptive_step_example() -> None:
    # the first bias-corrected step has m_hat = g and v_hat = g * g, so an
    # active coordinate moves by lr * g / (|g| + eps)
    model, grads = _one_layer_setup()
    opt = init_optimizer(0.1, model)
    layer = model.blocks[0].q
    layer.params[0] = 1.0
    grads.trainable[0, 0] = 0.5
    bits = np.zeros(len(model.trainable), dtype=np.int8)
    bits[0] = 1
    apply_update(model, grads, LayerMask(bits=bits), opt)
    assert abs(layer.params[0] - (1.0 - 0.1 * 0.5 / (0.5 + 1e-8))) <= 1e-15
    assert abs(opt.layer_m[0, 0] - 0.05) <= 1e-15 and abs(opt.layer_v[0, 0] - 0.00025) <= 1e-15
    assert opt.layer_step == [1] + [0] * (len(bits) - 1) and opt.rest_step == 1
    assert not opt.layer_m[1:].any() and not opt.layer_v[1:].any()


def test_init_optimizer_allocates_zero_moments_for_what_backward_forms() -> None:
    model, _ = _one_layer_setup()
    opt = init_optimizer(1e-3, model)
    for a in (opt.layer_m, opt.layer_v):
        assert a.shape == model.trainable.shape and not a.any()
    for a in (opt.rest_m, opt.rest_v):
        assert a.shape == (model.head.size,) and not a.any()
    assert opt.layer_step == [0] * len(model.trainable) and opt.rest_step == 0
    # a pretraining head trains every position past the rows
    cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=4, n_classes_pretrain=3)
    pre = init_model(cfg, linalg.make_rng(0))
    opt = init_optimizer(1e-3, pre)
    rest = pre.params.size - pre.trainable.size
    assert opt.rest_m.shape == opt.rest_v.shape == (rest,)
    assert opt.layer_m.shape == opt.layer_v.shape == pre.trainable.shape


def test_adaptive_step_matches_reference() -> None:
    # independently coded bias-corrected adaptive-moment step
    def reference(theta, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        m2 = b1 * m + (1 - b1) * g
        v2 = b2 * v + (1 - b2) * g * g
        mh = m2 / (1 - b1**t)
        vh = v2 / (1 - b2**t)
        return theta - lr * mh / (np.sqrt(vh) + eps), m2, v2

    opt = init_optimizer(2e-4, _one_layer_setup()[0])
    m0, v0 = np.zeros(3), np.zeros(3)
    theta = np.array([0.0, 1.0, -2.0])
    g1 = np.array([0.5, -0.25, 0.125])
    got, m1, v1 = _moment_step(theta, g1, m0, v0, 1 - 0.9**1, 1 - 0.999**1, opt)
    # the step returns new moments and leaves the ones it was given alone
    assert not m0.any() and not v0.any()
    want, m_ref, v_ref = reference(theta, g1, np.zeros(3), np.zeros(3), 1, 2e-4)
    assert np.array_equal(got, want)
    assert np.array_equal(m1, m_ref) and np.array_equal(v1, v_ref)
    # fresh-state magnitude: eta * (1 - 1e-8-scale correction)
    assert abs(abs(got[0] - theta[0]) - 2e-4) <= 1e-10
    g2 = np.array([-0.5, 0.5, 0.0])
    got2, _, _ = _moment_step(got, g2, m1, v1, 1 - 0.9**2, 1 - 0.999**2, opt)
    want2, _, _ = reference(got, g2, m_ref, v_ref, 2, 2e-4)
    assert np.array_equal(got2, want2)


def _one_layer_setup(seed: int = 0):
    cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=4, n_classes_pretrain=3)
    m = init_model(cfg, linalg.make_rng(seed))
    m = derive_model(m, head=binary_head(m, linalg.make_rng(seed + 1)), split=DecompositionConfig(n_subspaces=2))
    rng = linalg.make_rng(seed + 2)
    x = rng.normal(size=(4, cfg.n_tokens, cfg.d_model))
    y = rng.integers(0, 2, size=4).astype(np.float64)
    _, grads = backward(m, x, y, LossWeights())
    return m, grads


def layer_vectors(state) -> list[np.ndarray]:
    """Each attention layer's (padded) trainable row or gradient row."""
    return list(state.trainable)


def test_apply_update_all_masked_leaves_layers_untouched() -> None:
    model, grads = _one_layer_setup()
    before = [v.copy() for v in layer_vectors(model)]
    head_before = model.head.copy()
    sizes = [v.size for v in before]
    opt = init_optimizer(1e-3, model)
    mask = LayerMask(bits=np.zeros(len(sizes), dtype=np.int8))
    apply_update(model, grads, mask, opt)
    after = layer_vectors(model)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert not np.array_equal(model.head, head_before)  # head is exempt
    assert all(s == 0 for s in opt.layer_step)
    assert opt.rest_step == 1


def test_apply_update_masked_moments_frozen_active_layers_move() -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer(1e-3, model)
    bits = np.zeros(len(sizes), dtype=np.int8)
    bits[::2] = 1
    mask = LayerMask(bits=bits)
    before = [v.copy() for v in layer_vectors(model)]
    moments_before = [m.copy() for m in opt.layer_m]
    apply_update(model, grads, mask, opt)
    after = layer_vectors(model)
    for lid in range(len(sizes)):
        if bits[lid]:
            assert not np.array_equal(before[lid], after[lid])
            assert opt.layer_step[lid] == 1
            assert not np.array_equal(opt.layer_m[lid], moments_before[lid])
        else:
            assert np.array_equal(before[lid], after[lid])
            assert opt.layer_step[lid] == 0
            assert np.array_equal(opt.layer_m[lid], moments_before[lid])


def test_apply_update_mask_size_check() -> None:
    model, grads = _one_layer_setup()
    opt = init_optimizer(1e-3, model)
    params = model.params.tobytes()
    with pytest.raises(ValueError, match="mask covers 2 layers"):
        apply_update(model, grads, LayerMask(bits=np.ones(2, dtype=np.int8)), opt)
    assert model.params.tobytes() == params
    assert opt.rest_step == 0 and not any(opt.layer_step)


def test_apply_update_rejects_non_finite() -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer(1e-3, model)
    model.layout.carve(grads.params)[1][...] = np.inf
    mask = LayerMask(bits=np.zeros(len(sizes), dtype=np.int8))
    # the moments are inf, so their ratio is nan
    with pytest.raises(ValueError, match="head"):
        apply_update(model, grads, mask, opt)


# 1e200 keeps the parameters and the first moment finite but overflows the
# second moment to inf
@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_apply_update_non_finite_last_layer_changes_nothing(bad) -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer(1e-3, model)
    everything = LayerMask(bits=np.ones(len(sizes), dtype=np.int8))
    apply_update(model, grads, everything, opt)  # moments and counters non-trivial
    params = model.params.tobytes()
    moments = [(m.tobytes(), v.tobytes()) for m, v in zip(opt.layer_m, opt.layer_v)]
    rest_state = (opt.rest_m.tobytes(), opt.rest_v.tobytes(), opt.rest_step)
    steps = list(opt.layer_step)
    last = len(sizes) - 1
    last_layer = model.blocks[-1].o
    # first column of the last subspace's left factor
    last_layer.split(grads.trainable[-1])[0][0, -last_layer.ranks[-1]] = bad
    with pytest.raises(ValueError, match=f"layer {last}"):
        apply_update(model, grads, everything, opt)
    assert model.params.tobytes() == params
    assert [(m.tobytes(), v.tobytes()) for m, v in zip(opt.layer_m, opt.layer_v)] == moments
    assert (opt.rest_m.tobytes(), opt.rest_v.tobytes(), opt.rest_step) == rest_state
    assert opt.layer_step == steps


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_pretraining_step_refuses_a_non_finite_update(bad) -> None:
    cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=4, n_classes_pretrain=3)
    model = init_model(cfg, linalg.make_rng(0))
    x = linalg.make_rng(1).normal(size=(4, cfg.n_tokens, cfg.d_model))
    labels = np.array([0, 1, 2, 1])
    opt = init_optimizer(1e-3, model)
    every_row = np.arange(model.trainable.shape[0])
    _, grads = backward(model, x, labels)
    staged_step(model, grads, every_row, opt, "pretraining step 1")  # non-trivial moments
    _, grads = backward(model, x, labels)
    grads.params[-1] = bad  # the last block's mlp_out
    state = [a.tobytes() for a in (model.params, opt.layer_m, opt.layer_v, opt.rest_m, opt.rest_v)]
    counters = (list(opt.layer_step), opt.rest_step)
    with pytest.raises(ValueError, match="^non-finite update at pretraining step 2$"):
        staged_step(model, grads, every_row, opt, "pretraining step 2")
    assert [a.tobytes() for a in (model.params, opt.layer_m, opt.layer_v, opt.rest_m, opt.rest_v)] == state
    assert (opt.layer_step, opt.rest_step) == counters == ([1] * len(every_row), 1)


def test_optimizer_validation() -> None:
    with pytest.raises(ValueError):
        StatsConfig(ema_coeff=1.0).validate()
    with pytest.raises(ValueError):
        StatsConfig(moment_floor=0.0).validate()
