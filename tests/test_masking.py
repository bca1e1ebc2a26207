from __future__ import annotations

import numpy as np
import pytest

from subtune import linalg
from subtune.decomposition import DecompositionConfig
from subtune.losses import LossWeights
from subtune.masking import (
    LayerMask,
    OptimizerState,
    StatsConfig,
    _moment_step,
    apply_update,
    build_mask,
    compute_bvg,
    init_optimizer,
    init_stats,
    step_buffer,
    update_stats,
)
from subtune.model import ModelConfig, backward, decompose_attention, init_model, reset_head


def test_ema_hand_recursion() -> None:
    cfg = StatsConfig(ema_coeff=0.5)
    stats = init_stats([2])
    g = np.array([1.0, 0.0])
    update_stats(stats, [g], cfg)
    assert np.array_equal(stats.first[0], [0.5, 0.0])
    assert np.array_equal(stats.second[0], [0.5, 0.0])
    assert abs(compute_bvg(stats, cfg)[0] - 1.0) <= 1e-12
    update_stats(stats, [g], cfg)
    assert np.array_equal(stats.first[0], [0.75, 0.0])
    assert np.array_equal(stats.second[0], [0.75, 0.0])
    assert abs(compute_bvg(stats, cfg)[0] - 3.0) <= 1e-12
    assert stats.step == 2


def test_zero_gradients_stay_zero() -> None:
    cfg = StatsConfig(ema_coeff=0.9)
    stats = init_stats([4, 4])
    for _ in range(10):
        update_stats(stats, [np.zeros(4), np.zeros(4)], cfg)
    assert all(np.all(m == 0.0) for m in stats.first)
    assert all(np.all(v == 0.0) for v in stats.second)
    assert np.array_equal(compute_bvg(stats, cfg), [0.0, 0.0])


def test_unequal_layer_sizes_are_refused() -> None:
    # per-layer state is one row per layer, so every layer has one size
    for make in (init_stats, lambda sizes: init_optimizer("adaptive", 1e-3, sizes, 1)):
        with pytest.raises(ValueError, match="equal") as err:
            make([3, 5])
        assert "\n" not in str(err.value)


def test_update_stats_rejects_shape_mismatch() -> None:
    stats = init_stats([2])
    with pytest.raises(ValueError):
        update_stats(stats, [np.zeros(3)], StatsConfig())
    with pytest.raises(ValueError):
        update_stats(stats, [np.zeros(2), np.zeros(2)], StatsConfig())


def test_bvg_floor_handles_degenerate_variance() -> None:
    # constant gradient stream: variance estimate collapses to rounding noise
    cfg = StatsConfig(ema_coeff=0.5, moment_floor=1e-12)
    stats = init_stats([1])
    for _ in range(200):
        update_stats(stats, [np.array([1.0])], cfg)
    score = compute_bvg(stats, cfg)[0]
    assert np.isfinite(score) and score > 0.0


def test_build_mask_examples() -> None:
    cfg = StatsConfig(warmup_steps=0)
    mask = build_mask(np.array([3.0, 1.0, 2.0]), 2, 1, cfg)
    assert mask.bits.tolist() == [1, 0, 1]
    tie = build_mask(np.array([1.0, 1.0, 1.0]), 1, 1, cfg)
    assert tie.bits.tolist() == [1, 0, 0]
    allon = build_mask(np.array([1.0, 2.0]), 5, 1, cfg)
    assert allon.bits.tolist() == [1, 1]
    assert allon.active == 2


def test_build_mask_warmup_and_cardinality() -> None:
    cfg = StatsConfig(warmup_steps=3)
    scores = np.array([0.0, 5.0, 1.0, 4.0])
    for t in (1, 2, 3):
        assert build_mask(scores, 2, t, cfg).bits.tolist() == [1, 1, 1, 1]
    post = build_mask(scores, 2, 4, cfg)
    assert post.bits.tolist() == [0, 1, 0, 1]
    assert post.active == 2
    with pytest.raises(ValueError):
        build_mask(scores, 0, 1, cfg)


def test_build_mask_tie_prefers_lower_layer_id() -> None:
    rng = linalg.make_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        scores = rng.integers(0, 3, size=n).astype(np.float64)  # many ties
        m = int(rng.integers(1, n + 1))
        bits = build_mask(scores, m, 1, StatsConfig()).bits
        assert bits.sum() == min(m, n)
        # no inactive layer may beat an active one; among equals the active
        # ones must be the earliest
        active = np.flatnonzero(bits == 1)
        inactive = np.flatnonzero(bits == 0)
        for j in inactive:
            for i in active:
                assert scores[i] > scores[j] or (scores[i] == scores[j] and i < j)


def test_plain_step_example() -> None:
    model, grads = _one_layer_setup()
    opt = init_optimizer("plain", 0.1, [row.size for row in model.trainable], model.head.size)
    layer = model.blocks[0].q
    layer.params[0] = 1.0
    grads.trainable[0, 0] = 0.5
    bits = np.zeros(len(model.trainable), dtype=np.int8)
    bits[0] = 1
    apply_update(model, grads, LayerMask(bits=bits, budget=1), opt)
    assert np.allclose(layer.params[0], 0.95, atol=1e-15)
    assert opt.layer_m is None and opt.layer_v is None


def test_adaptive_step_matches_reference() -> None:
    # independently coded bias-corrected adaptive-moment step
    def reference(theta, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        m2 = b1 * m + (1 - b1) * g
        v2 = b2 * v + (1 - b2) * g * g
        mh = m2 / (1 - b1**t)
        vh = v2 / (1 - b2**t)
        return theta - lr * mh / (np.sqrt(vh) + eps), m2, v2

    opt = init_optimizer("adaptive", 2e-4, [3], 3)
    theta = np.array([0.0, 1.0, -2.0])
    g1 = np.array([0.5, -0.25, 0.125])
    got, m1, v1 = _moment_step(theta, g1, opt.layer_m[0], opt.layer_v[0], 1 - 0.9**1, 1 - 0.999**1, opt)
    # the step returns new moments and leaves the optimizer's alone
    assert not opt.layer_m[0].any() and not opt.layer_v[0].any()
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
    cfg = ModelConfig(
        d_model=8, n_blocks=2, n_tokens=4, n_classes_pretrain=3,
        decomposition=DecompositionConfig(n_subspaces=2),
    )
    m = init_model(cfg, linalg.make_rng(seed))
    decompose_attention(m)
    reset_head(m, 1, linalg.make_rng(seed + 1))
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
    opt = init_optimizer("adaptive", 1e-3, sizes, model.head.size)
    mask = LayerMask(bits=np.zeros(len(sizes), dtype=np.int8), budget=1)
    apply_update(model, grads, mask, opt)
    after = layer_vectors(model)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert not np.array_equal(model.head, head_before)  # head is exempt
    assert all(s == 0 for s in opt.layer_step)
    assert opt.head_step == 1


def test_apply_update_masked_moments_frozen_active_layers_move() -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer("adaptive", 1e-3, sizes, model.head.size)
    bits = np.zeros(len(sizes), dtype=np.int8)
    bits[::2] = 1
    mask = LayerMask(bits=bits, budget=int(bits.sum()))
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


def test_apply_update_plain_mode_and_mask_size_check() -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer("plain", 0.1, sizes, model.head.size)
    theta0 = layer_vectors(model)[0].copy()
    g0 = layer_vectors(grads)[0]
    mask = LayerMask(bits=np.ones(len(sizes), dtype=np.int8), budget=len(sizes))
    apply_update(model, grads, mask, opt)
    assert np.allclose(layer_vectors(model)[0], theta0 - 0.1 * g0, atol=1e-15)
    with pytest.raises(ValueError):
        apply_update(model, grads, LayerMask(bits=np.ones(2, dtype=np.int8), budget=2), opt)


def test_apply_update_rejects_non_finite() -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer("plain", 0.1, sizes, model.head.size)
    grads.head = np.full_like(grads.head, np.inf)
    mask = LayerMask(bits=np.zeros(len(sizes), dtype=np.int8), budget=1)
    with pytest.raises(ValueError, match="head"):
        apply_update(model, grads, mask, opt)


# 1e200 keeps the parameters and the first moment finite but overflows the
# second moment to inf
@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_apply_update_non_finite_last_layer_changes_nothing(bad) -> None:
    model, grads = _one_layer_setup()
    sizes = [v.size for v in layer_vectors(model)]
    opt = init_optimizer("adaptive", 1e-3, sizes, model.head.size)
    everything = LayerMask(bits=np.ones(len(sizes), dtype=np.int8), budget=len(sizes))
    apply_update(model, grads, everything, opt)  # moments and counters non-trivial
    params = model.params.tobytes()
    moments = [(m.tobytes(), v.tobytes()) for m, v in zip(opt.layer_m, opt.layer_v)]
    head_state = (opt.head_m.tobytes(), opt.head_v.tobytes(), opt.head_step)
    steps = list(opt.layer_step)
    last = len(sizes) - 1
    last_layer = model.blocks[-1].o
    # first column of the last subspace's left factor
    last_layer.split(grads.trainable[-1])[0][0, -last_layer.ranks[-1]] = bad
    with pytest.raises(ValueError, match=f"layer {last}"), np.errstate(over="ignore"):
        apply_update(model, grads, everything, opt)
    assert model.params.tobytes() == params
    assert [(m.tobytes(), v.tobytes()) for m, v in zip(opt.layer_m, opt.layer_v)] == moments
    assert (opt.head_m.tobytes(), opt.head_v.tobytes(), opt.head_step) == head_state
    assert opt.layer_step == steps


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_pretraining_step_refuses_a_non_finite_update(bad) -> None:
    cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=4, n_classes_pretrain=3)
    model = init_model(cfg, linalg.make_rng(0))
    x = linalg.make_rng(1).normal(size=(4, cfg.n_tokens, cfg.d_model))
    labels = np.array([0, 1, 2, 1])
    opt = OptimizerState(mode="adaptive", learning_rate=1e-3)
    m, v = np.zeros_like(model.params), np.zeros_like(model.params)
    _, grads = backward(model, x, labels)
    step_buffer(model.params, grads.params, m, v, 1, opt, "pretraining step 1")  # non-trivial moments
    _, grads = backward(model, x, labels)
    grads.params[-1] = bad  # the last block's mlp_out
    state = [a.tobytes() for a in (model.params, m, v)]
    with pytest.raises(ValueError, match="^non-finite update at pretraining step 2$"), np.errstate(over="ignore"):
        step_buffer(model.params, grads.params, m, v, 2, opt, "pretraining step 2")
    assert [a.tobytes() for a in (model.params, m, v)] == state


def test_optimizer_validation() -> None:
    with pytest.raises(ValueError):
        init_optimizer("momentum", 0.1, [1], 1)
    with pytest.raises(ValueError):
        init_optimizer("plain", 0.0, [1], 1)
    with pytest.raises(ValueError):
        StatsConfig(ema_coeff=1.0).validate()
    with pytest.raises(ValueError):
        StatsConfig(moment_floor=0.0).validate()
    with pytest.raises(ValueError):
        StatsConfig(warmup_steps=-1).validate()
