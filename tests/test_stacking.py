"""The layer-stacked trainable state: one model-wide buffer in which layers
of equal rank signature sit back to back, every slot and factor view
aliasing it, and the batched backward, EMA, BVG and masked update matching
the per-layer code (``oracles``) bit for bit."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LoopMasking, loop_backward
from subtune import losses
from subtune.checkpoint import load_model, save_model
from subtune.decomposition import DecomposedLayer, DecompositionConfig, TrainableLayout, decompose
from subtune.gradcheck import jitter_trainables
from subtune.linalg import make_rng
from subtune.losses import LossWeights
from subtune.masking import (
    LayerMask,
    StatsConfig,
    apply_update,
    compute_bvg,
    init_optimizer,
    init_stats,
    update_stats,
)
from subtune.model import (
    ModelConfig,
    attention_slots,
    backward,
    clone_model,
    decompose_attention,
    init_model,
    reset_head,
    stack_trainables,
    trainable_arrays,
)


def test_layout_groups_equal_signatures_in_first_seen_order() -> None:
    a, b, c = ((2, 1), 4, 4), ((1, 1), 4, 4), (None, 4, 4)
    layout = TrainableLayout.of([a, b, a, c, b, a])
    assert [g.layer_ids for g in layout.groups] == [(0, 2, 5), (1, 4), (3,)]
    assert layout.order.tolist() == [0, 2, 5, 1, 4, 3]
    assert layout.rows_of.tolist() == [0, 3, 1, 5, 4, 2]
    assert layout.sizes.tolist() == [27, 18, 27, 16, 18, 27]
    assert layout.size == 3 * 27 + 2 * 18 + 16
    buf = np.arange(layout.size, dtype=np.float64)
    views = layout.layer_views(buf)
    assert views[2][0] == 27 and views[1][0] == 81 and views[3][0] == 117
    picked = layout.element_mask(np.array([0, 1, 0, 1, 0, 0], dtype=bool))
    assert np.array_equal(buf[picked], np.concatenate([views[1], views[3]]))
    # state built from layer sizes alone lines up with a model's layout
    # exactly when equal sizes mean equal signatures
    assert layout.same_positions(TrainableLayout.of_sizes(layout.sizes))
    clash = TrainableLayout.of([a, ((1, 2), 4, 4), a])
    assert not clash.same_positions(TrainableLayout.of_sizes(clash.sizes))


@st.composite
def stacked_models(draw, allow_plain: bool = True):
    """A binary-head model whose layers are decomposed under one of two
    configurations, so they span several rank groups in interleaved order;
    or, if allowed, sometimes the plain model."""
    d = draw(st.integers(3, 9))
    n_blocks = draw(st.integers(1, 2))
    policy = draw(st.sampled_from(["energy", "fixed"]))

    def config() -> DecompositionConfig:
        k = draw(st.integers(1, min(d - 1, 4)))
        if policy == "fixed":
            return DecompositionConfig(
                n_subspaces=k, rank_policy="fixed", fixed_rank=draw(st.integers(1, d - k))
            )
        return DecompositionConfig(n_subspaces=k, energy_fraction=draw(st.floats(0.3, 0.99)))

    configs = [config(), config()]
    picks = draw(st.lists(st.integers(0, 1), min_size=4 * n_blocks, max_size=4 * n_blocks))
    seed = draw(st.integers(0, 2**32 - 1))
    model = init_model(
        ModelConfig(d_model=d, n_blocks=n_blocks, n_tokens=3, decomposition=configs[0]),
        make_rng(seed),
    )
    if not (allow_plain and draw(st.booleans())):
        for lid, block, name in attention_slots(model):
            setattr(block, name, decompose(getattr(block, name), configs[picks[lid]], lid))
        stack_trainables(model)
    reset_head(model, 1, make_rng(seed + 1))
    if draw(st.booleans()):  # off the spectral kink; else every layer sits on it
        jitter_trainables(model, make_rng(seed + 2), scale=0.05)
    weights = LossWeights(draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.sampled_from([0.0, 1.0])))
    return model, weights, seed


def _batch(model, rng, n: int = 4):
    x = rng.normal(size=(n, model.config.n_tokens, model.config.d_model))
    return x, rng.integers(0, 2, size=n).astype(np.float64)


def _bits(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stacked_models(allow_plain=False))
def test_backward_matches_the_per_layer_projection(case) -> None:
    model, weights, seed = case
    x, y = _batch(model, make_rng(seed + 3))
    with mock.patch.object(losses, "total_loss", wraps=losses.total_loss) as total:
        report, grads, _ = backward(model, x, y, weights)
    _, orth, spec, _ = total.call_args.args
    want_orth, want_spec, want_grads = loop_backward(model, x, y, weights)
    assert _bits(orth) == _bits(want_orth)
    assert _bits(spec) == _bits(want_spec)
    assert _bits(trainable_arrays(grads)[:-1]) == _bits(want_grads)
    want = losses.total_loss(report.cls, want_orth, want_spec, weights)
    assert (report.orth_mean, report.spec_mean, report.total) == (want.orth_mean, want.spec_mean, want.total)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stacked_models(), st.sampled_from(["plain", "adaptive"]))
def test_masked_steps_match_the_per_layer_state(case, mode) -> None:
    model, weights, seed = case
    rng = make_rng(seed + 4)
    stats_cfg = StatsConfig(ema_coeff=0.7)
    stats = init_stats(model.layout)
    opt = init_optimizer(mode, 1e-2, model.layout, model.head.size)
    loop = LoopMasking(
        [a.ravel() for a in trainable_arrays(model)[:-1]], model.head, mode, 1e-2,
        stats_cfg.ema_coeff, stats_cfg.moment_floor,
    )
    n_layers = model.layout.n_layers
    for _ in range(4):
        x, y = _batch(model, rng)
        _, grads, _ = backward(model, x, y, weights)
        layer_grads = [g.ravel().copy() for g in trainable_arrays(grads)[:-1]]
        update_stats(stats, grads.trainable, stats_cfg)
        loop.update_stats(layer_grads)
        assert _bits(stats.first) == _bits(loop.first)
        assert _bits(stats.second) == _bits(loop.second)
        assert compute_bvg(stats, stats_cfg).tobytes() == loop.bvg().tobytes()
        bits = (rng.random(n_layers) < 0.6).astype(np.int8)
        apply_update(model, grads, LayerMask(bits=bits, budget=max(1, int(bits.sum()))), opt)
        loop.apply(layer_grads, grads.head, bits)
        assert _bits(a.ravel() for a in trainable_arrays(model)[:-1]) == _bits(loop.params)
        assert model.head.tobytes() == loop.head.tobytes()
        assert opt.layer_step == loop.steps if mode == "adaptive" else opt.layer_step == [0] * n_layers
        if mode == "adaptive":
            assert _bits(opt.layer_m) == _bits(loop.m) and _bits(opt.layer_v) == _bits(loop.v)
            assert (opt.head_m.tobytes(), opt.head_v.tobytes(), opt.head_step) == (
                loop.head_m.tobytes(), loop.head_v.tobytes(), loop.head_step)


# --- aliasing ---------------------------------------------------------------

def _layers(model) -> list[DecomposedLayer]:
    return [getattr(block, name) for _, block, name in attention_slots(model)]


def assert_one_buffer(model) -> None:
    """Every slot, factor view and group stack is a view of the model's
    buffer, at the offsets its layout gives."""
    buf = model.trainable
    assert buf.shape == (model.layout.size,)
    views = model.layout.layer_views(buf)
    for layer, view in zip(_layers(model), views):
        assert np.shares_memory(layer.params, buf)
        assert layer.params.__array_interface__["data"] == view.__array_interface__["data"]
        for part in (layer.u, layer.s, layer.v, *(a.u for a in layer.artifacts), *(a.v for a in layer.artifacts)):
            assert np.shares_memory(part, buf)
    for stack in model.stacks:
        for part in (stack.u, stack.s, stack.v):
            assert np.shares_memory(part, buf)


def small_model(seed: int = 0):
    cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=4, decomposition=DecompositionConfig(n_subspaces=2))
    model = init_model(cfg, make_rng(seed))
    for _, block, name in attention_slots(model):
        assert np.shares_memory(getattr(block, name), model.trainable)
    decompose_attention(model)
    reset_head(model, 1, make_rng(seed + 1))
    return model


def test_every_view_aliases_the_one_buffer(tmp_path) -> None:
    model = small_model()
    assert len(model.layout.groups) >= 2
    assert_one_buffer(model)
    jitter_trainables(model, make_rng(2))
    assert_one_buffer(model)

    twin = clone_model(model)
    assert_one_buffer(twin)
    assert twin.trainable.tobytes() == model.trainable.tobytes()
    mine = [model.trainable, model.head, *(layer.params for layer in _layers(model))]
    theirs = [twin.trainable, twin.head, *(layer.params for layer in _layers(twin))]
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    save_model(tmp_path / "m.ckpt", model)
    loaded = load_model(tmp_path / "m.ckpt")[0]
    assert_one_buffer(loaded)
    assert loaded.trainable.tobytes() == model.trainable.tobytes()

    x, y = _batch(model, make_rng(3))
    _, grads, _ = backward(model, x, y, LossWeights())
    for block, name in ((b, n) for b in grads.blocks for n in ("q", "k", "v", "o")):
        assert np.shares_memory(getattr(block, name), grads.trainable)
    buf = model.trainable
    before = buf.copy()
    opt = init_optimizer("adaptive", 1e-2, model.layout, model.head.size)
    for moments, per_layer in ((opt.m, opt.layer_m), (opt.v, opt.layer_v)):
        assert all(np.shares_memory(view, moments) for view in per_layer)
    n_layers = model.layout.n_layers
    apply_update(model, grads, LayerMask(np.ones(n_layers, dtype=np.int8), n_layers), opt)
    assert model.trainable is buf and not np.array_equal(buf, before)
    assert_one_buffer(model)
