"""The layer-stacked trainable state: one (n_layers, P) array with a row per
layer in layer-id order, decomposed tails zero-padded to the largest tail
rank, every slot and factor view aliasing it, the padding staying exactly
zero, and the batched backward, EMA, BVG and masked update matching the
per-layer code on each padded row (``oracles``) bit for bit."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LoopMasking, loop_backward
from subtune import losses
from subtune.checkpoint import load_model, save_model
from subtune.decomposition import DecomposedLayer, DecompositionConfig, decompose, layer_to_bytes
from subtune.gradcheck import jitter_trainables
from subtune.linalg import make_rng
from subtune.losses import LossWeights
from subtune.masking import (
    LayerMask,
    StatsConfig,
    apply_update,
    build_mask,
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
    flat_vector,
    init_model,
    reset_head,
    stack_trainables,
)


@st.composite
def stacked_models(draw, allow_plain: bool = True):
    """A binary-head model whose layers are decomposed under one of two
    configurations, so tail ranks and K differ from layer to layer and
    shorter tails are padded; or, if allowed, sometimes the plain model."""
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
    assert _bits(grads.trainable) == _bits(want_grads)
    want = losses.total_loss(report.cls, want_orth, want_spec, weights)
    assert (report.orth_mean, report.spec_mean, report.total) == (want.orth_mean, want.spec_mean, want.total)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stacked_models(), st.sampled_from(["plain", "adaptive"]))
def test_masked_steps_match_the_per_layer_state(case, mode) -> None:
    model, weights, seed = case
    rng = make_rng(seed + 4)
    stats_cfg = StatsConfig(ema_coeff=0.7)
    sizes = [row.size for row in model.trainable]
    stats = init_stats(sizes)
    opt = init_optimizer(mode, 1e-2, sizes, model.head.size)
    loop = LoopMasking(
        list(model.trainable), model.head, mode, 1e-2, stats_cfg.ema_coeff, stats_cfg.moment_floor
    )
    n_layers = len(sizes)
    for _ in range(4):
        x, y = _batch(model, rng)
        _, grads, _ = backward(model, x, y, weights)
        layer_grads = [row.copy() for row in grads.trainable]
        update_stats(stats, grads.trainable, stats_cfg)
        loop.update_stats(layer_grads)
        assert _bits(stats.first) == _bits(loop.first)
        assert _bits(stats.second) == _bits(loop.second)
        assert compute_bvg(stats, stats_cfg).tobytes() == loop.bvg().tobytes()
        bits = (rng.random(n_layers) < 0.6).astype(np.int8)
        apply_update(model, grads, LayerMask(bits=bits, budget=max(1, int(bits.sum()))), opt)
        loop.apply(layer_grads, grads.head, bits)
        assert _bits(model.trainable) == _bits(loop.params)
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
    """Every slot and factor view is a view of its layer's row of the
    model's (n_layers, P) array, and the factor stack a view of the array."""
    buf = model.trainable
    assert buf.ndim == 2 and buf.flags.c_contiguous
    for layer, row in zip(_layers(model), buf):
        assert layer.params.shape == row.shape
        assert layer.params.__array_interface__["data"] == row.__array_interface__["data"]
        for part in (layer.u, layer.s, layer.v, *(a.u for a in layer.artifacts), *(a.v for a in layer.artifacts)):
            assert np.shares_memory(part, row)
    for part in model.factors[:3]:
        assert np.shares_memory(part, buf)


def padding(model, rows=None) -> np.ndarray:
    """Every padded U, s and V entry of ``rows`` (by default the model's
    trainable rows)."""
    u, s, v = model.factors.split(model.trainable if rows is None else rows)
    parts = []
    for i, layer in enumerate(_layers(model)):
        r = layer.tail_rank
        parts += [u[i, :, r:].ravel(), s[i, r:], v[i, :, r:].ravel()]
    return np.concatenate(parts)


def assert_zero_padding(model) -> None:
    pad = padding(model)
    assert pad.size > 0
    assert pad.tobytes() == bytes(pad.nbytes)  # +0.0 everywhere


def mixed_model(seed: int = 0):
    """d_model 8, two blocks, layers alternating between a K=2 energy split
    and a K=3 fixed split, so tail ranks and K differ between layers."""
    configs = [
        DecompositionConfig(n_subspaces=2),
        DecompositionConfig(n_subspaces=3, rank_policy="fixed", fixed_rank=4),
    ]
    model = init_model(ModelConfig(d_model=8, n_blocks=2, n_tokens=4, decomposition=configs[0]), make_rng(seed))
    for lid, block, name in attention_slots(model):
        setattr(block, name, decompose(getattr(block, name), configs[lid % 2], lid))
    stack_trainables(model)
    reset_head(model, 1, make_rng(seed + 1))
    return model


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
    assert len({layer.tail_rank for layer in _layers(model)}) >= 2
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
    for (block, name), row in zip(((b, n) for b in grads.blocks for n in ("q", "k", "v", "o")), grads.trainable):
        assert getattr(block, name).__array_interface__["data"] == row.__array_interface__["data"]
    buf = model.trainable
    before = buf.copy()
    opt = init_optimizer("adaptive", 1e-2, [row.size for row in buf], model.head.size)
    assert opt.layer_m.shape == opt.layer_v.shape == buf.shape
    n_layers = len(buf)
    apply_update(model, grads, LayerMask(np.ones(n_layers, dtype=np.int8), n_layers), opt)
    assert model.trainable is buf and not np.array_equal(buf, before)
    assert_one_buffer(model)


@pytest.mark.parametrize("mode", ["plain", "adaptive"])
@pytest.mark.parametrize("jitter", [False, True])
def test_padding_stays_exactly_zero_through_training(mode, jitter) -> None:
    model = mixed_model()
    if jitter:
        jitter_trainables(model, make_rng(2))
    assert_zero_padding(model)
    rng = make_rng(5)
    sizes = [row.size for row in model.trainable]
    stats_cfg = StatsConfig(ema_coeff=0.9, warmup_steps=5)
    stats = init_stats(sizes)
    opt = init_optimizer(mode, 1e-2, sizes, model.head.size)
    for step in range(1, 201):
        x, y = _batch(model, rng)
        _, grads, _ = backward(model, x, y, LossWeights())
        update_stats(stats, grads.trainable, stats_cfg)
        mask = build_mask(compute_bvg(stats, stats_cfg), 3, step, stats_cfg)
        apply_update(model, grads, mask, opt)
        assert not padding(model, grads.trainable).any()
    assert not np.array_equal(model.trainable, mixed_model().trainable)
    assert_zero_padding(model)
    assert_zero_padding(clone_model(model))


def test_mixed_checkpoint_round_trips_without_padding(tmp_path) -> None:
    model = mixed_model()
    jitter_trainables(model, make_rng(2))
    layers = _layers(model)
    assert {layer.n_subspaces for layer in layers} == {2, 3}
    assert len({layer.ranks for layer in layers}) >= 2
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    raw = path.read_bytes()
    # the checkpoint ends with each layer as a standalone, unpadded layer
    # writes it
    unpadded = [
        DecomposedLayer(
            layer.layer_id, layer.semantic, layer.ranks,
            flat_vector(layer.split(layer.params)), layer.pretrained_frob_sq,
        )
        for layer in layers
    ]
    assert raw.endswith(b"".join(layer_to_bytes(layer) for layer in unpadded))
    loaded = load_model(path)[0]
    assert [layer.ranks for layer in _layers(loaded)] == [layer.ranks for layer in layers]
    assert loaded.trainable.tobytes() == model.trainable.tobytes()
    assert_zero_padding(loaded)
    save_model(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == raw
