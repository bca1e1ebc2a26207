"""The layer-stacked trainable state: one (n_layers, P) array with a row per
layer in layer-id order, decomposed tails zero-padded to the largest tail
rank, at the head of one parameter buffer that every array of the model
tiles, every slot and factor view aliasing it, the padding staying exactly
zero, the batched backward, EMA, BVG and masked update matching the
per-layer code on each padded row (``oracles``) bit for bit, and
pretraining's every-row step matching the whole-buffer one."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LoopMasking, binary_head, loop_backward, projection_param_vector, step_buffer
from subtune import losses
from subtune import model as model_mod
from subtune.checkpoint import layer_to_bytes, load_model, save_model
from subtune.decomposition import DecomposedLayer, DecompositionConfig, decompose
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
    staged_step,
    update_stats,
)
from subtune.model import (
    FROZEN_SLOTS,
    PROJECTION_NAMES,
    ModelConfig,
    attention_slots,
    backward,
    clone_model,
    derive_model,
    init_model,
    stack_trainables,
)


def decomposed_per_layer(model, split):
    """``model`` packed anew with layer ``lid`` decomposed under
    ``split(lid)``."""
    blocks = [
        replace(block, **{name: decompose(getattr(block, name), split(lid), lid)
                          for lid, name in enumerate(PROJECTION_NAMES, start=4 * b)})
        for b, block in enumerate(model.blocks)
    ]
    return stack_trainables(model.config, model.token_embed, blocks, model.head)


@st.composite
def stacked_models(draw, allow_plain: bool = True, pretraining_head: bool = False):
    """A binary-head model whose layers are decomposed under one of two
    configurations, so tail ranks and K differ from layer to layer and
    shorter tails are padded; or, if allowed, sometimes the plain model,
    and sometimes one that keeps its pretraining head.  Sometimes the
    model is a clone, which must serve as well as its source."""
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
        ModelConfig(d_model=d, n_blocks=n_blocks, n_tokens=3),
        make_rng(seed),
    )
    if not (allow_plain and draw(st.booleans())):
        model = decomposed_per_layer(model, lambda lid: configs[picks[lid]])
    if not (pretraining_head and draw(st.booleans())):
        model = derive_model(model, head=binary_head(model, make_rng(seed + 1)))
    if draw(st.booleans()):  # off the spectral kink; else every layer sits on it
        jitter_trainables(model, make_rng(seed + 2))
    if draw(st.booleans()):
        model = clone_model(model)
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
        report, grads = backward(model, x, y, weights)
    _, orth, spec, _ = total.call_args.args
    want_orth, want_spec, want_grads = loop_backward(model, x, y, weights)
    assert _bits(orth) == _bits(want_orth)
    assert _bits(spec) == _bits(want_spec)
    assert _bits(grads.trainable) == _bits(want_grads)
    want = losses.total_loss(report.cls, want_orth, want_spec, weights)
    assert (report.orth_mean, report.spec_mean, report.total) == (want.orth_mean, want.spec_mean, want.total)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stacked_models())
def test_masked_steps_match_the_per_layer_state(case) -> None:
    model, weights, seed = case
    rng = make_rng(seed + 4)
    stats_cfg = StatsConfig(ema_coeff=0.7)
    stats = init_stats(model.trainable.shape)
    opt = init_optimizer(1e-2, model)
    loop = LoopMasking(list(model.trainable), model.head, 1e-2, stats_cfg.ema_coeff, stats_cfg.moment_floor)
    n_layers = len(model.trainable)
    for _ in range(4):
        x, y = _batch(model, rng)
        _, grads = backward(model, x, y, weights)
        layer_grads = [row.copy() for row in grads.trainable]
        update_stats(stats, grads.trainable, stats_cfg)
        loop.update_stats(layer_grads)
        assert _bits(stats.first) == _bits(loop.first)
        assert _bits(stats.second) == _bits(loop.second)
        assert compute_bvg(stats, stats_cfg).tobytes() == loop.bvg().tobytes()
        bits = (rng.random(n_layers) < 0.6).astype(np.int8)
        apply_update(model, grads, LayerMask(bits=bits), opt)
        loop.apply(layer_grads, model.layout.carve(grads.params)[1], bits)
        assert _bits(model.trainable) == _bits(loop.params)
        assert model.head.tobytes() == loop.head.tobytes()
        assert opt.layer_step == loop.steps
        assert _bits(opt.layer_m) == _bits(loop.m) and _bits(opt.layer_v) == _bits(loop.v)
        assert (opt.rest_m.tobytes(), opt.rest_v.tobytes(), opt.rest_step) == (
            loop.rest_m.tobytes(), loop.rest_v.tobytes(), loop.rest_step)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(1, 2), st.integers(2, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_pretraining_steps_match_the_whole_buffer_step(d, n_blocks, n_classes, k, seed) -> None:
    # a pretraining head's gradient covers the whole buffer, so stepping
    # every row and the rest is one elementwise step of all of it
    cfg = ModelConfig(d_model=d, n_blocks=n_blocks, n_tokens=3, n_classes_pretrain=n_classes)
    model = init_model(cfg, make_rng(seed))
    ref = clone_model(model)
    opt = init_optimizer(1e-2, model)
    ref_opt = init_optimizer(1e-2, ref)
    m, v = np.zeros_like(ref.params), np.zeros_like(ref.params)
    every_row = np.arange(model.trainable.shape[0])
    n_rows = model.trainable.size
    rng = make_rng(seed + 1)
    for step in range(1, k + 1):
        x = rng.normal(size=(4, cfg.n_tokens, d))
        labels = rng.integers(0, n_classes, size=4)
        staged_step(model, backward(model, x, labels)[1], every_row, opt, f"pretraining step {step}")
        step_buffer(ref.params, backward(ref, x, labels)[1].params, m, v, step, ref_opt, f"pretraining step {step}")
        assert model.params.tobytes() == ref.params.tobytes()
        assert _bits([opt.layer_m, opt.layer_v]) == _bits([m[:n_rows], v[:n_rows]])
        assert _bits([opt.rest_m, opt.rest_v]) == _bits([m[n_rows:], v[n_rows:]])
        assert (opt.layer_step, opt.rest_step) == ([step] * len(every_row), step)


# --- aliasing ---------------------------------------------------------------

def _layers(model) -> list[DecomposedLayer]:
    return [getattr(block, name) for _, block, name in attention_slots(model)]


def _offset(view: np.ndarray, buf: np.ndarray) -> int:
    """Where the contiguous ``view`` starts in ``buf``, in values."""
    assert view.flags.c_contiguous and np.shares_memory(view, buf)
    return (view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // buf.itemsize


def assert_tiles(buf: np.ndarray, tiles: list[np.ndarray]) -> None:
    """The ``tiles`` are contiguous views of ``buf`` that cover it exactly
    once, in list order."""
    at = 0
    for tile in tiles:
        assert _offset(tile, buf) == at
        at += tile.size
    assert at == buf.size


def assert_one_buffer(model) -> None:
    """Every array of the model is a view of ``model.params``, which owns its
    values: the attention rows (each slot, or a decomposed layer's
    ``params``), the head, the token embedding and each block's frozen
    slots tile it exactly once, in that order.  The (n_layers, P)
    ``trainable`` array is the rows, every factor view is a view of its
    layer's row, and the factor stack a view of the rows."""
    buf = model.params
    assert buf.ndim == 1 and buf.dtype == np.float64 and buf.base is None
    slots = _layers(model)
    rows = [slot.params if model.decomposed else slot for slot in slots]
    frozen = [getattr(block, name) for block in model.blocks for name in FROZEN_SLOTS]
    assert_tiles(buf, rows + [model.head, model.token_embed] + frozen)
    trainable = model.trainable
    assert trainable.ndim == 2 and _offset(trainable, buf) == 0 and trainable.size == sum(r.size for r in rows)
    for row, mine in zip(rows, trainable):
        assert row.size == mine.size and _offset(row, buf) == _offset(mine, buf)
    if not model.decomposed:
        assert model.factors is None
        return
    for layer, row in zip(slots, trainable):
        assert layer.params.shape == row.shape
        for part in (layer.u, layer.s, layer.v, *(a.u for a in layer.artifacts), *(a.v for a in layer.artifacts)):
            assert np.shares_memory(part, row)
    for part in model.factors[:3]:
        assert np.shares_memory(part, trainable)


def assert_gradient_layout(model, grads) -> None:
    """``grads.params`` is laid out like ``model.params``: a binary head's
    is the prefix of rows and head, a pretraining head's the whole layout,
    and ``trainable`` and the layout's head are its views."""
    want = model.trainable.size + model.head.size if model.n_outputs == 1 else model.params.size
    assert grads.params.shape == (want,) and grads.params.base is None
    head = model.layout.carve(grads.params)[1]
    assert (grads.trainable.shape, head.shape) == (model.trainable.shape, model.head.shape)
    assert_tiles(grads.params[: model.trainable.size + model.head.size], [grads.trainable, head])


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
    model = init_model(ModelConfig(d_model=8, n_blocks=2, n_tokens=4), make_rng(seed))
    model = decomposed_per_layer(model, lambda lid: configs[lid % 2])
    return derive_model(model, head=binary_head(model, make_rng(seed + 1)))


def test_every_view_aliases_the_one_buffer(tmp_path) -> None:
    model = init_model(ModelConfig(d_model=8, n_blocks=2, n_tokens=4), make_rng(0))
    x, y = _batch(model, make_rng(3))

    def check(labels) -> None:
        assert_one_buffer(model)
        assert_gradient_layout(model, backward(model, x, labels)[1])

    check(y.astype(int))  # the pretraining head takes class ids
    model = derive_model(model, split=DecompositionConfig(n_subspaces=2))
    check(y.astype(int))
    model = derive_model(model, head=binary_head(model, make_rng(1)))
    check(y)
    assert len({layer.tail_rank for layer in _layers(model)}) >= 2
    jitter_trainables(model, make_rng(2))
    assert_one_buffer(model)

    twin = clone_model(model)
    assert_one_buffer(twin)
    assert twin.params.tobytes() == model.params.tobytes()
    assert not np.shares_memory(model.params, twin.params)

    save_model(tmp_path / "m.ckpt", model)
    loaded = load_model(tmp_path / "m.ckpt")[0]
    assert_one_buffer(loaded)
    assert loaded.params.tobytes() == model.params.tobytes()

    _, grads = backward(model, x, y, LossWeights())
    assert_gradient_layout(model, grads)
    buf = model.trainable
    before = buf.copy()
    opt = init_optimizer(1e-2, model)
    assert opt.layer_m.shape == opt.layer_v.shape == buf.shape
    n_layers = len(buf)
    apply_update(model, grads, LayerMask(np.ones(n_layers, dtype=np.int8)), opt)
    assert model.trainable is buf and not np.array_equal(buf, before)
    assert_one_buffer(model)


@pytest.mark.parametrize("jitter", [False, True])
def test_padding_stays_exactly_zero_through_training(jitter) -> None:
    model = mixed_model()
    if jitter:
        jitter_trainables(model, make_rng(2))
    assert_zero_padding(model)
    rng = make_rng(5)
    stats_cfg = StatsConfig(ema_coeff=0.9)
    stats = init_stats(model.trainable.shape)
    opt = init_optimizer(1e-2, model)
    for step in range(1, 201):
        x, y = _batch(model, rng)
        _, grads = backward(model, x, y, LossWeights())
        update_stats(stats, grads.trainable, stats_cfg)
        mask = build_mask(compute_bvg(stats, stats_cfg), 3, step, 5)
        apply_update(model, grads, mask, opt)
        assert not padding(model, grads.trainable).any()
    assert not np.array_equal(model.trainable, mixed_model().trainable)
    assert_zero_padding(model)
    assert_zero_padding(clone_model(model))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stacked_models(pretraining_head=True))
def test_a_clone_is_its_source_in_a_buffer_of_its_own(case) -> None:
    model, weights, seed = case
    twin = clone_model(model)
    assert_one_buffer(twin)
    assert twin.layout is model.layout
    assert twin.params.tobytes() == model.params.tobytes()
    assert not np.shares_memory(twin.params, model.params)
    rng = make_rng(seed + 5)
    x, labels = _batch(model, rng)
    if model.n_outputs > 1:
        labels = rng.integers(0, model.n_outputs, size=len(labels))
    report, grads = backward(model, x, labels, weights)
    twin_report, twin_grads = backward(twin, x, labels, weights)
    assert twin_grads.params.tobytes() == grads.params.tobytes()
    assert twin_report == report


def test_a_clone_neither_packs_nor_lays_out(monkeypatch) -> None:
    # the layout (offsets, cross masks, pair scales, trained positions) is
    # built by the pack only; a clone reuses its source's
    model = mixed_model()
    calls = Counter()
    for name in ("stack_trainables", "_layout", "cross_mask"):
        def counted(*args, _name=name, _original=getattr(model_mod, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(model_mod, name, counted)
    model = derive_model(model, head=binary_head(model, make_rng(3)))
    assert calls == {"stack_trainables": 1, "_layout": 1, "cross_mask": 8}
    calls.clear()
    twin = clone_model(model)
    assert not calls
    assert twin.layout is model.layout
    assert_one_buffer(twin)


def test_mixed_checkpoint_round_trips_without_padding(tmp_path) -> None:
    model = mixed_model()
    assert_one_buffer(model)
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
            projection_param_vector(layer), layer.pretrained_frob_sq,
        )
        for layer in layers
    ]
    assert raw.endswith(b"".join(layer_to_bytes(layer) for layer in unpadded))
    loaded = load_model(path)[0]
    assert_one_buffer(loaded)
    assert [layer.ranks for layer in _layers(loaded)] == [layer.ranks for layer in layers]
    assert loaded.trainable.tobytes() == model.trainable.tobytes()
    assert_zero_padding(loaded)
    save_model(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == raw
