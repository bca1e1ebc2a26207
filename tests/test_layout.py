"""The trainable layout: one ``params`` vector per decomposed layer with
``u``/``s``/``v``/``artifacts`` as views into it, one list of trainable
arrays per mode, and checkpoints that read and write the same bytes as
the per-subspace layout that came before."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtune import model as model_mod
from subtune.checkpoint import load_model, save_model
from subtune.decomposition import DecompositionConfig, decompose, layer_from_bytes, layer_to_bytes, recompose
from subtune.gradcheck import jitter_trainables
from subtune.linalg import make_rng
from subtune.losses import LossWeights
from subtune.masking import LayerMask, apply_update, init_optimizer
from subtune.model import (
    ModelConfig,
    attention_slots,
    backward,
    clone_model,
    decompose_attention,
    flat_vector,
    init_model,
    predict,
    reset_head,
    set_flat,
    trainable_arrays,
)

DATA = Path(__file__).parent / "data"
# d_model 8, 2 blocks, 4 tokens, K=3 (ranks [2,1,1] or [1,1,1] per layer),
# trainables jittered off the decomposition point, saved at step 5 by the
# layout that stored each artifact subspace as its own (u, s, v) arrays;
# the JSON holds that code's probabilities on make_rng(3) inputs
OLD_CKPT = DATA / "tiny_decomposed.ckpt"
OLD_PROBS = DATA / "tiny_decomposed_probs.json"


def decomposed_layers(model):
    return [getattr(block, name) for _, block, name in attention_slots(model)]


def small_model(seed: int = 0):
    cfg = ModelConfig(
        d_model=8, n_blocks=2, n_tokens=4, decomposition=DecompositionConfig(n_subspaces=3)
    )
    model = init_model(cfg, make_rng(seed))
    decompose_attention(model)
    reset_head(model, 1, make_rng(seed + 1))
    jitter_trainables(model, make_rng(seed + 2))
    return model


def assert_views_alias_params(model) -> None:
    for layer in decomposed_layers(model):
        for view in (layer.u, layer.s, layer.v, *(a.u for a in layer.artifacts)):
            assert np.shares_memory(view, layer.params)


def test_earlier_checkpoint_round_trips_to_the_same_bytes(tmp_path) -> None:
    model, manifest = load_model(OLD_CKPT)
    assert manifest["step"] == 5
    assert any(len(set(layer.ranks)) > 1 for layer in decomposed_layers(model))
    out = tmp_path / "again.ckpt"
    save_model(out, model, step=manifest["step"], config_echo=manifest["config"])
    assert out.read_bytes() == OLD_CKPT.read_bytes()


def test_earlier_checkpoint_predicts_bit_equal_probabilities() -> None:
    model, _ = load_model(OLD_CKPT)
    want = json.loads(OLD_PROBS.read_text())
    x = make_rng(want["inputs_seed"]).normal(size=(want["n_samples"], 4, 8))
    got = predict(model, x)
    assert [float(p).hex() for p in got] == want["probs"]


def test_views_alias_params_after_clone_load_and_update(tmp_path) -> None:
    model = small_model()
    assert_views_alias_params(model)
    assert_views_alias_params(clone_model(model))
    save_model(tmp_path / "m.ckpt", model)
    assert_views_alias_params(load_model(tmp_path / "m.ckpt")[0])

    rng = make_rng(4)
    x = rng.normal(size=(3, 4, 8))
    y = np.array([1.0, 0.0, 1.0])
    _, grads, _ = backward(model, x, y, LossWeights())
    params = [layer.params for layer in decomposed_layers(model)]
    before = [p.copy() for p in params]
    n_layers = len(params)
    opt = init_optimizer("adaptive", 1e-2, [p.size for p in params], model.head.size)
    apply_update(model, grads, LayerMask(np.ones(n_layers, dtype=np.int8), n_layers), opt)
    for layer, p, old in zip(decomposed_layers(model), params, before):
        assert layer.params is p  # updated in place
        assert not np.array_equal(p, old)
    assert_views_alias_params(model)


def test_no_two_layers_models_or_moments_share_storage() -> None:
    model = small_model()
    twin = clone_model(model)
    sizes = [layer.params.size for layer in decomposed_layers(model)]
    opt = init_optimizer("adaptive", 1e-3, sizes, model.head.size)
    arrays = (
        trainable_arrays(model)
        + trainable_arrays(twin)
        + list(opt.layer_m)
        + list(opt.layer_v)
        + [opt.head_m, opt.head_v]
    )
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.may_share_memory(a, b)


def test_non_finite_update_leaves_params_bit_unchanged() -> None:
    model = small_model()
    x = make_rng(5).normal(size=(2, 4, 8))
    _, grads, _ = backward(model, x, np.array([0.0, 1.0]), LossWeights())
    layers = decomposed_layers(model)
    before = [(layer.params, layer.params.tobytes()) for layer in layers]
    grads.blocks[-1].k[-1] = np.nan
    opt = init_optimizer("plain", 0.1, [layer.params.size for layer in layers], model.head.size)
    with pytest.raises(ValueError, match="layer 5"):
        apply_update(model, grads, LayerMask(np.ones(len(layers), dtype=np.int8), len(layers)), opt)
    for layer, (params, raw) in zip(layers, before):
        assert layer.params is params
        assert layer.params.tobytes() == raw


@st.composite
def decomposition_cases(draw, max_dim: int = 24):
    d_out = draw(st.integers(2, max_dim))
    d_in = draw(st.integers(2, max_dim))
    total = min(d_out, d_in)
    k = draw(st.integers(1, total - 1))
    if draw(st.sampled_from(["energy", "fixed"])) == "fixed":
        cfg = DecompositionConfig(
            n_subspaces=k, rank_policy="fixed", fixed_rank=draw(st.integers(1, total - k))
        )
    else:
        cfg = DecompositionConfig(n_subspaces=k, energy_fraction=draw(st.floats(0.05, 1.0)))
    return d_out, d_in, cfg, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(decomposition_cases())
def test_layer_bytes_and_recompose_properties(case) -> None:
    d_out, d_in, cfg, seed = case
    w = make_rng(seed).normal(size=(d_out, d_in))
    layer = decompose(w, cfg)
    r = sum(layer.ranks)
    assert layer.params.shape == ((d_out + 1 + d_in) * r,)
    assert [a.rank for a in layer.artifacts] == list(layer.ranks)
    blob = layer_to_bytes(layer)
    back, end = layer_from_bytes(blob)
    assert end == len(blob)
    assert back.ranks == layer.ranks
    assert back.params.tobytes() == layer.params.tobytes()
    assert layer_to_bytes(back) == blob
    assert np.max(np.abs(recompose(layer) - w)) <= 1e-8


def round_trip(model, mode: str, labels: np.ndarray, rng) -> np.ndarray:
    """Write a random vector through the mode's arrays, read it back, and
    check that the gradients come in the same shapes."""
    arrays = trainable_arrays(model, mode)
    vec = rng.normal(size=flat_vector(arrays).shape)
    set_flat(arrays, vec)
    assert flat_vector(trainable_arrays(model, mode)).tobytes() == vec.tobytes()
    x = rng.normal(size=(len(labels), model.config.n_tokens, model.config.d_model))
    _, grads, _ = backward(model, x, labels)
    assert [g.shape for g in trainable_arrays(grads, mode)] == [a.shape for a in arrays]
    return vec


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(decomposition_cases(max_dim=8), st.integers(1, 2))
def test_flat_round_trip_is_bit_exact_in_both_modes(case, n_blocks) -> None:
    d_model, _, dcfg, seed = case
    cfg = ModelConfig(d_model=d_model, n_blocks=n_blocks, n_tokens=3, decomposition=dcfg)
    model = init_model(cfg, make_rng(seed))
    rng = make_rng(seed + 1)
    round_trip(model, "full", np.array([0, 1]), rng)
    decompose_attention(model)
    reset_head(model, 1, rng)
    vec = round_trip(model, "finetune", np.array([1.0, 0.0]), rng)
    assert_views_alias_params(model)
    layer_values = flat_vector([a for layer in decomposed_layers(model) for a in layer.split(layer.params)])
    assert layer_values.tobytes() == vec[: -model.head.size].tobytes()
    first = model_mod.projection_param_vector(model.blocks[0].q)
    assert first.tobytes() == vec[: first.size].tobytes()
