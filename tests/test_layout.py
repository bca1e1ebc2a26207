"""The trainable layout: one ``params`` vector per decomposed layer with
``u``/``s``/``v``/``artifacts`` as views into it, one set of trained
positions in the model's parameter buffer, and checkpoints that read and
write the same bytes as the per-subspace layout that came before.

The recorded probabilities depend on float rounding, so they hold for the
numpy and BLAS build they were recorded with.  Regenerate them only for a
change that is meant to move numbers:

    PYTHONPATH=src python tests/test_layout.py --write
"""

from __future__ import annotations

import json
import sys
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
    init_model,
    predict,
    reset_head,
    trained_positions,
)

DATA = Path(__file__).parent / "data"
# d_model 8, 2 blocks, 4 tokens, K=3 (ranks [2,1,1] or [1,1,1] per layer),
# trainables jittered off the decomposition point, saved at step 5 by the
# layout that stored each artifact subspace as its own (u, s, v) arrays;
# the JSON holds the model's probabilities on make_rng(3) inputs
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


def recorded_probs(inputs_seed: int, n_samples: int) -> dict:
    model, _ = load_model(OLD_CKPT)
    x = make_rng(inputs_seed).normal(size=(n_samples, 4, 8))
    probs = [float(p).hex() for p in predict(model, x)]
    return {"inputs_seed": inputs_seed, "n_samples": n_samples, "probs": probs}


def test_earlier_checkpoint_predicts_bit_equal_probabilities() -> None:
    want = json.loads(OLD_PROBS.read_text())
    assert recorded_probs(want["inputs_seed"], want["n_samples"]) == want


def test_views_alias_params_after_clone_load_and_update(tmp_path) -> None:
    model = small_model()
    assert_views_alias_params(model)
    assert_views_alias_params(clone_model(model))
    save_model(tmp_path / "m.ckpt", model)
    assert_views_alias_params(load_model(tmp_path / "m.ckpt")[0])

    rng = make_rng(4)
    x = rng.normal(size=(3, 4, 8))
    y = np.array([1.0, 0.0, 1.0])
    _, grads = backward(model, x, y, LossWeights())
    params = [layer.params for layer in decomposed_layers(model)]
    before = [p.copy() for p in params]
    n_layers = len(params)
    opt = init_optimizer("adaptive", 1e-2, model)
    apply_update(model, grads, LayerMask(np.ones(n_layers, dtype=np.int8), n_layers), opt)
    for layer, p, old in zip(decomposed_layers(model), params, before):
        assert layer.params is p  # updated in place
        assert not np.array_equal(p, old)
    assert_views_alias_params(model)


def test_a_clone_shares_only_the_read_only_semantic_parts() -> None:
    model = small_model()
    source = model.params.tobytes()
    twin = clone_model(model)
    assert twin.params.tobytes() == source
    assert twin.config == model.config and twin.config is not model.config
    for layer, twin_layer in zip(decomposed_layers(model), decomposed_layers(twin)):
        assert twin_layer is not layer and twin_layer.semantic is layer.semantic
        for a in (twin_layer.semantic.u, twin_layer.semantic.s, twin_layer.semantic.v, twin_layer.semantic.w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
    twin.params += 1.0
    twin.head[...] = 7.0
    for block in twin.blocks:
        for slot in model_mod.FROZEN_SLOTS:
            getattr(block, slot)[...] = -3.0
    twin.token_embed[...] = 5.0
    for layer in decomposed_layers(twin):
        layer.params[...] = 2.0
    twin.config.decomposition.n_subspaces = 1
    assert model.params.tobytes() == source
    assert model.config.decomposition.n_subspaces == 3
    assert_views_alias_params(twin)


def test_no_two_layers_models_or_moments_share_storage() -> None:
    model = small_model()
    twin = clone_model(model)
    opt = init_optimizer("adaptive", 1e-3, model)
    arrays = (
        [*model.trainable, model.head, *twin.trainable, twin.head]
        + list(opt.layer_m)
        + list(opt.layer_v)
        + [opt.rest_m, opt.rest_v]
    )
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.may_share_memory(a, b)


def test_non_finite_update_leaves_params_bit_unchanged() -> None:
    model = small_model()
    x = make_rng(5).normal(size=(2, 4, 8))
    _, grads = backward(model, x, np.array([0.0, 1.0]), LossWeights())
    layers = decomposed_layers(model)
    before = [(layer.params, layer.params.tobytes()) for layer in layers]
    grads.trainable[5, -1] = np.nan  # block 1's k
    opt = init_optimizer("plain", 0.1, model)
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


def round_trip(model, labels: np.ndarray, rng) -> np.ndarray:
    """Write a random vector to the trained positions of the model's buffer,
    read it back, and check that the gradients hold the same positions."""
    positions = trained_positions(model)
    assert np.all(np.diff(positions) > 0)  # buffer order, each once
    vec = rng.normal(size=positions.shape)
    model.params[positions] = vec
    assert model.params[positions].tobytes() == vec.tobytes()
    x = rng.normal(size=(len(labels), model.config.n_tokens, model.config.d_model))
    _, grads = backward(model, x, labels)
    assert grads.params[positions].shape == positions.shape
    return vec


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(decomposition_cases(max_dim=8), st.integers(1, 2))
def test_flat_round_trip_is_bit_exact_in_both_modes(case, n_blocks) -> None:
    d_model, _, dcfg, seed = case
    cfg = ModelConfig(d_model=d_model, n_blocks=n_blocks, n_tokens=3, decomposition=dcfg)
    model = init_model(cfg, make_rng(seed))
    rng = make_rng(seed + 1)
    vec = round_trip(model, np.array([0, 1]), rng)
    # a pretraining head trains every value
    assert vec.size == model.params.size and model.params.tobytes() == vec.tobytes()
    decompose_attention(model)
    reset_head(model, 1, rng)
    vec = round_trip(model, np.array([1.0, 0.0]), rng)
    assert_views_alias_params(model)
    # a binary head trains each slot's real values in layer order, then the head
    slots = [model_mod.projection_param_vector(layer) for layer in decomposed_layers(model)]
    assert np.concatenate(slots + [model.head.ravel()]).tobytes() == vec.tobytes()
    first = model_mod.projection_param_vector(model.blocks[0].q)
    assert first.tobytes() == vec[: first.size].tobytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    old = json.loads(OLD_PROBS.read_text())
    new = recorded_probs(old["inputs_seed"], old["n_samples"])
    OLD_PROBS.write_text(json.dumps(new, indent=1, sort_keys=True))
