from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import binary_head, child_env, projection_param_vector
from reference_forward import (
    _gelu_scalar,
    plain_gelu,
    plain_gelu_grad,
    plain_layer_norm,
    reference_predict,
    textbook_layer_norm,
)
from subtune import linalg, model as model_mod
from subtune.checkpoint import load_model, save_model
from subtune.decomposition import DecompositionConfig, semantic_to_bytes
from subtune.gradcheck import grad_check, jitter_trainables
from subtune.losses import LossWeights, orth_loss, spec_loss
from subtune.model import (
    Model,
    ModelConfig,
    attention_slots,
    backward,
    derive_model,
    forward,
    init_model,
    predict,
    stop_helpers,
)


TINY_SPLIT = DecompositionConfig(n_subspaces=2)


def tiny_config() -> ModelConfig:
    return ModelConfig(d_model=8, n_blocks=2, n_tokens=4, n_classes_pretrain=3)


def tiny_model(seed: int = 42, decomposed: bool = False, binary: bool = True) -> Model:
    m = init_model(tiny_config(), linalg.make_rng(seed))
    if decomposed:
        m = derive_model(m, split=TINY_SPLIT)
    if binary:
        m = derive_model(m, head=binary_head(m, linalg.make_rng(seed + 1)))
    return m


def batch(seed: int, n: int, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = linalg.make_rng(seed)
    x = rng.normal(size=(n, cfg.n_tokens, cfg.d_model))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return x, y


def grad_vector(model: Model, grads) -> np.ndarray:
    return grads.params[model.layout.trained]


def test_zero_head_gives_half_probability() -> None:
    m = tiny_model()
    m.head[...] = 0.0
    x, _ = batch(0, 5, m.config)
    p = predict(m, x)
    assert np.array_equal(p, np.full(5, 0.5))


def test_duplicate_samples_get_identical_outputs() -> None:
    m = tiny_model(decomposed=True)
    x, _ = batch(1, 3, m.config)
    doubled = np.concatenate([x, x[:1]])
    p = predict(m, doubled)
    assert p[0] == p[3]


def test_forward_matches_reference_plain_and_decomposed() -> None:
    for decomposed in (False, True):
        m = tiny_model(seed=42, decomposed=decomposed, binary=True)
        x, _ = batch(7, 4, m.config)
        got = predict(m, x)
        want = reference_predict(m, x)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_forward_matches_reference_pretrain_softmax() -> None:
    m = tiny_model(seed=9, decomposed=False, binary=False)
    x, _ = batch(8, 4, m.config)
    got = predict(m, x)
    want = reference_predict(m, x)
    assert got.shape == (4, 3)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n_tokens", [1, 3])
@pytest.mark.parametrize("decomposed, binary", [(False, True), (True, True), (False, False)])
def test_forward_matches_reference_at_other_token_counts(n_tokens, decomposed, binary, tmp_path) -> None:
    # the softmax row maximum is taken one key column at a time.  A config
    # refuses one token, but a checkpoint of one loads; no array's shape
    # depends on the token count, so that model is a 2-token one saved under
    # a 1-token config and loaded back
    cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=max(n_tokens, 2), n_classes_pretrain=3)
    m = init_model(cfg, linalg.make_rng(11))
    if decomposed:
        m = derive_model(m, split=TINY_SPLIT)
    if binary:
        m = derive_model(m, head=binary_head(m, linalg.make_rng(12)))
    if n_tokens == 1:
        save_model(tmp_path / "one.ckpt", dataclasses.replace(m, config=dataclasses.replace(cfg, n_tokens=1)))
        m = load_model(tmp_path / "one.ckpt")[0]
    x, _ = batch(13, 5, m.config)
    assert x.shape[1] == n_tokens
    assert np.max(np.abs(predict(m, x) - reference_predict(m, x))) <= 1e-12


def test_forward_rejects_bad_inputs() -> None:
    m = tiny_model()
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 3, 8)))
    with pytest.raises(ValueError):
        forward(m, np.zeros((0, 4, 8)))
    bad = np.zeros((1, 4, 8))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        forward(m, bad)


def test_forward_names_exploding_block() -> None:
    m = tiny_model()
    m.blocks[1].mlp_out[...] = 1e308
    x, _ = batch(2, 2, m.config)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="block 1"):
        forward(m, x)


def test_forward_deterministic() -> None:
    m = tiny_model(decomposed=True)
    x, _ = batch(3, 6, m.config)
    assert np.array_equal(predict(m, x), predict(m, x))


def test_backward_zero_signal_when_probabilities_match_labels() -> None:
    m = tiny_model(decomposed=True)
    x, y = batch(4, 4, m.config)
    _, grads = backward(m, x, y, LossWeights(0.0, 0.0))
    assert np.abs(grad_vector(m, grads)).max() > 0.0
    # saturate the head so p hits the clamp rails exactly at the true labels;
    # with regularizer weights zero the learning signal collapses (the
    # clamp's 1e-12 residual times the 1e4-scale head leaves ~1e-8 noise)
    big = tiny_model(decomposed=True)
    big_x = x[:2]
    big_y = np.array([1.0, 0.0])
    pool = forward(big, big_x).pool
    big.head[...] = 1e4 * (pool[0] - pool[1])[None, :]
    p = predict(big, big_x)
    assert p[0] == 1.0 - 1e-12 and p[1] == 1e-12
    _, g2 = backward(big, big_x, big_y, LossWeights(0.0, 0.0))
    assert np.abs(big.layout.carve(g2.params)[1]).max() <= 1e-8
    assert np.abs(grad_vector(big, g2)).max() <= 1e-6


def test_backward_spectral_gradient_on_perturbed_strength() -> None:
    # zero inputs silence the data chain, isolating the spectral term
    m = tiny_model(seed=6, decomposed=True)
    x = np.zeros((2, m.config.n_tokens, m.config.d_model))
    y = np.array([1.0, 0.0])
    n = m.config.n_decomposable
    layer = m.blocks[0].q
    layer.artifacts[0].s[0] += 0.1
    _, grads = backward(m, x, y, LossWeights(0.0, 1.0))
    fg = grads.trainable[0]
    s_val = layer.artifacts[0].s[0]
    want = 2.0 * s_val / n  # positive drift: sign is +1
    got = layer.split(fg)[1][0]  # group 0 starts the tail
    assert abs(got - want) <= 1e-9
    # untouched fresh model: spectral gradient exactly zero at the kink
    m2 = tiny_model(seed=6, decomposed=True)
    _, g2 = backward(m2, x, y, LossWeights(0.0, 1.0))
    for lid, block, name in attention_slots(m2):
        du, ds, dv = getattr(block, name).split(g2.trainable[lid])
        assert np.max(np.abs(ds)) == 0.0
        assert np.max(np.abs(du)) == 0.0
        assert np.max(np.abs(dv)) == 0.0


def test_grad_check_finetune_passes() -> None:
    m = tiny_model(seed=42, decomposed=True)
    jitter_trainables(m, linalg.make_rng(5))
    x, y = batch(11, 3, m.config)
    rep = grad_check(m, x, y, LossWeights(1.0, 1.0))
    assert rep.passed, f"max rel err {rep.max_rel_err} at coord {rep.worst_index}"
    assert rep.n_coords == 467  # each layer's real U, s and V values and the head


def test_grad_check_full_pretrain_model_passes() -> None:
    m = tiny_model(seed=13, decomposed=False, binary=False)
    x, _ = batch(12, 3, m.config)
    labels = np.array([0, 2, 1])
    rep = grad_check(m, x, labels, None)
    assert rep.passed, f"max rel err {rep.max_rel_err} at coord {rep.worst_index}"
    assert rep.n_coords == m.params.size == 1176


def test_grad_check_reports_corrupted_coordinate(monkeypatch) -> None:
    m = tiny_model(seed=42, decomposed=True)
    jitter_trainables(m, linalg.make_rng(5))
    x, y = batch(11, 3, m.config)
    honest = grad_check(m, x, y, LossWeights(1.0, 1.0))
    # pick a coordinate with a solidly nonzero gradient, then double it in
    # the first, analytic backward only; the finite differences stay honest
    _, grads = backward(m, x, y, LossWeights(1.0, 1.0))
    vec = grad_vector(m, grads)
    target = int(np.argmax(np.abs(vec)))
    calls = []

    def corrupted(*args, **kwargs):
        report, grads = backward(*args, **kwargs)
        if not calls:
            grads.params[m.layout.trained[target]] *= 2.0
        calls.append(1)
        return report, grads

    monkeypatch.setattr(model_mod, "backward", corrupted)
    rep = grad_check(m, x, y, LossWeights(1.0, 1.0))
    assert len(calls) == 1 + 2 * rep.n_coords
    assert honest.passed and not rep.passed
    assert rep.worst_index == target


@pytest.mark.parametrize("rebind, decomposed", [
    ("params", False), ("head", True), ("token_embed", True), ("block0.mlp_in", True),
    ("block0.q", False), ("block0.q", True), ("block0.q.params", True),
])
def test_an_array_cannot_be_rebound_off_the_buffer(rebind, decomposed) -> None:
    # a copy would no longer alias model.params, so everything that works
    # on the buffer, a gradient check among them, would skip it
    m = tiny_model(seed=42, decomposed=decomposed)
    *path, name = rebind.split(".")
    owner = m
    for part in path:
        owner = owner.blocks[0] if part == "block0" else getattr(owner, part)
    before = m.params.tobytes()
    with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$") as err:
        setattr(owner, name, copy.copy(getattr(owner, name)))
    assert "\n" not in str(err.value)
    assert m.params.tobytes() == before


def test_param_vector_roundtrip() -> None:
    m = tiny_model(decomposed=True)
    positions = m.layout.trained
    vec = m.params[positions]
    rng = linalg.make_rng(3)
    new = vec + rng.normal(size=vec.shape)
    m.params[positions] = new
    assert np.array_equal(m.params[positions], new)
    # the write reaches every slot and the head, in layer order
    slots = [projection_param_vector(getattr(b, n)) for _, b, n in attention_slots(m)]
    assert np.array_equal(np.concatenate(slots + [m.head.ravel()]), new)
    plain = tiny_model(decomposed=False, binary=False)
    full = plain.layout.trained
    new_full = plain.params[full] + rng.normal(size=full.shape)
    plain.params[full] = new_full
    assert np.array_equal(plain.params[full], new_full)
    with pytest.raises(ValueError):
        m.params[positions] = new[:-1]


def test_full_view_lists_every_parameter_exactly_once() -> None:
    m = tiny_model(seed=8, binary=False)
    assert np.array_equal(m.layout.trained, np.arange(m.params.size))
    slots = [m.token_embed, m.head] + [
        getattr(block, name) for block in m.blocks for name in model_mod.BLOCK_SLOTS
    ]
    assert sum(slot.size for slot in slots) == m.params.size
    for i, slot in enumerate(slots):
        assert np.shares_memory(slot, m.params)
        assert not any(np.shares_memory(slot, other) for other in slots[i + 1 :])
    x, _ = batch(9, 5, m.config)
    _, grads = backward(m, x, np.array([0, 1, 2, 1, 0]))
    assert grads.params.shape == m.params.shape


def test_attention_slots_order_and_count() -> None:
    m = tiny_model()
    slots = attention_slots(m)
    assert len(slots) == m.config.n_decomposable == 8
    assert [s[0] for s in slots] == list(range(8))
    assert [s[2] for s in slots[:4]] == ["q", "k", "v", "o"]
    assert all(block is m.blocks[lid // 4] for lid, block, _ in slots)


def test_init_model_follows_the_block_shape_table() -> None:
    m = init_model(tiny_config(), linalg.make_rng(0))
    shapes = model_mod.block_shapes(m.config)
    assert tuple(shapes) == model_mod.BLOCK_SLOTS
    for block in m.blocks:
        assert {slot: getattr(block, slot).shape for slot in shapes} == shapes
        assert np.all(block.norm1_gain == 1.0) and np.all(block.norm2_gain == 1.0)
        assert not block.norm1_bias.any() and not block.norm2_bias.any()


def test_derive_model_takes_its_split() -> None:
    cfg = tiny_config()
    split = DecompositionConfig(n_subspaces=3, rank_policy="fixed", fixed_rank=4)
    m = derive_model(init_model(cfg, linalg.make_rng(0)), split=split)
    layers = [getattr(block, name) for _, block, name in attention_slots(m)]
    assert {(layer.semantic_rank, layer.ranks) for layer in layers} == {(4, (2, 1, 1))}
    assert m.config == cfg and m.config is not cfg


def test_derive_model_splits_only_once() -> None:
    m = tiny_model(decomposed=True)
    with pytest.raises(ValueError):
        derive_model(m, split=TINY_SPLIT)


def test_derive_model_leaves_its_source_as_it_was() -> None:
    cfg = tiny_config()
    m = init_model(cfg, linalg.make_rng(0))
    params, layout, before = m.params.tobytes(), m.layout, copy.deepcopy(cfg)
    derived = derive_model(m, head=binary_head(m, linalg.make_rng(1)), split=DecompositionConfig(n_subspaces=3))
    assert m.params.tobytes() == params and m.layout is layout
    assert m.config is cfg and cfg == before
    assert derived.layout is not layout and not np.shares_memory(derived.params, m.params)


@pytest.mark.parametrize("seed", [0, 7])
def test_one_derivation_equals_a_split_then_a_new_head(seed) -> None:
    m = init_model(tiny_config(), linalg.make_rng(seed))
    head, split = binary_head(m, linalg.make_rng(seed + 1)), TINY_SPLIT
    once = derive_model(m, head=head, split=split)
    twice = derive_model(derive_model(m, split=split), head=head)
    assert once.params.tobytes() == twice.params.tobytes()
    assert once.config == twice.config
    a, b = once.layout, twice.layout
    assert (a.sections, a.offsets) == (b.sections, b.offsets)
    for name in ("cross_mask", "pair_scale", "pretrained_frob_sq"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    for (_, x, x_name), (_, y, y_name) in zip(attention_slots(once), attention_slots(twice)):
        x, y = getattr(x, x_name), getattr(y, y_name)
        assert (x.layer_id, x.ranks, x.pretrained_frob_sq) == (y.layer_id, y.ranks, y.pretrained_frob_sq)
        assert semantic_to_bytes(x) == semantic_to_bytes(y)


def test_gelu_matches_scalar_reference_and_its_derivative() -> None:
    rng = linalg.make_rng(21)
    x = np.concatenate([rng.normal(scale=3.0, size=200), [0.0, -1e-8, 1e-8, -12.0, 12.0]])
    want = np.array([_gelu_scalar(float(v)) for v in x])

    def gelu(v):
        return model_mod.gelu(v, model_mod.gelu_tanh(v))

    assert np.max(np.abs(gelu(x) - want) / np.maximum(1.0, np.abs(x))) <= 1e-15
    h = 1e-6
    numeric = (gelu(x + h) - gelu(x - h)) / (2.0 * h)
    assert np.max(np.abs(model_mod.gelu_grad(x, model_mod.gelu_tanh(x)) - numeric)) <= 1e-8


@pytest.mark.parametrize("d_model, n_subspaces", [(8, 1), (12, 9)])
def test_grad_check_with_both_regularizers_at_extreme_subspace_counts(d_model, n_subspaces) -> None:
    cfg = ModelConfig(d_model=d_model, n_blocks=1, n_tokens=3, n_classes_pretrain=3)
    m = init_model(cfg, linalg.make_rng(7))
    m = derive_model(m, split=DecompositionConfig(n_subspaces=n_subspaces))
    assert all(getattr(b, n).n_subspaces == n_subspaces for _, b, n in attention_slots(m))
    m = derive_model(m, head=binary_head(m, linalg.make_rng(8)))
    jitter_trainables(m, linalg.make_rng(9))
    x, y = batch(10, 3, cfg)
    rep = grad_check(m, x, y, LossWeights(1.0, 1.0))
    assert rep.passed, f"max rel err {rep.max_rel_err} at coord {rep.worst_index}"


def test_orth_mean_reported_when_its_weight_is_zero() -> None:
    m = tiny_model(seed=3, decomposed=True)
    jitter_trainables(m, linalg.make_rng(4))
    x, y = batch(5, 4, m.config)
    report, _ = backward(m, x, y, LossWeights(0.0, 1.0))
    layers = [getattr(b, n) for _, b, n in attention_slots(m)]
    want = float(np.mean([orth_loss(layer) for layer in layers]))
    assert want > 0.0
    assert abs(report.orth_mean - want) <= 1e-15
    assert report.total == report.cls + report.spec_mean


def test_spec_mean_is_the_standalone_spectral_loss() -> None:
    # backward sums each effective weight's energy once and hands it to
    # spec_loss; the value must be the one spec_loss computes on its own
    m = tiny_model(seed=5, decomposed=True)
    jitter_trainables(m, linalg.make_rng(6))
    x, y = batch(5, 4, m.config)
    report, _ = backward(m, x, y)
    layers = [getattr(b, n) for _, b, n in attention_slots(m)]
    assert report.spec_mean > 0.0
    assert report.spec_mean == float(np.mean([spec_loss(layer) for layer in layers]))


def test_backward_reaches_each_loss_function_through_its_module(monkeypatch) -> None:
    # per-function tracing replaces the module attribute, so every loss term
    # of a step must be looked up there, once for the whole padded stack
    from subtune import losses

    calls: dict[str, int] = {}
    for name in ("orth_loss", "orth_loss_grads", "spec_loss"):
        fn = getattr(losses, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(losses, name, counted)
    m = tiny_model(seed=3, decomposed=True)
    x, y = batch(5, 4, m.config)
    backward(m, x, y, LossWeights(1.0, 1.0))
    assert len({getattr(b, n).tail_rank for _, b, n in attention_slots(m)}) >= 2
    assert calls == {"orth_loss": 1, "orth_loss_grads": 1, "spec_loss": 1}


# samples in one of ``predict``'s row blocks
_ROW_BLOCK = model_mod.PREDICT_ROWS // tiny_config().n_tokens


def _at_row_block_edges(test):
    """Explicit examples one short of, at, one past and one past two row
    blocks, for every pairing of decomposed or plain and binary or
    pretraining head."""
    for n in (_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1):
        for decomposed in (False, True):
            for binary in (False, True):
                test = example(n, decomposed, binary, n)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 300),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@_at_row_block_edges
def test_predict_is_forward_probs_bit_for_bit(n, decomposed, binary, seed) -> None:
    m = tiny_model(seed=seed % 1000, decomposed=decomposed, binary=binary)
    x = linalg.make_rng(seed).normal(size=(n, m.config.n_tokens, m.config.d_model))
    got = predict(m, x)
    assert got.shape == ((n,) if binary else (n, m.config.n_classes_pretrain))
    assert got.tobytes() == forward(m, x).probs.tobytes()


def test_predict_is_forward_probs_bit_for_bit_past_blas_small_matrix_kernel() -> None:
    # 16,400 token rows 16 wide: forward's whole-batch products leave BLAS's
    # small-matrix kernel, predict's row blocks stay in it
    m = init_model(ModelConfig(d_model=16, n_blocks=1, n_tokens=2), linalg.make_rng(4))
    m = derive_model(m, head=binary_head(m, linalg.make_rng(5)))
    x = linalg.make_rng(6).normal(size=(8200, 2, 16))
    assert predict(m, x).tobytes() == forward(m, x).probs.tobytes()


def test_predict_names_the_block_of_an_overflow_in_a_later_row_block() -> None:
    m = tiny_model()
    m.blocks[1].mlp_out[...] = 1e308
    # an all-zero sample stays exactly zero through every block, so only the
    # one random sample, in the last row block, overflows
    x = np.zeros((2 * _ROW_BLOCK + 1, m.config.n_tokens, m.config.d_model))
    assert np.all(np.isfinite(predict(m, x)))
    x[-1] = linalg.make_rng(3).normal(size=x.shape[1:])
    for fn in (forward, predict):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="block 1"):
            fn(m, x)


class Seen:
    """The pid of the process that ran each (block, row block) pair of
    ``predict`` since the last ``clear``, read from a file that the caller
    and its helpers append to."""

    def __init__(self, path) -> None:
        self.fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND)

    def record(self) -> None:
        os.write(self.fd, b"%d\n" % os.getpid())

    def clear(self) -> None:
        os.ftruncate(self.fd, 0)

    def __call__(self) -> list[int]:
        os.lseek(self.fd, 0, os.SEEK_SET)
        return [int(line) for line in os.read(self.fd, 1 << 20).split()]


@pytest.fixture
def runners(monkeypatch, tmp_path):
    """Calling the fixture's value with n makes the process report n usable
    CPUs; the ``Seen`` it returns collects the process that runs each
    (block, row block) pair of ``predict``.  A helper holds the code of its
    fork, so the helpers are stopped before the recorder goes in and after
    the test."""
    seen = Seen(tmp_path / "pids")
    attention = model_mod._attention

    def recorded(*args):
        seen.record()
        return attention(*args)

    stop_helpers()
    monkeypatch.setattr(model_mod, "_attention", recorded)

    def set_cpus(n: int) -> Seen:
        monkeypatch.setattr(model_mod.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return seen

    yield set_cpus
    stop_helpers()
    os.close(seen.fd)


def helper_pids() -> list[int]:
    return [pid for pid, _, _ in model_mod._helpers]


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("n_runners", [1, 2, 3])
@pytest.mark.parametrize("n", [_ROW_BLOCK - 3, _ROW_BLOCK, 2 * _ROW_BLOCK, 2 * _ROW_BLOCK + 5, 3 * _ROW_BLOCK])
def test_predict_is_forward_probs_bit_for_bit_on_every_runner_count(runners, n_runners, n) -> None:
    seen = runners(n_runners)
    m = tiny_model(seed=n, decomposed=True)
    x = linalg.make_rng(n).normal(size=(n, m.config.n_tokens, m.config.d_model))
    want = forward(m, x).probs.tobytes()
    seen.clear()
    assert predict(m, x).tobytes() == want
    n_row_blocks = -(-n // _ROW_BLOCK)
    assert len(seen()) == n_row_blocks * m.config.n_blocks
    assert len(set(seen())) == min(n_runners, n_row_blocks)
    assert predict(m, x).tobytes() == want  # again, on the helpers the first call forked


@pytest.mark.parametrize("n_runners, n", [(2, _ROW_BLOCK), (1, 3 * _ROW_BLOCK)])
def test_predict_forks_no_helper_for_one_row_block_or_one_cpu(runners, n_runners, n) -> None:
    seen = runners(n_runners)
    m = tiny_model()
    predict(m, linalg.make_rng(0).normal(size=(n, m.config.n_tokens, m.config.d_model)))
    assert set(seen()) == {os.getpid()}
    assert helper_pids() == []


def _overflow_in_two_row_blocks():
    """A 4-block model and a two-row-block batch of zero samples but one
    random sample at the end.  Zero samples pass blocks 0 to 2 unchanged
    and overflow in block 3, whose layer-norm bias feeds its huge MLP
    output weights; the random sample overflows in block 1.  The first
    row block's first error is therefore in block 3, the second's in block
    1; a healthy clone of the model comes with them."""
    m = init_model(ModelConfig(d_model=8, n_blocks=4, n_tokens=4, n_classes_pretrain=3), linalg.make_rng(5))
    m = derive_model(m, head=binary_head(m, linalg.make_rng(6)))
    healthy = model_mod.clone_model(m)
    m.blocks[1].mlp_out[...] = 1e308
    m.blocks[3].mlp_out[...] = 1e308
    m.blocks[3].norm2_bias[...] = 1.0
    x = np.zeros((2 * _ROW_BLOCK, m.config.n_tokens, m.config.d_model))
    x[-1] = linalg.make_rng(7).normal(size=x.shape[1:])
    return m, healthy, x


def test_predict_raises_the_error_of_the_lowest_block_across_runners(runners) -> None:
    seen = runners(2)
    m, healthy, x = _overflow_in_two_row_blocks()
    want = predict(healthy, x).tobytes()
    for fn in (forward, predict):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="block 1$"):
            fn(m, x)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="block 3$"):
        predict(m, x[:_ROW_BLOCK])
    assert len(set(seen())) == 2  # the row blocks did run on two processes
    assert predict(healthy, x).tobytes() == want


def test_an_overflow_in_a_helper_raises_what_forward_raises_under_the_callers_error_state(runners) -> None:
    seen = runners(2)
    m = tiny_model()
    m.blocks[1].mlp_out[...] = 1e308
    # only the last sample, in the helper's row block, overflows
    x = np.zeros((2 * _ROW_BLOCK, m.config.n_tokens, m.config.d_model))
    # the helper is forked here, under numpy's default error handling
    assert np.all(np.isfinite(predict(m, x)))
    assert len(helper_pids()) == 1
    x[-1] = linalg.make_rng(3).normal(size=x.shape[1:])
    raised = {}
    for fn in (forward, predict):
        with np.errstate(over="raise", invalid="ignore"), pytest.raises(FloatingPointError) as error:
            fn(m, x)
        raised[fn.__name__] = str(error.value)
    assert raised["predict"] == raised["forward"]
    assert len(set(seen())) == 2


@pytest.mark.parametrize("mode", ["call", "log"])
def test_an_error_callback_makes_the_call_serial(runners, mode) -> None:
    seen = runners(2)
    m = tiny_model(decomposed=True)
    x = linalg.make_rng(4).normal(size=(2 * _ROW_BLOCK, m.config.n_tokens, m.config.d_model))
    want = forward(m, x).probs.tobytes()

    class Log:
        def write(self, message: str) -> None:
            pass

    seen.clear()
    with np.errstate(all=mode, call=print if mode == "call" else Log()):
        assert predict(m, x).tobytes() == want
    assert set(seen()) == {os.getpid()}
    assert helper_pids() == []


@pytest.mark.parametrize("where", ["_attention", "_score_rows"])  # inside a block, or around them
def test_an_error_in_a_helper_reaches_the_caller(runners, monkeypatch, where) -> None:
    runners(2)
    m = tiny_model()
    x = linalg.make_rng(1).normal(size=(2 * _ROW_BLOCK, m.config.n_tokens, m.config.d_model))
    want = predict(m, x).tobytes()
    original = getattr(model_mod, where)
    caller = os.getpid()

    def failing(*args):
        if os.getpid() != caller:
            raise RuntimeError("helper failed")
        return original(*args)

    stop_helpers()  # so the next helper is forked with the failing code
    monkeypatch.setattr(model_mod, where, failing)
    with pytest.raises(RuntimeError, match="helper failed"):
        predict(m, x)
    monkeypatch.setattr(model_mod, where, original)
    stop_helpers()
    assert predict(m, x).tobytes() == want


def test_stopped_helpers_are_reaped_and_the_next_call_forks_new_ones(runners) -> None:
    seen = runners(2)
    m = tiny_model(decomposed=True)
    x = linalg.make_rng(3).normal(size=(2 * _ROW_BLOCK, m.config.n_tokens, m.config.d_model))
    want = forward(m, x).probs.tobytes()
    assert predict(m, x).tobytes() == want
    first = helper_pids()
    assert len(first) == 1
    stop_helpers()
    assert helper_pids() == [] and gone(first[0])
    seen.clear()
    assert predict(m, x).tobytes() == want
    assert len(set(seen())) == 2  # the row blocks ran on the caller and a new helper
    assert len(helper_pids()) == 1 and helper_pids() != first


def test_a_killed_helper_fails_one_call_by_name_and_the_next_forks_a_new_one(runners) -> None:
    runners(2)
    m = tiny_model(decomposed=True)
    x = linalg.make_rng(5).normal(size=(2 * _ROW_BLOCK, m.config.n_tokens, m.config.d_model))
    want = forward(m, x).probs.tobytes()
    assert predict(m, x).tobytes() == want
    (pid,) = helper_pids()
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(RuntimeError) as raised:
        predict(m, x)
    assert str(raised.value) == f"scoring helper {pid} ended with signal 9"
    assert helper_pids() == [] and gone(pid)
    assert predict(m, x).tobytes() == want
    assert len(helper_pids()) == 1


# a fresh interpreter that reports two usable CPUs scores a two-row-block
# batch, prints its helpers' pids and exits
_SCORES_AND_EXITS = """
import json, os
from subtune import linalg, model
from subtune.model import ModelConfig, init_model, predict

os.sched_getaffinity = lambda pid: {0, 1}
m = init_model(ModelConfig(), linalg.make_rng(0))
predict(m, linalg.make_rng(1).normal(size=(2 * model.PREDICT_ROWS // 8, 8, 16)))
print(json.dumps([pid for pid, _, _ in model._helpers]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_no_helper_outlives_its_process() -> None:
    done = subprocess.run([sys.executable, "-c", _SCORES_AND_EXITS], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pids = json.loads(done.stdout)
    assert len(pids) == 1
    assert all(gone(pid) for pid in pids)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_scores_as_its_parent(runners) -> None:
    seen = runners(2)
    m = tiny_model(decomposed=True)
    x = linalg.make_rng(2).normal(size=(2 * _ROW_BLOCK + 1, m.config.n_tokens, m.config.d_model))
    want = predict(m, x).tobytes()
    parents = helper_pids()
    assert len(parents) == 1
    with warnings.catch_warnings():  # newer Pythons warn about forking beside BLAS threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: it forgets its parent's helper and forks its own
        code = 1
        try:
            seen.clear()
            same = predict(m, x).tobytes() == want
            runs = set(seen())
            mine = helper_pids()
            stop_helpers()
            code = 0 if same and runs == {os.getpid(), *mine} and len(mine) == 1 and mine != parents else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    # the parent's helper is still its own
    seen.clear()
    assert predict(m, x).tobytes() == want
    assert helper_pids() == parents and set(seen()) == {os.getpid(), *parents}


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
             1e-160, 1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308]
_kernel_floats = st.one_of(
    st.sampled_from(_EXTREMES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-40.0, 40.0),
)


def _same_bits(got, want) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=9), elements=_kernel_floats))
def test_gelu_kernels_match_the_plain_expressions_bit_for_bit(x) -> None:
    # scoring overwrites its scratch; training keeps the tanh for the gradient
    with np.errstate(all="ignore"):
        _same_bits(model_mod.gelu(x.copy()), plain_gelu(x))
        scratch, out = x.copy(), np.empty_like(x)
        got = model_mod.gelu(scratch, None, out)
        assert got is out
        _same_bits(got, plain_gelu(x))
        t = model_mod.gelu_tanh(x)
        kept, x_kept = t.copy(), x.copy()
        _same_bits(model_mod.gelu(x, t), plain_gelu(x))
        _same_bits(model_mod.gelu_grad(x, t), plain_gelu_grad(x))
        _same_bits(t, kept)
        _same_bits(x, x_kept)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4), st.integers(1, 5), st.integers(1, 24),
    st.data(),
)
def test_layer_norm_matches_the_plain_expression_bit_for_bit(n, t, d, data) -> None:
    x = data.draw(hnp.arrays(np.float64, (n, t, d), elements=_kernel_floats))
    gain = data.draw(hnp.arrays(np.float64, (d,), elements=st.floats(-4.0, 4.0)))
    bias = data.draw(hnp.arrays(np.float64, (d,), elements=st.floats(-4.0, 4.0)))
    with np.errstate(all="ignore"):
        for got, want in zip(model_mod._layer_norm(x, gain, bias), plain_layer_norm(x, gain, bias)):
            _same_bits(got, want)
        # into given arrays, as the scoring path's scratch buffer has them
        out, xhat = np.empty_like(x), np.empty_like(x)
        got = model_mod._layer_norm(x, gain, bias, out, xhat)
        assert got[0] is out and got[1] is xhat
        for got, want in zip(got, plain_layer_norm(x, gain, bias)):
            _same_bits(got, want)


# The block math's short-axis sums are BLAS products, which sum in another
# order than numpy does; the tests below hold them within rounding of exact
# sums (``math.fsum``).  A sum of d terms, each at most M in magnitude, is
# off by at most about d ulps of M, so each bound is a few times d * eps *
# M, plus a few of the smallest subnormal where a term or a quotient lands
# among the subnormals.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
_wide_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e-160, 1e150, -1e150]),
    st.floats(-1e150, 1e150),
    st.floats(-40.0, 40.0),
)


def _exact_means(x: np.ndarray) -> np.ndarray:
    """Each last-axis row's correctly rounded sum, divided by its length."""
    d = x.shape[-1]
    return np.array([math.fsum(row) / d for row in x.reshape(-1, d)]).reshape(*x.shape[:-1], 1)


def _row_max(x: np.ndarray) -> np.ndarray:
    return np.max(np.abs(x), axis=-1, keepdims=True)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(2, 32), st.data())
def test_layer_norm_is_within_rounding_of_the_exact_sums(n, t, d, data) -> None:
    """The model's layer norm and the textbook one (``x.mean``, ``x.var``)
    against fsum: each mean within d * eps * M; the variance, read back
    from inv_std, within (2d + 16) eps (var + LN_EPS) + 2 (d eps M)^2; and
    the centred values, read back as xhat / inv_std, within d eps M plus 4
    eps of themselves, M being the row's largest magnitude.  ``out`` is
    xhat * gain + bias, which the bit-for-bit test pins."""
    x = data.draw(hnp.arrays(np.float64, (n, t, d), elements=_wide_floats))
    gain = data.draw(hnp.arrays(np.float64, (d,), elements=st.floats(-4.0, 4.0)))
    bias = data.draw(hnp.arrays(np.float64, (d,), elements=st.floats(-4.0, 4.0)))
    big = _row_max(x)
    mean = _exact_means(x)
    centred = x - mean
    var = _exact_means(centred * centred)
    assert np.all(np.abs(model_mod._mean(x) - mean) <= d * _EPS * big + _TINY)
    for layer_norm in (model_mod._layer_norm, textbook_layer_norm):
        _, xhat, inv_std = layer_norm(x, gain, bias)
        var_bound = (2 * d + 16) * _EPS * (var + model_mod.LN_EPS) + 2 * (d * _EPS * big) ** 2
        assert np.all(np.abs(1.0 / (inv_std * inv_std) - model_mod.LN_EPS - var) <= var_bound), layer_norm
        centred_bound = d * _EPS * big + 4 * _EPS * np.abs(centred) + 2 * _TINY * np.maximum(1.0, 1.0 / inv_std)
        assert np.all(np.abs(xhat / inv_std - centred) <= centred_bound), layer_norm


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(2, 32), st.data())
def test_layer_norm_input_grad_is_within_rounding_of_the_exact_sums(n, t, d, data) -> None:
    """inv_std * (g - mean(g) - xhat * mean(g * xhat)), g = dy * gain, with
    both means by fsum: the model is within inv_std * (2 (d + 4) eps (M_g
    + |xhat| M_gx) + 2 d tiny) + 2 eps of the result, M_g and M_gx being
    the largest magnitudes in the rows of g and g * xhat."""
    dy = data.draw(hnp.arrays(np.float64, (n, t, d), elements=_wide_floats))
    xhat = data.draw(hnp.arrays(np.float64, (n, t, d), elements=st.floats(-4.0, 4.0)))
    inv_std = data.draw(hnp.arrays(np.float64, (n, t, 1), elements=st.floats(1e-3, 1e3)))
    gain = data.draw(hnp.arrays(np.float64, (d,), elements=st.floats(-4.0, 4.0)))
    g = dy * gain
    want = inv_std * (g - _exact_means(g) - xhat * _exact_means(g * xhat))
    got = model_mod._layer_norm_input_grad(dy, xhat, inv_std, gain)
    scale = _row_max(g) + np.abs(xhat) * _row_max(g * xhat)
    bound = inv_std * (2 * (d + 4) * _EPS * scale + 2 * d * _TINY) + 2 * _EPS * np.abs(want) + _TINY
    assert np.all(np.abs(got - want) <= bound)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(2, 16), st.integers(2, 16), st.sampled_from([1.0, 10.0, 100.0]), st.data())
def test_attention_softmax_is_within_rounding_of_the_exact_row_sums(n, t, d, weight_scale, data) -> None:
    """Each attention probability within t * eps of itself (plus the
    smallest subnormal) of exp(score - row max) / fsum(row): the scores and
    their exponentials are formed as the model forms them, so only the
    row sum differs.  Large weights spread the scores, so that some
    exponentials underflow."""
    a_in = data.draw(hnp.arrays(np.float64, (n, t, d), elements=_wide_floats))
    m = init_model(ModelConfig(d_model=d, n_blocks=1, n_tokens=t), linalg.make_rng(t * 100 + d))
    w = model_mod.weight_stack(m) * weight_scale
    _, (_, _, _, q, k, _, probs, _) = model_mod._attention(m.blocks[0], w, a_in)
    with np.errstate(under="ignore"):
        e = np.matmul(q, k.transpose(0, 2, 1))
        e *= 1.0 / math.sqrt(d)
        e = np.exp(e - e.max(axis=-1, keepdims=True))
    want = e / np.array([math.fsum(row) for row in e.reshape(-1, t)]).reshape(n, t, 1)
    assert np.all(np.abs(probs - want) <= t * _EPS * want + _TINY)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 32), st.integers(2, 2100), st.data(), st.integers(0, 2**32 - 1))
@example(16, 2100, None, 0)
@example(8, 2100, None, 1)
@example(16, 20_000, None, 2)
def test_a_row_sum_rounds_the_same_whatever_rows_share_its_product(d, n_rows, data, seed) -> None:
    """``predict`` sums a row block's rows where ``forward`` sums the whole
    batch, so each row's sum must not depend on which rows share its
    product.  Slices of 2 rows up are checked (the model's row count is
    samples * n_tokens, at least 2).  The explicit examples cut the array
    into ``predict``'s row blocks, and across a block edge; at 20,000 rows
    the whole array's product is past BLAS's small-matrix kernel and the
    blocks' are not.  Each row's magnitude is drawn from the subnormals to
    1e150, its terms alike, so that the order of a sum shows in its
    rounding."""
    rng = linalg.make_rng(seed)
    x = rng.normal(size=(n_rows, d)) * 10.0 ** rng.integers(-320, 150, size=(n_rows, 1))
    whole = model_mod._row_sums(x)
    if data is None:
        step = model_mod.PREDICT_ROWS
        slices = [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
        slices += [(step - 3, step + 2), (step - 2, step + 1)]
    else:
        lo = data.draw(st.integers(0, n_rows - 2))
        slices = [(lo, data.draw(st.integers(lo + 2, n_rows)))]
    for lo, hi in slices:
        assert model_mod._row_sums(x[lo:hi]).tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def test_predict_keeps_no_backward_cache() -> None:
    # forward holds every block's activations for backward; predict holds
    # one block's at a time, so its traced peak is a fraction of forward's
    m = init_model(ModelConfig(), linalg.make_rng(0))
    m = derive_model(m, head=binary_head(m, linalg.make_rng(1)), split=DecompositionConfig())
    x = linalg.make_rng(2).normal(size=(256, m.config.n_tokens, m.config.d_model))
    peaks = {}
    for name, fn in (("forward", forward), ("predict", predict)):
        tracemalloc.start()
        fn(m, x)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["predict"] * 3 < peaks["forward"], peaks


def test_binary_head_backward_forms_only_the_fine_tuned_gradients() -> None:
    m = tiny_model(seed=8, decomposed=True)
    x, y = batch(9, 5, m.config)
    _, grads = backward(m, x, y, LossWeights(1.0, 1.0))
    # the gradient is the layout's prefix of rows and head, nothing frozen
    assert grads.params.shape == (m.trainable.size + m.head.size,) and grads.params.size < m.params.size
    assert (grads.trainable.shape, m.layout.carve(grads.params)[1].shape) == (m.trainable.shape, m.head.shape)
    assert grad_vector(m, grads).shape == m.params[m.layout.trained].shape
    binary_plain = tiny_model(seed=8)
    _, plain_grads = backward(binary_plain, x, y)
    assert plain_grads.params.shape == (binary_plain.trainable.size + binary_plain.head.size,)
    assert plain_grads.params.size < binary_plain.params.size
    plain = tiny_model(seed=8, binary=False)
    _, full_grads = backward(plain, x, np.array([0, 1, 2, 1, 0]))
    assert full_grads.params.shape == plain.params.shape


@pytest.mark.parametrize("decomposed", [False, True])
@pytest.mark.parametrize("binary", [True, False])
def test_forward_keeps_the_mlp_input_and_activation_for_a_pretraining_head_only(decomposed, binary) -> None:
    # only the frozen slots' gradients read them, and a binary head trains none
    m = tiny_model(seed=8, decomposed=decomposed, binary=binary)
    x, _ = batch(9, 5, m.config)
    cache = forward(m, x)
    assert len(cache.blocks) == m.config.n_blocks
    rows, d = (5, m.config.n_tokens), m.config.d_model
    for attention, (ln2_xhat, ln2_inv, wn, z1, gelu_t, act) in cache.blocks:
        assert len(attention) == 8
        assert ln2_xhat.shape == (*rows, d) and z1.shape == gelu_t.shape == (*rows, 2 * d)
        if binary:
            assert wn is None and act is None
        else:
            assert wn.shape == (*rows, d) and act.shape == (*rows, 2 * d)


@pytest.mark.parametrize("decomposed", [False, True])
def test_the_layout_sizes_the_gradient_and_lists_what_backward_differentiates(decomposed) -> None:
    x, y = batch(9, 5, tiny_config())
    binary = tiny_model(seed=8, decomposed=decomposed)
    layout = binary.layout
    assert layout.grad_size == layout.offsets[2] == binary.trainable.size + binary.head.size
    assert backward(binary, x, y)[1].params.size == layout.grad_size
    n_rows = sum(slot.size if isinstance(slot, np.ndarray) else slot.u.size + slot.s.size + slot.v.size
                 for slot in (getattr(block, name) for _, block, name in attention_slots(binary)))
    assert layout.trained.size == n_rows + binary.head.size
    assert np.array_equal(layout.trained[-binary.head.size :], np.arange(binary.trainable.size, layout.grad_size))
    pretrain = tiny_model(seed=8, decomposed=decomposed, binary=False)
    assert pretrain.layout.grad_size == pretrain.params.size
    assert backward(pretrain, x, np.array([0, 1, 2, 1, 0]))[1].params.size == pretrain.params.size
    assert np.array_equal(pretrain.layout.trained, np.arange(pretrain.params.size))
