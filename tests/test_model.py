from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_forward import (
    _gelu_scalar,
    plain_gelu,
    plain_gelu_grad,
    plain_layer_norm,
    reference_predict,
)
from subtune import linalg, model as model_mod
from subtune.decomposition import DecompositionConfig
from subtune.gradcheck import grad_check, jitter_trainables
from subtune.losses import LossWeights, orth_loss, spec_loss
from subtune.model import (
    Model,
    ModelConfig,
    attention_slots,
    backward,
    decompose_attention,
    forward,
    init_model,
    predict,
    reset_head,
)


def tiny_config(n_subspaces: int = 2) -> ModelConfig:
    return ModelConfig(
        d_model=8,
        n_blocks=2,
        n_tokens=4,
        n_classes_pretrain=3,
        decomposition=DecompositionConfig(n_subspaces=n_subspaces),
    )


def tiny_model(seed: int = 42, decomposed: bool = False, binary: bool = True) -> Model:
    m = init_model(tiny_config(), linalg.make_rng(seed))
    if decomposed:
        decompose_attention(m)
    if binary:
        reset_head(m, 1, linalg.make_rng(seed + 1))
    return m


def batch(seed: int, n: int, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = linalg.make_rng(seed)
    x = rng.normal(size=(n, cfg.n_tokens, cfg.d_model))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return x, y


def grad_vector(grads) -> np.ndarray:
    return model_mod.flat_vector(model_mod.trainable_arrays(grads))


def test_zero_head_gives_half_probability() -> None:
    m = tiny_model()
    m.head = np.zeros_like(m.head)
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
    m.blocks[1].mlp_out = np.full_like(m.blocks[1].mlp_out, 1e308)
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
    _, grads, _ = backward(m, x, y, LossWeights(0.0, 0.0))
    assert np.abs(grad_vector(grads)).max() > 0.0
    # saturate the head so p hits the clamp rails exactly at the true labels;
    # with regularizer weights zero the learning signal collapses (the
    # clamp's 1e-12 residual times the 1e4-scale head leaves ~1e-8 noise)
    big = tiny_model(decomposed=True)
    big_x = x[:2]
    big_y = np.array([1.0, 0.0])
    pool = forward(big, big_x).pool
    big.head = 1e4 * (pool[0] - pool[1])[None, :]
    p = predict(big, big_x)
    assert p[0] == 1.0 - 1e-12 and p[1] == 1e-12
    _, g2, _ = backward(big, big_x, big_y, LossWeights(0.0, 0.0))
    assert np.abs(g2.head).max() <= 1e-8
    assert np.abs(grad_vector(g2)).max() <= 1e-6


def test_backward_spectral_gradient_on_perturbed_strength() -> None:
    # zero inputs silence the data chain, isolating the spectral term
    m = tiny_model(seed=6, decomposed=True)
    x = np.zeros((2, m.config.n_tokens, m.config.d_model))
    y = np.array([1.0, 0.0])
    n = m.config.n_decomposable
    layer = m.blocks[0].q
    layer.artifacts[0].s[0] += 0.1
    _, grads, _ = backward(m, x, y, LossWeights(0.0, 1.0))
    fg = grads.blocks[0].q
    s_val = layer.artifacts[0].s[0]
    want = 2.0 * s_val / n  # positive drift: sign is +1
    got = layer.split(fg)[1][0]  # group 0 starts the tail
    assert abs(got - want) <= 1e-9
    # untouched fresh model: spectral gradient exactly zero at the kink
    m2 = tiny_model(seed=6, decomposed=True)
    _, g2, _ = backward(m2, x, y, LossWeights(0.0, 1.0))
    for lid, block, name in attention_slots(m2):
        du, ds, dv = getattr(block, name).split(getattr(g2.blocks[lid // 4], name))
        assert np.max(np.abs(ds)) == 0.0
        assert np.max(np.abs(du)) == 0.0
        assert np.max(np.abs(dv)) == 0.0


def test_grad_check_finetune_passes() -> None:
    m = tiny_model(seed=42, decomposed=True)
    jitter_trainables(m, linalg.make_rng(5), scale=0.05)
    x, y = batch(11, 3, m.config)
    rep = grad_check(m, x, y, LossWeights(1.0, 1.0), h=1e-5, tol=1e-5)
    assert rep.passed, f"max rel err {rep.max_rel_err} at coord {rep.worst_index}"


def test_grad_check_full_pretrain_model_passes() -> None:
    m = tiny_model(seed=13, decomposed=False, binary=False)
    x, _ = batch(12, 3, m.config)
    labels = np.array([0, 2, 1])
    rep = grad_check(m, x, labels, None, h=1e-5, tol=1e-5, mode="full")
    assert rep.passed, f"max rel err {rep.max_rel_err} at coord {rep.worst_index}"


def test_grad_check_reports_corrupted_coordinate() -> None:
    m = tiny_model(seed=42, decomposed=True)
    jitter_trainables(m, linalg.make_rng(5), scale=0.05)
    x, y = batch(11, 3, m.config)
    honest = grad_check(m, x, y, LossWeights(1.0, 1.0))
    # pick a coordinate with a solidly nonzero gradient, then double it
    _, grads, _ = backward(m, x, y, LossWeights(1.0, 1.0))
    vec = grad_vector(grads)
    target = int(np.argmax(np.abs(vec)))
    rep = grad_check(m, x, y, LossWeights(1.0, 1.0), corrupt=(target, 2.0))
    assert honest.passed and not rep.passed
    assert rep.worst_index == target


def test_grad_check_large_step_warns() -> None:
    m = tiny_model(seed=42, decomposed=True)
    x, y = batch(11, 2, m.config)
    rep = grad_check(m, x, y, LossWeights(0.0, 0.0), h=1e-1, tol=1.0)
    assert rep.warning is not None and "truncation" in rep.warning


def test_param_vector_roundtrip() -> None:
    m = tiny_model(decomposed=True)
    arrays = model_mod.trainable_arrays(m)
    vec = model_mod.flat_vector(arrays)
    rng = linalg.make_rng(3)
    new = vec + rng.normal(size=vec.shape)
    model_mod.set_flat(arrays, new)
    assert np.array_equal(model_mod.flat_vector(model_mod.trainable_arrays(m)), new)
    plain = tiny_model(decomposed=False, binary=False)
    full = model_mod.flat_vector(model_mod.trainable_arrays(plain, "full"))
    new_full = full + rng.normal(size=full.shape)
    model_mod.set_flat(model_mod.trainable_arrays(plain, "full"), new_full)
    assert np.array_equal(model_mod.flat_vector(model_mod.trainable_arrays(plain, "full")), new_full)
    with pytest.raises(ValueError):
        model_mod.set_flat(arrays, new[:-1])


def test_attention_slots_order_and_count() -> None:
    m = tiny_model()
    slots = attention_slots(m)
    assert len(slots) == m.config.n_decomposable == 8
    assert [s[0] for s in slots] == list(range(8))
    assert [s[2] for s in slots[:4]] == ["q", "k", "v", "o"]


def test_decompose_attention_only_once() -> None:
    m = tiny_model(decomposed=True)
    with pytest.raises(ValueError):
        decompose_attention(m)


def test_gelu_matches_scalar_reference_and_its_derivative() -> None:
    rng = linalg.make_rng(21)
    x = np.concatenate([rng.normal(scale=3.0, size=200), [0.0, -1e-8, 1e-8, -12.0, 12.0]])
    want = np.array([_gelu_scalar(float(v)) for v in x])
    assert np.max(np.abs(model_mod.gelu(x) - want) / np.maximum(1.0, np.abs(x))) <= 1e-15
    h = 1e-6
    numeric = (model_mod.gelu(x + h) - model_mod.gelu(x - h)) / (2.0 * h)
    assert np.max(np.abs(model_mod.gelu_grad(x) - numeric)) <= 1e-8


@pytest.mark.parametrize("d_model, n_subspaces", [(8, 1), (12, 9)])
def test_grad_check_with_both_regularizers_at_extreme_subspace_counts(d_model, n_subspaces) -> None:
    cfg = ModelConfig(
        d_model=d_model, n_blocks=1, n_tokens=3, n_classes_pretrain=3,
        decomposition=DecompositionConfig(n_subspaces=n_subspaces),
    )
    m = init_model(cfg, linalg.make_rng(7))
    decompose_attention(m)
    assert all(getattr(b, n).n_subspaces == n_subspaces for _, b, n in attention_slots(m))
    reset_head(m, 1, linalg.make_rng(8))
    jitter_trainables(m, linalg.make_rng(9), scale=0.05)
    x, y = batch(10, 3, cfg)
    rep = grad_check(m, x, y, LossWeights(1.0, 1.0), h=1e-5, tol=1e-5)
    assert rep.passed, f"max rel err {rep.max_rel_err} at coord {rep.worst_index}"


def test_orth_mean_reported_when_its_weight_is_zero() -> None:
    m = tiny_model(seed=3, decomposed=True)
    jitter_trainables(m, linalg.make_rng(4), scale=0.05)
    x, y = batch(5, 4, m.config)
    report, _, _ = backward(m, x, y, LossWeights(0.0, 1.0))
    layers = [getattr(b, n) for _, b, n in attention_slots(m)]
    want = float(np.mean([orth_loss(layer) for layer in layers]))
    assert want > 0.0
    assert abs(report.orth_mean - want) <= 1e-15
    assert report.total == report.cls + report.spec_mean


def test_spec_mean_is_the_standalone_spectral_loss() -> None:
    # backward sums each effective weight's energy once and hands it to
    # spec_loss; the value must be the one spec_loss computes on its own
    m = tiny_model(seed=5, decomposed=True)
    jitter_trainables(m, linalg.make_rng(6), scale=0.05)
    x, y = batch(5, 4, m.config)
    report, _, _ = backward(m, x, y)
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 300),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_predict_is_forward_probs_bit_for_bit(n, decomposed, binary, seed) -> None:
    m = tiny_model(seed=seed % 1000, decomposed=decomposed, binary=binary)
    x = linalg.make_rng(seed).normal(size=(n, m.config.n_tokens, m.config.d_model))
    got = predict(m, x)
    assert got.shape == ((n,) if binary else (n, m.config.n_classes_pretrain))
    assert got.tobytes() == forward(m, x).probs.tobytes()


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
    with np.errstate(all="ignore"):
        _same_bits(model_mod.gelu(x), plain_gelu(x))
        _same_bits(model_mod.gelu_grad(x), plain_gelu_grad(x))


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


def test_predict_keeps_no_backward_cache() -> None:
    # forward holds every block's activations for backward; predict holds
    # one block's at a time, so its traced peak is a fraction of forward's
    m = init_model(ModelConfig(), linalg.make_rng(0))
    decompose_attention(m)
    reset_head(m, 1, linalg.make_rng(1))
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
    _, grads, _ = backward(m, x, y, LossWeights(1.0, 1.0))
    assert grads.token_embed is None
    for bg in grads.blocks:
        for slot in model_mod.FROZEN_SLOTS:
            assert getattr(bg, slot) is None
    assert [g.shape for g in model_mod.trainable_arrays(grads)] == [
        a.shape for a in model_mod.trainable_arrays(m)
    ]
    with pytest.raises(ValueError, match="needs every gradient"):
        model_mod.trainable_arrays(grads, "full")
    plain = tiny_model(seed=8, binary=False)
    _, full_grads, _ = backward(plain, x, np.array([0, 1, 2, 1, 0]))
    assert [g.shape for g in model_mod.trainable_arrays(full_grads, "full")] == [
        a.shape for a in model_mod.trainable_arrays(plain, "full")
    ]
