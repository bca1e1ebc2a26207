from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_split_ranks
from reference_forward import per_subspace_recompose

from subtune import linalg
from subtune.decomposition import (
    DecomposedLayer,
    DecompositionConfig,
    SemanticPart,
    decompose,
    energy_fractions,
    recompose,
    split_ranks,
)


def _fixed(total: int, semantic_rank: int, n_subspaces: int) -> tuple[int, tuple[int, ...]]:
    """The split of a rank-``total`` spectrum at a fixed semantic rank."""
    cfg = DecompositionConfig(n_subspaces=n_subspaces, rank_policy="fixed", fixed_rank=semantic_rank)
    return split_ranks(np.linspace(5.0, 0.5, total), cfg)


def test_split_ranks_examples() -> None:
    # stated rule, remainder-first rule, single tail component
    assert _fixed(10, 4, 3) == (4, (2, 2, 2))
    assert _fixed(10, 3, 3) == (3, (3, 2, 2))
    assert _fixed(5, 4, 1) == (4, (1,))


def test_split_ranks_sizes() -> None:
    rng = linalg.make_rng(42)
    for _ in range(200):
        total = int(rng.integers(2, 60))
        sem = int(rng.integers(1, total))
        n_sub = int(rng.integers(1, total - sem + 1))
        r, ranks = _fixed(total, sem, n_sub)
        assert r == sem and len(ranks) == n_sub
        # every subspace populated, the tail covered exactly
        assert min(ranks) >= 1 and sum(ranks) == total - sem
        assert max(ranks) - min(ranks) <= 1
        # earlier blocks receive the remainder
        assert list(ranks) == sorted(ranks, reverse=True)


def test_split_ranks_energy_oracle() -> None:
    # oracle: independent cumulative-energy scan over the spectrum
    rng = linalg.make_rng(16)
    cfg = DecompositionConfig(n_subspaces=5, rank_policy="energy", energy_fraction=0.9)
    for _ in range(25):
        w = rng.normal(size=(16, 16))
        s = linalg.svd(w).s
        total = math.fsum(float(x) ** 2 for x in s)
        want = None
        acc = 0.0
        for i, x in enumerate(s):
            acc += float(x) ** 2
            if acc / total >= 0.9:
                want = i + 1
                break
        assert want is not None
        want = max(1, min(want, len(s) - cfg.n_subspaces))
        assert split_ranks(s, cfg)[0] == want


def test_split_ranks_clamping() -> None:
    # full-capture threshold would demand r = R; the clamp leaves K components
    s = np.array([4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05])
    cfg = DecompositionConfig(n_subspaces=5, rank_policy="energy", energy_fraction=1.0)
    assert split_ranks(s, cfg) == (3, (1, 1, 1, 1, 1))
    # steep spectrum: first component alone crosses the threshold
    steep = np.array([100.0, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001])
    assert split_ranks(steep, DecompositionConfig(n_subspaces=5)) == (1, (2, 2, 1, 1, 1))


def test_split_ranks_fixed_policy() -> None:
    s = np.linspace(5.0, 0.5, 10)
    cfg = DecompositionConfig(n_subspaces=3, rank_policy="fixed", fixed_rank=4)
    assert split_ranks(s, cfg) == (4, (2, 2, 2))
    with pytest.raises(ValueError):
        DecompositionConfig(rank_policy="fixed").validate()
    with pytest.raises(ValueError):
        DecompositionConfig(rank_policy="nonsense").validate()


@pytest.mark.parametrize("total, n_subspaces, fixed_rank, message", [
    (4, 5, None, "config key decomposition.n_subspaces must be <= 3 for a layer of rank 4 "
                 "(one semantic component and one per subspace), got 5"),
    (4, 4, None, "config key decomposition.n_subspaces must be <= 3 for a layer of rank 4"),
    (10, 3, 8, "config key decomposition.fixed_rank must be <= 7 for a layer of rank 10 split into 3 subspaces, got 8"),
    (5, 3, 3, "config key decomposition.fixed_rank must be <= 2 for a layer of rank 5 split into 3 subspaces, got 3"),
    (5, 2, 0, "config key decomposition.fixed_rank must be >= 1"),
    (5, 0, None, "config key decomposition.n_subspaces must be >= 1"),
])
def test_split_ranks_refusals_name_the_key(total, n_subspaces, fixed_rank, message) -> None:
    # a K or fixed_rank the layer cannot hold is refused where the layer is
    # split, directly or through decompose, stating the layer's rank
    policy = "energy" if fixed_rank is None else "fixed"
    cfg = DecompositionConfig(n_subspaces=n_subspaces, rank_policy=policy, fixed_rank=fixed_rank)
    with pytest.raises(ValueError, match=re.escape(message)):
        split_ranks(np.linspace(5.0, 0.5, total), cfg)
    with pytest.raises(ValueError, match=re.escape(message)):
        decompose(linalg.make_rng(3).normal(size=(total + 2, total)), cfg)


@st.composite
def spectra_and_configs(draw) -> tuple[np.ndarray, DecompositionConfig]:
    """A descending positive spectrum and a split config it can hold."""
    s = np.array(sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40)), reverse=True))
    k = draw(st.integers(1, s.shape[0] - 1))
    if draw(st.booleans()):
        return s, DecompositionConfig(n_subspaces=k, rank_policy="fixed",
                                      fixed_rank=draw(st.integers(1, s.shape[0] - k)))
    fraction = draw(st.floats(0.0, 1.0, exclude_min=True))
    return s, DecompositionConfig(n_subspaces=k, energy_fraction=fraction)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spectra_and_configs())
def test_split_ranks_matches_the_two_step_loop(case) -> None:
    s, cfg = case
    assert split_ranks(s, cfg) == loop_split_ranks(s, cfg)


def test_decompose_diagonal_example() -> None:
    w = np.diag([4.0, 2.0, 1.0])
    cfg = DecompositionConfig(n_subspaces=2, rank_policy="fixed", fixed_rank=1)
    layer = decompose(w, cfg, layer_id=3)
    assert layer.layer_id == 3
    assert layer.semantic_rank == 1
    assert np.allclose(layer.semantic.w, np.diag([4.0, 0.0, 0.0]), atol=1e-12)
    assert [a.rank for a in layer.artifacts] == [1, 1]
    assert np.allclose(layer.artifacts[0].s, [2.0])
    assert np.allclose(layer.artifacts[1].s, [1.0])
    assert np.max(np.abs(recompose(layer) - w)) <= 1e-12


def test_decompose_rejects_zero_matrix() -> None:
    cfg = DecompositionConfig(n_subspaces=2, rank_policy="fixed", fixed_rank=1)
    with pytest.raises(ValueError):
        decompose(np.zeros((4, 4)), cfg)


def test_an_underflowing_spectrum_is_refused_by_layer_under_the_energy_policy_only() -> None:
    # non-zero, but every squared singular value underflows to 0.0
    w = linalg.make_rng(0).normal(size=(6, 6)) * 1e-170
    message = "layer 7's squared singular values underflow to 0: decomposition.rank_policy energy cannot split it"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decompose(w, DecompositionConfig(n_subspaces=2), layer_id=7)
    layer = decompose(w, DecompositionConfig(n_subspaces=2, rank_policy="fixed", fixed_rank=2), layer_id=7)
    assert (layer.semantic_rank, layer.ranks) == (2, (2, 2))


def test_decompose_reconstruction_and_rank_budget() -> None:
    rng = linalg.make_rng(77)
    cfg = DecompositionConfig(n_subspaces=5)
    for shape in [(16, 16), (64, 32), (128, 128)]:
        w = rng.normal(size=shape)
        layer = decompose(w, cfg)
        total = min(shape)
        assert layer.semantic_rank + sum(a.rank for a in layer.artifacts) == total
        rel = np.linalg.norm(recompose(layer) - w) / np.linalg.norm(w)
        assert rel <= 1e-8


def test_cross_orthogonality_at_init() -> None:
    rng = linalg.make_rng(13)
    cfg = DecompositionConfig(n_subspaces=4)
    layer = decompose(rng.normal(size=(24, 24)), cfg)
    parts = layer.artifacts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            gu = parts[i].u.T @ parts[j].u
            gv = parts[i].v.T @ parts[j].v
            assert float(np.sum(gu * gu)) <= 1e-18
            assert float(np.sum(gv * gv)) <= 1e-18
    # artifact columns also orthonormal within themselves at init
    for p in parts:
        assert np.max(np.abs(p.u.T @ p.u - np.eye(p.rank))) <= 1e-10
        assert np.max(np.abs(p.v.T @ p.v - np.eye(p.rank))) <= 1e-10


def test_semantic_subspace_is_read_only() -> None:
    layer = decompose(linalg.make_rng(1).normal(size=(8, 8)), DecompositionConfig(n_subspaces=3))
    with pytest.raises(ValueError):
        layer.semantic.u[0, 0] = 5.0
    with pytest.raises(ValueError):
        layer.semantic.s[0] = 5.0
    with pytest.raises(ValueError):
        layer.semantic.w[0, 0] = 5.0
    assert np.max(np.abs(layer.semantic.w - (layer.semantic.u * layer.semantic.s) @ layer.semantic.v.T)) <= 1e-12


def test_recompose_zeroed_and_perturbed_strengths() -> None:
    rng = linalg.make_rng(5)
    layer = decompose(rng.normal(size=(10, 10)), DecompositionConfig(n_subspaces=3))
    for a in layer.artifacts:
        a.s[:] = 0.0
    assert np.array_equal(recompose(layer), layer.semantic.w)
    # bump one strength: difference is exactly delta * u v^T of that component
    delta = 0.37
    layer.artifacts[1].s[0] = delta
    u = layer.artifacts[1].u[:, 0]
    v = layer.artifacts[1].v[:, 0]
    diff = recompose(layer) - layer.semantic.w
    assert np.max(np.abs(diff - delta * np.outer(u, v))) <= 1e-14


@st.composite
def padded_layers(draw) -> DecomposedLayer:
    """A layer with random factors (not orthonormal) over random ranks and
    K, its params zero-padded past the tail as in a model's stack."""
    d_out, d_in = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    ranks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    width = sum(ranks) + draw(st.integers(0, 4))
    rng = linalg.make_rng(draw(st.integers(0, 2**32 - 1)))
    sem_r = draw(st.integers(1, 4))
    sem_u, sem_s, sem_v = rng.normal(size=(d_out, sem_r)), rng.normal(size=sem_r), rng.normal(size=(d_in, sem_r))
    layer = DecomposedLayer(
        layer_id=0,
        semantic=SemanticPart(sem_u, sem_s, sem_v),
        ranks=ranks,
        params=np.zeros((d_out + 1 + d_in) * width),
        pretrained_frob_sq=1.0,
    )
    for view in (layer.u, layer.s, layer.v):
        view[...] = rng.normal(size=view.shape)
    return layer


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(padded_layers())
def test_whole_tail_recompose_matches_the_per_subspace_sum(layer) -> None:
    # one product over the tail rounds differently from K summed products,
    # but only at the level of float roundoff
    want = per_subspace_recompose(layer)
    got = recompose(layer)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(want)


def test_a_layer_refuses_a_vector_of_the_wrong_size() -> None:
    # a layer's views are built when it is made, so a vector of the wrong
    # size is refused there, and params cannot be rebound afterwards
    layer = decompose(linalg.make_rng(2).normal(size=(6, 6)), DecompositionConfig(n_subspaces=2))
    with pytest.raises(ValueError, match="does not match"):
        DecomposedLayer(layer.layer_id, layer.semantic, layer.ranks, layer.params[:-1], layer.pretrained_frob_sq)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.params = layer.params[:-1]


def test_artifact_views_are_built_on_first_use() -> None:
    layer = decompose(linalg.make_rng(4).normal(size=(10, 10)), DecompositionConfig(n_subspaces=3))
    assert "artifacts" not in vars(layer)
    views = layer.artifacts
    assert layer.artifacts is views
    assert [a.rank for a in views] == list(layer.ranks)
    for a in views:
        for part in (a.u, a.s, a.v):
            assert np.shares_memory(part, layer.params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.artifacts = views


def test_energy_fractions_sum_to_one() -> None:
    layer = decompose(linalg.make_rng(8).normal(size=(12, 12)), DecompositionConfig(n_subspaces=4))
    sem = energy_fractions(layer)
    energies = [float(np.sum(part.s**2)) for part in (layer.semantic, *layer.artifacts)]
    arts = [e / sum(energies) for e in energies[1:]]
    assert len(arts) == 4
    assert abs(sem + sum(arts) - 1.0) <= 1e-12
    assert sem > max(arts)


