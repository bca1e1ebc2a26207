from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_forward import per_subspace_recompose

from subtune import linalg
from subtune.decomposition import (
    DecomposedLayer,
    DecompositionConfig,
    SemanticPart,
    decompose,
    energy_fractions,
    layer_from_bytes,
    layer_to_bytes,
    partition_tail,
    recompose,
    resolve_semantic_rank,
    semantic_to_bytes,
)


def test_partition_tail_examples() -> None:
    # stated rule, remainder-first rule, single tail component
    assert partition_tail(10, 4, 3) == [(4, 6), (6, 8), (8, 10)]
    assert partition_tail(10, 3, 3) == [(3, 6), (6, 8), (8, 10)]
    assert partition_tail(5, 4, 1) == [(4, 5)]


def test_partition_tail_properties() -> None:
    rng = linalg.make_rng(42)
    for _ in range(200):
        total = int(rng.integers(2, 60))
        sem = int(rng.integers(1, total))
        n_sub = int(rng.integers(1, total - sem + 1))
        blocks = partition_tail(total, sem, n_sub)
        assert len(blocks) == n_sub
        # contiguous, disjoint, covering exactly the tail
        assert blocks[0][0] == sem
        assert blocks[-1][1] == total
        for (a0, a1), (b0, b1) in zip(blocks, blocks[1:]):
            assert a1 == b0
            assert a1 > a0 and b1 > b0
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1
        # earlier blocks receive the remainder
        assert sizes == sorted(sizes, reverse=True)


def test_partition_tail_errors() -> None:
    with pytest.raises(ValueError):
        partition_tail(5, 3, 3)
    with pytest.raises(ValueError):
        partition_tail(5, 0, 2)
    with pytest.raises(ValueError):
        partition_tail(5, 2, 0)


def test_resolve_semantic_rank_energy_oracle() -> None:
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
        assert resolve_semantic_rank(s, cfg) == want


def test_resolve_semantic_rank_clamping() -> None:
    # full-capture threshold would demand r = R; the clamp leaves K components
    s = np.array([4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05])
    cfg = DecompositionConfig(n_subspaces=5, rank_policy="energy", energy_fraction=1.0)
    assert resolve_semantic_rank(s, cfg) == 3
    # steep spectrum: first component alone crosses the threshold
    steep = np.array([100.0, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001])
    assert resolve_semantic_rank(steep, DecompositionConfig(n_subspaces=5)) == 1


def test_resolve_semantic_rank_fixed_policy() -> None:
    s = np.linspace(5.0, 0.5, 10)
    cfg = DecompositionConfig(n_subspaces=3, rank_policy="fixed", fixed_rank=4)
    assert resolve_semantic_rank(s, cfg) == 4
    bad = DecompositionConfig(n_subspaces=3, rank_policy="fixed", fixed_rank=8)
    with pytest.raises(ValueError):
        resolve_semantic_rank(s, bad)
    with pytest.raises(ValueError):
        DecompositionConfig(rank_policy="fixed").validate()
    with pytest.raises(ValueError):
        DecompositionConfig(rank_policy="nonsense").validate()
    with pytest.raises(ValueError):
        DecompositionConfig(n_subspaces=0).validate()
    with pytest.raises(ValueError):
        resolve_semantic_rank(np.ones(4), DecompositionConfig(n_subspaces=5))


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
        semantic=SemanticPart(sem_u, sem_s, sem_v, (sem_u * sem_s) @ sem_v.T),
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


def test_layer_serialization_roundtrip_bit_exact() -> None:
    rng = linalg.make_rng(30)
    layer = decompose(rng.normal(size=(9, 7)), DecompositionConfig(n_subspaces=3), layer_id=11)
    blob = layer_to_bytes(layer)
    back, end = layer_from_bytes(blob)
    assert end == len(blob)
    assert back.layer_id == 11
    assert back.pretrained_frob_sq == layer.pretrained_frob_sq
    assert layer_to_bytes(back) == blob
    assert np.array_equal(back.semantic.u, layer.semantic.u)
    for a, b in zip(back.artifacts, layer.artifacts):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.v, b.v)


def test_layer_from_bytes_rejects_corrupt_rank_list() -> None:
    cfg = DecompositionConfig(n_subspaces=2, rank_policy="fixed", fixed_rank=2)
    layer = decompose(linalg.make_rng(32).normal(size=(6, 5)), cfg)
    assert layer.ranks == (2, 1)
    blob = layer_to_bytes(layer)
    rank_offset = 48  # the rank list follows the fixed-size layer header
    swapped = bytearray(blob)
    struct.pack_into("<QQ", swapped, rank_offset, 1, 2)
    with pytest.raises(ValueError, match="expected 6x1 block"):
        layer_from_bytes(bytes(swapped))
    # a rank no buffer could hold is refused before anything is allocated
    huge = bytearray(blob)
    struct.pack_into("<Q", huge, rank_offset, 2**40)
    with pytest.raises(ValueError, match="truncated"):
        layer_from_bytes(bytes(huge))


def test_semantic_bytes_unchanged_by_artifact_mutation() -> None:
    rng = linalg.make_rng(31)
    layer = decompose(rng.normal(size=(8, 8)), DecompositionConfig(n_subspaces=3))
    before = semantic_to_bytes(layer)
    for a in layer.artifacts:
        a.u[...] += rng.normal(size=a.u.shape)
        a.s[...] += rng.normal(size=a.s.shape)
        a.v[...] += rng.normal(size=a.v.shape)
    assert semantic_to_bytes(layer) == before
