"""Splits a pretrained weight matrix into a frozen semantic subspace (top of
the spectrum) plus contiguous trainable artifact subspaces over the tail."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import linalg


@dataclass
class DecompositionConfig:
    """How to split the spectrum.

    ``rank_policy`` is "energy" (semantic rank = smallest prefix reaching
    ``energy_fraction`` of squared spectral energy, clamped so every artifact
    subspace keeps at least one component) or "fixed" (use ``fixed_rank``).
    """

    n_subspaces: int = 5
    rank_policy: str = "energy"
    energy_fraction: float = 0.9
    fixed_rank: int | None = None

    def validate(self) -> None:
        if self.n_subspaces < 1:
            raise ValueError(f"n_subspaces must be >= 1, got {self.n_subspaces}")
        if self.rank_policy not in ("energy", "fixed"):
            raise ValueError(f"rank_policy must be 'energy' or 'fixed', got {self.rank_policy!r}")
        if self.rank_policy == "energy" and not 0.0 < self.energy_fraction <= 1.0:
            raise ValueError(f"energy_fraction must be in (0, 1], got {self.energy_fraction}")
        if self.rank_policy == "fixed" and (self.fixed_rank is None or self.fixed_rank < 1):
            raise ValueError("fixed rank_policy requires fixed_rank >= 1")


@dataclass
class SemanticPart:
    """Frozen top-of-spectrum factors plus their cached product."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    w: np.ndarray = field(repr=False)


@dataclass
class ArtifactPart:
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.s.shape[0])


@dataclass
class DecomposedLayer:
    layer_id: int
    semantic: SemanticPart
    artifacts: list[ArtifactPart]
    pretrained_frob_sq: float

    @property
    def d_out(self) -> int:
        return int(self.semantic.u.shape[0])

    @property
    def d_in(self) -> int:
        return int(self.semantic.v.shape[0])

    @property
    def semantic_rank(self) -> int:
        return int(self.semantic.s.shape[0])

    @property
    def total_rank(self) -> int:
        return self.semantic_rank + sum(a.rank for a in self.artifacts)

    @property
    def n_subspaces(self) -> int:
        return len(self.artifacts)


def partition_tail(total_rank: int, semantic_rank: int, n_subspaces: int) -> list[tuple[int, int]]:
    """Contiguous half-open [start, stop) index blocks covering the tail
    of the spectrum (indices semantic_rank..total_rank-1), earlier blocks
    absorbing the remainder so sizes differ by at most one."""
    if semantic_rank < 1:
        raise ValueError(f"semantic_rank must be >= 1, got {semantic_rank}")
    if n_subspaces < 1:
        raise ValueError(f"n_subspaces must be >= 1, got {n_subspaces}")
    tail = total_rank - semantic_rank
    if tail < n_subspaces:
        raise ValueError(
            f"tail of {tail} spectral components cannot populate {n_subspaces} subspaces"
        )
    base, rem = divmod(tail, n_subspaces)
    blocks: list[tuple[int, int]] = []
    start = semantic_rank
    for k in range(n_subspaces):
        size = base + (1 if k < rem else 0)
        blocks.append((start, start + size))
        start += size
    return blocks


def resolve_semantic_rank(s: np.ndarray, cfg: DecompositionConfig) -> int:
    """Pick the semantic rank for a spectrum under the configured policy."""
    cfg.validate()
    total_rank = int(s.shape[0])
    if total_rank - 1 < cfg.n_subspaces:
        raise ValueError(
            f"matrix rank budget {total_rank} is too small for {cfg.n_subspaces} "
            "artifact subspaces plus a semantic subspace"
        )
    if cfg.rank_policy == "fixed":
        r = int(cfg.fixed_rank)  # type: ignore[arg-type]
        if not 1 <= r <= total_rank - cfg.n_subspaces:
            raise ValueError(
                f"fixed_rank {r} out of range [1, {total_rank - cfg.n_subspaces}]"
            )
        return r
    energy = s.astype(np.float64) ** 2
    cum = np.cumsum(energy)
    if cum[-1] <= 0.0:
        raise ValueError("spectrum has zero energy")
    frac = cum / cum[-1]  # last entry is exactly 1.0
    r = int(np.argmax(frac >= cfg.energy_fraction)) + 1
    return max(1, min(r, total_rank - cfg.n_subspaces))


def decompose(w: np.ndarray, cfg: DecompositionConfig, layer_id: int = 0) -> DecomposedLayer:
    arr = linalg.check_matrix(w, f"layer {layer_id}")
    if not np.any(arr):
        raise ValueError(f"layer {layer_id} is a zero matrix and cannot be decomposed")
    res = linalg.svd(arr, f"layer {layer_id}")
    r = resolve_semantic_rank(res.s, cfg)
    blocks = partition_tail(int(res.s.shape[0]), r, cfg.n_subspaces)
    sem_u = res.u[:, :r].copy()
    sem_s = res.s[:r].copy()
    sem_v = res.v[:, :r].copy()
    sem_w = (sem_u * sem_s) @ sem_v.T
    for a in (sem_u, sem_s, sem_v, sem_w):
        a.setflags(write=False)
    artifacts = [
        ArtifactPart(
            u=res.u[:, lo:hi].copy(),
            s=res.s[lo:hi].copy(),
            v=res.v[:, lo:hi].copy(),
        )
        for lo, hi in blocks
    ]
    return DecomposedLayer(
        layer_id=layer_id,
        semantic=SemanticPart(u=sem_u, s=sem_s, v=sem_v, w=sem_w),
        artifacts=artifacts,
        pretrained_frob_sq=linalg.frobenius_sq(arr),
    )


def recompose(layer: DecomposedLayer) -> np.ndarray:
    """Effective weight: frozen semantic product plus every artifact product."""
    d_out, d_in = layer.semantic.w.shape
    w = layer.semantic.w.copy()
    for k, a in enumerate(layer.artifacts):
        if a.u.shape != (d_out, a.rank) or a.v.shape != (d_in, a.rank):
            raise ValueError(
                f"layer {layer.layer_id} artifact {k} factor shapes "
                f"{a.u.shape}/{a.s.shape}/{a.v.shape} do not match {d_out}x{d_in}"
            )
        w += (a.u * a.s) @ a.v.T
    return w


def energy_fractions(layer: DecomposedLayer) -> tuple[float, list[float]]:
    """Share of squared spectral energy held by the semantic part and by each
    artifact subspace, measured from the current singular values."""
    sem = float(np.sum(layer.semantic.s**2))
    arts = [float(np.sum(a.s**2)) for a in layer.artifacts]
    total = sem + sum(arts)
    if total <= 0.0:
        raise ValueError("layer spectrum has zero energy")
    return sem / total, [a / total for a in arts]


_LAYER_HEADER = struct.Struct("<QQQQQd")


def layer_to_bytes(layer: DecomposedLayer) -> bytes:
    parts = [
        _LAYER_HEADER.pack(
            layer.layer_id,
            layer.d_out,
            layer.d_in,
            layer.semantic_rank,
            layer.n_subspaces,
            layer.pretrained_frob_sq,
        )
    ]
    parts.append(struct.pack(f"<{layer.n_subspaces}Q", *[a.rank for a in layer.artifacts]))
    parts.append(semantic_to_bytes(layer))
    for a in layer.artifacts:
        parts.append(linalg.matrix_to_bytes(a.u))
        parts.append(linalg.matrix_to_bytes(a.s[None, :]))
        parts.append(linalg.matrix_to_bytes(a.v))
    return b"".join(parts)


def semantic_to_bytes(layer: DecomposedLayer) -> bytes:
    """Frozen-part bytes only; unchanged across training by construction."""
    return (
        linalg.matrix_to_bytes(layer.semantic.u)
        + linalg.matrix_to_bytes(layer.semantic.s[None, :])
        + linalg.matrix_to_bytes(layer.semantic.v)
    )


def layer_from_bytes(buf: bytes, offset: int = 0) -> tuple[DecomposedLayer, int]:
    if len(buf) - offset < _LAYER_HEADER.size:
        raise ValueError("layer header truncated")
    layer_id, d_out, d_in, sem_rank, n_sub, frob = _LAYER_HEADER.unpack_from(buf, offset)
    offset += _LAYER_HEADER.size
    if len(buf) - offset < 8 * n_sub:
        raise ValueError("layer artifact ranks truncated")
    ranks = struct.unpack_from(f"<{n_sub}Q", buf, offset)
    offset += 8 * n_sub

    def take(rows: int, cols: int) -> np.ndarray:
        nonlocal offset
        m, offset = linalg.matrix_from_bytes(buf, offset)
        if m.shape != (rows, cols):
            raise ValueError(f"expected {rows}x{cols} block, got {m.shape}")
        return m

    sem_u = take(d_out, sem_rank)
    sem_s = take(1, sem_rank)[0]
    sem_v = take(d_in, sem_rank)
    sem_w = (sem_u * sem_s) @ sem_v.T
    for a in (sem_u, sem_s, sem_v, sem_w):
        a.setflags(write=False)
    artifacts = []
    for rank in ranks:
        u = take(d_out, rank)
        s = take(1, rank)[0]
        v = take(d_in, rank)
        artifacts.append(ArtifactPart(u=u, s=s, v=v))
    layer = DecomposedLayer(
        layer_id=int(layer_id),
        semantic=SemanticPart(u=sem_u, s=sem_s, v=sem_v, w=sem_w),
        artifacts=artifacts,
        pretrained_frob_sq=float(frob),
    )
    return layer, offset
