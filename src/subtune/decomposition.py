"""Splits a pretrained weight matrix into a frozen semantic subspace (top of
the spectrum) plus contiguous trainable artifact subspaces over the tail."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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


def _split_params(
    vec: np.ndarray, d_out: int, d_in: int, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_tail, s_tail, V_tail) views of the last axis of ``vec`` in the
    ``params`` layout; leading axes (one per layer of a stack) stay."""
    n_u = d_out * r
    lead = vec.shape[:-1]
    return (
        vec[..., :n_u].reshape(*lead, d_out, r),
        vec[..., n_u : n_u + r],
        vec[..., n_u + r :].reshape(*lead, d_in, r),
    )


class ArtifactView(NamedTuple):
    """One artifact subspace's (U, s, V) as views into a layer vector."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.s.shape[0])


@dataclass
class DecomposedLayer:
    """A frozen semantic part plus the trainable tail of the spectrum.

    ``params`` holds every trainable value in one vector laid out as
    ``[U_tail (d_out x R, row-major), s_tail (R), V_tail (d_in x R,
    row-major)]`` with R = sum(ranks); artifact subspace k is the k-th block
    of ``ranks[k]`` consecutive tail columns.  ``u``, ``s``, ``v`` and
    ``artifacts`` are views into ``params``, built on first access and
    rebuilt whenever ``params`` is rebound; copies and pickles leave them
    out, so a deep copy cannot keep a view of the old vector.
    """

    layer_id: int
    semantic: SemanticPart
    ranks: tuple[int, ...]
    params: np.ndarray
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
    def tail_rank(self) -> int:
        return sum(self.ranks)

    @property
    def total_rank(self) -> int:
        return self.semantic_rank + self.tail_rank

    @property
    def n_subspaces(self) -> int:
        return len(self.ranks)

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U_tail, s_tail, V_tail) views of a vector in the ``params``
        layout, such as ``params`` itself or its gradient."""
        r = self.tail_rank
        if vec.shape != ((self.d_out + 1 + self.d_in) * r,):
            raise ValueError(
                f"layer {self.layer_id} vector of shape {vec.shape} does not match "
                f"{self.d_out}x{self.d_in} factors of tail rank {r}"
            )
        return _split_params(vec, self.d_out, self.d_in, r)

    def _views(self) -> tuple:
        views = self.__dict__.get("_cached_views")
        if views is None or views[0] is not self.params:
            u, s, v = self.split(self.params)
            artifacts = []
            lo = 0
            for r in self.ranks:
                artifacts.append(ArtifactView(u[:, lo : lo + r], s[lo : lo + r], v[:, lo : lo + r]))
                lo += r
            views = (self.params, u, s, v, tuple(artifacts))
            self.__dict__["_cached_views"] = views
        return views

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_cached_views", None)
        return state

    @property
    def u(self) -> np.ndarray:
        return self._views()[1]

    @property
    def s(self) -> np.ndarray:
        return self._views()[2]

    @property
    def v(self) -> np.ndarray:
        return self._views()[3]

    @property
    def artifacts(self) -> tuple[ArtifactView, ...]:
        return self._views()[4]


@dataclass(frozen=True)
class SlotGroup:
    """Layers of one signature stored back to back in a trainable buffer:
    the ``ranks`` of their artifact subspaces (None for plain matrices) and
    their d_out x d_in shape.  ``lo`` is the group's first buffer offset and
    ``first_row`` the position of its first layer in buffer order."""

    ranks: tuple[int, ...] | None
    d_out: int
    d_in: int
    layer_ids: tuple[int, ...]
    lo: int
    first_row: int

    @property
    def n_layers(self) -> int:
        return len(self.layer_ids)

    @property
    def layer_size(self) -> int:
        if self.ranks is None:
            return self.d_out * self.d_in
        return (self.d_out + 1 + self.d_in) * sum(self.ranks)

    @property
    def hi(self) -> int:
        return self.lo + self.n_layers * self.layer_size

    @property
    def row_span(self) -> slice:
        return slice(self.first_row, self.first_row + self.n_layers)

    @functools.cached_property
    def ids(self) -> np.ndarray:
        return np.array(self.layer_ids, dtype=np.intp)

    def rows(self, buf: np.ndarray) -> np.ndarray:
        """(G, layer_size) view: one row per layer."""
        return buf[self.lo : self.hi].reshape(self.n_layers, self.layer_size)

    def factors(self, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U (G, d_out, R), s (G, R), V (G, d_in, R) views of a decomposed
        group's rows."""
        return _split_params(self.rows(buf), self.d_out, self.d_in, sum(self.ranks))


@dataclass(frozen=True)
class TrainableLayout:
    """Where each layer's trainable values sit in one model-wide buffer.
    Layers of equal signature are grouped, groups in order of their first
    layer, layers in id order within a group.  Gradients, EMA moments and
    optimizer moments share the layout of the parameters."""

    groups: tuple[SlotGroup, ...]

    @classmethod
    def of(cls, signatures: Sequence[tuple]) -> "TrainableLayout":
        """Layout of the layers whose signatures, (ranks or None for a plain
        matrix, d_out, d_in), are listed by layer id."""
        members: dict[tuple, list[int]] = {}
        for lid, sig in enumerate(signatures):
            members.setdefault(tuple(sig), []).append(lid)
        groups = []
        lo = row = 0
        for (ranks, d_out, d_in), ids in members.items():
            group = SlotGroup(ranks, d_out, d_in, tuple(ids), lo, row)
            groups.append(group)
            lo, row = group.hi, row + group.n_layers
        return cls(tuple(groups))

    @classmethod
    def of_sizes(cls, sizes: Sequence[int]) -> "TrainableLayout":
        """Layout of layers known only by their value counts."""
        return cls.of([(None, 1, int(n)) for n in sizes])

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Layer ids in buffer order."""
        return np.concatenate([g.ids for g in self.groups])

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """Value count of each layer, by layer id."""
        out = np.empty(self.n_layers, dtype=np.intp)
        for g in self.groups:
            out[g.ids] = g.layer_size
        return out

    @functools.cached_property
    def rows_of(self) -> np.ndarray:
        """Position of each layer in buffer order, by layer id."""
        out = np.empty(self.n_layers, dtype=np.intp)
        out[self.order] = np.arange(self.n_layers)
        return out

    @property
    def n_layers(self) -> int:
        return sum(g.n_layers for g in self.groups)

    @property
    def size(self) -> int:
        return self.groups[-1].hi if self.groups else 0

    def same_positions(self, other: "TrainableLayout") -> bool:
        """Whether every layer's values sit at the same offsets in both."""
        return np.array_equal(self.order, other.order) and np.array_equal(self.sizes, other.sizes)

    def layer_views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Each layer's values in ``buf`` as a vector view, by layer id."""
        if buf.shape != (self.size,):
            raise ValueError(f"buffer of shape {buf.shape} does not match the {self.size}-value layout")
        out: list[np.ndarray] = [None] * self.n_layers  # type: ignore[list-item]
        for g in self.groups:
            for lid, row in zip(g.layer_ids, g.rows(buf)):
                out[lid] = row
        return out

    def element_mask(self, bits: np.ndarray) -> np.ndarray:
        """Boolean mask over the buffer selecting the layers ``bits`` marks."""
        return np.repeat(bits[self.order], self.sizes[self.order])


class FactorStack(NamedTuple):
    """The layers of one rank group as stacked views of the model buffer:
    U (G, d_out, R), s (G, R), V (G, d_in, R), and each layer's pretrained
    squared Frobenius norm.  ``losses`` takes it wherever it takes a layer."""

    ranks: tuple[int, ...]
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    pretrained_frob_sq: np.ndarray

    @property
    def n_subspaces(self) -> int:
        return len(self.ranks)


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
    return DecomposedLayer(
        layer_id=layer_id,
        semantic=SemanticPart(u=sem_u, s=sem_s, v=sem_v, w=sem_w),
        ranks=tuple(hi - lo for lo, hi in blocks),
        params=np.concatenate([res.u[:, r:].ravel(), res.s[r:], res.v[:, r:].ravel()]),
        pretrained_frob_sq=linalg.frobenius_sq(arr),
    )


def recompose(layer: DecomposedLayer) -> np.ndarray:
    """Effective weight: frozen semantic product plus every artifact
    product, accumulated one subspace at a time (one whole-tail product
    would round differently)."""
    u, s, v = layer.u, layer.s, layer.v
    w = layer.semantic.w.copy()
    lo = 0
    for r in layer.ranks:
        hi = lo + r
        w += (u[:, lo:hi] * s[lo:hi]) @ v[:, lo:hi].T
        lo = hi
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
    parts.append(struct.pack(f"<{layer.n_subspaces}Q", *layer.ranks))
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
    n_params = (d_out + 1 + d_in) * sum(ranks)
    # the factors' values alone take 8 bytes each, so a corrupt rank list
    # cannot make this allocate more than the buffer holds
    if 8 * n_params > len(buf) - offset:
        raise ValueError("layer artifact factors truncated")
    layer = DecomposedLayer(
        layer_id=int(layer_id),
        semantic=SemanticPart(u=sem_u, s=sem_s, v=sem_v, w=sem_w),
        ranks=tuple(ranks),
        params=np.empty(n_params),
        pretrained_frob_sq=float(frob),
    )
    for a in layer.artifacts:
        a.u[...] = take(d_out, a.rank)
        a.s[...] = take(1, a.rank)[0]
        a.v[...] = take(d_in, a.rank)
    return layer, offset
