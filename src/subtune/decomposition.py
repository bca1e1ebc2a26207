"""Splits a pretrained weight matrix into a frozen semantic subspace (top of
the spectrum) plus contiguous trainable artifact subspaces over the tail."""

from __future__ import annotations

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
    vec: np.ndarray, d_out: int, d_in: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_tail, s_tail, V_tail) views, ``width`` columns each, of the last
    axis of ``vec`` in the ``params`` layout; leading axes (one per layer of
    a stack) stay."""
    n_u = d_out * width
    lead = vec.shape[:-1]
    return (
        vec[..., :n_u].reshape(*lead, d_out, width),
        vec[..., n_u : n_u + width],
        vec[..., n_u + width :].reshape(*lead, d_in, width),
    )


def _cross_mask(ranks: Sequence[int], width: int) -> np.ndarray:
    """(width, width) 0/1 mask of the cross-subspace entries of a tail Gram
    matrix: 0 on each subspace's own diagonal block and on the padding
    past sum(ranks)."""
    ids = np.repeat(np.arange(len(ranks)), ranks)
    mask = np.zeros((width, width))
    mask[: ids.size, : ids.size] = ids[:, None] != ids[None, :]
    return mask


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
    ``[U_tail (d_out x W, row-major), s_tail (W), V_tail (d_in x W,
    row-major)]``.  The first R = sum(ranks) columns are the tail, artifact
    subspace k being the k-th block of ``ranks[k]`` consecutive columns; the
    W - R columns past them are zero padding.  A freshly decomposed or
    loaded layer has W = R; in a model, W is the largest tail rank of its
    layers.  ``u``, ``s``, ``v`` and ``artifacts`` are views of the real
    columns, built on first access and rebuilt whenever ``params`` is
    rebound; copies and pickles leave them out, so a deep copy cannot keep a
    view of the old vector.
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

    @property
    def cross_mask(self) -> np.ndarray:
        return _cross_mask(self.ranks, self.tail_rank)

    @property
    def pair_scale(self) -> float:
        """1/(K(K-1)), the orthogonality penalty's pair average; 0 when K < 2."""
        k = self.n_subspaces
        return 1.0 / (k * (k - 1)) if k > 1 else 0.0

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U_tail, s_tail, V_tail) views of the real columns of a vector in
        the ``params`` layout, such as ``params`` itself or its gradient."""
        r, n = self.tail_rank, self.d_out + 1 + self.d_in
        width = vec.shape[0] // n
        if vec.shape != (n * width,) or width < r:
            raise ValueError(
                f"layer {self.layer_id} vector of shape {vec.shape} does not match "
                f"{self.d_out}x{self.d_in} factors of tail rank {r}"
            )
        u, s, v = _split_params(vec, self.d_out, self.d_in, width)
        return u[:, :r], s[:r], v[:, :r]

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


class FactorStack(NamedTuple):
    """Every decomposed layer of a model as stacked views of its (n_layers,
    P) trainable rows, each padded to the largest tail rank R: U (n,
    d_out, R), s (n, R), V (n, d_in, R).  ``cross_mask`` (n, R, R) is each
    layer's ``_cross_mask``, ``pair_scale`` and ``pretrained_frob_sq`` are
    per layer.  ``losses`` takes it wherever it takes a layer."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    cross_mask: np.ndarray
    pair_scale: np.ndarray
    pretrained_frob_sq: np.ndarray

    @classmethod
    def of(cls, layers: Sequence[DecomposedLayer], rows: np.ndarray) -> "FactorStack":
        """The stack of ``layers`` whose ``params`` are the rows of ``rows``."""
        d_out, d_in = layers[0].d_out, layers[0].d_in
        width = rows.shape[1] // (d_out + 1 + d_in)
        return cls(
            *_split_params(rows, d_out, d_in, width),
            np.stack([_cross_mask(layer.ranks, width) for layer in layers]),
            np.array([layer.pair_scale for layer in layers]),
            np.array([layer.pretrained_frob_sq for layer in layers]),
        )

    def split(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, s, V views of (n_layers, P) rows laid out like the stack's,
        such as the gradient rows."""
        return _split_params(rows, self.u.shape[1], self.v.shape[1], self.s.shape[1])


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
