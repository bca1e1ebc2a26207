"""Splits a pretrained weight matrix into a frozen semantic subspace (top of
the spectrum) plus contiguous trainable artifact subspaces over the tail.
``split_ranks`` is the one place the split is decided: every layer that
is decomposed takes its semantic rank and subspace ranks from it."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .settings import check, setting


@dataclass
class DecompositionConfig:
    """How to split the spectrum; ``split_ranks`` says what each policy
    does with it."""

    n_subspaces: int = setting(5, ge=1)
    rank_policy: str = setting("energy", one_of=("energy", "fixed"))
    energy_fraction: float = 0.9
    fixed_rank: int | None = None

    def validate(self) -> None:
        check(self, "decomposition")  # then the bounds that hold under one rank_policy only
        if self.rank_policy == "energy" and not 0.0 < self.energy_fraction <= 1.0:
            raise ValueError("config key decomposition.energy_fraction must be in (0, 1] when decomposition"
                             f".rank_policy is 'energy', got {self.energy_fraction!r}")
        if self.rank_policy == "fixed" and (self.fixed_rank is None or self.fixed_rank < 1):
            raise ValueError("config key decomposition.fixed_rank must be >= 1 when decomposition"
                             f".rank_policy is 'fixed', got {self.fixed_rank!r}")


@dataclass
class SemanticPart:
    """Frozen top-of-spectrum factors plus their product ``w``, formed when
    the part is made; all four arrays are read-only."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.w = (self.u * self.s) @ self.v.T
        for a in (self.u, self.s, self.v, self.w):
            a.setflags(write=False)


def split_params(
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


def cross_mask(ranks: Sequence[int], width: int) -> np.ndarray:
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


@dataclass(frozen=True)
class DecomposedLayer:
    """A frozen semantic part plus the trainable tail of the spectrum.

    ``params`` holds every trainable value in one vector laid out as
    ``[U_tail (d_out x W, row-major), s_tail (W), V_tail (d_in x W,
    row-major)]``.  The first R = sum(ranks) columns are the tail, artifact
    subspace k being the k-th block of ``ranks[k]`` consecutive columns; the
    W - R columns past them are zero padding.  A freshly decomposed or
    loaded layer has W = R; in a model, W is the largest tail rank of its
    layers.  ``u``, ``s`` and ``v`` are views of the real columns, built
    when the layer is made, and ``artifacts`` views of theirs, built on
    first use.  A layer is frozen: ``params`` is never rebound, so its
    views cannot go stale, and a layer that joins a model is a new layer on
    the model's row.
    """

    layer_id: int
    semantic: SemanticPart
    ranks: tuple[int, ...]
    params: np.ndarray
    pretrained_frob_sq: float
    u: np.ndarray = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        u, s, v = self.split(self.params)
        vars(self).update(u=u, s=s, v=v)  # past the frozen __setattr__

    @cached_property
    def artifacts(self) -> tuple[ArtifactView, ...]:
        """Each artifact subspace's (U, s, V) views, in subspace order."""
        bounds = list(accumulate(self.ranks, initial=0))
        return tuple(ArtifactView(self.u[:, lo:hi], self.s[lo:hi], self.v[:, lo:hi])
                     for lo, hi in zip(bounds, bounds[1:]))

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
        return cross_mask(self.ranks, self.tail_rank)

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
        u, s, v = split_params(vec, self.d_out, self.d_in, width)
        return u[:, :r], s[:r], v[:, :r]


class FactorStack(NamedTuple):
    """Every decomposed layer of a model as stacked views of its (n_layers,
    P) trainable rows, each padded to the largest tail rank R: U (n,
    d_out, R), s (n, R), V (n, d_in, R), with the layout's per-layer
    ``cross_mask`` (n, R, R), ``pair_scale`` and ``pretrained_frob_sq``,
    so layers of any tail rank and any K share one batched call.
    ``losses`` takes it wherever it takes a layer."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    cross_mask: np.ndarray
    pair_scale: np.ndarray
    pretrained_frob_sq: np.ndarray

    def split(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, s, V views of (n_layers, P) rows laid out like the stack's,
        such as the gradient rows."""
        return split_params(rows, self.u.shape[1], self.v.shape[1], self.s.shape[1])


def split_ranks(s: np.ndarray, cfg: DecompositionConfig, layer_id: int = 0) -> tuple[int, tuple[int, ...]]:
    """(semantic rank, each artifact subspace's rank) for layer
    ``layer_id``, of singular values ``s``.  The semantic rank is
    ``fixed_rank``, or the smallest prefix reaching ``energy_fraction`` of
    the squared spectral energy, clamped so every subspace keeps at least
    one component; the tail past it is cut into K contiguous blocks whose
    sizes differ by at most one, the earlier blocks taking the remainder.
    A K or a ``fixed_rank`` the layer's rank cannot hold is refused here,
    when a layer is split, naming its config key; a layer whose energy
    underflows, under the energy policy, naming the layer."""
    cfg.validate()
    total, k = int(s.shape[0]), cfg.n_subspaces
    if k > total - 1:
        raise ValueError(f"config key decomposition.n_subspaces must be <= {total - 1} for a layer of rank "
                         f"{total} (one semantic component and one per subspace), got {k}")
    if cfg.rank_policy == "fixed":
        r = int(cfg.fixed_rank)  # type: ignore[arg-type]
        if r > total - k:
            raise ValueError(f"config key decomposition.fixed_rank must be <= {total - k} for a layer of rank "
                             f"{total} split into {k} subspaces, got {r}")
    else:
        cum = np.cumsum(s.astype(np.float64) ** 2)
        if cum[-1] <= 0.0:
            raise ValueError(f"layer {layer_id}'s squared singular values underflow to 0: "
                             "decomposition.rank_policy energy cannot split it")
        # cum / cum[-1] ends at exactly 1.0, so some prefix always reaches the fraction
        r = min(int(np.argmax(cum / cum[-1] >= cfg.energy_fraction)) + 1, total - k)
    base, rem = divmod(total - r, k)
    return r, tuple(base + (i < rem) for i in range(k))


def decompose(w: np.ndarray, cfg: DecompositionConfig, layer_id: int = 0) -> DecomposedLayer:
    arr = linalg.check_matrix(w, f"layer {layer_id}")
    if not np.any(arr):
        raise ValueError(f"layer {layer_id} is a zero matrix and cannot be decomposed")
    res = linalg.svd(arr, f"layer {layer_id}")
    r, ranks = split_ranks(res.s, cfg, layer_id)
    return DecomposedLayer(
        layer_id=layer_id,
        semantic=SemanticPart(res.u[:, :r].copy(), res.s[:r].copy(), res.v[:, :r].copy()),
        ranks=ranks,
        params=np.concatenate([res.u[:, r:].ravel(), res.s[r:], res.v[:, r:].ravel()]),
        pretrained_frob_sq=linalg.frobenius_sq(arr),
    )


def recompose(layer: DecomposedLayer) -> np.ndarray:
    """Effective weight: frozen semantic product plus the whole tail's
    product, which is the sum of every artifact subspace's product (to
    within roundoff of summing them one by one).  On a freshly decomposed
    layer it is the original matrix to within roundoff."""
    return layer.semantic.w + (layer.u * layer.s) @ layer.v.T


def energy_fractions(layer: DecomposedLayer) -> float:
    """Share of squared spectral energy held by the semantic part, measured
    from the current singular values; the total adds each artifact
    subspace's energy in turn."""
    sem = float(np.sum(layer.semantic.s**2))
    total = sem + sum(float(np.sum(a.s**2)) for a in layer.artifacts)
    if total <= 0.0:
        raise ValueError("layer spectrum has zero energy")
    return sem / total


_LAYER_HEADER = struct.Struct("<QQQQQd")


def layer_to_bytes(layer: DecomposedLayer) -> bytes:
    """The header, the ranks, the semantic part and each artifact
    subspace's U, s and V: the real columns only, never a model's padding."""
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

    semantic = SemanticPart(take(d_out, sem_rank), take(1, sem_rank)[0], take(d_in, sem_rank))
    n_params = (d_out + 1 + d_in) * sum(ranks)
    # the factors' values alone take 8 bytes each, so a corrupt rank list
    # cannot make this allocate more than the buffer holds
    if 8 * n_params > len(buf) - offset:
        raise ValueError("layer artifact factors truncated")
    layer = DecomposedLayer(
        layer_id=int(layer_id),
        semantic=semantic,
        ranks=tuple(ranks),
        params=np.empty(n_params),
        pretrained_frob_sq=float(frob),
    )
    for a in layer.artifacts:
        a.u[...] = take(d_out, a.rank)
        a.s[...] = take(1, a.rank)[0]
        a.v[...] = take(d_in, a.rank)
    return layer, offset
