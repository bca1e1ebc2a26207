"""Miniature pre-norm single-head attention classifier with hand-derived
gradients.

Attention projections (q, k, v, o per block) start as plain matrices; after
backbone pretraining they can be decomposed into a frozen semantic subspace
plus trainable artifact subspaces.  Everything outside those projections and
the head (token embed, layer norms, MLPs) is frozen during fine-tuning.  A
model is an immutable ``Layout``, which a model shares with its clones, plus
one parameter buffer, ``Model.params``, of which every array of the model is
a view.  ``stack_trainables`` is the one packer, the only code that copies
values into a new buffer; a clone is one copy of the buffer.  Short-axis
sums are BLAS products (``_row_sums``), rounding in BLAS's order.
"""

from __future__ import annotations

import atexit
import contextlib
import copy
import ctypes
import math
import os
import pickle
import signal
import sys
import threading
import warnings
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import BinaryIO, NamedTuple, Union

import numpy as np

from . import losses
from .decomposition import (
    DecomposedLayer,
    DecompositionConfig,
    FactorStack,
    SemanticPart,
    cross_mask,
    decompose,
    recompose,
    split_params,
)
from .settings import check, setting

Projection = Union[np.ndarray, DecomposedLayer]

LN_EPS = 1e-6
# ``predict``'s row block in token rows (128 samples at 8 tokens): scoring
# holds one block's activations for this many rows, not for the whole batch.
# Half of it gave the same peak RSS but cost about 8% of a 256-sample predict
# in per-call overhead (2-core x86-64, one BLAS thread).
PREDICT_ROWS = 1024
_GELU_A = math.sqrt(2.0 / math.pi)
_GELU_B = 0.044715


@dataclass
class ModelConfig:
    d_model: int = setting(16, ge=2)
    n_blocks: int = setting(6, ge=1)
    n_tokens: int = setting(8, ge=2)
    n_classes_pretrain: int = setting(4, ge=2)

    @property
    def n_decomposable(self) -> int:
        return 4 * self.n_blocks

    @property
    def mlp_hidden(self) -> int:
        return 2 * self.d_model

    def validate(self) -> None:
        check(self, "model")


@dataclass(frozen=True)
class Block:
    norm1_gain: np.ndarray
    norm1_bias: np.ndarray
    q: Projection
    k: Projection
    v: Projection
    o: Projection
    norm2_gain: np.ndarray
    norm2_bias: np.ndarray
    mlp_in: np.ndarray
    mlp_out: np.ndarray


PROJECTION_NAMES = ("q", "k", "v", "o")
BLOCK_SLOTS = tuple(f.name for f in fields(Block))
# frozen while fine-tuning, and stored as plain arrays in a decomposed checkpoint
FROZEN_SLOTS = tuple(slot for slot in BLOCK_SLOTS if slot not in PROJECTION_NAMES)


def block_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each block slot's shape, in ``Block`` field order; a projection's is
    that of its plain matrix."""
    d, h = cfg.d_model, cfg.mlp_hidden
    return {"norm1_gain": (d,), "norm1_bias": (d,), "q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
            "norm2_gain": (d,), "norm2_bias": (d,), "mlp_in": (h, d), "mlp_out": (d, h)}


@dataclass(frozen=True, eq=False)
class Layout:
    """All of a model but its values, built once by ``stack_trainables``
    and shared, read-only, by the model and its clones.  ``sections`` are
    the shapes of the parts of ``params`` in buffer order (the (n_layers,
    P) trainable rows, the head, ``token_embed``, then each block's
    ``FROZEN_SLOTS``), ``offsets`` where each starts and then the size.
    ``layers`` holds each decomposed slot's (layer id, semantic part,
    ranks, pretrained energy), followed by the ``FactorStack`` constants
    (none for a plain model)."""

    sections: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    layers: tuple[tuple[int, SemanticPart, tuple[int, ...], float], ...] = field(repr=False)
    cross_mask: np.ndarray | None = field(repr=False)
    pair_scale: np.ndarray | None = field(repr=False)
    pretrained_frob_sq: np.ndarray | None = field(repr=False)

    @property
    def grad_size(self) -> int:
        """The length of ``backward``'s gradient: the rows and the head for
        a binary head, the whole buffer for a pretraining head."""
        return self.offsets[2] if self.sections[1][0] == 1 else self.offsets[-1]

    @cached_property
    def trained(self) -> np.ndarray:
        """The buffer positions of what ``backward`` differentiates, in
        order, read-only and built on first use: for a binary head, each
        row's real values (never a decomposed layer's padding) and then the
        head; for a pretraining head, every position."""
        trained = np.arange(self.grad_size)
        if self.layers and self.grad_size == self.offsets[2]:  # a binary head: each row's real columns
            rows_shape, (_, d) = self.sections[:2]
            rows, head = trained[: self.offsets[1]].reshape(rows_shape), trained[self.offsets[1] :]
            parts = [part[..., : sum(ranks)] for (_, _, ranks, _), row in zip(self.layers, rows)
                     for part in split_params(row, d, d, self.cross_mask.shape[1])]
            trained = np.concatenate([part.ravel() for part in parts + [head]])
        trained.setflags(write=False)
        return trained

    def carve(self, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list[dict[str, np.ndarray]]]:
        """``buf`` split into its views: (the (n_layers, P) rows, the head,
        the token embedding, one dict of ``FROZEN_SLOTS`` views per block).
        A buffer of only the rows and the head (``offsets[2]`` values, a
        binary head's gradient) gives (rows, head, None, [])."""
        rows, head, *rest = [buf[lo:hi].reshape(shape) for shape, lo, hi
                             in zip(self.sections, self.offsets, self.offsets[1:]) if hi <= buf.size]
        embed, *frozen = rest or [None]
        k = len(FROZEN_SLOTS)
        return rows, head, embed, [dict(zip(FROZEN_SLOTS, frozen[i : i + k])) for i in range(0, len(frozen), k)]


def _layout(cfg: ModelConfig, n_outputs: int, projections: list[Projection]) -> Layout:
    """The layout of a model of ``cfg``'s dimensions with an ``n_outputs``-row
    head and these attention slots, in layer-id order: plain matrices, or
    decomposed layers whose rows are padded to the largest tail rank."""
    d, first = cfg.d_model, projections[0]
    decomposed = isinstance(first, DecomposedLayer)
    width = max(p.tail_rank for p in projections) if decomposed else 0
    row_size = (first.d_out + 1 + first.d_in) * width if decomposed else first.size
    shapes = block_shapes(cfg)
    sections = ((len(projections), row_size), (n_outputs, d), (d, d))
    sections += tuple(shapes[slot] for _ in range(cfg.n_blocks) for slot in FROZEN_SLOTS)
    offsets = tuple(accumulate((math.prod(shape) for shape in sections), initial=0))
    layers, constants = (), (None, None, None)
    if decomposed:
        layers = tuple((p.layer_id, p.semantic, p.ranks, p.pretrained_frob_sq) for p in projections)
        constants = (np.stack([cross_mask(p.ranks, width) for p in projections]),
                     np.array([p.pair_scale for p in projections]),
                     np.array([p.pretrained_frob_sq for p in projections]))
    for a in constants:
        if a is not None:
            a.setflags(write=False)
    return Layout(sections, offsets, layers, *constants)


@dataclass(frozen=True)
class Model:
    """A model is its ``config``, a ``layout`` shared with its clones, and
    one float64 buffer, ``params``, of which every other array is a view,
    carved by the layout when the model is made: the ``trainable`` rows,
    one per attention slot in layer-id order (a plain matrix, P = d_out *
    d_in, or a decomposed layer's ``params`` zero-padded to the model's
    largest tail rank), the head, ``token_embed``, each slot of ``blocks``
    and ``factors``, the decomposed layers' U, s and V views of the rows
    (None for a plain model).  A model, its blocks and layers are frozen,
    so no array can be rebound off the buffer: write into it with [...]."""

    config: ModelConfig
    layout: Layout
    params: np.ndarray = field(repr=False)
    token_embed: np.ndarray = field(init=False, repr=False)
    blocks: tuple[Block, ...] = field(init=False, repr=False)
    head: np.ndarray = field(init=False, repr=False)
    trainable: np.ndarray = field(init=False, repr=False)
    factors: FactorStack | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        layout, d = self.layout, self.config.d_model
        rows, head, embed, frozen = layout.carve(self.params)
        if layout.layers:
            slots = [DecomposedLayer(lid, semantic, ranks, row, frob)
                     for (lid, semantic, ranks, frob), row in zip(layout.layers, rows)]
            factors = FactorStack(*split_params(rows, d, d, layout.cross_mask.shape[1]),
                                  layout.cross_mask, layout.pair_scale, layout.pretrained_frob_sq)
        else:
            slots, factors = [row.reshape(d, d) for row in rows], None
        blocks = tuple(Block(**dict(zip(PROJECTION_NAMES, slots[4 * b : 4 * b + 4])), **named)
                       for b, named in enumerate(frozen))
        vars(self).update(trainable=rows, head=head, token_embed=embed, blocks=blocks, factors=factors)

    @property
    def decomposed(self) -> bool:
        return bool(self.layout.layers)

    @property
    def n_outputs(self) -> int:
        return int(self.head.shape[0])


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> Model:
    """Gains start at one, biases at zero and every matrix at N(0, 1/fan_in),
    drawn block by block in ``Block`` field order, then the head, then the
    token embedding."""
    cfg.validate()

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.ones(shape) if name.endswith("gain") else np.zeros(shape)
        return rng.normal(scale=1.0 / math.sqrt(shape[1]), size=shape)

    shapes = block_shapes(cfg)
    blocks = [Block(**{slot: init(slot, shape) for slot, shape in shapes.items()}) for _ in range(cfg.n_blocks)]
    head = init("head", (cfg.n_classes_pretrain, cfg.d_model))
    token_embed = init("token_embed", (cfg.d_model, cfg.d_model))
    return stack_trainables(cfg, token_embed, blocks, head)


def attention_slots(model: Model) -> list[tuple[int, Block, str]]:
    """(layer_id, block, projection name) for every maskable layer, in a fixed
    order: block 0 q,k,v,o then block 1 q,k,v,o and so on."""
    return [(4 * b + j, block, name) for b, block in enumerate(model.blocks) for j, name in enumerate(PROJECTION_NAMES)]


def stack_trainables(config: ModelConfig, token_embed: np.ndarray, blocks: list[Block], head: np.ndarray) -> Model:
    """The one packer: a model of these arrays under a new layout, their
    values copied into its new buffer.  Its decomposed layers share the
    given layers' read-only semantic parts, and their rows are zero past
    each layer's tail."""
    projections = [getattr(block, name) for block in blocks for name in PROJECTION_NAMES]
    layout = _layout(config, head.shape[0], projections)
    model = Model(config, layout, np.zeros(layout.offsets[-1]))
    model.head[...] = head
    model.token_embed[...] = token_embed
    for block, mine in zip(blocks, model.blocks):
        for slot in BLOCK_SLOTS:
            value, view = getattr(block, slot), getattr(mine, slot)
            if isinstance(view, DecomposedLayer):
                view.u[...], view.s[...], view.v[...] = value.u, value.s, value.v
            else:
                view[...] = value
    return model


def derive_model(model: Model, *, head: np.ndarray | None = None, split: DecompositionConfig | None = None) -> Model:
    """A new model of ``model``'s arrays, packed once, with its own copy of
    ``model``'s config, ``model`` itself left as it was; ``head`` replaces
    the head if given (its row count may differ), and given a
    ``split``, every plain attention projection is decomposed under it.
    The split is not recorded: the decomposed layers hold their ranks, and
    the run config holds the split that made them."""
    config, blocks = copy.deepcopy(model.config), model.blocks
    if split is not None:
        if model.decomposed:
            raise ValueError("attention projections are already decomposed")
        blocks = [replace(block, **{name: decompose(getattr(block, name), split, layer_id=lid)
                                    for lid, name in enumerate(PROJECTION_NAMES, start=4 * b)})
                  for b, block in enumerate(model.blocks)]
    return stack_trainables(config, model.token_embed, blocks, model.head if head is None else head)


def weight_stack(model: Model) -> np.ndarray:
    """Every attention slot's effective weight as one (n_layers, d_out,
    d_in) stack in layer-id order: a view of ``model.trainable`` for a plain
    model, one ``recompose`` per layer for a decomposed one."""
    n = model.config.n_decomposable
    d = model.config.d_model
    if not model.decomposed:
        return model.trainable.reshape(n, d, d)
    return np.stack([recompose(getattr(block, name)) for _, block, name in attention_slots(model)])


# The elementwise kernels work in place on fresh temporaries, in the
# operation order of the plain expressions they replace (a product or sum
# with its operands swapped rounds identically, a regrouped one need not),
# so they match those expressions bit for bit.  The cube is written as
# products: numpy's float power loop costs about ten times as much as two
# multiplications on these arrays.  GELU and its derivative share the tanh
# t = gelu_tanh(x): the training forward keeps it for the backward pass.
def gelu_tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tanh(a * (x + b * x*x*x)) in a new array, or in ``out``."""
    t = np.multiply(x, x, out=out)
    t *= x
    t *= _GELU_B
    t += x
    t *= _GELU_A
    return np.tanh(t, out=t)


def gelu(x: np.ndarray, t: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * x * (1 + t) in a new array, x and t left as they are.  Without
    ``t`` (the scoring path) it makes no temporary: the tanh is formed in
    ``out`` (a new array if None) and overwritten by the result, and x is
    overwritten by 0.5 * x."""
    if t is None:
        t = gelu_tanh(x, out)
        t += 1.0
        x *= 0.5
        t *= x
        return t
    t = t + 1.0
    t *= 0.5 * x
    return t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 * (1 + t) + 0.5 * x * (1 - t * t) * a * (1 + 3 * b * x * x) in a
    new array, given t = gelu_tanh(x)."""
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= 0.5 * x
    slope *= _GELU_A
    cubic = x * (3.0 * _GELU_B)
    cubic *= x
    cubic += 1.0
    slope *= cubic
    g = t + 1.0
    g *= 0.5
    g += slope
    return g


@lru_cache(maxsize=8)
def _ones(m: int) -> np.ndarray:
    """A read-only (m, 8) block of ones, shared by every caller."""
    ones = np.ones((m, 8))
    ones.setflags(write=False)
    return ones


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Last-axis sums, keepdims, as one product with ``_ones``: numpy's
    reduction calls its inner loop once per row, several times the cost.
    A row rounds the same whatever rows share the product (2 to 40,000
    rows, 2 to 32 wide, OpenBLAS), so ``predict``'s row blocks match
    ``forward``.  An (m, 1) column or four columns would not: BLAS rounds
    their last rows, or rows past its small-matrix kernel, another way."""
    m = x.shape[-1]
    return (x.reshape(-1, m) @ _ones(m))[:, :1].reshape(*x.shape[:-1], 1)


# ``_mean`` divides ``_row_sums`` as ``ndarray.mean`` divides its sum, so it
# rounds like ``ndarray.mean`` up to the order of the sum, not to the bit.
def _mean(x: np.ndarray) -> np.ndarray:
    return _row_sums(x) / x.shape[-1]


@lru_cache(maxsize=8)
def _centring(m: int) -> np.ndarray:
    """The read-only (m, m) I - 1/m, a row times which is the row less its
    mean: only ``backward``, with no row blocks to match, uses it."""
    centring = np.eye(m) - 1.0 / m
    centring.setflags(write=False)
    return centring


def _layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
    out: np.ndarray | None = None, xhat: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(out, xhat, inv_std), ``out`` and ``xhat`` in new arrays unless given."""
    mean = _mean(x)
    xhat = np.subtract(x, mean, out=xhat)
    out = np.multiply(xhat, xhat, out=out)
    # centred once, as ``x.var`` does
    var = _mean(out)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv_std


def _layer_norm_input_grad(
    dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    g = dy * gain
    return inv_std * (_rows_matmul(g, _centring(g.shape[-1])) - xhat * _mean(g * xhat))


@dataclass
class ForwardCache:
    """``blocks`` holds each block's (``_attention`` cache, ``_mlp`` cache),
    the latter's ``wn`` and ``act`` None for a binary head: only the frozen
    slots' gradients read them.  ``weights`` is the effective-weight stack
    the pass used (``weight_stack``), which ``backward`` reuses for the
    input gradients and the regularizers."""

    blocks: list[tuple[tuple[np.ndarray, ...], tuple[np.ndarray | None, ...]]]
    weights: np.ndarray
    pool: np.ndarray
    probs: np.ndarray


def _rows_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for an (n, t, k) stack, as one GEMM over its n * t token
    rows: about twice as fast as n small ones.  Over k = d_model it rounds
    as the stacked product does wherever that was checked (n_tokens 2 to 16
    and d_model up to 24, on OpenBLAS); a one-token model, or d_model 32
    and up, can differ in the last bit, since BLAS then takes another
    kernel for the stacked form.  Over 2 * d_model (act @ W2^T) it did not
    round alike, so those products stay stacked.  Over 3 * d_model (the
    q, k and v input gradient) it rounds as one GEMM, not as three
    products summed.  ``out``, if given, is a contiguous (n, t, m) array."""
    n, t, k = a.shape
    m = b.shape[-1]
    flat = None if out is None else out.reshape(n * t, m)
    return np.matmul(a.reshape(n * t, k), b, out=flat).reshape(n, t, m)


def _embed(model: Model, inputs: np.ndarray) -> np.ndarray:
    cfg = model.config
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.n_tokens or x.shape[2] != cfg.d_model:
        raise ValueError(
            f"inputs must be (N, {cfg.n_tokens}, {cfg.d_model}), got {x.shape}"
        )
    if x.shape[0] < 1:
        raise ValueError("empty batch")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs contain non-finite values")
    return x @ model.token_embed.T


def _scratch_size(n: int, t: int, d: int) -> int:
    """Elements of a scratch buffer for a row block of up to n samples: five
    (n, t, d) slots and the (n, t, t) attention probabilities, 704 KiB for
    a default-shape row block of ``PREDICT_ROWS`` token rows."""
    return n * t * (5 * d + t)


def _slot(buf: np.ndarray | None, shape: tuple[int, ...], at: int, width: int) -> np.ndarray | None:
    """The contiguous (n, t, width) view of ``buf`` that starts at slot
    ``at``, a slot being n * t * d elements of a row block of ``shape`` =
    (n, t, d); None without ``buf``, so numpy makes a new array.  The two
    halves of a block place what they make so that nothing they still read
    is overwritten: the attention half puts its layer norm's xhat and
    output in slots 0 and 1, q, k, v in slots 2-4, the probabilities after
    slot 5, ctx in slot 0 and m_in in slot 4; the MLP half then puts its
    layer norm's in slots 0 and 1, z1 in slots 2-3 and the GELU in 0-1."""
    if buf is None:
        return None
    n, t, d = shape
    lo = at * n * t * d
    return buf[lo : lo + n * t * width].reshape(n, t, width)


def _attention(
    block: Block, w: np.ndarray, a_in: np.ndarray, buf: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The attention half, m_in = a_in + softmax(q k^T / sqrt(d)) v @ Wo^T,
    where ``w`` stacks the block's effective Wq, Wk, Wv, Wo, and its cache,
    all that ``backward`` reads of it: (u, ln1_xhat, ln1_inv_std, q, k, v,
    probs, ctx), which ``forward`` keeps as it is.  With a scratch buffer
    ``buf`` (``_slot``) every row-sized array lives there, and only m_in
    stays valid after the MLP half has run."""
    shape = a_in.shape
    _, t, d = shape
    u, ln1_xhat, ln1_inv = _layer_norm(
        a_in, block.norm1_gain, block.norm1_bias, _slot(buf, shape, 1, d), _slot(buf, shape, 0, d)
    )
    # one product for q, k and v; each column block rounds as its own product
    qkv = _rows_matmul(u, w[:3].reshape(3 * d, d).T, _slot(buf, shape, 2, 3 * d))
    q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    probs = np.matmul(q, k.transpose(0, 2, 1), out=_slot(buf, shape, 5, t))
    probs *= 1.0 / math.sqrt(d)
    # the row maximum, one key column at a time: a maximum is exact in any
    # order, and np.max over a short last axis costs several times as much
    row_max = probs[..., :1].copy()
    for j in range(1, t):
        np.maximum(row_max, probs[..., j : j + 1], out=row_max)
    probs -= row_max
    np.exp(probs, out=probs)
    probs /= _row_sums(probs)
    ctx = np.matmul(probs, v, out=_slot(buf, shape, 0, d))
    m_in = _rows_matmul(ctx, w[3].T, _slot(buf, shape, 4, d))
    m_in += a_in
    return m_in, (u, ln1_xhat, ln1_inv, q, k, v, probs, ctx)


def _mlp(
    block: Block, m_in: np.ndarray, index: int, buf: np.ndarray | None = None, out: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """The MLP half, h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T, of block
    ``index``, and its cache, what ``backward`` reads of it: (ln2_xhat,
    ln2_inv_std, wn, z1, gelu_t, act), of which ``forward`` keeps wn and
    act for a pretraining head only.  With the scratch buffer ``buf`` of
    the attention half that made m_in, h_out goes to ``out`` and nothing is
    kept: the GELU works in place on its tanh and on z1, and the cache is
    None."""
    shape = m_in.shape
    d = shape[-1]
    wn, ln2_xhat, ln2_inv = _layer_norm(
        m_in, block.norm2_gain, block.norm2_bias, _slot(buf, shape, 1, d), _slot(buf, shape, 0, d)
    )
    z1 = _rows_matmul(wn, block.mlp_in.T, _slot(buf, shape, 2, 2 * d))
    if buf is None:
        gelu_t = gelu_tanh(z1)
        act = gelu(z1, gelu_t)
    else:
        act = gelu(z1, None, _slot(buf, shape, 0, 2 * d))
    # over 2 * d_model, so stacked (``_rows_matmul``)
    h = np.matmul(act, block.mlp_out.T, out=out)
    h += m_in
    if not np.all(np.isfinite(h)):
        raise ValueError(f"non-finite activations in block {index}")
    if buf is not None:
        return h, None
    return h, (ln2_xhat, ln2_inv, wn, z1, gelu_t, act)


def _head(model: Model, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pool, probabilities) of the last block's output."""
    pool = h.mean(axis=1)
    logits = pool @ model.head.T
    if model.n_outputs == 1:
        # |logit| beyond 40 saturates past the probability clamp anyway;
        # clipping first keeps exp() in range
        p = 1.0 / (1.0 + np.exp(-np.clip(logits[:, 0], -40.0, 40.0)))
        probs = np.clip(p, losses.PROB_FLOOR, 1.0 - losses.PROB_FLOOR)
    else:
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=-1, keepdims=True)
    return pool, probs


def forward(model: Model, inputs: np.ndarray) -> ForwardCache:
    """The forward pass, with what ``backward`` reads of each block kept
    as ``ForwardCache`` describes."""
    h = _embed(model, inputs)
    w = weight_stack(model)
    caches = []
    for b, block in enumerate(model.blocks):
        h, attention = _attention(block, w[4 * b : 4 * b + 4], h)
        h, (ln2_xhat, ln2_inv, wn, z1, gelu_t, act) = _mlp(block, h, b)
        if model.n_outputs == 1:
            wn = act = None
        caches.append((attention, (ln2_xhat, ln2_inv, wn, z1, gelu_t, act)))
    pool, probs = _head(model, h)
    return ForwardCache(blocks=caches, weights=w, pool=pool, probs=probs)


@lru_cache(maxsize=1)
def openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count get and set calls of the OpenBLAS this process has
    loaded, found through ``/proc/self/maps`` under the names of the
    scipy-openblas, 64-bit-integer and plain builds; None where there is
    no such library or map."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for library in libraries:
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run OpenBLAS on one thread in the block, for a process with a runner
    on every CPU, where more would only contend; its threads change no
    byte."""
    blas = openblas_threads()
    threads = blas[0]() if blas is not None else 1
    if threads > 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads > 1:
            blas[1](threads)


# (pid, request pipe, reply pipe) of each helper, kept until ``stop_helpers``
# (a fork round trip costs about 3 ms, a default-shape 256-sample ``predict``
# about 10 ms); ``_alone`` in a helper, and in a caller while its helpers run
_helpers: list[tuple[int, BinaryIO, BinaryIO]] = []
_alone = False


class Call(NamedTuple):
    """Work for a helper: the module-level function ``fn``, run there as
    ``fn(*args, *arrays)``, returns (value, arrays), which are read back
    over the last of ``arrays``, as if it had run here.  ``name`` names the
    helper, ``{pid}`` its pid, in the error raised if it ends mid-call."""

    name: str
    fn: Callable
    args: tuple
    arrays: Sequence[np.ndarray] = ()


def runners(shares: int) -> int:
    """The processes to run ``shares`` shares of work on: one per usable CPU
    up to ``shares``, but 1 in a process that is alone, cannot fork or has
    another thread alive (a fork copies only the forking thread)."""
    if _alone or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(shares, usable)


def _fill(pipe: BinaryIO, array: np.ndarray) -> None:
    if pipe.readinto(array) < array.nbytes:
        raise EOFError


def _serve(requests: BinaryIO, replies: BinaryIO) -> None:
    """A helper's loop, until its request pipe ends.  A request is a
    ``Call``'s pickled (function, args, array shapes), then its arrays, raw
    float64, read into one reused buffer; the reply is a pickled (value,
    array count, the warnings the call raised), then the arrays, raw.  The
    arrays cross unpickled: a pickled copy per call made the caller's heap
    drift onto pages it still shared with the helpers since the fork, each
    a fault on first write.  An exception of the call ends the helper."""
    buffer = np.empty(0)
    while True:
        try:
            fn, args, shapes = pickle.load(requests)
        except EOFError:
            return
        ends = list(accumulate(map(math.prod, shapes), initial=0))
        if buffer.size < ends[-1]:
            buffer = np.empty(ends[-1])
        _fill(requests, buffer[: ends[-1]])
        arrays = [buffer[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value, out = fn(*args, *arrays)
        pickle.dump((value, len(out), [(w.message, w.category, w.filename, w.lineno) for w in caught]), replies)
        replies.writelines(out)
        replies.flush()


def _fork_helper() -> tuple[int, BinaryIO, BinaryIO]:
    """Fork a helper: a process that runs ``_serve`` alone, on one BLAS
    thread, and ends with ``os._exit`` (1 if ``_serve`` raised), so no
    caller frame, exit handler or stdio buffer runs in it.  It ignores
    SIGINT, so a Ctrl-C prints the caller's traceback alone, and dies with
    the caller (Linux's ``PR_SET_PDEATHSIG``), as a caller killed by a
    signal runs no cleanup; the fork hook closes its siblings' pipes."""
    global _alone
    (their_requests, requests), (replies, their_replies) = os.pipe(), os.pipe()
    caller = os.getpid()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with contextlib.suppress(AttributeError, OSError, TypeError):  # no symbol, or no C library
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
                prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(requests)
            os.close(replies)
            _alone = True
            if os.getppid() == caller:  # else the caller ended before the request was made
                # left open, the pipes end with the process, once its exit status is set
                ask, tell = os.fdopen(their_requests, "rb"), os.fdopen(their_replies, "wb")
                with one_blas_thread():
                    _serve(ask, tell)
                status = 0
        finally:
            os._exit(status)
    os.close(their_requests)
    os.close(their_replies)
    return pid, os.fdopen(requests, "wb"), os.fdopen(replies, "rb")


def _end(helper: tuple[int, BinaryIO, BinaryIO], kill: bool) -> str:
    """Forget ``helper``, close its pipes, which ends it, or kill it, and
    reap it; how it ended."""
    pid, requests, replies = helper
    _helpers.remove(helper)
    with contextlib.suppress(OSError):  # a broken pipe
        requests.close()
    replies.close()
    if kill:
        os.kill(pid, signal.SIGKILL)  # no effect on one that has already ended
    try:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:  # reaped elsewhere
        return "an unknown status"
    return f"exit status {status}" if status >= 0 else f"signal {-status}"


def stop_helpers() -> None:
    """End and reap every helper (also at exit); a later call forks anew."""
    while _helpers:
        _end(_helpers[-1], kill=False)


def _forget_helpers() -> None:
    """In a forked child: close the parent's helpers' pipes and forget them."""
    for _, requests, replies in _helpers:
        requests.close()
        replies.close()
    _helpers.clear()


atexit.register(stop_helpers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _warn(message: Warning | str, category: type[Warning], filename: str, lineno: int) -> None:
    """Issue a helper's warning as the code at ``filename``:``lineno`` does
    here, in its module's registry, through this process's filters."""
    module = next((m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None)
    where = (module.__name__, vars(module).setdefault("__warningregistry__", {})) if module else ()
    warnings.warn_explicit(message, category, filename, lineno, *where)


def run_calls(calls: list[Call], own: Callable[[], object]) -> tuple[object, list]:
    """Run ``calls[i]`` on helper i, forked if there is none yet, while
    ``own()`` runs here alone, every runner on one BLAS thread; returns
    (``own()``, each call's value) and issues each reply's warnings here,
    in order.  A helper whose pipe breaks mid-call fails the call with a
    RuntimeError that names it and how it ended, and on every way out a
    helper whose reply was not read in full, being out of step, is killed."""
    global _alone
    while len(_helpers) < len(calls):
        _helpers.append(_fork_helper())
    helpers, before = _helpers[: len(calls)], _alone
    unread, values, helper, call = list(helpers), [], None, None
    try:
        with one_blas_thread() if calls else contextlib.nullcontext():
            for helper, call in zip(helpers, calls):
                pickle.dump((call.fn, call.args, [array.shape for array in call.arrays]), helper[1])
                helper[1].writelines(call.arrays)
                helper[1].flush()
            helper, _alone = None, before or bool(calls)
            mine = own()
            for helper, call in zip(helpers, calls):
                value, n_arrays, caught = pickle.load(helper[2])
                for array in call.arrays[len(call.arrays) - n_arrays :]:
                    _fill(helper[2], array)
                unread.remove(helper)
                values.append(value)
                for warning in caught:
                    _warn(*warning)
    except (OSError, EOFError, pickle.UnpicklingError):
        if helper is None:
            raise
        raise RuntimeError(f"{call.name.format(pid=helper[0])} ended with {_end(helper, kill=True)}") from None
    finally:
        _alone = before
        for helper in unread:
            if helper in _helpers:
                _end(helper, kill=True)
    return mine, values


def _score_rows(blocks: list[Block], w: np.ndarray, row_blocks: Sequence[np.ndarray]) -> tuple | None:
    """Run each of ``row_blocks`` through every block, writing its output
    back over its input, with its activations in one scratch buffer.  A
    row block stops at its first error; the result is the first error as
    (block, row block's index, error), by (block, index), or None."""
    first, buf = None, np.empty(_scratch_size(*row_blocks[0].shape))
    for j, rows in enumerate(row_blocks):
        for b, block in enumerate(blocks):
            try:
                m_in = _attention(block, w[4 * b : 4 * b + 4], rows, buf)[0]
                _mlp(block, m_in, b, buf, rows)
            except Exception as exc:  # noqa: BLE001 - raised by the caller, in the order forward meets it
                if first is None or (b, j) < first[:2]:
                    first = (b, j, exc)
                break
    return first


def _score_share(errstate: dict, w: np.ndarray, *arrays: np.ndarray) -> tuple[tuple | None, list[np.ndarray]]:
    """A helper's share of ``predict``: after the weight stack ``w``, each
    block's ``FROZEN_SLOTS`` arrays and the row blocks, scored under the
    caller's numpy ``errstate``.  Returns the ``_score_rows`` result, (-1,
    0, error) for an error outside the blocks, and, with no error, the row
    blocks, scored in place."""
    k = len(FROZEN_SLOTS)
    frozen, row_blocks = arrays[: k * len(w) // 4], arrays[k * len(w) // 4 :]
    blocks = [Block(q=None, k=None, v=None, o=None, **dict(zip(FROZEN_SLOTS, frozen[i : i + k])))
              for i in range(0, len(frozen), k)]
    try:
        with np.errstate(**errstate):
            failure = _score_rows(blocks, w, row_blocks)
    except Exception as exc:  # noqa: BLE001 - the caller raises it, before every block's error
        failure = (-1, 0, exc)
    return failure, list(row_blocks) if failure is None else []


def predict(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Probabilities only: (N,) fake-probability for the binary head, (N, C)
    class distribution for the pretraining head.  Bit for bit
    ``forward(model, inputs).probs``, but nothing is kept: the batch runs
    through the blocks in row blocks of ``PREDICT_ROWS`` token rows, each
    written back over its input, so a runner holds one row block's
    activations.  A sample's tokens attend only to each other, so row
    blocks are independent: the caller and n - 1 helpers (n =
    ``runners(row blocks)``, ``_score_share``) each take every n-th row
    block.  Helpers are processes, since every numpy call takes the
    interpreter lock first: two threads scored at 0.9-1.2x one thread's
    rate, two processes at 1.9-2.0x (2-vCPU x86-64).  A numpy error mode of
    ``call`` or ``log``, whose callback only the caller can run, makes the
    call serial.  The caller raises the error of the lowest (block, row
    block), the one ``forward`` raises.  The embedding and the head see the
    whole batch: the head's (N, d) @ (d, 1) product rounds with N."""
    h = _embed(model, inputs)
    w = weight_stack(model)
    step = max(1, PREDICT_ROWS // model.config.n_tokens)
    starts = range(0, h.shape[0], step)
    errstate = np.geterr()
    n = 1 if {"call", "log"} & set(errstate.values()) else runners(len(starts))
    frozen = [getattr(block, slot) for block in model.blocks for slot in FROZEN_SLOTS]
    shares = [[h[lo : lo + step] for lo in starts[i::n]] for i in range(n)]
    calls = [Call("scoring helper {pid}", _score_share, (errstate,), [w, *frozen, *share]) for share in shares[1:]]
    mine, theirs = run_calls(calls, lambda: _score_rows(model.blocks, w, shares[0]))
    failures = [(failure[0], starts[i::n][failure[1]], failure[2])
                for i, failure in enumerate([mine, *theirs]) if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return _head(model, h)[1]


@dataclass
class Gradients:
    """Gradients laid out like ``model.params``, with ``trainable`` (one row
    per attention slot) a view of ``params``; ``model.layout.carve`` gives
    the rest.  A binary-head ``backward`` forms only the fine-tuned
    gradients, so its ``params`` is the layout's prefix of rows and head; a
    pretraining head's covers the whole layout."""

    params: np.ndarray
    trainable: np.ndarray


def _project_factors(
    stack: FactorStack,
    g_w: np.ndarray,
    w_eff: np.ndarray,
    grad: np.ndarray,
    weights: losses.LossWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Map every layer's effective-weight gradient ``g_w`` (n, d_out, d_in)
    onto its artifact factors, add the regularizer gradients (semantic
    factors receive nothing), and write the result into ``grad``, the
    gradient rows laid out like the model's.  ``g_w`` is overwritten.
    Returns each layer's orthogonality and spectral values.  A padded
    column's gradient is zero, since its U, s and V are zero and the cross
    mask zeroes its Gram row and column, so padding stays zero.  Each
    stacked product or sum rounds exactly as the same 2-D call on one
    layer's padded row."""
    n_layers = g_w.shape[0]
    energy = np.sum(w_eff * w_eff, axis=(1, 2))
    spec = losses.spec_loss(stack, energy)
    if weights.spectral_weight != 0.0:
        delta = energy - stack.pretrained_frob_sq
        # subgradient of the absolute value at its kink taken as 0; "at the
        # kink" means within float-noise of the pretrained energy, so a fresh
        # decomposition (delta ~ 1e-13 from rounding) gets an exact zero here.
        # Layers at the kink skip the add: adding 0 * w would turn a -0.0
        # gradient entry into +0.0.
        live = np.abs(delta) > 1e-9 * np.maximum(1.0, stack.pretrained_frob_sq)
        if live.any():
            coef = (weights.spectral_weight / n_layers) * np.copysign(2.0, delta[live])
            g_w[live] += coef[:, None, None] * w_eff[live]
    orth, orth_du, orth_dv = losses.orth_loss_grads(stack, weights.orth_weight / n_layers)
    du, ds, dv = stack.split(grad)
    s = stack.s[:, None, :]
    g_v = g_w @ stack.v
    np.multiply(g_v, s, out=du)
    du += orth_du
    np.multiply(np.swapaxes(g_w, 1, 2) @ stack.u, s, out=dv)
    dv += orth_dv
    np.sum(stack.u * g_v, axis=1, out=ds)
    return orth, spec


def backward(
    model: Model,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: losses.LossWeights | None = None,
) -> tuple[losses.LossReport, Gradients]:
    """Loss and exact analytic gradients.

    Binary head: labels in {0,1}, loss = clamped cross-entropy plus (for a
    decomposed model) the orthogonality and spectral penalties averaged over
    decomposed layers.  Only the attention projections and the head are
    fine-tuned, so only their gradients are formed.
    Pretraining head: integer class labels, softmax cross-entropy, no
    regularizers, a gradient for every parameter slot.
    """
    cfg = model.config
    weights = weights if weights is not None else losses.LossWeights()
    cache = forward(model, inputs)
    n = inputs.shape[0]

    full = model.n_outputs != 1
    if not full:
        y = np.asarray(labels, dtype=np.float64)
        cls = losses.cls_loss(cache.probs, y)
        dlogits = ((cache.probs - y) / n)[:, None]
    else:
        y_idx = np.asarray(labels)
        if y_idx.ndim != 1 or y_idx.shape[0] != n:
            raise ValueError("labels must be one class id per sample")
        if y_idx.min() < 0 or y_idx.max() >= model.n_outputs:
            raise ValueError("class id out of range")
        picked = np.clip(cache.probs[np.arange(n), y_idx], losses.PROB_FLOOR, 1.0)
        cls = float(-np.mean(np.log(picked)))
        onehot = np.zeros_like(cache.probs)
        onehot[np.arange(n), y_idx] = 1.0
        dlogits = (cache.probs - onehot) / n

    layout = model.layout
    params = np.empty(layout.grad_size)
    grad, d_head, d_embed, d_frozen = layout.carve(params)
    np.matmul(dlogits.T, cache.pool, out=d_head)
    d_pool = dlogits @ model.head
    t, d = cfg.n_tokens, cfg.d_model
    dh = np.repeat(d_pool[:, None, :], t, axis=1) / t

    scale = 1.0 / math.sqrt(d)
    n_rows = n * t
    decomposed = model.decomposed
    w = cache.weights
    # each attention slot's weight gradient by layer id; a plain model's
    # weight gradients are its rows
    g_w = np.empty_like(w) if decomposed else grad.reshape(w.shape)

    for b in range(cfg.n_blocks - 1, -1, -1):
        block = model.blocks[b]
        (u, ln1_xhat, ln1_inv, q, k, v, probs, ctx), (ln2_xhat, ln2_inv, wn, z1, gelu_t, act) = cache.blocks[b]

        # MLP half: h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T
        dact = _rows_matmul(dh, block.mlp_out)
        dz1 = gelu_grad(z1, gelu_t)
        dz1 *= dact
        dwn = dz1 @ block.mlp_in  # over 2 * d_model: left stacked
        dm_in = dh + _layer_norm_input_grad(dwn, ln2_xhat, ln2_inv, block.norm2_gain)

        # attention half: m_in = a_in + (softmax(q k^T / sqrt(d)) v) @ Wo^T
        w_qkv, o_row = slice(4 * b, 4 * b + 3), 4 * b + 3
        do_ctx = _rows_matmul(dm_in, w[o_row])
        np.matmul(dm_in.reshape(n_rows, -1).T, ctx.reshape(n_rows, -1), out=g_w[o_row])
        dprobs = do_ctx @ v.transpose(0, 2, 1)
        # q's, k's and v's token gradients side by side, as qkv is
        dqkv = np.empty((n, t, 3 * d))
        np.matmul(probs.transpose(0, 2, 1), do_ctx, out=dqkv[..., 2 * d :])
        # softmax rows backward, scaled once before its two products
        dscores = dprobs * probs
        dprobs -= _row_sums(dscores)
        np.multiply(probs, dprobs, out=dscores)
        dscores *= scale
        np.matmul(dscores, k, out=dqkv[..., :d])
        np.matmul(dscores.transpose(0, 2, 1), q, out=dqkv[..., d : 2 * d])
        # Wq's, Wk's and Wv's gradients, consecutive in g_w, in one product
        np.matmul(dqkv.reshape(n_rows, -1).T, u.reshape(n_rows, -1), out=g_w[w_qkv].reshape(3 * d, d))
        if b == 0 and not full:
            break  # nothing reads the input gradient of block 0
        du = _rows_matmul(dqkv, w[w_qkv].reshape(3 * d, d))
        # formed before dh moves on to this block's input gradient
        if full:
            g = d_frozen[b]
            np.sum(du * ln1_xhat, axis=(0, 1), out=g["norm1_gain"])
            np.sum(du, axis=(0, 1), out=g["norm1_bias"])
            np.sum(dwn * ln2_xhat, axis=(0, 1), out=g["norm2_gain"])
            np.sum(dwn, axis=(0, 1), out=g["norm2_bias"])
            np.matmul(dz1.reshape(n_rows, -1).T, wn.reshape(n_rows, -1), out=g["mlp_in"])
            np.matmul(dh.reshape(n_rows, -1).T, act.reshape(n_rows, -1), out=g["mlp_out"])
        dh = dm_in + _layer_norm_input_grad(du, ln1_xhat, ln1_inv, block.norm1_gain)

    if full:
        x_rows = np.asarray(inputs, dtype=np.float64).reshape(n_rows, -1)
        np.matmul(dh.reshape(n_rows, -1).T, x_rows, out=d_embed)

    if decomposed:
        orth, spec = _project_factors(model.factors, g_w, w, grad, weights)
        # the means sum in the order the per-block loop has always produced
        # the values (last block first); summation order is part of the bits
        order = [4 * b + j for b in range(cfg.n_blocks - 1, -1, -1) for j in range(4)]
        report = losses.total_loss(cls, orth[order].tolist(), spec[order].tolist(), weights)
    else:
        report = losses.LossReport(cls=cls, orth_mean=0.0, spec_mean=0.0, total=cls)
    return report, Gradients(params=params, trainable=grad)


def clone_model(model: Model) -> Model:
    """A copy with its own buffer and config, carved by the same layout: it
    shares only the layout, whose arrays (the semantic parts among them)
    are read-only."""
    return Model(copy.deepcopy(model.config), model.layout, model.params.copy())
