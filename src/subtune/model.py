"""Miniature pre-norm single-head attention classifier with hand-derived
gradients.

Attention projections (q, k, v, o per block) start as plain matrices; after
backbone pretraining they can be decomposed into a frozen semantic subspace
plus trainable artifact subspaces.  Everything outside those projections and
the head (token embed, layer norms, MLPs) is frozen during fine-tuning.  Every
array of a model is a view of one parameter buffer, ``Model.params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from . import losses
from .decomposition import (
    DecomposedLayer,
    DecompositionConfig,
    FactorStack,
    decompose,
    recompose,
)

Projection = Union[np.ndarray, DecomposedLayer]

LN_EPS = 1e-6
_GELU_A = math.sqrt(2.0 / math.pi)
_GELU_B = 0.044715


@dataclass
class ModelConfig:
    d_model: int = 16
    n_blocks: int = 6
    n_tokens: int = 8
    n_classes_pretrain: int = 4
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)

    @property
    def n_decomposable(self) -> int:
        return 4 * self.n_blocks

    @property
    def mlp_hidden(self) -> int:
        return 2 * self.d_model

    def validate(self) -> None:
        if self.d_model < 2 or self.n_blocks < 1 or self.n_tokens < 1:
            raise ValueError(
                f"bad model dimensions d_model={self.d_model} "
                f"n_blocks={self.n_blocks} n_tokens={self.n_tokens}"
            )
        if self.n_classes_pretrain < 2:
            raise ValueError("need at least two base classes for pretraining")
        self.decomposition.validate()


@dataclass
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


@dataclass
class Model:
    """Every array of the model is a view of one float64 buffer,
    ``params``, laid out as: the (n_layers, P) ``trainable`` rows, the
    head, ``token_embed``, then each block's ``FROZEN_SLOTS`` (``_carve``).
    ``trainable`` holds every attention slot's trainable values, one row per
    layer in layer-id order, and each slot is a view of its row: a plain
    matrix (P = d_out * d_in) or a decomposed layer's ``params``,
    zero-padded to the model's largest tail rank.  ``factors`` stacks the
    decomposed layers' U, s and V views of the rows (None for a plain
    model)."""

    config: ModelConfig
    token_embed: np.ndarray
    blocks: list[Block]
    head: np.ndarray
    params: np.ndarray = field(init=False, repr=False)
    trainable: np.ndarray = field(init=False, repr=False)
    factors: FactorStack | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        stack_trainables(self)

    @property
    def decomposed(self) -> bool:
        return isinstance(self.blocks[0].q, DecomposedLayer)

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
    return Model(config=cfg, token_embed=token_embed, blocks=blocks, head=head)


def attention_slots(model: Model) -> list[tuple[int, Block, str]]:
    """(layer_id, block, projection name) for every maskable layer, in a fixed
    order: block 0 q,k,v,o then block 1 q,k,v,o and so on."""
    out = []
    lid = 0
    for block in model.blocks:
        for name in PROJECTION_NAMES:
            out.append((lid, block, name))
            lid += 1
    return out


def _carve(
    model: Model, rows: tuple[int, int], full: bool = True, buf: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, list[dict[str, np.ndarray]]]:
    """The one place that knows the parameter layout: ``buf`` (by default a
    new uninitialised buffer) split into its views, returned as (buffer, the
    (n_layers, P) trainable ``rows``, the head, the token embedding, one
    dict of ``FROZEN_SLOTS`` views per block).  Without ``full`` the buffer
    is only the layout's trained prefix, the rows and the head, and the
    frozen views are None and empty."""
    cfg = model.config
    sections = [rows, model.head.shape]
    if full:
        shapes = block_shapes(cfg)
        sections += [(cfg.d_model, cfg.d_model)] + [shapes[slot] for _ in range(cfg.n_blocks) for slot in FROZEN_SLOTS]
    sizes = [math.prod(shape) for shape in sections]
    if buf is None:
        buf = np.empty(sum(sizes))
    views, at = [], 0
    for shape, size in zip(sections, sizes):
        views.append(buf[at : at + size].reshape(shape))
        at += size
    frozen = iter(views[3:])
    blocks = [{slot: next(frozen) for slot in FROZEN_SLOTS} for _ in range(cfg.n_blocks)] if full else []
    return buf, views[0], views[1], views[2] if full else None, blocks


def stack_trainables(model: Model) -> None:
    """Copy every array of the model into one new ``params`` buffer and
    point each slot at its view.  Needed whenever an array is replaced or
    copied, since a copied view no longer aliases its buffer."""
    slots = attention_slots(model)
    projections = [getattr(block, name) for _, block, name in slots]
    decomposed, first = model.decomposed, projections[0]
    row_size = (first.d_out + 1 + first.d_in) * max(p.tail_rank for p in projections) if decomposed else first.size
    model.params, model.trainable, head, embed, frozen = _carve(model, (len(projections), row_size))
    views = [(model, "head", head), (model, "token_embed", embed)]
    views += [(block, slot, view) for block, named in zip(model.blocks, frozen) for slot, view in named.items()]
    if decomposed:
        model.trainable[...] = 0.0  # the padding past each layer's tail
        for p, row in zip(projections, model.trainable):
            values = p.split(p.params)
            p.params = row
            for view, value in zip((p.u, p.s, p.v), values):
                view[...] = value
    else:
        views += [(block, name, row.reshape(p.shape))
                  for (_, block, name), p, row in zip(slots, projections, model.trainable)]
    for owner, name, view in views:
        view[...] = getattr(owner, name)
        setattr(owner, name, view)
    model.factors = FactorStack.of(projections, model.trainable) if decomposed else None


def decompose_attention(model: Model) -> None:
    """Replace every plain attention projection with its subspace split."""
    if model.decomposed:
        raise ValueError("attention projections are already decomposed")
    for lid, block, name in attention_slots(model):
        w = getattr(block, name)
        setattr(block, name, decompose(w, model.config.decomposition, layer_id=lid))
    stack_trainables(model)


def reset_head(
    model: Model, n_outputs: int, rng: np.random.Generator, scale: float | None = None
) -> None:
    if scale is None:
        scale = 1.0 / math.sqrt(model.config.d_model)
    model.head = rng.normal(scale=scale, size=(n_outputs, model.config.d_model))
    stack_trainables(model)  # the head changes size


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
def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(a * (x + b * x*x*x)) in a new array."""
    t = x * x
    t *= x
    t *= _GELU_B
    t += x
    t *= _GELU_A
    return np.tanh(t, out=t)


def gelu(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """0.5 * x * (1 + t) in a new array, t left as it is; without ``t`` the
    tanh is formed here and overwritten by the result."""
    if t is None:
        t = gelu_tanh(x)
        t += 1.0
    else:
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


# ``_mean`` is ``ndarray.mean`` over the last axis without its Python
# wrapper: the same sum, then the same true divide, so the same bits.
def _mean(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = _mean(x)
    xhat = x - mean
    out = xhat * xhat
    # centred once; this is exactly how ``x.var`` computes it
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
    return inv_std * (g - _mean(g) - xhat * _mean(g * xhat))


@dataclass
class _BlockCache:
    """What ``backward`` reads of one block.  ``wn`` and ``act`` feed only
    the frozen slots' gradients, so a binary-head forward leaves them None."""

    ln1_xhat: np.ndarray
    ln1_inv_std: np.ndarray
    u: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray
    ctx: np.ndarray
    ln2_xhat: np.ndarray
    ln2_inv_std: np.ndarray
    wn: np.ndarray | None
    z1: np.ndarray
    gelu_t: np.ndarray
    act: np.ndarray | None


@dataclass
class ForwardCache:
    """``weights`` is the effective-weight stack the pass used
    (``weight_stack``)."""

    blocks: list[_BlockCache]
    weights: np.ndarray
    pool: np.ndarray
    probs: np.ndarray


def _rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for an (n, t, k) stack, as one GEMM over its n * t token
    rows: about twice as fast as n small ones.  Over k = d_model it rounds
    as the stacked product does wherever that was checked (t >= 2 and
    d_model <= 24, on OpenBLAS); over 2 * d_model (act @ W2^T) it did not,
    so those products stay stacked."""
    n, t, k = a.shape
    return (a.reshape(n * t, k) @ b).reshape(n, t, b.shape[-1])


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


def _block_forward(
    block: Block, w: np.ndarray, a_in: np.ndarray, index: int, keep: str | None
) -> tuple[np.ndarray, _BlockCache | None]:
    """One block: h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T with
    m_in = a_in + softmax(q k^T / sqrt(d)) v @ Wo^T, where ``w`` stacks the
    block's effective Wq, Wk, Wv, Wo.  ``keep`` is what to return for the
    backward pass: None (nothing; the GELU then works in place), "trainable"
    (what the attention gradients read) or "all" (also the frozen slots')."""
    n, t, d = a_in.shape
    u, ln1_xhat, ln1_inv = _layer_norm(a_in, block.norm1_gain, block.norm1_bias)
    # one product for q, k and v; each column block rounds as its own product
    qkv = _rows_matmul(u, w[:3].reshape(3 * d, d).T)
    q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    probs = q @ k.transpose(0, 2, 1)
    probs *= 1.0 / math.sqrt(d)
    # the row maximum, one key column at a time: a maximum is exact in any
    # order, and np.max over a short last axis costs several times as much
    row_max = probs[..., :1].copy()
    for j in range(1, t):
        np.maximum(row_max, probs[..., j : j + 1], out=row_max)
    probs -= row_max
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = probs @ v
    m_in = _rows_matmul(ctx, w[3].T)
    m_in += a_in
    wn, ln2_xhat, ln2_inv = _layer_norm(m_in, block.norm2_gain, block.norm2_bias)
    z1 = _rows_matmul(wn, block.mlp_in.T)
    gelu_t = None if keep is None else gelu_tanh(z1)
    act = gelu(z1, gelu_t)
    h = act @ block.mlp_out.T  # over 2 * d_model, so stacked (``_rows_matmul``)
    h += m_in
    if not np.all(np.isfinite(h)):
        raise ValueError(f"non-finite activations in block {index}")
    if keep is None:
        return h, None
    frozen = keep == "all"
    return h, _BlockCache(
        ln1_xhat=ln1_xhat, ln1_inv_std=ln1_inv, u=u,
        q=q, k=k, v=v, probs=probs, ctx=ctx,
        ln2_xhat=ln2_xhat, ln2_inv_std=ln2_inv, wn=wn if frozen else None,
        z1=z1, gelu_t=gelu_t, act=act if frozen else None,
    )


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
    """The forward pass with every block's activations kept for ``backward``
    (for a binary head, only those its fine-tuned gradients read)."""
    h = _embed(model, inputs)
    w = weight_stack(model)
    keep = "trainable" if model.n_outputs == 1 else "all"
    caches: list[_BlockCache] = []
    for b, block in enumerate(model.blocks):
        h, cache = _block_forward(block, w[4 * b : 4 * b + 4], h, b, keep)
        caches.append(cache)
    pool, probs = _head(model, h)
    return ForwardCache(blocks=caches, weights=w, pool=pool, probs=probs)


def predict(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Probabilities only: (N,) fake-probability for the binary head, (N, C)
    class distribution for the pretraining head.  Bit for bit
    ``forward(model, inputs).probs``, but each block's activations are
    dropped as soon as the block returns."""
    h = _embed(model, inputs)
    w = weight_stack(model)
    for b, block in enumerate(model.blocks):
        h = _block_forward(block, w[4 * b : 4 * b + 4], h, b, None)[0]
    return _head(model, h)[1]


@dataclass
class Gradients:
    """Gradients laid out like ``model.params``, with ``trainable`` (one row
    per attention slot) and ``head`` views of ``params``.  A binary-head
    ``backward`` forms only the fine-tuned gradients, so its ``params`` is
    the layout's prefix of rows and head; a pretraining head's covers the
    whole layout."""

    params: np.ndarray
    trainable: np.ndarray
    head: np.ndarray


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
    mask zeroes its Gram row and column, so padding stays zero."""
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

    params, grad, d_head, d_embed, d_frozen = _carve(model, model.trainable.shape, full)
    np.matmul(dlogits.T, cache.pool, out=d_head)
    d_pool = dlogits @ model.head
    dh = np.repeat(d_pool[:, None, :], cfg.n_tokens, axis=1) / cfg.n_tokens

    scale = 1.0 / math.sqrt(cfg.d_model)
    n_rows = n * cfg.n_tokens
    decomposed = model.decomposed
    w = cache.weights
    # each attention slot's weight gradient by layer id; a plain model's
    # weight gradients are its rows
    g_w = np.empty_like(w) if decomposed else grad.reshape(w.shape)

    for b in range(cfg.n_blocks - 1, -1, -1):
        block = model.blocks[b]
        c = cache.blocks[b]

        # MLP half: h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T
        dact = _rows_matmul(dh, block.mlp_out)
        dz1 = gelu_grad(c.z1, c.gelu_t)
        dz1 *= dact
        dwn = dz1 @ block.mlp_in  # over 2 * d_model: left stacked
        dm_in = dh + _layer_norm_input_grad(dwn, c.ln2_xhat, c.ln2_inv_std, block.norm2_gain)

        # attention half: m_in = a_in + (softmax(q k^T / sqrt(d)) v) @ Wo^T
        q_row, k_row, v_row, o_row = range(4 * b, 4 * b + 4)
        do_ctx = _rows_matmul(dm_in, w[o_row])
        np.matmul(dm_in.reshape(n_rows, -1).T, c.ctx.reshape(n_rows, -1), out=g_w[o_row])
        dprobs = do_ctx @ c.v.transpose(0, 2, 1)
        dv_tok = c.probs.transpose(0, 2, 1) @ do_ctx
        # softmax rows backward
        dscores = c.probs * (dprobs - np.sum(dprobs * c.probs, axis=-1, keepdims=True))
        dq_tok = (dscores @ c.k) * scale
        dk_tok = (dscores.transpose(0, 2, 1) @ c.q) * scale
        u_rows = c.u.reshape(n_rows, -1)
        np.matmul(dq_tok.reshape(n_rows, -1).T, u_rows, out=g_w[q_row])
        np.matmul(dk_tok.reshape(n_rows, -1).T, u_rows, out=g_w[k_row])
        np.matmul(dv_tok.reshape(n_rows, -1).T, u_rows, out=g_w[v_row])
        if b == 0 and not full:
            break  # nothing reads the input gradient of block 0
        du = _rows_matmul(dq_tok, w[q_row]) + _rows_matmul(dk_tok, w[k_row]) + _rows_matmul(dv_tok, w[v_row])
        # formed before dh moves on to this block's input gradient
        if full:
            g = d_frozen[b]
            np.sum(du * c.ln1_xhat, axis=(0, 1), out=g["norm1_gain"])
            np.sum(du, axis=(0, 1), out=g["norm1_bias"])
            np.sum(dwn * c.ln2_xhat, axis=(0, 1), out=g["norm2_gain"])
            np.sum(dwn, axis=(0, 1), out=g["norm2_bias"])
            np.matmul(dz1.reshape(n_rows, -1).T, c.wn.reshape(n_rows, -1), out=g["mlp_in"])
            np.matmul(dh.reshape(n_rows, -1).T, c.act.reshape(n_rows, -1), out=g["mlp_out"])
        dh = dm_in + _layer_norm_input_grad(du, c.ln1_xhat, c.ln1_inv_std, block.norm1_gain)

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
        report = losses.LossReport(cls=cls, orth_mean=0.0, spec_mean=0.0, total=cls, n_layers=0)
    return report, Gradients(params=params, trainable=grad, head=d_head)


def trained_positions(model: Model) -> np.ndarray:
    """The positions in ``model.params`` of what ``backward`` differentiates,
    in buffer order: for a binary head, each attention row's real values (a
    decomposed layer's U, s and V columns, never its padding, or the plain
    matrix) and then the head; for a pretraining head, every position.
    Refuses a model whose head, ``token_embed`` or any block slot was
    rebound off the buffer, which everything that works on it would skip."""
    _, rows, head, embed, frozen = _carve(model, model.trainable.shape, buf=model.params)
    views = [("head", model.head, head), ("token_embed", model.token_embed, embed)]
    for (lid, block, name), row in zip(attention_slots(model), rows):
        slot = getattr(block, name)
        views.append((f"block{lid // 4}.{name}", slot.params if isinstance(slot, DecomposedLayer) else slot, row))
    views += [(f"block{b}.{slot}", getattr(model.blocks[b], slot), view)
              for b, named in enumerate(frozen) for slot, view in named.items()]
    for name, array, view in views:
        if array.ctypes.data != view.ctypes.data or array.size != view.size:
            raise ValueError(f"{name} is not a view of model.params; write into it with [...] or repack the model")
    index = np.arange(model.params.size)
    if model.n_outputs != 1:
        return index
    _, rows, head, _, _ = _carve(model, model.trainable.shape, buf=index)
    parts = []
    for (_, block, name), row in zip(attention_slots(model), rows):
        slot = getattr(block, name)
        parts += slot.split(row) if isinstance(slot, DecomposedLayer) else [row]
    return np.concatenate([part.ravel() for part in parts + [head]])


def projection_param_vector(p: Projection) -> np.ndarray:
    """A copy of one attention slot's trainable values."""
    parts = p.split(p.params) if isinstance(p, DecomposedLayer) else [p]
    return np.concatenate([part.ravel() for part in parts])


def clone_model(model: Model) -> Model:
    """A copy with its own buffer, config, blocks and layers, packed once.
    It shares only the decomposed layers' read-only semantic parts."""
    import copy

    blocks = []
    for block in model.blocks:
        twin = copy.copy(block)
        for name in PROJECTION_NAMES:
            p = getattr(block, name)
            if isinstance(p, DecomposedLayer):
                setattr(twin, name, copy.copy(p))  # repointed at the new rows by the pack
        blocks.append(twin)
    return Model(config=copy.deepcopy(model.config), token_embed=model.token_embed, blocks=blocks, head=model.head)
