"""Miniature pre-norm single-head attention classifier with hand-derived
gradients.

Attention projections (q, k, v, o per block) start as plain matrices; after
backbone pretraining they can be decomposed into a frozen semantic subspace
plus trainable artifact subspaces.  Everything outside those projections and
the head (token embed, layer norms, MLPs) is frozen during fine-tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class Model:
    """``trainable`` is one (n_layers, P) array holding every attention
    slot's trainable values, one row per layer in layer-id order, and each
    slot is a view of its row: a plain matrix (P = d_out * d_in) or a
    decomposed layer's ``params``, zero-padded to the model's largest tail
    rank.  ``factors`` stacks the decomposed layers' U, s and V views of
    the rows (None for a plain model)."""

    config: ModelConfig
    token_embed: np.ndarray
    blocks: list[Block]
    head: np.ndarray
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
    cfg.validate()
    d, h = cfg.d_model, cfg.mlp_hidden
    scale = 1.0 / math.sqrt(d)
    blocks = []
    for _ in range(cfg.n_blocks):
        blocks.append(
            Block(
                norm1_gain=np.ones(d),
                norm1_bias=np.zeros(d),
                q=rng.normal(scale=scale, size=(d, d)),
                k=rng.normal(scale=scale, size=(d, d)),
                v=rng.normal(scale=scale, size=(d, d)),
                o=rng.normal(scale=scale, size=(d, d)),
                norm2_gain=np.ones(d),
                norm2_bias=np.zeros(d),
                mlp_in=rng.normal(scale=scale, size=(h, d)),
                mlp_out=rng.normal(scale=1.0 / math.sqrt(h), size=(d, h)),
            )
        )
    head = rng.normal(scale=scale, size=(cfg.n_classes_pretrain, d))
    return Model(config=cfg, token_embed=rng.normal(scale=scale, size=(d, d)), blocks=blocks, head=head)


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


def stack_trainables(model: Model) -> None:
    """Copy every attention slot's trainable values into one new
    ``trainable`` array and point the slots at their rows.  Needed whenever
    slots are replaced or copied, since a copied view no longer aliases its
    buffer."""
    slots = attention_slots(model)
    projections = [getattr(block, name) for _, block, name in slots]
    if not model.decomposed:
        model.trainable = np.stack([p.ravel() for p in projections])
        for (_, block, name), p, row in zip(slots, projections, model.trainable):
            setattr(block, name, row.reshape(p.shape))
        model.factors = None
        return
    first = projections[0]
    width = max(p.tail_rank for p in projections)
    rows = np.zeros((len(projections), (first.d_out + 1 + first.d_in) * width))
    for p, row in zip(projections, rows):
        values = (p.u, p.s, p.v)
        p.params = row
        for view, value in zip((p.u, p.s, p.v), values):
            view[...] = value
    model.trainable, model.factors = rows, FactorStack.of(projections, rows)


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


def effective_weight(p: Projection) -> np.ndarray:
    return recompose(p) if isinstance(p, DecomposedLayer) else p


# The elementwise kernels work in place on fresh temporaries, in the
# operation order of the plain expressions they replace (a product or sum
# with its operands swapped rounds identically, a regrouped one need not),
# so they match those expressions bit for bit.  The cube is written as
# products: numpy's float power loop costs about ten times as much as two
# multiplications on these arrays.
def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(a * (x + b * x*x*x)) in a new array."""
    t = x * x
    t *= x
    t *= _GELU_B
    t += x
    t *= _GELU_A
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1 + t)
    t = _gelu_tanh(x)
    t += 1.0
    t *= 0.5 * x
    return t


def gelu_grad(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * a * (1 + 3 * b * x * x)
    t = _gelu_tanh(x)
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= 0.5 * x
    slope *= _GELU_A
    cubic = x * (3.0 * _GELU_B)
    cubic *= x
    cubic += 1.0
    slope *= cubic
    t += 1.0
    t *= 0.5
    t += slope
    return t


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=-1, keepdims=True)
    xhat = x - mean
    out = xhat * xhat
    # centred once; this is exactly how ``x.var`` computes it
    var = out.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv_std


def _layer_norm_input_grad(
    dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    g = dy * gain
    return inv_std * (
        g - g.mean(axis=-1, keepdims=True) - xhat * np.mean(g * xhat, axis=-1, keepdims=True)
    )


@dataclass
class _BlockCache:
    a_in: np.ndarray
    ln1_xhat: np.ndarray
    ln1_inv_std: np.ndarray
    u: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray
    ctx: np.ndarray
    m_in: np.ndarray
    ln2_xhat: np.ndarray
    ln2_inv_std: np.ndarray
    wn: np.ndarray
    z1: np.ndarray
    act: np.ndarray
    weights: dict[str, np.ndarray]


@dataclass
class ForwardCache:
    blocks: list[_BlockCache]
    pool: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


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


def _block_forward(block: Block, a_in: np.ndarray, index: int) -> tuple[np.ndarray, _BlockCache]:
    """One block: h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T with
    m_in = a_in + softmax(q k^T / sqrt(d)) v @ Wo^T, plus what the backward
    pass reads."""
    weights = {name: effective_weight(getattr(block, name)) for name in PROJECTION_NAMES}
    u, ln1_xhat, ln1_inv = _layer_norm(a_in, block.norm1_gain, block.norm1_bias)
    q = u @ weights["q"].T
    k = u @ weights["k"].T
    v = u @ weights["v"].T
    probs = q @ k.transpose(0, 2, 1)
    probs *= 1.0 / math.sqrt(a_in.shape[-1])
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = probs @ v
    m_in = ctx @ weights["o"].T
    m_in += a_in
    wn, ln2_xhat, ln2_inv = _layer_norm(m_in, block.norm2_gain, block.norm2_bias)
    z1 = wn @ block.mlp_in.T
    act = gelu(z1)
    h = act @ block.mlp_out.T
    h += m_in
    if not np.all(np.isfinite(h)):
        raise ValueError(f"non-finite activations in block {index}")
    return h, _BlockCache(
        a_in=a_in, ln1_xhat=ln1_xhat, ln1_inv_std=ln1_inv, u=u,
        q=q, k=k, v=v, probs=probs, ctx=ctx, m_in=m_in,
        ln2_xhat=ln2_xhat, ln2_inv_std=ln2_inv, wn=wn, z1=z1, act=act,
        weights=weights,
    )


def _head(model: Model, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pool, logits, probabilities) of the last block's output."""
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
    return pool, logits, probs


def forward(model: Model, inputs: np.ndarray) -> ForwardCache:
    """The forward pass with every block's activations kept for ``backward``."""
    h = _embed(model, inputs)
    caches: list[_BlockCache] = []
    for b, block in enumerate(model.blocks):
        h, cache = _block_forward(block, h, b)
        caches.append(cache)
    pool, logits, probs = _head(model, h)
    return ForwardCache(blocks=caches, pool=pool, logits=logits, probs=probs)


def predict(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Probabilities only: (N,) fake-probability for the binary head, (N, C)
    class distribution for the pretraining head.  Bit for bit
    ``forward(model, inputs).probs``, but each block's activations are
    dropped as soon as the block returns."""
    h = _embed(model, inputs)
    for b, block in enumerate(model.blocks):
        h = _block_forward(block, h, b)[0]
    return _head(model, h)[2]


@dataclass
class BlockGrads:
    """Gradients laid out like ``Block``: a decomposed projection's gradient
    is one vector in its layer's (padded) ``params`` layout.  The slots a
    binary-head fine-tune keeps frozen are None for that head."""

    norm1_gain: np.ndarray | None
    norm1_bias: np.ndarray | None
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    norm2_gain: np.ndarray | None
    norm2_bias: np.ndarray | None
    mlp_in: np.ndarray | None
    mlp_out: np.ndarray | None


@dataclass
class Gradients:
    """``trainable`` holds the attention slots' gradients in rows laid out
    like the model's; each ``BlockGrads`` projection slot is a view of its
    row.  ``slots`` are the model's attention slots, by layer id, which
    say where a row's real (unpadded) values sit."""

    token_embed: np.ndarray | None
    blocks: list[BlockGrads]
    head: np.ndarray
    trainable: np.ndarray
    slots: list[Projection]


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
) -> tuple[losses.LossReport, Gradients, ForwardCache]:
    """Loss and exact analytic gradients.

    Binary head: labels in {0,1}, loss = clamped cross-entropy plus (for a
    decomposed model) the orthogonality and spectral penalties averaged over
    decomposed layers.  Only the attention projections and the head are
    fine-tuned, so only their gradients are formed; the other slots are None.
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

    d_head = dlogits.T @ cache.pool
    d_pool = dlogits @ model.head
    dh = np.repeat(d_pool[:, None, :], cfg.n_tokens, axis=1) / cfg.n_tokens

    scale = 1.0 / math.sqrt(cfg.d_model)
    frozen_grads: list[dict] = [None] * cfg.n_blocks  # type: ignore[list-item]
    n_rows = n * cfg.n_tokens
    n_slots = cfg.n_decomposable
    decomposed = model.decomposed
    grad = np.empty_like(model.trainable)
    # each attention slot's weight gradient and (when decomposed) effective
    # weight, by layer id; a plain model's weight gradients are its rows
    if decomposed:
        g_w = np.empty((n_slots, cfg.d_model, cfg.d_model))
        w_eff = np.empty_like(g_w)
    else:
        g_w = grad.reshape(n_slots, cfg.d_model, cfg.d_model)

    for b in range(cfg.n_blocks - 1, -1, -1):
        block = model.blocks[b]
        c = cache.blocks[b]

        # MLP half: h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T
        dact = dh @ block.mlp_out
        dz1 = gelu_grad(c.z1)
        dz1 *= dact
        dwn = dz1 @ block.mlp_in
        dm_in = dh + _layer_norm_input_grad(dwn, c.ln2_xhat, c.ln2_inv_std, block.norm2_gain)

        # attention half: m_in = a_in + (softmax(q k^T / sqrt(d)) v) @ Wo^T
        q_row, k_row, v_row, o_row = range(4 * b, 4 * b + 4)
        do_ctx = dm_in @ c.weights["o"]
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
        du = dq_tok @ c.weights["q"] + dk_tok @ c.weights["k"] + dv_tok @ c.weights["v"]
        # formed before dh moves on to this block's input gradient
        if full:
            frozen_grads[b] = {
                "norm1_gain": np.sum(du * c.ln1_xhat, axis=(0, 1)),
                "norm1_bias": np.sum(du, axis=(0, 1)),
                "norm2_gain": np.sum(dwn * c.ln2_xhat, axis=(0, 1)),
                "norm2_bias": np.sum(dwn, axis=(0, 1)),
                "mlp_in": dz1.reshape(n_rows, -1).T @ c.wn.reshape(n_rows, -1),
                "mlp_out": dh.reshape(n_rows, -1).T @ c.act.reshape(n_rows, -1),
            }
        else:
            frozen_grads[b] = dict.fromkeys(FROZEN_SLOTS)
        dh = dm_in + _layer_norm_input_grad(du, c.ln1_xhat, c.ln1_inv_std, block.norm1_gain)
        if decomposed:
            for row, name in enumerate(PROJECTION_NAMES, start=4 * b):
                w_eff[row] = c.weights[name]

    d_embed = None
    if full:
        d_embed = dh.reshape(n_rows, -1).T @ np.asarray(inputs, dtype=np.float64).reshape(n_rows, -1)

    if decomposed:
        orth, spec = _project_factors(model.factors, g_w, w_eff, grad, weights)
        # the means sum in the order the per-block loop has always produced
        # the values (last block first); summation order is part of the bits
        order = [4 * b + j for b in range(cfg.n_blocks - 1, -1, -1) for j in range(4)]
        report = losses.total_loss(cls, orth[order].tolist(), spec[order].tolist(), weights)
        views = list(grad)
    else:
        report = losses.LossReport(cls=cls, orth_mean=0.0, spec_mean=0.0, total=cls, n_layers=0)
        views = list(g_w)
    block_grads = [
        BlockGrads(**{name: views[4 * b + j] for j, name in enumerate(PROJECTION_NAMES)}, **frozen)
        for b, frozen in enumerate(frozen_grads)
    ]
    slots = [getattr(block, name) for _, block, name in attention_slots(model)]
    grads = Gradients(token_embed=d_embed, blocks=block_grads, head=d_head, trainable=grad, slots=slots)
    return report, grads, cache


# --- flat parameters ------------------------------------------------------
# The optimizers and the finite-difference checker address a mode's
# trainable values as a fixed list of arrays, each a view of the model's own
# storage: "finetune" lists every attention projection in layer-id order (a
# decomposed layer's real U, s and V columns, never its padding, or the
# plain matrix) and then the head; "full" lists every array of the plain
# pretraining model.  The same list taken from ``Gradients`` holds the
# matching gradients.

BLOCK_SLOTS = (
    "norm1_gain", "norm1_bias", "q", "k", "v", "o",
    "norm2_gain", "norm2_bias", "mlp_in", "mlp_out",
)
# frozen while fine-tuning, and stored as plain arrays in a decomposed checkpoint
FROZEN_SLOTS = tuple(slot for slot in BLOCK_SLOTS if slot not in PROJECTION_NAMES)


def _real_arrays(slot: Projection, values: Projection) -> list[np.ndarray]:
    """``values``, a slot's storage or gradient, without padding: the real
    U, s and V columns of a decomposed layer's vector, or the matrix."""
    if isinstance(values, DecomposedLayer):
        values = values.params
    return list(slot.split(values)) if isinstance(slot, DecomposedLayer) else [values]


def trainable_arrays(state: Union[Model, Gradients], mode: str = "finetune") -> list[np.ndarray]:
    if mode == "finetune":
        values = [getattr(block, name) for block in state.blocks for name in PROJECTION_NAMES]
        slots = state.slots if isinstance(state, Gradients) else values
        return [a for slot, v in zip(slots, values) for a in _real_arrays(slot, v)] + [state.head]
    if mode == "full":
        slots = [getattr(block, name) for block in state.blocks for name in BLOCK_SLOTS]
        if any(isinstance(p, DecomposedLayer) for p in slots):
            raise ValueError("full parameter view is for the plain pretraining model")
        arrays = [state.token_embed] + slots + [state.head]
        if any(a is None for a in arrays):
            raise ValueError(
                "full parameter view needs every gradient; a binary-head backward "
                "forms only the fine-tuned ones"
            )
        return arrays
    raise ValueError(f"unknown mode {mode!r}")


def flat_vector(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def set_flat(arrays: list[np.ndarray], vec: np.ndarray) -> None:
    """Write ``vec`` into ``arrays`` in place, in list order."""
    size = sum(a.size for a in arrays)
    if vec.shape != (size,):
        raise ValueError(f"vector of shape {vec.shape} does not match trainable size {size}")
    pos = 0
    for a in arrays:
        a[...] = vec[pos : pos + a.size].reshape(a.shape)
        pos += a.size


def projection_param_vector(p: Projection) -> np.ndarray:
    """A copy of one attention slot's trainable values."""
    return flat_vector(_real_arrays(p, p))


def clone_model(model: Model) -> Model:
    """Deep copy that shares nothing with the source, with its own buffer."""
    import copy

    twin = copy.deepcopy(model)
    stack_trainables(twin)
    return twin
