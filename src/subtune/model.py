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
from .decomposition import DecomposedLayer, DecompositionConfig, decompose, recompose

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
    config: ModelConfig
    token_embed: np.ndarray
    blocks: list[Block]
    head: np.ndarray

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


def decompose_attention(model: Model) -> None:
    """Replace every plain attention projection with its subspace split."""
    if model.decomposed:
        raise ValueError("attention projections are already decomposed")
    for lid, block, name in attention_slots(model):
        w = getattr(block, name)
        setattr(block, name, decompose(w, model.config.decomposition, layer_id=lid))


def reset_head(
    model: Model, n_outputs: int, rng: np.random.Generator, scale: float | None = None
) -> None:
    if scale is None:
        scale = 1.0 / math.sqrt(model.config.d_model)
    model.head = rng.normal(scale=scale, size=(n_outputs, model.config.d_model))


def effective_weight(p: Projection) -> np.ndarray:
    return recompose(p) if isinstance(p, DecomposedLayer) else p


# the cube is written as products: numpy's float power loop costs about ten
# times as much as two multiplications on these arrays
def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_A * (x + _GELU_B * (x * x * x))))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_A * (x + _GELU_B * (x * x * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_A * (1.0 + 3.0 * _GELU_B * x * x)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mean) * inv_std
    return xhat * gain + bias, xhat, inv_std


def _layer_norm_backward(
    dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dgain = np.sum(dy * xhat, axis=(0, 1))
    dbias = np.sum(dy, axis=(0, 1))
    g = dy * gain
    dx = inv_std * (
        g - g.mean(axis=-1, keepdims=True) - xhat * np.mean(g * xhat, axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


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


def forward(model: Model, inputs: np.ndarray) -> ForwardCache:
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

    scale = 1.0 / math.sqrt(cfg.d_model)
    h = x @ model.token_embed.T
    caches: list[_BlockCache] = []
    for b, block in enumerate(model.blocks):
        weights = {name: effective_weight(getattr(block, name)) for name in PROJECTION_NAMES}
        a_in = h
        u, ln1_xhat, ln1_inv = _layer_norm(a_in, block.norm1_gain, block.norm1_bias)
        q = u @ weights["q"].T
        k = u @ weights["k"].T
        v = u @ weights["v"].T
        scores = (q @ k.transpose(0, 2, 1)) * scale
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        probs = e / e.sum(axis=-1, keepdims=True)
        ctx = probs @ v
        m_in = a_in + ctx @ weights["o"].T
        wn, ln2_xhat, ln2_inv = _layer_norm(m_in, block.norm2_gain, block.norm2_bias)
        z1 = wn @ block.mlp_in.T
        act = gelu(z1)
        h = m_in + act @ block.mlp_out.T
        if not np.all(np.isfinite(h)):
            raise ValueError(f"non-finite activations in block {b}")
        caches.append(
            _BlockCache(
                a_in=a_in, ln1_xhat=ln1_xhat, ln1_inv_std=ln1_inv, u=u,
                q=q, k=k, v=v, probs=probs, ctx=ctx, m_in=m_in,
                ln2_xhat=ln2_xhat, ln2_inv_std=ln2_inv, wn=wn, z1=z1, act=act,
                weights=weights,
            )
        )

    pool = h.mean(axis=1)
    logits = pool @ model.head.T
    if model.n_outputs == 1:
        # |logit| beyond 40 saturates past the probability clamp anyway;
        # clipping first keeps exp() in range
        p = 1.0 / (1.0 + np.exp(-np.clip(logits[:, 0], -40.0, 40.0)))
        probs_out = np.clip(p, losses.PROB_FLOOR, 1.0 - losses.PROB_FLOOR)
    else:
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        probs_out = e / e.sum(axis=-1, keepdims=True)
    return ForwardCache(blocks=caches, pool=pool, logits=logits, probs=probs_out)


def predict(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Probabilities only: (N,) fake-probability for the binary head, (N, C)
    class distribution for the pretraining head."""
    return forward(model, inputs).probs


@dataclass
class BlockGrads:
    """Gradients laid out like ``Block``: a decomposed projection's gradient
    is one vector in its layer's ``params`` layout."""

    norm1_gain: np.ndarray
    norm1_bias: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    norm2_gain: np.ndarray
    norm2_bias: np.ndarray
    mlp_in: np.ndarray
    mlp_out: np.ndarray


@dataclass
class Gradients:
    token_embed: np.ndarray
    blocks: list[BlockGrads]
    head: np.ndarray


def _project_weight_grad(
    layer: DecomposedLayer,
    g_w: np.ndarray,
    w_eff: np.ndarray,
    energy: float,
    weights: losses.LossWeights,
    n_layers: int,
) -> tuple[float, np.ndarray]:
    """Map an effective-weight gradient onto the artifact factors and add the
    regularizer gradients (semantic factors receive nothing); the result is
    one vector in the layer's ``params`` layout.  ``energy`` is the squared
    Frobenius norm of ``w_eff``.  Also returns the layer's orthogonality
    value, which shares the regularizer's Grams."""
    g_total = g_w
    if weights.spectral_weight != 0.0:
        delta = energy - layer.pretrained_frob_sq
        # subgradient of the absolute value at its kink taken as 0; "at the
        # kink" means within float-noise of the pretrained energy, so a fresh
        # decomposition (delta ~ 1e-13 from rounding) gets an exact zero here
        if abs(delta) > 1e-9 * max(1.0, layer.pretrained_frob_sq):
            g_total = g_w + (weights.spectral_weight / n_layers) * math.copysign(2.0, delta) * w_eff
    orth, orth_du, orth_dv = losses.orth_loss_grads(layer, weights.orth_weight / n_layers)
    u, s, v = layer.split(layer.params)
    grad = np.empty_like(layer.params)
    du, ds, dv = layer.split(grad)
    g_v = g_total @ v
    np.multiply(g_v, s, out=du)
    du += orth_du
    np.multiply(g_total.T @ u, s, out=dv)
    dv += orth_dv
    ds[...] = np.sum(u * g_v, axis=0)
    return orth, grad


def backward(
    model: Model,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: losses.LossWeights | None = None,
) -> tuple[losses.LossReport, Gradients, ForwardCache]:
    """Loss and exact analytic gradients for every parameter slot.

    Binary head: labels in {0,1}, loss = clamped cross-entropy plus (for a
    decomposed model) the orthogonality and spectral penalties averaged over
    decomposed layers.  Pretraining head: integer class labels, softmax
    cross-entropy, no regularizers.
    """
    cfg = model.config
    weights = weights if weights is not None else losses.LossWeights()
    cache = forward(model, inputs)
    n = inputs.shape[0]

    if model.n_outputs == 1:
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

    orth_values: list[float] = []
    spec_values: list[float] = []
    scale = 1.0 / math.sqrt(cfg.d_model)
    block_grads: list[BlockGrads] = [None] * cfg.n_blocks  # type: ignore[list-item]
    n_rows = n * cfg.n_tokens

    for b in range(cfg.n_blocks - 1, -1, -1):
        block = model.blocks[b]
        c = cache.blocks[b]

        # MLP half: h_out = m_in + gelu(ln2(m_in) @ W1^T) @ W2^T
        dz2 = dh
        d_mlp_out = dz2.reshape(n_rows, -1).T @ c.act.reshape(n_rows, -1)
        dact = dz2 @ block.mlp_out
        dz1 = dact * gelu_grad(c.z1)
        d_mlp_in = dz1.reshape(n_rows, -1).T @ c.wn.reshape(n_rows, -1)
        dwn = dz1 @ block.mlp_in
        dm_ln, d_g2, d_b2 = _layer_norm_backward(dwn, c.ln2_xhat, c.ln2_inv_std, block.norm2_gain)
        dm_in = dh + dm_ln

        # attention half: m_in = a_in + (softmax(q k^T / sqrt(d)) v) @ Wo^T
        do_ctx = dm_in @ c.weights["o"]
        d_wo = dm_in.reshape(n_rows, -1).T @ c.ctx.reshape(n_rows, -1)
        dprobs = do_ctx @ c.v.transpose(0, 2, 1)
        dv_tok = c.probs.transpose(0, 2, 1) @ do_ctx
        # softmax rows backward
        dscores = c.probs * (dprobs - np.sum(dprobs * c.probs, axis=-1, keepdims=True))
        dq_tok = (dscores @ c.k) * scale
        dk_tok = (dscores.transpose(0, 2, 1) @ c.q) * scale
        u_rows = c.u.reshape(n_rows, -1)
        d_wq = dq_tok.reshape(n_rows, -1).T @ u_rows
        d_wk = dk_tok.reshape(n_rows, -1).T @ u_rows
        d_wv = dv_tok.reshape(n_rows, -1).T @ u_rows
        du = dq_tok @ c.weights["q"] + dk_tok @ c.weights["k"] + dv_tok @ c.weights["v"]
        da_ln, d_g1, d_b1 = _layer_norm_backward(du, c.ln1_xhat, c.ln1_inv_std, block.norm1_gain)
        dh = dm_in + da_ln

        proj_grads: dict[str, np.ndarray] = {}
        for name, g_w in (("q", d_wq), ("k", d_wk), ("v", d_wv), ("o", d_wo)):
            p = getattr(block, name)
            if isinstance(p, DecomposedLayer):
                w_eff = c.weights[name]
                energy = float(np.sum(w_eff * w_eff))
                orth, proj_grads[name] = _project_weight_grad(
                    p, g_w, w_eff, energy, weights, cfg.n_decomposable
                )
                orth_values.append(orth)
                spec_values.append(losses.spec_loss(p, energy))
            else:
                proj_grads[name] = g_w

        block_grads[b] = BlockGrads(
            norm1_gain=d_g1, norm1_bias=d_b1,
            q=proj_grads["q"], k=proj_grads["k"], v=proj_grads["v"], o=proj_grads["o"],
            norm2_gain=d_g2, norm2_bias=d_b2,
            mlp_in=d_mlp_in, mlp_out=d_mlp_out,
        )

    d_embed = dh.reshape(n_rows, -1).T @ np.asarray(inputs, dtype=np.float64).reshape(n_rows, -1)

    if orth_values:
        report = losses.total_loss(cls, orth_values, spec_values, weights)
    else:
        report = losses.LossReport(cls=cls, orth_mean=0.0, spec_mean=0.0, total=cls, n_layers=0)
    grads = Gradients(token_embed=d_embed, blocks=block_grads, head=d_head)
    return report, grads, cache


# --- flat parameters ------------------------------------------------------
# The optimizers and the finite-difference checker address a mode's
# trainable values as a fixed list of arrays, each the model's own storage:
# "finetune" lists every attention projection in layer-id order (a
# decomposed layer's ``params`` vector, or the plain matrix) and then the
# head; "full" lists every array of the plain pretraining model.
# ``Gradients`` mirror the model's layout, so the same list taken from them
# holds the matching gradients.

BLOCK_SLOTS = (
    "norm1_gain", "norm1_bias", "q", "k", "v", "o",
    "norm2_gain", "norm2_bias", "mlp_in", "mlp_out",
)


def _storage(p: Projection) -> np.ndarray:
    return p.params if isinstance(p, DecomposedLayer) else p


def trainable_arrays(state: Union[Model, Gradients], mode: str = "finetune") -> list[np.ndarray]:
    if mode == "finetune":
        slots = [getattr(block, name) for block in state.blocks for name in PROJECTION_NAMES]
        return [_storage(p) for p in slots] + [state.head]
    if mode == "full":
        slots = [getattr(block, name) for block in state.blocks for name in BLOCK_SLOTS]
        if any(isinstance(p, DecomposedLayer) for p in slots):
            raise ValueError("full parameter view is for the plain pretraining model")
        return [state.token_embed] + slots + [state.head]
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
    return _storage(p).flatten()


def clone_model(model: Model) -> Model:
    """Deep copy; decomposed layers share nothing with the source."""
    import copy

    return copy.deepcopy(model)
