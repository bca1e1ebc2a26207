"""Independent straight-line re-evaluation of the classifier forward pass.

Deliberately written with per-sample and per-token loops and its own
layer-norm / attention / GELU arithmetic, as a second opinion against the
vectorized implementation.  Slow and only for tests.
"""

from __future__ import annotations

import math

import numpy as np

from subtune.decomposition import DecomposedLayer
from subtune.model import Model


def _eff_weight(p) -> np.ndarray:
    if isinstance(p, DecomposedLayer):
        w = np.zeros((p.d_out, p.d_in))
        for col in range(p.semantic_rank):
            w += p.semantic.s[col] * np.outer(p.semantic.u[:, col], p.semantic.v[:, col])
        for art in p.artifacts:
            for col in range(art.rank):
                w += art.s[col] * np.outer(art.u[:, col], art.v[:, col])
        return w
    return np.array(p, dtype=np.float64)


def per_subspace_recompose(layer: DecomposedLayer) -> np.ndarray:
    """The effective weight accumulated one artifact subspace at a time:
    semantic product, then each subspace's U_k diag(s_k) V_k^T in order."""
    w = layer.semantic.w.copy()
    for art in layer.artifacts:
        w += (art.u * art.s) @ art.v.T
    return w


def _norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    d = x.shape[1]
    for t in range(x.shape[0]):
        mu = sum(x[t]) / d
        var = sum((x[t] - mu) ** 2) / d
        out[t] = gain * (x[t] - mu) / math.sqrt(var + 1e-6) + bias
    return out


def _gelu_scalar(v: float) -> float:
    return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))


def reference_predict(model: Model, inputs: np.ndarray) -> np.ndarray:
    cfg = model.config
    outs = []
    for sample in np.asarray(inputs, dtype=np.float64):
        h = np.zeros((cfg.n_tokens, cfg.d_model))
        for t in range(cfg.n_tokens):
            h[t] = model.token_embed @ sample[t]
        for block in model.blocks:
            wq = _eff_weight(block.q)
            wk = _eff_weight(block.k)
            wv = _eff_weight(block.v)
            wo = _eff_weight(block.o)
            u = _norm_rows(h, block.norm1_gain, block.norm1_bias)
            q = np.array([wq @ u[t] for t in range(cfg.n_tokens)])
            k = np.array([wk @ u[t] for t in range(cfg.n_tokens)])
            v = np.array([wv @ u[t] for t in range(cfg.n_tokens)])
            ctx = np.zeros_like(h)
            for t in range(cfg.n_tokens):
                raw = np.array(
                    [float(np.dot(q[t], k[s])) / math.sqrt(cfg.d_model) for s in range(cfg.n_tokens)]
                )
                shifted = raw - max(raw)
                weights = np.exp(shifted)
                weights = weights / sum(weights)
                for s in range(cfg.n_tokens):
                    ctx[t] += weights[s] * v[s]
            mid = np.array([h[t] + wo @ ctx[t] for t in range(cfg.n_tokens)])
            wn = _norm_rows(mid, block.norm2_gain, block.norm2_bias)
            out = np.zeros_like(mid)
            for t in range(cfg.n_tokens):
                z1 = block.mlp_in @ wn[t]
                act = np.array([_gelu_scalar(z) for z in z1])
                out[t] = mid[t] + block.mlp_out @ act
            h = out
        pool = np.zeros(cfg.d_model)
        for t in range(cfg.n_tokens):
            pool += h[t]
        pool /= cfg.n_tokens
        logits = model.head @ pool
        if model.head.shape[0] == 1:
            p = 1.0 / (1.0 + math.exp(-float(logits[0])))
            outs.append(min(max(p, 1e-12), 1.0 - 1e-12))
        else:
            shifted = logits - max(logits)
            e = np.exp(shifted)
            outs.append(e / sum(e))
    return np.array(outs)


# The plain whole-array expressions that the model's in-place kernels
# replaced; the kernels must match them bit for bit.
_GELU_A = math.sqrt(2.0 / math.pi)
_GELU_B = 0.044715


def plain_gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_A * (x + _GELU_B * (x * x * x))))


def plain_gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_A * (x + _GELU_B * (x * x * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_A * (1.0 + 3.0 * _GELU_B * x * x)


def plain_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Each mean a product with a block of ones, then a divide."""
    d = x.shape[-1]
    ones = np.ones((d, 8))

    def mean(a: np.ndarray) -> np.ndarray:
        return (a.reshape(-1, d) @ ones)[:, :1].reshape(*a.shape[:-1], 1) / d

    xhat = x - mean(x)
    inv_std = 1.0 / np.sqrt(mean(xhat * xhat) + 1e-6)
    xhat = xhat * inv_std
    return xhat * gain + bias, xhat, inv_std


def textbook_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm with numpy's own mean and variance, as the model summed
    before its sums became products: held to the same rounding bound."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-6)
    xhat = (x - mean) * inv_std
    return xhat * gain + bias, xhat, inv_std
