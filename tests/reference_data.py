"""The artifact transform as it was first written: one (T, D) sample at a
time, each family's draws taken straight from the sample's rng.  A second
opinion against the stacked ``subtune.data.transform_tokens``; only for
tests."""

from __future__ import annotations

import math

import numpy as np

from subtune.data import (
    _BLUR_MIN_BLEND,
    _BLUR_TAP,
    _PATCH_SCALE,
    _QUANT_SCALE,
    _RIPPLE_DC,
    _RIPPLE_SCALE,
    _SIG_NOISE_WEIGHT,
    _STRUCT_SCALE,
    _TRACE_SCALE,
    FAMILIES,
    LEVELS,
    common_trace,
    family_signature,
)


def transform_sample(tokens: np.ndarray, family: str, level: int, rng) -> np.ndarray:
    """Apply one artifact family at one intensity; pure function of the rng
    stream.  Deviation from the input grows strictly with level on average."""
    if family not in FAMILIES:
        raise ValueError(f"unknown artifact family {family!r}")
    if level not in LEVELS:
        raise ValueError(f"intensity level must be in 1..5, got {level}")
    t_count, d_count = tokens.shape
    out = tokens.copy()
    if family == "localized-patch":
        wt = max(2, t_count // 2)
        wd = max(2, d_count // 4)
        t0 = int(rng.integers(0, t_count - wt + 1))
        d0 = int(rng.integers(0, d_count - wd + 1))
        sig = family_signature(family, d_count)[d0 : d0 + wd]
        bump = sig[None, :] + _SIG_NOISE_WEIGHT * rng.normal(size=(wt, wd))
        out[t0 : t0 + wt, d0 : d0 + wd] += _PATCH_SCALE * level * bump
    elif family == "high-frequency-ripple":
        # token-alternating carrier with a DC offset so pooling over tokens
        # does not cancel the trace
        alt = np.cos(math.pi * np.arange(t_count)) + _RIPPLE_DC
        sig = family_signature(family, d_count)
        amp = sig + _SIG_NOISE_WEIGHT * rng.normal(size=d_count)
        amp = amp / math.sqrt(1.0 + _SIG_NOISE_WEIGHT**2)
        out += _RIPPLE_SCALE * level * alt[:, None] * amp[None, :]
    elif family == "token-blur":
        # blend toward a fixed smoothed signal; deviation scales as the
        # squared blend fraction times a constant, so it grows strictly with
        # level for any non-constant input, and constants are left untouched
        # box filter over tokens with reflect padding (a lone token reflects
        # onto itself); the taps are summed left to right, which is what
        # np.convolve does, so the bits match it
        if t_count > 1:
            padded = np.concatenate((out[1:2], out, out[-2:-1]))
        else:
            padded = np.repeat(out, 3, axis=0)
        smoothed = padded[:-2] * _BLUR_TAP + padded[1:-1] * _BLUR_TAP + padded[2:] * _BLUR_TAP
        frac = _BLUR_MIN_BLEND + (1.0 - _BLUR_MIN_BLEND) * (level - 1) / 4.0
        out = out + frac * (smoothed - out)
    elif family == "block-quantization":
        step = _QUANT_SCALE * level
        out = np.round(out / step) * step
    else:  # structured-noise
        # rank-one field with a positive token-profile mean, so the trace
        # keeps a consistent sign along the family direction
        u = 0.5 + rng.normal(size=t_count)
        sig = family_signature(family, d_count)
        w_vec = sig + _SIG_NOISE_WEIGHT * rng.normal(size=d_count)
        w_vec = w_vec / math.sqrt(1.0 + _SIG_NOISE_WEIGHT**2)
        fiel = np.outer(u, w_vec) / math.sqrt(1.25)
        z = rng.normal(size=(t_count, d_count))
        mix = (fiel + 0.5 * z) / math.sqrt(1.25)
        out += _STRUCT_SCALE * level * mix
    if family != "token-blur":
        out += _TRACE_SCALE * level * common_trace(d_count)[None, :]
    return out
