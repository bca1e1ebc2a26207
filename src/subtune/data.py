"""Seeded synthetic corpus: smooth class-conditional "real" token signals,
five parameterized artifact families that fake them at five intensity
levels, cross-family train/heldout splits, and a robustness grid that
perturbs whole test sets.

Every draw comes from its own keyed stream of the config seed,
``make_rng(seed, split, half, draw)``: one per split, real or fake half and
kind of draw (clip offsets, noise, each (family, level) group's artifacts),
one per robustness cell and one per class basis.  Each stream draws its
whole ``(N, ...)`` array at once, so a split's bits do not depend on which
others are generated, and distinct seeds share no stream.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .files import write_csv
from .linalg import make_rng
from .settings import check, setting

FAMILIES = (
    "localized-patch",
    "high-frequency-ripple",
    "token-blur",
    "block-quantization",
    "structured-noise",
)

LEVELS = (1, 2, 3, 4, 5)

# per-family base magnitudes; level scales them linearly (blur blends
# toward its fully smoothed target instead)
_PATCH_SCALE = 0.22
_RIPPLE_SCALE = 0.09
_RIPPLE_DC = 0.4
_BLUR_TAP = 1.0 / 3.0  # weight of each tap of the 3-token box filter
_BLUR_MIN_BLEND = 0.4
_QUANT_SCALE = 0.12
_STRUCT_SCALE = 0.07
_CLIP_OFFSET_SCALE = 0.1

# Families leave their own fixed direction plus per-sample randomness, and
# every family except token-blur (whose constant-input fixed point is part of
# its contract) also deposits a faint shared "processing trace" along one
# common direction.  A detector can only carry signal to families it never
# saw through structure the families share; this trace is that structure.
_SIG_NOISE_WEIGHT = 0.6
_TRACE_SCALE = 0.1

# stream keys: make_rng(seed, split, half, draw[, group]) for a split's
# draws, make_rng(seed, _ROBUST_STREAM, cell) for a robustness cell and
# make_rng(seed, _CLASS_STREAM, class) for a class basis; the harness keys
# its streams from 100 up
_CLASS_STREAM = 0
_SPLIT_STREAMS = {"pretrain_train": 1, "pretrain_test": 2, "finetune_train": 3, "test_in": 4, "test_heldout": 5}
_ROBUST_STREAM = 6
_CLIP_DRAW, _NOISE_DRAW, _ARTIFACT_DRAW = 0, 1, 2
# each split size's multiple of clip_size: a detection split is half fake
_SPLIT_SIZES = {"n_pretrain": 1, "n_pretrain_test": 1, "n_finetune": 2, "n_test": 2}


@dataclass
class DataConfig:
    n_tokens: int = setting(8, ge=2)
    d_model: int = setting(16, ge=2)
    n_base_classes: int = setting(4, ge=2)
    families_train: tuple[str, ...] = setting(
        ("localized-patch", "high-frequency-ripple", "token-blur"), one_of=FAMILIES)
    families_heldout: tuple[str, ...] = setting(("block-quantization", "structured-noise"), one_of=FAMILIES)
    n_pretrain: int = 512
    n_pretrain_test: int = 128
    n_finetune: int = 4096
    n_test: int = 256
    clip_size: int = setting(8, ge=1)
    noise_level: float = setting(0.03, ge=0.0)
    seed: int = 0

    def validate(self) -> None:
        check(self, "data")  # token grid and class count repeat model's bounds, checked first in a run
        for key in ("families_train", "families_heldout"):
            families = getattr(self, key)
            if not families or len(set(families)) < len(families):
                raise ValueError(f"config key data.{key} must list at least one family, each once, got {families!r}")
        shared = next((fam for fam in self.families_heldout if fam in self.families_train), None)
        if shared is not None:
            raise ValueError(f"config keys data.families_train and data.families_heldout must be disjoint, "
                             f"both list {shared!r}")
        for name, clips in _SPLIT_SIZES.items():
            size = getattr(self, name)
            if size % (clips * self.clip_size) != 0 or size <= 0:
                raise ValueError(f"config key data.{name} must be a positive multiple of "
                                 f"{'2 * ' if clips == 2 else ''}data.clip_size {self.clip_size}, got {size}")


@dataclass
class Split:
    """One data split as parallel arrays, one entry per sample: ``tokens``
    (N, T, D), ``labels`` (float64, 0 real and 1 fake), ``base_class``,
    ``family`` ("" on a real sample), ``intensity`` (0 on a real sample)
    and ``clip_id``.  The arrays are read-only once built, since the
    robustness grid's cells share all but their tokens and intensities."""

    tokens: np.ndarray
    labels: np.ndarray
    base_class: np.ndarray
    family: np.ndarray
    intensity: np.ndarray
    clip_id: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)


def _empty_split() -> Split:
    no_ints = np.empty(0, dtype=np.int64)
    return Split(np.empty((0, 0, 0)), np.empty(0), no_ints, np.empty(0, dtype=str), no_ints, np.empty(0, dtype=str))


def class_basis(cfg: DataConfig, base_class: int) -> np.ndarray:
    """Fixed smooth signature of one base class: a few low token-frequency
    harmonics with class-specific amplitudes and phases, unit RMS.  Cached
    and read-only, since every sample of the class shares it."""
    return _class_basis(cfg.seed, cfg.n_tokens, cfg.d_model, base_class)


@lru_cache(maxsize=256)
def _class_basis(seed: int, n_tokens: int, d_model: int, base_class: int) -> np.ndarray:
    rng = make_rng(seed, _CLASS_STREAM, base_class)
    t = np.arange(n_tokens)
    basis = np.zeros((n_tokens, d_model))
    for f in (1, 2, 3):
        amp = rng.normal(size=d_model)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=d_model)
        basis += amp[None, :] * np.sin(2.0 * math.pi * f * t[:, None] / n_tokens + phase[None, :])
    basis = basis / math.sqrt(float(np.mean(basis**2)))
    basis.setflags(write=False)
    return basis


def gen_clips(cfg: DataConfig, n_samples: int, split: str) -> Split:
    """Real clips, classes cycling per clip, drawn from the split's real
    streams."""
    cfg.validate()
    if n_samples % cfg.clip_size != 0:
        raise ValueError("sample count must be a multiple of clip_size")
    return _fill_clips(cfg, np.empty((n_samples, cfg.n_tokens, cfg.d_model)), split)


def _fill_clips(cfg: DataConfig, tokens: np.ndarray, split: str, families: tuple[str, ...] = ()) -> Split:
    """Clips written into ``tokens`` (N, T, D), classes cycling per clip:
    real ones from the split's real streams, or with ``families`` fakes
    from its fake streams, each a fresh real clip pushed through one
    (family, level), cycling families first and levels second for balanced
    coverage.  The noise is drawn straight into ``tokens`` and each clip's
    clean signal added to its members, then the fakes are transformed one
    (family, level) group of clips at a time, each group from its own
    stream."""
    n_samples, t_count, d_count = tokens.shape
    tag, half = ("f", 1) if families else ("r", 0)
    key = (_SPLIT_STREAMS[split], half)
    n_clips = n_samples // cfg.clip_size
    clips = np.arange(n_clips)
    # class basis + clip offset, the clean signal every member shares
    clean = np.stack([class_basis(cfg, c) for c in range(cfg.n_base_classes)])[clips % cfg.n_base_classes]
    clean += _CLIP_OFFSET_SCALE * make_rng(cfg.seed, *key, _CLIP_DRAW).standard_normal((n_clips, 1, d_count))
    make_rng(cfg.seed, *key, _NOISE_DRAW).standard_normal(out=tokens)
    tokens *= cfg.noise_level
    by_clip = tokens.reshape(n_clips, cfg.clip_size, t_count, d_count)
    by_clip += clean[:, None]
    # one entry per clip, repeated over its members below
    clip_family, clip_level = [""] * n_clips, [0] * n_clips
    if families:
        n_fam = len(families)
        clip_family = [families[c % n_fam] for c in range(n_clips)]
        clip_level = [LEVELS[c // n_fam % len(LEVELS)] for c in range(n_clips)]
        # clip c is in (family, level) group c % n_groups: family g % n_fam
        # at level index g // n_fam
        n_groups = n_fam * len(LEVELS)
        for g in range(min(n_clips, n_groups)):
            rng = make_rng(cfg.seed, *key, _ARTIFACT_DRAW, g)
            rows = by_clip[g::n_groups].reshape(-1, t_count, d_count)
            out = transform_tokens(rows, families[g % n_fam], LEVELS[g // n_fam], rng)
            by_clip[g::n_groups] = out.reshape(-1, cfg.clip_size, t_count, d_count)
    return Split(
        tokens=tokens,
        labels=np.full(n_samples, 1.0 if families else 0.0),
        base_class=np.repeat(clips % cfg.n_base_classes, cfg.clip_size),
        family=np.repeat(np.array(clip_family), cfg.clip_size),
        intensity=np.repeat(np.array(clip_level), cfg.clip_size),
        clip_id=np.repeat(np.array([f"{split}-{tag}{c:05d}" for c in clips]), cfg.clip_size),
    )


def _rms(x: np.ndarray) -> float:
    return math.sqrt(float(np.mean(x**2)))


def _signature_seed(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:7], "little")


@lru_cache(maxsize=32)
def family_signature(family: str, d_model: int) -> np.ndarray:
    """Unit-RMS model-dimension direction characteristic of one family; an
    intrinsic property of the artifact process, identical for every dataset
    seed."""
    sig = make_rng(_signature_seed(family)).normal(size=d_model)
    sig = sig / _rms(sig)
    sig.setflags(write=False)
    return sig


@lru_cache(maxsize=8)
def common_trace(d_model: int) -> np.ndarray:
    """The direction of the shared processing trace all non-blur families
    leave behind; unit RMS, seed-independent."""
    trace = make_rng(_signature_seed("common-trace")).normal(size=d_model)
    trace = trace / _rms(trace)
    trace.setflags(write=False)
    return trace


def transform_tokens(tokens: np.ndarray, family: str, level: int, rng: np.random.Generator | None) -> np.ndarray:
    """Apply one artifact family at one intensity to every sample of an
    (N, T, D) stack.  Each kind of draw is taken from ``rng`` for the whole
    stack at once, in the order a one-sample transform takes it; token-blur
    and block-quantization draw nothing and may take None.  The arithmetic
    runs elementwise in the order of a one-sample transform, so each
    sample's bits depend only on its own tokens and its slice of the draws.
    Deviation from the input grows strictly with level on average."""
    if family not in FAMILIES:
        raise ValueError(f"unknown artifact family {family!r}")
    if level not in LEVELS:
        raise ValueError(f"intensity level must be in 1..5, got {level}")
    if tokens.ndim != 3:
        raise ValueError(f"tokens must be an (N, T, D) stack, got shape {tokens.shape}")
    if family == "token-blur":
        return _blur(tokens, level)
    if family == "block-quantization":
        step = _QUANT_SCALE * level
        out = tokens / step
        np.round(out, out=out)
        out *= step
    else:
        transform = {"localized-patch": _patch, "high-frequency-ripple": _ripple, "structured-noise": _structured_noise}
        out = transform[family](tokens, level, rng)
    out += _TRACE_SCALE * level * common_trace(tokens.shape[2])[None, :]
    return out


def _patch(tokens: np.ndarray, level: int, rng: np.random.Generator) -> np.ndarray:
    """A signature-tinted bump on one random (token, dimension) window of
    each sample."""
    n, t_count, d_count = tokens.shape
    wt = max(2, t_count // 2)
    wd = max(2, d_count // 4)
    t0 = rng.integers(0, t_count - wt + 1, size=n)
    d0 = rng.integers(0, d_count - wd + 1, size=n)
    bump = rng.standard_normal((n, wt, wd))
    cols = d0[:, None] + np.arange(wd)
    bump *= _SIG_NOISE_WEIGHT
    bump += family_signature("localized-patch", d_count)[cols][:, None, :]
    bump *= _PATCH_SCALE * level
    out = tokens.copy()
    # each sample's window is its own, so no element is added to twice
    out[np.arange(n)[:, None, None], (t0[:, None] + np.arange(wt))[:, :, None], cols[:, None, :]] += bump
    return out


def _ripple(tokens: np.ndarray, level: int, rng: np.random.Generator) -> np.ndarray:
    """A token-alternating carrier with a DC offset, so pooling over tokens
    does not cancel the trace, along a per-sample direction."""
    n, t_count, d_count = tokens.shape
    amp = rng.standard_normal((n, d_count))
    amp *= _SIG_NOISE_WEIGHT
    amp += family_signature("high-frequency-ripple", d_count)
    amp /= math.sqrt(1.0 + _SIG_NOISE_WEIGHT**2)
    alt = np.cos(math.pi * np.arange(t_count)) + _RIPPLE_DC
    out = (_RIPPLE_SCALE * level * alt)[None, :, None] * amp[:, None, :]
    out += tokens
    return out


def _structured_noise(tokens: np.ndarray, level: int, rng: np.random.Generator) -> np.ndarray:
    """A rank-one field with a positive token-profile mean, so the trace
    keeps a consistent sign along the family direction, plus white noise.
    The noise is drawn straight into the result, which then takes the
    field one token row at a time."""
    n, t_count, d_count = tokens.shape
    u = rng.standard_normal((n, t_count))
    u += 0.5
    w_vec = rng.standard_normal((n, d_count))
    w_vec *= _SIG_NOISE_WEIGHT
    w_vec += family_signature("structured-noise", d_count)
    w_vec /= math.sqrt(1.0 + _SIG_NOISE_WEIGHT**2)
    out = rng.standard_normal(tokens.shape)
    # (u w^T / sqrt(1.25) + 0.5 z) / sqrt(1.25), with z already in out
    out *= 0.5
    row = np.empty((n, d_count))
    for t in range(t_count):
        np.multiply(u[:, t, None], w_vec, out=row)
        row /= math.sqrt(1.25)
        out[:, t] += row
    out /= math.sqrt(1.25)
    out *= _STRUCT_SCALE * level
    out += tokens
    return out


def _blur(tokens: np.ndarray, level: int) -> np.ndarray:
    """Blend toward a fixed smoothed signal; deviation scales as the squared
    blend fraction times a constant, so it grows strictly with level for any
    non-constant input, and constants are left untouched.  The smoothing is
    a box filter over tokens with reflect padding (a lone token reflects
    onto itself); the taps are summed left to right, which is what
    np.convolve does, so the bits match it."""
    t_count = tokens.shape[1]
    # the token each padded position reads, reflect padding included
    padded = np.r_[1, 0:t_count, t_count - 2] if t_count > 1 else np.zeros(3, dtype=np.intp)
    out = np.take(tokens, padded[:-2], axis=1)
    out *= _BLUR_TAP
    tap = tokens * _BLUR_TAP
    out += tap
    # every index is in range; "clip" only spares the copy that "raise" buffers through
    np.take(tokens, padded[2:], axis=1, out=tap, mode="clip")
    tap *= _BLUR_TAP
    out += tap
    out -= tokens
    out *= _BLUR_MIN_BLEND + (1.0 - _BLUR_MIN_BLEND) * (level - 1) / 4.0
    out += tokens
    return out


def robustness_cells(cfg: DataConfig, test_in: Split) -> Iterator[tuple[tuple[str, int], Split]]:
    """Each (family, level) perturbation of ``test_in``'s tokens, made only
    when asked for, keyed by (family, level); each cell is drawn from its
    own stream and shares ``test_in``'s other arrays, with ``intensity`` set
    to its level."""
    for cell, (family, level) in enumerate(itertools.product(FAMILIES, LEVELS)):
        rng = make_rng(cfg.seed, _ROBUST_STREAM, cell)
        # no local keeps the cell's tokens, so the caller's is the only reference
        yield (family, level), replace(test_in, tokens=transform_tokens(test_in.tokens, family, level, rng),
                                       intensity=np.full(len(test_in), level))


SPLITS = ("pretrain_train", "pretrain_test", "finetune_train", "test_in", "test_heldout", "robustness")


@dataclass
class SplitBundle:
    """Generated splits; a split the caller did not ask for stays empty."""

    pretrain_train: Split = field(default_factory=_empty_split)
    pretrain_test: Split = field(default_factory=_empty_split)
    finetune_train: Split = field(default_factory=_empty_split)
    test_in: Split = field(default_factory=_empty_split)
    test_heldout: Split = field(default_factory=_empty_split)
    robustness: dict[tuple[str, int], Split] = field(default_factory=dict)


def _detection_split(cfg: DataConfig, n: int, split: str, families: tuple[str, ...]) -> Split:
    """Real clips then fakes, both written straight into one tokens array."""
    tokens = np.empty((n, cfg.n_tokens, cfg.d_model))
    halves = (_fill_clips(cfg, tokens[: n // 2], split), _fill_clips(cfg, tokens[n // 2 :], split, families))
    return Split(tokens, *(np.concatenate([getattr(half, f.name) for half in halves]) for f in fields(Split)[1:]))


def build_splits(cfg: DataConfig, splits: tuple[str, ...]) -> SplitBundle:
    """Generate the named splits (names from ``SPLITS``; "robustness" is the
    perturbation grid over ``test_in``).  Each split's samples are the same
    whichever others are asked for."""
    cfg.validate()
    wanted = set(splits)
    unknown = sorted(wanted.difference(SPLITS))
    if unknown:
        raise ValueError(f"unknown split {unknown[0]!r}; expected one of {', '.join(SPLITS)}")
    bundle = SplitBundle()
    if "pretrain_train" in wanted:
        bundle.pretrain_train = gen_clips(cfg, cfg.n_pretrain, "pretrain_train")
    if "pretrain_test" in wanted:
        bundle.pretrain_test = gen_clips(cfg, cfg.n_pretrain_test, "pretrain_test")
    if "finetune_train" in wanted:
        bundle.finetune_train = _detection_split(cfg, cfg.n_finetune, "finetune_train", cfg.families_train)
    if wanted & {"test_in", "robustness"}:
        test_in = _detection_split(cfg, cfg.n_test, "test_in", cfg.families_train)
        if "test_in" in wanted:
            bundle.test_in = test_in
        if "robustness" in wanted:
            bundle.robustness = dict(robustness_cells(cfg, test_in))
    if "test_heldout" in wanted:
        bundle.test_heldout = _detection_split(cfg, cfg.n_test, "test_heldout", cfg.families_heldout)
    return bundle


def export_csv(split: Split, path: str | Path) -> None:
    """Header (clip_id, label, family, intensity, token columns), with a
    real sample's 0 intensity left blank; floats at 17 significant digits
    so re-import is bit-exact."""
    if not len(split):
        raise ValueError("nothing to export")
    _, t_count, d_count = split.tokens.shape
    write_csv(
        path,
        ["clip_id", "label", "family", "intensity"] + [f"tok_{i:04d}" for i in range(t_count * d_count)],
        (
            [clip_id, int(label), family, int(level) if level else ""] + [f"{v:.17g}" for v in tokens.ravel()]
            for clip_id, label, family, level, tokens in zip(
                split.clip_id, split.labels, split.family, split.intensity, split.tokens
            )
        ),
    )
