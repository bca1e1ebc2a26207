"""Seeded synthetic corpus: smooth class-conditional "real" token signals,
five parameterized artifact families that fake them at five intensity
levels, cross-family train/heldout splits, and a robustness grid that
perturbs whole test sets.

Every draw is derived from (config seed + a fixed stream offset + index), so
generation is order-independent and reproducible sample by sample.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .files import write_csv
from .linalg import make_rng

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
# families whose transform draws nothing from its rng stream
_RNG_FREE_FAMILIES = frozenset({"token-blur", "block-quantization"})
_CLIP_OFFSET_SCALE = 0.1

# Families leave their own fixed direction plus per-sample randomness, and
# every family except token-blur (whose constant-input fixed point is part of
# its contract) also deposits a faint shared "processing trace" along one
# common direction.  A detector can only carry signal to families it never
# saw through structure the families share; this trace is that structure.
_SIG_NOISE_WEIGHT = 0.6
_TRACE_SCALE = 0.1

# stream offsets: every random draw belongs to exactly one (offset, index)
_CLASS_STREAM = 101_000
_SPLIT_STREAMS = {
    "pretrain_train": 1_000_000,
    "pretrain_test": 2_000_000,
    "finetune_train": 3_000_000,
    "test_in": 4_000_000,
    "test_heldout": 5_000_000,
}
# within a split: real samples from 0, fake samples' clean tokens from
# 300_000, real clips from 500_000, artifacts from 700_000, fake clips from
# 750_000
_FAKE_SAMPLE_SUBSTREAM = 300_000
_CLIP_SUBSTREAM = 500_000
_ARTIFACT_SUBSTREAM = 700_000
_FAKE_CLIP_SUBSTREAM = 750_000
_ROBUST_STREAM = 6_000_000
# each split size's multiple of clip_size (a detection split is half fake) and
# the largest size whose draws keep to their own streams: robustness cells are
# 10_000 seeds apart, fake artifacts 50_000 below fake clips, real samples 500_000 below theirs
_SPLIT_SIZES = {"n_pretrain": (1, 500_000), "n_pretrain_test": (1, 500_000),
                "n_finetune": (2, 100_000), "n_test": (2, 10_000)}


@dataclass
class DataConfig:
    n_tokens: int = 8
    d_model: int = 16
    n_base_classes: int = 4
    families_train: tuple[str, ...] = ("localized-patch", "high-frequency-ripple", "token-blur")
    families_heldout: tuple[str, ...] = ("block-quantization", "structured-noise")
    n_pretrain: int = 512
    n_pretrain_test: int = 128
    n_finetune: int = 4096
    n_test: int = 256
    clip_size: int = 8
    noise_level: float = 0.03
    seed: int = 0

    def validate(self) -> None:
        for fam in self.families_train + self.families_heldout:
            if fam not in FAMILIES:
                raise ValueError(f"unknown artifact family {fam!r}")
        if not self.families_train or not self.families_heldout:
            raise ValueError("train and heldout family sets must be nonempty")
        if set(self.families_train) & set(self.families_heldout):
            raise ValueError("train and heldout family sets must be disjoint")
        if self.n_tokens < 2 or self.d_model < 2:
            raise ValueError("token grid must be at least 2x2")
        if self.n_base_classes < 2:
            raise ValueError("need at least two base classes")
        if self.clip_size < 1:
            raise ValueError("clip_size must be >= 1")
        if self.noise_level < 0.0:
            raise ValueError("noise_level must be >= 0")
        for name, (clips, limit) in _SPLIT_SIZES.items():
            size = getattr(self, name)
            if size % (clips * self.clip_size) != 0 or size <= 0:
                raise ValueError(f"{name} must be a positive multiple of {'2*' if clips == 2 else ''}clip_size")
            if size > limit:
                raise ValueError(f"{name} is {size}, above its limit of {limit}: "
                                 f"larger splits would reuse random streams")


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
    rng = make_rng(seed + _CLASS_STREAM + base_class)
    t = np.arange(n_tokens)
    basis = np.zeros((n_tokens, d_model))
    for f in (1, 2, 3):
        amp = rng.normal(size=d_model)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=d_model)
        basis += amp[None, :] * np.sin(2.0 * math.pi * f * t[:, None] / n_tokens + phase[None, :])
    basis = basis / math.sqrt(float(np.mean(basis**2)))
    basis.setflags(write=False)
    return basis


def gen_clips(cfg: DataConfig, n_samples: int, split: str, families: tuple[str, ...] = ()) -> Split:
    """Real clips, classes cycling per clip, one rng stream per sample and
    one per clip so regeneration is index-exact.  With ``families`` the clips
    are fakes, drawn from their own streams: each a fresh real clip pushed
    through one (family, level), cycling families first and levels second
    for balanced coverage."""
    cfg.validate()
    if n_samples % cfg.clip_size != 0:
        raise ValueError("sample count must be a multiple of clip_size")
    offset = _SPLIT_STREAMS[split]
    if families:
        clip_stream, sample_stream, tag = _FAKE_CLIP_SUBSTREAM, _FAKE_SAMPLE_SUBSTREAM, "f"
    else:
        clip_stream, sample_stream, tag = _CLIP_SUBSTREAM, 0, "r"
    n_clips = n_samples // cfg.clip_size
    tokens = np.empty((n_samples, cfg.n_tokens, cfg.d_model))
    # one entry per clip, repeated over its members below
    clip_family, clip_level = [""] * n_clips, [0] * n_clips
    for clip_idx in range(n_clips):
        base_class = clip_idx % cfg.n_base_classes
        clip_rng = make_rng(cfg.seed + offset + clip_stream + clip_idx)
        clip_offset = _CLIP_OFFSET_SCALE * clip_rng.normal(size=(1, cfg.d_model))
        if families:
            family = families[clip_idx % len(families)]
            level = LEVELS[(clip_idx // len(families)) % len(LEVELS)]
            clip_family[clip_idx], clip_level[clip_idx] = family, level
        for member in range(cfg.clip_size):
            idx = clip_idx * cfg.clip_size + member
            sample_rng = make_rng(cfg.seed + offset + sample_stream + idx)
            noise = cfg.noise_level * sample_rng.normal(size=(cfg.n_tokens, cfg.d_model))
            sample = class_basis(cfg, base_class) + clip_offset + noise
            if families:
                artifact_rng = _artifact_rng(family, cfg.seed + offset + _ARTIFACT_SUBSTREAM + idx)
                sample = transform_tokens(sample, family, level, artifact_rng)
            tokens[idx] = sample
    clips = np.arange(n_clips)
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


def transform_tokens(tokens: np.ndarray, family: str, level: int, rng) -> np.ndarray:
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


def _artifact_rng(family: str, seed: int):
    """The artifact stream of one sample, or None for a family whose
    transform never draws from it."""
    return None if family in _RNG_FREE_FAMILIES else make_rng(seed)


def _robustness_grid(cfg: DataConfig, test_in: Split) -> dict[tuple[str, int], Split]:
    """Every (family, level) perturbation of ``test_in``'s tokens; each cell
    shares ``test_in``'s other arrays, with ``intensity`` set to its level."""
    grid = {}
    for cell_idx, family in enumerate(FAMILIES):
        for level in LEVELS:
            base = cfg.seed + _ROBUST_STREAM + (cell_idx * len(LEVELS) + level) * 10_000
            tokens = np.empty_like(test_in.tokens)
            for s_idx, sample in enumerate(test_in.tokens):
                tokens[s_idx] = transform_tokens(sample, family, level, _artifact_rng(family, base + s_idx))
            grid[(family, level)] = replace(test_in, tokens=tokens, intensity=np.full(len(test_in), level))
    return grid


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
    real, fake = gen_clips(cfg, n // 2, split), gen_clips(cfg, n // 2, split, families)
    return Split(*(np.concatenate((getattr(real, f.name), getattr(fake, f.name))) for f in fields(Split)))


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
            bundle.robustness = _robustness_grid(cfg, test_in)
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
