"""Seeded synthetic corpus: smooth class-conditional "real" token signals,
five parameterized artifact families that fake them at five intensity
levels, cross-family train/heldout splits, and a distortion grid that
perturbs whole test sets.

Every draw is derived from (config seed + a fixed stream offset + index), so
generation is order-independent and reproducible sample by sample.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
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
        for name in ("n_pretrain", "n_pretrain_test"):
            if getattr(self, name) % self.clip_size != 0 or getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive multiple of clip_size")
        for name in ("n_finetune", "n_test"):
            if getattr(self, name) % (2 * self.clip_size) != 0 or getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive multiple of 2*clip_size")


@dataclass
class SyntheticSample:
    tokens: np.ndarray
    label: int
    base_class: int
    family: str | None
    intensity: int | None
    clip_id: str


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


def _real_tokens(cfg: DataConfig, base_class: int, clip_offset: np.ndarray, sample_rng) -> np.ndarray:
    noise = cfg.noise_level * sample_rng.normal(size=(cfg.n_tokens, cfg.d_model))
    return class_basis(cfg, base_class) + clip_offset + noise


def gen_clips(
    cfg: DataConfig, n_samples: int, split: str, families: tuple[str, ...] = ()
) -> list[SyntheticSample]:
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
    out = []
    for clip_idx in range(n_samples // cfg.clip_size):
        base_class = clip_idx % cfg.n_base_classes
        clip_rng = make_rng(cfg.seed + offset + clip_stream + clip_idx)
        clip_offset = _CLIP_OFFSET_SCALE * clip_rng.normal(size=(1, cfg.d_model))
        clip_id = f"{split}-{tag}{clip_idx:05d}"
        if families:
            family = families[clip_idx % len(families)]
            level = LEVELS[(clip_idx // len(families)) % len(LEVELS)]
        for member in range(cfg.clip_size):
            idx = clip_idx * cfg.clip_size + member
            sample_rng = make_rng(cfg.seed + offset + sample_stream + idx)
            sample = SyntheticSample(
                tokens=_real_tokens(cfg, base_class, clip_offset, sample_rng),
                label=0,
                base_class=base_class,
                family=None,
                intensity=None,
                clip_id=clip_id,
            )
            if families:
                artifact_rng = _artifact_rng(family, cfg.seed + offset + _ARTIFACT_SUBSTREAM + idx)
                sample = apply_artifact(sample, family, level, artifact_rng)
            out.append(sample)
    return out


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


def apply_artifact(sample: SyntheticSample, family: str, level: int, rng) -> SyntheticSample:
    """Fake a real sample: transform its tokens and flip the label."""
    return SyntheticSample(
        tokens=transform_tokens(sample.tokens, family, level, rng),
        label=1,
        base_class=sample.base_class,
        family=family,
        intensity=level,
        clip_id=sample.clip_id,
    )


def distort(sample: SyntheticSample, family: str, level: int, rng) -> SyntheticSample:
    """Robustness-protocol perturbation: same transforms, label preserved."""
    return SyntheticSample(
        tokens=transform_tokens(sample.tokens, family, level, rng),
        label=sample.label,
        base_class=sample.base_class,
        family=sample.family,
        intensity=level,
        clip_id=sample.clip_id,
    )


def _artifact_rng(family: str, seed: int):
    """The artifact stream of one sample, or None for a family whose
    transform never draws from it."""
    return None if family in _RNG_FREE_FAMILIES else make_rng(seed)


def _robustness_grid(
    cfg: DataConfig, test_in: list[SyntheticSample]
) -> dict[tuple[str, int], list[SyntheticSample]]:
    """Every (family, level) distortion of ``test_in``, labels kept."""
    grid = {}
    for cell_idx, family in enumerate(FAMILIES):
        for level in LEVELS:
            base = cfg.seed + _ROBUST_STREAM + (cell_idx * len(LEVELS) + level) * 10_000
            grid[(family, level)] = [
                distort(sample, family, level, _artifact_rng(family, base + s_idx))
                for s_idx, sample in enumerate(test_in)
            ]
    return grid


SPLITS = ("pretrain_train", "pretrain_test", "finetune_train", "test_in", "test_heldout", "robustness")


@dataclass
class SplitBundle:
    """Generated splits; a split the caller did not ask for stays empty."""

    pretrain_train: list[SyntheticSample] = field(default_factory=list)
    pretrain_test: list[SyntheticSample] = field(default_factory=list)
    finetune_train: list[SyntheticSample] = field(default_factory=list)
    test_in: list[SyntheticSample] = field(default_factory=list)
    test_heldout: list[SyntheticSample] = field(default_factory=list)
    robustness: dict[tuple[str, int], list[SyntheticSample]] = field(default_factory=dict)


def _detection_split(cfg: DataConfig, n: int, split: str, families: tuple[str, ...]) -> list[SyntheticSample]:
    half = n // 2
    return gen_clips(cfg, half, split) + gen_clips(cfg, half, split, families)


def build_splits(cfg: DataConfig, splits: tuple[str, ...]) -> SplitBundle:
    """Generate the named splits (names from ``SPLITS``; "robustness" is the
    distortion grid over ``test_in``).  Each split's samples are the same
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


def stack_tokens(samples: list[SyntheticSample]) -> np.ndarray:
    return np.stack([s.tokens for s in samples])


def labels_of(samples: list[SyntheticSample]) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.float64)


def export_csv(samples: list[SyntheticSample], path: str | Path) -> None:
    """Header (clip_id, label, family, intensity, token columns); floats at
    17 significant digits so re-import is bit-exact."""
    if not samples:
        raise ValueError("nothing to export")
    t_count, d_count = samples[0].tokens.shape
    write_csv(
        path,
        ["clip_id", "label", "family", "intensity"] + [f"tok_{i:04d}" for i in range(t_count * d_count)],
        (
            [
                s.clip_id,
                s.label,
                s.family if s.family is not None else "",
                s.intensity if s.intensity is not None else "",
            ]
            + [f"{v:.17g}" for v in s.tokens.ravel()]
            for s in samples
        ),
    )
