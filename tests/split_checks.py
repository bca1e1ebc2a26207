"""Checks on generated splits that only the tests use: a least-squares
probe of how separable the base classes are, the fake families that leak
into a split, a digest of every generated bit, and a reader for the CSV
that ``export_csv`` writes."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from subtune.data import SPLITS, SplitBundle, SyntheticSample

# every split that is a list of samples, i.e. all but the robustness grid
SAMPLE_SPLITS = tuple(name for name in SPLITS if name != "robustness")


def linear_probe_accuracy(
    train: list[SyntheticSample], test: list[SyntheticSample]
) -> float:
    """Least-squares one-hot probe on flattened tokens over base classes."""
    x_train = np.stack([s.tokens.ravel() for s in train])
    x_test = np.stack([s.tokens.ravel() for s in test])
    y_train = np.array([s.base_class for s in train])
    y_test = np.array([s.base_class for s in test])
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    onehot = np.eye(n_classes)[y_train]
    aug = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    w, *_ = np.linalg.lstsq(aug, onehot, rcond=None)
    pred = np.hstack([x_test, np.ones((x_test.shape[0], 1))]) @ w
    return float(np.mean(pred.argmax(axis=1) == y_test))


def family_leakage(split: list[SyntheticSample], allowed: tuple[str, ...]) -> list[str]:
    """Family ids present on fakes that are not in the allowed set."""
    bad = sorted({s.family for s in split if s.label == 1 and s.family not in allowed})
    return [b for b in bad if b is not None]


def samples_digest(samples: list[SyntheticSample]) -> str:
    """sha256 over every sample's metadata and the raw bytes of its tokens,
    in order, so any changed bit or reordering shows."""
    h = hashlib.sha256()
    for s in samples:
        meta = (s.clip_id, s.label, s.base_class, s.family, s.intensity, s.tokens.shape)
        h.update(repr(meta).encode())
        h.update(np.ascontiguousarray(s.tokens, dtype="<f8").tobytes())
    return h.hexdigest()


def bundle_digest(bundle: SplitBundle) -> dict[str, str]:
    """One digest per split and one per robustness cell, keyed
    ``family@level``."""
    out = {name: samples_digest(getattr(bundle, name)) for name in SAMPLE_SPLITS}
    for (family, level), cell in sorted(bundle.robustness.items()):
        out[f"{family}@{level}"] = samples_digest(cell)
    return out


def import_csv(path: str | Path, n_tokens: int, d_model: int) -> list[SyntheticSample]:
    """The samples of an ``export_csv`` file; ``base_class`` is not written,
    so it reads back as -1."""
    out = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        want = 4 + n_tokens * d_model
        if len(header) != want:
            raise ValueError(f"expected {want} columns for a {n_tokens}x{d_model} grid, got {len(header)}")
        for row in reader:
            tokens = np.array([float(v) for v in row[4:]]).reshape(n_tokens, d_model)
            out.append(
                SyntheticSample(
                    tokens=tokens,
                    label=int(row[1]),
                    base_class=-1,
                    family=row[2] if row[2] else None,
                    intensity=int(row[3]) if row[3] else None,
                    clip_id=row[0],
                )
            )
    return out
