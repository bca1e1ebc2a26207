"""Checks on generated splits that only the tests use: a least-squares
probe of how separable the base classes are, the fake families that leak
into a split, a digest of every generated bit, and a reader for the CSV
that ``export_csv`` writes."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from subtune.data import SPLITS, Split, SplitBundle

# every split that is one set of arrays, i.e. all but the robustness grid
SAMPLE_SPLITS = tuple(name for name in SPLITS if name != "robustness")


def linear_probe_accuracy(train: Split, test: Split) -> float:
    """Least-squares one-hot probe on flattened tokens over base classes."""
    x_train = train.tokens.reshape(len(train), -1)
    x_test = test.tokens.reshape(len(test), -1)
    y_train, y_test = train.base_class, test.base_class
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    onehot = np.eye(n_classes)[y_train]
    aug = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    w, *_ = np.linalg.lstsq(aug, onehot, rcond=None)
    pred = np.hstack([x_test, np.ones((x_test.shape[0], 1))]) @ w
    return float(np.mean(pred.argmax(axis=1) == y_test))


def family_leakage(split: Split, allowed: tuple[str, ...]) -> list[str]:
    """Family ids present on fakes that are not in the allowed set."""
    return sorted(set(split.family[split.labels == 1].tolist()).difference(allowed))


def samples_digest(split: Split) -> str:
    """sha256 over every sample's metadata and the raw bytes of its tokens,
    in order, so any changed bit or reordering shows.  The metadata is the
    ``repr`` the digest was first written with: an int label, and None for
    a real sample's family and intensity."""
    h = hashlib.sha256()
    for i, tokens in enumerate(split.tokens):
        family, intensity = str(split.family[i]), int(split.intensity[i])
        meta = (str(split.clip_id[i]), int(split.labels[i]), int(split.base_class[i]),
                family or None, intensity or None, tokens.shape)
        h.update(repr(meta).encode())
        h.update(np.ascontiguousarray(tokens, dtype="<f8").tobytes())
    return h.hexdigest()


def bundle_digest(bundle: SplitBundle) -> dict[str, str]:
    """One digest per split and one per robustness cell, keyed
    ``family@level``."""
    out = {name: samples_digest(getattr(bundle, name)) for name in SAMPLE_SPLITS}
    for (family, level), cell in sorted(bundle.robustness.items()):
        out[f"{family}@{level}"] = samples_digest(cell)
    return out


def import_csv(path: str | Path, n_tokens: int, d_model: int) -> Split:
    """The split of an ``export_csv`` file; ``base_class`` is not written,
    so it reads back as -1."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        want = 4 + n_tokens * d_model
        if len(header) != want:
            raise ValueError(f"expected {want} columns for a {n_tokens}x{d_model} grid, got {len(header)}")
        rows = list(reader)
    return Split(
        tokens=np.array([[float(v) for v in row[4:]] for row in rows]).reshape(len(rows), n_tokens, d_model),
        labels=np.array([float(row[1]) for row in rows]),
        base_class=np.full(len(rows), -1),
        family=np.array([row[2] for row in rows]),
        intensity=np.array([int(row[3]) if row[3] else 0 for row in rows]),
        clip_id=np.array([row[0] for row in rows]),
    )
