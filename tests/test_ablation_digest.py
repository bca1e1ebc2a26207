"""Byte-identity guard for the ablation path: a tiny ``run_ablation`` must
write exactly the four tables recorded in ``data/ablation_digest.json``.
The cells of each table fine-tune the one backbone pretrained from the
table's seed, so a pure refactor of the grid, the per-table set-up or the
cell loop keeps these bytes, and a change that moves them has to say so.
A second digest, ``data/ablation_digest_warmup5.json``, pins the same grid
with the mask warmup ending mid-epoch (5 of 8 steps per epoch), so arms
that share their warmup and part ways at step 5 are held to the bytes of
arms that were run from the start.

The digest depends on float rounding, so it holds for the numpy and BLAS
build it was recorded with.  Regenerate it only for a change that is meant
to move numbers:

    PYTHONPATH=src python tests/test_ablation_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from subtune import harness
from subtune.config import config_from_dict
from subtune.harness import run_ablation

DATA = Path(__file__).parent / "data"

# d_model 12 leaves rank for the K=9 cell, so every row is scored; 16 of the
# 18 rows differ (budgets 48 and 96 repeat 16: each keeps all 8 decomposable
# layers active, m_effective 8)
TINY = {
    "seed": 5,
    "model": {"d_model": 12, "n_blocks": 2, "n_tokens": 6},
    "mask": {"active_layer_budget": 4},
    "optimizer": {"epochs": 2, "batch_size": 16, "learning_rate": 5e-3},
    "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
    "data": {"n_pretrain": 64, "n_pretrain_test": 32, "n_finetune": 128, "n_test": 64, "clip_size": 4},
}


# digest file -> the run it pins
RUNS = {
    "ablation_digest.json": TINY,
    "ablation_digest_warmup5.json": TINY | {"mask": {"active_layer_budget": 4, "warmup_steps": 5}},
}


def digests(name: str, out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_ablation(config_from_dict(RUNS[name]), out)}


def recorded(name: str) -> dict[str, str]:
    return json.loads((DATA / name).read_text())


def test_tiny_ablation_writes_the_recorded_bytes(tmp_path) -> None:
    assert digests("ablation_digest.json", tmp_path) == recorded("ablation_digest.json")


def test_tiny_ablation_with_a_mid_epoch_warmup_writes_the_recorded_bytes(tmp_path) -> None:
    assert digests("ablation_digest_warmup5.json", tmp_path) == recorded("ablation_digest_warmup5.json")


@pytest.mark.parametrize("name, edge", [("ablation_digest.json", 8), ("ablation_digest_warmup5.json", 5)])
def test_tiny_ablation_runs_each_shared_prefix_once(tmp_path, monkeypatch, name, edge) -> None:
    # 16 distinct cells of 18, one set of splits and one backbone per table;
    # every state copy is a snapshot a later cell starts from, or the start
    # of a cell resumed from one, at step 0 or at the warmup edge
    calls = Counter()
    copies = Counter()  # state copies by step
    resumes = Counter()  # fine-tunes started from a saved state, by its step

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    def copy_state(state, _real=harness.copy_state):
        copies[state.step] += 1
        return _real(state)

    def run_finetune(cfg, start, _real=harness.run_finetune, **kwargs):
        if isinstance(start, harness.FinetuneState):
            resumes[start.step] += 1
        return _real(cfg, start, **kwargs)

    for fn in ("_run_cell", "build_splits", "run_pretrain"):
        monkeypatch.setattr(harness, fn, counted(getattr(harness, fn)))
    monkeypatch.setattr(harness, "copy_state", copy_state)
    monkeypatch.setattr(harness, "run_finetune", run_finetune)
    run_ablation(config_from_dict(RUNS[name]), tmp_path)
    assert calls == {"_run_cell": 16, "build_splits": 4, "run_pretrain": 4}
    assert resumes == {0: 3, edge: 4}
    assert copies == {0: 1 + 3, edge: 3 + 4}


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / name).write_text(json.dumps(digests(name, Path(tmp)), indent=2, sort_keys=True) + "\n")
