"""Byte-identity guard for the ablation path: a tiny ``run_ablation`` must
write exactly the four tables recorded in ``data/ablation_digest.json``.
The cells of each table fine-tune the one backbone pretrained from the
table's seed, so a pure refactor of the grid, the per-table set-up or the
cell loop keeps these bytes, and a change that moves them has to say so.

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
from pathlib import Path

from subtune.config import config_from_dict
from subtune.harness import run_ablation

DIGEST = Path(__file__).parent / "data" / "ablation_digest.json"

# d_model 12 leaves rank for the K=9 cell, so every row is scored; 16 of the
# 18 rows differ (budget 48 and 96 repeat 16: each keeps all 4 layers active)
TINY = {
    "seed": 5,
    "model": {"d_model": 12, "n_blocks": 2, "n_tokens": 6},
    "mask": {"active_layer_budget": 4},
    "optimizer": {"epochs": 2, "batch_size": 16, "learning_rate": 5e-3},
    "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
    "data": {"n_pretrain": 64, "n_pretrain_test": 32, "n_finetune": 128, "n_test": 64, "clip_size": 4},
}


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_ablation(config_from_dict(TINY), out)}


def test_tiny_ablation_writes_the_recorded_bytes(tmp_path) -> None:
    assert digests(tmp_path) == json.loads(DIGEST.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        DIGEST.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
