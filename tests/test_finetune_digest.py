"""Byte-identity guard for the fine-tune path: a tiny pretrain and two
fine-tunes (the decomposed arm and the plain-projection arm) must write
exactly the files recorded in ``data/finetune_digest.json``, the
pretrained checkpoint included.  The decomposed model spans two rank
signatures, interleaved in layer order.

The digest depends on float rounding, so it holds for the numpy and BLAS
build it was recorded with.  Regenerate it only for a change that is meant
to move numbers:

    PYTHONPATH=src python tests/test_finetune_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from subtune.config import config_from_dict
from subtune.harness import run_finetune, run_pretrain

DIGEST = Path(__file__).parent / "data" / "finetune_digest.json"

TINY = {
    "seed": 5,
    "model": {"d_model": 8, "n_blocks": 2, "n_tokens": 4},
    "decomposition": {"n_subspaces": 2},
    "mask": {"active_layer_budget": 3},
    "optimizer": {"epochs": 2, "batch_size": 16, "learning_rate": 2e-3},
    "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
    "data": {"n_pretrain": 64, "n_pretrain_test": 32, "n_finetune": 64, "n_test": 32, "clip_size": 4},
}
# arm name -> masft
ARMS = {"masft1": True, "masft0": False}
FILES = ("train_log.csv", "finetuned.ckpt")


def digests(out_root: Path) -> dict[str, dict[str, str]]:
    base = config_from_dict(TINY)
    pretrained, _, path = run_pretrain(base, out_dir=out_root / "pretrain")
    out = {"pretrain": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()}}
    for arm, masft in ARMS.items():
        run_dir = out_root / arm
        run_finetune(base, pretrained, out_dir=run_dir, masft=masft)
        out[arm] = {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in FILES
        }
    return out


def test_tiny_finetune_writes_the_recorded_bytes(tmp_path) -> None:
    assert digests(tmp_path) == json.loads(DIGEST.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        DIGEST.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
