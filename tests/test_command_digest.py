"""Byte-identity guard for what the commands write: on a tiny config, run
through ``cli.main`` as a user runs them, a fixed-policy ``finetune``'s
``train_log.csv`` and ``finetuned.ckpt``, ``eval``'s ``metrics.csv``,
``robustness``'s ``robustness.csv``, and the stdout of ``inspect`` (the
pretrained checkpoint under both rank policies, and the fine-tuned one) and
of ``gradcheck`` must hash to the values recorded in
``data/command_digest.json``.  The test split spans two of ``predict``'s
row blocks, so scoring runs on more than one runner wherever the process
may use more than one CPU.

The digest depends on float rounding, so it holds for the numpy and BLAS
build it was recorded with.  Regenerate it only for a change that is meant
to move numbers:

    PYTHONPATH=src python tests/test_command_digest.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from subtune import cli
from subtune.model import PREDICT_ROWS

DIGEST = Path(__file__).parent / "data" / "command_digest.json"

TINY = {
    "seed": 5,
    "model": {"d_model": 8, "n_blocks": 2, "n_tokens": 4},
    "decomposition": {"n_subspaces": 2},
    "mask": {"active_layer_budget": 3},
    "optimizer": {"epochs": 2, "batch_size": 16, "learning_rate": 2e-3},
    "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
    "data": {"n_pretrain": 64, "n_pretrain_test": 32, "n_finetune": 64, "n_test": 512, "clip_size": 4},
}
FIXED = {**TINY, "decomposition": {"n_subspaces": 2, "rank_policy": "fixed", "fixed_rank": 3}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv: str) -> str:
    """``cli.main(argv)``'s stdout; the command must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    assert status == 0, argv
    return out.getvalue()


def digests(root: Path) -> dict[str, dict[str, str]]:
    assert TINY["data"]["n_test"] >= 2 * PREDICT_ROWS // TINY["model"]["n_tokens"]
    configs = {}
    for name, cfg in (("energy", TINY), ("fixed", FIXED)):
        configs[name] = root / f"{name}.yaml"
        configs[name].write_text(json.dumps(cfg))  # JSON is YAML
    fixed = str(configs["fixed"])
    _run("pretrain", "--config", str(configs["energy"]), "--out", str(root / "pretrain"))
    pretrained = str(root / "pretrain" / "pretrained.ckpt")
    _run("finetune", "--config", fixed, "--checkpoint", pretrained, "--out", str(root / "finetune"))
    finetuned = str(root / "finetune" / "finetuned.ckpt")
    _run("eval", "--config", fixed, "--checkpoint", finetuned, "--out", str(root / "eval"))
    _run("robustness", "--config", fixed, "--checkpoint", finetuned, "--out", str(root / "robustness"))
    files = {"finetune": ("train_log.csv", "finetuned.ckpt"), "eval": ("metrics.csv",),
             "robustness": ("robustness.csv",)}
    out = {command: {name: _sha((root / command / name).read_bytes()) for name in names}
           for command, names in files.items()}
    out["stdout"] = {
        "inspect_pretrained_energy": _sha(_run("inspect", "--config", str(configs["energy"]),
                                               "--checkpoint", pretrained).encode()),
        "inspect_pretrained_fixed": _sha(_run("inspect", "--config", fixed, "--checkpoint", pretrained).encode()),
        "inspect_finetuned": _sha(_run("inspect", "--checkpoint", finetuned).encode()),
        "gradcheck": _sha(_run("gradcheck").encode()),
    }
    return out


def test_tiny_commands_write_the_recorded_bytes(tmp_path) -> None:
    assert digests(tmp_path) == json.loads(DIGEST.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        DIGEST.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
