"""Every written byte is the same whatever number of threads OpenBLAS
runs: ``pretrain``, a short ``finetune`` and ``robustness`` on the default
model shapes, each run in a fresh interpreter with
``OPENBLAS_NUM_THREADS`` 1 and then 2, write identical files."""

from __future__ import annotations

import json
import subprocess
import sys

import yaml

from oracles import child_env

# the default model section, a small data preset and two fine-tune epochs
_CONFIG = {"data": {"n_finetune": 512}, "optimizer": {"epochs": 2}}

_FILES = ("pretrained.ckpt", "train_log.csv", "finetuned.ckpt", "robustness.csv")

# one interpreter per thread count, since OpenBLAS reads the variable when
# it loads; it prints the thread count the library reports, or null where
# the library, its symbol or the process's memory map is not found
_CHILD = """
import json, sys
from pathlib import Path
from subtune import cli, model

config, out = sys.argv[1], Path(sys.argv[2])
for argv in (["pretrain", "--out", out], ["finetune", "--checkpoint", out / "pretrained.ckpt", "--out", out],
             ["robustness", "--checkpoint", out / "finetuned.ckpt", "--out", out]):
    if cli.main([str(a) for a in argv] + ["--config", config]) != 0:
        sys.exit(f"{argv[0]} failed")

blas = model.openblas_threads()
print(json.dumps(blas[0]() if blas is not None else None))
"""


def test_outputs_are_byte_identical_at_one_and_two_blas_threads(tmp_path) -> None:
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(_CONFIG))
    written = {}
    for threads in (1, 2):
        env = dict(child_env(), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        out = tmp_path / f"threads{threads}"
        done = subprocess.run([sys.executable, "-c", _CHILD, str(config), str(out)],
                              env=env, capture_output=True, text=True, check=True)
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen in (threads, None), f"OpenBLAS ran {seen} threads, asked for {threads}"
        written[threads] = {name: (out / name).read_bytes() for name in _FILES}
    for name in _FILES:
        assert written[1][name] == written[2][name], name
