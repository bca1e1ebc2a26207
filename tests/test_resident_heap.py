"""``cli.main`` keeps the heap resident: after it has run once, scoring a
256-row batch reuses freed memory instead of faulting fresh pages in.
Without that, glibc serves each temporary above 128 KiB from a new mmap
and a default-shape ``predict`` takes about 1,100 minor faults."""

from __future__ import annotations

import json
import platform
import subprocess
import sys

import pytest

from oracles import child_env

# a fresh interpreter, so nothing another test did to the heap counts
_CHILD = """
import json, math, resource
from subtune import cli, linalg
from subtune.decomposition import DecompositionConfig
from subtune.model import ModelConfig, derive_model, init_model, predict

cli.main(["gradcheck"])
cfg = ModelConfig()
head = linalg.make_rng(1).normal(scale=1.0 / math.sqrt(cfg.d_model), size=(1, cfg.d_model))
model = derive_model(init_model(cfg, linalg.make_rng(0)), head=head, split=DecompositionConfig())
x = linalg.make_rng(2).normal(size=(256, model.config.n_tokens, model.config.d_model))
for _ in range(2):
    predict(model, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    predict(model, x)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_scoring_after_main_faults_no_fresh_pages() -> None:
    done = subprocess.run([sys.executable, "-c", _CHILD], env=child_env(), capture_output=True, text=True, check=True)
    faults = json.loads(done.stdout.splitlines()[-1])
    assert faults < 50, f"5 predict calls took {faults} minor page faults"
