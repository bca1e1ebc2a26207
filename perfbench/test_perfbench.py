"""Tests of the benchmark's own machinery:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from calib import REFERENCE_SLICE_S, Calibration  # noqa: E402
from spans import Span, StepProbe, Tracer, finetune_shape, patched, self_times  # noqa: E402
from stats import pass_tail, percentile, quartile_spread, tail  # noqa: E402
from subtune.config import load_config  # noqa: E402
from workloads import cli_call, write_config  # noqa: E402

TINY = {"data": {"n_pretrain": 64, "n_pretrain_test": 32, "n_finetune": 64, "n_test": 32},
        "optimizer": {"epochs": 2, "learning_rate": 5e-3},
        "model": {"n_blocks": 1}, "mask": {"active_layer_budget": 2}}


# --- self time ------------------------------------------------------------

def test_self_time_subtracts_children_at_every_depth():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1), Span("x", 1.0, 4.0, 0), Span("y", 3.0, 6.0, 0),
             Span("z", 8.0, 12.0, 0)]
    # children cover [1, 6] and [8, 10] of the root's interval
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_of_a_slice_ignores_parents_outside_it():
    spans = [Span("outer", 0.0, 10.0, -1), Span("rep", 1.0, 9.0, 0), Span("leaf", 2.0, 5.0, 1)]
    assert self_times(spans[1:], offset=1) == pytest.approx([5.0, 3.0])


# --- tail rule ------------------------------------------------------------

@pytest.mark.parametrize("n, percentile_, beyond", [
    (10_000, 99.9, 10),
    (9_999, 99.0, 99),
    (1_000, 99.0, 10),
    (999, 95.0, 49),
    (200, 95.0, 10),
    (199, 90.0, 19),
    (40, 75.0, 10),
    (20, 50.0, 10),
    (19, 50.0, 9),  # no rung has ten beyond: the median, with the short count recorded
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, percentile_, beyond):
    values = [float(v) for v in range(n, 0, -1)]
    t = tail(values)
    assert (t.percentile, t.beyond, t.n) == (percentile_, beyond, n)
    assert t.value == float(n - beyond)
    assert sum(v > t.value for v in values) == beyond


def test_pass_tail_is_the_median_of_each_pass_tail():
    calm = [float(i) for i in range(1, 128)]  # 127 samples: p90 has 12 beyond
    burst = calm[:-12] + [1000.0] * 12
    result = pass_tail([calm, calm, burst])
    assert result.value == percentile(calm, 90.0)
    assert (result.percentiles, result.passes, result.n_min) == ((90.0,), 3, 127)
    assert tail(calm * 2 + burst).value > result.value


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert percentile([5.0], 99.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# --- calibration ----------------------------------------------------------

def test_calibration_multiplies_times_and_divides_rates():
    values = {name: 2.0 for name in run.TIMES + run.RATES} | {"peak_rss_mb": 70.0}
    out = run.calibrated(values, 1.25)
    assert all(out[name] == 2.5 for name in run.TIMES)
    assert all(out[name] == 1.6 for name in run.RATES)
    assert out["peak_rss_mb"] == 70.0


def test_calibration_factor_is_reference_over_median_slice():
    calibration = Calibration()
    assert calibration.slices == []  # the warm-up slice is not kept
    calibration.sample(3)
    assert len(calibration.slices) == 3 and min(calibration.slices) > 0
    assert calibration.factor() == REFERENCE_SLICE_S / statistics.median(calibration.slices)


# --- interception ---------------------------------------------------------

def _tiny_chain(tmp_path: Path) -> None:
    config = write_config(tmp_path / "tiny.yaml", 3, TINY)
    assert cli_call("pretrain", "--config", config, "--out", tmp_path / "pre") == 0
    assert cli_call("finetune", "--config", config, "--checkpoint",
                    tmp_path / "pre" / "pretrained.ckpt", "--out", tmp_path / "ft") == 0
    for command in ("robustness", "eval"):
        assert cli_call(command, "--config", config, "--checkpoint",
                        tmp_path / "ft" / "finetuned.ckpt", "--out", tmp_path / "ev") == 0


def test_wrappers_intercept_every_named_layer(tmp_path):
    import subtune.harness
    import subtune.model

    original = subtune.model.backward
    tracer = Tracer()
    with patched(layers.tracer_wrappers(tracer)):
        # harness binds its own name for backward; it must be wrapped too
        assert subtune.harness.backward is subtune.model.backward is not original
        _tiny_chain(tmp_path)
        config = write_config(tmp_path / "tiny.yaml", 3, TINY)
        assert cli_call("ablate", "--config", config, "--out", tmp_path / "abl") == 0
    assert subtune.harness.backward is original and subtune.model.backward is original

    metrics = layers.repetition_metrics(tracer.spans, 0, tracer.counts)
    idle = [layer for layer in layers.LAYER_NAMES if metrics[f"{layer}.calls"] == 0]
    assert idle == []
    for name in ("model.forward.samples", "masking.layers_updated", "data.samples_generated",
                 "harness.pretrain_steps", "checkpoint.save_model.bytes"):
        assert metrics[name] > 0, name
    assert 0.0 < metrics["decomposition.recompose.useful_ratio"] <= 1.0


@pytest.mark.parametrize("k, timed_steps", [(5, 3), (3, 0)])
def test_step_probe_times_steps_of_its_shape_after_the_first(tmp_path, k, timed_steps):
    tiny = load_config(write_config(tmp_path / "tiny.yaml", 3, TINY))
    tiny.decomposition.n_subspaces = k
    probe = StepProbe(finetune_shape(tiny))
    probe.begin("setup")
    with patched(probe.wrappers()):
        _tiny_chain(tmp_path)
    bucket = probe.buckets[0]
    # 64 rows at batch 32 for 2 epochs: 4 steps, 3 gaps between stamps;
    # a fine-tune of another shape (the chain runs K=5) is not timed
    assert len(bucket["steps"]) == timed_steps
    assert bucket["rows"] == 128
    # finetune evaluates 2 splits, robustness 26 cells, eval 2 splits
    assert len(bucket["evals"]) == 30


# --- contract -------------------------------------------------------------

def test_declared_per_layer_metrics_are_the_computed_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    computed = set(layers.repetition_metrics([], 0, {})) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
