"""Release gate: nine numbered end-to-end guarantees, one test each.

Run with -v to get one pass/fail line per guarantee.  Thresholds here are
the smoke bars the default preset was calibrated against, not claims about
any larger system.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    StartCores,
    binary_head,
    brute_ap,
    brute_auc,
    brute_eer_dense,
    brute_eer_exact,
    capture_gradients,
    enumerate_count_instances,
    projection_param_vector,
    recorded_masks,
    replay_masks,
    zero_layers,
)
from split_checks import SAMPLE_SPLITS
from subtune.checkpoint import semantic_to_bytes
from subtune.config import config_from_dict, default_config
from subtune.data import FAMILIES, LEVELS, build_splits
from subtune.decomposition import DecompositionConfig, decompose, recompose
from subtune.gradcheck import grad_check, jitter_trainables
from subtune.harness import run_ablation, run_finetune, run_pretrain, run_robustness
from subtune.linalg import make_rng
from subtune.losses import LossWeights, orth_loss, spec_loss
from subtune.masking import StatsConfig, compute_bvg, init_stats, update_stats
from subtune.metrics import ScoredSet, auc, average_precision, eer
from subtune.model import (
    ModelConfig,
    attention_slots,
    derive_model,
    init_model,
)


@pytest.fixture(scope="module")
def smoke():
    """Three full pretrain + fine-tune runs on the default preset, each with
    the frozen semantic cores it started from."""
    t0 = time.perf_counter()
    runs = []
    for seed in (0, 1, 2):
        cfg = config_from_dict({"seed": seed})
        splits = build_splits(cfg.data, SAMPLE_SPLITS)
        model, _, _ = run_pretrain(cfg, splits=splits)
        start = StartCores()
        record = run_finetune(cfg, model, splits=splits, on_step=start)
        runs.append((cfg, model, record, start.cores))
    return runs, time.perf_counter() - t0


def test_criterion_1_decomposition_fidelity():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(5):
        rng = make_rng(1000 + seed)
        for _ in range(10):
            o = int(rng.integers(8, 129))
            i = int(rng.integers(8, 129))
            total_rank = min(o, i)
            k = int(rng.integers(1, min(total_rank - 1, 8) + 1))
            w = rng.normal(size=(o, i))
            layer = decompose(w, DecompositionConfig(n_subspaces=k))
            residual = np.linalg.norm(recompose(layer) - w) / np.linalg.norm(w)
            assert residual <= 1e-8, (o, i, k, residual)
            assert layer.semantic_rank + sum(a.rank for a in layer.artifacts) == total_rank
            checked += 1
    assert checked == 50
    assert time.perf_counter() - t0 <= 30.0


def test_criterion_2_init_regularizers_vanish():
    cfg = default_config()
    model = derive_model(init_model(cfg.model, make_rng(0)), split=cfg.decomposition)
    slots = attention_slots(model)
    assert len(slots) == 24
    for _, block, name in slots:
        layer = getattr(block, name)
        assert orth_loss(layer) <= 1e-9
        assert spec_loss(layer) <= 1e-9


def test_criterion_3_gradient_oracle():
    t0 = time.perf_counter()
    model_cfg = ModelConfig(d_model=8, n_blocks=2, n_tokens=4)
    model = init_model(model_cfg, make_rng(0))
    model = derive_model(model, head=binary_head(model, make_rng(1)), split=DecompositionConfig(n_subspaces=2))
    jitter_trainables(model, make_rng(3))
    rng = make_rng(2)
    inputs = rng.normal(size=(4, model_cfg.n_tokens, model_cfg.d_model))
    labels = rng.integers(0, 2, size=4).astype(float)
    report = grad_check(model, inputs, labels, LossWeights())
    assert report.passed
    assert report.max_rel_err <= 1e-5
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_4_ema_bvg_hand_sequence():
    cfg = StatsConfig(ema_coeff=0.5)
    stats = init_stats((1, 2))
    g = np.array([1.0, 0.0])
    update_stats(stats, [g], cfg)
    assert np.max(np.abs(stats.first[0] - [0.5, 0.0])) <= 1e-12
    assert abs(compute_bvg(stats, cfg)[0] - 1.0) <= 1e-12
    update_stats(stats, [g], cfg)
    assert np.max(np.abs(stats.first[0] - [0.75, 0.0])) <= 1e-12
    assert abs(compute_bvg(stats, cfg)[0] - 3.0) <= 1e-12


def test_criterion_5_mask_semantics(smoke, monkeypatch):
    runs, _ = smoke
    _, pretrained, _, _ = runs[0]
    cfg = config_from_dict({"data": {"n_finetune": 640}})
    splits = build_splits(cfg.data, SAMPLE_SPLITS)
    n_layers = cfg.model.n_decomposable
    warmup = 640 // cfg.optimizer.batch_size

    gradient_rows = capture_gradients(monkeypatch)
    logged = run_finetune(cfg, pretrained, splits=splits)
    assert len(logged.steps) == 200
    for s in logged.steps:
        want = n_layers if s.step <= warmup else min(cfg.mask.active_layer_budget, n_layers)
        assert s.popcount == want, (s.step, s.popcount)

    rebuilt = replay_masks(logged, cfg, n_layers, gradient_rows)
    assert len(rebuilt) == 200
    for got, want in zip(rebuilt, recorded_masks(logged)):
        assert np.array_equal(got, want)

    frozen_id = 5
    zero_layers(monkeypatch, (frozen_id,))
    forced = run_finetune(cfg, pretrained, splits=splits)
    reference = derive_model(pretrained, split=cfg.decomposition)
    _, block, name = attention_slots(forced.model)[frozen_id]
    _, ref_block, ref_name = attention_slots(reference)[frozen_id]
    assert np.array_equal(
        projection_param_vector(getattr(block, name)),
        projection_param_vector(getattr(ref_block, ref_name)),
    )
    assert not forced.opt.layer_m[frozen_id].any()
    assert not forced.opt.layer_v[frozen_id].any()
    assert forced.opt.layer_step[frozen_id] == 0


def test_criterion_6_frozen_semantic_invariant(smoke):
    runs, _ = smoke
    cfg, pretrained, record, start_cores = runs[0]
    reference = derive_model(pretrained, split=cfg.decomposition)
    expected = [semantic_to_bytes(getattr(b, n)) for _, b, n in attention_slots(reference)]
    final = [semantic_to_bytes(getattr(b, n)) for _, b, n in attention_slots(record.model)]
    assert start_cores == expected
    assert final == expected

    every_layer = replace(cfg, mask=replace(cfg.mask, active_layer_budget=cfg.model.n_decomposable))
    full = run_finetune(every_layer, pretrained, masft=False)
    assert not full.model.decomposed
    for (_, b, n), (_, pb, pn) in zip(attention_slots(full.model), attention_slots(pretrained)):
        assert not np.array_equal(getattr(b, n), getattr(pb, pn))


def test_criterion_7_metrics_oracle():
    """AUC, AP and EER equal their brute-force oracles exactly on every
    (scores, labels) instance of 1 to 12 samples over a 4-value alphabet, up
    to permutation: 125,969 instances."""
    checked = 0
    for scores, labels in enumerate_count_instances(12):
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        s = ScoredSet(scores=scores, labels=labels, group_ids=None)
        if n_pos and n_neg:
            assert auc(s) == brute_auc(scores, labels)
            assert eer(s) == brute_eer_exact(scores, labels)
            flipped = ScoredSet(scores=scores, labels=1 - labels, group_ids=None)
            assert auc(s) + auc(flipped) == 1.0
            if checked % 50 == 0:
                assert abs(eer(s) - brute_eer_dense(scores, labels)) <= 1e-12
        if n_pos:
            assert average_precision(s) == brute_ap(scores, labels)
        checked += 1
    assert checked == 125_969


def test_criterion_8_end_to_end_smoke(smoke):
    runs, elapsed = smoke
    cfg = runs[0][0]
    assert cfg.decomposition.n_subspaces == 5
    assert cfg.mask.active_layer_budget == 16
    assert cfg.weights.orth_weight == 1.0 and cfg.weights.spectral_weight == 1.0
    assert cfg.optimizer.learning_rate == 2e-4
    assert cfg.optimizer.batch_size == 32
    assert cfg.optimizer.epochs == 10

    in_domain = [r.metrics["in_domain"].frame_auc for _, _, r, _ in runs]
    heldout = [r.metrics["heldout"].frame_auc for _, _, r, _ in runs]
    mean_in = sum(in_domain) / 3.0
    mean_held = sum(heldout) / 3.0
    print(f"in-domain frame AUC {mean_in:.4f} (seeds {in_domain}), "
          f"heldout {mean_held:.4f}, {elapsed:.0f}s")
    assert mean_in >= 0.95
    assert mean_held > 0.5
    assert elapsed <= 300.0


TABLE_CFG = {
    "seed": 11,
    "model": {"d_model": 16, "n_blocks": 2, "n_tokens": 6},
    "mask": {"active_layer_budget": 4},
    "optimizer": {"epochs": 2, "batch_size": 16},
    "pretrain": {"max_epochs": 10, "accuracy_floor": 0.5},
    "data": {
        "n_pretrain": 64,
        "n_pretrain_test": 32,
        "n_finetune": 128,
        "n_test": 64,
        "clip_size": 4,
    },
}


def test_criterion_9_structural_tables(tmp_path):
    cfg = config_from_dict(TABLE_CFG)

    paths_a = run_ablation(cfg, tmp_path / "a")
    paths_b = run_ablation(cfg, tmp_path / "b")
    tables = {}
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
        rows = [r.split(",") for r in pa.read_text().strip().splitlines()[1:]]
        assert all(r[-1] == "ok" for r in rows), pa.name
        tables[pa.name] = rows
    assert [r[:2] for r in tables["components.csv"]] == [
        ["1", "1"], ["1", "0"], ["0", "1"], ["0", "0"]
    ]
    assert [r[:2] for r in tables["losses.csv"]] == [
        ["0.0", "0.0"], ["0.0", "1.0"], ["1.0", "0.0"], ["1.0", "1.0"]
    ]
    assert [r[0] for r in tables["subspaces.csv"]] == ["1", "3", "5", "7", "9"]
    assert [r[:2] for r in tables["budget.csv"]] == [
        ["1", "1"], ["4", "4"], ["16", "8"], ["48", "8"], ["96", "8"]
    ]

    splits = build_splits(cfg.data, SAMPLE_SPLITS)
    model, _, _ = run_pretrain(cfg, splits=splits)
    record = run_finetune(cfg, model, splits=splits)
    path_a = run_robustness(cfg, record.model, tmp_path / "ra")
    path_b = run_robustness(cfg, record.model, tmp_path / "rb")
    assert path_a.read_bytes() == path_b.read_bytes()
    rows = [r.split(",")[:2] for r in path_a.read_text().strip().splitlines()[1:]]
    want = [["clean", "0"]] + [
        [family, str(level)] for family in sorted(FAMILIES) for level in LEVELS
    ]
    assert rows == want
