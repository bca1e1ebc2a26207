import json

import numpy as np
import pytest

from split_checks import SAMPLE_SPLITS
from subtune.checkpoint import load_model, save_model
from subtune.config import config_from_dict
from subtune.data import build_splits
from subtune.decomposition import semantic_to_bytes
from subtune.harness import (
    decompose_inspect,
    eval_split,
    replay_masks,
    run_ablation,
    run_finetune,
    run_pretrain,
    run_robustness,
)
from subtune.linalg import make_rng
from subtune.model import (
    attention_slots,
    clone_model,
    decompose_attention,
    flat_vector,
    init_model,
    projection_param_vector,
    trainable_arrays,
)


def tiny_dict(seed=11, **extra):
    raw = {
        "seed": seed,
        "model": {"d_model": 8, "n_blocks": 2, "n_tokens": 6},
        "decomposition": {"n_subspaces": 2},
        "mask": {"active_layer_budget": 4},
        "optimizer": {"epochs": 2, "batch_size": 16},
        "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
        "data": {
            "n_pretrain": 64,
            "n_pretrain_test": 32,
            "n_finetune": 128,
            "n_test": 64,
            "clip_size": 4,
        },
    }
    for key, value in extra.items():
        section, name = key.split(".")
        raw.setdefault(section, {})[name] = value
    return raw


def tiny_cfg(seed=11, **extra):
    return config_from_dict(tiny_dict(seed, **extra))


@pytest.fixture(scope="module")
def pretrained():
    cfg = tiny_cfg()
    splits = build_splits(cfg.data, SAMPLE_SPLITS)
    model, acc, _ = run_pretrain(cfg, splits=splits)
    return cfg, splits, model, acc


def test_pretrain_reaches_floor_and_is_deterministic(tmp_path, pretrained):
    cfg, _, model, acc = pretrained
    assert acc >= cfg.pretrain.accuracy_floor
    run_pretrain(cfg, out_dir=tmp_path / "a")
    run_pretrain(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a/pretrained.ckpt").read_bytes() == (tmp_path / "b/pretrained.ckpt").read_bytes()


def test_pretrain_zero_epochs_equals_initialization():
    cfg = tiny_cfg(**{"pretrain.max_epochs": 0})
    model, _, _ = run_pretrain(cfg)
    from subtune.harness import _INIT_STREAM

    fresh = init_model(cfg.model, make_rng(cfg.seed + _INIT_STREAM))
    assert np.array_equal(
        flat_vector(trainable_arrays(model, "full")), flat_vector(trainable_arrays(fresh, "full"))
    )


def test_pretrain_unreachable_floor_suggests_easier_data():
    cfg = tiny_cfg(**{"pretrain.max_epochs": 1, "pretrain.accuracy_floor": 0.999, "data.noise_level": 8.0})
    with pytest.raises(RuntimeError, match="easier data"):
        run_pretrain(cfg)


def test_degenerate_config_reduces_to_plain_subspace_tuning(pretrained):
    _, _, model, _ = pretrained
    cfg = tiny_cfg(
        **{
            "decomposition.n_subspaces": 1,
            "mask.active_layer_budget": 8,
            "optimizer.mode": "plain",
            "weights.orth_weight": 0.0,
            "weights.spectral_weight": 0.0,
        }
    )
    record = run_finetune(cfg, model)
    for s in record.steps:
        assert s.total == s.cls
        assert s.popcount == 8


def test_mask_popcount_budget_post_warmup(pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, splits=splits)
    warmup = len(splits.finetune_train) // cfg.optimizer.batch_size
    for s in record.steps:
        if s.step <= warmup:
            assert s.popcount == 8
        else:
            assert s.popcount == 4
        assert len(s.mask_bits) == 8
        assert s.mask_bits.count("1") == s.popcount


def test_finetune_artifacts_are_deterministic(tmp_path, pretrained):
    cfg, splits, model, _ = pretrained
    run_finetune(cfg, model, out_dir=tmp_path / "a", splits=splits)
    run_finetune(cfg, model, out_dir=tmp_path / "b", splits=splits)
    for name in ("train_log.csv", "metrics.csv", "finetuned.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    sa = json.loads((tmp_path / "a/summary.json").read_text())
    sb = json.loads((tmp_path / "b/summary.json").read_text())
    sa.pop("wall_clock_seconds"), sb.pop("wall_clock_seconds")
    assert sa == sb


def test_forced_zero_layer_stays_at_initialization(pretrained):
    cfg, splits, model, _ = pretrained
    reference = clone_model(model)
    decompose_attention(reference)
    record = run_finetune(cfg, model, forced_zero=(3,), splits=splits)
    _, block, name = attention_slots(record.model)[3]
    _, ref_block, ref_name = attention_slots(reference)[3]
    assert np.array_equal(
        projection_param_vector(getattr(block, name)),
        projection_param_vector(getattr(ref_block, ref_name)),
    )
    # the other layers did move
    moved = [
        not np.array_equal(
            projection_param_vector(getattr(b, n)),
            projection_param_vector(getattr(rb, rn)),
        )
        for (_, b, n), (_, rb, rn) in zip(attention_slots(record.model), attention_slots(reference))
    ]
    assert any(moved)


@pytest.mark.parametrize(
    "arm", [{}, {"slm": False}, {"forced_zero": (2,)}], ids=["default", "slm-off", "forced-zero"]
)
def test_replay_reproduces_every_mask(pretrained, arm):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, log_gradients=True, splits=splits, **arm)
    rebuilt = replay_masks(record, cfg, n_layers=8)
    assert len(rebuilt) == len(record.mask_log)
    for got, want in zip(rebuilt, record.mask_log):
        assert np.array_equal(got, want)


def test_replay_reads_the_recorded_warmup(pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, log_gradients=True, splits=splits)
    # no warmup_steps configured: one epoch of 128 / 16 steps
    assert record.warmup_steps == 8
    # the warmup is read from the record, not re-derived from the config's
    # epoch count
    for replay_cfg in (cfg, tiny_cfg(**{"optimizer.epochs": 1})):
        rebuilt = replay_masks(record, replay_cfg, n_layers=8)
        assert all(np.array_equal(got, want) for got, want in zip(rebuilt, record.mask_log))
    record.warmup_steps = 0
    rebuilt = replay_masks(record, cfg, n_layers=8)
    assert not all(np.array_equal(got, want) for got, want in zip(rebuilt, record.mask_log))


def test_replay_requires_gradient_log(pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, splits=splits)
    with pytest.raises(ValueError, match="gradient logging"):
        replay_masks(record, cfg, n_layers=8)


def test_replay_rejects_another_layer_count(pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, log_gradients=True, splits=splits)
    with pytest.raises(ValueError, match="replay asked for 24 layers, the run has 8"):
        replay_masks(record, cfg, n_layers=24)


@pytest.mark.parametrize("lid", [-1, 8])
def test_forced_zero_outside_the_layers_is_a_value_error(pretrained, lid):
    cfg, splits, model, _ = pretrained
    with pytest.raises(ValueError, match=rf"forced_zero layer id {lid} is outside \[0, 8\)") as info:
        run_finetune(cfg, model, forced_zero=(lid,), splits=splits)
    assert "\n" not in str(info.value)


def test_semantic_subspace_bytes_frozen_through_finetune(pretrained):
    cfg, splits, model, _ = pretrained
    reference = clone_model(model)
    decompose_attention(reference)
    expected = [semantic_to_bytes(getattr(b, n)) for _, b, n in attention_slots(reference)]
    record = run_finetune(cfg, model, splits=splits)
    after = [semantic_to_bytes(getattr(b, n)) for _, b, n in attention_slots(record.model)]
    assert record.semantic_start == expected
    assert after == expected


def test_masft_off_trains_plain_attention(pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, masft=False, splits=splits)
    assert not record.model.decomposed
    assert record.semantic_start == []
    for s in record.steps:
        assert s.orth_mean == 0.0 and s.spec_mean == 0.0 and s.total == s.cls
    changed = [
        not np.array_equal(getattr(b, n), getattr(rb, rn))
        for (_, b, n), (_, rb, rn) in zip(attention_slots(record.model), attention_slots(model))
    ]
    assert any(changed)


def test_eval_split_metric_ranges(pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, splits=splits)
    for split in ("in_domain", "heldout"):
        for name, value in record.metrics[split].as_dict().items():
            assert 0.0 <= value <= 1.0, (split, name, value)
    direct = eval_split(record.model, splits.test_in)
    assert direct.as_dict() == record.metrics["in_domain"].as_dict()


def test_checkpoint_round_trip_through_finetune(tmp_path, pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, out_dir=tmp_path, splits=splits)
    loaded, manifest = load_model(tmp_path / "finetuned.ckpt")
    assert manifest["decomposed"] is True
    again = eval_split(loaded, splits.test_in)
    assert again.frame_auc == record.metrics["in_domain"].frame_auc


def test_robustness_clean_cell_matches_finetune_exactly(tmp_path, pretrained):
    cfg, splits, model, _ = pretrained
    record = run_finetune(cfg, model, splits=splits)
    path = run_robustness(cfg, record.model, tmp_path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "family,level,video_auc"
    clean = [r for r in rows[1:] if r.startswith("clean,")]
    assert len(clean) == 1
    assert clean[0] == f"clean,0,{record.metrics['in_domain'].video_auc:.6f}"
    from subtune.data import FAMILIES

    assert len(rows) == 1 + 1 + len(FAMILIES) * 5


def test_ablation_row_sets_and_determinism(tmp_path):
    cfg = tiny_cfg()
    paths_a = run_ablation(cfg, tmp_path / "a")
    paths_b = run_ablation(cfg, tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()
    named = {p.name: p for p in paths_a}
    comp = named["components.csv"].read_text().strip().splitlines()
    assert [r.split(",")[:2] for r in comp[1:]] == [["1", "1"], ["1", "0"], ["0", "1"], ["0", "0"]]
    sub = named["subspaces.csv"].read_text().strip().splitlines()
    assert [r.split(",")[0] for r in sub[1:]] == ["1", "3", "5", "7", "9"]
    bud = named["budget.csv"].read_text().strip().splitlines()
    assert [r.split(",")[:2] for r in bud[1:]] == [
        ["1", "1"], ["4", "4"], ["16", "8"], ["48", "8"], ["96", "8"]
    ]
    loss = named["losses.csv"].read_text().strip().splitlines()
    assert [r.split(",")[:2] for r in loss[1:]] == [
        ["0.0", "0.0"], ["0.0", "1.0"], ["1.0", "0.0"], ["1.0", "1.0"]
    ]


def test_inspect_fresh_decomposition(pretrained):
    _, _, model, _ = pretrained
    rows = decompose_inspect(model)
    assert len(rows) == 8
    from subtune.decomposition import DecompositionConfig, resolve_semantic_rank
    from subtune.linalg import svd

    reference = clone_model(model)
    for row, (_, block, name) in zip(rows, attention_slots(reference)):
        assert row.orth <= 1e-9
        assert row.spec <= 1e-9
        assert row.semantic_rank + sum(row.artifact_ranks) == row.total_rank
        total = row.energy_semantic + sum(row.energy_artifacts)
        assert total == pytest.approx(1.0, abs=1e-12)
        s = svd(getattr(block, name), name).s
        want = resolve_semantic_rank(s, DecompositionConfig(n_subspaces=2))
        assert row.semantic_rank == want
