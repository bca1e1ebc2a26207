import json
import os
import pickle
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import (
    StartCores,
    binary_head,
    capture_gradients,
    projection_param_vector,
    recorded_masks,
    replay_masks,
    semantic_cores,
    zero_layers,
)
from split_checks import SAMPLE_SPLITS
from subtune import harness, masking
from subtune.checkpoint import load_model, save_model
from subtune.config import config_from_dict
from subtune.data import build_splits
from subtune.decomposition import semantic_to_bytes
from subtune.harness import (
    FinetuneState,
    copy_state,
    decompose_inspect,
    eval_split,
    run_ablation,
    run_finetune,
    run_pretrain,
    run_robustness,
)
from subtune.linalg import make_rng
from subtune.model import (
    attention_slots,
    backward,
    clone_model,
    derive_model,
    init_model,
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
    model, acc, _ = run_pretrain(cfg)
    from subtune.harness import _INIT_STREAM

    fresh = init_model(cfg.model, make_rng(cfg.seed, _INIT_STREAM))
    assert np.array_equal(model.params, fresh.params)
    # with no epoch to score it, the initialisation's accuracy is reported
    test = build_splits(cfg.data, ("pretrain_test",)).pretrain_test
    assert acc == harness.pretrain_accuracy(fresh, test)


# a NaN gradient would reach the model and surface only as the next
# forward's "non-finite activations"; 1e200 keeps the parameters finite but
# overflows the second moment to inf, which freezes its coordinate silently
@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_pretrain_refuses_a_non_finite_update(monkeypatch, bad):
    calls = []

    def corrupted(*args, **kwargs):
        report, grads = backward(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            grads.params[-1] = bad
        return report, grads

    monkeypatch.setattr(harness, "backward", corrupted)
    with pytest.raises(ValueError) as err:
        run_pretrain(tiny_cfg())
    assert str(err.value) == "non-finite update at pretraining step 2"


def test_only_fine_tune_steps_go_through_apply_update(monkeypatch, pretrained):
    # pretraining shares the staged step under another name, so whatever
    # wraps ``apply_update`` sees one call per fine-tune step and none else
    cfg, splits, _, _ = pretrained
    calls = []
    apply_update = masking.apply_update

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_update(*args, **kwargs)

    monkeypatch.setattr(harness, "apply_update", counted)
    monkeypatch.setattr(masking, "apply_update", counted)
    model = run_pretrain(cfg, splits=splits)[0]
    assert calls == []
    record = run_finetune(cfg, model, splits=splits)
    assert len(calls) == record.step == len(record.steps) == 16


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


def test_adjacent_seeds_do_not_share_shuffles(monkeypatch, pretrained):
    # while epoch e shuffled from make_rng(seed + offset + e), seed 1's first
    # epoch replayed seed 0's second
    _, splits, model, _ = pretrained
    orders = []

    def recorded(*args, _real=harness._batches):
        batches = _real(*args)
        orders.append(np.concatenate(batches))
        return batches

    monkeypatch.setattr(harness, "_batches", recorded)
    for seed in (0, 1):
        run_finetune(tiny_cfg(seed), model, splits=splits)
    seed0_epoch1, seed1_epoch0 = orders[1], orders[2]
    assert len(orders) == 4 and not np.array_equal(seed1_epoch0, seed0_epoch1)


def test_forced_zero_layer_stays_at_initialization(monkeypatch, pretrained):
    cfg, splits, model, _ = pretrained
    reference = derive_model(model, split=cfg.decomposition)
    zero_layers(monkeypatch, (3,))
    record = run_finetune(cfg, model, splits=splits)
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


# "slm-off" is the selective layer mask off: every layer in the budget
@pytest.mark.parametrize(
    "change, zeroed", [({}, ()), ({"mask.active_layer_budget": 8}, ()), ({}, (2,))],
    ids=["default", "slm-off", "forced-zero"]
)
def test_replay_reproduces_every_mask(monkeypatch, pretrained, change, zeroed):
    _, splits, model, _ = pretrained
    cfg = tiny_cfg(**change)
    rows = capture_gradients(monkeypatch)
    zero_layers(monkeypatch, zeroed)
    record = run_finetune(cfg, model, splits=splits)
    rebuilt = replay_masks(record, cfg, 8, rows)
    assert len(rebuilt) == len(record.steps) == 16
    for got, want in zip(rebuilt, recorded_masks(record)):
        assert np.array_equal(got, want)


def test_replay_reads_the_recorded_warmup(monkeypatch, pretrained):
    cfg, splits, model, _ = pretrained
    rows = capture_gradients(monkeypatch)
    record = run_finetune(cfg, model, splits=splits)
    recorded = recorded_masks(record)
    # no warmup_steps configured: one epoch of 128 / 16 steps
    assert record.warmup_steps == 8
    # the warmup is read from the record, not re-derived from the config's
    # epoch count
    for replay_cfg in (cfg, tiny_cfg(**{"optimizer.epochs": 1})):
        rebuilt = replay_masks(record, replay_cfg, 8, rows)
        assert all(np.array_equal(got, want) for got, want in zip(rebuilt, recorded))
    record.warmup_steps = 0
    rebuilt = replay_masks(record, cfg, 8, rows)
    assert not all(np.array_equal(got, want) for got, want in zip(rebuilt, recorded))


def test_replay_rejects_another_layer_count(monkeypatch, pretrained):
    cfg, splits, model, _ = pretrained
    rows = capture_gradients(monkeypatch)
    record = run_finetune(cfg, model, splits=splits)
    with pytest.raises(ValueError, match="replay asked for 24 layers, the run has 8"):
        replay_masks(record, cfg, 24, rows)


# 8 steps per epoch and 16 in all; the warmup ends mid-epoch, at step 5
MID_WARMUP = {"mask.warmup_steps": 5}
RESUME_AT = (0, 5, 8, 11, 16)
RUN_FILES = ("train_log.csv", "finetuned.ckpt", "metrics.csv")


def snapshots(cfg, model, splits, out_dir=None, **arm):
    """One uninterrupted run, with a copy of its state after each step
    count in RESUME_AT."""
    snaps = {}

    def keep(state):
        if state.step in RESUME_AT:
            snaps[state.step] = copy_state(state)

    record = run_finetune(cfg, model, out_dir=out_dir, splits=splits, on_step=keep, **arm)
    return record, snaps


def same_files(a, b):
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in RUN_FILES)


@pytest.mark.parametrize(
    "change, arm", [({}, {}), ({"mask.active_layer_budget": 8}, {}), ({}, {"masft": False})],
    ids=["default", "slm-off", "masft-off"]
)
def test_a_resumed_run_ends_byte_identical_to_an_uninterrupted_one(monkeypatch, tmp_path, pretrained, change, arm):
    _, splits, model, _ = pretrained
    cfg = tiny_cfg(**MID_WARMUP, **change)
    rows = capture_gradients(monkeypatch)
    _, snaps = snapshots(cfg, model, splits, tmp_path / "whole", **arm)
    whole_rows = rows.copy()
    assert sorted(snaps) == list(RESUME_AT)
    assert len(whole_rows) == 16
    for k, snap in snaps.items():
        rows.clear()
        out = tmp_path / f"from{k}"
        start = StartCores()
        resumed = run_finetune(cfg, snap, out_dir=out, splits=splits, on_step=start, **arm)
        assert same_files(out, tmp_path / "whole"), k
        assert start.cores == semantic_cores(snaps[0].model)
        # steps k+1..16 see the uninterrupted run's gradients, bit for bit
        assert len(rows) == 16 - k
        assert all(g.tobytes() == w.tobytes() for g, w in zip(rows, whole_rows[k:])), k
        # and the prefix's rows with the resumed ones replay to its masks
        rebuilt = replay_masks(resumed, cfg, 8, whole_rows[:k] + rows)
        assert len(rebuilt) == 16
        assert all(np.array_equal(g, w) for g, w in zip(rebuilt, recorded_masks(resumed))), k


def assert_copied(copy, source, where: str) -> None:
    """Every array field of the dataclass ``source``, of its optimizer state
    and stats, and every array in each of its lists, has the same bytes in
    ``copy`` and shares no memory with it; no list is shared.  The fields
    are read from the dataclass, so one that the copy forgets fails here."""
    for f in fields(source):
        got, want, name = getattr(copy, f.name), getattr(source, f.name), f"{where}.{f.name}"
        if isinstance(want, (masking.OptimizerState, masking.GradientStats)):
            assert_copied(got, want, name)
        items = [(name, got, want)]
        if isinstance(want, list):
            assert got is not want and len(got) == len(want), name
            items = [(f"{name}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
        for at, g, w in items:
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), at
                assert not np.shares_memory(g, w), at


def test_a_snapshot_copies_every_array_of_the_state(pretrained):
    _, splits, model, _ = pretrained
    states = []
    run_finetune(tiny_cfg(**MID_WARMUP), model, splits=splits,
                 on_step=lambda state: states.append(copy_state(state)) if state.step == 7 else None)
    state = states[0]
    assert len(state.steps) == 7
    assert state.opt.layer_m is not None
    snap = copy_state(state)
    assert type(snap) is FinetuneState
    assert_copied(snap, state, "state")
    assert snap.model.layout is state.model.layout
    assert snap.model.params.tobytes() == state.model.params.tobytes()
    assert not np.shares_memory(snap.model.params, state.model.params)
    assert snap.steps == state.steps and all(a is not b for a, b in zip(snap.steps, state.steps))
    assert snap.config == state.config and snap.config is not state.config


def test_a_resumed_run_leaves_its_snapshot_untouched(pretrained):
    _, splits, model, _ = pretrained
    cfg = tiny_cfg(**MID_WARMUP)
    _, snaps = snapshots(cfg, model, splits)
    snap = snaps[11]
    before = pickle.dumps(snap)
    resumed = run_finetune(cfg, snap, splits=splits)
    resumed.model.params[...] += 1.0
    resumed.opt.layer_m += 1.0
    resumed.opt.layer_step[0] += 5
    resumed.steps[0].cls = -1.0
    resumed.steps[0].mask_bits = "0" * 8
    resumed.steps.clear()
    assert pickle.dumps(snap) == before


# each setting acts from its step: the loss weights from the first step,
# the layer budget (every layer's, with the selective mask off) after the warmup
@pytest.mark.parametrize("k, change, arm", [
    (5, {"mask.active_layer_budget": 2}, {}),
    (5, {"mask.active_layer_budget": 8}, {}),
    (0, {"weights.orth_weight": 0.0, "weights.spectral_weight": 0.0}, {}),
], ids=["budget-at-warmup-edge", "slm-off-at-warmup-edge", "weights-at-step-0"])
def test_a_state_resumes_under_settings_that_have_not_acted_yet(tmp_path, pretrained, k, change, arm):
    _, splits, model, _ = pretrained
    _, snaps = snapshots(tiny_cfg(**MID_WARMUP), model, splits)
    other = tiny_cfg(**MID_WARMUP, **change)
    run_finetune(other, model, out_dir=tmp_path / "fresh", splits=splits, **arm)
    run_finetune(other, snaps[k], out_dir=tmp_path / "forked", splits=splits, **arm)
    assert same_files(tmp_path / "fresh", tmp_path / "forked")


@pytest.mark.parametrize("k, change, arm, key", [
    (6, {"mask.active_layer_budget": 2}, {}, "budget"),
    (6, {"mask.active_layer_budget": 8}, {}, "budget"),
    (1, {"weights.orth_weight": 0.0}, {}, "weights.orth_weight"),
    (0, {"optimizer.learning_rate": 1e-3}, {}, "optimizer.learning_rate"),
    (5, {"mask.warmup_steps": 4}, {}, "mask.warmup_steps"),
    (0, {"decomposition.n_subspaces": 3}, {}, "decomposition.n_subspaces"),
    (0, {}, {"masft": False}, "masft"),
])
def test_resuming_under_a_setup_that_shaped_the_state_otherwise_is_a_value_error(pretrained, k, change, arm, key):
    _, splits, model, _ = pretrained
    snap = None

    def keep(state):
        nonlocal snap
        if state.step == k:
            snap = copy_state(state)

    run_finetune(tiny_cfg(**MID_WARMUP), model, splits=splits, on_step=keep)
    with pytest.raises(ValueError, match=rf"^cannot resume: the state after {k} steps was made with {key} ") as info:
        run_finetune(tiny_cfg(**{**MID_WARMUP, **change}), snap, splits=splits, **arm)
    assert "\n" not in str(info.value)


def test_semantic_subspace_bytes_frozen_through_finetune(pretrained):
    cfg, splits, model, _ = pretrained
    reference = derive_model(model, split=cfg.decomposition)
    expected = [semantic_to_bytes(getattr(b, n)) for _, b, n in attention_slots(reference)]
    start = StartCores()
    record = run_finetune(cfg, model, splits=splits, on_step=start)
    after = [semantic_to_bytes(getattr(b, n)) for _, b, n in attention_slots(record.model)]
    assert start.cores == expected
    assert after == expected


def test_masft_off_trains_plain_attention(pretrained):
    cfg, splits, model, _ = pretrained
    start = StartCores()
    record = run_finetune(cfg, model, masft=False, splits=splits, on_step=start)
    assert not record.model.decomposed
    assert start.cores == []
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


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_robustness_holds_one_cell_at_a_time(tmp_path):
    cfg = config_from_dict({})
    model = init_model(cfg.model, make_rng(0))
    model = derive_model(model, head=binary_head(model, make_rng(1)), split=cfg.decomposition)
    clean = _traced_peak(lambda: eval_split(model, build_splits(cfg.data, ("test_in",)).test_in))
    grid = _traced_peak(lambda: run_robustness(cfg, model, tmp_path))
    # scoring the clean split already holds it, its embedding and a row
    # block's activations; the grid may add about one cell (and the cell
    # being made), never all 25
    cell_bytes = cfg.data.n_test * cfg.data.n_tokens * cfg.data.d_model * 8
    assert grid - clean < 3 * cell_bytes, (grid, clean, cell_bytes)


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


def test_ablation_tables_are_paired_draws_on_their_own_seeds(tmp_path, monkeypatch):
    # at one usable CPU every table runs in this process, where the calls are recorded
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seeds = {"build_splits": [], "run_pretrain": [], "run_finetune": [], "_run_cell": []}
    arm_keywords = []
    open_runs = []
    for name in seeds:
        def recorded(cfg, *args, _name=name, _real=getattr(harness, name), **kwargs):
            seeds[_name].append(cfg.seed)
            if _name == "run_finetune":
                arm_keywords.append("masft" in kwargs)
            open_runs.append(_name)
            try:
                return _real(cfg, *args, **kwargs)
            finally:
                open_runs.pop()

        monkeypatch.setattr(harness, name, recorded)

    def stepped(*args, _real=harness.apply_update):
        assert "run_finetune" in open_runs, "a fine-tune step ran outside run_finetune"
        return _real(*args)

    monkeypatch.setattr(harness, "apply_update", stepped)
    # K and the budget both sit on their grids, so each table has the run's arm
    cfg = tiny_cfg(**{"decomposition.n_subspaces": 3})
    tables = {p.stem: p.read_text().splitlines()[1:] for p in run_ablation(cfg, tmp_path)}
    # one set of splits and one backbone per table, both from the table's
    # seed, and every cell of the table fine-tunes under that seed
    table_seeds = [harness._table_seed(cfg.seed, t) for t in range(4)]
    assert seeds["build_splits"] == seeds["run_pretrain"] == table_seeds
    # one _run_cell and one run_finetune, with the arm as keywords, per
    # distinct arm: all 4, 4 and 5, and 3 of the 5 budgets (m_effective 1, 4, 8)
    distinct_arms = [4, 4, 5, 3]
    per_arm = [seed for seed, n in zip(table_seeds, distinct_arms) for _ in range(n)]
    assert seeds["run_finetune"] == seeds["_run_cell"] == per_arm
    assert all(arm_keywords)

    def metrics(table, *key):
        prefix = ",".join(key) + ","
        (row,) = [r for r in tables[table] if r.startswith(prefix)]
        return row[len(prefix):]

    # within a table only the arm differs: the budget rows that all keep every
    # layer active are one arm, and arms that differ score differently
    unmasked = metrics("budget", "16", "8")
    assert unmasked.endswith(",ok")
    assert [metrics("budget", m, "8") for m in ("48", "96")] == [unmasked] * 2
    full = metrics("components", "1", "1")
    assert full.endswith(",ok")
    assert metrics("components", "0", "0") != full
    # the tables are separate draws: the run's own arm scores differently in each
    own_arm = [full, metrics("losses", "1.0", "1.0"), metrics("subspaces", "3"),
               metrics("budget", "4", "4")]
    assert len(set(own_arm)) == 4


def test_ablation_tables_do_not_replay_another_seeds_tables():
    # while table t ran on seed + t * 10**12, seed 10**12's first table was
    # seed 0's second
    seeds = {harness._table_seed(base, t) for base in (0, 1, 10**12) for t in range(4)}
    assert len(seeds) == 12 and seeds.isdisjoint({0, 1, 10**12})


class InjectedFault(Exception):
    pass


def ablation_rows(paths):
    """table -> each row's text after its key columns"""
    rows = {}
    for p in paths:
        header, *lines = p.read_text().splitlines()
        n_keys = header.split(",").index("auc_in")
        rows[p.stem] = [",".join(line.split(",")[n_keys:]) for line in lines]
    return rows


def statuses(rows):
    return {table: [r.split(",")[-1] for r in lines] for table, lines in rows.items()}


SUBSPACES = ["ok"] * 4 + ["error:ValueError"]  # K=9 leaves no rank at d_model 8


def test_a_failed_shared_warmup_fails_its_whole_family(tmp_path, monkeypatch):
    def failing(bvg, budget, step, warmup, _real=harness.build_mask):
        if budget == 1:  # the budget table's first arm runs its family's warmup
            raise InjectedFault("injected")
        return _real(bvg, budget, step, warmup)

    monkeypatch.setattr(harness, "build_mask", failing)
    rows = ablation_rows(run_ablation(tiny_cfg(**MID_WARMUP), tmp_path))
    assert rows["budget"] == [",,,,,,,error:InjectedFault"] * 5
    assert statuses(rows) == {"components": ["ok"] * 4, "losses": ["ok"] * 4, "subspaces": SUBSPACES,
                              "budget": ["error:InjectedFault"] * 5}


def test_a_failure_after_the_fork_marks_only_its_own_arm(tmp_path, monkeypatch, capsys):
    cfg = tiny_cfg(**MID_WARMUP)
    clean = ablation_rows(run_ablation(cfg, tmp_path / "clean"))
    capsys.readouterr()

    def failing(bvg, budget, step, warmup, _real=harness.build_mask):
        mask = _real(bvg, budget, step, warmup)
        if budget == 1 and mask.bits.sum() == 1:  # past the warmup of the budget-1 arm
            raise InjectedFault("injected")
        return mask

    monkeypatch.setattr(harness, "build_mask", failing)
    rows = ablation_rows(run_ablation(cfg, tmp_path / "faulty"))
    assert capsys.readouterr().err.splitlines().count("ablation cell budget[m=1] failed: injected") == 1
    assert rows["budget"][0] == ",,,,,,,error:InjectedFault"
    assert rows["budget"][1:] == clean["budget"][1:]
    assert {t: r for t, r in rows.items() if t != "budget"} == {t: r for t, r in clean.items() if t != "budget"}


def test_a_failed_decomposition_fails_exactly_the_arms_that_use_it(tmp_path):
    rows = ablation_rows(run_ablation(tiny_cfg(**MID_WARMUP, **{"decomposition.n_subspaces": 9}), tmp_path))
    error = "error:ValueError"
    assert statuses(rows) == {"components": [error, error, "ok", "ok"], "losses": [error] * 4,
                              "subspaces": SUBSPACES, "budget": [error] * 5}


def test_ablation_writes_every_table_when_pretraining_fails(tmp_path, capsys):
    cfg = tiny_cfg(**{"pretrain.max_epochs": 1, "pretrain.accuracy_floor": 1.0})
    paths = run_ablation(cfg, tmp_path)
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" failed: ")[0] for line in err] == [
        f"ablation pretraining for {table}" for table in ("components", "losses", "subspaces", "budget")
    ]
    assert [p.name for p in paths] == ["components.csv", "losses.csv", "subspaces.csv", "budget.csv"]
    rows = [r.split(",") for p in paths for r in p.read_text().splitlines()[1:]]
    assert len(rows) == 18
    assert all(r[-1] == "error:RuntimeError" and r[-8:-1] == [""] * 7 for r in rows)


def test_inspect_fresh_decomposition(pretrained):
    cfg, _, model, _ = pretrained
    rows = decompose_inspect(model, cfg.decomposition)
    assert len(rows) == 8
    from subtune.decomposition import DecompositionConfig, split_ranks
    from subtune.linalg import svd

    reference = clone_model(model)
    derived = derive_model(model, split=cfg.decomposition)
    for row, (_, block, name), (_, d_block, d_name) in zip(rows, attention_slots(reference), attention_slots(derived)):
        assert row.orth <= 1e-9
        assert row.spec <= 1e-9
        assert row.semantic_rank + sum(row.artifact_ranks) == row.total_rank
        # the semantic share of the whole spectrum, semantic and artifact parts
        layer = getattr(d_block, d_name)
        energies = [float(np.sum(part.s**2)) for part in (layer.semantic, *layer.artifacts)]
        assert row.energy_semantic == pytest.approx(energies[0] / sum(energies), abs=1e-12)
        s = svd(getattr(block, name), name).s
        want = split_ranks(s, DecompositionConfig(n_subspaces=2))[0]
        assert row.semantic_rank == want
