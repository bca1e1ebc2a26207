import json
import pickle

import numpy as np
import pytest

from split_checks import SAMPLE_SPLITS
from subtune import harness, masking
from subtune.checkpoint import load_model, save_model
from subtune.config import config_from_dict
from subtune.data import build_splits
from subtune.decomposition import semantic_to_bytes
from subtune.harness import (
    copy_state,
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
    backward,
    clone_model,
    decompose_attention,
    init_model,
    projection_param_vector,
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
    with pytest.raises(ValueError) as err, np.errstate(over="ignore"):
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


# 8 steps per epoch and 16 in all; the warmup ends mid-epoch, at step 5
MID_WARMUP = {"mask.warmup_steps": 5}
RESUME_AT = (0, 5, 8, 11, 16)
RUN_FILES = ("train_log.csv", "finetuned.ckpt", "metrics.csv")


def snapshots(cfg, model, splits, out_dir=None, **arm):
    """One uninterrupted run, logging gradients, with a copy of its state
    after each step count in RESUME_AT."""
    snaps = {}

    def keep(state):
        if state.step in RESUME_AT:
            snaps[state.step] = copy_state(state)

    record = run_finetune(cfg, model, out_dir=out_dir, log_gradients=True, splits=splits, on_step=keep, **arm)
    return record, snaps


def same_files(a, b):
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in RUN_FILES)


@pytest.mark.parametrize(
    "arm", [{}, {"slm": False}, {"masft": False}], ids=["default", "slm-off", "masft-off"]
)
def test_a_resumed_run_ends_byte_identical_to_an_uninterrupted_one(tmp_path, pretrained, arm):
    _, splits, model, _ = pretrained
    cfg = tiny_cfg(**MID_WARMUP)
    whole, snaps = snapshots(cfg, model, splits, tmp_path / "whole", **arm)
    assert sorted(snaps) == list(RESUME_AT)
    for k, snap in snaps.items():
        out = tmp_path / f"from{k}"
        resumed = run_finetune(cfg, snap, out_dir=out, log_gradients=True, splits=splits, **arm)
        assert same_files(out, tmp_path / "whole"), k
        assert resumed.semantic_start == whole.semantic_start
        for log in ("mask_log", "gradient_log"):
            got, want = getattr(resumed, log), getattr(whole, log)
            assert len(got) == len(want) == 16
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (k, log)
        rebuilt = replay_masks(resumed, cfg, n_layers=8)
        assert len(rebuilt) == 16
        assert all(np.array_equal(g, w) for g, w in zip(rebuilt, resumed.mask_log)), k


def test_a_resumed_run_leaves_its_snapshot_untouched(pretrained):
    _, splits, model, _ = pretrained
    cfg = tiny_cfg(**MID_WARMUP)
    _, snaps = snapshots(cfg, model, splits)
    snap = snaps[11]
    before = pickle.dumps(snap)
    resumed = run_finetune(cfg, snap, log_gradients=True, splits=splits)
    resumed.model.params += 1.0
    resumed.opt.layer_m += 1.0
    resumed.opt.layer_step[0] += 5
    resumed.steps[0].cls = -1.0
    resumed.mask_log[0][:] = 0
    resumed.gradient_log[0][:] = 0
    resumed.steps.clear()
    assert pickle.dumps(snap) == before


# each setting acts from its step: the loss weights from the first step,
# the layer budget (and so ``slm``) after the warmup
@pytest.mark.parametrize("k, change, arm", [
    (5, {"mask.active_layer_budget": 2}, {}),
    (5, {}, {"slm": False}),
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
    (6, {}, {"slm": False}, "budget"),
    (1, {"weights.orth_weight": 0.0}, {}, "weights.orth_weight"),
    (0, {"optimizer.learning_rate": 1e-3}, {}, "optimizer.learning_rate"),
    (5, {"mask.warmup_steps": 4}, {}, "mask.warmup_steps"),
    (0, {"decomposition.n_subspaces": 3}, {}, "decomposition.n_subspaces"),
    (0, {}, {"masft": False}, "masft"),
    (1, {}, {"forced_zero": (2,)}, "forced_zero"),
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


def test_gradient_logging_resumes_only_a_logged_prefix(pretrained):
    _, splits, model, _ = pretrained
    cfg = tiny_cfg(**MID_WARMUP)
    snaps = {}
    run_finetune(cfg, model, splits=splits, on_step=lambda state: snaps.setdefault(state.step, copy_state(state)))
    # nothing was logged at step 0, so a fresh state logs from the start
    run_finetune(cfg, snaps[0], log_gradients=True, splits=splits)
    with pytest.raises(ValueError, match="cannot log gradients from a state whose 5 steps were run without them"):
        run_finetune(cfg, snaps[5], log_gradients=True, splits=splits)


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


def test_ablation_tables_are_paired_draws_on_their_own_seeds(tmp_path, monkeypatch):
    seeds = {"build_splits": [], "run_pretrain": [], "run_finetune": [], "_run_cell": []}
    arm_keywords = []
    open_runs = []
    for name in seeds:
        def recorded(cfg, *args, _name=name, _real=getattr(harness, name), **kwargs):
            seeds[_name].append(cfg.seed)
            if _name == "run_finetune":
                arm_keywords.append({"masft", "slm"} <= kwargs.keys())
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
    def failing(model, grads, mask, opt, _real=harness.apply_update):
        if mask.budget == 1:  # the budget table's first arm runs its family's warmup
            raise InjectedFault("injected")
        return _real(model, grads, mask, opt)

    monkeypatch.setattr(harness, "apply_update", failing)
    rows = ablation_rows(run_ablation(tiny_cfg(**MID_WARMUP), tmp_path))
    assert rows["budget"] == [",,,,,,,error:InjectedFault"] * 5
    assert statuses(rows) == {"components": ["ok"] * 4, "losses": ["ok"] * 4, "subspaces": SUBSPACES,
                              "budget": ["error:InjectedFault"] * 5}


def test_a_failure_after_the_fork_marks_only_its_own_arm(tmp_path, monkeypatch):
    cfg = tiny_cfg(**MID_WARMUP)
    clean = ablation_rows(run_ablation(cfg, tmp_path / "clean"))

    def failing(model, grads, mask, opt, _real=harness.apply_update):
        if mask.budget == 1 and mask.bits.sum() == 1:  # past the warmup of the budget-1 arm
            raise InjectedFault("injected")
        return _real(model, grads, mask, opt)

    monkeypatch.setattr(harness, "apply_update", failing)
    rows = ablation_rows(run_ablation(cfg, tmp_path / "faulty"))
    assert rows["budget"][0] == ",,,,,,,error:InjectedFault"
    assert rows["budget"][1:] == clean["budget"][1:]
    assert {t: r for t, r in rows.items() if t != "budget"} == {t: r for t, r in clean.items() if t != "budget"}


def test_a_failed_decomposition_fails_exactly_the_arms_that_use_it(tmp_path):
    rows = ablation_rows(run_ablation(tiny_cfg(**MID_WARMUP, **{"decomposition.n_subspaces": 9}), tmp_path))
    error = "error:ValueError"
    assert statuses(rows) == {"components": [error, error, "ok", "ok"], "losses": [error] * 4,
                              "subspaces": SUBSPACES, "budget": [error] * 5}


def test_ablation_writes_every_table_when_pretraining_fails(tmp_path):
    cfg = tiny_cfg(**{"pretrain.max_epochs": 1, "pretrain.accuracy_floor": 1.0})
    paths = run_ablation(cfg, tmp_path)
    assert [p.name for p in paths] == ["components.csv", "losses.csv", "subspaces.csv", "budget.csv"]
    rows = [r.split(",") for p in paths for r in p.read_text().splitlines()[1:]]
    assert len(rows) == 18
    assert all(r[-1] == "error:RuntimeError" and r[-8:-1] == [""] * 7 for r in rows)


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
