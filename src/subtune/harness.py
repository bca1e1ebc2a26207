"""Experiment orchestration: pretrain the full model on base classes,
fine-tune the decomposed attention under the masking optimizer, evaluate
frame- and video-level metrics, and drive the ablation and robustness grids.

Every run is a pure function of (config, seed): the init, the head and each
epoch's shuffle draw from their own keyed streams of the seed, the cells of
an ablation table fine-tune one backbone on one set of splits, and result
CSVs round to 6 decimals.
Both phases step one ``masking.OptimizerState``.  A fine-tune starts from
a ``FinetuneState``, fresh or taken after k steps, so arms that share a
prefix run it once, and its ``RunRecord`` is that state run to the end.
Wall-clock time appears only in the run summary, never in a CSV.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import save_model
from .config import TrainConfig, config_to_dict
from .data import FAMILIES, LEVELS, Split, SplitBundle, build_splits
from .decomposition import semantic_to_bytes
from .files import write_csv, write_file
from .linalg import make_rng
from .masking import (
    GradientStats,
    LayerMask,
    OptimizerState,
    StatsConfig,
    apply_update,
    build_mask,
    compute_bvg,
    init_optimizer,
    init_stats,
    staged_step,
    update_stats,
)
from .model import (
    Model,
    attention_slots,
    backward,
    clone_model,
    decompose_attention,
    init_model,
    predict,
    reset_head,
)

# stream keys, above the data streams': make_rng(seed, key[, epoch])
_INIT_STREAM, _HEAD_STREAM, _PRETRAIN_SHUFFLE, _FINETUNE_SHUFFLE, _TABLE_STREAM = 100, 101, 102, 103, 104

# fresh binary head starts near zero so the adaptive steps, whose total
# travel is bounded by lr x step count, dominate the random init quickly
_HEAD_INIT_SCALE = 0.05

# the splits each stage reads
_PRETRAIN_SPLITS = ("pretrain_train", "pretrain_test")
_TEST_SPLITS = ("test_in", "test_heldout")
_FINETUNE_SPLITS = ("finetune_train",) + _TEST_SPLITS


def _fmt(x: float) -> str:
    return f"{x:.6f}"


@dataclass
class EvalReport:
    frame_auc: float
    frame_ap: float
    frame_eer: float
    video_auc: float
    video_ap: float
    video_eer: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("frame_auc", "frame_ap", "frame_eer", "video_auc", "video_ap", "video_eer")}


@dataclass
class StepLog:
    step: int
    epoch: int
    cls: float
    orth_mean: float
    spec_mean: float
    total: float
    popcount: int
    mask_bits: str


@dataclass
class FinetuneState:
    """What a fine-tune carries from one step to the next: the model, the
    optimizer state, the EMA gradient stats, the number of steps taken
    (the epoch and the batch within it follow from it and the config's
    batch size), and the steps, masks and gradients logged so far.
    ``config``, ``masft``, ``budget`` (the effective layer budget) and
    ``forced_zero`` are the set-up that shaped it, held against the run
    that resumes it."""

    model: Model
    opt: OptimizerState
    stats: GradientStats
    step: int
    steps: list[StepLog]
    mask_log: list[np.ndarray]
    gradient_log: list[np.ndarray]
    config: dict
    masft: bool
    budget: int
    forced_zero: tuple[int, ...]


@dataclass
class RunRecord(FinetuneState):
    """A fine-tune's state, live while it runs and final once it returns,
    plus what the run adds: the warmup its mask rule reads, the semantic
    bytes it started from, the evaluation, the wall-clock time and the
    files written."""

    warmup_steps: int
    semantic_start: list[bytes]
    metrics: dict[str, EvalReport] = field(default_factory=dict)
    wall_clock: float = 0.0
    out_files: list[Path] = field(default_factory=list)


def copy_state(state: FinetuneState) -> FinetuneState:
    """A copy of ``state`` that shares no writeable array or list with it
    (``clone_model`` shares the read-only semantic parts)."""
    return copy.deepcopy(state, {id(state.model): clone_model(state.model)})


def _require_binary_head(model: Model) -> None:
    """Scoring reads one fake-probability per sample; refuse a pretraining
    checkpoint before any data is built."""
    if model.n_outputs != 1:
        raise ValueError(
            f"scoring needs a fine-tuned checkpoint with a 1-output binary head; "
            f"this model's head has {model.n_outputs} outputs (a pretraining checkpoint?)"
        )


def _require_fit(cfg: TrainConfig, model: Model) -> None:
    """Refuse a model of another token grid or block count than the run
    config's, whose mask budget counts its layers, before any data is built."""
    have, want = model.config, cfg.model
    if (have.d_model, have.n_tokens) != (want.d_model, want.n_tokens):
        raise ValueError(f"the checkpoint's model has d_model {have.d_model} and n_tokens {have.n_tokens}, "
                         f"but the run config has d_model {want.d_model} and n_tokens {want.n_tokens}")
    if have.n_blocks != want.n_blocks:
        raise ValueError(f"the checkpoint's model has n_blocks {have.n_blocks}, "
                         f"but the run config has n_blocks {want.n_blocks}")


def eval_split(model: Model, split: Split) -> EvalReport:
    frame = metrics_mod.ScoredSet(scores=predict(model, split.tokens), labels=split.labels, group_ids=split.clip_id)
    video = metrics_mod.video_level(frame, pool="mean")
    return EvalReport(
        frame_auc=metrics_mod.auc(frame),
        frame_ap=metrics_mod.average_precision(frame),
        frame_eer=metrics_mod.eer(frame),
        video_auc=metrics_mod.auc(video),
        video_ap=metrics_mod.average_precision(video),
        video_eer=metrics_mod.eer(video),
    )


def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def pretrain_accuracy(model: Model, split: Split) -> float:
    got = predict(model, split.tokens).argmax(axis=1)
    return float(np.mean(got == split.base_class))


def run_pretrain(
    cfg: TrainConfig, out_dir: str | Path | None = None, splits: SplitBundle | None = None
) -> tuple[Model, float, Path | None]:
    """Full-model training on the base classes until the accuracy floor or
    the epoch cap.  Returns (model, base accuracy, checkpoint path)."""
    if splits is None:
        splits = build_splits(cfg.data, _PRETRAIN_SPLITS)
    model = init_model(cfg.model, make_rng(cfg.seed, _INIT_STREAM))
    train, test = splits.pretrain_train, splits.pretrain_test
    opt = init_optimizer("adaptive", cfg.pretrain.learning_rate, model)
    every_row = np.arange(model.trainable.shape[0])
    epochs_run = 0
    for epoch in range(cfg.pretrain.max_epochs):
        rng = make_rng(cfg.seed, _PRETRAIN_SHUFFLE, epoch)
        for batch in _batches(len(train), cfg.pretrain.batch_size, rng):
            _, grads = backward(model, train.tokens[batch], train.base_class[batch])
            staged_step(model, grads, every_row, opt, f"pretraining step {opt.rest_step + 1}")
        epochs_run = epoch + 1
        acc = pretrain_accuracy(model, test)
        if acc >= cfg.pretrain.accuracy_floor:
            break
    if cfg.pretrain.max_epochs == 0:  # otherwise every epoch has scored the model
        acc = pretrain_accuracy(model, test)
    elif acc < cfg.pretrain.accuracy_floor:
        raise RuntimeError(
            f"pretraining reached base accuracy {acc:.3f} after {epochs_run} epochs, "
            f"below the floor {cfg.pretrain.accuracy_floor}; try an easier data "
            f"configuration (lower noise_level, fewer base classes, or more samples)"
        )
    path = None
    if out_dir is not None:
        path = Path(out_dir) / "pretrained.ckpt"
        save_model(path, model, step=opt.rest_step, config_echo=config_to_dict(cfg))
    return model, acc, path


def _evaluate(model: Model, splits: SplitBundle) -> dict[str, EvalReport]:
    return {"in_domain": eval_split(model, splits.test_in), "heldout": eval_split(model, splits.test_heldout)}


def _mask_rule(cfg: TrainConfig, record: RunRecord, stats: GradientStats) -> Callable[[int, np.ndarray], LayerMask]:
    """The selective layer mask of ``record``'s run as a function of (step,
    gradient rows); it advances the EMA ``stats``, so each step is fed
    once, in order.  The live run and its replay both build their masks
    here."""
    stats_cfg = StatsConfig(ema_coeff=cfg.stats.ema_coeff, moment_floor=cfg.stats.moment_floor,
                            warmup_steps=record.warmup_steps)
    forced_zero = np.asarray(record.forced_zero, dtype=np.intp)

    def rule(step: int, grad_rows: np.ndarray) -> LayerMask:
        update_stats(stats, grad_rows, stats_cfg)
        mask = build_mask(compute_bvg(stats, stats_cfg), record.budget, step, stats_cfg)
        mask.bits[forced_zero] = 0
        return mask

    return rule


def _schedule(cfg: TrainConfig, n_train: int) -> tuple[int, int, int]:
    """(steps per epoch, warmup steps, total steps) of a fine-tune over
    ``n_train`` rows; the warmup defaults to one epoch."""
    per_epoch = (n_train + cfg.optimizer.batch_size - 1) // cfg.optimizer.batch_size
    warmup = cfg.mask.warmup_steps if cfg.mask.warmup_steps is not None else per_epoch
    return per_epoch, warmup, per_epoch * cfg.optimizer.epochs


def _prefix(config: dict, masft: bool, budget: int, forced_zero: tuple[int, ...], n_steps: int,
            warmup: int) -> dict:
    """What decides a fine-tune's state after ``n_steps`` steps, as a flat
    dict of dotted keys: the run config and arm, less the loss weights
    before the first step (they act through the gradients) and less the
    layer budget up to the warmup edge (every layer is active until then)."""
    flat = {"steps": n_steps, "masft": masft, "forced_zero": list(forced_zero)}
    for section, value in config.items():
        if isinstance(value, dict):
            flat.update((f"{section}.{name}", v) for name, v in value.items())
        else:
            flat[section] = value
    del flat["mask.active_layer_budget"]
    if n_steps > warmup:
        flat["budget"] = budget
    if n_steps == 0:
        flat = {k: v for k, v in flat.items() if not k.startswith("weights.")}
    return flat


def _fresh_state(cfg: TrainConfig, pretrained: Model, masft: bool, budget: int,
                 forced_zero: tuple[int, ...]) -> FinetuneState:
    """Step 0: a clone of ``pretrained`` under a fresh binary head, its
    attention decomposed (unless the decomposition arm is off), with a zero
    optimizer and zero stats."""
    model = clone_model(pretrained)
    # the new head repacks the model's buffer; a plain model repacks for a
    # fraction of what a decomposed one costs
    reset_head(model, 1, make_rng(cfg.seed, _HEAD_STREAM), scale=_HEAD_INIT_SCALE)
    if masft:
        # the run config's split, not the one the checkpoint was saved with
        model.config.decomposition = copy.deepcopy(cfg.decomposition)
        decompose_attention(model)
    return FinetuneState(
        model=model, opt=init_optimizer(cfg.optimizer.mode, cfg.optimizer.learning_rate, model),
        stats=init_stats([row.size for row in model.trainable]), step=0, steps=[], mask_log=[], gradient_log=[],
        config=config_to_dict(cfg), masft=masft, budget=budget, forced_zero=forced_zero,
    )


def _resumed_state(cfg: TrainConfig, state: FinetuneState, masft: bool, budget: int,
                   forced_zero: tuple[int, ...], warmup: int, log_gradients: bool) -> FinetuneState:
    """A copy of ``state`` to continue under this run's set-up, which must
    agree with every part of the set-up that shaped its steps so far."""
    have = _prefix(state.config, state.masft, state.budget, state.forced_zero, state.step, warmup)
    want = _prefix(config_to_dict(cfg), masft, budget, forced_zero, state.step, warmup)
    for key in sorted(have.keys() | want.keys()):
        if have.get(key) != want.get(key):
            raise ValueError(f"cannot resume: the state after {state.step} steps was made with "
                             f"{key} {have.get(key)!r}, this run has {want.get(key)!r}")
    if log_gradients and len(state.gradient_log) != state.step:
        raise ValueError(f"cannot log gradients from a state whose {state.step} steps were run without them")
    state = copy_state(state)
    state.config, state.budget = config_to_dict(cfg), budget
    if not log_gradients:
        state.gradient_log = []
    return state


def run_finetune(
    cfg: TrainConfig,
    start: Model | FinetuneState,
    *,
    out_dir: str | Path | None = None,
    masft: bool = True,
    slm: bool = True,
    forced_zero: tuple[int, ...] = (),
    log_gradients: bool = False,
    splits: SplitBundle | None = None,
    on_step: Callable[[FinetuneState], None] | None = None,
) -> RunRecord:
    """Run the masked fine-tuning loop to the end of the config's epochs
    and evaluate the in-domain and heldout splits.  ``start`` is a plain
    pretrained model, which gets a fresh binary head and its attention
    decomposed (unless the decomposition arm is switched off), or a
    ``FinetuneState`` taken after k steps, which is copied and continued
    at step k + 1 by rebuilding the epoch's batch order and skipping the
    batches already taken.  The returned ``RunRecord`` is the run's own
    state: ``on_step`` sees it live before the first step and after every
    step; keep it with ``copy_state``."""
    t0 = time.perf_counter()
    resuming = isinstance(start, FinetuneState)
    model = start.model if resuming else start
    if not resuming and model.decomposed:
        raise ValueError("expected a plain pretrained model")
    _require_fit(cfg, model)
    n_layers = model.config.n_decomposable
    for lid in forced_zero:
        if not 0 <= lid < n_layers:
            raise ValueError(f"forced_zero layer id {lid} is outside [0, {n_layers})")
    forced_zero = tuple(forced_zero)
    budget = cfg.mask.active_layer_budget if slm else n_layers
    if splits is None:
        splits = build_splits(cfg.data, _FINETUNE_SPLITS)
    train = splits.finetune_train
    per_epoch, warmup, _ = _schedule(cfg, len(train))
    if resuming:
        state = _resumed_state(cfg, start, masft, budget, forced_zero, warmup, log_gradients)
    else:
        state = _fresh_state(cfg, start, masft, budget, forced_zero)
    model = state.model
    semantic_start = [
        semantic_to_bytes(getattr(block, name)) for _, block, name in attention_slots(model)
    ] if model.decomposed else []
    record = RunRecord(**{f.name: getattr(state, f.name) for f in fields(FinetuneState)},
                       warmup_steps=warmup, semantic_start=semantic_start)
    mask_rule = _mask_rule(cfg, record, record.stats)
    if on_step is not None:
        on_step(record)
    first_epoch, taken = divmod(record.step, per_epoch)
    for epoch in range(first_epoch, cfg.optimizer.epochs):
        rng = make_rng(cfg.seed, _FINETUNE_SHUFFLE, epoch)
        for batch in _batches(len(train), cfg.optimizer.batch_size, rng)[taken:]:
            step = record.step + 1
            report, grads = backward(model, train.tokens[batch], train.labels[batch], cfg.weights)
            mask = mask_rule(step, grads.trainable)
            apply_update(model, grads, mask, record.opt)
            record.step = step
            bits_str = "".join(str(int(b)) for b in mask.bits)
            record.steps.append(
                StepLog(
                    step=step, epoch=epoch, cls=report.cls, orth_mean=report.orth_mean,
                    spec_mean=report.spec_mean, total=report.total,
                    popcount=int(mask.bits.sum()), mask_bits=bits_str,
                )
            )
            record.mask_log.append(mask.bits.copy())
            if log_gradients:
                record.gradient_log.append(grads.trainable.copy())
            if on_step is not None:
                on_step(record)
        taken = 0

    record.metrics = _evaluate(model, splits)
    record.wall_clock = time.perf_counter() - t0
    if out_dir is not None:
        _write_finetune_artifacts(record, Path(out_dir))
    return record


def replay_masks(record: RunRecord, cfg: TrainConfig, n_layers: int) -> list[np.ndarray]:
    """Rebuild every mask offline from the logged gradients through the
    live run's own mask rule, so every arm (budget, ``slm`` off,
    ``forced_zero``) is reproduced from its record.  ``cfg`` supplies the
    stats section; ``n_layers`` must be the run's layer count."""
    if not record.gradient_log:
        raise ValueError("run was recorded without gradient logging")
    run_layers = record.model.trainable.shape[0]
    if n_layers != run_layers:
        raise ValueError(f"replay asked for {n_layers} layers, the run has {run_layers}")
    mask_rule = _mask_rule(cfg, record, init_stats([row.size for row in record.model.trainable]))
    return [mask_rule(step, rows).bits for step, rows in enumerate(record.gradient_log, start=1)]


def _write_finetune_artifacts(record: RunRecord, out: Path) -> None:
    train_log = out / "train_log.csv"
    write_csv(
        train_log,
        ["step", "epoch", "cls", "orth_mean", "spec_mean", "total", "popcount", "mask_bits"],
        ([s.step, s.epoch, _fmt(s.cls), _fmt(s.orth_mean), _fmt(s.spec_mean), _fmt(s.total),
          s.popcount, s.mask_bits] for s in record.steps),
    )
    metrics_csv = out / "metrics.csv"
    _write_metrics_csv(metrics_csv, record.metrics)
    summary = out / "summary.json"
    payload = {
        "config": record.config,
        "steps": record.step,
        "metrics": {k: v.as_dict() for k, v in record.metrics.items()},
        "wall_clock_seconds": record.wall_clock,
    }
    write_file(summary, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())
    ckpt = out / "finetuned.ckpt"
    save_model(ckpt, record.model, step=record.step, config_echo=record.config)
    record.out_files = [train_log, metrics_csv, summary, ckpt]


def _write_metrics_csv(path: Path, reports: dict[str, EvalReport]) -> None:
    rows = []
    for split in sorted(reports):
        r = reports[split]
        rows.append([split, "frame", _fmt(r.frame_auc), _fmt(r.frame_ap), _fmt(r.frame_eer)])
        rows.append([split, "video", _fmt(r.video_auc), _fmt(r.video_ap), _fmt(r.video_eer)])
    write_csv(path, ["split", "level", "auc", "ap", "eer"], rows)


def evaluate_to_dir(cfg: TrainConfig, model: Model, out_dir: str | Path) -> Path:
    _require_binary_head(model)
    _require_fit(cfg, model)
    reports = _evaluate(model, build_splits(cfg.data, _TEST_SPLITS))
    path = Path(out_dir) / "metrics.csv"
    _write_metrics_csv(path, reports)
    return path


# --- ablation grids -------------------------------------------------------

_K_GRID = (1, 3, 5, 7, 9)
_M_GRID = (1, 4, 16, 48, 96)


def _table_seed(seed: int, table: int) -> int:
    """The seed of ablation table ``table``, a 63-bit draw from the run
    seed's own table stream: the tables of nearby seeds are independent
    draws, not offsets of one another."""
    return int(make_rng(seed, _TABLE_STREAM, table).integers(2**63))


def _cell_config(cfg: TrainConfig, seed: int, **overrides) -> TrainConfig:
    cell = copy.deepcopy(cfg)
    cell.seed = seed
    for dotted, value in overrides.items():
        section, name = dotted.split(".")
        setattr(getattr(cell, section), name, value)
    return cell.finalize()


def _run_cell(cfg: TrainConfig, masft: bool, slm: bool, start: Model | FinetuneState, splits: SplitBundle,
              on_step: Callable[[FinetuneState], None] | None = None) -> dict[str, float]:
    record = run_finetune(cfg, start, masft=masft, slm=slm, splits=splits, on_step=on_step)
    r_in, r_out = record.metrics["in_domain"], record.metrics["heldout"]
    return {
        "auc_in": r_in.frame_auc, "ap_in": r_in.frame_ap, "eer_in": r_in.frame_eer,
        "auc_heldout": r_out.frame_auc, "ap_heldout": r_out.frame_ap, "eer_heldout": r_out.frame_eer,
        "auc_mean": 0.5 * (r_in.frame_auc + r_out.frame_auc),
    }


_METRIC_COLS = ("auc_in", "ap_in", "eer_in", "auc_heldout", "ap_heldout", "eer_heldout", "auc_mean")


def _write_table(path: Path, key_cols: tuple[str, ...], rows: list[dict]) -> None:
    lines = []
    for row in rows:
        line = [row[k] for k in key_cols]
        if row["status"] == "ok":
            line += [_fmt(row[m]) for m in _METRIC_COLS]
        else:
            line += [""] * len(_METRIC_COLS)
        line.append(row["status"])
        lines.append(line)
    write_csv(path, list(key_cols) + list(_METRIC_COLS) + ["status"], lines)


@dataclass
class _Arm:
    """A runnable cell of an ablation table: its config and arm, the row
    its results go to, and its prefix keys ``(steps, key)``, shallowest
    first, the last one covering the whole run."""

    name: str
    row: dict
    cfg: TrainConfig
    masft: bool
    slm: bool
    prefixes: list[tuple[int, str]]


def _arm(name: str, row: dict, cfg: TrainConfig, masft: bool, slm: bool, n_train: int) -> _Arm:
    """The arm's prefixes are its step-0 state, its warmup edge and its
    whole run; two arms share a prefix when its keys are equal."""
    _, warmup, total = _schedule(cfg, n_train)
    budget = cfg.mask.active_layer_budget if slm else cfg.model.n_decomposable
    config = config_to_dict(cfg)
    prefixes = [(n, json.dumps(_prefix(config, masft, budget, (), n, warmup), sort_keys=True))
                for n in sorted({0, min(warmup, total), total})]
    return _Arm(name, row, cfg, masft, slm, prefixes)


def _fail(table: str, name: str, row: dict, exc: Exception) -> None:
    row["status"] = f"error:{type(exc).__name__}"
    print(f"ablation cell {table}[{name}] failed: {exc}", file=sys.stderr)


def _run_arms(table: str, arms: list[_Arm], backbone: Model, splits: SplitBundle) -> None:
    """Fill the arms' rows in order, computing what they share once.  An
    arm whose whole run equals an earlier arm's copies that arm's row,
    status included.  Any other arm is one ``_run_cell``, started from the
    deepest prefix it shares with an earlier arm (the step-0 state of a
    decomposition, or a budget family's warmup), which the earlier arm
    snapshotted on its way; an arm that failed before reaching such a
    prefix fails every arm that would start from it."""
    seen: set[str] = set()
    starts: list[str | None] = []
    users: Counter = Counter()  # arms still to start from each prefix
    for arm in arms:
        keys = [key for _, key in arm.prefixes]
        shared = [key for key in keys if key in seen]
        starts.append(shared[-1] if shared else None)
        if shared and shared[-1] != keys[-1]:
            users[shared[-1]] += 1
        seen.update(keys)
    results: dict[str, dict] = {}  # whole-run key -> metrics and status
    saved: dict[str, FinetuneState | Exception] = {}
    for arm, start in zip(arms, starts):
        whole = arm.prefixes[-1][1]
        if whole in results:
            arm.row.update(results[whole])
            continue
        origin: Model | FinetuneState | Exception = backbone
        if start is not None:
            origin = saved[start]
            users[start] -= 1
            if not users[start]:
                del saved[start]  # a snapshot lives only until its last arm starts
        keep = {n: key for n, key in arm.prefixes[:-1] if users[key] and key not in saved}

        def snapshot(state: FinetuneState) -> None:
            if state.step in keep:
                saved[keep[state.step]] = copy_state(state)

        try:
            if isinstance(origin, Exception):
                raise origin
            arm.row.update(_run_cell(arm.cfg, arm.masft, arm.slm, origin, splits, snapshot), status="ok")
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            for key in keep.values():
                saved.setdefault(key, exc)
            _fail(table, arm.name, arm.row, exc)
        results[whole] = {k: v for k, v in arm.row.items() if k in _METRIC_COLS or k == "status"}


def run_ablation(cfg: TrainConfig, out_dir: str | Path) -> list[Path]:
    """Four fixed grids: component on/off, loss-weight on/off, subspace-count
    sweep, and active-budget sweep.  Each table is one paired draw: its cells
    fine-tune one backbone, pretrained on one set of splits, under the table's
    own seed (``_table_seed``), and share what they compute alike
    (``_run_arms``).  Failures are recorded in the status column and the
    sweep continues."""
    out = Path(out_dir)
    n_layers = cfg.model.n_decomposable
    # (table, key columns, cells); a cell is (name, key values, config
    # overrides, masft, slm), listed in the table's row order
    grids = [
        ("components", ("masft", "slm"), [
            (f"masft={masft},slm={slm}", (masft, slm), {}, bool(masft), bool(slm))
            for masft in (1, 0) for slm in (1, 0)
        ]),
        ("losses", ("orth_weight", "spec_weight"), [
            (f"orth={w1},spec={w2}", (w1, w2),
             {"weights.orth_weight": w1, "weights.spectral_weight": w2}, True, True)
            for w1 in (0.0, 1.0) for w2 in (0.0, 1.0)
        ]),
        ("subspaces", ("n_subspaces",), [
            (f"K={k}", (k,), {"decomposition.n_subspaces": k}, True, True) for k in _K_GRID
        ]),
        ("budget", ("m_requested", "m_effective"), [
            (f"m={m}", (m, min(m, n_layers)), {"mask.active_layer_budget": min(m, n_layers)}, True, True)
            for m in _M_GRID
        ]),
    ]
    paths = []
    for t, (table, key_cols, cells) in enumerate(grids):
        seed = _table_seed(cfg.seed, t)
        try:
            table_cfg = _cell_config(cfg, seed)
            splits = build_splits(table_cfg.data, _PRETRAIN_SPLITS + _FINETUNE_SPLITS)
            backbone, table_error = run_pretrain(table_cfg, splits=splits)[0], None
        except Exception as exc:  # noqa: BLE001 - the table is written regardless
            table_error = f"error:{type(exc).__name__}"
            print(f"ablation pretraining for {table} failed: {exc}", file=sys.stderr)
        rows = [dict(zip(key_cols, values), status=table_error) for _, values, *_ in cells]
        if table_error is None:
            arms = []
            for row, (name, _, overrides, masft, slm) in zip(rows, cells):
                try:
                    cell_cfg = _cell_config(cfg, seed, **overrides)
                    arms.append(_arm(name, row, cell_cfg, masft, slm, len(splits.finetune_train)))
                except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                    _fail(table, name, row, exc)
            _run_arms(table, arms, backbone, splits)
        path = out / f"{table}.csv"
        _write_table(path, key_cols, rows)
        paths.append(path)
    return paths


def run_robustness(cfg: TrainConfig, model: Model, out_dir: str | Path) -> Path:
    """Video-level AUC for every (family, level) perturbation of the in-domain
    test split, plus the clean baseline row."""
    _require_binary_head(model)
    _require_fit(cfg, model)
    splits = build_splits(cfg.data, ("test_in", "robustness"))
    rows = []
    clean = eval_split(model, splits.test_in)
    rows.append(("clean", 0, clean.video_auc))
    for family in FAMILIES:
        for level in LEVELS:
            cell = eval_split(model, splits.robustness[(family, level)])
            rows.append((family, level, cell.video_auc))
    rows.sort(key=lambda r: (r[0] != "clean", r[0], r[1]))
    path = Path(out_dir) / "robustness.csv"
    write_csv(path, ["family", "level", "video_auc"], ([family, level, _fmt(value)] for family, level, value in rows))
    print(f"clean video AUC {clean.video_auc:.4f}")
    for family in FAMILIES:
        series = [v for f, _, v in rows if f == family]
        arrow = "degrades" if series[-1] <= series[0] else "holds"
        print(f"{family}: " + " ".join(f"{v:.3f}" for v in series) + f" ({arrow} with level)")
    return path


@dataclass
class LayerReport:
    layer_id: int
    name: str
    total_rank: int
    semantic_rank: int
    artifact_ranks: list[int]
    energy_semantic: float
    energy_artifacts: list[float]
    orth: float
    spec: float


def decompose_inspect(model: Model) -> list[LayerReport]:
    """Per-layer view of a freshly decomposed (or loaded) model: rank split,
    cumulative energy at the semantic cut, and the init regularizer values."""
    from . import losses as losses_mod
    from .decomposition import energy_fractions

    if not model.decomposed:
        model = clone_model(model)
        decompose_attention(model)
    out = []
    for lid, block, name in attention_slots(model):
        layer = getattr(block, name)
        sem_share, art_shares = energy_fractions(layer)
        out.append(
            LayerReport(
                layer_id=lid,
                name=f"block{lid // 4}.{name}",
                total_rank=layer.total_rank,
                semantic_rank=layer.semantic_rank,
                artifact_ranks=list(layer.ranks),
                energy_semantic=sem_share,
                energy_artifacts=art_shares,
                orth=losses_mod.orth_loss(layer),
                spec=losses_mod.spec_loss(layer),
            )
        )
    return out
