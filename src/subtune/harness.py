"""Experiment orchestration: pretrain the full model on base classes,
fine-tune the decomposed attention under the masking optimizer, evaluate
frame- and video-level metrics, and drive the ablation and robustness grids.

Every run is a pure function of (config, seed): the init, the head and each
epoch's shuffle draw from their own keyed streams of the seed, the cells of
an ablation table fine-tune one backbone on one set of splits, and result
CSVs round to 6 decimals.  The ablation tables share nothing, so they run
on the caller and on forked workers, one per further usable CPU, and the
caller writes every byte in table order.
Both phases step one ``masking.OptimizerState``.  A fine-tune starts from
a ``FinetuneState``, fresh or taken after k steps, so cells that share a
prefix run it once, and its ``RunRecord`` is that state run to the end.
Wall-clock time appears only in the run summary, never in a CSV.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import json
import os
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import save_model
from .config import TrainConfig, config_to_dict
from .data import FAMILIES, Split, SplitBundle, build_splits, robustness_cells
from .decomposition import DecompositionConfig
from .files import write_csv, write_file
from .linalg import make_rng
from .masking import (
    GradientStats,
    LayerMask,
    OptimizerState,
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
    _usable_cpus,
    attention_slots,
    backward,
    clone_model,
    derive_model,
    init_model,
    predict,
    stop_pool,
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
    batch size), and the steps logged so far, each with its mask.
    ``config`` (its layer budget included) and ``masft`` are the set-up
    that shaped it, held against the run that resumes it."""

    model: Model
    opt: OptimizerState
    stats: GradientStats
    step: int
    steps: list[StepLog]
    config: dict
    masft: bool


@dataclass
class RunRecord(FinetuneState):
    """A fine-tune's state, live while it runs and final once it returns,
    plus what the run adds: the warmup its mask rule reads, the evaluation,
    the wall-clock time and the files written."""

    warmup_steps: int
    metrics: dict[str, EvalReport] = field(default_factory=dict)
    wall_clock: float = 0.0
    out_files: list[Path] = field(default_factory=list)


def copy_state(state: FinetuneState) -> FinetuneState:
    """A copy of ``state``'s ``FinetuneState`` fields that shares no
    writeable array or list with it: the model cloned (sharing only its
    read-only layout), the optimizer and stats arrays, the step log and
    the config copied."""
    opt, stats = state.opt, state.stats
    moments = {name: getattr(opt, name).copy() for name in ("layer_m", "layer_v", "rest_m", "rest_v")}
    return FinetuneState(**{f.name: getattr(state, f.name) for f in fields(FinetuneState)} | dict(
        model=clone_model(state.model),
        opt=replace(opt, layer_step=list(opt.layer_step), **moments),
        stats=replace(stats, first=stats.first.copy(), second=stats.second.copy()),
        steps=[replace(log) for log in state.steps],
        config=copy.deepcopy(state.config),
    ))


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
    video = metrics_mod.video_level(frame)
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
    opt = init_optimizer(cfg.pretrain.learning_rate, model)
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
    once, in order.  The live run builds every mask here, and so does the
    tests' offline replay."""

    def rule(step: int, grad_rows: np.ndarray) -> LayerMask:
        update_stats(stats, grad_rows, cfg.stats)
        return build_mask(compute_bvg(stats, cfg.stats), cfg.mask.active_layer_budget, step, record.warmup_steps)

    return rule


def _schedule(cfg: TrainConfig, n_train: int) -> tuple[int, int, int]:
    """(steps per epoch, warmup steps, total steps) of a fine-tune over
    ``n_train`` rows; the warmup defaults to one epoch."""
    per_epoch = (n_train + cfg.optimizer.batch_size - 1) // cfg.optimizer.batch_size
    warmup = cfg.mask.warmup_steps if cfg.mask.warmup_steps is not None else per_epoch
    return per_epoch, warmup, per_epoch * cfg.optimizer.epochs


def _prefix(config: dict, masft: bool, n_steps: int, warmup: int) -> dict:
    """What decides a fine-tune's state after ``n_steps`` steps, as a flat
    dict of dotted keys: the run config and arm, less the loss weights
    before the first step (they act through the gradients) and less the
    layer budget up to the warmup edge (every layer is active until then)."""
    flat = {"steps": n_steps, "masft": masft}
    for section, value in config.items():
        if isinstance(value, dict):
            flat.update((f"{section}.{name}", v) for name, v in value.items())
        else:
            flat[section] = value
    budget = flat.pop("mask.active_layer_budget")
    if n_steps > warmup:
        flat["budget"] = budget
    if n_steps == 0:
        flat = {k: v for k, v in flat.items() if not k.startswith("weights.")}
    return flat


def _fresh_state(cfg: TrainConfig, pretrained: Model, masft: bool) -> FinetuneState:
    """Step 0: ``pretrained`` under a fresh binary head, its attention
    decomposed under the run config's split (unless the decomposition arm
    is off), packed into one new buffer, with a zero optimizer and zero
    stats."""
    head = make_rng(cfg.seed, _HEAD_STREAM).normal(scale=_HEAD_INIT_SCALE, size=(1, pretrained.config.d_model))
    model = derive_model(pretrained, head=head, split=cfg.decomposition if masft else None)
    return FinetuneState(
        model=model, opt=init_optimizer(cfg.optimizer.learning_rate, model),
        stats=init_stats(model.trainable.shape), step=0, steps=[],
        config=config_to_dict(cfg), masft=masft,
    )


def _resumed_state(cfg: TrainConfig, state: FinetuneState, masft: bool, warmup: int) -> FinetuneState:
    """A copy of ``state`` to continue under this run's set-up, which must
    agree with every part of the set-up that shaped its steps so far."""
    have = _prefix(state.config, state.masft, state.step, warmup)
    want = _prefix(config_to_dict(cfg), masft, state.step, warmup)
    for key in sorted(have.keys() | want.keys()):
        if have.get(key) != want.get(key):
            raise ValueError(f"cannot resume: the state after {state.step} steps was made with "
                             f"{key} {have.get(key)!r}, this run has {want.get(key)!r}")
    state = copy_state(state)
    state.config = config_to_dict(cfg)
    return state


def run_finetune(
    cfg: TrainConfig,
    start: Model | FinetuneState,
    *,
    out_dir: str | Path | None = None,
    masft: bool = True,
    splits: SplitBundle | None = None,
    on_step: Callable[[FinetuneState], None] | None = None,
) -> RunRecord:
    """Run the masked fine-tuning loop to the end of the config's epochs
    and evaluate the in-domain and heldout splits; past the warmup the
    mask keeps ``mask.active_layer_budget`` layers.  ``start`` is a plain
    pretrained model, which gets a fresh binary head and its attention
    decomposed under the config's split (unless ``masft`` is off), or a
    ``FinetuneState`` taken after k steps, which is copied and continued
    at step k + 1 by rebuilding the epoch's batch order and skipping the
    batches already taken.  The returned ``RunRecord`` is the run's own
    state: ``on_step`` sees it live before the first step, where a caller
    reads what the run starts from, and after every step; keep it with
    ``copy_state``."""
    t0 = time.perf_counter()
    resuming = isinstance(start, FinetuneState)
    model = start.model if resuming else start
    if not resuming and model.decomposed:
        raise ValueError("expected a plain pretrained model")
    _require_fit(cfg, model)
    if splits is None:
        splits = build_splits(cfg.data, _FINETUNE_SPLITS)
    train = splits.finetune_train
    per_epoch, warmup, _ = _schedule(cfg, len(train))
    if resuming:
        state = _resumed_state(cfg, start, masft, warmup)
    else:
        state = _fresh_state(cfg, start, masft)
    model = state.model
    record = RunRecord(**{f.name: getattr(state, f.name) for f in fields(FinetuneState)}, warmup_steps=warmup)
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
            if on_step is not None:
                on_step(record)
        taken = 0

    record.metrics = _evaluate(model, splits)
    record.wall_clock = time.perf_counter() - t0
    if out_dir is not None:
        _write_finetune_artifacts(record, Path(out_dir))
    return record


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


class _Cell(NamedTuple):
    """A cell of an ablation table: its name in failure lines, the values
    of the table's key columns, its dotted config overrides and its arm."""

    name: str
    key: tuple
    overrides: dict
    masft: bool = True


_Table = tuple[str, tuple[str, ...], list[_Cell]]


def _ablation_tables(n_layers: int) -> list[_Table]:
    """The four tables as (name, key columns, cells in row order):
    component on/off, loss-weight on/off, subspace-count sweep and
    active-budget sweep, whose budget is capped at the ``n_layers``
    decomposable layers.  A component cell with the selective layer mask
    off gives every layer the budget."""
    return [
        ("components", ("masft", "slm"), [
            _Cell(f"masft={masft},slm={slm}", (masft, slm),
                  {} if slm else {"mask.active_layer_budget": n_layers}, bool(masft))
            for masft in (1, 0) for slm in (1, 0)
        ]),
        ("losses", ("orth_weight", "spec_weight"), [
            _Cell(f"orth={w1},spec={w2}", (w1, w2), {"weights.orth_weight": w1, "weights.spectral_weight": w2})
            for w1 in (0.0, 1.0) for w2 in (0.0, 1.0)
        ]),
        ("subspaces", ("n_subspaces",), [
            _Cell(f"K={k}", (k,), {"decomposition.n_subspaces": k}) for k in _K_GRID
        ]),
        ("budget", ("m_requested", "m_effective"), [
            _Cell(f"m={m}", (m, min(m, n_layers)), {"mask.active_layer_budget": min(m, n_layers)})
            for m in _M_GRID
        ]),
    ]


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


def _run_cell(cfg: TrainConfig, masft: bool, start: Model | FinetuneState, splits: SplitBundle,
              on_step: Callable[[FinetuneState], None] | None = None) -> dict[str, float]:
    record = run_finetune(cfg, start, masft=masft, splits=splits, on_step=on_step)
    r_in, r_out = record.metrics["in_domain"], record.metrics["heldout"]
    return {
        "auc_in": r_in.frame_auc, "ap_in": r_in.frame_ap, "eer_in": r_in.frame_eer,
        "auc_heldout": r_out.frame_auc, "ap_heldout": r_out.frame_ap, "eer_heldout": r_out.frame_eer,
        "auc_mean": 0.5 * (r_in.frame_auc + r_out.frame_auc),
    }


_METRIC_COLS = ("auc_in", "ap_in", "eer_in", "auc_heldout", "ap_heldout", "eer_heldout", "auc_mean")


def _write_table(path: Path, key_cols: tuple[str, ...], cells: list[_Cell], results: list[dict]) -> None:
    lines = []
    for cell, result in zip(cells, results):
        line = list(cell.key)
        if result["status"] == "ok":
            line += [_fmt(result[m]) for m in _METRIC_COLS]
        else:
            line += [""] * len(_METRIC_COLS)
        line.append(result["status"])
        lines.append(line)
    write_csv(path, list(key_cols) + list(_METRIC_COLS) + ["status"], lines)


def _failed(failures: list[str], table: str, name: str, exc: Exception) -> dict:
    failures.append(f"ablation cell {table}[{name}] failed: {exc}")
    return {"status": f"error:{type(exc).__name__}"}


def _run_table(cfg: TrainConfig, t: int, table: str, cells: list[_Cell]) -> tuple[list[dict], list[str]]:
    """The metrics and status of each cell of table ``t``, in order, and
    the stderr lines of its failures, which the caller prints.  The
    cells fine-tune one backbone, pretrained on one set of splits under
    the table's own seed (``_table_seed``), and compute what they share
    once.  A cell is its config overrides (its layer budget among them)
    and its ``masft`` arm.  Its prefixes are its step-0 state, its warmup
    edge and its whole run; two cells share a prefix when its keys are equal.  A cell
    whose whole run equals an earlier cell's copies that cell's result.
    Any other cell is one ``_run_cell``, started from the deepest prefix
    it shares with an earlier cell, which that cell snapshotted on its
    way; a cell that failed before reaching such a prefix fails every cell
    that would start from it."""
    seed = _table_seed(cfg.seed, t)
    failures: list[str] = []
    try:
        table_cfg = _cell_config(cfg, seed)
        splits = build_splits(table_cfg.data, _PRETRAIN_SPLITS + _FINETUNE_SPLITS)
        backbone = run_pretrain(table_cfg, splits=splits)[0]
    except Exception as exc:  # noqa: BLE001 - the table is written regardless
        failures.append(f"ablation pretraining for {table} failed: {exc}")
        return [{"status": f"error:{type(exc).__name__}"}] * len(cells), failures
    results: list[dict] = [{} for _ in cells]
    plan = []  # (cell index, config, prefixes as (steps, key) shallowest first, start key)
    seen: set[str] = set()
    users: Counter = Counter()  # cells still to start from each prefix
    for i, cell in enumerate(cells):
        try:
            cell_cfg = _cell_config(cfg, seed, **cell.overrides)
            _, warmup, total = _schedule(cell_cfg, len(splits.finetune_train))
            config = config_to_dict(cell_cfg)
            prefixes = [(n, json.dumps(_prefix(config, cell.masft, n, warmup), sort_keys=True))
                        for n in sorted({0, min(warmup, total), total})]
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            results[i] = _failed(failures, table, cell.name, exc)
            continue
        shared = [key for _, key in prefixes if key in seen]
        start = shared[-1] if shared else None
        if shared and start != prefixes[-1][1]:
            users[start] += 1
        seen.update(key for _, key in prefixes)
        plan.append((i, cell_cfg, prefixes, start))
    done: dict[str, dict] = {}  # whole-run key -> result
    saved: dict[str, FinetuneState | Exception] = {}
    for i, cell_cfg, prefixes, start in plan:
        cell, whole = cells[i], prefixes[-1][1]
        if whole in done:
            results[i] = done[whole]
            continue
        origin: Model | FinetuneState | Exception = backbone
        if start is not None:
            origin = saved[start]
            users[start] -= 1
            if not users[start]:
                del saved[start]  # a snapshot lives only until its last cell starts
        keep = {n: key for n, key in prefixes[:-1] if users[key] and key not in saved}

        def snapshot(state: FinetuneState) -> None:
            if state.step in keep:
                saved[keep[state.step]] = copy_state(state)

        try:
            if isinstance(origin, Exception):
                raise origin
            result = _run_cell(cell_cfg, cell.masft, origin, splits, snapshot) | {"status": "ok"}
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            for key in keep.values():
                saved.setdefault(key, exc)
            result = _failed(failures, table, cell.name, exc)
        results[i] = done[whole] = result
    return results, failures


def _end_with(parent: int) -> None:
    """Have the kernel kill this process when ``parent`` ends (Linux's
    ``PR_SET_PDEATHSIG``): a caller killed by a signal runs no ``finally``,
    and its workers would run on until their tables were done.  Where
    there is no ``prctl``, they do."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to open
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent ended before the request was made
        os._exit(1)


def _fork_runner(cfg: TrainConfig, tables: list[_Table], i: int, n: int,
                 others: list[BinaryIO]) -> tuple[int, int, BinaryIO]:
    """Fork the runner of tables i, i + n, ...: it ends when the caller
    does (``_end_with``), closes every pipe end but its own write end
    (``others`` are the read ends of the runners forked before it), writes
    the ``_run_table`` outcome of each of its tables as one JSON list and
    ends with ``os._exit``, 0 once everything is written.  Returns (i, its
    pid, the read end of its pipe)."""
    caller = os.getpid()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            _end_with(caller)
            os.close(read)
            for pipe in others:
                pipe.close()
            outcomes = [_run_table(cfg, t, table, cells)
                        for t, (table, _, cells) in enumerate(tables) if t % n == i]
            with os.fdopen(write, "wb") as pipe:
                pipe.write(json.dumps(outcomes).encode())
            status = 0
        finally:
            os._exit(status)  # no caller frame, exit handler or stdio buffer runs in the child
    os.close(write)
    return i, pid, os.fdopen(read, "rb")


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count get and set calls of the OpenBLAS this process has
    loaded, found through ``/proc/self/maps`` under the names of the
    scipy-openblas, 64-bit-integer and plain builds; None where there is
    no such library or map."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for library in libraries:
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _run_tables(cfg: TrainConfig, tables: list[_Table]) -> list[tuple[list[dict], list[str]]]:
    """The ``_run_table`` outcome of each table, in table order, from
    n = min(tables, usable CPUs) runners.  The caller runs tables
    t = 0 (mod n), and each of n - 1 workers, forked first, runs tables
    t = i (mod n) and sends their outcomes back as JSON, which
    round-trips every float exactly.  The tables share nothing, so each
    outcome is the one a serial run makes.  A fork copies only the forking
    thread, so the workers are forked only from a process with one thread:
    ``predict``'s pool is stopped first, and if any other thread is alive
    the tables run serially.  With more than one runner, OpenBLAS runs one thread in
    each, since every CPU already has a runner (its threads change no
    byte); its thread count is restored on the way out.  A worker that
    ends other than with status 0 fails the run; on every way out, each
    worker still running is killed, and every worker is reaped."""
    n = min(len(tables), _usable_cpus()) if hasattr(os, "fork") else 1
    if n > 1:
        stop_pool()
        if threading.active_count() > 1:
            n = 1
    blas = _openblas_threads() if n > 1 else None
    blas_threads = blas[0]() if blas is not None else 1
    outcomes: list = [None] * len(tables)
    workers: list[tuple[int, int, BinaryIO]] = []  # (i, pid, read end), until reaped
    try:
        if blas is not None:
            blas[1](1)
        for i in range(1, n):
            workers.append(_fork_runner(cfg, tables, i, n, [pipe for _, _, pipe in workers]))
        for t in range(0, len(tables), n):
            table, _, cells = tables[t]
            outcomes[t] = _run_table(cfg, t, table, cells)
        while workers:
            i, pid, pipe = workers[0]
            sent = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            pipe.close()
            if status != 0:
                names = ", ".join(table for table, _, _ in tables[i::n])
                ended = f"exit status {status}" if status > 0 else f"signal {-status}"
                raise RuntimeError(f"the ablation worker for tables {names} ended with {ended}")
            outcomes[i::n] = json.loads(sent)
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if blas is not None:
            blas[1](blas_threads)
    return outcomes


def run_ablation(cfg: TrainConfig, out_dir: str | Path) -> list[Path]:
    """The four tables of ``_ablation_tables``, each one paired draw run by
    ``_run_table``, on up to as many runners as usable CPUs
    (``_run_tables``).  Failures are recorded in the status column and
    the sweep continues.  Every table's CSV and stderr lines are written
    here, in table order, so every byte is the one a serial run writes."""
    paths = []
    tables = _ablation_tables(cfg.model.n_decomposable)
    for (table, key_cols, cells), (results, failures) in zip(tables, _run_tables(cfg, tables)):
        for line in failures:
            print(line, file=sys.stderr)
        path = Path(out_dir) / f"{table}.csv"
        _write_table(path, key_cols, cells, results)
        paths.append(path)
    return paths


def run_robustness(cfg: TrainConfig, model: Model, out_dir: str | Path) -> Path:
    """Video-level AUC for every (family, level) perturbation of the in-domain
    test split, plus the clean baseline row.  Only one cell is held at a
    time."""
    _require_binary_head(model)
    _require_fit(cfg, model)
    test_in = build_splits(cfg.data, ("test_in",)).test_in
    clean = eval_split(model, test_in)
    rows = [("clean", 0, clean.video_auc)]
    for (family, level), cell in robustness_cells(cfg.data, test_in):
        rows.append((family, level, eval_split(model, cell).video_auc))
        del cell  # dropped before the next cell is made
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
    orth: float
    spec: float


def decompose_inspect(model: Model, split: DecompositionConfig) -> list[LayerReport]:
    """Per-layer view of a freshly decomposed (or loaded) model: rank split,
    cumulative energy at the semantic cut, and the init regularizer values.
    A plain model is split under ``split``, as ``run_finetune`` splits it
    under its run config's; a decomposed one is read as it stands."""
    from . import losses as losses_mod
    from .decomposition import energy_fractions

    if not model.decomposed:
        model = derive_model(model, split=split)
    out = []
    for lid, block, name in attention_slots(model):
        layer = getattr(block, name)
        out.append(
            LayerReport(
                layer_id=lid,
                name=f"block{lid // 4}.{name}",
                total_rank=layer.total_rank,
                semantic_rank=layer.semantic_rank,
                artifact_ranks=list(layer.ranks),
                energy_semantic=energy_fractions(layer),
                orth=losses_mod.orth_loss(layer),
                spec=losses_mod.spec_loss(layer),
            )
        )
    return out
