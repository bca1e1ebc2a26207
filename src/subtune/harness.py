"""Experiment orchestration: pretrain the full model on base classes,
fine-tune the decomposed attention under the masking optimizer, evaluate
frame- and video-level metrics, and drive the ablation and robustness grids.

Every run is a pure function of (config, seed): shuffles, inits, and grid
cells draw from fixed offset streams, and result CSVs round to 6 decimals.
Wall-clock time appears only in the run summary, never in a CSV.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import save_model
from .config import TrainConfig, config_to_dict
from .data import FAMILIES, LEVELS, SplitBundle, SyntheticSample, build_splits, labels_of, stack_tokens
from .decomposition import semantic_to_bytes
from .linalg import make_rng
from .masking import (
    LayerMask,
    OptimizerState,
    StatsConfig,
    adaptive_step,
    apply_update,
    build_mask,
    compute_bvg,
    init_optimizer,
    init_stats,
    update_stats,
)
from .model import (
    Model,
    attention_slots,
    backward,
    clone_model,
    decompose_attention,
    flat_vector,
    init_model,
    predict,
    reset_head,
    set_flat,
    trainable_arrays,
)

_INIT_STREAM = 900_000_000
_HEAD_STREAM = 910_000_000
_PRETRAIN_SHUFFLE = 920_000_000
_FINETUNE_SHUFFLE = 930_000_000

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
class RunRecord:
    config: dict
    steps: list[StepLog]
    metrics: dict[str, EvalReport]
    wall_clock: float
    model: Model
    # what the mask rule reads besides the gradients and the stats config
    warmup_steps: int
    budget: int
    forced_zero: tuple[int, ...] = ()
    mask_log: list[np.ndarray] = field(default_factory=list)
    # each step's gradient rows (``Gradients.trainable``)
    gradient_log: list[np.ndarray] = field(default_factory=list)
    semantic_start: list[bytes] = field(default_factory=list)
    out_files: list[Path] = field(default_factory=list)
    opt: OptimizerState | None = None


def _scored(model: Model, samples: list[SyntheticSample]) -> metrics_mod.ScoredSet:
    return metrics_mod.ScoredSet(
        scores=predict(model, stack_tokens(samples)),
        labels=labels_of(samples),
        group_ids=np.array([s.clip_id for s in samples]),
    )


def _require_binary_head(model: Model) -> None:
    """Scoring reads one fake-probability per sample; refuse a pretraining
    checkpoint before any data is built."""
    if model.n_outputs != 1:
        raise ValueError(
            f"scoring needs a fine-tuned checkpoint with a 1-output binary head; "
            f"this model's head has {model.n_outputs} outputs (a pretraining checkpoint?)"
        )


def eval_split(model: Model, samples: list[SyntheticSample]) -> EvalReport:
    frame = _scored(model, samples)
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


def pretrain_accuracy(model: Model, samples: list[SyntheticSample]) -> float:
    probs = predict(model, stack_tokens(samples))
    got = probs.argmax(axis=1)
    want = np.array([s.base_class for s in samples])
    return float(np.mean(got == want))


def run_pretrain(
    cfg: TrainConfig, out_dir: str | Path | None = None, splits: SplitBundle | None = None
) -> tuple[Model, float, Path | None]:
    """Full-model training on the base classes until the accuracy floor or
    the epoch cap.  Returns (model, base accuracy, checkpoint path)."""
    if splits is None:
        splits = build_splits(cfg.data, _PRETRAIN_SPLITS)
    model = init_model(cfg.model, make_rng(cfg.seed + _INIT_STREAM))
    train, test = splits.pretrain_train, splits.pretrain_test
    params = trainable_arrays(model, "full")
    theta = flat_vector(params)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    opt = OptimizerState(mode="adaptive", learning_rate=cfg.pretrain.learning_rate)
    step = 0
    acc = pretrain_accuracy(model, test)
    epochs_run = 0
    for epoch in range(cfg.pretrain.max_epochs):
        rng = make_rng(cfg.seed + _PRETRAIN_SHUFFLE + epoch)
        for batch in _batches(len(train), cfg.pretrain.batch_size, rng):
            x = stack_tokens([train[i] for i in batch])
            y = np.array([train[i].base_class for i in batch])
            _, grads = backward(model, x, y)
            step += 1
            theta, m, v = adaptive_step(
                theta, flat_vector(trainable_arrays(model, "full", grads)), m, v, step, opt
            )
            set_flat(params, theta)
        epochs_run = epoch + 1
        acc = pretrain_accuracy(model, test)
        if acc >= cfg.pretrain.accuracy_floor:
            break
    if cfg.pretrain.max_epochs > 0 and acc < cfg.pretrain.accuracy_floor:
        raise RuntimeError(
            f"pretraining reached base accuracy {acc:.3f} after {epochs_run} epochs, "
            f"below the floor {cfg.pretrain.accuracy_floor}; try an easier data "
            f"configuration (lower noise_level, fewer base classes, or more samples)"
        )
    path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "pretrained.ckpt"
        save_model(path, model, step=step, config_echo=config_to_dict(cfg))
    return model, acc, path


def _evaluate(model: Model, splits: SplitBundle) -> dict[str, EvalReport]:
    return {"in_domain": eval_split(model, splits.test_in), "heldout": eval_split(model, splits.test_heldout)}


def _mask_rule(cfg: TrainConfig, record: RunRecord) -> Callable[[int, np.ndarray], LayerMask]:
    """The selective layer mask of ``record``'s run as a function of (step,
    gradient rows); it holds the EMA stats, so each step is fed once, in
    order.  The live run and its replay both build their masks here."""
    stats_cfg = StatsConfig(ema_coeff=cfg.stats.ema_coeff, moment_floor=cfg.stats.moment_floor,
                            warmup_steps=record.warmup_steps)
    stats = init_stats([row.size for row in record.model.trainable])
    forced_zero = np.asarray(record.forced_zero, dtype=np.intp)

    def rule(step: int, grad_rows: np.ndarray) -> LayerMask:
        update_stats(stats, grad_rows, stats_cfg)
        mask = build_mask(compute_bvg(stats, stats_cfg), record.budget, step, stats_cfg)
        mask.bits[forced_zero] = 0
        return mask

    return rule


def run_finetune(
    cfg: TrainConfig,
    pretrained: Model,
    *,
    out_dir: str | Path | None = None,
    masft: bool = True,
    slm: bool = True,
    forced_zero: tuple[int, ...] = (),
    log_gradients: bool = False,
    splits: SplitBundle | None = None,
) -> RunRecord:
    """Decompose the attention projections (unless the decomposition arm is
    switched off), swap in a fresh binary head, and run the masked
    fine-tuning loop; evaluates in-domain and heldout splits at the end."""
    t0 = time.perf_counter()
    if pretrained.decomposed:
        raise ValueError("expected a plain pretrained model")
    n_layers = pretrained.config.n_decomposable
    for lid in forced_zero:
        if not 0 <= lid < n_layers:
            raise ValueError(f"forced_zero layer id {lid} is outside [0, {n_layers})")
    if splits is None:
        splits = build_splits(cfg.data, _FINETUNE_SPLITS)
    model = clone_model(pretrained)
    semantic_start: list[bytes] = []
    if masft:
        # the run config's split, not the one the checkpoint was saved with
        model.config.decomposition = copy.deepcopy(cfg.decomposition)
        decompose_attention(model)
        semantic_start = [
            semantic_to_bytes(getattr(block, name)) for _, block, name in attention_slots(model)
        ]
    reset_head(model, 1, make_rng(cfg.seed + _HEAD_STREAM), scale=_HEAD_INIT_SCALE)

    train = splits.finetune_train
    steps_per_epoch = (len(train) + cfg.optimizer.batch_size - 1) // cfg.optimizer.batch_size
    warmup = cfg.mask.warmup_steps if cfg.mask.warmup_steps is not None else steps_per_epoch
    sizes = [row.size for row in model.trainable]
    opt = init_optimizer(cfg.optimizer.mode, cfg.optimizer.learning_rate, sizes, model.head.size)

    record = RunRecord(
        config=config_to_dict(cfg), steps=[], metrics={}, wall_clock=0.0, model=model,
        warmup_steps=warmup, budget=cfg.mask.active_layer_budget if slm else n_layers,
        forced_zero=tuple(forced_zero), semantic_start=semantic_start, opt=opt,
    )
    mask_rule = _mask_rule(cfg, record)
    step = 0
    for epoch in range(cfg.optimizer.epochs):
        rng = make_rng(cfg.seed + _FINETUNE_SHUFFLE + epoch)
        for batch in _batches(len(train), cfg.optimizer.batch_size, rng):
            step += 1
            x = stack_tokens([train[i] for i in batch])
            y = np.array([train[i].label for i in batch], dtype=np.float64)
            report, grads = backward(model, x, y, cfg.weights)
            mask = mask_rule(step, grads.trainable)
            apply_update(model, grads, mask, opt)
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

    record.metrics = _evaluate(model, splits)
    record.wall_clock = time.perf_counter() - t0
    if out_dir is not None:
        _write_finetune_artifacts(cfg, record, Path(out_dir), step)
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
    mask_rule = _mask_rule(cfg, record)
    return [mask_rule(step, rows).bits for step, rows in enumerate(record.gradient_log, start=1)]


def _write_finetune_artifacts(cfg: TrainConfig, record: RunRecord, out: Path, step: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    train_log = out / "train_log.csv"
    with train_log.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "epoch", "cls", "orth_mean", "spec_mean", "total", "popcount", "mask_bits"])
        for s in record.steps:
            writer.writerow(
                [s.step, s.epoch, _fmt(s.cls), _fmt(s.orth_mean), _fmt(s.spec_mean),
                 _fmt(s.total), s.popcount, s.mask_bits]
            )
    metrics_csv = out / "metrics.csv"
    _write_metrics_csv(metrics_csv, record.metrics)
    summary = out / "summary.json"
    payload = {
        "config": record.config,
        "steps": step,
        "metrics": {k: v.as_dict() for k, v in record.metrics.items()},
        "wall_clock_seconds": record.wall_clock,
    }
    summary.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    ckpt = out / "finetuned.ckpt"
    save_model(ckpt, record.model, step=step, config_echo=record.config)
    record.out_files = [train_log, metrics_csv, summary, ckpt]


def _write_metrics_csv(path: Path, reports: dict[str, EvalReport]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "level", "auc", "ap", "eer"])
        for split in sorted(reports):
            r = reports[split]
            writer.writerow([split, "frame", _fmt(r.frame_auc), _fmt(r.frame_ap), _fmt(r.frame_eer)])
            writer.writerow([split, "video", _fmt(r.video_auc), _fmt(r.video_ap), _fmt(r.video_eer)])


def evaluate_to_dir(cfg: TrainConfig, model: Model, out_dir: str | Path) -> Path:
    _require_binary_head(model)
    reports = _evaluate(model, build_splits(cfg.data, _TEST_SPLITS))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "metrics.csv"
    _write_metrics_csv(path, reports)
    return path


# --- ablation grids -------------------------------------------------------

_K_GRID = (1, 3, 5, 7, 9)
_M_GRID = (1, 4, 16, 48, 96)


def _cell_seed(base: int, table: str, key: str) -> int:
    digest = hashlib.sha256(f"{table}|{key}".encode()).digest()
    return base + int.from_bytes(digest[:8], "little") % (1 << 20)


def _cell_config(cfg: TrainConfig, seed: int, **overrides) -> TrainConfig:
    cell = copy.deepcopy(cfg)
    cell.seed = seed
    for dotted, value in overrides.items():
        section, name = dotted.split(".")
        setattr(getattr(cell, section), name, value)
    return cell.finalize()


def _run_cell(cell_cfg: TrainConfig, masft: bool, slm: bool) -> dict[str, float]:
    splits = build_splits(cell_cfg.data, _PRETRAIN_SPLITS + _FINETUNE_SPLITS)
    model, _, _ = run_pretrain(cell_cfg, splits=splits)
    record = run_finetune(cell_cfg, model, masft=masft, slm=slm, splits=splits)
    r_in, r_out = record.metrics["in_domain"], record.metrics["heldout"]
    return {
        "auc_in": r_in.frame_auc, "ap_in": r_in.frame_ap, "eer_in": r_in.frame_eer,
        "auc_heldout": r_out.frame_auc, "ap_heldout": r_out.frame_ap, "eer_heldout": r_out.frame_eer,
        "auc_mean": 0.5 * (r_in.frame_auc + r_out.frame_auc),
    }


_METRIC_COLS = ("auc_in", "ap_in", "eer_in", "auc_heldout", "ap_heldout", "eer_heldout", "auc_mean")


def _write_table(path: Path, key_cols: tuple[str, ...], rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(key_cols) + list(_METRIC_COLS) + ["status"])
        for row in rows:
            out = [row[k] for k in key_cols]
            if row["status"] == "ok":
                out += [_fmt(row[m]) for m in _METRIC_COLS]
            else:
                out += [""] * len(_METRIC_COLS)
            out.append(row["status"])
            writer.writerow(out)


def run_ablation(cfg: TrainConfig, out_dir: str | Path) -> list[Path]:
    """Four fixed grids: component on/off, loss-weight on/off, subspace-count
    sweep, and active-budget sweep.  Cell failures are recorded in the status
    column and the sweep continues."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_layers = cfg.model.n_decomposable
    # (table, key columns, cells); a cell is (seed key, key values, config
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
    for table, key_cols, cells in grids:
        rows = []
        for key, values, overrides, masft, slm in cells:
            row = dict(zip(key_cols, values))
            cell_cfg = _cell_config(cfg, _cell_seed(cfg.seed, table, key), **overrides)
            try:
                row.update(_run_cell(cell_cfg, masft, slm))
                row["status"] = "ok"
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                row["status"] = f"error:{type(exc).__name__}"
                print(f"ablation cell {table}[{key}] failed: {exc}", file=sys.stderr)
            rows.append(row)
        path = out / f"{table}.csv"
        _write_table(path, key_cols, rows)
        paths.append(path)
    return paths


def run_robustness(cfg: TrainConfig, model: Model, out_dir: str | Path) -> Path:
    """Video-level AUC for every (family, level) distortion of the in-domain
    test split, plus the clean baseline row."""
    _require_binary_head(model)
    splits = build_splits(cfg.data, ("test_in", "robustness"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    clean = eval_split(model, splits.test_in)
    rows.append(("clean", 0, clean.video_auc))
    for family in FAMILIES:
        for level in LEVELS:
            cell = eval_split(model, splits.robustness[(family, level)])
            rows.append((family, level, cell.video_auc))
    rows.sort(key=lambda r: (r[0] != "clean", r[0], r[1]))
    path = out / "robustness.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "level", "video_auc"])
        for family, level, value in rows:
            writer.writerow([family, level, _fmt(value)])
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
