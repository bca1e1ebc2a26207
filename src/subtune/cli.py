"""Command-line front end.  Every subcommand exits 0 on success; failures
print one ``error: <type>: <message>`` line on stderr and exit 1."""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from pathlib import Path

from .checkpoint import load_model
from .config import TrainConfig, default_config, load_config
from .data import build_splits, export_csv
from .decomposition import DecompositionConfig
from .gradcheck import grad_check, jitter_trainables
from .harness import (
    decompose_inspect,
    evaluate_to_dir,
    run_ablation,
    run_finetune,
    run_pretrain,
    run_robustness,
)
from .linalg import make_rng
from .losses import LossWeights
from .model import ModelConfig, derive_model, init_model


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtune",
        description="Desk-scale lab for subspace fine-tuning with selective layer masking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run, *, seed=True, out=False, ckpt=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, default=None, help="YAML run configuration")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if out:
            p.add_argument("--out", type=Path, required=True, help="output directory")
        if ckpt:
            p.add_argument("--checkpoint", type=Path, required=True, help="model checkpoint")
        return p

    add("gen-data", "materialize every split as CSV", _cmd_gen_data, out=True)
    add("pretrain", "train the full model on the base classes", _cmd_pretrain, out=True)
    add("finetune", "decompose, mask, and fine-tune from a pretrained checkpoint", _cmd_finetune,
        out=True, ckpt=True)
    add("eval", "evaluate a checkpoint on the test splits", _cmd_eval, out=True, ckpt=True)
    add("ablate", "run the four ablation grids", _cmd_ablate, out=True)
    add("robustness", "perturbation grid evaluation of a fine-tuned checkpoint", _cmd_robustness,
        out=True, ckpt=True)
    add("inspect", "per-layer decomposition report of a checkpoint", _cmd_inspect, seed=False, ckpt=True)
    add("gradcheck", "finite-difference check of the analytic gradients", _cmd_gradcheck)
    return parser


def _config_for(args) -> TrainConfig:
    cfg = load_config(args.config) if args.config is not None else default_config()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.finalize()
    return cfg


def _cmd_gen_data(args) -> None:
    cfg = _config_for(args)
    names = ("pretrain_train", "pretrain_test", "finetune_train", "test_in", "test_heldout")
    splits = build_splits(cfg.data, names)
    for name in names:
        path = args.out / f"{name}.csv"
        export_csv(getattr(splits, name), path)
        print(f"wrote {path}")


def _cmd_pretrain(args) -> None:
    cfg = _config_for(args)
    _, acc, path = run_pretrain(cfg, out_dir=args.out)
    print(f"base accuracy {acc:.4f}; wrote {path}")


def _cmd_finetune(args) -> None:
    cfg = _config_for(args)
    model, _ = load_model(args.checkpoint)
    record = run_finetune(cfg, model, out_dir=args.out)
    r = record.metrics["in_domain"]
    h = record.metrics["heldout"]
    print(
        f"in-domain frame AUC {r.frame_auc:.4f} video AUC {r.video_auc:.4f}; "
        f"heldout frame AUC {h.frame_auc:.4f} video AUC {h.video_auc:.4f}"
    )
    for path in record.out_files:
        print(f"wrote {path}")


def _cmd_eval(args) -> None:
    cfg = _config_for(args)
    model, _ = load_model(args.checkpoint)
    path = evaluate_to_dir(cfg, model, args.out)
    print(path.read_text(), end="")
    print(f"wrote {path}")


def _cmd_ablate(args) -> None:
    cfg = _config_for(args)
    for path in run_ablation(cfg, args.out):
        print(f"wrote {path}")


def _cmd_robustness(args) -> None:
    cfg = _config_for(args)
    model, _ = load_model(args.checkpoint)
    path = run_robustness(cfg, model, args.out)
    print(f"wrote {path}")


def _cmd_inspect(args) -> None:
    model, _ = load_model(args.checkpoint)
    # a plain checkpoint is split as `finetune` splits it under the same config
    cfg = load_config(args.config) if args.config is not None else default_config()
    rows = decompose_inspect(model, cfg.decomposition)
    print("layer name           R   r   artifact_ranks      energy_sem  orth        spec")
    for r in rows:
        ranks = "+".join(str(k) for k in r.artifact_ranks)
        print(
            f"{r.layer_id:>5} {r.name:<14} {r.total_rank:>3} {r.semantic_rank:>3}   "
            f"{ranks:<18} {r.energy_semantic:>9.6f}  {r.orth:.3e}  {r.spec:.3e}"
        )


def _cmd_gradcheck(args) -> None:
    cfg = _config_for(args) if args.config is not None else None
    model_cfg = cfg.model if cfg is not None else ModelConfig(d_model=8, n_blocks=2, n_tokens=4)
    split = cfg.decomposition if cfg is not None else DecompositionConfig(n_subspaces=2)
    seed = args.seed if args.seed is not None else (cfg.seed if cfg is not None else 0)
    d = model_cfg.d_model
    head = make_rng(seed, 1).normal(scale=1.0 / math.sqrt(d), size=(1, d))
    model = derive_model(init_model(model_cfg, make_rng(seed)), head=head, split=split)
    rng = make_rng(seed, 2)
    inputs = rng.normal(size=(4, model_cfg.n_tokens, model_cfg.d_model))
    labels = rng.integers(0, 2, size=4).astype(float)
    jitter_trainables(model, make_rng(seed, 3))
    report = grad_check(model, inputs, labels, LossWeights())
    print(
        f"checked {report.n_coords} coordinates; max relative error "
        f"{report.max_rel_err:.3e} at flat index {report.worst_index}"
    )
    if not report.passed:
        raise RuntimeError(f"gradient check failed: {report.max_rel_err:.3e} > {report.tol}")


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that cannot be a directory before any work: the
    path itself, or its nearest existing ancestor, is something else."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"--out {out}: {path} is not a directory")
            return


def _keep_heap_resident() -> None:
    """Keep a step's temporaries on the heap, process-wide.  By default glibc
    serves every block above 128 KiB from a fresh mmap and hands freed heap
    back to the OS, so each pass faults its memory in again; and it gives
    each new thread an arena of its own, so ``predict``'s worker thread
    would allocate from a second heap beside the main one.  Changes no
    number; does nothing without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to open
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD: blocks below 8 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB of freed heap
    mallopt(-8, 1)  # M_ARENA_MAX: every thread allocates from the main heap


def main(argv: list[str] | None = None) -> int:
    _keep_heap_resident()
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        args.run(args)
    except Exception as exc:  # noqa: BLE001 - the contract is a one-line error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
