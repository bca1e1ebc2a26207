"""The program's layers as the traced run sees them: which public functions
are wrapped, what each call adds to the per-layer counts, and how one
repetition's spans become ``<module>.<function>.{calls,ms,self_ms}``."""

from __future__ import annotations

import os
from collections import Counter

from spans import Span, Tracer, self_times


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _samples(key: str):
    def hook(counts: Counter, args, kwargs, result) -> None:
        counts[key] += len(_arg(args, kwargs, 1, "inputs"))

    return hook


def _mask(counts: Counter, args, kwargs, result) -> None:
    bits = _arg(args, kwargs, 2, "mask").bits
    counts["masking.layers_updated"] += int(bits.sum())
    counts["masking.layers_offered"] += len(bits)


def _generated(counts: Counter, args, kwargs, result) -> None:
    splits = [result.pretrain_train, result.pretrain_test, result.finetune_train,
              result.test_in, result.test_heldout, *result.robustness.values()]
    counts["data.samples_generated"] += sum(len(s) for s in splits)


def _file_bytes(key: str):
    def hook(counts: Counter, args, kwargs, result) -> None:
        counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return hook


# module -> function -> count hook (or None); wrapping happens at every name
# that binds the function inside the package
TRACED = {
    "model": {"forward": _samples("model.forward.samples"),
              "backward": _samples("model.backward.samples"),
              "predict": _samples("model.predict.samples"),
              "gelu": None, "gelu_grad": None},
    "losses": {"orth_loss": None, "orth_loss_grads": None, "spec_loss": None},
    "masking": {"update_stats": None, "compute_bvg": None, "build_mask": None,
                "apply_update": _mask},
    "decomposition": {"recompose": None, "decompose": None},
    "linalg": {"svd": None},
    "data": {"build_splits": _generated},
    "metrics": {"auc": None, "average_precision": None, "eer": None, "video_level": None},
    "harness": {"eval_split": None, "run_finetune": None, "run_pretrain": None,
                "run_robustness": None, "run_ablation": None, "_run_cell": None},
    "checkpoint": {"save_model": _file_bytes("checkpoint.save_model.bytes"),
                   "load_model": _file_bytes("checkpoint.load_model.bytes")},
    "cli": {"main": None},
}

LAYER_NAMES = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]

COUNT_NAMES = [
    "model.forward.samples", "model.backward.samples", "model.predict.samples",
    "masking.layers_updated", "masking.layers_offered", "data.samples_generated",
    "checkpoint.save_model.bytes", "checkpoint.load_model.bytes",
]
DERIVED_NAMES = ["harness.pretrain_steps", "masking.active_ratio",
                 "decomposition.recompose.useful_ratio"]

# counts every repetition must reproduce exactly
EXACT_NAMES = [f"{layer}.calls" for layer in LAYER_NAMES] + COUNT_NAMES + DERIVED_NAMES

# layers that a workload never enters; the traced run fails if they show calls
PREDICTED_IDLE = {
    "robustness": ["model.backward", "losses.orth_loss", "losses.orth_loss_grads",
                   "losses.spec_loss", "masking.update_stats", "masking.compute_bvg",
                   "masking.build_mask", "masking.apply_update"],
}


def tracer_wrappers(tracer: Tracer) -> dict:
    return {
        f"subtune.{module}.{fn}": tracer.factory(f"{module}.{fn}", hook)
        for module, fns in TRACED.items()
        for fn, hook in fns.items()
    }


def _pretrain_steps(spans: list[Span], offset: int) -> int:
    """``model.backward`` calls made inside ``harness.run_pretrain``."""
    steps = 0
    for span in spans:
        if span.name != "model.backward":
            continue
        parent = span.parent
        while parent >= offset:
            enclosing = spans[parent - offset]
            if enclosing.name == "harness.run_pretrain":
                steps += 1
                break
            parent = enclosing.parent
    return steps


def repetition_metrics(spans: list[Span], offset: int, counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one repetition: calls, total and self time in
    ms, the hook counts and the ratios derived from them."""
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.ms"] = 0.0
        out[f"{layer}.self_ms"] = 0.0
    for span, own in zip(spans, self_times(spans, offset)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.ms"] += 1e3 * (span.end - span.start)
        out[f"{span.name}.self_ms"] += 1e3 * own
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0)
    out["harness.pretrain_steps"] = _pretrain_steps(spans, offset)
    offered = out["masking.layers_offered"]
    out["masking.active_ratio"] = out["masking.layers_updated"] / offered if offered else 0.0
    recomposed = out["decomposition.recompose.calls"]
    out["decomposition.recompose.useful_ratio"] = (
        out["masking.layers_updated"] / recomposed if recomposed else 0.0
    )
    return out
