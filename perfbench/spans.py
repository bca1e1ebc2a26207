"""Call interception from outside the program under test.

A function is wrapped at every name that refers to it inside its package:
``from .model import backward`` in ``harness`` binds a second name, and
patching ``subtune.model.backward`` alone would miss every call made
through it.  Two kinds of wrapper use this: the span tracer of the traced
run and the light probes of the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, NamedTuple
from uuid import uuid4

Factory = Callable[[Callable], Callable]


@contextmanager
def patched(wrappers: dict[str, Factory]) -> Iterator[None]:
    """Replace each ``package.module.function`` named in ``wrappers`` by
    ``factory(original)`` in every module of its package that binds it, and
    restore the originals on exit.  The whole package is imported first: a
    module imported later would bind the wrapper and keep it after exit."""
    undo = []
    try:
        for dotted, factory in wrappers.items():
            module_name, attr = dotted.rsplit(".", 1)
            package = module_name.split(".")[0]
            _import_all(package)
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = factory(original)
            for name, module in list(sys.modules.items()):
                if name != package and not name.startswith(package + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(undo):
            setattr(module, key, original)


def _import_all(package: str) -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root


CountHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    """Spans kept in memory, in call order; ``counts`` collects the numbers
    the count hooks derive from each call's arguments and result."""

    def __init__(self) -> None:
        self.run_id = uuid4().hex
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def factory(self, name: str, hook: CountHook | None = None) -> Factory:
        spans, stack = self.spans, self._stack

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = Span(name, start, end, parent)
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
                return result

            return traced

        return wrap


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  ``spans`` is a slice of a tracer's list starting at index
    ``offset``; children whose parent lies before the slice are ignored."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        local = span.parent - offset
        if 0 <= local < len(spans):
            children[local].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def finetune_shape(cfg, masft: bool = True, slm: bool = True) -> tuple:
    """What sets the cost of a fine-tune step: subspace count, layer budget,
    which regularizers are on, and the decomposition and masking arms."""
    return (cfg.decomposition.n_subspaces, cfg.mask.active_layer_budget,
            cfg.weights.orth_weight != 0.0, cfg.weights.spectral_weight != 0.0, masft, slm)


class StepProbe:
    """Light wrappers for the untraced run: one clock stamp per fine-tune
    step (taken when ``apply_update`` returns), the duration of each
    ``eval_split`` call, and the training rows of each fine-tune, all
    filed under the bucket opened last.  Step times are kept only for
    fine-tunes of ``shape``, so that one statistic never mixes step
    populations whose cost differs severalfold (an ablation grid runs K=1
    next to K=9)."""

    def __init__(self, shape: tuple) -> None:
        self.shape = shape
        self.buckets: list[dict] = []
        self._last_stamp: float | None = None
        self._timing = False

    def begin(self, label: str) -> None:
        self.buckets.append({"label": label, "steps": [], "evals": [], "rows": 0})

    def wrappers(self) -> dict[str, Factory]:
        return {
            "subtune.harness.run_finetune": self._run_finetune,
            "subtune.harness.apply_update": self._apply_update,
            "subtune.harness.eval_split": self._eval_split,
        }

    def _run_finetune(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(cfg, *args, **kwargs):
            self._last_stamp = None
            self._timing = finetune_shape(
                cfg, kwargs.get("masft", True), kwargs.get("slm", True)) == self.shape
            self.buckets[-1]["rows"] += cfg.data.n_finetune * cfg.optimizer.epochs
            return fn(cfg, *args, **kwargs)

        return probe

    def _apply_update(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = perf_counter()
            if self._timing and self._last_stamp is not None:
                self.buckets[-1]["steps"].append(now - self._last_stamp)
            self._last_stamp = now
            return result

        return probe

    def _eval_split(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.buckets[-1]["evals"].append(perf_counter() - start)
            return result

        return probe
