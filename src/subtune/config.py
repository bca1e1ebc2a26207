"""Run configuration: one nested dataclass tree, YAML loading with strict
unknown-key rejection, and the default preset used by the end-to-end runs."""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .data import DataConfig
from .decomposition import DecompositionConfig
from .losses import LossWeights
from .masking import StatsConfig
from .model import ModelConfig


@dataclass
class MaskSection:
    active_layer_budget: int = 16
    warmup_steps: int | None = None  # None: one epoch of steps

    def validate(self) -> None:
        if self.active_layer_budget < 1:
            raise ValueError(f"active_layer_budget must be >= 1, got {self.active_layer_budget}")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


@dataclass
class OptimizerSection:
    learning_rate: float = 2e-4
    batch_size: int = 32
    epochs: int = 10

    def validate(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class PretrainSection:
    learning_rate: float = 1e-2
    batch_size: int = 32
    max_epochs: int = 40
    accuracy_floor: float = 0.9

    def validate(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("pretrain learning_rate must be > 0")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("pretrain batch_size must be >= 1 and max_epochs >= 0")
        if not 0.0 < self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must be in (0, 1]")


@dataclass
class TrainConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    mask: MaskSection = field(default_factory=MaskSection)
    stats: StatsConfig = field(default_factory=StatsConfig)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    weights: LossWeights = field(default_factory=LossWeights)

    def finalize(self) -> "TrainConfig":
        """Propagate shared scalars into the sections that mirror them, then
        validate everything.  Token grid and seed have one source of truth."""
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.data.n_tokens = self.model.n_tokens
        self.data.d_model = self.model.d_model
        self.data.n_base_classes = self.model.n_classes_pretrain
        self.data.seed = self.seed
        self.decomposition.validate()
        self.data.validate()
        self.mask.validate()
        self.stats.validate()
        self.optimizer.validate()
        self.pretrain.validate()
        if self.mask.active_layer_budget > self.model.n_decomposable:
            raise ValueError(
                f"active_layer_budget {self.mask.active_layer_budget} exceeds the "
                f"{self.model.n_decomposable} decomposable layers"
            )
        self.weights.validate()
        return self


# YAML sections that may not restate scalars owned elsewhere in the tree
_BLOCKED_KEYS = {
    "data": {"n_tokens": "model.n_tokens", "d_model": "model.d_model",
             "n_base_classes": "model.n_classes_pretrain", "seed": "seed"},
    "model": {"decomposition": "decomposition"},
    # the mask warmup is set in the mask section, which the run reads
    "stats": {"warmup_steps": "mask.warmup_steps"},
}


def _typed_value(value, hint, where: str):
    """``value`` as the field type ``hint`` takes it, or a ValueError naming
    the dotted key.  A string in a float field is parsed, because YAML 1.1
    reads exponent forms without a dot, such as ``1e-4``, as strings; ints
    stay valid in float fields, but a bool is no int and a float no int."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_typed_value(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if hint is float:
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ValueError(f"config key {where} must be a number, got {value!r}") from None
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {where} must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"config key {where} must be finite, got {value!r}")
        return value
    if hint is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"config key {where} must be an integer, got {value!r}")
    if hint is str and not isinstance(value, str):
        raise ValueError(f"config key {where} must be a string, got {value!r}")
    return value


def _fill_section(obj, section: dict, path: str):
    valid = {f.name: f for f in fields(obj)}
    hints = typing.get_type_hints(type(obj))
    blocked = _BLOCKED_KEYS.get(path, {})
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if key in blocked:
            raise ValueError(f"config key {where} is set via {blocked[key]}")
        if key not in valid:
            raise ValueError(f"config key {where} is not recognized")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            if not isinstance(value, dict):
                raise ValueError(f"config key {where} must be a mapping")
            _fill_section(current, value, where)
        else:
            if isinstance(value, dict):
                raise ValueError(f"config key {where} does not take a mapping")
            setattr(obj, key, _typed_value(value, hints[key], where))
    return obj


def config_from_dict(raw: dict) -> TrainConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    cfg = TrainConfig()
    _fill_section(cfg, raw, "")
    return cfg.finalize()


def _yaml_problem(exc: Exception) -> str:
    """Why PyYAML could not read a file, in one line: its problem and, when
    it reports a mark, the 1-based line and column."""
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        return f"{exc.problem} at line {mark.line + 1} column {mark.column + 1}"
    return " ".join(str(exc).split())  # PyYAML's own message, made one line


def load_config(path: str | Path) -> TrainConfig:
    with Path(path).open() as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, RecursionError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid YAML: {_yaml_problem(exc)}") from None
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def default_config() -> TrainConfig:
    return config_from_dict({})


def config_to_dict(cfg: TrainConfig) -> dict:
    """JSON-friendly echo of the whole tree (tuples become lists)."""

    def convert(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {f.name: convert(getattr(value, f.name)) for f in fields(value)}
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    return convert(cfg)
