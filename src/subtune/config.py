"""Run configuration: one nested dataclass tree, YAML loading with strict
unknown-key rejection, and the default preset used by the end-to-end runs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import yaml

from .data import DataConfig
from .decomposition import DecompositionConfig
from .losses import LossWeights
from .masking import StatsConfig
from .model import ModelConfig
from .settings import check, setting


@dataclass
class MaskSection:
    active_layer_budget: int = setting(16, ge=1)
    warmup_steps: int | None = setting(None, ge=0)  # None: one epoch of steps


@dataclass
class OptimizerSection:
    learning_rate: float = setting(2e-4, gt=0.0)
    batch_size: int = setting(32, ge=1)
    epochs: int = setting(10, ge=0)


@dataclass
class PretrainSection:
    learning_rate: float = setting(1e-2, gt=0.0)
    batch_size: int = setting(32, ge=1)
    max_epochs: int = setting(40, ge=0)
    accuracy_floor: float = setting(0.9, gt=0.0, le=1.0)


@dataclass
class TrainConfig:
    seed: int = setting(0, ge=0)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    mask: MaskSection = field(default_factory=MaskSection)
    stats: StatsConfig = field(default_factory=StatsConfig)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    weights: LossWeights = field(default_factory=LossWeights)

    def finalize(self) -> "TrainConfig":
        """Copy into ``data`` the scalars it mirrors (``_BLOCKED_KEYS``), then
        validate every key, ``model``'s before ``data``'s, so a refusal names
        the key a file sets and never a mirrored copy.  Token grid and seed
        have one source of truth."""
        for key, source in _BLOCKED_KEYS["data"].items():
            setattr(self.data, key, attrgetter(source)(self))
        check(self, "")
        if self.mask.active_layer_budget > self.model.n_decomposable:
            raise ValueError(f"config key mask.active_layer_budget must be <= 4 * model.n_blocks = "
                             f"{self.model.n_decomposable}, got {self.mask.active_layer_budget}")
        return self


# YAML sections that may not restate scalars owned elsewhere in the tree
_BLOCKED_KEYS = {
    "data": {"n_tokens": "model.n_tokens", "d_model": "model.d_model",
             "n_base_classes": "model.n_classes_pretrain", "seed": "seed"},
    "model": {"decomposition": "decomposition"},
    # the mask warmup is set in the mask section, which the run reads
    "stats": {"warmup_steps": "mask.warmup_steps"},
}


def _typed_value(value, default, where: str):
    """``value`` as YAML gives it, in the form of the key's ``default``: a
    list becomes a tuple, and a string in place of a float is parsed,
    because YAML 1.1 reads exponent forms without a dot, such as ``1e-4``,
    as strings.  ``finalize`` then checks the result like any other value."""
    if isinstance(value, list) and isinstance(default, tuple):
        return tuple(value)
    if isinstance(value, str) and isinstance(default, float):
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"config key {where} must be a number, got {value!r}") from None
    return value


def _fill_section(obj, section: dict, path: str):
    valid = {f.name: f for f in fields(obj)}
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
            setattr(obj, key, _typed_value(value, current, where))
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
