import ast
import math
import re
from dataclasses import fields, is_dataclass

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from subtune.checkpoint import load_model, save_model
from subtune.config import (
    _BLOCKED_KEYS,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from subtune.data import FAMILIES
from subtune.linalg import make_rng
from subtune.model import ModelConfig, init_model


def test_default_preset_values():
    cfg = default_config()
    assert cfg.model.d_model == 16
    assert cfg.model.n_blocks == 6
    assert cfg.model.n_decomposable == 24
    assert cfg.decomposition.n_subspaces == 5
    assert cfg.decomposition.energy_fraction == 0.9
    assert cfg.mask.active_layer_budget == 16
    assert cfg.mask.warmup_steps is None
    assert cfg.stats.ema_coeff == 0.9
    assert cfg.optimizer.learning_rate == 2e-4
    assert cfg.weights.orth_weight == 1.0
    assert cfg.weights.spectral_weight == 1.0


def test_finalize_propagates_shared_scalars():
    cfg = config_from_dict({"seed": 9, "model": {"d_model": 12, "n_tokens": 6}})
    assert cfg.data.d_model == 12
    assert cfg.data.n_tokens == 6
    assert cfg.data.seed == 9
    # the split has one record, the decomposition section
    assert "decomposition" not in config_to_dict(cfg)["model"]


def test_unknown_key_rejected_with_path():
    with pytest.raises(ValueError, match="optimizer.learning_rte is not recognized"):
        config_from_dict({"optimizer": {"learning_rte": 1e-3}})
    with pytest.raises(ValueError, match="bogus is not recognized"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="^config key optimizer.mode is not recognized$"):
        config_from_dict({"optimizer": {"mode": "plain"}})


def test_blocked_duplicate_scalar_rejected():
    with pytest.raises(ValueError, match="data.seed is set via seed"):
        config_from_dict({"data": {"seed": 4}})
    with pytest.raises(ValueError, match="data.d_model is set via model.d_model"):
        config_from_dict({"data": {"d_model": 8}})
    with pytest.raises(ValueError, match="^config key model.decomposition is set via decomposition$"):
        config_from_dict({"model": {"decomposition": {"n_subspaces": 3}}})


def test_stats_warmup_steps_rejected_in_favour_of_the_mask_section():
    # the fine-tuning run reads mask.warmup_steps; stats.warmup_steps was
    # accepted, echoed into summary.json and ignored
    with pytest.raises(ValueError, match="stats.warmup_steps is set via mask.warmup_steps"):
        config_from_dict({"stats": {"warmup_steps": 3}})
    assert config_from_dict({"stats": {"ema_coeff": 0.5}, "mask": {"warmup_steps": 3}}).mask.warmup_steps == 3


def test_section_must_be_mapping():
    with pytest.raises(ValueError, match="optimizer must be a mapping"):
        config_from_dict({"optimizer": 3})
    with pytest.raises(ValueError, match="seed does not take a mapping"):
        config_from_dict({"seed": {"a": 1}})


def test_budget_cannot_exceed_layer_count():
    message = r"^config key mask.active_layer_budget must be <= 4 \* model.n_blocks = 8, got 16$"
    with pytest.raises(ValueError, match=message):
        config_from_dict({"model": {"n_blocks": 2}, "mask": {"active_layer_budget": 16}})


def test_family_lists_become_tuples():
    cfg = config_from_dict(
        {
            "data": {
                "families_train": ["token-blur", "structured-noise"],
                "families_heldout": ["localized-patch"],
            }
        }
    )
    assert cfg.data.families_train == ("token-blur", "structured-noise")


@pytest.mark.parametrize("key", ["families_train", "families_heldout"])
def test_a_family_listed_twice_is_refused(key):
    # fakes cycle through the list, so a repeated family would take more
    # than its share of them
    families = {"families_train": ["token-blur"], "families_heldout": ["structured-noise"]}
    families[key] = families[key] * 2
    twice = re.escape(repr(tuple(families[key])))
    message = f"^config key data.{key} must list at least one family, each once, got {twice}$"
    with pytest.raises(ValueError, match=message):
        config_from_dict({"data": families})


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "seed: 5\n"
        "model:\n  n_blocks: 3\n"
        "mask:\n  active_layer_budget: 6\n"
        "optimizer:\n  epochs: 2\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 5
    assert cfg.model.n_blocks == 3
    assert cfg.mask.active_layer_budget == 6
    echo = config_to_dict(cfg)
    assert echo["seed"] == 5
    assert echo["model"]["n_blocks"] == 3
    assert isinstance(echo["data"]["families_train"], list)


def test_config_echo_names_no_update_rule_and_no_stats_warmup():
    # one update rule, and the mask warmup is set in one place
    echo = config_to_dict(default_config())
    assert "mode" not in echo["optimizer"]
    assert "warmup_steps" not in echo["stats"]
    assert echo["mask"]["warmup_steps"] is None


def test_empty_yaml_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert isinstance(cfg, TrainConfig)
    assert cfg.model.d_model == 16


def test_invalid_mode_rejected():
    # one update rule: no value of optimizer.mode is taken, not even the
    # former default
    for mode in ("sgd", "adaptive"):
        with pytest.raises(ValueError, match="optimizer.mode is not recognized"):
            config_from_dict({"optimizer": {"mode": mode}})


def test_yaml_exponent_without_dot_loads_as_float(tmp_path):
    # YAML 1.1 reads 1e-4 (no dot) as a string
    path = tmp_path / "run.yaml"
    path.write_text("optimizer:\n  learning_rate: 1e-4\npretrain:\n  learning_rate: 5E-3\n")
    cfg = load_config(path)
    assert cfg.optimizer.learning_rate == 1e-4
    assert isinstance(cfg.optimizer.learning_rate, float)
    assert cfg.pretrain.learning_rate == 5e-3


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"optimizer": {"learning_rate": "fast"}}, "optimizer.learning_rate must be a number"),
        ({"optimizer": {"learning_rate": "nan"}}, "optimizer.learning_rate must be finite"),
        ({"optimizer": {"learning_rate": 10**400}}, "optimizer.learning_rate must be finite"),
        ({"weights": {"orth_weight": None}}, "weights.orth_weight must be a number"),
        ({"optimizer": {"epochs": 2.5}}, "optimizer.epochs must be an integer"),
        ({"optimizer": {"epochs": "2"}}, "optimizer.epochs must be an integer"),
        ({"model": {"n_blocks": True}}, "model.n_blocks must be an integer"),
        ({"seed": False}, "seed must be an integer"),
        ({"mask": {"warmup_steps": 1.5}}, "mask.warmup_steps must be an integer"),
        ({"stats": {"ema_coeff": True}}, "stats.ema_coeff must be a number"),
        ({"decomposition": {"rank_policy": 3}}, "decomposition.rank_policy must be a string"),
        ({"data": {"families_train": "token-blur"}}, "data.families_train must be a list"),
        ({"data": {"families_train": ["token-blur", 7]}}, r"data.families_train\[1\] must be a string"),
    ],
)
def test_scalar_of_wrong_type_rejected_with_path(raw, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(raw)


def test_int_in_float_field_and_none_in_optional_field_stay_valid():
    cfg = config_from_dict(
        {"weights": {"orth_weight": 0, "spectral_weight": 2}, "mask": {"warmup_steps": None},
         "decomposition": {"rank_policy": "fixed", "fixed_rank": 3}}
    )
    assert cfg.weights.orth_weight == 0 and cfg.weights.spectral_weight == 2
    assert cfg.mask.warmup_steps is None
    assert cfg.decomposition.fixed_rank == 3


def test_a_split_size_is_not_capped():
    # the largest n_test a split could take while its draws were offsets of
    # one seed was 10_000
    assert config_from_dict({"data": {"n_test": 10016}}).data.n_test == 10016


def test_negative_seed_refused_from_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: -1\n")
    with pytest.raises(ValueError, match="^config key seed must be >= 0, got -1$"):
        load_config(path)


def _raw(dotted: str, value) -> dict:
    """The nested mapping that sets one dotted key."""
    *sections, name = dotted.split(".")
    raw = {name: value}
    for section in reversed(sections):
        raw = {section: raw}
    return raw


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = _merge(out[key], value) if isinstance(value, dict) and key in out else value
    return out


def _set_in_code(raw: dict, dotted: str, value) -> TrainConfig:
    """The default config with each key of ``raw``, then ``dotted``, set by
    assignment and the result finalized, as library code and the ablation
    overrides set keys."""
    cfg = default_config()

    def assign(key: str, value) -> None:
        if isinstance(value, dict):
            for name, inner in value.items():
                assign(f"{key}.{name}" if key else name, inner)
        else:
            prefix, _, name = key.rpartition(".")
            setattr(getattr(cfg, prefix) if prefix else cfg, name, value)

    assign("", _merge(raw, _raw(dotted, value)))
    return cfg.finalize()


@pytest.mark.parametrize(
    "dotted, value, problem",
    [
        ("optimizer.epochs", 2.5, "must be an integer, got 2.5"),
        ("optimizer.batch_size", True, "must be an integer, got True"),
        ("decomposition.n_subspaces", "3", "must be an integer, got '3'"),
        ("stats.ema_coeff", None, "must be a number, got None"),
        ("optimizer.learning_rate", float("nan"), "must be finite, got nan"),
        # each bound is stated on the key a file sets, never on data's
        # mirrored copy of it
        ("model.n_blocks", 0, "must be >= 1, got 0"),
        ("model.d_model", 1, "must be >= 2, got 1"),
        ("model.n_tokens", 1, "must be >= 2, got 1"),
        ("model.n_classes_pretrain", 1, "must be >= 2, got 1"),
        ("weights.spectral_weight", -1, "must be >= 0, got -1"),
    ],
)
def test_a_bad_value_names_its_key_from_a_file_and_from_code(dotted, value, problem):
    message = f"^config key {re.escape(dotted)} {re.escape(problem)}$"
    with pytest.raises(ValueError, match=message):
        config_from_dict(_raw(dotted, value))
    with pytest.raises(ValueError, match=message):
        _set_in_code({}, dotted, value)


def _declared() -> list[tuple[str, object, tuple | None, list]]:
    """(dotted key, field, choices, [(edge, closed, outward)]) of every
    config key a file may set that declares what it accepts, read back from
    the text a refusal states."""
    cfg = default_config()
    out = []
    for f in fields(cfg):
        section = getattr(cfg, f.name)
        pairs = [(f.name, g) for g in fields(section)] if is_dataclass(section) else [("", f)]
        for prefix, g in pairs:
            text = g.metadata.get("accepts")
            if text is None or g.name in _BLOCKED_KEYS.get(prefix, {}):
                continue
            choices, edges = None, []
            if text.startswith("one of "):
                choices = ast.literal_eval(f"({text.removeprefix('one of ')},)")
            elif m := re.fullmatch(r"in ([\[(])(\S+), (\S+)([\])])", text):
                edges = [(float(m[2]), m[1] == "[", -math.inf), (float(m[3]), m[4] == "]", math.inf)]
            else:
                op, edge = text.split(" ")
                edges = [(float(edge), op == ">=", -math.inf)]
            out.append((f"{prefix}.{g.name}" if prefix else g.name, g, choices, edges))
    return out


def _kind(f) -> type:
    """The type a declared key holds (an optional one holds an int)."""
    return int if f.default is None else type(f.default)


def _step(value, toward: float):
    return value + (1 if toward > value else -1) if isinstance(value, int) else math.nextafter(value, toward)


def _bound_cases():
    for key, f, choices, edges in _declared():
        base = {"mask": {"active_layer_budget": 1}}  # so that n_blocks may fall to 1
        if choices is not None:
            bad = ("no-such-value",) if isinstance(f.default, tuple) else "no-such-value"
            yield pytest.param(key, base, None, bad, id=f"{key}-one_of")
        for edge, closed, outward in edges:
            edge = _kind(f)(edge)
            inside = edge if closed else _step(edge, -outward)
            outside = _step(edge, outward) if closed else edge
            yield pytest.param(key, base, inside, outside, id=f"{key}-{edge}")


@pytest.mark.parametrize("dotted, base, inside, outside", list(_bound_cases()))
def test_every_declared_bound_holds_at_its_edge(dotted, base, inside, outside):
    # generated from the declarations, so a new bounded key is covered here
    # without an edit; the closed edge itself, or the first value inside an
    # open one, is accepted, and one step past it is refused by its key
    prefix, _, name = dotted.rpartition(".")
    section = getattr(default_config(), prefix) if prefix else default_config()
    (f,) = [f for f in fields(section) if f.name == name]
    accepts = f.metadata["accepts"]
    if inside is not None:
        assert config_to_dict(config_from_dict(_merge(base, _raw(dotted, inside)))) == \
            config_to_dict(_set_in_code(base, dotted, inside))
    where = f"{dotted}[0]" if isinstance(outside, tuple) else dotted
    shown = outside[0] if isinstance(outside, tuple) else outside
    message = f"^config key {re.escape(where)} must be {re.escape(accepts)}, got {re.escape(repr(shown))}$"
    with pytest.raises(ValueError, match=message):
        config_from_dict(_merge(base, _raw(dotted, outside)))
    with pytest.raises(ValueError, match=message):
        _set_in_code(base, dotted, outside)


@pytest.mark.parametrize(
    "policy, dotted, value, problem",
    [
        ("energy", "decomposition.energy_fraction", 0, "must be in (0, 1] when decomposition.rank_policy is "
         "'energy', got 0"),
        ("energy", "decomposition.energy_fraction", 1.5, "must be in (0, 1] when decomposition.rank_policy is "
         "'energy', got 1.5"),
        ("fixed", "decomposition.fixed_rank", None, "must be >= 1 when decomposition.rank_policy is 'fixed', "
         "got None"),
        ("fixed", "decomposition.fixed_rank", 0, "must be >= 1 when decomposition.rank_policy is 'fixed', got 0"),
        # under the other policy the key is not read, and any value of its type passes
        ("fixed", "decomposition.energy_fraction", 1.5, None),
        ("energy", "decomposition.fixed_rank", 0, None),
    ],
)
def test_a_rank_policy_bounds_only_the_key_it_reads(policy, dotted, value, problem):
    base = {"decomposition": {"rank_policy": policy} | ({"fixed_rank": 2} if policy == "fixed" else {})}
    if problem is None:
        assert config_to_dict(config_from_dict(_merge(base, _raw(dotted, value)))) == \
            config_to_dict(_set_in_code(base, dotted, value))
        return
    message = f"^config key {re.escape(dotted)} {re.escape(problem)}$"
    with pytest.raises(ValueError, match=message):
        config_from_dict(_merge(base, _raw(dotted, value)))
    with pytest.raises(ValueError, match=message):
        _set_in_code(base, dotted, value)


@st.composite
def _configs(draw) -> dict:
    """A settable config drawn key by key from what each key declares, held
    to the rules that span keys: disjoint, non-empty family lists, split
    sizes that are multiples of the clip size, and a budget within the
    layer count."""
    raw: dict = {}
    for key, f, choices, edges in _declared():
        kind = _kind(f)
        if choices is not None:
            if kind is tuple:
                continue  # the family lists, drawn below
            value = draw(st.sampled_from(choices))
        elif kind is int:
            (low, closed, _), *_ = edges
            value = draw(st.integers(int(low) + (not closed), int(low) + 10**6))
        else:
            (low, low_closed, _), *upper = edges
            high, high_closed = upper[0][:2] if upper else (None, True)
            value = draw(st.floats(low, high, exclude_min=not low_closed, exclude_max=not high_closed,
                                   allow_nan=False, allow_infinity=False))
        if f.default is None:
            value = draw(st.none() | st.just(value))
        raw = _merge(raw, _raw(key, value))
    fixed = raw["decomposition"]["rank_policy"] == "fixed"
    raw["decomposition"] |= {"energy_fraction": draw(st.floats(0.0, 1.0, exclude_min=True)),
                             "fixed_rank": draw((st.none() if not fixed else st.nothing()) | st.integers(1, 64))}
    families = draw(st.permutations(FAMILIES))
    n_train = draw(st.integers(1, len(FAMILIES) - 1))
    n_heldout = draw(st.integers(1, len(FAMILIES) - n_train))
    raw["data"] |= {"families_train": families[:n_train],
                    "families_heldout": families[n_train:n_train + n_heldout]}
    clip = raw["data"]["clip_size"] = draw(st.integers(1, 16))
    for name, clips in (("n_pretrain", 1), ("n_pretrain_test", 1), ("n_finetune", 2), ("n_test", 2)):
        raw["data"][name] = clips * clip * draw(st.integers(1, 64))
    raw["mask"]["active_layer_budget"] = draw(st.integers(1, 4 * raw["model"]["n_blocks"]))
    return raw


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raw=_configs())
def test_a_drawn_config_round_trips_through_yaml_and_a_checkpoint(raw, tmp_path_factory):
    echo = config_to_dict(config_from_dict(raw))
    derived = {(section, key) for section, keys in _BLOCKED_KEYS.items() for key in keys}
    settable = {name: ({key: v for key, v in value.items() if (name, key) not in derived}
                       if isinstance(value, dict) else value) for name, value in echo.items()}
    assert config_to_dict(config_from_dict(yaml.safe_load(yaml.safe_dump(settable)))) == echo
    path = tmp_path_factory.mktemp("echo") / "model.ckpt"
    model = init_model(ModelConfig(d_model=4, n_blocks=1, n_tokens=2, n_classes_pretrain=2), make_rng(0))
    save_model(path, model, config_echo=echo)
    assert load_model(path)[1]["config"] == echo
