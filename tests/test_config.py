import pytest

from subtune.config import (
    TrainConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)


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
    with pytest.raises(ValueError, match="exceeds"):
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
    with pytest.raises(ValueError, match=f"^data.{key} lists '{families[key][0]}' more than once$"):
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
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        load_config(path)
