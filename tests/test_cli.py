import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from oracles import binary_head, child_env
from subtune import cli, harness
from subtune.checkpoint import load_model, save_model
from subtune.cli import main
from subtune.config import config_from_dict
from subtune.decomposition import DecompositionConfig
from subtune.linalg import make_rng
from subtune.model import ModelConfig, attention_slots, derive_model, init_model

DATA = Path(__file__).parent / "data"

TINY = {
    "seed": 11,
    "model": {"d_model": 8, "n_blocks": 2, "n_tokens": 6},
    "decomposition": {"n_subspaces": 2},
    "mask": {"active_layer_budget": 4},
    "optimizer": {"epochs": 2, "batch_size": 16},
    "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
    "data": {
        "n_pretrain": 64,
        "n_pretrain_test": 32,
        "n_finetune": 128,
        "n_test": 64,
        "clip_size": 4,
    },
}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return path


def test_gen_data_writes_every_split(tmp_path, cfg_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "finetune_train.csv", "pretrain_test.csv", "pretrain_train.csv",
        "test_heldout.csv", "test_in.csv",
    ]
    header = (out / "test_in.csv").read_text().splitlines()[0]
    assert header.startswith("clip_id,label,family,intensity,tok_")
    assert capsys.readouterr().out.count("wrote ") == 5


def test_training_chain(tmp_path, cfg_path, capsys):
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(pre)]) == 0
    assert (pre / "pretrained.ckpt").exists()
    assert "base accuracy" in capsys.readouterr().out

    fine = tmp_path / "fine"
    assert main([
        "finetune", "--config", str(cfg_path),
        "--checkpoint", str(pre / "pretrained.ckpt"), "--out", str(fine),
    ]) == 0
    for name in ("finetuned.ckpt", "train_log.csv", "metrics.csv", "summary.json"):
        assert (fine / name).exists(), name
    summary = json.loads((fine / "summary.json").read_text())
    assert summary["config"]["seed"] == 11
    capsys.readouterr()

    ev = tmp_path / "ev"
    assert main([
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(fine / "finetuned.ckpt"), "--out", str(ev),
    ]) == 0
    metrics = (ev / "metrics.csv").read_text()
    assert metrics == (fine / "metrics.csv").read_text()
    capsys.readouterr()

    rob = tmp_path / "rob"
    assert main([
        "robustness", "--config", str(cfg_path),
        "--checkpoint", str(fine / "finetuned.ckpt"), "--out", str(rob),
    ]) == 0
    assert (rob / "robustness.csv").read_text().splitlines()[0] == "family,level,video_auc"
    capsys.readouterr()

    assert main(["inspect", "--checkpoint", str(pre / "pretrained.ckpt")]) == 0
    out = capsys.readouterr().out
    assert "artifact_ranks" in out
    assert out.count("block") == 8


def test_finetune_decomposes_under_the_run_config(tmp_path, cfg_path):
    # the checkpoint records no split; the fine-tune's own decomposition
    # section decides it, and the config echo records it
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(pre)]) == 0
    fixed = tmp_path / "fixed.yaml"
    fixed.write_text(yaml.safe_dump(
        TINY | {"decomposition": {"n_subspaces": 3, "rank_policy": "fixed", "fixed_rank": 4}}
    ))
    fine = tmp_path / "fine"
    assert main([
        "finetune", "--config", str(fixed),
        "--checkpoint", str(pre / "pretrained.ckpt"), "--out", str(fine),
    ]) == 0
    model, manifest = load_model(fine / "finetuned.ckpt")
    layers = [getattr(block, name) for _, block, name in attention_slots(model)]
    assert {(layer.semantic_rank, layer.ranks) for layer in layers} == {(4, (2, 1, 1))}
    assert manifest["config"]["decomposition"]["n_subspaces"] == 3


def test_inspect_decomposes_under_the_given_config(tmp_path, cfg_path, capsys):
    # a K=2 plain checkpoint inspected under a K=3 fixed-rank config is
    # split as that config says; without --config the default config's K holds
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(pre)]) == 0
    fixed = tmp_path / "fixed.yaml"
    fixed.write_text(yaml.safe_dump(
        TINY | {"decomposition": {"n_subspaces": 3, "rank_policy": "fixed", "fixed_rank": 4}}
    ))
    capsys.readouterr()

    def report(*extra):
        assert main(["inspect", "--checkpoint", str(pre / "pretrained.ckpt"), *extra]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 8
        return [(int(row[3]), row[4].split("+")) for row in rows]

    assert all(r == 4 and len(ranks) == 3 for r, ranks in report("--config", str(fixed)))
    assert all(len(ranks) == DecompositionConfig().n_subspaces for _, ranks in report())


def test_inspect_reports_the_split_finetune_makes(tmp_path, cfg_path, capsys, monkeypatch):
    # neither command is given --config: both split a K=3 checkpoint under
    # the default decomposition section; the default's model and data are
    # cut to the tiny preset's so that the fine-tune takes a second
    tiny_default = {key: value for key, value in TINY.items() if key != "decomposition"}
    monkeypatch.setattr(cli, "default_config", lambda: config_from_dict(tiny_default))
    k3 = tmp_path / "k3.yaml"
    k3.write_text(yaml.safe_dump(TINY | {"decomposition": {"n_subspaces": 3}}))
    pre, fine = tmp_path / "pre", tmp_path / "fine"
    assert main(["pretrain", "--config", str(k3), "--out", str(pre)]) == 0
    assert main(["finetune", "--checkpoint", str(pre / "pretrained.ckpt"), "--out", str(fine)]) == 0
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(pre / "pretrained.ckpt")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    finetuned = load_model(fine / "finetuned.ckpt")[0]
    written = [(layer.semantic_rank, "+".join(map(str, layer.ranks)))
               for layer in (getattr(block, name) for _, block, name in attention_slots(finetuned))]
    assert [(int(row[3]), row[4]) for row in rows] == written
    assert {len(ranks.split("+")) for _, ranks in written} == {DecompositionConfig().n_subspaces}


@pytest.mark.parametrize("command", ["eval", "robustness"])
def test_scoring_a_pretrained_checkpoint_fails_before_building_data(
    tmp_path, cfg_path, capsys, monkeypatch, command
):
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(pre)]) == 0
    capsys.readouterr()

    def no_data(*args, **kwargs):
        raise AssertionError("data was built")

    monkeypatch.setattr(harness, "build_splits", no_data)
    rc = main([
        command, "--config", str(cfg_path),
        "--checkpoint", str(pre / "pretrained.ckpt"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ValueError: ")
    assert "head has 4 outputs" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["finetune", "eval", "robustness"])
def test_checkpoint_of_another_token_grid_fails_before_building_data(tmp_path, capsys, monkeypatch, command):
    # the default config reads 8x16 token grids; this model takes 4x8 ones
    model = init_model(ModelConfig(d_model=8, n_blocks=2, n_tokens=4), make_rng(0))
    if command != "finetune":
        model = derive_model(model, head=binary_head(model, make_rng(1)), split=DecompositionConfig(n_subspaces=2))
    save_model(tmp_path / "m.ckpt", model)

    def no_data(*args, **kwargs):
        raise AssertionError("data was built")

    monkeypatch.setattr(harness, "build_splits", no_data)
    rc = main([command, "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ValueError: the checkpoint's model has d_model 8 and n_tokens 4, "
        "but the run config has d_model 16 and n_tokens 8"
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["finetune", "eval", "robustness"])
def test_checkpoint_of_another_block_count_fails_before_building_data(tmp_path, capsys, monkeypatch, command):
    # the default config's token grid and mask budget, but six blocks, not one
    model = init_model(ModelConfig(n_blocks=1), make_rng(0))
    if command != "finetune":
        model = derive_model(model, head=binary_head(model, make_rng(1)), split=DecompositionConfig())
    save_model(tmp_path / "m.ckpt", model)

    def no_data(*args, **kwargs):
        raise AssertionError("data was built")

    monkeypatch.setattr(harness, "build_splits", no_data)
    rc = main([command, "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ValueError: the checkpoint's model has n_blocks 1, but the run config has n_blocks 6"
    ]
    assert not (tmp_path / "o").exists()


OUT_COMMANDS = ["gen-data", "pretrain", "finetune", "eval", "ablate", "robustness"]


@pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_an_out_that_cannot_be_a_directory_fails_before_any_work(
    tmp_path, cfg_path, capsys, monkeypatch, command, below
):
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    for module, name in [(harness, "build_splits"), (cli, "build_splits"), (cli, "load_model")]:
        monkeypatch.setattr(module, name, no_work)
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    out = taken / "run" if below else taken
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if command in ("finetune", "eval", "robustness"):
        argv += ["--checkpoint", str(tmp_path / "m.ckpt")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: ValueError: --out {out}: {taken} is not a directory"]
    assert taken.read_bytes() == b""


@pytest.mark.parametrize("split, message", [
    ({"n_subspaces": 8}, "config key decomposition.n_subspaces must be <= 7 for a layer of rank 8 "
                         "(one semantic component and one per subspace), got 8"),
    ({"n_subspaces": 2, "rank_policy": "fixed", "fixed_rank": 7},
     "config key decomposition.fixed_rank must be <= 6 for a layer of rank 8 split into 2 subspaces, got 7"),
])
def test_a_split_the_layers_cannot_hold_is_refused_by_its_key(tmp_path, capsys, split, message):
    # the file loads, since the bound is each layer's rank; inspect refuses
    # it where the checkpoint's rank-8 layers are split
    save_model(tmp_path / "m.ckpt", init_model(ModelConfig(d_model=8, n_blocks=1, n_tokens=2), make_rng(0)))
    path = tmp_path / "split.yaml"
    path.write_text(yaml.safe_dump({"decomposition": split}))
    assert main(["inspect", "--config", str(path), "--checkpoint", str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: ValueError: {message}"]


def test_inspect_takes_no_seed(tmp_path, capsys):
    save_model(tmp_path / "m.ckpt", init_model(ModelConfig(d_model=4, n_blocks=1, n_tokens=2), make_rng(0)))
    with pytest.raises(SystemExit) as info:
        main(["inspect", "--checkpoint", str(tmp_path / "m.ckpt"), "--seed", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_seed_override_changes_the_run(tmp_path, cfg_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(a), "--seed", "3"]) == 0
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(b), "--seed", "4"]) == 0
    assert (a / "pretrained.ckpt").read_bytes() != (b / "pretrained.ckpt").read_bytes()


@pytest.mark.parametrize("with_config, message", [
    pytest.param(True, "config key seed must be >= 0, got -1", id="True"),  # the config's check
    pytest.param(False, "seed must be non-negative, got -1", id="False"),  # make_rng's: no config
])
def test_negative_seed_is_a_one_line_error(tmp_path, cfg_path, capsys, with_config, message):
    argv = ["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "o")] if with_config else ["gradcheck"]
    assert main(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: ValueError: {message}"]
    assert not (tmp_path / "o").exists()


def test_gradcheck_passes_without_config(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    # the same coordinates as the per-array flattening that came before
    assert out.startswith("checked 484 coordinates;")


def test_missing_checkpoint_is_a_one_line_error(tmp_path, cfg_path, capsys):
    rc = main([
        "finetune", "--config", str(cfg_path),
        "--checkpoint", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("optimizer:\n  learnin_rate: 0.1\n")
    rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "optimizer.learnin_rate" in capsys.readouterr().err


def test_derived_config_key_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("data:\n  n_tokens: 12\n")
    rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "is set via" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where",
    [
        (b"seed: [1, 2\nmodel: {d_model: 8}\n", "at line 2 column 6"),  # an unclosed list
        (b"[" * 5000 + b"]" * 5000 + b"\n", "nested too deeply"),
        (b"seed: 1\n\xff\n", "can't decode byte 0xff"),
    ],
    ids=["syntax", "nested-past-the-stack", "not-utf8"],
)
def test_unreadable_yaml_is_a_one_line_error_naming_the_file(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(text)
    rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ValueError: {bad}: ")
    assert where in err[0]
    assert not (tmp_path / "o").exists()


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [["inspect", "--checkpoint", str(DATA / "tiny_decomposed.ckpt")], ["gradcheck"]])
def test_a_closed_stdout_ends_the_command_quietly(argv) -> None:
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the first line is written
    try:
        done = subprocess.run([sys.executable, "-m", "subtune.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=child_env(), timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
