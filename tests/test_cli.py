import json

import pytest
import yaml

from subtune.checkpoint import load_model
from subtune.cli import main
from subtune.model import attention_slots

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
    # the checkpoint keeps only the subspace count it was pretrained with;
    # the fine-tune's own decomposition section decides the split
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
    assert manifest["model"]["n_subspaces"] == 3
    assert manifest["config"]["decomposition"]["n_subspaces"] == 3


def test_inspect_decomposes_under_the_given_config(tmp_path, cfg_path, capsys):
    # a K=2 plain checkpoint inspected under a K=3 fixed-rank config is
    # split as that config says; without --config the checkpoint's K holds
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
    assert all(len(ranks) == 2 for _, ranks in report())


def test_seed_override_changes_the_run(tmp_path, cfg_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(a), "--seed", "3"]) == 0
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(b), "--seed", "4"]) == 0
    assert (a / "pretrained.ckpt").read_bytes() != (b / "pretrained.ckpt").read_bytes()


def test_gradcheck_passes_without_config(capsys):
    assert main(["gradcheck"]) == 0
    assert "max relative error" in capsys.readouterr().out


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


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])
