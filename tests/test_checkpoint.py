import json

import numpy as np
import pytest

from subtune.checkpoint import MAGIC, load_model, read_manifest, save_model
from subtune.decomposition import DecompositionConfig, layer_to_bytes
from subtune.linalg import make_rng
from subtune.model import (
    ModelConfig,
    attention_slots,
    decompose_attention,
    forward,
    init_model,
    reset_head,
)


def tiny_model(seed=0, decomposed=False):
    cfg = ModelConfig(
        d_model=8,
        n_blocks=2,
        n_tokens=4,
        decomposition=DecompositionConfig(n_subspaces=2),
    )
    model = init_model(cfg, make_rng(seed))
    if decomposed:
        decompose_attention(model)
        reset_head(model, 1, make_rng(seed + 1))
    return model


def model_state_equal(a, b):
    assert np.array_equal(a.token_embed, b.token_embed)
    assert np.array_equal(a.head, b.head)
    for ba, bb in zip(a.blocks, b.blocks):
        for slot in ("norm1_gain", "norm1_bias", "norm2_gain", "norm2_bias", "mlp_in", "mlp_out"):
            assert np.array_equal(getattr(ba, slot), getattr(bb, slot))
    if a.decomposed:
        for (_, blk_a, slot), (_, blk_b, _) in zip(attention_slots(a), attention_slots(b)):
            la, lb = getattr(blk_a, slot), getattr(blk_b, slot)
            assert la.layer_id == lb.layer_id
            assert la.pretrained_frob_sq == lb.pretrained_frob_sq
            assert np.array_equal(la.semantic.u, lb.semantic.u)
            assert np.array_equal(la.semantic.s, lb.semantic.s)
            assert np.array_equal(la.semantic.v, lb.semantic.v)
            for aa, ab in zip(la.artifacts, lb.artifacts):
                assert np.array_equal(aa.u, ab.u)
                assert np.array_equal(aa.s, ab.s)
                assert np.array_equal(aa.v, ab.v)
    else:
        for (_, blk_a, slot), (_, blk_b, _) in zip(attention_slots(a), attention_slots(b)):
            assert np.array_equal(getattr(blk_a, slot), getattr(blk_b, slot))


def test_plain_round_trip(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(path, model, step=7)
    back, manifest = load_model(path)
    assert manifest["step"] == 7
    assert manifest["decomposed"] is False
    model_state_equal(model, back)


def test_decomposed_round_trip_preserves_every_factor(tmp_path):
    model = tiny_model(seed=3, decomposed=True)
    path = tmp_path / "m.ckpt"
    save_model(path, model, step=40)
    back, manifest = load_model(path)
    assert back.decomposed
    assert manifest["decomposed_layers"][0]["artifact_ranks"]
    model_state_equal(model, back)


def test_round_trip_forward_identical(tmp_path):
    model = tiny_model(seed=5, decomposed=True)
    x = make_rng(8).normal(size=(3, 4, 8))
    p_before = forward(model, x).probs
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    back, _ = load_model(path)
    assert np.array_equal(forward(back, x).probs, p_before)


def test_same_state_writes_identical_bytes(tmp_path):
    model = tiny_model(seed=2, decomposed=True)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(a, model, step=3, config_echo={"seed": 2})
    save_model(b, model, step=3, config_echo={"seed": 2})
    assert a.read_bytes() == b.read_bytes()
    assert read_manifest(a)["rng_state"] is None


def test_manifest_without_payload_parse(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(path, model, step=11, config_echo={"seed": 0})
    manifest = read_manifest(path)
    assert manifest["step"] == 11
    assert manifest["config"] == {"seed": 0}
    assert "token_embed" in manifest["arrays"]
    assert manifest["arrays"][-1] == "head"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)
    with pytest.raises(ValueError, match="bad magic"):
        read_manifest(path)


def test_trailing_garbage_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(path)


def test_truncated_payload_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ValueError):
        load_model(path)


def test_magic_is_stable():
    assert MAGIC == b"SUBT0001"
    assert len(MAGIC) == 8


def test_every_truncation_is_a_value_error_naming_it(tmp_path):
    model = tiny_model(seed=4, decomposed=True)
    full = tmp_path / "m.ckpt"
    save_model(full, model, step=2, config_echo={"seed": 4})
    raw = full.read_bytes()
    manifest_end = len(MAGIC) + 8 + int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    cut = tmp_path / "cut.ckpt"
    for n in range(manifest_end + 1):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="truncated"):
            load_model(cut)
        if n < manifest_end:
            with pytest.raises(ValueError, match="truncated"):
                read_manifest(cut)
    assert read_manifest(cut)["step"] == 2
    # cuts in the body: inside the first matrix header, inside a plain
    # matrix, in the first decomposed layer's header and rank list, and the
    # last byte
    first_layer = len(raw) - sum(len(layer_to_bytes(getattr(b, s))) for _, b, s in attention_slots(model))
    for n in (manifest_end + 3, manifest_end + 40, first_layer + 20, first_layer + 50,
              first_layer + 52, len(raw) // 2, len(raw) - 1):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="truncated"):
            load_model(cut)


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, failing):
    import subtune.checkpoint as ckpt

    path = tmp_path / "m.ckpt"
    save_model(path, tiny_model(seed=1), step=1)
    before = path.read_bytes()

    def fail(*args):
        raise OSError(f"{failing} failed")

    # fsync fails after the whole new file is written, replace at the rename
    monkeypatch.setattr(ckpt.os, failing, fail)
    with pytest.raises(OSError, match=f"{failing} failed"):
        save_model(path, tiny_model(seed=2, decomposed=True), step=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def _rewrite_manifest(path, edit):
    raw = path.read_bytes()
    length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    manifest = json.loads(raw[start : start + length])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + raw[start + length :])


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: m.update(format=2), "format"),
        (lambda m: m.update(format="1"), "format"),
        (lambda m: m.update(format=True), "format"),
        (lambda m: m.pop("format"), "format"),
        (lambda m: m.update(kind="optimizer"), "kind"),
        (lambda m: m.pop("kind"), "kind"),
        (lambda m: m.pop("model"), "model"),
        (lambda m: m.pop("arrays"), "arrays"),
        (lambda m: m.pop("decomposed"), "decomposed"),
    ],
    ids=["format-2", "format-string", "format-bool", "no-format", "kind-optimizer", "no-kind",
         "no-model", "no-arrays", "no-decomposed"],
)
def test_manifest_of_another_format_or_kind_or_missing_a_field_is_rejected(tmp_path, edit, field):
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_model(seed=6, decomposed=True), step=1)
    _rewrite_manifest(path, edit)
    for read in (load_model, read_manifest):
        with pytest.raises(ValueError, match=f"manifest field '{field}'") as info:
            read(path)
        assert "\n" not in str(info.value)


def _drop_entry(key, name):
    def edit(m):
        if key == "arrays":
            m["arrays"].remove(name)
        else:
            m[key] = [e for e in m[key] if e["name"] != name]
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("decomposed_layers"), "manifest field 'decomposed_layers' is missing"),
        *[(lambda m, k=k: m["model"].pop(k), f"manifest field 'model.{k}' is missing")
          for k in ("d_model", "n_blocks", "n_tokens", "n_classes_pretrain", "n_subspaces")],
        (lambda m: m["model"].update(n_blocks="2"), "manifest field 'model.n_blocks' is '2'"),
        (_drop_entry("arrays", "block1.mlp_in"), "manifest field 'arrays' lacks 'block1.mlp_in'"),
        (_drop_entry("arrays", "token_embed"), "manifest field 'arrays' lacks 'token_embed'"),
        (_drop_entry("decomposed_layers", "block1.v"),
         "manifest field 'decomposed_layers' lacks 'block1.v'"),
        (lambda m: m["decomposed_layers"][0].pop("layer_id"),
         "a 'decomposed_layers' entry lacks 'layer_id'"),
        (lambda m: m["model"].update(n_subspaces="x"), "manifest field 'model.n_subspaces' is 'x'"),
        (lambda m: m["model"].update(n_tokens="4"), "manifest field 'model.n_tokens' is '4'"),
        (lambda m: m["model"].update(n_classes_pretrain=True),
         "manifest field 'model.n_classes_pretrain' is True"),
        (lambda m: m["model"].update(n_outputs=0), "manifest field 'model.n_outputs' is 0"),
        (lambda m: m.update(model=[8]), "manifest field 'model' is \\[8\\], expected an object"),
        (lambda m: m.update(decomposed=1), "manifest field 'decomposed' is 1, expected a bool"),
        (lambda m: m.update(arrays=5), "manifest field 'arrays' is 5, expected a list"),
        (lambda m: m.update(decomposed_layers=5), "manifest field 'decomposed_layers' is 5, expected a list"),
        (lambda m: m["decomposed_layers"].append(3), "a 'decomposed_layers' entry is 3"),
        (lambda m: m["model"].update(d_model=16),
         "manifest field 'model.d_model' is 16, but 'token_embed' is 8x8"),
    ],
    ids=["no-decomposed-layers", "no-d_model", "no-n_blocks", "no-n_tokens",
         "no-n_classes_pretrain", "no-n_subspaces", "n_blocks-string", "no-block-array",
         "no-token-embed", "no-layer-entry", "entry-without-id", "n_subspaces-string",
         "n_tokens-string", "n_classes_pretrain-bool", "n_outputs-zero", "model-list",
         "decomposed-int", "arrays-int", "layers-int", "entry-int", "d_model-off-the-arrays"],
)
def test_manifest_missing_what_loading_reads_is_a_value_error(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_model(seed=6, decomposed=True), step=1)
    _rewrite_manifest(path, edit)
    # read_manifest reads no array, so only load_model can hold a dimension
    # against one
    readers = (load_model,) if "but 'token_embed'" in message else (load_model, read_manifest)
    for read in readers:
        with pytest.raises(ValueError, match=message) as info:
            read(path)
        assert "\n" not in str(info.value)
