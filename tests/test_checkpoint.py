import json
import struct

import numpy as np
import pytest

from oracles import binary_head
from subtune.checkpoint import MAGIC, load_model, save_model
from subtune.config import config_from_dict
from subtune.data import DataConfig, export_csv, gen_clips
from subtune.decomposition import DecompositionConfig, layer_to_bytes
from subtune.harness import decompose_inspect, evaluate_to_dir
from subtune.linalg import make_rng, matrix_from_bytes, matrix_to_bytes
from subtune.model import (
    BLOCK_SLOTS,
    PROJECTION_NAMES,
    ModelConfig,
    attention_slots,
    derive_model,
    forward,
    init_model,
)


def tiny_model(seed=0, decomposed=False):
    model = init_model(ModelConfig(d_model=8, n_blocks=2, n_tokens=4), make_rng(seed))
    if decomposed:
        model = derive_model(model, head=binary_head(model, make_rng(seed + 1)),
                             split=DecompositionConfig(n_subspaces=2))
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


@pytest.mark.parametrize("decomposed", [False, True])
def test_a_manifest_records_no_split_and_no_generator_state(tmp_path, decomposed):
    # the run config echo holds the split; a decomposed model's layers hold its ranks
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_model(seed=2, decomposed=decomposed), config_echo={"seed": 2})
    manifest = load_model(path)[1]
    assert "rng_state" not in manifest
    assert sorted(manifest["model"]) == ["d_model", "n_blocks", "n_classes_pretrain", "n_outputs", "n_tokens"]


def test_a_default_model_split_by_a_fixed_rank_round_trips_whole(tmp_path):
    # the loaded model is the saved one: same config, same ranks, same report
    split = DecompositionConfig(n_subspaces=3, rank_policy="fixed", fixed_rank=6)
    plain = init_model(ModelConfig(), make_rng(0))
    model = derive_model(plain, head=binary_head(plain, make_rng(1)), split=split)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    loaded = load_model(path)[0]
    assert loaded.config == model.config
    ranks = [(getattr(b, n).semantic_rank, getattr(b, n).ranks) for _, b, n in attention_slots(model)]
    assert ranks == [(getattr(b, n).semantic_rank, getattr(b, n).ranks) for _, b, n in attention_slots(loaded)]
    assert set(ranks) == {(6, (4, 3, 3))}
    assert decompose_inspect(loaded, split) == decompose_inspect(model, split)


def test_manifest_echoes_the_step_config_and_array_names(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(path, model, step=11, config_echo={"seed": 0})
    manifest = load_model(path)[1]
    assert manifest["step"] == 11
    assert manifest["config"] == {"seed": 0}
    assert "token_embed" in manifest["arrays"]
    assert manifest["arrays"][-1] == "head"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


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
    # cuts in the body: inside the first matrix header, inside a plain
    # matrix, in the first decomposed layer's header and rank list, and the
    # last byte
    first_layer = len(raw) - sum(len(layer_to_bytes(getattr(b, s))) for _, b, s in attention_slots(model))
    for n in (manifest_end + 3, manifest_end + 40, first_layer + 20, first_layer + 50,
              first_layer + 52, len(raw) // 2, len(raw) - 1):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="truncated"):
            load_model(cut)


def _save(path, seed):
    save_model(path, tiny_model(seed=seed, decomposed=seed % 2 == 0), step=seed)


def _evaluate(path, seed):
    cfg = config_from_dict({"seed": seed, "model": {"d_model": 8, "n_blocks": 2, "n_tokens": 4},
                            "decomposition": {"n_subspaces": 2}, "mask": {"active_layer_budget": 4},
                            "data": {"n_test": 16, "clip_size": 4}})
    evaluate_to_dir(cfg, tiny_model(seed=seed, decomposed=True), path.parent)


def _export(path, seed):
    export_csv(gen_clips(DataConfig(n_tokens=2, d_model=3, clip_size=2, seed=seed), 4, "test_in"), path)


@pytest.mark.parametrize("failing", ["fsync", "replace"])
@pytest.mark.parametrize(
    "name, write", [("m.ckpt", _save), ("metrics.csv", _evaluate), ("part.csv", _export)],
    ids=["save_model", "evaluate_to_dir", "export_csv"],
)
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, failing, name, write):
    import subtune.files as files

    path = tmp_path / name
    write(path, 1)
    before = path.read_bytes()

    def fail(*args):
        raise OSError(f"{failing} failed")

    # fsync fails after the whole new file is written, replace at the rename
    monkeypatch.setattr(files.os, failing, fail)
    with pytest.raises(OSError, match=f"{failing} failed"):
        write(path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _rows(n, fail_at=None):
    for i in range(n):
        if i == fail_at:
            raise RuntimeError(f"row {i} failed")
        yield [f"clip-{i:06d}", i % 2] + [f"{(i * 24 + j) / 7:.17g}" for j in range(24)]


def test_csv_rows_are_streamed_to_the_file(tmp_path):
    import tracemalloc

    from subtune.files import write_csv

    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["clip_id", "label"] + [f"tok_{j:04d}" for j in range(24)], _rows(10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= 4 * 2**20
    assert peak < 2**20, peak


def test_a_row_that_fails_mid_stream_keeps_the_previous_file(tmp_path):
    from subtune.files import write_csv

    path = tmp_path / "part.csv"
    write_csv(path, ["clip_id", "label"], [["a", 0]])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="row 5000 failed"):
        write_csv(path, ["clip_id", "label"], _rows(10_000, fail_at=5_000))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["part.csv"]


def _rewrite_manifest(path, edit):
    raw = path.read_bytes()
    length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    manifest = json.loads(raw[start : start + length])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + raw[start + length :])


@pytest.mark.parametrize(
    "blob",
    [b"{not json", b'{"format": 1, "kind": "\x80"}', b"[" * 100_000],
    ids=["not-json", "not-utf8", "nested-past-the-stack"],
)
def test_unreadable_manifest_is_a_one_line_value_error_naming_the_file(tmp_path, blob):
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)  # the manifest is read before any body
    with pytest.raises(ValueError) as info:
        load_model(path)
    message = str(info.value)
    assert message.startswith(f"{path}: the manifest is not valid JSON: ") and "\n" not in message


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
    with pytest.raises(ValueError, match=f"manifest field '{field}'") as info:
        load_model(path)
    assert "\n" not in str(info.value)


def _swap(m, key, i, j, field=None):
    items = m[key]
    if field is None:
        items[i], items[j] = items[j], items[i]
    else:
        items[i][field], items[j][field] = items[j][field], items[i][field]


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
          for k in ("d_model", "n_blocks", "n_tokens", "n_classes_pretrain", "n_outputs")],
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
        (lambda m: m["model"].update(n_outputs=3),
         "manifest field 'model.n_outputs' is 3, but 'head' is 1x8, not 3x8"),
        # same-shape names exchanged: only the saved order tells them apart
        (lambda m: _swap(m, "arrays", 1, 2),
         "manifest field 'arrays' has 'block0.norm1_bias' out of place, at position 1"),
        (lambda m: _swap(m, "decomposed_layers", 0, 1, "name"),
         "manifest field 'decomposed_layers' has 'block0.k' out of place, at position 0"),
        (lambda m: m["decomposed_layers"][0].update(semantic_rank=1, artifact_ranks=[7, 7, 7]),
         "manifest field 'decomposed_layers\\[0\\].semantic_rank' is 1, but 'block0.q' has 4"),
        (lambda m: m["decomposed_layers"][1].update(artifact_ranks=[1, 2]),
         "manifest field 'decomposed_layers\\[1\\].artifact_ranks' is \\[1, 2\\], but 'block0.k' has \\[2, 1\\]"),
        (lambda m: m["decomposed_layers"][2].pop("artifact_ranks"),
         "a 'decomposed_layers' entry lacks 'artifact_ranks'"),
        (lambda m: m["decomposed_layers"][0].update(semantic_rank=True),
         "manifest field 'decomposed_layers\\[0\\].semantic_rank' is True, expected a positive int"),
        (lambda m: m["decomposed_layers"][3].update(artifact_ranks=[2, "2"]),
         "manifest field 'decomposed_layers\\[3\\].artifact_ranks' is \\[2, '2'\\], "
         "expected a list of positive ints"),
        # True == 1, so a bool id over the layer with id 1 compares equal to it
        (lambda m: m["decomposed_layers"][1].update(layer_id=True),
         "manifest field 'decomposed_layers\\[1\\].layer_id' is True, expected a non-negative int"),
        (lambda m: m["decomposed_layers"][0].update(layer_id=-1),
         "manifest field 'decomposed_layers\\[0\\].layer_id' is -1, expected a non-negative int"),
    ],
    ids=["no-decomposed-layers", "no-d_model", "no-n_blocks", "no-n_tokens",
         "no-n_classes_pretrain", "no-n_outputs", "n_blocks-string", "no-block-array",
         "no-token-embed", "no-layer-entry", "entry-without-id", "n_subspaces-string",
         "n_tokens-string", "n_classes_pretrain-bool", "n_outputs-zero", "model-list",
         "decomposed-int", "arrays-int", "layers-int", "entry-int", "d_model-off-the-arrays",
         "n_outputs-off-the-head", "arrays-swapped", "layer-names-swapped", "semantic-rank-off-the-body",
         "artifact-ranks-off-the-body", "no-artifact_ranks", "semantic-rank-bool", "artifact-ranks-string",
         "layer-id-bool", "layer-id-negative"],
)
def test_manifest_missing_what_loading_reads_is_a_value_error(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_model(seed=6, decomposed=True), step=1)
    _rewrite_manifest(path, edit)
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert "\n" not in str(info.value)


def _plain_names(decomposed):
    slots = [s for s in BLOCK_SLOTS if not (decomposed and s in PROJECTION_NAMES)]
    return ["token_embed", *(f"block{b}.{s}" for b in range(2) for s in slots), "head"]


def _blob_offsets(raw):
    """Where each plain array's blob starts, by name, and where the layers start."""
    length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    offset = len(MAGIC) + 8 + length
    offsets = {}
    for name in json.loads(raw[len(MAGIC) + 8 : offset])["arrays"]:
        offsets[name] = offset
        offset = matrix_from_bytes(raw, offset)[1]
    return offsets, offset


def _load_error(path):
    with pytest.raises(ValueError) as info:
        load_model(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "\n" not in message, message
    return message


@pytest.mark.parametrize(
    "decomposed, name", [(d, name) for d in (False, True) for name in _plain_names(d)],
    ids=[f"{'decomposed' if d else 'plain'}-{name}" for d in (False, True) for name in _plain_names(d)],
)
def test_plain_array_of_a_wrong_shape_and_the_same_size_is_rejected(tmp_path, decomposed, name):
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_model(seed=7, decomposed=decomposed))
    raw = bytearray(path.read_bytes())
    at = _blob_offsets(bytes(raw))[0][name]
    rows, cols = struct.unpack_from("<QQ", raw, at)
    # 16x8 becomes 32x4, 1x8 becomes 2x4: every size here has an even column count
    struct.pack_into("<QQ", raw, at, 2 * rows, cols // 2)
    path.write_bytes(bytes(raw))
    message = _load_error(path)
    assert f"'{name}' is {2 * rows}x{cols // 2}, not {rows}x{cols}" in message


def _splice(raw, start, end, blob):
    return raw[:start] + blob + raw[end:]


def test_body_errors_name_the_file(tmp_path):
    model = tiny_model(seed=4, decomposed=True)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    raw = path.read_bytes()
    offsets, first_layer = _blob_offsets(raw)
    narrow = derive_model(init_model(ModelConfig(d_model=6, n_blocks=1, n_tokens=4), make_rng(4)),
                          split=DecompositionConfig(n_subspaces=2))
    q_end = first_layer + len(layer_to_bytes(model.blocks[0].q))
    cases = [
        (raw[: offsets["block0.mlp_in"] + 40], "matrix payload truncated"),
        (raw + b"\x00\x00", "2 trailing bytes after checkpoint payload"),
        # a vector of another length, and an attention layer of another width
        (_splice(raw, offsets["block0.norm2_gain"], offsets["block0.norm2_bias"], matrix_to_bytes(np.ones((1, 5)))),
         "manifest field 'model.d_model' is 8, but 'block0.norm2_gain' is 1x5, not 1x8"),
        (_splice(raw, first_layer, q_end, layer_to_bytes(narrow.blocks[0].q)),
         "manifest field 'model.d_model' is 8, but 'block0.q' is 6x6, not 8x8"),
    ]
    for spoiled, expected in cases:
        path.write_bytes(spoiled)
        assert expected in _load_error(path)
    path.write_bytes(raw)
    _rewrite_manifest(path, lambda m: m["decomposed_layers"][0].update(layer_id=5))
    assert "manifest field 'decomposed_layers[0].layer_id' is 5, but 'block0.q' has 0" in _load_error(path)
    # an id the layer header and the manifest agree on, but not its slot's
    spoiled = bytearray(raw)
    struct.pack_into("<Q", spoiled, first_layer, 7)
    path.write_bytes(bytes(spoiled))
    _rewrite_manifest(path, lambda m: m["decomposed_layers"][0].update(layer_id=7))
    assert ("manifest field 'decomposed_layers[0].layer_id' is 7, but 'block0.q' is layer 0 (4 * block + slot)"
            in _load_error(path))
