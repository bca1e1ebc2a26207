"""Single-file binary checkpoints: a magic tag, a length-prefixed JSON
manifest with sorted keys, then raw float64 matrix blobs in manifest order.
Writing the same state twice yields byte-identical files, and a write that
fails leaves any earlier file at the path as it was (``files.write_file``)."""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np

from .decomposition import DecompositionConfig, layer_from_bytes, layer_to_bytes
from .files import write_file
from .linalg import matrix_from_bytes, matrix_to_bytes
from .model import BLOCK_SLOTS, FROZEN_SLOTS, PROJECTION_NAMES, Block, Model, ModelConfig, attention_slots

MAGIC = b"SUBT0001"
_LEN = struct.Struct("<Q")


def _matrix_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    return matrix_to_bytes(arr.reshape(1, -1) if arr.ndim == 1 else arr)


_MODEL_FIELDS = ("d_model", "n_blocks", "n_tokens", "n_classes_pretrain", "n_subspaces", "n_outputs")

# The body holds the plain arrays in ``_plain_names`` order (the token
# embedding, each block's slots, the head), then, for a decomposed model,
# the attention layers in ``_layer_names`` order (``attention_slots``').


def _block_slots(decomposed: bool) -> tuple[str, ...]:
    return FROZEN_SLOTS if decomposed else BLOCK_SLOTS


def _plain_names(n_blocks: int, decomposed: bool) -> list[str]:
    names = ["token_embed"]
    slots = _block_slots(decomposed)
    for b in range(n_blocks):
        names.extend(f"block{b}.{slot}" for slot in slots)
    names.append("head")
    return names


def _layer_names(n_blocks: int) -> list[str]:
    return [f"block{b}.{name}" for b in range(n_blocks) for name in PROJECTION_NAMES]


def save_model(
    path: str | Path,
    model: Model,
    *,
    step: int = 0,
    config_echo: dict | None = None,
) -> None:
    cfg = model.config
    decomposed = model.decomposed
    slots = _block_slots(decomposed)
    arrays = [model.token_embed, *(getattr(b, slot) for b in model.blocks for slot in slots), model.head]
    layers = [getattr(block, name) for _, block, name in attention_slots(model)] if decomposed else []
    manifest = {
        "format": 1,
        "kind": "model",
        "step": int(step),
        "decomposed": decomposed,
        "model": {
            "d_model": cfg.d_model,
            "n_blocks": cfg.n_blocks,
            "n_tokens": cfg.n_tokens,
            "n_classes_pretrain": cfg.n_classes_pretrain,
            "n_subspaces": cfg.decomposition.n_subspaces,
            "n_outputs": model.n_outputs,
        },
        "arrays": _plain_names(cfg.n_blocks, decomposed),
        # kept in the format; nothing records a generator state yet
        "rng_state": None,
        "config": config_echo,
    }
    if decomposed:
        manifest["decomposed_layers"] = [
            {"name": name, "layer_id": layer.layer_id, "semantic_rank": layer.semantic_rank,
             "artifact_ranks": list(layer.ranks)}
            for name, layer in zip(_layer_names(cfg.n_blocks), layers)
        ]
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_LEN.pack(len(blob)))
    out.write(blob)
    for arr in arrays:
        out.write(_matrix_bytes(arr))
    for layer in layers:
        out.write(layer_to_bytes(layer))
    write_file(path, out.getvalue())


def _parse_manifest(raw: bytes, path: str | Path) -> tuple[dict, int]:
    """The manifest and the offset where the body starts.  A file cut
    anywhere before the end of its manifest, a manifest of another format or
    kind, or one missing a field that loading reads (a model dimension, a
    block's array, a decomposed layer and its ranks) or listing the body out
    of the order ``save_model`` writes raises a ValueError naming it."""
    if raw[: len(MAGIC)] != MAGIC[: len(raw)]:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    offset = len(MAGIC) + _LEN.size
    if len(raw) < offset:
        raise ValueError(f"{path} is truncated: {len(raw)} bytes, shorter than the {offset}-byte header")
    (length,) = _LEN.unpack_from(raw, len(MAGIC))
    if len(raw) - offset < length:
        raise ValueError(
            f"{path} is truncated: its manifest needs {length} bytes, {len(raw) - offset} present"
        )
    manifest = json.loads(raw[offset : offset + length])
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: the manifest is not a JSON object")
    fmt = manifest.get("format")
    if type(fmt) is not int or fmt != 1:
        raise ValueError(f"{path}: manifest field 'format' is {fmt!r}, expected 1")
    if manifest.get("kind") != "model":
        raise ValueError(f"{path}: manifest field 'kind' is {manifest.get('kind')!r}, expected 'model'")
    for key in ("model", "arrays", "decomposed"):
        if key not in manifest:
            raise ValueError(f"{path}: manifest field {key!r} is missing")
    spec = _require_type(path, "model", manifest["model"], dict, "an object")
    for key in _MODEL_FIELDS:
        if key not in spec:
            raise ValueError(f"{path}: manifest field 'model.{key}' is missing")
    for key, value in spec.items():
        if not _positive_int(value):
            raise ValueError(f"{path}: manifest field 'model.{key}' is {value!r}, expected a positive int")
    decomposed = _require_type(path, "decomposed", manifest["decomposed"], bool, "a bool")
    arrays = _require_type(path, "arrays", manifest["arrays"], list, "a list")
    _require_names(path, "arrays", arrays, _plain_names(spec["n_blocks"], decomposed))
    if decomposed:
        if "decomposed_layers" not in manifest:
            raise ValueError(f"{path}: manifest field 'decomposed_layers' is missing")
        entries = _require_type(path, "decomposed_layers", manifest["decomposed_layers"], list, "a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: a 'decomposed_layers' entry is {entry!r}, expected an object")
            for key in ("name", "layer_id", "semantic_rank", "artifact_ranks"):
                if key not in entry:
                    raise ValueError(f"{path}: a 'decomposed_layers' entry lacks {key!r}")
            if not _positive_int(entry["semantic_rank"]):
                raise ValueError(f"{path}: manifest field 'decomposed_layers[{i}].semantic_rank' is "
                                 f"{entry['semantic_rank']!r}, expected a positive int")
            ranks = entry["artifact_ranks"]
            if type(ranks) is not list or not ranks or not all(_positive_int(r) for r in ranks):
                raise ValueError(f"{path}: manifest field 'decomposed_layers[{i}].artifact_ranks' is "
                                 f"{ranks!r}, expected a list of positive ints")
        _require_names(path, "decomposed_layers", [e["name"] for e in entries], _layer_names(spec["n_blocks"]))
    return manifest, offset + length


def _positive_int(value) -> bool:
    return type(value) is int and value >= 1


def _require_type(path: str | Path, field: str, value, kind: type, expected: str):
    if type(value) is not kind:
        raise ValueError(f"{path}: manifest field {field!r} is {value!r}, expected {expected}")
    return value


def _require_names(path: str | Path, field: str, present: list, wanted: list[str]) -> None:
    """``present`` must be ``wanted``, in that order."""
    for name in wanted:
        if name not in present:
            raise ValueError(f"{path}: manifest field {field!r} lacks {name!r}")
    if present != wanted:
        at = next((i for i, (p, w) in enumerate(zip(present, wanted)) if p != w), len(wanted))
        raise ValueError(
            f"{path}: manifest field {field!r} has {present[at]!r} out of place, at position {at}"
        )


def read_manifest(path: str | Path) -> dict:
    return _parse_manifest(Path(path).read_bytes(), path)[0]


def load_model(path: str | Path) -> tuple[Model, dict]:
    raw = Path(path).read_bytes()
    manifest, offset = _parse_manifest(raw, path)
    spec = manifest["model"]
    decomposed = manifest["decomposed"]
    cfg = ModelConfig(
        d_model=spec["d_model"],
        n_blocks=spec["n_blocks"],
        n_tokens=spec["n_tokens"],
        n_classes_pretrain=spec["n_classes_pretrain"],
        decomposition=DecompositionConfig(n_subspaces=spec["n_subspaces"]),
    )
    # read by position: _parse_manifest has held the names to the saved order
    arrays = []
    for _ in manifest["arrays"]:
        arr, offset = matrix_from_bytes(raw, offset)
        arrays.append(arr)
    layers = []
    for i, entry in enumerate(manifest["decomposed_layers"] if decomposed else []):
        layer, offset = layer_from_bytes(raw, offset)
        if layer.layer_id != entry["layer_id"]:
            raise ValueError(
                f"checkpoint layer id mismatch for {entry['name']}: "
                f"{layer.layer_id} != {entry['layer_id']}"
            )
        for key, saved in (("semantic_rank", layer.semantic_rank), ("artifact_ranks", list(layer.ranks))):
            if entry[key] != saved:
                raise ValueError(
                    f"{path}: manifest field 'decomposed_layers[{i}].{key}' is {entry[key]!r}, "
                    f"but '{entry['name']}' has {saved!r}"
                )
        layers.append(layer)
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after checkpoint payload")
    token_embed, *block_arrays, head = arrays
    rows, cols = token_embed.shape
    if (rows, cols) != (cfg.d_model, cfg.d_model):
        raise ValueError(
            f"{path}: manifest field 'model.d_model' is {cfg.d_model}, but 'token_embed' is {rows}x{cols}"
        )
    if head.shape != (spec["n_outputs"], cfg.d_model):
        raise ValueError(
            f"{path}: manifest field 'model.n_outputs' is {spec['n_outputs']}, but 'head' is "
            f"{head.shape[0]}x{head.shape[1]}, not {spec['n_outputs']}x{cfg.d_model}"
        )
    slots = _block_slots(decomposed)
    n_slots, n_proj = len(slots), len(PROJECTION_NAMES)
    blocks = []
    for b in range(cfg.n_blocks):
        fields = {slot: arr.reshape(-1) if slot.startswith("norm") else arr
                  for slot, arr in zip(slots, block_arrays[b * n_slots : (b + 1) * n_slots])}
        fields.update(zip(PROJECTION_NAMES, layers[b * n_proj : (b + 1) * n_proj]))
        blocks.append(Block(**fields))
    model = Model(config=cfg, token_embed=token_embed, blocks=blocks, head=head)
    return model, manifest
