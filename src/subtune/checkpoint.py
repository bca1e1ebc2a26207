"""Single-file binary checkpoints: a magic tag, a length-prefixed JSON
manifest with sorted keys, then raw float64 matrix blobs in manifest order.
Writing the same state twice yields byte-identical files, and a write that
fails leaves any earlier file at the path as it was."""

from __future__ import annotations

import io
import json
import os
import struct
from pathlib import Path

import numpy as np

from .decomposition import layer_from_bytes, layer_to_bytes
from .model import (BLOCK_SLOTS, FROZEN_SLOTS, PROJECTION_NAMES, Block, DecomposedLayer, Model,
                    ModelConfig, attention_slots)

MAGIC = b"SUBT0001"
_LEN = struct.Struct("<Q")


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def _matrix_bytes(arr: np.ndarray) -> bytes:
    from .linalg import matrix_to_bytes

    return matrix_to_bytes(_as_matrix(arr))


_MODEL_FIELDS = ("d_model", "n_blocks", "n_tokens", "n_classes_pretrain", "n_subspaces")


def _plain_names(n_blocks: int, decomposed: bool) -> list[str]:
    names = ["token_embed"]
    slots = FROZEN_SLOTS if decomposed else BLOCK_SLOTS
    for b in range(n_blocks):
        names.extend(f"block{b}.{slot}" for slot in slots)
    names.append("head")
    return names


def save_model(
    path: str | Path,
    model: Model,
    *,
    step: int = 0,
    config_echo: dict | None = None,
) -> None:
    cfg = model.config
    decomposed = model.decomposed
    # what the body holds, in order: the plain arrays, then the decomposed layers
    slots = FROZEN_SLOTS if decomposed else BLOCK_SLOTS
    arrays = [model.token_embed, *(getattr(b, slot) for b in model.blocks for slot in slots), model.head]
    layers = [(f"block{lid // len(PROJECTION_NAMES)}.{name}", getattr(block, name))
              for lid, block, name in attention_slots(model)] if decomposed else []
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
            for name, layer in layers
        ]
    body = io.BytesIO()
    for arr in arrays:
        body.write(_matrix_bytes(arr))
    for _, layer in layers:
        body.write(layer_to_bytes(layer))
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    # written beside the target and renamed over it, so a reader never sees
    # a partial file and a failed write keeps the previous checkpoint
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC)
            fh.write(_LEN.pack(len(blob)))
            fh.write(blob)
            fh.write(body.getvalue())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_manifest(raw: bytes, path: str | Path) -> tuple[dict, int]:
    """The manifest and the offset where the body starts.  A file cut
    anywhere before the end of its manifest, a manifest of another format or
    kind, or one missing a field that loading reads (a model dimension, a
    block's array, a decomposed layer) raises a ValueError naming it."""
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
        if type(value) is not int or value < 1:
            raise ValueError(f"{path}: manifest field 'model.{key}' is {value!r}, expected a positive int")
    decomposed = _require_type(path, "decomposed", manifest["decomposed"], bool, "a bool")
    arrays = _require_type(path, "arrays", manifest["arrays"], list, "a list")
    _require_names(path, "arrays", arrays, _plain_names(spec["n_blocks"], decomposed))
    if decomposed:
        if "decomposed_layers" not in manifest:
            raise ValueError(f"{path}: manifest field 'decomposed_layers' is missing")
        entries = _require_type(path, "decomposed_layers", manifest["decomposed_layers"], list, "a list")
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: a 'decomposed_layers' entry is {entry!r}, expected an object")
            for key in ("name", "layer_id"):
                if key not in entry:
                    raise ValueError(f"{path}: a 'decomposed_layers' entry lacks {key!r}")
        wanted = [f"block{b}.{slot}" for b in range(spec["n_blocks"]) for slot in PROJECTION_NAMES]
        _require_names(path, "decomposed_layers", [e["name"] for e in entries], wanted)
    return manifest, offset + length


def _require_type(path: str | Path, field: str, value, kind: type, expected: str):
    if type(value) is not kind:
        raise ValueError(f"{path}: manifest field {field!r} is {value!r}, expected {expected}")
    return value


def _require_names(path: str | Path, field: str, present: list[str], wanted: list[str]) -> None:
    present = set(present)
    missing = [name for name in wanted if name not in present]
    if missing:
        raise ValueError(f"{path}: manifest field {field!r} lacks {missing[0]!r}")


def read_manifest(path: str | Path) -> dict:
    return _parse_manifest(Path(path).read_bytes(), path)[0]


def load_model(path: str | Path) -> tuple[Model, dict]:
    from .linalg import matrix_from_bytes

    raw = Path(path).read_bytes()
    manifest, offset = _parse_manifest(raw, path)
    spec = manifest["model"]
    from .decomposition import DecompositionConfig

    cfg = ModelConfig(
        d_model=spec["d_model"],
        n_blocks=spec["n_blocks"],
        n_tokens=spec["n_tokens"],
        n_classes_pretrain=spec["n_classes_pretrain"],
        decomposition=DecompositionConfig(n_subspaces=spec["n_subspaces"]),
    )
    arrays: dict[str, np.ndarray] = {}
    for name in manifest["arrays"]:
        arr, offset = matrix_from_bytes(raw, offset)
        arrays[name] = arr
    decomposed_layers: dict[str, DecomposedLayer] = {}
    if manifest["decomposed"]:
        for entry in manifest["decomposed_layers"]:
            layer, offset = layer_from_bytes(raw, offset)
            if layer.layer_id != entry["layer_id"]:
                raise ValueError(
                    f"checkpoint layer id mismatch for {entry['name']}: "
                    f"{layer.layer_id} != {entry['layer_id']}"
                )
            decomposed_layers[entry["name"]] = layer
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after checkpoint payload")
    rows, cols = arrays["token_embed"].shape
    if (rows, cols) != (cfg.d_model, cfg.d_model):
        raise ValueError(
            f"{path}: manifest field 'model.d_model' is {cfg.d_model}, but 'token_embed' is {rows}x{cols}"
        )

    def vec(name: str) -> np.ndarray:
        return arrays[name].reshape(-1)

    blocks = []
    for b in range(cfg.n_blocks):
        if manifest["decomposed"]:
            projections = {slot: decomposed_layers[f"block{b}.{slot}"] for slot in PROJECTION_NAMES}
        else:
            projections = {slot: arrays[f"block{b}.{slot}"] for slot in PROJECTION_NAMES}
        blocks.append(
            Block(
                norm1_gain=vec(f"block{b}.norm1_gain"),
                norm1_bias=vec(f"block{b}.norm1_bias"),
                norm2_gain=vec(f"block{b}.norm2_gain"),
                norm2_bias=vec(f"block{b}.norm2_bias"),
                mlp_in=arrays[f"block{b}.mlp_in"],
                mlp_out=arrays[f"block{b}.mlp_out"],
                **projections,
            )
        )
    model = Model(config=cfg, token_embed=arrays["token_embed"], blocks=blocks, head=arrays["head"])
    return model, manifest
