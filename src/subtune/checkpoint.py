"""Every on-disk byte format: the matrix blob, the decomposed-layer blob,
and the single-file checkpoint, a magic tag, a length-prefixed JSON
manifest with sorted keys, then the body's blobs in manifest order.
Writing the same state twice yields byte-identical files, and a write that
fails leaves any earlier file at the path as it was (``files.write_file``).
A blob holding a NaN or an inf is refused when read, naming its array."""

from __future__ import annotations

import io
import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .decomposition import DecomposedLayer, SemanticPart
from .files import write_file
from .linalg import check_matrix
from .model import BLOCK_SLOTS, PROJECTION_NAMES, Block, Model, ModelConfig, block_shapes, stack_trainables

MAGIC = b"SUBT0001"
_LEN = struct.Struct("<Q")
# a matrix blob: 8-byte little-endian unsigned row and column counts, then
# rows*cols little-endian float64 values, row-major
_MATRIX_HEADER = struct.Struct("<QQ")
# a layer blob: its id, d_out, d_in, semantic rank and K, then its
# pretrained squared Frobenius norm; then the K ranks and matrix blobs
_LAYER_HEADER = struct.Struct("<QQQQQd")


def matrix_to_bytes(w: np.ndarray) -> bytes:
    """A matrix's blob; a vector's holds it as one row."""
    arr = np.asarray(w, dtype=np.float64)
    arr = check_matrix(arr.reshape(1, -1) if arr.ndim == 1 else arr)
    return _MATRIX_HEADER.pack(*arr.shape) + arr.astype("<f8").tobytes(order="C")


def matrix_from_bytes(buf: bytes, offset: int = 0, name: str = "matrix") -> tuple[np.ndarray, int]:
    """Decode one matrix starting at ``offset``; returns (matrix, next
    offset).  A NaN or an inf in it is refused naming ``name``."""
    if len(buf) - offset < _MATRIX_HEADER.size:
        raise ValueError("matrix header truncated")
    rows, cols = _MATRIX_HEADER.unpack_from(buf, offset)
    offset += _MATRIX_HEADER.size
    nbytes = rows * cols * 8
    if rows == 0 or cols == 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(buf) - offset < nbytes:
        raise ValueError(f"matrix payload truncated: need {nbytes} bytes")
    arr = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=offset)
    return check_matrix(arr.reshape(rows, cols).astype(np.float64), name), offset + nbytes


def layer_to_bytes(layer: DecomposedLayer) -> bytes:
    """The header, the ranks, the semantic part and each artifact
    subspace's U, s and V: the real columns only, never a model's padding."""
    parts = [
        _LAYER_HEADER.pack(layer.layer_id, layer.d_out, layer.d_in, layer.semantic_rank, layer.n_subspaces,
                           layer.pretrained_frob_sq),
        struct.pack(f"<{layer.n_subspaces}Q", *layer.ranks),
        semantic_to_bytes(layer),
    ]
    parts.extend(matrix_to_bytes(m) for a in layer.artifacts for m in a)
    return b"".join(parts)


def semantic_to_bytes(layer: DecomposedLayer) -> bytes:
    """Frozen-part bytes only; unchanged across training by construction."""
    return b"".join(matrix_to_bytes(m) for m in (layer.semantic.u, layer.semantic.s, layer.semantic.v))


def layer_from_bytes(buf: bytes, offset: int = 0, name: str = "layer") -> tuple[DecomposedLayer, int]:
    """Decode one layer starting at ``offset``; returns (layer, next
    offset).  A NaN or an inf in it is refused naming ``name``."""
    if len(buf) - offset < _LAYER_HEADER.size:
        raise ValueError("layer header truncated")
    layer_id, d_out, d_in, sem_rank, n_sub, frob = _LAYER_HEADER.unpack_from(buf, offset)
    offset += _LAYER_HEADER.size
    if not np.isfinite(frob):
        raise ValueError(f"{name} contains non-finite entries")
    if len(buf) - offset < 8 * n_sub:
        raise ValueError("layer artifact ranks truncated")
    ranks = struct.unpack_from(f"<{n_sub}Q", buf, offset)
    offset += 8 * n_sub

    def take(rows: int, cols: int) -> np.ndarray:
        nonlocal offset
        m, offset = matrix_from_bytes(buf, offset, name)
        if m.shape != (rows, cols):
            raise ValueError(f"expected {rows}x{cols} block, got {m.shape}")
        return m

    semantic = SemanticPart(take(d_out, sem_rank), take(1, sem_rank)[0], take(d_in, sem_rank))
    n_params = (d_out + 1 + d_in) * sum(ranks)
    # the factors' values alone take 8 bytes each, so a corrupt rank list
    # cannot make this allocate more than the buffer holds
    if 8 * n_params > len(buf) - offset:
        raise ValueError("layer artifact factors truncated")
    layer = DecomposedLayer(
        layer_id=int(layer_id),
        semantic=semantic,
        ranks=tuple(ranks),
        params=np.empty(n_params),
        pretrained_frob_sq=float(frob),
    )
    for a in layer.artifacts:
        a.u[...] = take(d_out, a.rank)
        a.s[...] = take(1, a.rank)[0]
        a.v[...] = take(d_in, a.rank)
    return layer, offset


# the manifest's ``model`` fields: the ``ModelConfig`` ones, then the head's rows
_CONFIG_FIELDS = tuple(f.name for f in fields(ModelConfig))
_MODEL_FIELDS = (*_CONFIG_FIELDS, "n_outputs")


def _model_config(spec: dict) -> ModelConfig:
    return ModelConfig(**{key: spec[key] for key in _CONFIG_FIELDS})


def _body(spec: dict, decomposed: bool) -> tuple[list, list]:
    """(name, shape) of every array in the body of a model with the manifest
    ``model`` fields ``spec``, in the order ``save_model`` writes them: the
    plain arrays (the token embedding, each block's slots, the head), then
    a decomposed model's attention projections as layers.  A vector's blob
    holds it as one row."""
    cfg = _model_config(spec)
    d = cfg.d_model
    plain, layers = [("token_embed", (d, d))], []
    for b in range(cfg.n_blocks):
        for slot, shape in block_shapes(cfg).items():
            (layers if decomposed and slot in PROJECTION_NAMES else plain).append((f"block{b}.{slot}", shape))
    plain.append(("head", (spec["n_outputs"], d)))
    return plain, layers


def _named_arrays(model: Model) -> dict:
    """Every array and attention slot of ``model`` by its body name."""
    named = {"token_embed": model.token_embed, "head": model.head}
    for b, block in enumerate(model.blocks):
        named.update((f"block{b}.{slot}", getattr(block, slot)) for slot in BLOCK_SLOTS)
    return named


def save_model(
    path: str | Path,
    model: Model,
    *,
    step: int = 0,
    config_echo: dict | None = None,
) -> None:
    cfg = model.config
    decomposed = model.decomposed
    spec = {key: getattr(cfg, key) for key in _CONFIG_FIELDS} | {"n_outputs": model.n_outputs}
    plain, layers = _body(spec, decomposed)
    named = _named_arrays(model)
    manifest = {
        "format": 1,
        "kind": "model",
        "step": int(step),
        "decomposed": decomposed,
        "model": spec,
        "arrays": [name for name, _ in plain],
        "config": config_echo,
    }
    if decomposed:
        manifest["decomposed_layers"] = [
            {"name": name, "layer_id": named[name].layer_id, "semantic_rank": named[name].semantic_rank,
             "artifact_ranks": list(named[name].ranks)}
            for name, _ in layers
        ]
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_LEN.pack(len(blob)))
    out.write(blob)
    for name, _ in plain:
        out.write(matrix_to_bytes(named[name]))
    for name, _ in layers:
        out.write(layer_to_bytes(named[name]))
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
    try:
        manifest = json.loads(raw[offset : offset + length])
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested past the stack
        raise ValueError(f"{path}: the manifest is not valid JSON: {exc}") from None
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
    plain, layers = _body(spec, decomposed)
    _require_names(path, "arrays", arrays, [name for name, _ in plain])
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
            layer_id = entry["layer_id"]
            if type(layer_id) is not int or layer_id < 0:
                raise ValueError(f"{path}: manifest field 'decomposed_layers[{i}].layer_id' is "
                                 f"{layer_id!r}, expected a non-negative int")
            if not _positive_int(entry["semantic_rank"]):
                raise ValueError(f"{path}: manifest field 'decomposed_layers[{i}].semantic_rank' is "
                                 f"{entry['semantic_rank']!r}, expected a positive int")
            ranks = entry["artifact_ranks"]
            if type(ranks) is not list or not ranks or not all(_positive_int(r) for r in ranks):
                raise ValueError(f"{path}: manifest field 'decomposed_layers[{i}].artifact_ranks' is "
                                 f"{ranks!r}, expected a list of positive ints")
        _require_names(path, "decomposed_layers", [e["name"] for e in entries], [name for name, _ in layers])
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


def load_model(path: str | Path) -> tuple[Model, dict]:
    raw = Path(path).read_bytes()
    manifest, offset = _parse_manifest(raw, path)
    try:
        return _read_body(raw, offset, manifest), manifest
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_body(raw: bytes, offset: int, manifest: dict) -> Model:
    """The model the body holds from ``offset`` on, read in ``_body``'s order
    (``_parse_manifest`` has held the names to it), each array held to its
    shape and each decomposed layer to its manifest entry and its slot."""
    spec = manifest["model"]
    plain, layers = _body(spec, manifest["decomposed"])
    named = {}
    for name, shape in plain:
        arr, offset = matrix_from_bytes(raw, offset, name)
        _require_shape(spec, name, arr.shape, (1,) * (2 - len(shape)) + shape)
        named[name] = arr.reshape(shape)
    for i, (name, shape) in enumerate(layers):
        layer, offset = layer_from_bytes(raw, offset, name)
        _require_shape(spec, name, (layer.d_out, layer.d_in), shape)
        entry = manifest["decomposed_layers"][i]
        for key, saved in (("layer_id", layer.layer_id), ("semantic_rank", layer.semantic_rank),
                           ("artifact_ranks", list(layer.ranks))):
            if entry[key] != saved:
                raise ValueError(f"manifest field 'decomposed_layers[{i}].{key}' is {entry[key]!r}, "
                                 f"but '{name}' has {saved!r}")
        if layer.layer_id != i:  # the i-th layer is slot i % 4 of block i // 4
            raise ValueError(f"manifest field 'decomposed_layers[{i}].layer_id' is {layer.layer_id}, "
                             f"but '{name}' is layer {i} (4 * block + slot)")
        named[name] = layer
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after checkpoint payload")
    cfg = _model_config(spec)
    blocks = [Block(**{slot: named[f"block{b}.{slot}"] for slot in BLOCK_SLOTS}) for b in range(cfg.n_blocks)]
    return stack_trainables(cfg, named["token_embed"], blocks, named["head"])


def _require_shape(spec: dict, name: str, have: tuple[int, int], want: tuple[int, int]) -> None:
    """Every dimension but the head's rows follows ``model.d_model``."""
    if have != want:
        field = "n_outputs" if name == "head" and have[0] != want[0] else "d_model"
        raise ValueError(f"manifest field 'model.{field}' is {spec[field]}, but '{name}' is "
                         f"{have[0]}x{have[1]}, not {want[0]}x{want[1]}")
