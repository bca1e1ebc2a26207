"""Dense float64 matrix helpers: SVD with a fixed sign convention, norms,
seeded RNG construction, and a little-endian binary matrix layout."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence


class SvdConvergenceError(RuntimeError):
    """Raised when the backend SVD iteration fails to converge."""


def check_matrix(w: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D, nonempty, finite float array and return it as float64."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass
class SvdResult:
    """Thin SVD ``w = u @ diag(s) @ v.T`` with orthonormal columns.

    ``u`` is (rows, R), ``s`` is (R,) nonincreasing and nonnegative, ``v`` is
    (cols, R) with R = min(rows, cols).  Signs are fixed so the first nonzero
    entry of each column of ``u`` is nonnegative.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(w: np.ndarray, name: str = "matrix") -> SvdResult:
    arr = check_matrix(w, name)
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD failed to converge for {name} with shape {arr.shape}: {exc}"
        ) from exc
    v = vt.T.copy()
    u = u.copy()
    for j in range(u.shape[1]):
        nz = np.nonzero(u[:, j])[0]
        if nz.size and u[nz[0], j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdResult(u=u, s=s.copy(), v=v)


def frobenius_sq(w: np.ndarray) -> float:
    """Squared Frobenius norm of a validated matrix."""
    arr = check_matrix(w)
    return float(np.sum(arr * arr))


def make_rng(seed: int, *key: int) -> Generator:
    """Deterministic generator for stream ``key`` of ``seed``: identical
    arguments yield identical streams, and distinct keys independent ones,
    ``(k,)``, ``(k, 0)`` and ``(k, 0, 0)`` included.  With no key it is
    ``PCG64(seed)``'s stream."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return Generator(PCG64(SeedSequence(int(seed), spawn_key=key)))


# Binary layout: 8-byte little-endian unsigned row count, 8-byte little-endian
# unsigned column count, then rows*cols little-endian float64 values row-major.

_HEADER = struct.Struct("<QQ")


def matrix_to_bytes(w: np.ndarray) -> bytes:
    arr = check_matrix(w)
    return _HEADER.pack(arr.shape[0], arr.shape[1]) + arr.astype("<f8").tobytes(order="C")


def matrix_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one matrix starting at ``offset``; returns (matrix, next offset)."""
    if len(buf) - offset < _HEADER.size:
        raise ValueError("matrix header truncated")
    rows, cols = _HEADER.unpack_from(buf, offset)
    offset += _HEADER.size
    nbytes = rows * cols * 8
    if rows == 0 or cols == 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(buf) - offset < nbytes:
        raise ValueError(f"matrix payload truncated: need {nbytes} bytes")
    arr = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=offset)
    return arr.reshape(rows, cols).astype(np.float64), offset + nbytes
