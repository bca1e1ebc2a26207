"""Dense float64 matrix helpers: SVD with a fixed sign convention, norms
and keyed RNG streams."""

from __future__ import annotations

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

