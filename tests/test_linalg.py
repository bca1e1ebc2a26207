from __future__ import annotations

import itertools

import numpy as np
import pytest

from subtune import linalg


def test_svd_reconstruction_and_orthonormality() -> None:
    rng = linalg.make_rng(7)
    for rows, cols in [(5, 5), (8, 3), (3, 8), (1, 6), (6, 1), (16, 16)]:
        w = rng.normal(size=(rows, cols))
        res = linalg.svd(w)
        r = min(rows, cols)
        assert res.u.shape == (rows, r)
        assert res.s.shape == (r,)
        assert res.v.shape == (cols, r)
        # orthonormal columns
        assert np.max(np.abs(res.u.T @ res.u - np.eye(r))) <= 1e-10
        assert np.max(np.abs(res.v.T @ res.v - np.eye(r))) <= 1e-10
        # nonincreasing nonnegative spectrum
        assert np.all(res.s >= 0.0)
        assert np.all(np.diff(res.s) <= 1e-15)
        # reconstruction, relative Frobenius
        recon = res.u @ np.diag(res.s) @ res.v.T
        rel = np.linalg.norm(recon - w) / np.linalg.norm(w)
        assert rel <= 1e-8


def test_svd_sign_convention_first_nonzero_nonnegative() -> None:
    rng = linalg.make_rng(11)
    for _ in range(20):
        w = rng.normal(size=(6, 4))
        res = linalg.svd(w)
        for j in range(res.u.shape[1]):
            col = res.u[:, j]
            nz = np.nonzero(col)[0]
            assert nz.size > 0
            assert col[nz[0]] >= 0.0


def test_svd_sign_convention_is_deterministic_under_backend_flips() -> None:
    # w and a doctored copy whose SVD could differ only by column signs must
    # produce identical factors after the convention is applied.
    rng = linalg.make_rng(3)
    w = rng.normal(size=(5, 5))
    a = linalg.svd(w)
    b = linalg.svd(w.copy(order="F"))
    assert np.allclose(a.u, b.u, atol=1e-12)
    assert np.allclose(a.v, b.v, atol=1e-12)


def test_svd_diagonal_matrix() -> None:
    res = linalg.svd(np.diag([4.0, 2.0, 1.0]))
    assert np.allclose(res.s, [4.0, 2.0, 1.0])
    assert np.allclose(res.u, np.eye(3))
    assert np.allclose(res.v, np.eye(3))


def test_svd_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        linalg.svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_frobenius_sq_examples() -> None:
    assert linalg.frobenius_sq(np.zeros((3, 4))) == 0.0
    assert linalg.frobenius_sq(np.array([[2.0]])) == 4.0
    assert linalg.frobenius_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0


def test_frobenius_sq_matches_spectrum() -> None:
    rng = linalg.make_rng(5)
    w = rng.normal(size=(7, 4))
    res = linalg.svd(w)
    assert abs(linalg.frobenius_sq(w) - float(np.sum(res.s**2))) <= 1e-10 * linalg.frobenius_sq(w)


def test_rng_reproducible_streams() -> None:
    a = linalg.make_rng(1234).normal(size=10_000)
    b = linalg.make_rng(1234).normal(size=10_000)
    assert np.array_equal(a, b)
    c = linalg.make_rng(1235).normal(size=10_000)
    assert not np.array_equal(a, c)


def test_rng_rejects_non_integer_seed() -> None:
    with pytest.raises(ValueError):
        linalg.make_rng(1.5)  # type: ignore[arg-type]





def test_rng_without_a_key_is_the_plain_pcg64_stream() -> None:
    for seed in (0, 5, 2**31 + 3, 10**12 + 7):
        want = np.random.Generator(np.random.PCG64(seed)).random(64)
        assert linalg.make_rng(seed).random(64).tobytes() == want.tobytes()


def test_rng_keys_of_different_lengths_are_distinct_streams() -> None:
    draws = [linalg.make_rng(3, *key).random(8) for key in ((4,), (4, 0), (4, 0, 0))]
    for i, j in itertools.combinations(range(3), 2):
        assert not np.array_equal(draws[i], draws[j])


def test_rng_rejects_a_negative_seed() -> None:
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        linalg.make_rng(-1)
