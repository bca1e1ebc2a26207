"""Tests of the synthetic corpus.  Two of them hold ``build_splits`` to the
digests recorded in ``data/splits_digest.json`` and
``data/splits_digest_odd_shape.json``; the digests change with every draw,
so regenerate them only for a change that is meant to move numbers:

    PYTHONPATH=src python tests/test_data.py --write
"""

import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_data import transform_sample
from split_checks import (
    SAMPLE_SPLITS,
    bundle_digest,
    family_leakage,
    import_csv,
    linear_probe_accuracy,
    samples_digest,
)
from subtune import data
from subtune.data import (
    FAMILIES,
    LEVELS,
    SPLITS,
    DataConfig,
    build_splits,
    class_basis,
    export_csv,
    gen_clips,
    transform_tokens,
)
from subtune.linalg import make_rng


def small_cfg(**kw):
    base = dict(
        n_tokens=8,
        d_model=16,
        n_pretrain=64,
        n_pretrain_test=32,
        n_finetune=64,
        n_test=32,
        clip_size=4,
        seed=3,
    )
    base.update(kw)
    return DataConfig(**base)


def test_config_rejects_overlapping_families():
    cfg = small_cfg(
        families_train=("localized-patch", "token-blur"),
        families_heldout=("token-blur",),
    )
    with pytest.raises(ValueError, match="disjoint"):
        cfg.validate()


def test_config_rejects_unknown_family():
    cfg = small_cfg(families_train=("speckle",))
    with pytest.raises(ValueError, match=r"^config key data.families_train\[0\] must be one of 'localized-patch', "):
        cfg.validate()


@pytest.mark.parametrize("key, value", [("n_base_classes", 1), ("n_base_classes", 0), ("n_tokens", -1),
                                        ("d_model", 1)])
def test_a_data_config_built_in_code_holds_its_grid_and_class_count_to_models_bounds(key, value):
    # a run copies these from model, whose bounds it checks first; a
    # DataConfig made directly is held to the same ones
    with pytest.raises(ValueError, match=f"^config key data.{key} must be >= 2, got {value}$"):
        build_splits(small_cfg(**{key: value}), ("pretrain_train",))
    with pytest.raises(ValueError, match=f"^config key data.{key} must be >= 2, got {value}$"):
        gen_clips(small_cfg(**{key: value}), 8, "pretrain_train")


def test_config_rejects_bad_split_sizes():
    with pytest.raises(ValueError, match="n_finetune"):
        small_cfg(n_finetune=30).validate()
    with pytest.raises(ValueError, match="n_pretrain"):
        small_cfg(n_pretrain=10).validate()


def test_class_basis_unit_rms_and_distinct():
    cfg = small_cfg()
    bases = [class_basis(cfg, c) for c in range(cfg.n_base_classes)]
    for b in bases:
        assert b.shape == (8, 16)
        assert np.sqrt(np.mean(b**2)) == pytest.approx(1.0, abs=1e-12)
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            assert np.mean((bases[i] - bases[j]) ** 2) > 0.1


def test_gen_real_deterministic_and_clip_structured():
    cfg = small_cfg()
    a = gen_clips(cfg, 16, "test_in")
    b = gen_clips(cfg, 16, "test_in")
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.clip_id, b.clip_id)
    # 4 clips of 4, class cycling per clip
    assert a.clip_id[:4].tolist() == ["test_in-r00000"] * 4
    assert a.base_class[::4].tolist() == [0, 1, 2, 3]
    assert a.labels.dtype == np.float64 and not a.labels.any()
    assert a.family.tolist() == [""] * 16 and not a.intensity.any()


def test_transform_rejects_bad_family_and_level():
    tokens = np.zeros((1, 8, 16))
    with pytest.raises(ValueError, match="unknown artifact family"):
        transform_tokens(tokens, "nope", 1, make_rng(0))
    with pytest.raises(ValueError, match="level"):
        transform_tokens(tokens, "token-blur", 0, make_rng(0))
    with pytest.raises(ValueError, match="level"):
        transform_tokens(tokens, "token-blur", 6, make_rng(0))


def test_transform_rejects_a_lone_sample():
    with pytest.raises(ValueError, match=r"\(N, T, D\) stack, got shape \(8, 16\)"):
        transform_tokens(np.zeros((8, 16)), "token-blur", 1, None)


def test_transform_does_not_mutate_input():
    tokens = make_rng(5).normal(size=(3, 8, 16))
    keep = tokens.copy()
    for fam in FAMILIES:
        transform_tokens(tokens, fam, 3, make_rng(9))
        assert np.array_equal(tokens, keep)


class _Recorder:
    """A generator that keeps a copy of every draw it hands out."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append(np.array(out, copy=True))
            return out

        return draw


class _Replay:
    """Sample ``i``'s slice of each recorded stacked draw, handed out in
    order: a stub rng for the one-sample reference transform."""

    def __init__(self, draws, i):
        self.slices = iter([draw[i] for draw in draws])

    def integers(self, low, high):
        value = next(self.slices)
        assert value.shape == () and low <= value < high
        return value

    def normal(self, size):
        value = next(self.slices)
        assert value.shape == np.zeros(size).shape
        return value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(LEVELS),
    st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(2, 24)),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1e-3, 1.0, 1e3)),
    st.integers(0, 2**63 - 1),
)
def test_stacked_transform_is_bit_equal_to_the_per_sample_reference(family, level, shape, token_seed, scale, rng_seed):
    # a patch window spans two tokens, and configs hold at least two
    assume(family != "localized-patch" or shape[1] >= 2)
    tokens = scale * make_rng(token_seed).normal(size=shape)
    keep = tokens.copy()
    rng = _Recorder(make_rng(rng_seed))
    got = transform_tokens(tokens, family, level, rng)
    want = []
    for i, sample in enumerate(tokens):
        replay = _Replay(rng.draws, i)
        want.append(transform_sample(sample, family, level, replay))
        assert next(replay.slices, None) is None
    want = np.stack(want)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(tokens, keep)


def test_msd_strictly_increases_with_level_for_every_family():
    cfg = small_cfg()
    for fam in FAMILIES:
        means = []
        for level in LEVELS:
            acc = 0.0
            clean = np.stack([class_basis(cfg, i % cfg.n_base_classes) for i in range(100)])
            for i in range(100):
                clean[i] += cfg.noise_level * make_rng(777_000 + i).normal(size=clean.shape[1:])
            dirty = transform_tokens(clean, fam, level, make_rng(888, level))
            for i in range(100):
                acc += float(np.mean((dirty[i] - clean[i]) ** 2))
            means.append(acc / 100)
        assert all(b > a for a, b in zip(means, means[1:])), (fam, means)


def test_token_blur_fixes_constant_input():
    const = np.full((1, 8, 16), -2.5)
    for level in LEVELS:
        out = transform_tokens(const, "token-blur", level, None)
        assert np.array_equal(out, const)


def test_quantization_ignores_the_rng_stream():
    tokens = make_rng(11).normal(size=(1, 8, 16))
    a = transform_tokens(tokens, "block-quantization", 2, make_rng(0))
    b = transform_tokens(tokens, "block-quantization", 2, make_rng(12345))
    assert np.array_equal(a, b)


def test_non_blur_families_share_the_processing_trace():
    from subtune.data import common_trace

    trace = common_trace(16)
    assert np.sqrt(np.mean(trace**2)) == pytest.approx(1.0, abs=1e-12)
    tokens = np.zeros((1, 8, 16))
    # quantization of zeros is zeros, so the residue is exactly the trace
    out = transform_tokens(tokens, "block-quantization", 3, None)
    assert np.allclose(out[0], 3 * 0.1 * np.tile(trace, (8, 1)), atol=1e-12)
    blurred = transform_tokens(tokens, "token-blur", 3, None)
    assert np.array_equal(blurred, tokens)


def test_fake_clips_flip_the_label_and_record_family_and_level():
    cfg = small_cfg()
    families = ("high-frequency-ripple", "token-blur")
    real = gen_clips(cfg, 16, "test_in")
    fake = data._fill_clips(cfg, np.empty((16, cfg.n_tokens, cfg.d_model)), "test_in", families)
    assert fake.labels.dtype == np.float64 and fake.labels.tolist() == [1.0] * 16
    # families cycle per clip first, levels second
    assert fake.family.tolist() == [f for f in families * 2 for _ in range(4)]
    assert fake.intensity.tolist() == [1] * 8 + [2] * 8
    assert np.array_equal(fake.base_class, real.base_class)
    assert fake.clip_id[::4].tolist() == [f"test_in-f{c:05d}" for c in range(4)]
    assert not np.array_equal(fake.tokens, real.tokens)


def test_distort_preserves_label():
    cfg = small_cfg()
    splits = build_splits(cfg, ("test_in", "robustness"))
    clean = splits.test_in
    distorted = splits.robustness[("structured-noise", 3)]
    for label in (0.0, 1.0):
        rows = np.flatnonzero(clean.labels == label)
        assert rows.size > 0
        assert distorted.labels[rows].tolist() == [label] * rows.size
        assert np.array_equal(distorted.clip_id[rows], clean.clip_id[rows])
        for r in rows:
            assert not np.array_equal(distorted.tokens[r], clean.tokens[r])


def test_build_splits_shapes_balance_and_family_discipline():
    cfg = small_cfg()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    assert len(splits.pretrain_train) == 64
    assert len(splits.pretrain_test) == 32
    assert len(splits.finetune_train) == 64
    assert len(splits.test_in) == 32
    assert len(splits.test_heldout) == 32
    for name in ("finetune_train", "test_in", "test_heldout"):
        part = getattr(splits, name)
        assert part.labels.sum() * 2 == len(part)
    assert family_leakage(splits.finetune_train, cfg.families_train) == []
    assert family_leakage(splits.test_in, cfg.families_train) == []
    assert family_leakage(splits.test_heldout, cfg.families_heldout) == []
    heldout_fams = set(splits.test_heldout.family[splits.test_heldout.labels == 1].tolist())
    assert heldout_fams == set(cfg.families_heldout)


def test_build_splits_clips_are_homogeneous():
    cfg = small_cfg()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    for part in (splits.finetune_train, splits.test_in, splits.test_heldout):
        for clip_id in np.unique(part.clip_id):
            members = part.clip_id == clip_id
            assert members.sum() == cfg.clip_size
            assert len(set(part.labels[members].tolist())) == 1, clip_id
            assert len(set(part.family[members].tolist())) == 1, clip_id
            assert len(set(part.intensity[members].tolist())) == 1, clip_id


def test_robustness_grid_covers_all_cells_and_is_deterministic():
    cfg = small_cfg()
    a = build_splits(cfg, SPLITS)
    b = build_splits(cfg, SPLITS)
    assert set(a.robustness) == {(f, lv) for f in FAMILIES for lv in LEVELS}
    for (family, level), cell_a in a.robustness.items():
        cell_b = b.robustness[(family, level)]
        assert len(cell_a) == len(a.test_in)
        assert np.array_equal(cell_a.tokens, cell_b.tokens)
        assert not np.array_equal(cell_a.tokens, a.test_in.tokens)
        # labels, classes, families and clips are the clean split's; the
        # intensity is the cell's level on every sample
        for name in ("labels", "base_class", "family", "clip_id"):
            assert np.array_equal(getattr(cell_a, name), getattr(a.test_in, name)), name
        assert cell_a.intensity.tolist() == [level] * len(a.test_in)


def test_different_seed_changes_data():
    a = build_splits(small_cfg(seed=3), SAMPLE_SPLITS)
    b = build_splits(small_cfg(seed=4), SAMPLE_SPLITS)
    assert not np.array_equal(a.finetune_train.tokens, b.finetune_train.tokens)


# while every draw was make_rng(seed + offset + index), seed s + 1 replayed
# seed s shifted by one sample, one clip and one class


def test_adjacent_seeds_do_not_share_samples():
    a = build_splits(DataConfig(seed=0), ("pretrain_train",)).pretrain_train
    b = build_splits(DataConfig(seed=1), ("pretrain_train",)).pretrain_train
    assert not np.array_equal(b.tokens[7], a.tokens[8])


def test_adjacent_seeds_do_not_share_class_bases():
    for c in range(3):
        assert not np.array_equal(class_basis(DataConfig(seed=1), c), class_basis(DataConfig(seed=0), c + 1))


def test_a_split_draws_from_as_many_generators_whatever_its_size(monkeypatch):
    # one per half and kind of draw, one per artifact group and one per
    # robustness cell, where there used to be one or more per sample
    build_splits(small_cfg(n_test=128), ("test_in", "robustness"))  # caches the class bases
    made = []
    monkeypatch.setattr(data, "make_rng", lambda *args: made.append(args) or make_rng(*args))
    groups = len(DataConfig().families_train) * len(LEVELS)
    for n_test in (128, 1024):
        made.clear()
        build_splits(small_cfg(n_test=n_test), ("test_in", "robustness"))
        assert len(made) == 2 + 2 + groups + len(FAMILIES) * len(LEVELS), n_test


def test_linear_probe_separates_base_classes():
    cfg = DataConfig()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    acc = linear_probe_accuracy(splits.pretrain_train, splits.pretrain_test)
    assert acc >= 0.9


def test_csv_round_trip_is_bit_exact(tmp_path):
    cfg = small_cfg()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    part = splits.finetune_train
    path = tmp_path / "part.csv"
    export_csv(part, path)
    back = import_csv(path, cfg.n_tokens, cfg.d_model)
    assert len(back) == len(part)
    for name in ("tokens", "labels", "family", "intensity", "clip_id"):
        assert np.array_equal(getattr(back, name), getattr(part, name)), name


def test_import_csv_rejects_wrong_width(tmp_path):
    cfg = small_cfg()
    part = gen_clips(cfg, 4, "test_in")
    path = tmp_path / "part.csv"
    export_csv(part, path)
    with pytest.raises(ValueError, match="columns"):
        import_csv(path, cfg.n_tokens, cfg.d_model + 1)


DATA = Path(__file__).parent / "data"
DIGESTS = ("splits_digest.json", "splits_digest_odd_shape.json")


def _digest(recorded: dict) -> dict:
    """``recorded`` with each of its seeds' digests computed afresh under
    its config."""
    config = {key: tuple(value) if isinstance(value, list) else value for key, value in recorded["config"].items()}
    seeds = {seed: bundle_digest(build_splits(DataConfig(seed=int(seed), **config), SPLITS))
             for seed in recorded["seeds"]}
    return recorded | {"seeds": seeds}


def _assert_committed_digest(name: str) -> None:
    recorded = json.loads((DATA / name).read_text())
    assert _digest(recorded) == recorded


def test_build_splits_reproduces_the_committed_digest():
    # digest of every split and grid cell at two seeds
    _assert_committed_digest("splits_digest.json")


def test_build_splits_reproduces_the_odd_shape_digest():
    # the same digest at a 3x5 grid with clips of one sample, one train
    # family and four held out
    _assert_committed_digest("splits_digest_odd_shape.json")


def _traced_build(splits: tuple[str, ...]):
    tracemalloc.start()
    try:
        bundle = build_splits(DataConfig(), splits)
        return bundle, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_detection_split_is_written_into_one_tokens_array():
    bundle, peak = _traced_build(("finetune_train",))
    assert peak <= 1.5 * bundle.finetune_train.tokens.nbytes, peak


def test_the_robustness_grid_peaks_near_the_bytes_it_holds():
    bundle, peak = _traced_build(("robustness",))
    held = sum(cell.tokens.nbytes for cell in bundle.robustness.values())
    assert peak <= 1.2 * held, (peak, held)


def test_every_split_selection_matches_a_full_build():
    cfg = small_cfg(seed=5)
    full = bundle_digest(build_splits(cfg, SPLITS))
    full_grid = {key: digest for key, digest in full.items() if "@" in key}
    for n in range(1, len(SPLITS) + 1):
        for names in itertools.combinations(SPLITS, n):
            bundle = build_splits(cfg, names)
            for name in SAMPLE_SPLITS:
                part = getattr(bundle, name)
                if name in names:
                    assert samples_digest(part) == full[name], (names, name)
                else:
                    assert len(part) == 0, (names, name)
            got = bundle_digest(bundle)
            grid = {key: digest for key, digest in got.items() if "@" in key}
            assert grid == (full_grid if "robustness" in names else {}), names


def test_build_splits_rejects_an_unknown_split_name():
    with pytest.raises(ValueError, match="unknown split 'test_out'"):
        build_splits(small_cfg(), ("test_in", "test_out"))


def test_split_arrays_are_read_only():
    splits = build_splits(small_cfg(), SPLITS)
    cell = splits.robustness[("token-blur", 2)]
    for split in (splits.pretrain_train, splits.finetune_train, splits.test_in, cell):
        for name in ("tokens", "labels", "base_class", "family", "intensity", "clip_id"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(split, name)[0] = getattr(split, name)[-1]
    # the cell shares the clean split's labels, so one write would reach both
    assert np.shares_memory(cell.labels, splits.test_in.labels)


def test_class_basis_is_cached_and_read_only():
    cfg = small_cfg()
    basis = class_basis(cfg, 1)
    assert class_basis(small_cfg(), 1) is basis
    assert class_basis(small_cfg(seed=4), 1) is not basis
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.0


def _blur_reference(tokens: np.ndarray, level: int) -> np.ndarray:
    """token-blur as first written: reflect padding and np.convolve with a
    3-tap box kernel down every column, then the level's blend."""
    kernel = np.ones(3) / 3
    padded = np.pad(tokens, ((1, 1), (0, 0)), mode="reflect")
    smoothed = np.apply_along_axis(lambda col: np.convolve(col, kernel, mode="valid"), 0, padded)
    frac = 0.4 + (1.0 - 0.4) * (level - 1) / 4.0
    return tokens + frac * (smoothed - tokens)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-1e300, 1e300))
    ),
    st.sampled_from(LEVELS),
)
def test_token_blur_is_bit_equal_to_the_convolve_reference(tokens, level):
    got = transform_tokens(tokens[None], "token-blur", level, None)
    assert np.array_equal(got[0], _blur_reference(tokens, level))


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for name in DIGESTS:
        recorded = json.loads((DATA / name).read_text())
        (DATA / name).write_text(json.dumps(_digest(recorded), indent=1, sort_keys=True) + "\n")
