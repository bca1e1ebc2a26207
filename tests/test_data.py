import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from split_checks import (
    SAMPLE_SPLITS,
    bundle_digest,
    family_leakage,
    linear_probe_accuracy,
    samples_digest,
)
from subtune.data import (
    FAMILIES,
    LEVELS,
    SPLITS,
    DataConfig,
    SyntheticSample,
    apply_artifact,
    build_splits,
    class_basis,
    distort,
    export_csv,
    gen_clips,
    import_csv,
    stack_tokens,
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
    with pytest.raises(ValueError, match="unknown artifact family"):
        cfg.validate()


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
    for x, y in zip(a, b):
        assert np.array_equal(x.tokens, y.tokens)
        assert x.clip_id == y.clip_id
    # 4 clips of 4, class cycling per clip
    assert [s.clip_id for s in a[:4]] == ["test_in-r00000"] * 4
    assert [s.base_class for s in a[::4]] == [0, 1, 2, 3]
    assert all(s.label == 0 and s.family is None for s in a)


def test_transform_rejects_bad_family_and_level():
    tokens = np.zeros((8, 16))
    with pytest.raises(ValueError, match="unknown artifact family"):
        transform_tokens(tokens, "nope", 1, make_rng(0))
    with pytest.raises(ValueError, match="level"):
        transform_tokens(tokens, "token-blur", 0, make_rng(0))
    with pytest.raises(ValueError, match="level"):
        transform_tokens(tokens, "token-blur", 6, make_rng(0))


def test_transform_does_not_mutate_input():
    tokens = make_rng(5).normal(size=(8, 16))
    keep = tokens.copy()
    for fam in FAMILIES:
        transform_tokens(tokens, fam, 3, make_rng(9))
        assert np.array_equal(tokens, keep)


def test_msd_strictly_increases_with_level_for_every_family():
    cfg = small_cfg()
    for fam in FAMILIES:
        means = []
        for level in LEVELS:
            acc = 0.0
            for i in range(100):
                rng = make_rng(777_000 + i)
                clean = class_basis(cfg, i % cfg.n_base_classes)
                clean = clean + cfg.noise_level * rng.normal(size=clean.shape)
                dirty = transform_tokens(clean, fam, level, make_rng(888_000 + level * 1000 + i))
                acc += float(np.mean((dirty - clean) ** 2))
            means.append(acc / 100)
        assert all(b > a for a, b in zip(means, means[1:])), (fam, means)


def test_token_blur_fixes_constant_input():
    const = np.full((8, 16), -2.5)
    for level in LEVELS:
        out = transform_tokens(const, "token-blur", level, make_rng(1))
        assert np.array_equal(out, const)


def test_quantization_ignores_the_rng_stream():
    tokens = make_rng(11).normal(size=(8, 16))
    a = transform_tokens(tokens, "block-quantization", 2, make_rng(0))
    b = transform_tokens(tokens, "block-quantization", 2, make_rng(12345))
    assert np.array_equal(a, b)


def test_non_blur_families_share_the_processing_trace():
    from subtune.data import common_trace

    trace = common_trace(16)
    assert np.sqrt(np.mean(trace**2)) == pytest.approx(1.0, abs=1e-12)
    tokens = np.zeros((8, 16))
    # quantization of zeros is zeros, so the residue is exactly the trace
    out = transform_tokens(tokens, "block-quantization", 3, make_rng(0))
    assert np.allclose(out, 3 * 0.1 * np.tile(trace, (8, 1)), atol=1e-12)
    blurred = transform_tokens(tokens, "token-blur", 3, make_rng(0))
    assert np.array_equal(blurred, tokens)


def test_apply_artifact_flips_label_and_records_provenance():
    cfg = small_cfg()
    sample = gen_clips(cfg, 4, "test_in")[0]
    fake = apply_artifact(sample, "high-frequency-ripple", 4, make_rng(2))
    assert fake.label == 1
    assert fake.family == "high-frequency-ripple"
    assert fake.intensity == 4
    assert fake.base_class == sample.base_class
    assert not np.array_equal(fake.tokens, sample.tokens)


def test_distort_preserves_label():
    cfg = small_cfg()
    sample = gen_clips(cfg, 4, "test_in")[0]
    fake = apply_artifact(sample, "localized-patch", 2, make_rng(3))
    for s in (sample, fake):
        d = distort(s, "structured-noise", 3, make_rng(4))
        assert d.label == s.label
        assert d.clip_id == s.clip_id


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
        labs = [s.label for s in part]
        assert sum(labs) * 2 == len(labs)
    assert family_leakage(splits.finetune_train, cfg.families_train) == []
    assert family_leakage(splits.test_in, cfg.families_train) == []
    assert family_leakage(splits.test_heldout, cfg.families_heldout) == []
    heldout_fams = {s.family for s in splits.test_heldout if s.label == 1}
    assert heldout_fams == set(cfg.families_heldout)


def test_build_splits_clips_are_homogeneous():
    cfg = small_cfg()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    for part in (splits.finetune_train, splits.test_in, splits.test_heldout):
        by_clip = {}
        for s in part:
            by_clip.setdefault(s.clip_id, []).append(s)
        for clip_id, members in by_clip.items():
            assert len(members) == cfg.clip_size
            assert len({m.label for m in members}) == 1, clip_id
            fams = {m.family for m in members}
            assert len(fams) == 1, clip_id


def test_robustness_grid_covers_all_cells_and_is_deterministic():
    cfg = small_cfg()
    a = build_splits(cfg, SPLITS)
    b = build_splits(cfg, SPLITS)
    assert set(a.robustness) == {(f, lv) for f in FAMILIES for lv in LEVELS}
    cell_a = a.robustness[("structured-noise", 3)]
    cell_b = b.robustness[("structured-noise", 3)]
    assert len(cell_a) == len(a.test_in)
    for x, y, base in zip(cell_a, cell_b, a.test_in):
        assert np.array_equal(x.tokens, y.tokens)
        assert x.label == base.label
        assert x.clip_id == base.clip_id


def test_different_seed_changes_data():
    a = build_splits(small_cfg(seed=3), SAMPLE_SPLITS)
    b = build_splits(small_cfg(seed=4), SAMPLE_SPLITS)
    assert not np.array_equal(stack_tokens(a.finetune_train), stack_tokens(b.finetune_train))


def test_linear_probe_separates_base_classes():
    cfg = DataConfig()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    acc = linear_probe_accuracy(splits.pretrain_train, splits.pretrain_test)
    assert acc >= 0.9


def test_csv_round_trip_is_bit_exact(tmp_path):
    cfg = small_cfg()
    splits = build_splits(cfg, SAMPLE_SPLITS)
    part = splits.finetune_train[:12]
    path = tmp_path / "part.csv"
    export_csv(part, path)
    back = import_csv(path, cfg.n_tokens, cfg.d_model)
    assert len(back) == len(part)
    for orig, rt in zip(part, back):
        assert np.array_equal(orig.tokens, rt.tokens)
        assert rt.label == orig.label
        assert rt.family == orig.family
        assert rt.intensity == orig.intensity
        assert rt.clip_id == orig.clip_id


def test_import_csv_rejects_wrong_width(tmp_path):
    cfg = small_cfg()
    part = gen_clips(cfg, 4, "test_in")
    path = tmp_path / "part.csv"
    export_csv(part, path)
    with pytest.raises(ValueError, match="columns"):
        import_csv(path, cfg.n_tokens, cfg.d_model + 1)


def test_build_splits_reproduces_the_committed_digest():
    # digest of every split and grid cell, written by the generator before
    # its per-sample work was cached and restructured
    want = json.loads((Path(__file__).parent / "data" / "splits_digest.json").read_text())
    for seed, digest in want["seeds"].items():
        cfg = DataConfig(seed=int(seed), **want["config"])
        assert bundle_digest(build_splits(cfg, SPLITS)) == digest, seed


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
                    assert part == [], (names, name)
            got = bundle_digest(bundle)
            grid = {key: digest for key, digest in got.items() if "@" in key}
            assert grid == (full_grid if "robustness" in names else {}), names


def test_build_splits_rejects_an_unknown_split_name():
    with pytest.raises(ValueError, match="unknown split 'test_out'"):
        build_splits(small_cfg(), ("test_in", "test_out"))


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
    got = transform_tokens(tokens, "token-blur", level, None)
    assert np.array_equal(got, _blur_reference(tokens, level))
