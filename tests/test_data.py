"""Synthetic benchmark generator: construction properties, splits, files."""

import tracemalloc

import numpy as np
import pytest

from xrhead.data import (
    Dataset,
    SyntheticSpec,
    few_shot_split,
    generate,
    load_dataset,
    nearest_prototype_accuracy,
    save_dataset,
)
from xrhead.errors import DataError, FormatError


def small_spec(**kw):
    base = dict(
        num_classes=6,
        num_superclasses=2,
        true_parts=3,
        tokens_per_image=8,
        patch_dim=10,
        noise=0.2,
        train_per_class=6,
        test_per_class=4,
        embed_dim=5,
        seed=0,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def test_spec_validation():
    with pytest.raises(DataError):
        SyntheticSpec(num_classes=1).validate()
    with pytest.raises(DataError):
        SyntheticSpec(num_classes=20, num_superclasses=3).validate()
    with pytest.raises(DataError):
        SyntheticSpec(true_parts=0).validate()
    with pytest.raises(DataError):
        SyntheticSpec(true_parts=1, cross_structure=True).validate()
    with pytest.raises(DataError):
        SyntheticSpec(true_parts=4, tokens_per_image=4).validate()
    with pytest.raises(DataError):
        SyntheticSpec(noise=-0.1).validate()
    with pytest.raises(DataError):
        # 8 siblings need 8 assignments, 2! = 2 exist
        SyntheticSpec(num_classes=8, num_superclasses=1, true_parts=2, cross_structure=True).validate()
    with pytest.raises(DataError):
        SyntheticSpec.from_dict({"num_classes": 4, "bogus": 1})
    SyntheticSpec().validate()


@pytest.mark.parametrize(
    "raw",
    [{"num_classes": 20.0}, {"seed": True}, {"cross_structure": 1}],
    ids=["float_in_int", "bool_in_int", "int_in_bool"],
)
def test_spec_refuses_wrong_json_types(raw):
    key = next(iter(raw))
    with pytest.raises(DataError, match=f"dataset spec key '{key}' must be"):
        SyntheticSpec.from_dict(raw)


def test_generate_shapes_and_labels():
    spec = small_spec()
    ds = generate(spec)
    assert ds.train_patches.shape == (36, 8, 10)
    assert ds.test_patches.shape == (24, 8, 10)
    assert ds.train_labels.shape == (36,)
    np.testing.assert_array_equal(np.bincount(ds.train_labels), np.full(6, 6))
    np.testing.assert_array_equal(np.bincount(ds.test_labels), np.full(6, 4))
    assert ds.class_embeddings.shape == (6, 5)
    assert ds.superclass_of.tolist() == [0, 0, 0, 1, 1, 1]
    assert len(ds.class_names) == 6 and len(ds.part_names) == 4


def test_round_robin_part_ids():
    ds = generate(small_spec())
    expected = np.arange(8) % 4  # true_parts 3 plus background slot 0
    np.testing.assert_array_equal(ds.train_part_ids[0], expected)
    np.testing.assert_array_equal(ds.test_part_ids[-1], expected)
    # every foreground part covered at least once
    for p in range(1, 4):
        assert np.sum(expected == p) >= 1


def test_determinism():
    a = generate(small_spec())
    b = generate(small_spec())
    np.testing.assert_array_equal(a.train_patches, b.train_patches)
    np.testing.assert_array_equal(a.test_patches, b.test_patches)
    np.testing.assert_array_equal(a.class_embeddings, b.class_embeddings)
    c = generate(small_spec(seed=1))
    assert not np.array_equal(a.train_patches, c.train_patches)


def test_zero_noise_collapses_intra_class():
    ds = generate(small_spec(noise=0.0))
    # cross_structure off: all samples of a class are the exact same image
    first = ds.train_patches[ds.train_labels == 2]
    for row in first[1:]:
        np.testing.assert_array_equal(row, first[0])


def test_zero_noise_oracle_is_perfect():
    assert nearest_prototype_accuracy(generate(small_spec(noise=0.0))) == 1.0
    cross = small_spec(noise=0.0, cross_structure=True, true_parts=3, num_classes=4, num_superclasses=2)
    assert nearest_prototype_accuracy(generate(cross)) == 1.0


def test_noisy_oracle_still_strong():
    ds = generate(small_spec(noise=0.3))
    assert nearest_prototype_accuracy(ds) > 0.9


def test_two_class_swap_construction():
    spec = SyntheticSpec(
        num_classes=2,
        num_superclasses=1,
        true_parts=2,
        tokens_per_image=6,
        patch_dim=8,
        noise=0.1,
        train_per_class=4,
        test_per_class=4,
        cross_structure=True,
        seed=3,
    )
    ds = generate(spec)
    assert spec.num_styles() == 1  # too few rotation-free assignments, stays fixed
    np.testing.assert_array_equal(ds.prototypes[1], ds.prototypes[0][::-1])


def test_cross_structure_marginals_and_styles():
    spec = SyntheticSpec(cross_structure=True, seed=5)
    assert spec.num_styles() == 4
    ds = generate(spec)
    # sibling classes share one prototype set, permuted
    siblings = 4
    for base in (0, 4, 8):
        ref = np.sort(ds.prototypes[base].round(12), axis=0)
        for c in range(base + 1, base + siblings):
            np.testing.assert_allclose(np.sort(ds.prototypes[c].round(12), axis=0), ref)
            assert not np.array_equal(ds.base_perms[c], ds.base_perms[base])
    # per-part template sets match across siblings exactly: marginals identical
    for p in range(1, 5):
        ref = np.sort(ds.templates[0, :, p, :], axis=0)
        for c in range(1, siblings):
            np.testing.assert_allclose(np.sort(ds.templates[c, :, p, :], axis=0), ref, atol=1e-12)
    # and the sampled per-part means agree within a few standard errors;
    # the style draw is shared per image, so images (not tokens) set the rate
    images = 64
    tol = 6 / np.sqrt(images)  # patterns are standard normal
    for c in range(1, siblings):
        for p in range(1, 5):
            mu_ref = ds.test_patches[ds.test_labels == 0][:, ds.test_part_ids[0] == p].mean(axis=(0, 1))
            mu = ds.test_patches[ds.test_labels == c][:, ds.test_part_ids[0] == p].mean(axis=(0, 1))
            assert np.max(np.abs(mu - mu_ref)) < tol


def test_cross_structure_perms_rotation_inequivalent():
    ds = generate(SyntheticSpec(cross_structure=True, seed=7))
    s = 4
    for base in range(0, 20, 4):
        group = ds.base_perms[base : base + 4]
        for i in range(4):
            for j in range(i + 1, 4):
                for r in range(s):
                    assert not np.array_equal((group[i] + r) % s, group[j]), (base, i, j, r)


def test_sibling_embeddings_collapse_in_cross_mode():
    ds = generate(SyntheticSpec(cross_structure=True, seed=9))
    emb = ds.class_embeddings
    for base in range(0, 20, 4):
        for c in range(base + 1, base + 4):
            np.testing.assert_allclose(emb[c], emb[base], atol=1e-9)
    # superclasses stay apart
    assert np.linalg.norm(emb[0] - emb[4]) > 0.1


def test_few_shot_split():
    ds = generate(small_spec())
    patches, labels, part_ids = few_shot_split(ds, shots=3, seed=11)
    assert patches.shape == (18, 8, 10)
    np.testing.assert_array_equal(np.bincount(labels), np.full(6, 3))
    assert part_ids.shape == (18, 8)
    again, _, _ = few_shot_split(ds, shots=3, seed=11)
    np.testing.assert_array_equal(patches, again)
    other, _, _ = few_shot_split(ds, shots=3, seed=12)
    assert not np.array_equal(patches, other)
    with pytest.raises(DataError):
        few_shot_split(ds, shots=7, seed=0)
    with pytest.raises(DataError):
        few_shot_split(ds, shots=0, seed=0)


def test_dataset_round_trip(tmp_path):
    path = str(tmp_path / "ds.xrvd")
    ds = generate(small_spec(cross_structure=False))
    save_dataset(path, ds)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.train_patches, ds.train_patches)
    np.testing.assert_array_equal(back.test_labels, ds.test_labels)
    np.testing.assert_array_equal(back.class_embeddings, ds.class_embeddings)
    np.testing.assert_array_equal(back.templates, ds.templates)
    np.testing.assert_array_equal(back.prototypes, ds.prototypes)
    assert back.spec == ds.spec
    assert back.class_names == ds.class_names
    assert back.part_names == ds.part_names


def test_dataset_file_errors(tmp_path):
    path = str(tmp_path / "ds.xrvd")
    ds = generate(small_spec())
    save_dataset(path, ds)
    raw = open(path, "rb").read()

    bad = str(tmp_path / "bad.xrvd")
    with open(bad, "wb") as f:
        f.write(b"WHAT" + raw[4:])
    with pytest.raises(FormatError) as err:
        load_dataset(bad)
    assert err.value.offset == 0

    cut = str(tmp_path / "cut.xrvd")
    with open(cut, "wb") as f:
        f.write(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_dataset(cut)

    trailing = str(tmp_path / "trail.xrvd")
    with open(trailing, "wb") as f:
        f.write(raw + b"\x00")
    with pytest.raises(FormatError) as err:
        load_dataset(trailing)
    assert "trailing" in str(err.value)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_files_cost_one_copy_of_the_arrays(tmp_path):
    # writing appends each array to one buffer; reading holds the file's
    # bytes and one fresh copy of each array
    ds = generate(SyntheticSpec.from_dict({"cross_structure": True, "seed": 0}))
    array_bytes = sum(v.nbytes for v in vars(ds).values() if isinstance(v, np.ndarray))
    path = str(tmp_path / "ds.xrvd")
    assert _traced_peak(lambda: save_dataset(path, ds)) <= 1.2 * array_bytes
    assert _traced_peak(lambda: load_dataset(path)) <= 2.1 * array_bytes
