"""Synthetic benchmark generator: construction properties, splits, files."""

import hashlib
import io
import math
import struct
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from xrhead.container import MAX_EXTENT, pack, unpack
from xrhead.data import (
    DATASET_MAGIC,
    DATASET_VERSION,
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
    "raw, match",
    [
        ({"true_parts": 9, "tokens_per_image": 16}, "true_parts 9 too large"),
        ({"noise": -0.1}, "noise must be >= 0"),
        # NaN would pass as a noise-free spec, and inf would write a dataset no reader loads
        ({"noise": math.nan}, "noise must be >= 0 and finite"),
        ({"noise": math.inf}, "noise must be >= 0 and finite"),
        # an int beyond the float range used to raise OverflowError
        ({"noise": 10**400}, "noise must be >= 0 and finite"),
        ({"train_per_class": 0}, "need at least one sample per class"),
        ({"test_per_class": 0}, "need at least one sample per class"),
        ({"patch_dim": 0}, "patch_dim and embed_dim must be positive"),
    ],
    ids=[
        "true_parts_9",
        "noise",
        "noise_nan",
        "noise_inf",
        "noise_beyond_float",
        "train_per_class",
        "test_per_class",
        "patch_dim",
    ],
)
def test_spec_refusals_name_the_bad_field(raw, match):
    with pytest.raises(DataError, match=match):
        SyntheticSpec.from_dict(raw)


@pytest.mark.parametrize(
    "name",
    ["num_classes", "num_superclasses", "tokens_per_image", "patch_dim",
     "train_per_class", "test_per_class", "embed_dim"],
)
def test_spec_refuses_a_size_above_the_extent_limit(name):
    with pytest.raises(DataError, match=f"{name} {10**30} exceeds the limit {MAX_EXTENT}"):
        SyntheticSpec.from_dict({name: 10**30})
    with pytest.raises(DataError, match="exceeds the limit"):
        generate(replace(SyntheticSpec(), **{name: MAX_EXTENT + 1}))


@pytest.mark.parametrize(
    "raw",
    [
        {"num_classes": 20.0},
        {"seed": True},
        {"cross_structure": 1},
        {"train_per_class": 2.5},
        {"patch_dim": True},
        {"seed": 1.5},
        {"true_parts": 3.0},
        {"noise": "0.1"},
    ],
    ids=[
        "float_in_int",
        "bool_in_int",
        "int_in_bool",
        "fraction_in_int",
        "bool_in_size",
        "fraction_in_seed",
        "float_in_parts",
        "str_in_float",
    ],
)
def test_spec_refuses_wrong_json_types(raw):
    key = next(iter(raw))
    with pytest.raises(DataError, match=f"dataset spec key '{key}' must be"):
        SyntheticSpec.from_dict(raw)
    # a spec made in Python meets the same check, before numpy sees its values
    with pytest.raises(DataError, match=f"dataset spec key '{key}' must be"):
        generate(replace(small_spec(), **raw))


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
    # a part's template is its anchor plus its pattern, so the anchors cancel
    # in a difference: the two classes swap one pair of patterns
    diff = ds.templates[1, 0, 1:] - ds.templates[0, 0, 1:]
    np.testing.assert_allclose(diff[1], -diff[0], atol=1e-12)
    assert np.abs(diff).max() > 0.1


def _pattern_parts(ds) -> np.ndarray:
    """(classes, parts, d): each part's pattern at style 0, less the mean pattern.

    With one style per cyclic shift, a part's mean template over the styles
    is its anchor plus the mean of the superclass's patterns.
    """
    return ds.templates[:, 0, 1:] - ds.templates[:, :, 1:].mean(axis=1)


def test_cross_structure_marginals_and_styles():
    spec = SyntheticSpec(cross_structure=True, seed=5)
    assert spec.num_styles() == 4
    ds = generate(spec)
    # sibling classes share one pattern set, assigned to the parts in
    # another order
    siblings = 4
    patterns = _pattern_parts(ds)
    for base in (0, 4, 8):
        ref = np.sort(patterns[base], axis=0)
        for c in range(base + 1, base + siblings):
            np.testing.assert_allclose(np.sort(patterns[c], axis=0), ref, atol=1e-12)
            assert not np.allclose(patterns[c], patterns[base])
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
    # a style shift rotates the pattern assignment; no shift of one sibling's
    # assignment is another's
    for base in range(0, 20, 4):
        group = ds.templates[base : base + 4]
        for i in range(4):
            for j in range(4):
                for r in range(group.shape[1]):
                    if i != j:
                        assert not np.array_equal(group[i, r], group[j, 0]), (base, i, j, r)


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
    patches, labels = few_shot_split(ds, shots=3, seed=11)
    assert patches.shape == (18, 8, 10)
    np.testing.assert_array_equal(np.bincount(labels), np.full(6, 3))
    again, _ = few_shot_split(ds, shots=3, seed=11)
    np.testing.assert_array_equal(patches, again)
    other, _ = few_shot_split(ds, shots=3, seed=12)
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
    for name, values in vars(ds).items():
        if isinstance(values, np.ndarray):
            assert getattr(back, name).tobytes() == values.tobytes(), name
    assert back.spec == ds.spec


def test_dataset_file_stores_only_the_drawn_floats(tmp_path):
    # labels, part ids and superclasses follow from the spec, so a file
    # cannot hold labels that disagree with the images' layout
    path = tmp_path / "ds.xrvd"
    ds = generate(small_spec())
    save_dataset(str(path), ds)
    raw = path.read_bytes()
    arrays, meta = unpack(io.BytesIO(raw), DATASET_MAGIC, DATASET_VERSION, "dataset array")
    assert list(arrays) == ["train_patches", "test_patches", "class_embeddings", "templates"]
    assert meta == {"spec": asdict(ds.spec)}
    want = pack(DATASET_MAGIC, 2, [(n, getattr(ds, n), "<f8") for n in arrays], meta)
    assert raw == bytes(want)


def test_dataset_file_of_version_1_is_refused(tmp_path):
    path = tmp_path / "old.xrvd"
    save_dataset(str(path), generate(small_spec()))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version 1, expected 2") as err:
        load_dataset(str(path))
    assert err.value.offset == 4


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

    arrays, meta = unpack(io.BytesIO(raw), DATASET_MAGIC, DATASET_VERSION, "dataset array")
    del arrays["templates"]
    missing = tmp_path / "missing.xrvd"
    kept = [(n, v, "<f8") for n, v in arrays.items()]
    missing.write_bytes(pack(DATASET_MAGIC, DATASET_VERSION, kept, meta))
    with pytest.raises(FormatError, match="missing dataset array 'templates'"):
        load_dataset(str(missing))

    trailing = str(tmp_path / "trail.xrvd")
    with open(trailing, "wb") as f:
        f.write(raw + b"\x00")
    with pytest.raises(FormatError) as err:
        load_dataset(trailing)
    assert "trailing" in str(err.value)


# SHA-256 of every array generate returns, per spec; the labels, part ids and
# superclasses depend only on the default sizes, so every spec shares them
_SAME_FOR_EVERY_SPEC = {
    "superclass_of": "943e2460c200801761813aff9d05bb872650942d9014c49f230a647fed1a32fe",
    "test_labels": "b1963fb54939864f0221c42b2af10901cceb50092c9df55086ba6daef90dbf27",
    "test_part_ids": "6f44521fb7daccace8196efc99f9af7a719fea85c7893626f6989a6de37db9b3",
    "train_labels": "bd32d40b49dd96b990a98e310f6855b700a99d1cb72fdc51bf65a878b97270d4",
    "train_part_ids": "0c3ae062dcc5b0e170ea4d41c504f1ced17a0a7b12a1c05be9b4635352185f6f",
}
GENERATE_SHA256 = [
    (
        {"seed": 0},
        {
            "class_embeddings": "558667946ed6bcc437162ce8b75bef61ce2c28afa064b2a884fc25c113e8e849",
            "templates": "e8035a06078a26d4eefae71e1737da4a6fd179f5aa68807bc22f377167c163e5",
            "test_patches": "254e8910d0c366385eefa509582f94db5557c56a1bf61027fa097aabee7b8ab2",
            "train_patches": "994090a523066009d01bca0bdf37c5bf3d07e65cb49242eb753b3947c2c39369",
        },
    ),
    (
        {"seed": 1301},
        {
            "class_embeddings": "a23f5321126baf48d04d69e3fe6ff3ebd4e067e371863fb5732d06d61bf4e805",
            "templates": "d91b269df51c80cc194e0c1c34006af05f1b6c49c41b12ee219d91675e67ad60",
            "test_patches": "a967e26a729dbb9d7503bf1e6a59ef2dafde18ad4f0c438c795e9acc9e09c8a4",
            "train_patches": "eca891ad05d12e75ea0cdea91037579768f2b890902de2a7b187612251db522d",
        },
    ),
    (
        {"cross_structure": True, "seed": 0},
        {
            "class_embeddings": "e7fbfc7e13d5a6383535c0855973b4e06899d65f7228d1274bc1a4830fa4c576",
            "templates": "8d4f31384693b5a5e0f9c57fc269effc04626a1c59b4719591fc90bee3e62843",
            "test_patches": "6b61d32902e0dc1138d982db9564bbc742fb460fd3c0930779bc01294da128de",
            "train_patches": "c5d6acf2dc289adb2d529812123a9206eb7715eea76e81380a9815ffea555b3d",
        },
    ),
    (
        {"cross_structure": True, "seed": 1301},
        {
            "class_embeddings": "ea4f84405470e28b2b4e3575fc887450d97b609d48f4163bdc0c0adb1430a861",
            "templates": "165b04f4380f03c5951a3b07c8e290de406be96f85ddcc5005aee06932dffb3d",
            "test_patches": "e336bf66ab96ae93ae8d50aa689200344395a8c89230de38b452fa449846ede2",
            "train_patches": "2abf0811145aedb060ad97fc701f1798001aaa317ad75365e999f836f3e2c293",
        },
    ),
    (
        {"noise": 0.0, "seed": 0},
        {
            "class_embeddings": "558667946ed6bcc437162ce8b75bef61ce2c28afa064b2a884fc25c113e8e849",
            "templates": "e8035a06078a26d4eefae71e1737da4a6fd179f5aa68807bc22f377167c163e5",
            "test_patches": "f2e5bb319e365421cce322ea2b6b2eca0109245ed44edec992f06e0fe3e6a6a6",
            "train_patches": "2a7462335033e46f44317c72713b4e3ffa75f7f71055c8bc614f66ef60a42501",
        },
    ),
]


@pytest.mark.parametrize(
    "raw, digests", GENERATE_SHA256, ids=["seed0", "seed1301", "cross0", "cross1301", "noise0"]
)
def test_generate_bits_are_pinned(raw, digests):
    ds = generate(SyntheticSpec.from_dict(raw))
    got = {
        name: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        for name, v in vars(ds).items()
        if isinstance(v, np.ndarray)
    }
    assert got == {**_SAME_FOR_EVERY_SPEC, **digests}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_files_cost_one_copy_of_the_arrays(tmp_path):
    # writing appends each array to one buffer; reading reads each payload
    # straight into its array
    ds = generate(SyntheticSpec.from_dict({"cross_structure": True, "seed": 0}))
    array_bytes = sum(v.nbytes for v in vars(ds).values() if isinstance(v, np.ndarray))
    path = str(tmp_path / "ds.xrvd")
    assert _traced_peak(lambda: save_dataset(path, ds)) <= 1.2 * array_bytes
    assert _traced_peak(lambda: load_dataset(path)) <= 1.2 * array_bytes
