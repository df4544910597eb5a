"""Fuzzed binary readers: damaged input raises FormatError or DataError, never anything else.

Each reader gets a valid file with one corruption drawn by hypothesis:
truncation, bit flips, overwritten byte runs, or a well-formed container
whose metadata holds wrong values.  Loading may still succeed when the
damage lands in payload values; any exception other than the two reader
errors fails the test.  Last, every reader holds a file to one rule: exactly
the arrays it names, each in the shape it implies, or FormatError naming the
first array that breaks it.
"""

import io
import json
import os
import re
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bruteforce
from xrhead.container import pack, unpack
from xrhead.data import (
    DATASET_MAGIC,
    DATASET_VERSION,
    SyntheticSpec,
    generate,
    load_dataset,
    save_dataset,
)
from xrhead.encoders import FEATURE_MAGIC, FEATURE_VERSION, load_features, save_features
from xrhead.errors import DataError, FormatError
from xrhead.harness import MODEL_MAGIC, MODEL_VERSION, TrainConfig, load_model, save_model, train

READER_ERRORS = (FormatError, DataError)
FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SMALL_SPEC = {
    "num_classes": 4,
    "num_superclasses": 2,
    "true_parts": 2,
    "tokens_per_image": 4,
    "patch_dim": 5,
    "train_per_class": 3,
    "test_per_class": 2,
    "embed_dim": 6,
}


@st.composite
def corrupted(draw, raw: bytes):
    """raw with one kind of damage: cut, flipped bits or an overwritten run of bytes."""
    kind = draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    data = bytearray(raw)
    if kind == "truncate":
        return bytes(data[: draw(st.integers(0, len(raw) - 1))])
    if kind == "flip":
        for _ in range(draw(st.integers(1, 8))):
            at = draw(st.integers(0, len(raw) - 1))
            data[at] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    at = draw(st.integers(0, len(raw) - 1))
    run = draw(st.binary(min_size=1, max_size=12))
    data[at : at + len(run)] = run
    return bytes(data[: len(raw)])


# JSON values of every type, small enough that no reader allocates much from them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def mutated_dict(base: dict):
    """base with some keys dropped, some values replaced by arbitrary JSON and some keys added."""
    keys = sorted(base)
    return st.tuples(
        st.sets(st.sampled_from(keys)),
        st.dictionaries(st.sampled_from(keys), json_values, max_size=3),
        st.dictionaries(st.text(max_size=8), json_values, max_size=2),
    ).map(lambda t: {**{k: v for k, v in base.items() if k not in t[0]}, **t[1], **t[2]})


def must_load_or_refuse(load, *args):
    try:
        load(*args)
    except READER_ERRORS:
        pass


@pytest.fixture(scope="module")
def workdir():
    path = tempfile.mkdtemp(prefix="xrhead-fuzz-")
    yield path
    shutil.rmtree(path)


def write(path: str, data: bytes) -> str:
    with open(path, "wb") as f:
        f.write(data)
    return path


# --- container.unpack ------------------------------------------------------------


def container_bytes(names=("grid", "floats")) -> bytes:
    arrays = [
        (names[0], np.arange(6.0).reshape(2, 3), "<f8"),
        (names[1], np.linspace(0.0, 1.0, 4), "<f8"),
        ("narrow", np.ones((2, 2)), "<f4"),
    ]
    return bytes(pack(b"TEST", 3, arrays, {"a": [1, 2], "b": "x"}))


def read_container(data: bytes) -> dict:
    return unpack(io.BytesIO(data), b"TEST", 3, "array")[0]


def test_container_round_trip():
    arrays = read_container(container_bytes())
    assert sorted(arrays) == ["floats", "grid", "narrow"]
    np.testing.assert_array_equal(arrays["grid"], np.arange(6.0).reshape(2, 3))


def test_container_refuses_duplicate_names():
    with pytest.raises(FormatError, match="'grid' appears twice"):
        read_container(container_bytes(names=("grid", "grid")))


@FUZZ
@given(data=corrupted(container_bytes()))
def test_container_reader_refuses_damage(data):
    must_load_or_refuse(read_container, data)


# one float64 array of 2^31 x 2^31 extents in 30 bytes: refused before allocating
HUGE_EXTENTS = b"".join(
    [struct.pack("<II", 1, 1), b"x", struct.pack("<BI", 2, 2), struct.pack("<QQ", 1 << 31, 1 << 31)]
)


@FUZZ
@given(data=st.binary(max_size=64))
@example(data=HUGE_EXTENTS)
def test_container_reader_refuses_noise(data):
    must_load_or_refuse(read_container, b"TEST\x03\x00\x00\x00" + data)


# --- feature files (.xrvf) -------------------------------------------------------


def feature_bytes(workdir) -> bytes:
    path = os.path.join(workdir, "base.xrvf")
    save_features(path, np.arange(12.0).reshape(3, 4), {"class_names": ["a", "b", "c"]})
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def features_raw(workdir):
    return feature_bytes(workdir)


@FUZZ
@given(data=st.data())
def test_feature_reader_refuses_damage(data, workdir, features_raw):
    path = write(os.path.join(workdir, "fuzz.xrvf"), data.draw(corrupted(features_raw)))
    must_load_or_refuse(load_features, path)


# --- dataset files (.xrvd) -------------------------------------------------------


@pytest.fixture(scope="module")
def dataset(workdir):
    ds = generate(SyntheticSpec.from_dict(SMALL_SPEC))
    path = os.path.join(workdir, "base.xrvd")
    save_dataset(path, ds)
    with open(path, "rb") as f:
        return ds, f.read()


STORED = ["train_patches", "test_patches", "class_embeddings", "templates"]


def dataset_arrays(ds) -> list[tuple[str, np.ndarray]]:
    """The (name, values) arrays a dataset file stores."""
    return [(name, getattr(ds, name)) for name in STORED]


def dataset_container(arrays, meta) -> bytes:
    """A well-formed dataset container holding the given (name, values) arrays and metadata."""
    return bytes(pack(DATASET_MAGIC, DATASET_VERSION, [(n, v, "<f8") for n, v in arrays], meta))


def good_metadata(ds) -> dict:
    return {"spec": SMALL_SPEC}


def test_dataset_with_metadata_round_trips(dataset, workdir):
    ds, _ = dataset
    raw = dataset_container(dataset_arrays(ds), good_metadata(ds))
    path = write(os.path.join(workdir, "meta.xrvd"), raw)
    np.testing.assert_array_equal(load_dataset(path).test_patches, ds.test_patches)


@pytest.mark.parametrize(
    "edit, match",
    [
        ({"train_per_class": 3.0}, "'train_per_class' must be int"),
        ({"cross_structure": 0}, "'cross_structure' must be bool"),
        ({"anchor_scale": 1.0}, "unknown dataset spec keys: anchor_scale"),
        ({"pattern_scale": 1.0}, "unknown dataset spec keys: pattern_scale"),
        ({"offset_scale": 0.25}, "unknown dataset spec keys: offset_scale"),
    ],
    ids=["float_in_int", "int_in_bool", "anchor_scale", "pattern_scale", "offset_scale"],
)
def test_dataset_reader_refuses_a_spec_of_wrong_types_or_removed_keys(
    edit, match, dataset, workdir
):
    # a float count used to load and only fail later, inside few_shot_split
    ds, _ = dataset
    meta = {**good_metadata(ds), "spec": {**SMALL_SPEC, **edit}}
    path = write(os.path.join(workdir, "spec.xrvd"), dataset_container(dataset_arrays(ds), meta))
    with pytest.raises(FormatError, match=match):
        load_dataset(path)


def test_dataset_reader_refuses_duplicate_array(dataset, workdir):
    ds, _ = dataset
    # a second, shorter array used to replace the real one silently
    arrays = dataset_arrays(ds) + [("templates", np.zeros(5))]
    path = write(os.path.join(workdir, "dup.xrvd"), dataset_container(arrays, good_metadata(ds)))
    with pytest.raises(FormatError, match="'templates' appears twice"):
        load_dataset(path)


@pytest.mark.parametrize(
    "name",
    [
        "train_patches",
        "train_labels",
        "train_part_ids",
        "test_patches",
        "test_labels",
        "test_part_ids",
        "class_embeddings",
        "superclass_of",
        "templates",
        "prototypes",
        "base_perms",
    ],
)
def test_dataset_reader_checks_every_array_against_the_spec(name, dataset, workdir):
    # a stored array of another shape or dtype code is refused; the arrays
    # the spec implies (labels, part ids, superclasses) and the ones files no
    # longer hold are refused when stored
    ds, _ = dataset
    path = os.path.join(workdir, "bad.xrvd")

    def refused(raw: bytes) -> FormatError:
        write(path, raw)
        with pytest.raises(FormatError, match=name) as err:
            load_dataset(path)
        return err.value

    if name not in STORED:
        extra = (name, np.zeros((2, 3)))
        refused(dataset_container(dataset_arrays(ds) + [extra], good_metadata(ds)))
        return
    values = getattr(ds, name)
    arrays = [(k, values[1:] if k == name else v) for k, v in dataset_arrays(ds)]
    refused(dataset_container(arrays, good_metadata(ds)))  # one leading row short
    # code 1 was int64; pack no longer writes it, so the bytes are framed by hand
    framed = [(k, 1 if k == name else 2, v) for k, v in dataset_arrays(ds)]
    raw, code_offsets = bruteforce.framed_by_hand(
        DATASET_MAGIC, DATASET_VERSION, framed, good_metadata(ds)
    )
    assert refused(raw).offset == code_offsets[STORED.index(name)]


@FUZZ
@given(data=st.data())
def test_dataset_reader_refuses_damage(data, workdir, dataset):
    _, raw = dataset
    path = write(os.path.join(workdir, "fuzz.xrvd"), data.draw(corrupted(raw)))
    must_load_or_refuse(load_dataset, path)


@FUZZ
@given(data=st.data())
def test_dataset_reader_refuses_wrong_metadata(data, workdir, dataset):
    ds, _ = dataset
    base = {"spec": data.draw(st.one_of(mutated_dict(SMALL_SPEC), json_values))}
    meta = data.draw(mutated_dict(base))
    path = write(os.path.join(workdir, "meta.xrvd"), dataset_container(dataset_arrays(ds), meta))
    must_load_or_refuse(load_dataset, path)


# --- model directories -----------------------------------------------------------

MODEL_CONFIG = dict(epochs=1, shots=2, batch_size=4, feat_dim=8, ctx_len=2, num_parts=2)


@pytest.fixture(scope="module", params=["CRM_FULL", "MLPS"])
def model_dir(request, workdir):
    ds = generate(SyntheticSpec.from_dict(SMALL_SPEC))
    cfg = TrainConfig(head=request.param, data_spec=SMALL_SPEC, **MODEL_CONFIG)
    model, report = train(cfg, ds)
    path = os.path.join(workdir, f"model-{request.param}")
    save_model(path, model, report)
    return path


def damaged_copy(src: str, dst: str, name: str, data: bytes) -> str:
    if os.path.exists(dst):
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    return write(os.path.join(dst, name), data)


def model_file(model_dir) -> tuple[list[tuple[str, np.ndarray, str]], dict]:
    """The (name, values, "<f8") arrays and the metadata of model_dir's params.xrvp."""
    with open(os.path.join(model_dir, "params.xrvp"), "rb") as f:
        arrays, meta = unpack(f, MODEL_MAGIC, MODEL_VERSION, "array")
    return [(name, values, "<f8") for name, values in arrays.items()], meta


def test_model_dir_round_trip(model_dir):
    model, report = load_model(model_dir)
    assert report is not None and model.param_count() > 0


@FUZZ
@given(data=st.data())
def test_model_reader_refuses_damage(data, model_dir, workdir):
    name = data.draw(st.sampled_from(["params.xrvp", "config.json", "report.json"]))
    with open(os.path.join(model_dir, name), "rb") as f:
        raw = f.read()
    dst = os.path.join(workdir, "fuzz-model")
    damaged_copy(model_dir, dst, name, data.draw(corrupted(raw)))
    must_load_or_refuse(load_model, dst)


@FUZZ
@given(data=st.data())
def test_model_reader_refuses_wrong_metadata(data, model_dir, workdir):
    arrays, meta = model_file(model_dir)
    raw = pack(MODEL_MAGIC, MODEL_VERSION, arrays, data.draw(mutated_dict(meta)))
    dst = os.path.join(workdir, "meta-model")
    damaged_copy(model_dir, dst, "params.xrvp", bytes(raw))
    with open(os.path.join(model_dir, "config.json"), encoding="utf-8") as f:
        config = json.load(f)
    if data.draw(st.booleans()):
        config = data.draw(mutated_dict(config))
        write(os.path.join(dst, "config.json"), json.dumps(config).encode("utf-8"))
    must_load_or_refuse(load_model, dst)


def test_unbuildable_model_metadata_is_a_format_error(model_dir, workdir):
    with open(os.path.join(model_dir, "config.json"), encoding="utf-8") as f:
        config = json.load(f)
    config["epochs"] = "many"
    dst = os.path.join(workdir, "bad-config")
    damaged_copy(model_dir, dst, "config.json", json.dumps(config).encode("utf-8"))
    with pytest.raises(FormatError):
        load_model(dst)
    damaged_copy(model_dir, dst, "config.json", b"\xff\xfe{")
    with pytest.raises(FormatError):
        load_model(dst)


def test_model_reader_refuses_duplicate_array(model_dir, workdir):
    arrays, meta = model_file(model_dir)
    raw = pack(MODEL_MAGIC, MODEL_VERSION, arrays + arrays[:1], meta)
    dst = damaged_copy(model_dir, os.path.join(workdir, "dup-model"), "params.xrvp", bytes(raw))
    with pytest.raises(FormatError, match="appears twice"):
        load_model(os.path.dirname(dst))


# --- the read rule: exactly the named arrays, each in its shape -------------------


def edited(arrays, edit: str, name: str) -> list[tuple[str, np.ndarray, str]]:
    """(name, values, dtype) triples with `name` added as a (3, 3) array, removed, or
    one leading row short."""
    if edit == "added":
        return arrays + [(name, np.ones((3, 3)), "<f8")]
    if edit == "removed":
        return [a for a in arrays if a[0] != name]
    return [(n, v[1:] if n == name else v, dtype) for n, v, dtype in arrays]


def refused_naming(name: str, load, path: str) -> None:
    with pytest.raises(FormatError, match=re.escape(repr(name))):
        load(path)


@pytest.mark.parametrize("edit, name", [("added", "extra"), ("removed", "features")])
def test_feature_reader_takes_one_array_named_features(edit, name, workdir):
    arrays = [("features", np.arange(12.0).reshape(3, 4), "<f4")]
    raw = pack(FEATURE_MAGIC, FEATURE_VERSION, edited(arrays, edit, name), {})
    refused_naming(name, load_features, write(os.path.join(workdir, "rule.xrvf"), bytes(raw)))
    # a feature file's one array may have any shape
    raw = pack(FEATURE_MAGIC, FEATURE_VERSION, edited(arrays, "reshaped", "features"), {})
    path = write(os.path.join(workdir, "rule.xrvf"), bytes(raw))
    assert load_features(path)[0].shape == (2, 4)


@pytest.mark.parametrize(
    "edit, name", [("added", "train_labels"), ("removed", "templates"), ("reshaped", "templates")]
)
def test_dataset_reader_takes_exactly_the_spec_arrays(edit, name, dataset, workdir):
    ds, _ = dataset
    arrays = [(n, v, "<f8") for n, v in dataset_arrays(ds)]
    raw = pack(DATASET_MAGIC, DATASET_VERSION, edited(arrays, edit, name), good_metadata(ds))
    refused_naming(name, load_dataset, write(os.path.join(workdir, "rule.xrvd"), bytes(raw)))


@pytest.mark.parametrize(
    "edit, name",
    # a stale array once loaded unnoticed, while the other readers refused one
    [
        ("added", "attn.stale.weight"),
        ("removed", "attn.score.weight"),
        ("reshaped", "attn.bn.running_mean"),
    ],
)
def test_model_reader_takes_exactly_the_model_arrays(edit, name, model_dir, workdir):
    arrays, meta = model_file(model_dir)
    raw = pack(MODEL_MAGIC, MODEL_VERSION, edited(arrays, edit, name), meta)
    dst = damaged_copy(model_dir, os.path.join(workdir, "rule-model"), "params.xrvp", bytes(raw))
    refused_naming(name, load_model, os.path.dirname(dst))
