"""Synthetic fine-grained benchmark.

Images are bags of patch vectors.  Every patch is the sum of a part anchor
(shared by all classes, it identifies which part a patch belongs to), the
class's pattern for that part, and gaussian noise.  Token order is round-robin
over part slots with slot 0 reserved for background, so ground-truth part ids
are known.  Classes group into superclasses that share part patterns, which
keeps the problem fine-grained: telling siblings apart is the hard part.

cross_structure makes sibling classes use permutations of one shared
pattern set, so siblings differ only in which part carries which pattern.
When enough rotation-inequivalent permutations exist, each image additionally
draws a random cyclic style shift applied to every part jointly; the per-part
pattern marginals then match exactly across siblings and only the joint
part-to-pattern pairing identifies the class.  With too few permutations
(e.g. true_parts 2) the assignment stays deterministic.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .container import MAX_EXTENT, check_arrays, pack, unpack
from .errors import DataError, FormatError
from .report import JsonFields, write_atomic

DATASET_MAGIC = b"XRVD"
DATASET_VERSION = 2


@dataclass
class SyntheticSpec:
    num_classes: int = 20
    num_superclasses: int = 5
    true_parts: int = 4
    tokens_per_image: int = 16
    patch_dim: int = 24
    noise: float = 0.3
    train_per_class: int = 32
    test_per_class: int = 64
    embed_dim: int = 32
    cross_structure: bool = False
    seed: int = 0

    def validate(self) -> None:
        _SPEC_FIELDS.check(self)
        for name in ("num_classes", "num_superclasses", "tokens_per_image", "patch_dim",
                     "train_per_class", "test_per_class", "embed_dim"):
            if getattr(self, name) > MAX_EXTENT:  # refused before anything is allocated
                raise DataError(f"{name} {getattr(self, name)} exceeds the limit {MAX_EXTENT}")
        w, g, s = self.num_classes, self.num_superclasses, self.true_parts
        if w < 2:
            raise DataError(f"need at least 2 classes, got {w}")
        if g < 1 or w % g != 0:
            raise DataError(f"num_classes {w} must be a positive multiple of num_superclasses {g}")
        if s < 1:
            raise DataError(f"need true_parts >= 1, got {s}")
        if self.cross_structure and s < 2:
            raise DataError("cross_structure needs true_parts >= 2")
        if s > 8:
            raise DataError(f"true_parts {s} too large; permutation pools are enumerated")
        if self.tokens_per_image < s + 1:
            raise DataError(
                f"tokens_per_image {self.tokens_per_image} cannot cover {s} parts plus background"
            )
        # NaN fails both comparisons; an int too large for a float fails the second
        if not 0 <= self.noise <= sys.float_info.max:
            raise DataError(f"noise must be >= 0 and finite, got {self.noise}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise DataError("need at least one sample per class in each split")
        if self.patch_dim < 1 or self.embed_dim < 1:
            raise DataError("patch_dim and embed_dim must be positive")
        siblings = w // g
        if self.cross_structure and math.factorial(s) < siblings:
            raise DataError(
                f"{siblings} sibling classes need {siblings} distinct assignments "
                f"but only {math.factorial(s)} permutations of {s} parts exist"
            )

    def num_styles(self) -> int:
        """Style shifts per image in cross mode; 1 when classes must stay fixed."""
        if not self.cross_structure:
            return 1
        siblings = self.num_classes // self.num_superclasses
        return self.true_parts if math.factorial(self.true_parts - 1) >= siblings else 1

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        spec = _SPEC_FIELDS.from_dict(raw)
        spec.validate()
        return spec


_SPEC_FIELDS = JsonFields(SyntheticSpec, DataError, "dataset spec")


@dataclass
class Dataset:
    """What generate drew, plus the layout it samples in, derived from the spec.

    Images are class-major (each class's images in one run) and every image
    has the same round-robin part slots, so labels, part ids and superclasses
    follow from the spec; __post_init__ derives them, for generate and for
    load_dataset alike.
    """

    spec: SyntheticSpec
    train_patches: np.ndarray  # (n_train, tokens, patch_dim)
    test_patches: np.ndarray  # (n_test, tokens, patch_dim)
    class_embeddings: np.ndarray  # (classes, embed_dim)
    templates: np.ndarray  # (classes, styles, true_parts + 1, patch_dim), noise-free token means
    train_labels: np.ndarray = field(init=False)  # (n_train,)
    train_part_ids: np.ndarray = field(init=False)  # (n_train, tokens), 0 = background
    test_labels: np.ndarray = field(init=False)
    test_part_ids: np.ndarray = field(init=False)
    superclass_of: np.ndarray = field(init=False)  # (classes,)

    def __post_init__(self) -> None:
        spec = self.spec
        classes, slots = np.arange(spec.num_classes), _part_slots(spec)
        self.train_labels = np.repeat(classes, spec.train_per_class)
        self.train_part_ids = np.tile(slots, (self.train_labels.size, 1))
        self.test_labels = np.repeat(classes, spec.test_per_class)
        self.test_part_ids = np.tile(slots, (self.test_labels.size, 1))
        self.superclass_of = _superclass_of(spec)

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes


def _superclass_of(spec: SyntheticSpec) -> np.ndarray:
    """Each class's superclass: siblings are consecutive classes."""
    return np.arange(spec.num_classes) // (spec.num_classes // spec.num_superclasses)


def _part_slots(spec: SyntheticSpec) -> np.ndarray:
    """Every image's part id per token: round-robin over slot 0 (background) and the parts."""
    return np.arange(spec.tokens_per_image) % (spec.true_parts + 1)


def _perm_pool(true_parts: int, rotation_free: bool) -> np.ndarray:
    """Every part-to-pattern assignment, (assignments, true_parts); with
    rotation_free, only the least of each rotation orbit."""

    def least_of_orbit(p: tuple) -> bool:
        return min(tuple((x + r) % true_parts for x in p) for r in range(true_parts)) == p

    perms = itertools.permutations(range(true_parts))
    return np.array([p for p in perms if not rotation_free or least_of_orbit(p)], dtype=np.int64)


def generate(spec: SyntheticSpec) -> Dataset:
    """Build a dataset deterministically from the spec (including its seed)."""
    spec.validate()
    w, g, s = spec.num_classes, spec.num_superclasses, spec.true_parts
    n, d = spec.tokens_per_image, spec.patch_dim
    siblings = w // g
    styles = spec.num_styles()
    rng = np.random.default_rng(spec.seed)

    # structural draws first, then sampling, so layouts stay reproducible
    anchors = rng.normal(0.0, 1.0, size=(s + 1, d))  # slot 0 = background
    patterns = rng.normal(0.0, 1.0, size=(g, s, d))
    offsets = rng.normal(0.0, 1.0, size=(w, s, d)) * 0.25
    proj = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, spec.embed_dim))

    base_perms = np.zeros((w, s), dtype=np.int64)  # pattern index per part, style 0
    if spec.cross_structure:
        # distinct assignments per superclass, drawn from one pool of at least
        # `siblings`: s! by validate, or (s-1)! rotation-free ones by num_styles
        pool = _perm_pool(s, styles > 1)
        for sc in range(g):
            picked = rng.permutation(len(pool))[:siblings]
            base_perms[sc * siblings : (sc + 1) * siblings] = pool[picked]
    else:
        base_perms[:] = np.arange(s)

    superclass_of = _superclass_of(spec)
    pattern_ids = (base_perms[:, None, :] + np.arange(styles)[:, None]) % s  # (w, styles, s)
    templates = np.empty((w, styles, s + 1, d))
    templates[:, :, 0] = anchors[0]
    templates[:, :, 1:] = anchors[1:] + patterns[superclass_of[:, None, None], pattern_ids]
    if not spec.cross_structure:
        templates[:, :, 1:] += offsets[:, None]

    class_means = templates[:, 0, 1:, :].mean(axis=1)  # (w, d)
    class_embeddings = class_means @ proj

    slots = _part_slots(spec)

    def sample(count: int) -> np.ndarray:
        """count images per class, class-major."""
        patches = np.empty((w * count, n, d))
        for c in range(w):
            rows = patches[c * count : (c + 1) * count]
            chosen = rng.integers(0, styles, size=count)
            if spec.noise > 0:
                # the bits of template + normal(0.0, noise): normal returns
                # 0.0 + noise * z from the same stream, which differs from
                # noise * z only when that is -0.0, and a template entry
                # other than -0.0 plus either zero is the same sum
                rng.standard_normal(out=rows)
                rows *= spec.noise
                rows += templates[c][chosen[:, None], slots]
            else:
                # + 0.0 turns any -0.0 into 0.0
                np.add(templates[c][chosen[:, None], slots], 0.0, out=rows)
        return patches

    # the train split draws first
    return Dataset(
        spec, sample(spec.train_per_class), sample(spec.test_per_class), class_embeddings, templates
    )


def few_shot_split(ds: Dataset, shots: int, seed: int):
    """Pick `shots` train samples per class without replacement.

    Returns (patches, labels) in class-major order.
    """
    if shots < 1 or shots > ds.spec.train_per_class:
        raise DataError(
            f"shots must lie in [1, {ds.spec.train_per_class}], got {shots}"
        )
    rng = np.random.default_rng(seed)
    rows = []
    per = ds.spec.train_per_class
    for c in range(ds.num_classes):
        pick = rng.permutation(per)[:shots]
        rows.append(c * per + np.sort(pick))
    rows = np.concatenate(rows)
    return ds.train_patches[rows], ds.train_labels[rows]


def nearest_prototype_accuracy(ds: Dataset) -> float:
    """Oracle matcher on the test split: nearest noise-free template over
    (class, style).

    Uses ground-truth part ids; with noise 0 and distinct templates this
    reaches 1.0, which bounds what any classifier can hope for.
    """
    patches, labels, part_ids = ds.test_patches, ds.test_labels, ds.test_part_ids
    w, styles = ds.templates.shape[0], ds.templates.shape[1]
    hits = 0
    for i in range(patches.shape[0]):
        expected = ds.templates[:, :, part_ids[i], :]  # (w, styles, tokens, d)
        dist = ((patches[i][None, None] - expected) ** 2).sum(axis=(2, 3))
        best = np.unravel_index(np.argmin(dist), (w, styles))[0]
        hits += int(best == labels[i])
    return hits / patches.shape[0]


# --- dataset files ------------------------------------------------------------


def _array_layout(spec: SyntheticSpec) -> dict[str, tuple[int, ...]]:
    """Every array of a dataset file, stored as float64: name -> the shape the spec implies."""
    w, t, d = spec.num_classes, spec.tokens_per_image, spec.patch_dim
    return {
        "train_patches": (w * spec.train_per_class, t, d),
        "test_patches": (w * spec.test_per_class, t, d),
        "class_embeddings": (w, spec.embed_dim),
        "templates": (w, spec.num_styles(), spec.true_parts + 1, d),
    }


def save_dataset(path: str, ds: Dataset) -> None:
    arrays = [(name, getattr(ds, name), "<f8") for name in _array_layout(ds.spec)]
    write_atomic(path, pack(DATASET_MAGIC, DATASET_VERSION, arrays, {"spec": asdict(ds.spec)}))


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as f:
        arrays, meta = unpack(f, DATASET_MAGIC, DATASET_VERSION, "dataset array")
    spec_raw = meta.get("spec", {})
    if not isinstance(spec_raw, dict):
        raise FormatError("dataset metadata 'spec' must be a JSON object")
    try:
        spec = SyntheticSpec.from_dict(spec_raw)
    except DataError as e:
        raise FormatError(f"dataset metadata has an invalid spec: {e}") from None
    check_arrays(arrays, _array_layout(spec), "dataset array")
    return Dataset(spec, **arrays)
