"""
A synthetic fine-grained benchmark
==================================

Images are bags of patch tokens: background noise plus a few part tokens.
Classes within a superclass share part patterns and differ only in how
parts pair up with styles, which makes the task fine-grained: telling
superclasses apart is easy, telling siblings apart requires reading the
part combination. The cross-structure variant pushes this to the point
where per-part marginals carry no class signal at all.
"""

import os
import tempfile

import numpy as np

from xrhead.data import (
    SyntheticSpec,
    few_shot_split,
    generate,
    load_dataset,
    nearest_prototype_accuracy,
    save_dataset,
)
from xrhead.analysis import analyze_embeddings

# the default benchmark: 20 classes in 5 superclasses, 4 true parts
ds = generate(SyntheticSpec())
print(f"classes         {ds.spec.num_classes} in {ds.spec.num_superclasses} superclasses")
print(f"train/test      {ds.train_patches.shape[0]} / {ds.test_patches.shape[0]} images")
print(f"image           {ds.spec.tokens_per_image} tokens of dim {ds.spec.patch_dim}")
print(f"superclass map  {ds.superclass_of}")
print(f"labels          class-major: {ds.train_labels[:3]} ... {ds.train_labels[-3:]}")

# part ids label which tokens carry parts (0 = background)
counts = np.bincount(ds.train_part_ids[0], minlength=ds.spec.true_parts + 1)
print(f"token roles     image 0 has {counts[0]} background, {counts[1:]} part tokens")

# an oracle that sees the noise-free part templates solves the task
print(f"oracle          nearest prototype test accuracy {nearest_prototype_accuracy(ds):.3f}")

# few-shot split: per-class subsample of the training pool, seed-controlled
shots_x, shots_y = few_shot_split(ds, shots=4, seed=0)
print(f"4-shot split    {shots_x.shape[0]} images, per-class counts {np.bincount(shots_y)[:5]}...")

# the cross-structure variant gives siblings one pattern set, assigned to
# the parts in another order; only the part-to-pattern pairing separates them
cross = generate(SyntheticSpec(cross_structure=True))
sibs = np.flatnonzero(cross.superclass_of == 0)
parts = cross.templates[:, 0, 1:]  # (classes, parts, patch_dim) at style 0
same = [np.allclose(parts[sibs[0]].sum(0), parts[c].sum(0)) for c in sibs[1:]]
print(f"cross structure siblings {sibs} share part-template sums: {same}")
print(f"oracle (cross)  nearest prototype test accuracy {nearest_prototype_accuracy(cross):.3f}")

# class-name embeddings mirror fine-grained label spaces: every class's
# nearest neighbor is a sibling, far closer than any other superclass
stats = analyze_embeddings(ds.class_embeddings, bins=8)
print(f"nearest-class   distances: min {min(stats['min_distances']):.3f}"
      f" median {stats['median']:.3f} max {max(stats['min_distances']):.3f}")
print(f"histogram       counts {[int(c) for c in stats['counts']]}")

# in the cross-structure variant sibling names become exactly synonymous:
# their noise-free class means coincide, so nearest-class distances hit zero
zero = analyze_embeddings(cross.class_embeddings)
print(f"cross variant   max nearest-class distance {max(zero['min_distances']):.3f}")

# datasets round-trip through a tagged binary container
path = os.path.join(tempfile.mkdtemp(), "bench.xrvd")
save_dataset(path, cross)
again = load_dataset(path)
print(f"round trip      exact={np.array_equal(again.test_patches, cross.test_patches)}"
      f"  ({os.path.getsize(path) / 1e6:.1f} MB)")
