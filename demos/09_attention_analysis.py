"""
Inspecting what the attention learned
=====================================

After training, each token's attention row says which part slot claimed it.
Comparing attended slots against the generator's true part labels with
mutual information quantifies whether the parts are real or arbitrary; a
label permutation gives the chance floor. The same pass renders SVG reports
for attention maps, the loss curve, and a 2D projection of the class
embeddings.
"""

import os
import tempfile

import numpy as np

from xrhead import report as rpt
from xrhead.data import SyntheticSpec, generate
from xrhead.analysis import attention_alignment, project_2d
from xrhead.harness import TrainConfig, export_attention, train

config = TrainConfig(
    epochs=30,
    shots=8,
    batch_size=16,
    feat_dim=48,
    ctx_len=8,
    data_spec={
        "num_classes": 8,
        "num_superclasses": 4,
        "noise": 0.1,
        "train_per_class": 16,
        "test_per_class": 16,
        "tokens_per_image": 12,
    },
)
ds = generate(SyntheticSpec(**config.data_spec))
model, result = train(config, ds)
print(f"trained         test accuracy {result.test_accuracy:.3f}")

# per-token attention rows for a few test images, with true part labels
samples = export_attention(model, ds.test_patches, ds.test_part_ids, limit=4)
sample = samples[0]
print(f"image 0         predicted class {sample['prediction']}"
      f" (true {ds.test_labels[0]})")
print("token  true part  attention row (background, parts...)")
for tok in range(4):
    row = "  ".join(f"{v:.2f}" for v in sample["weights"][tok])
    print(f"  {tok:>2d}   {sample['part_ids'][tok]:>6d}     {row}")

# alignment: attended slot vs generator part label, in nats
stats = attention_alignment(samples)
print(f"alignment       MI {stats['mutual_information']:.3f} nats"
      f" vs permuted {stats['permuted_mutual_information']:.3f}")

# deterministic SVG reports (no timing, stable float formatting)
out = tempfile.mkdtemp()
weights = np.asarray(sample["weights"])
rpt.write_atomic(
    os.path.join(out, "attention.svg"),
    rpt.svg_weight_grid(weights, title="attention weights, test image 0"),
)
rpt.write_atomic(
    os.path.join(out, "loss.svg"),
    rpt.svg_lines(
        list(range(1, len(result.epoch_losses) + 1)),
        {"train loss": result.epoch_losses},
        title="training loss",
        xlabel="epoch",
        ylabel="cross entropy",
    ),
)
points = project_2d(ds.class_embeddings)
rpt.write_atomic(
    os.path.join(out, "classes.svg"),
    rpt.svg_scatter(
        [(float(x), float(y)) for x, y in points],
        groups=[int(g) for g in ds.superclass_of],
        title="class embeddings, 2D projection",
    ),
)
print(f"reports         {sorted(os.listdir(out))} in {out}")
