"""
Few-shot training of the cross-relationship head
================================================

One config drives data, encoders, prompts, attention and head. Every head
trains under one fixed protocol: SGD with momentum under a cosine
learning-rate schedule, its values constants in xrhead.harness; the frozen encoder and class embeddings are checksummed before and
after so nothing moves that should not. Models round-trip through a tagged
binary directory format.
"""

import json
import os
import tempfile
from dataclasses import asdict

import numpy as np

from xrhead.harness import RunReport, TrainConfig, evaluate, load_model, save_model, train
from xrhead.report import json_text

config = TrainConfig(
    head="CRM_FULL",
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

model, report = train(config)
print(f"head            {report.head}, {report.param_count} trainable parameters")
print(f"data            {report.num_train} train images ({config.shots}-shot), "
      f"{report.num_test} test")
print(f"train accuracy  {report.train_accuracy:.4f}")
print(f"test accuracy   {report.test_accuracy:.4f}")
print(f"wall time       {report.timing['train_wall_seconds']:.1f}s")

# the loss falls and the cosine schedule decays from harness.LR0 toward zero
losses, lrs = report.epoch_losses, report.epoch_lrs
for e in (0, 9, 19, 29):
    print(f"  epoch {e + 1:>2d}      loss {losses[e]:.4f}  lr {lrs[e]:.2e}")

# reports are dataclasses: asdict writes them, from_dict reads them back,
# and they compare ignoring timing jitter
clone = RunReport.from_dict(json.loads(json_text(asdict(report))))
print(f"report JSON     round trip equal: {clone == report}")

# models persist as a directory: tagged parameter file + config + report
out = os.path.join(tempfile.mkdtemp(), "model")
save_model(out, model, report)
print(f"saved           {sorted(os.listdir(out))}")

loaded, loaded_report = load_model(out)
ds_spec = config.data_spec
from xrhead.data import SyntheticSpec, generate

ds = generate(SyntheticSpec(**ds_spec))
acc = evaluate(loaded, ds.test_patches, ds.test_labels)
print(f"reloaded eval   {acc:.4f} (matches: {acc == report.test_accuracy})")
