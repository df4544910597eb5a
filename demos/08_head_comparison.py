"""
Comparing heads and sweeping part counts
========================================

Baselines that score parts independently cannot read cross-part structure.
On a cross-structure benchmark, where siblings share every part prototype
and differ only in the pairing, the full relation head keeps a margin that
part-wise cosine scoring and per-part MLPs cannot close. The part-count
sweep then shows accuracy and cost as the number of parts grows.
"""

import numpy as np

from xrhead.experiments import compare_heads, sweep_parts
from xrhead.harness import TrainConfig, config_dataset

# a reduced cross-structure benchmark keeps this demo quick; the full-size
# run lives in the acceptance suite
config = TrainConfig(
    epochs=60,
    shots=8,
    batch_size=16,
    feat_dim=48,
    ctx_len=8,
    data_spec={
        "cross_structure": True,
        "num_classes": 12,
        "num_superclasses": 3,
        "train_per_class": 16,
        "test_per_class": 24,
        "tokens_per_image": 12,
    },
)
dataset = config_dataset(config)

# same data, same splits, same shared-module seeds for every head
result = compare_heads(config, ["CRM_FULL", "PWCS", "MLPS"], num_seeds=2, dataset=dataset)
print("per-run accuracies:")
for row in result.rows:
    print(f"  {row['head']:<9s} seeds ({row['seed_model']}, {row['seed_data']})"
          f"  train {row['train_accuracy']:.3f}  test {row['test_accuracy']:.3f}")
print("means over seeds:")
for kind, stats in result.summary.items():
    print(f"  {kind:<9s} test {stats['mean_test']:.3f} +- {stats['std_test']:.3f}")

crm, pwcs = result.summary["CRM_FULL"]["mean_test"], result.summary["PWCS"]["mean_test"]
print(f"cross-relation margin over part-wise cosine: {crm - pwcs:+.3f}")

# the comparison serializes to CSV with mean/std rows appended per head
print()
print(result.csv().splitlines()[0])
print(result.csv().splitlines()[1])

# sweep the number of attention parts; more parts cost more compute
sweep = sweep_parts(config, [1, 2, 4], dataset=dataset)
print()
print("part-count sweep:")
for row in sweep.rows:
    mark = " (default)" if row["is_default"] else ""
    print(f"  S={row['num_parts']}  test {row['test_accuracy']:.3f}"
          f"  cpu {row['train_cpu_seconds']:.1f}s{mark}")
print(f"flags: best S={sweep.flags['best_parts']}"
      f", runtime monotone: {sweep.flags['runtime_monotone']}"
      f", default within a point of best: {sweep.flags['default_within_one_point']}")
