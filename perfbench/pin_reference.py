"""Write perfbench/reference.json: the pinned outputs the correctness gate checks at seed 0.

Run from the root of a checkout, only at a commit whose outputs are meant to
become the reference (the pins were first taken before any optimisation):

    python3 perfbench/pin_reference.py
"""

from __future__ import annotations

import json

import numpy as np

import run

SEED = 0


def main() -> None:
    xr = run.load_xrhead()
    ds = run.generate(xr, SEED)
    heads = {}
    for head in ("CRM_FULL", "PWCS"):
        model, report = xr.harness.train(run.make_config(xr, head, SEED), ds)
        logits = xr.harness.predict_logits(model, ds.test_patches)
        heads[head] = {
            "train_accuracy": report.train_accuracy,
            "test_accuracy": report.test_accuracy,
            "param_count": report.param_count,
            "epoch_losses": report.epoch_losses,
            "test_preds_sha256": run.preds_digest(np.argmax(logits, axis=1)),
            "test_logits_row0": logits[0].tolist(),
            "test_logits_abs_sum": float(np.abs(logits).sum()),
        }
    reference = {"seed": SEED, "data_spec": run.data_spec(SEED), "heads": heads}
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
