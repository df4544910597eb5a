"""Command-line entry points.

Subcommands: gen-data, train, eval, compare, sweep, gradcheck, analyze-cne,
export-attn.  Config files are UTF-8 JSON whose keys exactly match TrainConfig
field names.  The environment variable XRHEAD_SEED, when set, overrides both
config seeds (and the generator seed for gen-data).  Every subcommand exits
nonzero on error and report files are written atomically, so failures leave
no partial outputs behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import report as rpt
from .analysis import analyze_embeddings, attention_alignment, project_2d
from .data import SyntheticSpec, generate, load_dataset, save_dataset
from .encoders import checksum, load_features
from .errors import ConfigError, DataError, XRHeadError
from .experiments import compare_heads, sweep_parts
from .harness import (
    TrainConfig,
    build_model,
    class_name_embeddings,
    config_dataset,
    evaluate,
    export_attention,
    few_shot_split,
    load_model,
    save_model,
    train,
)
from .numerics import constant, finite_diff_check

# gradcheck's loss is over the first GRADCHECK_BATCH few-shot images, and it
# checks GRADCHECK_COORDS random coordinates of each parameter
GRADCHECK_BATCH = 4
GRADCHECK_COORDS = 3


def _env_seed() -> int | None:
    raw = os.environ.get("XRHEAD_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"XRHEAD_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise ConfigError(f"XRHEAD_SEED must be >= 0, got {seed}")
    return seed


def _load_config(path: str | None, data_file: str | None = None) -> TrainConfig:
    config = TrainConfig.from_json_file(path) if path else TrainConfig()
    if data_file is not None:
        config = replace(config, data_file=data_file, data_spec=None)
    seed = _env_seed()
    if seed is not None:
        config = replace(config, seed_data=seed, seed_model=seed)
    config.validate()
    return config


def _model_and_dataset(args):
    """The model saved in --model and its config's dataset, or the --data file instead.

    A learned-prompt model refuses a dataset whose class embeddings are not
    the ones it was trained on."""
    model, _ = load_model(args.model)
    config = model.config
    if args.data is not None:
        config = replace(config, data_file=args.data, data_spec=None)
    ds = config_dataset(config)
    if model.bank is not None:
        want = checksum(model.bank.class_embeddings)
        got = checksum(np.asarray(ds.class_embeddings, dtype=np.float64))
        if got != want:
            raise DataError(
                f"dataset class embeddings ({ds.num_classes} classes, sha256 {got}) are not "
                f"the model's ({model.num_classes} classes, sha256 {want})"
            )
    return model, ds


def _emit(payload: dict) -> None:
    sys.stdout.write(rpt.json_text(payload))


# --- subcommands ---------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    raw = rpt.read_json_object(args.spec, "spec") if args.spec else {}
    seed = _env_seed()
    if seed is not None:
        raw["seed"] = seed
    spec = SyntheticSpec.from_dict(raw)
    ds = generate(spec)
    save_dataset(args.out, ds)
    _emit(
        {
            "out": args.out,
            "num_classes": ds.num_classes,
            "num_train": int(ds.train_labels.shape[0]),
            "num_test": int(ds.test_labels.shape[0]),
        }
    )
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config, args.data)
    model, run = train(config)
    if args.out:
        save_model(args.out, model, run)
    _emit(asdict(run))
    return 0


def _cmd_eval(args) -> int:
    model, ds = _model_and_dataset(args)
    accuracy = evaluate(model, ds.test_patches, ds.test_labels)
    _emit(
        {
            "head": model.config.head,
            "test_accuracy": accuracy,
            "num_test": int(ds.test_labels.shape[0]),
        }
    )
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args.config, args.data)
    kinds = [k.strip() for k in args.heads.split(",") if k.strip()]
    result = compare_heads(config, kinds, num_seeds=args.seeds)
    rpt.write_atomic(os.path.join(args.out, "comparison.csv"), result.csv())
    rpt.write_atomic(os.path.join(args.out, "comparison.json"), rpt.json_text(asdict(result)))
    _emit({"out": args.out, "summary": result.summary})
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, args.data)
    try:
        parts = [int(p) for p in args.parts.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--parts must be comma-separated integers, got {args.parts!r}")
    result = sweep_parts(config, parts)
    rpt.write_atomic(os.path.join(args.out, "sweep.csv"), result.csv())
    rpt.write_atomic(os.path.join(args.out, "sweep.svg"), result.svg())
    rpt.write_atomic(os.path.join(args.out, "sweep.json"), rpt.json_text(asdict(result)))
    _emit({"out": args.out, "flags": result.flags})
    return 0


def _cmd_gradcheck(args) -> int:
    # NaN would fail every comparison, and no error is below 0
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol must be a finite number > 0, got {args.tol}")
    config = _load_config(args.config, args.data)
    ds = config_dataset(config)
    patches, labels = few_shot_split(ds, config.shots, config.seed_data)
    model = build_model(config, ds)
    batch = min(GRADCHECK_BATCH, patches.shape[0])  # >= 2: 2 classes of >= 1 shot
    feats = constant(model.image_encoder.encode(patches[:batch]))
    labels = labels[:batch]
    errors = finite_diff_check(
        lambda: model.loss(feats, labels), model.params(), max_coords_per_param=GRADCHECK_COORDS
    )
    worst = max(errors.values())
    _emit({"errors": errors, "max": worst, "tol": args.tol, "ok": bool(worst < args.tol)})
    return 0 if worst < args.tol else 1


def _cmd_analyze_cne(args) -> int:
    if (args.features is None) == (args.data is None):
        raise ConfigError("pass exactly one of --features or --data")
    if args.features:
        embeddings, _ = load_features(args.features)
    else:
        ds = load_dataset(args.data)
        config = _load_config(args.config)
        embeddings = class_name_embeddings(config, ds.class_embeddings)
    stats = analyze_embeddings(embeddings, bins=args.bins)

    hist_rows = [
        [float(stats["edges"][i]), float(stats["edges"][i + 1]), int(stats["counts"][i])]
        for i in range(len(stats["counts"]))
    ]
    rpt.write_atomic(
        os.path.join(args.out, "cne_hist.csv"),
        rpt.csv_text(["bin_lo", "bin_hi", "count"], hist_rows),
    )
    point_rows = [[i, float(d)] for i, d in enumerate(stats["min_distances"])]
    rpt.write_atomic(
        os.path.join(args.out, "cne_min_distances.csv"),
        rpt.csv_text(["class", "min_distance"], point_rows),
    )
    rpt.write_atomic(
        os.path.join(args.out, "cne_hist.svg"),
        rpt.svg_histogram(
            stats["counts"], stats["edges"], "nearest-neighbor distances", "distance"
        ),
    )
    if embeddings.shape[0] >= 3:
        coords = project_2d(embeddings)
        rpt.write_atomic(
            os.path.join(args.out, "cne_projection.svg"),
            rpt.svg_scatter(coords, range(coords.shape[0]), "embeddings, top-2 components"),
        )
    _emit(
        {
            "out": args.out,
            "mean": stats["mean"],
            "median": stats["median"],
            "counts": [int(c) for c in stats["counts"]],
        }
    )
    return 0


def _cmd_export_attn(args) -> int:
    model, ds = _model_and_dataset(args)
    samples = export_attention(model, ds.test_patches, ds.test_part_ids, limit=args.n)
    num_parts = model.config.num_parts
    header = ["token"] + ["background"] + [f"part{s}" for s in range(1, num_parts + 1)] + [
        "true_part"
    ]
    for sample in samples:
        rows = [
            [n] + [float(x) for x in sample["weights"][n]] + [int(sample["part_ids"][n])]
            for n in range(sample["weights"].shape[0])
        ]
        stem = os.path.join(args.out, f"attn_{sample['index']:03d}")
        rpt.write_atomic(f"{stem}.csv", rpt.csv_text(header, rows))
        if args.svg:
            rpt.write_atomic(
                f"{stem}.svg",
                rpt.svg_weight_grid(sample["weights"].tolist(), "attention weights"),
            )
    alignment = attention_alignment(samples)
    _emit({"out": args.out, "samples": len(samples), "alignment": alignment})
    return 0


# --- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrhead",
        description="multi-part prompt heads over frozen encoders: train, compare, analyze",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--spec", help="JSON file of generator fields")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one model and print its report")
    p.add_argument("--config", help="JSON config file (defaults when omitted)")
    p.add_argument("--data", help="dataset file overriding the config source")
    p.add_argument("--out", help="directory to save the trained model")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a test split")
    p.add_argument("--model", required=True, help="saved model directory")
    p.add_argument("--data", help="dataset file overriding the config source")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="train several head kinds on identical data")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", help="dataset file overriding the config source")
    p.add_argument("--heads", default="CRM_FULL,PWCS,MLPS", help="comma-separated head kinds")
    p.add_argument("--seeds", type=int, default=5, help="seeds per head")
    p.add_argument("--out", default=".", help="report directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="train across part counts")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", help="dataset file overriding the config source")
    p.add_argument("--parts", default="1,2,4,8", help="comma-separated part counts")
    p.add_argument("--out", default=".", help="report directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full pipeline")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", help="dataset file overriding the config source")
    p.add_argument("--tol", type=float, default=1e-4, help="max relative error allowed")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("analyze-cne", help="nearest-neighbor structure of class embeddings")
    p.add_argument("--features", help="feature file of embeddings (classes, dim)")
    p.add_argument("--data", help="dataset file; embeddings computed from its class names")
    p.add_argument("--config", help="JSON config file for encoder dims (with --data)")
    p.add_argument("--bins", type=int, default=10, help="histogram bins")
    p.add_argument("--out", default=".", help="report directory")
    p.set_defaults(func=_cmd_analyze_cne)

    p = sub.add_parser("export-attn", help="export per-sample attention weights")
    p.add_argument("--model", required=True, help="saved model directory")
    p.add_argument("--data", help="dataset file overriding the config source")
    p.add_argument("--n", type=int, default=8, help="number of test samples to export")
    p.add_argument("--svg", action="store_true", help="also write heat-strip SVGs")
    p.add_argument("--out", default=".", help="report directory")
    p.set_defaults(func=_cmd_export_attn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (XRHeadError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
