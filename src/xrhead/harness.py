"""Experiment harness: config, model assembly, training, evaluation, persistence.

A Model bundles frozen encoders, the prompt bank, part attention, and one
prediction head.  Only prompt contexts, attention parameters, and head
classifier parameters train; encoder weights and class embeddings stay
frozen (checksummed before/after to audit this).

Everything is deterministic given (seed_data, seed_model): seed_data drives
the few-shot split, seed_model drives parameter init and batch shuffling.
Wall-clock timings are reported but excluded from report equality and never
written into CSV or SVG outputs.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .attention import PartAttention
from .container import MAX_EXTENT, check_arrays, pack, unpack
from .data import Dataset, SyntheticSpec, few_shot_split, generate, load_dataset
from .encoders import FrozenImageEncoder, FrozenTextEncoder, checksum, load_features
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeMismatchError
from .heads import HeadKind, build_head, check_head_parts
from .numerics import (
    BatchNorm,
    Sgd,
    Tensor,
    backward,
    constant,
    cosine_lr,
    cross_entropy,
    no_grad,
)
from .prompts import PromptBank
from . import report as rpt

MODEL_MAGIC = b"XRVP"
MODEL_VERSION = 1

PARAMS_FILE = "params.xrvp"
CONFIG_FILE = "config.json"
REPORT_FILE = "report.json"


# --- configuration -------------------------------------------------------------

# the temperature the loss applies to cosine logits (ALIGN, PWCS)
LOSS_TEMPERATURE = 64.0
# the frozen text encoder's seed; the image encoder's is one more
ENCODER_SEED = 7
# the SGD rate every head trains with, decaying from LR0 on a cosine schedule
LR0 = 2e-3
# images per eval chunk; the chunk size moves the last bits of the logits
EVAL_CHUNK = 256


@dataclass
class TrainConfig:
    head: str = "CRM_FULL"
    num_parts: int = 4
    ctx_len: int = 16
    feat_dim: int = 64
    word_dim: int = 32
    epochs: int = 100
    batch_size: int = 32
    shots: int = 16
    seed_data: int = 0
    seed_model: int = 0
    data_spec: dict | None = None
    data_file: str | None = None
    prompt_file: str | None = None  # when set, prompts are frozen at its features

    def validate(self) -> None:
        _CONFIG_FIELDS.check(self)
        kind = HeadKind.parse(self.head)
        for name in ("num_parts", "ctx_len", "feat_dim", "word_dim", "batch_size", "shots"):
            if getattr(self, name) > MAX_EXTENT:  # refused before anything is allocated
                raise ConfigError(f"{name} {getattr(self, name)} exceeds the limit {MAX_EXTENT}")
        if self.num_parts < 1:
            raise ConfigError(f"need num_parts >= 1, got {self.num_parts}")
        check_head_parts(kind, self.num_parts)
        if self.ctx_len < 1:
            raise ConfigError(f"need ctx_len >= 1, got {self.ctx_len}")
        if self.feat_dim < 1 or self.word_dim < 1:
            raise ConfigError(f"need positive dims, got {self.feat_dim}, {self.word_dim}")
        if self.epochs < 1:
            raise ConfigError(f"need epochs >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch norm needs batch_size >= 2, got {self.batch_size}")
        if self.shots < 1:
            raise ConfigError(f"need shots >= 1, got {self.shots}")
        for name in ("seed_data", "seed_model"):
            if getattr(self, name) < 0:
                raise ConfigError(f"need {name} >= 0, got {getattr(self, name)}")
        if self.data_spec is not None and self.data_file is not None:
            raise ConfigError("data_spec and data_file are mutually exclusive")
        if self.data_spec is not None:
            SyntheticSpec.from_dict(self.data_spec)

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        cfg = _CONFIG_FIELDS.from_dict(raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "TrainConfig":
        return cls.from_dict(rpt.read_json_object(path, "config"))


_CONFIG_FIELDS = rpt.JsonFields(TrainConfig, ConfigError, "config")


def config_dataset(config: TrainConfig) -> Dataset:
    """Materialize the dataset the config points at (file or generator spec)."""
    if config.data_file is not None:
        return load_dataset(config.data_file)
    spec = SyntheticSpec.from_dict(config.data_spec) if config.data_spec else SyntheticSpec()
    return generate(spec)


def _count(value, what: str) -> int:
    """value as an int; a bool or a non-integer is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _seed_stream(seed_model: int, k: int) -> int:
    # disjoint child seeds per module as long as k < 10
    return seed_model * 10 + k


def _text_encoder(config: TrainConfig) -> FrozenTextEncoder:
    """The frozen text encoder over a prompt's context plus its class-name row."""
    return FrozenTextEncoder(ENCODER_SEED, config.word_dim, config.feat_dim, config.ctx_len + 1)


# --- model ---------------------------------------------------------------------


class Model:
    """Frozen encoders + prompt bank + part attention + prediction head."""

    def __init__(
        self,
        config: TrainConfig,
        num_classes: int,
        patch_dim: int,
        class_embeddings: np.ndarray | None,
        manual_values: np.ndarray | None,
        seed_model: int | None,
    ):
        """With seed_model None the trainable modules draw nothing and leave
        their weights unfilled, for load_model to replace with the stored
        values.  The frozen encoders are drawn either way: their checksums
        identify the config a model was saved under."""

        def seed(k: int) -> int | None:
            return None if seed_model is None else _seed_stream(seed_model, k)

        kind = HeadKind.parse(config.head)
        self.config = config
        self.num_classes = num_classes
        self.patch_dim = patch_dim
        self.text_encoder = _text_encoder(config)
        self.image_encoder = FrozenImageEncoder(ENCODER_SEED + 1, patch_dim, config.feat_dim)

        self.bank = None
        self.manual = None
        if kind != HeadKind.MLPS:
            if manual_values is not None:
                manual_values = np.asarray(manual_values, dtype=np.float64)
                want = (num_classes, config.num_parts, config.feat_dim)
                if manual_values.shape != want:
                    raise ConfigError(
                        f"manual prompt features must be {want}, got {manual_values.shape}"
                    )
                self.manual = constant(manual_values)
            else:
                if class_embeddings is None:
                    raise ConfigError("learned prompts need class embeddings")
                if class_embeddings.ndim != 2 or class_embeddings.shape[1] != config.word_dim:
                    raise ConfigError(
                        f"class embeddings {class_embeddings.shape} do not match "
                        f"word_dim {config.word_dim}"
                    )
                self.bank = PromptBank(
                    class_embeddings,
                    config.num_parts,
                    config.ctx_len,
                    seed=seed(0),
                )

        self.attention = PartAttention(config.feat_dim, config.num_parts, seed=seed(1))
        self.head = build_head(kind, num_classes, config.num_parts, config.feat_dim, seed=seed(2))
        self.eval_paths = _EvalPaths()

    def params(self) -> list[Tensor]:
        out = []
        if self.bank is not None:
            out += self.bank.params()
        out += self.attention.params()
        out += self.head.params()
        return out

    def param_count(self) -> int:
        return int(sum(p.values.size for p in self.params()))

    def prompt_features(self) -> Tensor | None:
        """The learned bank's encoding, the manual features, or None (MLPS)."""
        if self.bank is not None:
            return self.bank.encode(self.text_encoder)
        return self.manual

    def logits(self, feats: Tensor, training: bool) -> Tensor:
        """feats (b, tokens, feat_dim) -> logits (b, classes)."""
        v, _ = self.attention.forward(feats, training)
        return self.head.logits(v, self.prompt_features(), training)

    def loss(self, feats: Tensor, labels: np.ndarray) -> Tensor:
        """Training-mode cross-entropy objective.

        Cosine-valued heads (ALIGN, PWCS) are bounded to [-1, 1], so the loss
        applies a fixed temperature to them; reported logits stay plain
        cosines and argmax predictions are unaffected.
        """
        logits = self.logits(feats, training=True)
        if self.head.cosine_logits:
            logits = logits * LOSS_TEMPERATURE
        return cross_entropy(logits, labels)

    def batch_norms(self) -> list[BatchNorm]:
        return [self.attention.bn] + self.head.batch_norms()

    def frozen_checksums(self) -> dict[str, str]:
        out = {
            "text_encoder": self.text_encoder.checksum(),
            "image_encoder": self.image_encoder.checksum(),
        }
        if self.bank is not None:
            out["class_embeddings"] = checksum(self.bank.class_embeddings)
        if self.manual is not None:
            out["manual_prompts"] = checksum(self.manual.values)
        return out


def build_model(config: TrainConfig, ds: Dataset) -> Model:
    """Assemble a freshly initialized model sized for the dataset."""
    config.validate()
    manual_values = None
    if config.prompt_file is not None:
        manual_values, _ = load_features(config.prompt_file)
    return Model(
        config,
        ds.num_classes,
        ds.spec.patch_dim,
        np.asarray(ds.class_embeddings, dtype=np.float64),
        manual_values,
        config.seed_model,
    )


# --- text-side helpers -----------------------------------------------------------


def class_name_embeddings(config: TrainConfig, class_embeddings: np.ndarray) -> np.ndarray:
    """Text-encode each bare class name: the embedding tiled over all positions."""
    enc = _text_encoder(config)
    emb = np.asarray(class_embeddings, dtype=np.float64)
    context = np.repeat(emb[:, None, :], config.ctx_len, axis=1)
    return enc.encode(constant(context), emb).values  # a constant context: no tape


# --- training and evaluation -----------------------------------------------------


@dataclass
class RunReport:
    head: str
    seed_data: int
    seed_model: int
    train_accuracy: float
    test_accuracy: float
    num_train: int
    num_test: int
    param_count: int
    epoch_losses: list[float]
    epoch_lrs: list[float]
    config: dict
    notes: list[str] = field(default_factory=list)
    timing: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunReport":
        return _REPORT_FIELDS.from_dict(raw)


_REPORT_FIELDS = rpt.JsonFields(RunReport, ConfigError, "report")


class _EvalPaths:
    """Chooses, for one model's eval passes of raw patches, whether the
    calling thread shares a pass's chunks with a helper thread, from the
    measured time of recent passes on each path.

    A second thread pays only while a second CPU is free for it.  BLAS
    threads, other processes and a host that steals the VM's CPU time can
    each make a shared pass slower than one thread (a helper preempted while
    it holds the GIL stalls the caller), and none of them can be read
    beforehand.  So the passes alternate between the paths, one thread
    first, until each path has RECENT times.  Later passes are shared while
    the median time per image of the last RECENT shared passes is below GAIN
    times that of the last RECENT one-thread passes (a tie is not worth a
    second thread's CPU time: with BLAS on two threads, a helper only
    competes with them), and every PROBE-th pass takes the other path, so a
    change of load is seen.  Bits do not depend on the path.
    """

    RECENT = 3
    PROBE = 10
    GAIN = 0.9

    def __init__(self):
        self._lock = threading.Lock()
        self._times = {False: [], True: []}  # shared -> seconds per image of recent passes
        self._passes = 0

    def choose(self) -> bool:
        """Whether the next pass is shared."""
        with self._lock:
            self._passes += 1
            solo, shared = self._times[False], self._times[True]
            if len(shared) < self.RECENT or len(solo) < self.RECENT:
                return len(shared) < len(solo)
            faster = bool(np.median(shared) < self.GAIN * np.median(solo))
            return faster != (self._passes % self.PROBE == 0)

    def record(self, shared: bool, seconds_per_image: float) -> None:
        with self._lock:
            recent = self._times[shared]
            recent.append(seconds_per_image)
            del recent[: -self.RECENT]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else 1


def _patch_array(patches) -> np.ndarray:
    """patches as a numeric (images, tokens, features) array, or the eval pass's refusal."""
    patches = np.asarray(patches)
    if patches.dtype.kind not in "biuf":
        raise DataError(f"patches must be numeric, got dtype {patches.dtype}")
    if patches.ndim != 3:
        raise ShapeMismatchError(f"expected (images, tokens, features), got {patches.shape}")
    return patches


def _eval_pass(
    model: Model, patches: np.ndarray, encoded: bool = False, keep_weights: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eval-mode logits (n, classes) of raw patches, or of token features
    when they are already `encoded`, and the attention weights
    (n, tokens, parts + 1) when `keep_weights`, else None.

    Each chunk of EVAL_CHUNK raw patches is converted to float64, encoded
    and attended on its own, and its rows are written in place, so a thread
    holds one chunk of token features at a time.  The encoder works image
    by image, so the bits equal those of one encode of every patch.  A pass
    of two or more chunks of raw patches, with two or more usable CPUs, runs
    either on the calling thread or on it and one helper thread, as the model's
    _EvalPaths choose: the two take chunk starts from one iterator, so at
    most two chunks are in flight.  A chunk's bits do not depend on the
    thread that computes it.  Passes of encoded features run on the calling
    thread.
    """
    patches = _patch_array(patches)
    n = patches.shape[0]
    if n == 0:
        raise DataError("empty split")
    with no_grad():
        # eval mode: the prompt features are the same for every chunk
        prompts = model.prompt_features()
    logits = np.empty((n, model.num_classes))
    weights = None
    if keep_weights:
        weights = np.empty((n, patches.shape[1], model.attention.num_parts + 1))
    chunk = EVAL_CHUNK
    starts = iter(range(0, n, chunk))
    lock = threading.Lock()

    def work() -> None:
        try:
            while True:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                feats = patches[start : start + chunk]
                if not encoded:
                    feats = model.image_encoder.encode(feats)
                with no_grad():  # grad mode is per thread: set it in this one
                    v, w = model.attention.forward(constant(feats), training=False)
                    del feats  # read by attention only: not held while the head runs
                    out = model.head.logits(v, prompts, training=False)
                logits[start : start + chunk] = out.values
                if keep_weights:
                    weights[start : start + chunk] = w.values
                del v, w, out  # not held while the next chunk is encoded
        except BaseException:
            with lock:  # the other thread stops after its current chunk
                for _ in starts:
                    pass
            raise

    # an encoded pass (train's training-accuracy pass, one per model) would
    # never get past the first, one-thread pass of the alternation
    chosen = not encoded and n > chunk and _usable_cpus() >= 2
    shared = chosen and model.eval_paths.choose()
    t0 = time.perf_counter()
    if shared:
        with ThreadPoolExecutor(1, thread_name_prefix="xrhead-eval") as pool:  # joined on exit
            helper = pool.submit(work)
            work()
        helper.result()  # a helper's error, raised here
    else:
        work()
    if chosen:
        model.eval_paths.record(shared, (time.perf_counter() - t0) / n)
    if not np.isfinite(logits).all():
        raise DataError("non-finite logits: patches must be finite")
    return logits, weights


def predict_logits(model: Model, patches: np.ndarray) -> np.ndarray:
    """Eval-mode logits (n, classes) for raw patch arrays, computed in chunks."""
    return _eval_pass(model, patches)[0]


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Argmax-logit accuracy; ties break toward the lowest class index."""
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def evaluate(model: Model, patches: np.ndarray, labels: np.ndarray) -> float:
    """Argmax-logit accuracy; ties break toward the lowest class index.

    The labels must hold one class index in [0, num_classes) per image.
    """
    labels = np.asarray(labels)
    if labels.shape != np.shape(patches)[:1]:
        raise DataError(f"need one label per image, got {labels.shape} for {np.shape(patches)}")
    if not np.isin(labels, np.arange(model.num_classes)).all():
        raise DataError(f"labels must be class indices in [0, {model.num_classes})")
    return _accuracy(predict_logits(model, patches), labels)


def train(config: TrainConfig, dataset: Dataset | None = None) -> tuple[Model, RunReport]:
    """Few-shot training with SGD + cosine schedule; deterministic given seeds."""
    config.validate()
    ds = dataset if dataset is not None else config_dataset(config)
    patches, labels = few_shot_split(ds, config.shots, config.seed_data)
    model = build_model(config, ds)
    before = model.frozen_checksums()

    feats = model.image_encoder.encode(patches)
    del patches  # the steps read the encoded features only
    n = feats.shape[0]
    notes: list[str] = []
    if n % config.batch_size == 1:
        msg = "dropping singleton tail batch each epoch (batch norm needs >= 2 samples)"
        warnings.warn(msg)
        notes.append(msg)

    opt = Sgd(model.params())
    shuffle_rng = np.random.default_rng(_seed_stream(config.seed_model, 3))

    losses: list[float] = []
    lrs: list[float] = []
    # the least CPU time of any one step: a runtime that shrugs off load spikes
    step_cpu_min = float("inf")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, LR0)
        lrs.append(lr)
        order = shuffle_rng.permutation(n)
        total, seen = 0.0, 0
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue
            step_cpu0 = time.process_time()
            opt.zero_grads()
            loss = model.loss(constant(feats[idx]), labels[idx])
            try:
                backward(loss)
            except NumericError as e:
                raise NumericError(
                    f"training diverged at epoch {epoch}, step {step} (0-based): {e}"
                ) from e
            opt.step(lr)
            step_cpu_min = min(step_cpu_min, time.process_time() - step_cpu0)
            total += float(loss.values) * idx.size
            seen += idx.size
            del loss  # and with it the step's tape, before the next forward
        losses.append(total / seen)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    # a trained model only runs forward passes: let the optimizer's gradient,
    # velocity and scratch arrays go with it, keeping the values
    for p in model.params():
        p.grad = None
    del opt

    after = model.frozen_checksums()
    if after != before:
        raise ConfigError("frozen parameters changed during training")

    train_accuracy = _accuracy(_eval_pass(model, feats, encoded=True)[0], labels)
    del feats  # the test split's pass holds the model and one chunk at a time
    report = RunReport(
        head=config.head,
        seed_data=config.seed_data,
        seed_model=config.seed_model,
        train_accuracy=train_accuracy,
        test_accuracy=evaluate(model, ds.test_patches, ds.test_labels),
        num_train=int(n),
        num_test=int(ds.test_labels.shape[0]),
        param_count=model.param_count(),
        epoch_losses=losses,
        epoch_lrs=lrs,
        config=asdict(config),
        notes=notes,
        timing={
            "train_wall_seconds": wall,
            "train_cpu_seconds": cpu,
            "step_cpu_min_seconds": step_cpu_min,
        },
    )
    return model, report


# --- attention export ------------------------------------------------------------------


def export_attention(
    model: Model, patches: np.ndarray, part_ids: np.ndarray, limit: int | None = None
) -> list[dict]:
    """Eval-mode attention rows per sample: weights (tokens, parts + 1) + truth.

    part_ids holds an integer id per token of each image.  limit, when
    given, keeps the first `limit` samples and must be an integer >= 1.
    """
    if limit is not None and _count(limit, "export limit") < 1:
        raise ConfigError(f"need an export limit >= 1, got {limit!r}")
    patches = _patch_array(patches)[:limit]
    part_ids = np.asarray(part_ids)
    if part_ids.dtype.kind not in "iu":
        raise DataError(f"part_ids must be integers, got dtype {part_ids.dtype}")
    if (
        part_ids.ndim != 2
        or part_ids.shape[0] < patches.shape[0]
        or part_ids.shape[1] != patches.shape[1]
    ):
        raise DataError(
            f"part_ids {part_ids.shape} needs a row of token ids for each image of {patches.shape}"
        )
    logits, weights = _eval_pass(model, patches, keep_weights=True)
    return [
        {"index": i, "weights": w, "part_ids": part_ids[i].copy(), "prediction": int(pred)}
        for i, (w, pred) in enumerate(zip(weights, np.argmax(logits, axis=1)))
    ]


# --- model persistence --------------------------------------------------------------


def _model_arrays(model: Model) -> list[tuple[str, object, str]]:
    """Every array of a model file in file order: (name, the object holding it, its attribute)."""
    out = [(p.name, p, "values") for p in model.params()]
    if model.bank is not None:
        out.append(("prompts.class_embeddings", model.bank, "class_embeddings"))
    if model.manual is not None:
        out.append(("prompts.manual", model.manual, "values"))
    for bn in sorted(model.batch_norms(), key=lambda bn: bn.name):
        out += [(f"{bn.name}.{stat}", bn, stat) for stat in ("running_mean", "running_var")]
    return out


def save_model(dir_path: str, model: Model, report: RunReport | None = None) -> None:
    """Write params.xrvp + config.json (+ report.json) into dir_path.

    An array that is not finite raises FormatError before anything is written.
    """
    arrays = [(name, getattr(obj, attr), "<f8") for name, obj, attr in _model_arrays(model)]
    meta = {
        "num_classes": model.num_classes,
        "patch_dim": model.patch_dim,
        "head": model.config.head,
        "frozen_checksums": model.frozen_checksums(),
    }
    params = pack(MODEL_MAGIC, MODEL_VERSION, arrays, meta)
    os.makedirs(dir_path, exist_ok=True)
    rpt.write_atomic(os.path.join(dir_path, PARAMS_FILE), params)
    rpt.write_atomic(os.path.join(dir_path, CONFIG_FILE), rpt.json_text(asdict(model.config)))
    if report is not None:
        rpt.write_atomic(os.path.join(dir_path, REPORT_FILE), rpt.json_text(asdict(report)))


def load_model(dir_path: str) -> tuple[Model, RunReport | None]:
    """Rebuild a model from a save_model directory.

    A damaged or inconsistent directory raises FormatError or DataError.  The
    params file must hold exactly the arrays save_model writes for the config,
    each in its shape (FormatError otherwise).
    """
    try:
        config = TrainConfig.from_json_file(os.path.join(dir_path, CONFIG_FILE))
    except (ConfigError, DataError) as e:
        raise FormatError(f"model config is invalid: {e}") from e
    with open(os.path.join(dir_path, PARAMS_FILE), "rb") as f:
        arrays, meta = unpack(f, MODEL_MAGIC, MODEL_VERSION, "model array")
    for key in ("num_classes", "patch_dim", "frozen_checksums"):
        if key not in meta:
            raise FormatError(f"model metadata missing {key!r}", offset=0)
    for key, least in (("num_classes", 2), ("patch_dim", 1)):
        value = meta[key]
        if type(value) is not int or value < least:
            raise FormatError(f"model metadata {key!r} must be an integer >= {least}: {value!r}")

    try:
        model = Model(
            config,
            meta["num_classes"],
            meta["patch_dim"],
            arrays.get("prompts.class_embeddings"),
            arrays.get("prompts.manual"),
            seed_model=None,
        )
    except ConfigError as e:
        raise DataError(f"model file does not match its config: {e}") from e
    # the encoders are rebuilt from the config's and the metadata's shapes, so
    # only their checksums can show that e.g. patch_dim or ctx_len differ from
    # the saved model's
    if model.frozen_checksums() != meta["frozen_checksums"]:
        raise DataError("frozen encoders or embeddings differ from the saved model's")

    layout = _model_arrays(model)
    shapes = {name: getattr(obj, attr).shape for name, obj, attr in layout}
    check_arrays(arrays, shapes, "model array")
    # every parameter and batch-norm statistic is replaced by the reader's own
    # fresh float64 copy: no unfilled weight survives
    for name, obj, attr in layout:
        setattr(obj, attr, arrays[name])
    for bn in model.batch_norms():
        if not np.all(bn.running_var >= 0.0):
            raise DataError(f"batch-norm state for {bn.name!r} has a negative or NaN variance")

    report = None
    report_path = os.path.join(dir_path, REPORT_FILE)
    if os.path.exists(report_path):
        try:
            report = RunReport.from_dict(rpt.read_json_object(report_path, "report"))
        except ConfigError as e:  # bad UTF-8 or JSON, missing or wrong keys or types
            raise FormatError(f"model report is invalid: {e}") from e
    return model, report
