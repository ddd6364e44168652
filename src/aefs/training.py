"""Joint training loop, evaluation, and checkpointing.

One Adam step per mini-batch over every trainable parameter of the active
model(s). For the dual-model method the batch loss is

    BCE(aux) + BCE(main) + embedding-alignment + prediction-alignment

with the alignment terms individually switchable. Batch order is a seeded
shuffle, so a (config, seed) pair reproduces bit-identical runs.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Columns, DataError, Dataset, FieldSchema, Vocabulary, build_vocab, \
    quantize_all, split_dataset
from .embedding import activation_averages
from .metrics import Metrics, auc as auc_metric, logloss as logloss_metric
from .numerics import Adam, RowGrad, no_tape
from .predictors import VARIANTS, bce
from .selection import DualModel, FixedSubsetModel, LateSelectionModel, k_for

METHODS = ("none", "randomhalf", "adafs", "aefs")
MODES = ("soft", "hard")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericAbort(ArithmeticError):
    """Training hit a non-finite loss or gradient; aborted with diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    method: str = "aefs"
    mode: str = "soft"  # late-selection only
    batch_size: int = 2048
    r: float = 0.5
    d1: int = 32
    d2: int = 4
    max_epochs: int = 8
    lr: float = 1e-3
    seed: int = 0
    pretrain_epochs: int = 0
    enable_eal: bool = True
    enable_pal: bool = True
    enable_topk_reweight: bool = True
    backbone_main: str = "mlp"
    backbone_aux: str = "mlp"
    hidden_dims: tuple[int, ...] = (16, 16)
    n_cross_layers: int = 2
    min_freq: int = 10

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0 < self.r <= 1):
            raise ConfigError(f"keep fraction r must be in (0, 1], got {self.r}")
        if not 1 <= self.d2 <= self.d1:
            raise ConfigError(f"need 1 <= d2 <= d1, got d2={self.d2}, d1={self.d1}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.backbone_main not in VARIANTS or self.backbone_aux not in VARIANTS:
            raise ConfigError(f"backbones must be one of {VARIANTS}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be nonnegative")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError(f"hidden_dims must be one or more positive widths, "
                              f"got {self.hidden_dims}")
        if self.n_cross_layers < 1:
            raise ConfigError(f"n_cross_layers must be at least 1, got {self.n_cross_layers}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")

    def to_text(self) -> str:
        lines = []
        for f in sorted(dc_fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        # seed excluded: run directories are named <hash>-seed<seed>
        lines = [ln for ln in self.to_text().splitlines() if not ln.startswith("seed=")]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


_BOOL_KEYS = {"enable_eal", "enable_pal", "enable_topk_reweight"}
_INT_KEYS = {"batch_size", "d1", "d2", "max_epochs", "seed", "pretrain_epochs",
             "n_cross_layers", "min_freq"}
_FLOAT_KEYS = {"r", "lr"}
_STR_KEYS = {"method", "mode", "backbone_main", "backbone_aux"}


def _parse_value(key: str, raw):
    if isinstance(raw, (int, float, bool, tuple)):
        return raw
    raw = str(raw).strip()
    try:
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "hidden_dims":
            return tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def parse_config_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Flat key=value lines; '#' starts a comment. Unknown keys are errors."""
    known = {f.name for f in dc_fields(TrainConfig)}
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        updates[key] = _parse_value(key, raw)
    base = base or TrainConfig()
    try:
        return replace(base, **updates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def apply_overrides(config: TrainConfig, overrides: dict) -> TrainConfig:
    known = {f.name for f in dc_fields(TrainConfig)}
    updates = {}
    for key, raw in overrides.items():
        if raw is None:
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw)
    return replace(config, **updates)


@dataclass
class PreparedData:
    schema: list[FieldSchema]
    vocab: Vocabulary
    train: Dataset
    val: Dataset
    test: Dataset
    informative_fields: list[int] | None = None

    @property
    def n_fields(self) -> int:
        return len(self.schema)


def prepare(columns: Columns, schema: Sequence[FieldSchema], seed: int,
            min_freq: int = 10, informative_fields=None) -> PreparedData:
    """Split the encoded records 8:1:1, build the vocabulary from the
    training split only, and gather each split's IDs."""
    splits = split_dataset(columns, seed)
    vocab = build_vocab(columns, splits[0], min_freq=min_freq)
    train, val, test = quantize_all(columns, splits, vocab)
    return PreparedData(
        schema=list(schema),
        vocab=vocab,
        train=train,
        val=val,
        test=test,
        informative_fields=list(informative_fields) if informative_fields is not None else None,
    )


@dataclass
class FittedModel:
    """A model built for one method, and the k of its configuration.

    Every model answers the same calls: `score` (prediction, selected
    indices, weights or None), `loss` (loss, per-term floats, selected
    indices), `warmup_params` (empty when there is nothing to warm up) and
    `warmup_forward` for pretraining, `main_embeddings`, whose lookup
    counters record the selections, and `aux_embeddings`, None except on
    the dual model.
    """

    model: FixedSubsetModel | LateSelectionModel | DualModel
    k: int

    def named_params(self):
        return self.model.named_params()

    def named_buffers(self):
        return self.model.named_buffers()

    def forward_scores(self, x: np.ndarray, training: bool):
        """Returns (probabilities, selected indices, selection weights or
        None, auxiliary embedding set or None)."""
        p, indices, weights = self.model.score(x, training)
        return p, indices, weights, self.model.aux_embeddings

    @property
    def main_embeddings(self):
        return self.model.main_embeddings


def build_model(vocab_sizes: Sequence[int], config: TrainConfig,
                rng: np.random.Generator, subset_rng: np.random.Generator) -> FittedModel:
    n = len(vocab_sizes)
    k = k_for(n, config.r)
    predictor = (config.hidden_dims, config.n_cross_layers)
    build = {
        "none": lambda: FixedSubsetModel(vocab_sizes, config.d1, range(n),
                                         config.backbone_main, *predictor, rng),
        "randomhalf": lambda: FixedSubsetModel(
            vocab_sizes, config.d1, subset_rng.choice(n, size=k, replace=False),
            config.backbone_main, *predictor, rng),
        "adafs": lambda: LateSelectionModel(
            vocab_sizes, config.d1, config.backbone_main, *predictor, rng,
            mode=config.mode, k=k, reweight=config.enable_topk_reweight),
        "aefs": lambda: DualModel(
            vocab_sizes, config.d1, config.d2, k, config.backbone_main, config.backbone_aux,
            *predictor, rng, reweight=config.enable_topk_reweight,
            enable_eal=config.enable_eal, enable_pal=config.enable_pal),
    }[config.method]
    return FittedModel(model=build(), k=k)


def _batch_slices(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size >= 2:  # batch norm needs at least 2 rows in training
            yield idx


@dataclass
class EpochRow:
    epoch: int
    bce_aux: float | None
    bce_main: float
    eal: float | None
    pal: float | None
    val_auc: float
    val_logloss: float
    activated_params_avg: float
    lookups_avg: float
    seconds: float


@dataclass
class TrainReport:
    method: str
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int = 0

    def to_jsonl(self) -> str:
        out = []
        for row in self.rows:
            d = dict(sorted(row.__dict__.items()))
            d["method"] = self.method
            d["best_epoch"] = self.best_epoch
            out.append(json.dumps(d, sort_keys=True))
        return "\n".join(out) + "\n"


def _snapshot(fitted: FittedModel) -> dict[str, np.ndarray]:
    state = {name: t.data.copy() for name, t in fitted.named_params()}
    for name, arr in fitted.named_buffers():
        state["buffer." + name] = arr.copy()
    return state


def _restore(fitted: FittedModel, state: dict[str, np.ndarray]):
    for name, t in fitted.named_params():
        t.data[:] = state[name]
    buffers = dict(fitted.named_buffers())
    for name, arr in buffers.items():
        arr[:] = state["buffer." + name]


# Training and scoring run with numpy's floating-point warnings off: an
# overflow or invalid operation ends in a non-finite loss, gradient or
# score, which the run's own checks report as one NumericAbort line.
@np.errstate(all="ignore")
def pretrain(fitted: FittedModel, train_data: Dataset, config: TrainConfig,
             shuffle_rng: np.random.Generator) -> None:
    """Warm up before joint training: `pretrain_epochs` epochs of BCE on the
    model's warm-up forward, over its warm-up parameters. A no-op for zero
    epochs and for a model with nothing to warm up."""
    named = fitted.model.warmup_params() if config.pretrain_epochs else []
    if not named:
        return
    opt = Adam([t for _, t in named], lr=config.lr)
    n = len(train_data)
    for epoch in range(1, config.pretrain_epochs + 1):
        order = shuffle_rng.permutation(n)
        for batch, idx in enumerate(_batch_slices(n, config.batch_size, order), start=1):
            loss = bce(fitted.model.warmup_forward(train_data.x[idx]), train_data.y[idx])
            _step(opt, named, loss, {}, f"pretrain epoch {epoch}, batch {batch}")


def _step(opt: Adam, named_params, loss, terms: dict, where: str) -> None:
    """One optimizer step on `loss`, unless the loss or a gradient is not
    finite: then NumericAbort at `where`, naming the first non-finite entry
    of `terms`, or the parameter (a row-sparse gradient is checked on the
    rows it touched)."""
    val = loss.item()
    if not np.isfinite(val):
        bad = [key for key, term in terms.items() if not np.isfinite(term)]
        raise NumericAbort(f"non-finite loss {val} at {where}"
                           + (f" (first non-finite term: {bad[0]})" if bad else ""))
    opt.zero_grad()
    loss.backward()
    for name, t in named_params:
        g = t.grad
        if g is not None and not np.isfinite(g.values if isinstance(g, RowGrad) else g).all():
            raise NumericAbort(f"non-finite gradient in {name} at {where}")
    opt.step()


@np.errstate(all="ignore")
def evaluate(fitted: FittedModel, dataset: Dataset, batch_size: int = 2048,
             selection_dump_path: Path | None = None,
             informative_fields: Sequence[int] | None = None) -> Metrics:
    """Frozen-parameter evaluation with inference-mode batch norm, scored
    without the tape. A non-finite score raises NumericAbort.

    The main table's lookup counts over the pass give each field's
    selection count, and from those the activated parameters and lookups
    per instance, the selection frequency and, given the informative
    fields, the share of selections among them. Optionally dumps
    per-instance selections (index set, and weights where the model has
    them) as line-delimited JSON.
    """
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty split")
    n = len(dataset)
    scores = np.empty(n)
    dump_lines: list[str] | None = [] if selection_dump_path is not None else None
    main_set = fitted.main_embeddings
    before = main_set.lookup_counts.copy()
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        with no_tape():  # nothing here is differentiated
            probs, sel, weights, _ = fitted.forward_scores(dataset.x[start:stop], training=False)
        scores[start:stop] = probs.data
        if dump_lines is not None:
            for j in range(stop - start):
                entry = {"instance": start + j, "indices": [int(v) for v in sel[j]]}
                if weights is not None:
                    entry["weights"] = [float(w) for w in weights[j]]
                dump_lines.append(json.dumps(entry, sort_keys=True))
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericAbort(f"non-finite score {scores[bad[0]]} for instance {bad[0]} "
                           f"of {n} in evaluation")
    if dump_lines is not None:
        Path(selection_dump_path).write_text("\n".join(dump_lines) + "\n")
    counts = main_set.lookup_counts - before
    activated, lookups = activation_averages(counts, n, main_set, fitted.model.aux_embeddings)
    metrics = Metrics(
        auc=auc_metric(scores, dataset.y.astype(int)),
        logloss=logloss_metric(scores, dataset.y.astype(int)),
        n=n,
        activated_params_avg=float(activated),
        lookups_avg=float(lookups),
    )
    metrics.selection_frequency = (counts / n).tolist()
    if informative_fields is not None:
        informative = np.isin(np.arange(counts.size), informative_fields)
        metrics.selection_precision = int(counts[informative].sum()) / int(counts.sum())
    return metrics


@dataclass
class TrainResult:
    fitted: FittedModel
    report: TrainReport


@np.errstate(all="ignore")
def train(data: PreparedData, config: TrainConfig) -> TrainResult:
    """Optimize per the configured method and return the best-validation model."""
    if len(data.train) == 0 or len(data.val) == 0:
        raise DataError("train and validation splits must be non-empty")
    ss = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss, subset_ss, pre_ss = ss.spawn(4)
    fitted = build_model(data.vocab.vocab_sizes, config,
                         np.random.default_rng(init_ss),
                         np.random.default_rng(subset_ss))
    pretrain(fitted, data.train, config, np.random.default_rng(pre_ss))

    named = fitted.named_params()
    opt = Adam([t for _, t in named], lr=config.lr)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    report = TrainReport(method=config.method)
    best_state: dict | None = None
    best_auc = -1.0
    n = len(data.train)
    main_set = fitted.main_embeddings

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        before = main_set.lookup_counts.copy()
        sums: dict[str, float] = {}
        n_batches = seen = 0
        order = shuffle_rng.permutation(n)
        for idx in _batch_slices(n, config.batch_size, order):
            loss, terms, _ = fitted.model.loss(data.train.x[idx], data.train.y[idx])
            _step(opt, named, loss, terms, f"epoch {epoch}, batch {n_batches + 1}")
            for key, term in terms.items():
                sums[key] = sums.get(key, 0.0) + term
            n_batches += 1
            seen += idx.size
        if n_batches == 0:
            raise DataError("training split produced no usable batches")
        activated, lookups = activation_averages(main_set.lookup_counts - before, seen, main_set,
                                                 fitted.model.aux_embeddings)

        val_metrics = evaluate(fitted, data.val, config.batch_size)
        mean = {key: total / n_batches for key, total in sums.items()}
        row = EpochRow(
            epoch=epoch,
            bce_aux=mean.get("bce_aux"),
            bce_main=mean["bce_main"],
            eal=mean.get("eal"),
            pal=mean.get("pal"),
            val_auc=val_metrics.auc,
            val_logloss=val_metrics.logloss,
            activated_params_avg=float(activated),
            lookups_avg=float(lookups),
            seconds=time.perf_counter() - t0,
        )
        report.rows.append(row)
        if val_metrics.auc > best_auc:
            best_auc = val_metrics.auc
            best_state = _snapshot(fitted)
            report.best_epoch = epoch

    _restore(fitted, best_state)
    return TrainResult(fitted=fitted, report=report)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"aefs-checkpoint-v2\n"


def _checkpoint_tensors(fitted: FittedModel) -> dict[tuple[str, str], np.ndarray]:
    tensors = {("param", name): t.data for name, t in fitted.named_params()}
    tensors.update((("buffer", name), arr) for name, arr in fitted.named_buffers())
    return tensors


def save_checkpoint(fitted: FittedModel, path: Path) -> None:
    """Binary dump of every parameter and buffer, exact and byte-deterministic.

    The file is the magic line ``aefs-checkpoint-v2``, then per tensor one
    text header line ``param|buffer <name> <ndim> <dims...>`` followed by
    exactly ``8 * prod(dims)`` bytes of little-endian float64. Tensors are
    written one at a time, so no file-sized buffer is built.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for (kind, name), arr in _checkpoint_tensors(fitted).items():
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{kind} {name} {arr.ndim} {dims}".rstrip().encode() + b"\n")
            fh.write(np.ascontiguousarray(arr, "<f8").data)


def _parse_header(line: bytes) -> tuple[str, str, tuple[int, ...]]:
    """(kind, name, shape) of a header line; ValueError if it is not one."""
    kind, name, ndim, *dims = line.decode("ascii").split(" ")
    shape = tuple(int(d) for d in dims)
    if int(ndim) != len(shape) or any(d < 0 for d in shape):
        raise ValueError(line)
    return kind, name, shape


def load_checkpoint(fitted: FittedModel, path: Path) -> None:
    """Read a `save_checkpoint` file into the model's own arrays, in place.

    Any file that is not exactly one well-formed entry per model tensor
    raises a one-line ValueError naming the file and the tensor.
    """
    buf = Path(path).read_bytes()
    if not buf.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not an {CHECKPOINT_MAGIC.decode().strip()} file")
    targets = _checkpoint_tensors(fitted)
    seen = set()
    pos = len(CHECKPOINT_MAGIC)
    while pos < len(buf):
        if len(seen) == len(targets):
            raise ValueError(f"{path}: {len(buf) - pos} trailing bytes after the last tensor")
        end = buf.find(b"\n", pos)
        end = len(buf) if end < 0 else end
        line = buf[pos:end]
        try:
            kind, name, shape = _parse_header(line)
        except ValueError:  # a UnicodeDecodeError too
            raise ValueError(f"{path}: malformed tensor header {line[:80]!r} "
                             f"at byte {pos}") from None
        if kind not in ("param", "buffer"):
            raise ValueError(f"{path}: tensor {name}: unknown kind {kind!r}")
        if (kind, name) not in targets:
            raise ValueError(f"{path}: unknown {kind} {name!r}")
        if (kind, name) in seen:
            raise ValueError(f"{path}: {kind} {name} given twice")
        target = targets[kind, name]
        if target.shape != shape:
            raise ValueError(f"{path}: shape mismatch for {name}: "
                             f"{shape} in file, {target.shape} in model")
        count = math.prod(shape)
        pos = end + 1
        if len(buf) - pos < 8 * count:
            raise ValueError(f"{path}: {kind} {name} truncated: {len(buf) - pos} bytes "
                             f"of {8 * count}")
        target[...] = np.frombuffer(buf, dtype="<f8", count=count, offset=pos).reshape(shape)
        seen.add((kind, name))
        pos += 8 * count
    missing = set(targets) - seen
    if missing:
        raise ValueError(f"{path}: missing tensors {sorted(name for _, name in missing)}")
