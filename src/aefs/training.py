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

from .data import DataError, Dataset, FieldSchema, RawRecord, Vocabulary, build_vocab, \
    quantize_all, split_dataset
from .embedding import ActivationLedger, record_batch_activation
from .metrics import Metrics, auc as auc_metric, logloss as logloss_metric
from .numerics import Adam, RowGrad, sigmoid
from .predictors import VARIANTS, bce
from .selection import (
    DualModel,
    FixedSubsetModel,
    LateSelectionModel,
    PlainModel,
    aefs_forward,
    aefs_predict,
    embedding_alignment_loss,
    k_for,
    prediction_alignment_loss,
)

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
        if self.d2 > self.d1:
            raise ConfigError(f"d2={self.d2} must not exceed d1={self.d1}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.backbone_main not in VARIANTS or self.backbone_aux not in VARIANTS:
            raise ConfigError(f"backbones must be one of {VARIANTS}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be nonnegative")

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


def prepare(records: Sequence[RawRecord], schema: Sequence[FieldSchema], seed: int,
            min_freq: int = 10, informative_fields=None) -> PreparedData:
    """8:1:1 split first, then vocabulary from the training split only."""
    train_recs, val_recs, test_recs = split_dataset(list(records), seed)
    vocab = build_vocab(train_recs, schema, min_freq=min_freq)
    return PreparedData(
        schema=list(schema),
        vocab=vocab,
        train=quantize_all(train_recs, schema, vocab),
        val=quantize_all(val_recs, schema, vocab),
        test=quantize_all(test_recs, schema, vocab),
        informative_fields=list(informative_fields) if informative_fields is not None else None,
    )


@dataclass
class FittedModel:
    """A trained model plus the selection semantics it was trained with."""

    method: str
    model: object
    k: int
    mode: str = "soft"
    reweight: bool = True

    def named_params(self):
        return self.model.named_params()

    def named_buffers(self):
        return self.model.named_buffers()

    def forward_scores(self, x: np.ndarray, training: bool):
        """Returns (probabilities, selected indices, selection weights, aux set).

        Late and no-selection methods activate every field, so their ledger
        selection is the full field range and they carry no weight vector.
        """
        b = x.shape[0]
        if self.method == "aefs":
            p, indices, weights = aefs_predict(self.model, x, training, reweight=self.reweight)
            return p, indices, weights.data, self.model.aux_embeddings
        if self.method == "adafs":
            p, _, _ = self.model.forward(x, training, mode=self.mode, k=self.k,
                                         reweight=self.reweight)
            all_fields = np.tile(np.arange(self.model.n_fields), (b, 1))
            return p, all_fields, None, None
        if self.method == "randomhalf":
            p = self.model.forward(x, training)
            return p, self.model.selected_indices(b), None, None
        p = self.model.forward(x, training)
        all_fields = np.tile(np.arange(self.model.n_fields), (b, 1))
        return p, all_fields, None, None

    @property
    def main_embeddings(self):
        return self.model.main_embeddings if self.method == "aefs" else self.model.embeddings


def build_model(vocab_sizes: Sequence[int], config: TrainConfig,
                rng: np.random.Generator, subset_rng: np.random.Generator) -> FittedModel:
    n = len(vocab_sizes)
    k = k_for(n, config.r)
    if config.method == "aefs":
        model = DualModel(vocab_sizes, d1=config.d1, d2=config.d2, k=k,
                          backbone_main=config.backbone_main,
                          backbone_aux=config.backbone_aux,
                          hidden_dims=config.hidden_dims,
                          n_cross_layers=config.n_cross_layers, rng=rng)
    elif config.method == "adafs":
        model = LateSelectionModel(vocab_sizes, config.d1, config.backbone_main,
                                   config.hidden_dims, config.n_cross_layers, rng)
    elif config.method == "randomhalf":
        fields = subset_rng.choice(n, size=k, replace=False)
        model = FixedSubsetModel(vocab_sizes, config.d1, fields, config.backbone_main,
                                 config.hidden_dims, config.n_cross_layers, rng)
    else:
        model = PlainModel(vocab_sizes, config.d1, config.backbone_main,
                           config.hidden_dims, config.n_cross_layers, rng)
    return FittedModel(method=config.method, model=model, k=k, mode=config.mode,
                       reweight=config.enable_topk_reweight)


def _batch_slices(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size >= 2:  # batch norm needs at least 2 rows in training
            yield idx


def _batch_loss(fitted: FittedModel, x, y, config: TrainConfig):
    """Loss tensor plus per-term floats and the ledger inputs for one batch."""
    if fitted.method == "aefs":
        trace = aefs_forward(fitted.model, x, training=True, reweight=fitted.reweight)
        bce_a = bce(trace.aux_pred, y)
        bce_m = bce(trace.main_pred, y)
        loss = bce_a + bce_m
        terms = {"bce_aux": bce_a.item(), "bce_main": bce_m.item()}
        if config.enable_eal:
            eal = embedding_alignment_loss(trace.aux_embeds, trace.main_embeds,
                                           fitted.model.align_fc)
            loss = loss + eal
            terms["eal"] = eal.item()
        else:
            terms["eal"] = None
        if config.enable_pal:
            pal = prediction_alignment_loss(trace.aux_pred, trace.main_pred)
            loss = loss + pal
            terms["pal"] = pal.item()
        else:
            terms["pal"] = None
        return loss, terms, trace.indices, fitted.model.aux_embeddings

    probs, sel, _, aux_set = fitted.forward_scores(x, training=True)
    loss = bce(probs, y)
    terms = {"bce_aux": None, "bce_main": loss.item(), "eal": None, "pal": None}
    return loss, terms, sel, aux_set


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


def pretrain(fitted: FittedModel, train_data: Dataset, config: TrainConfig,
             shuffle_rng: np.random.Generator) -> None:
    """Warm up before joint training; a no-op for zero epochs.

    Dual model: the auxiliary side alone (embeddings, controller and a
    throwaway all-fields head) trains with BCE on all N fields, soft-scaled
    by the controller scores, so the scorer sees gradient from the start.
    Late selection: a soft-mode phase, all N fields scaled by the raw scores
    with no top-k and no re-normalization, before hard selection starts.
    Other methods have nothing to warm up.
    """
    if config.pretrain_epochs == 0:
        return
    if fitted.method == "aefs":
        pair: DualModel = fitted.model
        head = pair.pretrain_head()
        named = (pair.aux_embeddings.named_params("aux.emb.")
                 + pair.controller.named_params("aux.")
                 + head.named_params("pretrain_head."))

        def forward(x):
            e_a = pair.aux_embeddings.embed(x)
            s = pair.controller(e_a, training=True)
            scaled = e_a * s.reshape(x.shape[0], pair.n_fields, 1)
            flat = scaled.reshape(x.shape[0], pair.n_fields * pair.d2)
            return sigmoid(head(flat)).reshape(x.shape[0])
    elif fitted.method == "adafs":
        model: LateSelectionModel = fitted.model
        named = model.named_params()

        def forward(x):
            p, _, _ = model.forward(x, training=True, mode="soft")
            return p
    else:
        return

    opt = Adam([t for _, t in named], lr=config.lr)
    n = len(train_data)
    for epoch in range(config.pretrain_epochs):
        order = shuffle_rng.permutation(n)
        for idx in _batch_slices(n, config.batch_size, order):
            x, y = train_data.x[idx], train_data.y[idx]
            loss = bce(forward(x), y)
            val = loss.item()
            if not np.isfinite(val):
                raise NumericAbort(f"non-finite pretrain loss at epoch {epoch + 1}")
            opt.zero_grad()
            loss.backward()
            _check_gradients(named, f"pretrain epoch {epoch + 1}")
            opt.step()


def _first_bad_term(terms: dict) -> str:
    """' (first non-finite term: <name>)' for the first of bce_aux,
    bce_main, eal and pal that is not finite; '' when all are."""
    for key in ("bce_aux", "bce_main", "eal", "pal"):
        if terms[key] is not None and not np.isfinite(terms[key]):
            return f" (first non-finite term: {key})"
    return ""


def _check_gradients(named_params, where: str) -> None:
    """Abort on the first parameter whose gradient holds a NaN or an
    infinity; a row-sparse gradient is checked on the rows it touched."""
    for name, t in named_params:
        g = t.grad
        if g is not None and not np.isfinite(g.values if isinstance(g, RowGrad) else g).all():
            raise NumericAbort(f"non-finite gradient in {name} at {where}")


def evaluate(fitted: FittedModel, dataset: Dataset, batch_size: int = 2048,
             selection_dump_path: Path | None = None) -> Metrics:
    """Frozen-parameter evaluation with inference-mode batch norm.

    Optionally dumps per-instance selections (index set and weights) as
    line-delimited JSON for the methods that make a discrete selection.
    """
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty split")
    n = len(dataset)
    scores = np.empty(n)
    ledger = ActivationLedger()
    dump_lines: list[str] | None = [] if selection_dump_path is not None else None
    main_set = fitted.main_embeddings
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x = dataset.x[idx]
        probs, sel, weights, aux_set = fitted.forward_scores(x, training=False)
        scores[idx] = probs.data
        record_batch_activation(ledger, sel, main_set, aux_set)
        if dump_lines is not None:
            for j, inst in enumerate(idx):
                entry = {"instance": int(inst), "indices": [int(v) for v in sel[j]]}
                if weights is not None:
                    entry["weights"] = [float(w) for w in weights[j]]
                dump_lines.append(json.dumps(entry, sort_keys=True))
    if dump_lines is not None:
        Path(selection_dump_path).write_text("\n".join(dump_lines) + "\n")
    return Metrics(
        auc=auc_metric(scores, dataset.y.astype(int)),
        logloss=logloss_metric(scores, dataset.y.astype(int)),
        n=n,
        activated_params_avg=float(ledger.activated_params_avg()),
        lookups_avg=float(ledger.lookups_avg()),
    )


@dataclass
class TrainResult:
    fitted: FittedModel
    report: TrainReport


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

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        ledger = ActivationLedger()
        sums = {"bce_aux": 0.0, "bce_main": 0.0, "eal": 0.0, "pal": 0.0}
        present = {key: False for key in sums}
        n_batches = 0
        order = shuffle_rng.permutation(n)
        for idx in _batch_slices(n, config.batch_size, order):
            x, y = data.train.x[idx], data.train.y[idx]
            loss, terms, sel, aux_set = _batch_loss(fitted, x, y, config)
            val = loss.item()
            if not np.isfinite(val):
                raise NumericAbort(f"non-finite loss {val} at epoch {epoch}, "
                                   f"batch {n_batches + 1}{_first_bad_term(terms)}")
            opt.zero_grad()
            loss.backward()
            _check_gradients(named, f"epoch {epoch}, batch {n_batches + 1}")
            opt.step()
            record_batch_activation(ledger, sel, fitted.main_embeddings, aux_set)
            for key, term in terms.items():
                if term is not None:
                    sums[key] += term
                    present[key] = True
            n_batches += 1
        if n_batches == 0:
            raise DataError("training split produced no usable batches")

        val_metrics = evaluate(fitted, data.val, config.batch_size)
        row = EpochRow(
            epoch=epoch,
            bce_aux=sums["bce_aux"] / n_batches if present["bce_aux"] else None,
            bce_main=sums["bce_main"] / n_batches,
            eal=sums["eal"] / n_batches if present["eal"] else None,
            pal=sums["pal"] / n_batches if present["pal"] else None,
            val_auc=val_metrics.auc,
            val_logloss=val_metrics.logloss,
            activated_params_avg=float(ledger.activated_params_avg()),
            lookups_avg=float(ledger.lookups_avg()),
            seconds=time.perf_counter() - t0,
        )
        report.rows.append(row)
        if val_metrics.auc > best_auc:
            best_auc = val_metrics.auc
            best_state = _snapshot(fitted)
            report.best_epoch = epoch

    _restore(fitted, best_state)
    return TrainResult(fitted=fitted, report=report)


def selection_stats(fitted: FittedModel, dataset: Dataset, batch_size: int = 2048,
                    informative_fields: Sequence[int] | None = None) -> dict:
    """Per-field selection frequency, and precision against a known
    informative set when one is given."""
    n = len(dataset)
    n_fields = dataset.n_fields
    counts = np.zeros(n_fields, dtype=np.int64)
    hits = 0
    total = 0
    informative = np.asarray(informative_fields) if informative_fields is not None else None
    for start in range(0, n, batch_size):
        x = dataset.x[start:start + batch_size]
        _, sel, _, _ = fitted.forward_scores(x, training=False)
        counts += np.bincount(sel.reshape(-1), minlength=n_fields)
        if informative is not None:
            hits += int(np.isin(sel, informative).sum())
            total += sel.size
    out = {"selection_frequency": (counts / n).tolist()}
    if informative is not None:
        out["precision"] = hits / total if total else 0.0
    return out


def prediction_discrepancy(fitted: FittedModel, dataset: Dataset,
                           batch_size: int = 2048) -> float:
    """Mean squared gap between auxiliary and main predictions (dual model)."""
    if fitted.method != "aefs":
        raise ValueError("prediction discrepancy is defined for the dual model only")
    total = 0.0
    n = len(dataset)
    for start in range(0, n, batch_size):
        x = dataset.x[start:start + batch_size]
        trace = aefs_forward(fitted.model, x, training=False, reweight=fitted.reweight)
        total += float(((trace.aux_pred.data - trace.main_pred.data) ** 2).sum())
    return total / n


def embedding_discrepancy(fitted: FittedModel, dataset: Dataset,
                          batch_size: int = 2048) -> float:
    """Mean squared gap between lifted auxiliary and main embeddings."""
    if fitted.method != "aefs":
        raise ValueError("embedding discrepancy is defined for the dual model only")
    total = 0.0
    count = 0
    n = len(dataset)
    for start in range(0, n, batch_size):
        x = dataset.x[start:start + batch_size]
        trace = aefs_forward(fitted.model, x, training=False, reweight=fitted.reweight)
        loss = embedding_alignment_loss(trace.aux_embeds, trace.main_embeds,
                                        fitted.model.align_fc)
        b = x.shape[0]
        total += loss.item() * b
        count += b
    return total / count


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
