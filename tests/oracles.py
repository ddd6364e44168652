"""Reference implementations that the package must match, and helpers
that only the tests use.

The bit-for-bit references are the allocating formulations the package used
before embedding gradients became row-sparse, Adam became in place and the
tape began handing gradient buffers to their parents: a dense zero gradient
scattered into with ``np.add.at``, an Adam update that builds a new array
per operation, and a gradient accumulator that copies every first
gradient. So are the no-selection model that embedded every field with its own lookup, and
the activation ledger that counted every selected index per batch. So is
the per-record data path that `prepare` replaced with per-field encoding: a
vocabulary counted token by token, and one `Instance` per record. So are the
readers that built one `RawRecord` per row, before every reader fed the
columnar encoder, and the transposition of those records into `Columns`. So are the
logistic function through boolean masks and a field gather whose backward
scatters with ``np.add.at``, as scoring had them before it ran without the
tape.

The controller as the package had it before its batch norm was folded into
its affine map (batch norm through ``np.mean``/``np.var``, affine and
softmax as separate nodes) is a reference to rounding only: the fold
computes the same values in another order. So is the field weighting as a
reshape and a broadcast multiply: its weight gradient sums over d in
another order than the one-node contraction. So is the embedding alignment
loss composed from tape ops over every selected lookup: the package sums
it over the distinct rows a batch selects.

The rest are single-instance selection helpers, finite-difference gradient
checks, per-field table views, and other small functions the tests call.
"""
import csv
import json
from dataclasses import dataclass
from pathlib import Path
from fractions import Fraction

import numpy as np

from aefs import numerics, selection
from aefs.data import MISSING_TOKEN, OOV_ID, Columns, DataError, Dataset, Vocabulary, \
    _not_utf8, criteo_schema, discretize_numeric, schema_from_json, split_indices
from aefs.embedding import EmbeddingSet
from aefs.numerics import AdamState, DegenerateBatchError, DimensionError, RowGrad, Tensor, \
    affine, softmax
from aefs.predictors import PredictorConfig, bce, build_predictor
from aefs.selection import aefs_forward, embedding_alignment_loss


def dense_scatter(table, ids, g):
    """Accumulate ``g[i]`` into row ``ids[i]`` of a dense ``table.grad``."""
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    np.add.at(table.grad, ids, g)


def adam_step(param, grad, state: AdamState):
    """One bias-corrected Adam update, in place on `param` and `state`."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise DimensionError(f"adam_step shapes param={param.shape} grad={grad.shape}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return param, state


def reference_adam_step(opt):
    """`Adam.step` by the reference formula, on densified gradients."""
    for p, st in zip(opt.params, opt.states):
        if p.grad is not None:
            g = p.grad.dense() if isinstance(p.grad, RowGrad) else p.grad
            adam_step(p.data, g, st)


def copying_accum(t, g, owned=False):
    """The tape's gradient accumulator, copying every first gradient."""
    if not t.requires_grad:
        return
    if isinstance(t.grad, RowGrad):
        t.grad = t.grad.dense()
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
        if t.grad.shape != t.data.shape:
            t.grad = np.broadcast_to(t.grad, t.data.shape).copy()
    else:
        t.grad += g


def batchnorm_reference(ctrl, x, training):
    """The controller's batch normalization by the textbook formula, one
    array per op, as a tape node of its own."""
    if training:
        if x.shape[0] < 2:
            raise DegenerateBatchError("batch statistics need a batch of at least 2 rows")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        std = np.sqrt(var + ctrl.eps)
        xn = (x.data - mu) / std
        m = ctrl.momentum
        ctrl.running_mean = (1.0 - m) * ctrl.running_mean + m * mu
        ctrl.running_var = (1.0 - m) * ctrl.running_var + m * var
    else:
        std = np.sqrt(ctrl.running_var + ctrl.eps)
        xn = (x.data - ctrl.running_mean) / std
    gamma, beta = ctrl.gamma, ctrl.beta
    out = gamma.data * xn + beta.data

    def bw(g):
        copying_accum(gamma, (g * xn).sum(axis=0))
        copying_accum(beta, g.sum(axis=0))
        if x.requires_grad:
            dxn = g * gamma.data
            if training:
                dx = (dxn - dxn.mean(axis=0) - xn * (dxn * xn).mean(axis=0)) / std
            else:
                dx = dxn / std
            copying_accum(x, dx)

    return Tensor(out, parents=(x, gamma, beta), backward=bw)


def reference_controller(ctrl, e, training):
    """``Controller.__call__`` as separate tape nodes: reshape, the textbook
    batch normalization, affine (matmul and add), softmax."""
    if e.ndim != 3 or e.shape[1:] != (ctrl.n_fields, ctrl.emb_dim):
        raise DimensionError(f"controller input {e.shape}")
    flat = e.reshape(e.shape[0], ctrl.n_fields * ctrl.emb_dim)
    h = batchnorm_reference(ctrl, flat, training)
    return softmax(affine(h, ctrl.fc.weight, ctrl.fc.bias), axis=1)


def use_reference_tape(monkeypatch):
    """Route the tape, the selection nodes included, through the copying
    accumulator for the rest of a test (or monkeypatch context)."""
    monkeypatch.setattr(numerics, "_accum", copying_accum)
    monkeypatch.setattr(selection, "_accum", copying_accum)


def composed_scale_embeddings(e_sel, weights):
    """``scale_embeddings`` as two tape nodes: the weights reshaped to
    (B, n, 1), and a broadcast multiply."""
    if e_sel.shape[:2] != weights.shape:
        raise DimensionError(f"embeddings {e_sel.shape} vs weights {weights.shape}")
    b, n = weights.shape
    return e_sel * weights.reshape(b, n, 1)


def take_rows(table, rows):
    """Rows `rows` (B, k) of the (n, d) `table` as a (B, k, d) tape node,
    whose backward scatters into the table."""
    rows = np.asarray(rows)

    def bw(g):
        numerics.scatter_rows(table, rows.reshape(-1), g.reshape(-1, table.shape[1]))

    return Tensor(table.data[rows], parents=(table,), backward=bw)


def composed_embedding_alignment_loss(aux, main, rows, weights, fc):
    """``embedding_alignment_loss`` per lookup, from tape ops, as the package
    computed it over the weighted selected embeddings: both tables' rows
    gathered to (B, k, d) and weighted (reshape, multiply), the auxiliary
    ones lifted by the affine map (reshape, matmul, add, reshape), then
    subtract, square, sum and scale."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape != weights.shape:
        raise DimensionError(f"rows {rows.shape} vs weights {weights.shape}")
    if aux.shape[0] != main.shape[0]:
        raise DimensionError(f"tables {aux.shape} and {main.shape} do not share their rows")
    b, k = rows.shape
    d2, d1 = aux.shape[1], main.shape[1]
    a = composed_scale_embeddings(take_rows(aux, rows), weights)
    m = composed_scale_embeddings(take_rows(main, rows), weights)
    mapped = fc(a.reshape(b * k, d2)).reshape(b, k, d1)
    diff = mapped - m
    return (diff * diff).mean()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# no selection and the activation ledger, as the package had them

def embed_all(es: EmbeddingSet, x):
    """``EmbeddingSet.embed`` of every field, as it was before it took a
    column list: one lookup of ``x`` plus the field offsets."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != es.n_fields:
        raise DimensionError(f"id batch {x.shape}, expected (*, {es.n_fields})")
    if (x < 0).any() or (x >= np.asarray(es.vocab_sizes)[None, :]).any():
        raise IndexError("category id out of range for its field")
    out = es._lookup(x + es.offsets[None, :])
    es.lookup_counts += x.shape[0]
    return out


class PlainModel:
    """No selection: embed all fields, predict. The reference for `none`,
    which a FixedSubsetModel over every field now serves."""

    aux_embeddings = None

    def __init__(self, vocab_sizes, dim: int, backbone: str, hidden_dims, n_cross_layers,
                 rng: np.random.Generator):
        n = len(vocab_sizes)
        self.embeddings = EmbeddingSet(vocab_sizes, dim, rng)
        self.predictor = build_predictor(
            PredictorConfig(backbone, n, dim, tuple(hidden_dims), n_cross_layers), rng)
        self.n_fields = n

    @property
    def main_embeddings(self):
        return self.embeddings

    def forward(self, x: np.ndarray, training: bool) -> Tensor:
        return self.predictor(embed_all(self.embeddings, x))

    def score(self, x, training):
        all_fields = np.tile(np.arange(self.n_fields), (x.shape[0], 1))
        return self.forward(x, training), all_fields, None

    def loss(self, x, y):
        p, all_fields, _ = self.score(x, training=True)
        loss = bce(p, y)
        return loss, {"bce_main": loss.item()}, all_fields

    def warmup_params(self):
        return []

    def named_params(self):
        return self.embeddings.named_params("emb.") + self.predictor.named_params()

    def named_buffers(self):
        return []


@dataclass
class ActivationLedger:
    """Accumulates exact totals of activated embedding parameters and of
    main-model lookups over the instances observed, so the averages are
    per-instance means whatever the batch sizes."""

    instances_observed: int = 0
    sum_activated_params: int = 0
    sum_lookups: int = 0

    def add_batch(self, instances: int, activated_params: int, lookups: int):
        self.instances_observed += instances
        self.sum_activated_params += activated_params
        self.sum_lookups += lookups

    def merge(self, other: "ActivationLedger") -> "ActivationLedger":
        return ActivationLedger(
            instances_observed=self.instances_observed + other.instances_observed,
            sum_activated_params=self.sum_activated_params + other.sum_activated_params,
            sum_lookups=self.sum_lookups + other.sum_lookups,
        )

    def activated_params_avg(self) -> Fraction:
        self._require_instances()
        return Fraction(self.sum_activated_params, self.instances_observed)

    def lookups_avg(self) -> Fraction:
        self._require_instances()
        return Fraction(self.sum_lookups, self.instances_observed)

    def _require_instances(self):
        if self.instances_observed == 0:
            raise ValueError("ledger has observed no instances")


def record_batch_activation(ledger: ActivationLedger, selected_per_instance,
                            main_set: EmbeddingSet, aux_set: EmbeddingSet | None = None):
    """Account one batch: per instance, activated parameters are the full
    auxiliary tables plus the full main table of each selected field."""
    sel = np.asarray(selected_per_instance)
    if sel.ndim != 2 or sel.shape[0] == 0:
        raise ValueError("selection batch must be a non-empty (B, k) array")
    b = sel.shape[0]
    aux_full = aux_set.param_count() if aux_set is not None else 0
    main_sizes = np.asarray(main_set.vocab_sizes, dtype=np.int64) * main_set.dim
    total_main = int(main_sizes[sel].sum())
    ledger.add_batch(b, aux_full * b + total_main, sel.size)
    return ledger


def compose_activated_params(main_full, main_reduction, aux_full) -> Fraction:
    """Total activated parameters from a main-model reduction and the
    auxiliary overhead: main_full - main_reduction + aux_full."""
    return Fraction(main_full) - Fraction(main_reduction) + Fraction(aux_full)


class EmbeddingTable:
    """One field's slice of an EmbeddingSet's shared row matrix."""

    def __init__(self, owner: EmbeddingSet, field_index: int):
        self.owner = owner
        self.field_index = field_index

    def _rows(self) -> slice:
        o = int(self.owner.offsets[self.field_index])
        return slice(o, o + self.owner.vocab_sizes[self.field_index])

    @property
    def data(self) -> np.ndarray:
        """Writable (vocab_size, dim) view of this field's rows."""
        return self.owner.weight.data[self._rows()]

    @property
    def grad(self) -> np.ndarray | None:
        g = self.owner.weight.grad
        if g is None:
            return None
        return (g.dense() if isinstance(g, RowGrad) else g)[self._rows()]

    @property
    def lookup_count(self) -> int:
        return int(self.owner.lookup_counts[self.field_index])


def tables(es: EmbeddingSet) -> list[EmbeddingTable]:
    return [EmbeddingTable(es, n) for n in range(es.n_fields)]


# ---------------------------------------------------------------------------
# single-instance selection

class DegenerateSelectionError(ValueError):
    """All selected scores are zero; weights cannot be normalized."""


def k_max_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending, ties to the lower index."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise DimensionError("k_max_indices expects a 1-D score vector")
    if not (1 <= k <= s.shape[0]):
        raise ValueError(f"k={k} out of range for {s.shape[0]} scores")
    return np.argsort(-s, kind="stable")[:k]


def l1_normalize_selected(scores, indices) -> np.ndarray:
    """Selected scores scaled to sum to one."""
    s = np.asarray(scores, dtype=np.float64)
    sel = s[np.asarray(indices)]
    if (sel < 0).any():
        raise ValueError("selected scores must be nonnegative")
    total = sel.sum()
    if total == 0.0:
        raise DegenerateSelectionError("all selected scores are zero")
    return sel / total


@dataclass
class SelectionResult:
    """Top-k field indices (descending score, index tie-break) and their
    L1-normalized weights for one instance."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.indices.shape != self.weights.shape:
            raise DimensionError("indices and weights must have equal length")
        if len(np.unique(self.indices)) != self.indices.size:
            raise ValueError("selection indices must be distinct")
        if (self.weights < 0).any() or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")


# ---------------------------------------------------------------------------
# dual-model discrepancies

def prediction_discrepancy(fitted, dataset, batch_size: int = 2048) -> float:
    """Mean squared gap between auxiliary and main predictions (dual model)."""
    if fitted.model.aux_embeddings is None:
        raise ValueError("prediction discrepancy is defined for the dual model only")
    total = 0.0
    n = len(dataset)
    for start in range(0, n, batch_size):
        x = dataset.x[start:start + batch_size]
        trace = aefs_forward(fitted.model, x, training=False, reweight=fitted.model.reweight)
        total += float(((trace.aux_pred.data - trace.main_pred.data) ** 2).sum())
    return total / n


def embedding_discrepancy(fitted, dataset, batch_size: int = 2048) -> float:
    """Mean squared gap between lifted auxiliary and main embeddings."""
    if fitted.model.aux_embeddings is None:
        raise ValueError("embedding discrepancy is defined for the dual model only")
    total = 0.0
    n = len(dataset)
    for start in range(0, n, batch_size):
        x = dataset.x[start:start + batch_size]
        pair = fitted.model
        trace = aefs_forward(pair, x, training=False, reweight=pair.reweight)
        loss = embedding_alignment_loss(pair.aux_embeddings.weight, pair.main_embeddings.weight,
                                        pair.main_embeddings.flat_rows(x, trace.indices),
                                        trace.weights, pair.align_fc)
        total += loss.item() * x.shape[0]
    return total / n


# ---------------------------------------------------------------------------
# numerics, data and reports

def exp(a: Tensor) -> Tensor:
    """Elementwise exp as a tape op."""
    out = np.exp(a.data)

    def bw(g):
        numerics._accum(a, g * out, owned=True)

    return Tensor(out, parents=(a,), backward=bw)


def boolean_mask_sigmoid(z):
    """The stable logistic function, each sign taken apart by a mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def add_at_gather_fields(x: Tensor, idx) -> Tensor:
    """``gather_fields`` with an ``np.add.at`` scatter in its backward."""
    idx = np.asarray(idx)
    rows = np.arange(x.shape[0])[:, None]

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, (rows, idx), g)

    return Tensor(x.data[rows, idx], parents=(x,), backward=bw)


def grad_check(loss_fn, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central differences.

    Returns max over all parameter entries of
    ``|analytic - numeric| / max(1, |analytic|)``. `loss_fn` must rebuild the
    graph from the current parameter values on every call.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None
                else p.grad.dense() if isinstance(p.grad, RowGrad) else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn().item()
            flat[i] = orig - eps
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            if err > worst:
                worst = err
    return worst


@dataclass(frozen=True)
class RawRecord:
    label: int
    tokens: tuple[str, ...]


def _record_label(token: str, path, lineno: int) -> int:
    try:
        label = int(token)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad label {token!r}") from exc
    if label not in (0, 1):
        raise DataError(f"{path}:{lineno}: label must be 0 or 1")
    return label


def reference_read_format_b(data_path, schema_path):
    """(records, schema) of a format-B file, one `RawRecord` per
    ``csv.reader`` row."""
    try:
        schema = schema_from_json(Path(schema_path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(schema_path) from exc
    except DataError as exc:
        raise DataError(f"{schema_path}: {exc}") from exc
    records = []
    try:
        with open(data_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "label":
                raise DataError(f"{data_path}: expected a header starting with 'label'")
            if len(header) - 1 != len(schema):
                raise DataError(f"{data_path}: {len(header) - 1} columns, "
                                f"schema has {len(schema)}")
            names = [fs.name for fs in schema]
            if header[1:] != names:
                n = next(n for n, name in enumerate(header[1:]) if name != names[n])
                raise DataError(f"{data_path}: header column {n + 2} is {header[n + 1]!r}, "
                                f"schema field {n} is {names[n]!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(schema) + 1:
                    raise DataError(f"{data_path}:{lineno}: bad column count {len(row)}")
                records.append(RawRecord(_record_label(row[0], data_path, lineno),
                                         tuple(row[1:])))
    except UnicodeDecodeError as exc:
        raise _not_utf8(data_path) from exc
    if not records:
        raise DataError(f"{data_path}: no records")
    return records, schema


def reference_read_format_a(data_path):
    """(records, schema) of a format-A file, one `RawRecord` per line."""
    schema = criteo_schema()
    n_cols = 1 + len(schema)
    records = []
    try:
        with open(data_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != n_cols:
                    raise DataError(f"{data_path}:{lineno}: {len(parts)} columns, "
                                    f"expected {n_cols}")
                records.append(RawRecord(_record_label(parts[0], data_path, lineno),
                                         tuple(parts[1:])))
    except UnicodeDecodeError as exc:
        raise _not_utf8(data_path) from exc
    if not records:
        raise DataError(f"{data_path}: no records")
    return records, schema


def encode_columns(records, schema) -> Columns:
    """The records transposed into `Columns`, field by field: each token
    bucketized where its field is numerical, then numbered in order of
    first occurrence."""
    if any(len(rec.tokens) != len(schema) for rec in records):
        i = next(i for i, rec in enumerate(records) if len(rec.tokens) != len(schema))
        raise DataError(f"record {i} has {len(records[i].tokens)} tokens, "
                        f"schema has {len(schema)}")
    codes = np.empty((len(schema), len(records)), dtype=np.int64)
    keys = []
    for fs in schema:
        code_of = {}
        for i, rec in enumerate(records):
            codes[fs.index, i] = code_of.setdefault(_field_token(rec, fs), len(code_of))
        keys.append(list(code_of))
    labels = np.array([rec.label for rec in records], dtype=np.float64)
    return Columns(codes=codes, labels=labels, keys=keys)


@dataclass(frozen=True)
class Instance:
    label: int
    x: tuple[int, ...]


def _field_token(record, fs) -> str:
    tok = record.tokens[fs.index]
    if fs.kind == "numerical":
        if tok == "" or tok == MISSING_TOKEN:
            return MISSING_TOKEN
        return str(discretize_numeric(tok))
    return tok


def reference_build_vocab(records, schema, min_freq: int = 10) -> Vocabulary:
    """Count post-quantization tokens record by record; keep those seen at
    least `min_freq` times, with IDs in first-occurrence order."""
    if not records:
        raise DataError("cannot build a vocabulary from zero records")
    counts = [{} for _ in schema]
    order = [[] for _ in schema]
    for rec in records:
        if len(rec.tokens) != len(schema):
            raise DataError(f"record has {len(rec.tokens)} tokens, schema has {len(schema)}")
        for fs in schema:
            tok = _field_token(rec, fs)
            c = counts[fs.index]
            if tok not in c:
                c[tok] = 0
                order[fs.index].append(tok)
            c[tok] += 1
    field_maps = []
    for n in range(len(schema)):
        kept = [t for t in order[n] if counts[n][t] >= min_freq]
        field_maps.append({t: i + 1 for i, t in enumerate(kept)})
    return Vocabulary(field_maps=field_maps, min_freq=min_freq)


def reference_quantize(record, schema, vocab: Vocabulary) -> Instance:
    """One raw record as per-field category IDs; unseen tokens go to OOV."""
    if len(record.tokens) != len(schema):
        raise DataError(f"record arity {len(record.tokens)} != schema arity {len(schema)}")
    return Instance(label=record.label, x=tuple(
        vocab.field_maps[fs.index].get(_field_token(record, fs), OOV_ID) for fs in schema))


def dataset_from_instances(instances) -> Dataset:
    if not instances:
        raise DataError("empty instance list")
    return Dataset(x=np.array([inst.x for inst in instances], dtype=np.int64),
                   y=np.array([inst.label for inst in instances], dtype=np.float64))


def reference_prepare(records, schema, seed: int, min_freq: int = 10):
    """(vocab, train, val, test) by the per-record path: split the records,
    count the training split, quantize every record."""
    splits = [[records[i] for i in idx] for idx in split_indices(len(records), seed)]
    vocab = reference_build_vocab(splits[0], schema, min_freq=min_freq)
    return (vocab, *(dataset_from_instances([reference_quantize(r, schema, vocab) for r in recs])
                     for recs in splits))


def vocab_to_json(vocab) -> str:
    return json.dumps({"min_freq": vocab.min_freq, "fields": vocab.field_maps}, sort_keys=True)


def vocab_from_json(text: str) -> Vocabulary:
    obj = json.loads(text)
    return Vocabulary(field_maps=[dict(m) for m in obj["fields"]], min_freq=obj["min_freq"])


def parse_report(jsonl_text: str) -> list[dict]:
    return [json.loads(line) for line in jsonl_text.splitlines() if line.strip()]
