"""Raw-record ingestion, quantization, vocabularies, splits, synthetic data.

Two input formats are supported:

* format A: tab-separated click logs, first column the 0/1 label, then 13
  numeric fields and 26 categorical hex tokens; an empty field is missing.
* format B: comma-separated with a header row naming the fields, plus a JSON
  schema file declaring each field ``categorical`` or ``numerical``.

Numeric fields are bucketized with the standard log-square transform before
vocabulary mapping. Rare tokens fall into a per-field out-of-vocabulary ID.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

MISSING_TOKEN = "__missing__"
OOV_ID = 0


class DataError(ValueError):
    """Malformed records, schema mismatches, or unusable datasets."""


@dataclass(frozen=True)
class FieldSchema:
    name: str
    kind: str  # categorical | numerical
    index: int

    def __post_init__(self):
        if self.kind not in ("categorical", "numerical"):
            raise DataError(f"unknown field kind {self.kind!r}")


@dataclass(frozen=True)
class RawRecord:
    label: int
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    label: int
    x: tuple[int, ...]


@dataclass
class Vocabulary:
    """Per-field token-to-ID maps with a reserved OOV bucket.

    ID 0 of every field is the OOV bucket; kept tokens are numbered from 1
    in first-occurrence order, so construction is deterministic.
    """

    field_maps: list[dict[str, int]]
    min_freq: int

    def vocab_size(self, field_index: int) -> int:
        return len(self.field_maps[field_index]) + 1

    @property
    def vocab_sizes(self) -> list[int]:
        return [self.vocab_size(n) for n in range(len(self.field_maps))]

    @property
    def total_ids(self) -> int:
        return sum(self.vocab_sizes)

    def id_of(self, field_index: int, token: str) -> int:
        return self.field_maps[field_index].get(token, OOV_ID)


def discretize_numeric(x: float) -> int:
    """Bucketize a numeric value: floor((ln x)^2) above 2, otherwise 1."""
    if isinstance(x, str):
        try:
            x = float(x)
        except ValueError as exc:
            raise DataError(f"non-numeric token {x!r}") from exc
    if math.isnan(x):
        raise DataError("NaN numeric value")
    if x > 2.0:
        return int(math.floor(math.log(x) ** 2))
    return 1


def _field_token(record: RawRecord, fs: FieldSchema) -> str:
    tok = record.tokens[fs.index]
    if fs.kind == "numerical":
        if tok == "" or tok == MISSING_TOKEN:
            return MISSING_TOKEN
        return str(discretize_numeric(tok))
    return tok


def build_vocab(records: Sequence[RawRecord], schema: Sequence[FieldSchema],
                min_freq: int = 10) -> Vocabulary:
    """Count post-quantization tokens per field and keep those seen at least
    `min_freq` times. Kept tokens get IDs in first-occurrence order; the rest
    map to the per-field OOV bucket."""
    if not records:
        raise DataError("cannot build a vocabulary from zero records")
    counts: list[dict[str, int]] = [{} for _ in schema]
    order: list[list[str]] = [[] for _ in schema]
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


def quantize(record: RawRecord, schema: Sequence[FieldSchema], vocab: Vocabulary) -> Instance:
    """Map one raw record to per-field category IDs. Unseen tokens go to OOV."""
    if len(record.tokens) != len(schema):
        raise DataError(f"record arity {len(record.tokens)} != schema arity {len(schema)}")
    ids = tuple(vocab.id_of(fs.index, _field_token(record, fs)) for fs in schema)
    return Instance(label=record.label, x=ids)


@dataclass
class Dataset:
    """A quantized split held as dense arrays for batching."""

    x: np.ndarray  # (n, N) int64 category IDs
    y: np.ndarray  # (n,) float64 labels in {0, 1}

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_fields(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_instances(cls, instances: Sequence[Instance]) -> "Dataset":
        if not instances:
            raise DataError("empty instance list")
        x = np.array([inst.x for inst in instances], dtype=np.int64)
        y = np.array([inst.label for inst in instances], dtype=np.float64)
        return cls(x=x, y=y)


def quantize_all(records: Sequence[RawRecord], schema, vocab) -> Dataset:
    return Dataset.from_instances([quantize(r, schema, vocab) for r in records])


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n < 10:
        raise DataError(f"need at least 10 items to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def split_dataset(items: Sequence, seed: int):
    """Disjoint, exhaustive 8:1:1 random split, deterministic per seed."""
    tr, va, te = split_indices(len(items), seed)
    pick = lambda idx: [items[i] for i in idx]
    return pick(tr), pick(va), pick(te)


@dataclass(frozen=True)
class SyntheticSpec:
    n_fields: int = 16
    n_informative: int = 8
    vocab_size: int = 50
    n_records: int = 200_000
    teacher_seed: int = 7
    logit_scale: float = 1.0  # std-dev of each informative category effect

    def __post_init__(self):
        if self.n_informative > self.n_fields:
            raise DataError("n_informative exceeds n_fields")
        if self.vocab_size < 2:
            raise DataError("vocab_size must be at least 2")


@dataclass
class SyntheticData:
    records: list[RawRecord]
    schema: list[FieldSchema]
    informative_fields: list[int]
    teacher_logits: np.ndarray


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Planted-signal generator.

    Labels are Bernoulli(sigmoid(teacher logit)); the teacher logit is a fixed
    random linear function of one-hot encodings of the informative fields
    only. Category effects are signed magnitudes bounded away from zero
    (uniform on +/-[0.5, 1.5] times logit_scale), so every informative field
    carries signal for every instance while noise fields carry exactly none.
    Noise fields are drawn independently of the label. Deterministic per
    teacher_seed.
    """
    rng = np.random.default_rng(spec.teacher_seed)
    informative = sorted(rng.choice(spec.n_fields, size=spec.n_informative, replace=False).tolist())
    effects = {}
    for n in informative:
        magnitude = rng.uniform(0.5 * spec.logit_scale, 1.5 * spec.logit_scale,
                                size=spec.vocab_size)
        sign = rng.choice([-1.0, 1.0], size=spec.vocab_size)
        effects[n] = sign * magnitude
    x = rng.integers(0, spec.vocab_size, size=(spec.n_records, spec.n_fields))
    logits = np.zeros(spec.n_records)
    for n in informative:
        logits += effects[n][x[:, n]]
    probs = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.random(spec.n_records) < probs).astype(int)

    schema = [FieldSchema(name=f"f{n:02d}", kind="categorical", index=n)
              for n in range(spec.n_fields)]
    records = [RawRecord(label=int(labels[i]), tokens=tuple(str(v) for v in x[i]))
               for i in range(spec.n_records)]
    return SyntheticData(records=records, schema=schema,
                         informative_fields=informative, teacher_logits=logits)


# ---------------------------------------------------------------------------
# file formats

def schema_to_json(schema: Sequence[FieldSchema]) -> str:
    return json.dumps({"fields": [{"name": fs.name, "kind": fs.kind} for fs in schema]},
                      sort_keys=True)


def schema_from_json(text: str) -> list[FieldSchema]:
    obj = json.loads(text)
    return [FieldSchema(name=f["name"], kind=f["kind"], index=i)
            for i, f in enumerate(obj["fields"])]


def write_format_b(records: Iterable[RawRecord], schema: Sequence[FieldSchema],
                   data_path: Path, schema_path: Path) -> None:
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [fs.name for fs in schema])
        for rec in records:
            writer.writerow([rec.label] + list(rec.tokens))
    Path(schema_path).write_text(schema_to_json(schema) + "\n")


def read_format_b(data_path: Path, schema_path: Path) -> tuple[list[RawRecord], list[FieldSchema]]:
    schema = schema_from_json(Path(schema_path).read_text())
    records = []
    with open(data_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "label":
            raise DataError(f"{data_path}: expected a header starting with 'label'")
        if len(header) - 1 != len(schema):
            raise DataError(f"{data_path}: {len(header) - 1} columns, schema has {len(schema)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(schema) + 1:
                raise DataError(f"{data_path}:{lineno}: bad column count {len(row)}")
            try:
                label = int(row[0])
            except ValueError as exc:
                raise DataError(f"{data_path}:{lineno}: bad label {row[0]!r}") from exc
            if label not in (0, 1):
                raise DataError(f"{data_path}:{lineno}: label must be 0 or 1")
            records.append(RawRecord(label=label, tokens=tuple(row[1:])))
    if not records:
        raise DataError(f"{data_path}: no records")
    return records, schema


CRITEO_NUMERIC = 13
CRITEO_CATEGORICAL = 26


def criteo_schema() -> list[FieldSchema]:
    fields = [FieldSchema(name=f"I{i + 1}", kind="numerical", index=i)
              for i in range(CRITEO_NUMERIC)]
    fields += [FieldSchema(name=f"C{i + 1}", kind="categorical", index=CRITEO_NUMERIC + i)
               for i in range(CRITEO_CATEGORICAL)]
    return fields


def read_format_a(data_path: Path) -> tuple[list[RawRecord], list[FieldSchema]]:
    """Tab-separated: label, 13 numeric, 26 categorical. Empty field = missing."""
    schema = criteo_schema()
    n_cols = 1 + CRITEO_NUMERIC + CRITEO_CATEGORICAL
    records = []
    with open(data_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != n_cols:
                raise DataError(f"{data_path}:{lineno}: {len(parts)} columns, expected {n_cols}")
            try:
                label = int(parts[0])
            except ValueError as exc:
                raise DataError(f"{data_path}:{lineno}: bad label {parts[0]!r}") from exc
            if label not in (0, 1):
                raise DataError(f"{data_path}:{lineno}: label must be 0 or 1")
            records.append(RawRecord(label=label, tokens=tuple(parts[1:])))
    if not records:
        raise DataError(f"{data_path}: no records")
    return records, schema
