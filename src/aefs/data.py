"""Reading, encoding, quantization, vocabularies, splits, synthetic data.

Two input formats are supported:

* format A: tab-separated click logs, first column the 0/1 label, then 13
  numeric fields and 26 categorical hex tokens; an empty field is missing.
* format B: comma-separated with a header row naming the fields, plus a JSON
  schema file declaring each field ``categorical`` or ``numerical``.

Every reader yields `Columns`: one encoder
numbers each field's distinct tokens chunk by chunk as they are read, so no
per-record object is ever built. It takes a chunk as one UTF-8 buffer with
each token's byte offset and length, packs each token into uint64 words
padded with 0xFF past its end, finds the chunk's distinct keys by sorting
them, and looks those up in sorted tables of the field's known keys carried
across chunks, one per key width; unseen keys take the next codes in order
of first occurrence. No UTF-8 byte is 0xFF, so within one width the words
alone tell any two tokens apart: both tokenizers must hand the encoder
strictly encoded UTF-8. Only the distinct tokens are decoded back to `str`.
Two tokenizers feed it:

* split: each chunk of `CHUNK_LINES` lines is encoded to UTF-8 once and cut
  into tokens at the bytes that hold the separator or a newline. Every
  format-A file, and every format-B file without a double quote, carriage
  return or NUL, is read this way.
* row by row: a format-B file with one of those characters needs the CSV
  quoting rules and is read by ``csv.reader``, whose rows are joined into
  one buffer per chunk. A file on which the split tokenizer meets a row it
  does not take (another column count, a label other than ``0`` or ``1``,
  a line that does not decode) is read again row by row from its start, so
  every fault is reported by the row-by-row reader, with its line number.

Numeric fields are bucketized with the standard log-square transform before
vocabulary mapping, once per distinct raw token. Rare tokens fall into a
per-field out-of-vocabulary ID.

The synthetic generator yields `Columns` too. It numbers its integer
categories directly, in the same first-occurrence order.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


@dataclass
class Vocabulary:
    """Per-field token-to-ID maps with a reserved OOV bucket.

    ID 0 of every field is the OOV bucket; kept tokens are numbered from 1
    in the order of their first occurrence in the training split, so
    construction is deterministic.
    """

    field_maps: list[dict[str, int]]
    min_freq: int

    @property
    def vocab_sizes(self) -> list[int]:
        return [len(fmap) + 1 for fmap in self.field_maps]

    @property
    def total_ids(self) -> int:
        return sum(self.vocab_sizes)


def discretize_numeric(x: float | str) -> int:
    """Bucketize a numeric value: floor((ln x)^2) above 2, otherwise 1."""
    try:
        value = float(x)
    except ValueError as exc:
        raise DataError(f"non-numeric token {x!r}") from exc
    if math.isnan(value) or value == math.inf:
        raise DataError(f"numeric token {x!r} is NaN or +inf")
    if value > 2.0:
        return int(math.floor(math.log(value) ** 2))
    return 1


@dataclass
class Columns:
    """Records encoded field by field.

    The distinct tokens of field n (numerics after bucketization) are
    numbered from 0: ``keys[n][c]`` is the token numbered c, and
    ``codes[n, i]`` the number of record i's token.
    """

    codes: np.ndarray  # (N, n) int64, one row per field
    labels: np.ndarray  # (n,) float64 labels in {0, 1}
    keys: list[list[str]]


# Lines tokenized at one go: bounds the arrays alive at once.
CHUNK_LINES = 8192

_NEWLINE = ord("\n")

# Pads that set every byte of a little-endian word from the m-th on to 0xFF,
# m = 0..8.
_BYTE_PADS = np.array([(1 << 64) - (1 << 8 * m) for m in range(9)], dtype=np.uint64)


def _token_words(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                 words: int) -> np.ndarray:
    """(T, words) uint64: the bytes of the tokens at the given spans of
    `buf`, packed little-endian, 0xFF past each token's end. The last 8
    bytes of `buf` lie past every span.

    The tokens must be UTF-8, which never holds the byte 0xFF: then two
    tokens of at most 8 * `words` bytes have equal words exactly when their
    bytes are equal, for the shorter one's first pad byte meets a byte of
    the longer one."""
    unaligned = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each offset
    offsets = np.arange(0, 8 * words, 8)
    out = unaligned[np.minimum(starts[:, None] + offsets, len(buf) - 8)]
    out |= _BYTE_PADS[np.clip(lengths[:, None] - offsets, 0, 8)]
    return out


def _sort_keys(words: np.ndarray) -> np.ndarray:
    """Each row of `words` as one key: its word if it has one, a plain
    uint64, else one void scalar, ordered and compared by its bytes."""
    if words.shape[1] == 1:
        return words[:, 0]
    return words.view(np.dtype((np.void, words.itemsize * words.shape[1])))[:, 0]


class _KeyTable:
    """The known keys of one field and one key width, sorted for lookup,
    with their codes.

    A key is a token's words (`_token_words`), as `_sort_keys` gives them.
    Padded with 0xFF, they tell any two UTF-8 tokens of one width apart, and
    no other input is safe: both producers, `_split_chunks` and
    `_Encoder.add_tokens`, hand the encoder strictly encoded UTF-8, and any
    new one must check that its bytes decode first."""

    def __init__(self, words: int):
        self.keys = _sort_keys(np.empty((0, words), np.uint64))
        self.codes = np.empty(0, np.int64)

    def group(self, words: np.ndarray):
        """The distinct keys among one chunk's tokens of this width: each
        token's group, each group's first token and its code (-1 for a key
        not known yet), and a function that enters the given groups' keys
        with the given codes."""
        keys = _sort_keys(words)
        order = np.argsort(keys)
        ordered = keys[order]
        starts_group = np.concatenate([[True], ordered[1:] != ordered[:-1]])
        group = np.flatnonzero(starts_group)
        distinct = ordered[group]
        at = np.searchsorted(self.keys, distinct)
        code = np.full(len(group), -1)
        if len(self.keys):
            near = np.minimum(at, len(self.keys) - 1)
            known = self.keys[near] == distinct
            code[known] = self.codes[near[known]]
        of_token = np.empty(len(order), np.int64)
        of_token[order] = np.cumsum(starts_group) - 1

        def enter(groups: np.ndarray, codes: np.ndarray) -> None:
            self.keys = np.insert(self.keys, at[groups], distinct[groups])
            self.codes = np.insert(self.codes, at[groups], codes)

        return of_token, np.minimum.reduceat(order, group), code, enter


class _FieldCodes:
    """One field's tokens numbered from 0 in order of first occurrence,
    across chunks. A token's key takes the fewest words, a power of two,
    that hold its bytes, so keys of each width have their own `_KeyTable`
    and a long token widens no other token's key."""

    def __init__(self):
        self.tables: dict[int, _KeyTable] = {}
        self.count = 0

    def number(self, buf: np.ndarray, starts: np.ndarray,
               lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of one chunk's tokens at the given spans of `buf`, and
        the tokens that first took each new code, in code order."""
        if lengths.max(initial=0) <= 8:  # every key one word wide, the usual case
            widths = [(0, slice(None))]
        else:
            log_words = np.frexp(np.maximum((lengths + 7) >> 3, 1) - 1)[1]  # ceil(log2(words))
            widths = [(log, np.flatnonzero(log_words == log))
                      for log in np.flatnonzero(np.bincount(log_words)).tolist()]
        index = np.arange(len(starts))
        classes, firsts = [], []
        for log, tokens in widths:
            if (table := self.tables.get(log)) is None:
                table = self.tables[log] = _KeyTable(1 << log)
            of_token, first, code, enter = table.group(
                _token_words(buf, starts[tokens], lengths[tokens], 1 << log))
            unseen = np.flatnonzero(code < 0)
            classes.append((tokens, of_token, code, unseen, enter))
            firsts.append(index[tokens][first[unseen]])
        firsts = np.concatenate(firsts)
        order = np.argsort(firsts)
        new = np.empty(len(firsts), np.int64)
        new[order] = np.arange(self.count, self.count + len(firsts))
        self.count += len(firsts)
        codes = np.empty(len(starts), np.int64)
        done = 0
        for tokens, of_token, code, unseen, enter in classes:
            code[unseen] = new[done:done + len(unseen)]
            done += len(unseen)
            enter(unseen, code[unseen])
            codes[tokens] = code[of_token]
        return codes, firsts[order]


def _decode(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The UTF-8 tokens at the given byte spans of `buf`, decoded at one go."""
    if not len(starts):
        return []
    stops = np.cumsum(lengths)
    data = buf[np.repeat(starts - stops + lengths, lengths) + np.arange(stops[-1])]
    if not (data == _NEWLINE).any():  # one split does it
        return np.insert(data, stops[:-1], _NEWLINE).tobytes().decode("utf-8").split("\n")
    text = data.tobytes().decode("utf-8")
    if len(text) != len(data):  # offsets in characters: count the bytes that start one
        stops = np.concatenate([[0], np.cumsum((data & 0xC0) != 0x80)])[stops]
    return list(map(text.__getitem__, map(slice, np.append(0, stops[:-1]).tolist(),
                                          stops.tolist())))


class _Encoder:
    """Columns built chunk by chunk, so no record is ever held whole: each
    field's tokens are numbered as they arrive, against the keys seen so far
    (`_FieldCodes`), and numeric fields are bucketized at the end, once per
    distinct raw token."""

    def __init__(self, schema: Sequence[FieldSchema]):
        self.schema = schema
        self.fields = [_FieldCodes() for _ in schema]
        self.chunks: list[list[np.ndarray]] = [[] for _ in schema]
        self.keys: list[list[str]] = [[] for _ in schema]
        self.labels: list[np.ndarray] = []

    def add(self, labels: np.ndarray, buf: np.ndarray, starts: np.ndarray,
            lengths: np.ndarray) -> None:
        """One chunk: its labels, and the UTF-8 tokens at byte offsets
        `starts[n]` of length `lengths[n]` in `buf` for schema field n, in
        record order. The last 8 bytes of `buf` lie past every token."""
        for field, chunks, keys, field_starts, field_lengths in zip(
                self.fields, self.chunks, self.keys, starts, lengths):
            codes, unseen = field.number(buf, field_starts, field_lengths)
            chunks.append(codes)
            keys += _decode(buf, field_starts[unseen], field_lengths[unseen])
        self.labels.append(np.asarray(labels, dtype=np.float64))

    def add_tokens(self, labels: Sequence[float], fields: Sequence[Sequence[str]]) -> None:
        """One chunk: its labels and, per schema field, its tokens in order,
        joined into one buffer for `add`."""
        flat = list(chain.from_iterable(fields))
        text = "".join(flat)
        sizes = map(len, flat) if text.isascii() else map(len, map(str.encode, flat))
        lengths = np.fromiter(sizes, np.int64, len(flat))
        buf = np.frombuffer(text.encode() + bytes(8), np.uint8)
        shape = (len(self.schema), len(labels))
        self.add(labels, buf, (np.cumsum(lengths) - lengths).reshape(shape),
                 lengths.reshape(shape))

    def finish(self) -> Columns:
        labels = np.concatenate([np.empty(0), *self.labels])
        codes = np.empty((len(self.schema), len(labels)), dtype=np.int64)
        keys = []
        for n, fs in enumerate(self.schema):
            np.concatenate([np.empty(0, np.int64), *self.chunks[n]], out=codes[n])
            field_keys = self.keys[n]
            if fs.kind == "numerical":
                bucket_of: dict[str, int] = {}
                bucket_codes = np.array([bucket_of.setdefault(
                    MISSING_TOKEN if raw in ("", MISSING_TOKEN) else str(discretize_numeric(raw)),
                    len(bucket_of)) for raw in field_keys], dtype=np.int64)
                codes[n] = bucket_codes[codes[n]]
                field_keys = list(bucket_of)
            keys.append(field_keys)
        return Columns(codes=codes, labels=labels, keys=keys)


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n < 10:
        raise DataError(f"need at least 10 items to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def split_dataset(columns: Columns, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of a disjoint, exhaustive 8:1:1 random split,
    deterministic per seed; each split lists its rows in shuffled order."""
    return split_indices(len(columns.labels), seed)


def build_vocab(columns: Columns, rows: np.ndarray, min_freq: int = 10) -> Vocabulary:
    """Keep the tokens seen at least `min_freq` times in `rows`, the
    training split, with IDs in the order of their first occurrence there;
    the rest map to the per-field OOV bucket."""
    if len(rows) == 0:
        raise DataError("cannot build a vocabulary from zero records")
    field_maps = []
    for field_codes, keys in zip(columns.codes, columns.keys):
        codes = field_codes[rows]
        counts = np.bincount(codes, minlength=len(keys))
        first = np.full(len(keys), len(codes))
        np.minimum.at(first, codes, np.arange(len(codes)))
        kept = np.flatnonzero(counts >= max(min_freq, 1))  # only tokens `rows` has
        by_first = kept[np.argsort(first[kept])]
        field_maps.append({keys[c]: i for i, c in enumerate(by_first.tolist(), start=1)})
    return Vocabulary(field_maps=field_maps, min_freq=min_freq)


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


def quantize_all(columns: Columns, splits: Sequence[np.ndarray],
                 vocab: Vocabulary) -> list[Dataset]:
    """The rows of each split as vocabulary IDs, OOV for every token the
    vocabulary does not keep."""
    tables = [np.fromiter(map(fmap.get, keys, repeat(OOV_ID)), np.int64, len(keys))
              for fmap, keys in zip(vocab.field_maps, columns.keys)]
    return [Dataset(x=np.stack([table[codes[rows]] for table, codes in zip(tables, columns.codes)],
                               axis=1),
                    y=columns.labels[rows])
            for rows in splits]


@dataclass(frozen=True)
class SyntheticSpec:
    n_fields: int = 16
    n_informative: int = 8
    vocab_size: int = 50
    n_records: int = 200_000
    teacher_seed: int = 7
    logit_scale: float = 1.0  # std-dev of each informative category effect

    def __post_init__(self):
        if self.n_fields < 1:
            raise DataError(f"n_fields must be at least 1, got {self.n_fields}")
        if not 0 <= self.n_informative <= self.n_fields:
            raise DataError(f"n_informative must be in [0, n_fields], got {self.n_informative}")
        if self.n_records < 0:
            raise DataError(f"n_records must be nonnegative, got {self.n_records}")
        if self.teacher_seed < 0:
            raise DataError(f"teacher_seed must be nonnegative, got {self.teacher_seed}")
        if not 2 <= self.vocab_size <= np.iinfo(np.int64).max:
            raise DataError(f"vocab_size must be in [2, 2**63 - 1], got {self.vocab_size}")


@dataclass
class SyntheticData:
    columns: Columns
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
    teacher_seed. A record's token in a field is its category, in decimal.
    """
    # numpy refuses an array of more bytes than an address can count with a
    # ValueError; such a size raises MemoryError here, as one it cannot get
    largest = np.iinfo(np.intp).max // 8
    if spec.n_informative and spec.vocab_size > largest:
        raise MemoryError(f"{spec.vocab_size} teacher effects per field cannot be allocated")
    if spec.n_records * spec.n_fields > largest:
        raise MemoryError(f"{spec.n_records} x {spec.n_fields} ids cannot be allocated")
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
    # each field's categories numbered in order of first occurrence, as a
    # reader numbers their tokens
    codes = np.empty((spec.n_fields, spec.n_records), dtype=np.int64)
    keys = []
    for column, field_codes in zip(x.T, codes):
        values, first, inverse = np.unique(column, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        field_codes[:] = rank[inverse]
        keys.append([str(v) for v in values[order].tolist()])
    return SyntheticData(columns=Columns(codes=codes, labels=labels.astype(np.float64), keys=keys),
                         schema=schema, informative_fields=informative, teacher_logits=logits)


# ---------------------------------------------------------------------------
# file formats

def schema_to_json(schema: Sequence[FieldSchema]) -> str:
    return json.dumps({"fields": [{"name": fs.name, "kind": fs.kind} for fs in schema]},
                      sort_keys=True)


def schema_from_json(text: str) -> list[FieldSchema]:
    """Parse ``{"fields": [{"name": ..., "kind": ...}, ...]}``, at least
    one field; anything else is a DataError."""
    try:
        fields = json.loads(text)["fields"]
        schema = [FieldSchema(name=f["name"], kind=f["kind"], index=i)
                  for i, f in enumerate(fields)]
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise DataError('expected {"fields": [{"name": ..., "kind": ...}, ...]}') from exc
    if not schema:
        raise DataError("schema has no fields")
    return schema


def _not_utf8(path: Path) -> DataError:
    """The error for a file that is not UTF-8 text, naming its first such line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return DataError(f"{path}:{lineno}: not UTF-8 text")
    return DataError(f"{path}: not UTF-8 text")


class _Unsplittable(Exception):
    """A chunk the split tokenizer might read otherwise than the row-by-row
    reader does, or on which that reader alone can name the fault."""


def _split_chunks(enc: _Encoder, lines: Iterator[str], sep: str, special: str,
                  longest: int) -> None:
    """Feed `enc` the records on `lines`, CHUNK_LINES at a time, each chunk
    encoded to UTF-8 once and cut into tokens where its bytes hold `sep` or
    a newline.

    Raises _Unsplittable on a chunk with a line of another separator count,
    a line longer than `longest` characters, a character in `special`, or a
    label other than "0" and "1"."""
    width = len(enc.schema) + 1
    sep, special = ord(sep), special.encode()
    while chunk := list(islice(lines, CHUNK_LINES)):
        text = "".join(chunk).encode()
        if any(c in text for c in special):
            raise _Unsplittable
        buf = np.frombuffer(text + bytes(8), np.uint8)  # 8 zero bytes past the end for packing
        body = buf[:len(text)]
        newline = body == _NEWLINE
        line_ends = np.flatnonzero(newline)  # each line ends at its one newline, or the text's end
        ends = np.flatnonzero(newline | (body == sep))
        if not text.endswith(b"\n"):
            line_ends, ends = np.append(line_ends, len(text)), np.append(ends, len(text))
        if len(ends) != len(chunk) * width or not np.array_equal(ends[width - 1::width],
                                                                line_ends):
            raise _Unsplittable
        line_stops = np.minimum(line_ends + 1, len(text))
        if longest < len(text) and np.diff(line_stops, prepend=0).max() > longest:
            chars = np.concatenate([[0], np.cumsum((body & 0xC0) != 0x80)])[line_stops]
            if np.diff(chars, prepend=0).max() > longest:
                raise _Unsplittable
        starts = np.concatenate([[0], ends[:-1] + 1]).reshape(len(chunk), width)
        lengths = ends.reshape(len(chunk), width) - starts
        label = body[starts[:, 0]]
        if (lengths[:, 0] != 1).any() or ((label != ord("0")) & (label != ord("1"))).any():
            raise _Unsplittable
        enc.add(label == ord("1"), buf, np.ascontiguousarray(starts[:, 1:].T),
                np.ascontiguousarray(lengths[:, 1:].T))


def _read_rows(enc: _Encoder, rows: Iterable[tuple[int, list[str]]], path: Path,
               count_error: str) -> None:
    """Feed `enc` the (line number, tokens) rows, checking each in turn: its
    column count (`count_error` formats the count found), then its label."""
    n_cols = len(enc.schema) + 1
    labels, chunk = [], []
    for lineno, row in rows:
        if len(row) != n_cols:
            raise DataError(f"{path}:{lineno}: " + count_error.format(len(row)))
        try:
            label = int(row[0])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad label {row[0]!r}") from exc
        if label not in (0, 1):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1")
        labels.append(label)
        chunk.append(row)
        if len(chunk) == CHUNK_LINES:
            enc.add_tokens(labels, list(zip(*chunk))[1:])
            labels, chunk = [], []
    if chunk:
        enc.add_tokens(labels, list(zip(*chunk))[1:])


def _read_columns(path: Path, schema: Sequence[FieldSchema],
                  read: Callable[[_Encoder, bool], None]) -> Columns:
    """The columns of the data file at `path`. `read(enc, split)` feeds
    `enc` its records, split-tokenized if `split`, else row by row. A file
    the split tokenizer rejects or cannot decode is read again row by row,
    so every fault is reported by the row-by-row reader, with its line."""
    try:
        try:
            read(enc := _Encoder(schema), True)
        except (_Unsplittable, UnicodeDecodeError):
            read(enc := _Encoder(schema), False)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    if not enc.labels:
        raise DataError(f"{path}: no records")
    return enc.finish()


def write_format_b(columns: Columns, schema: Sequence[FieldSchema],
                   data_path: Path, schema_path: Path) -> None:
    """Write `columns` in format B. A categorical field is written as the
    tokens it was read from, a numerical field as its buckets."""
    fields = [np.array(keys, dtype=object)[codes].tolist()
              for keys, codes in zip(columns.keys, columns.codes)]
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [fs.name for fs in schema])
        writer.writerows(zip(columns.labels.astype(np.int64).tolist(), *fields))
    Path(schema_path).write_text(schema_to_json(schema) + "\n", encoding="utf-8")


def read_format_b(data_path: Path, schema_path: Path) -> tuple[Columns, list[FieldSchema]]:
    """The columns of a format-B file and its schema. The header must name
    the schema's fields in order, after "label"."""
    try:
        schema = schema_from_json(Path(schema_path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(schema_path) from exc
    except DataError as exc:
        raise DataError(f"{schema_path}: {exc}") from exc

    def read(enc, split):
        with open(data_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if not header or header[0] != "label":
                    raise DataError(f"{data_path}: expected a header starting with 'label'")
                if len(header) - 1 != len(schema):
                    raise DataError(f"{data_path}: {len(header) - 1} columns, "
                                    f"schema has {len(schema)}")
                for n, (name, fs) in enumerate(zip(header[1:], schema)):
                    if name != fs.name:
                        raise DataError(f"{data_path}: header column {n + 2} is {name!r}, "
                                        f"schema field {n} is {fs.name!r}")
                if split:  # csv.reader has taken the header's lines alone from `fh`
                    _split_chunks(enc, fh, ",", '"\r\0', csv.field_size_limit())
                else:
                    _read_rows(enc, enumerate(reader, start=2), data_path,
                               "bad column count {}")
            except csv.Error as exc:  # a field over csv.field_size_limit(), say
                raise DataError(f"{data_path}:{reader.line_num}: {exc}") from exc

    return _read_columns(data_path, schema, read), schema


CRITEO_NUMERIC = 13
CRITEO_CATEGORICAL = 26


def criteo_schema() -> list[FieldSchema]:
    fields = [FieldSchema(name=f"I{i + 1}", kind="numerical", index=i)
              for i in range(CRITEO_NUMERIC)]
    fields += [FieldSchema(name=f"C{i + 1}", kind="categorical", index=CRITEO_NUMERIC + i)
               for i in range(CRITEO_CATEGORICAL)]
    return fields


def read_format_a(data_path: Path) -> tuple[Columns, list[FieldSchema]]:
    """Tab-separated: label, 13 numeric, 26 categorical. Empty field = missing."""
    schema = criteo_schema()
    count_error = f"{{}} columns, expected {len(schema) + 1}"

    def read(enc, split):
        with open(data_path, encoding="utf-8") as fh:
            if split:
                _split_chunks(enc, fh, "\t", "", sys.maxsize)
            else:
                _read_rows(enc, ((lineno, line.rstrip("\n").split("\t"))
                                 for lineno, line in enumerate(fh, start=1)),
                           data_path, count_error)

    return _read_columns(data_path, schema, read), schema
