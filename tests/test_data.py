import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aefs.data
from aefs.data import (
    CHUNK_LINES,
    MISSING_TOKEN,
    OOV_ID,
    DataError,
    FieldSchema,
    SyntheticSpec,
    build_vocab,
    criteo_schema,
    discretize_numeric,
    generate_synthetic,
    quantize_all,
    read_format_a,
    read_format_b,
    schema_to_json,
    split_dataset,
    split_indices,
    write_format_b,
)
from aefs.metrics import auc, welch_t_test
from aefs.training import prepare
from oracles import RawRecord, encode_columns, encoded_synthetic, reference_prepare, \
    reference_read_format_a, reference_read_format_b, vocab_from_json, vocab_to_json


class TestDiscretize:
    def test_one_maps_to_one(self):
        assert discretize_numeric(1.0) == 1

    def test_two_is_boundary(self):
        assert discretize_numeric(2.0) == 1

    def test_hundred(self):
        assert discretize_numeric(100.0) == 21

    def test_non_numeric_token(self):
        with pytest.raises(DataError):
            discretize_numeric("abc")

    @pytest.mark.parametrize("token", ["inf", "+inf", "Infinity", "1e400", "nan", float("inf")])
    def test_nan_and_positive_infinity_are_data_errors(self, token):
        with pytest.raises(DataError, match=r"is NaN or \+inf") as info:
            discretize_numeric(token)
        assert repr(token) in str(info.value)

    @pytest.mark.parametrize("token", ["-inf", "-1e400", float("-inf")])
    def test_negative_infinity_is_bucket_one(self, token):
        assert discretize_numeric(token) == 1

    @given(st.floats(2.0001, 1e12), st.floats(2.0001, 1e12))
    @settings(max_examples=100, deadline=None)
    def test_monotone_above_two(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert discretize_numeric(lo) <= discretize_numeric(hi)


def two_field_schema():
    return [FieldSchema("cat", "categorical", 0), FieldSchema("num", "numerical", 1)]


def vocab_of(records, schema, min_freq):
    """The vocabulary of `records` taken whole, in order, as the training split."""
    return build_vocab(encode_columns(records, schema), np.arange(len(records)),
                       min_freq=min_freq)


def ids_of(records, schema, vocab):
    return quantize_all(encode_columns(records, schema), [np.arange(len(records))],
                        vocab)[0].x.tolist()


def id_of(vocab, field_index, token):
    return vocab.field_maps[field_index].get(token, OOV_ID)


class TestVocab:
    def test_frequency_threshold(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, ("rare",))] * 9 + [RawRecord(0, ("common",))] * 10
        vocab = vocab_of(records, schema, min_freq=10)
        assert id_of(vocab, 0, "rare") == OOV_ID
        assert id_of(vocab, 0, "common") != OOV_ID

    def test_min_freq_one_keeps_everything(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, (t,)) for t in "abcb"]
        vocab = vocab_of(records, schema, min_freq=1)
        assert {id_of(vocab, 0, t) for t in "abc"} == {1, 2, 3}
        assert id_of(vocab, 0, "never-seen") == OOV_ID

    def test_first_occurrence_order(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, (t,)) for t in ["z", "a", "z", "m", "a", "z", "m"]]
        vocab = vocab_of(records, schema, min_freq=2)
        assert id_of(vocab, 0, "z") == 1
        assert id_of(vocab, 0, "a") == 2
        assert id_of(vocab, 0, "m") == 3

    def test_vocab_sizes_include_oov(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, (t,)) for t in "aab"]
        vocab = vocab_of(records, schema, min_freq=1)
        assert vocab.vocab_sizes[0] == 3  # a, b, OOV

    def test_json_round_trip(self):
        schema = two_field_schema()
        records = [RawRecord(1, ("x", "5")), RawRecord(0, ("x", ""))]
        vocab = vocab_of(records, schema, min_freq=1)
        again = vocab_from_json(vocab_to_json(vocab))
        assert again.field_maps == vocab.field_maps
        assert again.min_freq == vocab.min_freq


class TestQuantize:
    def test_all_unseen_goes_to_oov(self):
        schema = two_field_schema()
        vocab = vocab_of([RawRecord(0, ("a", "5"))] * 3, schema, min_freq=1)
        assert ids_of([RawRecord(1, ("zzz", "9999"))], schema, vocab) == [[OOV_ID, OOV_ID]]

    def test_hand_corpus(self):
        schema = two_field_schema()
        records = [
            RawRecord(1, ("a", "5")),
            RawRecord(0, ("a", "5")),
            RawRecord(1, ("b", "")),
        ]
        vocab = vocab_of(records, schema, min_freq=2)
        # "a" kept (x2), "b" dropped; bucket of 5 is floor(ln(5)^2) = 2, kept (x2);
        # the missing marker appears once so it falls to OOV
        assert ids_of(records, schema, vocab) == [[1, 1], [1, 1], [OOV_ID, OOV_ID]]
        assert id_of(vocab, 1, "2") == 1
        assert id_of(vocab, 1, MISSING_TOKEN) == OOV_ID

    def test_arity_mismatch(self):
        schema = two_field_schema()
        records = [RawRecord(0, ("a", "1")), RawRecord(0, ("a",))]
        with pytest.raises(DataError, match="record 1 has 1 tokens, schema has 2"):
            encode_columns(records, schema)

    @given(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 500)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_ids_always_in_range(self, raw):
        schema = two_field_schema()
        records = [RawRecord(0, (c, str(v))) for c, v in raw]
        vocab = vocab_of(records, schema, min_freq=2)
        for row in ids_of(records, schema, vocab):
            for n, val in enumerate(row):
                assert 0 <= val < vocab.vocab_sizes[n]


def columns_of(items):
    """One categorical field; record i holds item i."""
    return encode_columns([RawRecord(i % 2, (str(i),)) for i in items],
                          [FieldSchema("c", "categorical", 0)])


class TestSplit:
    def test_ten_items(self):
        tr, va, te = split_dataset(columns_of(range(10)), seed=0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        a, b = (split_dataset(columns_of(range(100)), seed=5) for _ in range(2))
        for x, y in zip(a, b):
            assert x.tolist() == y.tolist()

    def test_45000(self):
        tr, va, te = split_indices(45_000, seed=1)
        assert (len(tr), len(va), len(te)) == (36_000, 4_500, 4_500)

    def test_partition(self):
        items = list(range(173))
        tr, va, te = (s.tolist() for s in split_dataset(columns_of(items), seed=9))
        assert sorted(tr + va + te) == items
        assert not (set(tr) & set(va)) and not (set(va) & set(te)) and not (set(tr) & set(te))

    def test_too_few(self):
        with pytest.raises(DataError):
            split_dataset(columns_of(range(9)), seed=0)


def tokens_of(columns, n):
    """Field n's token of every record."""
    return [columns.keys[n][c] for c in columns.codes[n]]


def column_bytes(columns):
    """Everything `Columns` holds, compared bit for bit."""
    return (columns.codes.dtype, columns.codes.shape, columns.codes.tobytes(),
            columns.labels.dtype, columns.labels.tobytes(), columns.keys)


@pytest.fixture(scope="module")
def default_synth():
    return generate_synthetic(SyntheticSpec())


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SyntheticSpec(n_records=500))
        b = generate_synthetic(SyntheticSpec(n_records=500))
        assert column_bytes(a.columns) == column_bytes(b.columns)
        assert a.informative_fields == b.informative_fields

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_fields=5, n_informative=2, vocab_size=3000, n_records=2 * CHUNK_LINES + 37,
                      teacher_seed=4),
        SyntheticSpec(n_fields=3, n_informative=1, vocab_size=2, n_records=11, teacher_seed=9),
    ], ids=["categories-first-seen-in-later-chunks", "one-short-chunk"])
    def test_columns_equal_the_tokens_through_the_encoder(self, spec):
        assert spec.n_records % CHUNK_LINES
        assert column_bytes(generate_synthetic(spec).columns) == \
            column_bytes(encoded_synthetic(spec))

    def test_teacher_auc_on_default_spec(self, default_synth):
        assert auc(default_synth.teacher_logits, default_synth.columns.labels) > 0.75

    def test_zero_informative_is_unlearnable(self):
        sd = generate_synthetic(SyntheticSpec(n_informative=0, n_records=50_000))
        score = [float(token) for token in tokens_of(sd.columns, 0)]
        assert abs(auc(score, sd.columns.labels) - 0.5) < 0.02

    def test_noise_field_independent_of_label(self, default_synth):
        sd = default_synth
        noise = next(n for n in range(16) if n not in sd.informative_fields)
        labels = sd.columns.labels
        vals = np.array([int(token) for token in tokens_of(sd.columns, noise)])
        g0 = labels[vals == 0]
        g1 = labels[vals == 1]
        assert welch_t_test(g0, g1) > 1e-3

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(n_fields=4, n_informative=5)


class TestFormats:
    def test_format_b_round_trip(self, tmp_path):
        sd = generate_synthetic(SyntheticSpec(n_fields=4, n_informative=2,
                                              vocab_size=5, n_records=50))
        data_path = tmp_path / "data.csv"
        schema_path = tmp_path / "schema.json"
        write_format_b(sd.columns, sd.schema, data_path, schema_path)
        columns, schema = read_format_b(data_path, schema_path)
        assert column_bytes(columns) == column_bytes(sd.columns)
        assert [fs.name for fs in schema] == [fs.name for fs in sd.schema]

    def test_format_b_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not_label,f0\n0,a\n")
        s = tmp_path / "schema.json"
        s.write_text('{"fields": [{"name": "f0", "kind": "categorical"}]}')
        with pytest.raises(DataError):
            read_format_b(p, s)

    def test_format_b_header_names_the_schema_fields_in_order(self, tmp_path):
        # a swapped pair would otherwise bucketize column b as numerical field a
        (tmp_path / "data.csv").write_text("label,b,a\n0,x,5\n")
        (tmp_path / "schema.json").write_text(schema_to_json(
            [FieldSchema("a", "numerical", 0), FieldSchema("b", "categorical", 1)]))
        with pytest.raises(DataError) as info:
            read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")
        assert str(info.value) == \
            f"{tmp_path / 'data.csv'}: header column 2 is 'b', schema field 0 is 'a'"

    def test_format_a(self, tmp_path):
        line = "\t".join(["1"] + ["4"] * 13 + ["aa"] * 26)
        blank = "\t".join(["0"] + [""] * 13 + [""] * 26)
        p = tmp_path / "criteo.tsv"
        p.write_text(line + "\n" + blank + "\n")
        columns, schema = read_format_a(p)
        assert columns.codes.shape == (39, 2) and len(schema) == 39
        assert schema[0].kind == "numerical" and schema[13].kind == "categorical"
        vocab = build_vocab(columns, np.arange(2), min_freq=1)
        (ds,) = quantize_all(columns, [np.arange(2)], vocab)
        assert ds.x.shape == (2, 39)

    def test_format_a_bad_columns(self, tmp_path):
        p = tmp_path / "short.tsv"
        p.write_text("1\t2\t3\n")
        with pytest.raises(DataError):
            read_format_a(p)

    def test_format_a_label_outside_0_1(self, tmp_path):
        good = "\t".join(["1"] + ["4"] * 13 + ["aa"] * 26)
        bad = "\t".join(["2"] + ["4"] * 13 + ["aa"] * 26)
        p = tmp_path / "labels.tsv"
        p.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataError, match=r"labels\.tsv:2: label must be 0 or 1"):
            read_format_a(p)


class TestDataset:
    def test_pack(self):
        schema = two_field_schema()
        records = [RawRecord(1, ("a", "5")), RawRecord(0, ("b", "7"))]
        vocab = vocab_of(records, schema, min_freq=1)
        (ds,) = quantize_all(encode_columns(records, schema), [np.arange(2)], vocab)
        assert ds.x.shape == (2, 2) and ds.x.dtype == np.int64 and ds.x.flags.c_contiguous
        assert ds.y.tolist() == [1.0, 0.0] and ds.y.dtype == np.float64

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_vocab(encode_columns([], two_field_schema()), np.arange(0))


NUMERIC_TOKENS = ["", MISSING_TOKEN, "0", "1", "2", "2.5", "3", "8", "20", "100", "-5", "1e6",
                  "-inf", "007"]
CATEGORICAL_TOKENS = ["", MISSING_TOKEN, "a", "b", "c", "7", "07", "é"]


@st.composite
def record_sets(draw):
    """Mixed schemas, missing markers, fields whose every token is distinct
    (all OOV from min_freq 2, unseen outside training), and tokens rare
    enough to appear only in the validation or test split."""
    kinds = draw(st.lists(st.sampled_from(["categorical", "numerical", "distinct"]),
                          min_size=1, max_size=5))
    n = draw(st.integers(10, 60))
    columns = []
    for n_field, kind in enumerate(kinds):
        if kind == "distinct":
            columns.append([f"u{n_field}-{i}" for i in range(n)])
        else:
            pool = NUMERIC_TOKENS if kind == "numerical" else CATEGORICAL_TOKENS
            columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    schema = [FieldSchema(f"f{i}", "numerical" if kind == "numerical" else "categorical", i)
              for i, kind in enumerate(kinds)]
    records = [RawRecord(label, tuple(tokens)) for label, tokens in zip(labels, zip(*columns))]
    return records, schema


class TestPrepareMatchesReference:
    @given(record_sets(), st.integers(-1, 5), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_vocabulary_and_split_bytes(self, record_set, min_freq, seed):
        records, schema = record_set
        data = prepare(encode_columns(records, schema), schema, seed=seed, min_freq=min_freq)
        vocab, *splits = reference_prepare(records, schema, seed, min_freq=min_freq)
        assert [list(m.items()) for m in data.vocab.field_maps] == \
            [list(m.items()) for m in vocab.field_maps]
        assert data.vocab.vocab_sizes == vocab.vocab_sizes
        for got, want in zip((data.train, data.val, data.test), splits):
            for a, b in ((got.x, want.x), (got.y, want.y)):
                assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True)
                assert a.tobytes() == b.tobytes()

    def test_tokens_outside_training_are_oov(self):
        schema = two_field_schema()
        records = [RawRecord(i % 2, (f"t{i}", str(i))) for i in range(40)]
        data = prepare(encode_columns(records, schema), schema, seed=0, min_freq=1)
        assert len(data.vocab.field_maps[0]) == len(data.train)
        assert (data.val.x[:, 0] == OOV_ID).all() and (data.test.x[:, 0] == OOV_ID).all()

    def test_bad_numeric_token_anywhere_is_a_data_error(self, tmp_path):
        rows = [f"{i % 2},a,{'1e400' if i == 13 else 5}\n" for i in range(20)]
        (tmp_path / "data.csv").write_text("label,cat,num\n" + "".join(rows))
        (tmp_path / "schema.json").write_text(schema_to_json(two_field_schema()))
        with pytest.raises(DataError, match=r"'1e400' is NaN or \+inf"):
            read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")


ONE_FIELD_SCHEMA = '{"fields": [{"name": "f0", "kind": "categorical"}]}'


class TestInputFaults:
    @pytest.mark.parametrize("text,match", [
        ("{", "invalid JSON"),
        ("{}", "missing key 'fields'"),
        ('{"fields": [{"kind": "categorical"}]}', "missing key 'name'"),
        ('{"fields": [{"name": "f0"}]}', "missing key 'kind'"),
        ('{"fields": 3}', "expected"),
        ('["f0"]', "expected"),
        ('{"fields": []}', "no fields"),
    ])
    def test_malformed_schema_names_the_file(self, tmp_path, text, match):
        (tmp_path / "data.csv").write_text("label,f0\n0,a\n")
        (tmp_path / "schema.json").write_text(text)
        with pytest.raises(DataError, match=match) as info:
            read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")
        assert str(info.value).startswith(f"{tmp_path / 'schema.json'}: ")

    def test_format_b_not_utf8_names_the_line(self, tmp_path):
        (tmp_path / "schema.json").write_text(ONE_FIELD_SCHEMA)
        (tmp_path / "data.csv").write_bytes(b"label,f0\n0,a\n1,\xe9t\xe9\n")
        with pytest.raises(DataError, match=r"data\.csv:3: not UTF-8 text$"):
            read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")

    def test_format_a_not_utf8_names_the_line(self, tmp_path):
        p = tmp_path / "criteo.tsv"
        p.write_bytes(b"\xff\xfe" + "\t".join(["1"] + ["4"] * 13 + ["aa"] * 26).encode() + b"\n")
        with pytest.raises(DataError, match=r"criteo\.tsv:1: not UTF-8 text$"):
            read_format_a(p)

    def test_schema_not_utf8(self, tmp_path):
        (tmp_path / "data.csv").write_text("label,f0\n0,a\n")
        (tmp_path / "schema.json").write_text(ONE_FIELD_SCHEMA.replace("f0", "\xff"),
                                              encoding="latin-1")
        with pytest.raises(DataError, match=r"schema\.json:1: not UTF-8 text$"):
            read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")


# Reader property: every table reads to the Columns of the per-record
# reference path, or to its error, whichever tokenizer the reader takes.
PLAIN_TOKENS = ["", "a", "b", "7", "07", "a b", " a", "é", "日本", MISSING_TOKEN,
                # keys of one word and of more: 8, 9 and 17 bytes, two 9-byte
                # tokens alike in their first 8, and a 2-byte character
                # across bytes 8 and 9
                "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghijklmnopq", "abcdefgé"]
NEEDS_QUOTING = ["a,b", 'q"t', '"', "l\nb", "cr\r", "x\r\ny", ","]
GOOD_NUMERIC = ["", MISSING_TOKEN, "0", "1", "2.5", "100", "-3", " 8", "1e6"]
BAD_NUMERIC = ["x", "1e400"]
ODD_LABELS = [" 1", "01", "+1", "2", "x", ""]
RARELY = st.integers(0, 4).map(lambda v: v == 4)  # most tables keep clear of each fault


@st.composite
def token_tables(draw, kinds, tokens):
    """(labels, one token list per field): mostly clean labels and numbers,
    with at times one odd label or one bad numeric token."""
    n = draw(st.integers(0, 14))
    labels = draw(st.lists(st.sampled_from(["0", "1"]), min_size=n, max_size=n))
    columns = [draw(st.lists(st.sampled_from(GOOD_NUMERIC if kind == "numerical" else tokens),
                             min_size=n, max_size=n)) for kind in kinds]
    if n and draw(RARELY):
        labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_LABELS))
    numeric = [n_field for n_field, kind in enumerate(kinds) if kind == "numerical"]
    if n and numeric and draw(RARELY):
        columns[draw(st.sampled_from(numeric))][draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from(BAD_NUMERIC))
    return labels, columns


def table_text(draw, header, labels, columns, sep, quote):
    """The table as file text: CRLF or LF, empty lines dropped in, with or
    without a final newline; `quote` writes rows through csv.writer."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [[label, *tokens] for label, tokens in zip(labels, zip(*columns))]
    if quote:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=eol).writerows(rows)
        body = buf.getvalue().split(eol)[:-1] if rows else []
    else:
        body = [sep.join(row) for row in rows]
    if body and draw(RARELY):
        body.insert(draw(st.integers(1, len(body))), "")
    lines = ([sep.join(header)] if header else []) + body
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def read_outcome(read):
    """What a read gives: its Columns' bytes, or its exception and text."""
    try:
        return column_bytes(read())
    except Exception as exc:  # the two paths must fail alike, whatever the fault
        return type(exc), str(exc)


class TestReadersMatchReference:
    @given(st.data(), st.lists(st.sampled_from(["categorical", "numerical"]),
                               min_size=1, max_size=4),
           st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_format_b(self, data, kinds, chunk):
        quoting = data.draw(st.booleans())
        labels, columns = data.draw(token_tables(
            kinds, PLAIN_TOKENS + (NEEDS_QUOTING if quoting else [])))
        schema = [FieldSchema(f"f{n}", kind, n) for n, kind in enumerate(kinds)]
        header = ["label"] + [fs.name for fs in schema]
        if data.draw(RARELY):
            header[data.draw(st.integers(0, len(header) - 1))] = "other"
        text = table_text(data.draw, header, labels, columns, ",", data.draw(st.booleans()))
        with tempfile.TemporaryDirectory() as tmp:
            data_path, schema_path = Path(tmp) / "data.csv", Path(tmp) / "schema.json"
            data_path.write_bytes(text.encode("utf-8"))
            schema_path.write_text(schema_to_json(schema))
            with mock.patch.object(aefs.data, "CHUNK_LINES", chunk):
                got = read_outcome(lambda: read_format_b(data_path, schema_path)[0])
            want = read_outcome(lambda: encode_columns(
                *reference_read_format_b(data_path, schema_path)))
        assert got == want

    @pytest.mark.parametrize("text", [
        "label,f0\n01,a\n1,b\n",      # int("01") is a label the row reader takes
        "label,f0\n0,a\n10,b\n",
        # a column too few, then one too many, or the reverse: the tokens
        # would line up as rows with labels 0 and 1
        "label,f0,f1\n0,a\n1,0,c,d\n",
        "label,f0\n0,a,1\n\n1,c\n",
        "label,f0\n0,a\n1,b",
    ])
    @pytest.mark.parametrize("chunk", [1, 2, None])
    def test_lines_the_split_path_leaves_to_the_row_reader(self, tmp_path, text, chunk):
        n_fields = text.split("\n")[0].count(",")
        (tmp_path / "schema.json").write_text(schema_to_json(
            [FieldSchema(f"f{n}", "categorical", n) for n in range(n_fields)]))
        (tmp_path / "data.csv").write_text(text)
        with mock.patch.object(aefs.data, "CHUNK_LINES", chunk or aefs.data.CHUNK_LINES):
            got = read_outcome(lambda: read_format_b(tmp_path / "data.csv",
                                                     tmp_path / "schema.json")[0])
        want = read_outcome(lambda: encode_columns(*reference_read_format_b(
            tmp_path / "data.csv", tmp_path / "schema.json")))
        assert got == want

    @pytest.mark.parametrize("length", [9, 10, 11])
    def test_field_over_the_csv_limit_fails_as_in_csv_reader(self, tmp_path, length):
        """A field csv.reader refuses is a DataError naming its file and
        line, where the reference lets csv's own error escape."""
        (tmp_path / "schema.json").write_text(ONE_FIELD_SCHEMA)
        (tmp_path / "data.csv").write_text("label,f0\n" + f"0,{'a' * length}\n" * 3)
        limit = csv.field_size_limit(10)
        try:
            got = read_outcome(lambda: read_format_b(tmp_path / "data.csv",
                                                     tmp_path / "schema.json")[0])
            want = read_outcome(lambda: encode_columns(*reference_read_format_b(
                tmp_path / "data.csv", tmp_path / "schema.json")))
        finally:
            csv.field_size_limit(limit)
        if length > 10:
            assert want == (csv.Error, "field larger than field limit (10)")
            assert got == (DataError, f"{tmp_path / 'data.csv'}:2: {want[1]}")
        else:
            assert got == want

    def test_header_field_over_the_csv_limit_names_line_1(self, tmp_path):
        (tmp_path / "schema.json").write_text(ONE_FIELD_SCHEMA)
        (tmp_path / "data.csv").write_text(f"label,{'f' * 11}\n0,a\n")
        limit = csv.field_size_limit(10)
        try:
            with pytest.raises(DataError, match=r"data\.csv:1: field larger than field limit"):
                read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")
        finally:
            csv.field_size_limit(limit)

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_format_a(self, data, chunk):
        schema = criteo_schema()
        labels, columns = data.draw(token_tables(
            [fs.kind for fs in schema], PLAIN_TOKENS + ["a,b", 'q"t', '"']))
        text = table_text(data.draw, None, labels, columns, "\t", False)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clicks.tsv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(aefs.data, "CHUNK_LINES", chunk):
                got = read_outcome(lambda: read_format_a(path)[0])
            want = read_outcome(lambda: encode_columns(*reference_read_format_a(path)))
        assert got == want


def first_occurrence_columns(fields):
    """One categorical field per token list, numbered by a dict."""
    codes, keys = [], []
    for tokens in fields:
        code_of = {}
        codes.append([code_of.setdefault(t, len(code_of)) for t in tokens])
        keys.append(list(code_of))
    return codes, keys


class TestNumbering:
    @pytest.mark.parametrize("tokens", [
        ["a", "a\0", "a", "a\0\0", "a\0"],
        ["a\0", "a"],
        ["abcdefg", "abcdefg\0", "abcdefgh", "abcdefgh\0", "abcdefgh\0\0"],
        ["", "\0", "\0\0", "", "\0"],
        ["x" * 9, "x" * 9 + "\0", "x" * 8 + "\0", "x" * 8],
        ["abcdefgh", "abcdefg", "abcdefgh", "abcdefg"],
        ["p" * 16, "p" * 15, "p" * 15, "p" * 16, "p" * 9],
        ["ÿ", "abcdefgÿ", "abcdefg", "ÿ", "abcdefgh", "abcdefgÿ", "Ã"],
        ["", "ÿ", "\0", ""],
    ])
    @pytest.mark.parametrize("chunk", [1, 2, 100])
    def test_tokens_that_differ_in_trailing_nul_bytes(self, tokens, chunk):
        """Tokens alike but for trailing NULs, tokens that fill their key
        exactly beside the same token one byte shorter, multi-byte
        characters across a word's edge and the empty token are told apart
        where the shorter one's 0xFF pad begins, in one chunk or across
        chunks; the row-by-row reader takes a quoted NUL on Python 3.11+."""
        schema = [FieldSchema("f0", "categorical", 0), FieldSchema("f1", "categorical", 1)]
        fields = [tokens, tokens[::-1]]
        enc = aefs.data._Encoder(schema)
        for lo in range(0, len(tokens), chunk):
            enc.add_tokens([0] * len(tokens[lo:lo + chunk]),
                           [field[lo:lo + chunk] for field in fields])
        columns = enc.finish()
        codes, keys = first_occurrence_columns(fields)
        assert columns.codes.tolist() == codes and columns.keys == keys

    def test_a_long_token_widens_no_other_key(self):
        """Keys are as wide as their own token, to the next power of two
        words, so one 100 kB token adds about 128 kB of keys, not that much
        per distinct token."""
        tokens = [f"t{i}" for i in range(1000)] + ["x" * 100_000] + ["t1", "x" * 100_000]
        enc = aefs.data._Encoder([FieldSchema("f0", "categorical", 0)])
        enc.add_tokens([0] * len(tokens), [tokens])
        codes, keys = first_occurrence_columns([tokens])
        assert enc.finish().codes.tolist() == codes and enc.finish().keys == keys
        tables = enc.fields[0].tables.values()
        assert sum(table.keys.nbytes for table in tables) < 140_000

    @pytest.mark.parametrize("chunk", [1, 2, 100])
    def test_newlines_beside_multibyte_characters(self, chunk):
        """Quoted format-B tokens can hold a newline; the unseen tokens of
        a chunk are then cut from the decoded text at character offsets."""
        tokens = ["é", "l\nb", "日本", "x", "l\nb", "", "\n", "abcdefgé\n", "é"]
        enc = aefs.data._Encoder([FieldSchema("f0", "categorical", 0)])
        for lo in range(0, len(tokens), chunk):
            enc.add_tokens([1] * len(tokens[lo:lo + chunk]), [tokens[lo:lo + chunk]])
        codes, keys = first_occurrence_columns([tokens])
        assert enc.finish().codes.tolist() == codes and enc.finish().keys == keys

    def test_format_a_with_nul_bytes(self, tmp_path):
        """Format A takes a NUL on its split path."""
        cats = ["a", "a\0", "", "\0", "abcdefgh", "abcdefgh\0", "abcdefgh\0\0\0"]
        lines = ["\t".join([str(i % 2)] + ["4"] * 13 + [cats[(i + n) % len(cats)]
                                                       for n in range(26)])
                 for i in range(20)]
        path = tmp_path / "clicks.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(aefs.data, "_read_rows", side_effect=AssertionError):
            for chunk in (1, 3, 8192):
                with mock.patch.object(aefs.data, "CHUNK_LINES", chunk):
                    got = read_format_a(path)[0]
                assert column_bytes(got) == column_bytes(encode_columns(
                    *reference_read_format_a(path)))


def generated_table(n_lines, n_fields, seed):
    """(labels, one token list per field): many distinct tokens of 0 to 20
    bytes, ASCII and not, so each field's table grows across chunks."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefghij0123") + ["é", "日", "ß"]
    pool = ["".join(rng.choice(alphabet, size=size)) for size in rng.integers(0, 21, 3000)]
    labels = rng.integers(0, 2, n_lines).astype(str).tolist()
    columns = [[pool[i] for i in rng.zipf(1.3, n_lines) % len(pool)] for _ in range(n_fields)]
    return labels, columns


class TestDefaultChunks:
    """Files longer than CHUNK_LINES at its own size, read on the split
    path alone and held to the per-record reference byte for byte."""

    def test_format_b(self, tmp_path):
        assert aefs.data.CHUNK_LINES < 20_000
        labels, columns = generated_table(20_000, 3, seed=1)
        columns.append([str(v) for v in np.random.default_rng(2).integers(-5, 10**6, 20_000)])
        schema = [FieldSchema(f"f{n}", "categorical", n) for n in range(3)]
        schema.append(FieldSchema("f3", "numerical", 3))
        rows = [",".join(row) for row in zip(labels, *columns)]
        data_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
        data_path.write_text("\n".join(["label,f0,f1,f2,f3"] + rows) + "\n", encoding="utf-8")
        schema_path.write_text(schema_to_json(schema))
        with mock.patch.object(aefs.data, "_read_rows", side_effect=AssertionError):
            got = read_format_b(data_path, schema_path)[0]
        want = encode_columns(*reference_read_format_b(data_path, schema_path))
        assert column_bytes(got) == column_bytes(want)
        assert max(map(len, got.keys[0])) == 20

    def test_format_a(self, tmp_path):
        labels, categorical = generated_table(20_000, 26, seed=3)
        numeric = np.random.default_rng(4).integers(0, 500, (13, 20_000)).astype(str).tolist()
        path = tmp_path / "clicks.tsv"
        path.write_text("".join("\t".join(row) + "\n"
                                for row in zip(labels, *numeric, *categorical)),
                        encoding="utf-8")
        with mock.patch.object(aefs.data, "_read_rows", side_effect=AssertionError):
            got = read_format_a(path)[0]
        assert column_bytes(got) == column_bytes(encode_columns(*reference_read_format_a(path)))


class TestSplitPathGuard:
    """A plain file of either format never reaches the row-by-row reader,
    which the benchmark's inputs would otherwise take unnoticed."""

    def test_format_b(self, tmp_path):
        sd = generate_synthetic(SyntheticSpec(n_fields=3, n_informative=1, n_records=50))
        write_format_b(sd.columns, sd.schema, tmp_path / "data.csv", tmp_path / "schema.json")
        with mock.patch.object(aefs.data, "_read_rows", side_effect=AssertionError):
            columns, _ = read_format_b(tmp_path / "data.csv", tmp_path / "schema.json")
        assert column_bytes(columns) == column_bytes(sd.columns)

    def test_format_a(self, tmp_path):
        line = "\t".join(["1"] + ["4"] * 13 + ["0a1b2c3d"] * 26)
        blank = "\t".join(["0"] + [""] * 39)
        (tmp_path / "clicks.tsv").write_text(f"{line}\n{blank}\n{line}")
        with mock.patch.object(aefs.data, "_read_rows", side_effect=AssertionError):
            columns, _ = read_format_a(tmp_path / "clicks.tsv")
        assert columns.codes.shape == (39, 3)
