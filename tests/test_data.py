import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aefs.data import (
    MISSING_TOKEN,
    OOV_ID,
    DataError,
    Dataset,
    FieldSchema,
    RawRecord,
    SyntheticSpec,
    build_vocab,
    discretize_numeric,
    generate_synthetic,
    quantize,
    quantize_all,
    read_format_a,
    read_format_b,
    split_dataset,
    split_indices,
    write_format_b,
)
from aefs.metrics import auc, welch_t_test
from oracles import vocab_from_json, vocab_to_json


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

    @given(st.floats(2.0001, 1e12), st.floats(2.0001, 1e12))
    @settings(max_examples=100, deadline=None)
    def test_monotone_above_two(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert discretize_numeric(lo) <= discretize_numeric(hi)


def two_field_schema():
    return [FieldSchema("cat", "categorical", 0), FieldSchema("num", "numerical", 1)]


class TestVocab:
    def test_frequency_threshold(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, ("rare",))] * 9 + [RawRecord(0, ("common",))] * 10
        vocab = build_vocab(records, schema, min_freq=10)
        assert vocab.id_of(0, "rare") == OOV_ID
        assert vocab.id_of(0, "common") != OOV_ID

    def test_min_freq_one_keeps_everything(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, (t,)) for t in "abcb"]
        vocab = build_vocab(records, schema, min_freq=1)
        assert {vocab.id_of(0, t) for t in "abc"} == {1, 2, 3}
        assert vocab.id_of(0, "never-seen") == OOV_ID

    def test_first_occurrence_order(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, (t,)) for t in ["z", "a", "z", "m", "a", "z", "m"]]
        vocab = build_vocab(records, schema, min_freq=2)
        assert vocab.id_of(0, "z") == 1
        assert vocab.id_of(0, "a") == 2
        assert vocab.id_of(0, "m") == 3

    def test_vocab_sizes_include_oov(self):
        schema = [FieldSchema("c", "categorical", 0)]
        records = [RawRecord(0, (t,)) for t in "aab"]
        vocab = build_vocab(records, schema, min_freq=1)
        assert vocab.vocab_size(0) == 3  # a, b, OOV

    def test_json_round_trip(self):
        schema = two_field_schema()
        records = [RawRecord(1, ("x", "5")), RawRecord(0, ("x", ""))]
        vocab = build_vocab(records, schema, min_freq=1)
        again = vocab_from_json(vocab_to_json(vocab))
        assert again.field_maps == vocab.field_maps
        assert again.min_freq == vocab.min_freq


class TestQuantize:
    def test_all_unseen_goes_to_oov(self):
        schema = two_field_schema()
        vocab = build_vocab([RawRecord(0, ("a", "5"))] * 3, schema, min_freq=1)
        inst = quantize(RawRecord(1, ("zzz", "9999")), schema, vocab)
        assert inst.x == (OOV_ID, OOV_ID)

    def test_hand_corpus(self):
        schema = two_field_schema()
        records = [
            RawRecord(1, ("a", "5")),
            RawRecord(0, ("a", "5")),
            RawRecord(1, ("b", "")),
        ]
        vocab = build_vocab(records, schema, min_freq=2)
        # "a" kept (x2), "b" dropped; bucket of 5 is floor(ln(5)^2) = 2, kept (x2);
        # the missing marker appears once so it falls to OOV
        assert quantize(records[0], schema, vocab).x == (1, 1)
        assert quantize(records[2], schema, vocab).x == (OOV_ID, OOV_ID)
        assert vocab.id_of(1, "2") == 1
        assert vocab.id_of(1, MISSING_TOKEN) == OOV_ID

    def test_arity_mismatch(self):
        schema = two_field_schema()
        vocab = build_vocab([RawRecord(0, ("a", "1"))], schema, min_freq=1)
        with pytest.raises(DataError):
            quantize(RawRecord(0, ("a",)), schema, vocab)

    @given(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 500)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_ids_always_in_range(self, raw):
        schema = two_field_schema()
        records = [RawRecord(0, (c, str(v))) for c, v in raw]
        vocab = build_vocab(records, schema, min_freq=2)
        for rec in records:
            inst = quantize(rec, schema, vocab)
            for n, val in enumerate(inst.x):
                assert 0 <= val < vocab.vocab_size(n)


class TestSplit:
    def test_ten_items(self):
        tr, va, te = split_dataset(list(range(10)), seed=0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        items = list(range(100))
        assert split_dataset(items, seed=5) == split_dataset(items, seed=5)

    def test_45000(self):
        tr, va, te = split_indices(45_000, seed=1)
        assert (len(tr), len(va), len(te)) == (36_000, 4_500, 4_500)

    def test_partition(self):
        items = list(range(173))
        tr, va, te = split_dataset(items, seed=9)
        assert sorted(tr + va + te) == items
        assert not (set(tr) & set(va)) and not (set(va) & set(te)) and not (set(tr) & set(te))

    def test_too_few(self):
        with pytest.raises(DataError):
            split_dataset(list(range(9)), seed=0)


@pytest.fixture(scope="module")
def default_synth():
    return generate_synthetic(SyntheticSpec())


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SyntheticSpec(n_records=500))
        b = generate_synthetic(SyntheticSpec(n_records=500))
        assert a.records == b.records
        assert a.informative_fields == b.informative_fields

    def test_teacher_auc_on_default_spec(self, default_synth):
        labels = [r.label for r in default_synth.records]
        assert auc(default_synth.teacher_logits, labels) > 0.75

    def test_zero_informative_is_unlearnable(self):
        sd = generate_synthetic(SyntheticSpec(n_informative=0, n_records=50_000))
        labels = [r.label for r in sd.records]
        score = [float(r.tokens[0]) for r in sd.records]
        assert abs(auc(score, labels) - 0.5) < 0.02

    def test_noise_field_independent_of_label(self, default_synth):
        sd = default_synth
        noise = next(n for n in range(16) if n not in sd.informative_fields)
        labels = np.array([r.label for r in sd.records], dtype=float)
        vals = np.array([int(r.tokens[noise]) for r in sd.records])
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
        write_format_b(sd.records, sd.schema, data_path, schema_path)
        records, schema = read_format_b(data_path, schema_path)
        assert records == sd.records
        assert [fs.name for fs in schema] == [fs.name for fs in sd.schema]

    def test_format_b_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not_label,f0\n0,a\n")
        s = tmp_path / "schema.json"
        s.write_text('{"fields": [{"name": "f0", "kind": "categorical"}]}')
        with pytest.raises(DataError):
            read_format_b(p, s)

    def test_format_a(self, tmp_path):
        line = "\t".join(["1"] + ["4"] * 13 + ["aa"] * 26)
        blank = "\t".join(["0"] + [""] * 13 + [""] * 26)
        p = tmp_path / "criteo.tsv"
        p.write_text(line + "\n" + blank + "\n")
        records, schema = read_format_a(p)
        assert len(records) == 2 and len(schema) == 39
        assert schema[0].kind == "numerical" and schema[13].kind == "categorical"
        vocab = build_vocab(records, schema, min_freq=1)
        inst = quantize(records[1], schema, vocab)
        assert len(inst.x) == 39

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
        vocab = build_vocab(records, schema, min_freq=1)
        ds = quantize_all(records, schema, vocab)
        assert ds.x.shape == (2, 2)
        assert ds.y.tolist() == [1.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_instances([])
