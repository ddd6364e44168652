from fractions import Fraction

import numpy as np
import pytest

from aefs.embedding import (
    EmbeddingSet,
    activation_averages,
    delta_el,
    delta_pae,
    full_param_count,
)
from oracles import ActivationLedger, compose_activated_params, embed_per_row, \
    record_batch_activation, tables

def build_set(vocab_sizes, dim, seed=0):
    return EmbeddingSet(vocab_sizes, dim, np.random.default_rng(seed))


class TestEmbed:
    def test_one_hot_rows_round_trip(self):
        es = build_set([4, 4], dim=4)
        for t in tables(es):
            t.data[:] = np.eye(4)
        out = es.embed(np.array([[2, 0], [1, 3]]))
        np.testing.assert_array_equal(out.data[0, 0], [0, 0, 1, 0])
        np.testing.assert_array_equal(out.data[1, 1], [0, 0, 0, 1])

    def test_lookup_counting(self):
        es = build_set([5, 5, 5], dim=2)
        es.embed(np.array([[0, 1, 2]]))
        assert [t.lookup_count for t in tables(es)] == [1, 1, 1]
        assert es.lookup_counts.sum() == 3

    def test_gradient_sparsity_across_tables(self):
        es = build_set([5, 5, 5], dim=2)
        x = np.array([[1, 2, 3], [4, 0, 1]])
        e = es.embed(x)
        # loss touches only field 2 (index 1)
        loss = (e * np.array([0.0, 1.0, 0.0])[None, :, None]).sum()
        loss.backward()
        assert tables(es)[0].grad is None or not tables(es)[0].grad.any()
        assert tables(es)[2].grad is None or not tables(es)[2].grad.any()
        assert tables(es)[1].grad.any()

    def test_gradient_sparsity_within_table(self):
        es = build_set([6], dim=3)
        e = es.embed(np.array([[2], [2], [4]]))
        e.sum().backward()
        g = tables(es)[0].grad
        touched = {2, 4}
        for row in range(6):
            assert g[row].any() == (row in touched)
        np.testing.assert_allclose(g[2], 2.0)  # appears twice in the batch

    def test_out_of_range_id(self):
        es = build_set([3], dim=2)
        with pytest.raises(IndexError):
            es.embed(np.array([[3]]))

    @pytest.mark.parametrize("ids", [[[3, 0]], [[-1, 0]], [[0, 5]], [[0, -4]]])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("fields", [slice(None), np.array([0, 1])])
    def test_negative_or_too_large_id_rejected(self, ids, dtype, fields):
        es = build_set([3, 5], dim=2)
        with pytest.raises(IndexError, match="category id out of range"):
            es.embed(np.array(ids, dtype=dtype), fields)
        assert es.lookup_counts.sum() == 0

    def test_fixed_columns_match_per_row_selection(self):
        # a column list is the same lookup as selecting those fields in
        # every row: values, counts and the gradient, bit for bit
        fast, per_row = (build_set([7, 5, 9, 4], dim=3, seed=4) for _ in range(2))
        x = np.array([[1, 2, 3, 0], [6, 4, 8, 3], [1, 0, 0, 2]])
        upstream = np.random.default_rng(5).normal(size=(3, 2, 3))
        a = fast.embed(x, np.array([1, 3]))
        b = embed_per_row(per_row, x, np.tile([1, 3], (3, 1)))
        (a * upstream).sum().backward()
        (b * upstream).sum().backward()
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(fast.lookup_counts, [0, 3, 0, 3])
        np.testing.assert_array_equal(fast.lookup_counts, per_row.lookup_counts)
        np.testing.assert_array_equal(fast.weight.grad.dense(), per_row.weight.grad.dense())
        with pytest.raises(IndexError):
            fast.embed(np.array([[1, 5, 3, 0]]), np.array([1, 3]))  # 5 is out of field 1


class TestEmbedSelected:
    """The selected fields of each row, read through `rows` and a `lookup`
    with per-row fields, as `aefs_forward` reads the main set."""

    def test_all_fields_equals_embed(self):
        es = build_set([7, 5, 9], dim=3, seed=4)
        x = np.array([[1, 2, 3], [0, 4, 8]])
        full = es.embed(x)
        idx = np.tile(np.arange(3), (2, 1))
        sel = embed_per_row(es, x, idx)
        np.testing.assert_array_equal(sel.data, full.data)

    def test_empty_selection(self):
        es = build_set([4, 4], dim=2)
        out = embed_per_row(es, np.array([[1, 2]]), np.zeros((1, 0), dtype=int))
        assert out.data.shape == (1, 0, 2)
        assert es.lookup_counts.sum() == 0

    def test_lookup_counts_match_k(self):
        es = build_set([4] * 22, dim=2)
        b = 5
        x = np.zeros((b, 22), dtype=int)
        idx = np.tile(np.arange(11), (b, 1))  # k = 22 * 0.5
        embed_per_row(es, x, idx)
        assert es.lookup_counts.sum() == b * 11

    def test_order_follows_indices(self):
        es = build_set([3, 3], dim=2, seed=1)
        x = np.array([[2, 1]])
        out = embed_per_row(es, x, np.array([[1, 0]]))
        np.testing.assert_array_equal(out.data[0, 0], tables(es)[1].data[1])
        np.testing.assert_array_equal(out.data[0, 1], tables(es)[0].data[2])

    @pytest.mark.parametrize("ids", [[[-1, 2]], [[1, 4]], [[1, -3]]])
    def test_out_of_range_id_of_a_selected_field_rejected(self, ids):
        es = build_set([4, 4], dim=2)
        with pytest.raises(IndexError, match="category id out of range"):
            embed_per_row(es, np.array(ids), np.array([[1, 0]]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_default_still_checks_ids(self, bad):
        # `rows` checks every id before any lookup is counted
        es = build_set([4, 4, 4], dim=2)
        x = np.array([[1, 2, 3], [0, bad, 1]])
        with pytest.raises(IndexError, match="category id out of range"):
            embed_per_row(es, x, np.array([[1, 2], [2, 1]]))
        assert es.lookup_counts.sum() == 0

    def test_unselected_tables_get_no_gradient(self):
        es = build_set([4, 4, 4], dim=2, seed=2)
        x = np.array([[1, 2, 3]])
        out = embed_per_row(es, x, np.array([[0, 2]]))
        out.sum().backward()
        assert tables(es)[1].grad is None or not tables(es)[1].grad.any()
        assert tables(es)[0].grad is not None and tables(es)[0].grad.any()


class TestParamCounts:
    def test_avazu_main(self):
        assert full_param_count([2_018_012], 32) == 64_576_384

    def test_criteo_main(self):
        assert full_param_count([1_086_810], 32) == 34_777_920

    def test_avazu_aux(self):
        assert full_param_count([2_018_012], 4) == 8_072_048

    def test_set_count_matches(self):
        es = build_set([100, 900], dim=10)
        assert es.param_count() == 10_000


class TestLedger:
    def test_all_fields_no_aux_equals_full(self):
        es = build_set([10, 20], dim=4)
        ledger = ActivationLedger()
        sel = np.tile(np.arange(2), (6, 1))
        record_batch_activation(ledger, sel, es)
        assert ledger.activated_params_avg() == es.param_count()
        assert ledger.lookups_avg() == 2

    def test_two_field_hand_case(self):
        main = build_set([100, 900], dim=10)
        aux = build_set([100, 900], dim=1, seed=1)
        ledger = ActivationLedger()
        sel = np.zeros((4, 1), dtype=int)  # always select the small field
        record_batch_activation(ledger, sel, main, aux)
        assert ledger.activated_params_avg() == 1000 * 1 + 100 * 10

    def test_uniform_random_half_matches_expectation(self):
        rng = np.random.default_rng(23)
        vocab = rng.integers(10, 200, size=16).tolist()
        main = build_set(vocab, dim=8)
        aux = build_set(vocab, dim=2, seed=5)
        ledger = ActivationLedger()
        for _ in range(400):
            sel = np.stack([rng.choice(16, size=8, replace=False) for _ in range(16)])
            record_batch_activation(ledger, sel, main, aux)
        expected = aux.param_count() + Fraction(main.param_count(), 2)
        observed = ledger.activated_params_avg()
        assert abs(float(observed) / float(expected) - 1.0) < 0.01

    def test_identity_activated_equals_aux_plus_selected_mean(self):
        rng = np.random.default_rng(3)
        vocab = [11, 23, 37, 5]
        main = build_set(vocab, dim=6)
        aux = build_set(vocab, dim=2, seed=9)
        ledger = ActivationLedger()
        sel = np.stack([rng.choice(4, size=2, replace=False) for _ in range(8)])
        record_batch_activation(ledger, sel, main, aux)
        sizes = np.array(vocab) * 6
        expected = Fraction(int(sizes[sel].sum()), 8) + aux.param_count()
        assert ledger.activated_params_avg() == expected

    def test_counter_averages_equal_reference_ledger(self):
        # the per-field lookup counts of a pass determine the averages
        rng = np.random.default_rng(7)
        vocab = [11, 23, 37, 5, 60]
        main = build_set(vocab, dim=6)
        aux = build_set(vocab, dim=2, seed=9)
        ledger = ActivationLedger()
        for b in (9, 4, 13):
            sel = np.stack([rng.choice(5, size=2, replace=False) for _ in range(b)])
            embed_per_row(main, np.zeros((b, 5), dtype=int), sel)
            record_batch_activation(ledger, sel, main, aux)
        activated, lookups = activation_averages(main.lookup_counts, 26, main, aux)
        assert activated == ledger.activated_params_avg()
        assert lookups == ledger.lookups_avg() == 2
        assert activation_averages(main.lookup_counts, 26, main, None)[0] == \
            ledger.activated_params_avg() - aux.param_count()

    def test_merge_is_commutative(self):
        a = ActivationLedger(1, Fraction(10), Fraction(2))
        b = ActivationLedger(3, Fraction(30), Fraction(9))
        assert a.merge(b) == b.merge(a)

    def test_empty_batch_rejected(self):
        es = build_set([4], dim=2)
        with pytest.raises(ValueError):
            record_batch_activation(ActivationLedger(), np.zeros((0, 1), dtype=int), es)

    def test_no_batches_no_average(self):
        with pytest.raises(ValueError):
            ActivationLedger().activated_params_avg()


class TestEfficiencyArithmetic:
    def test_reference_ratios(self):
        assert delta_pae(32, 4, Fraction(1, 2)) == Fraction(3, 8)  # 37.5%
        assert delta_pae(32, 2, 0.5) == Fraction(7, 16)  # 43.75%
        assert delta_pae(32, 6, 0.5) == Fraction(5, 16)  # 31.25%
        assert delta_pae(32, 16, 0.5) == 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            delta_pae(32, 64, 0.5)
        with pytest.raises(ValueError):
            delta_pae(32, 4, 0.0)

    def test_lookup_reduction(self):
        assert delta_el(Fraction(1, 2)) == Fraction(1, 2)
        assert delta_el(1) == 0
        assert delta_el(Fraction(1, 4)) == Fraction(3, 4)

    def test_decomposition_reproduces_reference_totals(self):
        total = compose_activated_params(Fraction("64.58e6"), Fraction("34.75e6"),
                                         Fraction("8.07e6"))
        assert total == Fraction("37.90e6")
        total_2 = compose_activated_params(Fraction("34.78e6"), Fraction("20.75e6"),
                                           Fraction("4.35e6"))
        assert total_2 == Fraction("18.38e6")
