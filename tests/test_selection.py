import numpy as np
import pytest

import aefs.embedding
import aefs.numerics
from hypothesis import given, settings
from hypothesis import strategies as st

from aefs.embedding import SelectionIndexError
from aefs.numerics import DimensionError, Linear, RowGrad, Tensor, repeats_in_rows
from aefs.predictors import bce
from aefs.selection import (
    DualModel,
    FixedSubsetModel,
    LateSelectionModel,
    aefs_forward,
    embedding_alignment_loss,
    k_for,
    k_max_indices_batch,
    prediction_alignment_loss,
    scale_embeddings,
)
from oracles import DegenerateSelectionError, PlainModel, SelectionResult, \
    composed_embedding_alignment_loss, grad_check, k_max_indices, l1_normalize_selected, \
    same_bits, tables

VOCAB6 = [5, 7, 4, 6, 5, 8]


def make_pair(vocab=VOCAB6, d1=6, d2=2, k=3, seed=0, backbone="mlp"):
    return DualModel(vocab, d1=d1, d2=d2, k=k, backbone_main=backbone,
                     backbone_aux=backbone, hidden_dims=(4,), n_cross_layers=2,
                     rng=np.random.default_rng(seed))


class TestKMax:
    def test_basic(self):
        np.testing.assert_array_equal(k_max_indices([0.1, 0.4, 0.2, 0.3], 2), [1, 3])

    def test_tie_break_lower_index(self):
        np.testing.assert_array_equal(k_max_indices([0.25, 0.25, 0.25, 0.25], 2), [0, 1])

    def test_rate_half_of_22(self):
        scores = np.random.default_rng(0).random(22)
        k = k_for(22, 0.5)
        assert k == 11
        assert len(k_max_indices(scores, k)) == 11

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            k_max_indices([0.5, 0.5], 3)
        with pytest.raises(ValueError):
            k_max_indices([0.5, 0.5], 0)

    def test_k_for_floors_with_minimum_one(self):
        assert k_for(7, 0.5) == 3
        assert k_for(3, 0.1) == 1
        assert k_for(16, 1.0) == 16

    @given(st.lists(st.floats(0.001, 1.0), min_size=3, max_size=12),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_increasing_transform(self, raw, k):
        s = np.round(np.asarray(raw), 5)
        k = min(k, len(s))
        np.testing.assert_array_equal(k_max_indices(s, k), k_max_indices(s * 3.0 + 2.0, k))

    def test_batch_matches_single(self):
        s = np.random.default_rng(1).random((16, 9))
        batch = k_max_indices_batch(s, 4)
        for i in range(16):
            np.testing.assert_array_equal(batch[i], k_max_indices(s[i], 4))


class TestL1Normalize:
    def test_hand_case(self):
        w = l1_normalize_selected(np.array([0.1, 0.4, 0.3]), [1, 2])
        np.testing.assert_allclose(w, [4 / 7, 3 / 7])

    def test_equal_scores_uniform(self):
        w = l1_normalize_selected(np.array([0.2, 0.2, 0.2, 0.2]), [0, 2])
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateSelectionError):
            l1_normalize_selected(np.array([0.0, 0.0]), [0, 1])

    def test_softmax_composition_is_safe(self):
        from aefs.numerics import softmax
        s = softmax(np.random.default_rng(2).normal(size=8))
        w = l1_normalize_selected(s, k_max_indices(s, 4))
        assert abs(w.sum() - 1.0) <= 1e-9
        assert (w >= 0).all()


class TestScale:
    def test_unit_weights_identity(self):
        e = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4)))
        out = scale_embeddings(e, Tensor(np.ones((2, 3))))
        np.testing.assert_array_equal(out.data, e.data)

    def test_uniform_divides_by_k(self):
        e = Tensor(np.ones((1, 4, 2)))
        out = scale_embeddings(e, Tensor(np.full((1, 4), 0.25)))
        np.testing.assert_allclose(out.data, 0.25)

    def test_weight_gradient_is_inner_product(self):
        rng = np.random.default_rng(4)
        e = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.random((2, 3)), requires_grad=True)
        upstream = rng.normal(size=(2, 3, 4))
        (scale_embeddings(e, w) * upstream).sum().backward()
        np.testing.assert_allclose(w.grad, (upstream * e.data).sum(axis=2), atol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(5)
        e = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.random((2, 3)), requires_grad=True)

        def loss():
            scaled = scale_embeddings(e, w)
            return (scaled * scaled).sum()

        assert grad_check(loss, [e, w]) < 1e-8


class TestSelectionResult:
    def test_valid(self):
        SelectionResult(indices=np.array([3, 1]), weights=np.array([0.6, 0.4]))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(indices=np.array([1, 1]), weights=np.array([0.5, 0.5]))

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(indices=np.array([0, 1]), weights=np.array([0.5, 0.6]))


class TestLateSelection:
    def test_soft_uniform_scores_scale_by_inverse_n(self):
        model = LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(6))
        model.controller.fc.weight.data[:] = 0.0
        x = np.random.default_rng(7).integers(0, 4, size=(4, 6))
        _, scores, _ = model.forward(x, training=True)
        np.testing.assert_allclose(scores.data, 1.0 / 6.0)

    def test_hard_with_full_k_equals_soft(self):
        rng = np.random.default_rng(8)
        m_soft = LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(11))
        m_hard = LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(11),
                                    mode="hard", k=6)
        x = rng.integers(0, 4, size=(5, 6))
        p_soft, _, _ = m_soft.forward(x, training=True)
        p_hard, _, _ = m_hard.forward(x, training=True)
        np.testing.assert_allclose(p_hard.data, p_soft.data, atol=1e-12)

    def test_hard_mode_still_embeds_all_fields(self):
        model = LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(9),
                                   mode="hard", k=3)
        x = np.random.default_rng(10).integers(0, 4, size=(8, 6))
        model.forward(x, training=True)
        assert model.main_embeddings.lookup_counts.sum() == 8 * 6

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown selection mode 'medium'"):
            LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(9), mode="medium")
        with pytest.raises(ValueError, match="hard selection needs k"):
            LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(9), mode="hard")

    def test_soft_asks_for_soft_mode_in_a_hard_model(self):
        x = np.random.default_rng(12).integers(0, 4, size=(5, 6))
        m_soft = LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(11))
        m_hard = LateSelectionModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(11),
                                    mode="hard", k=3)
        p_soft, _, none = m_hard.forward(x, training=True, soft=True)
        assert none is None
        assert same_bits(p_soft.data, m_soft.forward(x, training=True)[0].data)
        _, _, indices = m_hard.forward(x, training=True)
        assert indices.shape == (5, 3)


class TestEarlySelection:
    def test_lookup_counts(self):
        pair = make_pair()
        x = np.random.default_rng(12).integers(0, 4, size=(10, 6))
        aefs_forward(pair, x, training=True)
        assert pair.aux_embeddings.lookup_counts.sum() == 10 * 6
        assert pair.main_embeddings.lookup_counts.sum() == 10 * 3

    def test_weights_sum_to_one(self):
        pair = make_pair(seed=2)
        x = np.random.default_rng(13).integers(0, 4, size=(6, 6))
        trace = aefs_forward(pair, x, training=True)
        np.testing.assert_allclose(trace.weights.data.sum(axis=1), 1.0, atol=1e-9)

    def test_no_reweight_keeps_raw_scores(self):
        pair = make_pair(seed=3)
        x = np.random.default_rng(14).integers(0, 4, size=(6, 6))
        trace = aefs_forward(pair, x, training=True, reweight=False)
        rows = np.arange(6)[:, None]
        np.testing.assert_allclose(trace.weights.data,
                                   trace.scores.data[rows, trace.indices], atol=1e-12)
        assert (trace.weights.data.sum(axis=1) < 1.0).all()

    def test_identical_sides_predict_identically(self):
        # d2 == d1 and the main side copied onto the auxiliary side
        pair = make_pair(d1=4, d2=4, seed=5)
        for t_aux, t_main in zip(tables(pair.aux_embeddings), tables(pair.main_embeddings)):
            t_aux.data[:] = t_main.data
        for (_, pa), (_, pm) in zip(pair.aux_predictor.named_params(),
                                    pair.main_predictor.named_params()):
            pa.data[:] = pm.data
        x = np.random.default_rng(15).integers(0, 4, size=(5, 6))
        trace = aefs_forward(pair, x, training=True)
        np.testing.assert_allclose(trace.aux_pred.data, trace.main_pred.data, atol=1e-12)

    def test_same_scores_select_same_fields_as_late_hard(self):
        pair = make_pair(seed=6)
        x = np.random.default_rng(16).integers(0, 4, size=(7, 6))
        trace = aefs_forward(pair, x, training=True)
        np.testing.assert_array_equal(trace.indices,
                                      k_max_indices_batch(trace.scores.data, pair.k))

    @pytest.mark.parametrize("call", ["score", "loss"])
    def test_one_index_check_per_batch(self, monkeypatch, call):
        # the top-k indices are checked once, though the selected scores,
        # the auxiliary embeddings and the main tables all read them
        calls = []

        def counted(idx, n):
            calls.append(idx)
            return repeats_in_rows(idx, n)

        monkeypatch.setattr(aefs.numerics, "repeats_in_rows", counted)
        monkeypatch.setattr(aefs.embedding, "repeats_in_rows", counted)
        pair = make_pair(seed=8)
        rng = np.random.default_rng(18)
        x = rng.integers(0, 4, size=(8, 6))
        if call == "score":
            pair.score(x, training=False)
        else:
            pair.loss(x, rng.integers(0, 2, size=8).astype(float))[0].backward()
        assert len(calls) == 1 and calls[0].shape == (8, pair.k)

    def test_full_joint_loss_grad_check(self):
        pair = make_pair(seed=7)
        rng = np.random.default_rng(17)
        x = rng.integers(0, 4, size=(4, 6))
        y = rng.integers(0, 2, size=4).astype(float)

        def loss():
            trace = aefs_forward(pair, x, training=True)
            return (bce(trace.aux_pred, y) + bce(trace.main_pred, y)
                    + embedding_alignment_loss(trace.aux_embeds, trace.main_embeds,
                                               pair.align_fc)
                    + prediction_alignment_loss(trace.aux_pred, trace.main_pred))

        # selection must be stable under +/- eps parameter nudges
        trace = aefs_forward(pair, x, training=True)
        sorted_scores = -np.sort(-trace.scores.data, axis=1)
        margin = (sorted_scores[:, pair.k - 1] - sorted_scores[:, pair.k]).min()
        assert margin > 1e-3, "pick a different seed: top-k boundary too tight"

        params = [t for _, t in pair.named_params()]
        assert grad_check(loss, params) < 1e-3


class TestAlignmentLosses:
    def test_eal_zero_when_mapped_matches(self):
        pair = make_pair(d1=2, d2=2, seed=8)
        fc = pair.align_fc
        fc.weight.data[:] = np.eye(2)
        fc.bias.data[:] = 0.0
        e = Tensor(np.random.default_rng(18).normal(size=(3, 3, 2)))
        assert embedding_alignment_loss(e, e, fc).item() == pytest.approx(0.0, abs=1e-15)

    def test_eal_component_mean_hand_case(self):
        pair = make_pair(d1=2, d2=2, seed=9)
        fc = pair.align_fc
        fc.weight.data[:] = np.eye(2)
        fc.bias.data[:] = 0.0
        aux = Tensor(np.array([[[1.0, 0.0]]]))
        main = Tensor(np.array([[[0.0, 1.0]]]))
        # diff is [1, -1]; mean of squared components is 1.0
        assert embedding_alignment_loss(aux, main, fc).item() == pytest.approx(1.0)

    def test_eal_gradients_reach_fc_and_both_embeddings(self):
        pair = make_pair(seed=10)
        rng = np.random.default_rng(19)
        aux = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        main = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)

        def loss():
            return embedding_alignment_loss(aux, main, pair.align_fc)

        err = grad_check(loss, [aux, main, pair.align_fc.weight, pair.align_fc.bias])
        assert err < 1e-6
        loss().backward()
        for t in (aux, main, pair.align_fc.weight):
            assert np.abs(t.grad).max() > 0

    def test_eal_rejects_a_map_of_the_wrong_shape(self):
        rng = np.random.default_rng(21)
        aux = Tensor(rng.normal(size=(2, 3, 2)))
        with pytest.raises(DimensionError):
            embedding_alignment_loss(aux, Tensor(rng.normal(size=(2, 3, 5))),
                                     Linear(2, 6, rng))
        with pytest.raises(DimensionError):
            embedding_alignment_loss(aux, Tensor(rng.normal(size=(2, 3, 6))),
                                     Linear(3, 6, rng))

    def test_pal_identical_zero(self):
        p = Tensor(np.array([0.3, 0.9]))
        assert prediction_alignment_loss(p, p).item() == 0.0

    def test_pal_hand_case(self):
        pa = Tensor(np.array([1.0, 0.0]))
        pm = Tensor(np.array([0.0, 0.0]))
        assert prediction_alignment_loss(pa, pm).item() == pytest.approx(0.5)

    def test_pal_symmetric(self):
        rng = np.random.default_rng(20)
        a, b = Tensor(rng.random(5)), Tensor(rng.random(5))
        assert prediction_alignment_loss(a, b).item() == pytest.approx(
            prediction_alignment_loss(b, a).item(), abs=1e-15)


def eal_value_and_grads(eal, aux, main, fc, leaves):
    for t in leaves:
        t.grad = None
    loss = eal(aux, main, fc)
    loss.backward()
    return loss.data, [t.grad for t in leaves]


class TestFusedAlignmentLoss:
    """The one-node embedding alignment loss equals the composed graph in
    tests/oracles.py bit for bit: value, and every gradient it hands on."""

    @pytest.mark.parametrize("b,k,d2,d1", [(1, 1, 1, 1), (5, 3, 2, 6), (64, 8, 4, 32)])
    def test_value_and_gradients_match_composed(self, b, k, d2, d1):
        rng = np.random.default_rng(b * 100 + d1)
        aux = Tensor(rng.normal(size=(b, k, d2)), requires_grad=True)
        main = Tensor(rng.normal(size=(b, k, d1)), requires_grad=True)
        fc = Linear(d2, d1, rng)
        fc.bias.data[:] = rng.normal(size=d1)
        leaves = [aux, main, fc.weight, fc.bias]
        fused = eal_value_and_grads(embedding_alignment_loss, aux, main, fc, leaves)
        composed = eal_value_and_grads(composed_embedding_alignment_loss, aux, main, fc,
                                       leaves)
        assert same_bits(fused[0], composed[0])
        for name, a, c in zip(("aux", "main", "weight", "bias"), fused[1], composed[1]):
            assert same_bits(a, c), name

    def test_shared_tensor_as_both_sides(self):
        rng = np.random.default_rng(22)
        e = Tensor(rng.normal(size=(4, 3, 4)), requires_grad=True)
        fc = Linear(4, 4, rng)
        fc.bias.data[:] = rng.normal(size=4)
        leaves = [e, fc.weight, fc.bias]
        fused = eal_value_and_grads(embedding_alignment_loss, e, e, fc, leaves)
        composed = eal_value_and_grads(composed_embedding_alignment_loss, e, e, fc, leaves)
        assert same_bits(fused[0], composed[0])
        for a, c in zip(fused[1], composed[1]):
            assert same_bits(a, c)
        assert grad_check(lambda: embedding_alignment_loss(e, e, fc), leaves) < 1e-6

    @pytest.mark.parametrize("backbone", ["mlp", "dcn", "deepfm"])
    @pytest.mark.parametrize("with_pal", [True, False])
    def test_joint_loss_gradients_match_composed(self, backbone, with_pal):
        # the embeddings also feed both predictors, so the order in which
        # the tape adds their gradient terms has to be the composed graph's
        pair = make_pair(seed=11, backbone=backbone)
        rng = np.random.default_rng(23)
        x = rng.integers(0, 4, size=(32, 6))
        y = rng.integers(0, 2, size=32).astype(float)
        params = [t for _, t in pair.named_params()]

        def grads(eal):
            for t in params:
                t.grad = None
            trace = aefs_forward(pair, x, training=True)
            loss = (bce(trace.aux_pred, y) + bce(trace.main_pred, y)
                    + eal(trace.aux_embeds, trace.main_embeds, pair.align_fc))
            if with_pal:
                loss = loss + prediction_alignment_loss(trace.aux_pred, trace.main_pred)
            loss.backward()
            return loss.data, [t.grad for t in params]

        fused, composed = grads(embedding_alignment_loss), grads(composed_embedding_alignment_loss)
        assert same_bits(fused[0], composed[0])
        for (name, _), a, c in zip(pair.named_params(), fused[1], composed[1]):
            a, c = (g.dense() if isinstance(g, RowGrad) else g for g in (a, c))
            assert same_bits(a, c), name


class TestOtherModels:
    def test_plain_model_forward(self):
        m = PlainModel(VOCAB6, 4, "mlp", (4,), 2, np.random.default_rng(21))
        x = np.random.default_rng(22).integers(0, 4, size=(3, 6))
        p = m.forward(x, training=True)
        assert p.shape == (3,)
        assert m.embeddings.lookup_counts.sum() == 18

    def test_fixed_subset_model(self):
        m = FixedSubsetModel(VOCAB6, 4, np.array([5, 0, 2]), "mlp", (4,), 2,
                             np.random.default_rng(23))
        x = np.random.default_rng(24).integers(0, 4, size=(4, 6))
        p, indices, weights = m.score(x, training=True)
        assert p.shape == (4,) and weights is None
        np.testing.assert_array_equal(m.main_embeddings.lookup_counts, [4, 0, 4, 0, 0, 4])
        np.testing.assert_array_equal(m.fields, [0, 2, 5])
        np.testing.assert_array_equal(indices, np.tile([0, 2, 5], (4, 1)))

    @pytest.mark.parametrize("fields", [[], [0, 0, 2], [-1, 2], [1, 6]])
    def test_fixed_subset_rejects_bad_fields(self, fields):
        with pytest.raises(SelectionIndexError):
            FixedSubsetModel(VOCAB6, 4, fields, "mlp", (4,), 2, np.random.default_rng(23))

    def test_dual_model_rejects_d2_above_d1(self):
        with pytest.raises(ValueError):
            make_pair(d1=2, d2=4)
