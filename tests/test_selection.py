import numpy as np
import pytest

import aefs.embedding
import aefs.numerics
from hypothesis import given, settings
from hypothesis import strategies as st

from aefs.embedding import SelectionIndexError
from aefs.numerics import DimensionError, Linear, RowGrad, Tensor, repeats_in_rows
from aefs.predictors import Controller, bce
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
    composed_embedding_alignment_loss, composed_scale_embeddings, grad_check, k_max_indices, \
    l1_normalize_selected, same_bits, tables, use_reference_tape

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


def scale_value_and_grads(scale, e, w, upstream):
    for t in (e, w):
        t.grad = None
    out = scale(e, w)
    (out * Tensor(upstream)).sum().backward()
    return out.data, e.grad, w.grad


class TestScaleNode:
    """The one-node field weighting against the reshape and broadcast
    multiply in tests/oracles.py: the forward and the embedding gradient
    bit for bit, the weight gradient, summed over d in another order, to
    rounding."""

    @pytest.mark.parametrize("b,n,d", [(5, 1, 4), (5, 3, 1), (64, 8, 32)])
    def test_matches_composed(self, b, n, d):
        rng = np.random.default_rng(b * 1000 + n * 10 + d)
        e = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        w = Tensor(rng.random((b, n)), requires_grad=True)
        upstream = rng.normal(size=(b, n, d))
        node = scale_value_and_grads(scale_embeddings, e, w, upstream)
        composed = scale_value_and_grads(composed_scale_embeddings, e, w, upstream)
        assert same_bits(node[0], composed[0])
        assert same_bits(node[1], composed[1])
        scale = np.abs(composed[2]).max()
        np.testing.assert_allclose(node[2], composed[2], rtol=1e-12, atol=1e-12 * scale)

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(31)
        e = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        w = Tensor(rng.random((3, 2)))
        scale_embeddings(e, w).sum().backward()
        assert w.grad is None
        assert same_bits(e.grad, np.broadcast_to(w.data[:, :, None], e.shape))
        e2 = Tensor(e.data)
        w2 = Tensor(w.data, requires_grad=True)
        scale_embeddings(e2, w2).sum().backward()
        assert e2.grad is None
        np.testing.assert_allclose(w2.grad, e.data.sum(axis=2), rtol=1e-14)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            scale_embeddings(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4))))

    @staticmethod
    def _shared_graph(scale, e, ctrl, k1, k2):
        # as in adafs: e feeds the controller and, weighted by its scores,
        # two consumers of the weighted output
        b, n, d = e.shape
        out = scale(e, ctrl(e, training=True))
        h = out.reshape(b, n * d) @ Tensor(k2)
        return (out * Tensor(k1)).sum() + (h * h).sum()

    def _leaf_grads(self, scale, leaves, e, ctrl, k1, k2):
        for t in leaves:
            t.grad = None
        self._shared_graph(scale, e, ctrl, k1, k2).backward()
        return [t.grad for t in leaves]

    def test_in_place_backward_owns_its_buffer(self, monkeypatch):
        rng = np.random.default_rng(32)
        b, n, d = 16, 5, 3
        e = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        ctrl = Controller(n, d, rng)
        k1, k2 = rng.normal(size=(b, n, d)), rng.normal(size=(n * d, 2))
        leaves = [e] + [t for _, t in ctrl.named_params()]
        fast = self._leaf_grads(scale_embeddings, leaves, e, ctrl, k1, k2)
        for i, g in enumerate(fast):
            assert not any(np.shares_memory(g, h) for h in fast[i + 1:])
        use_reference_tape(monkeypatch)
        copying = self._leaf_grads(scale_embeddings, leaves, e, ctrl, k1, k2)
        composed = self._leaf_grads(composed_scale_embeddings, leaves, e, ctrl, k1, k2)
        for (name, _), a, c, r in zip([("e", e)] + ctrl.named_params(), fast, copying, composed):
            assert same_bits(a, c), name
            np.testing.assert_allclose(a, r, rtol=0, atol=1e-12 * np.abs(r).max(), err_msg=name)

    def test_grad_check_through_the_controller(self):
        rng = np.random.default_rng(33)
        e = Tensor(rng.normal(size=(6, 4, 2)), requires_grad=True)
        ctrl = Controller(4, 2, rng)
        k1, k2 = rng.normal(size=(6, 4, 2)), rng.normal(size=(8, 2))
        leaves = [e] + [t for _, t in ctrl.named_params()]
        assert grad_check(lambda: self._shared_graph(scale_embeddings, e, ctrl, k1, k2),
                          leaves) < 1e-6


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

    @pytest.mark.parametrize("call", ["score", "loss"])
    def test_one_id_check_per_batch(self, monkeypatch, call):
        # the auxiliary lookup checks every id; the main lookup of the
        # selected fields reads the same ids against the same vocabularies
        calls = []
        check = aefs.embedding.EmbeddingSet._check_ids

        def counted(es, ids, fields):
            calls.append(ids.shape)
            return check(es, ids, fields)

        monkeypatch.setattr(aefs.embedding.EmbeddingSet, "_check_ids", counted)
        pair = make_pair(seed=8)
        rng = np.random.default_rng(18)
        x = rng.integers(0, 4, size=(8, 6))
        if call == "score":
            pair.score(x, training=False)
        else:
            pair.loss(x, rng.integers(0, 2, size=8).astype(float))[0].backward()
        assert calls == [(8, 6)]

    @pytest.mark.parametrize("call", ["score", "loss"])
    @pytest.mark.parametrize("selected", [True, False])
    @pytest.mark.parametrize("bad_id", [-1, "vocab"])
    def test_out_of_range_id_rejected(self, call, selected, bad_id):
        pair = make_pair(seed=9)
        rng = np.random.default_rng(19)
        x = rng.integers(0, 4, size=(8, 6))
        y = rng.integers(0, 2, size=8).astype(float)
        _, indices, _ = pair.score(x, training=False)
        fields = indices[3] if selected else np.setdiff1d(np.arange(6), indices[3])
        field = int(fields[0])
        x[3, field] = VOCAB6[field] if bad_id == "vocab" else bad_id
        with pytest.raises(IndexError, match="category id out of range"):
            pair.score(x, training=False) if call == "score" else pair.loss(x, y)

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

    @pytest.mark.parametrize("shared", [False, True])
    def test_prior_gradients_match_composed(self, shared):
        # every leaf, main included, already holds a gradient when the
        # alignment loss hands on its own
        rng = np.random.default_rng(24)
        aux = Tensor(rng.normal(size=(6, 3, 4 if shared else 2)), requires_grad=True)
        main = aux if shared else Tensor(rng.normal(size=(6, 3, 4)), requires_grad=True)
        fc = Linear(aux.shape[2], 4, rng)
        fc.bias.data[:] = rng.normal(size=4)
        leaves = [aux, fc.weight, fc.bias] + ([] if shared else [main])
        prior = [rng.normal(size=t.shape) for t in leaves]

        def grads(eal):
            for t, p in zip(leaves, prior):
                t.grad = p.copy()
            loss = eal(aux, main, fc)
            loss.backward()
            return loss.data, [t.grad for t in leaves]

        fused, composed = grads(embedding_alignment_loss), grads(composed_embedding_alignment_loss)
        assert same_bits(fused[0], composed[0])
        for a, c in zip(fused[1], composed[1]):
            assert same_bits(a, c)

    @pytest.mark.parametrize("main_first", [True, False])
    def test_interior_main_with_and_without_a_prior_gradient(self, main_first):
        # main is a weighted selection read by a second consumer, whose
        # gradient reaches main before or after the alignment loss's
        rng = np.random.default_rng(25)
        aux = Tensor(rng.normal(size=(6, 3, 2)), requires_grad=True)
        emb = Tensor(rng.normal(size=(6, 3, 4)), requires_grad=True)
        w = Tensor(rng.random((6, 3)), requires_grad=True)
        fc = Linear(2, 4, rng)
        fc.bias.data[:] = rng.normal(size=4)
        other = rng.normal(size=(6, 3, 4))
        leaves = [aux, emb, w, fc.weight, fc.bias]
        seen = []

        def grads(eal):
            for t in leaves:
                t.grad = None
            main = scale_embeddings(emb, w)
            loss_eal = eal(aux, main, fc)
            loss_other = (main * Tensor(other)).sum()
            eal_backward = loss_eal._backward

            def spy(g):
                seen.append(main.grad is not None)
                eal_backward(g)

            loss_eal._backward = spy
            loss = loss_other + loss_eal if main_first else loss_eal + loss_other
            loss.backward()
            return loss.data, [t.grad for t in leaves]

        fused, composed = grads(embedding_alignment_loss), grads(composed_embedding_alignment_loss)
        assert same_bits(fused[0], composed[0])
        for a, c in zip(fused[1], composed[1]):
            assert same_bits(a, c)
        assert seen == [main_first, main_first]  # both cases are reached

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
