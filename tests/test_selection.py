import tracemalloc

import numpy as np
import pytest

import aefs.embedding
import aefs.selection
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aefs.embedding import SelectionIndexError
from aefs.numerics import DimensionError, Linear, RowGrad, Tensor, no_tape, softmax
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
    topk_softmax,
)
from oracles import DegenerateSelectionError, PlainModel, SelectionResult, aefs_trace, \
    composed_embedding_alignment_loss, composed_scale_embeddings, composed_topk_softmax, \
    controller_scores, grad_check, k_max_indices, l1_normalize_selected, same_bits, tables, \
    use_reference_tape

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

    @given(st.data(), arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 9)),
                             elements=st.floats(allow_nan=True, allow_infinity=True)
                             | st.sampled_from([0.0, -0.0, 1.0, -1.0])))
    @settings(max_examples=200, deadline=None)
    def test_batch_is_k_distinct_fields_in_range_ties_to_lower(self, data, s):
        # what `gather_fields` and the per-row main lookup rely on without
        # checking: k distinct positions in [0, N) per row, NaN ranked last
        b, n = s.shape
        k = data.draw(st.integers(1, n))
        got = k_max_indices_batch(s, k)
        assert got.shape == (b, k)
        for row, picked in zip(s, got.tolist()):
            assert len(set(picked)) == k and all(0 <= j < n for j in picked)
            order = sorted(range(n), key=lambda j: (bool(np.isnan(row[j])),
                                                    0.0 if np.isnan(row[j]) else -row[j]))
            assert picked == order[:k]

    def test_near_ties_take_the_stable_sort(self, monkeypatch):
        """Scores an ulp or a few apart agree above the packed keys' field
        bits, as exact ties do: their rows alone go to the stable argsort,
        and the result equals it, though field order alone would put the
        lower field first."""
        rng = np.random.default_rng(46)
        s = rng.normal(size=(512, 16))
        s[3, 2], s[3, 5] = 10.0, np.nextafter(10.0, np.inf)
        s[100, 0], s[100, 15] = 20.0, 20.0 + 2 * np.spacing(20.0)
        s[200, 4] = s[200, 9] = 7.0
        s[300] = -1.0  # ties at the k-th and (k+1)-th places too
        s[300, 1], s[300, 6] = -1e-300, np.nextafter(-1e-300, np.inf)
        expected = np.argsort(-s, axis=1, kind="stable")[:, :8]
        assert expected[3, 0] == 5 and expected[100, 0] == 15
        fallback_rows = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            fallback_rows.append(a.shape[0])
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        got = k_max_indices_batch(s, 8)
        assert fallback_rows == [4]
        assert same_bits(got, expected)

    @given(st.data(), st.integers(1, 300), st.integers(1, 39))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_stable_argsort_on_tied_batches(self, data, b, n):
        """Rows of a few repeated values, NaN among them, where the packed
        keys' sort leaves equal scores in any order: the top k equals the
        stable argsort, bit for bit."""
        pool = data.draw(st.lists(st.sampled_from(
            [0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, 1e300, -1e-300, np.nan]),
            min_size=1, max_size=4))
        picks = data.draw(arrays(np.int64, (b, n), elements=st.integers(0, len(pool) - 1)))
        s = np.asarray(pool)[picks]
        k = data.draw(st.integers(1, n))
        expected = np.argsort(-s, axis=1, kind="stable")[:, :k]
        assert same_bits(k_max_indices_batch(s, k), expected)

    def test_rows_the_packed_sort_could_misorder_take_the_stable_sort(self, monkeypatch):
        """Equal scores at the k-th and (k+1)-th places, +0.0 and -0.0 at
        the top, two +inf, a NaN and a NaN with its sign bit set each send
        their row, and only theirs, to the stable argsort, with no scan for
        NaN; the result equals it."""
        s = np.array([
            [9.0, 8.0, 7.0, 6.0, 5.0, 1.0, 2.0, 3.0],
            [5.0, 0.0, 2.0, 4.0, 1.0, 3.0, 2.0, -1.0],       # 2.0 at places 4 and 5
            [-1.0, -0.0, -2.0, 0.0, -3.0, -4.0, -5.0, -6.0],  # -0.0 ties +0.0
            [1.0, np.inf, 2.0, -np.inf, np.inf, 3.0, 0.0, 4.0],
            [1.0, 2.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0],
            [1.0, 2.0, -np.nan, 3.0, 4.0, 5.0, 6.0, 7.0],
            [0.5, 0.25, 0.125, 1.0, 2.0, 4.0, 8.0, 16.0],
        ])
        assert np.signbit(s[5, 2])
        expected = np.argsort(-s, axis=1, kind="stable")[:, :4]
        assert expected[1].tolist() == [0, 3, 5, 2] and expected[2].tolist() == [1, 3, 0, 2]
        stable = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            if kwargs.get("kind") == "stable":
                stable.append(np.negative(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        monkeypatch.setattr(np, "isnan", None)
        got = k_max_indices_batch(s, 4)
        assert len(stable) == 1 and same_bits(stable[0], s[1:6])
        assert same_bits(got, expected)

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
        with no_tape(), pytest.raises(DimensionError):
            scale_embeddings(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4))))

    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_taped_leaves_its_input_unchanged(self, requires_grad):
        rng = np.random.default_rng(32)
        e = Tensor(rng.normal(size=(6, 3, 5)), requires_grad=requires_grad)
        w = Tensor(rng.random((6, 3)), requires_grad=True)
        before = e.data.copy()
        out = scale_embeddings(e, w)
        assert not np.shares_memory(out.data, e.data)
        (out * out).sum().backward()
        assert same_bits(e.data, before)

    @pytest.mark.parametrize("b,n,d", [(5, 1, 4), (5, 3, 1), (64, 8, 32)])
    def test_without_tape_weights_the_embeddings_in_place(self, b, n, d):
        rng = np.random.default_rng(b * 1000 + n * 10 + d + 1)
        e = rng.normal(size=(b, n, d))
        w = rng.random((b, n))
        taped = scale_embeddings(Tensor(e.copy(), requires_grad=True), Tensor(w, requires_grad=True))
        buffer = e.copy()
        with no_tape():
            out = scale_embeddings(Tensor(buffer), Tensor(w))
        assert out.data is buffer and not out.requires_grad
        assert same_bits(out.data, taped.data)

    @staticmethod
    def _shared_graph(scale, e, ctrl, k1, k2):
        # as in adafs: e feeds the controller and, weighted by its scores,
        # two consumers of the weighted output
        b, n, d = e.shape
        out = scale(e, controller_scores(ctrl, e, training=True))
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


def topk_value_and_grad(select, logits, k, upstream):
    logits.grad = None
    indices, w = select(logits, k)
    (w * Tensor(upstream)).sum().backward()
    return indices, w.data, logits.grad


class TestTopkSoftmax:
    """The top-k weights as one node, a softmax over the k selected logits,
    against the full softmax, gather and division by their sum in
    tests/oracles.py: the same indices, and weights and logit gradient
    within 1e-12 of the largest magnitude."""

    @pytest.mark.parametrize("b,n,k", [(1, 1, 1), (5, 6, 3), (64, 16, 8), (7, 5, 5)])
    def test_matches_composed(self, b, n, k):
        rng = np.random.default_rng(b * 100 + n * 10 + k)
        logits = Tensor(rng.normal(scale=2.0, size=(b, n)), requires_grad=True)
        upstream = rng.normal(size=(b, k))
        node = topk_value_and_grad(topk_softmax, logits, k, upstream)
        composed = topk_value_and_grad(composed_topk_softmax, logits, k, upstream)
        assert same_bits(node[0], composed[0])
        assert_close(node[1], composed[1], "weights")
        assert_close(node[2], composed[2], "logit gradient")
        np.testing.assert_allclose(node[1].sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_unselected_logits_get_exactly_zero(self):
        rng = np.random.default_rng(40)
        logits = Tensor(rng.normal(size=(32, 9)), requires_grad=True)
        indices, _, grad = topk_value_and_grad(topk_softmax, logits, 4, rng.normal(size=(32, 4)))
        chosen = np.zeros((32, 9), dtype=bool)
        np.put_along_axis(chosen, indices, True, axis=1)
        assert not grad[~chosen].any()
        assert grad[chosen].all()

    def test_finite_differences(self):
        rng = np.random.default_rng(41)
        logits = Tensor(rng.normal(size=(6, 7)), requires_grad=True)
        c = Tensor(rng.normal(size=(6, 3)))

        def loss():
            _, w = topk_softmax(logits, 3)
            return (w * c).sum() + (w * w).sum()

        assert grad_check(loss, [logits]) < 1e-8

    def test_one_field_has_weight_one_and_no_gradient(self):
        rng = np.random.default_rng(42)
        logits = Tensor(rng.normal(scale=5.0, size=(10, 6)), requires_grad=True)
        indices, w, grad = topk_value_and_grad(topk_softmax, logits, 1, rng.normal(size=(10, 1)))
        np.testing.assert_array_equal(indices[:, 0], logits.data.argmax(axis=1))
        assert (w == 1.0).all()
        assert not grad.any()

    def test_every_field_is_the_full_softmax(self):
        rng = np.random.default_rng(43)
        logits = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        indices, w = topk_softmax(logits, 5)
        full = softmax(logits.data, axis=1)
        np.testing.assert_array_equal(indices, np.argsort(-full, axis=1, kind="stable"))
        assert_close(w.data, np.take_along_axis(full, indices, axis=1))

    def test_ties_go_to_the_lower_field(self):
        logits = Tensor(np.array([[0.5, 2.0, 2.0, 0.5, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0]]))
        indices, w = topk_softmax(logits, 3)
        np.testing.assert_array_equal(indices, [[1, 2, 4], [0, 1, 2]])
        np.testing.assert_array_equal(w.data, np.full((2, 3), 1.0 / 3.0))
        indices, _ = topk_softmax(logits, 4)
        np.testing.assert_array_equal(indices, [[1, 2, 4, 0], [0, 1, 2, 3]])

    def test_logits_spread_over_700_stay_finite(self):
        rng = np.random.default_rng(44)
        logits = Tensor(rng.uniform(-700.0, 700.0, size=(16, 8)), requires_grad=True)
        logits.data[:, 0] = 700.0
        logits.data[:, 1] = -700.0
        for k in (1, 3, 8):
            _, w, grad = topk_value_and_grad(topk_softmax, logits, k, rng.normal(size=(16, k)))
            assert np.isfinite(w).all() and np.isfinite(grad).all()
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_nan_anywhere_in_a_row_makes_its_weights_nan(self):
        logits = Tensor(np.array([[3.0, 1.0, np.nan, 0.0], [3.0, 1.0, 2.0, 0.0]]))
        _, w = topk_softmax(logits, 2)
        assert np.isnan(w.data[0]).all() and np.isfinite(w.data[1]).all()

    @pytest.mark.parametrize("rows,seed", [(64, 48), (512, 47)])
    def test_nan_reaches_only_its_row(self, rows, seed):
        """Without a NaN the weights are shifted by the first selected
        logit, with one by each row's full max: a NaN in an unselected logit
        makes its row's weights NaN, and every other row's weights and
        indices are bit for bit those of the batch without it. The indices
        equal the stable argsort's."""
        rng = np.random.default_rng(seed)
        clean = rng.normal(scale=2.0, size=(rows, 16))
        clean[7, :] = 0.0
        clean[7, ::3] = -0.0  # a row max that is +0.0 or -0.0
        dirty = clean.copy()
        dirty[5, np.argmin(dirty[5])] = np.nan
        clean_indices, clean_w = topk_softmax(Tensor(clean), 8)
        indices, w = topk_softmax(Tensor(dirty), 8)
        assert np.isnan(w.data[5]).all() and not np.isnan(clean_w.data).any()
        others = np.arange(rows) != 5
        assert same_bits(indices[others], clean_indices[others])
        assert same_bits(w.data[others], clean_w.data[others])
        assert same_bits(indices, np.argsort(-dirty, axis=1, kind="stable")[:, :8])

    def test_indices_come_from_the_module_top_k(self, monkeypatch):
        calls = []
        top_k = k_max_indices_batch

        def recording(scores, k):
            calls.append(scores)
            return top_k(scores, k)

        monkeypatch.setattr(aefs.selection, "k_max_indices_batch", recording)
        logits = Tensor(np.random.default_rng(45).normal(size=(4, 6)))
        topk_softmax(logits, 2)
        assert len(calls) == 1 and calls[0] is logits.data


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
        _, logits, _ = model.forward(x, training=True)
        np.testing.assert_allclose(softmax(logits.data, axis=1), 1.0 / 6.0)

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

    def test_score_returns_the_first_three_of_the_pass(self):
        pair = make_pair(seed=4)
        x = np.random.default_rng(20).integers(0, 4, size=(9, 6))
        p_m, indices, weights, rows, e_a = aefs_forward(pair, x, training=False)
        p, i, w = pair.score(x, training=False)
        assert same_bits(p.data, p_m.data) and same_bits(i, indices)
        assert same_bits(w, weights.data)
        offsets = pair.main_embeddings.offsets
        np.testing.assert_array_equal(rows, x[np.arange(9)[:, None], indices] + offsets[indices])
        assert e_a.shape == (9, 6, 2)

    @pytest.mark.parametrize("eal,pal", [(True, True), (True, False), (False, True),
                                         (False, False)])
    def test_loss_is_the_documented_sum(self, eal, pal):
        # BCE(aux) + BCE(main) [+ EAL] [+ PAL], value and every gradient bit
        # for bit, with the auxiliary branch built after the main one
        rng = np.random.default_rng(21)
        x = rng.integers(0, 4, size=(12, 6))
        y = rng.integers(0, 2, size=12).astype(float)
        runs = []
        for via_trace in (False, True):
            pair = make_pair(seed=10)
            pair.enable_eal, pair.enable_pal = eal, pal
            if via_trace:
                t = aefs_trace(pair, x, training=True)
                loss = bce(t.aux_pred, y) + bce(t.main_pred, y)
                if eal:
                    loss = loss + embedding_alignment_loss(
                        pair.aux_embeddings.weight, pair.main_embeddings.weight, t.rows,
                        t.weights, pair.align_fc)
                if pal:
                    loss = loss + prediction_alignment_loss(t.aux_pred, t.main_pred)
            else:
                loss, terms, _ = pair.loss(x, y)
                assert list(terms) == ["bce_aux", "bce_main"] + ["eal"] * eal + ["pal"] * pal
            loss.backward()
            runs.append([loss.data] + [dense(t.grad) for _, t in pair.named_params()])
        for a, b in zip(*runs):
            assert same_bits(a, b)

    def test_weights_sum_to_one(self):
        pair = make_pair(seed=2)
        x = np.random.default_rng(13).integers(0, 4, size=(6, 6))
        _, _, weights, _, _ = aefs_forward(pair, x, training=True)
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)

    def test_no_reweight_keeps_raw_scores(self):
        pair = make_pair(seed=3)
        x = np.random.default_rng(14).integers(0, 4, size=(6, 6))
        pair.reweight = False
        trace = aefs_trace(pair, x, training=True)
        rows = np.arange(6)[:, None]
        np.testing.assert_allclose(trace.weights.data,
                                   softmax(trace.logits.data, axis=1)[rows, trace.indices],
                                   atol=1e-12)
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
        trace = aefs_trace(pair, x, training=True)
        np.testing.assert_allclose(trace.aux_pred.data, trace.main_pred.data, atol=1e-12)

    def test_same_scores_select_same_fields_as_late_hard(self):
        pair = make_pair(seed=6)
        x = np.random.default_rng(16).integers(0, 4, size=(7, 6))
        trace = aefs_trace(pair, x, training=True)
        np.testing.assert_array_equal(
            trace.indices, k_max_indices_batch(softmax(trace.logits.data, axis=1), pair.k))

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
            return pair.loss(x, y)[0]

        # selection must be stable under +/- eps parameter nudges
        trace = aefs_trace(pair, x, training=True)
        sorted_scores = -np.sort(-softmax(trace.logits.data, axis=1), axis=1)
        margin = (sorted_scores[:, pair.k - 1] - sorted_scores[:, pair.k]).min()
        assert margin > 1e-3, "pick a different seed: top-k boundary too tight"

        params = [t for _, t in pair.named_params()]
        assert grad_check(loss, params) < 1e-3


def eal_inputs(rng, n, b, k, d2, d1, reweight=True):
    """Two tables of n rows, (B, k) selected rows and weights, and an
    alignment map with a nonzero bias."""
    aux = Tensor(rng.normal(size=(n, d2)), requires_grad=True)
    main = Tensor(rng.normal(size=(n, d1)), requires_grad=True)
    rows = rng.integers(0, n, size=(b, k))
    raw = rng.random((b, k)) + 0.1
    w = Tensor(raw / raw.sum(axis=1, keepdims=True) if reweight else raw * 3.0,
               requires_grad=True)
    fc = Linear(d2, d1, rng)
    fc.bias.data[:] = rng.normal(size=d1)
    return aux, main, rows, w, fc


class TestAlignmentLosses:
    def test_eal_zero_when_mapped_matches(self):
        pair = make_pair(d1=2, d2=2, seed=8)
        fc = pair.align_fc
        fc.weight.data[:] = np.eye(2)
        fc.bias.data[:] = 0.0
        rng = np.random.default_rng(18)
        e = Tensor(rng.normal(size=(7, 2)))
        rows = rng.integers(0, 7, size=(3, 3))
        w = Tensor(rng.random((3, 3)))
        assert embedding_alignment_loss(e, e, rows, w, fc).item() == pytest.approx(0.0, abs=1e-15)

    def test_eal_component_mean_hand_case(self):
        pair = make_pair(d1=2, d2=2, seed=9)
        fc = pair.align_fc
        fc.weight.data[:] = np.eye(2)
        fc.bias.data[:] = 0.0
        aux = Tensor(np.array([[5.0, 5.0], [1.0, 0.0]]))
        main = Tensor(np.array([[5.0, 5.0], [0.0, 1.0]]))
        # row 1 at weight 1: diff is [1, -1]; mean of squared components is 1.0
        loss = embedding_alignment_loss(aux, main, np.array([[1]]), Tensor(np.ones((1, 1))), fc)
        assert loss.item() == pytest.approx(1.0)

    def test_eal_gradients_reach_fc_and_both_embeddings(self):
        pair = make_pair(seed=10)
        rng = np.random.default_rng(19)
        aux = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        main = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        rows = np.array([[0, 3, 4], [3, 1, 0]])
        w = Tensor(rng.random((2, 3)), requires_grad=True)

        def loss():
            return embedding_alignment_loss(aux, main, rows, w, pair.align_fc)

        err = grad_check(loss, [aux, main, w, pair.align_fc.weight, pair.align_fc.bias])
        assert err < 1e-6
        loss().backward()
        for t in (aux, main, w, pair.align_fc.weight):
            assert np.abs(dense(t.grad)).max() > 0
        # rows no lookup selected get no gradient
        assert not dense(aux.grad)[2].any() and not dense(main.grad)[2].any()

    def test_eal_rejects_a_map_of_the_wrong_shape(self):
        rng = np.random.default_rng(21)
        aux = Tensor(rng.normal(size=(4, 2)))
        rows, w = np.zeros((2, 3), dtype=np.int64), Tensor(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            embedding_alignment_loss(aux, Tensor(rng.normal(size=(4, 5))), rows, w,
                                     Linear(2, 6, rng))
        with pytest.raises(DimensionError):
            embedding_alignment_loss(aux, Tensor(rng.normal(size=(4, 6))), rows, w,
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


def dense(g):
    return g.dense() if isinstance(g, RowGrad) else g


def eal_value_and_grads(eal, aux, main, rows, w, fc, leaves):
    for t in leaves:
        t.grad = None
    loss = eal(aux, main, rows, w, fc)
    loss.backward()
    return loss.data, [dense(t.grad) for t in leaves]


def assert_close(a, c, name=""):
    """Equal within 1e-12 of the largest magnitude of either."""
    a, c = np.asarray(a), np.asarray(c)
    assert a.shape == c.shape, name
    scale = max(np.abs(a).max(initial=0.0), np.abs(c).max(initial=0.0))
    assert np.abs(a - c).max(initial=0.0) <= 1e-12 * scale, name


class TestFusedAlignmentLoss:
    """The embedding alignment loss over the distinct selected rows equals
    the composed per-lookup graph in tests/oracles.py to within 1e-12 of
    the largest magnitude: value, and every gradient it hands on. It sums
    in another order, so not bit for bit."""

    LEAVES = ("aux", "main", "weights", "weight", "bias")

    def check(self, aux, main, rows, w, fc, leaves=None):
        leaves = leaves or [aux, main, w, fc.weight, fc.bias]
        fused = eal_value_and_grads(embedding_alignment_loss, aux, main, rows, w, fc, leaves)
        composed = eal_value_and_grads(composed_embedding_alignment_loss, aux, main, rows, w,
                                       fc, leaves)
        assert_close(fused[0], composed[0], "value")
        for name, a, c in zip(self.LEAVES, fused[1], composed[1]):
            assert_close(a, c, name)
        return fused

    @pytest.mark.parametrize("b,k,d2,d1", [(1, 1, 1, 1), (5, 3, 2, 6), (64, 8, 4, 32)])
    def test_value_and_gradients_match_composed(self, b, k, d2, d1):
        rng = np.random.default_rng(b * 100 + d1)
        self.check(*eal_inputs(rng, 2 * b * k + 1, b, k, d2, d1))

    def test_one_row_selected_by_many_instances(self):
        rng = np.random.default_rng(26)
        aux, main, rows, w, fc = eal_inputs(rng, 40, 50, 4, 2, 6)
        rows[:, 1] = 7
        _, grads = self.check(aux, main, rows, w, fc)
        assert grads[1][7].any()

    def test_a_row_selected_at_several_ranks(self):
        rng = np.random.default_rng(27)
        aux, main, rows, w, fc = eal_inputs(rng, 30, 6, 3, 2, 6)
        rows[np.arange(6), np.arange(6) % 3] = 11
        self.check(aux, main, rows, w, fc)

    def test_weights_that_do_not_sum_to_one(self):
        rng = np.random.default_rng(28)
        aux, main, rows, w, fc = eal_inputs(rng, 12, 16, 4, 3, 5, reweight=False)
        assert not np.allclose(w.data.sum(axis=1), 1.0)
        self.check(aux, main, rows, w, fc)

    def test_finite_differences(self):
        rng = np.random.default_rng(29)
        aux, main, rows, w, fc = eal_inputs(rng, 6, 5, 3, 2, 4, reweight=False)
        rows[0, 0] = rows[1, 2] = rows[3, 1]
        leaves = [aux, main, w, fc.weight, fc.bias]
        assert grad_check(lambda: embedding_alignment_loss(aux, main, rows, w, fc), leaves) < 1e-7

    def test_tables_with_different_row_counts_raise(self):
        rng = np.random.default_rng(30)
        aux, main, rows, w, fc = eal_inputs(rng, 6, 2, 2, 2, 4)
        with pytest.raises(DimensionError):
            embedding_alignment_loss(aux, Tensor(rng.normal(size=(7, 4))), rows, w, fc)
        with pytest.raises(DimensionError):  # the rows and weights of one selection
            embedding_alignment_loss(aux, main, rows[:, :1], w, fc)
        with pytest.raises(IndexError):
            embedding_alignment_loss(aux, main, rows - 6, w, fc)

    def test_interior_table_rejected(self):
        # the tables take their rows after the pass, when an interior
        # node's closure would already have run
        rng = np.random.default_rng(31)
        aux, main, rows, w, fc = eal_inputs(rng, 6, 2, 2, 2, 4)
        with pytest.raises(ValueError, match="leaf"):
            embedding_alignment_loss(aux, main * 2.0, rows, w, fc)

    def test_shared_tensor_as_both_sides(self):
        rng = np.random.default_rng(22)
        e, _, rows, w, _ = eal_inputs(rng, 9, 4, 3, 4, 4)
        fc = Linear(4, 4, rng)
        fc.bias.data[:] = rng.normal(size=4)
        leaves = [e, w, fc.weight, fc.bias]
        fused = eal_value_and_grads(embedding_alignment_loss, e, e, rows, w, fc, leaves)
        composed = eal_value_and_grads(composed_embedding_alignment_loss, e, e, rows, w, fc,
                                       leaves)
        assert_close(fused[0], composed[0])
        for a, c in zip(fused[1], composed[1]):
            assert_close(a, c)
        assert grad_check(lambda: embedding_alignment_loss(e, e, rows, w, fc), leaves) < 1e-6

    @pytest.mark.parametrize("shared", [False, True])
    def test_prior_gradients_match_composed(self, shared):
        # every leaf already holds a gradient when the alignment loss hands
        # on its own: dense for the bias and the map, row-sparse over other
        # rows for a table
        rng = np.random.default_rng(24)
        aux, main, rows, w, fc = eal_inputs(rng, 10, 6, 3, 4 if shared else 2, 4)
        if shared:
            main = aux
        tables = [aux] if shared else [aux, main]
        leaves = tables + [w, fc.weight, fc.bias]
        prior = [rng.normal(size=t.shape) for t in leaves]

        def grads(eal):
            for t, p in zip(leaves, prior):
                t.grad = p.copy()
            aux.grad = RowGrad(np.array([0, 3, 8]), prior[0][[0, 3, 8]].copy(), 10)
            loss = eal(aux, main, rows, w, fc)
            loss.backward()
            return loss.data, [dense(t.grad) for t in leaves]

        fused, composed = grads(embedding_alignment_loss), grads(composed_embedding_alignment_loss)
        assert_close(fused[0], composed[0])
        for a, c in zip(fused[1], composed[1]):
            assert_close(a, c)

    @pytest.mark.parametrize("weights_first", [True, False])
    def test_interior_weights_with_or_without_a_prior(self, weights_first):
        # the weights are normalized scores read by a second consumer,
        # whose gradient reaches them before or after the alignment loss's
        rng = np.random.default_rng(25)
        aux, main, rows, _, fc = eal_inputs(rng, 12, 6, 3, 2, 4)
        raw = Tensor(rng.random((6, 3)) + 0.1, requires_grad=True)
        other = rng.normal(size=(6, 3))
        leaves = [aux, main, raw, fc.weight, fc.bias]
        seen = []

        def grads(eal):
            for t in leaves:
                t.grad = None
            w = raw / raw.sum(axis=1, keepdims=True)
            loss_eal = eal(aux, main, rows, w, fc)
            loss_other = (w * Tensor(other)).sum()
            eal_backward = loss_eal._backward

            def spy(g):
                seen.append(w.grad is not None)
                return eal_backward(g)

            loss_eal._backward = spy
            loss = loss_other + loss_eal if weights_first else loss_eal + loss_other
            loss.backward()
            return loss.data, [dense(t.grad) for t in leaves]

        fused, composed = grads(embedding_alignment_loss), grads(composed_embedding_alignment_loss)
        assert_close(fused[0], composed[0])
        for a, c in zip(fused[1], composed[1]):
            assert_close(a, c)
        assert seen == [weights_first, weights_first]  # both cases are reached

    @pytest.mark.parametrize("backbone", ["mlp", "dcn", "deepfm"])
    @pytest.mark.parametrize("with_pal", [True, False])
    def test_joint_loss_gradients_match_composed(self, backbone, with_pal):
        # the tables also feed both predictors through the lookups, whose
        # scatters the alignment loss's rows join
        pair = make_pair(seed=11, backbone=backbone)
        rng = np.random.default_rng(23)
        x = rng.integers(0, 4, size=(32, 6))
        y = rng.integers(0, 2, size=32).astype(float)
        params = [t for _, t in pair.named_params()]

        def grads(eal):
            for t in params:
                t.grad = None
            trace = aefs_trace(pair, x, training=True)
            loss = (bce(trace.aux_pred, y) + bce(trace.main_pred, y)
                    + eal(pair.aux_embeddings.weight, pair.main_embeddings.weight,
                          trace.rows, trace.weights, pair.align_fc))
            if with_pal:
                loss = loss + prediction_alignment_loss(trace.aux_pred, trace.main_pred)
            loss.backward()
            return loss.data, [dense(t.grad) for t in params]

        fused, composed = grads(embedding_alignment_loss), grads(composed_embedding_alignment_loss)
        assert_close(fused[0], composed[0])
        for (name, _), a, c in zip(pair.named_params(), fused[1], composed[1]):
            assert_close(a, c, name)

    # both predictors of a dcn pair read their embeddings, so both tables
    # are looked up; mlp predictors read their rows through `lookup_affine`,
    # whose rows, like the alignment loss's, join after the pass, so the
    # auxiliary lookup is the one left
    @pytest.mark.parametrize("backbone,lookups", [("dcn", 2), ("mlp", 1)])
    @pytest.mark.parametrize("with_pal", [True, False])
    def test_rows_merge_after_the_lookups_scatters(self, monkeypatch, with_pal, backbone,
                                                   lookups):
        # each lookup scatters into a table with no gradient yet, the fast
        # path; the alignment loss's rows then join the rows it touched
        priors = []
        scatter = aefs.embedding.scatter_rows

        def spy(table, ids, g):
            priors.append(table.grad)
            scatter(table, ids, g)

        monkeypatch.setattr(aefs.embedding, "scatter_rows", spy)
        pair = make_pair(seed=12, backbone=backbone)
        pair.enable_pal = with_pal
        rng = np.random.default_rng(33)
        x = rng.integers(0, 4, size=(16, 6))
        loss, terms, indices = pair.loss(x, rng.integers(0, 2, size=16).astype(float))
        loss.backward()
        assert terms["eal"] > 0 and priors == [None] * lookups
        rows = pair.main_embeddings.rows(x)
        selected = np.unique(rows[np.arange(16)[:, None], indices])
        np.testing.assert_array_equal(pair.main_embeddings.weight.grad.rows, selected)
        np.testing.assert_array_equal(pair.aux_embeddings.weight.grad.rows, np.unique(rows))

    def test_forms_no_array_of_the_lookups_size(self):
        # 32,768 lookups of 16 rows: a (B, k, d1) array would take 8 MiB
        rng = np.random.default_rng(32)
        aux, main, rows, w, fc = eal_inputs(rng, 16, 4096, 8, 4, 32)
        tracemalloc.start()
        try:
            loss = embedding_alignment_loss(aux, main, rows, w, fc)
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.size * 32 * 8 // 4
        assert isinstance(main.grad, RowGrad) and main.grad.shape == (16, 32)


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
