import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aefs import numerics
from aefs import predictors as predictors_mod
from aefs.numerics import (
    Adam,
    AdamState,
    DegenerateBatchError,
    DimensionError,
    Linear,
    RowGrad,
    Tensor,
    add_rows,
    affine,
    batch_moments,
    concat,
    distinct_rows,
    gather_fields,
    lookup_affine,
    lookup_normalized_affine,
    no_tape,
    normalized_affine,
    relu,
    scale_embeddings,
    sigmoid,
    softmax,
    scatter_rows,
    xavier_init,
)
from aefs.predictors import Controller, MLPPredictor, PredictorConfig
from oracles import adam_step, add_at_gather_fields, boolean_mask_sigmoid, \
    composed_lookup_affine, controller_scores, dense_scatter, embed_per_row, exp, grad_check, \
    reference_controller, same_bits, take_rows, use_reference_tape


def matmul_oracle(a, b):
    # independent triple-loop reference
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestAffine:
    def test_identity(self):
        y = affine(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
        assert np.array_equal(y.data, [[1.0, 2.0]])

    def test_hand_case(self):
        y = affine(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        assert y.data[0, 0] == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        y = affine(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(y.data, matmul_oracle(x, w) + b, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(DimensionError):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(5)))

    def test_backward_produces_all_three_grads(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        affine(x, w, b).sum().backward()
        assert x.grad is not None and w.grad is not None and b.grad is not None
        np.testing.assert_allclose(b.grad, [3.0, 3.0])


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_monotone(self):
        zs = np.linspace(-20, 20, 101)
        vals = sigmoid(zs)
        assert np.all(np.diff(vals) > 0)

    def test_sigmoid_nan_rejected(self):
        with pytest.raises(ValueError):
            sigmoid(float("nan"))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3)

    def test_softmax_large_logits_no_overflow(self):
        s = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(s).all()
        assert s[0] > 1 - 1e-12 and s[1] < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_softmax_sums_to_one_and_shift_invariant(self, logits, shift):
        v = np.array(logits)
        s = softmax(v)
        assert abs(s.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(s, softmax(v + shift), atol=1e-9)


TINY = np.finfo(np.float64).smallest_subnormal
EDGES = np.array([0.0, -0.0, np.inf, -np.inf, TINY, -TINY, 3 * TINY, -1e-310, 2.2e-308,
                  -2.2e-308, 1e-17, -1e-17, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
                  1e300, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max])


class TestSigmoidMatchesReference:
    @pytest.mark.parametrize("z", [
        EDGES, EDGES[::-1].copy(), EDGES[:1], EDGES[1:4],
        np.random.default_rng(0).normal(scale=30.0, size=101),
        np.random.default_rng(1).normal(scale=1e-300, size=7),
        EDGES.reshape(2, 11), EDGES[:21].reshape(3, 7)[:, ::2],
    ], ids=["edges", "reversed", "one", "three", "normal-101", "subnormal-7", "2-d",
            "strided"])
    def test_bit_for_bit(self, z):
        expected = boolean_mask_sigmoid(z)
        assert same_bits(numerics._sigmoid_stable(z), expected)
        assert same_bits(sigmoid(z), expected)
        assert same_bits(sigmoid(Tensor(z)).data, expected)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=33))
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit_on_any_floats(self, values):
        z = np.array(values)
        assert same_bits(numerics._sigmoid_stable(z), boolean_mask_sigmoid(z))

    def test_scalar_and_zero_dim(self):
        for v in (0.0, -0.0, 3.5, -3.5, np.inf, -np.inf):
            assert sigmoid(v) == float(boolean_mask_sigmoid(np.array([v]))[0])
            assert same_bits(sigmoid(np.array(v)), boolean_mask_sigmoid(np.array([v]))[0])


class TestNoTape:
    @staticmethod
    def ops(w):
        """A graph over leaf `w` of shape (4, 3) through several op kinds."""
        h = relu(affine(w, Tensor(np.ones((3, 2))), Tensor(np.zeros(2))))
        g = gather_fields(softmax(batch_norm(h, training=True)), np.array([[1], [0], [1], [0]]))
        return [h, g, sigmoid(g), (h * 2.0 - 1.0).sum(), concat([h, h], axis=1)]

    def test_tensors_made_inside_record_nothing(self):
        w = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with no_tape():
            made = self.ops(w)
        for t in made:
            assert (t.requires_grad, t._parents, t._backward) == (False, (), None)
        assert all(t.requires_grad and t._backward is not None for t in self.ops(w))

    def test_values_equal_taped(self):
        w = Tensor(np.random.default_rng(2).normal(size=(4, 3)), requires_grad=True)
        with no_tape():
            untaped = self.ops(w)
        for a, b in zip(untaped, self.ops(w)):
            assert same_bits(a.data, b.data)

    def test_leaf_asked_for_gradient_keeps_it(self):
        with no_tape():
            t = Tensor(np.ones(3), requires_grad=True)
        assert t.requires_grad

    def test_restored_after_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with no_tape():
                1 / 0
        assert numerics._taping is True
        assert (w * 2.0).requires_grad

    def test_nested_scopes(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_tape():
            with no_tape():
                assert not (w * 2.0).requires_grad
            assert not (w * 2.0).requires_grad
            with pytest.raises(KeyError):
                with no_tape():
                    raise KeyError("inner")
            assert numerics._taping is False
        assert numerics._taping is True
        assert (w * 2.0).requires_grad


def distinct_indices(rng, b, n, k):
    return np.argsort(rng.random((b, n)), axis=1)[:, :k]


class TestGatherFields:
    @pytest.mark.parametrize("shape,k", [((5, 6), 3), ((5, 6), 6), ((7, 6, 4), 2),
                                         ((1, 3, 2), 1), ((4, 9), 0), ((2048, 16, 4), 8)])
    def test_matches_add_at_reference(self, shape, k):
        """Forward and gradient bit for bit, with and without a gradient
        already in `x` when the gather's backward runs; a concat's gradient
        is a strided view of its upstream gradient, which the gather's flat
        positions cannot address in place."""
        rng = np.random.default_rng(k)
        idx = distinct_indices(rng, shape[0], shape[1], k)
        c = rng.normal(size=(shape[0], k) + shape[2:])
        d = rng.normal(size=shape)
        e = rng.normal(size=(shape[0], 2 * shape[1]) + shape[2:])
        for prior in (None, "product", "concat"):
            grads = []
            for gather in (gather_fields, add_at_gather_fields):
                x = Tensor(np.random.default_rng(9).normal(size=shape), requires_grad=True)
                out = gather(x, idx)
                loss = (out * c).sum()
                # a second consumer of x, whose gradient lands first
                if prior == "product":
                    loss = (x * d).sum() + loss
                elif prior == "concat":
                    loss = (concat([x, x], axis=1) * e).sum() + loss
                loss.backward()
                grads.append((out.data, x.grad))
            assert same_bits(grads[0][0], grads[1][0])
            assert same_bits(grads[0][1], grads[1][1])


def batch_norm(x, gamma=None, beta=None, training=True, running=None, eps=1e-5):
    """Batch normalization alone: `normalized_affine` through the identity
    map, with the batch's moments or the `running` (mean, var)."""
    width = x.shape[1]
    gamma = Tensor(np.ones(width)) if gamma is None else gamma
    beta = Tensor(np.zeros(width)) if beta is None else beta
    mean, var = batch_moments(x.data) if training else running
    return normalized_affine(x, gamma, beta, Tensor(np.eye(width)), Tensor(np.zeros(width)),
                             mean, np.sqrt(var + eps), batch_stats=training)


class TestBatchNorm:
    def test_constant_column_zeroed_before_affine(self):
        x = Tensor(np.column_stack([np.full(5, 3.0), np.arange(5.0)]))
        y = batch_norm(x)
        np.testing.assert_allclose(y.data[:, 0], 0.0, atol=1e-12)

    def test_standardized_column_unchanged(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=64)
        col = (col - col.mean()) / col.std()
        y = batch_norm(Tensor(col[:, None]))
        np.testing.assert_allclose(y.data[:, 0], col, atol=1e-4)

    def test_output_moments_match_gamma_beta(self):
        rng = np.random.default_rng(6)
        gamma, beta = Tensor(np.array([2.0, 0.5, 1.5])), Tensor(np.array([1.0, -1.0, 0.0]))
        y = batch_norm(Tensor(rng.normal(5.0, 3.0, size=(512, 3))), gamma, beta)
        np.testing.assert_allclose(y.data.mean(axis=0), beta.data, atol=1e-5)
        np.testing.assert_allclose(y.data.std(axis=0), gamma.data, atol=1e-3)

    def test_batch_of_one_rejected_in_training(self):
        with pytest.raises(DegenerateBatchError):
            batch_moments(np.ones((1, 2)))

    def test_inference_uses_running_stats(self):
        y = batch_norm(Tensor([[12.0]]), training=False,
                       running=(np.array([10.0]), np.array([4.0])))
        np.testing.assert_allclose(y.data[0, 0], 2.0 / np.sqrt(4.0 + 1e-5), atol=1e-12)

    def test_moments_are_numpy_mean_and_var(self):
        x = np.random.default_rng(4).normal(2.0, 3.0, size=(50, 7))
        mean, var = batch_moments(x)
        assert same_bits(mean, x.mean(axis=0)) and same_bits(var, x.var(axis=0))

    def test_training_backward_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.1, size=3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        coeff = rng.normal(size=(6, 3))

        def loss():
            return (batch_norm(x, gamma, beta) * coeff).sum()

        err = grad_check(loss, [x, gamma, beta], eps=1e-6)
        assert err < 1e-6


def assert_close(got, want, rtol, name):
    """Each entry within `rtol` of the largest magnitude in `want`."""
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rtol * scale, name


class TestBatchNormMatchesReference:
    """The controller's folded batch norm and affine map against the
    textbook composition (`reference_controller`: batch norm through
    np.mean and np.var, affine, softmax, each a node of its own). Scores and
    the five gradients agree to rounding; the running statistics bit for
    bit."""

    @pytest.mark.parametrize("rows", [64, 50])
    @pytest.mark.parametrize("training", [True, False])
    def test_forward_running_stats_and_grads(self, training, rows):
        rng = np.random.default_rng(12)
        x_val = rng.normal(2.0, 3.0, size=(rows, 4, 3))
        upstream = rng.normal(size=(rows, 4))
        gamma, beta = rng.normal(1.0, 0.2, size=12), rng.normal(size=12)
        mean, var = rng.normal(size=12), rng.uniform(0.5, 2.0, size=12)
        bias = rng.normal(size=4)

        def run(call):
            c = Controller(4, 3, np.random.default_rng(3))
            c.gamma.data[:], c.beta.data[:], c.fc.bias.data[:] = gamma, beta, bias
            c.running_mean, c.running_var = mean.copy(), var.copy()
            x = Tensor(x_val.copy(), requires_grad=True)
            y = call(c, x, training)
            (y * Tensor(upstream)).sum().backward()
            return [y.data, c.running_mean, c.running_var, x.grad, c.gamma.grad, c.beta.grad,
                    c.fc.weight.grad, c.fc.bias.grad]

        folded, ref = run(controller_scores), run(reference_controller)
        names = ["scores", "running_mean", "running_var", "x.grad", "gamma.grad", "beta.grad",
                 "weight.grad", "bias.grad"]
        for name, a, b in zip(names, folded, ref):
            if name.startswith("running"):
                assert same_bits(a, b), name
            else:
                assert_close(a, b, 1e-12, name)


# Graphs where one gradient buffer could reach two owners: a tensor used
# twice by one op, one tensor feeding two consumers, a reshape view whose
# parent also gets a second gradient, the pieces of a concat, and a sum's
# read-only broadcast gradient next to a second gradient.
_K = np.random.default_rng(13).normal(size=(3, 3, 12))


def _two_consumers(x, w, b):
    h = x @ w
    return (relu(h) * _K[0, :, :4]).sum() + (sigmoid(h) * _K[1, :, :4]).sum()


def _reshape_and_second_gradient(x, w, b):
    h = x * b  # interior, (3, 4)
    return ((h.reshape(4, 3) * _K[0, :, :4].T).sum() + (exp(h) * _K[1, :, :4]).sum()
            + (x.reshape(12) * _K[2, 0]).sum())


def _concat_pieces(x, w, b):
    h = x @ w
    return (concat([h, x, h], axis=1) * _K[0]).sum() + (h * _K[1, :, :4]).sum()


HAND_OVER_GRAPHS = {
    "x_plus_x": lambda x, w, b: ((x + x) * _K[0, :, :4]).sum(),
    "x_minus_x": lambda x, w, b: ((x - x) * _K[0, :, :4]).sum() + (x * _K[1, :, :4]).sum(),
    "x_times_x": lambda x, w, b: ((x * x) * _K[0, :, :4]).sum(),
    "add_of_two_owners": lambda x, w, b: ((x + x @ w) * _K[0, :, :4]
                                          + (x @ w + x) * _K[1, :, :4]).sum(),
    "add_and_sub_broadcast": lambda x, w, b: (((x @ w + b) - b) * _K[0, :, :4]
                                              + (x - x @ w) * _K[1, :, :4]).sum(),
    "sum_and_second_gradient": lambda x, w, b: ((x.sum(axis=0) * _K[0, 0, :4]).sum()
                                                + (x * _K[1, :, :4]).sum()
                                                + (x.sum(axis=1) * _K[2, 0, :3]).sum()),
    "two_consumers": _two_consumers,
    "reshape_and_second_gradient": _reshape_and_second_gradient,
    "concat_pieces": _concat_pieces,
}


def _leaves():
    rng = np.random.default_rng(14)
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((3, 4), (4, 4), (4,))]


def _graph_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestGradientHandOver:
    """Interior gradient buffers are passed to a parent without a copy."""

    @pytest.mark.parametrize("graph", sorted(HAND_OVER_GRAPHS))
    def test_leaf_grads_match_copying_tape(self, graph, monkeypatch):
        build, leaves = HAND_OVER_GRAPHS[graph], _leaves()
        build(*leaves).backward()
        fast = [p.grad for p in leaves]
        used = [g for g in fast if g is not None]
        assert used
        # no two leaves own one buffer
        for i, g in enumerate(used):
            assert not any(np.shares_memory(g, h) for h in used[i + 1:])
        for p in leaves:
            p.grad = None
        use_reference_tape(monkeypatch)
        build(*leaves).backward()
        for p, g in zip(leaves, fast):
            assert (g is None and p.grad is None) or same_bits(g, p.grad)

    @pytest.mark.parametrize("graph", sorted(HAND_OVER_GRAPHS))
    def test_grad_check(self, graph):
        build, leaves = HAND_OVER_GRAPHS[graph], _leaves()
        assert grad_check(lambda: build(*leaves), leaves, eps=1e-6) < 1e-6

    @pytest.mark.parametrize("graph", sorted(HAND_OVER_GRAPHS))
    def test_interior_grads_released_leaves_kept(self, graph):
        build, leaves = HAND_OVER_GRAPHS[graph], _leaves()
        loss = build(*leaves)
        loss.backward()
        nodes = _graph_nodes(loss)
        assert sum(node._backward is not None for node in nodes) >= 3
        for node in nodes:
            if node._backward is not None:
                assert node.grad is None
            elif node.requires_grad:
                assert node.grad is not None


def adam_on(values, **kw):
    p = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
    return p, Adam([p], **kw)


class TestAdam:
    def test_zero_grad_is_identity(self):
        p, opt = adam_on([[1.0, -2.0]])
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])

    def test_first_step_closed_form(self):
        p, opt = adam_on([[1.0]], lr=1e-3)
        p.grad = np.array([[1.0]])
        opt.step()
        # lr * g / (|g| + eps) on the first bias-corrected step
        expected = 1.0 - 1e-3 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data[0, 0], expected, rtol=1e-12)

    def test_three_steps_descend_quadratic(self):
        x, opt = adam_on([[1.0]], lr=0.05)
        vals = []
        for _ in range(3):
            vals.append(x.data[0, 0] ** 2)
            x.grad = 2.0 * x.data
            opt.step()
        vals.append(x.data[0, 0] ** 2)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_shape_mismatch(self):
        p, opt = adam_on(np.ones((2, 2)))
        p.grad = np.ones((2, 3))
        with pytest.raises(DimensionError):
            opt.step()
        p.grad = RowGrad(np.array([0]), np.ones((1, 3)), 2)
        with pytest.raises(DimensionError):
            opt.step()

    def test_optimizer_skips_params_without_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        (a * a).sum().backward()
        opt.step()
        assert not np.array_equal(a.data, np.ones((2, 2)))
        np.testing.assert_array_equal(b.data, np.ones((2, 2)))


class TestAdamMatchesReference:
    """Adam.step against the allocating reference formula, bit for bit."""

    STEPS = 40

    def twin(self, shape, seed=0, **kw):
        init = np.random.default_rng(seed).normal(size=shape)
        p, opt = adam_on(init, **kw)
        return p, opt, init, AdamState.for_param(init, **kw)

    def test_dense_gradient(self):
        rng = np.random.default_rng(1)
        p, opt, ref, ref_state = self.twin((6, 3), lr=0.01)
        for step in range(self.STEPS):
            g = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-6, 3)
            g[rng.random(g.shape) < 0.3] = 0.0
            p.grad = g.copy()
            opt.step()
            adam_step(ref, g, ref_state)
            assert same_bits(p.data, ref), f"step {step + 1}"
            assert same_bits(opt.states[0].m, ref_state.m)
            assert same_bits(opt.states[0].v, ref_state.v)

    def test_row_gradient_with_long_untouched_rows(self):
        rng = np.random.default_rng(2)
        n, d = 50, 4
        p, opt, ref, ref_state = self.twin((n, d), lr=0.02)
        for step in range(self.STEPS):
            # rows 0-9 every step; row 45 at steps 1 and 35 only; 10-44 never
            ids = rng.integers(0, 10, size=12)
            if step in (0, 34):
                ids = np.append(ids, 45)
            g = rng.normal(size=(ids.size, d))
            dense = Tensor(np.zeros((n, d)), requires_grad=True)
            dense_scatter(dense, ids, g)
            p.grad = None
            scatter_rows(p, ids, g)
            assert isinstance(p.grad, RowGrad)
            opt.step()
            adam_step(ref, dense.grad, ref_state)
            assert same_bits(p.data, ref), f"step {step + 1}"
            if step == 1:
                row_45 = p.data[45].copy()
            if step == 33:
                # untouched since step 1, its decaying moments still move it
                assert not np.array_equal(p.data[45], row_45)

    @pytest.mark.parametrize("shape", [(37, 3), (29,), (), (0, 3)])
    def test_blocked_sweep(self, monkeypatch, shape):
        # blocks of at most 8 entries: the table spans many blocks, and a
        # row gradient leaves some blocks untouched and fills others
        monkeypatch.setattr(numerics, "BLOCK_ELEMS", 8)
        rng = np.random.default_rng(4)
        p, opt, ref, ref_state = self.twin(shape, lr=0.01)
        assert opt._scratch[0].size <= 8
        for step in range(self.STEPS):
            if len(shape) == 2 and shape[0] and step % 2:
                ids = rng.choice([0, 1, 2, 5, 13, 14, 35, 36], size=9)
                g = rng.normal(size=(ids.size, shape[1]))
                dense = Tensor(np.zeros(shape), requires_grad=True)
                dense_scatter(dense, ids, g)
                p.grad = None
                scatter_rows(p, ids, g)
                assert isinstance(p.grad, RowGrad)
                grad = dense.grad
            else:
                grad = rng.normal(size=shape)
                p.grad = grad.copy()
            opt.step()
            adam_step(ref, grad, ref_state)
            assert same_bits(p.data, ref), f"step {step + 1}"
            assert same_bits(opt.states[0].m, ref_state.m)
            assert same_bits(opt.states[0].v, ref_state.v)

    def test_row_gradient_of_a_table_scattered_twice(self, monkeypatch):
        # one backward pass reaches the same table through two lookups
        import aefs.embedding as embedding_mod
        from aefs.embedding import EmbeddingSet
        rng = np.random.default_rng(3)
        vocab = [12, 9, 15]
        es = EmbeddingSet(vocab, 3, np.random.default_rng(0))
        opt = Adam([es.weight], lr=0.01)
        ref = es.weight.data.copy()
        ref_state = AdamState.for_param(ref, lr=0.01)

        def gradient(x, idx, c_all, c_sel):
            es.weight.grad = None
            ((es.embed(x) * Tensor(c_all)).sum()
             + (embed_per_row(es, x, idx) * Tensor(c_sel)).sum()).backward()
            return es.weight.grad

        for step in range(self.STEPS):
            x = rng.integers(0, vocab, size=(5, 3))
            idx = np.argsort(rng.random((5, 3)), axis=1)[:, :2]
            upstream = (x, idx, rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 2, 3)))
            with monkeypatch.context() as m:
                m.setattr(embedding_mod, "scatter_rows", dense_scatter)
                dense = gradient(*upstream)
            rows = gradient(*upstream)
            assert isinstance(rows, RowGrad) and same_bits(rows.dense(), dense)
            opt.step()
            adam_step(ref, dense, ref_state)
            assert same_bits(es.weight.data, ref), f"step {step + 1}"


class TestRowGrad:
    def test_lookups_sum_like_dense_scatter(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(40, 5)), requires_grad=True)
        ids = np.concatenate([rng.integers(0, 40, size=200), [7] * 50])
        g = rng.normal(size=(ids.size, 5)) * 10.0 ** rng.integers(-8, 8, size=(ids.size, 1))
        dense = Tensor(w.data, requires_grad=True)
        dense_scatter(dense, ids, g)
        scatter_rows(w, ids, g)
        np.testing.assert_array_equal(w.grad.rows, np.unique(ids))
        assert w.grad.shape == (np.unique(ids).size, 5)
        assert same_bits(w.grad.dense(), dense.grad)

    def test_dense_term_after_lookup_densifies(self):
        rng = np.random.default_rng(5)
        ids, g = rng.integers(0, 8, size=20), rng.normal(size=(20, 2))
        upstream = rng.normal(size=(8, 2))
        w = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        ref = Tensor(w.data, requires_grad=True)
        scatter_rows(w, ids, g)
        dense_scatter(ref, ids, g)
        (w * Tensor(upstream)).sum().backward()
        ref.grad += upstream
        assert same_bits(w.grad, ref.grad)

    def test_lookup_after_dense_term_adds_in_order(self):
        rng = np.random.default_rng(6)
        ids, g = rng.integers(0, 8, size=20), rng.normal(size=(20, 2))
        upstream = rng.normal(size=(8, 2))
        w = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        ref = Tensor(w.data, requires_grad=True)
        w.grad, ref.grad = upstream.copy(), upstream.copy()
        scatter_rows(w, ids, g)
        dense_scatter(ref, ids, g)
        assert same_bits(w.grad.dense(), ref.grad)


class TestAddRows:
    """`add_rows` adds each row's term after the gradient already there, as
    a dense gradient taking ``grad[rows] += values`` would."""

    @pytest.mark.parametrize("prior", ["none", "covering", "partial", "dense"])
    def test_matches_dense_addition(self, prior):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
        rows, values = np.array([1, 4, 5, 9]), rng.normal(size=(4, 3))
        ref = np.zeros((12, 3))
        if prior == "dense":
            w.grad = rng.normal(size=(12, 3))
            ref = w.grad.copy()
        elif prior != "none":
            # rows 0, 4, 5 and 11, plus rows 1 and 9 when covering
            ids = rng.choice([0, 4, 5, 11], size=30)
            if prior == "covering":
                ids[:2] = [9, 1]
            g = rng.normal(size=(30, 3))
            scatter_rows(w, ids, g)
            t = Tensor(ref, requires_grad=True)
            dense_scatter(t, ids, g)
            ref = t.grad
            assert prior == "covering" or not np.isin(rows, w.grad.rows).all()
        add_rows(w, rows, values)
        ref[rows] += values
        grad = w.grad
        if prior == "dense":
            assert grad is ref or same_bits(grad, ref)
        else:
            assert isinstance(grad, RowGrad) and same_bits(grad.dense(), ref)

    def test_distinct_rows(self):
        ids = np.array([7, 2, 7, 0, 2, 2])
        rows, at = distinct_rows(ids, 9)
        np.testing.assert_array_equal(rows, [0, 2, 7])
        np.testing.assert_array_equal(rows[at], ids)


class TestDeferredBackward:
    def test_returned_function_runs_after_every_closure(self):
        # the first closure to run returns a function; the pass calls it
        # once the other closures have run, and only then
        order = []
        x = Tensor(np.ones(2), requires_grad=True)
        inner = x * 2.0
        real = inner._backward

        def inner_bw(g):
            order.append("inner")
            real(g)

        inner._backward = inner_bw

        def outer_bw(g):
            order.append("outer")
            numerics._accum(inner, np.full(inner.shape, g), owned=True)
            return lambda: order.append("deferred")

        outer = Tensor(inner.data.sum(), parents=(inner,), backward=outer_bw)
        outer.backward()
        assert order == ["outer", "inner", "deferred"]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def lookup_affine_inputs(rng, t, d, b, n, h, weighted=True):
    """A (t, d) table, (b, n) rows of it, their weights (or None) and an
    (n * d, h) affine map, every operand a leaf that takes a gradient."""
    table = Tensor(rng.normal(size=(t, d)), requires_grad=True)
    rows = rng.integers(0, t, size=(b, n))
    weights = Tensor(rng.random((b, n)), requires_grad=True) if weighted else None
    lin = Linear(n * d, h, rng)
    lin.bias.data[:] = rng.normal(size=h)
    return table, rows, weights, lin


def lookup_affine_value_and_grads(node, table, rows, weights, lin, upstream):
    """The value of `node` and the gradients of its sum against `upstream`
    for the table (dense), the map, the bias and the weights."""
    params = [table, lin.weight, lin.bias] + ([weights] if weights is not None else [])
    for p in params:
        p.grad = None
    out = node(table, rows, weights, lin)
    (out * Tensor(upstream)).sum().backward()
    return [out.data] + [p.grad.dense() if isinstance(p.grad, RowGrad) else p.grad
                         for p in params]


class TestLookupAffine:
    """`lookup_affine` against the lookup, weighting, reshape and affine
    map it replaces (`composed_lookup_affine`), to rounding; and the mlp
    predictor's choice between the two."""

    # row 2 twice in column 0 and again in column 1; row 4 in every column
    ROWS = np.array([[2, 4, 0], [2, 2, 4], [4, 0, 4], [1, 4, 3], [2, 2, 4]])

    # the node takes any widths: d = 1 against h = 4 is narrower than the
    # rows `MLPPredictor.from_rows` sends it
    @pytest.mark.parametrize("d,h", [(3, 2), (1, 4)])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_gradients_match_finite_differences(self, weighted, d, h):
        rng = np.random.default_rng(5)
        table, _, weights, lin = lookup_affine_inputs(rng, 5, d, 5, 3, h, weighted)
        rows = self.ROWS
        if weighted:
            weights.data[:] = rng.normal(size=rows.shape)

        def loss():
            out = lookup_affine(table, rows, weights, lin)
            return (out * out).sum()

        params = [table, lin.weight, lin.bias] + ([weights] if weighted else [])
        assert grad_check(loss, params) < 1e-8
        loss().backward()
        assert isinstance(table.grad, RowGrad)
        np.testing.assert_array_equal(table.grad.rows, [0, 1, 2, 3, 4])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 4), st.integers(1, 12),
           st.integers(1, 4), st.integers(1, 5), st.booleans())
    def test_equals_composition(self, seed, t, d, b, n, h, weighted):
        rng = np.random.default_rng(seed)
        table, rows, weights, lin = lookup_affine_inputs(rng, t, d, b, n, h, weighted)
        upstream = rng.normal(size=(b, h))
        node = lookup_affine_value_and_grads(lookup_affine, table, rows, weights, lin,
                                             upstream)
        composed = lookup_affine_value_and_grads(composed_lookup_affine, table, rows, weights,
                                                 lin, upstream)
        for got, want in zip(node, composed):
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("d,h", [(8, 5), (2, 5)])
    def test_from_rows_composes_unless_training_wide_rows(self, weighted, d, h, monkeypatch):
        # scoring, without the tape or on it, and training with 2 * d < h are
        # bit for bit `__call__` on the weighted embeddings; training on wider
        # rows calls the node, which ends up within rounding of the same
        rng = np.random.default_rng(9)
        table, rows, weights, _ = lookup_affine_inputs(rng, 40, d, 64, 6, h, weighted)
        mlp = MLPPredictor(PredictorConfig("mlp", 6, d, (h, 3)), rng)
        lin = mlp.tower.layers[0]
        lin.bias.data[:] = rng.normal(size=h)
        calls = []

        def node(*args):
            calls.append(args)
            return lookup_affine(*args)

        monkeypatch.setattr(predictors_mod, "lookup_affine", node)

        def from_rows(training):
            return lambda table, rows, weights, lin: mlp.from_rows(
                table, rows, weights, training, lambda: take_rows(table, rows))

        def composed(table, rows, weights, lin):
            e = take_rows(table, rows)
            return mlp(e if weights is None else scale_embeddings(e, weights))

        with no_tape():
            untaped = from_rows(False)(table, rows, weights, lin)
            want = composed(table, rows, weights, lin)
        assert not untaped.requires_grad and same_bits(untaped.data, want.data)
        upstream = rng.normal(size=64)
        taped = lookup_affine_value_and_grads(composed, table, rows, weights, lin, upstream)
        scoring = lookup_affine_value_and_grads(from_rows(False), table, rows, weights, lin,
                                                upstream)
        assert not calls and all(same_bits(a, b) for a, b in zip(scoring, taped))
        training = lookup_affine_value_and_grads(from_rows(True), table, rows, weights, lin,
                                                 upstream)
        assert len(calls) == (2 * d >= h)
        for got, want in zip(training, taped):
            if calls:
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
            else:
                assert same_bits(got, want)

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(13)
        table, rows, weights, lin = lookup_affine_inputs(rng, 6, 2, 8, 3, 4)
        table.requires_grad = weights.requires_grad = False
        lookup_affine(table, rows, weights, lin).sum().backward()
        assert table.grad is None and weights.grad is None
        assert lin.weight.grad is not None and lin.bias.grad is not None

    def test_rejects_bad_operands(self):
        rng = np.random.default_rng(17)
        table, rows, weights, lin = lookup_affine_inputs(rng, 6, 2, 8, 3, 4)
        with pytest.raises(DimensionError):
            lookup_affine(table, rows[:, :2], weights, lin)
        with pytest.raises(DimensionError):
            lookup_affine(table, rows, Tensor(np.ones((8, 2))), lin)
        with pytest.raises(DimensionError):
            lookup_affine(table, rows.reshape(-1), None, lin)
        for bad in (-1, 6):
            out_of_range = rows.copy()
            out_of_range[3, 1] = bad
            with pytest.raises(IndexError, match="row out of range"):
                lookup_affine(table, out_of_range, weights, lin)
        with pytest.raises(ValueError, match="must be a leaf"):
            lookup_affine(table * 1.0, rows, weights, lin)

    def test_forms_no_array_of_the_lookups_size(self):
        # 32,768 lookups of 16 rows at d = 32: a (B, n * d) array takes 8 MiB
        rng = np.random.default_rng(19)
        table, rows, weights, lin = lookup_affine_inputs(rng, 16, 32, 4096, 8, 4)
        tracemalloc.start()
        try:
            lookup_affine(table, rows, weights, lin).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.size * 32 * 8 // 2
        assert isinstance(table.grad, RowGrad) and table.grad.shape == (16, 32)


def normalized_affine_inputs(rng, t, d, n, h):
    """A (t, d) table, (n * d,) scale and shift and an (n * d, h) map,
    every operand a leaf that takes a gradient."""
    table = Tensor(rng.normal(size=(t, d)), requires_grad=True)
    gamma = Tensor(rng.normal(1.0, 0.2, size=n * d), requires_grad=True)
    beta = Tensor(rng.normal(size=n * d), requires_grad=True)
    lin = Linear(n * d, h, rng)
    lin.bias.data[:] = rng.normal(size=h)
    return table, gamma, beta, lin


def over_a_lookup(table, rows, gamma, beta, lin, eps):
    """`lookup_normalized_affine` as the lookup, reshape, `batch_moments`
    and `normalized_affine` it replaces."""
    b, n = rows.shape
    x = take_rows(table, rows).reshape(b, n * table.shape[1])
    mean, var = batch_moments(x.data)
    out = normalized_affine(x, gamma, beta, lin.weight, lin.bias, mean, np.sqrt(var + eps),
                            batch_stats=True)
    return out, mean, var


def normalized_value_and_grads(node, table, rows, gamma, beta, lin, upstream):
    """Output, moments and the five gradients of the sum against `upstream`."""
    params = [table, gamma, beta, lin.weight, lin.bias]
    for p in params:
        p.grad = None
    out, mean, var = node(table, rows, gamma, beta, lin, 1e-5)
    (out * Tensor(upstream)).sum().backward()
    return [out.data, mean, var] + [p.grad.dense() if isinstance(p.grad, RowGrad) else p.grad
                                    for p in params]


class TestLookupNormalizedAffine:
    """`lookup_normalized_affine` against the lookup, batch moments and
    `normalized_affine` it replaces (`over_a_lookup`), to rounding."""

    NAMES = ["out", "mean", "var", "table", "gamma", "beta", "weight", "bias"]

    @pytest.mark.parametrize("rows", [
        # row 2 twice in column 0 and again in column 1; row 4 in every column
        np.array([[2, 4, 0], [2, 2, 4], [4, 0, 4], [1, 4, 3], [2, 2, 4]]),
        # every row read once
        np.arange(15).reshape(5, 3)])
    def test_matches_normalized_affine_over_a_lookup(self, rows):
        rng = np.random.default_rng(23)
        table, gamma, beta, lin = normalized_affine_inputs(rng, 15, 4, 3, 5)
        upstream = rng.normal(size=(5, 5))
        node = normalized_value_and_grads(lookup_normalized_affine, table, rows, gamma, beta,
                                          lin, upstream)
        want = normalized_value_and_grads(over_a_lookup, table, rows, gamma, beta, lin, upstream)
        for name, a, b in zip(self.NAMES, node, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max(), err_msg=name)
        assert isinstance(table.grad, RowGrad)
        np.testing.assert_array_equal(table.grad.rows, np.unique(rows))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 4), st.integers(2, 12),
           st.integers(1, 4), st.integers(1, 5))
    def test_equals_composition(self, seed, t, d, b, n, h):
        rng = np.random.default_rng(seed)
        table, gamma, beta, lin = normalized_affine_inputs(rng, t, d, n, h)
        rows = rng.integers(0, t, size=(b, n))
        upstream = rng.normal(size=(b, h))
        node = normalized_value_and_grads(lookup_normalized_affine, table, rows, gamma, beta,
                                          lin, upstream)
        want = normalized_value_and_grads(over_a_lookup, table, rows, gamma, beta, lin, upstream)
        for name, a, b in zip(self.NAMES, node, want):
            # a column that reads one row has zero variance: its normalized
            # values are rounding noise over eps, in either computation
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * max(np.abs(b).max(), 1.0),
                                       err_msg=name)

    def test_batch_of_one_and_interior_table_rejected(self):
        rng = np.random.default_rng(29)
        table, gamma, beta, lin = normalized_affine_inputs(rng, 6, 2, 3, 4)
        with pytest.raises(DegenerateBatchError):
            lookup_normalized_affine(table, np.array([[0, 1, 2]]), gamma, beta, lin, 1e-5)
        with pytest.raises(ValueError, match="must be a leaf"):
            lookup_normalized_affine(table * 1.0, np.array([[0, 1, 2], [3, 4, 5]]), gamma, beta,
                                     lin, 1e-5)
        with pytest.raises(DimensionError):
            lookup_normalized_affine(table, np.array([[0, 1], [3, 4]]), gamma, beta, lin, 1e-5)

    def test_forms_no_array_of_the_lookups_size(self):
        # 32,768 lookups of 16 rows at d = 32: a (B, n * d) array takes 8 MiB
        rng = np.random.default_rng(31)
        table, gamma, beta, lin = normalized_affine_inputs(rng, 16, 32, 8, 8)
        rows = rng.integers(0, 16, size=(4096, 8))
        tracemalloc.start()
        try:
            out, _, _ = lookup_normalized_affine(table, rows, gamma, beta, lin, 1e-5)
            out.sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.size * 32 * 8 // 2
        assert isinstance(table.grad, RowGrad) and table.grad.shape == (16, 32)


class TestXavier:
    def test_same_seed_identical(self):
        np.testing.assert_array_equal(xavier_init(8, 8, 42), xavier_init(8, 8, 42))

    def test_support_bound(self):
        w = xavier_init(20, 30, 1)
        bound = np.sqrt(6.0 / 50.0)
        assert np.all(np.abs(w) <= bound)

    def test_empirical_variance(self):
        w = xavier_init(1000, 1000, 9)
        target = 2.0 / 2000.0
        assert abs(w.var() - target) / target < 0.2

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            xavier_init(0, 3, 1)

    @pytest.mark.parametrize("rows, cols", [(2, 2**62), (2**31, 2**29), (3, 10**400)])
    def test_shape_past_the_address_space_is_a_memory_error(self, rows, cols):
        # numpy itself would refuse the first two with a ValueError, and the
        # float bound of the third would overflow; nothing is allocated
        with pytest.raises(MemoryError, match=f"a {rows} x {cols} array of doubles"):
            xavier_init(rows, cols, 1)


class TestGradCheck:
    def test_quadratic_is_tight(self):
        p = Tensor(np.array([[1.5, -0.5]]), requires_grad=True)

        def loss():
            return (p * p).sum()

        assert grad_check(loss, [p], eps=1e-5) < 1e-8

    def test_detects_corrupted_gradient(self):
        p = Tensor(np.array([[1.5]]), requires_grad=True)

        def bad_loss():
            out = (p * p).sum()
            real_bw = out._backward

            def corrupted(g):
                real_bw(g * 3.0)

            out._backward = corrupted
            return out

        assert grad_check(bad_loss, [p], eps=1e-5) > 0.1

    def test_composite_graph(self):
        rng = np.random.default_rng(11)
        lin = Linear(4, 3, seed=2)
        x = Tensor(rng.normal(size=(5, 4)))

        def loss():
            from aefs.numerics import relu
            h = relu(lin(x))
            return (h * h).mean()

        assert grad_check(loss, [lin.weight, lin.bias]) < 1e-8


class TestDeterminism:
    def test_linear_init_reproducible(self):
        a, b = Linear(6, 4, seed=77), Linear(6, 4, seed=77)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
