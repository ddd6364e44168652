import numpy as np
import pytest

from aefs.numerics import DimensionError, Tensor
from aefs.predictors import (
    Controller,
    DCNPredictor,
    DeepFMPredictor,
    MLPPredictor,
    PredictorConfig,
    bce,
    build_predictor,
    fm_pairwise_interaction,
)
from oracles import controller_scores, grad_check


def rng():
    return np.random.default_rng(42)


def toy_config(variant, fields=4, dim=3):
    return PredictorConfig(variant=variant, input_fields=fields, emb_dim=dim,
                           hidden_dims=(5,), n_cross_layers=2)


def fm_brute_force(e):
    # independent O(F^2) pairwise oracle
    b, f, _ = e.shape
    out = np.zeros(b)
    for i in range(b):
        for p in range(f):
            for q in range(p + 1, f):
                out[i] += float(e[i, p] @ e[i, q])
    return out


class TestMLP:
    def test_zero_weights_give_half(self):
        m = MLPPredictor(toy_config("mlp"), rng())
        for _, p in m.named_params():
            p.data[:] = 0.0
        out = m(Tensor(np.ones((3, 4, 3))))
        np.testing.assert_allclose(out.data, 0.5)

    def test_dimension_check(self):
        m = MLPPredictor(toy_config("mlp"), rng())
        with pytest.raises(DimensionError):
            m(Tensor(np.ones((3, 5, 3))))

    def test_grad_check(self):
        m = MLPPredictor(toy_config("mlp"), rng())
        e = Tensor(np.random.default_rng(1).normal(size=(4, 4, 3)))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        params = [t for _, t in m.named_params()]
        assert grad_check(lambda: bce(m(e), y), params) < 1e-3


class TestDeepFM:
    def test_fm_orthogonal_one_hot_fields_contribute_zero(self):
        e = np.zeros((1, 3, 3))
        for f in range(3):
            e[0, f, f] = 2.0
        np.testing.assert_allclose(fm_pairwise_interaction(Tensor(e)).data, 0.0, atol=1e-12)

    def test_fm_matches_brute_force(self):
        e = np.random.default_rng(2).normal(size=(6, 5, 4))
        got = fm_pairwise_interaction(Tensor(e)).data
        np.testing.assert_allclose(got, fm_brute_force(e), atol=1e-10)

    def test_grad_check(self):
        m = DeepFMPredictor(toy_config("deepfm"), rng())
        e = Tensor(np.random.default_rng(3).normal(size=(4, 4, 3)))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        params = [t for _, t in m.named_params()]
        assert grad_check(lambda: bce(m(e), y), params) < 1e-3


class TestDCN:
    def test_single_cross_layer_with_zero_weight_collapses(self):
        cfg = PredictorConfig("dcn", input_fields=2, emb_dim=2,
                              hidden_dims=(4,), n_cross_layers=1)
        m = DCNPredictor(cfg, rng())
        layer = m.cross[0]
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = [1.0, -1.0, 0.5, 0.0]
        x0 = Tensor(np.array([[2.0, 3.0, -1.0, 0.5]]))
        out = layer(x0, x0)
        np.testing.assert_allclose(out.data, x0.data + layer.bias.data)

    def test_grad_check(self):
        m = DCNPredictor(toy_config("dcn"), rng())
        e = Tensor(np.random.default_rng(4).normal(size=(4, 4, 3)))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        params = [t for _, t in m.named_params()]
        assert grad_check(lambda: bce(m(e), y), params) < 1e-3


class TestBuild:
    def test_all_variants(self):
        for variant in ("mlp", "deepfm", "dcn"):
            m = build_predictor(toy_config(variant), rng())
            out = m(Tensor(np.random.default_rng(5).normal(size=(2, 4, 3))))
            assert out.shape == (2,)
            assert np.all((out.data > 0) & (out.data < 1))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            PredictorConfig("transformer", 4, 3)


class TestController:
    def test_symmetric_inputs_give_uniform_scores(self):
        c = Controller(n_fields=5, emb_dim=2, rng=rng())
        c.fc.weight.data[:] = 0.0
        scores = controller_scores(c, Tensor(np.random.default_rng(6).normal(size=(4, 5, 2))),
                                   training=True)
        np.testing.assert_allclose(scores.data, 0.2)

    def test_scores_sum_to_one(self):
        c = Controller(n_fields=6, emb_dim=3, rng=rng())
        scores = controller_scores(c, Tensor(np.random.default_rng(7).normal(size=(8, 6, 3))),
                                   training=True)
        np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-9)
        assert (scores.data > 0).all()

    def test_gradient_reaches_affine_weights(self):
        c = Controller(n_fields=4, emb_dim=2, rng=rng())
        e = Tensor(np.random.default_rng(8).normal(size=(4, 4, 2)))
        coeff = np.random.default_rng(9).normal(size=(4, 4))

        def loss():
            return (controller_scores(c, e, training=True) * coeff).sum()

        err = grad_check(loss, [c.fc.weight, c.fc.bias, c.gamma, c.beta])
        assert err < 1e-3
        loss().backward()
        assert np.abs(c.fc.weight.grad).max() > 0

    @pytest.mark.parametrize("training", [True, False])
    def test_five_gradients_match_finite_difference(self, training):
        """x, gamma, beta, weight and bias of the folded node, with the
        batch's statistics and with running ones."""
        r = np.random.default_rng(10)
        c = Controller(n_fields=3, emb_dim=2, rng=rng())
        c.gamma.data[:], c.beta.data[:] = r.normal(1.0, 0.3, size=6), r.normal(size=6)
        c.fc.bias.data[:] = r.normal(size=3)
        c.running_mean, c.running_var = r.normal(size=6), r.uniform(0.5, 2.0, size=6)
        e = Tensor(r.normal(2.0, 3.0, size=(5, 3, 2)), requires_grad=True)
        coeff = r.normal(size=(5, 3))

        def loss():
            return (controller_scores(c, e, training=training) * coeff).sum()

        err = grad_check(loss, [e, c.gamma, c.beta, c.fc.weight, c.fc.bias], eps=1e-6)
        assert err < 1e-7

    def test_degenerate_batch(self):
        from aefs.numerics import DegenerateBatchError
        c = Controller(n_fields=3, emb_dim=2, rng=rng())
        with pytest.raises(DegenerateBatchError):
            controller_scores(c, Tensor(np.ones((1, 3, 2))), training=True)

    def test_inference_mode_allows_batch_of_one(self):
        c = Controller(n_fields=3, emb_dim=2, rng=rng())
        scores = controller_scores(c, Tensor(np.ones((1, 3, 2))), training=False)
        np.testing.assert_allclose(scores.data.sum(), 1.0, atol=1e-9)


class TestBce:
    def test_half_is_log_two(self):
        y_hat = Tensor(np.array([0.5, 0.5]))
        assert bce(y_hat, np.array([1.0, 0.0])).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_clamp_boundary(self):
        y_hat = Tensor(np.array([1.0 - 1e-7]))
        assert bce(y_hat, np.array([1.0])).item() == pytest.approx(1e-7, rel=1e-3)

    def test_three_sample_hand_value(self):
        y_hat = Tensor(np.array([0.8, 0.3, 0.6]))
        y = np.array([1.0, 0.0, 0.0])
        expected = (-np.log(0.8) - np.log(0.7) - np.log(0.4)) / 3.0
        assert bce(y_hat, y).item() == pytest.approx(expected, abs=1e-12)

    def test_gradient(self):
        p = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        y = np.array([1.0, 0.0])
        assert grad_check(lambda: bce(p, y), [p]) < 1e-8
