import contextlib

import numpy as np
import pytest

import aefs.embedding as embedding_mod
import aefs.numerics as numerics_mod
import aefs.predictors as predictors_mod
import aefs.selection as selection_mod
import aefs.training as training_mod
from aefs.data import DataError, Dataset, SyntheticSpec, generate_synthetic
from aefs.numerics import Adam, RowGrad, Tensor, softmax
from aefs.predictors import Controller
from aefs.selection import DualModel
from aefs.training import (
    ConfigError,
    FittedModel,
    NumericAbort,
    TrainConfig,
    apply_overrides,
    build_model,
    evaluate,
    load_checkpoint,
    parse_config_text,
    prepare,
    pretrain,
    save_checkpoint,
    train,
)
from oracles import ActivationLedger, PlainModel, aefs_trace, composed_embedding_alignment_loss, \
    composed_lookup_affine, composed_lookup_normalized_affine, composed_scale_embeddings, composed_topk_softmax, \
    embed_per_row, embedding_discrepancy, prediction_discrepancy, record_batch_activation, \
    reference_adam_step, reference_controller_logits, reference_scatter_rows, same_bits, \
    use_reference_tape

METHODS = ("none", "randomhalf", "adafs", "aefs")


@pytest.fixture(scope="module")
def small_data():
    sd = generate_synthetic(SyntheticSpec(n_fields=6, n_informative=3, vocab_size=10,
                                          n_records=3000, teacher_seed=3))
    return prepare(sd.columns, sd.schema, seed=0, min_freq=1,
                   informative_fields=sd.informative_fields)


def small_config(**kw):
    base = dict(method="aefs", d1=8, d2=2, batch_size=256, max_epochs=2,
                hidden_dims=(8,), lr=3e-3, seed=1, min_freq=1)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_round_trip_through_text(self):
        cfg = small_config(method="adafs", mode="hard", enable_eal=False)
        again = parse_config_text(cfg.to_text())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("learning_rate=0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("batch_size=abc\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nd1=16  # inline\n")
        assert cfg.d1 == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="magic")
        with pytest.raises(ConfigError):
            TrainConfig(r=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(d1=4, d2=8)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("inf"), float("-inf"), float("nan")])
    def test_lr_must_be_positive_and_finite(self, lr):
        with pytest.raises(ConfigError, match="lr must be positive and finite"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("text", ["min_freq=0\n", "min_freq=-3\n"])
    def test_min_freq_must_be_positive(self, text):
        with pytest.raises(ConfigError, match="min_freq must be at least 1"):
            parse_config_text(text)

    def test_hash_ignores_seed(self):
        a = small_config(seed=1)
        b = small_config(seed=99)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != small_config(d1=16).config_hash()

    def test_overrides(self):
        cfg = apply_overrides(small_config(), {"lr": "0.01", "enable_pal": "false"})
        assert cfg.lr == 0.01 and cfg.enable_pal is False
        with pytest.raises(ConfigError):
            apply_overrides(small_config(), {"nope": 1})


class TestPrepare:
    def test_split_sizes(self, small_data):
        assert len(small_data.train) == 2400
        assert len(small_data.val) == 300
        assert len(small_data.test) == 300

    def test_vocab_from_train_only(self):
        # a token exclusive to one record lands wherever that record goes;
        # rebuilding with a different seed must reproduce deterministically
        sd = generate_synthetic(SyntheticSpec(n_fields=4, n_informative=2,
                                              vocab_size=6, n_records=200, teacher_seed=1))
        a = prepare(sd.columns, sd.schema, seed=3, min_freq=1)
        b = prepare(sd.columns, sd.schema, seed=3, min_freq=1)
        assert a.vocab.field_maps == b.vocab.field_maps
        np.testing.assert_array_equal(a.train.x, b.train.x)


class TestTrainLoop:
    def test_deterministic_reports(self, small_data):
        cfg = small_config()
        r1 = train(small_data, cfg)
        r2 = train(small_data, cfg)
        # identical except wall-clock timings
        for a, b in zip(r1.report.rows, r2.report.rows):
            da, db = dict(a.__dict__), dict(b.__dict__)
            da.pop("seconds"), db.pop("seconds")
            assert da == db
        m1 = evaluate(r1.fitted, small_data.test, cfg.batch_size)
        m2 = evaluate(r2.fitted, small_data.test, cfg.batch_size)
        assert m1 == m2

    def test_all_methods_run(self, small_data):
        for method, mode in (("none", "soft"), ("randomhalf", "soft"),
                             ("adafs", "soft"), ("adafs", "hard"), ("aefs", "soft")):
            cfg = small_config(method=method, mode=mode, max_epochs=1)
            res = train(small_data, cfg)
            assert len(res.report.rows) == 1
            m = evaluate(res.fitted, small_data.test, cfg.batch_size)
            assert 0.0 <= m.auc <= 1.0
            assert np.isfinite(m.logloss)

    def test_loss_components_present_and_nonnegative(self, small_data):
        res = train(small_data, small_config())
        for row in res.report.rows:
            assert row.bce_aux >= 0 and row.bce_main >= 0
            assert row.eal >= 0 and row.pal >= 0

    def test_disabled_terms_are_absent(self, small_data):
        res = train(small_data, small_config(enable_eal=False, enable_pal=False))
        for row in res.report.rows:
            assert row.eal is None and row.pal is None

    def test_best_epoch_tracked(self, small_data):
        res = train(small_data, small_config(max_epochs=3))
        aucs = [r.val_auc for r in res.report.rows]
        assert res.report.best_epoch == int(np.argmax(aucs)) + 1

    def test_lookup_accounting_per_epoch(self, small_data):
        res = train(small_data, small_config())
        for row in res.report.rows:
            assert row.lookups_avg == 3.0  # k = floor(6 * 0.5)

    def test_nan_aborts_with_diagnostic(self, small_data, monkeypatch):
        def poisoned_loss(model, x, y):
            return (Tensor(np.array(np.nan)), {"bce_aux": 0.5, "bce_main": np.nan},
                    np.tile(np.arange(3), (x.shape[0], 1)))

        monkeypatch.setattr(DualModel, "loss", poisoned_loss)
        with pytest.raises(NumericAbort, match=r"^non-finite loss nan at epoch 1, batch 1 "
                                               r"\(first non-finite term: bce_main\)$"):
            train(small_data, small_config(max_epochs=1))

    @pytest.mark.parametrize("poisoned,named", [
        (("eal",), "eal"), (("pal",), "pal"), (("eal", "pal"), "eal")])
    def test_non_finite_loss_names_first_bad_term(self, small_data, monkeypatch,
                                                  poisoned, named):
        loss_fn = {"eal": "embedding_alignment_loss", "pal": "prediction_alignment_loss"}
        for term in poisoned:
            monkeypatch.setattr(selection_mod, loss_fn[term], lambda *args: Tensor(np.array(np.inf)))
        with pytest.raises(NumericAbort, match=r"^non-finite loss inf at epoch 1, batch 1 "
                                               rf"\(first non-finite term: {named}\)$"):
            train(small_data, small_config(max_epochs=1))

    def test_empty_split_rejected(self, small_data):
        import dataclasses
        bad = dataclasses.replace(small_data, train=small_data.train)
        with pytest.raises(DataError):
            evaluate(train(bad, small_config(max_epochs=1)).fitted,
                     dataclasses.replace(small_data.test,
                                         x=small_data.test.x[:0],
                                         y=small_data.test.y[:0]))


class TestFrozenUniformControllerReduction:
    def test_reduces_to_fixed_low_index_half(self, small_data):
        # zeroed, frozen controller affine -> uniform scores -> index tie-break
        # selects fields 0..k-1 for every instance; with the alignment terms
        # off this is main-model training on a fixed half of the fields
        cfg = small_config(enable_eal=False, enable_pal=False)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(5), np.random.default_rng(6))
        pair = fitted.model
        pair.controller.fc.weight.data[:] = 0.0
        pair.controller.fc.bias.data[:] = 0.0
        from aefs.selection import aefs_forward
        x = small_data.train.x[:64]
        _, indices, weights, _, _ = aefs_forward(pair, x, training=True)
        np.testing.assert_array_equal(indices, np.tile(np.arange(3), (64, 1)))
        np.testing.assert_allclose(weights.data, 1.0 / 3.0, atol=1e-12)
        # fields k..N-1 of the main model are never embedded
        assert pair.main_embeddings.lookup_counts[3:].sum() == 0


class TestPretrain:
    def test_zero_epochs_is_identity(self, small_data):
        cfg = small_config(pretrain_epochs=0)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(7), np.random.default_rng(8))
        before = {n: t.data.copy() for n, t in fitted.named_params()}
        pretrain(fitted, small_data.train, cfg, np.random.default_rng(9))
        for n, t in fitted.named_params():
            np.testing.assert_array_equal(t.data, before[n])

    def test_scores_sharpen_after_pretraining(self, small_data):
        cfg = small_config(pretrain_epochs=3)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(7), np.random.default_rng(8))
        pair = fitted.model

        def score_entropy():
            trace = aefs_trace(pair, small_data.val.x[:200], training=False)
            s = softmax(trace.logits.data, axis=1)
            return float(-(s * np.log(s + 1e-12)).sum(axis=1).mean())

        params_before = {name: t.data.copy() for name, t in fitted.named_params()}
        before = score_entropy()
        pretrain(fitted, small_data.train, cfg, np.random.default_rng(9))
        after = score_entropy()
        assert after < before
        # the permanent predictors and the alignment map are untouched; only
        # the auxiliary embeddings and the controller moved
        for name, t in fitted.named_params():
            untouched = name.startswith(("main.", "aux.mlp.", "aux.align_fc."))
            assert untouched != name.startswith(("aux.emb.", "aux.controller.")), name
            assert same_bits(t.data, params_before[name]) == untouched, name

    def test_pretrain_trains_controller_not_main(self, small_data):
        cfg = small_config(pretrain_epochs=1)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(17), np.random.default_rng(18))
        pair = fitted.model
        fc_before = pair.controller.fc.weight.data.copy()
        main_before = pair.main_embeddings.weight.data.copy()
        pretrain(fitted, small_data.train, cfg, np.random.default_rng(19))
        assert not np.array_equal(pair.controller.fc.weight.data, fc_before)
        np.testing.assert_array_equal(pair.main_embeddings.weight.data, main_before)


class TestEvaluate:
    def test_pure(self, small_data):
        res = train(small_data, small_config(max_epochs=1))
        m1 = evaluate(res.fitted, small_data.test)
        m2 = evaluate(res.fitted, small_data.test)
        assert m1 == m2

    def test_no_running_stat_updates(self, small_data):
        res = train(small_data, small_config(max_epochs=1))
        controller = res.fitted.model.controller
        mean_before = controller.running_mean.copy()
        evaluate(res.fitted, small_data.test)
        np.testing.assert_array_equal(controller.running_mean, mean_before)

    def test_selection_dump(self, small_data, tmp_path):
        import json
        res = train(small_data, small_config(max_epochs=1))
        dump = tmp_path / "sel.jsonl"
        evaluate(res.fitted, small_data.test, selection_dump_path=dump)
        lines = dump.read_text().splitlines()
        assert len(lines) == len(small_data.test)
        entry = json.loads(lines[0])
        assert len(entry["indices"]) == 3
        assert abs(sum(entry["weights"]) - 1.0) < 1e-9


    @pytest.mark.parametrize("param,value", [(-1, np.nan), (0, np.inf)])
    def test_non_finite_score_aborts(self, small_data, tmp_path, param, value):
        fitted = build_model(small_data.vocab.vocab_sizes, small_config(method="none"),
                             np.random.default_rng(0), np.random.default_rng(1))
        # the output bias, or the embedding table: inf - inf in the first layer
        fitted.named_params()[param][1].data[:] = value
        dump = tmp_path / "sel.jsonl"
        with pytest.raises(NumericAbort, match="non-finite score nan for instance 0 of "):
            evaluate(fitted, small_data.test, selection_dump_path=dump)
        assert not dump.exists()


# every scoring path, and each path that weights embeddings: hard adafs
# with and without re-weighting, aefs without it and through other backbones
SCORING_PATHS = {
    "none-soft": dict(method="none"),
    "randomhalf-soft": dict(method="randomhalf"),
    "adafs-soft": dict(method="adafs"),
    "adafs-hard": dict(method="adafs", mode="hard"),
    "aefs-soft": dict(method="aefs"),
    "adafs-hard-no-reweight": dict(method="adafs", mode="hard", enable_topk_reweight=False),
    "aefs-no-reweight": dict(method="aefs", enable_topk_reweight=False),
    "aefs-dcn-deepfm": dict(method="aefs", backbone_main="dcn", backbone_aux="deepfm"),
}


class TestScoringWithoutTape:
    @pytest.fixture(scope="class", params=list(SCORING_PATHS), ids=list(SCORING_PATHS))
    def fitted(self, request, small_data):
        return train(small_data, small_config(max_epochs=1, pretrain_epochs=1,
                                              **SCORING_PATHS[request.param])).fitted

    @staticmethod
    def score(fitted, data, dump, monkeypatch):
        """Metrics, per-batch scores and whether each batch was taped, of
        one evaluate pass."""
        forward = fitted.forward_scores
        scores, taped = [], []

        def recording(x, training):
            out = forward(x, training)
            scores.append(out[0].data.copy())
            taped.append(out[0].requires_grad)
            return out

        with monkeypatch.context() as m:
            m.setattr(fitted, "forward_scores", recording)
            metrics = evaluate(fitted, data.test, 256, selection_dump_path=dump,
                               informative_fields=data.informative_fields)
        return metrics, np.concatenate(scores), taped

    def test_equals_scoring_with_tape(self, small_data, tmp_path, monkeypatch, fitted):
        without, scores, taped = self.score(fitted, small_data, tmp_path / "without.jsonl",
                                            monkeypatch)
        assert taped and not any(taped)
        monkeypatch.setattr(training_mod, "no_tape", contextlib.nullcontext)
        with_tape, taped_scores, taped = self.score(fitted, small_data, tmp_path / "with.jsonl",
                                                    monkeypatch)
        assert taped and all(taped)
        assert same_bits(scores, taped_scores)
        assert without == with_tape
        assert without.selection_frequency == with_tape.selection_frequency
        assert without.selection_precision == with_tape.selection_precision
        assert (tmp_path / "without.jsonl").read_bytes() == (tmp_path / "with.jsonl").read_bytes()

    def test_leaves_the_model_unchanged(self, small_data, tmp_path, monkeypatch, fitted):
        # an in-place write that lands on a table or buffer shows here
        def state():
            return [(name, np.copy(getattr(t, "data", t)))
                    for name, t in fitted.named_params() + fitted.named_buffers()]

        before = state()
        first, scores, _ = self.score(fitted, small_data, tmp_path / "first.jsonl", monkeypatch)
        after = state()
        assert [name for name, _ in after] == [name for name, _ in before]
        for (name, a), (_, b) in zip(after, before):
            assert same_bits(a, b), name
        second, again, _ = self.score(fitted, small_data, tmp_path / "second.jsonl", monkeypatch)
        assert same_bits(scores, again)
        assert first == second
        assert (tmp_path / "first.jsonl").read_bytes() == (tmp_path / "second.jsonl").read_bytes()


class TestFoldedScoringPass:
    """`evaluate` folds the controller's batch norm into its affine map once
    per pass. Its scores equal, bit for bit, those of scoring batch by batch
    without the fold: on the packed top-k (a batch of 2048 rows) and below
    it (128), and again after an optimizer step and after a checkpoint load
    between passes, which write the parameters in place."""

    @pytest.mark.parametrize("path", ["adafs-soft", "adafs-hard", "aefs-soft"])
    def test_every_pass_folds_the_current_parameters(self, small_data, tmp_path, monkeypatch,
                                                     path):
        fitted = train(small_data, small_config(max_epochs=1, **SCORING_PATHS[path])).fitted
        data = small_data.train  # 2,400 rows of 6 fields
        auc_metric, fold = training_mod.auc_metric, predictors_mod.fold_normalization
        passed, folds = [], []

        def recording_auc(scores, labels):
            passed.append(np.copy(scores))
            return auc_metric(scores, labels)

        def counting_fold(*args):
            folds.append(len(passed))
            return fold(*args)

        monkeypatch.setattr(training_mod, "auc_metric", recording_auc)
        monkeypatch.setattr(predictors_mod, "fold_normalization", counting_fold)

        def check() -> np.ndarray:
            for batch in (128, 2048):
                expected = np.concatenate([
                    fitted.model.score(data.x[i:i + batch], training=False)[0].data
                    for i in range(0, len(data), batch)])
                assert not folds
                evaluate(fitted, data, batch)
                assert folds == [len(passed) - 1]  # one fold, in this pass
                folds.clear()
                assert same_bits(passed[-1], expected), batch
            return expected

        trained = check()
        save_checkpoint(fitted, tmp_path / "trained.ckpt")
        named = fitted.named_params()
        opt = Adam([t for _, t in named], lr=0.05)
        loss, _, _ = fitted.model.loss(data.x[:256], data.y[:256])
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert not same_bits(check(), trained)
        load_checkpoint(fitted, tmp_path / "trained.ckpt")
        assert same_bits(check(), trained)


class TestStats:
    def test_selection_stats_shape(self, small_data):
        res = train(small_data, small_config(max_epochs=1))
        m = evaluate(res.fitted, small_data.test,
                     informative_fields=small_data.informative_fields)
        freq = np.array(m.selection_frequency)
        assert freq.shape == (6,)
        assert freq.sum() == pytest.approx(3.0)  # k selections per instance
        assert 0.0 <= m.selection_precision <= 1.0

    @pytest.mark.parametrize("method", METHODS)
    def test_selection_stats_match_direct_count(self, small_data, method):
        # evaluate reads its figures off the lookup counters; they equal a
        # count over every instance's selection, with a partial last batch
        # (128) and in one batch (2048)
        fitted = train(small_data, small_config(method=method, max_epochs=1)).fitted
        informative = small_data.informative_fields
        _, sel, _, aux_set = fitted.forward_scores(small_data.test.x, training=False)
        counts = [0] * small_data.n_fields
        hits = 0
        for row in sel:
            for f in row:
                counts[int(f)] += 1
                hits += int(f) in informative
        ledger = record_batch_activation(ActivationLedger(), sel, fitted.main_embeddings, aux_set)
        n = len(small_data.test)
        for batch in (128, 2048):
            m = evaluate(fitted, small_data.test, batch_size=batch,
                         informative_fields=informative)
            assert m.selection_frequency == [c / n for c in counts]
            assert m.selection_precision == hits / sel.size
            assert m.activated_params_avg == float(ledger.activated_params_avg())
            assert m.lookups_avg == float(ledger.lookups_avg())

    def test_discrepancy_helpers(self, small_data):
        res = train(small_data, small_config(max_epochs=1))
        d = prediction_discrepancy(res.fitted, small_data.test)
        assert d >= 0.0
        with pytest.raises(ValueError):
            prediction_discrepancy(
                train(small_data, small_config(method="none", max_epochs=1)).fitted,
                small_data.test)


class TestCheckpoint:
    def test_round_trip_exact(self, small_data, tmp_path):
        cfg = small_config(max_epochs=1)
        res = train(small_data, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(res.fitted, path)

        fresh = build_model(small_data.vocab.vocab_sizes, cfg,
                            np.random.default_rng(123), np.random.default_rng(4))
        load_checkpoint(fresh, path)
        for (name_a, t_a), (name_b, t_b) in zip(res.fitted.named_params(),
                                                fresh.named_params()):
            assert name_a == name_b
            np.testing.assert_array_equal(t_a.data, t_b.data)
        m1 = evaluate(res.fitted, small_data.test)
        m2 = evaluate(fresh, small_data.test)
        assert m1 == m2

    def test_bad_magic_rejected(self, small_data, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_text("not-a-checkpoint\n")
        cfg = small_config(max_epochs=1)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(0), np.random.default_rng(1))
        with pytest.raises(ValueError):
            load_checkpoint(fitted, p)

    @pytest.fixture
    def fitted(self, small_data):
        return build_model(small_data.vocab.vocab_sizes, small_config(),
                           np.random.default_rng(0), np.random.default_rng(1))

    @staticmethod
    def entries(fitted):
        return ([["param", name, t.data] for name, t in fitted.named_params()]
                + [["buffer", name, arr] for name, arr in fitted.named_buffers()])

    @staticmethod
    def v2_bytes(entries) -> bytes:
        """The documented layout, built without save_checkpoint."""
        out = [b"aefs-checkpoint-v2\n"]
        for kind, name, arr in entries:
            header = " ".join([kind, name, str(arr.ndim)] + [str(d) for d in arr.shape])
            out += [header.encode() + b"\n", np.asarray(arr, dtype="<f8").tobytes()]
        return b"".join(out)

    @staticmethod
    def rejects(fitted, path, *needles):
        """load_checkpoint raises one line naming the file and each needle."""
        with pytest.raises(ValueError) as info:
            load_checkpoint(fitted, path)
        msg = str(info.value)
        assert "\n" not in msg and str(path) in msg, msg
        for needle in needles:
            assert needle in msg, msg

    def test_layout_is_header_lines_and_raw_float64(self, small_data, tmp_path):
        res = train(small_data, small_config(max_epochs=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(res.fitted, path)
        assert path.read_bytes() == self.v2_bytes(self.entries(res.fitted))
        assert any(kind == "buffer" for kind, _, _ in self.entries(res.fitted))

    def test_v1_hex_text_rejected(self, fitted, tmp_path):
        lines = ["aefs-checkpoint-v1"]
        for kind, name, arr in self.entries(fitted):
            lines.append(" ".join([kind, name, str(arr.ndim)] + [str(d) for d in arr.shape]))
            lines.append(" ".join(float(v).hex() for v in arr.reshape(-1)))
        path = tmp_path / "v1.ckpt"
        path.write_text("\n".join(lines) + "\n")
        self.rejects(fitted, path, "aefs-checkpoint-v2")

    def test_unknown_tensor_name_rejected(self, fitted, tmp_path):
        entries = self.entries(fitted)
        entries[3][1] = "main.emb.bogus"
        path = tmp_path / "x.ckpt"
        path.write_bytes(self.v2_bytes(entries))
        self.rejects(fitted, path, "main.emb.bogus")

    def test_unknown_kind_rejected(self, fitted, tmp_path):
        entries = self.entries(fitted)
        entries[-1][0] = "weights"
        path = tmp_path / "x.ckpt"
        path.write_bytes(self.v2_bytes(entries))
        self.rejects(fitted, path, entries[-1][1], "'weights'")

    @pytest.mark.parametrize("header", [
        b"param", b"param aux.emb.0", b"param aux.emb.0 two 10 2",
        b"param aux.emb.0 2 10", b"param aux.emb.0 2 10 -2", b"param \xff 1 3"])
    def test_malformed_header_rejected(self, fitted, tmp_path, header):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"aefs-checkpoint-v2\n" + header + b"\n")
        self.rejects(fitted, path, "malformed tensor header", repr(header))

    def test_truncated_payload_rejected(self, fitted, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(self.v2_bytes(self.entries(fitted))[:-8])
        self.rejects(fitted, path, self.entries(fitted)[-1][1], "truncated")

    def test_trailing_bytes_rejected(self, fitted, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(self.v2_bytes(self.entries(fitted)) + b"\0")
        self.rejects(fitted, path, "1 trailing bytes after the last tensor")

    def test_tensor_given_twice_rejected(self, fitted, tmp_path):
        entries = self.entries(fitted)
        path = tmp_path / "x.ckpt"
        path.write_bytes(self.v2_bytes(entries[:1] + entries[:-1]))
        self.rejects(fitted, path, entries[0][1], "twice")

    def test_missing_tensor_rejected(self, fitted, tmp_path):
        entries = self.entries(fitted)
        path = tmp_path / "x.ckpt"
        path.write_bytes(self.v2_bytes(entries[:-1]))
        self.rejects(fitted, path, entries[-1][1], "missing")


class TestAlignmentInvariants:
    def test_eal_lowers_embedding_discrepancy(self, small_data):
        with_eal = train(small_data, small_config(max_epochs=3))
        without = train(small_data, small_config(max_epochs=3, enable_eal=False))
        d_with = embedding_discrepancy(with_eal.fitted, small_data.test)
        d_without = embedding_discrepancy(without.fitted, small_data.test)
        assert d_with < d_without

    def test_pal_lowers_prediction_discrepancy(self, small_data):
        with_pal = train(small_data, small_config(max_epochs=3))
        without = train(small_data, small_config(max_epochs=3, enable_pal=False))
        assert (prediction_discrepancy(with_pal.fitted, small_data.test)
                < prediction_discrepancy(without.fitted, small_data.test))


class TestSameWeightsBothSides:
    def test_main_embeddings_scaled_by_trace_weights(self, small_data):
        cfg = small_config()
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(31), np.random.default_rng(32))
        pair = fitted.model
        x = small_data.train.x[:32]
        trace = aefs_trace(pair, x, training=True)
        raw = embed_per_row(pair.main_embeddings, x, trace.indices)
        np.testing.assert_allclose(
            trace.main_embeds.data, raw.data * trace.weights.data[:, :, None], atol=1e-12)
        lifted = embed_per_row(pair.aux_embeddings, x, trace.indices)
        np.testing.assert_allclose(
            trace.aux_embeds.data, lifted.data * trace.weights.data[:, :, None], atol=1e-12)


class TestScoringSkipsAuxPredictor:
    @pytest.mark.parametrize("reweight", [True, False])
    def test_scores_equal_full_forward(self, small_data, monkeypatch, reweight):
        fitted = train(small_data, small_config(max_epochs=1,
                                                enable_topk_reweight=reweight)).fitted
        pair = fitted.model
        x = small_data.test.x

        def lookups():
            return (pair.aux_embeddings.lookup_counts.copy(),
                    pair.main_embeddings.lookup_counts.copy())

        start = lookups()
        trace = aefs_trace(pair, x, training=False)
        mid = lookups()

        def no_aux_predictor(*args):
            raise AssertionError("scoring ran the auxiliary predictor")

        monkeypatch.setattr(pair, "aux_predictor", no_aux_predictor)
        probs, indices, weights, aux_set = fitted.forward_scores(x, training=False)
        end = lookups()
        assert same_bits(probs.data, trace.main_pred.data)
        assert same_bits(indices, trace.indices)
        assert same_bits(weights, trace.weights.data)
        assert aux_set is pair.aux_embeddings
        for a, b, c in zip(start, mid, end):
            assert same_bits(b - a, c - b)


class TestConstantPredictor:
    def test_all_half_scores_give_log2_and_half_auc(self, small_data):
        cfg = small_config(method="none", max_epochs=1)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(0), np.random.default_rng(1))
        for _, t in fitted.model.predictor.named_params():
            t.data[:] = 0.0
        m = evaluate(fitted, small_data.test, cfg.batch_size)
        assert m.logloss == pytest.approx(np.log(2.0), abs=1e-12)
        assert m.auc == 0.5


class TestLedgerIsPerInstance:
    def test_evaluate_is_batch_size_invariant(self, tmp_path):
        # unequal field sizes, so instances with different selections
        # activate different parameter counts; 2400 rows leave a partial
        # last batch at both batch sizes
        import json
        from fractions import Fraction
        vocab = [3, 50, 7, 20, 11, 90]
        rng = np.random.default_rng(41)
        data = Dataset(x=rng.integers(0, vocab, size=(2400, 6)),
                       y=rng.integers(0, 2, size=2400).astype(float))
        for method in METHODS:
            fitted = build_model(vocab, small_config(method=method), np.random.default_rng(42),
                                 np.random.default_rng(43))
            main_sizes = np.array(vocab) * fitted.main_embeddings.dim
            aux_set = fitted.model.aux_embeddings
            aux_full = aux_set.param_count() if aux_set is not None else 0
            for batch in (2048, 128):
                dump = tmp_path / f"sel-{method}-{batch}.jsonl"
                m = evaluate(fitted, data, batch, selection_dump_path=dump)
                sel = np.array([json.loads(line)["indices"]
                                for line in dump.read_text().splitlines()])
                per_instance = aux_full + main_sizes[sel].sum(axis=1)
                if method == "aefs":
                    assert np.unique(per_instance).size > 1
                assert m.activated_params_avg == float(
                    Fraction(int(per_instance.sum()), len(data))), method
                assert m.lookups_avg == sel.shape[1] == (3 if method in ("aefs", "randomhalf")
                                                         else 6), method

    @pytest.mark.parametrize("method", METHODS)
    def test_train_figures_match_reference_ledger(self, many_row_data, method, monkeypatch):
        # each epoch's figures, read off the lookup counters, equal the
        # reference ledger over the indices every batch's loss selected
        real_build = training_mod.build_model
        built, selections = [], []

        def build(*args):
            fitted = real_build(*args)
            loss = fitted.model.loss

            def recording_loss(x, y):
                out = loss(x, y)
                selections.append(out[2])
                return out

            fitted.model.loss = recording_loss
            built.append(fitted)
            return fitted

        monkeypatch.setattr(training_mod, "build_model", build)
        res = train(many_row_data, small_config(method=method, max_epochs=2, batch_size=64))
        fitted = built[0]
        per_epoch = len(selections) // 2
        for e, row in enumerate(res.report.rows):
            ledger = ActivationLedger()
            for sel in selections[e * per_epoch:(e + 1) * per_epoch]:
                record_batch_activation(ledger, sel, fitted.main_embeddings,
                                        fitted.model.aux_embeddings)
            assert row.activated_params_avg == float(ledger.activated_params_avg())
            assert row.lookups_avg == float(ledger.lookups_avg())


def poison_after_backward(monkeypatch, target, poison):
    """After every backward pass, let `poison` corrupt `target()`'s gradient."""
    real_backward = Tensor.backward

    def backward(self):
        real_backward(self)
        poison(target().grad)

    monkeypatch.setattr(Tensor, "backward", backward)


class TestNonFiniteGradientGuard:
    def capture_model(self, monkeypatch):
        built = {}
        real_build = training_mod.build_model

        def build(*args, **kwargs):
            built["fitted"] = real_build(*args, **kwargs)
            return built["fitted"]

        monkeypatch.setattr(training_mod, "build_model", build)
        return built

    def test_dense_parameter_named(self, small_data, monkeypatch):
        built = self.capture_model(monkeypatch)
        target = lambda: dict(built["fitted"].named_params())["mlp.out.bias"]
        poison_after_backward(monkeypatch, target,
                              lambda g: g.__setitem__(0, np.inf))
        with pytest.raises(NumericAbort,
                           match=r"^non-finite gradient in mlp.out.bias at epoch 1, batch 1$"):
            train(small_data, small_config(method="none", max_epochs=1))
        assert np.isfinite(target().data).all()  # no step was taken

    def test_touched_embedding_rows_checked(self, small_data, monkeypatch):
        built = self.capture_model(monkeypatch)
        target = lambda: dict(built["fitted"].named_params())["main.emb.weight"]

        def poison(g):
            assert isinstance(g, RowGrad)
            g.values[-1, 0] = np.inf

        poison_after_backward(monkeypatch, target, poison)
        with pytest.raises(NumericAbort, match="main.emb.weight at epoch 1, batch 1"):
            train(small_data, small_config(max_epochs=1))

    def test_pretrain_aborts(self, small_data, monkeypatch):
        cfg = small_config(pretrain_epochs=1)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(7), np.random.default_rng(8))
        target = lambda: fitted.model.controller.fc.weight
        poison_after_backward(monkeypatch, target, lambda g: g.__setitem__((0, 0), np.nan))
        with pytest.raises(NumericAbort, match="aux.controller.fc.weight at pretrain epoch 1"):
            pretrain(fitted, small_data.train, cfg, np.random.default_rng(9))

    def test_pretrain_loss_names_value_and_batch(self, small_data, monkeypatch):
        cfg = small_config(method="adafs", pretrain_epochs=1)
        fitted = build_model(small_data.vocab.vocab_sizes, cfg,
                             np.random.default_rng(7), np.random.default_rng(8))
        monkeypatch.setattr(fitted.model, "warmup_forward",
                            lambda x: Tensor(np.full(x.shape[0], np.nan)))
        with pytest.raises(NumericAbort,
                           match=r"^non-finite loss nan at pretrain epoch 1, batch 1$"):
            pretrain(fitted, small_data.train, cfg, np.random.default_rng(9))


@pytest.fixture(scope="module")
def many_row_data():
    # about 2.4k table rows per model; a batch of 64 touches a few percent
    sd = generate_synthetic(SyntheticSpec(n_fields=6, n_informative=3, vocab_size=400,
                                          n_records=2000, teacher_seed=5))
    return prepare(sd.columns, sd.schema, seed=0, min_freq=1)


class TestRowSparseTrainingIsExact:
    """Training equals, bit for bit, a run on the reference code: scatters
    through a dense gradient, the allocating Adam and the copying tape. Both sides run the
    same, folded, controller and the same embedding alignment loss;
    `TestFoldedController` and `TestAlignmentNodeTraining` hold those to
    their compositions."""

    @pytest.mark.parametrize("method", ["none", "aefs", "adafs"])
    def test_matches_dense_gradients_and_reference_adam(self, many_row_data, method,
                                                        monkeypatch):
        cfg = small_config(method=method, max_epochs=2, batch_size=64, pretrain_epochs=1)
        fast = train(many_row_data, cfg)
        monkeypatch.setattr(embedding_mod, "scatter_rows", reference_scatter_rows)
        monkeypatch.setattr(Adam, "step", reference_adam_step)
        use_reference_tape(monkeypatch)
        dense = train(many_row_data, cfg)
        for (name, a), (_, b) in zip(fast.fitted.named_params(), dense.fitted.named_params()):
            assert same_bits(a.data, b.data), name
        for a, b in zip(fast.report.rows, dense.report.rows):
            da, db = dict(a.__dict__), dict(b.__dict__)
            da.pop("seconds"), db.pop("seconds")
            assert da == db


def train_recording_picks(data, cfg, monkeypatch):
    """Train, recording every top-k selection made on the way."""
    top_k = selection_mod.k_max_indices_batch
    picked = []

    def recording(scores, k):
        picked.append(top_k(scores, k))
        return picked[-1]

    with monkeypatch.context() as m:
        m.setattr(selection_mod, "k_max_indices_batch", recording)
        result = train(data, cfg)
    return result, picked


def assert_trained_alike(run, picks, ref, ref_picks):
    """The same top-k at every selection; parameters and buffers within
    1e-9, and report figures within 1e-9 relative."""
    assert len(picks) == len(ref_picks)
    assert all(same_bits(a, b) for a, b in zip(picks, ref_picks))
    for (name, a), (_, b) in zip(run.fitted.named_params(), ref.fitted.named_params()):
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-9, err_msg=name)
    for (name, a), (_, b) in zip(run.fitted.named_buffers(), ref.fitted.named_buffers()):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9, err_msg=name)
    for a, b in zip(run.report.rows, ref.report.rows):
        for key, value in a.__dict__.items():
            if key != "seconds":
                assert value == pytest.approx(b.__dict__[key], rel=1e-9, abs=1e-12), key


class TestFoldedController:
    """Training with the folded controller ends where training with the
    textbook one (`reference_controller_logits`: batch norm, matmul and add
    as separate nodes; from table rows, `composed_lookup_normalized_affine`,
    the rows' lookup before them) ends, to rounding: the two differ in the
    last bits of each step, so they are held to a tolerance, not to bit
    identity. Every top-k selection, in training and in validation, is the
    same. `adafs` (d = 8, N = 6) trains through the pairs node, `aefs`'s
    controller (d2 = 2) through `Controller.logits`."""

    @pytest.mark.parametrize("method,mode", [("adafs", "soft"), ("adafs", "hard"),
                                             ("aefs", "soft")])
    def test_training_matches_textbook_controller(self, many_row_data, method, mode,
                                                  monkeypatch):
        cfg = small_config(method=method, mode=mode, max_epochs=2, batch_size=64,
                           pretrain_epochs=1)
        folded, folded_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        calls, node_calls = [], []

        def textbook_logits(ctrl, e, training):
            calls.append(training)
            return reference_controller_logits(ctrl, e, training)

        def textbook_node(*args):
            node_calls.append(args[0].shape[1])
            return composed_lookup_normalized_affine(*args)

        monkeypatch.setattr(Controller, "logits", textbook_logits)
        monkeypatch.setattr(predictors_mod, "lookup_normalized_affine", textbook_node)
        textbook, textbook_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        if method == "adafs":
            assert node_calls and set(node_calls) == {cfg.d1} and True not in calls
        else:
            assert not node_calls and True in calls
        assert False in calls
        assert bool(folded_picks) == (mode == "hard" or method == "aefs")
        assert_trained_alike(folded, folded_picks, textbook, textbook_picks)


class TestScaleNodeTraining:
    """Training with the one-node field weighting ends where training with
    the reshape and broadcast multiply (`composed_scale_embeddings`) ends,
    to rounding: the weight gradients differ in the last bits. Every top-k
    selection, in training and in validation, is the same. An mlp over
    `adafs`'s wide rows weights its rows inside `lookup_affine` in training,
    so the `adafs` cases train a dcn predictor, which weights its
    embeddings through `scale_embeddings`."""

    @pytest.mark.parametrize("method,mode", [("adafs", "soft"), ("adafs", "hard"),
                                             ("aefs", "soft")])
    def test_training_matches_composed_weighting(self, many_row_data, method, mode,
                                                 monkeypatch):
        cfg = small_config(method=method, mode=mode, max_epochs=2, batch_size=64,
                           pretrain_epochs=1,
                           backbone_main="dcn" if method == "adafs" else "mlp")
        node, node_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        taped = []

        def composed(e_sel, weights):
            taped.append(numerics_mod._taping)
            return composed_scale_embeddings(e_sel, weights)

        for module in (selection_mod, predictors_mod):
            monkeypatch.setattr(module, "scale_embeddings", composed)
        composed_run, composed_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        assert True in taped  # reached in training
        assert bool(node_picks) == (mode == "hard" or method == "aefs")
        assert_trained_alike(node, node_picks, composed_run, composed_picks)


class TestTopkSoftmaxTraining:
    """Training with the top-k softmax node ends where training with the
    composed selection (`composed_topk_softmax`: full softmax, top k of the
    scores, gather and division by their sum) ends, to rounding, with the
    same top-k at every selection, in training and in validation."""

    @pytest.mark.parametrize("method,mode,main", [("adafs", "hard", "mlp"),
                                                  ("aefs", "soft", "mlp"),
                                                  ("aefs", "soft", "dcn")])
    def test_training_matches_composed_selection(self, many_row_data, method, mode, main,
                                                 monkeypatch):
        cfg = small_config(method=method, mode=mode, max_epochs=2, batch_size=64,
                           pretrain_epochs=1, backbone_main=main)
        node, node_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        calls = []

        def composed(logits, k):
            calls.append(k)
            return composed_topk_softmax(logits, k)

        monkeypatch.setattr(selection_mod, "topk_softmax", composed)
        composed_run, composed_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        assert node_picks and len(calls) == len(composed_picks)
        assert_trained_alike(node, node_picks, composed_run, composed_picks)


class TestAlignmentNodeTraining:
    """`aefs` training with the embedding alignment loss over distinct rows
    ends where training with the per-lookup composition
    (`composed_embedding_alignment_loss`) ends, to rounding. Every top-k
    selection, in training and in validation, is the same."""

    @pytest.mark.parametrize("main,aux,reweight", [("mlp", "mlp", True),
                                                   ("dcn", "deepfm", True),
                                                   ("deepfm", "mlp", False)])
    def test_training_matches_composed_alignment_loss(self, many_row_data, main, aux, reweight,
                                                      monkeypatch):
        cfg = small_config(max_epochs=2, batch_size=64, pretrain_epochs=1, backbone_main=main,
                           backbone_aux=aux, enable_topk_reweight=reweight)
        node, node_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        monkeypatch.setattr(selection_mod, "embedding_alignment_loss",
                            composed_embedding_alignment_loss)
        composed, composed_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        assert node_picks and node.report.rows[0].eal > 0
        assert_trained_alike(node, node_picks, composed, composed_picks)


class TestLookupAffineTraining:
    """Training whose mlp predictors read their rows through the
    `lookup_affine` node ends where training through the composition it
    replaces (`composed_lookup_affine`: lookup, weighting, reshape, affine
    map) ends, to rounding: in training the node sums each instance's
    projections over its distinct (column, row) pairs. Every top-k
    selection, in training and in validation, is the same. Only training
    reaches the node, and only on rows at least half as wide as the first
    layer: the main predictor's d1 = 8 under h = 8, not the auxiliary
    predictor's d2 = 2."""

    @pytest.mark.parametrize("method", ["none", "randomhalf", "aefs"])
    def test_training_matches_composed_first_layer(self, many_row_data, method, monkeypatch):
        cfg = small_config(method=method, max_epochs=2, batch_size=64, pretrain_epochs=1)
        node, node_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        widths = set()

        def composed(table, rows, weights, linear):
            widths.add(table.shape[1])
            return composed_lookup_affine(table, rows, weights, linear)

        monkeypatch.setattr(predictors_mod, "lookup_affine", composed)
        composed_run, composed_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        assert widths == {cfg.d1}
        assert bool(node_picks) == (method == "aefs")
        assert_trained_alike(node, node_picks, composed_run, composed_picks)


class TestLookupNormalizedAffineTraining:
    """`adafs` training whose controller reads its rows through the
    `lookup_normalized_affine` node ends where training through the
    composition it replaces (`composed_lookup_normalized_affine`: lookup,
    reshape, batch moments, batch norm, affine map) ends, to rounding, with
    the same top-k at every selection, in training and in validation.
    Every training step reaches the node, whatever the predictor (a dcn
    composes its own input) and whatever the width: d1 = 8 and d1 = 2
    under the N = 6 logits alike. `aefs`'s controller never does; it calls
    `Controller.logits` on the auxiliary lookup."""

    @pytest.mark.parametrize("mode,main,d1", [("soft", "mlp", 8),
                                              ("hard", "mlp", 8),
                                              ("soft", "dcn", 8),
                                              ("soft", "mlp", 2)])
    def test_training_matches_composed_controller(self, many_row_data, mode, main, d1,
                                                  monkeypatch):
        cfg = small_config(method="adafs", mode=mode, max_epochs=2, batch_size=64,
                           pretrain_epochs=1, backbone_main=main, d1=d1)
        node, node_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        widths = []

        def composed(table, *args):
            widths.append(table.shape[1])
            return composed_lookup_normalized_affine(table, *args)

        monkeypatch.setattr(predictors_mod, "lookup_normalized_affine", composed)
        composed_run, composed_picks = train_recording_picks(many_row_data, cfg, monkeypatch)
        assert widths and set(widths) == {d1}
        assert bool(node_picks) == (mode == "hard")
        assert_trained_alike(node, node_picks, composed_run, composed_picks)


class TestParameterNames:
    """Checkpoints name every tensor; these names and shapes are the ones
    checkpoints have always been written with."""

    EXPECTED = {
        "none": ([("emb.weight", (18, 8)), ("mlp.h0.weight", (32, 8)), ("mlp.h0.bias", (8,)),
                  ("mlp.out.weight", (8, 1)), ("mlp.out.bias", (1,))], []),
        "adafs": ([("emb.weight", (18, 8)), ("controller.bn.gamma", (32,)),
                   ("controller.bn.beta", (32,)), ("controller.fc.weight", (32, 4)),
                   ("controller.fc.bias", (4,)), ("mlp.h0.weight", (32, 8)),
                   ("mlp.h0.bias", (8,)), ("mlp.out.weight", (8, 1)), ("mlp.out.bias", (1,))],
                  [("controller.bn.running_mean", (32,)), ("controller.bn.running_var", (32,))]),
        "aefs": ([("aux.emb.weight", (18, 2)), ("aux.controller.bn.gamma", (8,)),
                  ("aux.controller.bn.beta", (8,)), ("aux.controller.fc.weight", (8, 4)),
                  ("aux.controller.fc.bias", (4,)), ("aux.mlp.h0.weight", (4, 8)),
                  ("aux.mlp.h0.bias", (8,)), ("aux.mlp.out.weight", (8, 1)),
                  ("aux.mlp.out.bias", (1,)), ("aux.align_fc.weight", (2, 8)),
                  ("aux.align_fc.bias", (8,)), ("main.emb.weight", (18, 8)),
                  ("main.mlp.h0.weight", (16, 8)), ("main.mlp.h0.bias", (8,)),
                  ("main.mlp.out.weight", (8, 1)), ("main.mlp.out.bias", (1,))],
                 [("aux.controller.bn.running_mean", (8,)),
                  ("aux.controller.bn.running_var", (8,))]),
    }

    @pytest.mark.parametrize("method", sorted(EXPECTED))
    def test_names_and_shapes_are_pinned(self, method):
        fitted = build_model([3, 4, 5, 6], small_config(method=method),
                             np.random.default_rng(0), np.random.default_rng(1))
        params = [(name, t.data.shape) for name, t in fitted.named_params()]
        buffers = [(name, arr.shape) for name, arr in fitted.named_buffers()]
        assert (params, buffers) == self.EXPECTED[method]


class TestNoneIsEveryFieldSubset:
    """`none` is a FixedSubsetModel over every field, bit for bit the
    PlainModel reference in parameters, reports, checkpoint bytes and
    lookup counts, with its first layer composed as the reference's is
    (`composed_lookup_affine`); `TestLookupAffineTraining` holds the node
    to that composition."""

    def test_matches_plain_model_reference(self, many_row_data, monkeypatch, tmp_path):
        cfg = small_config(method="none", max_epochs=2, batch_size=64)
        monkeypatch.setattr(predictors_mod, "lookup_affine", composed_lookup_affine)
        subset = train(many_row_data, cfg)

        def build_plain(vocab_sizes, config, rng, subset_rng):
            model = PlainModel(vocab_sizes, config.d1, config.backbone_main, config.hidden_dims,
                               config.n_cross_layers, rng)
            return FittedModel(model=model, k=subset.fitted.k)

        monkeypatch.setattr(training_mod, "build_model", build_plain)
        plain = train(many_row_data, cfg)
        assert isinstance(plain.fitted.model, PlainModel)
        for (name_a, a), (name_b, b) in zip(subset.fitted.named_params(),
                                            plain.fitted.named_params()):
            assert name_a == name_b and same_bits(a.data, b.data), name_a
        for a, b in zip(subset.report.rows, plain.report.rows):
            da, db = dict(a.__dict__), dict(b.__dict__)
            da.pop("seconds"), db.pop("seconds")
            assert da == db
        for side, result in (("subset", subset), ("plain", plain)):
            save_checkpoint(result.fitted, tmp_path / f"{side}.ckpt")
        assert (tmp_path / "subset.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
        for batch in (2048, 100):
            assert (evaluate(subset.fitted, many_row_data.test, batch)
                    == evaluate(plain.fitted, many_row_data.test, batch))
        assert same_bits(subset.fitted.main_embeddings.lookup_counts,
                         plain.fitted.main_embeddings.lookup_counts)
