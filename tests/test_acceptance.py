"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 6 (AEFS AUC close to no selection on every seed) and 7
(informative-field selection precision) share one fixture that trains each
(method, seed) once on a 64k-record synthetic dataset; it is the one slow
part of this suite. Run with
`pytest tests/test_acceptance.py -v -s` to see the pass lines.
"""
from fractions import Fraction

import numpy as np
import pytest

from aefs.cli import main as cli_main
from aefs.data import SyntheticSpec, generate_synthetic
from aefs.embedding import activation_averages, delta_pae, full_param_count
from aefs.metrics import auc_exact, welch_t_test
from aefs.numerics import Tensor, softmax
from aefs.predictors import (
    DCNPredictor,
    DeepFMPredictor,
    MLPPredictor,
    PredictorConfig,
    bce,
    fm_pairwise_interaction,
)
from aefs.selection import aefs_forward
from aefs.training import TrainConfig, evaluate, prepare, train
from oracles import aefs_trace, compose_activated_params, embed_per_row, grad_check


def ok(criterion: str, detail: str):
    print(f"\nACCEPTANCE PASS [{criterion}]: {detail}")


# -------------------------------------------------------------------------
# criterion 1: parameter-efficiency arithmetic, exact

def test_criterion_1_parameter_efficiency_arithmetic():
    assert delta_pae(32, 4, Fraction(1, 2)) == Fraction(3, 8)        # 37.5%
    assert delta_pae(32, 2, Fraction(1, 2)) == Fraction(7, 16)       # 43.75%
    assert delta_pae(32, 6, Fraction(1, 2)) == Fraction(5, 16)       # 31.25%
    assert delta_pae(32, 16, Fraction(1, 2)) == Fraction(0)          # 0.0%
    assert full_param_count([2_018_012], 32) == 64_576_384
    assert full_param_count([1_086_810], 32) == 34_777_920
    assert full_param_count([2_018_012], 4) == 8_072_048
    ok("1 parameter-efficiency arithmetic",
       "delta_pae {37.5, 43.75, 31.25, 0}% and table sizes 64,576,384 / "
       "34,777,920 / 8,072,048 exact")


# -------------------------------------------------------------------------
# criterion 2: accounting identity, exact rational

def test_criterion_2_accounting_identity():
    # composition with the reference inputs, in millions
    total = compose_activated_params(Fraction("64.58e6"), Fraction("34.75e6"),
                                     Fraction("8.07e6"))
    assert total == Fraction("37.90e6")

    # ledger identity on an arbitrary run: the average read off the main
    # lookup counters is aux_full + mean selected main tables
    from aefs.embedding import EmbeddingSet
    rng = np.random.default_rng(2)
    vocab = [13, 401, 37, 89, 5, 211]
    main = EmbeddingSet(vocab, 8, np.random.default_rng(0))
    aux = EmbeddingSet(vocab, 2, np.random.default_rng(1))
    expected_sum = Fraction(0)
    batches = 17
    for _ in range(batches):
        sel = np.stack([rng.choice(6, size=3, replace=False) for _ in range(9)])
        embed_per_row(main, np.zeros((9, 6), dtype=int), sel)
        sizes = np.asarray(vocab) * 8
        expected_sum += Fraction(int(sizes[sel].sum()), 9) + aux.param_count()
    activated, _ = activation_averages(main.lookup_counts, 9 * batches, main, aux)
    assert activated == expected_sum / batches
    ok("2 accounting identity",
       "64.58M - 34.75M + 8.07M == 37.90M exactly; the counter average equals "
       "aux_full + mean selected main tables as exact rationals")


# -------------------------------------------------------------------------
# criterion 3: lookup reduction on a synthetic run

def test_criterion_3_lookup_reduction():
    from aefs.selection import DualModel, LateSelectionModel
    sd = generate_synthetic(SyntheticSpec(n_records=2000, teacher_seed=5))
    data = prepare(sd.columns, sd.schema, seed=0, min_freq=1)
    vocab = data.vocab.vocab_sizes
    assert len(vocab) == 16

    pair = DualModel(vocab, d1=32, d2=4, k=8, backbone_main="mlp", backbone_aux="mlp",
                     hidden_dims=(16, 16), n_cross_layers=2,
                     rng=np.random.default_rng(0))
    n_inst = len(data.test)
    for start in range(0, n_inst, 256):
        aefs_forward(pair, data.test.x[start:start + 256], training=False)
    assert pair.main_embeddings.lookup_counts.sum() == 8 * n_inst
    assert pair.aux_embeddings.lookup_counts.sum() == 16 * n_inst

    late = LateSelectionModel(vocab, 32, "mlp", (16, 16), 2, np.random.default_rng(1),
                              mode="hard", k=8)
    for start in range(0, n_inst, 256):
        late.forward(data.test.x[start:start + 256], training=False)
    assert late.main_embeddings.lookup_counts.sum() == 16 * n_inst
    ok("3 lookup reduction",
       f"over {n_inst} instances: main 8/instance, aux 16/instance, "
       "late-hard 16/instance, all exact")


# -------------------------------------------------------------------------
# criterion 4: gradient correctness

def test_criterion_4_full_joint_loss_grad_check():
    from aefs.selection import DualModel
    vocab = [5, 7, 4, 6, 5, 8]
    pair = DualModel(vocab, d1=6, d2=2, k=3, backbone_main="mlp", backbone_aux="mlp",
                     hidden_dims=(4,), n_cross_layers=2, rng=np.random.default_rng(7))
    rng = np.random.default_rng(17)
    x = rng.integers(0, 4, size=(4, 6))
    y = rng.integers(0, 2, size=4).astype(float)

    trace = aefs_trace(pair, x, training=True)
    sorted_scores = -np.sort(-softmax(trace.logits.data, axis=1), axis=1)
    margin = (sorted_scores[:, 2] - sorted_scores[:, 3]).min()
    assert margin > 1e-3  # top-k boundary stable under +/- eps nudges

    def loss():
        return pair.loss(x, y)[0]

    params = [t for _, t in pair.named_params()]
    err = grad_check(loss, params, eps=1e-5)
    assert err < 1e-3
    ok("4a full joint loss gradient",
       f"max relative error {err:.2e} < 1e-3 over {sum(p.data.size for p in params)} "
       "parameters (6 fields, d1=6, d2=2)")


@pytest.mark.parametrize("cls", [MLPPredictor, DeepFMPredictor, DCNPredictor])
def test_criterion_4_backbones_grad_check(cls):
    cfg = PredictorConfig(variant={"MLPPredictor": "mlp", "DeepFMPredictor": "deepfm",
                                   "DCNPredictor": "dcn"}[cls.__name__],
                          input_fields=4, emb_dim=3, hidden_dims=(5,), n_cross_layers=2)
    model = cls(cfg, np.random.default_rng(42))
    rng = np.random.default_rng(1)
    e = Tensor(rng.normal(size=(4, 4, 3)))
    y = rng.integers(0, 2, size=4).astype(float)
    params = [t for _, t in model.named_params()]
    err = grad_check(lambda: bce(model(e), y), params, eps=1e-5)
    assert err < 1e-3
    ok(f"4b {cfg.variant} backbone gradient", f"max relative error {err:.2e} < 1e-3")


# -------------------------------------------------------------------------
# criterion 5: oracle equivalences

def test_criterion_5_auc_pairwise_oracle():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins2 = (2 * (pos[:, None] > neg[None, :]).sum()
                 + (pos[:, None] == neg[None, :]).sum())
        oracle = Fraction(int(wins2), 2 * len(pos) * len(neg))
        assert auc_exact(scores, labels) == oracle
    ok("5a AUC oracle", "rank-based AUC == O(n^2) pairwise counting on 100 "
                        "random cases (n <= 1000), exact")


def test_criterion_5_fm_oracle():
    rng = np.random.default_rng(56)
    e = rng.normal(size=(8, 6, 5))
    got = fm_pairwise_interaction(Tensor(e)).data
    expect = np.zeros(8)
    for i in range(8):
        for p in range(6):
            for q in range(p + 1, 6):
                expect[i] += float(e[i, p] @ e[i, q])
    worst = np.abs(got - expect).max()
    assert worst < 1e-10
    ok("5b FM-term oracle", f"square-of-sum identity vs brute-force pairwise "
                            f"dot sum, max abs diff {worst:.1e} < 1e-10")


def test_criterion_5_welch_textbook():
    a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6,
         23.1, 19.6, 19.0, 21.7, 21.4]
    b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2,
         21.9, 22.1, 22.9, 30.0, 23.9]
    p = welch_t_test(a, b)
    assert p == pytest.approx(0.00845273, abs=1e-3)
    ok("5c Welch textbook example", f"p = {p:.6f} within 1e-3 of the worked value")


# -------------------------------------------------------------------------
# criteria 6 and 7: quality at a fixed training budget

QUALITY_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def quality_runs():
    """Test metrics at the best-validation epoch of each (method, seed):
    the default synthetic dataset at 64k records, 16 epochs of the default
    configuration with soft adafs."""
    sd = generate_synthetic(SyntheticSpec(n_records=64_000))
    data = prepare(sd.columns, sd.schema, seed=0, min_freq=10,
                   informative_fields=sd.informative_fields)
    runs = {}
    for method in ("none", "adafs", "aefs"):
        for seed in QUALITY_SEEDS:
            config = TrainConfig(method=method, max_epochs=16, min_freq=10, seed=seed)
            fitted = train(data, config).fitted
            runs[method, seed] = evaluate(fitted, data.test, config.batch_size,
                                          informative_fields=data.informative_fields)
    return runs


def test_criterion_6_aefs_auc_close_to_no_selection(quality_runs):
    lines = []
    for seed in QUALITY_SEEDS:
        none, adafs, aefs = (quality_runs[m, seed].auc for m in ("none", "adafs", "aefs"))
        assert aefs >= adafs - 0.005, f"seed {seed}: aefs {aefs:.4f}, adafs {adafs:.4f}"
        assert aefs >= none - 0.02, f"seed {seed}: aefs {aefs:.4f}, none {none:.4f}"
        lines.append(f"seed {seed}: aefs {aefs:.4f}, adafs {adafs:.4f}, none {none:.4f}")
    ok("6 AEFS AUC close to no selection",
       "test AUC >= soft adafs - 0.005 and >= none - 0.02; " + "; ".join(lines))


def test_criterion_7_selection_precision(quality_runs):
    precisions = [quality_runs["aefs", seed].selection_precision for seed in QUALITY_SEEDS]
    for seed, precision in zip(QUALITY_SEEDS, precisions):
        assert precision >= 0.58, f"seed {seed}: precision {precision:.4f}"
    ok("7 informative-field selection precision",
       "per-instance share of aefs selections on planted fields >= 0.58 (chance 0.5): "
       + ", ".join(f"{p:.4f}" for p in precisions))


# -------------------------------------------------------------------------
# criterion 8: byte-identical reports for identical config+seed

def test_criterion_8_determinism(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli_main(["synth", "--out", str(data_dir), "--records", "5000",
                   "--fields", "8", "--informative", "4", "--vocab", "12",
                   "--seed", "3"])
    assert rc == 0
    args = ["train", "--data", str(data_dir), "--method", "aefs", "--d1", "8",
            "--d2", "2", "--max-epochs", "2", "--batch-size", "512",
            "--min-freq", "1", "--seed", "7"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    d1 = next((tmp_path / "r1").iterdir())
    d2 = next((tmp_path / "r2").iterdir())
    for name in ("report.jsonl", "report.txt", "model.ckpt", "vocab_sizes.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    ok("8 determinism", "two cmd_train invocations with identical config+seed "
                        "produced byte-identical metric reports and checkpoints")
