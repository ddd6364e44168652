from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aefs.metrics import (
    DegenerateSampleError,
    Metrics,
    SingleClassError,
    auc,
    auc_exact,
    betainc_regularized,
    emit_report,
    logloss,
    metrics_row,
    welch_t_test,
)
from oracles import parse_report


def auc_pairwise_oracle(scores, labels) -> Fraction:
    # O(n^2) counting: wins + half ties over positive/negative pairs
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins2 = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins2 += 2
            elif p == q:
                wins2 += 1
    return Fraction(wins2, 2 * len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_equal_scores(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(2, 1001))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of exact ties
            scores = np.round(rng.random(n), 2)
            assert auc_exact(scores, labels) == auc_pairwise_oracle(scores, labels)

    @given(st.data(), st.integers(2, 300))
    @settings(max_examples=80, deadline=None)
    def test_heavy_ties_match_pairwise_oracle(self, data, n):
        # two or three values, +0.0 and -0.0 among them: long tie groups,
        # which the sort may leave in any order
        pool = data.draw(st.sampled_from([(0.0, -0.0), (0.0, -0.0, 1.0), (-0.0, 0.5, -2.0),
                                          (0.25, 0.75), (1e-300, 0.0, -1e300)]))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        labels[0], labels[-1] = 0, 1
        scores = np.asarray(pool)[picks]
        assert auc_exact(scores, labels) == auc_pairwise_oracle(scores, labels)

    def test_nan_scores_rank_above_every_number_in_their_order(self):
        """NaN equals nothing, so each NaN is a tie group of its own, and
        their order sets their ranks: a stable sort's, each NaN above every
        number and above the NaNs before it."""
        rng = np.random.default_rng(18)
        scores = np.round(rng.random(400), 1)
        scores[rng.choice(400, size=60, replace=False)] = np.nan
        labels = rng.integers(0, 2, size=400)
        nan = np.isnan(scores)
        ranked = scores.copy()
        ranked[nan] = 2.0 + np.arange(nan.sum())
        assert auc_exact(scores, labels) == auc_pairwise_oracle(ranked, labels)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            auc([0.1, 0.2], [1, 1])

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_increasing_transform(self, raw):
        # coarse grid so exp() cannot collapse distinct scores at float precision
        scores = np.round(np.asarray(raw), 6)
        labels = (np.arange(len(scores)) % 2).astype(int)
        base = auc_exact(scores, labels)
        assert auc_exact(np.exp(scores / 10.0), labels) == base

    def test_merges_by_pooling_not_averaging(self):
        s1, l1 = [0.9, 0.2], [1, 0]
        s2, l2 = [0.4, 0.6], [1, 0]
        pooled = auc(s1 + s2, l1 + l2)
        assert pooled == float(auc_pairwise_oracle(s1 + s2, l1 + l2))


class TestLogloss:
    def test_all_half(self):
        assert logloss([0.5, 0.5], [0, 1]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_confident_hits_clamp_floor(self):
        val = logloss([1.0, 0.0], [1, 0])
        assert val == pytest.approx(1e-7, rel=1e-3)

    def test_three_sample_hand_value(self):
        p = [0.8, 0.3, 0.6]
        y = [1, 0, 0]
        expected = (-np.log(0.8) - np.log(0.7) - np.log(0.4)) / 3.0
        assert logloss(p, y) == pytest.approx(expected, abs=1e-12)

    def test_base_rate_predictor_equals_label_entropy(self):
        y = np.array([1] * 3 + [0] * 7)
        rate = y.mean()
        entropy = -rate * np.log(rate) - (1 - rate) * np.log(1 - rate)
        assert logloss(np.full(10, rate), y) == pytest.approx(entropy, abs=1e-12)


class TestWelch:
    def test_identical_samples_give_p_one(self):
        s = [1.0, 2.0, 3.0, 4.0]
        assert welch_t_test(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_separated_means(self):
        a = [0.0, 0.0, 0.0, 0.0]
        b = [1.0, 1.001, 0.999, 1.0002]
        assert welch_t_test(a, b) < 0.01

    def test_textbook_example(self):
        # classic two-sample comparison; reference p from the standard
        # Welch procedure (t = -2.8353, df ~ 24.99)
        a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6,
             23.1, 19.6, 19.0, 21.7, 21.4]
        b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2,
             21.9, 22.1, 22.9, 30.0, 23.9]
        assert welch_t_test(a, b) == pytest.approx(0.00845273, abs=1e-3)

    def test_unequal_sizes_example(self):
        a = [19.8, 20.4, 19.6, 17.8, 18.5, 18.9, 18.3, 18.9, 19.5, 22.0]
        b = [28.2, 26.6, 20.1, 23.3, 25.2, 22.1, 17.7, 27.6, 20.6, 13.7,
             23.2, 17.5, 20.6, 18.0, 23.9, 21.6, 24.3, 20.4, 24.0, 13.2]
        assert welch_t_test(a, b) == pytest.approx(0.03597227, abs=1e-3)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSampleError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(DegenerateSampleError):
            welch_t_test([3.0, 3.0], [5.0, 5.0])

    def test_symmetry(self):
        a = [1.0, 2.0, 3.5, 2.2]
        b = [2.0, 2.5, 4.0, 3.8]
        assert welch_t_test(a, b) == pytest.approx(welch_t_test(b, a), abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=12),
           st.lists(st.floats(-10, 10), min_size=3, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, a, b):
        scipy_stats = pytest.importorskip("scipy.stats")
        a = np.round(np.asarray(a), 4)
        b = np.round(np.asarray(b), 4)
        if a.var(ddof=1) < 1e-6 or b.var(ddof=1) < 1e-6:
            return
        expected = scipy_stats.ttest_ind(a, b, equal_var=False).pvalue
        assert welch_t_test(a, b) == pytest.approx(expected, abs=1e-6)


class TestBetaInc:
    def test_known_values(self):
        # I_x(1, 1) is the identity on [0, 1]
        assert betainc_regularized(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)
        # I_x(2, 2) = x^2 (3 - 2x)
        x = 0.4
        assert betainc_regularized(2.0, 2.0, x) == pytest.approx(x * x * (3 - 2 * x), abs=1e-10)

    @given(st.floats(0.5, 20.0), st.floats(0.5, 20.0), st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, a, b, x):
        scipy_special = pytest.importorskip("scipy.special")
        assert betainc_regularized(a, b, x) == pytest.approx(
            float(scipy_special.betainc(a, b, x)), abs=1e-6)


class TestReports:
    def test_round_trip(self, tmp_path):
        m = Metrics(auc=0.7785, logloss=0.3808, n=4500,
                    activated_params_avg=37900.5, lookups_avg=8.0)
        rows = [metrics_row("aefs", m, delta_pae=0.375, seed=3)]
        jsonl, _ = emit_report(rows, jsonl_path=tmp_path / "r.jsonl")
        parsed = parse_report((tmp_path / "r.jsonl").read_text())
        assert parsed == rows
        assert parsed[0]["auc"] == 0.7785

    def test_table_sorted_by_auc_descending(self):
        rows = [
            {"method": "none", "auc": 0.71, "logloss": 0.5, "delta_pae": 0.0},
            {"method": "aefs", "auc": 0.74, "logloss": 0.48, "delta_pae": 0.375},
        ]
        _, table = emit_report(rows)
        lines = table.splitlines()
        assert lines[1].startswith("aefs")
        assert lines[2].startswith("none")
        assert "37.5%" in lines[1]

    def test_byte_deterministic(self):
        rows = [{"method": "a", "auc": 0.5, "logloss": 0.7, "delta_pae": None}]
        assert emit_report(rows) == emit_report([dict(rows[0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])
