"""Seeded input generator for the benchmark workloads.

The program under test only ever sees the files written here (format B:
``data.csv`` plus ``schema.json``). The ground truth -- which fields carry
signal and how well the generating teacher itself ranks the labels -- stays
with the benchmark, computed by its own code, so the checks never trust the
program to grade itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

FIELDS = 16
INFORMATIVE = 8  # fields whose ids carry signal; the other FIELDS - INFORMATIVE are noise


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's inputs."""

    records: int
    vocab: int           # distinct ids per field before vocabulary cut-off
    zipf: float | None   # None: uniform ids; otherwise P(rank r) ~ r ** -zipf


@dataclass
class Truth:
    informative_fields: list[int]
    teacher_auc: float


def generate(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray, Truth]:
    """Planted-signal click data: (ids (records, fields), labels, truth).

    Labels are Bernoulli(sigmoid(logit)); the logit sums one signed effect
    per informative field (magnitude uniform on [0.5, 1.5]), so noise fields
    carry no information at all. Heavy-tailed ids keep the signal learnable
    on the frequent head ids while the tail fills large vocabularies.
    """
    rng = np.random.default_rng(seed)
    records = shape.records
    informative = sorted(rng.choice(FIELDS, size=INFORMATIVE, replace=False).tolist())
    if shape.zipf is None:
        x = rng.integers(0, shape.vocab, size=(records, FIELDS))
    else:
        weights = np.arange(1, shape.vocab + 1, dtype=np.float64) ** -shape.zipf
        cdf = np.cumsum(weights) / weights.sum()
        x = np.searchsorted(cdf, rng.random((records, FIELDS)))
        x = np.minimum(x, shape.vocab - 1)
    logit = np.zeros(records)
    for n in informative:
        effect = rng.choice([-1.0, 1.0], size=shape.vocab) * rng.uniform(0.5, 1.5, shape.vocab)
        logit += effect[x[:, n]]
    y = (rng.random(records) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return x, y, Truth(informative_fields=informative, teacher_auc=auc(logit, y))


def write_format_b(x: np.ndarray, y: np.ndarray, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path, schema_path = out_dir / "data.csv", out_dir / "schema.json"
    names = [f"f{n:02d}" for n in range(x.shape[1])]
    with open(data_path, "w") as fh:
        fh.write(",".join(["label"] + names) + "\n")
        np.savetxt(fh, np.column_stack([y, x]), fmt="%d", delimiter=",")
    schema = {"fields": [{"name": name, "kind": "categorical"} for name in names]}
    schema_path.write_text(json.dumps(schema) + "\n")
    return data_path, schema_path


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, ties
    counting one half; exact in rationals, by counting against the sorted
    negatives (an algorithm independent of the program's rank-sum)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes")
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    twice_wins = int(2 * below.sum() + (at_or_below - below).sum())
    return float(Fraction(twice_wins, 2 * pos.size * neg.size))
