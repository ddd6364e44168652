"""Evaluation metrics and report emission.

AUC follows the Mann-Whitney convention (ties get half credit) and is
computed from rank statistics in O(n log n); the exact rational value is
available for oracle comparisons. The two-sided Welch t-test evaluates its
p-value through the regularized incomplete beta function with a continued
fraction, targeting 1e-6 accuracy.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

EPS_CLAMP = 1e-7


class SingleClassError(ValueError):
    """AUC is undefined without both a positive and a negative sample."""


class DegenerateSampleError(ValueError):
    """t-test inputs too small or with no variance anywhere."""


@dataclass
class Metrics:
    """Figures of one scoring pass. The dataclass fields are the report's
    columns. `selection_frequency` (per field, the share of instances that
    selected it) and `selection_precision` (the share of selections among
    the informative fields, when those are known) are plain attributes
    that `evaluate` sets, so equality and `asdict` see the columns alone."""

    auc: float
    logloss: float
    n: int
    activated_params_avg: float = 0.0
    lookups_avg: float = 0.0
    selection_frequency = None
    selection_precision = None


def auc_exact(scores: Sequence[float], labels: Sequence[int]) -> Fraction:
    """Exact probability that a random positive outranks a random negative."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.shape[0]
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != n:
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("need at least one positive and one negative")
    # tie groups are contiguous under any sort, so the default one serves;
    # NaN compares unequal to itself, so each NaN is a group of its own and
    # their order, which only a stable sort fixes, sets their ranks
    order = np.argsort(scores)
    if np.isnan(scores[order[-1]]):  # numpy sorts NaN last
        order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    pos_sorted = labels[order] == 1
    group_start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    group_end = np.r_[group_start[1:], n]  # exclusive
    # doubled midrank of a 1-based tie group [lo, hi] is lo + hi
    doubled = group_start + group_end + 1
    doubled_per_item = np.repeat(doubled, group_end - group_start)
    r2_pos = int(doubled_per_item[pos_sorted].sum())
    return Fraction(r2_pos - n_pos * (n_pos + 1), 2 * n_pos * n_neg)


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    return float(auc_exact(scores, labels))


def logloss(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mean binary cross-entropy; scores clamped away from 0 and 1."""
    p = np.clip(np.asarray(scores, dtype=np.float64), EPS_CLAMP, 1.0 - EPS_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    tiny = 1e-300
    conv = 3e-12
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < conv:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sided Welch p-value with Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise DegenerateSampleError("each sample needs at least 2 values")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    sa, sb = va / a.size, vb / b.size
    se2 = sa + sb
    if se2 == 0.0:
        raise DegenerateSampleError("both samples have zero variance")
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    with np.errstate(invalid="ignore", divide="ignore"):
        df = se2 * se2 / (sa * sa / (a.size - 1) + sb * sb / (b.size - 1))
    if not (math.isfinite(t) and math.isfinite(df) and df > 0.0):
        raise DegenerateSampleError("variances too extreme for a finite test statistic")
    p = betainc_regularized(df / 2.0, 0.5, df / (df + t * t))
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# reports

REPORT_COLUMNS = ("method", "auc", "logloss", "delta_pae")


def emit_report(rows: Sequence[dict], jsonl_path: Path | None = None,
                table_path: Path | None = None) -> tuple[str, str]:
    """Serialize metric rows as line-delimited JSON plus an aligned table.

    The table mirrors the comparison layout (method, AUC, Logloss, dPaE)
    sorted by AUC descending; output is byte-deterministic for equal input.
    """
    if not rows:
        raise ValueError("emit_report needs at least one row")
    jsonl = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)

    ordered = sorted(rows, key=lambda r: (-float(r.get("auc", 0.0)), str(r.get("method", ""))))
    cells = [("method", "AUC", "Logloss", "dPaE")]
    for row in ordered:
        dpae = row.get("delta_pae")
        cells.append((
            str(row.get("method", "?")),
            f"{float(row['auc']):.4f}" if "auc" in row else "-",
            f"{float(row['logloss']):.4f}" if "logloss" in row else "-",
            f"{100.0 * float(dpae):g}%" if dpae is not None else "-",
        ))
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = ["  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip()
             for row in cells]
    table = "\n".join(lines) + "\n"

    if jsonl_path is not None:
        Path(jsonl_path).write_text(jsonl)
    if table_path is not None:
        Path(table_path).write_text(table)
    return jsonl, table


def metrics_row(method: str, metrics: Metrics, delta_pae: float | None = None,
                **extra) -> dict:
    row = {"method": method, **asdict(metrics)}
    row["delta_pae"] = delta_pae
    row.update(extra)
    return row
