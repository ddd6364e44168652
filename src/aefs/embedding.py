"""Per-field embedding tables with instrumented lookups, plus the
activated-parameter and lookup accounting.

All fields of one set share a single concatenated row matrix with per-field
offsets, so a batch lookup is one fancy index and its backward one scatter;
each field keeps its own table view, Xavier block, and lookup counter.

"Activated parameters" for one instance counts the full table of every
selected field (vocab_size x dim) plus, when an auxiliary set is present,
all auxiliary tables. Accounting keeps exact integer totals and returns
averages as exact rationals, so the decomposition identities hold without
floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .numerics import DimensionError, RowGrad, Tensor, scatter_rows, xavier_init


class SelectionIndexError(ValueError):
    """Duplicate or out-of-range field index in a selection."""


class EmbeddingTable:
    """One field's slice of the shared row matrix, with a lookup counter."""

    def __init__(self, owner: "EmbeddingSet", field_index: int):
        self.owner = owner
        self.field_index = field_index

    @property
    def vocab_size(self) -> int:
        return self.owner._vocab_sizes[self.field_index]

    @property
    def dim(self) -> int:
        return self.owner.dim

    @property
    def data(self) -> np.ndarray:
        """Writable (vocab_size, dim) view of this field's rows."""
        o = self.owner.offsets[self.field_index]
        return self.owner.weight.data[o:o + self.vocab_size]

    @property
    def grad(self) -> np.ndarray | None:
        g = self.owner.weight.grad
        if g is None:
            return None
        if isinstance(g, RowGrad):
            g = g.dense()
        o = self.owner.offsets[self.field_index]
        return g[o:o + self.vocab_size]

    @property
    def lookup_count(self) -> int:
        return int(self.owner.lookup_counts[self.field_index])

    def param_count(self) -> int:
        return self.vocab_size * self.dim


class EmbeddingSet:
    """N per-field tables sharing one embedding dimension."""

    def __init__(self, vocab_sizes: Sequence[int], dim: int, rng: np.random.Generator):
        if not vocab_sizes:
            raise ValueError("EmbeddingSet needs at least one field")
        self._vocab_sizes = [int(v) for v in vocab_sizes]
        self._dim = int(dim)
        self.offsets = np.concatenate([[0], np.cumsum(self._vocab_sizes)[:-1]]).astype(np.int64)
        blocks = [xavier_init(v, dim, rng) for v in self._vocab_sizes]
        self.weight = Tensor(np.concatenate(blocks, axis=0), requires_grad=True)
        self.lookup_counts = np.zeros(len(self._vocab_sizes), dtype=np.int64)
        self.tables = [EmbeddingTable(self, n) for n in range(len(self._vocab_sizes))]

    @property
    def n_fields(self) -> int:
        return len(self._vocab_sizes)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def vocab_sizes(self) -> list[int]:
        return list(self._vocab_sizes)

    def param_count(self) -> int:
        return sum(self._vocab_sizes) * self._dim

    def total_lookups(self) -> int:
        return int(self.lookup_counts.sum())

    def _check_ids(self, x: np.ndarray, fields: np.ndarray | None = None):
        sizes = np.asarray(self._vocab_sizes)
        limit = sizes[fields] if fields is not None else sizes[None, :]
        if (x < 0).any() or (x >= limit).any():
            raise IndexError("category id out of range for its field")

    def embed(self, x: np.ndarray) -> Tensor:
        """Embed every field of a batch: (B, N) ids -> (B, N, d)."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.n_fields:
            raise DimensionError(f"id batch {x.shape}, expected (*, {self.n_fields})")
        self._check_ids(x)
        out = self._lookup(x + self.offsets[None, :])
        self.lookup_counts += x.shape[0]
        return out

    def embed_selected(self, x: np.ndarray, indices: np.ndarray) -> Tensor:
        """Embed only the fields in `indices`, in their given order.

        x is (B, N) ids, indices is (B, k) distinct field positions per row;
        the result is (B, k, d). Exactly k lookups per instance are counted
        and unselected tables are untouched by both forward and backward.
        """
        x = np.asarray(x)
        indices = np.asarray(indices)
        b, k = indices.shape
        if x.shape[0] != b or x.ndim != 2:
            raise DimensionError(f"ids {x.shape} vs indices {indices.shape}")
        if indices.size == 0:
            return Tensor(np.zeros((b, 0, self._dim)))
        if indices.min() < 0 or indices.max() >= self.n_fields:
            raise SelectionIndexError("field index out of range")
        if k > 1:
            sorted_rows = np.sort(indices, axis=1)
            if (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any():
                raise SelectionIndexError("duplicate field index in a selection")

        rows = np.arange(b)[:, None]
        ids = x[rows, indices]
        self._check_ids(ids, indices)
        out = self._lookup(ids + self.offsets[indices])
        self.lookup_counts += np.bincount(indices.reshape(-1), minlength=self.n_fields)
        return out

    def _lookup(self, flat: np.ndarray) -> Tensor:
        """Rows `flat` of the shared matrix, (B, n) -> (B, n, d); backward
        gives the matrix a row-sparse gradient over the rows read."""
        weight = self.weight

        def bw(g):
            scatter_rows(weight, flat.reshape(-1), g.reshape(-1, self._dim))

        return Tensor(weight.data[flat], parents=(weight,), backward=bw)

    def named_params(self, prefix: str = ""):
        return [(prefix + "weight", self.weight)]


def full_param_count(vocab_sizes: Sequence[int], dim: int) -> int:
    return sum(int(v) * int(dim) for v in vocab_sizes)


@dataclass
class ActivationLedger:
    """Accumulates exact totals of activated embedding parameters and of
    main-model lookups over the instances observed, so the averages are
    per-instance means whatever the batch sizes."""

    instances_observed: int = 0
    sum_activated_params: int = 0
    sum_lookups: int = 0

    def add_batch(self, instances: int, activated_params: int, lookups: int):
        self.instances_observed += instances
        self.sum_activated_params += activated_params
        self.sum_lookups += lookups

    def merge(self, other: "ActivationLedger") -> "ActivationLedger":
        return ActivationLedger(
            instances_observed=self.instances_observed + other.instances_observed,
            sum_activated_params=self.sum_activated_params + other.sum_activated_params,
            sum_lookups=self.sum_lookups + other.sum_lookups,
        )

    def activated_params_avg(self) -> Fraction:
        self._require_instances()
        return Fraction(self.sum_activated_params, self.instances_observed)

    def lookups_avg(self) -> Fraction:
        self._require_instances()
        return Fraction(self.sum_lookups, self.instances_observed)

    def _require_instances(self):
        if self.instances_observed == 0:
            raise ValueError("ledger has observed no instances")


def record_batch_activation(ledger: ActivationLedger,
                            selected_per_instance: np.ndarray,
                            main_set: EmbeddingSet,
                            aux_set: EmbeddingSet | None = None) -> ActivationLedger:
    """Account one batch: per instance, activated parameters are the full
    auxiliary tables plus the full main table of each selected field."""
    sel = np.asarray(selected_per_instance)
    if sel.ndim != 2 or sel.shape[0] == 0:
        raise ValueError("selection batch must be a non-empty (B, k) array")
    b = sel.shape[0]
    aux_full = aux_set.param_count() if aux_set is not None else 0
    main_sizes = np.asarray(main_set.vocab_sizes, dtype=np.int64) * main_set.dim
    total_main = int(main_sizes[sel].sum())
    ledger.add_batch(b, aux_full * b + total_main, sel.size)
    return ledger


def delta_pae(d1: int, d2: int, r_kept) -> Fraction:
    """Fractional reduction in activated embedding parameters:
    (fields-dropped fraction) minus the auxiliary overhead d2/d1."""
    if not (0 < d2 <= d1):
        raise ValueError(f"need 0 < d2 <= d1, got d2={d2}, d1={d1}")
    r = Fraction(r_kept)
    if not (0 < r <= 1):
        raise ValueError(f"keep fraction must be in (0, 1], got {r_kept}")
    return (1 - r) - Fraction(d2, d1)


def delta_el(r_kept) -> Fraction:
    """Fractional reduction in main-model embedding lookups."""
    r = Fraction(r_kept)
    if not (0 < r <= 1):
        raise ValueError(f"keep fraction must be in (0, 1], got {r_kept}")
    return 1 - r


def compose_activated_params(main_full, main_reduction, aux_full) -> Fraction:
    """Total activated parameters from a main-model reduction and the
    auxiliary overhead: main_full - main_reduction + aux_full."""
    return Fraction(main_full) - Fraction(main_reduction) + Fraction(aux_full)
