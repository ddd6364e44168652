"""Per-field embedding tables with counted lookups, plus the
activated-parameter and lookup accounting.

All fields of one set share a single concatenated row matrix with per-field
offsets, so a batch lookup is one fancy index and its backward one scatter;
each field keeps its own Xavier block and lookup counter.

"Activated parameters" for one instance counts the full table of every
selected field (vocab_size x dim) plus, when an auxiliary set is present,
all auxiliary tables. The lookup counters of the main set are the whole
record of which fields were selected, so the averages follow from their
integer totals, as exact rationals, without floating-point rounding.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .numerics import DimensionError, Tensor, out_of_range, scatter_rows, xavier_init


class SelectionIndexError(ValueError):
    """Duplicate or out-of-range field index in a selection."""


class EmbeddingSet:
    """N per-field tables sharing one embedding dimension."""

    def __init__(self, vocab_sizes: Sequence[int], dim: int, rng: np.random.Generator):
        if not vocab_sizes:
            raise ValueError("EmbeddingSet needs at least one field")
        self._vocab_sizes = [int(v) for v in vocab_sizes]
        # unsigned, the type out_of_range compares ids in
        self._limits = np.asarray(self._vocab_sizes, dtype=np.uint64)
        self._dim = int(dim)
        self.offsets = np.concatenate([[0], np.cumsum(self._vocab_sizes)[:-1]]).astype(np.int64)
        blocks = [xavier_init(v, dim, rng) for v in self._vocab_sizes]
        self.weight = Tensor(np.concatenate(blocks, axis=0), requires_grad=True)
        self.lookup_counts = np.zeros(len(self._vocab_sizes), dtype=np.int64)

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

    def _check_ids(self, ids: np.ndarray, fields):
        """`ids` of the fields `fields` (one slice or index array, broadcast
        against `ids`) are within their tables."""
        if out_of_range(ids, self._limits[fields]):
            raise IndexError("category id out of range for its field")

    def embed(self, x: np.ndarray, fields=slice(None)) -> Tensor:
        """Embed the same fields of every row: (B, N) ids -> (B, n, d).

        `fields` is a slice or a 1-D array of distinct field positions, which
        the caller checks once; the default, every field, reads `x` without
        a copy. Each embedded field counts one lookup per row.
        """
        return self.lookup(self.rows(x, fields), fields)

    def rows(self, x: np.ndarray, fields=slice(None)) -> np.ndarray:
        """Rows of the shared matrix that hold the fields `fields` (as in
        `embed`) of each row of the (B, N) ids `x`: (B, n), every id checked
        against its table. A set built from the same vocabulary sizes has
        the same offsets, so they address its rows too."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.n_fields:
            raise DimensionError(f"id batch {x.shape}, expected (*, {self.n_fields})")
        ids = x[:, fields]
        self._check_ids(ids, fields)
        return ids + self.offsets[fields]

    def lookup(self, rows: np.ndarray, fields=slice(None)) -> Tensor:
        """Rows `rows` of the shared matrix, (B, n) -> (B, n, d), which the
        caller has checked, read by `read` and counted by `count`."""
        self.count(rows, fields)
        return self.read(rows)

    def count(self, rows: np.ndarray, fields=slice(None)) -> None:
        """Count each entry of the (B, n) `rows` as one lookup of its field:
        `fields` is a slice or 1-D array of the columns' fields, as in
        `embed`, or the (B, n) field of each entry."""
        if isinstance(fields, np.ndarray) and fields.ndim == 2:
            self.lookup_counts += np.bincount(fields.reshape(-1), minlength=self.n_fields)
        else:
            self.lookup_counts[fields] += rows.shape[0]

    def read(self, rows: np.ndarray) -> Tensor:
        """Rows `rows` of the shared matrix, (B, n) -> (B, n, d), uncounted;
        backward gives the matrix a row-sparse gradient over the rows read."""
        weight = self.weight

        def bw(g):
            scatter_rows(weight, rows.reshape(-1), g.reshape(-1, self._dim))

        return Tensor(np.take(weight.data, rows, axis=0), parents=(weight,), backward=bw)

    def named_params(self, prefix: str = ""):
        return [(prefix + "weight", self.weight)]


def full_param_count(vocab_sizes: Sequence[int], dim: int) -> int:
    return sum(int(v) * int(dim) for v in vocab_sizes)


def activation_averages(counts: np.ndarray, n_instances: int, main_set: EmbeddingSet,
                        aux_set: EmbeddingSet | None) -> tuple[Fraction, Fraction]:
    """Per-instance means of activated embedding parameters and of main
    lookups, over `n_instances` instances that made `counts[f]` lookups of
    main field f: each instance activates every auxiliary table, and each
    lookup the whole main table of its field."""
    main = int(counts @ (np.asarray(main_set.vocab_sizes, dtype=np.int64) * main_set.dim))
    aux = aux_set.param_count() if aux_set is not None else 0
    return (Fraction(aux * n_instances + main, n_instances),
            Fraction(int(counts.sum()), n_instances))


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
