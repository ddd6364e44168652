"""Dense float64 numeric core with reverse-mode gradients.

A small tape-based engine over numpy arrays: enough ops to express
embedding lookups, affine towers, batch normalization folded into the
affine map after it, softmax scoring, per-instance gather/scatter
selection, and the losses built on them.
Everything runs at 64-bit precision so finite-difference gradient checks
can be held to tight tolerances. A table read by row lookups gets a
row-sparse gradient (``RowGrad``) holding only the rows it touched.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateBatchError(ValueError):
    """Batch statistics were requested on a batch of fewer than 2 rows."""


_taping = True  # False inside `no_tape`


@contextlib.contextmanager
def no_tape():
    """Within this scope a new tensor records no parents and no backward
    closure, so each intermediate of a forward pass is freed as soon as the
    next op has read it. Evaluation scores in it: nothing it computes is
    differentiated. Nests, and restores the previous state on any exit."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def _const(x) -> "Tensor":
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Tensor:
    """Node in a reverse-mode computation graph over a float64 ndarray.

    Leaf tensors created with ``requires_grad=True`` accumulate gradients in
    ``.grad`` after ``backward()`` is called on a scalar result. Interior
    nodes carry a closure that routes the upstream gradient to their parents;
    ``backward()`` releases an interior node's ``.grad`` (sets it to None)
    as soon as its closure has run, so a parent may take over that buffer
    without a copy. Leaves keep theirs. A closure may return a function,
    which the pass calls once every closure has run, in the order they
    returned them; it may add only to leaves' gradients. A tensor made
    inside `no_tape` is a constant whatever its operands.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # make numpy defer to the reflected operators instead of broadcasting
    # elementwise over this object
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward: Callable[[Array], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or (
            _taping and any(p.requires_grad for p in parents))
        self.grad: Array | None = None
        if self.requires_grad:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_scalar(self)

    def backward(self):
        if self.data.size != 1:
            raise DimensionError("backward() needs a scalar loss, got shape %s" % (self.shape,))
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        deferred = []
        for node in reversed(topo):
            if node._backward is not None:
                then = node._backward(node.grad)
                node.grad = None
                if then is not None:
                    deferred.append(then)
        for then in deferred:
            then()

    # arithmetic sugar; non-Tensor operands become constants
    def __add__(self, other):
        return add(self, _const(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _const(other))

    def __rsub__(self, other):
        return sub(_const(other), self)

    def __mul__(self, other):
        return mul(self, _const(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _const(other))

    def __rtruediv__(self, other):
        return div(_const(other), self)

    def __neg__(self):
        return mul(self, _const(-1.0))

    def __matmul__(self, other):
        return matmul(self, _const(other))

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _raise_scalar(t: Tensor):
    raise DimensionError("item() on non-scalar tensor of shape %s" % (t.shape,))


def _accum(t: Tensor, g: Array, owned: bool = False):
    """Add `g` to ``t.grad``. An `owned` array is one no one else holds or
    will write (fresh from the closure, or the released gradient of the
    node being processed, or a view of it); the first gradient of `t` then
    takes it over instead of copying it."""
    if not t.requires_grad:
        return
    if isinstance(t.grad, RowGrad):
        t.grad = t.grad.dense()
    if t.grad is None:
        if owned and isinstance(g, np.ndarray) and g.shape == t.data.shape:
            t.grad = g
            return
        # materialize broadcast views and detach from caller-owned buffers
        t.grad = np.array(g, dtype=np.float64)
        if t.grad.shape != t.data.shape:
            t.grad = np.broadcast_to(t.grad, t.data.shape).copy()
    else:
        t.grad += g


def _sum_to_shape(g: Array, shape: tuple) -> Array:
    """Undo numpy broadcasting: reduce g back to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            ga = _sum_to_shape(g, a.data.shape)
            # g itself is handed over uncopied once: to b when b takes it too
            shared = ga is g and b.requires_grad and b.data.shape == g.shape
            _accum(a, ga, owned=not shared)
        if b.requires_grad:
            _accum(b, _sum_to_shape(g, b.data.shape), owned=True)

    return Tensor(out, parents=(a, b), backward=bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(g, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _sum_to_shape(-g, b.data.shape), owned=True)

    return Tensor(out, parents=(a, b), backward=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _sum_to_shape(g * a.data, b.data.shape), owned=True)

    return Tensor(out, parents=(a, b), backward=bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(g / b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _sum_to_shape(-g * a.data / (b.data * b.data), b.data.shape), owned=True)

    return Tensor(out, parents=(a, b), backward=bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, owned=True)

    return Tensor(out, parents=(a, b), backward=bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + bias, bias broadcast per row.

    One tape node: the forward adds the bias in place to the product, and
    the backward gives x ``g @ w.T``, w ``x.T @ g`` and the bias
    ``g.sum(axis=0)``, the values a matmul node and an add node compute.
    """
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"affine needs 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"affine inner dims {x.shape[1]} != {w.shape[0]}")
    if b.data.shape != (w.shape[1],):
        raise DimensionError(f"affine bias shape {b.data.shape}, expected ({w.shape[1]},)")
    out = x.data @ w.data
    out += b.data

    def bw(g):
        if b.requires_grad:
            _accum(b, g.sum(axis=0), owned=True)
        if x.requires_grad:
            _accum(x, g @ w.data.T, owned=True)
        if w.requires_grad:
            _accum(w, x.data.T @ g, owned=True)

    return Tensor(out, parents=(x, w, b), backward=bw)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def bw(g):
        _accum(a, g / a.data, owned=True)

    return Tensor(out, parents=(a,), backward=bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bw(g):
        _accum(a, g * (a.data > 0.0), owned=True)

    return Tensor(out, parents=(a,), backward=bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the strict interior."""
    out = np.clip(a.data, lo, hi)

    def bw(g):
        _accum(a, g * ((a.data > lo) & (a.data < hi)), owned=True)

    return Tensor(out, parents=(a,), backward=bw)


def sigmoid(x):
    """Numerically stable logistic function.

    Accepts a Tensor (differentiable) or a plain float/ndarray. NaN input
    is rejected.
    """
    if isinstance(x, Tensor):
        out = _sigmoid_stable(x.data)

        def bw(g):
            _accum(x, g * out * (1.0 - out), owned=True)

        return Tensor(out, parents=(x,), backward=bw)
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("sigmoid of NaN")
    val = _sigmoid_stable(arr)
    return float(val) if np.isscalar(x) or arr.ndim == 0 else val


def _sigmoid_stable(z: Array) -> Array:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so each entry
    # takes the same operations as when the two signs are computed apart
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def softmax(x, axis: int = -1):
    """Max-subtracted softmax along `axis`; rows sum to 1.

    Tensor input builds a graph node; array input returns an array.
    """
    if isinstance(x, Tensor):
        s = _softmax_stable(x.data, axis)

        def bw(g):
            inner = (g * s).sum(axis=axis, keepdims=True)
            _accum(x, s * (g - inner), owned=True)

        return Tensor(s, parents=(x,), backward=bw)
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("softmax of NaN")
    return _softmax_stable(arr, axis)


def _softmax_stable(z: Array, axis: int) -> Array:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return Tensor(out, parents=(a,), backward=bw)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), _const(1.0 / n))


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape), owned=True)

    return Tensor(out, parents=(a,), backward=bw)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, bounds, axis=axis)):
            _accum(p, piece, owned=True)

    return Tensor(out, parents=tuple(parts), backward=bw)


class RowGrad:
    """Gradient of a 2-D table that is zero outside a set of rows.

    ``values[i]`` is the gradient of row ``rows[i]`` of an ``n_rows``-row
    table; ``rows`` is ascending and distinct. ``shape``, ``size`` and
    ``any`` describe the stored rows, ``dense()`` the whole table.
    """

    __slots__ = ("rows", "values", "n_rows")

    def __init__(self, rows: Array, values: Array, n_rows: int):
        self.rows = rows
        self.values = values
        self.n_rows = n_rows

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def any(self, axis=None):
        return self.values.any(axis=axis)

    def dense(self) -> Array:
        out = np.zeros((self.n_rows,) + self.values.shape[1:])
        out[self.rows] = self.values
        return out


def scatter_rows(table: Tensor, ids: Array, g: Array) -> None:
    """Accumulate ``g[i]`` into row ``ids[i]`` of ``table.grad`` as a RowGrad.

    Every row sums the gradient already there and then its new
    contributions in index order, the order ``np.add.at`` uses, so the
    stored rows are bit-identical to a scatter into a dense zero gradient.
    """
    n, d = table.data.shape
    prior = table.grad
    if prior is not None:
        if not isinstance(prior, RowGrad):
            prior = RowGrad(np.arange(n), prior, n)
        ids = np.concatenate([prior.rows, ids])
        g = np.concatenate([prior.values, g])
    rows, slots = distinct_rows(ids, n)
    # one bincount over (row slot, column) pairs: each bin adds its
    # weights in input order, starting from zero
    bins = (slots * d)[:, None] + np.arange(d)
    values = np.bincount(bins.reshape(-1), weights=g.reshape(-1), minlength=rows.size * d)
    table.grad = RowGrad(rows, values.reshape(rows.size, d), n)


def add_rows(table: Tensor, rows: Array, values: Array) -> None:
    """Add ``values[i]`` to row ``rows[i]`` of ``table.grad``; `rows` is
    ascending and distinct. Each row adds the new term after the gradient
    already there. No gradient becomes a RowGrad of `rows`; a RowGrad that
    holds every row of `rows` (as after a lookup of those rows) takes the
    terms in place, and a dense gradient too; any other gradient goes
    through `scatter_rows`."""
    grad = table.grad
    if grad is None:  # the bits of a scatter into no gradient: -0.0 becomes 0.0
        table.grad = RowGrad(rows, values + 0.0, table.shape[0])
        return
    if isinstance(grad, RowGrad) and np.array_equal(grad.rows, rows):
        grad.values += values
        return
    if isinstance(grad, RowGrad) and grad.rows.size:
        at = np.minimum(np.searchsorted(grad.rows, rows), grad.rows.size - 1)
        if (grad.rows[at] == rows).all():
            grad.values[at] += values
            return
    elif isinstance(grad, np.ndarray):
        grad[rows] += values
        return
    scatter_rows(table, rows, values)


def distinct_rows(ids: Array, n: int) -> tuple[Array, Array]:
    """The distinct entries of the 1-D `ids`, all in ``[0, n)``, ascending,
    and each entry's position among them."""
    touched = np.zeros(n, dtype=bool)
    touched[ids] = True
    rows = np.flatnonzero(touched)
    slot = np.empty(n, dtype=np.intp)
    slot[rows] = np.arange(rows.size)
    return rows, slot[ids]


def out_of_range(idx: Array, limit) -> bool:
    """Whether an entry of the integer array `idx` falls outside
    ``[0, limit)``; `limit` is a bound or an array of bounds broadcast
    against `idx`. One comparison: viewed as unsigned, a negative entry
    exceeds every bound."""
    if idx.dtype.kind == "i":
        idx = idx.view(np.dtype(f"u{idx.dtype.itemsize}"))
    return bool((idx >= limit).any())


def gather_fields(x: Tensor, idx: Array) -> Tensor:
    """Per-row gather along axis 1 of a (B, N) or (B, N, D) tensor.

    idx has shape (B, k) and holds distinct positions in ``[0, N)`` per row,
    as a row's top k do; output row i holds x[i, idx[i, j]] in idx order.
    Both directions go through flat positions in the (B*N, ...) view of x:
    backward adds each upstream entry to the one position it was read from.
    """
    idx = np.asarray(idx)
    b = x.shape[0]
    if idx.ndim != 2 or idx.shape[0] != b:
        raise DimensionError(f"index shape {idx.shape} incompatible with {x.shape}")
    flat_shape = (b * x.shape[1],) + x.shape[2:]
    flat = idx + x.shape[1] * np.arange(b)[:, None]
    out = np.take(x.data.reshape(flat_shape), flat, axis=0)

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros(x.shape)
        elif not x.grad.flags.c_contiguous:  # the flat view must share its memory
            x.grad = np.ascontiguousarray(x.grad)
        # distinct positions: one addend each, as np.add.at would add
        x.grad.reshape(flat_shape)[flat] += g

    return Tensor(out, parents=(x,), backward=bw)


def scale_embeddings(e_sel: Tensor, weights: Tensor) -> Tensor:
    """Multiply each field vector by its weight: (B, n, d) by (B, n).

    One tape node. The forward is the product as one ``einsum``, bit for
    bit the broadcast product and faster at a training batch's size. The
    backward takes each weight's gradient, the inner product of the
    upstream gradient with that field's embedding, as one contraction over
    d, without a (B, n, d) product array; it then scales the released
    upstream gradient in place by the weights, which gives the embeddings
    theirs. The embedding gradient is bit-identical to a broadcast
    multiply's; the weight gradient sums its d terms in another order, so
    it equals the multiply's to rounding.

    Inside `no_tape` the product is written into ``e_sel.data``, which is
    returned: the same values, without a second (B, n, d) array. A caller
    that scores there must pass embeddings it does not read afterwards,
    such as a lookup's fresh result.
    """
    if e_sel.shape[:2] != weights.shape:
        raise DimensionError(f"embeddings {e_sel.shape} vs weights {weights.shape}")
    if not _taping:
        return Tensor(np.multiply(e_sel.data, weights.data[:, :, None], out=e_sel.data))

    def bw(g):
        if weights.requires_grad:
            _accum(weights, np.einsum("bnd,bnd->bn", g, e_sel.data), owned=True)
        if e_sel.requires_grad:
            g *= weights.data[:, :, None]
            _accum(e_sel, g, owned=True)

    return Tensor(np.einsum("bnd,bn->bnd", e_sel.data, weights.data), parents=(e_sel, weights),
                  backward=bw)


class _LookupPairs:
    """The distinct (column, row) pairs of the (B, n) `rows` of the (T, d)
    leaf `table`, which the nodes over a batch's pairs read: column j of a
    (B, n * d) input ``table[rows].reshape(B, n * d)`` meets rows ``j*d``
    to ``(j+1)*d`` of a map W, its block W_j.

    The pairs are found over the distinct rows' compact ids, so their
    scratch holds at most B * n * n entries whatever the table's size, and
    pair ids ascend by column, so each column's pairs are one run. ``e``
    holds each pair's row, ``of`` the (B, n) pair of each lookup. The
    nodes take the table's rows after every closure of the backward pass
    has run, so after a lookup's scatter: the table must be a leaf. `node`
    names the node in the error that says so.
    """

    def __init__(self, table: Tensor, rows: Array, node: str):
        if rows.ndim != 2 or table.ndim != 2:
            raise DimensionError(f"rows {rows.shape} of table {table.shape}")
        if table._backward is not None:
            raise ValueError(f"{node} adds to its table's gradient after the backward pass, "
                             "so the table must be a leaf")
        if out_of_range(rows, table.shape[0]):
            raise IndexError(f"row out of range [0, {table.shape[0]})")
        b, n = rows.shape
        d = table.shape[1]
        uniq, slot = distinct_rows(rows.reshape(-1), table.shape[0])
        r = uniq.size
        pairs, pair_of = distinct_rows((slot.reshape(b, n) + r * np.arange(n)).reshape(-1), r * n)
        column = pairs // r
        self.slot = pairs - column * r  # each pair's row among `uniq`
        cuts = np.searchsorted(column, np.arange(n + 1)).tolist()
        # per column: its pairs, and its block of a map's rows
        self.blocks = [(slice(cuts[j], cuts[j + 1]), slice(j * d, (j + 1) * d)) for j in range(n)]
        self.e = np.take(table.data, uniq[self.slot], axis=0)
        self.of = pair_of.reshape(b, n)
        self.table, self.uniq = table, uniq

    def project(self, w_map: Array) -> Array:
        """Each lookup's projection ``table[rows_ij] @ W_j``, (B, n, h):
        each pair's row projected once through its column's block."""
        proj = np.empty((self.e.shape[0], w_map.shape[1]))
        for at, block in self.blocks:
            np.matmul(self.e[at], w_map[block], out=proj[at])
        return np.take(proj, self.of, axis=0)

    def sums(self, g: Array, weights: Array | None = None) -> Array:
        """Per pair p, S_p: the sum of ``w_ij * g_i`` (weights None: of
        ``g_i``) over its lookups (i, j), (P, h). One bincount per column
        of the (B, h) `g`, B * n * h terms in all."""
        keys = self.of.reshape(-1)
        terms = np.empty(self.of.shape)
        s = np.empty((g.shape[1], self.e.shape[0]))
        for c, g_c in enumerate(g.T):
            if weights is None:
                terms[...] = g_c[:, None]
            else:
                np.multiply(weights, g_c[:, None], out=terms)
            s[c] = np.bincount(keys, weights=terms.reshape(-1), minlength=self.e.shape[0])
        return s.T

    def map_grad(self, s: Array) -> Array:
        """``x.T @ G`` for the (B, n * d) input x: block j is ``E_j.T @ S_j``,
        E_j the rows of column j's pairs and S the pairs' `sums` of G."""
        out = np.zeros((self.e.shape[1] * len(self.blocks), s.shape[1]))
        for at, block in self.blocks:
            np.matmul(self.e[at].T, s[at], out=out[block])
        return out

    def pair_grads(self, s: Array, w_map: Array) -> Array:
        """Each pair's share ``S_p @ W_j.T`` of its row's gradient, (P, d)."""
        out = np.empty(self.e.shape)
        for at, block in self.blocks:
            np.matmul(s[at], w_map[block].T, out=out[at])
        return out

    def merge(self, pair_grads: Array) -> Callable[[], None]:
        """A function that adds each row's pairs' `pair_grads`, column by
        column, to the table's gradient through `add_rows`: for a backward
        closure to return, so that it runs after every closure."""
        # a column's pairs have distinct rows, so each adds without a scatter
        de = np.zeros((self.uniq.size, self.e.shape[1]))
        for at, _ in self.blocks:
            de[self.slot[at]] += pair_grads[at]
        return lambda: add_rows(self.table, self.uniq, de)


def lookup_affine(table: Tensor, rows: Array, weights: Tensor | None, linear: "Linear") -> Tensor:
    """An affine map over weighted table rows:
    ``(w[..., None] * table[rows]).reshape(B, n * d) @ W + b`` for the
    (B, n) `rows` of the (T, d) leaf `table`, their (B, n) `weights` w
    (None: unweighted) and `linear`'s (n * d, h) map W and bias b, as one
    tape node over the batch's distinct (column, row) pairs
    (`_LookupPairs`).

    Instance i's output is ``sum_j w_ij * (table[rows_ij] @ W_j) + b``:
    each pair's row is projected once through its column's block, and each
    instance sums its weighted projections. With G the upstream gradient
    and S_p the sum of ``w_ij * G_i`` over the lookups (i, j) of pair p,
    the backward gives W_j ``E_j.T @ S_j`` (E_j the rows of column j's
    pairs), b ``sum(G)``, each weight ``G_i . P_p`` (P_p the pair's
    projection) and each distinct row the sum of ``S_p @ W_j.T`` over its
    pairs. Neither direction forms an array of B * n * d entries. Equal to
    the composition of lookup, `scale_embeddings`, reshape and `affine` up
    to rounding.
    """
    pairs = _LookupPairs(table, np.asarray(rows), "lookup_affine")
    b, n = pairs.of.shape
    w_map, bias = linear.weight, linear.bias
    if w_map.shape[0] != n * table.shape[1]:
        raise DimensionError(f"map {w_map.shape} cannot take {n} rows of width {table.shape[1]}")
    if weights is not None and weights.shape != (b, n):
        raise DimensionError(f"weights {weights.shape} vs rows {(b, n)}")
    per_lookup = pairs.project(w_map.data)  # (B, n, h)
    if weights is None:
        out = np.einsum("bnh->bh", per_lookup)
    else:
        out = np.einsum("bnh,bn->bh", per_lookup, weights.data)
    out += bias.data

    def bw(g):
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0), owned=True)
        if weights is not None and weights.requires_grad:
            _accum(weights, np.einsum("bh,bnh->bn", g, per_lookup), owned=True)
        s = pairs.sums(g, None if weights is None else weights.data)
        if w_map.requires_grad:
            _accum(w_map, pairs.map_grad(s), owned=True)
        if table.requires_grad:
            return pairs.merge(pairs.pair_grads(s, w_map.data))

    parents = (table, w_map, bias) + ((weights,) if weights is not None else ())
    return Tensor(out, parents=parents, backward=bw)


def lookup_normalized_affine(table: Tensor, rows: Array, gamma: Tensor, beta: Tensor,
                             linear: "Linear", eps: float) -> tuple[Tensor, Array, Array]:
    """Training-mode batch normalization, then an affine map, over table
    rows: `normalized_affine` of ``x = table[rows].reshape(B, n * d)`` by
    x's own moments, for the (B, n) `rows` of the (T, d) leaf `table`, the
    (n * d,) scale `gamma` and shift `beta`, `linear`'s (n * d, h) map and
    bias, and the variance offset `eps`, as one tape node over the batch's
    distinct (column, row) pairs (`_LookupPairs`). Returns the (B, h)
    output and x's per-column mean and biased variance. B >= 2.

    With c_p the lookups of pair p and e_p its row, column j's moments are
    ``mean_j = sum(c_p * e_p) / B`` and ``var_j = sum(c_p * (e_p -
    mean_j)**2) / B`` over its pairs. The two and the map fold into one
    (`fold_normalization`): each pair's row is projected once through its
    column's block ws_j of the folded map, and each instance sums its
    projections. With S_p the sum of the upstream G over pair p's lookups,
    ``x.T @ G`` is ``E_j.T @ S_j`` per block, from which the parameters
    take `normalized_affine`'s gradients; each distinct row takes the sum
    over its pairs of ``S_p @ ws_j.T + c_p * (e_p * c1_j + c0_j)``, the
    input gradient of `normalized_affine` summed over the pair's lookups.
    Neither direction forms an array of B * n * d entries. Equal to the
    composition of lookup, reshape, `batch_moments` and
    `normalized_affine` up to rounding.
    """
    pairs = _LookupPairs(table, np.asarray(rows), "lookup_normalized_affine")
    b, n = pairs.of.shape
    if b < 2:
        raise DegenerateBatchError("batch statistics need a batch of at least 2 rows")
    w, bias = linear.weight, linear.bias
    width = n * table.shape[1]
    if w.shape[0] != width or gamma.shape != (width,) or beta.shape != (width,):
        raise DimensionError(f"map {w.shape}, scale {gamma.shape} and shift {beta.shape} "
                             f"cannot take {n} rows of width {table.shape[1]}")
    count = np.bincount(pairs.of.reshape(-1), minlength=pairs.e.shape[0]).astype(np.float64)
    mean, var = np.empty(width), np.empty(width)
    for at, block in pairs.blocks:
        e = pairs.e[at]
        mean[block] = count[at] @ e / b
        dev = e - mean[block]
        dev *= dev
        var[block] = count[at] @ dev / b
    std = np.sqrt(var + eps)
    ws, offset = fold_normalization(gamma.data, beta.data, w.data, bias.data, mean, std)
    out = np.einsum("bnh->bh", pairs.project(ws))
    out += offset

    def bw(g):
        g_sum = g.sum(axis=0)
        s = pairs.sums(g)
        d_gamma, d_beta = _normalized_affine_params(pairs.map_grad(s), g_sum, gamma, beta, w,
                                                    bias, mean, std)
        if table.requires_grad:
            c1, c0 = _batch_stat_terms(gamma.data, std, mean, d_gamma, d_beta, b)
            grads = pairs.pair_grads(s, ws)
            for at, block in pairs.blocks:
                t = pairs.e[at] * c1[block]
                t += c0[block]
                t *= count[at, None]
                grads[at] += t
            return pairs.merge(grads)

    return Tensor(out, parents=(table, gamma, beta, w, bias), backward=bw), mean, var


def xavier_init(rows: int, cols: int, seed) -> Array:
    """Uniform init on +/- sqrt(6 / (rows + cols)); deterministic per seed.
    A shape of more bytes than an address can count raises MemoryError
    before anything is allocated."""
    if rows < 1 or cols < 1:
        raise ValueError("xavier_init needs positive dimensions")
    if rows * cols > np.iinfo(np.intp).max // 8:  # numpy would refuse it with a ValueError
        raise MemoryError(f"a {rows} x {cols} array of doubles cannot be allocated")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class Linear:
    """Trainable affine map with Xavier weights and zero bias."""

    def __init__(self, n_in: int, n_out: int, seed):
        self.weight = Tensor(xavier_init(n_in, n_out, seed), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def named_params(self, prefix: str = ""):
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


BLOCK_ELEMS = 1 << 15  # 256 KiB of float64: a block's working arrays stay in L2


def _row_blocks(param: Array) -> list:
    """Index expressions that cut `param` along axis 0 into blocks of about
    BLOCK_ELEMS entries, whole rows each, in order."""
    if param.ndim == 0:
        return [Ellipsis]
    n = param.shape[0]
    rows = max(1, BLOCK_ELEMS // max(math.prod(param.shape[1:]), 1))
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def batch_moments(x: Array) -> tuple[Array, Array]:
    """Per-column mean and biased variance of the (B, D) batch `x`, B >= 2:
    the arithmetic of ``np.mean`` and ``np.var`` in fewer passes."""
    n = x.shape[0]
    if n < 2:
        raise DegenerateBatchError("batch statistics need a batch of at least 2 rows")
    mean = x.sum(axis=0) / n
    dev = x - mean
    dev *= dev
    return mean, dev.sum(axis=0) / n


def fold_normalization(gamma: Array, beta: Array, w: Array, bias: Array, mean: Array,
                       std: Array) -> tuple[Array, Array]:
    """Batch normalization by `mean` and `std`, then the affine map, as one
    map and offset ``(s * w, (beta - mean * s) @ w + bias)`` with
    ``s = gamma / std``: x's output is ``x @ map + offset``."""
    s = gamma / std
    return s[:, None] * w, (beta - mean * s) @ w + bias


def normalized_affine(x: Tensor, gamma: Tensor, beta: Tensor, w: Tensor, bias: Tensor,
                      mean: Array, std: Array, batch_stats: bool) -> Tensor:
    """Batch normalization then an affine map, ``((x - mean) / std * gamma +
    beta) @ w + bias``, as one node that forms neither the (B, D) normalized
    nor the affine activations, in either direction.

    With ``s = gamma / std`` (``s * w`` scales row i of w by s_i) the output
    is ``x @ (s * w) + ((beta - mean * s) @ w + bias)``. `batch_stats` says
    that `mean` and `std` are the batch's own, so the input gradient gets
    their terms. From the upstream G, one ``x.T @ G`` gives
    ``xn.T @ G = (x.T @ G - outer(mean, sum(G))) / std``, and from it
    ``dw = gamma * xn.T @ G + outer(beta, sum(G))``,
    ``dgamma = rowsum(w * xn.T @ G)``, ``dbeta = w @ sum(G)`` and
    ``dbias = sum(G)``. ``dx = G @ (s * w).T``, plus ``x * c1 + c0`` with
    batch statistics, where ``c1 = -s * dgamma / (B * std)`` and
    ``c0 = -s * dbeta / B - mean * c1``. Equal to batch norm and affine map
    composed as separate nodes up to rounding, not bit for bit.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"normalized_affine input {x.shape}, map {w.shape}")
    ws, offset = fold_normalization(gamma.data, beta.data, w.data, bias.data, mean, std)
    out = x.data @ ws
    out += offset

    def bw(g):
        g_sum = g.sum(axis=0)
        d_gamma, d_beta = _normalized_affine_params(x.data.T @ g, g_sum, gamma, beta, w, bias,
                                                    mean, std)
        if x.requires_grad:
            dx = g @ ws.T
            if batch_stats:
                c1, c0 = _batch_stat_terms(gamma.data, std, mean, d_gamma, d_beta, x.shape[0])
                for rows in _row_blocks(dx):  # a cache-sized temporary per block
                    t = x.data[rows] * c1
                    t += c0
                    dx[rows] += t
            _accum(x, dx, owned=True)

    return Tensor(out, parents=(x, gamma, beta, w, bias), backward=bw)


def _normalized_affine_params(x_g: Array, g_sum: Array, gamma: Tensor, beta: Tensor,
                               w: Tensor, bias: Tensor, mean: Array, std: Array):
    """Give `normalized_affine`'s four parameters their gradients from
    ``x.T @ G`` (`x_g`, whose buffer becomes w's) and ``sum(G)``; returns
    ``(dgamma, dbeta)``."""
    x_g -= np.outer(mean, g_sum)
    x_g /= std[:, None]  # xn.T @ G
    d_gamma = (w.data * x_g).sum(axis=1)
    d_beta = w.data @ g_sum
    x_g *= gamma.data[:, None]
    x_g += np.outer(beta.data, g_sum)
    _accum(w, x_g, owned=True)
    _accum(gamma, d_gamma, owned=True)
    _accum(beta, d_beta, owned=True)
    _accum(bias, g_sum, owned=True)
    return d_gamma, d_beta


def _batch_stat_terms(gamma: Array, std: Array, mean: Array, d_gamma: Array, d_beta: Array,
                      n: int) -> tuple[Array, Array]:
    """The coefficients (c1, c0) of the input gradient's batch-statistics
    term ``x * c1 + c0`` in `normalized_affine`, for a batch of n rows."""
    s = gamma / std
    c1 = -s * d_gamma / (n * std)
    return c1, -s * d_beta / n - mean * c1


@dataclass
class AdamState:
    """First/second moment estimates and step count for one parameter."""

    m: Array
    v: Array
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: Array, lr: float = 1e-3, beta1: float = 0.9,
                  beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


class Adam:
    """Adam over a list of parameter tensors, updated in place.

    Each step applies the bias-corrected update ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g``, ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` to
    every entry, evaluated op for op in that order. A parameter is swept in
    blocks of whole rows, each block taken through every op before the
    next, so a large table streams through memory once per step instead of
    once per op, with the intermediates in two block-sized buffers reused
    across steps. A RowGrad adds its gradient terms to its rows only; every
    row's moments still decay and every row still moves, exactly as under
    the equal dense gradient.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.states = [AdamState.for_param(p.data, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
                       for p in self.params]
        self._blocks = [_row_blocks(p.data) for p in self.params]
        largest = max((p.data[blocks[0]].size for p, blocks in zip(self.params, self._blocks)
                       if blocks), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, st, blocks in zip(self.params, self.states, self._blocks):
            if p.grad is not None:
                self._update(p.data, p.grad, st, blocks)

    def _update(self, param: Array, grad, st: AdamState, blocks: list):
        sparse = isinstance(grad, RowGrad)
        if sparse:
            fits = grad.n_rows == param.shape[0] and grad.shape[1:] == param.shape[1:]
        else:
            fits = grad.shape == param.shape
        if not fits:
            raise DimensionError(f"Adam shapes param={param.shape} grad={grad.shape}")
        g = grad.values if sparse else grad
        st.t += 1
        g1 = (1.0 - st.beta1) * g
        g2 = (1.0 - st.beta2) * g
        g2 *= g
        c1 = 1.0 - st.beta1 ** st.t
        c2 = 1.0 - st.beta2 ** st.t
        if sparse:  # the ascending rows that fall in each block
            cuts = np.searchsorted(grad.rows, [b.stop for b in blocks]).tolist()
        for n, block in enumerate(blocks):
            m, v, p = st.m[block], st.v[block], param[block]
            if sparse:
                lo, hi = cuts[n - 1] if n else 0, cuts[n]
                at, gs = grad.rows[lo:hi] - block.start, slice(lo, hi)
            else:
                at, gs = Ellipsis, block
            m *= st.beta1
            m[at] += g1[gs]
            v *= st.beta2
            v[at] += g2[gs]
            step, denom = (buf[:m.size].reshape(m.shape) for buf in self._scratch)
            np.divide(m, c1, out=step)
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += st.eps
            step *= st.lr
            step /= denom
            p -= step
