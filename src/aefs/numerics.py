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

    def zero_grad(self):
        self.grad = None

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
    """y = x @ w + bias, bias broadcast per row."""
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"affine needs 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"affine inner dims {x.shape[1]} != {w.shape[0]}")
    if b.data.shape != (w.shape[1],):
        raise DimensionError(f"affine bias shape {b.data.shape}, expected ({w.shape[1]},)")
    return add(matmul(x, w), b)


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
    already there. A RowGrad that holds every row of `rows` (as after a
    lookup of those rows) takes the terms in place, and a dense gradient
    too; any other gradient goes through `scatter_rows`."""
    grad = table.grad
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


def repeats_in_rows(idx: Array, n: int) -> bool:
    """Whether some row of the (B, k) index array, entries in ``[0, n)``,
    holds a value twice: one count per (row, value) pair."""
    if idx.shape[1] < 2 or idx.size == 0:
        return False
    keys = idx + np.arange(0, idx.shape[0] * n, n)[:, None]
    return bool(np.bincount(keys.reshape(-1)).max() > 1)


def gather_fields(x: Tensor, idx: Array, checked: bool = False) -> Tensor:
    """Per-row gather along axis 1 of a (B, N) or (B, N, D) tensor.

    idx has shape (B, k) and holds distinct positions per row; output row i
    holds x[i, idx[i, j]] in idx order. Backward adds each upstream entry
    to the one position it was read from. `checked` says that the caller
    has already verified those positions against the same N.
    """
    idx = np.asarray(idx)
    b, n = x.shape[0], x.shape[1]
    if idx.ndim != 2 or idx.shape[0] != b:
        raise DimensionError(f"index shape {idx.shape} incompatible with {x.shape}")
    if not checked:
        if out_of_range(idx, n):
            raise IndexError("field index out of range [0, %d)" % n)
        if repeats_in_rows(idx, n):
            raise IndexError("repeated field index in a row")
    rows = np.arange(b)[:, None]
    out = x.data[rows, idx]

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        # distinct positions per row: one addend each, as np.add.at would add
        x.grad[rows, idx] += g

    return Tensor(out, parents=(x,), backward=bw)


def xavier_init(rows: int, cols: int, seed) -> Array:
    """Uniform init on +/- sqrt(6 / (rows + cols)); deterministic per seed."""
    if rows < 1 or cols < 1:
        raise ValueError("xavier_init needs positive dimensions")
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
    s = gamma.data / std
    ws = s[:, None] * w.data
    out = x.data @ ws
    out += (beta.data - mean * s) @ w.data + bias.data

    def bw(g):
        g_sum = g.sum(axis=0)
        xn_g = x.data.T @ g
        xn_g -= np.outer(mean, g_sum)
        xn_g /= std[:, None]
        d_gamma = (w.data * xn_g).sum(axis=1)
        d_beta = w.data @ g_sum
        if x.requires_grad:
            dx = g @ ws.T
            if batch_stats:
                n = x.shape[0]
                c1 = -s * d_gamma / (n * std)
                c0 = -s * d_beta / n - mean * c1
                for rows in _row_blocks(dx):  # a cache-sized temporary per block
                    t = x.data[rows] * c1
                    t += c0
                    dx[rows] += t
            _accum(x, dx, owned=True)
        xn_g *= gamma.data[:, None]
        xn_g += np.outer(beta.data, g_sum)
        _accum(w, xn_g, owned=True)
        _accum(gamma, d_gamma, owned=True)
        _accum(beta, d_beta, owned=True)
        _accum(bias, g_sum, owned=True)

    return Tensor(out, parents=(x, gamma, beta, w, bias), backward=bw)


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
