"""Feature-selection mechanisms and the dual-model forward pass.

Late selection (a controller re-weights or top-k-masks embeddings after all
N lookups) and early selection (a small auxiliary model scores fields first,
then the main model embeds only the chosen k) live here, together with the
two alignment losses that tie the auxiliary and main models together during
joint training.
"""
from __future__ import annotations

import functools

import numpy as np

from .embedding import EmbeddingSet, SelectionIndexError
from .numerics import DimensionError, Linear, Tensor, _accum, add_rows, distinct_rows, \
    gather_fields, out_of_range, scale_embeddings, sigmoid, softmax
from .predictors import Controller, PredictorConfig, bce, build_predictor


def k_for(n_fields: int, r_kept: float) -> int:
    """Number of kept fields: floor(N * r), at least 1."""
    if not (0 < r_kept <= 1):
        raise ValueError(f"keep fraction must be in (0, 1], got {r_kept}")
    return max(1, int(n_fields * r_kept))


_SIGNLESS = 0x7FFF_FFFF_FFFF_FFFF
# The packed keys of the scores +inf and -inf (the bits of -inf, sign kept
# and the rest flipped, and those of +inf): every key of a score that is
# not NaN lies between the two, and every key of a NaN outside them.
_KEY_OF_INF = int(np.float64(-np.inf).view(np.int64)) ^ _SIGNLESS
_KEY_OF_MINUS_INF = int(np.float64(np.inf).view(np.int64))


def k_max_indices_batch(scores: np.ndarray, k: int) -> np.ndarray:
    """The k largest of each row of the (B, N) scores, descending, ties to
    the lower field and NaN last: ``np.argsort(-s, kind="stable")[:, :k]``.

    Each score becomes one int64 key that ascends as the score descends,
    with its low ``(N - 1).bit_length()`` bits replaced by the field index,
    and each row of keys is sorted once, at every batch size. Keys are
    distinct, so the sort needs no stability, and the indices are the low
    bits of each row's first k keys.
    A row whose first k + 1 sorted keys hold two that agree above the field
    bits (a tie, or scores apart only in the dropped bits) takes the stable
    argsort, so the result equals it on every input. So does a row holding
    a NaN, found without a scan: its key sorts before the key of +inf or
    after that of -inf, so a row with ±inf at an end takes it as well.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[1]
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range for {n} scores")
    bits = (n - 1).bit_length()
    field = (1 << bits) - 1
    keys = np.negative(s)
    keys += 0.0  # -0.0 to +0.0: the two compare equal, so their keys must tie
    keys = keys.view(np.int64)
    # a negative double's bits order it backwards: flip all but the sign
    keys ^= (keys >> 63) & _SIGNLESS
    keys &= ~field
    keys |= np.arange(n)
    keys.sort(axis=1)
    head = keys[:, :k + 1] >> bits
    redo = (head[:, 1:] == head[:, :-1]).any(axis=1)
    redo |= head[:, 0] <= _KEY_OF_INF >> bits
    redo |= keys[:, -1] >> bits >= _KEY_OF_MINUS_INF >> bits
    out = keys[:, :k] & field
    if redo.any():
        out[redo] = np.argsort(-s[redo], axis=1, kind="stable")[:, :k]
    return out


def _flat_positions(indices: np.ndarray, n: int) -> np.ndarray:
    """Positions in a flattened (B, n) array of each row's (B, k)
    `indices`: one ``np.take`` or ``np.put`` through them reads or writes
    what ``a[rows, indices]`` does, without the two-index broadcast."""
    return indices + n * np.arange(indices.shape[0])[:, None]


def topk_softmax(logits: Tensor, k: int) -> tuple[np.ndarray, Tensor]:
    """The k largest of each row of the (B, N) logits, descending, ties to
    the lower field, and their weights: a softmax over those k logits.

    One tape node. The weights equal the full softmax's top k divided by
    their sum up to rounding: the normalizer over all N cancels. The logits
    are shifted by their row's largest: the first selected one, or, in a
    batch holding a NaN, the row's full max, so a NaN anywhere in a row
    makes its weights NaN, as under the full softmax. With w the weights
    and g their upstream gradient, the backward gives the selected logits
    ``w * (g - sum(w * g))`` and every other logit exactly 0, which the
    composition gives only up to rounding. Returns (indices, weights).
    """
    indices = k_max_indices_batch(logits.data, k)
    flat = _flat_positions(indices, logits.shape[1])
    w = np.take(logits.data, flat)
    # the batch's one scan for NaN: the top k finds its NaN rows without one
    if np.isnan(logits.data).any():
        w -= logits.data.max(axis=1, keepdims=True)
    else:
        w -= w[:, :1]
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)

    def bw(g):
        dz = g - (g * w).sum(axis=1, keepdims=True)
        dz *= w
        full = np.zeros_like(logits.data)
        np.put(full, flat, dz)
        _accum(logits, full, owned=True)

    return indices, Tensor(w, parents=(logits,), backward=bw)


# ---------------------------------------------------------------------------
# models

class _OnePredictor:
    """What the two models with a single predictor share: no auxiliary
    side, and the BCE of the training-mode score as the loss."""

    aux_embeddings = None

    def loss(self, x: np.ndarray, y: np.ndarray):
        """Returns (loss, per-term floats, selected indices) of one batch."""
        p, indices, _ = self.score(x, training=True)
        loss = bce(p, y)
        return loss, {"bce_main": loss.item()}, indices


class FixedSubsetModel(_OnePredictor):
    """The same fields for every instance, chosen up front; embeds only
    those. Over every field it is the no-selection baseline."""

    def __init__(self, vocab_sizes, dim: int, fields, backbone: str,
                 hidden_dims, n_cross_layers, rng: np.random.Generator):
        self.n_fields = len(vocab_sizes)
        self.fields = np.asarray(sorted(fields), dtype=np.int64)
        if (self.fields.size == 0 or self.fields[0] < 0 or self.fields[-1] >= self.n_fields
                or (np.diff(self.fields) == 0).any()):
            raise SelectionIndexError(f"fields {self.fields.tolist()} are not distinct positions "
                                      f"in [0, {self.n_fields})")
        # every field: a slice, through which the lookup reads the ids in place
        self._columns = slice(None) if self.fields.size == self.n_fields else self.fields
        self.main_embeddings = EmbeddingSet(vocab_sizes, dim, rng)
        self.predictor = build_predictor(
            PredictorConfig(backbone, self.fields.size, dim, tuple(hidden_dims),
                            n_cross_layers), rng)

    def score(self, x: np.ndarray, training: bool):
        """Returns (prediction, selected indices, None): no weights."""
        main = self.main_embeddings
        rows = main.rows(x, self._columns)
        main.count(rows, self._columns)
        p = self.predictor.from_rows(main.weight, rows, None, training, lambda: main.read(rows))
        return p, np.broadcast_to(self.fields, (x.shape[0], self.fields.size)), None

    def warmup_params(self):
        """Nothing to warm up."""
        return []

    def named_params(self):
        return self.main_embeddings.named_params("emb.") + self.predictor.named_params()

    def named_buffers(self):
        return []


class LateSelectionModel(_OnePredictor):
    """Adaptive late selection: all N fields are embedded, a controller
    scores them, and the embeddings are re-weighted (soft) or top-k masked
    and re-weighted (hard) before prediction. Saves no lookups, so every
    field counts as selected."""

    def __init__(self, vocab_sizes, dim: int, backbone: str, hidden_dims, n_cross_layers,
                 rng: np.random.Generator, mode: str = "soft", k: int | None = None,
                 reweight: bool = True):
        if mode not in ("soft", "hard"):
            raise ValueError(f"unknown selection mode {mode!r}")
        if mode == "hard" and k is None:
            raise ValueError("hard selection needs k")
        n = len(vocab_sizes)
        self.n_fields = n
        self.mode, self.k, self.reweight = mode, k, reweight
        self.main_embeddings = EmbeddingSet(vocab_sizes, dim, rng)
        self.controller = Controller(n, dim, rng)
        self.predictor = build_predictor(
            PredictorConfig(backbone, n, dim, tuple(hidden_dims), n_cross_layers), rng)

    def score(self, x: np.ndarray, training: bool):
        """Returns (prediction, every field per row, None)."""
        p, _, _ = self.forward(x, training)
        return p, np.broadcast_to(np.arange(self.n_fields), (x.shape[0], self.n_fields)), None

    def forward(self, x: np.ndarray, training: bool, soft: bool = False):
        """Returns (prediction, controller logits, hard-selection indices or
        None), in the model's own mode, or in soft mode if `soft`. The
        controller and the predictor take the batch's rows of the table
        (`from_rows`) and share one lookup of them, read when the first of
        the two asks for it."""
        main = self.main_embeddings
        rows = main.rows(x)
        main.count(rows)
        embedded = functools.cache(lambda: main.read(rows))
        logits = self.controller.from_rows(main.weight, rows, training, embedded)
        if soft or self.mode == "soft":
            weights = softmax(logits, axis=1)
            indices = None
        else:
            indices, sel = _top_k(logits, self.k, self.reweight)
            # kept weights return to their field positions, zeros elsewhere
            weights = _scatter_weights(sel, indices, logits.shape)
        p = self.predictor.from_rows(main.weight, rows, weights, training, embedded)
        return p, logits, indices

    def warmup_params(self):
        """A soft-mode phase before hard selection starts trains every
        parameter: all N fields scaled by the raw scores, no top-k and no
        re-normalization."""
        return self.named_params()

    def warmup_forward(self, x: np.ndarray) -> Tensor:
        p, _, _ = self.forward(x, training=True, soft=True)
        return p

    def named_params(self):
        return (self.main_embeddings.named_params("emb.")
                + self.controller.named_params()
                + self.predictor.named_params())

    def named_buffers(self):
        return self.controller.named_buffers()


def _scatter_weights(sel: Tensor, indices: np.ndarray, full_shape) -> Tensor:
    """Place (B, k) selected weights at their field positions in a (B, N)
    tensor of zeros."""
    flat = _flat_positions(indices, full_shape[1])
    out = np.zeros(full_shape)
    np.put(out, flat, sel.data)

    def bw(g):
        if sel.requires_grad:
            if sel.grad is None:
                sel.grad = np.zeros_like(sel.data)
            sel.grad += np.take(g, flat)

    return Tensor(out, parents=(sel,), backward=bw)


def _top_k(logits: Tensor, k: int, reweight: bool) -> tuple[np.ndarray, Tensor]:
    """The (B, k) top fields of each row and their weights: re-weighted,
    a softmax over the k logits; otherwise their full-softmax scores."""
    if reweight:
        return topk_softmax(logits, k)
    s = softmax(logits, axis=1)
    indices = k_max_indices_batch(s.data, k)
    return indices, gather_fields(s, indices)


class DualModel:
    """Auxiliary scorer plus main predictor for adaptive early selection.

    The auxiliary side embeds every field at a small dimension, scores them,
    and the main side embeds only the k chosen fields at full dimension. One
    shared affine map lifts auxiliary embeddings to the main dimension for
    the embedding alignment loss.
    """

    def __init__(self, vocab_sizes, d1: int, d2: int, k: int,
                 backbone_main: str, backbone_aux: str, hidden_dims, n_cross_layers,
                 rng: np.random.Generator, reweight: bool = True,
                 enable_eal: bool = True, enable_pal: bool = True):
        if d2 > d1:
            raise ValueError(f"auxiliary dimension {d2} exceeds main dimension {d1}")
        n = len(vocab_sizes)
        self.n_fields = n
        self.k = k
        self.d1 = d1
        self.d2 = d2
        self.reweight, self.enable_eal, self.enable_pal = reweight, enable_eal, enable_pal
        self.aux_embeddings = EmbeddingSet(vocab_sizes, d2, rng)
        self.controller = Controller(n, d2, rng)
        self.aux_predictor = build_predictor(
            PredictorConfig(backbone_aux, k, d2, tuple(hidden_dims), n_cross_layers), rng)
        self.align_fc = Linear(d2, d1, rng)
        self.main_embeddings = EmbeddingSet(vocab_sizes, d1, rng)
        self.main_predictor = build_predictor(
            PredictorConfig(backbone_main, k, d1, tuple(hidden_dims), n_cross_layers), rng)
        self._pretrain_head: Linear | None = None

    def score(self, x: np.ndarray, training: bool):
        """Returns (main prediction, selected indices, their weights) of
        `aefs_forward`."""
        p_m, indices, weights, _, _ = aefs_forward(self, x, training)
        return p_m, indices, weights.data

    def loss(self, x: np.ndarray, y: np.ndarray):
        """Returns (loss, per-term floats, selected indices) of one batch:
        BCE of both predictors plus the enabled alignment terms. The
        auxiliary predictor reads the auxiliary embeddings of the selected
        fields, scaled by the same weights as the main ones."""
        p_m, indices, weights, rows, e_a = aefs_forward(self, x, training=True)
        p_a = self.aux_predictor.from_rows(self.aux_embeddings.weight, rows, weights, True,
                                           lambda: gather_fields(e_a, indices))
        bce_a = bce(p_a, y)
        bce_m = bce(p_m, y)
        loss = bce_a + bce_m
        terms = {"bce_aux": bce_a.item(), "bce_main": bce_m.item()}
        if self.enable_eal:
            eal = embedding_alignment_loss(self.aux_embeddings.weight, self.main_embeddings.weight,
                                           rows, weights, self.align_fc)
            loss = loss + eal
            terms["eal"] = eal.item()
        if self.enable_pal:
            pal = prediction_alignment_loss(p_a, p_m)
            loss = loss + pal
            terms["pal"] = pal.item()
        return loss, terms, indices

    def warmup_params(self):
        """The auxiliary side alone (embeddings, controller and a throwaway
        all-fields head) trains with BCE on all N fields, soft-scaled by the
        controller scores, so the scorer sees gradient from the start."""
        return (self.aux_embeddings.named_params("aux.emb.")
                + self.controller.named_params("aux.")
                + self.pretrain_head().named_params("pretrain_head."))

    def warmup_forward(self, x: np.ndarray) -> Tensor:
        b = x.shape[0]
        e_a = self.aux_embeddings.embed(x)
        s = softmax(self.controller.logits(e_a, training=True), axis=1)
        flat = scale_embeddings(e_a, s).reshape(b, self.n_fields * self.d2)
        return sigmoid(self.pretrain_head()(flat)).reshape(b)

    def named_params(self):
        return (self.aux_embeddings.named_params("aux.emb.")
                + self.controller.named_params("aux.")
                + self.aux_predictor.named_params("aux.")
                + self.align_fc.named_params("aux.align_fc.")
                + self.main_embeddings.named_params("main.emb.")
                + self.main_predictor.named_params("main."))

    def named_buffers(self):
        return self.controller.named_buffers("aux.")

    def pretrain_head(self) -> Linear:
        """Throwaway affine head over all N scaled auxiliary embeddings, used
        only while pretraining the auxiliary side; the permanent predictor is
        sized for k fields and cannot consume N."""
        if self._pretrain_head is None:
            self._pretrain_head = Linear(self.n_fields * self.d2, 1,
                                         np.random.default_rng(0x5eed))
        return self._pretrain_head


def aefs_forward(pair: DualModel, x: np.ndarray, training: bool):
    """Score every field with the auxiliary model, keep the top k, and run
    the main model on them with their weights: the early-selection pass
    that scoring returns and training adds the auxiliary predictor to.

    Returns the (B,) main prediction, the (B, k) selected fields in
    descending-logit order, their (B, k) weights, the (B, k) table rows of
    their lookups, which address either set, and the (B, N, d2) auxiliary
    embeddings. Auxiliary lookups per instance: N. Main lookups: k.
    """
    rows = pair.aux_embeddings.rows(x)               # (B, N), every id checked
    e_a = pair.aux_embeddings.lookup(rows)           # (B, N, d2)
    indices, weights = _top_k(pair.controller.logits(e_a, training), pair.k, pair.reweight)
    # the two sets share their offsets, so these rows address the main
    # table too; argsort's top k are distinct and in range by construction
    rows = np.take(rows, _flat_positions(indices, pair.n_fields))
    main = pair.main_embeddings
    main.count(rows, indices)
    p_m = pair.main_predictor.from_rows(main.weight, rows, weights, training,
                                        lambda: main.read(rows))
    return p_m, indices, weights, rows, e_a


def embedding_alignment_loss(aux: Tensor, main: Tensor, rows: np.ndarray, weights: Tensor,
                             fc: Linear) -> Tensor:
    """Mean squared difference between the lifted auxiliary embeddings and
    the main embeddings of a batch's weighted selected lookups, averaged
    over its B*k lookups and their d1 components.

    `aux` (n, d2) and `main` (n, d1) are the two embedding tables, which
    share their row layout; lookup (i, j) reads row ``r = rows[i, j]`` of
    both and is weighted by ``w = weights[i, j]``. Its residual is
    ``(w*a_r) @ W + b - w*m_r = w*u_r + b`` with ``u_r = a_r @ W - m_r``,
    so one tape node computes the loss over the R distinct rows alone, with
    ``S1_r`` and ``S2_r`` the sums of w and of w**2 over the lookups of row
    r and c = 1 / (B*k*d1): the value is
    ``c * sum_r(S2_r*|u_r|^2 + 2*S1_r*(u_r . b)) + c*B*k*|b|^2``. With
    ``G_r = 2*c*g * (S2_r*u_r + S1_r*b)``, the backward gives main's rows
    ``-G``, aux's rows ``G @ W.T``, W ``A.T @ G`` (A the aux rows), b
    ``2*c*g * (sum_r S1_r*u_r + B*k*b)`` and each weight
    ``2*c*g * (w*|u_r|^2 + u_r . b)``; no array of B*k*d1 entries is formed
    in either direction, and G takes over u's buffer. The tables take their
    rows after every closure of the backward pass has run, so after the
    lookups' scatters, which then start from no gradient. Equal to the
    per-lookup composition up to rounding, not bit for bit.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape != weights.shape:
        raise DimensionError(f"rows {rows.shape} vs weights {weights.shape}")
    if aux.ndim != 2 or main.ndim != 2 or aux.shape[0] != main.shape[0]:
        raise DimensionError(f"tables {aux.shape} and {main.shape} do not share their rows")
    if aux._backward is not None or main._backward is not None:
        raise ValueError("the alignment loss adds to its tables' gradients after the "
                         "backward pass, so each table must be a leaf")
    n, d2 = aux.shape
    d1 = main.shape[1]
    w_map, bias = fc.weight, fc.bias
    if w_map.shape != (d2, d1):
        raise DimensionError(f"alignment map {w_map.shape} cannot lift {aux.shape} "
                             f"to {main.shape}")
    if out_of_range(rows, n):
        raise IndexError(f"row out of range [0, {n})")
    uniq, inv = distinct_rows(rows.reshape(-1), n)
    w = weights.data.reshape(-1)
    s1 = np.bincount(inv, weights=w, minlength=uniq.size)
    s2 = np.bincount(inv, weights=w * w, minlength=uniq.size)
    a = np.take(aux.data, uniq, axis=0)
    u = a @ w_map.data
    u -= np.take(main.data, uniq, axis=0)
    uu = np.einsum("rd,rd->r", u, u)
    ub = u @ bias.data
    lookups = rows.size
    c = 1.0 / (lookups * d1)
    out = c * (s2 @ uu + 2.0 * (s1 @ ub) + lookups * (bias.data @ bias.data))

    def bw(g):
        scale = 2.0 * c * g
        g_w = uu[inv]
        g_w *= w
        g_w += ub[inv]
        g_w *= scale
        _accum(weights, g_w.reshape(rows.shape), owned=True)
        _accum(bias, scale * (s1 @ u + lookups * bias.data), owned=True)
        gu = u  # u's last reader: G takes over its buffer
        gu *= s2[:, None]
        gu += np.outer(s1, bias.data)
        gu *= scale
        _accum(w_map, a.T @ gu, owned=True)

        def merge_rows():
            if aux.requires_grad:
                add_rows(aux, uniq, gu @ w_map.data.T)
            if main.requires_grad:
                add_rows(main, uniq, np.negative(gu, out=gu))

        return merge_rows

    return Tensor(out, parents=(aux, main, weights, w_map, bias), backward=bw)


def prediction_alignment_loss(aux_pred: Tensor, main_pred: Tensor) -> Tensor:
    """Batch-mean squared difference between the two predictions."""
    if aux_pred.shape != main_pred.shape:
        raise DimensionError(f"prediction shapes differ: {aux_pred.shape} vs {main_pred.shape}")
    diff = aux_pred - main_pred
    return (diff * diff).mean()
