"""Feature-selection mechanisms and the dual-model forward pass.

Late selection (a controller re-weights or top-k-masks embeddings after all
N lookups) and early selection (a small auxiliary model scores fields first,
then the main model embeds only the chosen k) live here, together with the
two alignment losses that tie the auxiliary and main models together during
joint training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSet, SelectionIndexError
from .numerics import DimensionError, Linear, Tensor, _accum, add_rows, distinct_rows, \
    gather_fields, out_of_range, sigmoid
from .predictors import Controller, PredictorConfig, bce, build_predictor


def k_for(n_fields: int, r_kept: float) -> int:
    """Number of kept fields: floor(N * r), at least 1."""
    if not (0 < r_kept <= 1):
        raise ValueError(f"keep fraction must be in (0, 1], got {r_kept}")
    return max(1, int(n_fields * r_kept))


def k_max_indices_batch(scores: np.ndarray, k: int) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if not (1 <= k <= s.shape[1]):
        raise ValueError(f"k={k} out of range for {s.shape[1]} scores")
    return np.argsort(-s, axis=1, kind="stable")[:, :k]


def scale_embeddings(e_sel: Tensor, weights: Tensor) -> Tensor:
    """Multiply each field vector by its weight: (B, n, d) by (B, n).

    One tape node. The forward is the broadcast product. The backward
    takes each weight's gradient, the inner product of the upstream
    gradient with that field's embedding, as one contraction over d,
    without a (B, n, d) product array; it then scales the released upstream
    gradient in place by the weights, which gives the embeddings theirs.
    The embedding gradient is bit-identical to a broadcast multiply's; the
    weight gradient sums its d terms in another order, so it equals the
    multiply's to rounding.
    """
    if e_sel.shape[:2] != weights.shape:
        raise DimensionError(f"embeddings {e_sel.shape} vs weights {weights.shape}")
    w = weights.data[:, :, None]

    def bw(g):
        if weights.requires_grad:
            _accum(weights, np.einsum("bnd,bnd->bn", g, e_sel.data), owned=True)
        if e_sel.requires_grad:
            g *= w
            _accum(e_sel, g, owned=True)

    return Tensor(e_sel.data * w, parents=(e_sel, weights), backward=bw)


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
        p = self.predictor(self.main_embeddings.embed(x, self._columns))
        return p, np.tile(self.fields, (x.shape[0], 1)), None

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
        return p, np.tile(np.arange(self.n_fields), (x.shape[0], 1)), None

    def forward(self, x: np.ndarray, training: bool, soft: bool = False):
        """Returns (prediction, scores, hard-selection indices or None), in
        the model's own mode, or in soft mode if `soft`."""
        e = self.main_embeddings.embed(x)
        s = self.controller(e, training)
        if soft or self.mode == "soft":
            weights = s
            indices = None
        else:
            indices = k_max_indices_batch(s.data, self.k)
            sel = gather_fields(s, indices, checked=True)  # argsort's: distinct, in range
            if self.reweight:
                sel = sel / sel.sum(axis=1, keepdims=True)
            # kept weights return to their field positions, zeros elsewhere
            weights = _scatter_weights(sel, indices, s.data.shape)
        return self.predictor(scale_embeddings(e, weights)), s, indices

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
    rows = np.arange(indices.shape[0])[:, None]
    out = np.zeros(full_shape)
    out[rows, indices] = sel.data

    def bw(g):
        if sel.requires_grad:
            if sel.grad is None:
                sel.grad = np.zeros_like(sel.data)
            sel.grad += g[rows, indices]

    return Tensor(out, parents=(sel,), backward=bw)


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
        """Returns (main prediction, selected indices, their weights) as
        `aefs_forward` computes them, without the auxiliary predictor, whose
        output only the training losses read."""
        _, _, indices, weights = _select(self, x, training, self.reweight)
        _, p_m = _main_branch(self, x, indices, weights)
        return p_m, indices, weights.data

    def loss(self, x: np.ndarray, y: np.ndarray):
        """Returns (loss, per-term floats, selected indices) of one batch:
        BCE of both predictors plus the enabled alignment terms."""
        trace = aefs_forward(self, x, training=True, reweight=self.reweight)
        bce_a = bce(trace.aux_pred, y)
        bce_m = bce(trace.main_pred, y)
        loss = bce_a + bce_m
        terms = {"bce_aux": bce_a.item(), "bce_main": bce_m.item()}
        if self.enable_eal:
            eal = embedding_alignment_loss(self.aux_embeddings.weight, self.main_embeddings.weight,
                                           self.main_embeddings.flat_rows(x, trace.indices),
                                           trace.weights, self.align_fc)
            loss = loss + eal
            terms["eal"] = eal.item()
        if self.enable_pal:
            pal = prediction_alignment_loss(trace.aux_pred, trace.main_pred)
            loss = loss + pal
            terms["pal"] = pal.item()
        return loss, terms, trace.indices

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
        s = self.controller(e_a, training=True)
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


@dataclass
class ForwardTrace:
    """Everything one early-selection forward pass produced."""

    scores: Tensor           # (B, N)
    indices: np.ndarray      # (B, k) descending-score order
    weights: Tensor          # (B, k), the single W applied on both sides
    aux_embeds: Tensor       # (B, k, d2) selected + scaled
    main_embeds: Tensor      # (B, k, d1) selected + scaled
    aux_pred: Tensor         # (B,)
    main_pred: Tensor        # (B,)


def _select(pair: DualModel, x: np.ndarray, training: bool, reweight: bool):
    """Auxiliary embeddings, controller scores, the top-k indices and their
    weights: the part of a forward pass both predictors depend on."""
    e_a = pair.aux_embeddings.embed(x)               # (B, N, d2)
    s = pair.controller(e_a, training)               # (B, N)
    indices = k_max_indices_batch(s.data, pair.k)    # (B, k)
    # (B, k); argsort's top k are distinct and in range by construction,
    # so neither this gather nor the main lookup checks them
    sel = gather_fields(s, indices, checked=True)
    weights = sel / sel.sum(axis=1, keepdims=True) if reweight else sel
    return e_a, s, indices, weights


def _main_branch(pair: DualModel, x: np.ndarray, indices: np.ndarray, weights: Tensor):
    e_m = pair.main_embeddings.embed_selected(x, indices, checked=True)  # k lookups each
    e_m_sel = scale_embeddings(e_m, weights)
    return e_m_sel, pair.main_predictor(e_m_sel)


def aefs_forward(pair: DualModel, x: np.ndarray, training: bool,
                 reweight: bool = True) -> ForwardTrace:
    """Score with the auxiliary model, keep the top k fields, and run both
    predictors on the same selection and the same weights.

    Auxiliary lookups per instance: N. Main lookups per instance: k.
    """
    e_a, s, indices, weights = _select(pair, x, training, reweight)
    e_a_sel = scale_embeddings(gather_fields(e_a, indices, checked=True), weights)
    p_a = pair.aux_predictor(e_a_sel)
    e_m_sel, p_m = _main_branch(pair, x, indices, weights)
    return ForwardTrace(scores=s, indices=indices, weights=weights,
                        aux_embeds=e_a_sel, main_embeds=e_m_sel,
                        aux_pred=p_a, main_pred=p_m)


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
