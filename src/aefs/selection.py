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

from .embedding import EmbeddingSet
from .numerics import DimensionError, Linear, Tensor, _accum, gather_fields
from .predictors import Controller, PredictorConfig, build_predictor


class DegenerateSelectionError(ValueError):
    """All selected scores are zero; weights cannot be normalized."""


def k_for(n_fields: int, r_kept: float) -> int:
    """Number of kept fields: floor(N * r), at least 1."""
    if not (0 < r_kept <= 1):
        raise ValueError(f"keep fraction must be in (0, 1], got {r_kept}")
    return max(1, int(n_fields * r_kept))


def k_max_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending, ties to the lower index."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise DimensionError("k_max_indices expects a 1-D score vector")
    if not (1 <= k <= s.shape[0]):
        raise ValueError(f"k={k} out of range for {s.shape[0]} scores")
    return np.argsort(-s, kind="stable")[:k]


def k_max_indices_batch(scores: np.ndarray, k: int) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if not (1 <= k <= s.shape[1]):
        raise ValueError(f"k={k} out of range for {s.shape[1]} scores")
    return np.argsort(-s, axis=1, kind="stable")[:, :k]


def l1_normalize_selected(scores, indices) -> np.ndarray:
    """Selected scores scaled to sum to one."""
    s = np.asarray(scores, dtype=np.float64)
    sel = s[np.asarray(indices)]
    if (sel < 0).any():
        raise ValueError("selected scores must be nonnegative")
    total = sel.sum()
    if total == 0.0:
        raise DegenerateSelectionError("all selected scores are zero")
    return sel / total


def scale_embeddings(e_sel: Tensor, weights: Tensor) -> Tensor:
    """Multiply each selected field vector by its weight.

    e_sel is (B, k, d) and weights is (B, k); broadcasting handles the rest,
    so the gradient with respect to each weight is the inner product of the
    upstream gradient with that field's embedding.
    """
    if e_sel.shape[:2] != weights.shape:
        raise DimensionError(f"embeddings {e_sel.shape} vs weights {weights.shape}")
    b, k = weights.shape
    return e_sel * weights.reshape(b, k, 1)


@dataclass
class SelectionResult:
    """Top-k field indices (descending score, index tie-break) and their
    L1-normalized weights for one instance."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.indices.shape != self.weights.shape:
            raise DimensionError("indices and weights must have equal length")
        if len(np.unique(self.indices)) != self.indices.size:
            raise ValueError("selection indices must be distinct")
        if (self.weights < 0).any() or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")


# ---------------------------------------------------------------------------
# models

class PlainModel:
    """No selection: embed all fields, predict."""

    def __init__(self, vocab_sizes, dim: int, backbone: str, hidden_dims, n_cross_layers,
                 rng: np.random.Generator):
        n = len(vocab_sizes)
        self.embeddings = EmbeddingSet(vocab_sizes, dim, rng)
        self.predictor = build_predictor(
            PredictorConfig(backbone, n, dim, tuple(hidden_dims), n_cross_layers), rng)
        self.n_fields = n

    def forward(self, x: np.ndarray, training: bool) -> Tensor:
        return self.predictor(self.embeddings.embed(x))

    def named_params(self):
        return self.embeddings.named_params("emb.") + self.predictor.named_params()

    def named_buffers(self):
        return []


class FixedSubsetModel:
    """A static subset of fields chosen up front; embeds only those."""

    def __init__(self, vocab_sizes, dim: int, fields: np.ndarray, backbone: str,
                 hidden_dims, n_cross_layers, rng: np.random.Generator):
        self.fields = np.asarray(sorted(fields))
        self.n_fields = len(vocab_sizes)
        self.embeddings = EmbeddingSet(vocab_sizes, dim, rng)
        self.predictor = build_predictor(
            PredictorConfig(backbone, len(self.fields), dim, tuple(hidden_dims),
                            n_cross_layers), rng)

    def forward(self, x: np.ndarray, training: bool) -> Tensor:
        idx = np.tile(self.fields, (x.shape[0], 1))
        return self.predictor(self.embeddings.embed_selected(x, idx))

    def selected_indices(self, batch_size: int) -> np.ndarray:
        return np.tile(self.fields, (batch_size, 1))

    def named_params(self):
        return self.embeddings.named_params("emb.") + self.predictor.named_params()

    def named_buffers(self):
        return []


class LateSelectionModel:
    """Adaptive late selection: all N fields are embedded, a controller
    scores them, and the embeddings are re-weighted (soft) or top-k masked
    and re-weighted (hard) before prediction. Saves no lookups."""

    def __init__(self, vocab_sizes, dim: int, backbone: str, hidden_dims, n_cross_layers,
                 rng: np.random.Generator):
        n = len(vocab_sizes)
        self.n_fields = n
        self.embeddings = EmbeddingSet(vocab_sizes, dim, rng)
        self.controller = Controller(n, dim, rng)
        self.predictor = build_predictor(
            PredictorConfig(backbone, n, dim, tuple(hidden_dims), n_cross_layers), rng)

    def forward(self, x: np.ndarray, training: bool, mode: str = "soft",
                k: int | None = None, reweight: bool = True):
        """Returns (prediction, scores, hard-selection indices or None)."""
        e = self.embeddings.embed(x)
        s = self.controller(e, training)
        if mode == "soft":
            weights = s
            indices = None
        elif mode == "hard":
            if k is None:
                raise ValueError("hard selection needs k")
            indices = k_max_indices_batch(s.data, k)
            sel = gather_fields(s, indices)
            if reweight:
                sel = sel / sel.sum(axis=1, keepdims=True)
            # kept weights return to their field positions, zeros elsewhere
            weights = _scatter_weights(sel, indices, s.data.shape)
        else:
            raise ValueError(f"unknown selection mode {mode!r}")
        b = x.shape[0]
        scaled = e * weights.reshape(b, self.n_fields, 1)
        return self.predictor(scaled), s, indices

    def named_params(self):
        return (self.embeddings.named_params("emb.")
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
                 rng: np.random.Generator):
        if d2 > d1:
            raise ValueError(f"auxiliary dimension {d2} exceeds main dimension {d1}")
        n = len(vocab_sizes)
        self.n_fields = n
        self.k = k
        self.d1 = d1
        self.d2 = d2
        self.aux_embeddings = EmbeddingSet(vocab_sizes, d2, rng)
        self.controller = Controller(n, d2, rng)
        self.aux_predictor = build_predictor(
            PredictorConfig(backbone_aux, k, d2, tuple(hidden_dims), n_cross_layers), rng)
        self.align_fc = Linear(d2, d1, rng)
        self.main_embeddings = EmbeddingSet(vocab_sizes, d1, rng)
        self.main_predictor = build_predictor(
            PredictorConfig(backbone_main, k, d1, tuple(hidden_dims), n_cross_layers), rng)
        self._pretrain_head: Linear | None = None

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
    sel = gather_fields(s, indices)                  # (B, k)
    weights = sel / sel.sum(axis=1, keepdims=True) if reweight else sel
    return e_a, s, indices, weights


def _main_branch(pair: DualModel, x: np.ndarray, indices: np.ndarray, weights: Tensor):
    e_m = pair.main_embeddings.embed_selected(x, indices)  # k lookups each
    e_m_sel = scale_embeddings(e_m, weights)
    return e_m_sel, pair.main_predictor(e_m_sel)


def aefs_forward(pair: DualModel, x: np.ndarray, training: bool,
                 reweight: bool = True) -> ForwardTrace:
    """Score with the auxiliary model, keep the top k fields, and run both
    predictors on the same selection and the same weights.

    Auxiliary lookups per instance: N. Main lookups per instance: k.
    """
    e_a, s, indices, weights = _select(pair, x, training, reweight)
    e_a_sel = scale_embeddings(gather_fields(e_a, indices), weights)
    p_a = pair.aux_predictor(e_a_sel)
    e_m_sel, p_m = _main_branch(pair, x, indices, weights)
    return ForwardTrace(scores=s, indices=indices, weights=weights,
                        aux_embeds=e_a_sel, main_embeds=e_m_sel,
                        aux_pred=p_a, main_pred=p_m)


def aefs_predict(pair: DualModel, x: np.ndarray, training: bool,
                 reweight: bool = True):
    """The main prediction, selected indices and weights of `aefs_forward`,
    without the auxiliary predictor, whose output only the training losses
    use. Returns (main_pred, indices, weights)."""
    _, _, indices, weights = _select(pair, x, training, reweight)
    _, p_m = _main_branch(pair, x, indices, weights)
    return p_m, indices, weights


def embedding_alignment_loss(aux_embeds: Tensor, main_embeds: Tensor,
                             fc: Linear) -> Tensor:
    """Mean squared difference between the lifted auxiliary embeddings and
    the main embeddings, averaged over batch and all k*d1 components.

    One tape node. Its forward and backward evaluate, op for op, what the
    composed graph ``((fc(aux) - main) ** 2).mean()`` evaluates, so values
    and gradients are bit-identical to it: the doubled ``c*diff`` is the
    two equal products the square's backward adds, and main, then the
    bias, the weight and aux receive their gradients as that graph hands
    them down.
    """
    if aux_embeds.shape[:2] != main_embeds.shape[:2]:
        raise DimensionError(f"selection shapes differ: {aux_embeds.shape} vs {main_embeds.shape}")
    b, k, d2 = aux_embeds.shape
    w, bias = fc.weight, fc.bias
    if w.shape != (d2, main_embeds.shape[2]):
        raise DimensionError(f"alignment map {w.shape} cannot lift {aux_embeds.shape} "
                             f"to {main_embeds.shape}")
    a2 = aux_embeds.data.reshape(b * k, d2)
    diff = a2 @ w.data
    diff += bias.data
    diff = diff.reshape(main_embeds.shape)
    diff -= main_embeds.data
    c = 1.0 / diff.size
    out = (diff * diff).sum() * c

    def bw(g):
        gd = (g * c) * diff
        gd += gd
        _accum(main_embeds, -gd, owned=True)
        gd2 = gd.reshape(b * k, -1)
        _accum(bias, gd2.sum(axis=0), owned=True)
        _accum(w, a2.T @ gd2, owned=True)
        _accum(aux_embeds, (gd2 @ w.data.T).reshape(aux_embeds.shape), owned=True)

    # main last: the tape then visits main before aux, as it does in the
    # composed graph
    return Tensor(out, parents=(aux_embeds, w, bias, main_embeds), backward=bw)


def prediction_alignment_loss(aux_pred: Tensor, main_pred: Tensor) -> Tensor:
    """Batch-mean squared difference between the two predictions."""
    if aux_pred.shape != main_pred.shape:
        raise DimensionError(f"prediction shapes differ: {aux_pred.shape} vs {main_pred.shape}")
    diff = aux_pred - main_pred
    return (diff * diff).mean()
