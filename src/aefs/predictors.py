"""Prediction-layer backbones, the field-scoring controller, and BCE.

Every backbone consumes a (B, F, d) tensor of field embeddings sized for its
configured field count F (the selection pipeline feeds k fields, baselines
feed all N) and returns a (B,) vector of click probabilities.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionError,
    Linear,
    Tensor,
    batch_moments,
    clip,
    concat,
    fold_normalization,
    log,
    lookup_affine,
    lookup_normalized_affine,
    normalized_affine,
    relu,
    scale_embeddings,
    sigmoid,
    xavier_init,
)

VARIANTS = ("mlp", "deepfm", "dcn")


@dataclass(frozen=True)
class PredictorConfig:
    variant: str
    input_fields: int
    emb_dim: int
    hidden_dims: tuple[int, ...] = (16, 16)
    n_cross_layers: int = 2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown backbone {self.variant!r}, expected one of {VARIANTS}")
        if not self.hidden_dims:
            raise ValueError("hidden_dims must be non-empty")
        if self.variant == "dcn" and self.n_cross_layers < 1:
            raise ValueError("dcn needs at least one cross layer")


class _Tower:
    """Affine + ReLU stack ending in a configurable output width."""

    def __init__(self, n_in: int, hidden_dims, n_out: int, rng: np.random.Generator,
                 final_linear: bool = True):
        self.layers = []
        width = n_in
        for h in hidden_dims:
            self.layers.append(Linear(width, h, rng))
            width = h
        self.final = Linear(width, n_out, rng) if final_linear else None
        self.out_width = n_out if final_linear else width

    def __call__(self, x: Tensor) -> Tensor:
        return self.past_first(self.layers[0](x))

    def past_first(self, h: Tensor) -> Tensor:
        """The tower's output from its first affine map's output `h`."""
        x = relu(h)
        for lin in self.layers[1:]:
            x = relu(lin(x))
        return self.final(x) if self.final is not None else x

    def named_params(self, prefix: str = ""):
        out = []
        for i, lin in enumerate(self.layers):
            out += lin.named_params(f"{prefix}h{i}.")
        if self.final is not None:
            out += self.final.named_params(f"{prefix}out.")
        return out


def _check_field_input(e: Tensor, config: PredictorConfig):
    if e.ndim != 3 or e.shape[1] != config.input_fields or e.shape[2] != config.emb_dim:
        raise DimensionError(
            f"embeddings {e.shape}, expected (*, {config.input_fields}, {config.emb_dim})")


class _Backbone:
    """What every backbone answers besides its call on embeddings."""

    def from_rows(self, table: Tensor, rows: np.ndarray, weights: Tensor | None,
                  training: bool, embedded) -> Tensor:
        """The prediction for the (B, F) rows `rows` of the embedding table
        `table`, each scaled by its entry of the (B, F) `weights` (None:
        unscaled). `embedded()` returns those rows' (B, F, d) embeddings as
        a tape node; the caller counts the lookups. This default reads
        them, weights them with `scale_embeddings` and calls the backbone."""
        e = embedded()
        return self(e if weights is None else scale_embeddings(e, weights))


class MLPPredictor(_Backbone):
    def __init__(self, config: PredictorConfig, rng: np.random.Generator):
        self.config = config
        self.tower = _Tower(config.input_fields * config.emb_dim,
                            config.hidden_dims, 1, rng)

    def __call__(self, e: Tensor) -> Tensor:
        _check_field_input(e, self.config)
        b = e.shape[0]
        flat = e.reshape(b, self.config.input_fields * self.config.emb_dim)
        return sigmoid(self.tower(flat)).reshape(b)

    def from_rows(self, table: Tensor, rows: np.ndarray, weights: Tensor | None,
                  training: bool, embedded) -> Tensor:
        """In training, with rows at least half as wide as the first layer
        (``2 * d >= h``), the rows, their weights and the first layer go
        through `lookup_affine`, over the batch's distinct (column, row)
        pairs and without the (B, F * d) input; `embedded()` is not called.
        Otherwise (scoring, or narrower rows, whose pairs cost more than the
        input) this is the default composition."""
        first = self.tower.layers[0]
        if not training or 2 * self.config.emb_dim < first.weight.shape[1]:
            return super().from_rows(table, rows, weights, training, embedded)
        if rows.ndim != 2 or rows.shape[1] != self.config.input_fields \
                or table.shape[1] != self.config.emb_dim:
            raise DimensionError(f"rows {rows.shape} of a table of width {table.shape[1]}, "
                                 f"expected (*, {self.config.input_fields}) of width "
                                 f"{self.config.emb_dim}")
        h = lookup_affine(table, rows, weights, first)
        return sigmoid(self.tower.past_first(h)).reshape(rows.shape[0])

    def named_params(self, prefix: str = ""):
        return self.tower.named_params(prefix + "mlp.")


def fm_pairwise_interaction(e: Tensor) -> Tensor:
    """Second-order FM term per instance: sum over field pairs of their dot
    product, via (square-of-sum - sum-of-squares) / 2."""
    sum_f = e.sum(axis=1)                 # (B, d)
    square_of_sum = sum_f * sum_f
    sum_of_squares = (e * e).sum(axis=1)  # (B, d)
    return ((square_of_sum - sum_of_squares) * 0.5).sum(axis=1)  # (B,)


class DeepFMPredictor(_Backbone):
    """Linear term + FM pairwise term + deep tower, squashed by a sigmoid."""

    def __init__(self, config: PredictorConfig, rng: np.random.Generator):
        self.config = config
        n_in = config.input_fields * config.emb_dim
        self.linear = Linear(n_in, 1, rng)
        self.deep = _Tower(n_in, config.hidden_dims, 1, rng)

    def __call__(self, e: Tensor) -> Tensor:
        _check_field_input(e, self.config)
        b = e.shape[0]
        flat = e.reshape(b, self.config.input_fields * self.config.emb_dim)
        logit = (self.linear(flat) + self.deep(flat)).reshape(b) + fm_pairwise_interaction(e)
        return sigmoid(logit)

    def named_params(self, prefix: str = ""):
        return (self.linear.named_params(prefix + "fm.linear.")
                + self.deep.named_params(prefix + "fm.deep."))


class CrossLayer:
    """x_{l+1} = x0 * (x_l w) + b + x_l with a scalar projection per instance."""

    def __init__(self, width: int, rng: np.random.Generator):
        self.weight = Tensor(xavier_init(width, 1, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x0: Tensor, xl: Tensor) -> Tensor:
        proj = xl @ self.weight            # (B, 1)
        return x0 * proj + self.bias + xl

    def named_params(self, prefix: str = ""):
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


class DCNPredictor(_Backbone):
    def __init__(self, config: PredictorConfig, rng: np.random.Generator):
        self.config = config
        width = config.input_fields * config.emb_dim
        self.cross = [CrossLayer(width, rng) for _ in range(config.n_cross_layers)]
        self.deep = _Tower(width, config.hidden_dims, 0, rng, final_linear=False)
        self.head = Linear(width + self.deep.out_width, 1, rng)

    def __call__(self, e: Tensor) -> Tensor:
        _check_field_input(e, self.config)
        b = e.shape[0]
        x0 = e.reshape(b, self.config.input_fields * self.config.emb_dim)
        xl = x0
        for layer in self.cross:
            xl = layer(x0, xl)
        deep_out = self.deep(x0)
        return sigmoid(self.head(concat([xl, deep_out], axis=1))).reshape(b)

    def named_params(self, prefix: str = ""):
        out = []
        for i, layer in enumerate(self.cross):
            out += layer.named_params(f"{prefix}dcn.cross{i}.")
        out += self.deep.named_params(prefix + "dcn.deep.")
        out += self.head.named_params(prefix + "dcn.head.")
        return out


def build_predictor(config: PredictorConfig, rng: np.random.Generator):
    cls = {"mlp": MLPPredictor, "deepfm": DeepFMPredictor, "dcn": DCNPredictor}[config.variant]
    return cls(config, rng)


class Controller:
    """Importance scorer: batch norm over the flattened field embeddings,
    then one affine map down to N logits. Their softmax is the field
    scores; top-k selection with re-weighting reads the logits alone
    (`selection.topk_softmax`).

    The batch norm and the affine map run as one `normalized_affine` node,
    or, from table rows in training, as one `lookup_normalized_affine`
    node (`from_rows`). Training mode normalizes by the batch's statistics
    (biased variance) and moves the running statistics toward them;
    inference mode normalizes by the running statistics. Training needs a
    batch of at least 2 rows. Within `folded`, inference mode reads the two
    folded into one map once, on entry.
    """

    momentum = 0.1
    eps = 1e-5
    _folded: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(self, n_fields: int, emb_dim: int, rng: np.random.Generator):
        self.n_fields = n_fields
        self.emb_dim = emb_dim
        width = n_fields * emb_dim
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.fc = Linear(width, n_fields, rng)

    def logits(self, e: Tensor, training: bool) -> Tensor:
        """The (B, N) logits of the (B, N, d) embeddings `e`."""
        if e.ndim != 3 or e.shape[1] != self.n_fields or e.shape[2] != self.emb_dim:
            raise DimensionError(
                f"controller input {e.shape}, expected (*, {self.n_fields}, {self.emb_dim})")
        b = e.shape[0]
        flat = e.reshape(b, self.n_fields * self.emb_dim)
        if training:
            mean, var = batch_moments(flat.data)
            self._track(mean, var)
        elif self._folded is not None:
            w, offset = self._folded
            out = flat.data @ w
            out += offset
            return Tensor(out)
        else:
            mean, var = self.running_mean, self.running_var
        return normalized_affine(flat, self.gamma, self.beta, self.fc.weight, self.fc.bias,
                                 mean, np.sqrt(var + self.eps), batch_stats=training)

    def from_rows(self, table: Tensor, rows: np.ndarray, training: bool, embedded) -> Tensor:
        """The (B, N) logits of the (B, N) rows `rows` of the embedding
        table `table`. `embedded()` returns their (B, N, d) embeddings as a
        tape node; the caller counts the lookups. In training the batch norm
        and the affine map go through `lookup_normalized_affine`, over the
        batch's distinct (column, row) pairs and without the (B, N * d)
        input; `embedded()` is not called. In scoring this is
        ``logits(embedded(), training)``. `aefs`'s controller does not come
        here: `DualModel` calls `logits` on the auxiliary lookup."""
        if not training:
            return self.logits(embedded(), training)
        if rows.ndim != 2 or rows.shape[1] != self.n_fields or table.shape[1] != self.emb_dim:
            raise DimensionError(f"rows {rows.shape} of a table of width {table.shape[1]}, "
                                 f"expected (*, {self.n_fields}) of width {self.emb_dim}")
        out, mean, var = lookup_normalized_affine(table, rows, self.gamma, self.beta, self.fc,
                                                  self.eps)
        self._track(mean, var)
        return out

    def _track(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Move the running statistics toward a training batch's."""
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var

    @contextlib.contextmanager
    def folded(self):
        """A scope in which inference-mode logits read the batch norm and
        the affine map folded into one map on entry, with the bits
        `normalized_affine` gives, and no gradient. Nothing may write the
        parameters or running statistics within it; the fold ends with it,
        so what an optimizer step or a checkpoint load writes in place
        between two scopes is read by the next."""
        self._folded = fold_normalization(
            self.gamma.data, self.beta.data, self.fc.weight.data, self.fc.bias.data,
            self.running_mean, np.sqrt(self.running_var + self.eps))
        try:
            yield
        finally:
            self._folded = None

    def named_params(self, prefix: str = ""):
        bn = prefix + "controller.bn."
        return ([(bn + "gamma", self.gamma), (bn + "beta", self.beta)]
                + self.fc.named_params(prefix + "controller.fc."))

    def named_buffers(self, prefix: str = ""):
        bn = prefix + "controller.bn."
        return [(bn + "running_mean", self.running_mean), (bn + "running_var", self.running_var)]


def bce(y_hat: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1 - 1e-7]."""
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise DimensionError(f"predictions {y_hat.shape} vs labels {y.shape}")
    p = clip(y_hat, 1e-7, 1.0 - 1e-7)
    losses = -(y * log(p) + (1.0 - y) * log(1.0 - p))
    return losses.mean()
