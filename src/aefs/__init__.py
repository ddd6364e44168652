"""Adaptive early feature selection for deep CTR models.

A small auxiliary model scores feature fields per instance before the main
embedding layer; the main model embeds only the selected fields. Both models
train jointly with embedding and prediction alignment losses, and the package
accounts exactly for activated embedding parameters and lookups.
"""

__version__ = "0.1.0"

from .data import (
    Columns,
    Dataset,
    FieldSchema,
    SyntheticSpec,
    Vocabulary,
    build_vocab,
    discretize_numeric,
    generate_synthetic,
    quantize_all,
    split_dataset,
)
from .embedding import EmbeddingSet, activation_averages, delta_el, delta_pae, full_param_count
from .metrics import Metrics, auc, emit_report, logloss, welch_t_test
from .numerics import Adam, AdamState, Linear, RowGrad, Tensor, sigmoid, softmax, xavier_init
from .predictors import Controller, PredictorConfig, bce, build_predictor
from .selection import (
    DualModel,
    aefs_forward,
    embedding_alignment_loss,
    prediction_alignment_loss,
    scale_embeddings,
)
from .training import (
    TrainConfig,
    TrainReport,
    evaluate,
    load_checkpoint,
    prepare,
    pretrain,
    save_checkpoint,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
