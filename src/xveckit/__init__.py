"""Speaker-embedding toolkit.

A TDNN speaker classifier with statistics pooling whose bottleneck
serves as the utterance embedding, trainable jointly with an auxiliary
head that reconstructs the first four per-dimension statistics of its
input. Includes a self-contained reverse-mode autodiff engine, a
synthetic corpus generator, an LDA + PLDA / cosine scoring backend,
and EER / detection-cost evaluation.

Subpackages: autodiff, stats, data, model, backend, metrics, cli.
"""

from .autodiff import Tape, Tensor, backward, grad_check, stats_pool
from .backend import (
    PldaModel,
    Preprocessor,
    all_pairs_trials,
    fit_plda,
    fit_preprocessor,
    length_normalize,
    score_trials,
)
from .data import CorpusSpec, FeatureMatrix, Manifest, energy_vad, generate_corpus
from .errors import ToolkitError
from .metrics import DcfParams, MetricsReport, detection_metrics
from .model import (
    Model,
    ModelConfig,
    build_model,
    extract_embedding,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .stats import hos_vector, moments

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
    "stats_pool",
    "PldaModel",
    "Preprocessor",
    "all_pairs_trials",
    "fit_plda",
    "fit_preprocessor",
    "length_normalize",
    "score_trials",
    "CorpusSpec",
    "FeatureMatrix",
    "Manifest",
    "energy_vad",
    "generate_corpus",
    "ToolkitError",
    "DcfParams",
    "MetricsReport",
    "detection_metrics",
    "Model",
    "ModelConfig",
    "build_model",
    "extract_embedding",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "hos_vector",
    "moments",
    "__version__",
]
