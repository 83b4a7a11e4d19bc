"""mixcast: probabilistic forecasting with a Gaussian-mixture output layer.

The pieces compose bottom-up: `gmm` is the univariate mixture kernel,
`intervals` derives high-density confidence intervals from density grids,
`metrics` scores whole predictive distributions (CRPS, interval width,
calibration), `model` is the trainable backbone + mixture head with exact
hand-derived gradients, `training` the AdamW loop, `data` synthetic
generation and windowing, and `cli` the command-line pipeline.
"""

from .data import Normalizer
from .gmm import MixtureBatch
from .intervals import IntervalSet, derive_intervals
from .metrics import EvaluationReport, ScoringConfig, evaluate
from .model import BackboneConfig, ForecastBatch, HeadConfig, ModelConfig
from .training import TrainConfig, fit

__version__ = "0.1.0"

__all__ = [
    "MixtureBatch",
    "IntervalSet",
    "derive_intervals",
    "EvaluationReport",
    "ScoringConfig",
    "evaluate",
    "BackboneConfig",
    "ForecastBatch",
    "HeadConfig",
    "ModelConfig",
    "Normalizer",
    "TrainConfig",
    "fit",
    "__version__",
]
