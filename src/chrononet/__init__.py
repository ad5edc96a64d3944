"""Multi-scale convolutional recurrent networks for EEG-style sequence
classification, with a from-scratch autodiff core and data pipeline."""

from .architectures import (ARCHITECTURES, ConvBlockSpec, Model, ModelConfig,
                            build, default_config, forward)
from .errors import (ChronoNetError, ConfigError, ContractError, DataError,
                     FormatError, NumericError, ShapeError)
from .tensor import Graph, Prng, Tensor, backward
from .training import TrainConfig, cross_validate, evaluate, kfold, train

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "ConvBlockSpec", "Model", "ModelConfig", "build",
    "default_config", "forward", "ChronoNetError",
    "ConfigError", "ContractError", "DataError", "FormatError", "NumericError",
    "ShapeError", "Graph", "Prng", "Tensor", "backward", "TrainConfig",
    "cross_validate", "evaluate", "kfold", "train", "__version__",
]
