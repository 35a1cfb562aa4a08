"""Classification-based surrogate testing for dynamical nonlinearity.

Train a small recurrent classifier to tell raw time-series realizations from
their constrained-randomization surrogates; significant accuracy above
chance indicates structure the surrogates cannot carry.
"""

from .spectral import (SurrogateConfig, SurrogateResult, ft_surrogate,
                       iaaft_surrogate, spectral_discrepancy)
from .dynsys import make_realizations
from .dataset import LabeledDataset, build_dataset, split_dataset
from .rnn import RnnModel, TrainConfig, evaluate, train
from .stats import binomial_test

__version__ = "0.1.0"

__all__ = [
    "SurrogateConfig",
    "SurrogateResult",
    "ft_surrogate",
    "iaaft_surrogate",
    "spectral_discrepancy",
    "make_realizations",
    "LabeledDataset",
    "build_dataset",
    "split_dataset",
    "RnnModel",
    "TrainConfig",
    "train",
    "evaluate",
    "binomial_test",
    "__version__",
]
