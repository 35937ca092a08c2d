"""WGAN-GP with LSTM networks for synthesizing financial return series.

The package is organized as a small library:

- :mod:`tsforge.tensor`   reverse-mode autodiff with second-order support
- :mod:`tsforge.nn`       dense/LSTM layers, generator and critic
- :mod:`tsforge.optim`    RMSprop and weight clipping
- :mod:`tsforge.gan`      adversarial losses and the training loop
- :mod:`tsforge.data`     price CSV -> log returns -> windows -> scaling
- :mod:`tsforge.stats`    moments, ACF, QQ, histograms, comparisons
- :mod:`tsforge.plot`     minimal SVG charts with CSV twins
- :mod:`tsforge.checkpoint` binary checkpoints of networks, optimizer and RNG
- :mod:`tsforge.cli`      the ``tsforge`` command line front end
"""

from .nn import ArchitectureSpec, ParamSet, init_params, generator_forward, critic_forward
from .gan import TrainConfig, LossHistory, TrainSnapshot, train, generate
from .data import PriceSeries, WindowedDataset, load_csv, build_dataset
from .stats import compare_distributions, moments

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec", "ParamSet", "init_params", "generator_forward", "critic_forward",
    "TrainConfig", "LossHistory", "TrainSnapshot", "train", "generate",
    "PriceSeries", "WindowedDataset", "load_csv", "build_dataset",
    "compare_distributions", "moments", "__version__",
]
