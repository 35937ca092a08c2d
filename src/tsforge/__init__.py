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

Import names from these modules; the package imports none of them, so
importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
