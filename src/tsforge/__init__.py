"""WGAN-GP with LSTM networks for synthesizing financial return series.

The package is organized as a small library:

- :mod:`tsforge.tensor`   first-order autodiff tape of the loss heads (``gan`` only)
- :mod:`tsforge.nn`       LSTM generator and critic on named numpy arrays
- :mod:`tsforge.optim`    RMSprop and weight clipping
- :mod:`tsforge.gan`      adversarial losses and the training loop
- :mod:`tsforge.data`     price CSV -> log returns -> windows -> scaling
- :mod:`tsforge.stats`    moments, ACF, QQ, histograms, comparisons
- :mod:`tsforge.plot`     minimal SVG charts with CSV twins
- :mod:`tsforge.checkpoint` binary checkpoints of networks, optimizer and RNG
- :mod:`tsforge.cli`      the ``tsforge`` command line front end

Import names from these modules; the package imports none of them, so
importing one module loads only what that module needs. It holds one
helper they share, ``atomic_write``, through which every artifact is
written.
"""

import os
from pathlib import Path

__version__ = "0.1.0"


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (a str as UTF-8) to a temporary file beside ``path``,
    then ``os.replace`` it into place: a write cut short (a full disk, a
    kill) leaves the previous file at ``path`` whole and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
