"""RMSprop updates and the weight-clipping rule for the clipping variant.

RMSprop divides the learning rate by an exponentially decaying average
of squared gradients, per parameter element. The learning rate, decay
and epsilon are plain arguments; their defaults (the paper's 0.00005,
the standard 0.9 and 1e-8) live in ``gan.TrainConfig`` alone. Epsilon
is added outside the square root so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import ParamSet


@dataclass
class RmspropState:
    """Per-parameter cache of the decaying average of squared gradients."""

    cache: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def copy(self) -> "RmspropState":
        return RmspropState({k: v.copy() for k, v in self.cache.items()}, self.step)


def rmsprop_step(params: ParamSet, grads: dict[str, np.ndarray],
                 state: RmspropState, learning_rate: float, rho: float,
                 epsilon: float) -> RmspropState:
    """One in-place update of every parameter.

    cache <- rho*cache + (1-rho)*g^2; p <- p - lr*g / (sqrt(cache)+eps).
    Requires a gradient for every parameter.
    """
    missing = [name for name in params if name not in grads]
    if missing:
        raise KeyError(f"missing gradients for parameters: {missing}")
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, expected {p.shape}")
        cache = state.cache.get(name)
        if cache is None:
            cache = np.zeros(p.shape)
        cache = rho * cache + (1.0 - rho) * (g * g)
        state.cache[name] = cache
        p -= learning_rate * g / (np.sqrt(cache) + epsilon)
    state.step += 1
    return state


def clip_weights(params: ParamSet, c: float) -> ParamSet:
    """Clamp every parameter element to [-c, +c], in place."""
    if c <= 0:
        raise ValueError("clip constant must be positive")
    for _, p in params.items():
        np.clip(p, -c, c, out=p)
    return params
