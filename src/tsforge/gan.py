"""Adversarial losses and the training loop that alternates critic and generator updates.

The critic is trained n_critic times per generator update, each time on
a fresh real batch and fresh noise, while the other network's weights
stay fixed. Three loss variants are supported. The gradient-penalty
Wasserstein loss (default) and the weight-clipping one share the
Wasserstein term ``critic_loss_wgan`` and ``generator_loss_wgan``; the
former adds ``gradient_penalty``, which returns the penalty together
with its gradients: the critic's input gradient from its BPTT, the
penalty's direction from the tape, then one complex-step pass
(``nn.critic_input_grad_vjp``) for the second order. The original
log-loss GAN uses ``critic_loss_gan`` and ``generator_loss_gan``; only it
squashes the scores through a sigmoid.

The networks run as plain numpy calls, each backward called explicitly
(``nn.critic_backward``, ``nn.generator_backward``). The losses take the
critic's scores as tape leaves, so a step's tape holds its loss head
alone, and one ``T.backward`` gives the scores' gradient.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .data import WindowedDataset, sample_real_batch
from .nn import (ArchitectureSpec, ParamSet, critic_backward, critic_forward,
                 critic_input_grad_vjp, generator_backward, generator_forward, init_params)
from .optim import RmspropState, clip_weights, rmsprop_step
from .tensor import Graph, Tensor

logger = logging.getLogger(__name__)

LOSS_VARIANTS = ("wgan_gp", "wgan_clip", "gan")


class TrainingDiverged(RuntimeError):
    """A loss or gradient became NaN/Inf; the run is aborted rather than
    continued. Carries the history so far and the crash state."""

    def __init__(self, message: str, history: LossHistory, checkpoint: Checkpoint):
        super().__init__(message)
        self.history = history
        self.checkpoint = checkpoint


@dataclass
class TrainConfig:
    epochs: int = 3000
    n_critic: int = 5
    lambda_gp: float = 10.0
    batch_size: int = 32
    noise_len: int = 25
    seq_len: int = 50
    lstm_units: int = 50
    loss_variant: str = "wgan_gp"
    seed: int = 0
    checkpoint_every: int = 500
    g_loss_nonsaturating: bool = False
    learning_rate: float = 0.00005
    rho: float = 0.9
    epsilon: float = 1e-8
    clip_c: float = 0.01

    def __post_init__(self):
        for name in ("epochs", "n_critic", "batch_size", "noise_len", "seq_len",
                     "lstm_units", "seed", "checkpoint_every"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if type(value) is not int or value < least:     # a bool is no count
                raise ValueError(f"{name} must be an integer of at least {least}, "
                                 f"got {value!r}")
        for name in ("lambda_gp", "learning_rate", "rho", "epsilon", "clip_c"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int or a float, got {value!r}")
        if type(self.g_loss_nonsaturating) is not bool:
            raise ValueError(f"g_loss_nonsaturating must be a bool, "
                             f"got {self.g_loss_nonsaturating!r}")
        for name in ("learning_rate", "epsilon", "clip_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not (math.isfinite(self.lambda_gp) and self.lambda_gp >= 0):
            raise ValueError(f"lambda_gp must be finite and non-negative, got {self.lambda_gp!r}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")

    def arch(self) -> ArchitectureSpec:
        return ArchitectureSpec(noise_len=self.noise_len, seq_len=self.seq_len,
                                lstm_units=self.lstm_units)


@dataclass
class LossHistory:
    """Per-epoch diagnostics; one row per generator update."""

    epochs: list[int] = field(default_factory=list)
    critic_loss: list[float] = field(default_factory=list)
    generator_loss: list[float] = field(default_factory=list)
    wasserstein: list[float] = field(default_factory=list)
    gradient_penalty: list[float] = field(default_factory=list)

    def append(self, epoch: int, c: float, g: float, w: float, gp: float) -> None:
        self.epochs.append(epoch)
        self.critic_loss.append(c)
        self.generator_loss.append(g)
        self.wasserstein.append(w)
        self.gradient_penalty.append(gp)

    def __len__(self) -> int:
        return len(self.epochs)

    def last_finite(self) -> bool:
        vals = (self.critic_loss[-1], self.generator_loss[-1],
                self.wasserstein[-1], self.gradient_penalty[-1])
        return all(np.isfinite(v) for v in vals)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator: deterministic across platforms."""
    return np.random.Generator(np.random.Philox(seed))


def sample_noise(batch: int, noise_len: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard-normal noise [batch, noise_len]."""
    return rng.standard_normal((batch, noise_len))


def interpolate(real: np.ndarray, fake: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-sample convex mix eps*real + (1-eps)*fake, eps ~ Uniform[0,1]."""
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    if real.shape != fake.shape:
        raise ValueError(f"interpolate: shapes {real.shape} and {fake.shape} differ")
    eps = rng.uniform(0.0, 1.0, size=real.shape[0]).reshape(-1, *([1] * (real.ndim - 1)))
    return eps * real + (1.0 - eps) * fake


def gradient_penalty(critic: ParamSet, x_hat: np.ndarray, lambda_gp: float,
                     ) -> tuple[float, dict[str, np.ndarray]]:
    """lambda * E[(||grad_x D(x_hat)||_2 - 1)^2] and its gradients with
    respect to the critic's arrays.

    The per-sample gradient norm is taken jointly over all timesteps; the
    expectation is the batch mean. The input gradient g is the critic's
    BPTT without weights at an all-ones upstream: samples are scored
    independently, so the gradient of the summed scores stacks the
    per-sample input gradients. The penalty is recorded on g as a tape
    leaf, ``T.grad`` gives its direction v = dpenalty/dg (the sqrt's
    backward guards a zero norm to 0), and the penalty's gradients are
    ``nn.critic_input_grad_vjp`` in that direction. The x-hat scan's saved
    set is freed before that complex-step pass runs.
    """
    _, saved = critic_forward(critic, x_hat, keep=True)
    _, dx = critic_backward(saved, np.ones(x_hat.shape[0]), weights=False)
    del saved
    with Graph() as graph:
        g = Tensor(dx)
        norms = T.sqrt(T.reduce("sum", T.reduce("sum", T.square(g), axis=1), axis=1))
        penalty = T.mul(T.reduce("mean", T.square(T.sub(norms, 1.0))), float(lambda_gp))
    v = T.grad(penalty, g, graph)
    graph.clear()
    return penalty.item(), critic_input_grad_vjp(critic, x_hat, v)


def critic_loss_wgan(s_real: Tensor, s_fake: Tensor) -> tuple[Tensor, float]:
    """The Wasserstein term mean D(fake) - mean D(real) of the critic loss,
    from the critic's scores.

    Returns the loss tensor and the Wasserstein estimate mean D(real) -
    mean D(fake). The gradient-penalty variant adds ``gradient_penalty``
    at interpolates; the weight-clipping variant trains on this term alone.
    """
    mean_real, mean_fake = T.reduce("mean", s_real), T.reduce("mean", s_fake)
    return T.sub(mean_fake, mean_real), mean_real.item() - mean_fake.item()


def generator_loss_wgan(s_fake: Tensor) -> Tensor:
    """-mean D(fake): the generator climbs the critic's scores."""
    return T.negate(T.reduce("mean", s_fake))


_PROB_FLOOR = 1e-7


def _probs(scores: Tensor) -> Tensor:
    return T.clip(T.sigmoid(scores), _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def wasserstein_estimate(s_real: Tensor, s_fake: Tensor) -> float:
    """mean D(real) - mean D(fake) from scores already computed; the
    log-loss variant's convergence diagnostic."""
    return float(np.mean(s_real.data) - np.mean(s_fake.data))


def critic_loss_gan(s_real: Tensor, s_fake: Tensor) -> tuple[Tensor, float]:
    """The original log loss -mean log D(real) - mean log(1 - D(fake)) of
    the critic's scores; only this variant squashes the scores.

    Returns the loss tensor and the Wasserstein estimate of the same
    scores, so the diagnostic costs no second critic call.
    """
    p_real, p_fake = _probs(s_real), _probs(s_fake)
    loss = T.sub(T.negate(T.reduce("mean", T.log(p_real))),
                 T.reduce("mean", T.log(T.sub(1.0, p_fake))))
    return loss, wasserstein_estimate(s_real, s_fake)


def generator_loss_gan(s_fake: Tensor, nonsaturating: bool = False) -> Tensor:
    """mean log(1 - D(fake)), or -mean log D(fake) when the
    non-saturating alternative is selected."""
    p_fake = _probs(s_fake)
    if nonsaturating:
        return T.negate(T.reduce("mean", T.log(p_fake)))
    return T.reduce("mean", T.log(T.sub(1.0, p_fake)))


def lipschitz_ratio_check(critic: ParamSet, x1, x2) -> np.ndarray:
    """|D(x1[k]) - D(x2[k])| / ||x1[k] - x2[k]||_2 for each of n pairs.

    ``x1`` and ``x2`` are stacks [n, seq_len, features] of equal shape. All
    2n windows are scored in one critic call on their concatenation, and
    the n ratios come back as an array. Raises ``ValueError`` if any pair
    is identical. Diagnostic only; a 1-Lipschitz critic keeps every ratio
    at most 1.
    """
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("inputs must share a shape")
    n = a.shape[0]
    diff = (a - b).reshape(n, -1)
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    if not np.all(dist):
        raise ValueError(f"pair {int(np.argmin(dist))} has identical inputs")
    scores = critic_forward(critic, np.concatenate([a, b]))[0].reshape(2, n)
    return np.abs(scores[0] - scores[1]) / dist


def mode_collapse_score(batch: np.ndarray) -> float:
    """Mean pairwise distance between samples, RMS-normalized per element.

    Two samples offset by a constant d per element sit at distance d;
    identical samples give exactly 0.
    """
    batch = np.asarray(batch, dtype=np.float64)
    n = batch.shape[0]
    if n < 2:
        raise ValueError("mode collapse score needs at least 2 samples")
    flat = batch.reshape(n, -1)
    per_sample = flat.shape[1]
    total = 0.0
    pairs = 0
    for i in range(n):
        diff = flat[i + 1:] - flat[i]
        total += float(np.sum(np.sqrt(np.sum(diff * diff, axis=1))))
        pairs += diff.shape[0]
    return float(total / pairs / np.sqrt(per_sample))


def generate(generator: ParamSet, n_samples: int, seed: int) -> np.ndarray:
    """Sample noise and run the generator; [n_samples, seq_len, 1]."""
    rng = make_rng(seed)
    z = sample_noise(n_samples, generator.arch.noise_len, rng)
    return np.array(generator_forward(generator, z)[0])


def _nonfinite(grads: dict[str, np.ndarray]) -> list[str]:
    """Names of the parameters whose gradient holds a NaN, an Inf or an element
    whose square overflows, which would freeze RMSprop with an infinite cache."""
    with np.errstate(over="ignore"):
        return [name for name, g in grads.items() if not np.all(np.isfinite(g * g))]


def critic_gradients(critic: ParamSet, real: np.ndarray, fake: np.ndarray, variant: str,
                     lambda_gp: float, rng: np.random.Generator,
                     ) -> tuple[dict[str, np.ndarray], float, float, float]:
    """Gradients of one critic update, and its loss, Wasserstein estimate
    and penalty.

    With the penalty (wgan_gp, lambda_gp > 0) the interpolates are drawn
    and ``gradient_penalty`` runs first, and its passes end before the
    [real; fake] scan runs, so no two scans' saved sets are alive together.
    The Wasserstein term follows: one critic pass on [real; fake], its
    loss head on the two halves' scores as tape leaves, and one BPTT with
    weights from the scores' gradient. The loss is their sum, so the
    gradients are the per-tensor sums.
    """
    penalty_grads, gp_val = None, 0.0
    if variant == "wgan_gp" and lambda_gp > 0:
        gp_val, penalty_grads = gradient_penalty(critic, interpolate(real, fake, rng), lambda_gp)
    scores, saved = critic_forward(critic, np.concatenate([real, fake]), keep=True)
    with Graph() as graph:
        s_real, s_fake = Tensor(scores[:len(real)]), Tensor(scores[len(real):])
        loss, w_est = (critic_loss_gan if variant == "gan" else critic_loss_wgan)(s_real, s_fake)
    gm = T.backward(graph, loss)
    c_loss = loss.item()
    graph.clear()
    grads, _ = critic_backward(saved, np.concatenate([gm[s_real], gm[s_fake]]), weights=True)
    if penalty_grads is not None:
        grads = {name: g + penalty_grads[name] for name, g in grads.items()}
        c_loss += gp_val
    return grads, c_loss, w_est, gp_val


def generator_gradients(gen: ParamSet, critic: ParamSet, z: np.ndarray, variant: str,
                        nonsaturating: bool) -> tuple[dict[str, np.ndarray], float]:
    """Gradients of one generator update, and its loss: the generator and
    critic passes on the noise z, the loss head on the fakes' scores as a
    tape leaf, then the critic's BPTT without weights for the fakes'
    gradient and the generator's BPTT with them."""
    fake, gen_saved = generator_forward(gen, z, keep=True)
    scores, critic_saved = critic_forward(critic, fake, keep=True)
    with Graph() as graph:
        s_fake = Tensor(scores)
        loss = (generator_loss_gan(s_fake, nonsaturating) if variant == "gan"
                else generator_loss_wgan(s_fake))
    gm = T.backward(graph, loss)
    g_loss = loss.item()
    graph.clear()
    _, dx = critic_backward(critic_saved, gm[s_fake], weights=False)
    return generator_backward(gen_saved, dx), g_loss


def train(config: TrainConfig, data: WindowedDataset, *,
          resume: Checkpoint | None = None,
          on_checkpoint: Callable[[Checkpoint], None] | None = None,
          ) -> tuple[ParamSet, ParamSet, LossHistory, list[Checkpoint]]:
    """Run the alternating training loop.

    One epoch = n_critic critic updates (``critic_gradients`` on a fresh
    real batch and fresh noise each; the fakes are plain arrays, so the
    generator gets no gradient) followed by one generator update
    (``generator_gradients``), whose critic BPTT computes the input
    gradient alone.
    Real batches are drawn uniformly with replacement.
    Deterministic given (seed, config, data); on NaN/Inf raises
    TrainingDiverged carrying the crash checkpoint.
    """
    if len(data) == 0:
        raise ValueError("training dataset is empty")
    if data.seq_len != config.seq_len:
        raise ValueError(f"dataset seq_len {data.seq_len} != config seq_len {config.seq_len}")

    if resume is not None:
        gen = resume.generator.copy()
        critic = resume.critic.copy()
        opt_g = resume.opt_generator.copy()
        opt_c = resume.opt_critic.copy()
        rng = make_rng(0)
        rng.bit_generator.state = resume.rng_state
        start_epoch = resume.epoch
    else:
        seeds = np.random.SeedSequence(config.seed).generate_state(3, dtype=np.uint64)
        gen = init_params(config.arch(), "generator", int(seeds[0]))
        critic = init_params(config.arch(), "critic", int(seeds[1]))
        opt_g = RmspropState()
        opt_c = RmspropState()
        rng = make_rng(int(seeds[2]))
        start_epoch = 0

    history = LossHistory()
    checkpoints: list[Checkpoint] = []
    B = config.batch_size

    def checkpoint(epoch: int) -> Checkpoint:
        return Checkpoint(epoch=epoch, generator=gen.copy(), critic=critic.copy(),
                          opt_generator=opt_g.copy(), opt_critic=opt_c.copy(),
                          scaler=data.scaler, rng_state=rng.bit_generator.state,
                          extra={"config": asdict(config), "n_windows": len(data)})

    for epoch in range(start_epoch + 1, config.epochs + 1):
        c_loss = w_est = gp_val = 0.0

        def abort(detail: str, bad_grads: list[str]):
            if bad_grads:
                detail += f"; non-finite or overflowing gradient of {', '.join(bad_grads)}"
            raise TrainingDiverged(f"non-finite value at epoch {epoch}: {detail}",
                                   history, checkpoint(epoch))

        for _ in range(config.n_critic):
            real = sample_real_batch(data, B, rng)
            z = sample_noise(B, config.noise_len, rng)
            fake, _ = generator_forward(gen, z)
            grads, c_loss, w_est, gp_val = critic_gradients(
                critic, real, fake, config.loss_variant, config.lambda_gp, rng)
            # checked before the step, so the crash checkpoint holds finite weights
            bad = _nonfinite(grads)
            if bad or not all(np.isfinite(v) for v in (c_loss, w_est, gp_val)):
                history.append(epoch, c_loss, float("nan"), w_est, gp_val)
                abort(f"critic={c_loss}, wasserstein={w_est}, penalty={gp_val}", bad)
            rmsprop_step(critic, grads, opt_c, config.learning_rate, config.rho, config.epsilon)
            if config.loss_variant == "wgan_clip":
                clip_weights(critic, config.clip_c)

        z = sample_noise(B, config.noise_len, rng)
        grads, g_val = generator_gradients(gen, critic, z, config.loss_variant,
                                           config.g_loss_nonsaturating)

        history.append(epoch, c_loss, g_val, w_est, gp_val)
        bad = _nonfinite(grads)
        if bad or not history.last_finite():
            abort(f"critic={c_loss}, generator={g_val}", bad)
        rmsprop_step(gen, grads, opt_g, config.learning_rate, config.rho, config.epsilon)
        if epoch == start_epoch + 1 or epoch % 100 == 0:
            logger.debug("epoch %d: critic=%.5f generator=%.5f w=%.5f gp=%.5f",
                         epoch, c_loss, g_val, w_est, gp_val)
        if epoch % config.checkpoint_every == 0:
            cp = checkpoint(epoch)
            checkpoints.append(cp)
            if on_checkpoint is not None:
                on_checkpoint(cp)

    return gen, critic, history, checkpoints
