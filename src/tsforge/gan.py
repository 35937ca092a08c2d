"""Adversarial losses and the two-timescale training loop.

The critic is trained n_critic times per generator update, each time on
a fresh real batch and fresh noise, while the other network's weights
stay fixed. Three loss variants are supported. The gradient-penalty
Wasserstein loss (default) and the weight-clipping one share
``critic_loss_wgan``, the latter with lambda_gp = 0, and
``generator_loss_wgan``. The original log-loss GAN uses
``critic_loss_gan`` and ``generator_loss_gan``; only it squashes the
scores through a sigmoid.

Critic arguments below are callables mapping a [batch, seq_len, 1]
tensor to one score per sample, so losses work for any scoring
function; ``train`` wires in ``critic_forward`` over its ParamSet.
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
from .nn import ArchitectureSpec, ParamSet, critic_forward, generator_forward, init_params
from .optim import OptimConfig, RmspropState, clip_weights, rmsprop_step
from .tensor import Graph, Tensor

logger = logging.getLogger(__name__)

LABEL_REAL = 1.0
LABEL_FAKE = -1.0

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
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        for name in ("epochs", "n_critic", "batch_size", "noise_len",
                     "seq_len", "lstm_units", "checkpoint_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.lambda_gp) and self.lambda_gp >= 0):
            raise ValueError(f"lambda_gp must be finite and non-negative, got {self.lambda_gp!r}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")

    def arch(self, features: int = 1) -> ArchitectureSpec:
        return ArchitectureSpec(noise_len=self.noise_len, seq_len=self.seq_len,
                                features=features, lstm_units=self.lstm_units)


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


def interpolate(real: np.ndarray, fake: np.ndarray, rng: np.random.Generator,
                eps: np.ndarray | float | None = None) -> np.ndarray:
    """Per-sample convex mix eps*real + (1-eps)*fake, eps ~ Uniform[0,1]."""
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    if real.shape != fake.shape:
        raise ValueError(f"interpolate: shapes {real.shape} and {fake.shape} differ")
    if eps is None:
        eps = rng.uniform(0.0, 1.0, size=real.shape[0])
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64).reshape(-1, *([1] * (real.ndim - 1))),
                          (real.shape[0],) + (1,) * (real.ndim - 1))
    return eps * real + (1.0 - eps) * fake


Critic = Callable[[Tensor], Tensor]


def _per_sample_sq_norm(g: Tensor) -> Tensor:
    """Squared L2 norm per sample over all non-batch axes."""
    sq = T.square(g)
    for _ in range(g.rank - 1):
        sq = T.reduce("sum", sq, axis=1)
    return sq


def gradient_penalty(critic: Critic, x_hat: Tensor, lambda_gp: float) -> Tensor:
    """lambda * E[(||grad_x D(x_hat)||_2 - 1)^2], differentiable in the
    critic parameters.

    The per-sample gradient norm is taken jointly over all timesteps;
    the expectation is the batch mean. Requires an active graph; x_hat
    needs only requires_grad, because the critic's input gradient from
    ``nn.lstm_scan`` can itself be differentiated.
    """
    scores = critic(x_hat)
    # Samples are scored independently, so the gradient of the summed
    # scores stacks the per-sample input gradients.
    total = T.reduce("sum", scores)
    g = T.grad(total, x_hat)
    norms = T.sqrt(_per_sample_sq_norm(g))
    return T.mul(T.reduce("mean", T.square(T.sub(norms, 1.0))), float(lambda_gp))


def _score_pair(critic: Critic, real_batch, fake_batch) -> tuple[Tensor, Tensor]:
    """Scores of the real and the fake windows from one critic call on both."""
    real_t = T._as_tensor(real_batch)
    scores = critic(T.concat([real_t, fake_batch], axis=0))
    n = real_t.shape[0]
    return T.slice_(scores, 0, 0, n), T.slice_(scores, 0, n, scores.shape[0])


def critic_loss_wgan(critic: Critic, real_batch, fake_batch, lambda_gp: float,
                     rng: np.random.Generator, eps=None) -> tuple[Tensor, float, float]:
    """mean D(fake) - mean D(real) + gradient penalty at interpolates.

    Returns the loss tensor, the Wasserstein estimate mean D(real) -
    mean D(fake) and the penalty value. With lambda_gp = 0 (the
    weight-clipping variant) the penalty term and its interpolation draw
    are skipped entirely, leaving the plain Wasserstein critic loss.
    """
    real = np.asarray(real_batch, dtype=np.float64)
    fake = np.asarray(fake_batch, dtype=np.float64)
    s_real, s_fake = _score_pair(critic, real, fake)
    mean_real, mean_fake = T.reduce("mean", s_real), T.reduce("mean", s_fake)
    loss = T.sub(mean_fake, mean_real)
    gp_val = 0.0
    if lambda_gp > 0:
        x_hat = Tensor(interpolate(real, fake, rng, eps=eps), op="x-hat")
        penalty = gradient_penalty(critic, x_hat, lambda_gp)
        gp_val = penalty.item()
        loss = T.add(loss, penalty)
    return loss, mean_real.item() - mean_fake.item(), gp_val


def generator_loss_wgan(critic: Critic, fake_batch: Tensor) -> Tensor:
    """-mean D(fake): the generator climbs the critic's scores."""
    return T.negate(T.reduce("mean", critic(fake_batch)))


_PROB_FLOOR = 1e-7


def _probs(scores: Tensor) -> Tensor:
    return T.clip(T.sigmoid(scores), _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def wasserstein_estimate(s_real: Tensor, s_fake: Tensor) -> float:
    """mean D(real) - mean D(fake) from scores already computed; the
    log-loss variant's convergence diagnostic."""
    return float(np.mean(s_real.data) - np.mean(s_fake.data))


def critic_loss_gan(critic: Critic, real_batch, fake_batch) -> tuple[Tensor, float]:
    """The original log loss -mean log D(real) - mean log(1 - D(fake));
    only this variant squashes the scores.

    Returns the loss tensor and the Wasserstein estimate of the same
    scores, so the diagnostic costs no second critic call.
    """
    s_real, s_fake = _score_pair(critic, real_batch, fake_batch)
    p_real, p_fake = _probs(s_real), _probs(s_fake)
    loss = T.sub(T.negate(T.reduce("mean", T.log(p_real))),
                 T.reduce("mean", T.log(T.sub(1.0, p_fake))))
    return loss, wasserstein_estimate(s_real, s_fake)


def generator_loss_gan(critic: Critic, fake_batch: Tensor,
                       nonsaturating: bool = False) -> Tensor:
    """mean log(1 - D(fake)), or -mean log D(fake) when the
    non-saturating alternative is selected."""
    p_fake = _probs(critic(fake_batch))
    if nonsaturating:
        return T.negate(T.reduce("mean", T.log(p_fake)))
    return T.reduce("mean", T.log(T.sub(1.0, p_fake)))


def lipschitz_ratio_check(critic: Critic, x1, x2) -> float:
    """|D(x1) - D(x2)| / ||x1 - x2||_2 for a single pair of inputs.

    Diagnostic only; a 1-Lipschitz critic keeps this at most 1.
    """
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("inputs must share a shape")
    dist = float(np.sqrt(np.sum((a - b) ** 2)))
    if dist == 0.0:
        raise ValueError("inputs are identical")
    if a.ndim == 2:
        a = a[None, :, :]
        b = b[None, :, :]
    s1 = float(np.mean(critic(Tensor(a, requires_grad=False)).data))
    s2 = float(np.mean(critic(Tensor(b, requires_grad=False)).data))
    return abs(s1 - s2) / dist


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
    if generator.arch is None:
        raise ValueError("generator ParamSet carries no architecture")
    rng = make_rng(seed)
    z = sample_noise(n_samples, generator.arch.noise_len, rng)
    out = generator_forward(generator, Tensor(z, requires_grad=False))
    return np.array(out.data)


def _param_grads(gmap: T.GradientMap, params: ParamSet) -> dict[str, np.ndarray]:
    return {name: gmap[t].data for name, t in params.items()}


def _nonfinite(grads: dict[str, np.ndarray]) -> list[str]:
    """Names of the parameters whose gradient holds a NaN, an Inf or an element
    whose square overflows, which would freeze RMSprop with an infinite cache."""
    with np.errstate(over="ignore"):
        return [name for name, g in grads.items() if not np.all(np.isfinite(g * g))]


def train(config: TrainConfig, data: WindowedDataset, *,
          resume: Checkpoint | None = None,
          on_checkpoint: Callable[[Checkpoint], None] | None = None,
          ) -> tuple[ParamSet, ParamSet, LossHistory, list[Checkpoint]]:
    """Run the alternating training loop.

    One epoch = n_critic critic updates (fresh real batch and fresh
    noise each, generator frozen) followed by one generator update
    (critic frozen). Real batches are drawn uniformly with replacement.
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

    critic_fn: Critic = lambda x: critic_forward(critic, x)
    history = LossHistory()
    checkpoints: list[Checkpoint] = []
    B = config.batch_size
    lambda_gp = config.lambda_gp if config.loss_variant == "wgan_gp" else 0.0

    def checkpoint(epoch: int, batch: np.ndarray | None = None) -> Checkpoint:
        mc = mode_collapse_score(batch) if batch is not None and batch.shape[0] >= 2 else 0.0
        return Checkpoint(spec=config.arch(), epoch=epoch, generator=gen.copy(),
                          critic=critic.copy(), opt_generator=opt_g.copy(),
                          opt_critic=opt_c.copy(), scaler=data.scaler,
                          rng_state=rng.bit_generator.state,
                          extra={"config": asdict(config), "n_windows": len(data),
                                 "mode_collapse": mc})

    critic_wrt = [t for _, t in critic.items()]
    gen_wrt = [t for _, t in gen.items()]

    for epoch in range(start_epoch + 1, config.epochs + 1):
        c_loss = w_est = gp_val = 0.0
        last_fake = None

        def abort(detail: str, bad_grads: list[str]):
            if bad_grads:
                detail += f"; non-finite or overflowing gradient of {', '.join(bad_grads)}"
            raise TrainingDiverged(f"non-finite value at epoch {epoch}: {detail}",
                                   history, checkpoint(epoch, last_fake))

        for _ in range(config.n_critic):
            real = sample_real_batch(data, B, rng)
            z = sample_noise(B, config.noise_len, rng)
            fake = generator_forward(gen, Tensor(z, requires_grad=False)).data
            last_fake = fake
            graph = Graph()
            with graph:
                if config.loss_variant == "gan":
                    loss, w_est = critic_loss_gan(critic_fn, real, fake)
                else:
                    loss, w_est, gp_val = critic_loss_wgan(critic_fn, real, fake, lambda_gp, rng)
            # Outside ``with graph:`` the backward records nothing on the tape.
            grads = _param_grads(T.backward(graph, loss, wrt=critic_wrt), critic)
            c_loss = loss.item()
            graph.clear()
            # checked before the step, so the crash checkpoint holds finite weights
            bad = _nonfinite(grads)
            if bad or not all(np.isfinite(v) for v in (c_loss, w_est, gp_val)):
                history.append(epoch, c_loss, float("nan"), w_est, gp_val)
                abort(f"critic={c_loss}, wasserstein={w_est}, penalty={gp_val}", bad)
            rmsprop_step(critic, grads, opt_c, config.optim)
            if config.loss_variant == "wgan_clip":
                clip_weights(critic, config.optim.clip_c)

        z = sample_noise(B, config.noise_len, rng)
        graph = Graph()
        with graph:
            fake_t = generator_forward(gen, Tensor(z, requires_grad=False))
            with critic.frozen():
                if config.loss_variant == "gan":
                    g_loss = generator_loss_gan(critic_fn, fake_t,
                                                nonsaturating=config.g_loss_nonsaturating)
                else:
                    g_loss = generator_loss_wgan(critic_fn, fake_t)
        grads = _param_grads(T.backward(graph, g_loss, wrt=gen_wrt), gen)
        g_val = g_loss.item()
        graph.clear()

        history.append(epoch, c_loss, g_val, w_est, gp_val)
        bad = _nonfinite(grads)
        if bad or not history.last_finite():
            abort(f"critic={c_loss}, generator={g_val}", bad)
        rmsprop_step(gen, grads, opt_g, config.optim)
        if epoch == start_epoch + 1 or epoch % 100 == 0:
            logger.debug("epoch %d: critic=%.5f generator=%.5f w=%.5f gp=%.5f",
                         epoch, c_loss, g_val, w_est, gp_val)
        if epoch % config.checkpoint_every == 0:
            cp = checkpoint(epoch, generate(gen, B, config.seed + epoch))
            checkpoints.append(cp)
            if on_checkpoint is not None:
                on_checkpoint(cp)

    return gen, critic, history, checkpoints
