"""The generator, the critic, and the gradient penalty.

The generator turns a 25-long Gaussian noise vector into a 50-step
return window through one LSTM block and a tanh projection; the critic
scores windows through its own LSTM block and a time-averaged dense
head. The penalty pins the critic's input-gradient norm near 1, the
soft version of the Lipschitz constraint. It comes back with its
gradients with respect to the critic's weights: the critic's input
gradient from its BPTT, the penalty's direction from the tape, then one
complex-step pass for the second order.

Both networks are plain numpy calls on their parameters, a ParamSet of
named arrays. A forward returns its values and, with keep=True, the
saved set that its backward takes.

Run:  python demos/02_networks_and_penalty.py
"""

import numpy as np

from tsforge.gan import gradient_penalty, interpolate, make_rng, sample_noise
from tsforge.nn import (ArchitectureSpec, critic_backward, critic_forward, generator_forward,
                        init_params)

spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
gen = init_params(spec, "generator", seed=1)
critic = init_params(spec, "critic", seed=2)
print(f"generator parameters: {sum(w.size for _, w in gen.items())}")
print(f"critic parameters:    {sum(w.size for _, w in critic.items())}"
      f"   (4*((50+1)*50+50) + 51 = 10451)")

rng = make_rng(0)
z = sample_noise(4, spec.noise_len, rng)
fake, _ = generator_forward(gen, z)
print(f"\ngenerator: noise {z.shape} -> windows {fake.shape}")
print(f"outputs live in (-1, 1): min={fake.min():.4f} max={fake.max():.4f}")

scores, saved = critic_forward(critic, fake, keep=True)
print(f"critic: windows -> scores {scores.shape}, unbounded: {scores}")
grads, dx = critic_backward(fake, saved, np.ones(4), weights=True)
print(f"its BPTT for the summed scores: {len(grads)} weight gradients and "
      f"d scores / d windows {dx.shape}")

print("\n== gradient penalty at interpolated points ==")
real = rng.standard_normal((4, 50, 1)) * 0.3
x_hat = interpolate(real, fake, rng)
pen, grads = gradient_penalty(critic, x_hat, 10.0)
print(f"penalty value at init: {pen:.4f}")
print(f"...and its gradient w.r.t. the critic weights, e.g. "
      f"|d pen / d W_o| max = {np.abs(grads['lstm.W_o']).max():.3e}")

print("\n== sanity: a critic blind to its input pays lambda ==")
blind = critic.copy()
blind["proj.W"][...] = 0.0
pen, grads = gradient_penalty(blind, x_hat, 10.0)
largest = max(float(np.abs(g).max()) for g in grads.values())
print(f"penalty with proj.W = 0: {pen}  (expect 10.0); largest |gradient|: {largest}  (expect 0)")
