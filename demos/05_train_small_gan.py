"""Train a small WGAN-GP end to end and watch the diagnostics.

A reduced model (16 units, 20-step windows) on synthetic Gaussian
returns for a few hundred epochs. Takes a couple of minutes on one
core. One epoch = 5 critic updates + 1 generator update, the critic
frozen during the latter and vice versa.

Run:  python demos/05_train_small_gan.py
"""

import time

import numpy as np

from tsforge import gan
from tsforge.data import fit_scale, make_windows
from tsforge.gan import TrainConfig
from tsforge.stats import moments

rng = np.random.Generator(np.random.Philox(2024))
returns = rng.standard_normal(1200) * 0.02
ds = fit_scale(make_windows(returns, seq_len=20))
print(f"dataset: {ds.windows.shape[0]} windows of length {ds.seq_len}")

cfg = TrainConfig(epochs=300, n_critic=5, lambda_gp=10.0, batch_size=32,
                  noise_len=25, seq_len=20, lstm_units=16, seed=11,
                  checkpoint_every=100, learning_rate=2e-4)

t0 = time.time()
gen, critic, history, checkpoints = gan.train(cfg, ds)
print(f"trained {cfg.epochs} epochs in {time.time() - t0:.0f}s\n")

print(f"{'epoch':>6} {'critic':>9} {'generator':>10} {'wasserstein':>12} {'penalty':>9}")
for i in range(0, len(history), 50):
    print(f"{history.epochs[i]:>6} {history.critic_loss[i]:>9.4f} "
          f"{history.generator_loss[i]:>10.4f} {history.wasserstein[i]:>12.4f} "
          f"{history.gradient_penalty[i]:>9.4f}")

# mode collapse: mean pairwise distance of a batch drawn from each checkpoint's generator
scores = [gan.mode_collapse_score(gan.generate(c.generator, cfg.batch_size, cfg.seed + c.epoch))
          for c in checkpoints]
print("\ncheckpoints:", [c.epoch for c in checkpoints],
      " mode-collapse scores:", [round(s, 4) for s in scores])

samples = gan.generate(gen, 256, seed=7)
synth = ds.scaler.inverse(samples[:, :, 0])
m_target = moments(returns)
m_synth = moments(synth.reshape(-1))
print(f"\n{'':<12} {'target':>10} {'generated':>10}")
for field in ("mean", "std", "skewness", "kurtosis"):
    print(f"{field:<12} {getattr(m_target, field):>10.4f} "
          f"{getattr(m_synth, field):>10.4f}")
print("\n(the distribution-matching improves with more epochs; "
      "see the acceptance suite's 1000-epoch run)")
