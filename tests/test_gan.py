"""Losses, gradient penalty analytics, and the training loop contract."""

import ast
import contextlib
import os
import signal
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from tsforge import gan, nn, optim
from tsforge.data import fit_scale
from tsforge.gan import (TrainConfig, TrainingDiverged, critic_loss_gan, critic_loss_wgan,
                         generator_loss_gan, generator_loss_wgan, gradient_penalty,
                         interpolate, lipschitz_ratio_check, make_rng,
                         mode_collapse_score, sample_noise, wasserstein_estimate)
from tsforge.nn import ArchitectureSpec, critic_backward, critic_forward, init_params
from tsforge.tensor import Graph, Tensor

from oracles import central_diff, rel_err
from test_trajectory import tiny_config, tiny_dataset

SMALL = ArchitectureSpec(noise_len=3, seq_len=6, features=1, lstm_units=4)


def small_dataset(n_windows=64, seq_len=6, seed=0, scale=0.02):
    rng = np.random.Generator(np.random.Philox(seed))
    return fit_scale(rng.standard_normal((n_windows, seq_len)) * scale)


def scores(*values) -> Tensor:
    """A critic's scores as the tape leaf the losses take."""
    return Tensor(np.array(values, dtype=np.float64))


def score_halves(critic, real, fake) -> tuple[Tensor, Tensor]:
    """The real and fake halves of one critic call on [real; fake], as
    ``critic_gradients`` takes them."""
    s = critic_forward(critic, np.concatenate([real, fake]))[0]
    return Tensor(s[:len(real)]), Tensor(s[len(real):])


class TestNoise:
    def test_shape_defaults(self):
        z = sample_noise(32, 25, make_rng(0))
        assert z.shape == (32, 25)

    def test_seed_determinism(self):
        assert np.array_equal(sample_noise(8, 5, make_rng(3)),
                              sample_noise(8, 5, make_rng(3)))

    def test_law_of_large_numbers(self):
        z = sample_noise(1, 100_000, make_rng(4)).reshape(-1)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05


class FixedUniform:
    """A stand-in generator whose every uniform draw is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def uniform(self, low, high, size):
        return np.full(size, self.value)


class TestInterpolate:
    def test_eps_one_is_real(self):
        real = np.full((2, 3, 1), 5.0)
        fake = np.zeros((2, 3, 1))
        np.testing.assert_array_equal(interpolate(real, fake, FixedUniform(1.0)), real)

    def test_eps_zero_is_fake(self):
        real = np.full((2, 3, 1), 5.0)
        fake = np.zeros((2, 3, 1))
        np.testing.assert_array_equal(interpolate(real, fake, FixedUniform(0.0)), fake)

    def test_midpoint(self):
        out = interpolate(np.array([[2.0]]), np.array([[0.0]]), FixedUniform(0.5))
        assert out[0, 0] == 1.0

    def test_mixes_with_one_uniform_draw_per_sample(self):
        rng = np.random.default_rng(4)
        real, fake = rng.normal(size=(5, 3, 1)), rng.normal(size=(5, 3, 1))
        eps = make_rng(0).uniform(size=5)[:, None, None]
        np.testing.assert_array_equal(interpolate(real, fake, make_rng(0)),
                                      eps * real + (1.0 - eps) * fake)

    def test_one_eps_per_sample(self):
        rng = make_rng(1)
        real = np.ones((4, 5, 1))
        fake = np.zeros((4, 5, 1))
        out = interpolate(real, fake, rng)
        # constant along each sample, varying across samples
        per_sample = out[:, :, 0]
        assert np.allclose(per_sample, per_sample[:, :1])
        assert len(np.unique(per_sample[:, 0])) > 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)), make_rng(0))


def linear_lstm_critic(norm: float, seq_len: int = 6, a: float = 1e-9) -> nn.ParamSet:
    """An LSTM critic of one unit in its linear regime, whose input gradient
    has the L2 norm ``norm`` in every sample, to rounding.

    The input, forget and output gates sit at exactly 1: sigmoid(40)
    rounds to 1, with a zero derivative. So c_t sums c~_s = tanh(a x_s) over
    s <= t, h_t = tanh(c_t), and for a tiny a, D(x) = (w a / T) sum_s
    (T - s) x_s over s = 0..T-1, whose gradient has the norm
    |w a| sqrt(1^2 + ... + T^2) / T; proj.W = w is set to make it ``norm``.
    """
    spec = ArchitectureSpec(seq_len=seq_len, features=1, lstm_units=1)
    params = {name: np.zeros(shape) for name, shape in nn.param_shapes(spec, "critic").items()}
    for gate in "ifo":
        params[f"lstm.b_{gate}"][...] = 40.0
    params["lstm.W_c"][1, 0] = a                       # row 0 reads h, row 1 reads x
    params["proj.W"][...] = norm * seq_len / (a * np.sqrt(np.sum(
        np.arange(1.0, seq_len + 1) ** 2)))
    return nn.ParamSet("critic", params, arch=spec)


def input_blind_critic(seed: int) -> nn.ParamSet:
    """A random critic whose gates read no input: every x row of the gate
    weights is zero, so D(x) is one constant and grad_x D is exactly 0."""
    critic = init_params(SMALL, "critic", seed)
    for gate in "ifco":
        critic[f"lstm.W_{gate}"][SMALL.lstm_units:] = 0.0
    return critic


class TestGradientPenalty:
    def test_unit_gradient_critic_zero_penalty(self):
        x_hat = np.random.default_rng(0).normal(size=(4, 6, 1))
        pen, _ = gradient_penalty(linear_lstm_critic(1.0), x_hat, 10.0)
        assert pen == pytest.approx(0.0, abs=1e-10)

    def test_constant_critic_penalty_is_lambda(self):
        x_hat = np.random.default_rng(1).normal(size=(4, 6, 1))
        pen, _ = gradient_penalty(input_blind_critic(1), x_hat, 10.0)
        assert pen == 10.0

    def test_linear_critic_closed_form(self):
        lam = 10.0
        n = 6
        x_hat = np.random.default_rng(2).normal(size=(4, n, 1))
        pen, _ = gradient_penalty(linear_lstm_critic(2 * np.sqrt(n), seq_len=n), x_hat, lam)
        assert pen == pytest.approx(lam * (2 * np.sqrt(n) - 1) ** 2, rel=1e-12)

    def test_zero_input_gradient_gives_lambda_and_exact_zero_gradients(self):
        # proj.W = 0 makes grad_x D exactly 0, where the norm's derivative is
        # guarded to 0: no division by zero, and no NaN in any gradient
        critic = init_params(SMALL, "critic", 6)
        critic["proj.W"][...] = 0.0
        x_hat = np.random.default_rng(7).normal(size=(4, 6, 1))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            pen, grads = gradient_penalty(critic, x_hat, 10.0)
        assert pen == 10.0
        assert sorted(grads) == sorted(critic)
        for name, g in grads.items():
            assert g.shape == critic[name].shape and np.all(g == 0.0), name

    def test_penalty_nonnegative_random_critics(self):
        for seed in range(5):
            critic = init_params(SMALL, "critic", seed)
            x_hat = np.random.default_rng(seed).normal(size=(3, 6, 1))
            assert gradient_penalty(critic, x_hat, 10.0)[0] >= 0.0

    def test_penalty_gradient_vs_finite_differences(self):
        """Second-order oracle on a small real critic, every tensor."""
        critic = init_params(SMALL, "critic", 77)
        x_hat = np.random.default_rng(78).normal(size=(4, 6, 1)) * 0.5
        lam = 10.0
        analytic = gradient_penalty(critic, x_hat, lam)[1]
        for name, t in critic.items():
            w0 = t.copy()

            def penalty_value(wv) -> float:
                t[...] = wv
                val = gradient_penalty(critic, x_hat, lam)[0]
                t[...] = w0
                return val

            fd = central_diff(penalty_value, w0.copy())   # perturbs its argument in place
            assert rel_err(analytic[name], fd, floor=1e-5) < 1e-3, name

    def test_inner_gradient_accumulates_no_weight_gradients(self, monkeypatch):
        # the penalty's input gradient wants x alone, so its BPTT skips dW and
        # db; the complex-step pass and the [real; fake] BPTT need them
        weights = []
        lstm_vjp = nn.lstm_vjp

        def recording(*args):
            weights.append(args[-1])
            return lstm_vjp(*args)

        monkeypatch.setattr(nn, "lstm_vjp", recording)
        _critic_step(init_params(SMALL, "critic", 3), batch=4, seq_len=6)
        assert weights == [False, True, True]


def _critic_step(critic, batch: int, seq_len: int) -> None:
    """One wgan_gp critic step's gradients, through the function ``train`` calls."""
    rng = make_rng(5)
    real, fake = (rng.normal(size=(batch, seq_len, 1)) * 0.1 for _ in range(2))
    gan.critic_gradients(critic, real, fake, "wgan_gp", 10.0, rng)


def _peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Python-heap peaks at paper widths (seq_len 50, 50 units), which the
    LSTM's saved set dominates: deterministic on any machine."""

    def test_critic_forward_backward_at_batch_256(self):
        critic = init_params(ArchitectureSpec(), "critic", 1)
        x = np.random.default_rng(2).normal(size=(256, 50, 1)) * 0.1

        def step():
            _, saved = critic_forward(critic, x, keep=True)
            critic_backward(saved, np.full(256, 1.0 / 256), weights=True)

        assert _peak_mb(step) <= 30.0

    def test_wgan_gp_critic_step_at_batch_32(self):
        # the x-hat graph is cleared before the penalty's complex-step pass,
        # and that pass ends before the [real; fake] scan runs, so no two
        # saved sets are alive together: 7.35 MB measured, 10.65 MB with the
        # complex pass run before the clear
        critic = init_params(ArchitectureSpec(), "critic", 1)
        assert _peak_mb(lambda: _critic_step(critic, batch=32, seq_len=50)) <= 8.4


class TestCriticLoss:
    def test_constant_critic_loss_is_lambda(self):
        # proj.W = 0: every score is proj.b, and grad_x D is exactly 0
        critic = init_params(SMALL, "critic", 0)
        critic["proj.W"][...] = 0.0
        critic["proj.b"][...] = 0.7
        real = np.random.default_rng(1).normal(size=(4, 6, 1))
        fake = np.random.default_rng(2).normal(size=(4, 6, 1))
        with Graph():
            loss, w = critic_loss_wgan(*score_halves(critic, real, fake))
        gp, _ = gradient_penalty(critic, interpolate(real, fake, make_rng(0)), 10.0)
        assert (loss.item(), w) == (0.0, 0.0)
        assert loss.item() + gp == 10.0

    def test_lambda_zero_reduces_to_wasserstein(self):
        rng = make_rng(3)
        critic = init_params(SMALL, "critic", 4)
        real = np.random.default_rng(5).normal(size=(4, 6, 1))
        fake = np.random.default_rng(6).normal(size=(4, 6, 1))
        _, loss, w, gp = gan.critic_gradients(critic, real, fake, "wgan_gp", 0.0, rng)
        s_real, s_fake = (critic_forward(critic, x)[0] for x in (real, fake))
        assert loss == pytest.approx(np.mean(s_fake) - np.mean(s_real))
        assert w == -loss and gp == 0.0
        assert rng.random() == make_rng(3).random()   # no interpolation draw

    def test_loss_gradient_vs_finite_differences(self):
        # the summed penalty + Wasserstein gradient of one critic step, every tensor
        critic = init_params(SMALL, "critic", 7)
        real = np.random.default_rng(8).normal(size=(3, 6, 1)) * 0.5
        fake = np.random.default_rng(9).normal(size=(3, 6, 1)) * 0.5

        def step():
            return gan.critic_gradients(critic, real, fake, "wgan_gp", 10.0, make_rng(0))

        analytic = step()[0]
        for name, t in critic.items():
            w0 = t.copy()

            def loss_value(wv) -> float:
                t[...] = wv
                val = step()[1]
                t[...] = w0
                return val

            fd = central_diff(loss_value, w0.copy())   # perturbs its argument in place
            assert rel_err(analytic[name], fd, floor=1e-5) < 1e-3, name


class TestGeneratorLoss:
    def test_constant_score_gives_negated_score(self):
        with Graph():
            loss = generator_loss_wgan(scores(2.5, 2.5, 2.5))
        assert loss.item() == pytest.approx(-2.5)

    def test_better_fakes_lower_loss(self):
        critic = init_params(SMALL, "critic", 10)
        rng = np.random.default_rng(11)
        # pick the higher-scoring of two batches; its loss must be lower
        sa, sb = (critic_forward(critic, rng.normal(size=(4, 6, 1)))[0] for _ in range(2))
        with Graph():
            la = generator_loss_wgan(Tensor(sa)).item()
        with Graph():
            lb = generator_loss_wgan(Tensor(sb)).item()
        assert (la < lb) == (float(np.mean(sa)) > float(np.mean(sb)))

    def test_frozen_critic_gets_exact_zero_grads(self, monkeypatch):
        # the generator step's critic BPTT runs without weights: it gives the
        # fakes' gradient alone and leaves the critic's tensors as they were
        gen = init_params(SMALL, "generator", 12)
        critic = init_params(SMALL, "critic", 13)
        before = {k: t.copy() for k, t in critic.items()}
        z = np.random.default_rng(14).standard_normal((2, SMALL.noise_len))
        seen, backward = [], gan.critic_backward

        def recording(*args, weights):
            grads, dx = backward(*args, weights=weights)
            seen.append(grads)
            return grads, dx

        monkeypatch.setattr(gan, "critic_backward", recording)
        grads, _ = gan.generator_gradients(gen, critic, z, "wgan_gp", False)
        assert seen == [None]
        assert sorted(grads) == sorted(gen)
        assert any(np.any(g != 0.0) for g in grads.values())
        for k, t in critic.items():
            assert np.array_equal(t, before[k])


class TestStandardGanLosses:
    def test_half_probability_analytic(self):
        # D == 0.5 -> d_loss = 2 log 2
        with Graph():
            d_loss, w = critic_loss_gan(scores(0, 0, 0, 0), scores(0, 0, 0, 0))
            g_loss = generator_loss_gan(scores(0, 0, 0, 0))
        assert d_loss.item() == pytest.approx(2 * np.log(2.0))
        assert w == 0.0
        assert g_loss.item() == pytest.approx(np.log(0.5))

    def test_perfect_discriminator_loss_near_zero(self):
        # big positive scores for the real windows, big negative for the fakes
        with Graph():
            d_loss, w = critic_loss_gan(scores(*[1000.0] * 4), scores(*[-1000.0] * 4))
        assert d_loss.item() == pytest.approx(0.0, abs=1e-4)
        assert w == pytest.approx(2000.0)

    def test_g_loss_decreases_as_fake_scores_rise(self):
        vals = []
        for score in (-1.0, 0.0, 1.0):
            with Graph():
                g_loss = generator_loss_gan(scores(score, score))
            vals.append(g_loss.item())
        assert vals[0] > vals[1] > vals[2]

    def test_nonsaturating_variant(self):
        with Graph():
            g_loss = generator_loss_gan(scores(0, 0), nonsaturating=True)
        assert g_loss.item() == pytest.approx(-np.log(0.5))


class TestWassersteinEstimate:
    def test_identical_batches_zero(self):
        critic = init_params(SMALL, "critic", 15)
        x = np.random.default_rng(16).normal(size=(4, 6, 1))
        s_real, s_fake = (Tensor(critic_forward(critic, v)[0]) for v in (x, x.copy()))
        assert wasserstein_estimate(s_real, s_fake) == 0.0

    def test_constant_critic_zero(self):
        critic = input_blind_critic(17)
        s_real, s_fake = (Tensor(critic_forward(critic, np.random.default_rng(seed).normal(
            size=(4, 6, 1)))[0]) for seed in (17, 18))
        assert wasserstein_estimate(s_real, s_fake) == 0.0

    def test_mean_difference(self):
        got = wasserstein_estimate(Tensor([1.0, 2.0, 6.0]), Tensor([-1.0, 1.0]))
        assert got == 3.0 and type(got) is float

    def test_shift_invariance(self):
        rng = np.random.default_rng(20)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert wasserstein_estimate(Tensor(a), Tensor(b)) == pytest.approx(
            wasserstein_estimate(Tensor(a + 123.0), Tensor(b + 123.0)), abs=1e-9)

    def test_log_loss_estimate_matches_separate_critic_calls(self):
        critic = init_params(SMALL, "critic", 19)
        real = np.random.default_rng(21).normal(size=(5, 6, 1))
        fake = np.random.default_rng(22).normal(size=(3, 6, 1))
        with Graph():
            _, w = critic_loss_gan(*score_halves(critic, real, fake))
        s_real, s_fake = (critic_forward(critic, x)[0] for x in (real, fake))
        assert w == pytest.approx(np.mean(s_real) - np.mean(s_fake), rel=1e-12, abs=1e-15)


class TestLipschitz:
    def test_constant_critic_ratio_zero(self):
        a = np.random.default_rng(22).normal(size=(1, 6, 1))
        b = np.random.default_rng(23).normal(size=(1, 6, 1))
        assert lipschitz_ratio_check(input_blind_critic(22), a, b) == 0.0

    def test_unit_norm_critic_bounded_by_one(self):
        rng = np.random.default_rng(24)
        critic = linear_lstm_critic(1.0)
        for _ in range(50):
            a = rng.normal(size=(1, 6, 1))
            b = rng.normal(size=(1, 6, 1))
            assert lipschitz_ratio_check(critic, a, b) <= 1.0 + 1e-12

    def test_identical_inputs_rejected(self):
        a = np.ones((1, 6, 1))
        with pytest.raises(ValueError):
            lipschitz_ratio_check(input_blind_critic(1), a, a.copy())

    def test_stack_matches_pairwise(self):
        critic = init_params(SMALL, "critic", 25)
        rng = np.random.default_rng(26)
        a, b = rng.normal(size=(7, 6, 1)), rng.normal(size=(7, 6, 1))
        stacked = lipschitz_ratio_check(critic, a, b)
        assert stacked.shape == (7,)
        pairwise = [lipschitz_ratio_check(critic, a[k:k + 1], b[k:k + 1]) for k in range(7)]
        np.testing.assert_allclose(stacked, np.concatenate(pairwise), rtol=1e-12, atol=0)

    def test_single_pair_without_stack_axis_rejected(self):
        a, b = np.zeros((6, 1)), np.ones((6, 1))
        with pytest.raises(ValueError, match="expected \\[batch, seq_len, features\\]"):
            lipschitz_ratio_check(init_params(SMALL, "critic", 25), a, b)

    def test_identical_pair_in_stack_rejected(self):
        rng = np.random.default_rng(27)
        a, b = rng.normal(size=(6, 6, 1)), rng.normal(size=(6, 6, 1))
        b[3] = a[3]
        with pytest.raises(ValueError, match="pair 3"):
            lipschitz_ratio_check(input_blind_critic(1), a, b)


class TestModeCollapse:
    def test_identical_samples_zero(self):
        batch = np.ones((5, 6, 1))
        score = mode_collapse_score(batch)
        assert score == 0.0 and type(score) is float

    def test_constant_offset_closed_form(self):
        d = 0.37
        a = np.zeros((1, 8, 1))
        batch = np.concatenate([a, a + d], axis=0)
        assert mode_collapse_score(batch) == pytest.approx(d)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mode_collapse_score(np.zeros((1, 6, 1)))


class TestTrainLoop:
    def _cfg(self, **kw):
        base = dict(epochs=2, n_critic=5, lambda_gp=10.0, batch_size=8,
                    noise_len=3, seq_len=6, lstm_units=4, seed=42,
                    checkpoint_every=1, learning_rate=5e-5)
        base.update(kw)
        return TrainConfig(**base)

    @pytest.mark.parametrize("variant", ["wgan_gp", "wgan_clip"])
    def test_critic_proj_b_gradient_is_exactly_zero(self, monkeypatch, variant):
        # mean D(fake) - mean D(real) does not move when proj.b shifts every
        # score alike, and the penalty's input gradient does not depend on
        # proj.b, so the step hands the optimizer an exact 0, not a rounding
        seen = []
        step = gan.rmsprop_step

        def recording(params, grads, *args):
            if params.kind == "critic":
                seen.append(grads["proj.b"].copy())
            return step(params, grads, *args)

        monkeypatch.setattr(gan, "rmsprop_step", recording)
        gan.train(self._cfg(loss_variant=variant, checkpoint_every=100), small_dataset())
        assert len(seen) == 10
        assert all(g.shape == (1,) and g[0] == 0.0 for g in seen)

    @pytest.mark.parametrize("variant,calls", [("wgan_gp", 11), ("wgan_clip", 6), ("gan", 6)])
    def test_critic_forward_calls_per_epoch(self, monkeypatch, variant, calls):
        # per critic step one call on real and fake together, plus one on the
        # interpolates with the penalty; then one in the generator step
        count = [0]
        orig = gan.critic_forward

        def counting(*args, **kwargs):
            count[0] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(gan, "critic_forward", counting)
        gan.train(self._cfg(epochs=2, loss_variant=variant, checkpoint_every=100),
                  small_dataset())
        assert count[0] == 2 * calls

    @pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
    def test_tape_length_does_not_depend_on_seq_len(self, monkeypatch, variant):
        # a tape records only a loss head on the scores or the penalty head on
        # the input gradient, so a longer window records no more nodes in any
        # graph; a wgan_gp critic step clears two, the penalty's and the
        # Wasserstein term's
        clear = Graph.clear
        cleared = []

        def counting_clear(graph):
            cleared.append(len(graph))
            clear(graph)

        monkeypatch.setattr(Graph, "clear", counting_clear)
        tapes = []
        for seq_len in (6, 12):
            cleared.clear()
            gan.train(self._cfg(epochs=1, seq_len=seq_len, loss_variant=variant,
                                checkpoint_every=100), small_dataset(seq_len=seq_len))
            tapes.append(list(cleared))
        assert len(tapes[0]) == (11 if variant == "wgan_gp" else 6)
        assert tapes[0] == tapes[1]

    @pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
    def test_generator_step_runs_one_weight_bptt(self, monkeypatch, variant):
        # the generator step calls the critic's BPTT without weights, for the
        # fakes' gradient alone, and only the generator's has weights
        log = []
        lstm_vjp, rmsprop_step = nn.lstm_vjp, gan.rmsprop_step

        def recording(saved, *args):
            # gate rows: units + noise_len (4 + 3) in the generator, 4 + 1 in the critic
            log.append(("generator" if saved[1].shape[0] == 7 else "critic", args[-1]))
            return lstm_vjp(saved, *args)

        def marking(params, *args):
            log.append(params.kind)
            return rmsprop_step(params, *args)

        monkeypatch.setattr(nn, "lstm_vjp", recording)
        monkeypatch.setattr(gan, "rmsprop_step", marking)
        gan.train(self._cfg(epochs=1, n_critic=1, loss_variant=variant, checkpoint_every=100),
                  small_dataset())
        assert ("critic", True) in log[:log.index("critic")]
        assert log[log.index("critic") + 1:] == [("critic", False), ("generator", True),
                                                 "generator"]

    def test_update_counts(self, monkeypatch):
        calls = {"critic": 0, "generator": 0}
        import tsforge.gan as gan_mod
        orig = gan_mod.rmsprop_step

        def counting(params, *args):
            calls[params.kind] += 1
            return orig(params, *args)

        monkeypatch.setattr(gan_mod, "rmsprop_step", counting)
        ds = small_dataset()
        gan.train(self._cfg(epochs=1), ds)
        assert calls == {"critic": 5, "generator": 1}

    def test_seed_determinism(self):
        ds = small_dataset()
        _, _, h1, _ = gan.train(self._cfg(epochs=3), ds)
        _, _, h2, _ = gan.train(self._cfg(epochs=3), ds)
        assert h1.critic_loss == h2.critic_loss
        assert h1.generator_loss == h2.generator_loss
        assert h1.wasserstein == h2.wasserstein
        assert h1.gradient_penalty == h2.gradient_penalty

    def test_freeze_correctness(self, monkeypatch):
        """Generator params bit-identical across critic updates and vice versa."""
        ds = small_dataset()
        import tsforge.gan as gan_mod
        orig = gan_mod.rmsprop_step
        seen = []

        def spying(params, *args):
            seen.append((params.kind, {k: t.copy() for k, t in params.items()}))
            return orig(params, *args)

        monkeypatch.setattr(gan_mod, "rmsprop_step", spying)
        gen, critic, _, _ = gan.train(self._cfg(epochs=1), ds)
        # during the 5 critic updates the generator was never touched:
        # its params at the generator update equal its params before training
        cfg = self._cfg(epochs=1)
        seeds = np.random.SeedSequence(cfg.seed).generate_state(3, dtype=np.uint64)
        gen0 = init_params(cfg.arch(), "generator", int(seeds[0]))
        gen_update_params = [p for kind, p in seen if kind == "generator"][0]
        for k in gen0:
            assert np.array_equal(gen_update_params[k], gen0[k])

    def test_variant_equivalence_gp0_vs_clip_inf(self):
        ds = small_dataset()
        cfg_gp = self._cfg(epochs=4, lambda_gp=0.0, loss_variant="wgan_gp")
        cfg_clip = self._cfg(epochs=4, loss_variant="wgan_clip", clip_c=1e9)
        _, _, h1, _ = gan.train(cfg_gp, ds)
        _, _, h2, _ = gan.train(cfg_clip, ds)
        assert h1.critic_loss == h2.critic_loss
        assert h1.generator_loss == h2.generator_loss

    def test_checkpoint_cadence(self):
        ds = small_dataset()
        cfg = self._cfg(epochs=4, checkpoint_every=2)
        _, _, _, cps = gan.train(cfg, ds)
        assert [c.epoch for c in cps] == [2, 4]
        for c in cps:
            assert c.generator.arch == c.critic.arch == cfg.arch() and c.scaler == ds.scaler
            assert c.extra["config"] == asdict(cfg) and c.extra["n_windows"] == len(ds)
            assert set(c.extra) == {"config", "n_windows"}

    def test_resume_equivalence(self):
        ds = small_dataset()
        cfg = self._cfg(epochs=6, checkpoint_every=2)
        _, _, straight, _ = gan.train(cfg, ds)
        _, _, _, cps = gan.train(self._cfg(epochs=4, checkpoint_every=2), ds)
        assert [c.epoch for c in cps] == [2, 4]
        for snap in cps:            # each holds its own epoch's weights, not the last ones
            _, _, tail, _ = gan.train(cfg, ds, resume=snap)
            assert tail.epochs == list(range(snap.epoch + 1, 7))
            assert tail.critic_loss == straight.critic_loss[snap.epoch:]
            assert tail.generator_loss == straight.generator_loss[snap.epoch:]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("learning_rate, diverges", [(5e-5, False), (1e307, True)])
    def test_training_samples_nothing(self, monkeypatch, learning_rate, diverges):
        # the generator runs only to train, at a checkpoint (each epoch here)
        # and on the NaN-abort path alike: the caller scores mode collapse
        calls = []
        monkeypatch.setattr(gan, "generate", lambda *a: calls.append(a))
        cfg = self._cfg(epochs=4, checkpoint_every=1, learning_rate=learning_rate)
        with pytest.raises(TrainingDiverged) if diverges else contextlib.nullcontext():
            gan.train(cfg, small_dataset())
        assert calls == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort(self):
        # the first step moves the weights by about 3x the learning rate, so
        # one near the float limit overflows the next critic loss
        ds = small_dataset()
        cfg = self._cfg(epochs=50, learning_rate=1e307)
        with pytest.raises(TrainingDiverged) as exc:
            gan.train(cfg, ds)
        assert exc.value.checkpoint.epoch == 1
        assert len(exc.value.history) >= 1

    @pytest.mark.parametrize("kind", ["critic", "generator"])
    def test_nonfinite_gradient_aborts_before_the_step(self, monkeypatch, kind):
        self._assert_poisoned_gradient_aborts(monkeypatch, kind, np.nan)

    @pytest.mark.parametrize("kind", ["critic", "generator"])
    def test_overflowing_gradient_aborts_before_the_step(self, monkeypatch, kind):
        # finite, but its square overflows: RMSprop's cache would turn
        # infinite and freeze the network with every later step at zero
        self._assert_poisoned_gradient_aborts(monkeypatch, kind, 1e200)

    def _assert_poisoned_gradient_aborts(self, monkeypatch, kind, value):
        # poison the weight gradients where the step takes them: the critic's
        # BPTT with weights, or the generator's
        def poison(grads):
            grads["lstm.W_f"] = np.full(grads["lstm.W_f"].shape, value)
            return grads

        if kind == "critic":
            backward = gan.critic_backward

            def poisoned(*args, weights):
                grads, dx = backward(*args, weights=weights)
                return (poison(grads) if weights else grads), dx

            monkeypatch.setattr(gan, "critic_backward", poisoned)
        else:
            backward = gan.generator_backward
            monkeypatch.setattr(gan, "generator_backward", lambda *args: poison(backward(*args)))
        cfg = self._cfg(epochs=3)
        seeds = np.random.SeedSequence(cfg.seed).generate_state(3, dtype=np.uint64)
        gen0 = init_params(cfg.arch(), "generator", int(seeds[0]))
        critic0 = init_params(cfg.arch(), "critic", int(seeds[1]))
        with pytest.raises(TrainingDiverged, match="lstm.W_f") as exc:
            gan.train(cfg, small_dataset())
        crash = exc.value.checkpoint
        assert crash.epoch == 1
        for ps in (crash.generator, crash.critic):
            assert all(np.all(np.isfinite(t)) for _, t in ps.items())
        # the poisoned network never stepped: it still holds its initial weights
        poisoned_net, initial = ((crash.critic, critic0) if kind == "critic"
                                 else (crash.generator, gen0))
        for name, t in initial.items():
            assert np.array_equal(poisoned_net[name], t)

    def test_empty_dataset_rejected(self):
        ds = small_dataset()
        ds.windows = ds.windows[:0]
        with pytest.raises(ValueError):
            gan.train(self._cfg(), ds)

    def test_one_window_trains(self):
        # the smallest dataset train accepts: every batch draws the one window
        data = tiny_dataset()
        data.windows = data.windows[:1]
        _, _, h, _ = gan.train(tiny_config("wgan_gp", epochs=1), data)
        assert len(h) == 1 and h.last_finite()

    def test_gan_variant_runs(self):
        ds = small_dataset()
        _, _, h, _ = gan.train(self._cfg(epochs=2, loss_variant="gan"), ds)
        assert len(h) == 2
        assert all(np.isfinite(v) for v in h.critic_loss)

    def test_generate_contract(self):
        gen = init_params(SMALL, "generator", 1)
        out = gan.generate(gen, 5, seed=9)
        assert out.shape == (5, SMALL.seq_len, 1)
        assert np.array_equal(out, gan.generate(gen, 5, seed=9))
        assert np.all(np.abs(out) < 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lambda_gp=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                TrainConfig(lambda_gp=bad)
        with pytest.raises(ValueError):
            TrainConfig(loss_variant="wgan")

    @pytest.mark.parametrize("value", [2.0, 1.5, True, "2"], ids=repr)
    @pytest.mark.parametrize("name", ["epochs", "n_critic", "batch_size", "noise_len", "seq_len",
                                      "lstm_units", "seed", "checkpoint_every"])
    def test_counts_must_be_integers(self, name, value):
        # refused when the config is built, not deep inside a training run;
        # a bool is an int to isinstance, but no count
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        *[(name, value) for name in ("lambda_gp", "learning_rate", "rho", "epsilon", "clip_c")
          for value in (True, "0.5", None)],
        *[("g_loss_nonsaturating", value) for value in ("false", 0, 1, None)]])
    def test_rates_and_flag_must_have_their_types(self, name, value):
        # a rate is an int or a float but no bool; the string "false" as the
        # flag would select the non-saturating loss
        with pytest.raises(ValueError, match=f"{name} must be an? (int or a float|bool)"):
            TrainConfig(**{name: value})

    def test_numpy_floats_and_ints_are_numbers(self):
        cfg = TrainConfig(lambda_gp=10, learning_rate=np.float64(1e-3), rho=np.float64(0.5),
                          epsilon=np.float64(1e-7), clip_c=np.float64(0.02))
        assert (cfg.lambda_gp, cfg.rho) == (10, 0.5)


class TestPenaltyWorker:
    """``train`` runs the penalty's complex-step pass in a forked worker when
    the process may use two CPUs, and in-process when it is pinned to one."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers ``train`` forks."""
        pids, fork = [], os.fork

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        return pids

    @staticmethod
    def _workers(runs: int) -> int:
        return runs if len(os.sched_getaffinity(0)) > 1 else 0

    @staticmethod
    def _assert_no_child() -> None:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _pinned_run(monkeypatch, config, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return gan.train(config, tiny_dataset(), **kwargs)

    @staticmethod
    def _assert_identical(a, b) -> None:
        (gen_a, critic_a, h_a, _), (gen_b, critic_b, h_b, _) = a, b
        assert asdict(h_a) == asdict(h_b)
        for x, y in ((gen_a, gen_b), (critic_a, critic_b)):
            assert all(np.array_equal(x[name], y[name]) for name in x)

    def test_pinned_run_is_bit_identical(self, monkeypatch, forks):
        with_worker = gan.train(tiny_config("wgan_gp"), tiny_dataset())
        assert len(forks) == self._workers(1)
        pinned = self._pinned_run(monkeypatch, tiny_config("wgan_gp"))
        assert len(forks) == self._workers(1)
        self._assert_identical(with_worker, pinned)
        self._assert_no_child()

    @pytest.mark.parametrize("exit", ["return", "diverged", "interrupt"])
    def test_no_child_outlives_train(self, monkeypatch, forks, exit):
        config, on_checkpoint = tiny_config("wgan_gp"), None
        if exit == "diverged":
            backward = gan.critic_backward

            def poisoned(*args, weights):
                grads, dx = backward(*args, weights=weights)
                if weights:
                    grads["lstm.W_f"] = np.full(grads["lstm.W_f"].shape, np.nan)
                return grads, dx

            monkeypatch.setattr(gan, "critic_backward", poisoned)
        elif exit == "interrupt":
            config = replace(config, checkpoint_every=1)

            def on_checkpoint(cp):
                raise KeyboardInterrupt

        expected = {"return": contextlib.nullcontext(),
                    "diverged": pytest.raises(TrainingDiverged),
                    "interrupt": pytest.raises(KeyboardInterrupt)}[exit]
        with expected:
            gan.train(config, tiny_dataset(), on_checkpoint=on_checkpoint)
        assert len(forks) == self._workers(1)
        self._assert_no_child()

    def test_worker_error_is_raised_in_the_parent(self, monkeypatch, forks):
        # the worker is forked after the patch, so it runs the patched pass
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(gan, "critic_input_grad_vjp", boom)
        with pytest.raises(ValueError, match="^boom$"):
            gan.train(tiny_config("wgan_gp"), tiny_dataset())
        assert len(forks) == self._workers(1)
        self._assert_no_child()

    def test_killed_worker_leaves_an_identical_run(self, monkeypatch, forks, caplog):
        config = replace(tiny_config("wgan_gp"), checkpoint_every=1)

        def kill_worker(cp):
            if cp.epoch == 1 and forks:
                os.kill(forks[0], signal.SIGKILL)

        killed = gan.train(config, tiny_dataset(), on_checkpoint=kill_worker)
        self._assert_identical(killed, self._pinned_run(monkeypatch, config))
        warned = [r for r in caplog.records if "penalty worker exited" in r.getMessage()]
        assert len(warned) == self._workers(1)
        self._assert_no_child()


def _attributes_read(tree: ast.AST, receiver: str) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == receiver}


def test_every_config_field_is_read_by_training():
    """A TrainConfig field that no training code reads is a config key that
    does nothing. Each must be read as ``config.<field>`` in gan.py or
    optim.py, or as ``self.<field>`` in a TrainConfig method; the checks of
    ``__post_init__`` do not count."""
    read = set()
    for module in (gan, optim):
        tree = ast.parse(Path(module.__file__).read_text("utf-8"))
        read |= _attributes_read(tree, "config")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "TrainConfig":
                read |= {name for method in cls.body if isinstance(method, ast.FunctionDef)
                         and method.name != "__post_init__"
                         for name in _attributes_read(method, "self")}
    assert [f.name for f in fields(TrainConfig) if f.name not in read] == []
