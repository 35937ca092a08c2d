"""Losses, gradient penalty analytics, and the training loop contract."""

from dataclasses import asdict

import numpy as np
import pytest

from tsforge import gan
from tsforge import tensor as T
from tsforge.data import fit_scale
from tsforge.gan import (TrainConfig, TrainingDiverged, critic_loss_gan, critic_loss_wgan,
                         generator_loss_gan, generator_loss_wgan, gradient_penalty,
                         interpolate, lipschitz_ratio_check, make_rng,
                         mode_collapse_score, sample_noise, wasserstein_estimate)
from tsforge.nn import ArchitectureSpec, critic_forward, init_params
from tsforge.optim import OptimConfig
from tsforge.tensor import Graph, Tensor

from oracles import central_diff, rel_err

SMALL = ArchitectureSpec(noise_len=3, seq_len=6, features=1, lstm_units=4)


def small_dataset(n_windows=64, seq_len=6, seed=0, scale=0.02):
    rng = np.random.Generator(np.random.Philox(seed))
    return fit_scale(rng.standard_normal((n_windows, seq_len)) * scale)


def unit_norm_critic(x: Tensor) -> Tensor:
    """D(x) = sum(x)/sqrt(n) per sample: gradient norm exactly 1."""
    batch, seq, feat = x.shape
    n = seq * feat
    s = T.reduce("sum", T.reduce("sum", x, axis=2), axis=1)
    return T.mul(s, 1.0 / np.sqrt(n))


def constant_critic(x: Tensor) -> Tensor:
    """Scores structurally depend on x but with exactly zero gradient."""
    s = T.reduce("sum", T.reduce("sum", x, axis=2), axis=1)
    return T.mul(s, 0.0)


def double_sum_critic(x: Tensor) -> Tensor:
    """D(x) = 2*sum(x) per sample."""
    s = T.reduce("sum", T.reduce("sum", x, axis=2), axis=1)
    return T.mul(s, 2.0)


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


class TestInterpolate:
    def test_eps_one_is_real(self):
        real = np.full((2, 3, 1), 5.0)
        fake = np.zeros((2, 3, 1))
        np.testing.assert_array_equal(interpolate(real, fake, make_rng(0), eps=1.0), real)

    def test_eps_zero_is_fake(self):
        real = np.full((2, 3, 1), 5.0)
        fake = np.zeros((2, 3, 1))
        np.testing.assert_array_equal(interpolate(real, fake, make_rng(0), eps=0.0), fake)

    def test_midpoint(self):
        out = interpolate(np.array([[2.0]]), np.array([[0.0]]), make_rng(0), eps=0.5)
        assert out[0, 0] == 1.0

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


class TestGradientPenalty:
    def test_unit_gradient_critic_zero_penalty(self):
        with Graph():
            x_hat = Tensor(np.random.default_rng(0).normal(size=(4, 6, 1)))
            pen = gradient_penalty(unit_norm_critic, x_hat, 10.0)
        assert pen.item() == pytest.approx(0.0, abs=1e-10)

    def test_constant_critic_penalty_is_lambda(self):
        with Graph():
            x_hat = Tensor(np.random.default_rng(1).normal(size=(4, 6, 1)))
            pen = gradient_penalty(constant_critic, x_hat, 10.0)
        assert pen.item() == 10.0

    def test_linear_critic_closed_form(self):
        lam = 10.0
        n = 6
        with Graph():
            x_hat = Tensor(np.random.default_rng(2).normal(size=(4, n, 1)))
            pen = gradient_penalty(double_sum_critic, x_hat, lam)
        assert pen.item() == pytest.approx(lam * (2 * np.sqrt(n) - 1) ** 2, abs=1e-9)

    def test_penalty_nonnegative_random_critics(self):
        for seed in range(5):
            critic = init_params(SMALL, "critic", seed)
            with Graph():
                x_hat = Tensor(np.random.default_rng(seed).normal(size=(3, 6, 1)))
                pen = gradient_penalty(lambda x: critic_forward(critic, x), x_hat, 10.0)
            assert pen.item() >= 0.0

    def test_penalty_gradient_vs_finite_differences(self):
        """Second-order oracle on a small real critic."""
        critic = init_params(SMALL, "critic", 77)
        x_hat_v = np.random.default_rng(78).normal(size=(4, 6, 1)) * 0.5
        lam = 10.0
        name = "lstm.W_o"
        W0 = critic[name].data.copy()

        def penalty_value(wv) -> float:
            critic[name].data[...] = wv
            with Graph():
                x_hat = Tensor(x_hat_v.copy())
                val = gradient_penalty(lambda x: critic_forward(critic, x),
                                       x_hat, lam).item()
            critic[name].data[...] = W0
            return val

        with Graph() as g:
            x_hat = Tensor(x_hat_v.copy())
            pen = gradient_penalty(lambda x: critic_forward(critic, x), x_hat, lam)
            analytic = T.backward(g, pen, wrt=[critic[name]])[critic[name]].data
        fd = central_diff(penalty_value, W0)
        assert rel_err(analytic, fd, floor=1e-5) < 1e-3


class TestCriticLoss:
    def test_constant_critic_loss_is_lambda(self):
        rng = make_rng(0)
        real = np.random.default_rng(1).normal(size=(4, 6, 1))
        fake = np.random.default_rng(2).normal(size=(4, 6, 1))
        with Graph():
            loss, w, gp = critic_loss_wgan(constant_critic, real, fake, 10.0, rng)
        assert loss.item() == pytest.approx(10.0)
        assert (w, gp) == (0.0, loss.item())

    def test_lambda_zero_reduces_to_wasserstein(self):
        rng = make_rng(3)
        critic = init_params(SMALL, "critic", 4)
        real = np.random.default_rng(5).normal(size=(4, 6, 1))
        fake = np.random.default_rng(6).normal(size=(4, 6, 1))
        fn = lambda x: critic_forward(critic, x)
        with Graph():
            loss, w, gp = critic_loss_wgan(fn, real, fake, 0.0, rng)
        s_real, s_fake = (fn(Tensor(x, requires_grad=False)).data for x in (real, fake))
        assert loss.item() == pytest.approx(np.mean(s_fake) - np.mean(s_real))
        assert w == -loss.item() and gp == 0.0
        assert rng.random() == make_rng(3).random()   # no interpolation draw

    def test_loss_gradient_vs_finite_differences(self):
        critic = init_params(SMALL, "critic", 7)
        real = np.random.default_rng(8).normal(size=(3, 6, 1)) * 0.5
        fake = np.random.default_rng(9).normal(size=(3, 6, 1)) * 0.5
        eps = np.array([0.3, 0.6, 0.9])
        lam = 10.0
        name = "proj.W"
        W0 = critic[name].data.copy()

        def loss_value(wv) -> float:
            critic[name].data[...] = wv
            with Graph():
                val = critic_loss_wgan(lambda x: critic_forward(critic, x),
                                       real, fake, lam, make_rng(0), eps=eps)[0].item()
            critic[name].data[...] = W0
            return val

        with Graph() as g:
            loss, _, _ = critic_loss_wgan(lambda x: critic_forward(critic, x),
                                          real, fake, lam, make_rng(0), eps=eps)
            analytic = T.backward(g, loss, wrt=[critic[name]])[critic[name]].data
        assert rel_err(analytic, central_diff(loss_value, W0), floor=1e-5) < 1e-3


class TestGeneratorLoss:
    def test_constant_score_gives_negated_score(self):
        with Graph():
            fake = Tensor(np.zeros((3, 6, 1)))
            loss = generator_loss_wgan(lambda x: T.add(T.mul(unit_norm_critic(x), 0.0), 2.5),
                                       fake)
        assert loss.item() == pytest.approx(-2.5)

    def test_better_fakes_lower_loss(self):
        critic = init_params(SMALL, "critic", 10)
        fn = lambda x: critic_forward(critic, x)
        rng = np.random.default_rng(11)
        # pick the higher-scoring of two batches; its loss must be lower
        a = rng.normal(size=(4, 6, 1))
        b = rng.normal(size=(4, 6, 1))
        with Graph():
            la = generator_loss_wgan(fn, Tensor(a, requires_grad=False)).item()
        with Graph():
            lb = generator_loss_wgan(fn, Tensor(b, requires_grad=False)).item()
        sa = float(np.mean(fn(Tensor(a, requires_grad=False)).data))
        sb = float(np.mean(fn(Tensor(b, requires_grad=False)).data))
        assert (la < lb) == (sa > sb)

    def test_frozen_critic_gets_exact_zero_grads(self):
        from tsforge.nn import generator_forward
        gen = init_params(SMALL, "generator", 12)
        critic = init_params(SMALL, "critic", 13)
        z = np.random.default_rng(14).standard_normal((2, SMALL.noise_len))
        with Graph() as g:
            fake = generator_forward(gen, Tensor(z, requires_grad=False))
            with critic.frozen():
                loss = generator_loss_wgan(lambda x: critic_forward(critic, x), fake)
            gm = T.backward(g, loss)
        for _, t in critic.items():
            assert np.all(gm[t].data == 0.0)
        assert any(np.any(gm[t].data != 0.0) for _, t in gen.items())


class TestStandardGanLosses:
    def test_half_probability_analytic(self):
        # D == 0.5 -> d_loss = 2 log 2
        with Graph():
            d_loss, w = critic_loss_gan(constant_critic, np.zeros((4, 6, 1)),
                                        np.zeros((4, 6, 1)))
            g_loss = generator_loss_gan(constant_critic, Tensor(np.zeros((4, 6, 1))))
        assert d_loss.item() == pytest.approx(2 * np.log(2.0))
        assert w == 0.0
        assert g_loss.item() == pytest.approx(np.log(0.5))

    def test_perfect_discriminator_loss_near_zero(self):
        def sharp(x: Tensor) -> Tensor:
            # big positive scores for positive-mean inputs, negative otherwise
            s = T.reduce("mean", T.reduce("sum", x, axis=2), axis=1)
            return T.mul(s, 1000.0)

        real = np.ones((4, 6, 1))
        fake = -np.ones((4, 6, 1))
        with Graph():
            d_loss, w = critic_loss_gan(sharp, real, fake)
        assert d_loss.item() == pytest.approx(0.0, abs=1e-4)
        assert w == pytest.approx(2000.0)

    def test_g_loss_decreases_as_fake_scores_rise(self):
        vals = []
        for score in (-1.0, 0.0, 1.0):
            def biased(x: Tensor, s=score) -> Tensor:
                return T.add(constant_critic(x), s)
            with Graph():
                g_loss = generator_loss_gan(biased, Tensor(np.zeros((2, 6, 1))))
            vals.append(g_loss.item())
        assert vals[0] > vals[1] > vals[2]

    def test_nonsaturating_variant(self):
        with Graph():
            g_loss = generator_loss_gan(constant_critic, Tensor(np.zeros((2, 6, 1))),
                                        nonsaturating=True)
        assert g_loss.item() == pytest.approx(-np.log(0.5))


class TestWassersteinEstimate:
    def test_identical_batches_zero(self):
        critic = init_params(SMALL, "critic", 15)
        x = np.random.default_rng(16).normal(size=(4, 6, 1))
        s_real, s_fake = (critic_forward(critic, Tensor(v, requires_grad=False))
                          for v in (x, x.copy()))
        assert wasserstein_estimate(s_real, s_fake) == 0.0

    def test_constant_critic_zero(self):
        a = np.random.default_rng(17).normal(size=(4, 6, 1))
        b = np.random.default_rng(18).normal(size=(4, 6, 1))
        assert wasserstein_estimate(constant_critic(Tensor(a)), constant_critic(Tensor(b))) == 0.0

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
        fn = lambda t: critic_forward(critic, t)
        real = np.random.default_rng(21).normal(size=(5, 6, 1))
        fake = np.random.default_rng(22).normal(size=(3, 6, 1))
        with Graph():
            _, w = critic_loss_gan(fn, real, fake)
        s_real, s_fake = (fn(Tensor(x, requires_grad=False)).data for x in (real, fake))
        assert w == pytest.approx(np.mean(s_real) - np.mean(s_fake), rel=1e-12, abs=1e-15)


class TestLipschitz:
    def test_constant_critic_ratio_zero(self):
        a = np.random.default_rng(22).normal(size=(1, 6, 1))
        b = np.random.default_rng(23).normal(size=(1, 6, 1))
        assert lipschitz_ratio_check(constant_critic, a, b) == 0.0

    def test_unit_norm_critic_bounded_by_one(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            a = rng.normal(size=(1, 6, 1))
            b = rng.normal(size=(1, 6, 1))
            assert lipschitz_ratio_check(unit_norm_critic, a, b) <= 1.0 + 1e-12

    def test_identical_inputs_rejected(self):
        a = np.ones((1, 6, 1))
        with pytest.raises(ValueError):
            lipschitz_ratio_check(constant_critic, a, a.copy())


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
                    checkpoint_every=1, optim=OptimConfig(learning_rate=5e-5))
        base.update(kw)
        return TrainConfig(**base)

    @pytest.mark.parametrize("variant,calls", [("wgan_gp", 11), ("wgan_clip", 6), ("gan", 6)])
    def test_critic_forward_calls_per_epoch(self, monkeypatch, variant, calls):
        # per critic step one call on real and fake together, plus one on the
        # interpolates with the penalty; then one in the generator step
        count = [0]
        orig = gan.critic_forward

        def counting(params, x):
            count[0] += 1
            return orig(params, x)

        monkeypatch.setattr(gan, "critic_forward", counting)
        gan.train(self._cfg(epochs=2, loss_variant=variant, checkpoint_every=100),
                  small_dataset())
        assert count[0] == 2 * calls

    @pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
    def test_tape_length_does_not_depend_on_seq_len(self, monkeypatch, variant):
        # every LSTM pass, the penalty's included, is one tape node, so a
        # longer window records no more nodes in either step
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
        assert len(tapes[0]) == 6 and tapes[0] == tapes[1]

    def test_update_counts(self, monkeypatch):
        calls = {"critic": 0, "generator": 0}
        import tsforge.gan as gan_mod
        orig = gan_mod.rmsprop_step

        def counting(params, grads, state, cfg):
            calls[params.kind] += 1
            return orig(params, grads, state, cfg)

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

        def spying(params, grads, state, cfg):
            seen.append((params.kind, {k: t.data.copy() for k, t in params.items()}))
            return orig(params, grads, state, cfg)

        monkeypatch.setattr(gan_mod, "rmsprop_step", spying)
        gen, critic, _, _ = gan.train(self._cfg(epochs=1), ds)
        # during the 5 critic updates the generator was never touched:
        # its params at the generator update equal its params before training
        cfg = self._cfg(epochs=1)
        seeds = np.random.SeedSequence(cfg.seed).generate_state(3, dtype=np.uint64)
        gen0 = init_params(cfg.arch(), "generator", int(seeds[0]))
        gen_update_params = [p for kind, p in seen if kind == "generator"][0]
        for k in gen0.names():
            assert np.array_equal(gen_update_params[k], gen0[k].data)

    def test_variant_equivalence_gp0_vs_clip_inf(self):
        ds = small_dataset()
        cfg_gp = self._cfg(epochs=4, lambda_gp=0.0, loss_variant="wgan_gp")
        cfg_clip = self._cfg(epochs=4, loss_variant="wgan_clip",
                             optim=OptimConfig(learning_rate=5e-5, clip_c=1e9))
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
            assert c.spec == cfg.arch() and c.scaler == ds.scaler
            assert c.extra["config"] == asdict(cfg) and c.extra["n_windows"] == len(ds)
            assert c.extra["mode_collapse"] > 0.0

    def test_resume_equivalence(self):
        ds = small_dataset()
        cfg = self._cfg(epochs=6, checkpoint_every=2)
        _, _, straight, _ = gan.train(cfg, ds)
        _, _, _, cps = gan.train(self._cfg(epochs=4, checkpoint_every=2), ds)
        snap = [c for c in cps if c.epoch == 4][0]
        _, _, tail, _ = gan.train(cfg, ds, resume=snap)
        assert tail.epochs == [5, 6]
        assert tail.critic_loss == straight.critic_loss[4:]
        assert tail.generator_loss == straight.generator_loss[4:]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort(self):
        # the first step moves the weights by about 3x the learning rate, so
        # one near the float limit overflows the next critic loss
        ds = small_dataset()
        cfg = self._cfg(epochs=50, optim=OptimConfig(learning_rate=1e307))
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
        import tsforge.gan as gan_mod
        orig = gan_mod._param_grads

        def poisoned(gmap, params):
            grads = orig(gmap, params)
            if params.kind == kind:
                grads["lstm.W_f"] = np.full(grads["lstm.W_f"].shape, value)
            return grads

        monkeypatch.setattr(gan_mod, "_param_grads", poisoned)
        cfg = self._cfg(epochs=3)
        seeds = np.random.SeedSequence(cfg.seed).generate_state(3, dtype=np.uint64)
        gen0 = init_params(cfg.arch(), "generator", int(seeds[0]))
        critic0 = init_params(cfg.arch(), "critic", int(seeds[1]))
        with pytest.raises(TrainingDiverged, match="lstm.W_f") as exc:
            gan.train(cfg, small_dataset())
        crash = exc.value.checkpoint
        assert crash.epoch == 1
        for ps in (crash.generator, crash.critic):
            assert all(np.all(np.isfinite(t.data)) for _, t in ps.items())
        # the poisoned network never stepped: it still holds its initial weights
        poisoned_net, initial = ((crash.critic, critic0) if kind == "critic"
                                 else (crash.generator, gen0))
        for name, t in initial.items():
            assert np.array_equal(poisoned_net[name].data, t.data)

    def test_empty_dataset_rejected(self):
        ds = small_dataset()
        ds.windows = ds.windows[:0]
        with pytest.raises(ValueError):
            gan.train(self._cfg(), ds)

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
