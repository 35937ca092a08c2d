"""Layers and network architectures: shapes, equations, gradients."""

import math

import numpy as np
import pytest

from tsforge import nn
from tsforge import tensor as T
from tsforge.nn import ArchitectureSpec, DenseParams, LstmParams, ParamSet
from tsforge.tensor import Graph, Tensor

from oracles import central_diff, lstm_cell_reference, lstm_scan_reference, rel_err

SMALL = ArchitectureSpec(noise_len=3, seq_len=6, features=1, lstm_units=4)


def _flatten_params(ps: ParamSet) -> np.ndarray:
    return np.concatenate([ps[k].data.reshape(-1) for k in ps.names()])


def _set_params(ps: ParamSet, vec: np.ndarray) -> None:
    off = 0
    for k in ps.names():
        t = ps[k]
        n = t.size
        t.data[...] = vec[off: off + n].reshape(t.shape)
        off += n


class TestInit:
    def test_same_seed_bit_identical(self):
        a = nn.init_params(SMALL, "generator", 123)
        b = nn.init_params(SMALL, "generator", 123)
        for k in a.names():
            assert np.array_equal(a[k].data, b[k].data)

    def test_different_seed_differs(self):
        a = nn.init_params(SMALL, "generator", 1)
        b = nn.init_params(SMALL, "generator", 2)
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a.names())

    def test_forget_bias_ones_other_biases_zero(self):
        ps = nn.init_params(SMALL, "critic", 5)
        np.testing.assert_array_equal(ps["lstm.b_f"].data, np.ones(4))
        for gate in ("b_i", "b_c", "b_o"):
            np.testing.assert_array_equal(ps[f"lstm.{gate}"].data, np.zeros(4))

    def test_generator_name_schema(self):
        ps = nn.init_params(SMALL, "generator", 7)
        assert set(ps.names()) == {
            "lstm.W_i", "lstm.W_f", "lstm.W_c", "lstm.W_o",
            "lstm.b_i", "lstm.b_f", "lstm.b_c", "lstm.b_o",
            "proj.W", "proj.b",
        }

    def test_glorot_ranges(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
        ps = nn.init_params(spec, "critic", 9)
        limit = np.sqrt(6.0 / (51 + 50))
        W = ps["lstm.W_i"].data
        assert W.shape == (51, 50)
        assert np.all(np.abs(W) <= limit)

    def test_param_count_formula(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)

        def lstm_count(kind: str) -> int:
            return sum(math.prod(shape) for name, shape in nn.param_shapes(spec, kind).items()
                       if name.startswith("lstm."))

        critic = nn.init_params(spec, "critic", 0)
        assert lstm_count("critic") == 4 * (51 * 50 + 50) == 10400
        assert critic.count() == 10400 + 51 == 10451
        gen = nn.init_params(spec, "generator", 0)
        assert gen.count() == lstm_count("generator") + 51 == 15251

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ParamSet("actor", {})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(noise_len=0)


class TestDense:
    def test_identity_weights(self):
        p = DenseParams(W=Tensor(np.eye(3)), b=Tensor(np.zeros(3)))
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_allclose(nn.dense_forward(p, Tensor(x)).data, x)

    def test_small_example(self):
        p = DenseParams(W=Tensor(np.array([[1.0], [1.0]])), b=Tensor(np.array([0.5])))
        out = nn.dense_forward(p, Tensor(np.array([[1.0, 1.0]])))
        assert out.data[0, 0] == pytest.approx(2.5)

    def test_shape_mismatch(self):
        p = DenseParams(W=Tensor(np.zeros((3, 2))), b=Tensor(np.zeros(2)))
        with pytest.raises(ValueError):
            nn.dense_forward(p, Tensor(np.zeros((4, 5))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        W0 = rng.normal(size=(3, 2))
        b0 = rng.normal(size=2)
        x0 = rng.normal(size=(4, 3))

        def f(wv):
            return float((x0 @ wv + b0).sum())

        with Graph() as g:
            W = Tensor(W0.copy())
            p = DenseParams(W=W, b=Tensor(b0.copy()))
            out = T.reduce("sum", nn.dense_forward(p, Tensor(x0)))
            gw = T.backward(g, out)[W].data
        assert rel_err(gw, central_diff(f, W0)) < 1e-4


def _random_lstm(rng, units, features) -> LstmParams:
    mats = {f"W_{k}": Tensor(rng.normal(size=(units + features, units)) * 0.4)
            for k in "ifco"}
    vecs = {f"b_{k}": Tensor(rng.normal(size=units) * 0.2) for k in "ifco"}
    return LstmParams(mats["W_i"], mats["W_f"], mats["W_c"], mats["W_o"],
                      vecs["b_i"], vecs["b_f"], vecs["b_c"], vecs["b_o"])


def _fused(p: LstmParams) -> tuple[np.ndarray, np.ndarray]:
    """Gate weights and biases in ``nn.lstm_cell_step``'s column order [i|f|o|c~]."""
    return (np.concatenate([p.W_i.data, p.W_f.data, p.W_o.data, p.W_c.data], axis=1),
            np.concatenate([p.b_i.data, p.b_f.data, p.b_o.data, p.b_c.data]))


def _cell(p: LstmParams, x_t, h_prev, c_prev):
    """(h, c) of one ``nn.lstm_cell_step``."""
    *_, c, _, h = nn.lstm_cell_step(*_fused(p), np.concatenate([h_prev, x_t], axis=1), c_prev)
    return h, c


class TestLstmCell:
    def test_all_zero(self):
        units, features = 3, 2
        zeros = lambda *s: Tensor(np.zeros(s))
        p = LstmParams(*(zeros(units + features, units) for _ in range(4)),
                       *(zeros(units) for _ in range(4)))
        h, c = _cell(p, np.zeros((1, features)), np.zeros((1, units)), np.zeros((1, units)))
        np.testing.assert_array_equal(h, np.zeros((1, units)))
        np.testing.assert_array_equal(c, np.zeros((1, units)))

    def test_gate_saturation_preserves_cell(self):
        units, features = 3, 2
        zeros = lambda *s: Tensor(np.zeros(s))
        p = LstmParams(*(zeros(units + features, units) for _ in range(4)),
                       b_i=Tensor(np.full(units, -20.0)), b_f=Tensor(np.full(units, 20.0)),
                       b_c=zeros(units), b_o=zeros(units))
        c_prev = np.array([[0.3, -0.7, 1.1]])
        _, c = _cell(p, np.zeros((1, features)), np.zeros((1, units)), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-8)

    def test_matches_scalar_transcription(self):
        rng = np.random.default_rng(21)
        units, features, batch = 4, 3, 2
        p = _random_lstm(rng, units, features)
        x = rng.normal(size=(batch, features))
        h0 = rng.normal(size=(batch, units))
        c0 = rng.normal(size=(batch, units))
        h, c = _cell(p, x, h0, c0)
        h_ref, c_ref = lstm_cell_reference(
            p.W_i.data, p.W_f.data, p.W_c.data, p.W_o.data,
            p.b_i.data, p.b_f.data, p.b_c.data, p.b_o.data, x, h0, c0)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12)
        np.testing.assert_allclose(c, c_ref, rtol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        p = _random_lstm(rng, 3, 2)
        with pytest.raises(ValueError):
            _cell(p, np.zeros((1, 5)), np.zeros((1, 3)), np.zeros((1, 3)))


def lstm_seq(p, x: Tensor) -> Tensor:
    """Hidden states of the scan over the timesteps of x [batch, timesteps,
    features], as [batch, timesteps, units]; x itself gets no gradient."""
    batch, steps, _ = x.shape
    hs = nn.lstm_scan(p, Tensor(x.data, requires_grad=False), steps)
    return T.transpose(T.reshape(hs, (steps, batch, p.units)), (1, 0, 2))


class TestLstmForward:
    def test_single_step_equals_cell(self):
        rng = np.random.default_rng(31)
        p = _random_lstm(rng, 4, 2)
        x = rng.normal(size=(3, 1, 2))
        seq = lstm_seq(p, Tensor(x))
        h, _ = _cell(p, x[:, 0, :], np.zeros((3, 4)), np.zeros((3, 4)))
        np.testing.assert_allclose(seq.data[:, 0, :], h, rtol=1e-12)

    def test_three_steps_match_manual_unroll(self):
        rng = np.random.default_rng(32)
        p = _random_lstm(rng, 4, 2)
        x = rng.normal(size=(2, 3, 2))
        seq = lstm_seq(p, Tensor(x))
        h = np.zeros((2, 4))
        c = np.zeros((2, 4))
        for t in range(3):
            h, c = lstm_cell_reference(
                p.W_i.data, p.W_f.data, p.W_c.data, p.W_o.data,
                p.b_i.data, p.b_f.data, p.b_c.data, p.b_o.data, x[:, t, :], h, c)
            np.testing.assert_allclose(seq.data[:, t, :], h, rtol=1e-10)

    def test_zero_weights_zero_hidden(self):
        units, features = 3, 1
        zeros = lambda *s: Tensor(np.zeros(s))
        p = LstmParams(*(zeros(units + features, units) for _ in range(4)),
                       *(zeros(units) for _ in range(4)))
        x = np.ones((2, 5, 1))
        out = lstm_seq(p, Tensor(x))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 3)))

    def test_gradients_through_time(self):
        rng = np.random.default_rng(33)
        units, features, steps = 4, 2, 5
        p = _random_lstm(rng, units, features)
        x0 = rng.normal(size=(2, steps, features))
        # unequal weights per unit, so swapped gate columns change the gradient
        w = rng.normal(size=(2, steps, units))
        with Graph() as g:
            out = lstm_seq(p, Tensor(x0, requires_grad=False))
            gm = T.backward(g, T.reduce("sum", T.mul(out, Tensor(w))))

        for name in ("W_i", "W_f", "W_c", "W_o", "b_i", "b_f", "b_c", "b_o"):
            param = getattr(p, name)
            W0 = param.data.copy()

            def f(wv):
                param.data[...] = wv
                out = lstm_seq(p, Tensor(x0, requires_grad=False))
                param.data[...] = W0
                return float((out.data * w).sum())

            assert rel_err(gm[param].data, central_diff(f, W0)) < 1e-4, name


GATES = ("W_i", "W_f", "W_c", "W_o", "b_i", "b_f", "b_c", "b_o")
# input shape of a critic window [batch, steps, features] and of generator
# noise [batch, features], which is fed at every step
SCAN_INPUTS = {"window": (6, 7, 3), "noise": (6, 3)}


def _scan_case(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    p = _random_lstm(rng, 5, 3)
    x = rng.normal(size=SCAN_INPUTS[kind])
    w = rng.normal(size=(7 * 6, 5))   # unequal weights per unit and step
    return p, x, w


def _weighted_scan_grads(scan, p, x0, w):
    x = Tensor(x0.copy())
    with Graph() as g:
        hs = scan(p, x, 7)
        loss = T.reduce("sum", T.mul(hs, Tensor(w, requires_grad=False)))
    gm = T.backward(g, loss)
    return hs.data, [gm[x].data] + [gm[getattr(p, n)].data for n in GATES]


def _input_grad_grads(scan, p, x0, w, v):
    """Gradients of <v, grad_x <hs, w>> with respect to w (the upstream of the
    scan), x and the eight gates: the ten inputs of the x-gradient node."""
    x, wt = Tensor(x0.copy()), Tensor(w.copy())
    with Graph() as g:
        gx = T.grad(T.reduce("sum", T.mul(scan(p, x, 7), wt)), x)
        outer = T.reduce("sum", T.mul(gx, Tensor(v, requires_grad=False)))
    gm = T.backward(g, outer)
    return [gm[wt].data, gm[x].data] + [gm[getattr(p, n)].data for n in GATES]


class TestLstmScan:
    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_matches_primitive_composition(self, kind):
        p, x0, w = _scan_case(kind, 41)
        hs, grads = _weighted_scan_grads(nn.lstm_scan, p, x0, w)
        ref_hs, ref_grads = _weighted_scan_grads(lstm_scan_reference, p, x0, w)
        assert rel_err(hs, ref_hs) <= 1e-12
        for name, got, want in zip(("x",) + GATES, grads, ref_grads):
            assert got.shape == want.shape, name
            assert rel_err(got, want) <= 1e-12, name
        outside = nn.lstm_scan(p, Tensor(x0, requires_grad=False), 7)
        assert np.array_equal(outside.data, hs)

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_gradients_vs_finite_differences(self, kind):
        p, x0, w = _scan_case(kind, 42)
        _, grads = _weighted_scan_grads(nn.lstm_scan, p, x0, w)

        def f_x(xv):
            return float((nn.lstm_scan(p, Tensor(xv), 7).data * w).sum())

        assert rel_err(grads[0], central_diff(f_x, x0.copy())) < 1e-4
        for name, analytic in zip(GATES, grads[1:]):
            param = getattr(p, name)
            W0 = param.data.copy()

            def f(wv):
                param.data[...] = wv
                val = f_x(x0)
                param.data[...] = W0
                return val

            assert rel_err(analytic, central_diff(f, W0.copy())) < 1e-4, name

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_second_order_matches_primitive_composition(self, kind):
        p, x0, w = _scan_case(kind, 45)
        v = np.random.default_rng(46).normal(size=x0.shape)
        got = _input_grad_grads(nn.lstm_scan, p, x0, w, v)
        want = _input_grad_grads(lstm_scan_reference, p, x0, w, v)
        for name, a, b in zip(("upstream", "x") + GATES, got, want):
            assert a.shape == b.shape, name
            assert rel_err(a, b) <= 1e-12, name

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_second_order_vs_finite_differences(self, kind):
        p, x0, w = _scan_case(kind, 47)
        v = np.random.default_rng(48).normal(size=x0.shape)
        got = _input_grad_grads(nn.lstm_scan, p, x0, w, v)

        def f(xv, wv):
            """<v, grad_x <hs, w>> from the first-order BPTT alone."""
            x = Tensor(xv)
            with Graph() as g:
                hs = nn.lstm_scan(p, x, 7)
                loss = T.reduce("sum", T.mul(hs, Tensor(wv, requires_grad=False)))
            return float((T.backward(g, loss)[x].data * v).sum())

        assert rel_err(got[0], central_diff(lambda wv: f(x0, wv), w.copy())) < 1e-4
        assert rel_err(got[1], central_diff(lambda xv: f(xv, w), x0.copy())) < 1e-4
        for name, analytic in zip(GATES, got[2:]):
            param = getattr(p, name)
            W0 = param.data.copy()

            def f_gate(wv):
                param.data[...] = wv
                val = f(x0, w)
                param.data[...] = W0
                return val

            assert rel_err(analytic, central_diff(f_gate, W0.copy())) < 1e-4, name

    def test_second_order_through_a_weight_gradient_raises(self):
        p, x0, w = _scan_case("window", 43)
        with Graph() as g:
            hs = nn.lstm_scan(p, Tensor(x0), 7)
            gw = T.grad(T.reduce("sum", T.mul(hs, Tensor(w, requires_grad=False))), p.W_o)
            outer = T.reduce("sum", T.square(gw))
            with pytest.raises(NotImplementedError):
                T.backward(g, outer, wrt=[p.W_i])

    def test_zero_upstream_has_zero_second_order_gradients(self):
        p, x0, w = _scan_case("noise", 49)
        got = _input_grad_grads(nn.lstm_scan, p, x0, w, np.zeros(x0.shape))
        assert all(not np.any(g) for g in got)

    def test_each_backward_pass_runs_its_own_bptt(self):
        p, x0, w = _scan_case("window", 50)
        x = Tensor(x0)
        with Graph() as g:
            hs = nn.lstm_scan(p, x, 7)
            a = T.reduce("sum", T.mul(hs, Tensor(w, requires_grad=False)))
            b = T.reduce("sum", T.mul(hs, Tensor(-2.0 * w, requires_grad=False)))
        ga, gb = T.backward(g, a)[x].data, T.backward(g, b)[x].data
        np.testing.assert_allclose(gb, -2.0 * ga, rtol=1e-12)

    def test_shape_mismatch(self):
        p, x0, _ = _scan_case("window", 44)
        with pytest.raises(ValueError):
            nn.lstm_scan(p, Tensor(x0), 6)
        with pytest.raises(ValueError):
            nn.lstm_scan(p, Tensor(x0[:, :, :2]), 7)
        with pytest.raises(ValueError):
            nn.lstm_scan(p, Tensor(x0[:, 0]), 0)


class TestGenerator:
    def test_output_shape_and_range(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
        gen = nn.init_params(spec, "generator", 42)
        z = np.random.default_rng(0).standard_normal((32, 25))
        out = nn.generator_forward(gen, Tensor(z, requires_grad=False))
        assert out.shape == (32, 50, 1)
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_shape_contract_any_batch(self, batch):
        gen = nn.init_params(SMALL, "generator", 3)
        z = np.random.default_rng(batch).standard_normal((batch, SMALL.noise_len))
        out = nn.generator_forward(gen, Tensor(z, requires_grad=False))
        assert out.shape == (batch, SMALL.seq_len, 1)

    def test_deterministic(self):
        gen = nn.init_params(SMALL, "generator", 4)
        z = np.random.default_rng(9).standard_normal((3, SMALL.noise_len))
        a = nn.generator_forward(gen, Tensor(z, requires_grad=False)).data
        b = nn.generator_forward(gen, Tensor(z, requires_grad=False)).data
        assert np.array_equal(a, b)

    def test_bad_noise_shape(self):
        gen = nn.init_params(SMALL, "generator", 4)
        with pytest.raises(ValueError):
            nn.generator_forward(gen, Tensor(np.zeros((2, 7))))


class TestCritic:
    def test_output_shape(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
        critic = nn.init_params(spec, "critic", 8)
        x = np.random.default_rng(1).standard_normal((32, 50, 1)) * 0.1
        out = nn.critic_forward(critic, Tensor(x, requires_grad=False))
        assert out.shape == (32,)

    def test_zero_parameters_zero_scores(self):
        critic = nn.init_params(SMALL, "critic", 0)
        for k in critic.names():
            critic[k].data[...] = 0.0
        x = np.random.default_rng(2).standard_normal((4, SMALL.seq_len, 1))
        out = nn.critic_forward(critic, Tensor(x, requires_grad=False))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_scores_unbounded_smoke(self):
        # random params/inputs eventually score outside [0, 1]
        rng = np.random.default_rng(3)
        found = False
        for seed in range(40):
            critic = nn.init_params(SMALL, "critic", seed)
            for k in critic.names():
                if k.startswith("lstm.W") or k == "proj.W":
                    critic[k].data *= 4.0
            x = rng.standard_normal((8, SMALL.seq_len, 1))
            s = nn.critic_forward(critic, Tensor(x, requires_grad=False)).data
            if np.any((s < 0.0) | (s > 1.0)):
                found = True
                break
        assert found

    def test_bad_input_rank(self):
        critic = nn.init_params(SMALL, "critic", 8)
        with pytest.raises(ValueError):
            nn.critic_forward(critic, Tensor(np.zeros((4, 6))))
        with pytest.raises(ValueError):
            nn.critic_forward(critic, Tensor(np.zeros((2, 0, 1))))


class TestEndToEnd:
    def test_full_chain_gradients_vs_finite_differences(self):
        """grad of mean(critic(generator(z))) w.r.t. every generator
        parameter matches central differences on the reduced spec."""
        gen = nn.init_params(SMALL, "generator", 11)
        critic = nn.init_params(SMALL, "critic", 12)
        z0 = np.random.default_rng(13).standard_normal((2, SMALL.noise_len))

        def loss_value() -> float:
            fake = nn.generator_forward(gen, Tensor(z0, requires_grad=False))
            return float(np.mean(nn.critic_forward(critic, fake).data))

        with Graph() as g:
            fake = nn.generator_forward(gen, Tensor(z0, requires_grad=False))
            with critic.frozen():
                loss = T.reduce("mean", nn.critic_forward(critic, fake))
            gm = T.backward(g, loss)
            analytic = {k: gm[t].data.copy() for k, t in gen.items()}

        vec0 = _flatten_params(gen)

        def f(vec):
            _set_params(gen, vec)
            val = loss_value()
            _set_params(gen, vec0)
            return val

        fd = central_diff(f, vec0.copy())
        flat_analytic = np.concatenate([analytic[k].reshape(-1) for k in gen.names()])
        assert rel_err(flat_analytic, fd) < 1e-4

    def test_frozen_network_params_unchanged_and_zero_grads(self):
        gen = nn.init_params(SMALL, "generator", 21)
        critic = nn.init_params(SMALL, "critic", 22)
        z0 = np.random.default_rng(23).standard_normal((2, SMALL.noise_len))
        before = {k: critic[k].data.copy() for k in critic.names()}
        with Graph() as g:
            fake = nn.generator_forward(gen, Tensor(z0, requires_grad=False))
            with critic.frozen():
                loss = T.negate(T.reduce("mean", nn.critic_forward(critic, fake)))
            gm = T.backward(g, loss)
        for k, t in critic.items():
            assert np.array_equal(t.data, before[k])
            assert np.all(gm[t].data == 0.0)
        assert any(np.any(gm[t].data != 0.0) for _, t in gen.items())
