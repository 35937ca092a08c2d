"""Layers and network architectures: shapes, equations, gradients."""

import math
import warnings

import numpy as np
import pytest

from tsforge import nn
from tsforge import tensor as T
from tsforge.nn import ArchitectureSpec, ParamSet
from tsforge.tensor import Graph, Tensor

from oracles import (central_diff, lstm_cell_reference, lstm_head_reference, rel_err, reshape,
                     tanh, transpose)

SMALL = ArchitectureSpec(noise_len=3, seq_len=6, features=1, lstm_units=4)


def _flatten_params(ps: ParamSet) -> np.ndarray:
    return np.concatenate([ps[k].reshape(-1) for k in ps])


def _set_params(ps: ParamSet, vec: np.ndarray) -> None:
    off = 0
    for k in ps:
        t = ps[k]
        n = t.size
        t[...] = vec[off: off + n].reshape(t.shape)
        off += n


class TestInit:
    def test_same_seed_bit_identical(self):
        a = nn.init_params(SMALL, "generator", 123)
        b = nn.init_params(SMALL, "generator", 123)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_different_seed_differs(self):
        a = nn.init_params(SMALL, "generator", 1)
        b = nn.init_params(SMALL, "generator", 2)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_forget_bias_ones_other_biases_zero(self):
        ps = nn.init_params(SMALL, "critic", 5)
        np.testing.assert_array_equal(ps["lstm.b_f"], np.ones(4))
        for gate in ("b_i", "b_c", "b_o"):
            np.testing.assert_array_equal(ps[f"lstm.{gate}"], np.zeros(4))

    def test_generator_name_schema(self):
        ps = nn.init_params(SMALL, "generator", 7)
        assert set(ps) == {
            "lstm.W_i", "lstm.W_f", "lstm.W_c", "lstm.W_o",
            "lstm.b_i", "lstm.b_f", "lstm.b_c", "lstm.b_o",
            "proj.W", "proj.b",
        }

    def test_glorot_ranges(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
        ps = nn.init_params(spec, "critic", 9)
        limit = np.sqrt(6.0 / (51 + 50))
        W = ps["lstm.W_i"]
        assert W.shape == (51, 50)
        assert np.all(np.abs(W) <= limit)

    def test_param_count_formula(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)

        def lstm_count(kind: str) -> int:
            return sum(math.prod(shape) for name, shape in nn.param_shapes(spec, kind).items()
                       if name.startswith("lstm."))

        critic = nn.init_params(spec, "critic", 0)
        assert lstm_count("critic") == 4 * (51 * 50 + 50) == 10400
        assert sum(a.size for _, a in critic.items()) == 10400 + 51 == 10451
        gen = nn.init_params(spec, "generator", 0)
        assert sum(a.size for _, a in gen.items()) == lstm_count("generator") + 51 == 15251

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ParamSet("actor", {}, ArchitectureSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(noise_len=0)


# the eight gate tensors, in lstm_cell_reference's argument order
GATES = ("lstm.W_i", "lstm.W_f", "lstm.W_c", "lstm.W_o",
         "lstm.b_i", "lstm.b_f", "lstm.b_c", "lstm.b_o")
# every tensor nn.lstm_scan reads: the gates and the dense head
PARAMS = GATES + ("proj.W", "proj.b")


def _lstm(units, features, **arrays) -> ParamSet:
    """One LSTM and its head, zero except the named ``arrays``, keyed by the
    name after its dot: W_i ... b_o for the gates, W and b for the head."""
    spec = ArchitectureSpec(features=features, lstm_units=units)
    return ParamSet("critic", {name: arrays.get(name.split(".")[1], np.zeros(shape))
                               for name, shape in nn.param_shapes(spec, "critic").items()}, spec)


def _random_lstm(rng, units, features) -> ParamSet:
    mats = {f"W_{k}": rng.normal(size=(units + features, units)) * 0.4 for k in "ifco"}
    vecs = {f"b_{k}": rng.normal(size=units) * 0.2 for k in "ifco"}
    head = {"W": rng.normal(size=(units, 1)), "b": rng.normal(size=1) * 0.2}
    return _lstm(units, features, **mats, **vecs, **head)


def _units(p: ParamSet) -> int:
    return p["lstm.W_i"].shape[1]


def _cell(p: ParamSet, x_t, h_prev, c_prev):
    """(h, c) of one feature-major ``nn.lstm_cell_step``, batch-major."""
    W = np.concatenate([p[name] for name in nn._PARAMS[:4]], axis=1)
    b = np.concatenate([p[name] for name in nn._PARAMS[4:8]])
    hx = np.concatenate([h_prev, x_t], axis=1).T.copy()
    units, batch = _units(p), hx.shape[1]
    c = np.empty((units, batch))
    bias = (-b[:3 * units, None], b[3 * units:, None])      # the sigmoid rows negated
    g = np.empty((4 * units, batch))
    gates = (g, g[:3 * units], *g.reshape(4, units, batch), hx[:units])
    nn.lstm_cell_step(W.T, bias, hx, c_prev.T, gates, c, nn._ops(hx.dtype, 3 * units, batch))
    return hx[:units].T, c.T


class TestLstmCell:
    def test_all_zero(self):
        units, features = 3, 2
        p = _lstm(units, features)
        h, c = _cell(p, np.zeros((1, features)), np.zeros((1, units)), np.zeros((1, units)))
        np.testing.assert_array_equal(h, np.zeros((1, units)))
        np.testing.assert_array_equal(c, np.zeros((1, units)))

    def test_gate_saturation_preserves_cell(self):
        units, features = 3, 2
        p = _lstm(units, features, b_i=np.full(units, -20.0), b_f=np.full(units, 20.0))
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
        h_ref, c_ref = lstm_cell_reference(*(p[name] for name in GATES), x, h0, c0)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12)
        np.testing.assert_allclose(c, c_ref, rtol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        p = _random_lstm(rng, 3, 2)
        with pytest.raises(ValueError):
            _cell(p, np.zeros((1, 5)), np.zeros((1, 3)), np.zeros((1, 3)))


def lstm_seq(p, x: np.ndarray) -> np.ndarray:
    """Head values of the scan over the timesteps of x [batch, timesteps,
    features], as [batch, timesteps]."""
    return nn.lstm_scan(p, x, x.shape[1])[0].T


def _head(p: ParamSet, h: np.ndarray) -> np.ndarray:
    """h proj.W + proj.b [batch] for hidden states h [batch, units]."""
    return (h @ p["proj.W"] + p["proj.b"])[:, 0]


class TestLstmForward:
    def test_single_step_equals_cell(self):
        rng = np.random.default_rng(31)
        p = _random_lstm(rng, 4, 2)
        x = rng.normal(size=(3, 1, 2))
        seq = lstm_seq(p, x)
        h, _ = _cell(p, x[:, 0, :], np.zeros((3, 4)), np.zeros((3, 4)))
        assert rel_err(seq[:, 0], _head(p, h)) <= 1e-12

    def test_three_steps_match_manual_unroll(self):
        rng = np.random.default_rng(32)
        p = _random_lstm(rng, 4, 2)
        x = rng.normal(size=(2, 3, 2))
        seq = lstm_seq(p, x)
        h = np.zeros((2, 4))
        c = np.zeros((2, 4))
        for t in range(3):
            h, c = lstm_cell_reference(*(p[name] for name in GATES), x[:, t, :], h, c)
            assert rel_err(seq[:, t], _head(p, h)) <= 1e-10

    def test_zero_weights_zero_hidden(self):
        # every h is exactly 0, so every head value is exactly proj.b
        p = _lstm(3, 1, W=np.ones((3, 1)), b=np.array([0.5]))
        out = lstm_seq(p, np.ones((2, 5, 1)))
        np.testing.assert_array_equal(out, np.full((2, 5), 0.5))

    def test_gradients_through_time(self):
        rng = np.random.default_rng(33)
        units, features, steps = 4, 2, 5
        p = _random_lstm(rng, units, features)
        x0 = rng.normal(size=(2, steps, features))
        # unequal weights per sample and step; proj.W weighs the units unequally,
        # so swapped gate columns change the gradient
        w = rng.normal(size=(2, steps))
        _, saved = nn.lstm_scan(p, x0, steps, keep=True)
        grads, _ = nn.lstm_vjp(saved, w.T.copy(), weights=True)

        for name in PARAMS:
            param = p[name]
            W0 = param.copy()

            def f(wv):
                param[...] = wv
                out = lstm_seq(p, x0)
                param[...] = W0
                return float((out * w).sum())

            assert rel_err(grads[name], central_diff(f, W0.copy())) < 1e-4, name


# input shape of a critic window [batch, steps, features] and of generator
# noise [batch, features], which is fed at every step
SCAN_INPUTS = {"window": (6, 7, 3), "noise": (6, 3)}


# weight scale x4 drives many gates into saturation, where s (1 - s) and
# 1 - tanh^2 lose relative digits
SCALED_INPUTS = pytest.mark.parametrize("kind,scale", [
    ("window", 1.0), ("noise", 1.0), ("window", 4.0), ("noise", 4.0)],
    ids=["window", "noise", "window-x4", "noise-x4"])


def _scan_case(kind: str, seed: int, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    p = _random_lstm(rng, 5, 3)
    for name in GATES:
        p[name][...] *= scale
    x = rng.normal(size=SCAN_INPUTS[kind])
    w = rng.normal(size=(7, 6))   # unequal weights per step and sample
    return p, x, w


def _scan_grads(p, x0, w):
    """The head values [7, 6] and the gradients of sum(heads * w) with respect
    to x and p's ten tensors, from ``nn.lstm_vjp``."""
    heads, saved = nn.lstm_scan(p, x0, 7, keep=True)
    grads, dx = nn.lstm_vjp(saved, w, weights=True)
    return heads, [dx] + [grads[n] for n in PARAMS]


def _reference_scan_grads(p, x0, w):
    """The same through the primitive composition, on the tape."""
    x = Tensor(x0.copy())
    with Graph() as g:
        heads, leaves = lstm_head_reference(p, x, 7)
        loss = T.reduce("sum", T.mul(heads, Tensor(w.reshape(-1, 1), requires_grad=False)))
    gm = T.backward(g, loss)
    return heads.data.reshape(7, -1), [gm[x]] + [gm[leaves[n]] for n in PARAMS]


def _input_grad(p, x0) -> np.ndarray:
    """grad_x S, S = the head values summed over the batch and averaged over
    the 7 steps, as the critic's summed scores are: the BPTT without weights."""
    _, saved = nn.lstm_scan(p, x0, 7, keep=True)
    return nn.lstm_vjp(saved, np.full((7, x0.shape[0]), 1.0 / 7), weights=False)[1]


def _input_grad_grads(p, x0, v) -> dict[str, np.ndarray]:
    """Gradients of <v, grad_x S> with respect to p's ten tensors:
    ``nn.critic_input_grad_vjp`` for a window, and for noise the same
    complex step, ``nn.lstm_scan`` and ``nn.lstm_vjp`` at x + i h v."""
    if x0.ndim == 3:
        return nn.critic_input_grad_vjp(p, x0, v)
    scale = np.max(np.abs(v)) or 1.0
    _, saved = nn.lstm_scan(p, x0 + 1e-20j * (v / scale), 7, keep=True)
    grads, _ = nn.lstm_vjp(saved, np.full((7, x0.shape[0]), 1.0 / 7), weights=True)
    return {**{name: g * (scale / 1e-20) for name, g in grads.items()}, "proj.b": np.zeros(1)}


def _reference_param_grads(p, x0) -> dict[str, np.ndarray]:
    """grad S with respect to p's ten tensors, through the primitive composition."""
    with Graph() as g:
        heads, leaves = lstm_head_reference(p, Tensor(x0, requires_grad=False), 7)
        s = T.mul(T.reduce("sum", heads), 1.0 / 7)
    gm = T.backward(g, s)
    return {name: gm[leaves[name]] for name in PARAMS}


class TestLstmScan:
    @SCALED_INPUTS
    def test_matches_primitive_composition(self, kind, scale):
        p, x0, w = _scan_case(kind, 41, scale)
        heads, grads = _scan_grads(p, x0, w)
        ref_heads, ref_grads = _reference_scan_grads(p, x0, w)
        assert heads.shape == ref_heads.shape == (7, 6)
        assert rel_err(heads, ref_heads) <= 1e-12
        for name, got, want in zip(("x",) + PARAMS, grads, ref_grads):
            assert got.shape == want.shape, name
            assert rel_err(got, want) <= 1e-12, name
        outside, saved = nn.lstm_scan(p, x0, 7)
        assert np.array_equal(outside, heads) and saved is None

    @SCALED_INPUTS
    def test_gradients_vs_finite_differences(self, kind, scale):
        p, x0, w = _scan_case(kind, 42, scale)
        _, grads = _scan_grads(p, x0, w)

        def f_x(xv):
            return float((nn.lstm_scan(p, xv, 7)[0] * w).sum())

        assert rel_err(grads[0], central_diff(f_x, x0.copy())) < 1e-4
        for name, analytic in zip(PARAMS, grads[1:]):
            param = p[name]
            W0 = param.copy()

            def f(wv):
                param[...] = wv
                val = f_x(x0)
                param[...] = W0
                return val

            assert rel_err(analytic, central_diff(f, W0.copy())) < 1e-4, name

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_bptt_without_weights_gives_the_same_input_gradient(self, kind):
        p, x0, w = _scan_case(kind, 43)
        _, saved = nn.lstm_scan(p, x0, 7, keep=True)
        grads, dx = nn.lstm_vjp(saved, w, weights=False)
        assert grads is None
        assert np.array_equal(dx, nn.lstm_vjp(saved, w, weights=True)[1])

    @SCALED_INPUTS
    def test_second_order_matches_primitive_composition(self, kind, scale):
        # mixed partials commute: the gradient of <v, grad_x S> is the
        # derivative of grad S along v, here by central differences of the
        # primitive composition's first-order gradients
        p, x0, _ = _scan_case(kind, 45, scale)
        v = np.random.default_rng(46).normal(size=x0.shape)
        got = _input_grad_grads(p, x0, v)
        eps = 1e-5
        plus, minus = (_reference_param_grads(p, x0 + sign * eps * v) for sign in (1.0, -1.0))
        for name in PARAMS:
            assert got[name].shape == p[name].shape, name
            assert rel_err(got[name], (plus[name] - minus[name]) / (2.0 * eps)) <= 1e-5, name
        assert np.all(got["proj.b"] == 0.0)

    @SCALED_INPUTS
    def test_second_order_vs_finite_differences(self, kind, scale):
        p, x0, _ = _scan_case(kind, 47, scale)
        v = np.random.default_rng(48).normal(size=x0.shape)
        got = _input_grad_grads(p, x0, v)

        for name in PARAMS[:-1]:             # the gates and proj.W
            param = p[name]
            W0 = param.copy()

            def f_param(wv):
                """<v, grad_x S> from the first-order BPTT alone."""
                param[...] = wv
                val = float((_input_grad(p, x0) * v).sum())
                param[...] = W0
                return val

            assert rel_err(got[name], central_diff(f_param, W0.copy())) < 1e-4, name

    def test_zero_upstream_has_zero_second_order_gradients(self):
        p, x0, _ = _scan_case("noise", 49)
        got = _input_grad_grads(p, x0, np.zeros(x0.shape))
        assert all(not np.any(g) for g in got.values())

    def test_each_backward_pass_runs_its_own_bptt(self):
        # the saved set is read, never written, so it serves any number of
        # BPTT calls, each for its own upstream
        p, x0, w = _scan_case("window", 50)
        _, saved = nn.lstm_scan(p, x0, 7, keep=True)
        ga = nn.lstm_vjp(saved, w, weights=True)[1]
        gb = nn.lstm_vjp(saved, -2.0 * w, weights=True)[1]
        np.testing.assert_allclose(gb, -2.0 * ga, rtol=1e-12)
        assert np.array_equal(nn.lstm_vjp(saved, w, weights=True)[1], ga)

    def test_every_step_calls_the_module_cell_step(self, monkeypatch):
        # benchmarks/spans.py counts LSTM steps by rebinding nn.lstm_cell_step
        p, x0, _ = _scan_case("window", 51)
        calls = []
        step = nn.lstm_cell_step
        monkeypatch.setattr(nn, "lstm_cell_step", lambda *args: calls.append(1) or step(*args))
        nn.lstm_scan(p, x0, 7)
        assert len(calls) == 7
        nn.critic_input_grad_vjp(p, x0, np.ones(x0.shape))      # one complex-step pass
        assert len(calls) == 14

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_noise_steps_multiply_the_hidden_state_alone(self, kind, monkeypatch):
        # noise is the same at every step, so its part W_x^T z is in the bias
        # and a step's hx holds h alone; a window step's holds [h; x_t]
        p, x0, _ = _scan_case(kind, 52)
        rows = []
        step = nn.lstm_cell_step
        monkeypatch.setattr(nn, "lstm_cell_step",
                            lambda *args: rows.append(args[2].shape[0]) or step(*args))
        nn.lstm_scan(p, x0, 7)
        units, features = 5, x0.shape[-1]
        assert rows == [units if kind == "noise" else units + features] * 7

    def test_shape_mismatch(self):
        p, x0, _ = _scan_case("window", 44)
        with pytest.raises(ValueError):
            nn.lstm_scan(p, x0, 6)
        with pytest.raises(ValueError):
            nn.lstm_scan(p, x0[:, :, :2], 7)
        with pytest.raises(ValueError):
            nn.lstm_scan(p, x0[:, 0], 0)

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.float32, np.complex64])
    def test_input_dtype_other_than_float64_or_complex128_is_refused(self, dtype):
        p, x0, _ = _scan_case("window", 45)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            nn.lstm_scan(p, x0.astype(dtype), 7)

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_complex_pass_real_parts_are_the_real_pass_bit_for_bit(self, kind):
        # the complex step's pass at x + 1e-20j v: its real parts, saved gates
        # and cells included, are the real pass's own bits, and so is the real
        # part of its BPTT's input gradient. At the paper's batch of 32: the
        # GEMMs are the BLAS's, and OpenBLAS rounds a column by its place in
        # a tile, so at some batches (1, 2, 4, 6 and 12 among them) the float64
        # view's 2B columns can differ from the real pass's B in the last bit
        rng = np.random.default_rng(53)
        p = _random_lstm(rng, 5, 3)
        x0 = rng.normal(size=(32, 7, 3) if kind == "window" else (32, 3))
        v, w = rng.normal(size=x0.shape), rng.normal(size=(7, 32))
        heads, saved = nn.lstm_scan(p, x0, 7, keep=True)
        heads_c, saved_c = nn.lstm_scan(p, x0 + 1e-20j * v, 7, keep=True)
        assert np.array_equal(heads_c.real, heads)
        assert np.array_equal(saved_c[3].real, saved[3])                # gates
        assert np.array_equal(saved_c[4].real, saved[4])                # cells
        assert np.any(saved_c[3].imag != 0.0)
        dx = nn.lstm_vjp(saved, w, weights=False)[1]
        assert np.array_equal(nn.lstm_vjp(saved_c, w, weights=False)[1].real, dx)

    @pytest.mark.parametrize("kind", list(SCAN_INPUTS))
    def test_gates_past_710_raise_no_warning_and_stay_finite(self, kind):
        # weight scale x1e3: weights within +-100 and biases +-2000 over inputs
        # within +-1 put every gate past +-1200, where exp(-z) overflows on
        # half the sigmoid rows; the scan silences that, and the window, noise,
        # BPTT and complex-step paths all return finite values
        rng = np.random.default_rng(57)
        p, _, w = _scan_case(kind, 57)
        for name in GATES:
            shape = p[name].shape
            p[name][...] = 1e3 * (rng.uniform(-0.1, 0.1, shape) if name.startswith("lstm.W")
                                  else 2.0 * rng.choice([-1.0, 1.0], shape))
        x0 = rng.uniform(-1.0, 1.0, SCAN_INPUTS[kind])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            heads, saved = nn.lstm_scan(p, x0, 7, keep=True)
            grads, dx = nn.lstm_vjp(saved, w, weights=True)
            outs = [heads, dx, *grads.values()]
            if kind == "window":
                outs += nn.critic_input_grad_vjp(p, x0, w.T[:, :, None] * x0).values()
        gates = saved[3]
        assert np.all(np.isin(gates[:, :15], (0.0, 1.0))) and np.any(gates[:, :15] == 0.0)
        assert np.all(np.isin(gates[:, 15:], (-1.0, 1.0)))
        assert all(np.all(np.isfinite(a)) for a in outs)

    def test_nan_input_gives_nan_heads_and_the_scan_silences_overflow_alone(self, monkeypatch):
        p, x0, _ = _scan_case("window", 58)
        x0[2, 3, 1] = np.nan
        modes = []
        step = nn.lstm_cell_step
        monkeypatch.setattr(nn, "lstm_cell_step",
                            lambda *args: modes.append(np.geterr()) or step(*args))
        heads = nn.lstm_scan(p, x0, 7)[0]
        assert np.all(np.isnan(heads[3:, 2]))
        assert np.all(np.isfinite(heads[:3])) and np.all(np.isfinite(np.delete(heads, 2, 1)))
        assert modes == [{**np.geterr(), "over": "ignore"}] * 7


class TestGenerator:
    def test_output_shape_and_range(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
        gen = nn.init_params(spec, "generator", 42)
        z = np.random.default_rng(0).standard_normal((32, 25))
        out, saved = nn.generator_forward(gen, z)
        assert out.shape == (32, 50, 1) and saved is None
        assert np.all(out > -1.0) and np.all(out < 1.0)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_shape_contract_any_batch(self, batch):
        gen = nn.init_params(SMALL, "generator", 3)
        z = np.random.default_rng(batch).standard_normal((batch, SMALL.noise_len))
        out, _ = nn.generator_forward(gen, z)
        assert out.shape == (batch, SMALL.seq_len, 1)

    def test_deterministic(self):
        gen = nn.init_params(SMALL, "generator", 4)
        z = np.random.default_rng(9).standard_normal((3, SMALL.noise_len))
        a = nn.generator_forward(gen, z)[0]
        b = nn.generator_forward(gen, z, keep=True)[0]
        assert np.array_equal(a, b)

    def test_bad_noise_shape(self):
        gen = nn.init_params(SMALL, "generator", 4)
        with pytest.raises(ValueError):
            nn.generator_forward(gen, np.zeros((2, 7)))


class TestCritic:
    def test_output_shape(self):
        spec = ArchitectureSpec(noise_len=25, seq_len=50, features=1, lstm_units=50)
        critic = nn.init_params(spec, "critic", 8)
        x = np.random.default_rng(1).standard_normal((32, 50, 1)) * 0.1
        out, saved = nn.critic_forward(critic, x)
        assert out.shape == (32,) and saved is None

    def test_zero_parameters_zero_scores(self):
        critic = nn.init_params(SMALL, "critic", 0)
        for k in critic:
            critic[k][...] = 0.0
        x = np.random.default_rng(2).standard_normal((4, SMALL.seq_len, 1))
        np.testing.assert_array_equal(nn.critic_forward(critic, x)[0], np.zeros(4))

    def test_scores_unbounded_smoke(self):
        # random params/inputs eventually score outside [0, 1]
        rng = np.random.default_rng(3)
        found = False
        for seed in range(40):
            critic = nn.init_params(SMALL, "critic", seed)
            for k in critic:
                if k.startswith("lstm.W") or k == "proj.W":
                    critic[k][...] *= 4.0
            x = rng.standard_normal((8, SMALL.seq_len, 1))
            s = nn.critic_forward(critic, x)[0]
            if np.any((s < 0.0) | (s > 1.0)):
                found = True
                break
        assert found

    def test_bad_input_rank(self):
        critic = nn.init_params(SMALL, "critic", 8)
        with pytest.raises(ValueError):
            nn.critic_forward(critic, np.zeros((4, 6)))
        with pytest.raises(ValueError):
            nn.critic_forward(critic, np.zeros((2, 0, 1)))


def _scaled(kind: str, seed: int, scale: float) -> ParamSet:
    """SMALL's network of ``kind`` with its gate weights and proj.W times ``scale``."""
    p = nn.init_params(SMALL, kind, seed)
    for name in p:
        if name.startswith("lstm.W") or name == "proj.W":
            p[name][...] *= scale
    return p


def _reference_critic_scores(d: ParamSet, x: Tensor) -> tuple[Tensor, dict[str, Tensor]]:
    """The critic's scores [batch] on the tape: the time mean of the primitive
    composition's head values; and d's arrays as its leaves."""
    batch, steps, _ = x.shape
    heads, leaves = lstm_head_reference(d, x, steps)
    return T.reduce("mean", reshape(heads, (steps, batch)), axis=0), leaves


def _reference_generator(g: ParamSet, z: Tensor) -> tuple[Tensor, dict[str, Tensor]]:
    """The generator's windows [batch, seq_len, 1] on the tape, and g's
    arrays as its leaves."""
    steps, batch = g.arch.seq_len, z.shape[0]
    heads, leaves = lstm_head_reference(g, z, steps)
    return transpose(reshape(tanh(heads), (steps, batch, 1)), (1, 0, 2)), leaves


def _param_fd(p: ParamSet, f) -> dict[str, np.ndarray]:
    """Central differences of the scalar f() with respect to each of p's tensors."""
    out = {}
    for name in p:
        param = p[name]
        w0 = param.copy()

        def f_param(wv):
            param[...] = wv
            val = f()
            param[...] = w0
            return val

        out[name] = central_diff(f_param, w0.copy())
    return out


SCALES = pytest.mark.parametrize("scale", [1.0, 4.0], ids=["x1", "x4"])


class TestNetworkBackward:
    """``critic_backward`` and ``generator_backward`` against the tape oracle
    and central differences, for a weighted sum of the network's outputs.

    Against the oracle, entries under 1e-5 compare absolutely: at weights x4
    one generator entry near-cancels to 1.0e-6 from per-step terms of about
    1e-1, and the two summation orders differ there by 2.8e-18, 2.8e-12 of
    the entry itself."""

    @SCALES
    def test_critic_backward_matches_tape_oracle(self, scale):
        critic = _scaled("critic", 61, scale)
        rng = np.random.default_rng(62)
        x0, ds = rng.normal(size=(5, SMALL.seq_len, 1)), rng.normal(size=5)
        scores, saved = nn.critic_forward(critic, x0, keep=True)
        grads, dx = nn.critic_backward(saved, ds, weights=True)
        x = Tensor(x0.copy())
        with Graph() as g:
            ref, leaves = _reference_critic_scores(critic, x)
            loss = T.reduce("sum", T.mul(ref, Tensor(ds, requires_grad=False)))
        gm = T.backward(g, loss)
        assert rel_err(scores, ref.data) <= 1e-12
        assert rel_err(dx, gm[x]) <= 1e-12
        assert sorted(grads) == sorted(critic)
        for name in critic:
            assert rel_err(grads[name], gm[leaves[name]], floor=1e-5) <= 1e-12, name
        assert nn.critic_backward(saved, ds, weights=False)[0] is None

    @SCALES
    def test_critic_backward_vs_finite_differences(self, scale):
        critic = _scaled("critic", 63, scale)
        rng = np.random.default_rng(64)
        x0, ds = rng.normal(size=(3, SMALL.seq_len, 1)), rng.normal(size=3)
        _, saved = nn.critic_forward(critic, x0, keep=True)
        grads, dx = nn.critic_backward(saved, ds, weights=True)

        def f(x=x0) -> float:
            return float(nn.critic_forward(critic, x)[0] @ ds)

        assert rel_err(dx, central_diff(f, x0.copy())) < 1e-4
        for name, fd in _param_fd(critic, f).items():
            assert rel_err(grads[name], fd) < 1e-4, name

    @SCALES
    def test_generator_backward_matches_tape_oracle(self, scale):
        gen = _scaled("generator", 65, scale)
        rng = np.random.default_rng(66)
        z, dy = rng.normal(size=(5, SMALL.noise_len)), rng.normal(size=(5, SMALL.seq_len, 1))
        y, saved = nn.generator_forward(gen, z, keep=True)
        grads = nn.generator_backward(saved, dy)
        with Graph() as g:
            ref, leaves = _reference_generator(gen, Tensor(z, requires_grad=False))
            loss = T.reduce("sum", T.mul(ref, Tensor(dy, requires_grad=False)))
        gm = T.backward(g, loss)
        assert rel_err(y, ref.data) <= 1e-12
        assert sorted(grads) == sorted(gen)
        for name in gen:
            assert rel_err(grads[name], gm[leaves[name]], floor=1e-5) <= 1e-12, name

    @SCALES
    def test_generator_backward_vs_finite_differences(self, scale):
        gen = _scaled("generator", 67, scale)
        rng = np.random.default_rng(68)
        z, dy = rng.normal(size=(3, SMALL.noise_len)), rng.normal(size=(3, SMALL.seq_len, 1))
        _, saved = nn.generator_forward(gen, z, keep=True)
        grads = nn.generator_backward(saved, dy)
        fd = _param_fd(gen, lambda: float((nn.generator_forward(gen, z)[0] * dy).sum()))
        for name in gen:
            assert rel_err(grads[name], fd[name]) < 1e-4, name


class TestEndToEnd:
    def test_full_chain_gradients_vs_finite_differences(self):
        """grad of mean(critic(generator(z))) w.r.t. every generator
        parameter matches central differences on the reduced spec."""
        gen = nn.init_params(SMALL, "generator", 11)
        critic = nn.init_params(SMALL, "critic", 12)
        z0 = np.random.default_rng(13).standard_normal((2, SMALL.noise_len))

        def loss_value() -> float:
            return float(np.mean(nn.critic_forward(critic, nn.generator_forward(gen, z0)[0])[0]))

        # as gan.generator_gradients does: the critic's BPTT without weights
        fake, gen_saved = nn.generator_forward(gen, z0, keep=True)
        _, critic_saved = nn.critic_forward(critic, fake, keep=True)
        _, dx = nn.critic_backward(critic_saved, np.full(2, 0.5), weights=False)
        analytic = nn.generator_backward(gen_saved, dx)

        vec0 = _flatten_params(gen)

        def f(vec):
            _set_params(gen, vec)
            val = loss_value()
            _set_params(gen, vec0)
            return val

        fd = central_diff(f, vec0.copy())
        flat_analytic = np.concatenate([analytic[k].reshape(-1) for k in gen])
        assert rel_err(flat_analytic, fd) < 1e-4

    def test_frozen_network_params_unchanged_and_zero_grads(self):
        # the generator step's critic BPTT takes no weight gradient, and it
        # leaves the critic's tensors as they were
        gen = nn.init_params(SMALL, "generator", 21)
        critic = nn.init_params(SMALL, "critic", 22)
        z0 = np.random.default_rng(23).standard_normal((2, SMALL.noise_len))
        before = {k: critic[k].copy() for k in critic}
        fake, gen_saved = nn.generator_forward(gen, z0, keep=True)
        _, critic_saved = nn.critic_forward(critic, fake, keep=True)
        critic_grads, dx = nn.critic_backward(critic_saved, np.full(2, -0.5), weights=False)
        grads = nn.generator_backward(gen_saved, dx)
        assert critic_grads is None
        for k, t in critic.items():
            assert np.array_equal(t, before[k])
        assert any(np.any(g != 0.0) for g in grads.values())
