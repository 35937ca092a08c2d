"""RMSprop arithmetic and the clipping rule."""

import numpy as np
import pytest

from tsforge.gan import TrainConfig
from tsforge.nn import ArchitectureSpec, ParamSet, init_params
from tsforge.optim import RmspropState, clip_weights, rmsprop_step

# the paper's learning rate and the standard decay and epsilon, TrainConfig's defaults
DEFAULTS = (0.00005, 0.9, 1e-8)


def _tiny_params(values: dict[str, np.ndarray]) -> ParamSet:
    return ParamSet("critic", {k: np.asarray(v, dtype=np.float64) for k, v in values.items()},
                    ArchitectureSpec())


class TestRmsprop:
    def test_zero_gradient_leaves_params(self):
        ps = _tiny_params({"w": [1.0, -2.0]})
        st = RmspropState(cache={"w": np.array([0.5, 0.5])})
        rmsprop_step(ps, {"w": np.zeros(2)}, st, *DEFAULTS)
        np.testing.assert_array_equal(ps["w"], [1.0, -2.0])
        # cache decays toward zero
        np.testing.assert_allclose(st.cache["w"], [0.45, 0.45])

    def test_first_step_analytic(self):
        # g=1, lr=0.001, rho=0.9, eps->0: cache=0.1, update=0.001/sqrt(0.1)
        ps = _tiny_params({"w": [0.0]})
        rmsprop_step(ps, {"w": np.ones(1)}, RmspropState(), 0.001, 0.9, 1e-300)
        assert ps["w"][0] == pytest.approx(-0.001 / np.sqrt(0.1), rel=1e-9)

    def test_steady_state_step_size(self):
        # constant gradient: cache -> g^2, step size -> lr within 1% after 200 steps
        ps = _tiny_params({"w": [0.0]})
        st = RmspropState()
        g = np.array([3.0])
        prev = ps["w"].copy()
        for _ in range(200):
            prev = ps["w"].copy()
            rmsprop_step(ps, {"w": g}, st, 0.01, 0.9, 1e-300)
        last_step = abs(ps["w"][0] - prev[0])
        assert last_step == pytest.approx(0.01, rel=0.01)
        assert st.cache["w"][0] == pytest.approx(9.0, rel=0.01)

    def test_missing_gradient_rejected(self):
        ps = _tiny_params({"w": [0.0], "b": [0.0]})
        with pytest.raises(KeyError):
            rmsprop_step(ps, {"w": np.zeros(1)}, RmspropState(), *DEFAULTS)

    def test_independent_of_naming_order(self):
        rng = np.random.default_rng(0)
        w1, w2 = rng.normal(size=3), rng.normal(size=3)
        g1, g2 = rng.normal(size=3), rng.normal(size=3)
        a = _tiny_params({"x": w1.copy(), "y": w2.copy()})
        b = _tiny_params({"y": w2.copy(), "x": w1.copy()})
        rmsprop_step(a, {"x": g1, "y": g2}, RmspropState(), *DEFAULTS)
        rmsprop_step(b, {"x": g1, "y": g2}, RmspropState(), *DEFAULTS)
        np.testing.assert_array_equal(a["x"], b["x"])
        np.testing.assert_array_equal(a["y"], b["y"])

    def test_no_nan_from_finite_inputs(self):
        ps = _tiny_params({"w": [1e300, -1e300, 0.0]})
        g = np.array([1e150, -1e150, 1e-300])
        st = RmspropState()
        for _ in range(5):
            rmsprop_step(ps, {"w": g}, st, *DEFAULTS)
        assert np.all(np.isfinite(ps["w"]))

    def test_update_opposes_gradient_sign(self):
        rng = np.random.default_rng(1)
        ps = _tiny_params({"w": rng.normal(size=8)})
        st = RmspropState()
        g = rng.normal(size=8)
        before = ps["w"].copy()
        rmsprop_step(ps, {"w": g}, st, 0.01, 0.9, 1e-8)
        moved = ps["w"] - before
        nz = g != 0
        assert np.all(np.sign(moved[nz]) == -np.sign(g[nz]))

    def test_shape_mismatch_rejected(self):
        ps = _tiny_params({"w": [0.0, 0.0]})
        with pytest.raises(ValueError):
            rmsprop_step(ps, {"w": np.zeros(3)}, RmspropState(), *DEFAULTS)

    def test_config_validation(self):
        # the optimizer's hyperparameters are TrainConfig fields, checked there
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.rho, cfg.epsilon) == DEFAULTS
        for bad in ({"learning_rate": 0.0}, {"rho": 1.0}, {"epsilon": 0.0},
                    {"learning_rate": np.nan}, {"epsilon": np.inf}, {"clip_c": -1.0},
                    {"clip_c": np.nan}, {"rho": np.nan}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)


class TestClipping:
    def test_within_bounds_unchanged(self):
        ps = _tiny_params({"w": [0.005, -0.003]})
        clip_weights(ps, 0.01)
        np.testing.assert_array_equal(ps["w"], [0.005, -0.003])

    def test_clamps_both_sides(self):
        ps = _tiny_params({"w": [2.0, -5.0]})
        clip_weights(ps, 0.01)
        np.testing.assert_array_equal(ps["w"], [0.01, -0.01])

    def test_exact_bound_after_clip(self):
        rng = np.random.default_rng(2)
        spec = ArchitectureSpec(noise_len=3, seq_len=4, features=1, lstm_units=3)
        ps = init_params(spec, "critic", 3)
        for k in ps:
            ps[k][...] *= 100.0
        clip_weights(ps, 0.01)
        assert max(np.max(np.abs(t)) for _, t in ps.items()) <= 0.01

    def test_nonpositive_constant_rejected(self):
        ps = _tiny_params({"w": [0.0]})
        with pytest.raises(ValueError):
            clip_weights(ps, 0.0)
