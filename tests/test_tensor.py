"""Autodiff engine: forward values, backward rules, second order."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsforge import tensor as T
from tsforge.tensor import Graph, Tensor

from oracles import central_diff, rel_err


def scalar_backward(build, x: np.ndarray) -> np.ndarray:
    """Gradient of build(tensor)->scalar tensor at x via the engine."""
    with Graph() as g:
        xt = Tensor(np.asarray(x, dtype=np.float64))
        out = build(xt)
        return T.backward(g, out)[xt].data.copy()


class TestConstruction:
    def test_constant_identity(self):
        t = T.constant([2], [1, 2])
        assert t.shape == (2,)
        np.testing.assert_array_equal(t.data, [1.0, 2.0])

    def test_constant_scalar(self):
        t = T.constant([], [5])
        assert t.shape == ()
        assert t.item() == 5.0

    def test_constant_length_mismatch(self):
        with pytest.raises(ValueError):
            T.constant([2, 2], [1, 2, 3])

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_constant_is_graph_free(self):
        t = T.constant([2], [1, 2])
        assert t.graph is None and t.node_id is None


class TestElementwise:
    def test_add(self):
        out = T.add(T.constant([2], [1, 2]), T.constant([2], [3, 4]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zero_scalar(self):
        out = T.mul(T.constant([2], [2, 3]), T.constant([], [0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_square_backward(self):
        g = scalar_backward(lambda x: T.square(x), np.asarray(3.0))
        assert g == pytest.approx(6.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.add(T.constant([2], [1, 2]), T.constant([3], [1, 2, 3]))

    def test_div_by_exact_zero(self):
        with pytest.raises(ValueError):
            T.div(T.constant([2], [1, 2]), T.constant([2], [1, 0]))

    def test_log_of_nonpositive(self):
        with pytest.raises(ValueError):
            T.log(T.constant([2], [1, -1]))

    def test_sqrt_of_negative(self):
        with pytest.raises(ValueError):
            T.sqrt(T.constant([1], [-4]))

    def test_scalar_broadcast_gradient(self):
        # d/ds sum(x * s) = sum(x)
        x = np.array([1.0, 2.0, 3.0])
        with Graph() as g:
            s = Tensor(np.asarray(2.0))
            out = T.reduce("sum", T.mul(Tensor(x), s))
            gs = T.backward(g, out)[s]
        assert gs.shape == ()
        assert gs.item() == pytest.approx(6.0)


class TestActivations:
    def test_tanh_zero(self):
        g = scalar_backward(lambda x: T.tanh(x), np.asarray(0.0))
        assert g == pytest.approx(1.0)
        assert T.tanh(T.constant([], [0])).item() == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.constant([], [0])).item() == pytest.approx(0.5)

    def test_relu_negative(self):
        out = T.relu(T.constant([], [-2]))
        assert out.item() == 0.0
        g = scalar_backward(lambda x: T.relu(x), np.asarray(-2.0))
        assert g == 0.0

    def test_relu_at_zero_convention(self):
        g = scalar_backward(lambda x: T.relu(x), np.asarray(0.0))
        assert g == 0.0

    def test_sigmoid_extreme_saturation_is_finite(self):
        out = T.sigmoid(T.constant([2], [-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-300)
        assert out.data[1] == pytest.approx(1.0)

    SPECIAL = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 40.0, -40.0, 745.0, -745.0,
               800.0, -800.0, np.inf, -np.inf, np.nan)

    @staticmethod
    def two_branch_sigmoid(x) -> np.ndarray:
        """Masked reference: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
        flat = np.asarray(x, dtype=np.float64).reshape(-1)
        out = np.empty_like(flat)
        pos = flat >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
        ex = np.exp(flat[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out.reshape(np.shape(x))

    @staticmethod
    def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
        # NaN stays NaN; the sign bit of a NaN is not part of the contract
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_sigmoid_matches_two_branch_formula_bit_for_bit(self):
        rng = np.random.default_rng(31)
        inputs = [np.array(self.SPECIAL), np.linspace(-800.0, 800.0, 20001),
                  rng.normal(size=(64, 150)) * 10.0, rng.normal(size=(3, 7, 5)) * 300.0,
                  rng.standard_cauchy(size=4096)]
        inputs += [np.asarray(v) for v in self.SPECIAL]   # rank 0
        for x in inputs:
            got = T.sigmoid(Tensor(x)).data
            self.assert_same_bits(got, self.two_branch_sigmoid(x))
            assert got.ndim == x.ndim

    def test_sigmoid_raises_no_floating_point_error_on_finite_inputs(self):
        finite = [v for v in self.SPECIAL if np.isfinite(v)]
        x = np.concatenate([finite, [np.finfo(np.float64).max, -np.finfo(np.float64).max],
                            np.logspace(-300, 308, 609), -np.logspace(-300, 308, 609),
                            np.random.default_rng(32).normal(size=1000) * 1e3])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = T.sigmoid(Tensor(x)).data
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestMatmul:
    def test_identity(self):
        I = T.constant([2, 2], [1, 0, 0, 1])
        A = T.constant([2, 2], [1, 2, 3, 4])
        np.testing.assert_array_equal(T.matmul(I, A).data, [[1, 2], [3, 4]])

    def test_dot_product(self):
        a = T.constant([1, 2], [1, 2])
        b = T.constant([2, 1], [3, 4])
        assert T.matmul(a, b).data[0, 0] == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(T.constant([2, 3], np.zeros(6)), T.constant([2, 3], np.zeros(6)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(4, 2))
        ga = scalar_backward(lambda x: T.reduce("sum", T.matmul(x, Tensor(B))), A)
        fd = central_diff(lambda x: float((x @ B).sum()), A)
        assert rel_err(ga, fd) < 1e-6


class TestReduce:
    def test_mean(self):
        assert T.reduce("mean", T.constant([3], [1, 2, 3])).item() == 2.0

    def test_sum_axis(self):
        out = T.reduce("sum", T.constant([2, 2], [1, 2, 3, 4]), axis=0)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean_gradient_is_uniform(self):
        g = scalar_backward(lambda x: T.reduce("mean", x), np.arange(4.0))
        np.testing.assert_allclose(g, 0.25)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            T.reduce("sum", T.constant([2], [1, 2]), axis=1)


class TestL2Norm:
    def test_three_four_five(self):
        assert T.l2_norm(T.constant([2], [3, 4])).item() == pytest.approx(5.0)

    def test_origin_guarded(self):
        with Graph() as g:
            x = Tensor(np.zeros(2))
            out = T.l2_norm(x)
            gm = T.backward(g, out)
        assert out.item() == 0.0
        np.testing.assert_array_equal(gm[x].data, [0.0, 0.0])

    def test_gradient_direction(self):
        g = scalar_backward(lambda x: T.l2_norm(x), np.array([3.0, 4.0]))
        np.testing.assert_allclose(g, [0.6, 0.8])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            T.l2_norm(Tensor(np.zeros(0)))


class TestStructural:
    def test_reshape_row_major(self):
        out = T.reshape(T.constant([2, 3], [1, 2, 3, 4, 5, 6]), (3, 2))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4], [5, 6]])

    def test_concat(self):
        out = T.concat([T.constant([1], [1]), T.constant([1], [2])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_slice_backward_scatters(self):
        with Graph() as g:
            x = Tensor(np.arange(6.0))
            out = T.reduce("sum", T.slice_(x, 0, 2, 4))
            gm = T.backward(g, out)
        np.testing.assert_array_equal(gm[x].data, [0, 0, 1, 1, 0, 0])

    def test_stack_and_transpose_roundtrip(self):
        a = T.constant([2], [1, 2])
        b = T.constant([2], [3, 4])
        s = T.stack([a, b], axis=0)
        np.testing.assert_array_equal(s.data, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(T.transpose(s).data, [[1, 3], [2, 4]])

    def test_reshape_bad_size(self):
        with pytest.raises(ValueError):
            T.reshape(T.constant([2], [1, 2]), (3,))


class TestBackward:
    def test_product_gradients(self):
        with Graph() as g:
            x = Tensor(np.asarray(2.0))
            y = Tensor(np.asarray(5.0))
            gm = T.backward(g, T.mul(x, y))
        assert gm[x].item() == 5.0
        assert gm[y].item() == 2.0

    def test_non_scalar_output_rejected(self):
        with Graph() as g:
            x = Tensor(np.zeros(3))
            out = T.square(x)
            with pytest.raises(ValueError):
                T.backward(g, out)

    def test_output_from_other_graph_rejected(self):
        with Graph():
            x = Tensor(np.asarray(1.0))
            out = T.square(x)
        with pytest.raises(ValueError):
            T.backward(Graph(), out)

    def test_unreachable_node_gets_exact_zero(self):
        with Graph() as g:
            x = Tensor(np.asarray(2.0))
            y = Tensor(np.asarray(3.0))
            _dead = T.square(y)
            gm = T.backward(g, T.square(x))
        assert gm[y].item() == 0.0
        assert gm[_dead].item() == 0.0

    def test_linearity_of_differentiation(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=4)

        def g1(x):
            return T.reduce("sum", T.square(x))

        def g2(x):
            return T.reduce("sum", T.exp(T.mul(x, 0.3)))

        ga = scalar_backward(lambda x: T.add(g1(x), g2(x)), x0)
        gb = scalar_backward(g1, x0) + scalar_backward(g2, x0)
        np.testing.assert_allclose(ga, gb, rtol=1e-12)

    def test_replay_determinism(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(3, 3))

        def run():
            with Graph() as g:
                x = Tensor(x0.copy())
                out = T.reduce("mean", T.tanh(T.matmul(x, x)))
                gm = T.backward(g, out)
                return out.data.copy(), gm[x].data.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert np.array_equal(o1, o2) and np.array_equal(g1, g2)

    def test_frozen_leaf_receives_zero(self):
        with Graph() as g:
            x = Tensor(np.asarray(3.0))
            w = Tensor(np.asarray(2.0), requires_grad=False)
            gm = T.backward(g, T.mul(x, w))
        assert gm[w].item() == 0.0
        assert gm[x].item() == 2.0


_UNARY_CASES = [
    ("square", T.square, (-2.0, 2.0)),
    ("sqrt", T.sqrt, (0.5, 3.0)),
    ("exp", T.exp, (-1.5, 1.5)),
    ("log", T.log, (0.5, 3.0)),
    ("negate", T.negate, (-2.0, 2.0)),
    ("tanh", T.tanh, (-2.0, 2.0)),
    ("sigmoid", T.sigmoid, (-2.0, 2.0)),
    ("relu", relu_shifted := (lambda x: T.relu(x)), (0.5, 2.0)),  # away from the kink
]


class TestGradientOracle:
    """Analytic vs central finite differences, 100 random inputs per op."""

    @pytest.mark.parametrize("name,op,rng_range", _UNARY_CASES, ids=[c[0] for c in _UNARY_CASES])
    def test_unary_ops(self, name, op, rng_range):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        lo, hi = rng_range
        for _ in range(100):
            x = rng.uniform(lo, hi, size=rng.integers(1, 7))
            ga = scalar_backward(lambda t: T.reduce("sum", op(t)), x)

            def f(v):
                return float(op(Tensor(v)).data.sum())

            assert rel_err(ga, central_diff(f, x)) < 1e-4

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div], ids=lambda op: op.__name__)
    def test_binary_ops(self, op):
        rng = np.random.default_rng(zlib.crc32(op.__name__.encode()))
        for _ in range(100):
            n = int(rng.integers(1, 7))
            x = rng.uniform(-2, 2, size=n)
            y = rng.uniform(0.5, 2.5, size=n)  # away from div-by-zero

            def f_graph(t):
                return T.reduce("sum", op(t, Tensor(y)))

            ga = scalar_backward(f_graph, x)
            fd = central_diff(lambda v: float(
                op(Tensor(v), Tensor(y)).data.sum()), x)
            assert rel_err(ga, fd) < 1e-4

    def test_matmul_many(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            m, k, n = rng.integers(1, 5, size=3)
            A = rng.normal(size=(m, k))
            B = rng.normal(size=(k, n))
            ga = scalar_backward(lambda t: T.reduce("sum", T.matmul(t, Tensor(B))), A)
            fd = central_diff(lambda v: float((v @ B).sum()), A)
            assert rel_err(ga, fd) < 1e-4

    def test_structural_ops(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = rng.normal(size=(3, 4))

            def f_graph(t):
                a = T.reshape(t, (4, 3))
                b = T.transpose(a)
                c = T.slice_(b, 1, 1, 3)
                d = T.concat([c, c], axis=0)
                return T.reduce("sum", T.square(d))

            def f_plain(v):
                a = v.reshape(4, 3)
                b = a.T
                c = b[:, 1:3]
                d = np.concatenate([c, c], axis=0)
                return float((d * d).sum())

            assert rel_err(scalar_backward(f_graph, x), central_diff(f_plain, x)) < 1e-4

    def test_l2_norm_many(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(2, 8))) + 0.1
            ga = scalar_backward(lambda t: T.l2_norm(t), x)
            fd = central_diff(lambda v: float(np.sqrt((v * v).sum())), x)
            assert rel_err(ga, fd) < 1e-4

    def test_reduce_many(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            x = rng.normal(size=(3, 4))
            axis = int(rng.integers(0, 2))
            ga = scalar_backward(
                lambda t: T.reduce("sum", T.square(T.reduce("mean", t, axis=axis))), x)
            fd = central_diff(
                lambda v: float((v.mean(axis=axis) ** 2).sum()), x)
            assert rel_err(ga, fd) < 1e-4

    def test_add_row_many(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            n, k = (int(v) for v in rng.integers(1, 5, size=2))
            x, b, w = rng.normal(size=(n, k)), rng.normal(size=k), rng.normal(size=(n, k))

            def f_graph(xt, bt):
                return T.reduce("sum", T.mul(T.square(T.add_row(xt, bt)), Tensor(w)))

            def f_plain(xv, bv):
                return float((w * (xv + bv) ** 2).sum())

            with Graph() as g:
                xt, bt = Tensor(x), Tensor(b)
                gm = T.backward(g, f_graph(xt, bt))
            assert rel_err(gm[xt].data, central_diff(lambda v: f_plain(v, b), x)) < 1e-4
            assert rel_err(gm[bt].data, central_diff(lambda v: f_plain(x, v), b)) < 1e-4

    def test_add_row_shape_mismatch(self):
        for x, b in ((np.zeros((2, 3)), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                     (np.zeros((2, 3)), np.zeros((1, 3)))):
            with pytest.raises(ValueError):
                T.add_row(Tensor(x), Tensor(b))


class TestSecondOrder:
    def test_cubic(self):
        # f(x)=x^3: d/dx(df/dx) = 6x, at x=2 -> 12
        with Graph() as g:
            x = Tensor(np.asarray(2.0))
            y = x * x * x
            dy = T.grad(y, x, g)
            gm = T.backward(g, dy)
        assert gm[x].item() == pytest.approx(12.0)

    def test_unit_norm_gradient_penalty_is_flat(self):
        # f(x)=||x||: ||grad f|| = 1 away from 0, so (||grad f||-1)^2 == 0
        with Graph() as g:
            x = Tensor(np.array([3.0, 4.0]))
            y = T.l2_norm(x)
            gx = T.grad(y, x, g)
            pen = T.square(T.sub(T.l2_norm(gx), 1.0))
        assert pen.item() == pytest.approx(0.0, abs=1e-12)

    def test_second_order_vs_finite_differences(self):
        # f(w) = (||grad_x (w * sum(x))|| - 1)^2 with fixed x
        xv = np.array([1.0, -2.0, 0.5])

        def penalty(wv: float) -> float:
            with Graph() as g:
                w = Tensor(np.asarray(wv))
                x = Tensor(xv)
                y = T.reduce("sum", T.mul(x, w))
                gx = T.grad(y, x, g)
                return T.square(T.sub(T.l2_norm(gx), 1.0)).item()

        for wv in (0.7, 1.3, -0.4):
            with Graph() as g:
                w = Tensor(np.asarray(wv))
                x = Tensor(xv)
                y = T.reduce("sum", T.mul(x, w))
                gx = T.grad(y, x, g)
                pen = T.square(T.sub(T.l2_norm(gx), 1.0))
                analytic = T.backward(g, pen)[w].item()
            h = 1e-6
            fd = (penalty(wv + h) - penalty(wv - h)) / (2 * h)
            assert rel_err(analytic, fd) < 1e-6

    def test_add_row_second_order_vs_finite_differences(self):
        # pen(x, b) = ||d/dx L||^2 + ||d/db L||^2 with L = sum(w * tanh(x + b))
        rng = np.random.default_rng(67)
        x0, b0, w = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(3, 4))

        def penalty(xt, bt, g):
            loss = T.reduce("sum", T.mul(T.tanh(T.add_row(xt, bt)), Tensor(w)))
            gx, gb = T.grad(loss, xt, g), T.grad(loss, bt, g)
            return T.add(T.reduce("sum", T.square(gx)), T.reduce("sum", T.square(gb)))

        def value(xv, bv) -> float:
            with Graph() as g:
                return penalty(Tensor(xv), Tensor(bv), g).item()

        with Graph() as g:
            xt, bt = Tensor(x0), Tensor(b0)
            gm = T.backward(g, penalty(xt, bt, g))
        assert rel_err(gm[xt].data, central_diff(lambda v: value(v, b0), x0)) < 1e-5
        assert rel_err(gm[bt].data, central_diff(lambda v: value(x0, v), b0)) < 1e-5

    def test_backward_outside_the_graph_block_records_nothing(self):
        g = Graph()
        with g:
            x = Tensor(np.array([1.0, 2.0]))
            y = T.reduce("sum", T.square(x))
        n = len(g)
        assert T.backward(g, y)[x].data.tolist() == [2.0, 4.0]
        assert len(g) == n
        with Graph() as other:
            assert T.backward(g, y)[x].data.tolist() == [2.0, 4.0]
        assert len(other) == 0 and len(g) == n
        with g:
            T.backward(g, y)
        assert len(g) > n


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=6),
       st.lists(st.floats(-3, 3), min_size=1, max_size=6))
def test_add_commutes(a, b):
    n = min(len(a), len(b))
    x = T.constant([n], a[:n])
    y = T.constant([n], b[:n])
    np.testing.assert_array_equal(T.add(x, y).data, T.add(y, x).data)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=8))
def test_sum_linearity_property(vals):
    x = np.array(vals)
    g1 = scalar_backward(lambda t: T.reduce("sum", T.mul(t, 3.0)), x)
    g2 = scalar_backward(lambda t: T.mul(T.reduce("sum", t), 3.0), x)
    np.testing.assert_allclose(g1, g2, atol=1e-12)
