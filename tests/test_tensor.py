"""Autodiff engine: forward values and first-order backward rules."""

import ast
import inspect
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsforge import nn
from tsforge import tensor as T
from tsforge.tensor import Graph, Tensor

from oracles import (add, add_row, central_diff, concat, matmul, rel_err, reshape, slice_,
                     tanh, transpose)


def scalar_backward(build, x: np.ndarray) -> np.ndarray:
    """Gradient of build(tensor)->scalar tensor at x via the engine."""
    with Graph() as g:
        xt = Tensor(np.asarray(x, dtype=np.float64))
        out = build(xt)
        return T.backward(g, out)[xt].copy()


def vec(*values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64))


def test_every_public_function_has_a_caller_in_src():
    """``tsforge.tensor`` holds only what ``src/`` records or runs; the
    primitives that only the tests record live in ``tests/oracles.py``."""
    used = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "T"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "tensor":
                used.update(alias.name for alias in node.names)
    public = {name for name, f in vars(T).items() if inspect.isfunction(f)
              and f.__module__ == T.__name__ and not name.startswith("_")}
    assert public and sorted(public - used) == []



def test_every_module_level_definition_is_named_in_src():
    """No code in ``src/`` serves the tests alone: every module-level
    function and class of the package is named somewhere in ``src/``
    outside its own definition, by a call, an attribute or an import."""
    defined, named = set(), set()
    for path in Path(T.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text("utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.add((path.stem, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else node.attr
                        if isinstance(node, ast.Attribute) else node.name
                        if isinstance(node, ast.alias) else None)
                if name is not None and name != owner:
                    named.add(name)
    assert defined and sorted(d for d in defined if d[1] not in named) == []


def _imports_the_tape(tree: ast.Module) -> bool:
    """Whether a module of the package imports ``tsforge.tensor`` or a name
    from it, by a relative or an absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tsforge" if node.level else None, node.module]))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == "tsforge.tensor" or m.startswith("tsforge.tensor.") for m in modules):
            return True
    return False


def test_only_gan_imports_the_tape():
    """Parameters are plain arrays, so ``nn``, ``optim`` and ``checkpoint``
    need no tape; it is a detail of ``gan``'s loss heads alone."""
    importers = {path.stem for path in Path(T.__file__).parent.glob("*.py")
                 if path.name != "tensor.py"
                 and _imports_the_tape(ast.parse(path.read_text("utf-8")))}
    assert importers == {"gan"}
    for source in ("from . import tensor", "from .tensor import Graph",
                   "import tsforge.tensor", "from tsforge import tensor as T",
                   "from tsforge.tensor import Tensor"):
        assert _imports_the_tape(ast.parse(source)), source
    assert not _imports_the_tape(ast.parse("from . import nn\nimport numpy.tensor"))


class TestConstruction:
    def test_constant_identity(self):
        t = Tensor(np.array([1, 2]), requires_grad=False)
        assert t.shape == (2,) and t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, [1.0, 2.0])

    def test_constant_scalar(self):
        t = Tensor(np.asarray(5))
        assert t.shape == ()
        assert t.item() == 5.0

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_constant_is_graph_free(self):
        t = vec(1, 2)
        assert t.graph is None and t.node_id is None


class TestElementwise:
    def test_add(self):
        out = add(vec(1, 2), vec(3, 4))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zero_scalar(self):
        out = T.mul(vec(2, 3), Tensor(np.asarray(0.0)))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_square_backward(self):
        g = scalar_backward(lambda x: T.square(x), np.asarray(3.0))
        assert g == pytest.approx(6.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            add(vec(1, 2), vec(1, 2, 3))

    def test_log_of_nonpositive(self):
        with pytest.raises(ValueError):
            T.log(vec(1, -1))

    def test_sqrt_of_negative(self):
        with pytest.raises(ValueError):
            T.sqrt(vec(-4))

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
        g = scalar_backward(lambda x: tanh(x), np.asarray(0.0))
        assert g == pytest.approx(1.0)
        assert tanh(Tensor(np.asarray(0.0))).item() == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor(np.asarray(0.0))).item() == pytest.approx(0.5)

    def test_sigmoid_extreme_saturation_is_finite(self):
        out = T.sigmoid(vec(-800.0, 800.0))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-300)
        assert out.data[1] == pytest.approx(1.0)

    SPECIAL = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 40.0, -40.0, 745.0, -745.0,
               800.0, -800.0, np.inf, -np.inf, np.nan)

    @staticmethod
    def one_over_one_plus_exp(x) -> np.ndarray:
        """The reference: 1 / (1 + exp(-x)), out of place, one operation at a time."""
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            e = np.exp(-x)
        return np.asarray(1.0 / (1.0 + e))

    @staticmethod
    def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
        # NaN stays NaN; the sign bit of a NaN is not part of the contract
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_sigmoid_matches_one_over_one_plus_exp_bit_for_bit(self):
        rng = np.random.default_rng(31)
        inputs = [np.array(self.SPECIAL), np.linspace(-800.0, 800.0, 20001),
                  rng.normal(size=(64, 150)) * 10.0, rng.normal(size=(3, 7, 5)) * 300.0,
                  rng.standard_cauchy(size=4096)]
        inputs += [np.asarray(v) for v in self.SPECIAL]   # rank 0
        for x in inputs:
            want = self.one_over_one_plus_exp(x)
            got = T.sigmoid(Tensor(x)).data
            self.assert_same_bits(got, want)
            assert got.ndim == x.ndim
            in_place = x.copy()          # in place, into the input's own buffer
            nn._sigmoid(in_place, out=in_place)
            self.assert_same_bits(in_place, want)

    def test_fused_negation_matches_the_sigmoid_of_the_sum_bit_for_bit(self):
        # the LSTM scan's form: it negates its bias's sigmoid rows once, and a
        # step's (-b) - a is -(a + b) exactly, so exp sees the same bits; the
        # special values crossed with a +-800 grid, a = -b among them
        values = np.concatenate([self.SPECIAL, np.linspace(-800.0, 800.0, 321)])
        a, b = np.meshgrid(values, values)
        with np.errstate(invalid="ignore", over="ignore"):      # inf - inf
            want = nn._sigmoid(a + b)
            got = nn._sigmoid_of_negated(np.subtract(-b, a))
        self.assert_same_bits(got, want)

    def test_sigmoid_is_within_2_ulp_of_a_60_digit_reference(self):
        """Within 2 ulp from -700 up. Below, the exact value is under 1e-304 and
        exp(-x) overflows past -709.78, so 1 / inf gives 0: the error must stay
        under 1e-304. NaN in gives NaN out."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(33)
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001), rng.normal(size=2000) * 10.0,
                            rng.uniform(-800.0, 800.0, 2000), [np.nan]])
        got = nn._sigmoid(x)
        with mpmath.workdps(60):
            exact = [mpmath.mpf(1) / (1 + mpmath.exp(-mpmath.mpf(v))) for v in x[:-1]]
        want = np.array([float(v) for v in exact])
        assert np.isnan(got[-1])
        got, x = got[:-1], x[:-1]
        inside = x >= -700.0
        ulps = np.abs(got[inside].view(np.int64) - want[inside].view(np.int64))
        assert ulps.max() <= 2
        errors = [abs(mpmath.mpf(g) - e) for g, e, i in zip(got, exact, inside) if not i]
        assert max(errors) < 1e-304

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
        I = Tensor(np.eye(2))
        A = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(matmul(I, A).data, [[1, 2], [3, 4]])

    def test_dot_product(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0], [4.0]]))
        assert matmul(a, b).data[0, 0] == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(4, 2))
        ga = scalar_backward(lambda x: T.reduce("sum", matmul(x, Tensor(B))), A)
        fd = central_diff(lambda x: float((x @ B).sum()), A)
        assert rel_err(ga, fd) < 1e-6


class TestReduce:
    def test_mean(self):
        assert T.reduce("mean", vec(1, 2, 3)).item() == 2.0

    def test_sum_axis(self):
        out = T.reduce("sum", Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])), axis=0)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean_gradient_is_uniform(self):
        g = scalar_backward(lambda x: T.reduce("mean", x), np.arange(4.0))
        np.testing.assert_allclose(g, 0.25)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            T.reduce("sum", vec(1, 2), axis=1)


def l2_norm(x: Tensor) -> Tensor:
    """The Euclidean norm as the gradient penalty composes it."""
    return T.sqrt(T.reduce("sum", T.square(x)))


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm(vec(3, 4)).item() == pytest.approx(5.0)

    def test_origin_guarded(self):
        # sqrt's backward is 0 where its value is exactly 0, and only there
        g = scalar_backward(lambda x: T.reduce("sum", T.sqrt(x)), np.array([0.0, 4.0]))
        np.testing.assert_array_equal(g, [0.0, 0.25])
        with Graph() as g:
            x = Tensor(np.zeros(2))
            out = l2_norm(x)
            gm = T.backward(g, out)
        assert out.item() == 0.0
        np.testing.assert_array_equal(gm[x], [0.0, 0.0])

    def test_gradient_direction(self):
        g = scalar_backward(l2_norm, np.array([3.0, 4.0]))
        np.testing.assert_allclose(g, [0.6, 0.8])


class TestStructural:
    def test_reshape_row_major(self):
        out = reshape(Tensor(np.arange(1.0, 7.0).reshape(2, 3)), (3, 2))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4], [5, 6]])

    def test_concat(self):
        out = concat([vec(1), vec(2)])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_slice_backward_scatters(self):
        with Graph() as g:
            x = Tensor(np.arange(6.0))
            out = T.reduce("sum", slice_(x, 0, 2, 4))
            gm = T.backward(g, out)
        np.testing.assert_array_equal(gm[x], [0, 0, 1, 1, 0, 0])

    def test_transpose(self):
        s = reshape(concat([vec(1, 2), vec(3, 4)]), (2, 2))
        np.testing.assert_array_equal(s.data, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(transpose(s).data, [[1, 3], [2, 4]])

    def test_reshape_bad_size(self):
        with pytest.raises(ValueError):
            reshape(vec(1, 2), (3,))


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
            return T.reduce("sum", tanh(T.mul(x, 0.3)))

        ga = scalar_backward(lambda x: add(g1(x), g2(x)), x0)
        gb = scalar_backward(g1, x0) + scalar_backward(g2, x0)
        np.testing.assert_allclose(ga, gb, rtol=1e-12)

    def test_replay_determinism(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(3, 3))

        def run():
            with Graph() as g:
                x = Tensor(x0.copy())
                out = T.reduce("mean", tanh(matmul(x, x)))
                gm = T.backward(g, out)
                return out.data.copy(), gm[x].copy()

        o1, g1 = run()
        o2, g2 = run()
        assert np.array_equal(o1, o2) and np.array_equal(g1, g2)

    def test_no_backward_changes_the_graph(self):
        g = Graph()
        with g:
            x = Tensor(np.array([1.0, 2.0]))
            y = T.reduce("sum", T.square(x))
            n = len(g)
            assert T.backward(g, y)[x].tolist() == [2.0, 4.0]
            assert T.grad(y, x, g).tolist() == [2.0, 4.0]
            assert len(g) == n
        assert T.backward(g, y)[x].tolist() == [2.0, 4.0]
        with Graph() as other:
            assert T.grad(y, x, g).tolist() == [2.0, 4.0]
        assert len(other) == 0 and len(g) == n

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
    ("log", T.log, (0.5, 3.0)),
    ("negate", T.negate, (-2.0, 2.0)),
    ("tanh", tanh, (-2.0, 2.0)),
    ("sigmoid", T.sigmoid, (-2.0, 2.0)),
    ("clip", lambda x: T.clip(x, -0.5, 0.5), (-1.0, 1.0)),  # straddles both bounds
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

    @pytest.mark.parametrize("op", [add, T.sub, T.mul], ids=lambda op: op.__name__)
    def test_binary_ops(self, op):
        rng = np.random.default_rng(zlib.crc32(op.__name__.encode()))
        for _ in range(100):
            n = int(rng.integers(1, 7))
            x = rng.uniform(-2, 2, size=n)
            y = rng.uniform(0.5, 2.5, size=n)

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
            ga = scalar_backward(lambda t: T.reduce("sum", matmul(t, Tensor(B))), A)
            fd = central_diff(lambda v: float((v @ B).sum()), A)
            assert rel_err(ga, fd) < 1e-4

    def test_structural_ops(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = rng.normal(size=(3, 4))

            def f_graph(t):
                a = reshape(t, (4, 3))
                b = transpose(a)
                c = slice_(b, 1, 1, 3)
                d = concat([c, c], axis=0)
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
            ga = scalar_backward(l2_norm, x)
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
                return T.reduce("sum", T.mul(T.square(add_row(xt, bt)), Tensor(w)))

            def f_plain(xv, bv):
                return float((w * (xv + bv) ** 2).sum())

            with Graph() as g:
                xt, bt = Tensor(x), Tensor(b)
                gm = T.backward(g, f_graph(xt, bt))
            assert rel_err(gm[xt], central_diff(lambda v: f_plain(v, b), x)) < 1e-4
            assert rel_err(gm[bt], central_diff(lambda v: f_plain(x, v), b)) < 1e-4

    def test_add_row_shape_mismatch(self):
        for x, b in ((np.zeros((2, 3)), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                     (np.zeros((2, 3)), np.zeros((1, 3)))):
            with pytest.raises(ValueError):
                add_row(Tensor(x), Tensor(b))


class TestSecondOrder:
    """The gradient penalty's pattern, a penalty on an input gradient: the
    tape gives the input gradient as an array, and the penalty's second
    order is taken off the tape (``tests/test_nn.py``)."""

    def test_unit_norm_gradient_penalty_is_flat(self):
        # f(x)=||x||: ||grad f|| = 1 away from 0, so (||grad f||-1)^2 == 0
        with Graph() as g:
            x = Tensor(np.array([3.0, 4.0]))
            y = l2_norm(x)
        gx = T.grad(y, x, g)
        assert isinstance(gx, np.ndarray)
        assert (np.sqrt(np.sum(gx * gx)) - 1.0) ** 2 == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=6),
       st.lists(st.floats(-3, 3), min_size=1, max_size=6))
def test_add_commutes(a, b):
    n = min(len(a), len(b))
    x = Tensor(np.array(a[:n]))
    y = Tensor(np.array(b[:n]))
    np.testing.assert_array_equal(add(x, y).data, add(y, x).data)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=8))
def test_sum_linearity_property(vals):
    x = np.array(vals)
    g1 = scalar_backward(lambda t: T.reduce("sum", T.mul(t, 3.0)), x)
    g2 = scalar_backward(lambda t: T.mul(T.reduce("sum", t), 3.0), x)
    np.testing.assert_allclose(g1, g2, atol=1e-12)
