"""Reverse-mode automatic differentiation on small dense float64 tensors.

Values are rank-0..3 numpy arrays wrapped in :class:`Tensor`. Operations
executed while a :class:`Graph` is active are recorded on an append-only
tape, topologically ordered by construction (every input is recorded
before its consumer). :func:`backward` replays the tape once in reverse
and returns a :class:`GradientMap`.

Backward rules are themselves expressed through the same recorded
operations, so a gradient extracted with :func:`grad` is an ordinary
graph node and can be differentiated again. That single mechanism is
what makes penalties on gradient norms trainable.

Only scalar-vs-tensor broadcasting is supported; anything else must be
reshaped explicitly and fails loudly otherwise.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

MAX_RANK = 3

# Innermost last; None marks a block that records nothing. One stack per
# process: graphs are built and differentiated on one thread only.
_graphs: list["Graph | None"] = []


def active_graph() -> "Graph | None":
    return _graphs[-1] if _graphs else None


@contextlib.contextmanager
def _unrecorded():
    """Run ops with no active graph, even inside another graph's block."""
    _graphs.append(None)
    try:
        yield
    finally:
        _graphs.pop()


class Graph:
    """Append-only tape of one differentiable computation.

    A graph is a fresh tape per forward pass; it belongs to a single
    training session and must not be mutated concurrently.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Graph":
        _graphs.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _graphs.pop()
        assert popped is self, "graph contexts must nest"

    def __len__(self) -> int:
        return len(self.nodes)

    def _enlist(self, t: "Tensor") -> None:
        if t.graph is not self:
            t.graph = self
            t.node_id = len(self.nodes)
            t._vjps = ()
            self.nodes.append(t)

    def clear(self) -> None:
        """Drop the tape. Recorded tensors keep their values but can no
        longer be differentiated through this graph."""
        for t in self.nodes:
            t._vjps = ()
        self.nodes.clear()


class Tensor:
    """A rank-0..3 float64 array, optionally recorded on a graph.

    ``requires_grad`` is only consulted for leaves: a leaf with
    ``requires_grad=False`` is treated as a constant and receives no
    gradient (used to freeze one network while the other trains).
    """

    __slots__ = ("data", "graph", "node_id", "requires_grad", "op", "_vjps")

    def __init__(self, data, requires_grad: bool = True, op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_RANK:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max {MAX_RANK})")
        self.data = arr
        self.graph: Graph | None = None
        self.node_id: int | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._vjps: tuple = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, data={self.data!r})"

def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=False, op="const")


def _record(data: np.ndarray, op: str, inputs: Sequence[Tensor],
            make_vjps: Callable[["Tensor"], Sequence[tuple]] | None) -> Tensor:
    """Create the result tensor; record it (and its inputs) if a graph is live.

    ``make_vjps(out)`` returns (input, fn) pairs where ``fn(upstream)``
    yields the input's gradient contribution, built from recorded ops.
    """
    out = Tensor(data, op=op)
    g = active_graph()
    if g is None:
        return out
    for inp in inputs:
        g._enlist(inp)
    g._enlist(out)
    if make_vjps is not None:
        # A leaf with requires_grad=False is a frozen constant: no edge.
        out._vjps = tuple((inp, fn) for inp, fn in make_vjps(out)
                          if inp._vjps or inp.requires_grad)
    return out


def _unbroadcast(g: Tensor, operand: Tensor) -> Tensor:
    """Reduce a gradient back to a scalar operand's shape after broadcasting."""
    if operand.rank == 0 and g.rank > 0:
        return reduce("sum", g)
    return g


def _check_binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and a.rank != 0 and b.rank != 0:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is scalar")


# elementwise ops ----------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "add")
    return _record(a.data + b.data, "add", (a, b), lambda out: (
        (a, lambda g: _unbroadcast(g, a)),
        (b, lambda g: _unbroadcast(g, b)),
    ))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    return _record(a.data - b.data, "sub", (a, b), lambda out: (
        (a, lambda g: _unbroadcast(g, a)),
        (b, lambda g: _unbroadcast(negate(g), b)),
    ))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    return _record(a.data * b.data, "mul", (a, b), lambda out: (
        (a, lambda g: _unbroadcast(mul(g, b), a)),
        (b, lambda g: _unbroadcast(mul(g, a), b)),
    ))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "div")
    if np.any(b.data == 0.0):
        raise ValueError("div: division by exact zero")
    return _record(a.data / b.data, "div", (a, b), lambda out: (
        (a, lambda g: _unbroadcast(div(g, b), a)),
        (b, lambda g: _unbroadcast(negate(mul(g, div(out, b))), b)),
    ))


def negate(a) -> Tensor:
    a = _as_tensor(a)
    return _record(-a.data, "negate", (a,), lambda out: (
        (a, lambda g: negate(g)),
    ))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _record(a.data * a.data, "square", (a,), lambda out: (
        (a, lambda g: mul(g, mul(a, 2.0))),
    ))


def sqrt(a) -> Tensor:
    """Elementwise square root; the backward at exactly 0 is guarded to 0
    (a subgradient choice) so saturated gradients do not blow up the outer
    pass."""
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: negative input")

    def make_vjps(out):
        def vjp(g):
            if np.any(out.data == 0.0):
                keep = Tensor((out.data != 0.0).astype(np.float64),
                              requires_grad=False, op="const")
                fill = Tensor((out.data == 0.0).astype(np.float64),
                              requires_grad=False, op="const")
                return mul(keep, div(mul(g, 0.5), add(out, fill)))
            return div(mul(g, 0.5), out)
        return ((a, vjp),)

    return _record(np.sqrt(a.data), "sqrt", (a,), make_vjps)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log: non-positive input")
    return _record(np.log(a.data), "log", (a,), lambda out: (
        (a, lambda g: div(g, a)),
    ))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    a = _as_tensor(a)
    mask = Tensor(((a.data >= lo) & (a.data <= hi)).astype(np.float64),
                  requires_grad=False, op="const")
    return _record(np.clip(a.data, lo, hi), "clip", (a,), lambda out: (
        (a, lambda g: mul(g, mask)),
    ))


# activations --------------------------------------------------------

def tanh(a) -> Tensor:
    a = _as_tensor(a)
    return _record(np.tanh(a.data), "tanh", (a,), lambda out: (
        (a, lambda g: mul(g, sub(1.0, square(out)))),
    ))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, from
    e = exp(-|x|) <= 1, which cannot overflow, as max(e, x >= 0) / (1 + e).
    Complex input (a complex step) takes the branches by the sign of the real
    part, without abs and maximum, which are not analytic."""
    if x.dtype.kind == "c":
        e = np.exp(np.where(x.real >= 0, -x, x))
        return np.where(x.real >= 0, 1.0, e) / (1.0 + e)
    e = np.exp(-np.abs(x))
    val = np.maximum(e, x >= 0)
    e += 1.0
    val /= e
    return val


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    return _record(_sigmoid(a.data), "sigmoid", (a,), lambda out: (
        (a, lambda g: mul(g, mul(out, sub(1.0, out)))),
    ))


# linear algebra -----------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.rank != 2 or b.rank != 2:
        raise ValueError(f"matmul: requires rank-2 operands, got ranks {a.rank} and {b.rank}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions {a.shape} x {b.shape} disagree")
    return _record(a.data @ b.data, "matmul", (a, b), lambda out: (
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    ))


def add_row(x, b) -> Tensor:
    """x [n, k] + b [k]: the same row vector added to every row."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.rank != 2 or b.rank != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_row: cannot add row {b.shape} to rows of {x.shape}")
    return _record(x.data + b.data, "add_row", (x, b), lambda out: (
        (x, lambda g: g),
        (b, lambda g: reduce("sum", g, 0)),
    ))


# reductions ---------------------------------------------------------

def _expand_axis(g: Tensor, axis: int, n: int) -> Tensor:
    """Repeat `g` n times along a new axis (adjoint of an axis sum)."""
    data = np.repeat(np.expand_dims(g.data, axis), n, axis=axis)
    return _record(data, "expand_axis", (g,), lambda out: (
        (g, lambda gg: reduce("sum", gg, axis)),
    ))


def reduce(kind: str, x, axis: int | None = None) -> Tensor:
    if kind not in ("sum", "mean"):
        raise ValueError(f"unknown reduce kind {kind!r}")
    x = _as_tensor(x)
    if axis is not None:
        if not 0 <= axis < x.rank:
            raise ValueError(f"reduce: axis {axis} invalid for rank {x.rank}")
        n = x.shape[axis]
        out = _record(np.sum(x.data, axis=axis), "sum", (x,), lambda o: (
            (x, lambda g, ax=axis, nn=n: _expand_axis(g, ax, nn)),
        ))
    else:
        n = x.size
        ones = Tensor(np.ones(x.shape), requires_grad=False, op="const")
        out = _record(np.asarray(np.sum(x.data)), "sum", (x,), lambda o: (
            (x, lambda g: mul(ones, g)),
        ))
    if kind == "mean":
        if n == 0:
            raise ValueError("mean of empty tensor")
        out = mul(out, 1.0 / n)
    return out


# structural ops -----------------------------------------------------

def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape)) if shape else 1
    if n != x.size:
        raise ValueError(f"reshape: cannot view {x.shape} as {shape}")
    if len(shape) > MAX_RANK:
        raise ValueError(f"reshape: rank {len(shape)} exceeds max {MAX_RANK}")
    old = x.shape
    return _record(x.data.reshape(shape), "reshape", (x,), lambda out: (
        (x, lambda g: reshape(g, old)),
    ))


def transpose(x, axes: Sequence[int] | None = None) -> Tensor:
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.rank)))
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.rank)):
        raise ValueError(f"transpose: {axes} is not a permutation of rank-{x.rank} axes")
    inv = tuple(int(i) for i in np.argsort(axes))
    return _record(np.transpose(x.data, axes), "transpose", (x,), lambda out: (
        (x, lambda g: transpose(g, inv)),
    ))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: no tensors")
    rank = ts[0].rank
    if rank == 0 or not 0 <= axis < rank:
        raise ValueError(f"concat: axis {axis} invalid for rank {rank}")
    for t in ts[1:]:
        if t.rank != rank:
            raise ValueError("concat: rank mismatch")
        for ax in range(rank):
            if ax != axis and t.shape[ax] != ts[0].shape[ax]:
                raise ValueError(f"concat: shapes {ts[0].shape} and {t.shape} disagree off-axis")
    data = np.concatenate([t.data for t in ts], axis=axis)

    def vjps(out):
        entries = []
        off = 0
        for t in ts:
            ext = t.shape[axis]
            entries.append((t, lambda g, o=off, e=ext: slice_(g, axis, o, o + e)))
            off += ext
        return entries

    return _record(data, "concat", ts, vjps)


def slice_(x, axis: int, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    if not 0 <= axis < x.rank:
        raise ValueError(f"slice: axis {axis} invalid for rank {x.rank}")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ValueError(f"slice: [{start}:{stop}] out of range for extent {x.shape[axis]}")
    idx = tuple(slice(start, stop) if ax == axis else slice(None) for ax in range(x.rank))
    full = x.shape
    return _record(x.data[idx], "slice", (x,), lambda out: (
        (x, lambda g: _scatter(g, axis, start, full)),
    ))


def _scatter(g: Tensor, axis: int, start: int, full_shape: tuple[int, ...]) -> Tensor:
    """Embed `g` into zeros of `full_shape` at offset `start` (adjoint of slice)."""
    data = np.zeros(full_shape)
    idx = tuple(slice(start, start + g.shape[ax]) if ax == axis else slice(None)
                for ax in range(len(full_shape)))
    data[idx] = g.data
    stop = start + g.shape[axis]
    return _record(data, "scatter", (g,), lambda out: (
        (g, lambda gg: slice_(gg, axis, start, stop)),
    ))


# backward pass ------------------------------------------------------

class GradientMap:
    """Gradients of one scalar output with respect to reachable nodes.

    Lookup is by tensor object; nodes off every path to the output map
    to an exact-zero gradient of matching shape.
    """

    def __init__(self, grads: dict):
        self._grads = grads

    def __getitem__(self, t: Tensor) -> Tensor:
        got = self._grads.get(t)
        if got is None:
            return Tensor(np.zeros(t.shape), requires_grad=False, op="zero-grad")
        return got

    def __len__(self) -> int:
        return len(self._grads)


def _path_nodes(graph: Graph, output: Tensor, wrt: Sequence[Tensor]) -> set[int]:
    """Ids of nodes on a differentiable path from some wrt tensor to the output."""
    targets = [t.node_id for t in wrt if t.graph is graph and t.node_id is not None]
    if not targets:
        return set()
    lo = min(targets)
    desc = set(targets)
    for nid in range(lo + 1, output.node_id + 1):
        node = graph.nodes[nid]
        for inp, _ in node._vjps:
            if inp.node_id in desc:
                desc.add(nid)
                break
    anc = {output.node_id}
    for nid in range(output.node_id, lo - 1, -1):
        if nid in anc:
            for inp, _ in graph.nodes[nid]._vjps:
                anc.add(inp.node_id)
    return desc & anc


def backward(graph: Graph, output: Tensor, wrt: Sequence[Tensor] | None = None) -> GradientMap:
    """Single reverse pass over the tape from a scalar output.

    The vector-Jacobian products are recorded on the graph only when the
    caller is inside ``with graph:`` (``active_graph() is graph``), so
    that the returned gradients can be differentiated again; otherwise
    the pass adds nothing to any tape. With ``wrt``
    given, accumulation is restricted to nodes that can influence the
    output through one of those tensors (a pure work-skipping device;
    the gradients produced are identical).
    """
    if output.rank != 0:
        raise ValueError(f"backward: output must be scalar, got shape {output.shape}")
    if output.graph is not graph or output.node_id is None:
        raise ValueError("backward: output is not recorded on this graph")
    needed: set[int] | None = None
    if wrt is not None:
        needed = _path_nodes(graph, output, wrt)
    seed = Tensor(np.asarray(1.0), requires_grad=False, op="seed")
    pending: dict[int, Tensor] = {output.node_id: seed}
    visited: dict[int, Tensor] = {}
    with graph if active_graph() is graph else _unrecorded():
        for nid in range(output.node_id, -1, -1):
            g = pending.pop(nid, None)
            if g is None:
                continue
            visited[nid] = g
            for inp, fn in graph.nodes[nid]._vjps:
                if needed is not None and inp.node_id not in needed:
                    continue
                gi = fn(g)
                prev = pending.get(inp.node_id)
                pending[inp.node_id] = gi if prev is None else add(prev, gi)
    return GradientMap({graph.nodes[nid]: g for nid, g in visited.items()})


def grad(output: Tensor, wrt: Tensor, graph: Graph | None = None) -> Tensor:
    """Differentiable gradient of a scalar output with respect to one tensor."""
    g = graph if graph is not None else active_graph()
    if g is None:
        raise ValueError("grad: no active graph")
    return backward(g, output, wrt=[wrt])[wrt]

