"""Reverse-mode automatic differentiation on small dense float64 tensors.

Values are rank-0..3 numpy arrays wrapped in :class:`Tensor`. Operations
executed while a :class:`Graph` is active are recorded on an append-only
tape, topologically ordered by construction (every input is recorded
before its consumer). :func:`backward` replays the tape once in reverse
and returns a :class:`GradientMap` of numpy arrays.

The tape is first-order: each backward rule maps an upstream array to
the input's gradient array in plain numpy, so no backward pass records
anything. It differentiates only the scalar heads of training: the
losses on the critic's scores, and the gradient penalty on the critic's
input gradient. The networks run outside it, in ``nn``, with explicit
backward passes, and the penalty's second order is taken by
``nn.critic_input_grad_vjp``. ``gan`` alone imports this module: the
networks' parameters are plain arrays, and the sigmoid kernel is
``nn._sigmoid``. The module holds only the ops those heads record; the
test suite's oracles add the rest on ``_record``.

Only scalar-vs-tensor broadcasting is supported; anything else must be
reshaped explicitly and fails loudly otherwise.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .nn import _sigmoid

MAX_RANK = 3

# Innermost last. One stack per process: graphs are built and
# differentiated on one thread only.
_graphs: list["Graph"] = []


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
    ``requires_grad=False`` (input data, noise) is treated as a constant
    and receives no gradient.
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
    maps the upstream array to the input's gradient contribution.
    """
    out = Tensor(data, op=op)
    if not _graphs:
        return out
    g = _graphs[-1]
    for inp in inputs:
        g._enlist(inp)
    g._enlist(out)
    if make_vjps is not None:
        # A leaf with requires_grad=False is a constant: no edge.
        out._vjps = tuple((inp, fn) for inp, fn in make_vjps(out)
                          if inp._vjps or inp.requires_grad)
    return out


def _unbroadcast(g: np.ndarray, operand: Tensor) -> np.ndarray:
    """Reduce a gradient back to a scalar operand's shape after broadcasting."""
    if operand.rank == 0 and g.ndim > 0:
        return np.asarray(np.sum(g))
    return g


def _check_binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and a.rank != 0 and b.rank != 0:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is scalar")


# elementwise ops ----------------------------------------------------

def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    return _record(a.data - b.data, "sub", (a, b), lambda out: (
        (a, lambda g: _unbroadcast(g, a)),
        (b, lambda g: _unbroadcast(-g, b)),
    ))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    return _record(a.data * b.data, "mul", (a, b), lambda out: (
        (a, lambda g: _unbroadcast(g * b.data, a)),
        (b, lambda g: _unbroadcast(g * a.data, b)),
    ))


def negate(a) -> Tensor:
    a = _as_tensor(a)
    return _record(-a.data, "negate", (a,), lambda out: (
        (a, lambda g: -g),
    ))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _record(a.data * a.data, "square", (a,), lambda out: (
        (a, lambda g: g * (a.data * 2.0)),
    ))


def sqrt(a) -> Tensor:
    """Elementwise square root; the backward at exactly 0 is guarded to 0
    (a subgradient choice), so a zero norm gets a zero gradient, not an Inf."""
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: negative input")
    return _record(np.sqrt(a.data), "sqrt", (a,), lambda out: (
        (a, lambda g: np.divide(g * 0.5, out.data, out=np.zeros(out.shape),
                                where=out.data != 0.0)),
    ))


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log: non-positive input")
    return _record(np.log(a.data), "log", (a,), lambda out: (
        (a, lambda g: g / a.data),
    ))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    a = _as_tensor(a)
    mask = ((a.data >= lo) & (a.data <= hi)).astype(np.float64)
    return _record(np.clip(a.data, lo, hi), "clip", (a,), lambda out: (
        (a, lambda g: g * mask),
    ))


# activations --------------------------------------------------------

def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    return _record(_sigmoid(a.data), "sigmoid", (a,), lambda out: (
        (a, lambda g: g * (out.data * (1.0 - out.data))),
    ))


# reductions ---------------------------------------------------------

def reduce(kind: str, x, axis: int | None = None) -> Tensor:
    if kind not in ("sum", "mean"):
        raise ValueError(f"unknown reduce kind {kind!r}")
    x = _as_tensor(x)
    if axis is not None:
        if not 0 <= axis < x.rank:
            raise ValueError(f"reduce: axis {axis} invalid for rank {x.rank}")
        n = x.shape[axis]
        out = _record(np.sum(x.data, axis=axis), "sum", (x,), lambda o: (
            (x, lambda g: np.repeat(np.expand_dims(g, axis), n, axis=axis)),
        ))
    else:
        n = x.size
        out = _record(np.asarray(np.sum(x.data)), "sum", (x,), lambda o: (
            (x, lambda g: np.full(x.shape, g)),
        ))
    if kind == "mean":
        if n == 0:
            raise ValueError("mean of empty tensor")
        out = mul(out, 1.0 / n)
    return out


# backward pass ------------------------------------------------------

class GradientMap:
    """Gradient arrays of one scalar output with respect to reachable nodes.

    Lookup is by tensor object; nodes off every path to the output map
    to an exact-zero gradient of matching shape.
    """

    def __init__(self, grads: dict):
        self._grads = grads

    def __getitem__(self, t: Tensor) -> np.ndarray:
        got = self._grads.get(t)
        return np.zeros(t.shape) if got is None else got

    def __len__(self) -> int:
        return len(self._grads)


def backward(graph: Graph, output: Tensor) -> GradientMap:
    """Single reverse pass over the tape from a scalar output; it adds
    nothing to any tape."""
    if output.rank != 0:
        raise ValueError(f"backward: output must be scalar, got shape {output.shape}")
    if output.graph is not graph or output.node_id is None:
        raise ValueError("backward: output is not recorded on this graph")
    pending: dict[int, np.ndarray] = {output.node_id: np.asarray(1.0)}
    visited: dict[int, np.ndarray] = {}
    for nid in range(output.node_id, -1, -1):
        g = pending.pop(nid, None)
        if g is None:
            continue
        visited[nid] = g
        for inp, fn in graph.nodes[nid]._vjps:
            gi = fn(g)
            prev = pending.get(inp.node_id)
            pending[inp.node_id] = gi if prev is None else prev + gi
    return GradientMap({graph.nodes[nid]: g for nid, g in visited.items()})


def grad(output: Tensor, x: Tensor, graph: Graph) -> np.ndarray:
    """Gradient array of a scalar output with respect to one tensor x."""
    return backward(graph, output)[x]
