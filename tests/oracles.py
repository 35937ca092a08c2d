"""Independent oracles shared by the test suite.

Central finite differences are computed straight from repeated forward
evaluations, never through the autodiff path they are checking.
``lstm_scan_reference`` builds the LSTM from recorded tensor primitives,
and ``lstm_head_reference`` puts the dense head on it, so they give
first-order gradients without ``nn.lstm_vjp``'s numpy BPTT. A ParamSet
holds plain arrays, so they wrap its arrays in leaf tensors and hand the
leaves back by name, where the gradients are looked up. The
primitives that ``src/`` does not record (``add``, ``tanh``, ``reshape``,
``transpose``, ``concat``, ``slice_``, ``matmul`` and ``add_row``) are
defined here, on the tape's ``_record``. Central differences of those
gradients give the second order without ``nn.critic_input_grad_vjp``'s
complex step, the critic's scan and BPTT at a complex input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from tsforge import tensor as T
from tsforge.tensor import Tensor

FD_STEP = 1e-5


def central_diff(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Gradient of scalar-valued f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        fp = f(x)
        xf[i] = orig - step
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * step)
    return out


def directional_diff(f, x: np.ndarray, v: np.ndarray, step: float = FD_STEP) -> float:
    """Directional derivative of scalar f at x along v via central differences."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return (f(x + step * v) - f(x - step * v)) / (2.0 * step)


def rel_err(a, b, floor: float = 1e-6) -> float:
    """Relative error with a floor so near-zero pairs compare absolutely."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def acf_reference(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Direct transcription of the biased ACF estimator, pooled over the
    rows of a 2-D x: one mean, and the lagged products of every row over
    the squares of every row. A 1-D x is one row."""
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    c = rows - rows.mean()
    denom = float(np.sum(c * c))
    n = rows.shape[1]
    return np.array([sum(float(np.sum(r[: n - k] * r[k:])) for r in c) / denom
                     for k in range(max_lag + 1)])


def add(a, b) -> Tensor:
    a, b = T._as_tensor(a), T._as_tensor(b)
    T._check_binary_shapes(a, b, "add")
    return T._record(a.data + b.data, "add", (a, b), lambda out: (
        (a, lambda g: T._unbroadcast(g, a)),
        (b, lambda g: T._unbroadcast(g, b)),
    ))


def tanh(a) -> Tensor:
    a = T._as_tensor(a)
    return T._record(np.tanh(a.data), "tanh", (a,), lambda out: (
        (a, lambda g: g * (1.0 - out.data * out.data)),
    ))


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = T._as_tensor(x)
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape)) if shape else 1
    if n != x.size:
        raise ValueError(f"reshape: cannot view {x.shape} as {shape}")
    if len(shape) > T.MAX_RANK:
        raise ValueError(f"reshape: rank {len(shape)} exceeds max {T.MAX_RANK}")
    old = x.shape
    return T._record(x.data.reshape(shape), "reshape", (x,), lambda out: (
        (x, lambda g: g.reshape(old)),
    ))


def transpose(x, axes: Sequence[int] | None = None) -> Tensor:
    x = T._as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.rank)))
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.rank)):
        raise ValueError(f"transpose: {axes} is not a permutation of rank-{x.rank} axes")
    inv = tuple(int(i) for i in np.argsort(axes))
    return T._record(np.transpose(x.data, axes), "transpose", (x,), lambda out: (
        (x, lambda g: np.transpose(g, inv)),
    ))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [T._as_tensor(t) for t in tensors]
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
            idx = tuple(slice(off, off + ext) if ax == axis else slice(None)
                        for ax in range(rank))
            entries.append((t, lambda g, idx=idx: g[idx]))
            off += ext
        return entries

    return T._record(data, "concat", ts, vjps)


def slice_(x, axis: int, start: int, stop: int) -> Tensor:
    x = T._as_tensor(x)
    if not 0 <= axis < x.rank:
        raise ValueError(f"slice: axis {axis} invalid for rank {x.rank}")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ValueError(f"slice: [{start}:{stop}] out of range for extent {x.shape[axis]}")
    idx = tuple(slice(start, stop) if ax == axis else slice(None) for ax in range(x.rank))

    def scatter(g: np.ndarray) -> np.ndarray:
        full = np.zeros(x.shape)
        full[idx] = g
        return full

    return T._record(x.data[idx], "slice", (x,), lambda out: ((x, scatter),))


def matmul(a, b) -> Tensor:
    a, b = T._as_tensor(a), T._as_tensor(b)
    if a.rank != 2 or b.rank != 2:
        raise ValueError(f"matmul: requires rank-2 operands, got ranks {a.rank} and {b.rank}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions {a.shape} x {b.shape} disagree")
    return T._record(a.data @ b.data, "matmul", (a, b), lambda out: (
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ))


def add_row(x, b) -> Tensor:
    """x [n, k] + b [k]: the same row vector added to every row."""
    x, b = T._as_tensor(x), T._as_tensor(b)
    if x.rank != 2 or b.rank != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_row: cannot add row {b.shape} to rows of {x.shape}")
    return T._record(x.data + b.data, "add_row", (x, b), lambda out: (
        (x, lambda g: g),
        (b, lambda g: np.sum(g, axis=0)),
    ))


def lstm_cell_reference(Wi, Wf, Wc, Wo, bi, bf, bc, bo, x_t, h_prev, c_prev):
    """Scalar-level transcription of the four gate equations (numpy only)."""
    hx = np.concatenate([h_prev, x_t], axis=-1)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i_t = sig(hx @ Wi + bi)
    c_tilde = np.tanh(hx @ Wc + bc)
    f_t = sig(hx @ Wf + bf)
    o_t = sig(hx @ Wo + bo)
    c_t = f_t * c_prev + i_t * c_tilde
    h_t = o_t * np.tanh(c_t)
    return h_t, c_t


def lstm_scan_reference(p, x: Tensor, steps: int) -> tuple[Tensor, dict[str, Tensor]]:
    """The hidden states [steps*batch, units], step-major, of the LSTM in the
    ParamSet ``p``, composed of recorded primitives, the gates fused in
    column order [i | f | o | c~], and p's arrays as leaf tensors by name."""
    leaves = {name: Tensor(arr) for name, arr in p.items()}
    u, batch = p["lstm.W_i"].shape[1], x.shape[0]
    W = concat([leaves[f"lstm.W_{gate}"] for gate in "ifoc"], axis=1)
    b = concat([leaves[f"lstm.b_{gate}"] for gate in "ifoc"], axis=0)
    h = c = Tensor(np.zeros((batch, u)), requires_grad=False, op="const")
    hs = []
    for t in range(steps):
        x_t = x if x.rank == 2 else reshape(slice_(x, 1, t, t + 1), (batch, x.shape[2]))
        z = add_row(matmul(concat([h, x_t], axis=1), W), b)
        sig = T.sigmoid(slice_(z, 1, 0, 3 * u))
        c_tilde = tanh(slice_(z, 1, 3 * u, 4 * u))
        i_t, f_t, o_t = (slice_(sig, 1, k * u, (k + 1) * u) for k in range(3))
        c = add(T.mul(f_t, c), T.mul(i_t, c_tilde))
        h = T.mul(o_t, tanh(c))
        hs.append(h)
    return concat(hs, axis=0), leaves


def lstm_head_reference(p, x: Tensor, steps: int) -> tuple[Tensor, dict[str, Tensor]]:
    """``nn.lstm_scan``'s head values h_t proj.W + proj.b [steps*batch, 1]
    (step-major, as ``lstm_scan``'s [steps, batch] flattened):
    the dense head as recorded primitives on ``lstm_scan_reference``, and
    p's arrays as leaf tensors by name."""
    hs, leaves = lstm_scan_reference(p, x, steps)
    return add_row(matmul(hs, leaves["proj.W"]), leaves["proj.b"]), leaves
