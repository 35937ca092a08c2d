"""Independent oracles shared by the test suite.

Central finite differences are computed straight from repeated forward
evaluations, never through the autodiff path they are checking.
``lstm_scan_reference`` builds the LSTM from recorded tensor primitives,
with ``matmul`` and ``add_row`` defined here, and ``lstm_head_reference``
puts the dense head on it, so they give first-order gradients without
``nn.lstm_scan``'s numpy BPTT. Central differences of those gradients
give the second order without ``nn.critic_input_grad_vjp``'s complex step.
"""

from __future__ import annotations

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
    """Direct transcription of the biased ACF estimator."""
    x = np.asarray(x, dtype=np.float64)
    c = x - x.mean()
    denom = float(np.sum(c * c))
    return np.array([np.sum(c[: len(x) - k] * c[k:]) / denom for k in range(max_lag + 1)])


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


def lstm_scan_reference(p, x: Tensor, steps: int) -> Tensor:
    """The hidden states [steps*batch, units], step-major, of the LSTM in the
    ParamSet ``p``, composed of recorded primitives, the gates fused in
    column order [i | f | o | c~]."""
    u, batch = p["lstm.W_i"].shape[1], x.shape[0]
    W = T.concat([p[f"lstm.W_{gate}"] for gate in "ifoc"], axis=1)
    b = T.concat([p[f"lstm.b_{gate}"] for gate in "ifoc"], axis=0)
    h = c = Tensor(np.zeros((batch, u)), requires_grad=False, op="const")
    hs = []
    for t in range(steps):
        x_t = x if x.rank == 2 else T.reshape(T.slice_(x, 1, t, t + 1), (batch, x.shape[2]))
        z = add_row(matmul(T.concat([h, x_t], axis=1), W), b)
        sig = T.sigmoid(T.slice_(z, 1, 0, 3 * u))
        c_tilde = T.tanh(T.slice_(z, 1, 3 * u, 4 * u))
        i_t, f_t, o_t = (T.slice_(sig, 1, k * u, (k + 1) * u) for k in range(3))
        c = T.add(T.mul(f_t, c), T.mul(i_t, c_tilde))
        h = T.mul(o_t, T.tanh(c))
        hs.append(h)
    return T.concat(hs, axis=0)


def lstm_head_reference(p, x: Tensor, steps: int) -> Tensor:
    """``nn.lstm_scan``'s head values h_t proj.W + proj.b [steps*batch, 1]:
    the dense head as recorded primitives on ``lstm_scan_reference``."""
    return add_row(matmul(lstm_scan_reference(p, x, steps), p["proj.W"]), p["proj.b"])
