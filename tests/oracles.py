"""Independent oracles shared by the test suite.

Central finite differences are computed straight from repeated forward
evaluations, never through the autodiff path they are checking.
``lstm_scan_reference`` builds the LSTM from recorded tensor primitives,
whose vjps are recorded ops too, so it gives first- and second-order
gradients without ``nn.lstm_scan``'s numpy BPTT or complex step.
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
    """``nn.lstm_scan``'s hidden states [steps*batch, units] composed of
    recorded primitives, the gates fused in column order [i | f | o | c~]."""
    u, batch = p.units, x.shape[0]
    W = T.concat([p.W_i, p.W_f, p.W_o, p.W_c], axis=1)
    b = T.concat([p.b_i, p.b_f, p.b_o, p.b_c], axis=0)
    h = c = Tensor(np.zeros((batch, u)), requires_grad=False, op="const")
    hs = []
    for t in range(steps):
        x_t = x if x.rank == 2 else T.reshape(T.slice_(x, 1, t, t + 1), (batch, x.shape[2]))
        z = T.add_row(T.matmul(T.concat([h, x_t], axis=1), W), b)
        sig = T.sigmoid(T.slice_(z, 1, 0, 3 * u))
        c_tilde = T.tanh(T.slice_(z, 1, 3 * u, 4 * u))
        i_t, f_t, o_t = (T.slice_(sig, 1, k * u, (k + 1) * u) for k in range(3))
        c = T.add(T.mul(f_t, c), T.mul(i_t, c_tilde))
        h = T.mul(o_t, T.tanh(c))
        hs.append(h)
    return T.concat(hs, axis=0)
