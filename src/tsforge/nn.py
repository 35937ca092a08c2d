"""LSTM and dense layers composed into the generator and critic networks.

Both networks are a single LSTM block followed by a time-shared dense
projection. The generator feeds the same noise vector into every
timestep and squashes the per-step projection with tanh, so its output
lives in (-1, 1) to match min-max scaled training windows. The critic
projects each hidden state to one score and averages the scores over
time; there is deliberately no sigmoid, so scores are unbounded.

There is one LSTM: ``lstm_scan`` steps ``lstm_cell_step`` in numpy over
the timesteps as one tape node whose vjp is a numpy BPTT. The gates are
fused in column order [i | f | o | c~]; the parameters, and so the
checkpoint layout, stay the eight tensors ``lstm.W_i`` ... ``lstm.b_o``.
The kernel runs feature-major: each critic step computes W^T [h; x_t] + b
as [4u, B], so every gate block is a contiguous slab, and every ufunc
writes into buffers made once per call; h goes straight into the next
step's [h; x] buffer. The generator's noise z is the same at every step,
so its steps compute W_h^T h + (b + W_x^T z), the bracket made once per
call: the input projection that RNN kernels hoist out of the recurrence.
The BPTT keeps only the activated gates [T, 4u, B] and the cell states
[T + 1, u, B], 5u floats per sample and step: it takes h_{t-1} from the
scan's own output, x_t from its input, and recomputes tanh c.

The gradient penalty differentiates the critic's input gradient again,
by a complex step (Martins, Sturdza & Alonso 2003, ACM TOMS 29(3)): one
pass at x + i h v, with v the upstream and h = 1e-20 / max|v|, gives
Im f / h = f'(x) v + O(h^2) for every analytic f of the pass. No nearby
values are subtracted, so nothing cancels, and the O(h^2) term lies some
40 orders of magnitude under the derivative: the result is exact to
float64 rounding. The pass runs in real arithmetic: real weights times
complex activations are one real GEMM on the float64 view [K, 2B], and
sigmoid and tanh at a + ib are f(a) + i b f'(a). That expansion drops
only O(b^2) relative terms, so it needs |Im| << 1, which h guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class ArchitectureSpec:
    """Widths of the networks: noise length, sequence length, data
    features per timestep and LSTM hidden units."""

    noise_len: int = 25
    seq_len: int = 50
    features: int = 1
    lstm_units: int = 50

    def __post_init__(self):
        for field in ("noise_len", "seq_len", "features", "lstm_units"):
            value = getattr(self, field)
            if type(value) is not int or value <= 0:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")


class ParamSet:
    """Ordered, named collection of trainable tensors for one network.

    ``lstm_scan`` and the dense heads read their tensors from it by name.
    Carries the architecture it was initialized for, so a generator
    knows its own output length.
    """

    def __init__(self, kind: str, params: dict[str, Tensor],
                 arch: ArchitectureSpec | None = None):
        if kind not in ("generator", "critic"):
            raise ValueError(f"unknown network kind {kind!r}")
        self.kind = kind
        self.arch = arch
        self._params = dict(params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def count(self) -> int:
        """Total number of scalar parameters."""
        return sum(t.size for t in self._params.values())

    def copy(self) -> "ParamSet":
        return ParamSet(self.kind, {k: Tensor(v.data.copy()) for k, v in self.items()},
                        arch=self.arch)


def param_shapes(spec: ArchitectureSpec, kind: str) -> dict[str, tuple[int, ...]]:
    """Names and shapes of one network's parameters, in order, without
    allocating them. The generator's LSTM consumes the noise vector as
    its per-step features."""
    features = spec.noise_len if kind == "generator" else spec.features
    units = spec.lstm_units
    shapes = {f"lstm.W_{gate}": (units + features, units) for gate in "ifco"}
    shapes.update({f"lstm.b_{gate}": (units,) for gate in "ifco"})
    return {**shapes, "proj.W": (units, 1), "proj.b": (1,)}


def init_params(spec: ArchitectureSpec, kind: str, seed: int) -> ParamSet:
    """Glorot-uniform weights, zero biases except the forget bias at 1.

    Deterministic for a given seed.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec, kind).items():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = Tensor(rng.uniform(-limit, limit, size=shape))
        else:
            params[name] = Tensor(np.full(shape, 1.0 if name == "lstm.b_f" else 0.0))
    return ParamSet(kind, params, arch=spec)


def _activate(z: np.ndarray, out: np.ndarray, n_sigmoid: int, scratch: np.ndarray) -> None:
    """out = the sigmoid of z's first ``n_sigmoid`` rows and tanh of the rest;
    out may be z. ``scratch`` is real [2, rows, B] and serves a complex z only.
    At a complex z = a + ib (the complex step) this is f(a) + i b f'(a), with
    f' = f (1 - f) or 1 - f^2, in real arithmetic on a contiguous copy of a:
    the dropped O(b^2) term lies some 40 orders of magnitude under b f'(a)."""
    n = n_sigmoid
    if z.dtype.kind != "c":
        if n:
            T._sigmoid(z[:n], out=out[:n])
        np.tanh(z[n:], out=out[n:])
        return
    s, d = scratch[0, :z.shape[0]], scratch[1, :z.shape[0]]
    s[...] = z.real
    if n:
        T._sigmoid(s[:n], out=s[:n])
    np.tanh(s[n:], out=s[n:])
    np.subtract(1.0, s[:n], out=d[:n])
    d[:n] *= s[:n]
    np.multiply(s[n:], s[n:], out=d[n:])
    np.subtract(1.0, d[n:], out=d[n:])
    np.multiply(z.imag, d, out=out.imag)
    out.real = s


def _matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> None:
    """out = A B for a real A and a real or complex B, as one real GEMM on
    the float64 views: the imaginary parts ride along as extra columns."""
    np.matmul(A, B.view(np.float64), out=out.view(np.float64))


def lstm_cell_step(W: np.ndarray, bias: np.ndarray, hx: np.ndarray, c_prev: np.ndarray,
                   gates: np.ndarray, c: np.ndarray, scratch: np.ndarray) -> None:
    """One feature-major cell step on hx = [h_prev; x_t] [K, B], or h_prev
    alone when the input's part is already in ``bias``, into the given
    buffers: gates [4u, B] = [i; f; o; c~], the sigmoid of W^T hx + bias by
    row block and tanh for c~; c = f * c_prev + i * c~; and h = o * tanh(c)
    over hx's first u rows, where the next step reads it."""
    u = c.shape[0]
    h = hx[:u]
    _matmul(W.T, hx, gates)
    gates += bias
    _activate(gates, gates, 3 * u, scratch)
    np.multiply(gates[u:2 * u], c_prev, out=c)
    np.multiply(gates[:u], gates[3 * u:], out=h)
    c += h
    _activate(c, h, 0, scratch)
    h *= gates[2 * u:3 * u]


def _scan_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray, steps: int,
                  keep: bool) -> tuple[np.ndarray, tuple | None]:
    """The hidden states [steps, batch, units] from the zero state and, if
    ``keep``, the saved set of the BPTT: the activated gates [steps, 4u, B]
    and the cell states [steps + 1, u, B], the first one zero.

    A window x [B, T, F] steps on hx = [h; x_t] through all of W. Noise
    x [B, F] is the same at every step, so its part W_x^T z joins the
    per-call bias once, and each step computes W_h^T h + (b + W_x^T z)
    on hx = h through W's first u rows alone."""
    batch, u = x.shape[0], b.shape[0] // 4
    bias = np.empty((4 * u, batch), x.dtype)
    if x.ndim == 2:
        _matmul(W[u:].T, np.ascontiguousarray(x.T), bias)
        bias += b[:, None]
        W = W[:u]
    else:
        bias[...] = b[:, None]
    hs = np.empty((steps, batch, u), x.dtype)
    hx = np.zeros((W.shape[0], batch), x.dtype)
    gates = np.empty((steps if keep else 1, 4 * u, batch), x.dtype)
    cells = np.zeros((steps + 1 if keep else 2, u, batch), x.dtype)
    scratch = np.empty((2, 4 * u, batch))
    for t in range(steps):
        if x.ndim == 3:
            hx[u:] = x[:, t].T
        c_prev, c = (t, t + 1) if keep else (t % 2, (t + 1) % 2)
        lstm_cell_step(W, bias, hx, cells[c_prev], gates[t if keep else 0], cells[c], scratch)
        hs[t] = hx[:u].T
    return hs, (gates, cells) if keep else None


def _scan_backward(W: np.ndarray, x: np.ndarray, hs: np.ndarray, saved: tuple,
                   d_hs: np.ndarray, weights: bool) -> list[np.ndarray]:
    """BPTT for ``_scan_forward``, latest step first: the gradients of the
    weight and bias blocks in fused column order (zero unless ``weights``),
    then of x. h_{t-1} comes from ``hs`` and x_t from ``x``; tanh c is
    recomputed. In a complex pass the weight and bias gradients hold only
    the imaginary parts, the one part the complex step reads."""
    gates, cells = saved
    steps, batch, u = hs.shape
    dtype, K = hs.dtype, W.shape[0]
    parts = (lambda a: (a.imag, a.real)) if dtype.kind == "c" else (lambda a: (a,))
    dx = np.zeros(x.shape, dtype)
    dz, dhx = np.empty((4 * u, batch), dtype), np.zeros((K, batch), dtype)
    dh, dc, work = (np.zeros((n, batch), dtype) for n in (u, u, 3 * u))
    tanh_c, one_minus = work[:u], work[u:2 * u]
    # [h_{t-1}, x_t, 1] by part, the real part last: dz times it gives the
    # weight and bias gradients of a step, [4u, K + 1], in one GEMM
    hx1 = np.zeros((batch, len(parts(dz)), K + 1))
    hx1[:, -1, K] = 1.0
    dWb, dWb_t = np.zeros((4 * u, K + 1)), np.empty((4 * u, K + 1))
    scratch = np.empty((2, u, batch))
    for t in range(steps - 1, -1, -1):
        g = gates[t]
        np.add(d_hs[t].T, dhx[:u], out=dh)
        _activate(cells[t + 1], tanh_c, 0, scratch)
        np.multiply(dh, tanh_c, out=dz[2 * u:3 * u])                # d o
        np.multiply(tanh_c, tanh_c, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        np.multiply(dh, g[2 * u:3 * u], out=tanh_c)
        tanh_c *= one_minus
        dc += tanh_c
        np.multiply(dc, g[3 * u:], out=dz[:u])                      # d i
        np.multiply(dc, cells[t], out=dz[u:2 * u])                  # d f
        np.subtract(1.0, g[:3 * u], out=work)
        work *= g[:3 * u]
        dz[:3 * u] *= work
        np.multiply(dc, g[:u], out=dz[3 * u:])                      # d c~
        np.multiply(g[3 * u:], g[3 * u:], out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        dz[3 * u:] *= one_minus
        dc *= g[u:2 * u]
        _matmul(W, dz, dhx)                                         # [dh_next; dx_t]
        if x.ndim == 3:
            dx[:, t] = dhx[u:].T
        else:
            dx += dhx[u:].T
        if weights:
            x_t = x if x.ndim == 2 else x[:, t]
            for k, (h_part, x_part) in enumerate(zip(parts(hs[t - 1]), parts(x_t))):
                hx1[:, k, :u] = h_part if t else 0.0
                hx1[:, k, u:K] = x_part
            # Im(dz a) = Re dz Im a + Im dz Re a: one real GEMM by parts
            np.matmul(dz.view(np.float64), hx1.reshape(-1, K + 1), out=dWb_t)
            dWb += dWb_t
    return [*np.split(dWb[:, :K].T, 4, axis=1), *np.split(dWb[:, K], 4), dx]


def _complex_step(W: np.ndarray, b: np.ndarray, x: np.ndarray, steps: int,
                  d_hs: np.ndarray, v: np.ndarray, weights: bool) -> list[np.ndarray]:
    """The gradients of <v, dx>, with dx ``_scan_backward``'s x-gradient for
    the upstream d_hs, with respect to the weight and bias blocks, d_hs and
    x: the imaginary parts of one pass at x + i h v, over h."""
    scale = np.max(np.abs(v)) or 1.0   # v = 0 has zero gradients at any step
    xc = x + 1e-20j * (v / scale)
    hs, saved = _scan_forward(W, b, xc, steps, keep=True)
    *wb, dx = _scan_backward(W, xc, hs, saved, d_hs, weights)
    return [g * (scale / 1e-20) for g in (*wb, hs.imag.reshape(-1, hs.shape[-1]), dx.imag)]


def _not_differentiable(g: Tensor) -> Tensor:
    raise NotImplementedError("this lstm_scan gradient cannot be differentiated again")


def _one_pass_vjps(inputs: tuple, run: Callable, x_vjps: Callable | None = None) -> list:
    """vjps of ``inputs``, the eight gates then the rest, whose results all
    come from one ``run(upstream, weights)`` per backward pass. The first vjp
    the pass asks for decides ``weights``: the gates are listed first, so it
    is a gate's unless no gate gradient is wanted. The last result is
    recorded with ``x_vjps(upstream)``; the others, and the last without it,
    raise if differentiated, not drop a term."""
    memo: list = []

    def vjp(g: Tensor, k: int) -> Tensor:
        if not memo or memo[0] is not g:
            memo[:] = [g, run(g.data, k < 8)]
        last = k == len(inputs) - 1
        return T._record(memo[1][k], "lstm_scan_vjp", (g, *inputs),
                         x_vjps(g) if last and x_vjps else
                         lambda o: [(t, _not_differentiable) for t in (g, *inputs)])

    return [(t, lambda g, k=k: vjp(g, k)) for k, t in enumerate(inputs)]


# the gate tensors in the kernel's column order [i | f | o | c~]
_GATES = tuple(f"lstm.{kind}_{gate}" for kind in "Wb" for gate in "ifoc")


def lstm_scan(p: ParamSet, x: Tensor, steps: int) -> Tensor:
    """Step-major hidden states [steps*batch, units] of one pass from zero
    state over a window x [batch, steps, features], or a vector x [batch,
    features] fed at every step, as one tape node on x and p's 8 gates.

    Its vjp, a numpy BPTT, runs once per backward pass for all nine inputs,
    and accumulates weight gradients only if the pass wants one; the saved
    set is kept only while a graph records. Under a recording backward the
    x-gradient can be differentiated again, by one complex-step pass for all
    ten of its inputs; a weight gradient, or the x-gradient's own gradients,
    raise NotImplementedError instead."""
    x = T._as_tensor(x)
    gates = tuple(p[name] for name in _GATES)
    rows, u = gates[0].shape
    if (x.rank not in (2, 3) or x.shape[-1] != rows - u or steps <= 0
            or (x.rank == 3 and x.shape[1] != steps)):
        raise ValueError(f"lstm: {steps} steps over input {x.shape} with gate rows "
                         f"{rows} (units {u})")
    W = np.concatenate([t.data for t in gates[:4]], axis=1)
    b = np.concatenate([t.data for t in gates[4:]])
    hs, saved = _scan_forward(W, b, x.data, steps, keep=T.active_graph() is not None)

    def make_vjps(out):
        def x_grad_vjps(g: Tensor) -> Callable:
            d_hs = g.data.reshape(hs.shape)
            return lambda o: _one_pass_vjps(
                (*gates, g, x), lambda v, weights: _complex_step(W, b, x.data, steps, d_hs, v,
                                                                 weights))

        return _one_pass_vjps(
            (*gates, x), lambda g, weights: _scan_backward(W, x.data, hs, saved,
                                                           g.reshape(hs.shape), weights),
            x_grad_vjps)

    return T._record(hs.reshape(steps * x.shape[0], u), "lstm_scan", (x, *gates), make_vjps)


def generator_forward(g: ParamSet, z: Tensor) -> Tensor:
    """Noise [batch, noise_len] -> return windows [batch, seq_len, 1].

    The noise vector is the input feature set of every timestep; the
    sequence length comes from the architecture, and tanh keeps the
    output inside (-1, 1).
    """
    z = T._as_tensor(z)
    if g.arch is None:
        raise ValueError("generator ParamSet carries no architecture")
    if z.rank != 2:
        raise ValueError(f"generator: expected noise [batch, noise_len], got {z.shape}")
    batch, seq_len = z.shape[0], g.arch.seq_len
    hs = lstm_scan(g, z, seq_len)
    y = T.tanh(T.add_row(T.matmul(hs, g["proj.W"]), g["proj.b"]))  # [seq*batch, 1]
    y = T.reshape(y, (seq_len, batch, 1))
    return T.transpose(y, (1, 0, 2))


def critic_forward(d: ParamSet, x: Tensor) -> Tensor:
    """Windows [batch, seq_len, 1] -> one unbounded score per sample.

    Per-step scores from the time-shared dense head are averaged over
    the timesteps; no sigmoid anywhere.
    """
    x = T._as_tensor(x)
    if x.rank != 3:
        raise ValueError(f"critic: expected [batch, seq_len, features], got {x.shape}")
    batch, steps, _ = x.shape
    hs = lstm_scan(d, x, steps)
    scores = T.add_row(T.matmul(hs, d["proj.W"]), d["proj.b"])  # [steps*batch, 1], step-major
    per_step = T.reshape(scores, (steps, batch))
    return T.reduce("mean", per_step, axis=0)
