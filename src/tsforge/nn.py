"""LSTM and dense layers composed into the generator and critic networks.

Both networks are a single LSTM block followed by a time-shared dense
head with one output. The generator feeds the same noise vector into
every timestep and squashes the per-step head value with tanh, so its
output lives in (-1, 1) to match min-max scaled training windows. The
critic averages its per-step head values over time into one score;
there is deliberately no sigmoid, so scores are unbounded.

A network's parameters are a ``ParamSet``, its ten named float64 arrays,
which the optimizer updates in place and the checkpoint writes as they
are. The sigmoid kernel lives here, where the scan runs it; ``tensor.sigmoid``
imports it.

There is one LSTM forward, ``lstm_scan``, and one BPTT, ``lstm_vjp``.
``lstm_scan`` steps ``lstm_cell_step`` in numpy over the timesteps and
applies the head inside the scan. It returns the head values
h_t proj.W + proj.b, and no hidden state outlives its step. Nothing here
records on a tape: each forward takes ``keep`` and returns its values
with the saved set (or None), and its backward is called explicitly with
that set and the upstream gradient: ``lstm_vjp``, ``critic_backward`` and
``generator_backward``, the first two with an explicit ``weights`` flag,
since a BPTT for the input gradient alone skips the weight GEMMs. The
saved set holds the input x itself (a reference, not a copy), the fused
gate weights, proj.W, the activated gates [T, 4u, B] and the cell states
[T + 1, u, B], 5u floats per sample and step besides x; no backward takes
its input again. The gates are fused in column order [i | f | o | c~];
the checkpoint layout stays the ten arrays ``lstm.W_i`` ... ``lstm.b_o``,
``proj.W`` and ``proj.b``. The kernel runs feature-major: each critic
step computes W^T [h; x_t] + b as [4u, B], so every gate block is a
contiguous slab. A pass makes every buffer and view a step reads once: W^T,
the bias with its sigmoid rows negated, so that a step's (-b) - W^T hx is
-(W^T hx + b) bit for bit, exp's argument, and the gate blocks. One
errstate over the scan silences exp's overflow alone. h goes straight into
the next step's [h; x] buffer, where the head reads it. The generator's
noise z is the same at every step, so its steps
compute W_h^T h + (b + W_x^T z), the bracket made once per call: the
input projection that RNN kernels hoist out of the recurrence. h's
upstream enters as proj.W ds_t, and h_{t-1} = o_{t-1} tanh c_{t-1} is
recomputed, one multiply per step on the tanh c the BPTT recomputes
anyway (Chen et al. 2016, arXiv:1604.06174); x_t comes from the saved x.

The gradient penalty differentiates the critic's input gradient again:
``critic_input_grad_vjp`` takes the weight gradients of <v, grad_x D> by
a complex step (Martins, Sturdza & Alonso 2003, ACM TOMS 29(3)): the
critic's own pass pair, ``lstm_scan`` and ``critic_backward``, at
x + i h v, with h = 1e-20 / max|v|, gives Im f / h = f'(x) v + O(h^2)
for every analytic f of the pass. No nearby values are subtracted, so
nothing cancels, and the O(h^2) term lies some 40 orders of magnitude
under the derivative: the result is exact to float64 rounding. The pass
runs in real arithmetic: real weights times complex activations are one
real GEMM on the float64 view [K, 2B], and sigmoid and tanh at a + ib are
f(a) + i b f'(a). That expansion drops only O(b^2) relative terms, so it
needs |Im| << 1, which h guarantees. The pass's recomputed h_t give
proj.W's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


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
    """Ordered map of one network's parameter names to float64 arrays.

    ``lstm_scan`` reads the LSTM's and the head's arrays from it by name,
    and the optimizer updates them in place. It carries its network's
    architecture: a generator reads its output length there, and a
    checkpoint writes the generator's as its own.
    """

    def __init__(self, kind: str, params: dict[str, np.ndarray], arch: ArchitectureSpec):
        if kind not in ("generator", "critic"):
            raise ValueError(f"unknown network kind {kind!r}")
        self.kind = kind
        self.arch = arch
        self._params = dict(params)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def items(self):
        return self._params.items()

    def copy(self) -> "ParamSet":
        return ParamSet(self.kind, {k: v.copy() for k, v in self.items()}, self.arch)


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
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec, kind).items():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.full(shape, 1.0 if name == "lstm.b_f" else 0.0)
    return ParamSet(kind, params, arch=spec)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in four in-place passes, into ``out`` (which may be
    x) if given. Below about -709.78, exp(-x) overflows to inf and 1 / inf
    gives 0, under 1e-304 from the exact value, so that overflow is not
    reported; on [-700, 700] the result is within 2 ulp of exact."""
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        return _sigmoid_of_negated(out)


def _sigmoid_of_negated(z: np.ndarray) -> np.ndarray:
    """z = 1 / (1 + exp(z)), the sigmoid of -z, in place; exp may overflow."""
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _ops(dtype: np.dtype, rows: int, batch: int) -> tuple:
    """A pass's (matmul(A, B, out), sigmoid of -z in place, tanh(z, out)):
    numpy's own in a real pass. At a complex z = a + ib (the complex step),
    real A times complex B is one real GEMM on the float64 views, and f(z) =
    f(a) + i b f'(a) on a copy of a in a scratch of ``rows`` rows, f' = s (s - 1)
    for the sigmoid of -z, the exact negation of s (1 - s), and 1 - f^2 for
    tanh: the dropped O(b^2) term lies some 40 orders under b f'(a)."""
    if dtype.kind != "c":
        return np.matmul, _sigmoid_of_negated, np.tanh
    scratch = np.empty((2, rows, batch))

    def activate(z, out, sigmoid):
        s, d = scratch[0, :len(z)], scratch[1, :len(z)]
        s[...] = z.real
        if sigmoid:
            _sigmoid_of_negated(s)
            np.subtract(s, 1.0, out=d)
            d *= s
        else:
            np.tanh(s, out=s)
            np.multiply(s, s, out=d)
            np.subtract(1.0, d, out=d)
        np.multiply(z.imag, d, out=out.imag)
        out.real = s
    return (lambda A, B, out: np.matmul(A, B.view(np.float64), out=out.view(np.float64)),
            lambda z: activate(z, z, True), lambda z, out: activate(z, out, False))


def lstm_cell_step(WT: np.ndarray, bias: tuple[np.ndarray, np.ndarray], hx: np.ndarray,
                   c_prev: np.ndarray, gates: tuple[np.ndarray, ...], c: np.ndarray,
                   ops: tuple) -> None:
    """One feature-major cell step on hx = [h_prev; x_t] [K, B], or h_prev alone
    when the input's part is in the bias, by the pass's ``_ops`` through views
    it made once: WT = W^T; bias = (-b_ifo, b_c~); gates = (g, g[:3u], i, f, o,
    c~, h = hx[:u]) of g [4u, B] = [i; f; o; c~], the sigmoid of W^T hx + b from
    (-b) - W^T hx by row block and tanh for c~; c = f c_prev + i c~; h = o tanh(c)."""
    matmul, sigmoid_of_negated, tanh = ops
    g, sig, i, f, o, cand, h = gates
    matmul(WT, hx, g)
    np.subtract(bias[0], sig, out=sig)
    cand += bias[1]
    sigmoid_of_negated(sig)
    tanh(cand, cand)
    np.multiply(f, c_prev, out=c)
    np.multiply(i, cand, out=h)
    c += h
    tanh(c, h)
    h *= o


# the gate arrays in the kernel's column order [i | f | o | c~], then the head
_PARAMS = (*(f"lstm.{kind}_{gate}" for kind in "Wb" for gate in "ifoc"), "proj.W", "proj.b")


def lstm_scan(p: ParamSet, x: np.ndarray, steps: int, keep: bool = False,
              ) -> tuple[np.ndarray, tuple | None]:
    """Step-major head values h_t proj.W + proj.b [steps, batch] of one pass
    from zero state over a window x [batch, steps, features], or a vector x
    [batch, features] fed at every step, and, if ``keep``, the saved set
    that ``lstm_vjp`` takes: x itself, the fused gate weights W, proj.W,
    the activated gates [steps, 4u, B] and the cell states [steps + 1, u, B],
    the first one zero. No hidden state outlives its step.

    A window steps on hx = [h; x_t] through all of W. Noise x [B, F] is the
    same at every step, so its part W_x^T z joins the per-call bias once,
    and each step computes W_h^T h + (b + W_x^T z) on hx = h through W's
    first u rows alone."""
    rows, u = p["lstm.W_i"].shape
    if x.dtype not in (np.float64, np.complex128):
        raise ValueError(f"lstm: input dtype {x.dtype} is neither float64 nor complex128")
    if (x.ndim not in (2, 3) or x.shape[-1] != rows - u or steps <= 0
            or (x.ndim == 3 and x.shape[1] != steps)):
        raise ValueError(f"lstm: {steps} steps over input {x.shape} with gate rows "
                         f"{rows} (units {u})")
    W = np.concatenate([p[name] for name in _PARAMS[:4]], axis=1)
    b = np.concatenate([p[name] for name in _PARAMS[4:8]])
    w, batch = p["proj.W"], x.shape[0]
    W_step, bias, ops = W, np.empty((4 * u, batch), x.dtype), _ops(x.dtype, 3 * u, batch)
    if x.ndim == 2:
        ops[0](W[u:].T, np.ascontiguousarray(x.T), bias)
        bias += b[:, None]
        W_step = W[:u]
    else:
        bias[...] = b[:, None]
    np.negative(bias[:3 * u], out=bias[:3 * u])
    heads = np.empty((steps, 1, batch), x.dtype)
    hx = np.zeros((W_step.shape[0], batch), x.dtype)
    gates = np.empty((steps if keep else 1, 4 * u, batch), x.dtype)
    cells = np.zeros((steps + 1 if keep else 2, u, batch), x.dtype)
    WT, wT, bias, h, x_rows = W_step.T, w.T, (bias[:3 * u], bias[3 * u:]), hx[:u], hx[u:]
    views = lambda g: (g, g[:3 * u], *g.reshape(4, u, batch), h)
    step_views, xs, (c, c_prev) = views(gates[0]), np.moveaxis(x, 0, -1), cells[:2]
    with np.errstate(over="ignore"):
        for t in range(steps):
            if x.ndim == 3:
                x_rows[...] = xs[t]
            c_prev, c = (cells[t], cells[t + 1]) if keep else (c, c_prev)
            step_views = views(gates[t]) if keep else step_views
            lstm_cell_step(WT, bias, hx, c_prev, step_views, c, ops)
            ops[0](wT, h, heads[t])
    return heads.reshape(steps, batch) + p["proj.b"], (x, W, w, gates, cells) if keep else None


def lstm_vjp(saved: tuple, ds: np.ndarray, weights: bool,
             ) -> tuple[dict[str, np.ndarray] | None, np.ndarray]:
    """The BPTT of ``lstm_scan`` from the upstream ds [steps, batch] of its
    head values, latest step first: the gradients of p's ten arrays by
    name, or None unless ``weights``, and the gradient of the saved x.

    h's upstream is proj.W ds_t + dh_next. tanh c_{t-1} is recomputed one
    step early, and with it h_{t-1} = o_{t-1} tanh c_{t-1} for the weight
    GEMM and proj.W's gradient; x_t comes from the saved x. In a complex
    pass the gate and proj.W gradients hold only the imaginary parts, the
    one part the complex step reads."""
    x, W, w, gates, cells = saved
    steps, _, batch = gates.shape
    u, dtype, K = cells.shape[1], gates.dtype, W.shape[0]
    parts = (lambda a: (a.imag, a.real)) if dtype.kind == "c" else (lambda a: (a,))
    dx = np.zeros(x.shape, dtype)
    dz, dhx = np.empty((4 * u, batch), dtype), np.zeros((K, batch), dtype)
    dh, dc, tanh_c, h = (np.zeros((u, batch), dtype) for _ in range(4))
    work = np.empty((3 * u, batch), dtype)
    one_minus = work[u:2 * u]
    # [h_{t-1}, x_t, 1] by part, the real part last: dz times it gives the
    # weight and bias gradients of a step, [4u, K + 1], in one GEMM
    hx1 = np.zeros((batch, len(parts(dz)), K + 1))
    hx1[:, -1, K] = 1.0
    dWb, dWb_t = np.zeros((4 * u, K + 1)), np.empty((4 * u, K + 1))
    dw = np.zeros(u)
    matmul, _, tanh = _ops(dtype, u, batch)
    # the views the loop reads: gate blocks, dz's and dhx's, hx1's h and x parts
    G, (dz_i, dz_f, dz_o, dz_c) = gates.reshape(steps, 4, u, batch), dz.reshape(4, u, batch)
    dz_ifo, dh_next, dx_t, dxs = dz[:3 * u], dhx[:u], dhx[u:], np.moveaxis(dx, 0, -1)
    h_part, dz_2d, hx1_2d = parts(h)[0], dz.view(np.float64), hx1.reshape(-1, K + 1)
    hx_rows = [(hx1[:, k, :u], a, hx1[:, k, u:K], b)
               for k, (a, b) in enumerate(zip(parts(h.T), parts(x)))]
    tanh(cells[steps], tanh_c)
    if weights:
        np.multiply(tanh_c, G[-1, 2], out=h)
    for t in range(steps - 1, -1, -1):
        (g_i, g_f, g_o, g_c), g_ifo = G[t], gates[t, :3 * u]
        np.multiply(w, ds[t], out=dh)
        dh += dh_next
        np.multiply(dh, tanh_c, out=dz_o)                           # d o
        np.multiply(tanh_c, tanh_c, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        dh *= g_o
        dh *= one_minus
        dc += dh
        np.multiply(dc, g_c, out=dz_i)                              # d i
        np.multiply(dc, cells[t], out=dz_f)                         # d f
        np.subtract(1.0, g_ifo, out=work)
        work *= g_ifo
        dz_ifo *= work
        np.multiply(dc, g_i, out=dz_c)                              # d c~
        np.multiply(g_c, g_c, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        dz_c *= one_minus
        dc *= g_f
        matmul(W, dz, dhx)                                          # [dh_next; dx_t]
        if x.ndim == 3:
            dxs[t] = dx_t
        else:
            dxs += dx_t
        if t:
            tanh(cells[t], tanh_c)                                  # tanh c_{t-1}
        if weights:
            dw += h_part @ ds[t]                                    # h = h_t
            if t:
                np.multiply(tanh_c, G[t - 1, 2], out=h)
            for h_dst, h_src, x_dst, x_src in hx_rows:
                h_dst[...] = h_src if t else 0.0
                x_dst[...] = x_src[:, t] if x.ndim == 3 else x_src
            # Im(dz a) = Re dz Im a + Im dz Re a: one real GEMM by parts
            np.matmul(dz_2d, hx1_2d, out=dWb_t)
            dWb += dWb_t
    if not weights:
        return None, dx
    return dict(zip(_PARAMS, [*np.split(dWb[:, :K].T, 4, axis=1), *np.split(dWb[:, K], 4),
                              dw[:, None], np.sum(ds.reshape(-1, 1), axis=0)])), dx


def critic_input_grad_vjp(d: ParamSet, x: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
    """The gradients of <v, grad_x sum(critic_forward(d, x))> with respect
    to d's ten arrays, for windows x and a direction v [batch, seq_len,
    features]: the mixed second derivative that the gradient penalty trains
    through, as the imaginary parts of the critic's own scan and BPTT at
    x + i h v, over h. The input gradient does not depend on proj.b, whose
    gradient is an exact 0."""
    scale = np.max(np.abs(v)) or 1.0   # v = 0 has zero gradients at any step
    _, saved = lstm_scan(d, x + 1e-20j * (v / scale), x.shape[1], keep=True)
    grads, _ = critic_backward(saved, np.ones(x.shape[0]), weights=True)
    grads = {name: g * (scale / 1e-20) for name, g in grads.items()}
    grads["proj.b"] = np.zeros(d["proj.b"].shape)
    return grads


def generator_forward(g: ParamSet, z: np.ndarray, keep: bool = False,
                      ) -> tuple[np.ndarray, tuple | None]:
    """Noise [batch, noise_len] -> return windows [batch, seq_len, 1], and,
    if ``keep``, the saved set that ``generator_backward`` takes.

    The noise vector is the input feature set of every timestep; the
    sequence length comes from the architecture, and tanh keeps the
    output inside (-1, 1).
    """
    if z.ndim != 2:
        raise ValueError(f"generator: expected noise [batch, noise_len], got {z.shape}")
    heads, saved = lstm_scan(g, z, g.arch.seq_len, keep)
    y = np.tanh(heads)                                              # [seq_len, batch]
    return y[:, :, None].transpose(1, 0, 2), (saved, y) if keep else None


def generator_backward(saved: tuple, dy: np.ndarray) -> dict[str, np.ndarray]:
    """The gradients of the generator's ten arrays from the upstream dy
    [batch, seq_len, 1] of ``generator_forward``'s windows."""
    scan_saved, y = saved
    g = dy.transpose(1, 0, 2).reshape(y.shape) * (1.0 - y * y)
    return lstm_vjp(scan_saved, g, True)[0]


def critic_forward(d: ParamSet, x: np.ndarray, keep: bool = False,
                   ) -> tuple[np.ndarray, tuple | None]:
    """Windows [batch, seq_len, 1] -> one unbounded score per sample, and,
    if ``keep``, the saved set that ``critic_backward`` takes.

    Per-step scores from the time-shared dense head are averaged over
    the timesteps; no sigmoid anywhere.
    """
    if x.ndim != 3:
        raise ValueError(f"critic: expected [batch, seq_len, features], got {x.shape}")
    heads, saved = lstm_scan(d, x, x.shape[1], keep)
    return np.sum(heads, axis=0) * (1.0 / x.shape[1]), saved


def critic_backward(saved: tuple, ds: np.ndarray, weights: bool,
                    ) -> tuple[dict[str, np.ndarray] | None, np.ndarray]:
    """``lstm_vjp`` of the critic from the upstream ds [batch] of its
    scores: the gradients of its ten arrays (None unless ``weights``) and
    of the windows the saved set holds."""
    steps = saved[0].shape[1]
    return lstm_vjp(saved, np.repeat((ds * (1.0 / steps))[None], steps, axis=0), weights)
