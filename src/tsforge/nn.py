"""LSTM and dense layers composed into the generator and critic networks.

Both networks are a single LSTM block followed by a time-shared dense
head with one output. The generator feeds the same noise vector into
every timestep and squashes the per-step head value with tanh, so its
output lives in (-1, 1) to match min-max scaled training windows. The
critic averages its per-step head values over time into one score;
there is deliberately no sigmoid, so scores are unbounded.

A network's parameters are a ``ParamSet``, its ten named float64 arrays,
which the optimizer updates in place and the checkpoint writes as they
are. The sigmoid kernel ``_sigmoid`` lives here, where the scan runs it;
``tensor.sigmoid`` imports it.

There is one LSTM: ``lstm_scan`` steps ``lstm_cell_step`` in numpy over
the timesteps and applies the head inside the scan. It returns the head
values h_t proj.W + proj.b, and no hidden state outlives its step. Nothing
here records on a tape: each forward takes ``keep`` and returns its values
with the saved set (or None), and its backward is called explicitly with
that set and the upstream gradient: ``lstm_vjp``, ``critic_backward`` and
``generator_backward``, the first two with an explicit ``weights`` flag,
since a BPTT for the input gradient alone skips the weight GEMMs. The
gates are fused in column order [i | f | o | c~]; the checkpoint layout
stays the ten arrays ``lstm.W_i`` ... ``lstm.b_o``, ``proj.W`` and
``proj.b``. The kernel runs feature-major: each critic step computes
W^T [h; x_t] + b as [4u, B], so every gate block is a contiguous slab,
and every ufunc writes into buffers made once per call; h goes straight
into the next step's [h; x] buffer, where the head reads it. The generator's noise z is the same at
every step, so its steps compute W_h^T h + (b + W_x^T z), the bracket
made once per call: the input projection that RNN kernels hoist out of
the recurrence. The BPTT keeps only the activated gates [T, 4u, B] and
the cell states [T + 1, u, B], 5u floats per sample and step. h's
upstream enters as proj.W ds_t, and h_{t-1} = o_{t-1} tanh c_{t-1} is
recomputed, one multiply per step on the tanh c the BPTT recomputes
anyway (Chen et al. 2016, arXiv:1604.06174); x_t comes from the input.

The gradient penalty differentiates the critic's input gradient again:
``critic_input_grad_vjp`` takes the weight gradients of <v, grad_x D> by
a complex step (Martins, Sturdza & Alonso 2003, ACM
TOMS 29(3)): one forward and BPTT at x + i h v, with h = 1e-20 / max|v|,
gives Im f / h = f'(x) v + O(h^2) for every analytic f of the pass. No
nearby values are subtracted, so nothing cancels, and the O(h^2) term
lies some 40 orders of magnitude under the derivative: the result is
exact to float64 rounding. The pass runs in real arithmetic: real
weights times complex activations are one real GEMM on the float64 view
[K, 2B], and sigmoid and tanh at a + ib are f(a) + i b f'(a). That
expansion drops only O(b^2) relative terms, so it needs |Im| << 1, which
h guarantees. The pass's recomputed h_t give proj.W's gradient.
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
    and the optimizer updates them in place. Carries the architecture it
    was initialized for, so a generator knows its own output length.
    """

    def __init__(self, kind: str, params: dict[str, np.ndarray],
                 arch: ArchitectureSpec | None = None):
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
        return ParamSet(self.kind, {k: v.copy() for k, v in self.items()}, arch=self.arch)


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
    if out is None:
        out = np.empty_like(x)
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _activate(z: np.ndarray, out: np.ndarray, n_sigmoid: int, scratch: np.ndarray) -> None:
    """out = the sigmoid of z's first ``n_sigmoid`` rows and tanh of the rest;
    out may be z. ``scratch`` is real [2, rows, B] and serves a complex z only.
    At a complex z = a + ib (the complex step) this is f(a) + i b f'(a), with
    f' = f (1 - f) or 1 - f^2, in real arithmetic on a contiguous copy of a:
    the dropped O(b^2) term lies some 40 orders of magnitude under b f'(a)."""
    n = n_sigmoid
    if z.dtype.kind != "c":
        if n:
            _sigmoid(z[:n], out=out[:n])
        np.tanh(z[n:], out=out[n:])
        return
    s, d = scratch[0, :z.shape[0]], scratch[1, :z.shape[0]]
    s[...] = z.real
    if n:
        _sigmoid(s[:n], out=s[:n])
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


def _scan_forward(W: np.ndarray, b: np.ndarray, w: np.ndarray, x: np.ndarray, steps: int,
                  keep: bool) -> tuple[np.ndarray, tuple | None]:
    """The head values w^T h_t [steps, 1, batch] from the zero state and, if
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
    heads = np.empty((steps, 1, batch), x.dtype)
    hx = np.zeros((W.shape[0], batch), x.dtype)
    gates = np.empty((steps if keep else 1, 4 * u, batch), x.dtype)
    cells = np.zeros((steps + 1 if keep else 2, u, batch), x.dtype)
    scratch = np.empty((2, 4 * u, batch))
    for t in range(steps):
        if x.ndim == 3:
            hx[u:] = x[:, t].T
        c_prev, c = (t, t + 1) if keep else (t % 2, (t + 1) % 2)
        lstm_cell_step(W, bias, hx, cells[c_prev], gates[t if keep else 0], cells[c], scratch)
        _matmul(w.T, hx[:u], heads[t])
    return heads, (gates, cells) if keep else None


def _scan_backward(W: np.ndarray, w: np.ndarray, x: np.ndarray, saved: tuple,
                   ds: np.ndarray, weights: bool) -> list[np.ndarray]:
    """BPTT for ``_scan_forward`` from the head's upstream ds [steps, B],
    latest step first: the gradients of the weight and bias blocks in fused
    column order, then of the head's w [u, 1] (all zero unless ``weights``),
    then of x. h's upstream is w ds_t + dh_next. tanh c_{t-1} is recomputed
    one step early, and with it h_{t-1} = o_{t-1} tanh c_{t-1} for the
    weight GEMM and w's gradient; x_t comes from ``x``. In a complex pass
    the weight and bias gradients hold only the imaginary parts, the one
    part the complex step reads."""
    gates, cells = saved
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
    scratch = np.empty((2, u, batch))
    _activate(cells[steps], tanh_c, 0, scratch)
    if weights:
        np.multiply(tanh_c, gates[-1, 2 * u:3 * u], out=h)
    for t in range(steps - 1, -1, -1):
        g = gates[t]
        np.multiply(w, ds[t], out=dh)
        dh += dhx[:u]
        np.multiply(dh, tanh_c, out=dz[2 * u:3 * u])                # d o
        np.multiply(tanh_c, tanh_c, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        dh *= g[2 * u:3 * u]
        dh *= one_minus
        dc += dh
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
        if t:
            _activate(cells[t], tanh_c, 0, scratch)                 # tanh c_{t-1}
        if weights:
            dw += parts(h)[0] @ ds[t]                               # h = h_t
            if t:
                np.multiply(tanh_c, gates[t - 1, 2 * u:3 * u], out=h)
            x_t = x if x.ndim == 2 else x[:, t]
            for k, (h_part, x_part) in enumerate(zip(parts(h), parts(x_t))):
                hx1[:, k, :u] = h_part.T if t else 0.0
                hx1[:, k, u:K] = x_part
            # Im(dz a) = Re dz Im a + Im dz Re a: one real GEMM by parts
            np.matmul(dz.view(np.float64), hx1.reshape(-1, K + 1), out=dWb_t)
            dWb += dWb_t
    return [*np.split(dWb[:, :K].T, 4, axis=1), *np.split(dWb[:, K], 4), dw[:, None], dx]


def _complex_step(W: np.ndarray, b: np.ndarray, w: np.ndarray, x: np.ndarray, steps: int,
                  ds: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """The gradients of <v, dx>, with dx ``_scan_backward``'s x-gradient for
    the upstream ds, with respect to the weight and bias blocks and the
    head's w: the imaginary parts of one pass at x + i h v, over h."""
    scale = np.max(np.abs(v)) or 1.0   # v = 0 has zero gradients at any step
    xc = x + 1e-20j * (v / scale)
    _, saved = _scan_forward(W, b, w, xc, steps, keep=True)
    *wb, _ = _scan_backward(W, w, xc, saved, ds, True)
    return [g * (scale / 1e-20) for g in wb]


# the gate arrays in the kernel's column order [i | f | o | c~], then the head
_PARAMS = (*(f"lstm.{kind}_{gate}" for kind in "Wb" for gate in "ifoc"), "proj.W", "proj.b")


def _fused(p: ParamSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gates' weights and biases fused in the kernel's column order,
    and the head's proj.W."""
    return (np.concatenate([p[name] for name in _PARAMS[:4]], axis=1),
            np.concatenate([p[name] for name in _PARAMS[4:8]]), p["proj.W"])


def lstm_scan(p: ParamSet, x: np.ndarray, steps: int, keep: bool = False,
              ) -> tuple[np.ndarray, tuple | None]:
    """Step-major head values h_t proj.W + proj.b [steps, batch] of one pass
    from zero state over a window x [batch, steps, features], or a vector x
    [batch, features] fed at every step, and, if ``keep``, the saved set
    that ``lstm_vjp`` takes. No hidden state outlives its step."""
    rows, u = p["lstm.W_i"].shape
    if (x.ndim not in (2, 3) or x.shape[-1] != rows - u or steps <= 0
            or (x.ndim == 3 and x.shape[1] != steps)):
        raise ValueError(f"lstm: {steps} steps over input {x.shape} with gate rows "
                         f"{rows} (units {u})")
    W, b, w = _fused(p)
    heads, saved = _scan_forward(W, b, w, x, steps, keep)
    return heads.reshape(steps, x.shape[0]) + p["proj.b"], (W, w, saved) if keep else None


def lstm_vjp(x: np.ndarray, saved: tuple, g: np.ndarray, weights: bool,
             ) -> tuple[dict[str, np.ndarray] | None, np.ndarray]:
    """The BPTT of ``lstm_scan`` from the upstream g [steps, batch] of its
    head values: the gradients of p's ten arrays by name, or None unless
    ``weights``, and the gradient of x."""
    W, w, state = saved
    *grads, dx = _scan_backward(W, w, x, state, g, weights)
    if not weights:
        return None, dx
    return dict(zip(_PARAMS, [*grads, np.sum(g.reshape(-1, 1), axis=0)])), dx


def critic_input_grad_vjp(d: ParamSet, x: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
    """The gradients of <v, grad_x sum(critic_forward(d, x))> with respect
    to d's ten arrays, for windows x and a direction v [batch, seq_len,
    features]: the mixed second derivative that the gradient penalty trains
    through, from one complex-step pass at the upstream 1/seq_len of the
    critic's time mean. The input gradient does not depend on proj.b, whose
    gradient is an exact 0."""
    batch, steps, _ = x.shape
    W, b, w = _fused(d)
    grads = _complex_step(W, b, w, x, steps, np.full((steps, batch), 1.0 / steps), v)
    return dict(zip(_PARAMS, [*grads, np.zeros(d["proj.b"].shape)]))


def generator_forward(g: ParamSet, z: np.ndarray, keep: bool = False,
                      ) -> tuple[np.ndarray, tuple | None]:
    """Noise [batch, noise_len] -> return windows [batch, seq_len, 1], and,
    if ``keep``, the saved set that ``generator_backward`` takes.

    The noise vector is the input feature set of every timestep; the
    sequence length comes from the architecture, and tanh keeps the
    output inside (-1, 1).
    """
    if g.arch is None:
        raise ValueError("generator ParamSet carries no architecture")
    if z.ndim != 2:
        raise ValueError(f"generator: expected noise [batch, noise_len], got {z.shape}")
    heads, saved = lstm_scan(g, z, g.arch.seq_len, keep)
    y = np.tanh(heads)                                              # [seq_len, batch]
    return y[:, :, None].transpose(1, 0, 2), (saved, y) if keep else None


def generator_backward(z: np.ndarray, saved: tuple, dy: np.ndarray) -> dict[str, np.ndarray]:
    """The gradients of the generator's ten arrays from the upstream dy
    [batch, seq_len, 1] of ``generator_forward``'s windows."""
    scan_saved, y = saved
    g = dy.transpose(1, 0, 2).reshape(y.shape) * (1.0 - y * y)
    return lstm_vjp(z, scan_saved, g, True)[0]


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


def critic_backward(x: np.ndarray, saved: tuple, ds: np.ndarray, weights: bool,
                    ) -> tuple[dict[str, np.ndarray] | None, np.ndarray]:
    """``lstm_vjp`` of the critic from the upstream ds [batch] of its
    scores: the gradients of its ten arrays (None unless ``weights``) and
    of the windows x."""
    steps = x.shape[1]
    return lstm_vjp(x, saved, np.repeat((ds * (1.0 / steps))[None], steps, axis=0), weights)
