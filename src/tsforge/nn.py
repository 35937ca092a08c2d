"""LSTM and dense layers composed into the generator and critic networks.

Both networks are a single LSTM block followed by a time-shared dense
projection. The generator feeds the same noise vector into every
timestep and squashes the per-step projection with tanh, so its output
lives in (-1, 1) to match min-max scaled training windows. The critic
projects each hidden state to one score and averages the scores over
time; there is deliberately no sigmoid, so scores are unbounded.

There is one LSTM: ``lstm_scan`` steps ``lstm_cell_step`` in numpy over
the timesteps as one tape node whose vjp is a numpy BPTT. The gates are
fused in column order [i | f | o | c~], one matmul, one sigmoid and one
tanh per step; the parameters, and so the checkpoint layout, stay the
eight tensors ``lstm.W_i`` ... ``lstm.b_o``. The gradient penalty
differentiates the critic's input gradient again, by a complex step
(Martins, Sturdza & Alonso 2003, ACM TOMS 29(3)): one pass at x + i h v,
with v the upstream and h = 1e-20 / max|v|, gives Im f / h = f'(x) v +
O(h^2) for every analytic f of the pass. No nearby values are subtracted,
so nothing cancels, and the O(h^2) term lies some 40 orders of magnitude
under the derivative: the result is exact to float64 rounding.
"""

from __future__ import annotations

import contextlib
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


@dataclass
class DenseParams:
    """Weight matrix [in, out] and bias [out] of one dense layer."""

    W: Tensor
    b: Tensor


@dataclass
class LstmParams:
    """Gate weights over the concatenated [h_prev, x_t] and gate biases."""

    W_i: Tensor
    W_f: Tensor
    W_c: Tensor
    W_o: Tensor
    b_i: Tensor
    b_f: Tensor
    b_c: Tensor
    b_o: Tensor

    @property
    def units(self) -> int:
        return self.W_i.shape[1]


class ParamSet:
    """Ordered, named collection of trainable tensors for one network.

    Carries the architecture it was initialized for, so a generator
    knows its own output length.
    """

    def __init__(self, kind: str, params: dict[str, Tensor],
                 arch: ArchitectureSpec | None = None):
        if kind not in ("generator", "critic"):
            raise ValueError(f"unknown network kind {kind!r}")
        if len(set(params)) != len(params):
            raise ValueError("parameter names must be unique")
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

    @contextlib.contextmanager
    def frozen(self):
        """Treat every parameter as a constant inside the block: ops
        recorded there carry no gradient edge into this network."""
        state = {k: t.requires_grad for k, t in self.items()}
        for t in self._params.values():
            t.requires_grad = False
        try:
            yield self
        finally:
            for k, t in self.items():
                t.requires_grad = state[k]

    def lstm(self) -> LstmParams:
        return LstmParams(*(self[f"lstm.{n}"] for n in
                            ("W_i", "W_f", "W_c", "W_o", "b_i", "b_f", "b_c", "b_o")))

    def proj(self) -> DenseParams:
        return DenseParams(self["proj.W"], self["proj.b"])


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


def dense_forward(p: DenseParams, x: Tensor) -> Tensor:
    """x [n, in] -> x W + b, activation left to the caller."""
    x = T._as_tensor(x)
    if x.rank != 2 or x.shape[1] != p.W.shape[0]:
        raise ValueError(f"dense: input {x.shape} incompatible with weights {p.W.shape}")
    return T.add_row(T.matmul(x, p.W), p.b)


def lstm_cell_step(W: np.ndarray, b: np.ndarray, hx: np.ndarray,
                   c_prev: np.ndarray) -> tuple[np.ndarray, ...]:
    """One cell step on hx = [h_prev, x_t] with the fused gates: i, f, o =
    sigmoid(hx W + b) and c~ = tanh(hx W + b) by column block, c = f * c_prev
    + i * c~ and h = o * tanh(c). Returns (sigmoid [i | f | o], c~, c, tanh c, h)."""
    u = b.shape[0] // 4
    z = hx @ W + b
    sig = T._sigmoid(z[:, :3 * u])
    c_tilde = np.tanh(z[:, 3 * u:])
    c = sig[:, u:2 * u] * c_prev + sig[:, :u] * c_tilde
    tanh_c = np.tanh(c)
    return sig, c_tilde, c, tanh_c, sig[:, 2 * u:] * tanh_c


def _scan_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray, steps: int,
                  keep: bool) -> tuple[np.ndarray, list[tuple]]:
    """The hidden states [steps, batch, units] from the zero state and, if
    ``keep``, each step's ([h, x], sigmoid gates, c~, c, tanh c)."""
    batch, u = x.shape[0], b.shape[0] // 4
    hs = np.empty((steps, batch, u), dtype=x.dtype)
    h = c = np.zeros((batch, u))
    saved = []
    for t in range(steps):
        hx = np.concatenate([h, x if x.ndim == 2 else x[:, t]], axis=1)
        sig, c_tilde, c, tanh_c, h = lstm_cell_step(W, b, hx, c)
        hs[t] = h
        if keep:
            saved.append((hx, sig, c_tilde, c, tanh_c))
    return hs, saved


def _scan_backward(W: np.ndarray, saved: list[tuple], x_shape: tuple[int, ...],
                   d_hs: np.ndarray, weights: bool) -> list[np.ndarray]:
    """BPTT for ``_scan_forward``, latest step first: the gradients of x, then
    of the weight and bias blocks in fused column order (zero unless
    ``weights``), in the dtype of the saved forward."""
    u = W.shape[1] // 4
    dx, dW, db = (np.zeros(shape, saved[0][0].dtype) for shape in (x_shape, W.shape, 4 * u))
    dh_next = dc_next = 0.0
    for t in range(len(saved) - 1, -1, -1):
        hx, sig, c_tilde, _, tanh_c = saved[t]
        dh = d_hs[t] + dh_next
        dc = dc_next + (dh * sig[:, 2 * u:]) * (1.0 - tanh_c * tanh_c)
        c_prev = saved[t - 1][3] if t else 0.0
        d_sig = np.concatenate([dc * c_tilde, dc * c_prev, dh * tanh_c], axis=1)
        dz = np.concatenate([d_sig * (sig * (1.0 - sig)),
                             (dc * sig[:, :u]) * (1.0 - c_tilde * c_tilde)], axis=1)
        dc_next = dc * sig[:, u:2 * u]
        dhx = dz @ W.T
        dh_next = dhx[:, :u]
        if len(x_shape) == 3:
            dx[:, t] = dhx[:, u:]
        else:
            dx += dhx[:, u:]
        if weights:
            dW += hx.T @ dz
            db += np.sum(dz, axis=0)
    return [dx, *np.split(dW, 4, axis=1), *np.split(db, 4)]


def _complex_step(W: np.ndarray, b: np.ndarray, x: np.ndarray, steps: int,
                  d_hs: np.ndarray, v: np.ndarray, weights: bool) -> list[np.ndarray]:
    """The gradients of <v, dx>, with dx ``_scan_backward``'s x-gradient for
    the upstream d_hs, with respect to d_hs, x and the weight and bias
    blocks: the imaginary parts of one pass at x + i h v, over h."""
    scale = np.max(np.abs(v)) or 1.0   # v = 0 has zero gradients at any step
    hs, saved = _scan_forward(W, b, x + 1e-20j * (v / scale), steps, keep=True)
    grads = _scan_backward(W, saved, x.shape, d_hs, weights)
    return [g.imag * (scale / 1e-20) for g in (hs.reshape(-1, hs.shape[-1]), *grads)]


def _not_differentiable(g: Tensor) -> Tensor:
    raise NotImplementedError("this lstm_scan gradient cannot be differentiated again")


def _one_pass_vjps(inputs: tuple, run: Callable, first_vjps: Callable | None = None) -> list:
    """vjps of ``inputs`` whose results all come from one ``run(upstream)`` per
    backward pass. Result 0 is recorded with ``first_vjps(upstream)``; the
    others, and result 0 without it, raise if differentiated, not drop a term."""
    memo: list = []

    def vjp(g: Tensor, k: int) -> Tensor:
        if not memo or memo[0] is not g:
            memo[:] = [g, run(g.data)]
        return T._record(memo[1][k], "lstm_scan_vjp", (g, *inputs),
                         first_vjps(g) if k == 0 and first_vjps else
                         lambda o: [(t, _not_differentiable) for t in (g, *inputs)])

    return [(t, lambda g, k=k: vjp(g, k)) for k, t in enumerate(inputs)]


def lstm_scan(p: LstmParams, x: Tensor, steps: int) -> Tensor:
    """Step-major hidden states [steps*batch, units] of one pass from zero
    state over a window x [batch, steps, features], or a vector x [batch,
    features] fed at every step, as one tape node on x and the 8 gates.

    Its vjp, a numpy BPTT, runs once per backward pass for all nine inputs;
    per-step intermediates are kept only while a graph records. Under a
    recording backward the x-gradient can be differentiated again, by one
    complex-step pass for all ten of its inputs; a weight gradient, or the
    x-gradient's own gradients, raise NotImplementedError instead."""
    x = T._as_tensor(x)
    u = p.units
    if (x.rank not in (2, 3) or x.shape[-1] != p.W_i.shape[0] - u or steps <= 0
            or (x.rank == 3 and x.shape[1] != steps)):
        raise ValueError(f"lstm: {steps} steps over input {x.shape} with gate rows "
                         f"{p.W_i.shape[0]} (units {u})")
    gates = (p.W_i, p.W_f, p.W_o, p.W_c, p.b_i, p.b_f, p.b_o, p.b_c)  # [i | f | o | c~]
    W = np.concatenate([t.data for t in gates[:4]], axis=1)
    b = np.concatenate([t.data for t in gates[4:]])
    hs, saved = _scan_forward(W, b, x.data, steps, keep=T.active_graph() is not None)

    def make_vjps(out):
        weights = any(t._vjps or t.requires_grad for t in gates)

        def x_grad_vjps(g: Tensor) -> Callable:
            d_hs = g.data.reshape(hs.shape)
            return lambda o: _one_pass_vjps(
                (g, x, *gates), lambda v: _complex_step(W, b, x.data, steps, d_hs, v, weights))

        return _one_pass_vjps(
            (x, *gates), lambda g: _scan_backward(W, saved, x.shape, g.reshape(hs.shape), weights),
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
    y = T.tanh(dense_forward(g.proj(), lstm_scan(g.lstm(), z, seq_len)))  # [seq*batch, 1]
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
    scores = dense_forward(d.proj(), lstm_scan(d.lstm(), x, steps))  # [steps*batch, 1], step-major
    per_step = T.reshape(scores, (steps, batch))
    return T.reduce("mean", per_step, axis=0)
