"""LSTM and dense layers composed into the generator and critic networks.

Both networks are a single LSTM block followed by a time-shared dense
projection. The generator feeds the same noise vector into every
timestep and squashes the per-step projection with tanh, so its output
lives in (-1, 1) to match min-max scaled training windows. The critic
projects each hidden state to one score and averages the scores over
time; there is deliberately no sigmoid, so scores are unbounded.

Each forward pass concatenates the LSTM gate weights and biases once, in
column order [i | f | o | c~], so a step computes all gates with one
matmul, one sigmoid and one tanh. The parameters, and so the checkpoint
layout, stay the eight tensors ``lstm.W_i`` ... ``lstm.b_o``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

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


def _fused_gates(p: LstmParams) -> tuple[Tensor, Tensor]:
    """Gate weights [units+features, 4*units] and biases [4*units], [i|f|o|c~]."""
    return (T.concat([p.W_i, p.W_f, p.W_o, p.W_c], axis=1),
            T.concat([p.b_i, p.b_f, p.b_o, p.b_c], axis=0))


def lstm_cell_step(p: LstmParams, x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
                   _fused: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, Tensor]:
    """One step of the four-gate cell.

    i = sigmoid(W_i [h, x] + b_i),  c~ = tanh(W_c [h, x] + b_c)
    f = sigmoid(W_f [h, x] + b_f),  o  = sigmoid(W_o [h, x] + b_o)
    c = f * c_prev + i * c~,        h  = o * tanh(c)

    A scan passes ``_fused_gates(p)`` in, so it is built once per pass.
    """
    x_t, h_prev, c_prev = map(T._as_tensor, (x_t, h_prev, c_prev))
    hx = T.concat([h_prev, x_t], axis=1)
    if hx.shape[1] != p.W_i.shape[0]:
        raise ValueError(f"lstm: concat width {hx.shape[1]} != gate rows {p.W_i.shape[0]}")
    W, b = _fused if _fused is not None else _fused_gates(p)
    u = p.units
    z = T.add_row(T.matmul(hx, W), b)
    sig = T.sigmoid(T.slice_(z, 1, 0, 3 * u))
    c_tilde = T.tanh(T.slice_(z, 1, 3 * u, 4 * u))
    i_t, f_t, o_t = (T.slice_(sig, 1, k * u, (k + 1) * u) for k in range(3))
    c_t = T.add(T.mul(f_t, c_prev), T.mul(i_t, c_tilde))
    h_t = T.mul(o_t, T.tanh(c_t))
    return h_t, c_t


def _zero_state(batch: int, units: int) -> tuple[Tensor, Tensor]:
    h = Tensor(np.zeros((batch, units)), requires_grad=False, op="const")
    c = Tensor(np.zeros((batch, units)), requires_grad=False, op="const")
    return h, c


def _lstm_scan(p: LstmParams, x_seq: Tensor) -> list[Tensor]:
    """Per-step hidden states, as a list of [batch, units] tensors."""
    if x_seq.rank != 3:
        raise ValueError(f"lstm: expected rank-3 input, got {x_seq.shape}")
    batch, steps, features = x_seq.shape
    if steps < 1:
        raise ValueError("lstm: needs at least one timestep")
    h, c = _zero_state(batch, p.units)
    fused = _fused_gates(p)
    hs = []
    for t in range(steps):
        x_t = T.reshape(T.slice_(x_seq, 1, t, t + 1), (batch, features))
        h, c = lstm_cell_step(p, x_t, h, c, _fused=fused)
        hs.append(h)
    return hs


def generator_forward(g: ParamSet, z: Tensor) -> Tensor:
    """Noise [batch, noise_len] -> return windows [batch, seq_len, 1].

    The noise vector is the input feature set of every timestep; the
    sequence length is fixed by the projection loop, and tanh keeps the
    output inside (-1, 1).
    """
    z = T._as_tensor(z)
    if g.arch is None:
        raise ValueError("generator ParamSet carries no architecture")
    p = g.lstm()
    noise_features = p.W_i.shape[0] - p.units
    if z.rank != 2 or z.shape[1] != noise_features:
        raise ValueError(f"generator: noise {z.shape} incompatible with gate width "
                         f"{p.W_i.shape[0]} (units {p.units})")
    batch = z.shape[0]
    seq_len = g.arch.seq_len
    h, c = _zero_state(batch, p.units)
    fused = _fused_gates(p)
    hs = []
    for _ in range(seq_len):
        h, c = lstm_cell_step(p, z, h, c, _fused=fused)
        hs.append(h)
    y = T.tanh(dense_forward(g.proj(), _time_shared_dense_input(hs)))  # [seq*batch, 1]
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
    hs = _lstm_scan(d.lstm(), x)
    scores = dense_forward(d.proj(), _time_shared_dense_input(hs))  # [steps*batch, 1]
    per_step = T.reshape(scores, (steps, batch))
    return T.reduce("mean", per_step, axis=0)


def _time_shared_dense_input(hs: list[Tensor]) -> Tensor:
    """Per-step [batch, units] states as one [steps*batch, units], step-major."""
    steps = len(hs)
    batch, units = hs[0].shape
    return T.reshape(T.stack(hs, axis=0), (steps * batch, units))
