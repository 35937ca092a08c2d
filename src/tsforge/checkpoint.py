"""Binary checkpoint container for networks, optimizer state and RNG.

Layout (all integers little-endian):

    magic   b"WGTS1"
    version u32
    count   u64                      number of tensor records
    records name_len u64, name utf8, rank u64, dims u64*rank,
            payload float64*prod(dims)
    meta    len u64, UTF-8 JSON key-value block
    crc     u32                      zlib.crc32 of every byte before it

Version 1 files have no crc trailer and still load. The trailer is checked
after the body parses, so a cut or a damaged length still reports where
it went wrong, and any other damage fails the checksum.

The records are the networks' parameter arrays and the optimizers'
caches, read and written as they are, under namespaced names:
``gen/<param>``, ``critic/<param>``, ``opt_g/<param>``, ``opt_c/<param>``.
Round-trips are bit-exact.

The metadata holds the architecture, the epoch, the parameter names,
the optimizer step counts, the scaler, the RNG state and a free-form
``extra`` block. The scaler and the RNG state are always there: a file
without either fails to load. The RNG state's arrays are written as
``{"__array__": list, "dtype": name}``. The architecture is the
networks' own: the generator's is written, and both networks' tensors
must fit it, on save and on load. Checkpoints
written by ``gan.train`` put the full training configuration
(``config``, a flat ``asdict(TrainConfig)``; older files nest the
optimizer's four keys under ``config["optim"]``) and the number of
training windows (``n_windows``) there, so a resume can be checked
against the configuration and the data it continues. Older files also
carry the generator's mode-collapse score, which nothing reads:
``tsforge train`` scores each checkpoint's generator itself.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import atomic_write
from .data import Scaler
from .nn import ArchitectureSpec, ParamSet, param_shapes
from .optim import RmspropState

MAGIC = b"WGTS1"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt or incompatible checkpoint files."""


@dataclass
class Checkpoint:
    """On-disk unit of training state; the architecture is the networks'.
    The scaler and the RNG state are always present."""

    epoch: int
    generator: ParamSet
    critic: ParamSet
    opt_generator: RmspropState
    opt_critic: RmspropState
    scaler: Scaler
    rng_state: dict
    extra: dict = field(default_factory=dict)


def _encode_array(obj):
    """``json.dumps``'s ``default``: an ndarray of the RNG state as its list
    and dtype."""
    if isinstance(obj, np.ndarray):
        return {"__array__": obj.tolist(), "dtype": str(obj.dtype)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _decode_array(obj: dict):
    """``json.loads``'s ``object_hook``: the inverse of ``_encode_array``."""
    if "__array__" in obj:
        return np.array(obj["__array__"], dtype=obj["dtype"])
    return obj


def _check_fits(ps: ParamSet, arch: ArchitectureSpec) -> None:
    """Raise ``ValueError`` unless the network's tensors have the names and
    shapes ``arch`` gives them."""
    if {n: t.shape for n, t in ps.items()} != param_shapes(arch, ps.kind):
        raise ValueError(f"the {ps.kind} tensors do not fit {arch}")


def _write_record(out: bytearray, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr, dtype="<f8")
    nb = name.encode("utf-8")
    out += struct.pack("<Q", len(nb))
    out += nb
    out += struct.pack("<Q", data.ndim)
    if data.ndim:
        out += struct.pack(f"<{data.ndim}Q", *data.shape)
    out += data.tobytes(order="C")


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated at offset {self.pos} "
                f"(wanted {n} more bytes, file has {len(self.blob)})")
        chunk = self.blob[self.pos: self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def save_checkpoint(path, cp: Checkpoint) -> None:
    """Serialize a checkpoint; see the module docstring for the layout.

    It is written by ``atomic_write``, so a run killed mid-write leaves the
    previous file at ``path`` whole. Both networks must fit the
    generator's architecture, which is the one written; otherwise it
    raises ``ValueError`` and writes nothing."""
    for ps in (cp.generator, cp.critic):
        _check_fits(ps, cp.generator.arch)
    records: list[tuple[str, np.ndarray]] = []
    for prefix, ps in (("gen", cp.generator), ("critic", cp.critic)):
        for name, arr in ps.items():
            records.append((f"{prefix}/{name}", arr))
    for prefix, st in (("opt_g", cp.opt_generator), ("opt_c", cp.opt_critic)):
        for name, arr in st.cache.items():
            records.append((f"{prefix}/{name}", arr))

    meta = {
        "format_version": FORMAT_VERSION,
        "epoch": cp.epoch,
        "arch": asdict(cp.generator.arch),
        "generator_names": list(cp.generator),
        "critic_names": list(cp.critic),
        "opt_steps": {"generator": cp.opt_generator.step, "critic": cp.opt_critic.step},
        "scaler": cp.scaler.to_dict(),
        "rng_state": cp.rng_state,
        "extra": cp.extra,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, default=_encode_array).encode("utf-8")

    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<Q", len(records))
    for name, arr in records:
        _write_record(out, name, arr)
    out += struct.pack("<Q", len(meta_bytes))
    out += meta_bytes
    out += struct.pack("<I", zlib.crc32(out))
    atomic_write(path, bytes(out))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back; bad magic, truncation, unknown format
    versions, a checksum mismatch, malformed metadata, a NaN or Inf in any
    tensor record and a negative optimizer cache entry all raise
    CheckpointError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from None
    try:
        return _decode(blob, path)
    except CheckpointError:
        raise
    except (ArithmeticError, LookupError, TypeError, ValueError) as e:
        # an overflow, a missing key or index, a wrong type or range, or
        # non-UTF-8 bytes
        raise CheckpointError(f"{path}: malformed checkpoint: "
                              f"{type(e).__name__}: {e}") from None


def _decode(blob: bytes, path) -> Checkpoint:
    r = _Reader(blob, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
    version = r.u32()
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported format version {version} "
                              f"(expected 1 or {FORMAT_VERSION})")
    if version == FORMAT_VERSION:
        r.blob = blob[:-4]                  # the body, before the crc trailer
    count = r.u64()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u64()
        name = r.take(name_len).decode("utf-8")
        rank = r.u64()
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank)) if rank else ()
        n = math.prod(dims)
        payload = r.take(8 * n)
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        if not np.all(np.isfinite(tensors[name])):
            raise CheckpointError(f"{path}: tensor record {name!r} holds a NaN or "
                                  f"infinite value")
    meta_len = r.u64()
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"), object_hook=_decode_array)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: corrupt metadata block: {e}") from None
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} trailing bytes at offset {r.pos}")
    if version == FORMAT_VERSION and zlib.crc32(r.blob) != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointError(f"{path}: checksum mismatch (the file is damaged)")

    arch = ArchitectureSpec(**meta["arch"])

    def network(prefix: str, kind: str) -> ParamSet:
        params = {}
        for name in meta[f"{kind}_names"]:
            key = f"{prefix}/{name}"
            if key not in tensors:
                raise CheckpointError(f"{path}: missing tensor record {key!r}")
            params[name] = tensors[key]
        ps = ParamSet(kind, params, arch=arch)
        _check_fits(ps, arch)
        return ps

    def optimizer(prefix: str, params: ParamSet, step) -> RmspropState:
        if type(step) is not int or step < 0:
            raise ValueError(f"optimizer step must be a non-negative integer, got {step!r}")
        cache = {n: tensors[f"{prefix}/{n}"] for n in params if f"{prefix}/{n}" in tensors}
        for n, arr in cache.items():
            if arr.shape != params[n].shape:
                raise ValueError(f"{prefix}/{n} has shape {arr.shape}, "
                                 f"its parameter {params[n].shape}")
            # a running mean of squares; RMSprop divides by its square root
            if np.any(arr < 0):
                raise ValueError(f"{prefix}/{n} holds a negative RMSprop cache entry")
        return RmspropState(cache=cache, step=step)

    gen = network("gen", "generator")
    critic = network("critic", "critic")
    if meta["scaler"] is None:
        raise CheckpointError(f"{path}: checkpoint holds no scaler")
    if meta["rng_state"] is None:
        raise CheckpointError(f"{path}: checkpoint holds no RNG state")
    epoch = meta["epoch"]
    if type(epoch) is not int or epoch < 0:
        raise ValueError(f"epoch must be a non-negative integer, got {epoch!r}")
    np.random.Philox(0).state = meta["rng_state"]   # raises unless it is a Philox state
    return Checkpoint(
        epoch=epoch, generator=gen, critic=critic,
        opt_generator=optimizer("opt_g", gen, meta["opt_steps"]["generator"]),
        opt_critic=optimizer("opt_c", critic, meta["opt_steps"]["critic"]),
        scaler=Scaler.from_dict(meta["scaler"]), rng_state=meta["rng_state"],
        extra=meta.get("extra", {}),
    )
