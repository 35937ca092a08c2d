"""Checkpoint container: bit-exact round trips and corruption handling."""

import functools
import hashlib
import os
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsforge.checkpoint import (Checkpoint, CheckpointError, MAGIC, load_checkpoint,
                                save_checkpoint)
from tsforge.data import Scaler
from tsforge.gan import generate, make_rng
from tsforge.nn import ArchitectureSpec, init_params
from tsforge.optim import RmspropState, rmsprop_step

SPEC = ArchitectureSpec(noise_len=3, seq_len=6, features=1, lstm_units=4)


def make_checkpoint(seed=0) -> Checkpoint:
    gen = init_params(SPEC, "generator", seed)
    critic = init_params(SPEC, "critic", seed + 1)
    rng = make_rng(seed + 2)
    rng.standard_normal(17)  # advance so the state is non-trivial
    opt_g = RmspropState(cache={k: np.abs(t) * 0.1 for k, t in gen.items()}, step=5)
    opt_c = RmspropState(cache={k: np.abs(t) * 0.2 for k, t in critic.items()}, step=25)
    return Checkpoint(
        epoch=42, generator=gen, critic=critic,
        opt_generator=opt_g, opt_critic=opt_c,
        scaler=Scaler(lo=-0.13, hi=0.21),
        rng_state=rng.bit_generator.state,
        extra={"loss_variant": "wgan_gp", "seed": seed},
    )


class TestRoundtrip:
    def test_bit_exact_tensors(self, tmp_path):
        cp = make_checkpoint()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, cp)
        back = load_checkpoint(path)
        for ps_a, ps_b in ((cp.generator, back.generator), (cp.critic, back.critic)):
            assert list(ps_a) == list(ps_b)
            for k in ps_a:
                assert np.array_equal(ps_a[k], ps_b[k])
        for st_a, st_b in ((cp.opt_generator, back.opt_generator),
                           (cp.opt_critic, back.opt_critic)):
            assert st_a.step == st_b.step
            for k in st_a.cache:
                assert np.array_equal(st_a.cache[k], st_b.cache[k])

    def test_metadata_roundtrip(self, tmp_path):
        cp = make_checkpoint()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, cp)
        back = load_checkpoint(path)
        assert back.epoch == 42
        assert back.generator.arch == back.critic.arch == SPEC
        assert back.scaler == cp.scaler
        assert back.extra == cp.extra

    def test_rng_state_restores_stream(self, tmp_path):
        cp = make_checkpoint(seed=9)
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, cp)
        back = load_checkpoint(path)
        a = make_rng(0)
        a.bit_generator.state = cp.rng_state
        b = make_rng(0)
        b.bit_generator.state = back.rng_state
        assert np.array_equal(a.standard_normal(32), b.standard_normal(32))

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        cp = make_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cp)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    PINNED = (6283, "212f072fdc7cb2e1e58467ab9823719daa4bb5c2c66a337826e2182f84ba1217")

    def test_bytes_are_pinned_without_blas(self, tmp_path):
        """Philox draws and elementwise IEEE arithmetic do not depend on the
        host, and nothing here runs a BLAS call: the initial weights, one
        RMSprop step per network on drawn gradients, the cache it leaves and
        the RNG state give the same file on any machine."""
        gen, critic = init_params(SPEC, "generator", 5), init_params(SPEC, "critic", 6)
        rng = make_rng(7)
        opt = [rmsprop_step(ps, {k: rng.uniform(-1.0, 1.0, size=t.shape) for k, t in ps.items()},
                            RmspropState(), 1e-3, 0.9, 1e-8)
               for ps in (gen, critic)]
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, Checkpoint(
            epoch=1, generator=gen, critic=critic, opt_generator=opt[0],
            opt_critic=opt[1], scaler=Scaler(lo=-0.13, hi=0.21),
            rng_state=rng.bit_generator.state, extra={"seed": 5}))
        blob = path.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == self.PINNED


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[:5] = b"NOPE!"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[5:9] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_checkpoint())
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_magic_constant(self):
        assert MAGIC == b"WGTS1"

    def test_tensors_must_fit_the_architecture(self, tmp_path):
        # the metadata names another noise length than the tensors have
        body = saved_blob()[:-4].replace(b'"noise_len": 3', b'"noise_len": 4')
        (tmp_path / "x.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="generator tensors do not fit"):
            load_checkpoint(tmp_path / "x.ckpt")

    @pytest.mark.parametrize("kind", ["generator", "critic"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, kind):
        # the generator's architecture is the one written, so a generator
        # labelled with another one, or a critic of other widths, is refused
        # before anything is written
        cp = make_checkpoint()
        if kind == "generator":
            cp.generator.arch = replace(SPEC, noise_len=4)
        else:
            cp.critic = init_params(replace(SPEC, lstm_units=5), "critic", 1)
        with pytest.raises(ValueError, match=f"the {kind} tensors do not fit"):
            save_checkpoint(tmp_path / "x.ckpt", cp)
        assert list(tmp_path.iterdir()) == []

    def test_optimizer_cache_must_fit_its_parameter(self, tmp_path):
        cp = make_checkpoint()
        cp.opt_critic.cache["proj.W"] = np.zeros((1, 4))
        save_checkpoint(tmp_path / "x.ckpt", cp)
        with pytest.raises(CheckpointError, match="opt_c/proj.W"):
            load_checkpoint(tmp_path / "x.ckpt")

    def test_negative_optimizer_cache_rejected(self, tmp_path):
        # RMSprop takes the square root of its cache: a negative entry would
        # put a NaN into the weights at the first step after a resume
        cp = make_checkpoint()
        cp.opt_critic.cache["lstm.W_i"].flat[0] = -1.0
        save_checkpoint(tmp_path / "x.ckpt", cp)
        with pytest.raises(CheckpointError, match="opt_c/lstm.W_i holds a negative"):
            load_checkpoint(tmp_path / "x.ckpt")


class TestAtomicSave:
    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failure_before_the_replace_keeps_the_old_file(self, tmp_path, monkeypatch, stage):
        # a write cut short (a full disk, a kill) or a failed rename leaves
        # the previous checkpoint byte-identical and no temporary file behind
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_checkpoint(seed=0))
        old = path.read_bytes()

        def cut_short(self, data):
            write_bytes(self, bytes(data)[:100])
            raise OSError("No space left on device")

        def no_rename(*args):
            raise OSError("rename failed")

        write_bytes = Path.write_bytes
        if stage == "write":
            monkeypatch.setattr(Path, "write_bytes", cut_short)
        else:
            monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError):
            save_checkpoint(path, make_checkpoint(seed=1))
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_checkpoint(seed=0))
        save_checkpoint(path, make_checkpoint(seed=1))
        back = load_checkpoint(path)
        assert back.extra["seed"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


@functools.cache
def saved_blob() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "x.ckpt", make_checkpoint())
        return (Path(d) / "x.ckpt").read_bytes()


class TestChecksum:
    def test_flipped_payload_bit_fails_the_checksum(self, tmp_path):
        # a float's low mantissa bit: the body still parses, to a finite value
        blob = bytearray(saved_blob())
        blob[blob.index(b"gen/lstm.W_i") + 12 + 8 + 16] ^= 0x01
        path = tmp_path / "x.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_version_1_without_the_trailer_still_loads(self, tmp_path):
        blob = saved_blob()
        assert blob[5:9] == (2).to_bytes(4, "little")
        v1 = (blob[:5] + (1).to_bytes(4, "little") + blob[9:-4]).replace(
            b'"format_version": 2', b'"format_version": 1')
        (tmp_path / "v1.ckpt").write_bytes(v1)
        (tmp_path / "v2.ckpt").write_bytes(blob)
        old, new = (load_checkpoint(tmp_path / name) for name in ("v1.ckpt", "v2.ckpt"))
        for a, b in ((old.generator, new.generator), (old.critic, new.critic)):
            assert all(np.array_equal(a[k], b[k]) for k in a)
        assert (old.epoch, old.extra, old.scaler) == (new.epoch, new.extra, new.scaler)

    def test_every_seventh_damaged_byte_or_cut_fails_to_load(self, tmp_path):
        """Every 7th offset of the sweep: the file cut there, and its byte
        XORed with 0x01, 0x20 and 0xFF. The full sweep, every offset of this
        6,311-byte file (25,244 cases, 5.6 s), loads none; format version 1,
        without the trailer, loaded 11,766 of 25,228 of its own."""
        blob, path = saved_blob(), tmp_path / "x.ckpt"
        for at in range(0, len(blob), 7):
            cases = [blob[:at]]
            for mask in (0x01, 0x20, 0xFF):
                damaged = bytearray(blob)
                damaged[at] ^= mask
                cases.append(bytes(damaged))
            for case in cases:
                path.write_bytes(case)
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_whole_or_raises(tmp_path_factory, data):
    """A flipped byte or a cut either raises CheckpointError or leaves a
    checkpoint whose generator runs and whose scaler inverts."""
    blob = bytearray(saved_blob())
    if data.draw(st.booleans(), label="cut"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        meta = blob.rindex(b'{"arch"')   # about half the flips land in the metadata
        at = data.draw(st.integers(0, len(blob) - 1) | st.integers(meta, len(blob) - 1),
                       label="offset")
        blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
    path.write_bytes(bytes(blob))
    try:
        cp = load_checkpoint(path)
    except CheckpointError:
        return
    assert generate(cp.generator, 2, 0).shape == (2, cp.generator.arch.seq_len, 1)
    s = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_allclose(cp.scaler.transform(cp.scaler.inverse(s)), s, atol=1e-9)
