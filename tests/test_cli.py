"""CLI contract: flags, config precedence, artifacts, exit codes."""

import ast
import hashlib
import itertools
import json
import logging
import os
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path
from dataclasses import fields, replace

import numpy as np
import pytest

from tsforge import cli, gan
from tsforge.checkpoint import load_checkpoint, save_checkpoint
from tsforge.cli import main, parse_config, write_config
from tsforge.gan import TrainConfig, make_rng
from tsforge.plot import write_svg

from conftest import build_price_csv


@pytest.fixture()
def small_csv(tmp_path):
    """A short but realistic price file for fast CLI runs."""
    rng = np.random.Generator(np.random.Philox(123))
    r = rng.standard_normal(160) * 0.03
    closes = 100.0 * np.exp(np.cumsum(r))
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    from datetime import date, timedelta
    d0 = date(2020, 1, 1)
    for i, c in enumerate(closes):
        d = d0 + timedelta(days=i)
        lines.append(f"{d.isoformat()},{c:.6f},{c:.6f},{c:.6f},{c:.6f},{c:.6f},1")
    p = tmp_path / "prices.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


FAST = ["--epochs", "3", "--seq-len", "10", "--units", "4", "--noise-len", "3",
        "--batch-size", "8", "--checkpoint-every", "2", "--seed", "5",
        "--grid-samples", "4", "--lipschitz-pairs", "10"]

# config.txt of TrainConfig(), byte for byte: run directories written by
# earlier versions must keep reading back through --config
DEFAULT_CONFIG_TXT = """\
epochs = 3000
n_critic = 5
lambda = 10
batch_size = 32
noise_len = 25
seq_len = 50
units = 50
loss_variant = wgan_gp
seed = 0
checkpoint_every = 500
g_loss_nonsaturating = false
learning_rate = 5.0000000000000002e-05
rho = 0.90000000000000002
epsilon = 1e-08
clip_c = 0.01
"""

# flag, its value, the field it sets, the parsed value
TRAIN_FLAGS = [
    ("--epochs", "7", "epochs", 7), ("--n-critic", "2", "n_critic", 2),
    ("--lambda", "3.5", "lambda_gp", 3.5), ("--batch-size", "9", "batch_size", 9),
    ("--noise-len", "4", "noise_len", 4), ("--seq-len", "11", "seq_len", 11),
    ("--units", "12", "lstm_units", 12), ("--loss-variant", "gan", "loss_variant", "gan"),
    ("--seed", "9", "seed", 9), ("--checkpoint-every", "3", "checkpoint_every", 3),
    ("--g-loss-nonsaturating", None, "g_loss_nonsaturating", True),
    ("--lr", "0.001", "learning_rate", 0.001), ("--rho", "0.8", "rho", 0.8),
    ("--epsilon", "1e-7", "epsilon", 1e-7), ("--clip-c", "0.02", "clip_c", 0.02),
]


def every_field_changed() -> TrainConfig:
    return TrainConfig(epochs=7, n_critic=2, lambda_gp=3.5, batch_size=9, noise_len=4,
                       seq_len=11, lstm_units=12, loss_variant="gan", seed=9,
                       checkpoint_every=3, g_loss_nonsaturating=True, learning_rate=1e-3,
                       rho=0.8, epsilon=1e-7, clip_c=0.02)


def edit_checkpoint_meta(src, dest, edit):
    """Copy a checkpoint with ``edit`` applied to its JSON metadata, and its
    crc32 trailer recomputed, so only the edit is wrong with it."""
    blob = src.read_bytes()[:-4]
    start = blob.rindex(b'{"arch"')   # keys are sorted, so "arch" opens the block
    meta = json.loads(blob[start:])
    edit(meta)
    edited = json.dumps(meta).encode()
    body = blob[:start - 8] + struct.pack("<Q", len(edited)) + edited
    dest.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return dest


class TestParseConfig:
    def test_defaults_match_reference_settings(self):
        cfg = parse_config()
        assert cfg.epochs == 3000
        assert cfg.n_critic == 5
        assert cfg.learning_rate == 0.00005
        assert cfg.batch_size == 32
        assert cfg.noise_len == 25
        assert cfg.seq_len == 50
        assert cfg.lambda_gp == 10.0
        assert cfg.lstm_units == 50
        assert cfg.checkpoint_every == 500
        assert cfg.loss_variant == "wgan_gp"

    def test_undecodable_config_exit_1(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"epochs = 2\n# caf\xe9\n")
        out = tmp_path / "o"
        assert main(["train", "--data", str(small_csv), "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {cfg}: byte 16 is not UTF-8" in err
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfepochs = 2\n")
        assert parse_config(cfg) == TrainConfig(epochs=2)

    def test_undecodable_offset_counts_the_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(cli.ConfigError, match="byte 5 is not UTF-8"):
            parse_config(cfg)

    def test_empty_file_pure_defaults(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# nothing but comments\n\n")
        assert parse_config(f) == TrainConfig()

    def test_file_values_and_comments(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("epochs = 12  # short run\nlambda = 5.0\nunits = 8\n")
        cfg = parse_config(f)
        assert cfg.epochs == 12
        assert cfg.lambda_gp == 5.0
        assert cfg.lstm_units == 8

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("epoch = 12\n")
        with pytest.raises(cli.ConfigError, match="unknown key"):
            parse_config(f)

    def test_bad_value_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("epochs = soon\n")
        with pytest.raises(cli.ConfigError, match="cannot parse"):
            parse_config(f)

    def test_negative_epochs_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("epochs = -1\n")
        with pytest.raises(cli.ConfigError):
            parse_config(f)

    def test_negative_seed_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("seed = -1\n")
        with pytest.raises(cli.ConfigError, match="seed"):
            parse_config(f)

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("lambda = 10\n")
        cfg = parse_config(f, {"lambda": 0.0})
        assert cfg.lambda_gp == 0.0

    def test_write_then_parse_roundtrip(self, tmp_path):
        cfg = TrainConfig(epochs=7, lambda_gp=3.5, lstm_units=12, seed=9)
        f = tmp_path / "snap.cfg"
        write_config(cfg, f)
        assert parse_config(f) == cfg

    def test_default_config_text_is_pinned(self, tmp_path):
        write_config(TrainConfig(), tmp_path / "config.txt")
        assert (tmp_path / "config.txt").read_bytes() == DEFAULT_CONFIG_TXT.encode()

    def test_every_field_roundtrips(self, tmp_path):
        cfg = every_field_changed()
        default = TrainConfig()
        for f in fields(TrainConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        write_config(cfg, tmp_path / "snap.cfg")
        assert parse_config(tmp_path / "snap.cfg") == cfg

    def test_flags_cover_every_field(self):
        names = [f.name for f in fields(TrainConfig)]
        assert sorted(field for _, _, field, _ in TRAIN_FLAGS) == sorted(names)

    @pytest.mark.parametrize("flag,value,field,expected", TRAIN_FLAGS,
                             ids=[row[0] for row in TRAIN_FLAGS])
    def test_each_train_flag_sets_its_own_field(self, monkeypatch, tmp_path,
                                                flag, value, field, expected):
        parsed = []
        real_parse = cli.parse_config
        monkeypatch.setattr(cli, "parse_config",
                            lambda *a: parsed.append(real_parse(*a)) or parsed[-1])
        argv = ["train", "--data", str(tmp_path / "missing.csv"), flag]
        assert main(argv + ([value] if value is not None else [])) == 2
        assert parsed == [replace(TrainConfig(), **{field: expected})]


class TestTrain:
    def test_run_directory_artifacts(self, small_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(small_csv), "--out", str(out)] + FAST)
        assert rc == 0
        for name in ("config.txt", "loss.csv", "loss.svg", "summary.json",
                     "checkpoint_epoch000002.ckpt", "samples_epoch000002.csv",
                     "samples_epoch000002.svg", "compare_epoch000002_moments.csv"):
            assert (out / name).exists(), name
        lines = (out / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,critic_loss,generator_loss,wasserstein,gradient_penalty"
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_windows"] > 0
        assert "median_lipschitz_ratio" in summary

    def test_lipschitz_probe_is_one_critic_call(self, small_csv, tmp_path, monkeypatch):
        calls, probe = [], gan.lipschitz_ratio_check

        def counted(critic, x1, x2):
            calls.append(len(x1))
            return probe(critic, x1, x2)

        monkeypatch.setattr(gan, "lipschitz_ratio_check", counted)
        out = tmp_path / "run"
        assert main(["train", "--data", str(small_csv), "--out", str(out)] + FAST) == 0
        # the probe's pairs: 10 draws of two window indices from seed + 1; the random
        # prices make two windows equal only at equal indices, and those are dropped
        n_windows = json.loads((out / "summary.json").read_text())["n_windows"]
        rng = make_rng(5 + 1)
        draws = [rng.integers(0, n_windows, size=2) for _ in range(10)]
        distinct = sum(int(i != j) for i, j in draws)
        assert distinct == 9
        assert calls == [distinct]

    def test_byte_identical_reruns(self, small_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--data", str(small_csv), "--out", str(out1)] + FAST) == 0
        assert main(["train", "--data", str(small_csv), "--out", str(out2)] + FAST) == 0
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / "loss.svg").read_bytes() == (out2 / "loss.svg").read_bytes()

    def test_loss_csv_parses_back_losslessly(self, small_csv, tmp_path):
        out = tmp_path / "run"
        main(["train", "--data", str(small_csv), "--out", str(out)] + FAST)
        text = (out / "loss.csv").read_text().splitlines()
        parsed = [[float(v) for v in line.split(",")] for line in text[1:]]
        rendered = "\n".join(
            ",".join(cli._fmt(v) for v in row) for row in parsed)
        assert rendered == "\n".join(text[1:])

    def test_config_snapshot_reproduces_run(self, small_csv, tmp_path):
        out1 = tmp_path / "a"
        main(["train", "--data", str(small_csv), "--out", str(out1)] + FAST)
        out2 = tmp_path / "b"
        rc = main(["train", "--data", str(small_csv), "--out", str(out2),
                   "--config", str(out1 / "config.txt"),
                   "--grid-samples", "4", "--lipschitz-pairs", "10"])
        assert rc == 0
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()

    def test_resume_equivalence_via_cli(self, small_csv, tmp_path):
        full, part, cont = tmp_path / "full", tmp_path / "part", tmp_path / "cont"
        base = ["train", "--data", str(small_csv), "--seq-len", "10", "--units", "4",
                "--noise-len", "3", "--batch-size", "8", "--seed", "5",
                "--checkpoint-every", "2", "--grid-samples", "4",
                "--lipschitz-pairs", "10"]
        assert main(base + ["--epochs", "6", "--out", str(full)]) == 0
        assert main(base + ["--epochs", "4", "--out", str(part)]) == 0
        assert main(base + ["--epochs", "6", "--out", str(cont),
                            "--resume", str(part / "checkpoint_epoch000004.ckpt")]) == 0
        full_rows = (full / "loss.csv").read_text().splitlines()
        cont_rows = (cont / "loss.csv").read_text().splitlines()
        assert cont_rows[1:] == full_rows[5:]

    @pytest.mark.parametrize("flags,named", [
        (["--units", "5"], "units = 4"), (["--seq-len", "12"], "seq_len = 10"),
        (["--noise-len", "4"], "noise_len = 3"), (["--epochs", "1"], "epoch 2"),
        (["--loss-variant", "gan"], "loss_variant = wgan_gp"),
        (["--lr", "0.01"], "learning_rate = 5e-05"), (["--lambda", "5"], "lambda = 10.0"),
    ], ids=["units", "seq-len", "noise-len", "epochs", "loss-variant", "lr", "lambda"])
    def test_mismatched_resume_exit_2(self, trained_run, tmp_path, capsys, flags, named):
        run, csv_path = trained_run
        out = tmp_path / "o"
        rc = main(["train", "--data", str(csv_path), "--out", str(out), "--resume",
                   str(run / "checkpoint_epoch000002.ckpt")] + FAST + flags)
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (out / "config.txt").exists()

    def test_resume_on_other_prices_exit_2(self, trained_run, tmp_path, capsys):
        run, csv_path = trained_run
        short = tmp_path / "short.csv"
        short.write_text("\n".join(csv_path.read_text().splitlines()[:-30]) + "\n")
        out = tmp_path / "o"
        rc = main(["train", "--data", str(short), "--out", str(out), "--resume",
                   str(run / "checkpoint_epoch000002.ckpt")] + FAST)
        assert rc == 2
        assert "other data" in capsys.readouterr().err
        assert not (out / "config.txt").exists()

    def test_resume_from_self_contradicting_checkpoint_exit_2(self, trained_run, tmp_path,
                                                              capsys):
        run, csv_path = trained_run
        bad = edit_checkpoint_meta(run / "checkpoint_epoch000002.ckpt", tmp_path / "bad.ckpt",
                                   lambda meta: meta["extra"]["config"].update(lstm_units=5))
        out = tmp_path / "o"
        rc = main(["train", "--data", str(csv_path), "--out", str(out), "--resume", str(bad)]
                  + FAST + ["--units", "5"])
        assert rc == 2
        assert "disagrees with its configuration" in capsys.readouterr().err
        assert not (out / "config.txt").exists()

    def test_earlier_checkpoint_format(self, trained_run, tmp_path, capsys):
        # the metadata of checkpoints written before the configuration was
        # stored: a tagged scaler record and an extra block without config
        run, csv_path = trained_run
        ckpt = run / "checkpoint_epoch000002.ckpt"

        def earlier(meta):
            meta["scaler"].update(kind="minmax_symmetric", mean=0.0, std=0.0)
            meta["extra"] = {"loss_variant": "wgan_gp", "seed": 5}

        old = edit_checkpoint_meta(ckpt, tmp_path / "old.ckpt", earlier)
        for name, path in (("new", ckpt), ("old", old)):
            assert main(["generate", "--checkpoint", str(path), "--n", "4",
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "new" / "returns.csv").read_bytes()
                == (tmp_path / "old" / "returns.csv").read_bytes())
        out = tmp_path / "t"
        assert main(["train", "--data", str(csv_path), "--out", str(out),
                     "--resume", str(old)] + FAST) == 2
        assert "no complete training configuration" in capsys.readouterr().err
        assert not (out / "config.txt").exists()

    def test_checkpoint_with_nested_optimizer_keys_resumes(self, trained_run, tmp_path, capsys):
        # checkpoints written before the optimizer's four keys joined
        # TrainConfig hold them under extra.config.optim
        run, csv_path = trained_run
        flat = run / "checkpoint_epoch000002.ckpt"

        def nested(meta):
            config = meta["extra"]["config"]
            config["optim"] = {key: config.pop(key)
                               for key in ("learning_rate", "rho", "epsilon", "clip_c")}

        old = edit_checkpoint_meta(flat, tmp_path / "old.ckpt", nested)
        for name, path in (("flat", flat), ("nested", old)):
            assert main(["train", "--data", str(csv_path), "--out", str(tmp_path / name),
                         "--resume", str(path)] + FAST + ["--epochs", "4"]) == 0
        for artifact in ("loss.csv", "checkpoint_epoch000004.ckpt"):
            assert ((tmp_path / "flat" / artifact).read_bytes()
                    == (tmp_path / "nested" / artifact).read_bytes()), artifact
        capsys.readouterr()
        out = tmp_path / "lr"
        assert main(["train", "--data", str(csv_path), "--out", str(out), "--resume", str(old)]
                    + FAST + ["--lr", "0.01"]) == 2
        assert "learning_rate = 5e-05" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_without_rng_state_exit_2(self, trained_run, tmp_path, capsys):
        run, csv_path = trained_run
        bad = edit_checkpoint_meta(run / "checkpoint_epoch000002.ckpt", tmp_path / "bad.ckpt",
                                   lambda meta: meta.update(rng_state=None))
        rc = main(["train", "--data", str(csv_path), "--out", str(tmp_path / "o"),
                   "--resume", str(bad)] + FAST)
        assert rc == 2
        assert "no RNG state" in capsys.readouterr().err

    def test_missing_data_exit_2(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out",
                   str(tmp_path / "o")] + FAST)
        assert rc == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_3(self, small_csv, tmp_path):
        rc = main(["train", "--data", str(small_csv), "--out", str(tmp_path / "o"),
                   "--lr", "1e307"] + FAST)
        assert rc == 3
        assert (tmp_path / "o" / "checkpoint_crash.ckpt").exists()
        assert (tmp_path / "o" / "loss.csv").exists()

    def test_collapsed_generator_completes(self, small_csv, tmp_path):
        # at this learning rate the generator's tanh saturates, so every sample
        # is one constant: its moments have NaN shape statistics, and the run
        # reports them rather than ending as a data error
        out = tmp_path / "run"
        assert main(["train", "--data", str(small_csv), "--out", str(out)] + FAST
                    + ["--epochs", "20", "--checkpoint-every", "5", "--lr", "50",
                       "--loss-variant", "wgan_clip"]) == 0
        assert len((out / "loss.csv").read_text().splitlines()) == 1 + 20
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 in summary["mode_collapse_per_checkpoint"].values()
        rows = dict(line.split(",", 1) for line in
                    (out / "compare_epoch000005_moments.csv").read_text().splitlines())
        assert rows["skewness"].split(",")[1] == rows["kurtosis"].split(",")[1] == "nan"

    def test_batch_of_one_scores_mode_collapse_on_two_samples(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(small_csv), "--out", str(out)] + FAST
                    + ["--batch-size", "1", "--epochs", "4"]) == 0
        scores = json.loads((out / "summary.json").read_text())["mode_collapse_per_checkpoint"]
        assert list(scores) == ["2", "4"]
        for epoch, score in scores.items():
            gen = load_checkpoint(out / f"checkpoint_epoch{int(epoch):06d}.ckpt").generator
            assert score > 0.0
            assert score == gan.mode_collapse_score(gan.generate(gen, 2, 5 + int(epoch)))

    def test_bad_flag_exit_1(self, small_csv, tmp_path):
        assert main(["train", "--data", str(small_csv), "--epochs", "-3",
                     "--out", str(tmp_path / "o")]) == 1

    def test_constant_price_exit_2(self, tmp_path):
        lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
        from datetime import date, timedelta
        for i in range(80):
            d = date(2020, 1, 1) + timedelta(days=i)
            lines.append(f"{d.isoformat()},1,1,1,100.0,100.0,1")
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(p), "--out", str(tmp_path / "o")] + FAST)
        assert rc == 2


@pytest.fixture()
def trained_run(small_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--data", str(small_csv), "--out", str(out)] + FAST)
    assert rc == 0
    return out, small_csv


class TestGenerate:
    def test_outputs(self, trained_run, tmp_path):
        run, csv_path = trained_run
        out = tmp_path / "gen"
        rc = main(["generate", "--checkpoint", str(run / "checkpoint_epoch000002.ckpt"),
                   "--n", "6", "--seed", "3", "--out", str(out),
                   "--real", str(csv_path)])
        assert rc == 0
        scaled = np.loadtxt(out / "returns_scaled.csv", delimiter=",")
        returns = np.loadtxt(out / "returns.csv", delimiter=",")
        prices = np.loadtxt(out / "prices.csv", delimiter=",")
        assert scaled.shape == (6, 10)
        assert returns.shape == (6, 10)
        assert prices.shape == (6, 11)
        assert np.allclose(prices[:, 0], 100.0)
        ET.fromstring((out / "prices.svg").read_text())

    def test_seed_determinism_across_invocations(self, trained_run, tmp_path):
        run, _ = trained_run
        ck = str(run / "checkpoint_epoch000002.ckpt")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--checkpoint", ck, "--n", "4", "--seed", "9", "--out", str(a)])
        main(["generate", "--checkpoint", ck, "--n", "4", "--seed", "9", "--out", str(b)])
        assert (a / "returns.csv").read_bytes() == (b / "returns.csv").read_bytes()

    def test_bad_real_exit_2_before_any_write(self, trained_run, tmp_path, capsys):
        run, _ = trained_run
        bad = tmp_path / "bad.csv"
        bad.write_text("Open,Close,Date\n1,4\n", encoding="utf-8")
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(run / "checkpoint_epoch000002.ckpt"),
                     "--real", str(bad), "--out", str(out)]) == 2
        assert f"{bad}:2: bad date" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_checkpoint_exit_2(self, trained_run, tmp_path):
        run, _ = trained_run
        bad = tmp_path / "bad.ckpt"
        blob = bytearray((run / "checkpoint_epoch000002.ckpt").read_bytes())
        blob[:5] = b"XXXXX"
        bad.write_bytes(bytes(blob))
        assert main(["generate", "--checkpoint", str(bad), "--out",
                     str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("arch"),
        lambda meta: meta.update(arch=[1]),
        lambda meta: meta.pop("epoch"),
        lambda meta: meta.update(epoch="x"),
        lambda meta: meta.update(epoch=-5),
        lambda meta: meta.update(epoch=1.5),
        lambda meta: meta.update(epoch=True),
        lambda meta: meta.update(rng_state={"a": 1}),
        lambda meta: meta["arch"].update(noise_len=4),
        lambda meta: meta["arch"].update(lstm_units=10**9),
        lambda meta: meta["arch"].update(noise_len=3.0),
        lambda meta: meta["generator_names"].remove("lstm.W_i"),
        lambda meta: meta["scaler"].update(lo="x"),
        lambda meta: meta["scaler"].update(lo=meta["scaler"]["hi"]),
        lambda meta: meta["scaler"].update(kind="zscore"),
        lambda meta: meta["rng_state"]["state"]["counter"]["__array__"].__setitem__(0, 2**70),
        lambda meta: meta["opt_steps"].update(generator="x"),
        lambda meta: meta["opt_steps"].update(critic=-1),
    ], ids=["no-arch", "arch-not-a-mapping", "no-epoch", "epoch-str", "epoch-negative",
            "epoch-float", "epoch-bool", "rng-state-not-philox", "noise-len-other",
            "units-huge", "noise-len-float", "generator-name-dropped", "scaler-lo-str",
            "scaler-empty-range", "scaler-kind-other", "rng-counter-overflow",
            "opt-step-str", "opt-step-negative"])
    def test_malformed_metadata_exit_2(self, trained_run, tmp_path, capsys, edit):
        run, csv_path = trained_run
        bad = edit_checkpoint_meta(run / "checkpoint_epoch000002.ckpt", tmp_path / "bad.ckpt",
                                   edit)
        assert main(["generate", "--checkpoint", str(bad), "--out",
                     str(tmp_path / "o")]) == 2
        assert "malformed checkpoint" in capsys.readouterr().err
        assert main(["train", "--data", str(csv_path), "--out", str(tmp_path / "t"),
                     "--resume", str(bad)] + FAST) == 2
        assert "malformed checkpoint" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["generate", "compare"])
@pytest.mark.parametrize("key, named", [("scaler", "no scaler"), ("rng_state", "no RNG state")])
def test_checkpoint_without_training_state_exit_2(trained_run, tmp_path, capsys, command,
                                                  key, named):
    # without its scaler, compare would set scaled values against raw log returns
    run, csv_path = trained_run
    bad = edit_checkpoint_meta(run / "checkpoint_epoch000002.ckpt", tmp_path / "bad.ckpt",
                               lambda meta: meta.update({key: None}))
    out = tmp_path / "o"
    argv = ["generate"] if command == "generate" else ["compare", "--real", str(csv_path)]
    assert main(argv + ["--checkpoint", str(bad), "--out", str(out)]) == 2
    assert f"{bad}: checkpoint holds {named}" in capsys.readouterr().err
    assert not out.exists()


def _file(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _train_on(csv_text: str):
    return lambda tmp, csv, request: ["train", "--data", _file(tmp, "p.csv", csv_text)]


def _train_with_config(config_text: str):
    return lambda tmp, csv, request: ["train", "--data", str(csv), "--config",
                                      _file(tmp, "c.txt", config_text)]


def _compare_with(synthetic_text: str):
    return lambda tmp, csv, request: ["compare", "--real", str(csv), "--synthetic",
                                      _file(tmp, "s.csv", synthetic_text)]


def _names_a_missing_record(tmp, csv, request):
    run = request.getfixturevalue("trained_run")[0]
    ckpt = edit_checkpoint_meta(run / "checkpoint_epoch000002.ckpt", tmp / "bad.ckpt",
                                lambda meta: meta["generator_names"].append("lstm.W_z"))
    return ["generate", "--checkpoint", str(ckpt)]


# argv before --out, from (tmp_path, a good price CSV, the test's fixture request);
# the exit code; a fragment of the message, with {tmp} for tmp_path
MALFORMED_INPUTS = {
    "empty-csv": (_train_on(""), 2, "p.csv: empty file"),
    "csv-without-close": (_train_on("Date,Open\n2020-01-01,1\n2020-01-02,2\n"), 2,
                          "header must contain Date and Close columns"),
    "negative-close": (_train_on("Date,Close\n2020-01-01,1\n2020-01-02,-2\n"
                                 "2020-01-03,3\n"), 2,
                       "{tmp}/p.csv:3: negative close price '-2'"),
    "config-line-without-equals": (_train_with_config("epochs 3\n"), 1,
                                   "c.txt:1: expected 'key = value'"),
    "config-bool-yes": (_train_with_config("g_loss_nonsaturating = yes\n"), 1,
                        "cannot parse value 'yes' for key 'g_loss_nonsaturating'"),
    "config-is-a-directory": (lambda tmp, csv, request: ["train", "--data", str(csv),
                                                         "--config", str(tmp)], 1,
                              "cannot read {tmp}"),
    "config-missing": (lambda tmp, csv, request: ["train", "--data", str(csv), "--config",
                                                  str(tmp / "absent.txt")], 1,
                       "cannot read {tmp}"),
    "generator-names-a-missing-record": (_names_a_missing_record, 2,
                                         "missing tensor record 'gen/lstm.W_z'"),
    "synthetic-missing": (lambda tmp, csv, request: ["compare", "--real", str(csv),
                                                     "--synthetic", str(tmp / "absent.csv")], 2,
                          "data error: cannot read {tmp}/absent.csv: "),
    "synthetic-empty": (_compare_with(""), 2, "data error: {tmp}/s.csv: no rows of numbers"),
    "synthetic-blank-lines": (_compare_with("\n  \n\t\n"), 2,
                              "data error: {tmp}/s.csv: no rows of numbers"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_before_any_write(case, small_csv, tmp_path, capsys, request):
    argv, code, fragment = MALFORMED_INPUTS[case]
    out = tmp_path / "out"
    assert main(argv(tmp_path, small_csv, request) + ["--out", str(out)]) == code
    assert fragment.format(tmp=tmp_path) in capsys.readouterr().err
    assert not out.exists()


class TestEvaluate:
    def test_outputs_schema(self, btc_csv, tmp_path):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--data", str(btc_csv), "--out", str(out)])
        assert rc == 0
        moments = (out / "moments.csv").read_text().splitlines()
        assert moments[0] == "metric,value"
        assert moments[1].startswith("count,")
        assert float(moments[1].split(",")[1]) == 2415.0
        acf = (out / "acf.csv").read_text().splitlines()
        assert acf[0] == "lag,acf,acf_absolute"
        assert len(acf) == 52  # header + lags 0..50
        qq = (out / "qq.csv").read_text().splitlines()
        assert qq[0] == "theoretical,sample"
        for svg in ("acf.svg", "qq.svg", "returns.svg"):
            ET.fromstring((out / svg).read_text())

    def test_row_shorter_than_its_date_column_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("Open,Close,Date\n1,4\n", encoding="utf-8")
        assert main(["evaluate", "--data", str(csv), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{csv}:2: bad date" in err and "Traceback" not in err

    def test_undecodable_byte_exit_2(self, btc_csv, tmp_path, capsys):
        # past the first 8 KiB, so the offset is counted from the file's start
        raw = btc_csv.read_bytes()
        at = raw.index(b"\n", 20000) + 1
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(raw[:at] + b"2020-01-01,caf\xe9" + raw[at:])
        assert main(["evaluate", "--data", str(csv), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"data error: {csv}: byte {at + 14} is not UTF-8" in err
        assert "Traceback" not in err

    def test_constant_prices_exit_2(self, tmp_path):
        lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
        from datetime import date, timedelta
        for i in range(30):
            d = date(2020, 1, 1) + timedelta(days=i)
            lines.append(f"{d.isoformat()},1,1,1,50.0,50.0,1")
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--data", str(p), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestCsvWriters:
    """The column and matrix templates write what the per-cell ``_fmt`` formula wrote."""

    # one column per kind of cell; every column has one type, as _write_csv requires
    COLUMNS = [
        np.array([np.nan, np.inf, -np.inf, -0.0, 1e300, -1e-300, 1 / 3]),
        np.array([0.1, -2.5, 1e-8, 3e38, 0.0, -0.0, 7.0], dtype=np.float32),
        np.arange(-3, 4, dtype=np.int64) * 7,
        np.array([True, False, True, True, False, False, True]),
        range(2**70, 2**70 + 7),
        ["a b", "text", "count", " lead", "x y z", "", "25%"],
        [2416.0, np.float64(-0.0), 0.5, -1.25, 1e-300, np.float64(2.5), 3],
    ]

    @staticmethod
    def per_cell(rows) -> str:
        return "".join(",".join(cli._fmt(v) if isinstance(v, (int, float, np.number, np.bool_))
                                else str(v) for v in row) + "\n" for row in rows)

    def test_write_csv_matches_per_cell_formula(self, tmp_path):
        path = tmp_path / "mixed.csv"
        cli._write_csv(path, ["a", "b"], *self.COLUMNS)
        rows = zip(*self.COLUMNS)
        assert path.read_bytes() == ("a,b\n" + self.per_cell(rows)).encode("utf-8")

    @pytest.mark.parametrize("columns", [(), (np.empty(0), []), (range(0),)],
                             ids=["none", "empty_array_and_list", "empty_range"])
    def test_write_csv_without_rows_writes_the_header(self, tmp_path, columns):
        path = tmp_path / "empty.csv"
        cli._write_csv(path, ["a", "b"], *columns)
        assert path.read_bytes() == b"a,b\n"

    def test_write_csv_rejects_unequal_columns(self, tmp_path):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError, match=r"unequal length \[3, 2\]"):
            cli._write_csv(path, ["lag", "acf"], range(3), np.zeros(2))
        assert not path.exists()

    @pytest.mark.parametrize("matrix", [
        np.array([[0.1, -0.0, np.nan], [np.inf, -np.inf, 1e300]]),
        np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0),
        np.array([1.5, 2, -3]),
        np.empty((2, 0)),
    ], ids=["special", "fortran", "one_row", "no_columns"])
    def test_write_matrix_csv_matches_per_cell_formula(self, tmp_path, matrix):
        # a matrix goes in column by column, without a header; a matrix
        # without columns gives no rows
        columns = np.atleast_2d(matrix).T
        path = tmp_path / "m.csv"
        cli._write_csv(path, None, *columns)
        assert path.read_bytes() == self.per_cell(zip(*columns)).encode("utf-8")


# The CSVs that train, generate, evaluate and compare --checkpoint write on the
# GARCH fixture. Files that do not pass through BLAS are pinned by SHA-256,
# recorded before the CSV writers took columns; evaluate/qq.csv again when its
# normal quantiles came from statistics.NormalDist (moved by <= 7.9e-16 relative).
CSV_SHA256 = {
    "compare/histogram.csv": "2ed43d810811250a361b9ad677a3cca539d73c89b7dc8c0ca619b6bcca7e7aa6",
    "evaluate/acf.csv": "02d0505c85ca63001dfb334569fba92628328960bb855264c40de11efbedd01c",
    "evaluate/moments.csv": "8bac406ec67c35f1f89e02255dc182ab1c3107d30ef18bbbe18636e497111779",
    "evaluate/qq.csv": "ba77e6aadfb33897bd755e50bae8d13e710b4429ca843cc86074e7f4d95d04ac",
    "evaluate/returns.csv": "f72d53f6b8bec9f1f4877352de39cf5fc034b8858d8246a164da558e5e909137",
}
# Training and sampling go through BLAS, and a GEMM kernel without FMA rounds
# differently: under OPENBLAS_CORETYPE=Sandybridge these files moved by up to
# 1.8e-14 relative (compare/qq.csv). So each is pinned against its copy in
# csv_goldens/ by its text cells, its shape, every number being its own %.17g
# text, and the values at CSV_RTOL, about 50x that spread.
CSV_GOLDENS = Path(__file__).parent / "csv_goldens"
CSV_RTOL = 1e-12
CSV_NAMES = sorted([*CSV_SHA256, *(p.relative_to(CSV_GOLDENS).as_posix()
                                   for p in CSV_GOLDENS.glob("*/*.csv"))])


def _command_argvs(btc_csv: Path, out: Path) -> list[list[str]]:
    ckpt = str(out / "train" / "checkpoint_epoch000002.ckpt")
    return [["train", "--data", str(btc_csv), "--out", str(out / "train")] + FAST,
            ["generate", "--checkpoint", ckpt, "--n", "6", "--seed", "3",
             "--out", str(out / "generate")],
            ["evaluate", "--data", str(btc_csv), "--out", str(out / "evaluate")],
            ["compare", "--real", str(btc_csv), "--checkpoint", ckpt, "--n", "8",
             "--seed", "1", "--out", str(out / "compare")]]


def _assert_csv_pinned(root: Path, name: str) -> None:
    data = (root / name).read_bytes()
    if name in CSV_SHA256:
        assert hashlib.sha256(data).hexdigest() == CSV_SHA256[name]
        return
    got = [line.split(",") for line in data.decode("utf-8").split("\n")]
    want = [line.split(",") for line in (CSV_GOLDENS / name).read_text("utf-8").split("\n")]
    assert [len(row) for row in got] == [len(row) for row in want]
    got_values, want_values = [], []
    for g, w in zip(itertools.chain(*got), itertools.chain(*want)):
        try:
            w_value = float(w)
        except ValueError:
            assert g == w        # a header or a set name
            continue
        assert g == f"{float(g):.17g}"
        got_values.append(float(g))
        want_values.append(w_value)
    np.testing.assert_allclose(got_values, want_values, rtol=CSV_RTOL, atol=0)


@pytest.fixture(scope="module")
def command_csvs(btc_csv, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("goldens")
    for argv in _command_argvs(btc_csv, out):
        assert main(argv) == 0
    return out


class TestAtomicWrites:
    """Every artifact goes through ``atomic_write``: a write cut short (a
    full disk, a kill) leaves the previous file byte-identical and no
    temporary file beside it."""

    WRITERS = {
        "loss.csv": lambda path, tag: cli._write_csv(path, ["tag"], [tag]),
        "loss.svg": lambda path, tag: write_svg(path, f"<svg><text>{tag}</text></svg>"),
        "config.txt": lambda path, tag: write_config(TrainConfig(seed=len(tag)), path),
    }

    @pytest.mark.parametrize("name", list(WRITERS))
    def test_a_write_cut_short_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        path, write = tmp_path / name, self.WRITERS[name]
        write(path, "old")
        old = path.read_bytes()
        write_bytes = Path.write_bytes

        def cut_short(self, data):
            write_bytes(self, bytes(data)[:5])
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_bytes", cut_short)
        with pytest.raises(OSError, match="No space left"):
            write(path, "newer")
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [name]
        write(path, "newer")
        assert path.read_bytes() != old


class TestCsvGoldens:
    def test_every_csv_is_pinned(self, command_csvs):
        assert sorted(p.relative_to(command_csvs).as_posix()
                      for p in command_csvs.glob("*/*.csv")) == CSV_NAMES

    @pytest.mark.parametrize("name", CSV_NAMES)
    def test_csv_bytes(self, command_csvs, name):
        _assert_csv_pinned(command_csvs, name)

    def test_pins_hold_under_a_blas_kernel_without_fma(self, btc_csv, tmp_path):
        # OPENBLAS_CORETYPE picks the kernel of an OpenBLAS built with
        # DYNAMIC_ARCH, as numpy's wheels are; other BLAS builds ignore it
        done = _run_python("-c", "import json, sys\nfrom tsforge.cli import main\n"
                           "sys.exit(max(main(a) for a in json.loads(sys.argv[1])))",
                           json.dumps(_command_argvs(btc_csv, tmp_path)),
                           OPENBLAS_CORETYPE="Sandybridge")
        assert done.returncode == 0, done.stderr
        for name in CSV_NAMES:
            _assert_csv_pinned(tmp_path, name)


class TestCompare:
    def test_real_vs_synthetic_csv(self, small_csv, trained_run, tmp_path):
        run, _ = trained_run
        gen_out = tmp_path / "gen"
        main(["generate", "--checkpoint", str(run / "checkpoint_epoch000002.ckpt"),
              "--n", "12", "--seed", "2", "--out", str(gen_out)])
        out = tmp_path / "cmp"
        rc = main(["compare", "--real", str(small_csv),
                   "--synthetic", str(gen_out / "returns.csv"), "--out", str(out)])
        assert rc == 0
        moments = (out / "moments.csv").read_text().splitlines()
        assert moments[0] == "metric,real,synthetic"
        acf = (out / "acf.csv").read_text().splitlines()
        assert acf[0] == "lag,real,synthetic,real_absolute,synthetic_absolute"
        svg = (out / "acf.svg").read_text()
        ET.fromstring(svg)
        for title in ("ACF of synthetic log returns", "ACF of real log returns",
                      "ACF of absolute synthetic log returns",
                      "ACF of absolute real log returns"):
            assert title in svg
        ET.fromstring((out / "qq.svg").read_text())
        ET.fromstring((out / "histogram.svg").read_text())

    def test_acf_csv_and_svg_share_one_lag_range(self, trained_run, tmp_path):
        # synthetic windows of 10 returns against a real series of 159: lags 0..9 in both
        run, csv_path = trained_run
        out = tmp_path / "cmp"
        assert main(["compare", "--real", str(csv_path),
                     "--checkpoint", str(run / "checkpoint_epoch000002.ckpt"),
                     "--n", "8", "--out", str(out)]) == 0
        lags = [row.split(",")[0] for row in (out / "acf.csv").read_text().splitlines()[1:]]
        assert lags == [str(k) for k in range(10)]
        panels = ET.fromstring((out / "acf.svg").read_text()).findall(
            "{http://www.w3.org/2000/svg}g")
        stems = [sum(line.get("stroke-width") == "2" for line in g.iter() if line.tag.endswith(
            "line")) for g in panels]
        assert stems == [9, 9, 9, 9]

    def test_real_vs_real_identity(self, small_csv, tmp_path):
        # feed the real returns back as a single synthetic window row
        from tsforge.data import load_csv, log_returns
        r = log_returns(load_csv(small_csv))
        synth = tmp_path / "synth.csv"
        with open(synth, "w") as fh:
            fh.write(",".join(f"{v:.17g}" for v in r) + "\n")
        out = tmp_path / "cmp"
        rc = main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "moments.csv").read_text().splitlines()[1:]
        for row in rows:
            _, rv, sv = row.split(",")
            assert float(rv) == pytest.approx(float(sv), rel=1e-12)

    def test_checkpoint_source(self, trained_run, tmp_path):
        run, csv_path = trained_run
        out = tmp_path / "cmp"
        rc = main(["compare", "--real", str(csv_path),
                   "--checkpoint", str(run / "checkpoint_epoch000002.ckpt"),
                   "--n", "8", "--seed", "1", "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_synthetic_exit_2_before_any_write(self, small_csv, tmp_path, bad):
        synth = tmp_path / "synth.csv"
        synth.write_text(f"0.01,{bad},-0.02\n0.0,0.01,0.02\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_source_exit_1(self, small_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["compare", "--real", str(small_csv), "--out", str(out)]) == 1
        assert "one of the arguments --synthetic --checkpoint is required" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_both_sources_exit_1(self, small_csv, tmp_path, capsys):
        # the checkpoint need not exist: the two sources are refused before any read
        synth = tmp_path / "synth.csv"
        synth.write_text("0.01,-0.02,0.005\n")
        out = tmp_path / "o"
        assert main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                     "--checkpoint", str(tmp_path / "missing.ckpt"), "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_bom_synthetic_compares_like_the_plain_file(self, small_csv, tmp_path):
        # Excel's "CSV UTF-8" export of the matrix starts with EF BB BF
        plain = tmp_path / "synth.csv"
        cli._write_csv(plain, None, *np.random.default_rng(4).normal(0.0, 0.02, (5, 12)).T)
        bom = tmp_path / "synth-bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = [tmp_path / "cmp-plain", tmp_path / "cmp-bom"]
        for synth, out in zip((plain, bom), outs):
            assert main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                         "--out", str(out)]) == 0
        files = sorted(f.name for f in outs[0].iterdir())
        assert files and files == sorted(f.name for f in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_undecodable_synthetic_byte_names_its_offset(self, small_csv, tmp_path, capsys, bom):
        head = bom + b"0.01,-0.02,0.005\n0.0,"
        synth = tmp_path / "synth.csv"
        synth.write_bytes(head + b"\xa30.01,0.02\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                     "--out", str(out)]) == 2
        assert f"data error: {synth}: byte {len(head)} is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_synthetic_exit_2_before_any_write(self, small_csv, tmp_path, capsys):
        # the mean of these 50 copies of 0.1 is not 0.1
        synth = tmp_path / "synth.csv"
        cli._write_csv(synth, None, *np.full((10, 5), 0.1))
        out = tmp_path / "cmp"
        assert main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                     "--out", str(out)]) == 2
        assert "data error: degenerate sample: zero variance" in capsys.readouterr().err
        assert not out.exists()

    def test_one_column_synthetic_is_windows_of_one_return(self, small_csv, tmp_path, capsys):
        # what generate writes for a --seq-len 1 checkpoint: n windows, not one
        # window of n returns, so there is no ACF across independent samples
        synth = tmp_path / "synth.csv"
        cli._write_csv(synth, None, np.random.default_rng(3).normal(0.0, 0.02, 12))
        assert cli._read_matrix_csv(synth).shape == (12, 1)
        out = tmp_path / "cmp"
        assert main(["compare", "--real", str(small_csv), "--synthetic", str(synth),
                     "--out", str(out)]) == 2
        assert "acf needs windows of at least 2 returns, got 1" in capsys.readouterr().err
        assert not out.exists()


# a subcommand and bad numbers for it: each must be a usage error before any write
BAD_NUMBERS = [
    ("train", ["--lambda", "nan"]), ("train", ["--epsilon", "inf"]), ("train", ["--lr", "nan"]),
    ("train", ["--clip-c", "-1", "--loss-variant", "wgan_clip"]),
    ("train", ["--clip-c", "nan"]), ("train", ["--grid-samples", "0"]),
    ("generate", ["--n", "0"]), ("generate", ["--n", "-3"]), ("generate", ["--p0", "nan"]),
    ("compare", ["--n", "-2"]), ("compare", ["--bins", "0"]), ("compare", ["--bins", "-1"]),
    ("train", ["--stride", "0"]), ("train", ["--lipschitz-pairs", "-1"]),
    ("evaluate", ["--max-lag", "-1"]), ("compare", ["--max-lag", "-1"]),
    ("train", ["--seed", "-1"]), ("generate", ["--seed", "-1"]), ("compare", ["--seed", "-1"]),
    # a checkpoint grid of 2 returns is too few for its moments table
    ("train", ["--seq-len", "2", "--grid-samples", "1"]),
]


def _inputs(command: str, trained_run) -> list[str]:
    """The flags naming a subcommand's inputs, on the trained run's files."""
    run, csv_path = trained_run
    ckpt = str(run / "checkpoint_epoch000002.ckpt")
    return {"train": ["--data", str(csv_path)] + FAST,
            "generate": ["--checkpoint", ckpt],
            "evaluate": ["--data", str(csv_path)],
            "compare": ["--real", str(csv_path), "--checkpoint", ckpt]}[command]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command,bad", BAD_NUMBERS,
                             ids=["_".join([c] + b) for c, b in BAD_NUMBERS])
    def test_bad_number_exit_1_before_any_write(self, trained_run, tmp_path, command, bad):
        source = _inputs(command, trained_run)
        out = tmp_path / "o"
        assert main([command, "--out", str(out)] + source + bad) == 1
        assert not out.exists()

    @pytest.mark.parametrize("record,array,value", [
        ("gen/proj.W", lambda cp: cp.generator["proj.W"], np.nan),
        ("critic/lstm.W_f", lambda cp: cp.critic["lstm.W_f"], np.inf),
        ("opt_c/lstm.b_i", lambda cp: cp.opt_critic.cache["lstm.b_i"], np.nan),
    ], ids=["generator-nan", "critic-inf", "optimizer-nan"])
    def test_non_finite_checkpoint_exit_2_before_any_write(self, trained_run, tmp_path, capsys,
                                                            record, array, value):
        run, csv_path = trained_run
        cp = load_checkpoint(run / "checkpoint_epoch000002.ckpt")
        array(cp).flat[0] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, cp)
        out = tmp_path / "o"
        for command in (["generate", "--checkpoint", str(bad)],
                        ["compare", "--real", str(csv_path), "--checkpoint", str(bad)],
                        ["train", "--data", str(csv_path), "--resume", str(bad)] + FAST):
            assert main(command + ["--out", str(out)]) == 2, command[0]
            assert f"tensor record {record!r} holds a NaN or infinite value" in \
                capsys.readouterr().err
            assert not out.exists()

    def test_negative_optimizer_cache_exit_2_before_any_write(self, trained_run, tmp_path,
                                                              capsys):
        run, csv_path = trained_run
        cp = load_checkpoint(run / "checkpoint_epoch000002.ckpt")
        cp.opt_critic.cache["lstm.W_i"].flat[0] = -1.0
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, cp)
        out = tmp_path / "o"
        assert main(["train", "--data", str(csv_path), "--resume", str(bad), "--out",
                     str(out)] + FAST) == 2
        assert "opt_c/lstm.W_i holds a negative RMSprop cache entry" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_flag(self):
        assert main(["train"]) == 1

    @pytest.mark.parametrize("command", ["train", "generate", "evaluate", "compare"])
    def test_out_at_a_file_exit_1(self, trained_run, tmp_path, capsys, command):
        source = _inputs(command, trained_run)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        for out, reason in ((blocker, "File exists"), (blocker / "sub", "Not a directory")):
            assert main([command, "--out", str(out)] + source) == 1
            assert f"cannot use {out} as the output directory: {reason}" in \
                capsys.readouterr().err
        assert blocker.read_text() == "keep\n"

    def test_tsforge_out_env(self, small_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TSFORGE_OUT", str(tmp_path / "envroot"))
        rc = main(["evaluate", "--data", str(small_csv)])
        assert rc == 0
        assert (tmp_path / "envroot").exists()


def _run_python(*args, **env_vars) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src on its path, so that the
    process-wide logging set-up runs as it does from a shell."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_python_m_tsforge_runs_the_cli():
    done = _run_python("-m", "tsforge", "--version")
    assert (done.returncode, done.stdout) == (0, f"tsforge {cli.__version__}\n"), done.stderr
    done = _run_python("-c", "import sys, tsforge\n"
                       "print(sorted(m for m in sys.modules if m.startswith('tsforge')))")
    assert done.stdout == "['tsforge']\n", done.stderr


def test_tsforge_log_takes_level_names_in_any_case(small_csv, tmp_path):
    train = ["-m", "tsforge", "train", "--data", str(small_csv)] + FAST
    done = _run_python(*train, "--out", str(tmp_path / "info"), TSFORGE_LOG="info")
    assert (done.returncode, done.stderr) == (0, "")
    done = _run_python(*train, "--out", str(tmp_path / "debug"), TSFORGE_LOG="DeBuG")
    assert done.returncode == 0, done.stderr
    assert "DEBUG:tsforge.gan:epoch 1: critic=" in done.stderr


def test_tsforge_log_is_read_on_every_main_call(small_csv, tmp_path):
    # logging.basicConfig sets a level only while the root logger has no
    # handler, so only a fresh process shows a second call's level; under
    # pytest the root logger already has handlers
    script = ("import os, sys\n"
              "from tsforge.cli import main\n"
              "for level in ('WARNING', 'DEBUG'):\n"
              "    os.environ['TSFORGE_LOG'] = level\n"
              "    print('---', level, file=sys.stderr, flush=True)\n"
              "    out = os.path.join(sys.argv[1], level)\n"
              "    assert main(sys.argv[2:] + ['--out', out]) == 0\n")
    done = _run_python("-c", script, str(tmp_path), "train", "--data", str(small_csv), *FAST)
    assert done.returncode == 0, done.stderr
    warning, debug = done.stderr.split("--- DEBUG\n")
    assert warning == "--- WARNING\n"
    assert "DEBUG:tsforge.gan:epoch 1: critic=" in debug


def test_tsforge_log_needs_no_python_3_11_logging_api(monkeypatch):
    # logging.getLevelNamesMapping first appeared in 3.11; the project supports 3.10.
    monkeypatch.delattr(logging, "getLevelNamesMapping", raising=False)
    for value, level in (("info", logging.INFO), ("Warn", logging.WARNING),
                         ("DEBUG", logging.DEBUG)):
        monkeypatch.setenv("TSFORGE_LOG", value)
        assert cli._log_level() == level
    monkeypatch.delenv("TSFORGE_LOG")
    assert cli._log_level() == logging.WARNING
    monkeypatch.setenv("TSFORGE_LOG", "bogus")
    with pytest.raises(cli.ConfigError, match="TSFORGE_LOG='bogus' is not a log level"):
        cli._log_level()


def test_every_source_file_parses_as_python_3_10():
    """The project supports Python 3.10 (pyproject.toml), and the tests may run
    on a newer interpreter only. Parsing at feature_version (3, 10) rejects
    syntax that is new in 3.11, such as ``except*``. It cannot catch an API
    that is new in 3.11, such as ``logging.getLevelNamesMapping``: a call to
    one parses like any other call."""
    files = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(files) > 5
    for path in files:
        ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=(3, 10))


def test_unknown_tsforge_log_exit_1(small_csv, tmp_path):
    out = tmp_path / "o"
    done = _run_python("-m", "tsforge", "evaluate", "--data", str(small_csv), "--out", str(out),
                       TSFORGE_LOG="bogus")
    assert done.returncode == 1
    assert done.stderr.startswith("configuration error: TSFORGE_LOG='bogus' is not a log level")
    assert "Traceback" not in done.stderr
    assert not out.exists()
