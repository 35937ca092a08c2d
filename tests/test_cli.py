"""CLI contract: flags, config precedence, artifacts, exit codes."""

import json
import struct
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest

from tsforge import cli
from tsforge.cli import main, parse_config, write_config
from tsforge.gan import TrainConfig
from tsforge.optim import OptimConfig

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

# flag, its value, the field it sets (optimizer fields under "optim."), the parsed value
TRAIN_FLAGS = [
    ("--epochs", "7", "epochs", 7), ("--n-critic", "2", "n_critic", 2),
    ("--lambda", "3.5", "lambda_gp", 3.5), ("--batch-size", "9", "batch_size", 9),
    ("--noise-len", "4", "noise_len", 4), ("--seq-len", "11", "seq_len", 11),
    ("--units", "12", "lstm_units", 12), ("--loss-variant", "gan", "loss_variant", "gan"),
    ("--seed", "9", "seed", 9), ("--checkpoint-every", "3", "checkpoint_every", 3),
    ("--g-loss-nonsaturating", None, "g_loss_nonsaturating", True),
    ("--lr", "0.001", "optim.learning_rate", 0.001), ("--rho", "0.8", "optim.rho", 0.8),
    ("--epsilon", "1e-7", "optim.epsilon", 1e-7), ("--clip-c", "0.02", "optim.clip_c", 0.02),
]


def every_field_changed() -> TrainConfig:
    return TrainConfig(epochs=7, n_critic=2, lambda_gp=3.5, batch_size=9, noise_len=4,
                       seq_len=11, lstm_units=12, loss_variant="gan", seed=9,
                       checkpoint_every=3, g_loss_nonsaturating=True,
                       optim=OptimConfig(learning_rate=1e-3, rho=0.8, epsilon=1e-7,
                                         clip_c=0.02))


def edit_checkpoint_meta(src, dest, edit):
    """Copy a checkpoint with ``edit`` applied to its JSON metadata."""
    blob = src.read_bytes()
    start = blob.rindex(b'{"arch"')   # keys are sorted, so "arch" opens the block
    meta = json.loads(blob[start:])
    edit(meta)
    edited = json.dumps(meta).encode()
    dest.write_bytes(blob[:start - 8] + struct.pack("<Q", len(edited)) + edited)
    return dest


class TestParseConfig:
    def test_defaults_match_reference_settings(self):
        cfg = parse_config()
        assert cfg.epochs == 3000
        assert cfg.n_critic == 5
        assert cfg.optim.learning_rate == 0.00005
        assert cfg.batch_size == 32
        assert cfg.noise_len == 25
        assert cfg.seq_len == 50
        assert cfg.lambda_gp == 10.0
        assert cfg.lstm_units == 50
        assert cfg.checkpoint_every == 500
        assert cfg.loss_variant == "wgan_gp"

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
        for f in fields(OptimConfig):
            assert getattr(cfg.optim, f.name) != getattr(default.optim, f.name), f.name
        write_config(cfg, tmp_path / "snap.cfg")
        assert parse_config(tmp_path / "snap.cfg") == cfg

    def test_flags_cover_every_field(self):
        names = {f.name for f in fields(TrainConfig) if f.name != "optim"}
        names |= {f"optim.{f.name}" for f in fields(OptimConfig)}
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
        if field.startswith("optim."):
            want = TrainConfig(optim=replace(OptimConfig(), **{field[6:]: expected}))
        else:
            want = replace(TrainConfig(), **{field: expected})
        assert parsed == [want]


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

    def test_constant_prices_exit_2(self, tmp_path):
        lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
        from datetime import date, timedelta
        for i in range(30):
            d = date(2020, 1, 1) + timedelta(days=i)
            lines.append(f"{d.isoformat()},1,1,1,50.0,50.0,1")
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--data", str(p), "--out", str(tmp_path / "o")]) == 2


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

    def test_missing_source_exit_1(self, small_csv, tmp_path):
        assert main(["compare", "--real", str(small_csv),
                     "--out", str(tmp_path / "o")]) == 1


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
]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command,bad", BAD_NUMBERS,
                             ids=["_".join([c] + b) for c, b in BAD_NUMBERS])
    def test_bad_number_exit_1_before_any_write(self, trained_run, tmp_path, command, bad):
        run, csv_path = trained_run
        ckpt = str(run / "checkpoint_epoch000002.ckpt")
        source = {"train": ["--data", str(csv_path)] + FAST,
                  "generate": ["--checkpoint", ckpt],
                  "evaluate": ["--data", str(csv_path)],
                  "compare": ["--real", str(csv_path), "--checkpoint", ckpt]}[command]
        out = tmp_path / "o"
        assert main([command, "--out", str(out)] + source + bad) == 1
        assert not out.exists()

    def test_missing_required_flag(self):
        assert main(["train"]) == 1

    def test_tsforge_out_env(self, small_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TSFORGE_OUT", str(tmp_path / "envroot"))
        rc = main(["evaluate", "--data", str(small_csv)])
        assert rc == 0
        assert (tmp_path / "envroot").exists()
