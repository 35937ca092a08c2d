"""The ``tsforge`` command line front end.

Subcommands::

    tsforge train     --data prices.csv [flags]      train a model
    tsforge generate  --checkpoint run/x.ckpt ...    sample a trained generator
    tsforge evaluate  --data prices.csv ...          stylized facts of one asset
    tsforge compare   --real prices.csv ...          real vs synthetic report

Every plot is written as minimal SVG with a CSV twin carrying the same
numbers. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
abort. ``TSFORGE_OUT`` overrides the default output root, and
``TSFORGE_LOG`` names the level of the ``tsforge`` loggers in any case
(default WARNING), read again on every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, atomic_write, gan, stats
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (DataError, WindowedDataset, build_dataset, load_csv, log_returns,
                   returns_to_prices)
from .gan import TrainConfig, TrainingDiverged, make_rng
from .plot import Chart, render_chart, render_panels, write_svg
from .stats import StatsError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Bad configuration file or flag values."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"     # the same text as "%.17g" % x, which the CSV rows use


# configuration ------------------------------------------------------

# Config keys, mapped to the type of their field's default: the TrainConfig
# field names, two of them renamed.
_RENAMED = {"lambda_gp": "lambda", "lstm_units": "units"}
_FIELD = {key: name for name, key in _RENAMED.items()}
_KEYS = {_RENAMED.get(f.name, f.name): type(f.default) for f in fields(TrainConfig)}


def _read_config_file(path) -> dict:
    values: dict = {}
    try:
        # decoded whole, so an undecodable byte's offset counts from the first byte
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if _KEYS[key] is bool:
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(val)
                values[key] = val.lower() in ("true", "1")
            else:
                values[key] = _KEYS[key](val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: cannot parse value {val!r} "
                              f"for key {key!r}") from None
    return values


def parse_config(path=None, overrides: dict | None = None) -> TrainConfig:
    """Build a TrainConfig from defaults, an optional flat ``key = value``
    file and flag overrides (flags beat the file, the file beats defaults)."""
    values: dict = {}
    if path is not None:
        values.update(_read_config_file(path))
    for k, v in (overrides or {}).items():
        if v is None:
            continue
        if k not in _KEYS:
            raise ConfigError(f"unknown configuration key {k!r}")
        values[k] = v
    try:
        return TrainConfig(**{_FIELD.get(k, k): v for k, v in values.items()})
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


def _by_key(config: dict) -> dict:
    """The values of an ``asdict(TrainConfig)`` under their config keys. A
    checkpoint written before the optimizer's four keys joined TrainConfig
    nests them under ``"optim"``."""
    values = {**config, **config.get("optim", {})}
    return {key: values[_FIELD.get(key, key)] for key in _KEYS}


def write_config(cfg: TrainConfig, path) -> None:
    """Snapshot a TrainConfig in the same flat format parse_config reads."""
    lines = []
    for key, value in _by_key(asdict(cfg)).items():
        text = _fmt(value) if _KEYS[key] is float else str(value)
        lines.append(f"{key} = {text.lower() if _KEYS[key] is bool else text}")
    atomic_write(path, "\n".join(lines) + "\n")


# CSV helpers --------------------------------------------------------

def _write_csv(path, header: list[str] | None, *columns) -> None:
    """One CSV row per index of ``columns``: numpy arrays (one ``.tolist()``
    each), ``range``s or lists, all of one length (``ValueError`` otherwise).
    A column of str is written as ``%s``, any other as ``%.17g`` (``_fmt``'s
    text); the file is one row template repeated and formatted with one ``%``.
    A ``None`` header writes no header line: a matrix goes in as ``*matrix.T``."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError(f"{path}: columns of unequal length {[len(c) for c in cols]}")
    row = ",".join("%s" if n and isinstance(c[0], str) else "%.17g" for c in cols) + "\n"
    cells: list = [None] * (n * len(cols))
    for j, c in enumerate(cols):
        cells[j::len(cols)] = c
    head = "" if header is None else ",".join(header) + "\n"
    atomic_write(path, head + (row * n) % tuple(cells))


def _read_matrix_csv(path) -> np.ndarray:
    try:
        # ndmin=2: one column is n windows of one return, one row is one window
        matrix = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        if not np.all(np.isfinite(matrix)):
            raise ValueError("it holds a NaN or infinite value")
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read numeric CSV {path}: {e}") from None
    return matrix


def _out_dir(arg: str | None, default_name: str) -> Path:
    root = Path(arg) if arg else Path(os.environ.get("TSFORGE_OUT", "runs")) / default_name
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot use {root} as the output directory: {e.strerror}") from None
    return root


# train --------------------------------------------------------------

def _write_loss_artifacts(out: Path, history: gan.LossHistory) -> None:
    _write_csv(out / "loss.csv",
               ["epoch", "critic_loss", "generator_loss", "wasserstein", "gradient_penalty"],
               history.epochs, history.critic_loss, history.generator_loss,
               history.wasserstein, history.gradient_penalty)
    chart = Chart("Generator and critic loss", "epoch", "loss")
    chart.add("critic", history.epochs, history.critic_loss)
    chart.add("generator", history.epochs, history.generator_loss)
    chart.add("wasserstein estimate", history.epochs, history.wasserstein)
    write_svg(out / "loss.svg", render_chart(chart))


def _paths_chart(title: str, y_label: str, rows: np.ndarray,
                 real: np.ndarray | None = None) -> Chart:
    """The first 8 rows as synthetic paths, and an optional real one."""
    chart = Chart(title, "timestep", y_label)
    xs = list(range(rows.shape[1]))
    for i, row in enumerate(rows[:8]):
        chart.add("synthetic" if i == 0 else "", xs, row, color="#1f77b4")
    if real is not None:
        chart.add("real", xs, real, color="#d62728")
    return chart


def _write_moments(path, real: stats.MomentsReport, synth: stats.MomentsReport) -> None:
    _write_csv(path, ["metric", "real", "synthetic"], *zip(*real.rows()),
               [v for _, v in synth.rows()])


def _check_resume(cp: Checkpoint, cfg: TrainConfig, dataset: WindowedDataset, path) -> None:
    """Refuse a checkpoint that this configuration and data cannot continue."""
    try:
        have = _by_key(cp.extra["config"])
    except (LookupError, TypeError):
        raise CheckpointError(f"{path}: checkpoint holds no complete training "
                              f"configuration to resume under") from None
    for key, need in _by_key(asdict(cfg)).items():
        if key not in ("epochs", "checkpoint_every") and have[key] != need:
            raise CheckpointError(f"{path}: checkpoint has {key} = {have[key]}, "
                                  f"the configuration {need}")
    if cp.generator.arch != cfg.arch():
        raise CheckpointError(f"{path}: checkpoint architecture {cp.generator.arch} "
                              f"disagrees with its configuration")
    if cp.scaler != dataset.scaler or cp.extra.get("n_windows") != len(dataset):
        raise CheckpointError(f"{path}: checkpoint was trained on other data "
                              f"({cp.extra.get('n_windows')} windows, {cp.scaler}), "
                              f"this price file gives {len(dataset)} windows, {dataset.scaler}")
    if cfg.epochs <= cp.epoch:
        raise CheckpointError(f"{path}: checkpoint is at epoch {cp.epoch}, "
                              f"so epochs = {cfg.epochs} leaves nothing to train")


def cmd_train(args) -> int:
    cfg = parse_config(args.config, {key: getattr(args, key) for key in _KEYS})
    if args.grid_samples * cfg.seq_len < 4:
        raise ConfigError(f"grid_samples {args.grid_samples} x seq_len {cfg.seq_len} = "
                          f"{args.grid_samples * cfg.seq_len} returns per checkpoint grid, "
                          f"fewer than the 4 its moments need")
    resume = load_checkpoint(args.resume) if args.resume else None
    prices = load_csv(args.data)
    dataset = build_dataset(prices, seq_len=cfg.seq_len, stride=args.stride)
    if resume is not None:
        _check_resume(resume, cfg, dataset, args.resume)
    out = _out_dir(args.out, f"train-{Path(args.data).stem}-seed{cfg.seed}")
    write_config(cfg, out / "config.txt")
    real_moments = stats.moments(dataset.scaler.inverse(dataset.windows))
    collapse_scores: dict[str, float] = {}

    def collapse(generator, seed: int) -> float:
        return gan.mode_collapse_score(gan.generate(generator, max(2, cfg.batch_size), seed))

    def on_checkpoint(cp: Checkpoint) -> None:
        tag = f"epoch{cp.epoch:06d}"
        save_checkpoint(out / f"checkpoint_{tag}.ckpt", cp)
        collapse_scores[str(cp.epoch)] = collapse(cp.generator, cfg.seed + cp.epoch)
        samples = gan.generate(cp.generator, args.grid_samples, cfg.seed + cp.epoch)[:, :, 0]
        _write_csv(out / f"samples_{tag}.csv", None, *samples.T)
        write_svg(out / f"samples_{tag}.svg", render_chart(_paths_chart(
            f"Generated samples at epoch {cp.epoch}", "scaled return", samples,
            dataset.windows[0, :, 0])))
        _write_moments(out / f"compare_{tag}_moments.csv", real_moments,
                       stats.moments(dataset.scaler.inverse(samples)))

    try:
        gen, critic, history, _ = gan.train(
            cfg, dataset, resume=resume, on_checkpoint=on_checkpoint)
    except TrainingDiverged as e:
        _write_loss_artifacts(out, e.history)
        save_checkpoint(out / "checkpoint_crash.ckpt", e.checkpoint)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC

    _write_loss_artifacts(out, history)

    # run summary: the final mode-collapse score plus a Lipschitz probe over
    # random window pairs, identical ones dropped, scored in one critic call
    rng = make_rng(cfg.seed + 1)
    w = dataset.windows
    draws = (rng.integers(0, len(dataset), size=2) for _ in range(args.lipschitz_pairs))
    pairs = [(i, j) for i, j in draws if not np.array_equal(w[i], w[j])]
    median_ratio = None
    if pairs:
        i, j = np.array(pairs).T
        median_ratio = float(np.median(gan.lipschitz_ratio_check(critic, w[i], w[j])))
    summary = {
        "epochs": cfg.epochs,
        "final_critic_loss": history.critic_loss[-1],
        "final_generator_loss": history.generator_loss[-1],
        "final_wasserstein": history.wasserstein[-1],
        "median_lipschitz_ratio": median_ratio,
        "mode_collapse_final": collapse(gen, cfg.seed + cfg.epochs + 1),
        "mode_collapse_per_checkpoint": collapse_scores,
        "dropped_rows": prices.dropped,
        "n_windows": len(dataset),
    }
    atomic_write(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"run artifacts written to {out}")
    return EXIT_OK


# generate -----------------------------------------------------------

def cmd_generate(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    real = log_returns(load_csv(args.real)) if args.real else None
    out = _out_dir(args.out, f"generate-seed{args.seed}")
    samples = gan.generate(cp.generator, args.n, args.seed)   # [n, seq, 1]
    scaled = samples[:, :, 0]
    _write_csv(out / "returns_scaled.csv", None, *scaled.T)
    returns = cp.scaler.inverse(scaled)
    _write_csv(out / "returns.csv", None, *returns.T)
    prices = np.stack([returns_to_prices(row, args.p0) for row in returns])
    _write_csv(out / "prices.csv", None, *prices.T)

    real_path = None
    seq = scaled.shape[1]
    if real is not None and len(real) >= seq:
        real_path = returns_to_prices(real[-seq:], args.p0)
    write_svg(out / "prices.svg",
              render_chart(_paths_chart("Generated price paths", "price", prices, real_path)))
    print(f"wrote {args.n} samples to {out}")
    return EXIT_OK


# evaluate -----------------------------------------------------------

def _acf_chart(title: str, rep: stats.AcfReport) -> Chart:
    return Chart(title, "lag", "acf", h_lines=[rep.band, -rep.band]).add(
        "", rep.lags[1:], rep.values[1:], kind="stem")


def cmd_evaluate(args) -> int:
    prices = load_csv(args.data)
    returns = log_returns(prices)
    report = stats.moments(returns)
    max_lag = min(args.max_lag, len(returns) - 1)
    plain = stats.acf(returns, max_lag)
    absolute = stats.acf(np.abs(returns), max_lag)
    qq = stats.qq_points(returns, "normal")
    out = _out_dir(args.out, f"evaluate-{Path(args.data).stem}")

    _write_csv(out / "moments.csv", ["metric", "value"], *zip(*report.rows()))
    _write_csv(out / "acf.csv", ["lag", "acf", "acf_absolute"],
               plain.lags, plain.values, absolute.values)
    write_svg(out / "acf.svg", render_panels([
        _acf_chart("ACF of log returns", plain),
        _acf_chart("ACF of absolute log returns", absolute)]))

    _write_csv(out / "qq.csv", ["theoretical", "sample"], qq.theoretical, qq.sample)
    qc = Chart("QQ plot of log returns vs normal", "normal quantile", "sample quantile",
               ref_line=(qq.slope, qq.intercept))
    qc.add("log returns", qq.theoretical, qq.sample, kind="scatter")
    write_svg(out / "qq.svg", render_chart(qc))

    _write_csv(out / "returns.csv", ["index", "log_return"], range(len(returns)), returns)
    write_svg(out / "returns.svg", render_chart(
        Chart("Log returns", "day", "log return").add("", range(len(returns)), returns)))
    print(f"evaluation written to {out} ({report.n} returns)")
    return EXIT_OK


# compare ------------------------------------------------------------

def _load_synthetic(args) -> np.ndarray:
    if args.synthetic:
        return _read_matrix_csv(args.synthetic)
    cp = load_checkpoint(args.checkpoint)
    return cp.scaler.inverse(gan.generate(cp.generator, args.n, args.seed)[:, :, 0])


def cmd_compare(args) -> int:
    prices = load_csv(args.real)
    real = log_returns(prices)
    synth = _load_synthetic(args)
    report = stats.compare_distributions(real, synth, max_lag=args.max_lag,
                                         bins=args.bins)
    out = _out_dir(args.out, f"compare-{Path(args.real).stem}")
    _write_moments(out / "moments.csv", report.moments_real, report.moments_synthetic)

    hist = report.histogram
    centers = (hist.edges[:-1] + hist.edges[1:]) / 2.0
    _write_csv(out / "histogram.csv", ["bin_center", "real_density", "synthetic_density"],
               centers, hist.densities["real"], hist.densities["synthetic"])
    hc = Chart("Log return densities", "log return", "density", annotations=[
        f"real skew {report.moments_real.skewness:.3f} kurt {report.moments_real.kurtosis:.2f}",
        f"synthetic skew {report.moments_synthetic.skewness:.3f} "
        f"kurt {report.moments_synthetic.kurtosis:.2f}",
    ])
    hc.add("real", centers, hist.densities["real"], kind="bar", color="#1f77b4")
    hc.add("synthetic", centers, hist.densities["synthetic"], kind="bar", color="#d62728")
    write_svg(out / "histogram.svg", render_chart(hc))

    qq_sets = {
        "synthetic_vs_normal": report.qq_synthetic_vs_normal,
        "real_vs_normal": report.qq_real_vs_normal,
        "synthetic_vs_real": report.qq_synthetic_vs_real,
    }
    reps = qq_sets.values()
    _write_csv(out / "qq.csv", ["set", "theoretical", "sample"],
               np.repeat(list(qq_sets), [rep.sample.size for rep in reps]),
               np.concatenate([rep.theoretical for rep in reps]),
               np.concatenate([rep.sample for rep in reps]))
    write_svg(out / "qq.svg", render_panels([
        Chart(f"QQ {name.replace('_', ' ')}", "reference quantile", "sample quantile",
              ref_line=(rep.slope, rep.intercept)).add("", rep.theoretical, rep.sample,
                                                       kind="scatter")
        for name, rep in qq_sets.items()]))

    _write_csv(out / "acf.csv",
               ["lag", "real", "synthetic", "real_absolute", "synthetic_absolute"],
               report.acf_real.lags, report.acf_real.values, report.acf_synthetic.values,
               report.acf_abs_real.values, report.acf_abs_synthetic.values)
    write_svg(out / "acf.svg", render_panels([
        _acf_chart("ACF of synthetic log returns", report.acf_synthetic),
        _acf_chart("ACF of real log returns", report.acf_real),
        _acf_chart("ACF of absolute synthetic log returns", report.acf_abs_synthetic),
        _acf_chart("ACF of absolute real log returns", report.acf_abs_real)]))
    print(f"comparison written to {out}")
    return EXIT_OK


# argument parsing ---------------------------------------------------

def _positive(kind, zero_ok: bool = False):
    """An argparse type: a finite value of ``kind`` above zero, or at
    least zero with ``zero_ok``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            raise ValueError(text)
        return value
    parse.__name__ = f"{'non-negative' if zero_ok else 'positive'} {kind.__name__}"
    return parse


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: argparse actions point back at
    their parser, so a parser per call left cyclic garbage on every
    in-process command."""
    p = _Parser(prog="tsforge", description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=f"tsforge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model on a price CSV")
    tr.add_argument("--data", required=True, help="price CSV (Date,...,Close,... header)")
    tr.add_argument("--config", help="flat key = value configuration file")
    tr.add_argument("--out", help="run directory (default under TSFORGE_OUT or ./runs)")
    tr.add_argument("--resume", help="checkpoint to resume from")
    for key, kind in _KEYS.items():
        flag = "--lr" if key == "learning_rate" else "--" + key.replace("_", "-")
        if kind is bool:
            tr.add_argument(flag, dest=key, action="store_true", default=None,
                            help=f"config key {key}")
        else:
            tr.add_argument(flag, dest=key, type=kind, help=f"config key {key}",
                            choices=gan.LOSS_VARIANTS if key == "loss_variant" else None)
    tr.add_argument("--stride", type=_positive(int), default=1)
    tr.add_argument("--grid-samples", dest="grid_samples", type=_positive(int), default=16,
                    help="samples per checkpoint grid")
    tr.add_argument("--lipschitz-pairs", type=_positive(int, zero_ok=True), default=200,
                    help="window pairs scored in one critic call for summary.json's "
                         "median_lipschitz_ratio")
    tr.set_defaults(func=cmd_train)

    ge = sub.add_parser("generate", help="sample a trained generator")
    ge.add_argument("--checkpoint", required=True)
    ge.add_argument("--n", type=_positive(int), default=32)
    ge.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    ge.add_argument("--p0", type=_positive(float), default=100.0, help="starting price for paths")
    ge.add_argument("--real", help="price CSV to overlay a real window")
    ge.add_argument("--out")
    ge.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="stylized facts of one price CSV")
    ev.add_argument("--data", required=True)
    ev.add_argument("--out")
    ev.add_argument("--max-lag", dest="max_lag", type=_positive(int), default=50)
    ev.set_defaults(func=cmd_evaluate)

    co = sub.add_parser("compare", help="real vs synthetic distribution report")
    co.add_argument("--real", required=True, help="real price CSV")
    source = co.add_mutually_exclusive_group(required=True)
    source.add_argument("--synthetic", help="CSV of synthetic return rows")
    source.add_argument("--checkpoint", help="generate synthetic data from this checkpoint")
    co.add_argument("--n", type=_positive(int), default=64)
    co.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    co.add_argument("--out")
    co.add_argument("--max-lag", dest="max_lag", type=_positive(int), default=50)
    co.add_argument("--bins", type=_positive(int), default=50)
    co.set_defaults(func=cmd_compare)
    return p


def _log_level() -> int:
    # getLevelName maps a registered name to its number on every supported
    # Python; an unknown name comes back as the string "Level <NAME>".
    name = os.environ.get("TSFORGE_LOG", "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError(f"TSFORGE_LOG={name!r} is not a log level name "
                          "(one of CRITICAL, ERROR, WARNING, INFO, DEBUG, NOTSET)")
    return level


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        level = _log_level()
        logging.basicConfig()     # adds stderr's handler once, then does nothing
        logging.getLogger("tsforge").setLevel(level)
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, StatsError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
