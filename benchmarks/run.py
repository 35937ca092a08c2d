#!/usr/bin/env python3
"""The tsforge benchmark.

Run one workload from the root of a checkout; the last line printed is
the JSON result::

    python3 benchmarks/run.py --workload gp_paper --seed 1 --seconds 36 --trace 0

``--workload all`` runs every workload, untraced and then traced, each in
its own process, and prints their reports.

Workloads (each a closed loop from one process: one operation after the
previous one completes):

- ``gp_paper``: ``gan.train`` with wgan_gp at the paper configuration
  (batch 32, seq_len 50, 50 units, noise_len 25, n_critic 5, lambda 10).
  The only workload on the second-order gradient-penalty path.
- ``gan_b128``: the log-loss variant at batch 128, otherwise the paper
  configuration. First-order tape only, so a GP-only change should not
  move it; a larger share of numpy arithmetic, plus the two extra critic
  forwards of ``wasserstein_estimate``.
- ``cli_roundtrip``: ``cli.main`` in-process: ``tsforge train`` commands
  (wgan_clip, small configuration, two checkpoints), each followed by
  rounds of ``generate``, ``evaluate`` and ``compare --checkpoint`` on
  the input CSV for half as long as the train took. Here the data, stats,
  plot, checkpoint and cli layers do most of the work.

End-to-end metrics, measured untraced:

- ``epoch_s``: the median epoch of the run, at the host speed of the
  run's quietest moment; on ``cli_roundtrip`` an epoch is a ``tsforge
  train`` command divided by its epochs. The shared host slows by 10-40%
  for stretches of seconds to minutes, longer than a run, while short
  operations still find quiet moments in it. So 5 probes, ``gan.generate``
  of 64 windows of the paper configuration (about 30 ms each), made right
  after each epoch (on ``cli_roundtrip``, after the rounds that follow
  it) time the host's speed then: each epoch's wall time is
  multiplied by the fastest probe of the run over the median of its own
  probes (:func:`at_quiet_speed`). A change that makes the probes faster
  scales both alike and does not move ``epoch_s``. The raw wall times are
  kept in the run record.
- ``op_s``: a use of a trained model. On the training workloads it is
  the fastest probe of the run (the probes sample the trained generator
  and are also the output check); on ``cli_roundtrip`` it is the median
  generate + evaluate + compare round, at the quiet speed like
  ``epoch_s``.
- ``setup_s``: median over 5 fresh interpreters of importing ``tsforge``,
  then ``load_csv`` and ``build_dataset`` on the input CSV, at the quiet
  speed like ``epoch_s``: each is followed by 5 probes with a generator
  of the paper configuration, and the fastest of these 25 probes is the
  quiet speed.
- ``peak_rss_mb``: ``ru_maxrss`` of the workload process.

The report lines before the JSON result add the raw median epoch and
set-up wall times (``wall_*``), the per-command medians (``cli_*_s``), sample
counts and ``error_rate``. With ``--trace 1`` an
untraced phase is followed by a traced phase (see ``spans.py``) that
gives the per-layer metrics and the tracing overhead. Every run checks
the program's outputs; a failed check or an exception fails the
operation (one epoch, or one CLI command).
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# Cap BLAS threads at the cores this process may use; must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import inspect
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

SETUP_REPEATS = 5
CHECK_SAMPLES = 64
SPEED_PROBES = 5      # gan.generate calls after each epoch
TRACE_REPEATS = 2     # untraced/traced pairs of the same operation
TRACE_ROUNDS = 3      # traced CLI rounds after the traced trains
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Seeded stand-in for a daily BTC price export, shaped like the test
# fixture: 2,420 calendar rows, 4 of them with a null Close.
START_DATE = date(2014, 9, 17)
PRICE_ROWS = 2420
NULL_ROWS = 4

# Child interpreter timing one user set-up: import, load_csv, build_dataset.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
from tsforge.data import build_dataset, load_csv
build_dataset(load_csv(sys.argv[1]), seq_len=int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class TrainWorkload:
    """One-epoch ``gan.train`` calls, after one untimed warm-up epoch."""

    config: dict

    @property
    def seq_len(self) -> int:
        return self.config.get("seq_len", 50)


@dataclass(frozen=True)
class CliWorkload:
    """``tsforge train`` commands, then generate/evaluate/compare rounds."""

    train_args: tuple
    epochs: int
    checkpoint_every: int
    seq_len: int
    n: int = 64     # samples per generate and compare


WORKLOADS = {
    "gp_paper": TrainWorkload({"loss_variant": "wgan_gp", "batch_size": 32}),
    "gan_b128": TrainWorkload({"loss_variant": "gan", "batch_size": 128}),
    "cli_roundtrip": CliWorkload(
        ("--loss-variant", "wgan_clip", "--units", "8", "--batch-size", "16",
         "--lipschitz-pairs", "20"),
        epochs=2, checkpoint_every=1, seq_len=20),
}


# inputs -------------------------------------------------------------

def garch_returns(n: int, rng: np.random.Generator) -> np.ndarray:
    """GARCH(1,1) log returns with rare negative jumps."""
    omega, alpha, beta, mu = 2.2e-5, 0.07, 0.88, 0.0018
    z = rng.standard_normal(n)
    jumps = rng.uniform(size=n) < 0.015
    jump_sizes = -rng.exponential(2.0, size=n)
    r = np.empty(n)
    sig2 = omega / (1 - alpha - beta)
    for t in range(n):
        eps = z[t] + (jump_sizes[t] if jumps[t] else 0.0)
        r[t] = mu + np.sqrt(sig2) * eps
        sig2 = omega + alpha * (r[t] - mu) ** 2 + beta * sig2
    return r


def write_price_csv(path: Path, seed: int) -> Path:
    rng = np.random.Generator(np.random.Philox(seed))
    closes = 457.33 * np.exp(np.concatenate([[0.0], np.cumsum(garch_returns(PRICE_ROWS - 1, rng))]))
    null_rows = set(rng.choice(np.arange(1, PRICE_ROWS - 1), NULL_ROWS, replace=False).tolist())
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for i, c in enumerate(closes):
        d = (START_DATE + timedelta(days=i)).isoformat()
        if i in null_rows:
            lines.append(f"{d},null,null,null,null,null,null")
        else:
            lines.append(f"{d},{c * 0.995:.6f},{c * 1.01:.6f},{c * 0.99:.6f},"
                         f"{c:.6f},{c:.6f},{1000000 + i}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# run bookkeeping ----------------------------------------------------

@dataclass
class Run:
    """Operations attempted and failed, and the failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ops: int, error: str | None) -> None:
        self.attempted += ops
        if error is not None:
            self.failed += ops
            self.errors.append(error)
            print(f"operation failed: {error}", file=sys.stderr)


def _describe(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {"seed": seed, "nproc": NPROC, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__, "commit": commit}


def measure_setup(csv: Path, seq_len: int,
                  repeats: int = SETUP_REPEATS) -> tuple[list[float], list[list[float]]]:
    """Set-up seconds of ``repeats`` fresh interpreters, one after another,
    and the seconds of the probes made after each."""
    out, probes = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(csv), str(seq_len)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
        probes.append(paper_probes())
    return out, probes


def paper_probes() -> list[float]:
    """Seconds of SPEED_PROBES ``gan.generate`` calls with a generator of the
    paper configuration, the probes of the training workloads."""
    from tsforge import gan, nn
    paper = gan.TrainConfig(epochs=1)
    generator = nn.init_params(paper.arch(), "generator", 0)
    return sample(generator, paper.seq_len, 0)[0]


def traced_metrics(tracer, wall: float, untraced: list[float], traced: list[float],
                   report: dict) -> dict:
    """Per-layer metrics of the traced phases, plus the tracing overhead:
    the fastest traced operation over the fastest untraced one, less 1."""
    from spans import layer_metrics
    report["spans"] = [s.as_dict() for s in tracer.spans]
    metrics = layer_metrics(tracer.spans, wall)
    metrics["trace.overhead_ratio"] = min(traced) / min(untraced) - 1.0
    return metrics


# training workloads -------------------------------------------------

def check_history(history, epochs: int) -> str | None:
    """None when the loss history has one finite row per epoch."""
    if len(history) != epochs:
        return f"loss history has {len(history)} rows for {epochs} epochs"
    rows = (history.critic_loss, history.generator_loss, history.wasserstein,
            history.gradient_penalty)
    if not all(np.all(np.isfinite(r)) for r in rows):
        return "non-finite value in the loss history"
    return None


def sample(generator, seq_len: int, seed: int) -> tuple[list[float], str | None]:
    """Seconds of SPEED_PROBES ``gan.generate`` calls of CHECK_SAMPLES
    windows each, and what is wrong with their output."""
    from tsforge import gan
    generate = inspect.unwrap(gan.generate)    # not traced: the traced run times training
    times, error = [], None
    for i in range(SPEED_PROBES):
        t0 = time.perf_counter()
        samples = generate(generator, CHECK_SAMPLES, seed + i)
        times.append(time.perf_counter() - t0)
        if samples.shape != (CHECK_SAMPLES, seq_len, 1):
            error = error or f"generate returned shape {samples.shape}"
        elif not np.all(np.abs(samples) < 1.0):
            error = error or "generated value outside (-1, 1)"
    return times, error


def at_quiet_speed(walls: list[float], probes: list[list[float]]) -> list[float]:
    """Scale each wall time to the host speed of the run's quietest moment.

    ``probes[i]`` are the seconds of short fixed operations made right after
    the operation that took ``walls[i]``; the fastest probe of the run marks
    the quietest moment. An empty list of probes (a failed operation) drops
    its wall time.
    """
    fastest = min((t for ts in probes for t in ts), default=0.0)
    return [wall * fastest / statistics.median(ts) for wall, ts in zip(walls, probes) if ts]


def end_to_end(walls: list[float], probes: list[list[float]], report: dict,
               rounds: list[list[float]] | None = None) -> dict:
    """``epoch_s`` and ``op_s`` of one run; the raw times go to the report.

    ``walls[i]`` is an epoch, followed by the CLI rounds ``rounds[i]`` if
    any, then by the probes ``probes[i]``. Without rounds ``op_s`` is the
    fastest probe; with them, the median round at the quiet speed.
    """
    scaled = at_quiet_speed(walls, probes)
    ops = [t for ts in probes for t in ts]
    report["samples"] = {"epoch_s": walls, "probe_s": probes}
    report["wall"] = {"wall_epoch_s": {"value": statistics.median(walls), "unit": "s",
                                       "samples": len(walls)}}
    if rounds is not None:
        report["samples"]["round_s"] = rounds
        ops = at_quiet_speed([r for rs in rounds for r in rs],
                             [ts for rs, ts in zip(rounds, probes) for _ in rs])
    op_s = (min(ops) if rounds is None else statistics.median(ops)) if ops else 0.0
    return {"epoch_s": statistics.median(scaled) if scaled else 0.0, "op_s": op_s,
            "_counts": {"epoch_s": len(scaled), "op_s": len(ops)}}


def train_call(wl: TrainWorkload, dataset, seed: int, epochs: int,
               run: Run) -> tuple[float, list[float]]:
    """One timed ``gan.train`` call, then sampling of the trained generator.

    Returns the seconds of each; there are no sampling seconds when
    training failed.
    """
    from tsforge import gan
    cfg = gan.TrainConfig(epochs=epochs, seed=seed, **wl.config)
    t0 = time.perf_counter()
    try:
        gen, _, history, _ = gan.train(cfg, dataset)
    except Exception as e:  # a failed epoch is counted, the loop goes on
        run.record(epochs, _describe(e))
        return time.perf_counter() - t0, []
    wall = time.perf_counter() - t0
    sample_s, error = sample(gen, wl.seq_len, seed)
    run.record(epochs, check_history(history, epochs) or error)
    return wall, sample_s


def run_training(wl: TrainWorkload, dataset, seed: int, seconds: float, trace: bool,
                 run: Run, report: dict) -> dict:
    from spans import Tracer
    train_call(wl, dataset, seed, 1, run)     # warm-up epoch, untimed
    if trace:
        tracer, untraced, traced, wall = Tracer(), [], [], 0.0
        for i in range(1, TRACE_REPEATS + 1):
            untraced.append(train_call(wl, dataset, seed + i, 1, run)[0])
            with tracer:
                t0 = time.perf_counter()
                traced.append(train_call(wl, dataset, seed + i, 1, run)[0])
                wall += time.perf_counter() - t0
        return traced_metrics(tracer, wall, untraced, traced, report)
    per_epoch, probes = [], []
    start = time.perf_counter()
    while not per_epoch or time.perf_counter() - start < seconds:
        epoch_s, sample_s = train_call(wl, dataset, seed + 1 + len(per_epoch), 1, run)
        per_epoch.append(epoch_s)
        probes.append(sample_s)
    return end_to_end(per_epoch, probes, report)


# CLI round trip -----------------------------------------------------

TRAIN_ARTIFACTS = ("config.txt", "loss.csv", "loss.svg", "summary.json")
GENERATE_ARTIFACTS = ("returns_scaled.csv", "returns.csv", "prices.csv", "prices.svg")
EVALUATE_ARTIFACTS = ("moments.csv", "acf.csv", "acf.svg", "qq.csv", "qq.svg",
                      "returns.csv", "returns.svg")
COMPARE_ARTIFACTS = ("moments.csv", "histogram.csv", "histogram.svg", "qq.csv", "qq.svg",
                     "acf.csv", "acf.svg")


def _missing(out: Path, names) -> str | None:
    for name in names:
        p = out / name
        if not p.is_file() or p.stat().st_size == 0:
            return f"{p.name} missing or empty in {out.name}"
    return None


def cli_command(argv: list[str], run: Run, check) -> float:
    """One timed in-process ``tsforge`` command; returns its wall seconds."""
    from tsforge import cli
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception as e:  # a failed command is counted, the loop goes on
        run.record(1, _describe(e))
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    run.record(1, f"tsforge {argv[0]} exited {code}" if code != 0 else check())
    return wall


def cli_train(wl: CliWorkload, csv: Path, work: Path, seed: int, run: Run) -> tuple[float, Path]:
    from tsforge import checkpoint
    load_checkpoint = inspect.unwrap(checkpoint.load_checkpoint)
    out = work / f"train-{seed}"
    ckpts = [f"checkpoint_epoch{e:06d}.ckpt"
             for e in range(wl.checkpoint_every, wl.epochs + 1, wl.checkpoint_every)]

    def check():
        missing = _missing(out, TRAIN_ARTIFACTS + tuple(ckpts))
        if missing:
            return missing
        rows = (out / "loss.csv").read_text().count("\n") - 1
        if rows != wl.epochs:
            return f"loss.csv has {rows} rows for {wl.epochs} epochs"
        try:
            load_checkpoint(out / ckpts[-1])
        except checkpoint.CheckpointError as e:
            return _describe(e)
        return None

    argv = ["train", "--data", str(csv), "--out", str(out), "--seed", str(seed),
            "--epochs", str(wl.epochs), "--checkpoint-every", str(wl.checkpoint_every),
            "--seq-len", str(wl.seq_len), *wl.train_args]
    return cli_command(argv, run, check), out / ckpts[-1]


def cli_round(wl: CliWorkload, csv: Path, ckpt: Path, work: Path, seed: int,
              run: Run) -> dict[str, float]:
    gen_out, eval_out, cmp_out = work / "generate", work / "evaluate", work / "compare"

    def check_generate():
        missing = _missing(gen_out, GENERATE_ARTIFACTS)
        if missing:
            return missing
        rows = (gen_out / "returns.csv").read_text().count("\n")
        return None if rows == wl.n else f"returns.csv has {rows} rows for --n {wl.n}"

    return {
        "generate": cli_command(["generate", "--checkpoint", str(ckpt), "--n", str(wl.n),
                                 "--seed", str(seed), "--out", str(gen_out)],
                                run, check_generate),
        "evaluate": cli_command(["evaluate", "--data", str(csv), "--out", str(eval_out)],
                                run, lambda: _missing(eval_out, EVALUATE_ARTIFACTS)),
        "compare": cli_command(["compare", "--real", str(csv), "--checkpoint", str(ckpt),
                                "--n", str(wl.n), "--seed", str(seed), "--out", str(cmp_out)],
                               run, lambda: _missing(cmp_out, COMPARE_ARTIFACTS)),
    }


def run_cli(wl: CliWorkload, csv: Path, work: Path, seed: int, seconds: float, trace: bool,
            run: Run, report: dict) -> dict:
    from spans import Tracer
    if trace:
        tracer, untraced, traced, wall = Tracer(), [], [], 0.0
        for i in range(TRACE_REPEATS):
            untraced.append(cli_train(wl, csv, work, seed + i, run)[0])
            with tracer:
                t0 = time.perf_counter()
                train_s, ckpt = cli_train(wl, csv, work, seed + i, run)
                traced.append(train_s)
                wall += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            for i in range(TRACE_ROUNDS):
                cli_round(wl, csv, ckpt, work, seed + i, run)
            wall += time.perf_counter() - t0
        return traced_metrics(tracer, wall, untraced, traced, report)
    # Each train command is followed by rounds for half as long as it took,
    # so both kinds of operation are sampled across the whole run, then by
    # probes like those of the training workloads. CLI commands also read
    # and write files, so they are poorer probes of the host's speed.
    start = time.perf_counter()
    times: dict[str, list[float]] = {"train": [], "generate": [], "evaluate": [], "compare": []}
    per_epoch, rounds, probes = [], [], []
    while not per_epoch or time.perf_counter() - start < seconds:
        train_s, ckpt = cli_train(wl, csv, work, seed + len(per_epoch), run)
        times["train"].append(train_s)
        per_epoch.append(train_s / wl.epochs)
        rounds.append([])
        while sum(rounds[-1]) < train_s / 2:
            got = cli_round(wl, csv, ckpt, work, seed + len(times["generate"]), run)
            for k, v in got.items():
                times[k].append(v)
            rounds[-1].append(sum(got.values()))
        probes.append(paper_probes())
    metrics = end_to_end(per_epoch, probes, report, rounds)
    report["samples"].update({f"cli_{k}_s": v for k, v in times.items()})
    report["cli"] = {f"cli_{k}_s": {"value": statistics.median(v), "unit": "s", "samples": len(v)}
                     for k, v in times.items()}
    return metrics


# entry point --------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload=None) -> dict:
    """Run one workload in this process; returns the result object.

    ``workload`` overrides the configuration registered under ``name``.
    """
    wl = workload if workload is not None else WORKLOADS[name]
    work = BENCH_DIR / "_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report: dict = {"workload": name, "trace": int(trace), "env": environment(seed)}
    run = Run()
    try:
        csv = write_price_csv(work / "prices.csv", seed)
        setup, setup_probes = measure_setup(csv, wl.seq_len) if not trace else ([], [])
        from tsforge.data import build_dataset, load_csv
        if isinstance(wl, TrainWorkload):
            dataset = build_dataset(load_csv(csv), seq_len=wl.seq_len)
            metrics = run_training(wl, dataset, seed, seconds, trace, run, report)
        else:
            metrics = run_cli(wl, csv, work, seed, seconds, trace, run, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counts = metrics.pop("_counts", {})
    if not trace:
        metrics["setup_s"] = statistics.median(at_quiet_speed(setup, setup_probes))
        counts["setup_s"] = len(setup)
        report["wall"]["wall_setup_s"] = {"value": statistics.median(setup), "unit": "s",
                                          "samples": len(setup)}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts["peak_rss_mb"] = 1
        report["samples"]["setup_s"] = setup
    report["counts"] = counts
    report["errors"] = run.errors
    listed = SPEC["per_layer" if trace else "end_to_end"]
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                        for m in listed},
            "_report": report}


def print_report(result: dict, report: dict) -> None:
    counts = report["counts"]
    print(f"# {report['workload']} trace={report['trace']} env={json.dumps(report['env'])}")
    for k, m in result["metrics"].items():
        n = counts.get(k)
        print(f"{k:40s} {m['value']:14.6g} {m['unit']:6s}" + (f" n={n}" if n else ""))
    for k, m in {**report.get("wall", {}), **report.get("cli", {})}.items():
        print(f"{k:40s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'error_rate':40s} {rate:14.6g} {'ratio':6s} "
          f"({result['failed']}/{result['attempted']} operations)")


def run_all(seconds: float, seed: int) -> int:
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode:
                sys.stderr.write(done.stderr)
            code = code or done.returncode
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tsforge" / "__init__.py").is_file():
        print(f"error: no tsforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seconds, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result.pop("_report")
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps({**report, **result}) + "\n", encoding="utf-8")
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
