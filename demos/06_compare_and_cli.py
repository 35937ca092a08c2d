"""The comparison bundle and the command line, end to end.

compare_distributions() packs every instrument into one report; the
same artifacts are available from the shell through the `tsforge` CLI.
This demo drives both on a synthetic price file.

Run:  python demos/06_compare_and_cli.py
"""

import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from tsforge.cli import main
from tsforge.data import load_csv, log_returns
from tsforge.stats import compare_distributions

workdir = Path(tempfile.mkdtemp())

# a synthetic "real" price CSV
rng = np.random.Generator(np.random.Philox(5))
r = rng.standard_t(df=4, size=400) * 0.02
closes = 120.0 * np.exp(np.cumsum(r))
rows = ["Date,Open,High,Low,Close,Adj Close,Volume"]
for i, c in enumerate(closes):
    d = (date(2019, 1, 1) + timedelta(days=i)).isoformat()
    rows.append(f"{d},{c:.4f},{c:.4f},{c:.4f},{c:.4f},{c:.4f},1")
csv_path = workdir / "prices.csv"
csv_path.write_text("\n".join(rows) + "\n")

# library-level comparison: real returns vs an i.i.d. Gaussian imitation
real = log_returns(load_csv(csv_path))
synthetic = rng.standard_normal((32, 50)) * real.std()
report = compare_distributions(real, synthetic, max_lag=30)
print("real      skew %+.3f  kurt %.2f" % (report.moments_real.skewness,
                                           report.moments_real.kurtosis))
print("synthetic skew %+.3f  kurt %.2f" % (report.moments_synthetic.skewness,
                                           report.moments_synthetic.kurtosis))
print("QQ synthetic-vs-real reference slope: %.3f" % report.qq_synthetic_vs_real.slope)
print("mean |ACF| lags 1..10, real: %.4f  synthetic: %.4f"
      % (np.abs(report.acf_real.values[1:11]).mean(),
         np.abs(report.acf_synthetic.values[1:11]).mean()))

# the same through the CLI: train briefly, then evaluate / generate / compare
print("\n== tsforge CLI round trip ==")
run_dir = workdir / "run"
rc = main(["train", "--data", str(csv_path), "--out", str(run_dir),
           "--epochs", "4", "--seq-len", "10", "--units", "4", "--noise-len", "3",
           "--batch-size", "8", "--checkpoint-every", "2", "--seed", "0",
           "--grid-samples", "4", "--lipschitz-pairs", "10"])
print(f"tsforge train     -> exit {rc}; wrote {sorted(p.name for p in run_dir.iterdir())[:4]} ...")

rc = main(["evaluate", "--data", str(csv_path), "--out", str(workdir / "eval")])
print(f"tsforge evaluate  -> exit {rc}")

ckpt = run_dir / "checkpoint_epoch000004.ckpt"
rc = main(["generate", "--checkpoint", str(ckpt), "--n", "8", "--seed", "1",
           "--out", str(workdir / "gen")])
print(f"tsforge generate  -> exit {rc}")

rc = main(["compare", "--real", str(csv_path),
           "--synthetic", str(workdir / "gen" / "returns.csv"),
           "--out", str(workdir / "cmp")])
print(f"tsforge compare   -> exit {rc}")
print(f"\nartifacts under {workdir}")
