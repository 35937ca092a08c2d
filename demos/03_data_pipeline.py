"""The data pipeline: prices -> log returns -> windows -> scaled batches.

Works on any Yahoo-style daily CSV. Here we synthesize a small price
file so the demo is self-contained, then walk every stage and invert it
back to prices at the end.

Run:  python demos/03_data_pipeline.py
"""

import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from tsforge.data import (build_dataset, fit_scale, load_csv, log_returns, make_windows,
                          returns_to_prices, sample_real_batch)

# synthesize a price CSV (a null row included, as real exports have)
rng = np.random.Generator(np.random.Philox(7))
r = rng.standard_normal(300) * 0.03
closes = 450.0 * np.exp(np.cumsum(r))
rows = ["Date,Open,High,Low,Close,Adj Close,Volume"]
d0 = date(2019, 1, 1)
for i, c in enumerate(closes):
    d = (d0 + timedelta(days=i)).isoformat()
    if i == 100:
        rows.append(f"{d},null,null,null,null,null,null")
    else:
        rows.append(f"{d},{c:.4f},{c:.4f},{c:.4f},{c:.4f},{c:.4f},1000")
csv_path = Path(tempfile.mkdtemp()) / "demo_prices.csv"
csv_path.write_text("\n".join(rows) + "\n")

series = load_csv(csv_path)
print(f"loaded {len(series)} prices ({series.dropped} null row dropped)")

returns = log_returns(series)
print(f"log returns: {len(returns)} values, "
      f"std {returns.std():.4f}, mean {returns.mean():.5f}")

windows = make_windows(returns, seq_len=50, stride=1)
print(f"windows: {windows.shape}  (count = len - seq_len + 1 = {len(returns)} - 50 + 1)")

ds = fit_scale(windows)
print(f"scaled windows: {ds.windows.shape}, range "
      f"[{ds.windows.min():.3f}, {ds.windows.max():.3f}]  (tanh-compatible)")

batch = sample_real_batch(ds, 32, np.random.Generator(np.random.Philox(0)))
print(f"a training batch: {batch.shape}")

# and back again
recovered = ds.scaler.inverse(ds.windows[0, :, 0])
print(f"\nscaling inverts exactly: max |error| = "
      f"{np.abs(recovered - windows[0]).max():.2e}")

path = returns_to_prices(returns[:10], p0=float(series.closes[0]))
print(f"first 3 integrated prices {np.round(path[:3], 4)} "
      f"vs original {np.round(series.closes[:3], 4)}")

ds2 = build_dataset(series, seq_len=50)
print(f"\nbuild_dataset composes the stages: {len(series)} prices -> "
      f"{len(series) - 1} returns -> {ds2.windows.shape}")
