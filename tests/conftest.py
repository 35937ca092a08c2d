"""Shared fixtures, including the deterministic Bitcoin stand-in CSV.

The sandbox has no market-data access, so the daily-price fixture is a
seeded GARCH(1,1) series with negative-jump innovations, shaped exactly
like the Yahoo Finance export it stands in for: header row, calendar
dates 2014-09-17 through 2021-05-02 (2420 rows) with 4 null-Close rows,
leaving 2416 valid prices. The generating parameters were chosen so the
series exhibits the stylized facts the real asset shows: negative
skewness, kurtosis well above 3, near-zero linear autocorrelation and
positive slowly-decaying absolute-return autocorrelation.
"""

from __future__ import annotations

import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

FIXTURE_SEED = 15
START_DATE = date(2014, 9, 17)
END_DATE = date(2021, 5, 2)
NULL_ROWS = 4  # dates spread through the file whose Close is "null"


def garch_returns(n: int, seed: int = FIXTURE_SEED) -> np.ndarray:
    """GARCH(1,1) log returns with rare negative jumps."""
    omega, alpha, beta, mu = 2.2e-5, 0.07, 0.88, 0.0018
    rng = np.random.Generator(np.random.Philox(seed))
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


def build_price_csv(path: Path) -> Path:
    days = (END_DATE - START_DATE).days + 1          # 2420 calendar rows
    returns = garch_returns(days - 1)
    closes = 457.33 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    null_idx = {250, 799, 1450, 2050}
    assert len(null_idx) == NULL_ROWS
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for i in range(days):
        d = START_DATE + timedelta(days=i)
        if i in null_idx:
            lines.append(f"{d.isoformat()},null,null,null,null,null,null")
            continue
        c = closes[i]
        lines.append(f"{d.isoformat()},{c * 0.995:.6f},{c * 1.01:.6f},"
                     f"{c * 0.99:.6f},{c:.6f},{c:.6f},{1000000 + i}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def btc_csv(tmp_path_factory) -> Path:
    return build_price_csv(tmp_path_factory.mktemp("data") / "btc.csv")


@pytest.fixture(scope="session")
def btc_prices(btc_csv):
    from tsforge.data import load_csv
    return load_csv(btc_csv)


@pytest.fixture(scope="session")
def btc_dataset(btc_prices):
    from tsforge.data import build_dataset
    return build_dataset(btc_prices, seq_len=50)
