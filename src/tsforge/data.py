"""Price CSV ingestion, log returns, windowing, scaling and batching.

Pipeline order: load -> returns -> windows -> scale -> batch. Training
runs on scaled log-return windows; the inverse transforms recover raw
returns and, via exponentiated cumulative sums, price paths.

There is one scaler, a min-max map of all window values onto [-1, 1]:
the generator ends in tanh and cannot produce anything outside (-1, 1),
so data scaled any other way (a z-score, say) would leave part of the
real distribution out of its reach.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

logger = logging.getLogger(__name__)

class DataError(ValueError):
    """Raised for unreadable, malformed or degenerate input data."""


@dataclass
class PriceSeries:
    """Daily close prices in strictly increasing date order."""

    dates: list[date]
    closes: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=np.float64)
        if len(self.dates) != len(self.closes):
            raise DataError("dates and closes must have equal length")
        if len(self.closes) < 2:
            raise DataError("a price series needs at least 2 points")
        if np.any(self.closes <= 0):
            raise DataError("close prices must be positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise DataError(f"dates must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return len(self.closes)


@dataclass
class Scaler:
    """Invertible affine map of [lo, hi] onto [-1, 1], fitted on all
    window values at once."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DataError(f"scaler needs finite lo < hi, got lo={self.lo!r}, hi={self.hi!r}")

    def transform(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (x - self.lo) / (self.hi - self.lo) - 1.0

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) + 1.0) / 2.0 * (self.hi - self.lo) + self.lo

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        """Read ``to_dict`` output, or the {"kind": "minmax_symmetric", ...}
        record of earlier checkpoints."""
        if "kind" in d and d["kind"] != "minmax_symmetric":
            raise DataError(f"unsupported scaler kind {d['kind']!r}")
        return cls(lo=d["lo"], hi=d["hi"])


@dataclass
class WindowedDataset:
    """Scaled windows of shape [num_windows, seq_len, 1] plus the scaler
    needed to invert them."""

    windows: np.ndarray
    scaler: Scaler

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        if self.windows.ndim != 3 or self.windows.shape[2] != 1:
            raise DataError(f"windows must be [n, seq_len, 1], got {self.windows.shape}")

    @property
    def seq_len(self) -> int:
        return self.windows.shape[1]

    def __len__(self) -> int:
        return self.windows.shape[0]


def _parse_date(text: str) -> date:
    """``datetime.strptime(text, "%Y-%m-%d").date()``, with canonical dates read by the C
    parser; the shape guard keeps fromisoformat's other forms (``20140917``) out."""
    if len(text) == 10 and text[4] == text[7] == "-":
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    return datetime.strptime(text, "%Y-%m-%d").date()


def load_csv(path) -> PriceSeries:
    """Read Date and Close from a Yahoo-style daily price CSV.

    A date is a year, month and day as ``datetime.strptime`` reads
    ``%Y-%m-%d`` after stripping whitespace: ``2014-09-17``, and also
    forms such as ``2014-9-7``. Any other date raises a ``DataError``
    naming ``path:line``, and so does a negative Close. Rows whose Close is
    missing, non-numeric, non-finite or zero are dropped; the drop count is
    logged and kept on the returned series.
    The file is UTF-8 text, optionally after a byte order mark (as Excel's
    "CSV UTF-8" writes it); an undecodable byte raises a ``DataError``
    naming the path and the byte's offset in the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if "Date" not in header or "Close" not in header:
                raise DataError(f"{path}: header must contain Date and Close columns")
            i_date = header.index("Date")
            i_close = header.index("Close")
            rows: list[tuple[date, float]] = []
            dropped = 0
            for lineno, row in enumerate(reader, start=2):
                if not any(map(str.strip, row)):
                    continue
                text = row[i_date] if len(row) > i_date else ""
                try:
                    d = _parse_date(text.strip())
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad date {text!r}") from None
                raw = row[i_close].strip() if len(row) > i_close else ""
                try:
                    close = float(raw)
                except ValueError:
                    dropped += 1
                    continue
                if not math.isfinite(close) or close == 0.0:
                    dropped += 1
                    continue
                if close < 0.0:
                    raise DataError(f"{path}:{lineno}: negative close price {raw!r}")
                rows.append((d, close))
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        with open(path, "rb") as fh:     # e.start counts from the chunk being decoded
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                e = whole
        raise DataError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from None
    if dropped:
        logger.warning("%s: dropped %d rows with missing/zero/non-numeric Close", path, dropped)
    if len(rows) < 2:
        raise DataError(f"{path}: fewer than 2 valid rows")
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DataError(f"{path}: duplicate date {d1}")
    dates = [r[0] for r in rows]
    closes = np.array([r[1] for r in rows])
    return PriceSeries(dates=dates, closes=closes, dropped=dropped)


def log_returns(p: PriceSeries) -> np.ndarray:
    """r_t = ln(close_t / close_{t-1}); one shorter than the price series."""
    closes = p.closes
    if np.any(closes <= 0):
        raise DataError("log returns need positive prices")
    returns = np.diff(np.log(closes))
    if not np.all(np.isfinite(returns)):
        raise DataError("log returns must be finite")
    return returns


def make_windows(r: np.ndarray, seq_len: int = 50, stride: int = 1) -> np.ndarray:
    """Overlapping fixed-length windows [count, seq_len] of the return
    series; count = floor((len - seq_len)/stride) + 1."""
    if seq_len < 1 or stride < 1:
        raise DataError("seq_len and stride must be positive")
    values = np.asarray(r, dtype=np.float64)
    n = len(values)
    if n < seq_len:
        raise DataError(f"series of length {n} is shorter than seq_len {seq_len}")
    return np.lib.stride_tricks.sliding_window_view(values, seq_len)[::stride].copy()


def fit_scale(windows: np.ndarray) -> WindowedDataset:
    """Fit the scaler over all window values and apply it.

    [min, max] maps linearly onto [-1, 1]. Global (not per-window) so the
    cross-window volatility structure survives.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.size == 0:
        raise DataError("cannot scale an empty window set")
    if windows.ndim != 2:
        raise DataError(f"expected [n, seq_len] windows, got shape {windows.shape}")
    lo, hi = float(windows.min()), float(windows.max())
    if hi == lo:
        raise DataError("constant window values cannot be min-max scaled")
    scaler = Scaler(lo=lo, hi=hi)
    return WindowedDataset(windows=scaler.transform(windows)[:, :, None], scaler=scaler)


def sample_real_batch(ds: WindowedDataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw windows uniformly with replacement; [batch, seq_len, 1]."""
    if len(ds) == 0:
        raise DataError("cannot sample from an empty dataset")
    idx = rng.integers(0, len(ds), size=batch_size)
    return ds.windows[idx]


def returns_to_prices(r: np.ndarray, p0: float) -> np.ndarray:
    """Integrate log returns into a price path starting at p0.

    p_t = p0 * exp(sum of the first t returns); length len(r) + 1.
    """
    if not (math.isfinite(p0) and p0 > 0):
        raise DataError(f"starting price must be finite and positive, got {p0!r}")
    values = np.asarray(r, dtype=np.float64)
    path = np.empty(len(values) + 1)
    path[0] = p0
    path[1:] = p0 * np.exp(np.cumsum(values))
    return path


def build_dataset(prices: PriceSeries, seq_len: int = 50, stride: int = 1) -> WindowedDataset:
    """The full pipeline: returns -> windows -> scale."""
    return fit_scale(make_windows(log_returns(prices), seq_len=seq_len, stride=stride))
