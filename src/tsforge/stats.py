"""Descriptive statistics for comparing return distributions.

Covers the usual instruments for stylized facts of asset returns:
moment tables (with Pearson kurtosis, normal = 3), autocorrelation of a
series or of window rows (pass ``np.abs(x)`` for the absolute returns,
where volatility clustering shows up), quantile-quantile points against
a normal or an empirical reference, and density-normalized histograms.
numpy and the standard library are all it needs: the normal quantiles
come from ``statistics.NormalDist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


class StatsError(ValueError):
    """Raised for degenerate inputs (too short, constant, empty)."""


@dataclass
class MomentsReport:
    n: int
    mean: float
    std: float            # sample std, denominator n-1
    min: float
    max: float
    q25: float
    q50: float
    q75: float
    skewness: float
    kurtosis: float       # Pearson: normal = 3

    def rows(self) -> list[tuple[str, float]]:
        return [("count", float(self.n)), ("mean", self.mean), ("std", self.std),
                ("min", self.min), ("25%", self.q25), ("50%", self.q50),
                ("75%", self.q75), ("max", self.max),
                ("skewness", self.skewness), ("kurtosis", self.kurtosis)]


@dataclass
class AcfReport:
    lags: np.ndarray
    values: np.ndarray
    band: float           # +-1.96/sqrt(n) confidence half-width


@dataclass
class QqReport:
    theoretical: np.ndarray
    sample: np.ndarray
    slope: float
    intercept: float


@dataclass
class HistogramReport:
    edges: np.ndarray
    densities: dict[str, np.ndarray]


@dataclass
class EvalReport:
    """The full real-versus-synthetic comparison bundle."""

    moments_real: MomentsReport
    moments_synthetic: MomentsReport
    histogram: HistogramReport
    qq_synthetic_vs_normal: QqReport
    qq_real_vs_normal: QqReport
    qq_synthetic_vs_real: QqReport
    acf_real: AcfReport
    acf_synthetic: AcfReport
    acf_abs_real: AcfReport
    acf_abs_synthetic: AcfReport


def moments(x) -> MomentsReport:
    """Moment table of a sample.

    Skewness and kurtosis use population central moments (divide by n);
    std is the usual sample estimate. A constant sample has std 0 and no
    defined shape: its skewness and kurtosis are NaN, as scipy's are.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if n < 4:
        raise StatsError(f"moments need at least 4 observations, got {n}")
    mean, lo, hi = float(x.mean()), float(x.min()), float(x.max())
    # equal values, not m2 == 0: the mean of n copies of v can miss v by an ulp
    std, skewness, kurtosis = 0.0, math.nan, math.nan
    if lo != hi:
        centered = x - mean
        sq = centered * centered      # products, not ``**``: a cube through libm pow is 100x slower
        m2 = float(np.mean(sq))
        std = float(x.std(ddof=1))
        skewness = float(np.mean(sq * centered)) / m2 ** 1.5
        kurtosis = float(np.mean(sq * sq)) / m2 ** 2
    q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    return MomentsReport(n=n, mean=mean, std=std, min=lo, max=hi,
                         q25=float(q25), q50=float(q50), q75=float(q75),
                         skewness=skewness, kurtosis=kurtosis)


def acf(x, max_lag: int) -> AcfReport:
    """Autocorrelation at lags 0..max_lag of a 1-D series, or pooled over
    the rows of 2-D windows, with the band 1.96/sqrt(number of returns).

    Biased estimator with one mean xbar over every row, the lagged
    products summed within rows and over them:
    acf[k] = sum_rows sum_t (x_t - xbar)(x_{t+k} - xbar) / sum_rows sum_t (x_t - xbar)^2.
    A series is one row. Pooling keeps a short row's own mean from biasing
    every lag by about -1/L, so windows of a series and the series itself
    estimate the same ACF. Rows are made contiguous first: sums along a
    strided axis (``gan.generate``'s windows) round differently.
    """
    rows = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
    if rows.ndim != 2:
        raise StatsError(f"acf takes a series or 2-D window rows, got {rows.ndim} dimensions")
    n = rows.shape[1]
    if not 0 <= max_lag < n:
        raise StatsError(f"max_lag {max_lag} must be < series length {n}")
    if n < 2:
        raise StatsError(f"acf needs windows of at least 2 returns, got {n}")
    centered = rows - rows.mean()
    denom = np.sum(centered ** 2)
    # equal values as well as denom == 0 (an underflow): the mean of n copies of v can miss v
    if rows.min() == rows.max() or denom == 0.0:
        raise StatsError("acf undefined for a constant series")
    values = np.array([np.sum(centered[:, : n - k] * centered[:, k:]) for k in range(max_lag + 1)])
    return AcfReport(lags=np.arange(max_lag + 1), values=values / denom,
                     band=1.96 / np.sqrt(rows.size))


def _plotting_positions(n: int) -> np.ndarray:
    return (np.arange(1, n + 1) - 0.5) / n


def _sorted_quantiles(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(a, q)`` of a sorted 1-D array, bit for bit, without
    its partition: numpy's linear method and its lerp, which interpolates
    from the upper neighbour where the weight is at least 0.5."""
    if np.isnan(a[-1]):
        return np.full(q.shape, np.nan)
    virtual = (a.size - 1) * q
    i = np.floor(virtual).astype(np.intp)
    j = i + 1
    top = virtual >= a.size - 1
    i[top] = j[top] = -1
    t = virtual - i
    lo, hi = a[i], a[j]
    d = hi - lo
    return np.where(t >= 0.5, hi - d * (1 - t), lo + d * t)


def qq_points(sample, reference="normal") -> QqReport:
    """Quantile pairs of a sample against a reference distribution.

    With the normal reference, the standardized sample's order
    statistics are set against inverse-normal plotting positions
    (i-0.5)/n, from ``statistics.NormalDist().inv_cdf`` (Wichura's AS241:
    within a few ulp, and strictly increasing as the quartile line below
    needs; tested for every n to 2,999 and at 47,920). With an empirical reference (any array), both datasets
    are interpolated at shared positions, so sample sizes may differ.
    The reference line passes through the quartile pair.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64).reshape(-1))
    n = x.size
    if n < 10:
        raise StatsError(f"qq needs at least 10 observations, got {n}")
    if isinstance(reference, str):
        if reference != "normal":
            raise StatsError(f"unknown reference {reference!r}")
        std = x.std(ddof=1)
        if x[0] == x[-1] or std == 0.0:     # equal ends of the sorted x, or an underflow
            raise StatsError("degenerate sample: zero variance")
        sample_q = (x - x.mean()) / std
        theo_q = np.fromiter(map(NormalDist().inv_cdf, _plotting_positions(n).tolist()),
                             np.float64, n)
    else:
        ref = np.asarray(reference, dtype=np.float64).reshape(-1)
        if ref.size < 10:
            raise StatsError("empirical reference needs at least 10 observations")
        m = min(n, ref.size)
        pos = _plotting_positions(m)
        sample_q = _sorted_quantiles(x, pos)
        theo_q = _sorted_quantiles(np.sort(ref), pos)
    quartiles = np.array([0.25, 0.75])
    tx = _sorted_quantiles(theo_q, quartiles)   # both sides are sorted
    ty = _sorted_quantiles(sample_q, quartiles)
    with np.errstate(all="ignore"):     # an equal or subnormal quartile gap: no line
        slope = (ty[1] - ty[0]) / (tx[1] - tx[0])
        intercept = ty[0] - slope * tx[0]
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise StatsError("degenerate reference quantiles")
    return QqReport(theoretical=theo_q, sample=sample_q, slope=float(slope),
                    intercept=float(intercept))


def histogram(datasets: dict[str, np.ndarray], bins: int = 50) -> HistogramReport:
    """Density-normalized histograms over shared, equal-width bin edges."""
    arrays = {k: np.asarray(v, dtype=np.float64).reshape(-1) for k, v in datasets.items()}
    for k, v in arrays.items():
        if v.size == 0:
            raise StatsError(f"dataset {k!r} is empty")
    combined = np.concatenate(list(arrays.values()))
    lo, hi = float(combined.min()), float(combined.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, int(bins) + 1)
    return HistogramReport(edges=edges, densities={
        k: np.histogram(v, bins=edges, density=True)[0] for k, v in arrays.items()})


def compare_distributions(real_returns, synthetic_returns, max_lag: int = 50,
                          bins: int = 50) -> EvalReport:
    """Bundle every comparison instrument for one real/synthetic pair.

    Accepts 1-D return series or 2-D window batches; moments, histogram
    and QQ flatten, and the ACFs pool the rows. A real series is cut into
    non-overlapping rows of the synthetic row length (its last partial row
    dropped), so both sides' ACFs come from one estimator on rows of one
    length. All four ACFs run to one lag: ``max_lag``, or the shorter row
    length less one.
    """
    real = np.asarray(real_returns, dtype=np.float64)
    synth = np.asarray(synthetic_returns, dtype=np.float64)
    if real.size == 0 or synth.size == 0:
        raise StatsError("both datasets must be non-empty")
    real_flat = real.reshape(-1)
    synth_flat = synth.reshape(-1)
    real_rows, synth_rows = np.atleast_2d(real), np.atleast_2d(synth)   # a series is one row
    length = synth_rows.shape[1]
    if real.ndim == 1 and length <= real.size:
        real_rows = real[: real.size // length * length].reshape(-1, length)
    lag = min(max_lag, real_rows.shape[1] - 1, synth_rows.shape[1] - 1)
    return EvalReport(
        moments_real=moments(real_flat),
        moments_synthetic=moments(synth_flat),
        histogram=histogram({"real": real_flat, "synthetic": synth_flat}, bins=bins),
        qq_synthetic_vs_normal=qq_points(synth_flat, "normal"),
        qq_real_vs_normal=qq_points(real_flat, "normal"),
        qq_synthetic_vs_real=qq_points(synth_flat, real_flat),
        acf_real=acf(real_rows, lag),
        acf_synthetic=acf(synth_rows, lag),
        acf_abs_real=acf(np.abs(real_rows), lag),
        acf_abs_synthetic=acf(np.abs(synth_rows), lag),
    )
