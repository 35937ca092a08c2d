"""Descriptive statistics for comparing return distributions.

Covers the usual instruments for stylized facts of asset returns:
moment tables (with Pearson kurtosis, normal = 3), autocorrelation of
plain and absolute returns (volatility clustering shows up in the
latter), quantile-quantile points against a normal or an empirical
reference, and density-normalized histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    std is the usual sample estimate. A constant series has no defined
    shape statistics and is rejected.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if n < 4:
        raise StatsError(f"moments need at least 4 observations, got {n}")
    mean = float(x.mean())
    centered = x - mean
    m2 = float(np.mean(centered ** 2))
    if m2 == 0.0:
        raise StatsError("skewness/kurtosis undefined for a constant series")
    m3 = float(np.mean(centered ** 3))
    m4 = float(np.mean(centered ** 4))
    q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    return MomentsReport(
        n=n, mean=mean, std=float(x.std(ddof=1)),
        min=float(x.min()), max=float(x.max()),
        q25=float(q25), q50=float(q50), q75=float(q75),
        skewness=m3 / m2 ** 1.5, kurtosis=m4 / m2 ** 2,
    )


def acf(x, max_lag: int) -> AcfReport:
    """Autocorrelation at lags 0..max_lag.

    Biased estimator with whole-series mean:
    acf[k] = sum_t (x_t - xbar)(x_{t+k} - xbar) / sum_t (x_t - xbar)^2.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if not 0 <= max_lag < n:
        raise StatsError(f"max_lag {max_lag} must be < series length {n}")
    centered = x - x.mean()
    denom = float(np.sum(centered ** 2))
    if denom == 0.0:
        raise StatsError("acf undefined for a constant series")
    values = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        values[k] = np.sum(centered[: n - k] * centered[k:]) / denom
    return AcfReport(lags=np.arange(max_lag + 1), values=values,
                     band=1.96 / np.sqrt(n))


def acf_absolute(x, max_lag: int) -> AcfReport:
    """acf of |x|; positive slow decay here is the volatility-clustering signature."""
    return acf(np.abs(np.asarray(x, dtype=np.float64)), max_lag)


def _plotting_positions(n: int) -> np.ndarray:
    return (np.arange(1, n + 1) - 0.5) / n


def qq_points(sample, reference="normal") -> QqReport:
    """Quantile pairs of a sample against a reference distribution.

    With the normal reference, the standardized sample's order
    statistics are set against inverse-normal plotting positions
    (i-0.5)/n. With an empirical reference (any array), both datasets
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
        if std == 0.0:
            raise StatsError("degenerate sample: zero variance")
        sample_q = (x - x.mean()) / std
        from scipy.special import ndtri   # here: importing scipy is most of `import tsforge`
        theo_q = ndtri(_plotting_positions(n))
    else:
        ref = np.asarray(reference, dtype=np.float64).reshape(-1)
        if ref.size < 10:
            raise StatsError("empirical reference needs at least 10 observations")
        m = min(n, ref.size)
        pos = _plotting_positions(m)
        sample_q = np.quantile(x, pos)
        theo_q = np.quantile(ref, pos)
    tx = np.quantile(theo_q, [0.25, 0.75])
    ty = np.quantile(sample_q, [0.25, 0.75])
    if tx[1] == tx[0]:
        raise StatsError("degenerate reference quantiles")
    slope = (ty[1] - ty[0]) / (tx[1] - tx[0])
    intercept = ty[0] - slope * tx[0]
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
    densities = {}
    for k, v in arrays.items():
        counts, _ = np.histogram(v, bins=edges, density=True)
        densities[k] = counts
    return HistogramReport(edges=edges, densities=densities)


def _acf_any(x: np.ndarray, max_lag: int, absolute: bool) -> AcfReport:
    """The ACF averaged over the rows of 2-D windows; a 1-D series is a
    batch of one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3 and x.shape[2] == 1:
        x = x[:, :, 0]
    rows = np.atleast_2d(np.abs(x) if absolute else x)
    lag = min(max_lag, rows.shape[1] - 1)
    values = np.mean([acf(row, lag).values for row in rows], axis=0)
    return AcfReport(lags=np.arange(lag + 1), values=values, band=1.96 / np.sqrt(rows.shape[1]))


def compare_distributions(real_returns, synthetic_returns, max_lag: int = 50,
                          bins: int = 50) -> EvalReport:
    """Bundle every comparison instrument for one real/synthetic pair.

    Accepts 1-D return series or 2-D window batches; batched input gets
    batch-averaged ACFs while moments, histogram and QQ flatten.
    """
    real = np.asarray(real_returns, dtype=np.float64)
    synth = np.asarray(synthetic_returns, dtype=np.float64)
    if real.size == 0 or synth.size == 0:
        raise StatsError("both datasets must be non-empty")
    real_flat = real.reshape(-1)
    synth_flat = synth.reshape(-1)
    return EvalReport(
        moments_real=moments(real_flat),
        moments_synthetic=moments(synth_flat),
        histogram=histogram({"real": real_flat, "synthetic": synth_flat}, bins=bins),
        qq_synthetic_vs_normal=qq_points(synth_flat, "normal"),
        qq_real_vs_normal=qq_points(real_flat, "normal"),
        qq_synthetic_vs_real=qq_points(synth_flat, real_flat),
        acf_real=_acf_any(real, max_lag, absolute=False),
        acf_synthetic=_acf_any(synth, max_lag, absolute=False),
        acf_abs_real=_acf_any(real, max_lag, absolute=True),
        acf_abs_synthetic=_acf_any(synth, max_lag, absolute=True),
    )
