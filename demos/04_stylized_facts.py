"""Stylized facts of asset returns, measured on contrasting samples.

Three synthetic series make the instruments' readings easy to predict:
i.i.d. Gaussian returns (no stylized facts), Student-t returns (fat
tails only), and GARCH-style returns (fat tails plus volatility
clustering). Real crypto/equity returns look like the third. The ACF
of absolute returns is ``acf`` of ``np.abs(x)``, and the QQ plot's normal
quantiles come from the standard library's ``statistics.NormalDist``.

Run:  python demos/04_stylized_facts.py
"""

import numpy as np

from tsforge.stats import acf, histogram, moments, qq_points

rng = np.random.Generator(np.random.Philox(42))
n = 4000

gauss = rng.standard_normal(n) * 0.02

t3 = rng.standard_t(df=3, size=n) * 0.02 / np.sqrt(3.0)

# two-parameter GARCH(1,1)
omega, alpha, beta = 2e-6, 0.12, 0.85
garch = np.empty(n)
sig2 = omega / (1 - alpha - beta)
z = rng.standard_normal(n)
for t in range(n):
    garch[t] = np.sqrt(sig2) * z[t]
    sig2 = omega + alpha * garch[t] ** 2 + beta * sig2

print(f"{'series':<10} {'std':>8} {'skew':>8} {'kurtosis':>9}  verdict")
for name, x in (("gaussian", gauss), ("student-t", t3), ("garch", garch)):
    m = moments(x)
    tails = "fat tails" if m.kurtosis > 3.5 else "thin tails"
    print(f"{name:<10} {m.std:8.4f} {m.skewness:8.3f} {m.kurtosis:9.3f}  {tails}")

print("\n== volatility clustering: ACF of absolute returns, lags 1..10 ==")
for name, x in (("gaussian", gauss), ("garch", garch)):
    plain = acf(x, 10)
    absolute = acf(np.abs(x), 10).values[1:]
    print(f"{name:<10} plain mean {plain.values[1:].mean():+.4f}   absolute mean "
          f"{absolute.mean():+.4f}   band +-{plain.band:.4f}")
print("(clustered volatility shows up only in the absolute series)")

print("\n== QQ against the normal: tail spread in quantile units ==")
for name, x in (("gaussian", gauss), ("student-t", t3)):
    rep = qq_points(x, "normal")
    line = rep.slope * rep.theoretical + rep.intercept
    spread = rep.sample[-5:].mean() - line[-5:].mean()
    print(f"{name:<10} right-tail excess over the line: {spread:+.3f}")

print("\n== shared-bin histogram densities (integrate to 1) ==")
rep = histogram({"gaussian": gauss, "garch": garch}, bins=30)
widths = np.diff(rep.edges)
for name, dens in rep.densities.items():
    print(f"{name:<10} integral {np.sum(dens * widths):.6f}  "
          f"peak density {dens.max():.2f}")
