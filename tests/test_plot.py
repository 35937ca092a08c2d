"""SVG rendering: byte-for-byte goldens of every series kind and chart option.

The inputs come from basic float arithmetic only (no libm calls), so the
goldens hold on any IEEE-754 host. Any change to how points are placed or
formatted must leave these bytes as they are.
"""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tsforge.plot import Chart, render_chart, render_panels


def _line() -> Chart:
    k = np.arange(60)
    chart = Chart("Line <paths> & more", "step", "value")
    chart.add("first", k, (k * 0.37) % 1.3 - 0.6)
    chart.add("", range(60), [(i * 7 % 13) / 10.0 for i in range(60)], color="#123456")
    return chart


def _scatter() -> Chart:
    x = np.arange(-40, 41) / 16.0
    chart = Chart("QQ", "reference quantile", "sample quantile", ref_line=(1.5, 0.25))
    chart.add("sample", x, x * 1.5 + (np.arange(81) * 7 % 11) / 22.0, kind="scatter",
              color="rgb(50%, 0%, 25%)")
    return chart


def _stem() -> Chart:
    lags = np.arange(1, 31)
    chart = Chart("ACF", "lag", "acf", h_lines=[0.2, -0.2])
    chart.add("", lags, ((lags * 13) % 17 - 8) / 40.0, kind="stem")
    return chart


def _bars() -> Chart:
    centers = np.arange(-12, 13) / 200.0
    chart = Chart("Densities", "log return", "density",
                  annotations=["real skew -0.412 kurt 7.31", "synthetic skew 0.020 kurt 3.05"])
    chart.add("real", centers, 30.0 - np.abs(np.arange(-12, 13)) * 2.5, kind="bar",
              color="#1f77b4")
    chart.add("synthetic", centers, (np.arange(25) * 11 % 29) * 1.25, kind="bar",
              color="#d62728")
    return chart


def _one_bar() -> Chart:
    return Chart("One bar").add("only", [0.5], [2.0], kind="bar", color="hsl(0, 100%, 50%)")


def _non_finite() -> Chart:
    k = np.arange(40, dtype=np.float64)
    ys = k * 0.125 - 2.0
    ys[[3, 17]] = np.nan
    ys[25] = np.inf
    xs = k.copy()
    xs[30] = -np.inf
    chart = Chart("Non-finite points", h_lines=[np.nan, 1.0])
    chart.add("line", xs, ys)
    chart.add("scatter", xs, -ys, kind="scatter")
    chart.add("stem", xs, ys / 4.0, kind="stem", color="rgb(10%, 40%, 70%)")
    return chart


def _empty() -> Chart:
    return Chart("Nothing to draw", h_lines=[0.5])


def _constant() -> Chart:
    return Chart("Constant").add("flat", [3.0, 3.0, 3.0], [7.5, 7.5, 7.5])


CHARTS = {"line": _line, "scatter": _scatter, "stem": _stem, "bars": _bars, "one_bar": _one_bar,
          "non_finite": _non_finite, "empty": _empty, "constant": _constant}


def rendered() -> dict[str, str]:
    """Every golden SVG by name."""
    svgs = {name: render_chart(make()) for name, make in CHARTS.items()}
    svgs["small"] = render_chart(_scatter(), 440, 320)
    svgs["panels"] = render_panels([_stem(), _scatter(), _bars()])
    svgs["panels_3col"] = render_panels([make() for make in CHARTS.values()], columns=3,
                                        panel_w=300, panel_h=240)
    return svgs


GOLDEN_SHA256 = {
    "bars": "1112472cb2beef3cf445194cb603760ddb0ef0a2e08ee9a7170e67dcad5ad56b",
    "constant": "45d3b7076509a7a67a628c5808b0e18c2de1f6d6c1849972676b4dc61f15726b",
    "empty": "9e972ac495a6d9dcd5a9d251bbfdaaaa5c413195cb1f34197ee334c302de303d",
    "line": "6cedeed0cb72084077c7a06d84bfcf861b3d94b447cd36a623437fe71d60eb7d",
    "non_finite": "d576e02a28bf3a825c918cb17181eb692e22169170fec7ce9018daadd65d7c3c",
    "one_bar": "42945621e20766e3f449fe55204b193d3f140a474d4d6753163024e5071e4c73",
    "panels": "75a590bdc6767843fa3113af2509164246d41e46d84b7fcc5d8b1b53099cfda9",
    "panels_3col": "78d1f74b10a9fefb444a6644dfb3515b7107b0017a721fa12c1105d176958857",
    "scatter": "b81d506f251eccb79ee095e4b07370aa3eadc5a7e84b3059120b05aacf8fd811",
    "small": "e2a8de462b11c9dbd9017fec0ef9eb93042d874260f64834587139d0b6f6e61e",
    "stem": "61b91d89df8a95933a97e0f63cd3d8dcc4e33330e1d308a64bc83f2670fadbf4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_svg_bytes_match_golden(name):
    svg = rendered()[name]
    ET.fromstring(svg)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == GOLDEN_SHA256[name]


def test_every_kind_and_option_has_a_golden():
    assert sorted(GOLDEN_SHA256) == sorted(rendered())
    kinds = {s.kind for make in CHARTS.values() for s in make().series}
    assert kinds == {"line", "scatter", "stem", "bar"}
