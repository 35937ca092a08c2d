"""Minimal self-rendered SVG charts: axes, polylines, scatter, bars.

Every chart the CLI emits also has a CSV twin carrying the numbers, so
these files are for eyeballing only. Output is deterministic for
identical inputs (fixed palette, fixed float formatting) and valid XML.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from xml.sax.saxutils import escape

import numpy as np

from . import atomic_write

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 800, 480
_ML, _MR, _MT, _MB = 64, 16, 36, 44
_PANEL_W, _PANEL_H = 440, 320


def _fmt(x: float) -> str:
    return f"{x:.6g}"     # the same text as "%.6g" % x, which the point templates use


@dataclass
class Series:
    label: str
    xs: np.ndarray
    ys: np.ndarray
    kind: str = "line"        # line | scatter | bar | stem
    color: str | None = None


@dataclass
class Chart:
    title: str
    x_label: str = ""
    y_label: str = ""
    series: list[Series] = field(default_factory=list)
    ref_line: tuple[float, float] | None = None   # slope, intercept
    h_lines: list[float] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)

    def add(self, label, xs, ys, kind="line", color=None) -> "Chart":
        self.series.append(Series(label, np.array(xs, dtype=np.float64),
                                  np.array(ys, dtype=np.float64), kind, color))
        return self


def _limits(chart: Chart) -> tuple[float, float, float, float]:
    xs = np.concatenate([s.xs for s in chart.series] + [[]])
    ys = np.concatenate([s.ys for s in chart.series] + [chart.h_lines])
    xs, ys = xs[np.isfinite(xs)], ys[np.isfinite(ys)]
    if not xs.size or not ys.size:
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx = 0.03 * (x1 - x0)
    pady = 0.06 * (y1 - y0)
    return x0 - padx, x1 + padx, y0 - pady, y1 + pady


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return [lo]
    raw = span / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks, t = [], math.ceil(lo / step) * step
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def render_chart(chart: Chart, width: int = _W, height: int = _H) -> str:
    """One chart as an SVG document string."""
    x0, x1, y0, y1 = _limits(chart)
    pw = width - _ML - _MR
    ph = height - _MT - _MB

    def sx(x):     # a float, or an array of them
        return _ML + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{escape(chart.title)}</text>',
    ]
    # axes box and ticks
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')
    for t in _ticks(x0, x1):
        parts.append(f'<line x1="{_fmt(sx(t))}" y1="{_MT + ph}" x2="{_fmt(sx(t))}" '
                     f'y2="{_MT + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(sx(t))}" y="{_MT + ph + 16}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        parts.append(f'<line x1="{_ML - 4}" y1="{_fmt(sy(t))}" x2="{_ML}" '
                     f'y2="{_fmt(sy(t))}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 7}" y="{_fmt(sy(t) + 3)}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{_fmt(t)}</text>')
    if chart.x_label:
        parts.append(f'<text x="{_ML + pw / 2}" y="{height - 8}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{escape(chart.x_label)}</text>')
    if chart.y_label:
        parts.append(f'<text x="14" y="{_MT + ph / 2}" text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif" transform="rotate(-90 14 {_MT + ph / 2})">'
                     f'{escape(chart.y_label)}</text>')
    for y in chart.h_lines:
        parts.append(f'<line x1="{_ML}" y1="{_fmt(sy(y))}" x2="{_ML + pw}" '
                     f'y2="{_fmt(sy(y))}" stroke="#999" stroke-dasharray="4 3"/>')
    if chart.ref_line is not None:
        slope, intercept = chart.ref_line
        parts.append(f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(slope * x0 + intercept))}" '
                     f'x2="{_fmt(sx(x1))}" y2="{_fmt(sy(slope * x1 + intercept))}" '
                     f'stroke="#777" stroke-dasharray="6 3"/>')

    for i, s in enumerate(chart.series):
        color = s.color or PALETTE[i % len(PALETTE)]
        tint = color.replace("%", "%%")     # the color as a literal of a %-template
        n = min(len(s.xs), len(s.ys))
        keep = np.isfinite(s.xs[:n]) & np.isfinite(s.ys[:n])
        px, py = sx(s.xs[:n][keep]), sy(s.ys[:n][keep])
        # one %-template per series: a row per point, over the flat coordinates
        if s.kind == "line":
            row, sep, cols = "%.6g,%.6g", " ", (px, py)
        elif s.kind == "scatter":
            row = f'<circle cx="%.6g" cy="%.6g" r="1.8" fill="{tint}" fill-opacity="0.7"/>'
            sep, cols = "\n", (px, py)
        elif s.kind == "stem":
            row = (f'<line x1="%.6g" y1="{_fmt(sy(0.0))}" x2="%.6g" y2="%.6g" stroke="{tint}" '
                   f'stroke-width="2"/>')
            sep, cols = "\n", (px, px, py)
        elif s.kind == "bar":
            base = sy(0.0)
            bw = max(1.0, 0.8 * float(px[1] - px[0])) if px.size > 1 else 6.0
            row = (f'<rect x="%.6g" y="%.6g" width="{_fmt(bw)}" height="%.6g" fill="{tint}" '
                   f'fill-opacity="0.55"/>')
            sep, cols = "\n", (px - bw / 2, np.minimum(py, base), np.abs(base - py))
        else:
            continue
        body = sep.join([row] * px.size) % tuple(np.column_stack(cols).ravel().tolist())
        if s.kind == "line":
            parts.append(f'<polyline points="{body}" fill="none" stroke="{color}" '
                         f'stroke-width="1.2"/>')
        elif body:
            parts.append(body)
    # legend
    lx, ly = _ML + 10, _MT + 14
    for i, s in enumerate(chart.series):
        if not s.label:
            continue
        color = s.color or PALETTE[i % len(PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 8}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="{ly + 1}" font-size="11" '
                     f'font-family="sans-serif">{escape(s.label)}</text>')
        ly += 16
    for note in chart.annotations:
        parts.append(f'<text x="{_ML + pw - 8}" y="{ly + 1}" text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{escape(note)}</text>')
        ly += 16
    parts.append("</svg>")
    return "\n".join(parts)


def render_panels(charts: list[Chart]) -> str:
    """Several charts in one SVG as small multiples, two columns of
    _PANEL_W x _PANEL_H."""
    rows = (len(charts) + 1) // 2
    width, height = 2 * _PANEL_W, rows * _PANEL_H
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for i, chart in enumerate(charts):
        inner = render_chart(chart, _PANEL_W, _PANEL_H)
        body = inner.split(">", 1)[1].rsplit("</svg>", 1)[0]
        ox = (i % 2) * _PANEL_W
        oy = (i // 2) * _PANEL_H
        parts.append(f'<g transform="translate({ox} {oy})">{body}</g>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, svg: str) -> None:
    atomic_write(path, svg)
