"""Minimal static SVG plots for histograms.

Step outlines with optional error bars, linear or logarithmic y axis.
Output is deterministic: no timestamps, no external assets.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 880, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 24, 46
PALETTE = ("#1f77b4", "#d62728", "#2c2c2c", "#2ca02c", "#9467bd")


@dataclass
class Series:
    histogram: object
    label: str = ""
    color: str = ""
    error_bars: bool = True
    dashed: bool = False


def _nice_ticks(lo, hi, target=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo, hi):
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0 ** d <= hi * 1.0001:
        if 10.0 ** d >= lo * 0.9999:
            ticks.append(10.0 ** d)
        d += 1
    return ticks or [lo, hi]


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def render(series, x_label="", y_label="", title="", log_y=False) -> str:
    """Render a list of :class:`Series` to an SVG document string."""
    x_lo = min(s.histogram.axis.low for s in series)
    x_hi = max(s.histogram.axis.high for s in series)

    y_vals = []
    for s in series:
        c = np.asarray(s.histogram.contents, dtype=float)
        e = s.histogram.stat_err
        y_vals.append(c)
        if s.error_bars and e is not None:
            y_vals.extend([c - e, c + e])
    y_all = np.concatenate(y_vals)
    if log_y:
        positive = y_all[y_all > 0]
        y_lo = float(positive.min()) / 2 if positive.size else 0.1
        y_hi = float(positive.max()) * 2 if positive.size else 1.0
        floor = y_lo
    else:
        y_lo = min(0.0, float(y_all.min()))
        y_hi = float(y_all.max())
        pad = 0.06 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        floor = None

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        if log_y:
            y = max(y, floor)
            fy = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            fy = (y - y_lo) / (y_hi - y_lo)
        return MARGIN_T + (1.0 - fy) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#888" stroke-width="1"/>')

    y_ticks = _log_ticks(y_lo, y_hi) if log_y else _nice_ticks(y_lo, y_hi)
    for t in y_ticks:
        yy = py(t)
        out.append(f'<line x1="{MARGIN_L - 4}" y1="{yy:.2f}" x2="{MARGIN_L}" '
                   f'y2="{yy:.2f}" stroke="#444"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{yy + 4:.2f}" font-size="12" '
                   f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _nice_ticks(x_lo, x_hi, target=8):
        xx = px(t)
        out.append(f'<line x1="{xx:.2f}" y1="{MARGIN_T + ph}" x2="{xx:.2f}" '
                   f'y2="{MARGIN_T + ph + 4}" stroke="#444"/>')
        out.append(f'<text x="{xx:.2f}" y="{MARGIN_T + ph + 18}" font-size="12" '
                   f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')

    for idx, s in enumerate(series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        h = s.histogram
        edges = h.axis.edges
        contents = h.contents
        pts = [f"{px(x):.2f},{py(c):.2f}"
               for c, lo, hi in zip(contents, edges, edges[1:]) for x in (lo, hi)]
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        if s.error_bars and h.stat_err is not None:
            centers = h.axis.centers
            for i in range(h.nbins):
                if h.stat_err[i] == 0:
                    continue
                xx = px(centers[i])
                out.append(f'<line x1="{xx:.2f}" y1="{py(contents[i] - h.stat_err[i]):.2f}" '
                           f'x2="{xx:.2f}" y2="{py(contents[i] + h.stat_err[i]):.2f}" '
                           f'stroke="{color}" stroke-width="1"/>')

    # legend, top right inside the frame
    ly = MARGIN_T + 16
    for idx, s in enumerate(series):
        if not s.label:
            continue
        color = s.color or PALETTE[idx % len(PALETTE)]
        lx = WIDTH - MARGIN_R - 170
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 30}" y="{ly}" font-size="12" '
                   f'font-family="sans-serif">{html.escape(s.label)}</text>')
        ly += 16

    if title:
        out.append(f'<text x="{MARGIN_L}" y="{MARGIN_T - 8}" font-size="13" '
                   f'font-family="sans-serif">{html.escape(title)}</text>')
    if x_label:
        out.append(f'<text x="{MARGIN_L + pw / 2:.0f}" y="{HEIGHT - 8}" font-size="13" '
                   f'text-anchor="middle" font-family="sans-serif">{html.escape(x_label)}</text>')
    if y_label:
        out.append(f'<text x="16" y="{MARGIN_T + ph / 2:.0f}" font-size="13" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'transform="rotate(-90 16 {MARGIN_T + ph / 2:.0f})">{html.escape(y_label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write(path, series, **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(series, **kwargs))
