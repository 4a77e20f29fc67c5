"""Minimal static SVG line plots (no plotting dependency).

Good enough for per-iteration convergence and constraint figures: one
series, optional log-scale y and a horizontal reference line.
"""

from __future__ import annotations

import math

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLOR = "#1f77b4"
_NTICKS = 5  # an axis spans at most this many tick steps


def _ticks(lo: float, hi: float):
    # line_plot widens a flat axis first, so hi > lo
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / _NTICKS))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= _NTICKS:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    # tick j is start + j*step, not a running sum, which stops growing
    # once step is below half an ULP of start; span/step <= _NTICKS bounds j
    ticks = (start + j * step for j in range(_NTICKS + 2))
    return [v for v in ticks if v <= hi + 1e-12 * span]


def _escape(text: str) -> str:
    """text as XML character data.  Written out: xml.sax.saxutils, which
    does the same, imports urllib.request: about 20 ms of import time."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(path, x, label, ys, title="", xlabel="", ylabel="",
              ylog=False, hline=None):
    """Write an SVG line chart of the series ys over x, labelled label.

    Non-finite and (for log scale) non-positive points are dropped.
    Every text element is escaped, so the SVG parses as XML whatever the
    title and labels hold.  x and ys of different lengths raise
    ValueError naming both lengths.
    """
    x = [float(v) for v in x]
    if len(x) != len(ys):
        raise ValueError(f"{len(x)} x values and {len(ys)} ys")
    pts = [(xi, float(yi)) for xi, yi in zip(x, ys)
           if math.isfinite(float(yi)) and (not ylog or float(yi) > 0)]
    show_hline = hline is not None and (not ylog or hline > 0)
    all_y = [yi for _, yi in pts] + ([float(hline)] if show_hline else [])
    if not all_y:  # a range log10 can take
        all_y = [1.0, 10.0] if ylog else [0.0, 1.0]
    tf = math.log10 if ylog else (lambda v: v)
    ylo, yhi = min(map(tf, all_y)), max(map(tf, all_y))
    if yhi - ylo < 1e-12:
        # a flat series; past 2**53, +-0.5 rounds away and a relative
        # amount widens it
        pad = 0.5 if ylo - 0.5 < yhi + 0.5 else 1e-6 * abs(ylo)
        ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = (min(x), max(x)) if x else (0.0, 1.0)
    if xhi - xlo < 1e-12:
        # as for y, past 2**53 a relative amount widens a flat x axis
        xhi = xlo + 1.0 if xlo + 1.0 > xlo else xlo + 1e-6 * abs(xlo)
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def X(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def Y(v):  # v on the plotted scale: tf of a data value
        return _MT + ph - (v - ylo) / (yhi - ylo) * ph

    def text(x, y, anchor, size, body, more=""):  # body escaped here
        parts.append(f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="{size}"{more}>'
                     f'{_escape(body)}</text>')

    def line(x1, y1, x2, y2, style='stroke="#333"'):
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'{style}/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    text(_W / 2, 24, "middle", 15, title)
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333"/>')
    for tv in _ticks(xlo, xhi):
        xv = f"{X(tv):.1f}"
        line(xv, _MT + ph, xv, _MT + ph + 5)
        text(xv, _MT + ph + 18, "middle", 11, f"{tv:g}")
    for tv in _ticks(ylo, yhi):
        yv = Y(tv)
        line(_ML - 5, f"{yv:.1f}", _ML, f"{yv:.1f}")
        text(_ML - 8, f"{yv + 4:.1f}", "end", 11,
             f"{10 ** tv if ylog else tv:g}")
    if xlabel:
        text(_ML + pw / 2, _H - 10, "middle", 12, xlabel)
    if ylabel:
        text(18, _MT + ph / 2, "middle", 12, ylabel,
             f' transform="rotate(-90 18 {_MT + ph / 2})"')
    if show_hline:
        yv = f"{Y(tf(hline)):.1f}"
        line(_ML, yv, _ML + pw, yv, 'stroke="#888" stroke-dasharray="6 4"')
    if pts:
        d = " ".join(f"{X(xi):.2f},{Y(tf(yi)):.2f}" for xi, yi in pts)
        parts.append(f'<polyline fill="none" stroke="{_COLOR}" '
                     f'stroke-width="1.5" points="{d}"/>')
        text(_ML + pw - 6, _MT + 16, "end", 11, label, f' fill="{_COLOR}"')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
