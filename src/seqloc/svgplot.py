"""Minimal self-contained SVG line charts (no external renderer).

Good enough for eyeballing sweep results next to the CSVs, which stay the
source of truth.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _transform(values, lo, hi, out_lo, out_hi, log):
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
        values = [math.log10(v) for v in values]
    span = (hi - lo) or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _ticks(lo, hi, log):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = (hi - lo) or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(v)
        v += step
    return ticks


def line_chart(series, path, title="", x_label="", y_label="",
               log_x=False, log_y=False):
    """Write a line chart SVG; ``series`` is [(label, xs, ys), ...].
    Without a finite point the chart keeps its axes and legend, over a
    unit range, and draws no line."""
    xs_all = [x for _, xs, _ in series for x in xs] or [1.0]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    ys_all = ys_all or [1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if not log_y:
        y_lo = min(0.0, y_lo) if y_lo > 0 else y_lo
    if log_x and x_lo <= 0:
        raise ValueError("log x-axis needs positive values")
    if log_y and y_lo <= 0:
        y_lo = min(y for y in ys_all if y > 0)

    px_lo, px_hi = MARGIN_L, WIDTH - MARGIN_R
    py_lo, py_hi = HEIGHT - MARGIN_B, MARGIN_T

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    for tx in _ticks(x_lo, x_hi, log_x):
        if tx < x_lo or tx > x_hi:
            continue
        (px,) = _transform([tx], x_lo, x_hi, px_lo, px_hi, log_x)
        parts.append(f'<line x1="{px:.1f}" y1="{py_lo}" x2="{px:.1f}" '
                     f'y2="{py_hi}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{py_lo + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi, log_y):
        if ty < y_lo or ty > y_hi:
            continue
        (py,) = _transform([ty], y_lo, y_hi, py_lo, py_hi, log_y)
        parts.append(f'<line x1="{px_lo}" y1="{py:.1f}" x2="{px_hi}" '
                     f'y2="{py:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px_lo - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{ty:g}</text>')

    parts.append(f'<rect x="{px_lo}" y="{py_hi}" width="{px_hi - px_lo}" '
                 f'height="{py_lo - py_hi}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{(px_lo + px_hi) // 2}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{x_label}</text>')
    parts.append(f'<text x="20" y="{(py_lo + py_hi) // 2}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13" transform="rotate(-90 20 '
                 f'{(py_lo + py_hi) // 2})">{y_label}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
        pxs = _transform([p[0] for p in pts], x_lo, x_hi, px_lo, px_hi, log_x)
        pys = _transform([p[1] for p in pts], y_lo, y_hi, py_lo, py_hi, log_y)
        if pts:
            coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(pxs, pys))
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(pxs, pys):
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.6" '
                         f'fill="{color}"/>')
        ly = MARGIN_T + 16 * k + 10
        lx = WIDTH - MARGIN_R + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
