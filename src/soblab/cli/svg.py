"""Minimal deterministic SVG emitters: line plots and heatmaps.

No graphics dependency and no timestamps or random ids: the same data
always serializes to the same bytes, and the data points are embedded
as plain polyline coordinates so tests can compare plots structurally.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 640
HEIGHT = 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 34, 46
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
TICKS = 5  # ticks per axis


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


class _Scale:
    """One axis: the range lo..hi, linear or log10, mapped onto the pixels
    from the plot edge where it starts (left or bottom) to the other."""

    def __init__(self, lo, hi, log=False, vertical=False):
        self.log = log
        # the start pixel and the signed pixel length of the range
        if vertical:
            self.origin, self.extent = HEIGHT - MARGIN_B, -(HEIGHT - MARGIN_T - MARGIN_B)
        else:
            self.origin, self.extent = MARGIN_L, WIDTH - MARGIN_L - MARGIN_R
        lo, hi = self._tr(lo), self._tr(hi)
        ticks = [lo]  # one tick on an empty or non-finite range
        if math.isfinite(lo) and math.isfinite(hi) and lo != hi:
            step = (hi - lo) / (TICKS - 1)
            ticks = [lo + i * step for i in range(TICKS)]
        self.ticks = [10.0**t if log else t for t in ticks]
        # an empty range widens by 1, or by |lo| where 1 is below the float spacing at lo
        if hi == lo:
            hi = lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)
        self.lo, self.hi = lo, hi

    def _tr(self, v):
        return math.log10(v) if self.log else float(v)

    def __call__(self, v):
        t = (self._tr(v) - self.lo) / (self.hi - self.lo)
        return self.origin + t * self.extent


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]


def _axis_frame(x, y, xlabel, ylabel):
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#444"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {HEIGHT // 2})">{ylabel}</text>',
    ]
    for tx in x.ticks:
        px = x(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(tx)}</text>'
        )
    for ty in y.ticks:
        py = y(ty)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" '
            f'stroke="#444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 7}" y="{_fmt(py)}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(ty)}</text>'
        )
    return parts


def line_plot(series, title="", xlabel="", ylabel="", logx=False, logy=False) -> str:
    """SVG line plot; series is a list of (label, xs, ys)."""
    kept = []  # each series' plottable points: finite, and positive on a log axis
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        ok &= (xs > 0 if logx else True) & (ys > 0 if logy else True)
        kept.append((label, xs[ok], ys[ok]))
    xs_all = np.concatenate([xs for _, xs, _ in kept])
    ys_all = np.concatenate([ys for _, _, ys in kept])
    if xs_all.size == 0:
        xs_all = ys_all = np.array([1.0])
    x = _Scale(xs_all.min(), xs_all.max(), logx)
    y = _Scale(ys_all.min(), ys_all.max(), logy, vertical=True)

    parts = _header(title)
    parts += _axis_frame(x, y, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(kept):
        pts = " ".join(f"{_fmt(x(u))},{_fmt(y(v))}" for u, v in zip(xs, ys))
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        if label:
            ly = MARGIN_T + 14 + 14 * i
            parts.append(
                f'<line x1="{WIDTH - 150}" y1="{ly - 4}" x2="{WIDTH - 130}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{WIDTH - 124}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _colormap(t: float) -> str:
    """Diverging blue-white-red map on [0, 1]."""
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        s = t / 0.5
        r, g, b = 31 + s * (255 - 31), 119 + s * (255 - 119), 180 + s * (255 - 180)
    else:
        s = (t - 0.5) / 0.5
        r, g, b = 255 - s * (255 - 214), 255 - s * (255 - 39), 255 - s * (255 - 40)
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


def heatmap(xs, ys, grid, title="", xlabel="", ylabel="") -> str:
    """SVG heatmap of grid[i, j] over xs[i] (horizontal) and ys[j] (vertical).

    NaN cells render grey (missing, not zero).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = np.asarray(grid, dtype=float)
    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0

    parts = _header(title)
    x, y = _Scale(xs.min(), xs.max()), _Scale(ys.min(), ys.max(), vertical=True)
    cw = x.extent / len(xs)
    ch = -y.extent / len(ys)
    for i in range(len(xs)):
        for j in range(len(ys)):
            v = grid[i, j]
            color = "#bbbbbb" if not math.isfinite(v) else _colormap((v - lo) / span)
            px = x.origin + i * cw
            py = y.origin - (j + 1) * ch
            parts.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cw + 0.5)}" '
                f'height="{_fmt(ch + 0.5)}" fill="{color}"/>'
            )
    parts += _axis_frame(x, y, xlabel, ylabel)
    parts.append(
        f'<text x="{WIDTH - MARGIN_R}" y="{MARGIN_T - 6}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">range [{_fmt(lo)}, {_fmt(hi)}]</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
