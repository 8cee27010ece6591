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


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float, count: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Axes:
    def __init__(self, xlim, ylim, logx=False, logy=False):
        self.logx, self.logy = logx, logy
        self.x0, self.x1 = self._span(self._tr(xlim[0], logx), self._tr(xlim[1], logx))
        self.y0, self.y1 = self._span(self._tr(ylim[0], logy), self._tr(ylim[1], logy))

    @staticmethod
    def _tr(v, log):
        return math.log10(v) if log else float(v)

    @staticmethod
    def _span(lo, hi):
        """(lo, hi), with an empty range widened by 1, or by |lo| where 1
        is below the float spacing at lo."""
        if hi == lo:
            hi = lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)
        return lo, hi

    def px(self, x):
        t = (self._tr(x, self.logx) - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + t * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        t = (self._tr(y, self.logy) - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - t * (HEIGHT - MARGIN_T - MARGIN_B)


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]


def _axis_frame(ax, xlabel, ylabel, xticks, yticks):
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#444"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {HEIGHT // 2})">{ylabel}</text>',
    ]
    for tx in xticks:
        px = ax.px(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(tx)}</text>'
        )
    for ty in yticks:
        py = ax.py(ty)
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
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    keep = np.isfinite(xs_all) & np.isfinite(ys_all)
    if logy:
        keep &= ys_all > 0
    if logx:
        keep &= xs_all > 0
    xs_all, ys_all = xs_all[keep], ys_all[keep]
    if xs_all.size == 0:
        xs_all = ys_all = np.array([1.0])
    xlim = (xs_all.min(), xs_all.max())
    ylim = (ys_all.min(), ys_all.max())
    ax = _Axes(xlim, ylim, logx, logy)

    if logx:
        xticks = [10.0**e for e in _ticks(math.log10(xlim[0]), math.log10(xlim[1]))]
    else:
        xticks = _ticks(*xlim)
    if logy:
        yticks = [10.0**e for e in _ticks(math.log10(ylim[0]), math.log10(ylim[1]))]
    else:
        yticks = _ticks(*ylim)

    parts = _header(title)
    parts += _axis_frame(ax, xlabel, ylabel, xticks, yticks)
    for i, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if logy:
            ok &= ys > 0
        if logx:
            ok &= xs > 0
        pts = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in zip(xs[ok], ys[ok]))
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
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cw = plot_w / len(xs)
    ch = plot_h / len(ys)
    for i in range(len(xs)):
        for j in range(len(ys)):
            v = grid[i, j]
            color = "#bbbbbb" if not math.isfinite(v) else _colormap((v - lo) / span)
            px = MARGIN_L + i * cw
            py = HEIGHT - MARGIN_B - (j + 1) * ch
            parts.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cw + 0.5)}" '
                f'height="{_fmt(ch + 0.5)}" fill="{color}"/>'
            )
    ax = _Axes((xs.min(), xs.max()), (ys.min(), ys.max()))
    parts += _axis_frame(ax, xlabel, ylabel, _ticks(xs.min(), xs.max()), _ticks(ys.min(), ys.max()))
    parts.append(
        f'<text x="{WIDTH - MARGIN_R}" y="{MARGIN_T - 6}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">range [{_fmt(lo)}, {_fmt(hi)}]</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
