"""Tiny deterministic SVG scatter/line plots.

Hand-rolled so that identical inputs yield byte-identical files: no
timestamps, no dict-order dependence, fixed decimal formatting.  Marks are
formatted a chunk at a time from coordinate arrays.

A polyline drops each vertex that prints at the same ``%.2f`` position as
the one before it; the zero-length segment it drew showed nothing.  The
circles of one series are drawn once per quarter-pixel cell: the first
circle printed in a cell stands for all k in it, with ``fill-opacity``
1 - 0.45^k printed ``%.4g``, what k stacked circles at opacity 0.55
composite to.  A series has one colour, so the order they stack in does not
matter; the circles left out lie at most a quarter pixel from the one drawn
on each axis, so only antialiased edge pixels change.  A circle alone
in its cell keeps 0.55, so a plot with one circle per cell is unchanged.
A scatter's size follows the cells its cloud covers, not its length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tabular import write_records

__all__ = ["Series", "render_plot"]

_PALETTE = ("#1f6f8b", "#d1495b", "#66a182", "#8d6a9f", "#edae49")


@dataclass(frozen=True)
class Series:
    """One plotted series: a scatter cloud or a polyline."""

    points: np.ndarray
    kind: str = "scatter"  # or "line"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _finite(points: np.ndarray) -> np.ndarray:
    """The rows whose coordinates are all finite; no copy when every row is."""
    ok = np.isfinite(points)
    # a reduction along the short axis of an (n, 2) array is ten times
    # slower than one over the whole array, so take it only when needed
    return points if ok.all() else points[ok.all(axis=1)]


def _new_positions(xy: list) -> np.ndarray:
    """True where a vertex prints at another ``%.2f`` position than the one before.

    The printed value is ``rint(v * 100)`` unless the product lies within
    its rounding error of a half-integer: ``%.2f`` rounds the exact double,
    and may round the other way.  Such vertices, and non-finite ones, are
    settled by comparing their text.  The error stays below the 1e-6 margin
    for any coordinate under 1e7 px.
    """
    n = xy[0].shape[0]
    new = np.zeros(n, bool)
    new[:1] = True
    unsure = np.zeros(n, bool)
    for c in xy:
        t = c * 100.0
        key = np.rint(t)
        new[1:] |= key[1:] != key[:-1]
        t -= key
        unsure |= ~(np.abs(t, out=t) <= 0.5 - 1e-6)
        del t, key  # two n-length temporaries at a time, not four
    for i in np.flatnonzero(unsure[1:] | unsure[:-1]) + 1:
        new[i] = any(_fmt(c[i]) != _fmt(c[i - 1]) for c in xy)
    return new


def _cells(xy: list) -> tuple[np.ndarray, np.ndarray]:
    """The first circle of each quarter-pixel cell, in order, and the cell's count.

    Cell edges lie at odd multiples of 1/8 px, between two ``%.2f`` values;
    a coordinate on an edge is a tie for ``rint`` and ``%.2f`` alike, and
    both round half to even onto the same side.  So a circle's cell is that
    of its printed position.
    """
    cx, cy = (np.rint(c * 4.0) for c in xy)
    # one exact float key per cell: a mark on the canvas lies within a few
    # thousand quarter pixels of the origin, far below 2^32
    cx *= 2.0**32
    cx += cy
    del cy
    _, first, count = np.unique(cx, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], count[order]


def render_plot(
    path,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    annotations: list[str] = (),
) -> None:
    """Write an SVG scatter/line plot; output depends only on arguments."""
    width, height = 640, 480
    ml, mr, mt, mb = 62, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb

    finite = [_finite(s.points) for s in series]
    shown = [p for p in finite if p.shape[0]]
    if shown:
        x_lo, y_lo = (min(float(p[:, j].min()) for p in shown) for j in (0, 1))
        x_hi, y_hi = (max(float(p[:, j].max()) for p in shown) for j in (0, 1))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    padx, pady = 0.04 * (x_hi - x_lo), 0.04 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - padx, x_hi + padx
    y_lo, y_hi = y_lo - pady, y_hi + pady

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444444" stroke-width="1"/>',
    ]

    out.append('<g class="ticks" font-family="monospace" font-size="11" fill="#333333">')
    for t in _nice_ticks(x_lo + padx, x_hi - padx):
        px = sx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{mt + ph}" x2="{_fmt(px)}" y2="{mt + ph + 4}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{mt + ph + 17}" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _nice_ticks(y_lo + pady, y_hi - pady):
        py = sy(t)
        out.append(
            f'<line x1="{ml - 4}" y1="{_fmt(py)}" x2="{ml}" y2="{_fmt(py)}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 7}" y="{_fmt(py + 4)}" text-anchor="end">{t:.4g}</text>'
        )
    out.append("</g>")

    tail = []
    text_y = mt - 12
    if title:
        tail.append(
            f'<text x="{width / 2:.0f}" y="{text_y}" text-anchor="middle" '
            f'font-family="monospace" font-size="13" fill="#111111">{title}</text>'
        )
    if xlabel:
        tail.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#111111">{xlabel}</text>'
        )
    if ylabel:
        tail.append(
            f'<text x="14" y="{mt + ph / 2:.0f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#111111" '
            f'transform="rotate(-90 14 {mt + ph / 2:.0f})">{ylabel}</text>'
        )
    for j, note in enumerate(annotations):
        tail.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * j}" font-family="monospace" '
            f'font-size="11" fill="#222222" class="annotation">{note}</text>'
        )
    tail.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
        for i, (s, pts) in enumerate(zip(series, finite)):
            color = _PALETTE[i % len(_PALETTE)]
            fh.write(f'<g class="series series-{s.kind}" id="series-{i}">\n')
            xy = [sx(pts[:, 0]), sy(pts[:, 1])]
            if s.kind == "line" and pts.shape[0] >= 2:
                new = _new_positions(xy)
                fh.write('<polyline points="')
                write_records(fh, "%.2f,%.2f", [c[new] for c in xy], sep=" ")
                fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            else:
                circle = ('<circle cx="%.2f" cy="%.2f" r="1.6" '
                          f'fill="{color}" fill-opacity="%.4g"/>\n')
                first, k = _cells(xy)
                write_records(fh, circle, [c[first] for c in xy] + [1.0 - 0.45**k])
            fh.write("</g>\n")
        fh.write("\n".join(tail) + "\n")
