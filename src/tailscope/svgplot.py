"""Tiny deterministic SVG scatter/line plots.

Hand-rolled so that identical inputs yield byte-identical files: no
timestamps, no dict-order dependence, fixed decimal formatting.  Marks are
written as byte rows by ``tabular.write_rows``, the CSV writers' row
assembler: a polyline's vertices as ``x,y`` fields joined by spaces, a
circle as its literal pieces around three fields.  Each coordinate is
scaled to the screen once and rounded to its ``%.2f`` key (``cents``) once;
the polyline thinning compares those keys, and the fields print them.
Each distinct ``fill-opacity`` is formatted once.

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

from .tabular import cents, write_rows

__all__ = ["Series", "render_plot"]

_PALETTE = ("#1f6f8b", "#d1495b", "#66a182", "#8d6a9f", "#edae49")
_TICKS = 6  # about this many per axis


@dataclass(frozen=True)
class Series:
    """One plotted series: a scatter cloud or a polyline."""

    points: np.ndarray
    kind: str = "scatter"  # or "line"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round-numbered ticks over [lo, hi], about _TICKS of them; they end
    where a step no longer moves the tick, so a span below the ulp of its
    values has one."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / _TICKS
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
        if t + step == t:
            break
        t += step
    return ticks


def _axis(lo: float, hi: float) -> tuple[float, float, float, float]:
    """(a, b, pad, s): the plotted range [a, b] of data over [lo, hi], in
    units of s, with a < b and b - a finite.  A constant widens to +-0.5 (to
    its neighbouring doubles where 0.5 is absorbed), then each side by pad,
    4 % of the span; s is 1, or 1/4 where that overflows."""
    for s in (1.0, 0.25):
        lo_s, hi_s = lo * s, hi * s
        if lo_s == hi_s:
            lo_s, hi_s = lo_s - 0.5, hi_s + 0.5
        if lo_s == hi_s:
            lo_s, hi_s = math.nextafter(lo_s, -math.inf), math.nextafter(hi_s, math.inf)
        pad = 0.04 * (hi_s - lo_s)
        if math.isfinite((hi_s + pad) - (lo_s - pad)):
            return lo_s - pad, hi_s + pad, pad, s


def _labels(ticks: list[float], s: float) -> list[str]:
    """Each tick t printed as t / s with ``%.4g``, or with more significant
    digits, up to 17, while two ticks print alike."""
    for digits in range(4, 18):
        labels = [f"{t / s:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _finite(points: np.ndarray):
    """The rows whose coordinates are all finite, no copy when every row is,
    and their (x_lo, y_lo, x_hi, y_hi), or None when there is no such row.

    A NaN or an infinity is the least or the greatest of its column, so the
    rows are all finite when those four are.
    """
    if not points.shape[0]:
        return points, None
    bounds = [float(f(points[:, j])) for f in (np.min, np.max) for j in (0, 1)]
    if all(map(math.isfinite, bounds)):
        return points, bounds
    # a reduction along the short axis of an (n, 2) array is ten times
    # slower than one over the whole array, so take it only when needed
    return _finite(points[np.isfinite(points).all(axis=1)])


def _new_positions(xy: list, keys: list) -> np.ndarray:
    """True where a vertex prints at another ``%.2f`` position than the one before.

    keys holds ``cents`` of each coordinate: the printed value times 100, or
    -1 where the kernel leaves the text to ``%.2f``.  A vertex beside such a
    one is settled by comparing their text.
    """
    n = xy[0].shape[0]
    new = np.zeros(n, bool)
    new[:1] = True
    unsure = np.zeros(n, bool)
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
        unsure |= k < 0
    for i in np.flatnonzero(unsure[1:] | unsure[:-1]) + 1:
        new[i] = any(_fmt(c[i]) != _fmt(c[i - 1]) for c in xy)
    return new


def _runs(keys: np.ndarray) -> np.ndarray:
    """The index of each key that differs from the one before it."""
    new = np.empty(keys.size, bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _cells(xy: list) -> tuple[np.ndarray, np.ndarray]:
    """The first circle of each quarter-pixel cell, in order, and the cell's count.

    Cell edges lie at odd multiples of 1/8 px, between two ``%.2f`` values;
    a coordinate on an edge is a tie for ``rint`` and ``%.2f`` alike, and
    both round half to even onto the same side.  So a circle's cell is that
    of its printed position.

    A run of circles in one cell, as along a sorted cloud, is one entry;
    the runs are sorted by cell, and each cell's first circle is the least
    start of its runs, so the sort need not be stable.
    """
    cx, cy = (np.rint(c * 4.0) for c in xy)
    # one exact float key per cell: a mark on the canvas lies within a few
    # thousand quarter pixels of the origin, far below 2^32
    cx *= 2.0**32
    cx += cy
    del cy
    starts = _runs(cx)
    if not starts.size:
        return starts, starts
    order = np.argsort(cx[starts])
    keys = cx[starts[order]]
    edges = _runs(keys)
    first = np.minimum.reduceat(starts[order], edges)
    count = np.add.reduceat(np.diff(starts, append=cx.size)[order], edges)
    shown = np.argsort(first)
    return first[shown], count[shown]


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
    shown = [b for _, b in finite if b] or [(0.0, 0.0, 1.0, 1.0)]
    x_lo, x_hi, padx, x_s = _axis(min(b[0] for b in shown), max(b[2] for b in shown))
    y_lo, y_hi, pady, y_s = _axis(min(b[1] for b in shown), max(b[3] for b in shown))

    # data x is x * s in the axis' units, ticks already are (s = 1); scaled
    # here, x * s is a temporary that the rest of the expression reuses
    def sx(x, s=x_s):
        return ml + (x * s - x_lo) / (x_hi - x_lo) * pw

    def sy(y, s=y_s):
        return mt + ph - (y * s - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444444" stroke-width="1"/>',
    ]

    out.append('<g class="ticks" font-family="monospace" font-size="11" fill="#333333">')
    ticks = _nice_ticks(x_lo + padx, x_hi - padx)
    for t, label in zip(ticks, _labels(ticks, x_s)):
        px = sx(t, 1.0)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{mt + ph}" x2="{_fmt(px)}" y2="{mt + ph + 4}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{mt + ph + 17}" text-anchor="middle">{label}</text>'
        )
    ticks = _nice_ticks(y_lo + pady, y_hi - pady)
    for t, label in zip(ticks, _labels(ticks, y_s)):
        py = sy(t, 1.0)
        out.append(
            f'<line x1="{ml - 4}" y1="{_fmt(py)}" x2="{ml}" y2="{_fmt(py)}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 7}" y="{_fmt(py + 4)}" text-anchor="end">{label}</text>'
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
    with open(path, "wb") as fh:
        fh.write(("\n".join(out) + "\n").encode())
        for i, (s, (pts, _)) in enumerate(zip(series, finite)):
            color = _PALETTE[i % len(_PALETTE)]
            fh.write(f'<g class="series series-{s.kind}" id="series-{i}">\n'.encode())
            xy = [sx(pts[:, 0]), sy(pts[:, 1])]
            if s.kind == "line" and pts.shape[0] >= 2:
                keys = [cents(c) for c in xy]
                new = np.flatnonzero(_new_positions(xy, keys))
                (x, kx), (y, ky) = ((c.take(new), k.take(new)) for c, k in zip(xy, keys))
                fh.write(b'<polyline points="')
                write_rows(fh, [("%.2f", x, kx), b",", ("%.2f", y, ky)], sep=b" ")
                fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'.encode())
            else:
                first, k = _cells(xy)
                x, y = (c[first] for c in xy)
                # each distinct opacity formatted once; a plain np.unique loads numpy.ma
                stacks, stack = np.unique(k, return_inverse=True)
                opacity = [b"%.4g" % o for o in (1.0 - 0.45**stacks).tolist()]
                write_rows(fh, [
                    b'<circle cx="', ("%.2f", x, cents(x)), b'" cy="', ("%.2f", y, cents(y)),
                    f'" r="1.6" fill="{color}" fill-opacity="'.encode(),
                    ("%s", stack, opacity), b'"/>\n'])
            fh.write(b"</g>\n")
        fh.write(("\n".join(tail) + "\n").encode())
