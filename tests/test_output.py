"""Chunked CSV and SVG output against the per-value writers it replaced.

The reference functions below are the earlier per-line implementations,
kept verbatim, except that the old renderer draws every series with its
palette colour and radius 1.6, as all callers did: every file the chunked
writers produce must match theirs byte for byte, and the one reader must
read what they read.  The SVG
renderer draws the circles of each quarter-pixel cell once and drops
repeated polyline vertices, so its files must match ``merge_marks`` applied
to the old renderer's text.
"""
import codecs
import errno
import io
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from collections import Counter
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, ROUND_UP, Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tailscope as ts
from tailscope import tabular
from tailscope.cli import main
from tailscope.errors import ParseError
from tailscope.svgplot import _PALETTE, Series, _cells, _fmt, _nice_ticks, render_plot
from tailscope.tabular import CHUNK, cents, read_csv, write_csv, write_keyvals, write_rows

# ---------------------------------------------------------------------------
# reference implementations


def old_write_values_csv(path, values):
    with open(path, "w") as fh:
        fh.write("value\n")
        for v in values:
            fh.write(f"{v:.17g}\n")


def old_read_values_csv(path):
    values = []
    with open(path) as fh:
        for line in fh:
            tok = line.strip().split(",")[0]
            if not tok or tok == "value":
                continue
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise ParseError(f"{path}: bad value {tok!r}") from exc
    if not values:
        raise ParseError(f"{path}: no values")
    return np.asarray(values)


def old_write_trace_csv(path, tr):
    with open(path, "w") as fh:
        fh.write("m,value\n")
        for m, v in zip(tr.m, tr.value):
            fh.write(f"{m},{v:.17g}\n")


def old_point_set_write_csv(self, path):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for px, py in self.points:
            fh.write(f"{px:.17g},{py:.17g}\n")


def old_convergence_write_csv(self, path):
    with open(path, "w") as fh:
        fh.write("rep,n,distance\n")
        for r in range(self.distances.shape[0]):
            for j, n in enumerate(self.n_grid):
                fh.write(f"{r},{n},{self.distances[r, j]:.17g}\n")


def old_profile_csv(path, scale):
    with open(path, "w") as fh:
        fh.write("month,day,scale\n")
        for (mo, da), s in sorted(scale.items()):
            fh.write(f"{mo},{da},{s:.17g}\n")


def old_acf_csv(path, rho):
    with open(path, "w") as fh:
        fh.write("lag,rho\n")
        for h, v in enumerate(rho):
            fh.write(f"{h},{v:.17g}\n")


def old_render_plot(
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

    finite = [
        s.points[np.all(np.isfinite(s.points), axis=1)] for s in series if len(s.points)
    ]
    allpts = np.vstack([p for p in finite if p.shape[0]]) if finite else np.empty((0, 2))
    if allpts.shape[0]:
        x_lo, x_hi = float(allpts[:, 0].min()), float(allpts[:, 0].max())
        y_lo, y_hi = float(allpts[:, 1].min()), float(allpts[:, 1].max())
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

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = s.points[np.all(np.isfinite(s.points), axis=1)]
        out.append(f'<g class="series series-{s.kind}" id="series-{i}">')
        if s.kind == "line" and pts.shape[0] >= 2:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        else:
            for x, y in pts:
                out.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="1.6" '
                    f'fill="{color}" fill-opacity="0.55"/>'
                )
        out.append("</g>")

    text_y = mt - 12
    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="{text_y}" text-anchor="middle" '
            f'font-family="monospace" font-size="13" fill="#111111">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#111111">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{mt + ph / 2:.0f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#111111" '
            f'transform="rotate(-90 14 {mt + ph / 2:.0f})">{ylabel}</text>'
        )
    for j, note in enumerate(annotations):
        out.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * j}" font-family="monospace" '
            f'font-size="11" fill="#222222" class="annotation">{note}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


_POINTS = re.compile(r'points="([^"]*)"')
_CENTRE = re.compile(r'<circle cx="([^"]*)" cy="([^"]*)"')


def cell(position: str) -> tuple:
    """The quarter-pixel cell of a printed "x,y" position."""
    return tuple(round(4 * float(v)) for v in position.split(","))


def merge_marks(svg: str) -> str:
    """The old renderer's text with the circles of each cell drawn once.

    Within a series group, the k ``<circle .../>`` lines whose printed
    centres share a quarter-pixel cell become the first of them, with
    fill-opacity 1 - 0.45**k, in the order the cells first appear; a
    polyline drops each vertex equal to the one before it.  A series group
    opens and closes with its own lines, so no cell spans two series.
    """
    out, cells = [], {}
    for line in svg.split("\n"):
        if line.startswith("<circle"):
            cells.setdefault(cell(",".join(_CENTRE.match(line).groups())), []).append(line)
            continue
        for first, *rest in cells.values():
            out.append(first.replace(
                'fill-opacity="0.55"', f'fill-opacity="{1 - 0.45**(1 + len(rest)):.4g}"'))
        cells = {}
        out.append(_POINTS.sub(lambda m: 'points="%s"' % " ".join(
            v for v, _ in itertools.groupby(m.group(1).split(" "))), line))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# inputs

SPECIAL = np.array([
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 3.0, -7.0,
    1e16, 2.0**53 + 1, math.pi, 1 / 3, 123456789.123456789,
])
# lengths about the end of the first chunk and of the second one
BOUNDARIES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]
LENGTHS = [0, 1, *BOUNDARIES]


def mixed(n, seed=0):
    """n doubles spanning many magnitudes, with the special values mixed in:
    every other one in 1e-6..1e19, around the fixed-notation range of %.17g."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    x[1::2] = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-5, 19, n // 2)
    x[: min(n, SPECIAL.size)] = SPECIAL[: min(n, SPECIAL.size)]
    return x


def same_bytes(write_new, write_old, tmp_path):
    a, b = tmp_path / "new", tmp_path / "old"
    write_new(a)
    write_old(b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# writers


class TestCsvWriterBytes:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_values(self, tmp_path, n):
        v = mixed(n)
        same_bytes(lambda p: write_csv(p, "value", [v]),
                   lambda p: old_write_values_csv(p, v), tmp_path)

    def test_values_with_non_finite(self, tmp_path):
        v = np.array([np.nan, np.inf, -np.inf, 1.5])
        same_bytes(lambda p: write_csv(p, "value", [v]),
                   lambda p: old_write_values_csv(p, v), tmp_path)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_point_set(self, tmp_path, n):
        pts = ts.PointSet2D(np.column_stack([mixed(n, 1), mixed(n, 2)]).reshape(-1, 2))
        same_bytes(pts.write_csv, lambda p: old_point_set_write_csv(pts, p), tmp_path)

    @pytest.mark.parametrize("n", [1, CHUNK + 1, 2 * CHUNK + 1])
    def test_int64_trace_columns(self, tmp_path, n):
        m = np.arange(1, n + 1, dtype=np.int64) * 3
        tr = ts.EstimatorTrace("hill", m, mixed(n))
        same_bytes(lambda p: write_csv(p, "m,value", [tr.m, tr.value]),
                   lambda p: old_write_trace_csv(p, tr), tmp_path)

    def test_convergence_report(self, tmp_path):
        rep = ts.run_convergence(
            ts.Pareto(2), "positive", (1000, 2000), reps=2, seed=ts.RandomSeed(8)
        )
        same_bytes(rep.write_csv, lambda p: old_convergence_write_csv(rep, p), tmp_path)
        grid = tuple(range(10, 10 * (CHUNK // 2 + 2), 10))  # 3 reps cross a chunk
        wide = ts.ConvergenceReport(
            rep.model, rep.case, grid, rep.k_rule, rep.window, rep.resolution,
            rep.seed, mixed(3 * len(grid)).reshape(3, len(grid)),
        )
        same_bytes(wide.write_csv, lambda p: old_convergence_write_csv(wide, p), tmp_path)

    def test_cli_outputs(self, tmp_path):
        sample = tmp_path / "sample.csv"
        old_write_values_csv(sample, ts.Pareto(2).sample(CHUNK + 2, ts.RandomSeed(3)))
        out = tmp_path / "est"
        assert main(["estimate", "--input", str(sample), "--format", "csv",
                     "--out", str(out)]) == 0
        ordered = ts.order_statistics(old_read_values_csv(sample))
        for kind in ("hill", "pickands", "moment"):
            old_write_trace_csv(tmp_path / "ref.csv", ts.trace(ordered, kind))
            assert (out / f"{kind}_trace.csv").read_bytes() == (
                tmp_path / "ref.csv").read_bytes(), kind

    def test_analyze_outputs(self, tmp_path):
        comp = ts.synthetic_composite(6, [0.5, -0.3], ts.Exponential(1), ts.RandomSeed(6))
        src = tmp_path / "series.csv"
        src.write_text("date,value\n" + "".join(
            f"{d},{v:.17g}\n" for d, v in zip(comp.dates, comp.values)))
        out = tmp_path / "a"
        assert main(["analyze", "--input", str(src), "--format", "csv",
                     "--out", str(out)]) == 0
        _, profile = ts.deseasonalize(ts.load_csv(src))
        old_profile_csv(tmp_path / "profile.csv", profile.scale)
        resid = old_read_values_csv(out / "residuals.csv")
        old_write_values_csv(tmp_path / "residuals.csv", resid)
        old_acf_csv(tmp_path / "acf.csv", ts.acf(resid, min(40, resid.size - 1)))
        for name in ("profile.csv", "residuals.csv", "acf.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


# each double is written by %.17g; 1e-4 <= |v| < 1e17 is fixed notation
FIXED_EDGES = [
    (9.9999999999999991e-05, "9.9999999999999991e-05"),
    (1e-4, "0.0001"),
    (-0.00012345678901234567, "-0.00012345678901234567"),  # the longest field
    (np.nextafter(1e16, 0), "9999999999999998"),
    (1e16, "10000000000000000"),
    (np.nextafter(1e16, 1e17), "10000000000000002"),
    (99999999999999984.0, "99999999999999984"),
    (1e17, "1e+17"),
    (1234567890123456.75, "1234567890123456.8"),  # ties round half to even
    (1234567890123455.25, "1234567890123455.2"),
    (-123456789012345.625, "-123456789012345.62"),
    (0.1, "0.10000000000000001"),
    (1200.0, "1200"),
    (-2.5, "-2.5"),
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1e300, "1.0000000000000001e+300"),
]


class TestFixedNotationKernel:
    def test_edges(self, tmp_path):
        v = np.array([x for x, _ in FIXED_EDGES])
        path = tmp_path / "v.csv"
        write_csv(path, "value", [v])
        assert path.read_text() == "value\n" + "".join(f"{w}\n" for _, w in FIXED_EDGES)
        same_bytes(lambda p: write_csv(p, "value", [v]),
                   lambda p: old_write_values_csv(p, v), tmp_path)

    def test_int64_extremes_in_a_d_column(self, tmp_path):
        # and the edges of the one-word digit layout, [0, 10^8)
        m = np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max,
                      10**8 - 1, 10**8, -1, 0])
        path = tmp_path / "t.csv"
        write_csv(path, "m,value", [m, np.array([0.5, 1e-4, -3.0, 1.0, 2.0, 3.0, 4.0])])
        assert path.read_text() == ("m,value\n-9223372036854775808,0.5\n0,0.0001\n"
                                    "9223372036854775807,-3\n99999999,1\n100000000,2\n"
                                    "-1,3\n0,4\n")

    def test_no_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, "x,y", [np.empty(0), np.empty(0)])
        assert path.read_bytes() == b"x,y\n"


def _from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# any double: hypothesis's own floats, raw bit patterns, the fixed-notation
# range of either sign, and quarters above 2^48, whose 18th digit is a 5
DOUBLES = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.floats(1e-5, 2e17).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(2**50, 2**53 - 1).map(lambda i: i / 4),
)


# a chunk of a few records puts a short list through the pool of workers,
# more than two chunks per worker keeping some in wait
CHUNKS = st.sampled_from([CHUNK, 1, 2, 3, 7])


@settings(max_examples=300, deadline=None)
@given(x=st.lists(DOUBLES, max_size=30), y=st.lists(DOUBLES, max_size=30), chunk=CHUNKS)
def test_float_columns_match_the_fstring_writers(tmp_path_factory, x, y, chunk):
    tmp = tmp_path_factory.mktemp("kernel")
    v = np.array(x, dtype=np.float64)
    pts = ts.PointSet2D(np.array(list(zip(x, y)), dtype=np.float64).reshape(-1, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "CHUNK", chunk)
        same_bytes(lambda p: write_csv(p, "value", [v]),
                   lambda p: old_write_values_csv(p, v), tmp)
        same_bytes(pts.write_csv, lambda p: old_point_set_write_csv(pts, p), tmp)


# any int64, and values about the edges of the one-word digit layout, 0 and
# 10^8, and about 10^16, where Python's text takes a third word
INT64S = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-10**8, 10**8),
                   st.integers(-10**16, 10**16))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(INT64S, INT64S, DOUBLES), max_size=30), chunk=CHUNKS)
def test_int_columns_match_the_fstring_writers(tmp_path_factory, rows, chunk):
    tmp = tmp_path_factory.mktemp("ints")
    a, b = (np.array([r[j] for r in rows], dtype=np.int64) for j in (0, 1))
    v = np.array([r[2] for r in rows], dtype=np.float64)

    def old(path):
        with open(path, "w") as fh:
            fh.write("a,b,v\n")
            for i, j, x in zip(a.tolist(), b.tolist(), v.tolist()):
                fh.write(f"{i},{j},{x:.17g}\n")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "CHUNK", chunk)
        same_bytes(lambda p: write_csv(p, "a,b,v", [a, b, v]), old, tmp)


class TestWorkers:
    """CSV chunks are formatted, and read, on a pool of worker threads."""

    def test_bytes_and_bits_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        n = 3 * CHUNK + 5
        m, v = np.arange(n, dtype=np.int64) - CHUNK, mixed(n)
        written, read = [], []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tabular, "_workers", lambda: workers)
            path = tmp_path / f"{workers}.csv"
            write_csv(path, "m,value", [m, v])
            written.append(path.read_bytes())
            write_csv(path, "value", [v])
            read.append(read_csv(path, "value").view(np.uint64))
        assert written[0] == written[1] == written[2]
        np.testing.assert_array_equal(read[0], v.view(np.uint64))
        np.testing.assert_array_equal(read[1], read[0])
        np.testing.assert_array_equal(read[2], read[0])

    def test_no_thread_outlives_a_call(self, tmp_path):
        before = threading.active_count()
        write_csv(tmp_path / "v.csv", "value", [mixed(3 * CHUNK)])
        assert threading.active_count() == before
        read_csv(tmp_path / "v.csv", "value")
        assert threading.active_count() == before

    def test_a_worker_error_reaches_the_caller_unchanged(self, tmp_path, monkeypatch):
        boom, calls, kernel = RuntimeError("boom"), itertools.count(), tabular._float_fields

        def failing(x):
            if next(calls) == 2:
                raise boom
            return kernel(x)

        monkeypatch.setattr(tabular, "_float_fields", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as exc:
            write_csv(tmp_path / "v.csv", "value", [mixed(6 * CHUNK)])
        assert exc.value is boom
        assert threading.active_count() == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_write_joins_the_pool(self):
        before = threading.active_count()
        with pytest.raises(OSError) as exc:
            write_csv("/dev/full", "value", [mixed(6 * CHUNK)])
        assert exc.value.errno == errno.ENOSPC
        assert threading.active_count() == before

    def test_a_failed_read_joins_the_pool(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("value\n" + "1.5\n" * CHUNK + "x1\n" + "2.5\n" * (4 * CHUNK))
        before = threading.active_count()
        with pytest.raises(ParseError, match=r"bad value 'x1'$"):
            read_csv(path, "value")
        assert threading.active_count() == before


class PartError(Exception):
    pass


@settings(max_examples=80)
@given(n=st.integers(0, 40), workers=st.integers(1, 3),
       fails=st.sets(st.integers(0, 39), max_size=3), take_fails=st.none() | st.integers(0, 39))
def test_in_order_raises_the_first_error_in_part_order(n, workers, fails, take_fails):
    # work fails at each part in fails, take at take_fails; work(p) comes before take(p)
    taken = []

    def work(p):
        if p in fails:
            raise PartError("work", p)
        return p

    def take(p):
        if p == take_fails:
            raise PartError("take", p)
        taken.append(p)

    first = min((p for p in range(n) if p in fails or p == take_fails), default=None)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "_workers", lambda: workers)
        if first is None:
            tabular._in_order(work, range(n), take, True)
        else:
            with pytest.raises(PartError) as exc:
                tabular._in_order(work, range(n), take, True)
            assert exc.value.args == ("work" if first in fails else "take", first)
    assert taken == list(range(n if first is None else first))
    assert threading.active_count() == before


class TestKeyvalWriterBytes:
    def test_lines_match_the_per_line_formats(self, tmp_path):
        """Each line reads as its f-string would: floats %.17g, anything else by
        str, and the items of a list, tuple or array the same, joined by commas."""
        v = mixed(8)
        path = tmp_path / "kv.txt"
        write_keyvals(path, [("n", 7), ("trim", "5:9"), ("slope", float(v[0])),
                             ("rss", v[1]), ("coefficients", v[2:]),
                             ("empty", np.empty(0)), ("n_grid", (10, 20)),
                             ("hill", "skipped (m=1)")])
        want = ["n=7", "trim=5:9", f"slope={float(v[0]):.17g}", f"rss={v[1]:.17g}",
                "coefficients=" + ",".join(f"{c:.17g}" for c in v[2:]), "empty=",
                "n_grid=" + ",".join(str(n) for n in (10, 20)), "hill=skipped (m=1)"]
        assert path.read_text() == "\n".join(want) + "\n"


def render_both(tmp_path, series, **labels):
    new, old = tmp_path / "new.svg", tmp_path / "old.svg"
    render_plot(new, series, **labels)
    old_render_plot(old, series, **labels)
    assert new.read_bytes() == merge_marks(old.read_text()).encode()
    return new


def cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.standard_normal(n), rng.pareto(2.0, n)])


def lattice(n):
    """n points of a square grid a few pixels apart: one circle per cell."""
    side = math.isqrt(n - 1) + 1
    i = np.arange(n)
    return np.column_stack([i % side, i // side]).astype(float)


class TestRenderPlotBytes:
    LABELS = dict(title="t", xlabel="x", ylabel="y", annotations=["a=1", "b=2"])

    def test_empty_point_set(self, tmp_path):
        render_both(tmp_path, [Series(np.empty((0, 2)))], **self.LABELS)
        render_both(tmp_path, [Series(np.empty((0, 2)), "line"),
                               Series(cloud(5), "scatter")])

    def test_one_point_line_falls_back_to_circles(self, tmp_path):
        path = render_both(tmp_path, [Series(cloud(20), "scatter"),
                                      Series(np.array([[0.5, 1.0]]), "line")])
        assert path.read_text().count("<circle") == 21

    def test_non_finite_rows_dropped(self, tmp_path):
        pts = cloud(10)
        pts[[1, 4], 0] = np.nan
        pts[7, 1] = np.inf
        pts[8, 0] = -np.inf
        path = render_both(tmp_path, [Series(pts, "scatter"), Series(pts, "line")],
                           **self.LABELS)
        assert path.read_text().count("<circle") == 6

    def test_series_with_no_finite_row(self, tmp_path):
        pts = np.array([[np.nan, 1.0], [2.0, np.inf]])
        with pytest.raises(ValueError):  # the per-mark renderer stacked no rows
            old_render_plot(tmp_path / "old.svg", [Series(pts, "scatter")])
        path = tmp_path / "new.svg"
        render_plot(path, [Series(pts, "scatter"), Series(pts, "line")])
        text = path.read_text()
        assert "<circle" not in text and "<polyline" not in text
        assert text.endswith("</g>\n</svg>\n")

    def test_special_values(self, tmp_path):
        x = np.array([-0.0, 0.0, 5e-324, 3.0, -7.0, 2.0, 1e16])
        render_both(tmp_path, [Series(np.column_stack([x, x[::-1]]), "scatter"),
                               Series(np.column_stack([x, x]), "line")])
        huge = np.array([[0.0, -1.0], [1e308, 1.0], [5e307, 2.0**53]])
        render_both(tmp_path, [Series(huge, "scatter"), Series(huge, "line")])

    def test_int64_points(self, tmp_path):
        m = np.arange(1, 40, dtype=np.int64)
        render_both(tmp_path, [Series(np.column_stack([m, m * m]), "line"),
                               Series(np.column_stack([m, 3 * m]), "scatter")])

    @pytest.mark.parametrize("n", BOUNDARIES)
    def test_chunk_boundaries(self, tmp_path, n):
        path = render_both(tmp_path, [Series(lattice(n), "scatter"),
                                      Series(cloud(n, 3), "line")], **self.LABELS)
        text = path.read_text()
        assert text.count("<circle") == n
        points = text.split('<polyline points="')[1].split('"')[0]
        assert len(points.split(" ")) == n


_GROUP = re.compile(r'<g class="series[^"]*" id="series-\d+">\n(.*?)</g>', re.S)
_MARK = re.compile(
    r'<circle cx="([^"]*)" cy="([^"]*)" [^>]*fill-opacity="([^"]*)"/>|points="([^"]*)"'
)


def series_marks(svg: str) -> list:
    """Per series group, its marks in order as (position text, opacity or None)."""
    groups = []
    for body in _GROUP.findall(svg):
        marks = []
        for cx, cy, opacity, points in _MARK.findall(body):
            marks += [(f"{cx},{cy}", opacity)] if cx else [(v, None) for v in points.split(" ")]
        groups.append(marks)
    return groups


# screen coordinates of a 640 x 480 canvas whose data range is [0, 1] on
# both axes: render_plot's margins and 4 % padding


def _sx(x):
    return 62 + (x + 0.04) / 1.08 * 562


def _sy(y):
    return 34 + 400 - (y + 0.04) / 1.08 * 400


def _near_half(px_of, draw):
    """Values in [0, 1] a few ulps apart, whose screen coordinate times 100
    lies within ulps of one half-integer: there rounding the product and
    ``%.2f`` of the coordinate can disagree.  The x.125-like targets are
    also quarter-pixel cell edges."""
    whole = draw(st.integers(*sorted((int(px_of(0.0)), int(px_of(1.0)) - 1))))
    cents = draw(st.one_of(st.sampled_from([12, 37, 62, 87]), st.integers(0, 99)))
    return st.integers(-6, 6).map(lambda steps: _half_way(px_of, whole, cents, steps))


def _half_way(px_of, whole, cents, steps):
    """The value ``steps`` ulps from the one whose screen coordinate is
    whole + (cents + 0.5) / 100, kept in [0, 1]."""
    target = whole + (cents + 0.5) / 100  # x.125 and the like are exact doubles
    base = (target - px_of(0.0)) / (px_of(1.0) - px_of(0.0))
    return float(np.clip(base + steps * np.spacing(base), 0.0, 1.0))


def _shifted(row_and_px):
    """A row moved by the given screen offsets, kept in [0, 1]^2."""
    (x, y), dx, dy = row_and_px
    return (float(np.clip(x + dx * 1.08 / 562, 0.0, 1.0)),
            float(np.clip(y - dy * 1.08 / 400, 0.0, 1.0)))


@st.composite
def tie_heavy_series(draw):
    """One to three series over a shared pool of rows in [0, 1]^2, whose
    coordinates come from a few values per axis (grid points, floats, values
    around one half-integer coordinate), plus rows less than half a pixel
    from another, inside its cell or across an edge; each row repeated up to
    five times.  The first series holds (0, 0) and (1, 1), which fix the
    data range."""
    grid = st.integers(0, 4).map(lambda i: i / 4)
    xs, ys = (draw(st.lists(st.one_of(grid, st.floats(0, 1), _near_half(px_of, draw)),
                            min_size=1, max_size=4)) for px_of in (_sx, _sy))
    row = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    pool = draw(st.lists(row, min_size=1, max_size=8))
    px = st.floats(-0.4, 0.4)
    pool += draw(st.lists(st.tuples(st.sampled_from(pool), px, px).map(_shifted), max_size=4))
    out = []
    for i in range(draw(st.integers(1, 3))):
        rows = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(0, 12)))]
        rows = [r for r in rows for _ in range(draw(st.integers(1, 5)))]
        if i == 0:
            rows = [(0.0, 0.0), (1.0, 1.0)] + rows
        pts = np.array(rows, dtype=float).reshape(-1, 2)
        out.append(Series(pts, draw(st.sampled_from(["scatter", "line"]))))
    return out


class TestMarkMerge:
    def test_circles_of_a_cell_are_one_at_the_stacked_opacity(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        path = render_both(tmp_path, [Series(pts, "scatter"), Series(pts, "line")])
        scatter, line = series_marks(path.read_text())
        assert [o for _, o in scatter] == ["0.7975", "0.9089"]
        assert len(line) == 3

    def test_cell_edges(self, tmp_path):
        # screen x 300.11, 300.12, 300.13 and 300.38: the cell edges 300.125
        # and 300.375 leave the first two in one cell and the others alone
        x = (np.array([300.11, 300.12, 300.13, 300.38]) - 62) * 1.08 / 562 - 0.04
        pts = np.column_stack([np.r_[0.0, x, 1.0], np.r_[0.0, 0.5, 0.5, 0.5, 0.5, 1.0]])
        path = render_both(tmp_path, [Series(pts, "scatter")])
        (scatter,) = series_marks(path.read_text())
        assert [(p.split(",")[0], o) for p, o in scatter[1:4]] == [
            ("300.11", "0.7975"), ("300.13", "0.55"), ("300.38", "0.55")]

    def test_half_way_vertices(self, tmp_path):
        # each line walks the 13 doubles around a screen x half-way between
        # two 0.01-px values at one height; where px * 100 rounds onto the
        # half-integer, rint and %.2f disagree and the text decides
        rng = np.random.default_rng(5)
        lines = [Series(np.array([[0.0, 0.0], [1.0, 1.0]]))]
        for _ in range(40):
            whole, cents = int(rng.integers(70, 600)), int(rng.integers(0, 100))
            x = [_half_way(_sx, whole, cents, steps) for steps in range(-6, 7)]
            lines.append(Series(np.column_stack([x, np.full(13, 0.5)]), "line"))
        render_both(tmp_path, lines)

    def test_no_merge_crosses_series(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        # each series starts where the one before it ends
        path = render_both(tmp_path, [Series(pts), Series(pts[::-1]), Series(pts, "line")])
        assert [len(g) for g in series_marks(path.read_text())] == [2, 2, 2]

    @settings(max_examples=300)
    @given(series=tie_heavy_series())
    def test_merged_marks_expand_to_the_old_marks(self, scratch, series):
        render_plot(scratch / "new.svg", series)
        old_render_plot(scratch / "old.svg", series)
        new_text = (scratch / "new.svg").read_text()
        assert new_text == merge_marks((scratch / "old.svg").read_text())
        new = series_marks(new_text)
        old = series_marks((scratch / "old.svg").read_text())
        assert len(new) == len(old) == len(series)
        for marks, before in zip(new, old):
            if before and before[0][1] is None:
                # a polyline: each vertex is one maximal run of the old ones
                runs = [p for p, _ in itertools.groupby(p for p, _ in before)]
                assert [p for p, _ in marks] == runs
                continue
            # circles: one per cell, at the cell's first old position, in the
            # order the cells first appear, stacked as deep as the cell
            cells = Counter(cell(p) for p, _ in before)
            firsts = {}
            for p, _ in before:
                firsts.setdefault(cell(p), p)
            assert [p for p, _ in marks] == [firsts[c] for c in cells]
            assert [o for _, o in marks] == [f"{1 - 0.45**k:.4g}" for k in cells.values()]


class TestLongSeries:
    """Marks of more than ten chunks, so the rows cross many chunk ends."""

    def test_trace_shaped_polyline(self, tmp_path):
        sample = ts.order_statistics(np.random.default_rng(8).pareto(2.0, 200_001) + 1.0)
        tr = ts.trace(sample, "hill")
        assert tr.m.size > 10 * CHUNK
        path = render_both(tmp_path, [Series(np.column_stack([tr.m, tr.value]), "line")])
        (line,) = series_marks(path.read_text())
        # a smooth trace keeps fewer vertices than it has
        assert len(line) > 5 * CHUNK

    def test_scatter(self, tmp_path):
        pts = np.random.default_rng(9).uniform(0.0, 1.0, (200_000, 2))
        path = render_both(tmp_path, [Series(pts, "scatter")])
        (scatter,) = series_marks(path.read_text())
        assert len(scatter) > 10 * CHUNK
        # cells of one, two and more circles: the opacities are gathered
        assert {"0.55", "0.7975", "0.9089"} < {o for _, o in scatter}


def old_cells(xy):
    """The cells by one stable sort of every circle's key."""
    cx, cy = (np.rint(c * 4.0) for c in xy)
    _, first, count = np.unique(cx * 2.0**32 + cy, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], count[order]


# few values per axis, so long runs and repeated cells; every axis is
# finite, so are the screen coordinates that reach _cells
AXIS = st.sampled_from([100.0, 100.1, 100.2, 300.0, 62.0, 623.9])


@given(xy=st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[hnp.arrays(np.float64, n, elements=AXIS)] * 2)))
def test_cells_match_one_stable_sort(xy):
    want, got = old_cells(list(xy)), _cells(list(xy))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def cent_text(values) -> bytes:
    """The ``%.2f`` kernel's text of values, joined by spaces."""
    x = np.array(values, dtype=float)
    fh = io.BytesIO()
    write_rows(fh, [("%.2f", x, cents(x))], sep=b" ")
    return fh.getvalue()


def _ulps_from_half_cent(whole, cents_, steps):
    target = whole + (cents_ + 0.5) / 100
    return target + steps * float(np.spacing(target))


CENT_VALUES = st.one_of(
    st.floats(0.0, 1e7, exclude_max=True),
    st.floats(0.0, 700.0),
    # the exact x.xx5 doubles: x.125, x.375, x.625 and x.875
    st.builds(lambda whole, eighths: whole + eighths / 8,
              st.integers(0, 10**7 - 1), st.sampled_from([1, 3, 5, 7])),
    # a few ulps either side of a half-cent, anywhere in the kernel's range
    st.builds(_ulps_from_half_cent, st.integers(0, 10**7 - 1), st.integers(0, 99),
              st.integers(-6, 6)),
    # and the screen x of data a few ulps either side of one
    st.builds(lambda whole, cents_, steps: _sx(_half_way(_sx, whole, cents_, steps)),
              st.integers(62, 623), st.integers(0, 99), st.integers(-6, 6)),
    # the values left to Python's %.2f
    st.sampled_from([-0.0, -0.004, -0.006, -2.5, 1e7, 1e7 - 0.004, 9999999.995, 1e22,
                     1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
)


class TestCentKernel:
    @settings(max_examples=500)
    @given(values=st.lists(CENT_VALUES, min_size=1, max_size=40))
    def test_bytes_match_percent_2f(self, values):
        assert cent_text(values) == " ".join("%.2f" % v for v in values).encode()

    def test_half_cents_and_their_neighbours(self):
        # every cent of three pixels, each half-cent and six ulps either side
        values = [_ulps_from_half_cent(whole, c, steps) for whole in (0, 301, 9_999_999)
                  for c in range(100) for steps in range(-6, 7)]
        assert cent_text(values) == " ".join("%.2f" % v for v in values).encode()

    def test_keys_are_the_printed_cents_or_minus_one(self):
        # 0.005 * 100 rounds to 0.5, and 0.125 is a tie: both are left to %.2f
        x = np.array([0.0, 0.004, 0.005, 0.125, 0.375, 12.3449999, 9999999.99, -0.0, -0.001,
                      1e7, math.nan, math.inf])
        assert cents(x).tolist() == [0, 0, -1, -1, -1, 1234, 999999999, -1, -1, -1, -1, -1]

    def test_long_texts_widen_the_field(self):
        values = [1.5, 1e300, 2.25, -1e22, 3.0]
        assert cent_text(values) == " ".join("%.2f" % v for v in values).encode()


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, killed after 60 s, so a hang fails."""
    src = os.path.join(os.path.dirname(ts.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


class TestNiceTicks:
    def test_a_span_below_the_ulp_gives_one_tick(self):
        proc = _fresh_interpreter("from tailscope.svgplot import _nice_ticks\n"
                           "print(_nice_ticks(1e16, 1e16 + 4))\n")
        assert (proc.returncode, proc.stdout) == (0, "[1e+16]\n"), proc.stderr

    def test_ticks_that_advance_are_kept(self):
        assert _nice_ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
        # steps of one ulp still move the tick
        assert _nice_ticks(1e16, 1e16 + 12) == [1e16 + 2 * i for i in range(7)]


class TestExtremeAxes:
    """Axes whose span overflows, or whose +-0.5 pad is absorbed, stay finite."""

    @pytest.mark.parametrize("pts", [
        [[-1e308, 0.0], [1e308, 1.0], [0.0, 5.0]],  # x spans more than the double range
        [[1e17, 0.0], [1e17, 1.0]],  # x beyond 2^53 at every point
        [[0.0, 1.7976931348623157e308], [1.0, 1.7976931348623157e308]],  # y the largest double
        [[-1.7976931348623157e308, 1.0], [1.7976931348623157e308, -1e-300]],
    ], ids=["span", "constant-1e17", "constant-max", "full-range"])
    def test_ticks_and_marks_are_finite(self, tmp_path, pts):
        path = tmp_path / "p.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_plot(path, [Series(np.array(pts), "scatter"), Series(np.array(pts), "line")])
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        numbers = re.findall(r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]*)"', text)
        numbers += re.findall(r'points="([^"]*)"', text)[0].replace(",", " ").split()
        assert all(0.0 <= float(v) <= 640.0 for v in numbers)
        # %.4g of the largest double reads 1.798e+308, past it: match the text
        labels = re.findall(r'text-anchor="(?:middle|end)">([^<]*)</text>', text)
        assert labels and all(re.fullmatch(r"-?\d(\.\d+)?(e[-+]\d+)?|-?\d+(\.\d+)?", v)
                              for v in labels)

    @pytest.mark.parametrize("pts", [
        [[12345.678, 0.0], [12345.678, 1.0]],  # five ticks, %.4g 1.235e+04 each
        [[1e17, 0.0], [1e17, 1.0]],  # three ticks, %.4g 1e+17 each
        [[0.0, 12345.678], [1.0, 12345.678]],
    ], ids=["constant-12345.678", "constant-1e17", "constant-y"])
    def test_each_axis_labels_its_ticks_apart(self, tmp_path, pts):
        path = tmp_path / "p.svg"
        render_plot(path, [Series(np.array(pts))])
        text = path.read_text()
        for anchor in ("middle", "end"):  # x, then y
            labels = re.findall(f'text-anchor="{anchor}">([^<]*)</text>', text)
            assert len(labels) > 1 and len(set(labels)) == len(labels), labels

    def test_span_of_the_double_range_ticks_round_numbers(self, tmp_path):
        path = tmp_path / "p.svg"
        render_plot(path, [Series(np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 5.0]]))])
        labels = re.findall(r'text-anchor="middle">([^<]*)</text>', path.read_text())
        assert labels == ["-8e+307", "-4e+307", "0", "4e+307", "8e+307"]

    def test_meplot_of_a_sample_past_the_double_range(self, tmp_path):
        src = tmp_path / "big.csv"
        src.write_text("value\n-1e308\n1e308\n0\n5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["meplot", "--input", str(src), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "me_plot.svg").read_text()
        assert "nan" not in text.split('class="annotation"')[0]


# ---------------------------------------------------------------------------
# reader


class TestCsvReader:
    MESSY = (
        "value\n1.5\n\n  2.5  \n-0\nvalue\n3,ignored,fields\n,7\n 4e-3 ,x\n"
        "1_000\ninf\r\n-inf\n5e-324\n"
    )

    def test_values_match_old_reader(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(self.MESSY)
        got = read_csv(path, "value")
        assert got.shape == (9,)
        old = old_read_values_csv(path)
        np.testing.assert_array_equal(got.view(np.uint64), old.view(np.uint64))

    def test_bad_value_message_matches_old_reader(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("value\n1.0\n2.0\n  abc ,1\n3.0\n")
        with pytest.raises(ParseError) as old:
            old_read_values_csv(path)
        with pytest.raises(ParseError) as new:
            read_csv(path, "value")
        assert str(new.value) == str(old.value)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.one_of(
        st.floats(allow_nan=False).map(repr), st.integers(-99, 99).map(str),
        st.sampled_from(["", "value", "1_000", "abc", "-0", "nan", "inf", "\u0661"])),
        max_size=6),
        pads=st.lists(st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f",
                                       "\u00a0", "\u3000", "\r"]), min_size=12, max_size=12),
        tails=st.lists(st.sampled_from(["", ",", ",x", ",1,2"]), min_size=6, max_size=6),
        end=st.sampled_from(["\n", "\r\n", "\r"]), messy=st.booleans())
    def test_messy_text_matches_old_reader(self, lines, pads, tails, end, messy,
                                           tmp_path_factory):
        # equal bits, or the same message; where the old reader found no
        # values the new one gives an empty array, which the CLI refuses.
        # Without padding and extra fields the lines are taken as they are
        if not messy:
            pads, tails = [""] * 12, [""] * 6
        text = end.join(pads[2 * i] + ln + pads[2 * i + 1] + tails[i]
                        for i, ln in enumerate(lines))
        path = tmp_path_factory.mktemp("messy") / "v.csv"
        path.write_bytes(("value" + end + text + end).encode())
        try:
            old = old_read_values_csv(path)
        except ParseError as exc:
            if str(exc).endswith(": no values"):
                assert read_csv(path, "value").size == 0
                return
            with pytest.raises(ParseError) as new:
                read_csv(path, "value")
            assert str(new.value) == str(exc)
            return
        got = read_csv(path, "value")
        assert np.array_equal(got.view(np.uint64), old.view(np.uint64))

    @pytest.mark.parametrize("text", [
        "value\r1.5\r2.5\r",  # CR line ends
        "value\r\n1.5\r\r\n2.5\r\n",  # a CR before a CRLF
        "value\r\n1.5\r\n2.5\r",  # a final CR
        "value\n1.5\n2.5\r",
        "value\r\n1.5\n\r\n-2.5\r\n\n",  # mixed line ends, empty lines
        "value\r\n1.5\r\nx\r\n",  # a bad value
    ], ids=["cr", "cr-crlf", "final-cr-crlf", "final-cr-lf", "mixed", "bad"])
    def test_carriage_returns_match_old_reader(self, tmp_path, text):
        # only a CR right before a newline keeps a file plain
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode())
        plain = tabular._plain_cells(text.encode()) is not None
        assert plain == (text.replace("\r\n", "\n").count("\r") == 0)
        try:
            old = old_read_values_csv(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as new:
                read_csv(path, "value")
            assert str(new.value) == str(exc)
            return
        got = read_csv(path, "value")
        assert np.array_equal(got.view(np.uint64), old.view(np.uint64))

    @pytest.mark.parametrize("text", [
        "value\n1.5\r2.5\n",  # a lone CR
        "value\r\n1.5\r\n2.5\r",  # a final CR
        'value\n"1.5"\n2.5\n',  # a quote
        "value\n1.5\x00\n2.5\n",  # a NUL byte
    ], ids=["lone-cr", "final-cr", "quote", "nul"])
    def test_off_the_byte_path(self, tmp_path, monkeypatch, text):
        # such a file is not plain: it is read as text, as the old reader read it
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode())
        assert tabular._plain_cells(text.encode()) is None

        def refuse(*args, **kwargs):
            raise AssertionError("the decimal kernel called on a file that is not plain")

        monkeypatch.setattr(tabular, "_decimal_cells", refuse)
        try:
            old = old_read_values_csv(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as new:
                read_csv(path, "value")
            assert str(new.value) == str(exc)
            return
        assert np.array_equal(read_csv(path, "value").view(np.uint64), old.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.one_of(
        st.floats(allow_nan=False).map(repr), st.integers(-99, 99).map(str),
        st.sampled_from(["", "value", "1_000", "abc", "-0", "nan", "inf", " 2.5", "3,x",
                         '"4"', "\u0661"])), max_size=8),
        final=st.booleans())
    def test_crlf_reads_as_lf(self, lines, final, tmp_path_factory):
        # the same bits, or the same message, with either line end
        path = tmp_path_factory.mktemp("crlf") / "v.csv"
        lf = "value\n" + "\n".join(lines) + "\n" * final
        got = []
        for text in (lf, lf.replace("\n", "\r\n")):
            path.write_bytes(text.encode())
            try:
                got.append(read_csv(path, "value").view(np.uint64).tolist())
            except ParseError as exc:
                got.append(str(exc))
        assert got[0] == got[1]

    def test_no_values_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        path.write_text("value\n\n")
        with pytest.raises(ParseError) as old:
            old_read_values_csv(path)
        assert main(["meplot", "--input", str(path), "--out", str(tmp_path)]) == 4
        assert str(old.value) in capsys.readouterr().err


def _token(digits: str, point: int, neg: bool) -> str:
    """digits with a point before digit ``point`` (none when negative), and a sign."""
    if point >= 0:
        point = min(point, len(digits))
        digits = digits[:point] + "." + digits[point:]
    return "-" * neg + digits


def _midpoint_cut(x: float, digits: int, rounding: str) -> str:
    """The midpoint of x and the next double up, rounded to a number of
    significant digits, in fixed notation."""
    mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
    return format(Context(prec=digits, rounding=rounding).plus(mid), "f")


# doubles whose fixed notation fits the kernel: spread over the range, from
# 2^51 up (where midpoints have 18 digits or fewer, so exact ties occur), and
# at binade edges and just below them
MIDPOINT_BASES = st.one_of(
    st.floats(1e-5, 1e18),
    st.floats(2.0**51, 1e18),
    st.integers(-16, 59).map(lambda e: math.ldexp(1.0, e)),
    st.integers(-16, 59).map(lambda e: math.nextafter(math.ldexp(1.0, e), 0.0)),
)
DECIMAL_TOKENS = st.one_of(
    # 1-20 digits, the point anywhere or nowhere: ".5", "5.", "-0", "007.50"
    st.builds(_token, st.text("0123456789", min_size=1, max_size=20),
              st.integers(-3, 20), st.booleans()),
    # longer than the kernel's 24 bytes
    st.builds(_token, st.text("0123456789", min_size=24, max_size=40),
              st.integers(-3, 40), st.booleans()),
    st.builds(_midpoint_cut, MIDPOINT_BASES, st.sampled_from([17, 18, 19]),
              st.sampled_from([ROUND_DOWN, ROUND_HALF_EVEN, ROUND_UP])),
    # the kernel's bounds: 24 bytes, 22 digits after the point, 18 digits
    st.sampled_from(["." + "0" * 5 + "1" * 18, "-." + "1" * 22, "0." + "0" * 21 + "1", "1" * 24,
                     "9" * 18, "1" + "0" * 18, "0" * 5 + "9" * 18 + ".", "-" + "9" * 17 + ".9"]),
    # what the kernel leaves to float(), and what float() refuses
    st.sampled_from(["inf", "-nan", "1e5", "1_000", "+2.5", "0x10", ".", "-", "1.2.3",
                     "--1", "1-"]),
)


class TestDecimalKernel:
    """The plain-file reader against ``float`` on each token."""

    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(DECIMAL_TOKENS, min_size=1, max_size=30))
    def test_bits_or_message_match_float(self, tokens, tmp_path_factory):
        path = tmp_path_factory.mktemp("decimals") / "v.csv"
        path.write_text("value\n" + "\n".join(tokens) + "\n")
        try:
            old = old_read_values_csv(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as new:
                read_csv(path, "value")
            assert str(new.value) == str(exc)
            return
        got = read_csv(path, "value")
        assert np.array_equal(got.view(np.uint64), old.view(np.uint64))

    def test_written_pareto_sample_needs_no_float_call(self, tmp_path, monkeypatch):
        # a too-cautious certificate stays exact but sends rows to float()
        x = ts.Pareto(2).sample(100_000, ts.RandomSeed(1))
        path = tmp_path / "sample.csv"
        write_csv(path, "value", [x])

        def refuse(path, tok):
            raise AssertionError(f"float() fallback on {tok!r}")

        monkeypatch.setattr(tabular, "_float", refuse)
        np.testing.assert_array_equal(read_csv(path, "value").view(np.uint64),
                                      x.view(np.uint64))
        # as spreadsheet programs write it: a byte order mark first, and CRLF line ends
        lf = path.read_bytes()
        for data in (codecs.BOM_UTF8 + lf, lf.replace(b"\n", b"\r\n"),
                     codecs.BOM_UTF8 + lf.replace(b"\n", b"\r\n")):
            path.write_bytes(data)
            np.testing.assert_array_equal(read_csv(path, "value").view(np.uint64),
                                          x.view(np.uint64))

    def test_first_bad_token_in_file_order(self, tmp_path):
        # the first chunk holds a token float() reads, then a bad one; a later chunk another
        path = tmp_path / "v.csv"
        path.write_text("value\n1e3\n" + "1.5\n" * (CHUNK - 2) + "x1\n" + "2.5\n" * CHUNK + "x2\n")
        with pytest.raises(ParseError, match=r"bad value 'x1'$"):
            read_csv(path, "value")


# ---------------------------------------------------------------------------
# round trip

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@settings(max_examples=200, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(1, 40), elements=FINITE))
def test_values_round_trip_exactly(scratch, values):
    path = scratch / "values.csv"
    write_csv(path, "value", [values])
    back = read_csv(path, "value")
    np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(points=hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)),
                         elements=FINITE))
def test_point_set_round_trip_exactly(scratch, points):
    path = scratch / "points.csv"
    ts.PointSet2D(points).write_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 2)
    assert back.shape == points.shape
    np.testing.assert_array_equal(back.view(np.uint64), points.view(np.uint64))
