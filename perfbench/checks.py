"""Output checks made apart from the program.

Each check reads the files a tailscope command wrote and compares them with
a computation of the benchmark's own (math.fsum, numpy's lstsq, brute-force
distances) or with a property the method must have.  None compares with a
stored copy of earlier output.  A check returns a list of problems; an empty
list means the output passed.  The tolerances are justified in README.md.
"""
from __future__ import annotations

import math
import re
import xml.parsers.expat
from pathlib import Path

import numpy as np

# Relative tolerances: far above the rounding spread measured on correct
# output, far below what a wrong formula or an off-by-one count gives.
ME_RTOL = 1e-9
FIT_RTOL = 1e-9
TRACE_RTOL = 1e-9
PROFILE_RTOL = 1e-9
HAUSDORFF_RTOL = 1e-9

PARETO2_XI_BAND = (0.45, 0.55)
KS_ALPHA = 1e-6
AR_PHI = (0.5, -0.3)
INNOVATION_XI = 0.2
CANVAS = (640.0, 480.0)


# ---------------------------------------------------------------------------
# readers


def read_values(path) -> np.ndarray:
    """The 'value' column of a one-column CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header names and the numeric rows of a CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def read_keyvals(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# meplot and estimate


def mean_excess_reference(desc: np.ndarray, u: float) -> float:
    """Mean of X - u over X > u, summed exactly with math.fsum."""
    c = int(np.count_nonzero(desc > u))
    return math.fsum((desc[:c] - u).tolist()) / c


def mean_excess_all(desc: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mean excess at every threshold in u, cumulated in extended precision."""
    asc = desc[::-1]
    c = desc.size - np.searchsorted(asc, u, side="right")
    csum = np.cumsum(desc.astype(np.longdouble))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.asarray(csum[np.maximum(c, 1) - 1] / c - u, dtype=float)


def check_me_plot(desc: np.ndarray, me_dir, spot: int = 100) -> list[str]:
    """me_plot.csv row by row against the sample's order statistics and mean
    excesses, exactly (math.fsum) at `spot` log-spaced rows; summary.txt
    against an lstsq line through me_plot.csv.

    `desc` is the sample the command read, sorted in descending order.
    """
    me_csv, summary_txt = Path(me_dir) / "me_plot.csv", Path(me_dir) / "summary.txt"
    header, pts = read_table(me_csv)
    if header != ["x", "y"]:
        return [f"{me_csv}: header {header}"]
    summary = read_keyvals(summary_txt)
    lo, _, hi = summary["trim"].partition(":")
    lo, hi = int(lo), int(hi)
    if pts.shape[0] != hi - lo + 1:
        return [f"{me_csv}: {pts.shape[0]} rows for trim {lo}:{hi}"]
    x, y = pts[:, 0], pts[:, 1]
    problems = []
    wrong = np.flatnonzero(x != desc[lo - 1:hi])  # row r holds the threshold X_(lo + r)
    if wrong.size:
        r = wrong[0]
        problems.append(f"{me_csv}: {wrong.size} thresholds are not the order statistics, "
                        f"first row {r}: {float(x[r])!r} against X_({lo + r}) = {float(desc[lo + r - 1])!r}")
    want = mean_excess_all(desc, x)
    off = np.flatnonzero(~(np.abs(y - want) <= ME_RTOL * np.abs(want)))
    if off.size:
        r = off[0]
        problems.append(f"{me_csv}: {off.size} mean excesses off, first row {r}: "
                        f"{float(y[r])!r} against {float(want[r])!r}")
    for r in np.unique(np.geomspace(1, pts.shape[0], spot).astype(int)) - 1:
        exact = mean_excess_reference(desc, x[r])
        if not _close(y[r], exact, ME_RTOL):
            problems.append(f"{me_csv} row {r}: mean excess {float(y[r])!r}, fsum gives {exact!r}")
            break

    slope, intercept = ls_reference(pts)
    for key, want in (("slope", slope), ("intercept", intercept)):
        got = float(summary[key])
        if not _close(got, want, FIT_RTOL):
            problems.append(f"{summary_txt}: {key}={got!r}, lstsq gives {want!r}")
    xi = float(summary["xi_hat"])
    if not _close(xi, slope / (1.0 + slope), FIT_RTOL):
        problems.append(f"{summary_txt}: xi_hat={xi!r} is not slope/(1+slope)")
    return problems


def ls_reference(pts: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of y = a + b x by numpy's SVD least squares."""
    x, y = pts[:, 0], pts[:, 1]
    xm = math.fsum(x.tolist()) / x.size
    design = np.column_stack([np.ones_like(x), x - xm])
    (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(b), float(a - b * xm)


def hill_reference(desc: np.ndarray, m: int) -> float:
    logs = np.log(desc[:m] / desc[m])
    return m / math.fsum(logs.tolist())


def moment_reference(desc: np.ndarray, m: int) -> float:
    logs = np.log(desc[:m] / desc[m])
    h1 = math.fsum(logs.tolist()) / m
    h2 = math.fsum((logs * logs).tolist()) / m
    return h1 + 1.0 - 0.5 / (1.0 - h1 * h1 / h2)


def traces_all(desc: np.ndarray, m: np.ndarray) -> dict:
    """Hill and moment estimates at every m, cumulated in extended precision."""
    logs = np.log(desc.astype(np.longdouble))
    c1, c2 = np.cumsum(logs), np.cumsum(logs * logs)
    pivot = logs[m]
    h1 = c1[m - 1] / m - pivot
    h2 = c2[m - 1] / m - 2.0 * pivot * c1[m - 1] / m + pivot * pivot
    with np.errstate(invalid="ignore", divide="ignore"):
        return {"hill": np.asarray(1.0 / h1, dtype=float),
                "moment": np.asarray(h1 + 1.0 - 0.5 / (1.0 - h1 * h1 / h2), dtype=float)}


def check_traces(desc: np.ndarray, est_dir, spot: int = 24) -> list[str]:
    """hill_trace.csv and moment_trace.csv at every m against the estimators'
    formulas, and exactly (math.fsum) at `spot` log-spaced m.  The sample
    must be positive and untied, as every benchmark sample is."""
    n = desc.size
    problems = []
    # untied positive data skip no m but the moment estimator's m = 1, where
    # one log spacing makes h1^2 = h2
    for kind, exact, m_first in (("hill", hill_reference, 1), ("moment", moment_reference, 2)):
        path = Path(est_dir) / f"{kind}_trace.csv"
        header, rows = read_table(path)
        if header != ["m", "value"]:
            problems.append(f"{path}: header {header}")
            continue
        m_all = np.arange(m_first, n)
        if not np.array_equal(rows[:, 0], m_all):
            problems.append(f"{path}: m column is not {m_first}..{n - 1}")
            continue
        got = rows[:, 1]
        want = traces_all(desc, m_all)[kind]
        off = np.flatnonzero(~(np.abs(got - want) <= TRACE_RTOL * np.abs(want)))
        if off.size:
            i = off[0]
            problems.append(f"{path}: {off.size} values off, first m={m_all[i]}: "
                            f"{float(got[i])!r} against {float(want[i])!r}")
        for m in np.unique(np.geomspace(2, n - 1, spot).astype(int)):
            pos = int(np.searchsorted(m_all, m))
            if pos < m_all.size and m_all[pos] == m and not _close(got[pos], exact(desc, int(m)), TRACE_RTOL):
                problems.append(f"{path} m={m}: {float(got[pos])!r}, fsum gives {exact(desc, int(m))!r}")
                break
    return problems


def check_pareto2_fit(desc: np.ndarray, summary_txt) -> list[str]:
    """The ME shape reading lies near 0.5 and the sample follows 1 - x^-2."""
    problems = []
    xi = float(read_keyvals(summary_txt)["xi_hat"])
    if not PARETO2_XI_BAND[0] <= xi <= PARETO2_XI_BAND[1]:
        problems.append(f"{summary_txt}: xi_hat={xi:.4f} outside {PARETO2_XI_BAND}")
    x = desc[::-1]
    n = x.size
    cdf = -np.expm1(-2.0 * np.log(x))
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
    critical = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))
    if not d <= critical:
        problems.append(f"sample: KS distance {d:.5f} to 1 - x^-2 above {critical:.5f}")
    return problems


# ---------------------------------------------------------------------------
# SVG


_MARK = re.compile(r'<circle cx="([^"]*)" cy="([^"]*)"|<polyline points="([^"]*)"')


def svg_marks(text: str) -> np.ndarray:
    """(m, 2) array of the circle centres and polyline vertices in SVG text."""
    coords = []
    for cx, cy, poly in _MARK.findall(text):
        coords.append(f"{cx},{cy}" if cx else poly.replace(" ", "\n"))
    flat = "\n".join(coords).replace(",", "\n")
    return np.array(flat.split(), dtype=float).reshape(-1, 2) if flat else np.empty((0, 2))


def check_svg(path) -> list[str]:
    """The file parses as XML and every mark lies on the 640 x 480 canvas."""
    data = Path(path).read_bytes()
    try:
        # one Parse call: fed in chunks, expat rescans a 10 MB polyline
        # attribute once per chunk
        xml.parsers.expat.ParserCreate().Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        return [f"{path}: not XML ({exc})"]
    marks = svg_marks(data.decode())
    if marks.shape[0] == 0:
        return [f"{path}: no marks"]
    w, h = CANVAS
    off = ~((marks[:, 0] >= 0) & (marks[:, 0] <= w) & (marks[:, 1] >= 0) & (marks[:, 1] <= h))
    if off.any():
        return [f"{path}: {int(off.sum())} marks off the canvas, first at {marks[off][0]}"]
    return []


def distinct_marks(path) -> tuple[int, int]:
    """Marks and distinct 0.01-px positions among them."""
    marks = svg_marks(Path(path).read_text())
    keys = np.round(marks * 100.0).astype(np.int64)
    return marks.shape[0], int(np.unique(keys[:, 0] * (1 << 32) + keys[:, 1]).size)


# ---------------------------------------------------------------------------
# converge


def window_of(manifest_txt) -> tuple[float, ...]:
    return tuple(float(v) for v in read_keyvals(manifest_txt)["window"].split(","))


def check_distances(conv_dir, grid, reps: int, converges: bool) -> list[str]:
    """Every distance finite and within the window diagonal; with `converges`,
    the median at the largest n lies below the median at the smallest."""
    conv_dir = Path(conv_dir)
    x0, x1, y0, y1 = window_of(conv_dir / "manifest.txt")
    diag = math.hypot(x1 - x0, y1 - y0)
    header, rows = read_table(conv_dir / "distances.csv")
    if header != ["rep", "n", "distance"] or rows.shape[0] != reps * len(grid):
        return [f"{conv_dir}/distances.csv: header {header}, {rows.shape[0]} rows"]
    d = rows[:, 2]
    bad = ~(np.isfinite(d) & (d >= 0) & (d <= diag))
    if bad.any():
        return [f"{conv_dir}/distances.csv: {int(bad.sum())} distances outside [0, {diag:.4g}]"]
    med = {n: float(np.median(d[rows[:, 1] == n])) for n in grid}
    if converges and not med[max(grid)] < med[min(grid)]:
        return [f"{conv_dir}: median distance {med[max(grid)]:.4g} at n={max(grid)} "
                f"not below {med[min(grid)]:.4g} at n={min(grid)}"]
    return []


def brute_hausdorff(a: np.ndarray, b: np.ndarray, window) -> float:
    """Windowed Hausdorff distance from every pairwise distance."""
    x0, x1, y0, y1 = window

    def inside(p):
        return p[(p[:, 0] >= x0) & (p[:, 0] <= x1) & (p[:, 1] >= y0) & (p[:, 1] <= y1)]

    a, b = inside(a), inside(b)
    to_b = np.empty(a.shape[0])
    to_a = np.full(b.shape[0], np.inf)
    for s in range(0, a.shape[0], 2048):
        block = np.hypot(a[s:s + 2048, None, 0] - b[None, :, 0], a[s:s + 2048, None, 1] - b[None, :, 1])
        to_b[s:s + 2048] = block.min(axis=1)
        np.minimum(to_a, block.min(axis=0), out=to_a)
    return float(max(to_b.max(), to_a.max()))


def check_hausdorff_calls(npz_path) -> tuple[int, list[str]]:
    """Every recorded hausdorff_window result against brute force."""
    problems = []
    with np.load(npz_path) as z:
        calls = len([k for k in z.files if k.startswith("d")])
        for i in range(calls):
            got = float(z[f"d{i}"])
            want = brute_hausdorff(z[f"a{i}"], z[f"b{i}"], tuple(z[f"w{i}"]))
            if not _close(got, want, HAUSDORFF_RTOL):
                problems.append(f"hausdorff_window call {i}: {got!r}, brute force {want!r}")
    return calls, problems


# ---------------------------------------------------------------------------
# analyze


def read_daily(path) -> tuple[np.ndarray, np.ndarray]:
    """Calendar keys month*100+day (Feb 29 pooled with Feb 28) and values."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str)
    keys = np.char.replace(np.char.partition(raw[:, 0], "-")[:, 2], "-", "").astype(int)
    keys[keys == 229] = 228
    return keys, raw[:, 1].astype(float)


def check_profile(input_csv, profile_csv) -> list[str]:
    keys, values = read_daily(input_csv)
    header, rows = read_table(profile_csv)
    if header != ["month", "day", "scale"]:
        return [f"{profile_csv}: header {header}"]
    want_keys = np.unique(keys)
    got_keys = (rows[:, 0] * 100 + rows[:, 1]).astype(int)
    if not np.array_equal(got_keys, want_keys):
        return [f"{profile_csv}: calendar days differ from the input's"]
    problems = []
    for key, got in zip(got_keys, rows[:, 2]):
        obs = values[keys == key].tolist()
        mean = math.fsum(obs) / len(obs)
        want = math.sqrt(math.fsum((v - mean) ** 2 for v in obs) / (len(obs) - 1))
        if not _close(got, want, PROFILE_RTOL):
            problems.append(f"{profile_csv} {key // 100:02d}-{key % 100:02d}: {float(got)!r}, std gives {want!r}")
    return problems[:5]


def check_ar(ar_txt, phi_tol: float) -> list[str]:
    ar = read_keyvals(ar_txt)
    order = int(ar["order"])
    if order < 2:
        return [f"{ar_txt}: order {order} below the generator's 2"]
    phi = [float(c) for c in ar["coefficients"].split(",")]
    if any(abs(p - q) > phi_tol for p, q in zip(phi[:2], AR_PHI)):
        return [f"{ar_txt}: coefficients {phi[:2]} not within {phi_tol} of {AR_PHI}"]
    return []


def check_residual_shape(summary_txt, xi_tol: float) -> list[str]:
    xi = float(read_keyvals(summary_txt)["xi_hat_me"])
    if not abs(xi - INNOVATION_XI) <= xi_tol:
        return [f"{summary_txt}: xi_hat_me={xi:.4f} not within {xi_tol} of {INNOVATION_XI}"]
    return []


def check_rejected(returncode: int, stderr: str, date: str) -> list[str]:
    if returncode != 4 or f"duplicate date {date}" not in stderr:
        return [f"duplicate {date}: exit {returncode}, stderr {stderr.strip()[:200]!r}"]
    return []
