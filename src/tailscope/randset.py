"""Set-valued convergence diagnostics for normalized mean excess plots.

Convergence of the rescaled plots is convergence of closed sets; on a
fixed bounded window it can be monitored with the Hausdorff distance
between the empirical point set and a discretized limit set.  This module
provides the straight limit lines of the three shape < 1 cases, the
windowed distance, and seeded replication experiments around them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dist import DistributionModel, PositiveStable, RandomSeed, _check_size, quantile_b
from .empirics import (
    PointSet2D,
    _check_count,
    _check_top_k,
    default_k,
    normalize_negative,
    normalize_positive,
    normalize_heavy,
    normalize_zero,
    order_statistics,
)
from .errors import ConfigError, EmptyWindowError, ParameterError
from .estimators import ls_fit
from .tabular import write_csv

__all__ = [
    "Window",
    "LimitLine",
    "LineGrid",
    "discretize",
    "hausdorff_window",
    "ConvergenceReport",
    "run_convergence",
    "InterceptResult",
    "intercept_experiment",
    "EXPERIMENT_MANIFEST",
    "default_window",
    "limit_set",
]

# Versioned experiment manifest; reports embed this version string.
EXPERIMENT_MANIFEST = {"version": "1"}


@dataclass(frozen=True)
class Window:
    """Axis-parallel closed rectangle [x_lo, x_hi] x [y_lo, y_hi], with finite bounds."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise ParameterError("window bounds must be finite")
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ParameterError("window must have positive extent")

    @property
    def diag(self) -> float:
        return math.hypot(self.x_hi - self.x_lo, self.y_hi - self.y_lo)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return (
            (pts[:, 0] >= self.x_lo)
            & (pts[:, 0] <= self.x_hi)
            & (pts[:, 1] >= self.y_lo)
            & (pts[:, 1] <= self.y_hi)
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_lo, self.x_hi, self.y_lo, self.y_hi)


# ---------------------------------------------------------------------------
# limit sets


@dataclass(frozen=True)
class LimitLine:
    """The straight limit set {(t, y0 + slope (t - x0)) : t in t_domain}."""

    slope: float
    x0: float = 0.0
    y0: float = 0.0
    t_domain: tuple[float, float] = (0.0, math.inf)

    def points_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, self.y0 + self.slope * (t - self.x0)])


@dataclass(frozen=True)
class LineGrid(PointSet2D):
    """Points of a limit line at increasing t, as ``discretize`` samples them:
    sorted by x, and carrying the line, which ``restrict`` keeps."""

    line: LimitLine


def discretize(limit: LimitLine, window: Window, resolution: int = 512) -> LineGrid:
    """Sample the limit line inside the window, as a grid that carries the line.

    Consecutive sampled points along the line are at most
    diag(window)/resolution apart before the window filter, so every line
    point inside the window has a sampled neighbour within that gap.
    """
    if resolution < 1:
        raise ParameterError("resolution must be positive")
    t_lo = max(window.x_lo, limit.t_domain[0])
    t_hi = min(window.x_hi, limit.t_domain[1])
    if t_lo > t_hi:
        return LineGrid(np.empty((0, 2)), limit)
    delta = window.diag / resolution
    if t_lo == t_hi:
        return LineGrid(limit.points_at(t_lo), limit).restrict(window)
    n = resolution + 1
    while True:
        t = np.linspace(t_lo, t_hi, n)
        pts = limit.points_at(t)
        gaps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        if gaps.size == 0 or gaps.max() <= delta or n > (1 << 21):
            break
        n *= 2
    return LineGrid(pts, limit).restrict(window)


# ---------------------------------------------------------------------------
# distances

# brute-force nearest-point scans hold at most this many squared distances at once
_BLOCK = 1 << 20


def hausdorff_window(a: PointSet2D, b: PointSet2D, window: Window) -> float:
    """Hausdorff distance between two point sets restricted to a window.

    Every distance is sqrt(dx*dx + dy*dy), the expression that
    ``scipy.spatial.cKDTree`` evaluates, and the result is the largest of
    the per-point minima bit for bit.  There are two paths:

    - If either set is a ``LineGrid`` (as ``discretize`` returns), numpy
      alone does it.  Each cloud point projects onto the line at tau, the x
      of its foot; the grid's x is already its order along the line.  Each
      point of either set is bounded by its distance to the four points of
      the other set around it in that order, found with one
      ``searchsorted``.  The cost is two sorts plus the rescans below.
    - Otherwise ``scipy.spatial.cKDTree`` answers the queries; it is
      imported here, so that importing the package loads no scipy.

    The line path is exact whatever the layout: each bound is the distance
    to a real point, so it is at least that point's minimum.  Points are
    then rescanned against the whole other set in descending order of their
    bound, until no bound left exceeds the largest exact minimum found; the
    grid side starts from the cloud side's maximum.  On the convergence
    clouds that takes one rescan per side; the worst case is a brute force,
    O(|A| |B|).
    """
    pa, pb = a.restrict(window), b.restrict(window)
    if len(pa) == 0 and len(pb) == 0:
        raise EmptyWindowError("both point sets miss the window", side="both")
    if len(pa) == 0:
        raise EmptyWindowError("first point set misses the window", side="first")
    if len(pb) == 0:
        raise EmptyWindowError("second point set misses the window", side="second")
    grid, cloud = (pa, pb) if isinstance(pa, LineGrid) else (pb, pa)
    if isinstance(grid, LineGrid):
        return _hausdorff_to_line(cloud.points, grid)
    from scipy.spatial import cKDTree

    d_ab = cKDTree(pb.points).query(pa.points, k=1)[0].max()
    d_ba = cKDTree(pa.points).query(pb.points, k=1)[0].max()
    return float(max(d_ab, d_ba))


def _sq_dist(x1, y1, x2, y2) -> np.ndarray:
    """Squared distances, summed as ``cKDTree`` sums them."""
    dx, dy = x1 - x2, y1 - y2
    return dx * dx + dy * dy


def _hausdorff_to_line(cloud: np.ndarray, grid: LineGrid) -> float:
    """``hausdorff_window`` between a cloud and a nonempty line grid."""
    g, gx, s = grid.points, grid.x, grid.line.slope
    # each cloud point's projection onto the line, as the x of its foot
    tau = gx[0] + ((cloud[:, 0] - gx[0]) + s * (cloud[:, 1] - g[0, 1])) / (1.0 + s * s)
    order = np.argsort(tau, kind="stable")
    d2 = _max_nearest(cloud, g, _near_in_order(cloud, tau, g, gx))
    d2 = _max_nearest(g, cloud, _near_in_order(g, gx, cloud[order], tau[order]), d2)
    return math.sqrt(d2)


def _near_in_order(p: np.ndarray, tp: np.ndarray, q: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """For each point of p, its least squared distance to the four points of q
    around it along the line: p's positions tp among q's sorted positions tq."""
    near = np.searchsorted(tq, tp)[:, None] + np.arange(-2, 2)
    np.clip(near, 0, tq.size - 1, out=near)
    return _sq_dist(p[:, :1], p[:, 1:], q[near, 0], q[near, 1]).min(axis=1)


def _nearest(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance from each point of p to its nearest point of q, by brute force."""
    out = np.empty(len(p))
    step = max(1, _BLOCK // len(q))
    for i in range(0, len(p), step):
        blk = p[i:i + step]
        out[i:i + step] = _sq_dist(blk[:, :1], blk[:, 1:], q[:, 0], q[:, 1]).min(axis=1)
    return out


def _max_nearest(p: np.ndarray, q: np.ndarray, bound: np.ndarray,
                 best: float = -math.inf) -> float:
    """The larger of best and the largest squared distance from a point of p to
    its nearest point of q, given bound[i] >= that distance for p[i].

    Points are rescanned against all of q, those of largest bound first, in
    batches that double, until no bound left exceeds the largest exact value;
    a point whose bound does not exceed best is never rescanned.
    """
    batch = 1
    todo = np.flatnonzero(bound > best)
    while todo.size:
        if todo.size > batch:
            todo = todo[np.argpartition(bound[todo], todo.size - batch)]
        pick, todo = todo[-batch:], todo[:-batch]
        best = max(best, float(_nearest(p[pick], q).max()))
        todo = todo[bound[todo] > best]
        batch *= 2
    return best


# ---------------------------------------------------------------------------
# experiments


def _negative_window(xi: float | None) -> Window:
    if xi is None:
        raise ParameterError("negative case needs the shape")
    return Window(0.0, 1.0, min(0.0, xi / (xi - 1.0)) - 0.1, 0.5)


@dataclass(frozen=True)
class _Case:
    """A deterministic-limit case: the shapes it covers, its limit line, the
    normalization whose clouds converge to it, and its observation window."""

    covers: Callable[[float], bool]
    needs: str  # ends "<case> case needs ..." for a shape the case does not cover
    limit: Callable[[float], LimitLine]
    normalize: Callable[..., PointSet2D]
    window: Callable[[float | None], Window]


# The normalizers are looked up in this module's globals at call time, so a
# wrapper installed there (a profiler's, say) sees every call.
_CASES = {
    # the ray y = t xi/(1-xi), t >= 1
    "positive": _Case(
        lambda xi: 0 < xi < 1, "shape in (0,1)",
        lambda xi: LimitLine(xi / (1.0 - xi), t_domain=(1.0, math.inf)),
        lambda s, k: normalize_positive(s, k), lambda xi: Window(1.0, 3.0, 0.0, 4.0),
    ),
    # the segment y = (t-1) xi/(1-xi), 0 <= t <= 1
    "negative": _Case(
        lambda xi: xi < 0, "negative shape",
        lambda xi: LimitLine(xi / (1.0 - xi), x0=1.0, t_domain=(0.0, 1.0)),
        lambda s, k: normalize_negative(s, k), _negative_window,
    ),
    # the line y = 1, t >= 0
    "zero": _Case(
        lambda xi: xi == 0, "shape 0", lambda xi: LimitLine(0.0, y0=1.0),
        lambda s, k: normalize_zero(s, k), lambda xi: Window(0.0, 3.0, 0.0, 2.0),
    ),
}


def _case(case: str, error=ParameterError) -> _Case:
    if case not in _CASES:
        raise error(f"case must be one of {tuple(_CASES)}")
    return _CASES[case]


def default_window(case: str, xi: float | None = None) -> Window:
    """Standard observation window for each deterministic-limit case."""
    return _case(case).window(xi)


def limit_set(case: str, xi: float) -> LimitLine:
    """The line that a case's normalized plots of shape xi converge to."""
    spec = _case(case)
    if xi is None or not spec.covers(xi):
        raise ParameterError(f"{case} case needs {spec.needs}, got {xi}")
    return spec.limit(xi)


def _resolve_k_rule(k_rule) -> tuple[Callable[[int], int], str]:
    """k = floor(n**exponent), default_k unless an exponent is given, and its description."""
    if k_rule is None:
        return default_k, "floor(n**0.7)"
    if isinstance(k_rule, bool) or not isinstance(k_rule, (int, float)):
        raise ConfigError("k_rule must be an exponent")
    exponent = float(k_rule)
    if not 0 < exponent < 1:
        raise ConfigError("k-rule exponent must lie in (0, 1)")
    return (lambda n: int(math.floor(n**exponent))), f"floor(n**{exponent:g})"


def _top_k(k_fn: Callable[[int], int], n: int) -> int:
    """The k-rule's k for an n-sample, checked before the draw: a bad n or k
    raises the error that drawing n values and normalizing them would."""
    _check_size(n)
    _check_count(n)
    k = k_fn(n)
    _check_top_k(k, n)
    return k


def _cells(model: DistributionModel, n_grid: Sequence[int], reps: int, seed: RandomSeed,
           k_fn: Callable[[int], int]):
    """Yield (r, j, k, top k order statistics of an n_grid[j]-sample) for every
    replication r, with k = k_fn(n_grid[j]) checked just before the cell's draw.

    Each (r, j) cell draws from its own Philox stream, seed.stream + r *
    len(n_grid) + j, so the result does not depend on evaluation order.  A
    cell draws all n uniforms of that stream, as ``model.sample(n, cell)``
    would, but only the k largest go through the quantile
    (``model.sample(n, cell, k)``).  Every normalizer reads only them: X_(1)
    to X_(k), and strict exceedance counts over thresholds at or above X_(k).
    Where the quantile is nondecreasing at the ulp scale (see
    ``DistributionModel.sample``), these are the full sample's k largest, so
    each distance, slope and intercept is bit for bit that of all n values.
    """
    for r in range(reps):
        for j, n in enumerate(n_grid):
            k = _top_k(k_fn, int(n))
            cell = seed.with_stream(seed.stream + r * len(n_grid) + j)
            yield r, j, k, order_statistics(model.sample(int(n), cell, k))


@dataclass(frozen=True)
class ConvergenceReport:
    """Replicated windowed Hausdorff distances along a sample-size grid.

    ``missed`` counts the cells whose cloud has no point in the window; each
    reads the window's diagonal, the largest distance that two nonempty sets
    inside it can have.
    """

    model: str
    case: str
    n_grid: tuple
    k_rule: str
    window: Window
    resolution: int
    seed: RandomSeed
    distances: np.ndarray  # shape (reps, len(n_grid))
    missed: int = 0

    def medians(self) -> np.ndarray:
        return np.median(self.distances, axis=0)

    def write_csv(self, path) -> None:
        reps, cols = self.distances.shape
        rep, n = np.repeat(np.arange(reps), cols), np.tile(self.n_grid, reps)
        write_csv(path, "rep,n,distance", [rep, n, self.distances.ravel()])

    def manifest_pairs(self) -> list[tuple]:
        """The run's key=value manifest, in order; the window is written as %g."""
        return [
            ("manifest_version", EXPERIMENT_MANIFEST["version"]),
            ("model", self.model),
            ("case", self.case),
            ("n_grid", self.n_grid),
            ("k_rule", self.k_rule),
            ("window", ",".join(f"{v:g}" for v in self.window.as_tuple())),
            ("resolution", self.resolution),
            ("seed", self.seed.seed),
            ("stream", self.seed.stream),
            ("reps", self.distances.shape[0]),
        ]


def run_convergence(
    model: DistributionModel,
    case: str,
    n_grid: Sequence[int],
    reps: int,
    seed: RandomSeed,
    k_rule=None,
    window: Window | None = None,
    resolution: int = 512,
) -> ConvergenceReport:
    """Replicate normalized plots along n_grid and measure distances.

    Replication r is coupled across n only through sharing the rep index
    (see ``_cells``), making paired comparisons along the grid meaningful.
    """
    spec = _case(case, ConfigError)
    xi = model.domain_shape
    if xi is None:
        raise ConfigError(f"{model.label()} has no declared shape")
    if not spec.covers(xi):
        raise ConfigError(f"{case} case needs {spec.needs}, model has {xi:g}")
    if reps < 1 or len(n_grid) == 0:
        raise ConfigError("need reps >= 1 and a nonempty n grid")
    if resolution < 1:
        raise ConfigError("resolution must be positive")

    k_fn, k_desc = _resolve_k_rule(k_rule)
    if window is None:
        window = spec.window(xi)
    limit_pts = discretize(limit_set(case, xi), window, resolution)
    if len(limit_pts) == 0:
        w = ",".join(f"{v:g}" for v in window.as_tuple())
        raise ConfigError(f"the {case} limit for shape {xi:g} misses the window {w}; "
                          "pass a --window that it crosses")

    dist = np.empty((reps, len(n_grid)))
    missed = 0
    for r, j, k, sample in _cells(model, n_grid, reps, seed, k_fn):
        cloud = spec.normalize(sample, k)
        try:
            dist[r, j] = hausdorff_window(cloud, limit_pts, window)
        except EmptyWindowError:  # the limit is inside the window, so the cloud missed it
            dist[r, j] = window.diag
            missed += 1
    return ConvergenceReport(
        model.label(),
        case,
        tuple(int(n) for n in n_grid),
        k_desc,
        window,
        resolution,
        seed,
        dist,
        missed,
    )


@dataclass(frozen=True)
class InterceptResult:
    """Log-log reading of replicated heavy-shape normalizations.

    ``slopes`` estimate 1/xi; ``intercepts`` estimate the log of the
    stable scale draw and are comparable to ``reference`` (logs of direct
    draws from the limit law); ``dropped`` counts points lost to the log
    transform per replication.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    reference: np.ndarray
    dropped: np.ndarray


def intercept_experiment(
    model: DistributionModel,
    n: int,
    reps: int,
    seed: RandomSeed,
    k_rule=None,
) -> InterceptResult:
    """Fit log-log lines to heavy-shape normalized plots, vs. the limit law."""
    xi = model.domain_shape
    if xi is None or not xi > 1:
        raise ConfigError("intercept experiment needs a model with shape > 1")
    k_fn, _ = _resolve_k_rule(k_rule)
    k = _top_k(k_fn, int(n))
    b_nk = quantile_b(model, n / k)
    b_n = quantile_b(model, float(n))
    slopes = np.empty(reps)
    intercepts = np.empty(reps)
    dropped = np.empty(reps, dtype=int)
    for r, _, _, sample in _cells(model, (n,), reps, seed, k_fn):
        cloud = normalize_heavy(sample, k, b_nk, b_n)
        ok = (cloud.x > 0) & (cloud.y > 0)
        dropped[r] = int(np.count_nonzero(~ok))
        fit = ls_fit(np.column_stack([np.log(cloud.x[ok]), np.log(cloud.y[ok])]), "raw")
        slopes[r] = fit.slope
        intercepts[r] = fit.intercept
    limit_law = PositiveStable(xi)
    reference = np.log(limit_law.sample(reps, seed.with_stream(seed.stream + reps)))
    return InterceptResult(slopes, intercepts, reference, dropped)
