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
    """Axis-parallel closed rectangle [x_lo, x_hi] x [y_lo, y_hi]."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
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


def discretize(limit: LimitLine, window: Window, resolution: int = 512) -> PointSet2D:
    """Sample the limit line inside the window.

    Consecutive sampled points along the line are at most
    diag(window)/resolution apart before the window filter, so every line
    point inside the window has a sampled neighbour within that gap.
    """
    if resolution < 1:
        raise ParameterError("resolution must be positive")
    t_lo = max(window.x_lo, limit.t_domain[0])
    t_hi = min(window.x_hi, limit.t_domain[1])
    if t_lo > t_hi:
        return PointSet2D(np.empty((0, 2)))
    delta = window.diag / resolution
    if t_lo == t_hi:
        pts = limit.points_at(np.array([t_lo]))
        return PointSet2D(pts[window.contains(pts)])
    n = resolution + 1
    while True:
        t = np.linspace(t_lo, t_hi, n)
        pts = limit.points_at(t)
        gaps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        if gaps.size == 0 or gaps.max() <= delta or n > (1 << 21):
            break
        n *= 2
    return PointSet2D(pts[window.contains(pts)])


# ---------------------------------------------------------------------------
# distances


def hausdorff_window(a: PointSet2D, b: PointSet2D, window: Window) -> float:
    """Hausdorff distance between two point sets restricted to a window.

    The nearest-neighbour queries use ``scipy.spatial.cKDTree``, imported
    here so that importing the package loads no scipy.  The first call in a
    process pays that import: about 0.45 s on a 2-core x86-64 host, or about
    0.15 s when ``scipy.special`` (which it needs too) is already loaded, as
    after a Beta or LogNormal draw, against about 0.02 s for a warm call
    between a 15 848-point cloud and 4 000 limit points.
    """
    pa = a.points[window.contains(a.points)] if len(a) else a.points
    pb = b.points[window.contains(b.points)] if len(b) else b.points
    if pa.shape[0] == 0 and pb.shape[0] == 0:
        raise EmptyWindowError("both point sets miss the window", side="both")
    if pa.shape[0] == 0:
        raise EmptyWindowError("first point set misses the window", side="first")
    if pb.shape[0] == 0:
        raise EmptyWindowError("second point set misses the window", side="second")
    from scipy.spatial import cKDTree

    d_ab = cKDTree(pb).query(pa, k=1)[0].max()
    d_ba = cKDTree(pa).query(pb, k=1)[0].max()
    return float(max(d_ab, d_ba))


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
    (``model.sample(n, cell, k)``).  The quantile is nondecreasing, so these
    are exactly the k largest values of the full sample, and every
    normalizer reads only them: X_(1) to X_(k), and strict exceedance counts
    over thresholds at or above X_(k).  Each distance, slope and intercept is
    therefore the one that ordering all n values gives, bit for bit.
    """
    for r in range(reps):
        for j, n in enumerate(n_grid):
            k = _top_k(k_fn, int(n))
            cell = seed.with_stream(seed.stream + r * len(n_grid) + j)
            yield r, j, k, order_statistics(model.sample(int(n), cell, k))


@dataclass(frozen=True)
class ConvergenceReport:
    """Replicated windowed Hausdorff distances along a sample-size grid."""

    model: str
    case: str
    n_grid: tuple
    k_rule: str
    window: Window
    resolution: int
    seed: RandomSeed
    distances: np.ndarray  # shape (reps, len(n_grid))
    manifest_version: str = EXPERIMENT_MANIFEST["version"]

    def medians(self) -> np.ndarray:
        return np.median(self.distances, axis=0)

    def write_csv(self, path) -> None:
        reps, cols = self.distances.shape
        rep, n = np.repeat(np.arange(reps), cols), np.tile(self.n_grid, reps)
        write_csv(path, "rep,n,distance", [rep, n, self.distances.ravel()],
                  ["%d", "%d", "%.17g"])

    def manifest_lines(self) -> list[str]:
        w = self.window.as_tuple()
        return [
            f"manifest_version={self.manifest_version}",
            f"model={self.model}",
            f"case={self.case}",
            f"n_grid={','.join(str(n) for n in self.n_grid)}",
            f"k_rule={self.k_rule}",
            f"window={w[0]:g},{w[1]:g},{w[2]:g},{w[3]:g}",
            f"resolution={self.resolution}",
            f"seed={self.seed.seed}",
            f"stream={self.seed.stream}",
            f"reps={self.distances.shape[0]}",
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
    for r, j, k, sample in _cells(model, n_grid, reps, seed, k_fn):
        cloud = spec.normalize(sample, k)
        dist[r, j] = hausdorff_window(cloud, limit_pts, window)
    return ConvergenceReport(
        model.label(),
        case,
        tuple(int(n) for n in n_grid),
        k_desc,
        window,
        resolution,
        seed,
        dist,
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
