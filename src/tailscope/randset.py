"""Set-valued convergence diagnostics for normalized mean excess plots.

Convergence of the rescaled plots is convergence of closed sets; on a
fixed bounded window it can be monitored with the Hausdorff distance
between the empirical point set and a discretized limit set.  This module
provides the limit sets, the windowed distance, and seeded replication
experiments around them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .dist import DistributionModel, PositiveStable, RandomSeed, quantile_b
from .empirics import (
    PointSet2D,
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
    "PositiveLine",
    "HeavyCurve",
    "Xi1Curve",
    "NegativeSegment",
    "ZeroLine",
    "discretize",
    "hausdorff_window",
    "ConvergenceReport",
    "run_convergence",
    "InterceptResult",
    "intercept_experiment",
    "ks_two_sample",
    "EXPERIMENT_MANIFEST",
    "default_window",
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


class _Limit:
    """A parametrized limit curve t -> (x(t), y(t)) on a t-interval."""

    t_domain: tuple[float, float] = (0.0, math.inf)

    def points_at(self, t) -> np.ndarray:
        raise NotImplementedError

    def t_for_x_range(self, x_lo: float, x_hi: float) -> tuple[float, float] | None:
        """Parameter interval whose x-coordinates fall in [x_lo, x_hi] (default: x = t)."""
        return self._clip(x_lo, x_hi)

    def _clip(self, lo: float, hi: float) -> tuple[float, float] | None:
        lo = max(lo, self.t_domain[0])
        hi = min(hi, self.t_domain[1])
        return (lo, hi) if lo <= hi else None

    def label(self) -> str:
        return type(self).__name__


class PositiveLine(_Limit):
    """Ray {(t, t xi/(1-xi)) : t >= 1} for shape xi in (0, 1)."""

    t_domain = (1.0, math.inf)

    def __init__(self, xi: float):
        if not 0 < xi < 1:
            raise ParameterError("xi must lie in (0, 1)")
        self.xi = float(xi)
        self.slope = xi / (1.0 - xi)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, self.slope * t])

    def label(self):
        return f"positive-line(xi={self.xi:g})"


class HeavyCurve(_Limit):
    """Curve {(t^xi, t s) : t >= 1} for shape xi > 1 and a scale draw s."""

    t_domain = (1.0, math.inf)

    def __init__(self, xi: float, s: float):
        if not xi > 1:
            raise ParameterError("xi must exceed 1")
        if not s > 0:
            raise ParameterError("s must be positive")
        self.xi = float(xi)
        self.s = float(s)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t**self.xi, self.s * t])

    def t_for_x_range(self, x_lo, x_hi):
        if x_hi < 0:
            return None
        lo = max(x_lo, 0.0) ** (1.0 / self.xi) if x_lo > 0 else self.t_domain[0]
        hi = x_hi ** (1.0 / self.xi)
        return self._clip(lo, hi)

    def label(self):
        return f"heavy-curve(xi={self.xi:g},s={self.s:g})"


class Xi1Curve(_Limit):
    """Curve {(t, t (s - 1 - log t)) : t >= 1} for the shape-1 boundary."""

    t_domain = (1.0, math.inf)

    def __init__(self, s: float):
        self.s = float(s)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, t * (self.s - 1.0 - np.log(t))])

    def label(self):
        return f"xi1-curve(s={self.s:g})"


class NegativeSegment(_Limit):
    """Segment {(t, (t-1) xi/(1-xi)) : 0 <= t <= 1} for shape xi < 0."""

    t_domain = (0.0, 1.0)

    def __init__(self, xi: float):
        if not xi < 0:
            raise ParameterError("xi must be negative")
        self.xi = float(xi)
        self.slope = xi / (1.0 - xi)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, self.slope * (t - 1.0)])

    def label(self):
        return f"negative-segment(xi={self.xi:g})"


class ZeroLine(_Limit):
    """Horizontal line {(t, 1) : t >= 0} for shape 0."""

    t_domain = (0.0, math.inf)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, np.ones_like(t)])

    def label(self):
        return "zero-line"


def discretize(limit: _Limit, window: Window, resolution: int = 512) -> PointSet2D:
    """Sample the limit curve inside the window.

    Consecutive sampled points along the curve are at most
    diag(window)/resolution apart before the window filter, so every curve
    point inside the window has a sampled neighbour within that gap.
    """
    if resolution < 1:
        raise ParameterError("resolution must be positive")
    t_range = limit.t_for_x_range(window.x_lo, window.x_hi)
    if t_range is None:
        return PointSet2D(np.empty((0, 2)))
    t_lo, t_hi = t_range
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
    """Hausdorff distance between two point sets restricted to a window."""
    pa = a.points[window.contains(a.points)] if len(a) else a.points
    pb = b.points[window.contains(b.points)] if len(b) else b.points
    if pa.shape[0] == 0 and pb.shape[0] == 0:
        raise EmptyWindowError("both point sets miss the window", side="both")
    if pa.shape[0] == 0:
        raise EmptyWindowError("first point set misses the window", side="first")
    if pb.shape[0] == 0:
        raise EmptyWindowError("second point set misses the window", side="second")
    d_ab = cKDTree(pb).query(pa, k=1)[0].max()
    d_ba = cKDTree(pa).query(pb, k=1)[0].max()
    return float(max(d_ab, d_ba))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# experiments


def _negative_window(xi: float | None) -> Window:
    if xi is None:
        raise ParameterError("negative case needs the shape")
    return Window(0.0, 1.0, min(0.0, xi / (xi - 1.0)) - 0.1, 0.5)


@dataclass(frozen=True)
class _Case:
    """A deterministic-limit case: the shapes it covers, its limit set, the
    normalization whose clouds converge to it, and its observation window."""

    covers: Callable[[float], bool]
    needs: str  # ends "<case> case needs ..." for a shape the case does not cover
    limit: Callable[[float], _Limit]
    normalize: Callable[..., PointSet2D]
    window: Callable[[float | None], Window]


# The normalizers are looked up in this module's globals at call time, so a
# wrapper installed there (a profiler's, say) sees every call.
_CASES = {
    "positive": _Case(
        lambda xi: 0 < xi < 1, "shape in (0,1)", PositiveLine,
        lambda s, k: normalize_positive(s, k), lambda xi: Window(1.0, 3.0, 0.0, 4.0),
    ),
    "negative": _Case(
        lambda xi: xi < 0, "negative shape", NegativeSegment,
        lambda s, k: normalize_negative(s, k), _negative_window,
    ),
    "zero": _Case(
        lambda xi: xi == 0, "shape 0", lambda xi: ZeroLine(),
        lambda s, k: normalize_zero(s, k), lambda xi: Window(0.0, 3.0, 0.0, 2.0),
    ),
}


def default_window(case: str, xi: float | None = None) -> Window:
    """Standard observation window for each deterministic-limit case."""
    if case not in _CASES:
        raise ParameterError(f"case must be one of {tuple(_CASES)}")
    return _CASES[case].window(xi)


def _resolve_k_rule(k_rule) -> tuple[Callable[[int], int], str]:
    """k = floor(n**exponent), the exponent 0.7 unless given, and its description."""
    exponent = 0.7 if k_rule is None else k_rule
    if isinstance(exponent, bool) or not isinstance(exponent, (int, float)):
        raise ConfigError("k_rule must be an exponent")
    exponent = float(exponent)
    if not 0 < exponent < 1:
        raise ConfigError("k-rule exponent must lie in (0, 1)")
    return (lambda n: int(math.floor(n**exponent))), f"floor(n**{exponent:g})"


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

    def pass_rate(self, n: int, threshold: float) -> float:
        j = self.n_grid.index(n)
        return float(np.mean(self.distances[:, j] < threshold))

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

    Each (replication, grid index) pair uses its own Philox stream, so the
    result does not depend on evaluation order; replication r is coupled
    across n only through sharing the rep index, making paired comparisons
    along the grid meaningful.
    """
    if case not in _CASES:
        raise ConfigError(f"case must be one of {tuple(_CASES)}")
    spec = _CASES[case]
    xi = model.domain_shape
    if xi is None:
        raise ConfigError(f"{model.label()} has no declared shape")
    if not spec.covers(xi):
        raise ConfigError(f"{case} case needs {spec.needs}, model has {xi:g}")
    if reps < 1 or len(n_grid) == 0:
        raise ConfigError("need reps >= 1 and a nonempty n grid")

    k_fn, k_desc = _resolve_k_rule(k_rule)
    if window is None:
        window = spec.window(xi)
    limit_pts = discretize(spec.limit(xi), window, resolution)

    dist = np.empty((reps, len(n_grid)))
    for r in range(reps):
        for j, n in enumerate(n_grid):
            cell = seed.with_stream(seed.stream + r * len(n_grid) + j)
            sample = order_statistics(model.sample(int(n), cell))
            cloud = spec.normalize(sample, k_fn(int(n)))
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

    def ks_against_reference(self) -> float:
        return ks_two_sample(self.intercepts, self.reference)


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
    k = k_fn(int(n))
    b_nk = quantile_b(model, n / k)
    b_n = quantile_b(model, float(n))
    slopes = np.empty(reps)
    intercepts = np.empty(reps)
    dropped = np.empty(reps, dtype=int)
    for r in range(reps):
        cell = seed.with_stream(seed.stream + r)
        sample = order_statistics(model.sample(int(n), cell))
        cloud = normalize_heavy(sample, k, b_nk, b_n)
        ok = (cloud.x > 0) & (cloud.y > 0)
        dropped[r] = int(np.count_nonzero(~ok))
        fit = ls_fit(np.column_stack([np.log(cloud.x[ok]), np.log(cloud.y[ok])]), "raw")
        slopes[r] = fit.slope
        intercepts[r] = fit.intercept
    limit_law = PositiveStable(xi)
    reference = np.log(limit_law.sample(reps, seed.with_stream(seed.stream + reps)))
    return InterceptResult(slopes, intercepts, reference, dropped)
