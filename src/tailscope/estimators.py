"""Tail index estimators and least squares reading of diagnostic plots.

Conventions: ``hill`` returns an estimate of the tail index alpha (the
reciprocal of the extreme-value shape), while ``pickands``, ``moment`` and
the fitted-slope transforms return the shape xi itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import GPD
from .empirics import OrderedSample, PointSet2D, _unit_scaled
from .errors import (
    DegenerateDataError,
    DomainError,
    IndexRangeError,
    InsufficientDataError,
    ParameterError,
    SingularDesignError,
)

__all__ = [
    "FitResult",
    "ls_fit",
    "hill",
    "pickands",
    "moment",
    "qq_points_pos",
    "qq_points_neg",
    "EstimatorTrace",
    "trace",
]

PLOT_KINDS = ("me", "qq-pos", "raw")


@dataclass(frozen=True)
class FitResult:
    """Least squares line through a diagnostic plot.

    ``xi_hat`` is the shape implied by the slope: slope/(1+slope) for a
    mean excess plot, the slope itself for an exponential QQ plot, absent
    for a raw fit.
    """

    slope: float
    intercept: float
    rss: float
    n_points: int
    plot_kind: str
    xi_hat: float | None = None


def ls_fit(points: PointSet2D | np.ndarray, plot_kind: str = "raw") -> FitResult:
    """Ordinary least squares line y = a + b x through a point set.

    Means are taken, and deviations and residuals squared, only after
    ``_unit_scaled``, so no sum overflows, and the points times 2^j give the
    same slope, bit for bit, wherever they are normal.  A point that is not
    finite, as a mean excess past the double range, has no line: the first
    one is named in a ``DegenerateDataError``."""
    if plot_kind not in PLOT_KINDS:
        raise ParameterError(f"plot_kind must be one of {PLOT_KINDS}")
    pts = points.points if isinstance(points, PointSet2D) else np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise SingularDesignError("need at least two (x, y) points")
    if not np.isfinite(pts).all():
        i = int(np.argmin(np.isfinite(pts))) // 2  # the first False in row-major order
        raise DegenerateDataError(f"fit point {i + 1} is not finite: {tuple(pts[i].tolist())}")
    x, y = pts[:, 0], pts[:, 1]
    (xs, fx), (ys, fy) = _unit_scaled(x.copy()), _unit_scaled(y.copy())
    xm, ym = xs.mean(), ys.mean()
    dx, ex = _unit_scaled(np.subtract(xs, xm, out=xs))
    dy, ey = _unit_scaled(np.subtract(ys, ym, out=ys))
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise SingularDesignError("all abscissae coincide")
    slope = float(np.ldexp(float(dx @ dy) / sxx, (ey + fy) - (ex + fx)))
    intercept = np.ldexp(ym, fy) - slope * np.ldexp(xm, fx)
    resid, er = _unit_scaled(y - (intercept + slope * x))
    with np.errstate(over="ignore"):  # past about 2^510 the true rss is not a double
        rss = float(np.ldexp(resid @ resid, 2 * er))

    xi_hat = None
    if plot_kind == "me":
        if abs(1.0 + slope) < 1e-12:
            raise DegenerateDataError("mean excess slope of -1 has no shape")
        xi_hat = slope / (1.0 + slope)
    elif plot_kind == "qq-pos":
        xi_hat = slope
    return FitResult(slope, intercept, rss, pts.shape[0], plot_kind, xi_hat)


def _check_m(sample: OrderedSample, m: int, upper: int) -> None:
    if not 1 <= m <= upper:
        raise IndexRangeError(f"m={m} outside 1..{upper}")


def _log_spacing(v: np.ndarray, m: np.ndarray, kind: str):
    """Hill or moment estimates at each m (X_(m+1) > 0), and which m degenerate.

    h1 and h2, the mean and mean square of L_i - L_(m+1) over i <= m, come
    from cumulative sums of L_i = log(X_(i)/X_(1)) and of L_i^2; logs taken
    relative to the top value do not cancel when they sit close together.
    """
    logs = v[: m.max() + 1] / v[0]
    np.log(logs, out=logs)
    pivot = logs[m]
    h1 = np.cumsum(logs)[m - 1] / m
    if kind == "hill":
        h1 -= pivot
        with np.errstate(divide="ignore"):
            # ties leave h1 at rounding noise rather than exactly zero
            return 1.0 / h1, ~(h1 > 1e-12)
    logs *= logs
    np.cumsum(logs, out=logs)
    h2 = logs[m - 1] / m - 2.0 * pivot * h1 + pivot * pivot
    h1 -= pivot
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = h1 * h1 / h2
        est = h1 + 1.0 - 0.5 / (1.0 - ratio)
    return est, ~(h2 > 1e-24) | (np.abs(1.0 - ratio) < 1e-9)


def _pickands(v: np.ndarray, m: np.ndarray):
    """Pickands estimates from X_(m), X_(2m), X_(4m), and which m degenerate."""
    den = v[2 * m - 1] - v[4 * m - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (v[m - 1] - v[2 * m - 1]) / den
        est = np.log(ratio) / math.log(2.0)
    return est, (den == 0.0) | (ratio <= 0.0)


def _estimate(sample: OrderedSample, m: int, kind: str) -> float:
    """The kind's trace at one m, or a typed error for an m the trace skips."""
    _check_m(sample, m, sample.n // 4 if kind == "pickands" else sample.n - 1)
    if kind == "pickands":
        est, bad = _pickands(sample.values, np.array([m]))
    elif sample.x(m + 1) <= 0:
        raise DomainError("X_(m+1) must be positive")
    else:
        est, bad = _log_spacing(sample.values, np.array([m]), kind)
    if bad[0]:
        raise DegenerateDataError(f"degenerate spacing at m={m}")
    return float(est[0])


def hill(sample: OrderedSample, m: int) -> float:
    """Hill estimate of the tail index from the top m log spacings."""
    return _estimate(sample, m, "hill")


def pickands(sample: OrderedSample, m: int) -> float:
    """Pickands estimate of the shape from X_(m), X_(2m), X_(4m)."""
    return _estimate(sample, m, "pickands")


def moment(sample: OrderedSample, m: int) -> float:
    """Moment (Dekkers-Einmahl-de Haan) estimate of the shape."""
    return _estimate(sample, m, "moment")


def qq_points_pos(sample: OrderedSample, m: int) -> PointSet2D:
    """Exponential QQ plot of the top m logarithms.

    Points (-log(i/m), log(X_(i)/X_(m))) for 1 <= i <= m; the least squares
    slope estimates the shape of a heavy-tailed law.
    """
    _check_m(sample, m, sample.n)
    if sample.x(m) <= 0:
        raise DomainError("X_(m) must be positive")
    i = np.arange(1, m + 1, dtype=float)
    x = -np.log(i / m)
    y = np.log(sample.values[:m] / sample.x(m))
    return PointSet2D(np.column_stack([x, y]))


def qq_points_neg(
    sample: OrderedSample,
    m: int | None = None,
    xi_pre: float | None = None,
    restrict: bool = False,
) -> PointSet2D:
    """QQ plot against a fitted negative-shape generalized Pareto reference.

    The i-th smallest observation is paired with the reference quantile at
    i/(n+1).  ``xi_pre`` defaults to the Pickands estimate at ``m``; with
    ``restrict`` only the top m observations are kept (positions intact).
    """
    if xi_pre is None:
        if m is None:
            raise ParameterError("need either xi_pre or m")
        xi_pre = pickands(sample, m)
    if xi_pre >= 0:
        raise ParameterError(f"reference shape must be negative, got {xi_pre:g}")
    n = sample.n
    asc = sample.values[::-1]
    probs = np.arange(1, n + 1, dtype=float) / (n + 1)
    ref = GPD(xi_pre).quantile(probs)
    if restrict:
        if m is None:
            raise ParameterError("restrict=True needs m")
        asc, ref = asc[n - m :], ref[n - m :]
    return PointSet2D(np.column_stack([asc, ref]))


@dataclass(frozen=True)
class EstimatorTrace:
    """An estimator evaluated along a grid of m values.

    Degenerate m (ties, nonpositive pivots) are skipped and recorded in
    ``skipped`` as (m, reason) pairs.
    """

    kind: str
    m: np.ndarray
    value: np.ndarray
    skipped: list = field(default_factory=list)

    def at(self, m: int) -> float:
        pos = np.searchsorted(self.m, m)
        if pos >= self.m.size or self.m[pos] != m:
            raise IndexRangeError(f"m={m} not in trace")
        return float(self.value[pos])


def trace(sample: OrderedSample, kind: str, stride: int = 1) -> EstimatorTrace:
    """Evaluate hill, pickands or moment along every admissible m."""
    if kind not in ("hill", "pickands", "moment"):
        raise ParameterError("kind must be hill, pickands or moment")
    n = sample.n
    if n < 8:
        raise InsufficientDataError("traces need at least 8 observations")
    if stride < 1:
        raise ParameterError("stride must be positive")
    v = sample.values
    if kind == "pickands":
        m_all = np.arange(1, n // 4 + 1)[::stride]
        est, bad = _pickands(v, m_all)
    else:  # the log-spacing estimators stop at the last positive pivot
        n_pos = int(np.count_nonzero(v > 0))
        if n_pos < 2:
            raise DegenerateDataError("need at least two positive observations")
        m_all = np.arange(1, n_pos)[::stride]
        est, bad = _log_spacing(v, m_all, kind)
    skipped = [(int(mm), "degenerate spacing") for mm in m_all[bad]]
    return EstimatorTrace(kind, m_all[~bad], est[~bad], skipped)
