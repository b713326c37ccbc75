"""Empirical mean excess functions, plots and their normalizations.

The mean excess plot of a sample is the set of points
(X_(i), ME(X_(i))) over descending order statistics X_(1) >= ... >= X_(n),
where ME(u) averages the excesses X - u over the observations strictly
above u.  The normalize_* functions rescale the top-k portion of the plot
so that, depending on the extreme-value shape of the law, the rescaled
point set converges to a deterministic or random limit set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dist import DistributionModel, quantile_b, truncated_mean
from .errors import (
    DegenerateRangeError,
    DomainError,
    EmptyExceedanceError,
    IndexRangeError,
    InsufficientDataError,
    NormalizationError,
    ParameterError,
)
from .tabular import write_csv

__all__ = [
    "OrderedSample",
    "order_statistics",
    "PointSet2D",
    "empirical_me",
    "me_plot",
    "plotted_trim",
    "normalize_positive",
    "normalize_heavy",
    "normalize_xi1",
    "normalize_negative",
    "normalize_zero",
    "centering_cnk",
    "default_k",
    "default_trim",
]


@dataclass(frozen=True)
class OrderedSample:
    """A sample stored as descending order statistics."""

    values: np.ndarray  # descending

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def x(self, i: int) -> float:
        """1-based order statistic X_(i), largest first."""
        if not 1 <= i <= self.n:
            raise IndexRangeError(f"order statistic index {i} outside 1..{self.n}")
        return float(self.values[i - 1])


def _check_count(n: int) -> None:
    if n < 2:
        raise InsufficientDataError("need at least two observations")


def _check_top_k(k: int, n: int) -> None:
    """The top-k plots need X_(2) to X_(k) of an n-sample."""
    if not 2 <= k <= n:
        raise IndexRangeError(f"k={k} outside 2..{n}")


def order_statistics(data) -> OrderedSample:
    data = np.asarray(data, dtype=float).ravel()
    _check_count(data.shape[0])
    if not np.all(np.isfinite(data)):
        raise DomainError("observations must be finite")
    # the default sort is faster than the stable one, and differs from it only
    # in the order of equal values; the one such run with distinct bits is
    # that of -0.0 and 0.0, which goes back in input order
    out = np.sort(data)
    lo, hi = np.searchsorted(out, 0.0, "left"), np.searchsorted(out, 0.0, "right")
    if hi - lo > 1:
        out[lo:hi] = data[data == 0.0]
    return OrderedSample(out[::-1])


@dataclass(frozen=True)
class PointSet2D:
    """A finite planar point set with deterministic CSV serialization."""

    points: np.ndarray  # shape (m, 2)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError("points must have shape (m, 2)")
        object.__setattr__(self, "points", pts)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def restrict(self, window) -> "PointSet2D":
        """The points inside the window, in a set of the same type and fields."""
        return replace(self, points=self.points[window.contains(self.points)])

    def write_csv(self, path) -> None:
        write_csv(path, "x,y", [self.x, self.y])


def _exceed_counts(values_desc: np.ndarray, u) -> np.ndarray:
    """Number of observations strictly above each threshold in u."""
    return values_desc.size - np.searchsorted(values_desc[::-1], np.atleast_1d(u), side="right")


def _order_counts(values_desc: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``_exceed_counts`` at the thresholds X_(lo) to X_(hi), in one pass.

    The observations strictly above X_(i) are those before the first of its
    ties, so its count is that tie's index: a running maximum over the
    indices where a run of equal values starts.  Only X_(lo)'s run may start
    before lo, and one binary search finds it.
    """
    u = values_desc[lo - 1:hi]
    starts = np.arange(lo - 1, hi)
    starts[1:][u[1:] == u[:-1]] = 0
    starts[0] = _exceed_counts(values_desc, u[0])[0]
    return np.maximum.accumulate(starts, out=starts)


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v / 2^e, in place, and e, with e from ``frexp`` of max |v|, so the largest
    magnitude lies in [1/2, 1): the scaling is exact, and squares of the scaled
    values neither overflow nor vanish where those of v would."""
    e = int(np.frexp(np.max(np.abs(v)))[1])
    return np.ldexp(v, -e, out=v), e


def _mean_excess(values_desc: np.ndarray, u, c: np.ndarray) -> np.ndarray:
    """Mean excesses at the thresholds u, given their strict exceedance counts c.

    ME(u) = sum_{i <= c} (X_(i) - p)/c - (u - p) with the pivot p = min(u),
    cumulated over the max(c) largest observations only: data far from 0
    lose no digits, and a top-k plot costs O(k).  The sums are taken on the
    values and thresholds after ``_unit_scaled``, where none overflows, so x
    times 2^j gives ME times 2^j.  ME is +inf where c = 0, or past the
    double range.
    """
    if not c.any():
        raise EmptyExceedanceError(f"no observation exceeds u={float(np.min(u))!r}")
    top = values_desc[: c.max()]
    pivot = np.min(u)
    # every value and threshold lies in [pivot, top[0]]
    e = _unit_scaled(np.array([pivot, top[0]]))[1]
    pivot = np.ldexp(pivot, -e)
    csum = np.ldexp(top, -e)
    csum -= pivot
    np.cumsum(csum, out=csum)
    with np.errstate(divide="ignore", over="ignore"):
        return np.ldexp(csum[c - 1] / c - (np.ldexp(u, -e) - pivot), e)


def empirical_me(sample: OrderedSample, u: float) -> float:
    """Empirical mean excess at u: mean of X - u over observations X > u."""
    return float(_mean_excess(sample.values, u, _exceed_counts(sample.values, u))[0])


def plotted_trim(sample: OrderedSample, i_min: int = 2, i_max: int | None = None):
    """The rows (lo, hi) of ``me_plot(sample, i_min, i_max)``, row r at X_(lo + r):
    lo is i_min moved past the thresholds tied with X_(1), which have no exceedance."""
    n = sample.n
    if i_max is None:
        i_max = n
    if not 2 <= i_min <= i_max <= n:
        raise IndexRangeError(f"need 2 <= i_min <= i_max <= {n}")
    ties = n - int(np.searchsorted(sample.values[::-1], sample.values[0]))  # X_(1) and its ties
    if ties >= i_max:
        raise EmptyExceedanceError(f"no observation exceeds u={sample.x(i_max)!r}")
    return max(i_min, ties + 1), i_max


def me_plot(sample: OrderedSample, i_min: int = 2, i_max: int | None = None) -> PointSet2D:
    """Mean excess plot {(X_(i), ME(X_(i))) : i_min <= i <= i_max}.

    Thresholds are the order statistics themselves; ties produce coincident
    points, except that thresholds tied with X_(1) have no exceedance and
    are left out (see ``plotted_trim``).
    """
    lo, hi = plotted_trim(sample, i_min, i_max)
    u = sample.values[lo - 1 : hi]
    me = _mean_excess(sample.values, u, _order_counts(sample.values, lo, hi))
    return PointSet2D(np.column_stack([u, me]))


def _top_k_me(sample: OrderedSample, k: int):
    _check_top_k(k, sample.n)
    u = sample.values[1:k]
    c = _order_counts(sample.values, 2, k)
    me = _mean_excess(sample.values, u, c)
    if c[0] == 0:
        raise EmptyExceedanceError("tied maxima leave no strict exceedances")
    return np.arange(2, k + 1), u, me


def normalize_positive(sample: OrderedSample, k: int) -> PointSet2D:
    """Top-k mean excess plot scaled by 1/X_(k).

    For laws with extreme-value shape xi in (0, 1) the rescaled set
    converges to the ray {(t, t xi/(1-xi)) : t >= 1}.
    """
    idx, u, me = _top_k_me(sample, k)
    xk = sample.x(k)
    if xk <= 0:
        raise NormalizationError("X_(k) must be positive")
    return PointSet2D(np.column_stack([u / xk, me / xk]))


def normalize_heavy(sample: OrderedSample, k: int, b_nk: float, b_n: float) -> PointSet2D:
    """Top-k plot scaled by the theoretical quantiles b(n/k) and b(n)/k.

    For shape xi > 1 (infinite mean) the x-coordinate is divided by b(n/k)
    and the mean excess by b(n)/k; the limit is the random curve
    {(t^xi, t S_{1/xi}) : t >= 1}.
    """
    if b_nk <= 0 or b_n <= 0:
        raise NormalizationError("quantile scales must be positive")
    idx, u, me = _top_k_me(sample, k)
    return PointSet2D(np.column_stack([u / b_nk, me * k / b_n]))


def normalize_xi1(
    sample: OrderedSample, k: int, b_nk: float, b_n: float, c_nk: float
) -> PointSet2D:
    """Top-k plot for shape exactly 1, centred by the truncated-mean drift.

    Points (X_(i)/b(n/k), ME(X_(i))/b(n/k) - k C_{n,k} / (i b(n))); without
    the centering term the second coordinate drifts to infinity.
    """
    if b_nk <= 0 or b_n <= 0:
        raise NormalizationError("quantile scales must be positive")
    idx, u, me = _top_k_me(sample, k)
    centre = k * c_nk / (idx * b_n)
    return PointSet2D(np.column_stack([u / b_nk, me / b_nk - centre]))


def normalize_negative(sample: OrderedSample, k: int) -> PointSet2D:
    """Top-k plot shifted by X_(k) and scaled by X_(1) - X_(k).

    For shape xi < 0 the limit is the segment
    {(t, (t - 1) xi/(1 - xi)) : 0 <= t <= 1}.
    """
    _check_top_k(k, sample.n)
    spread = sample.x(1) - sample.x(k)
    if spread <= 0:
        raise DegenerateRangeError("X_(1) and X_(k) coincide")
    idx, u, me = _top_k_me(sample, k)
    return PointSet2D(np.column_stack([(u - sample.x(k)) / spread, me / spread]))


def normalize_zero(sample: OrderedSample, k: int) -> PointSet2D:
    """Top-k plot shifted by X_(k), scaled by (X_(ceil(k/2)) - X_(k)) / log 2.

    The spacing X_(ceil(k/2)) - X_(k) estimates log(2) times the auxiliary
    scale of a shape-0 law, so dividing by spacing/log(2) sends the plot to
    the horizontal line at height 1.
    """
    _check_top_k(k, sample.n)
    mid = math.ceil(k / 2)
    spread = sample.x(mid) - sample.x(k)
    if spread <= 0:
        raise DegenerateRangeError(f"X_({mid}) and X_({k}) coincide")
    idx, u, me = _top_k_me(sample, k)
    scale = spread / math.log(2.0)
    xk = sample.x(k)
    return PointSet2D(np.column_stack([(u - xk) / scale, me / scale]))


def centering_cnk(model: DistributionModel, n: int, k: int) -> float:
    """Drift constant n (E[X 1{X <= b(n)}] - E[X 1{X <= b(n/k)}])."""
    if n < 1 or not 1 <= k <= n:
        raise ParameterError("need n >= 1 and 1 <= k <= n")
    bn = quantile_b(model, float(n))
    bnk = quantile_b(model, n / k)
    return n * (truncated_mean(model, bn) - truncated_mean(model, bnk))


def default_k(n: int) -> int:
    """Default number of upper order statistics for the normalizations."""
    return int(math.floor(n**0.7))


def default_trim(n: int) -> tuple[int, int]:
    """Default plotting range: drop the top half percent, keep the rest."""
    return (max(int(math.floor(0.005 * n)), 2), n)
