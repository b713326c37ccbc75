"""Daily time series preprocessing ahead of tail diagnostics.

The intended flow: load a dated series, divide out a per-calendar-day
scale profile, fit an autoregression by Yule-Walker with the order chosen
by AIC, and hand the residuals to the estimators module;
``analyze_series`` runs the whole chain.  The seasonal profile is
multiplicative (a standard deviation per calendar day), so the shape of
the innovation tail survives every stage.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np
from scipy.signal import lfilter

from .dist import DistributionModel, RandomSeed
from .empirics import OrderedSample, PointSet2D, default_trim, me_plot, order_statistics
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    ParseError,
)
from .estimators import FitResult, ls_fit

__all__ = [
    "TimeSeries",
    "SeasonalProfile",
    "ARModel",
    "load_csv",
    "deseasonalize",
    "yule_walker",
    "aic_table",
    "select_order_aic",
    "residuals",
    "acf",
    "SeriesAnalysis",
    "analyze_series",
    "synthetic_composite",
]


@dataclass(frozen=True)
class TimeSeries:
    """Dated daily observations; dates strictly increasing."""

    dates: np.ndarray  # datetime64[D]
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SeasonalProfile:
    """Scale (standard deviation across years) per calendar (month, day).

    Feb 29 is pooled with Feb 28, so both days share one entry.
    """

    scale: dict

    def lookup(self, month: int, day: int) -> float:
        return self.scale[(2, 28) if (month, day) == (2, 29) else (month, day)]


@dataclass(frozen=True)
class ARModel:
    """Autoregression fitted by Yule-Walker."""

    order: int
    coefficients: np.ndarray
    noise_variance: float
    mean: float


def load_csv(
    path,
    date_col: str = "date",
    value_col: str = "value",
    date_format: str = "%Y-%m-%d",
) -> TimeSeries:
    """Read a dated series from CSV; strictly increasing unique dates."""
    dates: list = []
    values: list = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or date_col not in reader.fieldnames:
            raise ParseError(f"missing column {date_col!r}")
        if value_col not in reader.fieldnames:
            raise ParseError(f"missing column {value_col!r}")
        for lineno, row in enumerate(reader, start=2):
            try:
                d = datetime.strptime(row[date_col].strip(), date_format).date()
            except (ValueError, AttributeError) as exc:
                raise ParseError(f"line {lineno}: bad date {row[date_col]!r}") from exc
            try:
                v = float(row[value_col])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"line {lineno}: bad value {row[value_col]!r}") from exc
            dates.append(d)
            values.append(v)
    if len(values) < 2:
        raise InsufficientDataError("need at least two rows")
    seen: set = set()
    for d in dates:
        if d in seen:
            raise ParseError(f"duplicate date {d.isoformat()}")
        seen.add(d)
    order = np.argsort(np.asarray(dates))
    dates_arr = np.asarray(dates, dtype="datetime64[D]")[order]
    values_arr = np.asarray(values, dtype=float)[order]
    if not np.all(np.isfinite(values_arr)):
        raise ParseError("non-finite value in series")
    return TimeSeries(dates_arr, values_arr)


def deseasonalize(ts: TimeSeries) -> tuple[TimeSeries, SeasonalProfile]:
    """Divide each observation by the std of its calendar day across years.

    Every calendar day present needs at least two observations with
    nonzero spread; otherwise the day is reported as degenerate.
    """
    months = ts.dates.astype("datetime64[M]").astype(int) % 12 + 1
    days = (ts.dates - ts.dates.astype("datetime64[M]")).astype(int) + 1
    keys = months * 100 + days
    keys[keys == 229] = 228  # Feb 29 pools with Feb 28
    pooled, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    # a stable sort keeps each calendar day's observations in date order
    groups = np.split(ts.values[np.argsort(keys, kind="stable")], np.cumsum(counts)[:-1])
    scale = {}
    for key, obs in zip(pooled.tolist(), groups):
        day = f"calendar day {key // 100:02d}-{key % 100:02d}"
        if obs.size < 2:
            raise DegenerateDataError(f"{day} has fewer than two observations")
        s = float(np.std(obs, ddof=1))
        if s == 0.0:
            raise DegenerateDataError(f"{day} has zero spread")
        scale[divmod(key, 100)] = s
    scaled = ts.values / np.fromiter(scale.values(), float, len(scale))[inverse]
    return TimeSeries(ts.dates, scaled), SeasonalProfile(scale)


def _autocovariance(x: np.ndarray, h_max: int) -> np.ndarray:
    """Biased (divide by n) autocovariances of the mean-centred series."""
    n = x.shape[0]
    xc = x - x.mean()
    return np.asarray([float(xc[: n - h] @ xc[h:]) / n for h in range(h_max + 1)])


def _zero_variance(r0: float, x: np.ndarray) -> bool:
    # constant series can leave rounding dust in r[0]; compare to the
    # series' own scale rather than to exact zero
    return r0 <= float(np.mean(x * x)) * 1e-28


def _levinson(r: np.ndarray, p_max: int):
    """Levinson-Durbin: coefficients and noise variance for orders 0..p_max."""
    sig2 = np.empty(p_max + 1)
    sig2[0] = r[0]
    phis: list[np.ndarray] = [np.empty(0)]
    phi = np.empty(0)
    for m in range(1, p_max + 1):
        prev = phi
        kappa = (r[m] - prev @ r[m - 1 : 0 : -1]) / sig2[m - 1] if m > 1 else r[1] / r[0]
        phi = np.empty(m)
        phi[: m - 1] = prev - kappa * prev[::-1]
        phi[m - 1] = kappa
        sig2[m] = sig2[m - 1] * (1.0 - kappa * kappa)
        phis.append(phi)
    return phis, sig2


def yule_walker(x, p: int) -> ARModel:
    """Fit an AR(p) by solving the Yule-Walker equations."""
    x = np.asarray(x, dtype=float).ravel()
    if p < 1:
        raise ParameterError("order must be at least 1")
    if x.shape[0] <= p:
        raise InsufficientDataError(f"need more than {p} observations")
    r = _autocovariance(x, p)
    if _zero_variance(r[0], x):
        raise DegenerateDataError("series has zero variance")
    phis, sig2 = _levinson(r, p)
    return ARModel(p, phis[p], float(sig2[p]), float(x.mean()))


def aic_table(x, p_max: int) -> np.ndarray:
    """AIC = n log(sigma2_p) + 2p for every AR order p in 0..p_max."""
    x = np.asarray(x, dtype=float).ravel()
    if p_max < 0:
        raise ParameterError("p_max must be nonnegative")
    if x.shape[0] <= p_max:
        raise InsufficientDataError(f"need more than {p_max} observations")
    r = _autocovariance(x, p_max)
    if _zero_variance(r[0], x):
        raise DegenerateDataError("series has zero variance")
    _, sig2 = _levinson(r, p_max)
    n = x.shape[0]
    with np.errstate(divide="ignore"):
        return n * np.log(np.maximum(sig2, 0.0)) + 2.0 * np.arange(p_max + 1)


def select_order_aic(x, p_max: int) -> int:
    """AR order in 0..p_max minimizing AIC; ties go to the smallest order."""
    return int(np.argmin(aic_table(x, p_max)))


def residuals(x, model: ARModel) -> np.ndarray:
    """One-step-ahead residuals of the fitted autoregression.

    e_t = (x_t - mean) - sum_j phi_j (x_{t-j} - mean) for t = p..n-1.
    """
    x = np.asarray(x, dtype=float).ravel()
    p = model.order
    if x.shape[0] <= p:
        raise InsufficientDataError(f"need more than {p} observations")
    xc = x - model.mean
    e = xc[p:].copy()
    for j in range(1, p + 1):
        e -= model.coefficients[j - 1] * xc[p - j : -j]
    return e


def acf(x, h_max: int) -> np.ndarray:
    """Autocorrelations 0..h_max with the biased normalization."""
    x = np.asarray(x, dtype=float).ravel()
    if h_max < 0:
        raise ParameterError("h_max must be nonnegative")
    if x.shape[0] <= h_max:
        raise InsufficientDataError(f"need more than {h_max} observations")
    r = _autocovariance(x, h_max)
    if _zero_variance(r[0], x):
        raise DegenerateDataError("series has zero variance")
    return r / r[0]


@dataclass(frozen=True)
class SeriesAnalysis:
    """Every stage of a daily series' analysis, up to its residual tail."""

    profile: SeasonalProfile
    aic: np.ndarray  # AIC of AR orders 0..p_max
    model: ARModel  # the order AIC picks
    residuals: np.ndarray
    acf: np.ndarray  # of the residuals, lags 0..min(40, n - 1)
    sample: OrderedSample  # the residuals' order statistics
    trim: tuple[int, int]  # default_trim of the residual sample
    me_points: PointSet2D
    me_fit: FitResult


def analyze_series(ts: TimeSeries, p_max: int) -> SeriesAnalysis:
    """Deseasonalize, fit the AR order AIC picks in 0..p_max, read the residuals.

    The series needs one observation per day with no gaps.  Order 0, which
    Yule-Walker does not fit, leaves the mean-centred series: no
    coefficients, and its variance as the noise variance.
    """
    span = int((ts.dates[-1] - ts.dates[0]).astype(int)) + 1
    if span != ts.n:
        raise DegenerateDataError(
            f"series has {span - ts.n} missing day(s) in {ts.dates[0]}..{ts.dates[-1]}; "
            "AR fitting needs a contiguous daily series"
        )
    scaled, profile = deseasonalize(ts)
    x = scaled.values
    aic = aic_table(x, p_max)
    order = int(np.argmin(aic))
    if order >= 1:
        model = yule_walker(x, order)
    else:
        model = ARModel(0, np.empty(0), float(np.var(x)), float(x.mean()))
    resid = residuals(x, model)
    rho = acf(resid, min(40, resid.size - 1))
    sample = order_statistics(resid)
    trim = default_trim(sample.n)
    pts = me_plot(sample, *trim)
    fit = ls_fit(pts, "me")
    return SeriesAnalysis(profile, aic, model, resid, rho, sample, trim, pts, fit)


def synthetic_composite(
    years: int,
    phi,
    innovations: DistributionModel,
    seed: RandomSeed,
    start_year: int = 2001,
    amplitude: float = 0.75,
    burn_in: int = 1000,
) -> TimeSeries:
    """Seasonal-scale times AR series with the given innovation law.

    The latent series follows x_t = sum_j phi_j x_{t-j} + eps_t with
    mean-zero innovations (draws are centered by their sample mean, so
    one-sided laws work too); each day's value is multiplied by a smooth
    positive annual scale profile.  Useful for exercising the full
    pipeline against a known ground truth.
    """
    phi = np.asarray(phi, dtype=float)
    p = phi.shape[0]
    if years < 2:
        raise ParameterError("need at least two years")
    if not 0 <= amplitude < 1:
        raise ParameterError("amplitude must lie in [0, 1)")
    if not innovations.has_finite_mean:
        raise ParameterError("innovation law must have a finite mean to be centered")
    dates = np.arange(np.datetime64(date(start_year, 1, 1)),
                      np.datetime64(date(start_year + years, 1, 1)))
    n_days = dates.size
    eps = innovations.sample(n_days + burn_in, seed)
    eps = eps - eps.mean()
    # x_t = sum_j phi_j x_{t-j} + eps_t with zero initial state
    latent = lfilter([1.0], np.concatenate([[1.0], -phi]), eps)[burn_in:]
    day_of_year = (dates - dates.astype("datetime64[Y]")).astype(int)
    profile = 1.0 + amplitude * np.sin(2.0 * math.pi * day_of_year / 365.25)
    return TimeSeries(dates, profile * latent)
