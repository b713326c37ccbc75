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

from .dist import DistributionModel, RandomSeed
from .empirics import (OrderedSample, PointSet2D, _unit_scaled, default_trim, me_plot,
                       order_statistics, plotted_trim)
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    ParseError,
)
from .estimators import FitResult, ls_fit
from .tabular import (_byte_rows, _decimal_cells, _float, _floats, _plain_cells, _read_bytes,
                      _text_lines)

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
    """Read a dated series from CSV; strictly increasing unique dates.

    The file is read by the input rules of ``tabular``.  When the format is
    ISO, the default, a plain file (``tabular``'s rule) with no blank line,
    no cell past ``csv.field_size_limit()`` and date cells all ten bytes
    long is read from the byte offsets of its cells: ``_iso_days`` reads
    the dates from those bytes, and ``tabular``'s decimal kernel the values,
    a chunk at a time, with ``float`` on each cell it does not certify, in
    file order.  Any other file is decoded as ``csv.reader`` reads it, so a
    missing column is reported before a later byte that does not decode;
    there ISO dates are read from the digits of the stripped strings and the
    values converted in one call.  Other formats, dates that are not
    canonical, and values ``float`` refuses send the rows through the
    row-by-row parsers, so the first bad row is the one reported, by the
    file line it ends on.  Every ``ParseError`` leads with the path.
    """
    data = _read_bytes(path)
    iso = date_format == "%Y-%m-%d"
    plain = _plain_cells(data) if iso else None
    values = None
    if plain is not None:
        width, starts, ends = plain
        sizes = ends - starts
    # csv.reader skips a blank line, a one-cell row whose cell is empty, and
    # refuses a cell past its field size limit
    if plain and (width > 1 or sizes.all()) and sizes.max() <= csv.field_size_limit():
        header = data[:ends[width - 1]].decode("ascii").split(",")
        di, vi = _column_indices(path, header, date_col, value_col)
        date_at, value_at = slice(width + di, None, width), slice(width + vi, None, width)
        if sizes[date_at].size and (sizes[date_at] == 10).all():
            dates = _iso_days(_byte_rows(data, starts[date_at], 10))
            if dates is not None:
                # row i of a plain file ends on file line i + 2
                values = _decimal_cells(path, data, starts[value_at], ends[value_at],
                                        range(2, dates.size + 2))
    if values is None:
        # as open(path, newline="") reads the file
        reader = csv.reader(_text_lines(path, data, newline=""))
        header = next(reader, None)
        di, vi = _column_indices(path, header, date_col, value_col)
        # as in csv.DictReader: blank lines are skipped, and a row too short
        # for a column gives None
        rows = [(r[di] if di < len(r) else None, r[vi] if vi < len(r) else None,
                 reader.line_num) for r in reader if r]
        date_raw, value_raw, lines = ([row[j] for row in rows] for j in range(3))
        dates = _iso_dates(date_raw) if iso else None
        if dates is None:
            dates, values = _parse_rows(path, zip(date_raw, value_raw, lines), date_format)
        else:
            values = _floats(path, value_raw, lines)
    if len(values) < 2:
        raise InsufficientDataError("need at least two rows")
    # a stable sort keeps equal dates in file order, so each repeat after
    # the first of its run is a later row; report the earliest of those
    order = np.argsort(dates, kind="stable")
    dates_arr = dates[order]
    repeats = order[1:][dates_arr[1:] == dates_arr[:-1]]
    if repeats.size:
        raise ParseError(f"{path}: duplicate date {dates[repeats.min()]}")
    values_arr = np.asarray(values, dtype=float)[order]
    if not np.all(np.isfinite(values_arr)):
        raise ParseError(f"{path}: non-finite value in series")
    return TimeSeries(dates_arr, values_arr)


def _column_indices(path, header: list | None, date_col: str, value_col: str) -> tuple[int, int]:
    """Where the two columns sit; as in csv.DictReader, a repeated name reads
    its last column."""
    for col in (date_col, value_col):
        if header is None or col not in header:
            raise ParseError(f"{path}: missing column {col!r}")
    return tuple(len(header) - 1 - header[::-1].index(c) for c in (date_col, value_col))


_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # the digit columns of YYYY-MM-DD
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _iso_dates(raw: list) -> np.ndarray | None:
    """``%Y-%m-%d`` strings as ``datetime64[D]``: None unless every string,
    stripped, is ten ASCII characters that ``_iso_days`` reads."""
    n = len(raw)
    try:
        text = "\n".join([d.strip() for d in raw]) + "\n"
    except AttributeError:
        return None
    # n newlines, each in column 10 of an 11-byte row, leave no room for a
    # string that is not exactly ten characters long
    if len(text) != 11 * n or not text.isascii():
        return None
    rows = np.frombuffer(text.encode("ascii"), np.uint8).reshape(n, 11)
    return _iso_days(rows[:, :10]) if (rows[:, 10] == ord("\n")).all() else None


def _iso_days(rows: np.ndarray) -> np.ndarray | None:
    """(n, 10) byte rows of ``%Y-%m-%d`` dates as ``datetime64[D]``, read from
    their digits.

    None unless every row is a canonical ``YYYY-MM-DD``: dashes at positions 4
    and 7, digits elsewhere, a month 01-12, a day within its month (Feb 29 in
    leap years only) and a year 0001-9999.  These are the ten-byte strings
    that ``strptime`` accepts and that read back as themselves.
    """
    digits = rows[:, _DIGITS] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    if not ((rows[:, [4, 7]] == ord("-")).all() and (digits <= 9).all()):
        return None
    d = digits.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month = d[:, 4] * 10 + d[:, 5]
    day = d[:, 6] * 10 + d[:, 7]
    if not ((year >= 1).all() and (month >= 1).all() and (month <= 12).all()):
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not ((day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))).all():
        return None
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    return months.astype("datetime64[D]") + (day - 1)


def _parse_rows(path, rows, date_format: str) -> tuple[np.ndarray, list]:
    """Dates by ``strptime`` and values from (date, value, line) rows, failing
    at the first bad row."""
    dates = []
    values = []
    for d, v, lineno in rows:
        try:
            dates.append(datetime.strptime(d.strip(), date_format).date())
        except (ValueError, AttributeError) as exc:
            raise ParseError(f"{path}: line {lineno}: bad date {d!r}") from exc
        values.append(_float(path, v, f"line {lineno}: "))
    return np.asarray(dates, dtype="datetime64[D]"), values


def deseasonalize(ts: TimeSeries) -> tuple[TimeSeries, SeasonalProfile]:
    """Divide each observation by the std of its calendar day across years.

    Every calendar day present needs at least two observations with
    nonzero spread; otherwise the day is reported as degenerate.  Each std is
    taken after ``_unit_scaled``, so values times 2^j give the same quotients.
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
        obs, e = _unit_scaled(obs)  # obs is a slice of a sorted copy
        s = math.ldexp(float(np.std(obs, ddof=1)), e)
        if s == 0.0:
            raise DegenerateDataError(f"{day} has zero spread")
        scale[divmod(key, 100)] = s
    scaled = ts.values / np.fromiter(scale.values(), float, len(scale))[inverse]
    return TimeSeries(ts.dates, scaled), SeasonalProfile(scale)


def _autocovariance(x: np.ndarray, h_max: int) -> tuple[np.ndarray, int, float]:
    """Biased (divide by n) autocovariances r at lags 0..h_max of the series,
    centred and put through ``_unit_scaled``: r / 4^e, e and the mean, so x times
    2^j gives the same r / 4^e.  The mean and the centring are taken after
    ``_unit_scaled`` too, where no sum overflows.  Needs more than h_max values
    and nonzero variance."""
    n = x.shape[0]
    if n <= h_max:
        raise InsufficientDataError(f"need more than {h_max} observations")
    xs, e = _unit_scaled(x.copy())
    mean = xs.mean()
    xc, f = _unit_scaled(xs - mean)
    r = np.asarray([float(xc[: n - h] @ xc[h:]) / n for h in range(h_max + 1)])
    # constant series can leave rounding dust in r[0]; compare to the
    # series' own scale rather than to exact zero.  An exact zero passes that
    # test whatever the scale, and is taken first: f is then 0, and xs squared
    # unscaled may overflow
    if r[0] == 0.0 or r[0] <= float(np.mean(np.square(np.ldexp(xs, -f)))) * 1e-28:
        raise DegenerateDataError("series has zero variance")
    return r, e + f, float(np.ldexp(mean, e))


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
    r, e, mean = _autocovariance(x, p)
    phis, sig2 = _levinson(r, p)
    with np.errstate(over="ignore"):  # the true variance may not be a double
        noise = float(np.ldexp(sig2[p], 2 * e))
    return ARModel(p, phis[p], noise, mean)


def aic_table(x, p_max: int) -> np.ndarray:
    """AIC = n log(sigma2_p) + 2p for every AR order p in 0..p_max."""
    x = np.asarray(x, dtype=float).ravel()
    if p_max < 0:
        raise ParameterError("p_max must be nonnegative")
    r, e, _ = _autocovariance(x, p_max)
    scaled = np.maximum(_levinson(r, p_max)[1], 0.0)
    with np.errstate(over="ignore", divide="ignore"):  # where sigma2 is not a normal
        sig2 = np.ldexp(scaled, 2 * e)  # double, log(sigma2 / 4^e) + 2e log 2
        far = (sig2 < np.finfo(float).tiny) | (sig2 == np.inf)
        log_sig2 = np.where(far, np.log(scaled) + 2 * e * math.log(2.0), np.log(sig2))
    return x.shape[0] * log_sig2 + 2.0 * np.arange(p_max + 1)


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
    r = _autocovariance(x, h_max)[0]
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
    trim: tuple[int, int]  # the rows of me_points: plotted_trim of default_trim
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
    trim = plotted_trim(sample, *default_trim(sample.n))
    pts = me_plot(sample, *trim)
    fit = ls_fit(pts, "me")
    return SeriesAnalysis(profile, aic, model, resid, rho, sample, trim, pts, fit)


def synthetic_composite(
    years: int,
    phi,
    innovations: DistributionModel,
    seed: RandomSeed,
) -> TimeSeries:
    """Seasonal-scale times AR series with the given innovation law.

    The latent series follows x_t = sum_j phi_j x_{t-j} + eps_t with
    mean-zero innovations (draws are centered by their sample mean, so
    one-sided laws work too), run for 1000 days before the first date,
    2001-01-01; each day's value is multiplied by the annual scale profile
    1 + 0.75 sin(2 pi d / 365.25), d the day of the year from 0.  Useful
    for exercising the full pipeline against a known ground truth.
    """
    from scipy.signal import lfilter

    phi = np.asarray(phi, dtype=float)
    if years < 2:
        raise ParameterError("need at least two years")
    if not innovations.has_finite_mean:
        raise ParameterError("innovation law must have a finite mean to be centered")
    dates = np.arange(np.datetime64(date(2001, 1, 1)), np.datetime64(date(2001 + years, 1, 1)))
    n_days = dates.size
    burn_in = 1000
    eps = innovations.sample(n_days + burn_in, seed)
    eps = eps - eps.mean()
    # x_t = sum_j phi_j x_{t-j} + eps_t with zero initial state
    latent = lfilter([1.0], np.concatenate([[1.0], -phi]), eps)[burn_in:]
    day_of_year = (dates - dates.astype("datetime64[Y]")).astype(int)
    profile = 1.0 + 0.75 * np.sin(2.0 * math.pi * day_of_year / 365.25)
    return TimeSeries(dates, profile * latent)
