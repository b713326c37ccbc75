import time
from datetime import datetime, timedelta

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

import tailscope as ts
from tailscope.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    ParseError,
)


def write_series_csv(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def ar_series(phi, n, rng, burn=500):
    eps = rng.standard_normal(n + burn)
    return lfilter([1.0], np.concatenate([[1.0], -np.asarray(phi)]), eps)[burn:]


def daily_series(start, values):
    d0 = np.datetime64(start, "D")
    dates = d0 + np.arange(len(values))
    return ts.TimeSeries(dates, np.asarray(values, dtype=float))


def pooled_day(date):
    m = int(str(date)[5:7])
    d = int(str(date)[8:10])
    return (2, 28) if (m, d) == (2, 29) else (m, d)


# ---------------------------------------------------------------------------
# reference implementations: the per-day loops the array code replaced,
# kept verbatim; the array code must match them bit for bit


def _pool_day(month, day):
    return (2, 28) if (month, day) == (2, 29) else (month, day)


def old_deseasonalize(ts_):
    months = ts_.dates.astype("datetime64[M]").astype(int) % 12 + 1
    days = (ts_.dates - ts_.dates.astype("datetime64[M]")).astype(int) + 1
    keys = [_pool_day(m, d) for m, d in zip(months, days)]
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(ts_.values[i])
    scale = {}
    for key in sorted(groups):
        obs = np.asarray(groups[key])
        if obs.size < 2:
            raise DegenerateDataError(
                f"calendar day {key[0]:02d}-{key[1]:02d} has fewer than two observations"
            )
        s = float(np.std(obs, ddof=1))
        if s == 0.0:
            raise DegenerateDataError(
                f"calendar day {key[0]:02d}-{key[1]:02d} has zero spread"
            )
        scale[key] = s
    scaled = ts_.values / np.asarray([scale[k] for k in keys])
    return ts.TimeSeries(ts_.dates, scaled), ts.SeasonalProfile(scale)


def old_composite_dates(years, start_year):
    start = datetime(start_year, 1, 1).date()
    end = datetime(start_year + years, 1, 1).date()
    n_days = (end - start).days
    dates = np.asarray(
        [start + timedelta(days=i) for i in range(n_days)], dtype="datetime64[D]"
    )
    return dates


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv", ["2001-01-01,1.5", "2001-01-02,2.5", "2001-01-04,-3.0"]
        )
        series = ts.load_csv(p)
        assert series.n == 3
        np.testing.assert_array_equal(series.values, [1.5, 2.5, -3.0])
        assert str(series.dates[0]) == "2001-01-01"
        assert str(series.dates[2]) == "2001-01-04"

    def test_shuffled_rows_come_back_sorted(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv", ["2001-01-03,3", "2001-01-01,1", "2001-01-02,2"]
        )
        series = ts.load_csv(p)
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_duplicate_date(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,1", "2001-01-01,2"])
        with pytest.raises(ParseError, match="duplicate"):
            ts.load_csv(p)

    def test_duplicate_names_first_repeat_in_file_order(self, tmp_path):
        rows = ["2001-01-03,1", "2001-01-05,2", "2001-01-04,3", "2001-01-05,4",
                "2001-01-03,5"]
        p = write_series_csv(tmp_path / "s.csv", rows)
        with pytest.raises(ParseError, match="duplicate date 2001-01-05$"):
            ts.load_csv(p)

    def test_duplicate_rejection_no_slower_than_load(self, tmp_path):
        start = np.datetime64("1900-01-01")
        days = np.arange(start, start + 50_000)
        rows = [f"{d},{i % 7}" for i, d in enumerate(days)]
        clean = write_series_csv(tmp_path / "clean.csv", rows)
        rows[-2] = f"{days[-100]},0"
        dup = write_series_csv(tmp_path / "dup.csv", rows)

        def best_of(fn, reps=3):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        def reject():
            with pytest.raises(ParseError, match=f"duplicate date {days[-100]}"):
                ts.load_csv(dup)

        t_load = best_of(lambda: ts.load_csv(clean))
        t_reject = best_of(reject)
        assert t_reject <= 3 * t_load, f"reject {t_reject:.3f}s vs load {t_load:.3f}s"

    def test_bad_date(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-13-01,1", "2001-01-02,2"])
        with pytest.raises(ParseError, match="bad date"):
            ts.load_csv(p)

    def test_bad_value(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,abc", "2001-01-02,2"])
        with pytest.raises(ParseError, match="bad value"):
            ts.load_csv(p)

    def test_non_finite_value(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,nan", "2001-01-02,2"])
        with pytest.raises(ParseError, match="non-finite"):
            ts.load_csv(p)

    def test_missing_columns(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["1.0", "2.0"], header="value")
        with pytest.raises(ParseError, match="date"):
            ts.load_csv(p)
        p2 = write_series_csv(tmp_path / "t.csv", ["2001-01-01"], header="date")
        with pytest.raises(ParseError, match="value"):
            ts.load_csv(p2)

    def test_too_few_rows(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,1"])
        with pytest.raises(InsufficientDataError):
            ts.load_csv(p)

    def test_custom_columns_and_format(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv",
            ["02/01/2001,4.0", "01/01/2001,3.0"],
            header="day,flow",
        )
        series = ts.load_csv(p, date_col="day", value_col="flow", date_format="%d/%m/%Y")
        np.testing.assert_array_equal(series.values, [3.0, 4.0])


class TestDeseasonalize:
    def test_unit_std_input_unchanged(self):
        # two non-leap years; each calendar day's pair differs by sqrt(2),
        # so every per-day sample std is exactly 1
        rng = np.random.default_rng(0)
        base = rng.normal(size=365)
        values = np.concatenate([base, base + np.sqrt(2.0)])
        series = daily_series("2001-01-01", values)
        scaled, profile = ts.deseasonalize(series)
        np.testing.assert_allclose(scaled.values, values, rtol=1e-12)
        assert profile.lookup(7, 15) == pytest.approx(1.0)

    def test_doubling_one_day_is_invariant(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=730) + 5.0
        series = daily_series("2001-01-01", values)
        before, _ = ts.deseasonalize(series)
        doubled = values.copy()
        march1 = [i for i, d in enumerate(series.dates) if str(d)[5:] == "03-01"]
        doubled[march1] *= 2.0
        after, _ = ts.deseasonalize(daily_series("2001-01-01", doubled))
        np.testing.assert_allclose(after.values, before.values, rtol=1e-12)

    def test_output_per_day_std_is_one(self):
        # four years including a leap day; recompute pooled per-day stds
        rng = np.random.default_rng(2)
        n = (np.datetime64("2005-01-01") - np.datetime64("2001-01-01")).astype(int)
        series = daily_series("2001-01-01", rng.gamma(2.0, size=n) * rng.uniform(0.5, 3.0))
        scaled, _ = ts.deseasonalize(series)
        groups = {}
        for d, v in zip(scaled.dates, scaled.values):
            groups.setdefault(pooled_day(d), []).append(v)
        for key, obs in groups.items():
            assert np.std(obs, ddof=1) == pytest.approx(1.0, abs=1e-12), key

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        series = daily_series("2001-01-01", rng.lognormal(size=1095))
        once, _ = ts.deseasonalize(series)
        twice, profile = ts.deseasonalize(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-10)
        for s in profile.scale.values():
            assert s == pytest.approx(1.0, rel=1e-12)

    def test_feb29_pooled_with_feb28(self):
        rng = np.random.default_rng(4)
        n = (np.datetime64("2005-01-01") - np.datetime64("2003-01-01")).astype(int)
        series = daily_series("2003-01-01", rng.normal(size=n))
        _, profile = ts.deseasonalize(series)
        assert profile.lookup(2, 29) == profile.lookup(2, 28)
        assert (2, 29) not in profile.scale

    def test_single_observation_day(self):
        series = daily_series("2001-01-01", [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError, match="fewer than two"):
            ts.deseasonalize(series)

    def test_zero_spread_day(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=730)
        values[0] = values[365] = 7.0  # both Jan 1 observations equal
        with pytest.raises(DegenerateDataError, match="zero spread"):
            ts.deseasonalize(daily_series("2001-01-01", values))


class TestYuleWalker:
    def test_matches_direct_toeplitz_solve(self):
        rng = np.random.default_rng(6)
        x = ar_series([0.6, -0.2, 0.1], 5000, rng)
        n = x.size
        xc = x - x.mean()
        r = np.array([xc[: n - h] @ xc[h:] / n for h in range(41)])
        for p in (1, 2, 5, 17, 40):
            direct = solve_toeplitz(r[:p], r[1 : p + 1])
            fit = ts.yule_walker(x, p)
            np.testing.assert_allclose(fit.coefficients, direct, atol=1e-8)

    def test_ar1_recovery(self):
        x = ar_series([0.5], 100_000, np.random.default_rng(7))
        fit = ts.yule_walker(x, 1)
        assert fit.coefficients[0] == pytest.approx(0.5, abs=0.02)
        assert fit.noise_variance == pytest.approx(1.0, abs=0.05)

    def test_ar2_recovery(self):
        x = ar_series([0.5, -0.3], 100_000, np.random.default_rng(8))
        fit = ts.yule_walker(x, 2)
        np.testing.assert_allclose(fit.coefficients, [0.5, -0.3], atol=0.05)
        assert fit.order == 2
        assert fit.mean == pytest.approx(x.mean())

    def test_white_noise_phi1_near_zero(self):
        n = 20_000
        x = np.random.default_rng(9).standard_normal(n)
        fit = ts.yule_walker(x, 1)
        assert abs(fit.coefficients[0]) < 3.0 / np.sqrt(n)

    def test_errors(self):
        with pytest.raises(ParameterError):
            ts.yule_walker([1.0, 2.0, 3.0], 0)
        with pytest.raises(InsufficientDataError):
            ts.yule_walker([1.0, 2.0], 2)
        with pytest.raises(DegenerateDataError):
            ts.yule_walker(np.ones(100), 1)


class TestAicSelection:
    def test_table_matches_definition(self):
        rng = np.random.default_rng(10)
        x = ar_series([0.4], 3000, rng)
        n = x.size
        table = ts.aic_table(x, 6)
        assert table.shape == (7,)
        assert table[0] == pytest.approx(n * np.log(np.var(x)) + 0.0)
        for p in range(1, 7):
            sig2 = ts.yule_walker(x, p).noise_variance
            assert table[p] == pytest.approx(n * np.log(sig2) + 2 * p)

    def test_select_is_argmin(self):
        rng = np.random.default_rng(11)
        x = ar_series([0.5, -0.3], 10_000, rng)
        table = ts.aic_table(x, 8)
        assert ts.select_order_aic(x, 8) == int(np.argmin(table))

    def test_p_max_zero(self):
        assert ts.select_order_aic(np.random.default_rng(12).standard_normal(50), 0) == 0

    def test_white_noise_rate(self):
        # the 2-point AIC penalty leaves a lasting overfit probability
        # (~28% with ten spurious candidate orders), so the correct-order
        # rate plateaus near 0.72 no matter how long the series is
        rng = np.random.default_rng(424242)
        sel = np.array([ts.select_order_aic(rng.standard_normal(2000), 10) for _ in range(50)])
        assert 0.55 <= np.mean(sel == 0) <= 0.90

    def test_ar2_rate_and_no_underfit(self):
        rng = np.random.default_rng(515151)
        sel = []
        for _ in range(50):
            x = ar_series([0.5, -0.3], 100_000, rng)
            sel.append(ts.select_order_aic(x, 10))
        sel = np.array(sel)
        assert np.mean(sel == 2) >= 0.70
        assert sel.min() >= 2  # a strong AR(2) signal is never underfit

    def test_errors(self):
        with pytest.raises(ParameterError):
            ts.aic_table([1.0, 2.0], -1)
        with pytest.raises(InsufficientDataError):
            ts.aic_table([1.0, 2.0], 5)
        with pytest.raises(DegenerateDataError):
            ts.aic_table(np.full(50, 3.3), 2)


class TestResiduals:
    def test_matches_hand_loop(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=30)
        model = ts.ARModel(3, np.array([0.4, -0.2, 0.1]), 1.0, float(x.mean()))
        got = ts.residuals(x, model)
        xc = x - x.mean()
        want = [
            xc[t] - 0.4 * xc[t - 1] + 0.2 * xc[t - 2] - 0.1 * xc[t - 3]
            for t in range(3, 30)
        ]
        np.testing.assert_allclose(got, want, atol=1e-14)
        assert got.size == 27

    def test_order_zero_is_mean_centered(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        model = ts.ARModel(0, np.empty(0), 1.0, 3.0)
        np.testing.assert_allclose(ts.residuals(x, model), x - 3.0)

    def test_true_model_leaves_white_residuals(self):
        n = 50_000
        x = ar_series([0.7], n, np.random.default_rng(14))
        model = ts.ARModel(1, np.array([0.7]), 1.0, float(x.mean()))
        rho = ts.acf(ts.residuals(x, model), 1)
        assert abs(rho[1]) < 3.0 / np.sqrt(n)

    def test_constant_series_zero_coefficient(self):
        model = ts.ARModel(1, np.array([0.0]), 0.0, 5.0)
        np.testing.assert_array_equal(ts.residuals(np.full(10, 5.0), model), np.zeros(9))

    def test_short_series(self):
        model = ts.ARModel(3, np.array([0.1, 0.1, 0.1]), 1.0, 0.0)
        with pytest.raises(InsufficientDataError):
            ts.residuals([1.0, 2.0, 3.0], model)


class TestAcf:
    def test_lag_zero_is_one(self):
        assert ts.acf([1.0, 4.0, 2.0, 8.0], 0)[0] == 1.0

    def test_alternating_series(self):
        n = 1000
        x = np.resize([1.0, -1.0], n)
        rho = ts.acf(x, 1)
        # biased normalization: rho(1) = -(n-1)/n exactly
        assert rho[1] == pytest.approx(-(n - 1) / n, abs=1e-12)
        assert abs(rho[1] + 1.0) <= 2.0 / n

    def test_hand_case(self):
        rho = ts.acf([1.0, 2.0, 3.0, 4.0], 1)
        assert rho[1] == pytest.approx(0.25)

    def test_iid_noise_mostly_inside_band(self):
        n = 10_000
        rho = ts.acf(np.random.default_rng(15).standard_normal(n), 20)
        inside = np.abs(rho[1:]) < 3.0 / np.sqrt(n)
        assert inside.mean() >= 0.95

    def test_errors(self):
        with pytest.raises(ParameterError):
            ts.acf([1.0, 2.0], -1)
        with pytest.raises(InsufficientDataError):
            ts.acf([1.0, 2.0], 2)
        with pytest.raises(DegenerateDataError):
            ts.acf(np.ones(10), 1)


class TestSyntheticComposite:
    def test_calendar_layout(self):
        comp = ts.synthetic_composite(2, [0.5], ts.Exponential(1), ts.RandomSeed(1))
        assert comp.n == 730  # 2001-2002, no leap day
        assert str(comp.dates[0]) == "2001-01-01"
        assert str(comp.dates[-1]) == "2002-12-31"
        assert np.all(np.diff(comp.dates).astype(int) == 1)

    def test_deterministic_and_stream_sensitive(self):
        a = ts.synthetic_composite(2, [0.5], ts.Pareto(5), ts.RandomSeed(3, 1))
        b = ts.synthetic_composite(2, [0.5], ts.Pareto(5), ts.RandomSeed(3, 1))
        c = ts.synthetic_composite(2, [0.5], ts.Pareto(5), ts.RandomSeed(3, 2))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_innovations_are_centered(self):
        comp = ts.synthetic_composite(
            4, [0.0], ts.Exponential(1), ts.RandomSeed(4), amplitude=0.0
        )
        assert abs(comp.values.mean()) < 0.05 * comp.values.std()

    def test_seasonal_scale_shows_in_profile(self):
        comp = ts.synthetic_composite(6, [0.5], ts.Exponential(1), ts.RandomSeed(5))
        _, profile = ts.deseasonalize(comp)
        # sin profile peaks in early April and bottoms out in early October
        assert profile.lookup(4, 1) > 3.0 * profile.lookup(10, 1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ts.synthetic_composite(1, [0.5], ts.Exponential(1), ts.RandomSeed(0))
        with pytest.raises(ParameterError):
            ts.synthetic_composite(3, [0.5], ts.Exponential(1), ts.RandomSeed(0), amplitude=1.0)
        with pytest.raises(ParameterError):
            ts.synthetic_composite(3, [0.5], ts.Exponential(1), ts.RandomSeed(0), amplitude=-0.1)
        with pytest.raises(ParameterError):
            # infinite-mean law cannot be centered
            ts.synthetic_composite(3, [0.5], ts.Pareto(1), ts.RandomSeed(0))

    def test_end_to_end_recovery(self):
        # long record so the per-day scale estimates are tight: the fitted
        # AR(2) lands within 0.05 and the residual tail keeps its shape
        comp = ts.synthetic_composite(200, [0.5, -0.3], ts.Pareto(5), ts.RandomSeed(21, 9))
        scaled, _ = ts.deseasonalize(comp)
        fit = ts.yule_walker(scaled.values, 2)
        np.testing.assert_allclose(fit.coefficients, [0.5, -0.3], atol=0.05)
        res = ts.residuals(scaled.values, fit)
        sample = ts.order_statistics(res)
        pts = ts.me_plot(sample, max(2, int(0.005 * sample.n)), int(0.2 * sample.n))
        xi = ts.ls_fit(pts, "me").xi_hat
        assert xi == pytest.approx(0.2, abs=0.1)


class TestCalendarAgainstReference:
    def assert_same_deseasonalize(self, series):
        new_scaled, new_profile = ts.deseasonalize(series)
        old_scaled, old_profile = old_deseasonalize(series)
        assert new_scaled.values.tobytes() == old_scaled.values.tobytes()
        assert new_scaled.dates.tobytes() == old_scaled.dates.tobytes()
        assert list(new_profile.scale.items()) == list(old_profile.scale.items())

    def test_200_year_composite(self):
        comp = ts.synthetic_composite(200, [0.5, -0.3], ts.Pareto(5), ts.RandomSeed(3, 13))
        assert comp.n == 73_048
        self.assert_same_deseasonalize(comp)

    def test_feb29_pooling_2003_to_2008(self):
        rng = np.random.default_rng(9)
        n = (np.datetime64("2009-01-01") - np.datetime64("2003-01-01")).astype(int)
        series = daily_series("2003-01-01", rng.gamma(2.0, size=n))
        self.assert_same_deseasonalize(series)
        _, profile = ts.deseasonalize(series)
        assert (2, 29) not in profile.scale and len(profile.scale) == 365

    @pytest.mark.parametrize("start_year", [1, 1900, 2001])
    def test_composite_dates_and_values(self, start_year):
        comp = ts.synthetic_composite(
            6, [0.5], ts.Exponential(1), ts.RandomSeed(4), start_year=start_year
        )
        want = old_composite_dates(6, start_year)
        assert comp.dates.dtype == want.dtype
        assert comp.dates.tobytes() == want.tobytes()
        self.assert_same_deseasonalize(comp)

    @pytest.mark.parametrize("start, n, tweak, message", [
        # 2001-03-01 .. 2002-08-31: Jan 1 is seen once, and sorts first
        ("2001-03-01", 549, None, "calendar day 01-01 has fewer than two observations"),
        ("2001-01-01", 1461, "05-07", "calendar day 05-07 has zero spread"),
    ])
    def test_degenerate_day_messages(self, start, n, tweak, message):
        rng = np.random.default_rng(10)
        series = daily_series(start, rng.normal(size=n))
        if tweak is not None:
            same = [i for i, d in enumerate(series.dates) if str(d)[5:] == tweak]
            series.values[same] = 2.5
        for fn in (ts.deseasonalize, old_deseasonalize):
            with pytest.raises(DegenerateDataError) as info:
                fn(series)
            assert str(info.value) == message


class TestAnalyzeSeries:
    def test_matches_the_stages_it_chains(self):
        comp = ts.synthetic_composite(20, [0.5, -0.3], ts.Pareto(5), ts.RandomSeed(2, 5))
        an = ts.analyze_series(comp, 4)
        scaled, profile = ts.deseasonalize(comp)
        aic = ts.aic_table(scaled.values, 4)
        order = int(np.argmin(aic))
        assert order >= 1 and an.model.order == order
        fit = ts.yule_walker(scaled.values, order)
        resid = ts.residuals(scaled.values, fit)
        assert an.profile == profile
        assert an.aic.tobytes() == aic.tobytes()
        assert an.model.coefficients.tobytes() == fit.coefficients.tobytes()
        assert an.residuals.tobytes() == resid.tobytes()
        assert an.acf.tobytes() == ts.acf(resid, 40).tobytes()
        assert an.trim == ts.default_trim(resid.size)
        pts = ts.me_plot(ts.order_statistics(resid), *an.trim)
        assert an.me_points.points.tobytes() == pts.points.tobytes()
        assert an.me_fit == ts.ls_fit(pts, "me")

    def test_order_zero_fallback_on_white_noise(self):
        rng = np.random.default_rng(3)
        n = (np.datetime64("2004-01-01") - np.datetime64("1999-01-01")).astype(int)
        series = daily_series("1999-01-01", rng.normal(size=n))
        an = ts.analyze_series(series, 3)
        x = ts.deseasonalize(series)[0].values
        assert an.model.order == 0
        assert an.model.coefficients.size == 0
        assert an.model.noise_variance == np.var(x)
        assert an.model.mean == x.mean()
        np.testing.assert_array_equal(an.residuals, x - x.mean())

    def test_gap_is_degenerate(self):
        rng = np.random.default_rng(8)
        series = daily_series("2001-01-01", rng.normal(size=800))
        keep = np.arange(series.n) != 100
        gappy = ts.TimeSeries(series.dates[keep], series.values[keep])
        with pytest.raises(DegenerateDataError, match=r"1 missing day\(s\) in 2001-01-01\.\."):
            ts.analyze_series(gappy, 3)
