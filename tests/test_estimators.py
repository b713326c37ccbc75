import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tailscope as ts
from tailscope.errors import (
    DegenerateDataError,
    DomainError,
    IndexRangeError,
    InsufficientDataError,
    ParameterError,
    SingularDesignError,
)

E = math.e


def srt(values):
    return ts.order_statistics(values)


class TestLsFit:
    def test_exact_line(self):
        x = np.linspace(0, 5, 20)
        fit = ts.ls_fit(np.column_stack([x, 2 * x + 1]), "raw")
        assert fit.slope == pytest.approx(2.0, abs=1e-13)
        assert fit.intercept == pytest.approx(1.0, abs=1e-13)
        assert fit.rss < 1e-18 * len(x)
        assert fit.n_points == 20
        assert fit.xi_hat is None

    def test_me_transform(self):
        x = np.linspace(1, 4, 10)
        fit = ts.ls_fit(np.column_stack([x, x]), "me")  # slope 1
        assert fit.xi_hat == pytest.approx(0.5, abs=1e-13)

    def test_me_transform_monotone_in_slope(self):
        slopes = np.linspace(-0.9, 5.0, 60)
        xis = []
        for b in slopes:
            x = np.linspace(0, 1, 5)
            xis.append(ts.ls_fit(np.column_stack([x, b * x]), "me").xi_hat)
        assert all(a < b for a, b in zip(xis, xis[1:]))

    def test_qq_pos_transform_is_identity(self):
        x = np.linspace(0, 3, 7)
        fit = ts.ls_fit(np.column_stack([x, 0.37 * x]), "qq-pos")
        assert fit.xi_hat == pytest.approx(0.37, abs=1e-13)

    def test_against_polyfit(self):
        rng = np.random.default_rng(17)
        x = rng.random(50)
        y = 3 * x - 2 + 0.1 * rng.standard_normal(50)
        fit = ts.ls_fit(np.column_stack([x, y]), "raw")
        b, a = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(b, rel=1e-10)
        assert fit.intercept == pytest.approx(a, rel=1e-10)

    def test_degenerate_designs(self):
        with pytest.raises(SingularDesignError):
            ts.ls_fit(np.array([[1.0, 2.0]]), "raw")
        with pytest.raises(SingularDesignError):
            ts.ls_fit(np.array([[1.0, 2.0], [1.0, 3.0]]), "raw")
        with pytest.raises(ParameterError):
            ts.ls_fit(np.array([[1.0, 2.0], [2.0, 3.0]]), "bogus")

    @pytest.mark.parametrize("j", [-900, -565, -300, 300, 505, 510, 700, 1000, 1016, 1019])
    def test_fit_scales_exactly_by_powers_of_two(self, j):
        # x and y times 2^j: the same slope, the intercept times 2^j and the
        # rss times 2^2j, bit for bit, or inf where that is not a double;
        # from 2^1015 the sum of the 300 values is not a double either
        rng = np.random.default_rng(5)
        x = rng.pareto(2.0, 300) + 1.0
        pts = np.column_stack([x, 0.8 * x + rng.standard_normal(300)])
        ref, fit = ts.ls_fit(pts, "me"), ts.ls_fit(pts * 2.0**j, "me")
        assert (fit.slope, fit.xi_hat) == (ref.slope, ref.xi_hat)
        assert fit.intercept == math.ldexp(ref.intercept, j)
        try:
            assert fit.rss == math.ldexp(ref.rss, 2 * j)
        except OverflowError:
            assert fit.rss == math.inf

    def test_me_slope_minus_one_rejected(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(DegenerateDataError):
            ts.ls_fit(np.column_stack([x, -x]), "me")


class TestHill:
    def test_hand_case(self):
        s = srt([E**3, E**2, E, 1.0])
        assert ts.hill(s, 3) == pytest.approx(0.5, abs=1e-14)

    def test_single_spacing(self):
        s = srt([5 * E, 5.0, 0.1])
        assert ts.hill(s, 1) == pytest.approx(1.0, abs=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.pareto(2, 100) + 1
        a = ts.hill(srt(data), 30)
        b = ts.hill(srt(1000.0 * data), 30)
        assert b == pytest.approx(a, rel=4e-16)

    def test_pareto_consistency(self):
        x = ts.Pareto(2).sample(100_000, ts.RandomSeed(61))
        assert ts.hill(srt(x), 1000) == pytest.approx(2.0, abs=0.2)

    def test_errors(self):
        s = srt([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(IndexRangeError):
            ts.hill(s, 4)
        with pytest.raises(IndexRangeError):
            ts.hill(s, 0)
        with pytest.raises(DomainError):
            ts.hill(srt([2.0, 1.0, -1.0]), 2)
        with pytest.raises(DegenerateDataError):
            ts.hill(srt([3.0, 3.0, 3.0, 1.0]), 2)


class TestPickands:
    def test_hand_case(self):
        s = srt([7.0, 3.0, 2.0, 1.0])
        assert ts.pickands(s, 1) == pytest.approx(1.0, abs=1e-14)

    def test_equal_spacings_give_zero(self):
        s = srt([5.0, 4.0, 3.5, 3.0, 2.0, 1.0, 0.5, 0.2])
        # X_(1)-X_(2) = 1, X_(2)-X_(4) = 1
        assert ts.pickands(s, 1) == pytest.approx(0.0, abs=1e-14)

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.exponential(size=200)
        a = ts.pickands(srt(data), 40)
        b = ts.pickands(srt(10.0 + 3.0 * data), 40)
        assert b == pytest.approx(a, abs=4e-15)

    def test_exponential_consistency(self):
        x = ts.Exponential(1).sample(100_000, ts.RandomSeed(62))
        assert abs(ts.pickands(srt(x), 1000)) < 0.15

    def test_errors(self):
        s = srt([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(IndexRangeError):
            ts.pickands(s, 2)  # 4m > n
        with pytest.raises(DegenerateDataError):
            ts.pickands(srt([4.0, 2.0, 2.0, 2.0]), 1)


class TestMoment:
    def test_hand_case(self):
        # H1 = 2, H2 = 14/3: 2 + 1 - 0.5/(1 - 4/(14/3)) = 3 - 3.5
        s = srt([E**3, E**2, E, 1.0])
        assert ts.moment(s, 3) == pytest.approx(-0.5, abs=1e-12)

    def test_pareto_consistency(self):
        x = ts.Pareto(2).sample(100_000, ts.RandomSeed(63))
        assert ts.moment(srt(x), 1000) == pytest.approx(0.5, abs=0.1)

    def test_exponential_consistency(self):
        x = ts.Exponential(1).sample(100_000, ts.RandomSeed(64))
        assert abs(ts.moment(srt(x), 1000)) < 0.1

    def test_degenerate_ties(self):
        with pytest.raises(DegenerateDataError):
            ts.moment(srt([3.0, 3.0, 3.0, 1.0]), 2)

    def test_h1_squared_equal_h2_rejected(self):
        # two values with one distinct log spacing: H2 == H1^2 exactly
        s = srt([2.0 * E, 2.0, 1.0])
        with pytest.raises(DegenerateDataError):
            ts.moment(s, 1)


class TestQQPos:
    def test_anchor_point_is_origin(self):
        s = srt([E**2, E, 1.0])
        pts = ts.qq_points_pos(s, 3)
        np.testing.assert_allclose(pts.points[-1], [0.0, 0.0], atol=1e-15)

    def test_hand_points(self):
        s = srt([E**2, E, 1.0])
        pts = ts.qq_points_pos(s, 3)
        np.testing.assert_allclose(pts.y, [2.0, 1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(
            pts.x, [-math.log(1 / 3), -math.log(2 / 3), 0.0], atol=1e-14
        )

    def test_exact_pareto_quantiles_are_collinear(self):
        m, xi = 500, 0.7
        x = (np.arange(1, m + 1) / m) ** -xi * 3.0
        pts = ts.qq_points_pos(srt(x), m)
        fit = ts.ls_fit(pts, "qq-pos")
        assert abs(fit.slope - xi) < 1e-12
        assert fit.rss < 1e-18 * m

    def test_pareto_slope_consistency(self):
        x = ts.Pareto(2).sample(100_000, ts.RandomSeed(65))
        fit = ts.ls_fit(ts.qq_points_pos(srt(x), 5000), "qq-pos")
        assert fit.xi_hat == pytest.approx(0.5, abs=0.05)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ts.qq_points_pos(srt([2.0, 1.0, -1.0]), 3)


class TestQQNeg:
    def test_uniform_hand_case(self):
        # xi_pre = -1 makes the reference quantile G^{-1}(p) = p
        s = srt([0.8, 0.3, 0.6, 0.1])
        pts = ts.qq_points_neg(s, 4, xi_pre=-1.0)
        np.testing.assert_allclose(pts.x, [0.1, 0.3, 0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(pts.y, [0.2, 0.4, 0.6, 0.8], atol=1e-12)

    def test_perfect_gpd_quantiles_collinear(self):
        n, xi = 200, -0.5
        vals = ts.GPD(xi, 1.0).quantile(np.arange(1, n + 1) / (n + 1))
        pts = ts.qq_points_neg(srt(vals), n, xi_pre=xi)
        fit = ts.ls_fit(pts, "raw")
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.rss < 1e-18 * n

    def test_beta_correlation_restricted_to_tail(self):
        # near the right endpoint the excess law is GPD, so the top-m
        # restriction of the plot is nearly collinear; the full-range plot
        # compares two globally different quantile curves and tops out near
        # corr 0.983 even in the infinite-sample limit
        x = ts.Beta(2, 2).sample(50_000, ts.RandomSeed(66))
        s = srt(x)
        pts = ts.qq_points_neg(s, 1000, restrict=True)
        assert np.corrcoef(pts.x, pts.y)[0, 1] > 0.99

    def test_full_range_still_strongly_monotone(self):
        x = ts.Beta(2, 2).sample(50_000, ts.RandomSeed(66))
        s = srt(x)
        pts = ts.qq_points_neg(s, 1000)
        assert len(pts) == s.n
        assert np.corrcoef(pts.x, pts.y)[0, 1] > 0.97
        assert np.all(np.diff(pts.x) >= 0) and np.all(np.diff(pts.y) > 0)

    def test_default_preestimate_is_pickands(self):
        x = ts.Beta(2, 2).sample(4000, ts.RandomSeed(67))
        s = srt(x)
        got = ts.qq_points_neg(s, 1000)
        want = ts.qq_points_neg(s, 1000, xi_pre=ts.pickands(s, 1000))
        np.testing.assert_allclose(got.points, want.points)

    def test_nonnegative_preestimate_rejected(self):
        s = srt([0.8, 0.3, 0.6, 0.1])
        with pytest.raises(ParameterError):
            ts.qq_points_neg(s, 4, xi_pre=0.0)


ESTIMATORS = {"hill": ts.hill, "pickands": ts.pickands, "moment": ts.moment}


class TestTraceProperties:
    @given(data=hnp.arrays(np.float64, st.integers(8, 60),
                           elements=st.integers(-40, 400).map(lambda i: i / 4)),
           kind=st.sampled_from(sorted(ESTIMATORS)), stride=st.integers(1, 5))
    def test_trace_is_its_pointwise_estimator(self, data, kind, stride):
        # quarter-integers from a short range: ties and nonpositive values
        # are common, so every skip rule is exercised
        s = srt(data)
        try:
            tr = ts.trace(s, kind, stride=stride)
        except DegenerateDataError:
            assert np.count_nonzero(data > 0) < 2
            return
        for m, value in zip(tr.m, tr.value):
            assert ESTIMATORS[kind](s, int(m)) == value
        for m, _ in tr.skipped:
            with pytest.raises(DegenerateDataError):
                ESTIMATORS[kind](s, m)

    @given(data=hnp.arrays(np.float64, st.integers(8, 60), unique=True,
                           elements=st.integers(0, 2000).map(lambda i: math.exp(i / 100))),
           scale=st.floats(1e-6, 1e6))
    def test_hill_and_moment_scale_invariant(self, data, scale):
        # distinct log values 0.01 apart keep every m away from the skip rules
        a, b = srt(data), srt(scale * data)
        for m in range(1, a.n):
            assert ts.hill(b, m) == pytest.approx(ts.hill(a, m), rel=1e-12)
            if m > 1:
                assert ts.moment(b, m) == pytest.approx(ts.moment(a, m), rel=1e-9)


class TestPowerOfTwoScale:
    # multiplying by 2^j is exact, and each reading below is a ratio of sums
    # taken after power-of-two scaling, or of logs of ratios, so it reads the
    # same bit for bit wherever the data stay normal
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-900, 505),
           law=st.sampled_from([ts.Pareto(2), ts.Pareto(0.8), ts.LogNormal(0, 1),
                                ts.GPD(-0.3, 1)]))
    def test_readings_bitwise_equal_at_any_power_of_two_scale(self, seed, j, law):
        x = law.sample(300, ts.RandomSeed(seed))
        scaled = x * 2.0**j
        assert np.array_equal(scaled * 2.0**-j, x)  # every value stayed normal
        a, b = srt(x), srt(scaled)
        trim = ts.plotted_trim(a, *ts.default_trim(a.n))
        assert (ts.ls_fit(ts.me_plot(b, *trim), "me").xi_hat
                == ts.ls_fit(ts.me_plot(a, *trim), "me").xi_hat)
        m = ts.default_k(a.n)
        assert (ts.ls_fit(ts.qq_points_pos(b, m), "qq-pos").slope
                == ts.ls_fit(ts.qq_points_pos(a, m), "qq-pos").slope)
        for kind in ESTIMATORS:
            ta, tb = ts.trace(a, kind), ts.trace(b, kind)
            assert np.array_equal(tb.m, ta.m) and np.array_equal(tb.value, ta.value)
            assert tb.skipped == ta.skipped


class TestTrace:
    def test_matches_scalar_estimators(self):
        rng = np.random.default_rng(8)
        data = rng.pareto(1.5, 400) + 1
        s = srt(data)
        tr_h = ts.trace(s, "hill")
        tr_p = ts.trace(s, "pickands")
        tr_m = ts.trace(s, "moment")
        for m in (1, 2, 7, 50, 399):
            assert tr_h.at(m) == pytest.approx(ts.hill(s, m), rel=1e-12)
        for m in (1, 10, 100):
            assert tr_p.at(m) == pytest.approx(ts.pickands(s, m), rel=1e-12)
        for m in (2, 9, 77, 399):
            assert tr_m.at(m) == pytest.approx(ts.moment(s, m), rel=1e-12)

    def test_pickands_range(self):
        s = srt(np.arange(1.0, 9.0))
        tr = ts.trace(s, "pickands")
        assert len(tr.m) <= 2  # m <= n//4 = 2

    def test_moment_boundary_entry(self):
        rng = np.random.default_rng(9)
        s = srt(rng.random(50) + 1.0)
        tr = ts.trace(s, "moment")
        assert tr.m[-1] == 49  # m = n-1 admissible for positive data

    def test_skips_recorded_on_ties(self):
        data = np.concatenate([[9.0, 9.0, 9.0], np.linspace(1, 2, 17)])
        s = srt(data)
        tr = ts.trace(s, "hill")
        # m = 1 and m = 2 are degenerate (ties at the top)
        skipped_m = [m for m, _ in tr.skipped]
        assert 1 in skipped_m and 2 in skipped_m
        assert 1 not in tr.m and 2 not in tr.m
        with pytest.raises(IndexRangeError):
            tr.at(1)

    def test_stride(self):
        rng = np.random.default_rng(10)
        s = srt(rng.random(100) + 1.0)
        tr = ts.trace(s, "hill", stride=10)
        assert list(tr.m) == [1, 11, 21, 31, 41, 51, 61, 71, 81, 91]

    def test_small_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            ts.trace(srt(np.arange(1.0, 8.0)), "hill")

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            ts.trace(srt(np.arange(1.0, 20.0)), "bogus")

    def test_moment_on_close_logs_matches_fsum(self):
        # logs spread over 1e-5 around 13.8: cumulating raw logs and their
        # squares cancels, logs relative to X_(1) do not
        y = 1e6 * np.exp(1e-6 * ts.Exponential(1).sample(20_000, ts.RandomSeed(2)))
        s = srt(y)
        logs = np.log(s.values[:10000] / s.x(10001))
        h1 = math.fsum(logs.tolist()) / 10000
        h2 = math.fsum((logs * logs).tolist()) / 10000
        exact = h1 + 1.0 - 0.5 / (1.0 - h1 * h1 / h2)
        assert ts.trace(s, "moment").at(10000) == pytest.approx(exact, rel=1e-6)

    def test_hill_trace_stabilizes_on_pareto(self):
        x = ts.Pareto(2).sample(50_000, ts.RandomSeed(68))
        tr = ts.trace(srt(x), "hill", stride=25)
        sel = (tr.m >= 500) & (tr.m <= 5000)
        assert np.all(np.abs(tr.value[sel] - 2.0) < 0.4)
