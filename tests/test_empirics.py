import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tailscope as ts
from tailscope.empirics import _exceed_counts, _mean_excess, _order_counts, _top_k_me
from tailscope.errors import (
    DegenerateRangeError,
    DomainError,
    EmptyExceedanceError,
    IndexRangeError,
    InsufficientDataError,
    NormalizationError,
    ParameterError,
)


def naive_me(data, u):
    # brute-force oracle for the empirical mean excess
    exceed = [x for x in data if x > u]
    if not exceed:
        return None
    return sum(x - u for x in exceed) / len(exceed)


class TestOrderStatistics:
    def test_descending_and_indexed_from_one(self):
        s = ts.order_statistics([3.0, 1.0, 4.0, 1.0, 5.0])
        np.testing.assert_array_equal(s.values, [5.0, 4.0, 3.0, 1.0, 1.0])
        assert s.n == 5
        assert s.x(1) == 5.0
        assert s.x(5) == 1.0

    def test_index_out_of_range(self):
        s = ts.order_statistics([1.0, 2.0])
        with pytest.raises(IndexRangeError):
            s.x(0)
        with pytest.raises(IndexRangeError):
            s.x(3)

    def test_too_small_or_nonfinite(self):
        with pytest.raises(InsufficientDataError):
            ts.order_statistics([1.0])
        with pytest.raises(DomainError):
            ts.order_statistics([1.0, math.nan])
        with pytest.raises(DomainError):
            ts.order_statistics([1.0, math.inf])

    @given(data=hnp.arrays(np.float64, st.integers(2, 60),
                           elements=st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0]),
                                              st.floats(allow_nan=False, allow_infinity=False))))
    def test_bitwise_equal_to_stable_sort(self, data):
        # repeated values and mixed zeros: -0.0 and 0.0 compare equal, and
        # keep their input order as under the stable sort
        got = ts.order_statistics(data).values
        want = np.sort(data, kind="stable")[::-1]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_signed_zeros_keep_input_order(self):
        data = np.array([0.0, -1.0, -0.0, 0.0, 2.0, -0.0] * 500)
        got = ts.order_statistics(data).values
        want = np.sort(data, kind="stable")[::-1]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_input_not_mutated(self):
        data = np.array([3.0, 1.0, 2.0])
        ts.order_statistics(data)
        np.testing.assert_array_equal(data, [3.0, 1.0, 2.0])


class TestEmpiricalME:
    def test_hand_value(self):
        s = ts.order_statistics([1.0, 2.0, 3.0, 4.0])
        assert ts.empirical_me(s, 2.5) == pytest.approx(1.0)

    def test_threshold_equal_to_observation_uses_strict_exceedance(self):
        s = ts.order_statistics([1.0, 2.0, 3.0, 4.0])
        # X > 3 is just {4}
        assert ts.empirical_me(s, 3.0) == pytest.approx(1.0)

    def test_no_exceedances(self):
        s = ts.order_statistics([1.0, 2.0])
        with pytest.raises(EmptyExceedanceError):
            ts.empirical_me(s, 2.0)

    def test_against_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            data = rng.standard_normal(40).round(1)  # rounding makes ties
            s = ts.order_statistics(data)
            for u in np.linspace(data.min() - 0.5, data.max() - 1e-9, 13):
                ref = naive_me(data, u)
                if ref is None:
                    continue
                assert ts.empirical_me(s, u) == pytest.approx(ref, abs=1e-12)


class TestMePlot:
    def test_hand_case(self):
        s = ts.order_statistics([1.0, 2.0, 3.0, 4.0])
        pts = ts.me_plot(s)
        np.testing.assert_allclose(pts.points, [[3.0, 1.0], [2.0, 1.5], [1.0, 2.0]])

    def test_trimming(self):
        s = ts.order_statistics(np.arange(1.0, 11.0))
        pts = ts.me_plot(s, i_min=3, i_max=5)
        assert len(pts) == 3
        assert pts.x[0] == 8.0  # X_(3)

    def test_bad_ranges(self):
        s = ts.order_statistics(np.arange(1.0, 11.0))
        for lo, hi in ((1, 5), (0, 5), (5, 3), (2, 11)):
            with pytest.raises(IndexRangeError):
                ts.me_plot(s, i_min=lo, i_max=hi)

    def test_ties_give_coincident_points(self):
        s = ts.order_statistics([5.0, 3.0, 3.0, 1.0])
        pts = ts.me_plot(s)
        # i = 2 and i = 3 both have threshold 3.0 and the same excess mean
        np.testing.assert_allclose(pts.points[0], [3.0, 2.0])
        np.testing.assert_allclose(pts.points[1], [3.0, 2.0])

    def test_tied_maxima_rejected(self):
        s = ts.order_statistics([4.0, 4.0, 4.0, 4.0])
        with pytest.raises(EmptyExceedanceError):
            ts.me_plot(s)

    def test_thresholds_tied_with_maximum_dropped(self):
        data = [5.0, 5.0, 3.0, 2.0, 1.0, 1.0, 0.5]
        pts = ts.me_plot(ts.order_statistics(data))
        # X_(2) = X_(1) has no strict exceedance; X_(3)..X_(7) remain
        np.testing.assert_array_equal(pts.x, [3.0, 2.0, 1.0, 1.0, 0.5])
        np.testing.assert_allclose(pts.y, [naive_me(data, u) for u in pts.x], rtol=1e-15)

    @pytest.mark.parametrize("i_min, i_max, trim", [
        (2, None, (3, 7)), (2, 2, None), (2, 3, (3, 3)), (4, 6, (4, 6)), (3, 7, (3, 7)),
    ])
    def test_plotted_trim_names_the_rows(self, i_min, i_max, trim):
        s = ts.order_statistics([5.0, 5.0, 3.0, 2.0, 1.0, 1.0, 0.5])
        if trim is None:
            with pytest.raises(EmptyExceedanceError):
                ts.plotted_trim(s, i_min, i_max)
            return
        assert ts.plotted_trim(s, i_min, i_max) == trim
        lo, hi = trim
        np.testing.assert_array_equal(ts.me_plot(s, i_min, i_max).x, s.values[lo - 1:hi])

    def test_tied_maxima_still_rejected_by_normalizers(self):
        s = ts.order_statistics([5.0, 5.0, 3.0, 2.0, 1.0, 1.0, 0.5])
        with pytest.raises(EmptyExceedanceError):
            ts.normalize_positive(s, 5)

    def test_far_from_zero_matches_fsum(self):
        # mean excesses of Exp(1) + 1e12 are 1; summing raw values cancels
        x = ts.Exponential(1).sample(100_000, ts.RandomSeed(1)) + 1e12
        s = ts.order_statistics(x)
        lo, hi = ts.default_trim(s.n)
        pts = ts.me_plot(s, lo, hi)
        for r in np.unique(np.geomspace(1, len(pts), 40).astype(int)) - 1:
            u = pts.x[r]
            above = s.values[s.values > u]
            exact = math.fsum((above - u).tolist()) / above.size
            assert pts.y[r] == pytest.approx(exact, rel=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        data = rng.exponential(size=60)
        s = ts.order_statistics(data)
        pts = ts.me_plot(s)
        for (u, m), i in zip(pts.points, range(2, 61)):
            assert u == s.x(i)
            assert m == pytest.approx(naive_me(data, u), abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        data = rng.pareto(2, size=50) + 1
        a = ts.me_plot(ts.order_statistics(data))
        b = ts.me_plot(ts.order_statistics(2.0 * data))
        np.testing.assert_allclose(b.points, 2.0 * a.points, rtol=1e-13)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(7)
        data = rng.exponential(size=50)
        a = ts.me_plot(ts.order_statistics(data))
        b = ts.me_plot(ts.order_statistics(data + 5.0))
        np.testing.assert_allclose(b.x, a.x + 5.0, rtol=1e-13)
        np.testing.assert_allclose(b.y, a.y, atol=1e-10)


# few distinct values, so long runs of ties, and runs mixing -0.0 and 0.0
TIE_HEAVY = hnp.arrays(np.float64, st.integers(2, 60),
                       elements=st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.0]))


class TestOnePassCounts:
    """The thresholds are order statistics, so their strict exceedance
    counts come from the runs of ties; a binary search gives the same."""

    @given(data=TIE_HEAVY, ends=st.tuples(st.integers(1, 60), st.integers(1, 60)))
    def test_counts_match_the_binary_search(self, data, ends):
        v = ts.order_statistics(data).values
        lo, hi = sorted(min(e, v.size) for e in ends)
        np.testing.assert_array_equal(_order_counts(v, lo, hi),
                                      _exceed_counts(v, v[lo - 1:hi]))

    @given(data=TIE_HEAVY, ends=st.tuples(st.integers(2, 60), st.integers(2, 60)))
    def test_me_plot(self, data, ends):
        s = ts.order_statistics(data)
        i_min, i_max = sorted(min(e, s.n) for e in ends)
        try:
            lo, hi = ts.plotted_trim(s, i_min, i_max)
        except EmptyExceedanceError:
            with pytest.raises(EmptyExceedanceError):
                ts.me_plot(s, i_min, i_max)
            return
        u = s.values[lo - 1:hi]
        want = _mean_excess(s.values, u, _exceed_counts(s.values, u))
        np.testing.assert_array_equal(ts.me_plot(s, i_min, i_max).y, want)

    @given(data=TIE_HEAVY, k=st.integers(2, 60))
    def test_top_k(self, data, k):
        s = ts.order_statistics(data)
        k = min(k, s.n)
        u = s.values[1:k]
        c = _exceed_counts(s.values, u)
        if c[0] == 0:
            with pytest.raises(EmptyExceedanceError):
                _top_k_me(s, k)
            return
        idx, got_u, me = _top_k_me(s, k)
        np.testing.assert_array_equal(me, _mean_excess(s.values, u, c))


INTS = st.integers(-(2**20), 2**20)


class TestMeanExcessProperties:
    @given(data=hnp.arrays(np.float64, st.integers(2, 60), elements=INTS),
           shift=st.integers(-(2**30), 2**30))
    def test_shift_invariant(self, data, shift):
        # integer data shift exactly, and deviations from the pivot
        # threshold are then the same numbers bit for bit
        assume(np.ptp(data) > 0)
        a = ts.me_plot(ts.order_statistics(data))
        b = ts.me_plot(ts.order_statistics(data + shift))
        np.testing.assert_array_equal(b.x, a.x + shift)
        np.testing.assert_array_equal(b.y, a.y)

    @given(data=hnp.arrays(np.float64, st.integers(2, 60), elements=INTS),
           scale=st.floats(1e-6, 1e6),
           # and near 2^1003, where a span of 2^21 passes the double range
           j=st.integers(-1074, 1023) | st.integers(995, 1003))
    def test_scale_equivariant(self, data, scale, j):
        assume(np.ptp(data) > 0)
        a = ts.me_plot(ts.order_statistics(data))
        b = ts.me_plot(ts.order_statistics(scale * data))
        np.testing.assert_array_equal(b.x, scale * a.x)
        np.testing.assert_allclose(b.y, scale * a.y, rtol=0, atol=1e-13 * scale * np.ptp(data))
        # times 2^j, bit for bit, for every j that keeps x normal: a mean
        # excess past the double range is inf, and one below it rounds once
        with np.errstate(over="ignore"):
            scaled = np.ldexp(data, j)
            big = np.abs(scaled).max()
            assume(big < np.inf and (np.abs(scaled[data != 0]) >= 2.0**-1022).all())
            c = ts.me_plot(ts.order_statistics(scaled))
            np.testing.assert_array_equal(c.x, np.ldexp(a.x, j))
            np.testing.assert_array_equal(c.y, np.ldexp(a.y, j))

    @given(data=hnp.arrays(np.float64, st.integers(2, 60), elements=st.floats(0, 1)),
           offset=st.floats(-1e12, 1e12), spread=st.floats(1e-6, 1e6))
    def test_error_scales_with_range_not_location(self, data, offset, spread):
        s = ts.order_statistics(offset + spread * data)
        assume(s.x(1) > s.x(2))
        pts = ts.me_plot(s)
        for u, y in zip(pts.x, pts.y):
            exact = math.fsum((s.values[s.values > u] - u).tolist()) / np.count_nonzero(s.values > u)
            assert abs(y - exact) <= 1e-13 * (s.x(1) - s.x(s.n))


class TestNormalizePositive:
    def test_pivot_maps_to_abscissa_one(self):
        x = ts.Pareto(2).sample(2000, ts.RandomSeed(31))
        s = ts.order_statistics(x)
        pts = ts.normalize_positive(s, k=200)
        assert pts.x[-1] == pytest.approx(1.0)
        assert len(pts) == 199
        assert np.all(pts.x >= 1.0)

    def test_scale_invariance(self):
        x = ts.Pareto(2).sample(500, ts.RandomSeed(32))
        a = ts.normalize_positive(ts.order_statistics(x), 100)
        b = ts.normalize_positive(ts.order_statistics(7.0 * x), 100)
        np.testing.assert_allclose(a.points, b.points, rtol=1e-12)

    def test_tracks_limit_ray_for_pareto(self):
        # ray slope is xi/(1-xi) = 1 for alpha = 2
        x = ts.Pareto(2).sample(80_000, ts.RandomSeed(33))
        pts = ts.normalize_positive(ts.order_statistics(x), k=2000)
        keep = pts.x <= 3.0
        resid = pts.y[keep] - 1.0 * (pts.x[keep] - 1.0) * 1.0
        # compare to the ray y = (x - 1) * xi/(1-xi) + M(X_(k))/X_(k) offset;
        # crude check: median relative gap to y = x * slope stays small
        med = np.median(np.abs(pts.y[keep] / pts.x[keep] - 1.0))
        assert med < 0.15
        assert resid.shape[0] > 0

    def test_requires_positive_pivot(self):
        s = ts.order_statistics([2.0, 1.0, -3.0])
        with pytest.raises(NormalizationError):
            ts.normalize_positive(s, 3)


class TestNormalizeNegative:
    def test_range_and_limit_segment(self):
        x = ts.Beta(2, 2).sample(60_000, ts.RandomSeed(41))
        s = ts.order_statistics(x)
        pts = ts.normalize_negative(s, k=3000)
        assert np.all((pts.x >= 0.0) & (pts.x <= 1.0))
        assert pts.x[-1] == pytest.approx(0.0)
        # limit segment y = (t-1) xi/(1-xi) with xi = -1/2: y = (1-t)/3
        resid = pts.y - (1.0 - pts.x) / 3.0
        assert np.median(np.abs(resid)) < 0.05

    def test_affine_invariance(self):
        x = ts.Beta(2, 2).sample(400, ts.RandomSeed(42))
        a = ts.normalize_negative(ts.order_statistics(x), 100)
        b = ts.normalize_negative(ts.order_statistics(3.0 * x - 5.0), 100)
        np.testing.assert_allclose(a.points, b.points, atol=1e-10)

    def test_degenerate_range(self):
        s = ts.order_statistics([2.0, 2.0, 2.0, 1.0])
        with pytest.raises(DegenerateRangeError):
            ts.normalize_negative(s, 3)


class TestNormalizeZero:
    def test_limit_is_unit_height_line(self):
        x = ts.Exponential(1).sample(100_000, ts.RandomSeed(43))
        s = ts.order_statistics(x)
        pts = ts.normalize_zero(s, k=5000)
        assert np.all(pts.x >= 0.0)
        assert np.mean(pts.y) == pytest.approx(1.0, abs=0.1)

    def test_median_pivot_height_is_one_by_construction(self):
        # at i with X_(i) = X_(ceil(k/2)) the plotted x is spread/scale;
        # exponential ME is flat so y there is close to 1
        x = ts.Exponential(3).sample(50_000, ts.RandomSeed(44))
        pts = ts.normalize_zero(ts.order_statistics(x), k=2500)
        assert np.median(pts.y) == pytest.approx(1.0, abs=0.1)

    def test_affine_invariance(self):
        x = ts.Exponential(1).sample(400, ts.RandomSeed(45))
        a = ts.normalize_zero(ts.order_statistics(x), 100)
        b = ts.normalize_zero(ts.order_statistics(10.0 * x + 2.0), 100)
        np.testing.assert_allclose(a.points, b.points, atol=1e-10)

    def test_degenerate_spread(self):
        s = ts.order_statistics([5.0, 2.0, 2.0, 2.0, 1.0])
        # k=4: X_(2) == X_(4) == 2
        with pytest.raises(DegenerateRangeError):
            ts.normalize_zero(s, 4)


class TestNormalizeHeavyAndXi1:
    def test_heavy_scaling_hand_check(self):
        x = ts.Pareto(0.5).sample(50_000, ts.RandomSeed(46))
        s = ts.order_statistics(x)
        n, k = s.n, 500
        b_nk = ts.quantile_b(ts.Pareto(0.5), n / k)
        b_n = ts.quantile_b(ts.Pareto(0.5), n)
        pts = ts.normalize_heavy(s, k, b_nk=b_nk, b_n=b_n)
        idx = np.arange(2, k + 1)
        u = s.values[idx - 1]
        np.testing.assert_allclose(pts.x, u / b_nk, rtol=1e-12)
        # y = me * k / b_n recovers the raw plot when multiplied back
        raw = ts.me_plot(s, 2, k)
        np.testing.assert_allclose(pts.y * b_n / k, raw.y, rtol=1e-12)

    def test_xi1_centering_subtracts_along_index(self):
        model = ts.Pareto(1)
        x = model.sample(20_000, ts.RandomSeed(47))
        s = ts.order_statistics(x)
        n, k = s.n, 400
        b_nk = ts.quantile_b(model, n / k)
        b_n = ts.quantile_b(model, n)
        cnk = ts.centering_cnk(model, n, k)
        pts = ts.normalize_xi1(s, k, b_nk=b_nk, b_n=b_n, c_nk=cnk)
        raw = ts.me_plot(s, 2, k)
        idx = np.arange(2, k + 1)
        np.testing.assert_allclose(
            pts.y, raw.y / b_nk - k * cnk / (idx * b_n), rtol=1e-10
        )
        np.testing.assert_allclose(pts.x, raw.x / b_nk, rtol=1e-12)

    def test_positive_scale_required(self):
        s = ts.order_statistics([2.0, 1.0, 0.5])
        with pytest.raises(NormalizationError):
            ts.normalize_heavy(s, 3, b_nk=0.0, b_n=1.0)
        with pytest.raises(NormalizationError):
            ts.normalize_xi1(s, 3, b_nk=1.0, b_n=-1.0, c_nk=0.0)


class TestCentering:
    def test_pareto_one_closed_form(self):
        # n (truncmean(b(n)) - truncmean(b(n/k))) = n (log n - log(n/k)) = n log k
        got = ts.centering_cnk(ts.Pareto(1), 10_000, 100)
        assert got == pytest.approx(10_000 * math.log(100), rel=1e-9)

    def test_k_one_is_zero(self):
        assert ts.centering_cnk(ts.Pareto(1), 1000, 1) == pytest.approx(0.0, abs=1e-9)


class TestPointSet2D:
    def test_csv_round_trip_preserves_doubles(self, tmp_path):
        pts = ts.PointSet2D(
            np.array([[math.pi, 1 / 3], [1e-17, 123456789.123456789]])
        )
        path = tmp_path / "ts_points.csv"
        pts.write_csv(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, pts.points)

    def test_restrict(self):
        pts = ts.PointSet2D(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 5.0]]))
        w = ts.Window(0.5, 2.0, 0.0, 2.0)
        np.testing.assert_array_equal(pts.restrict(w).points, [[1.0, 1.0]])

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            ts.PointSet2D(np.array([1.0, 2.0]))


class TestDefaults:
    def test_default_k(self):
        assert ts.default_k(100_000) == int(100_000**0.7)
        assert ts.default_k(100) == 25

    def test_default_trim(self):
        lo, hi = ts.default_trim(50_000)
        assert (lo, hi) == (250, 50_000)
        assert ts.default_trim(100) == (2, 100)
