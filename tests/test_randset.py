import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import tailscope as ts
from tailscope import randset
from tailscope.errors import (
    ConfigError,
    EmptyExceedanceError,
    EmptyWindowError,
    IndexRangeError,
    InsufficientDataError,
    ParameterError,
)


def brute_hausdorff(pa, pb):
    d = cdist(pa, pb)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def pset(arr):
    return ts.PointSet2D(np.asarray(arr, dtype=float))


WIDE = ts.Window(-100.0, 100.0, -100.0, 100.0)


class TestWindow:
    def test_contains_is_inclusive(self):
        w = ts.Window(0.0, 1.0, 0.0, 2.0)
        inside = w.contains(np.array([[0.0, 0.0], [1.0, 2.0], [0.5, 1.0]]))
        assert inside.all()
        outside = w.contains(np.array([[-0.01, 1.0], [0.5, 2.01]]))
        assert not outside.any()

    def test_diag(self):
        assert ts.Window(0.0, 3.0, 0.0, 4.0).diag == pytest.approx(5.0)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            ts.Window(1.0, 1.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            ts.Window(0.0, 1.0, 2.0, 0.0)

    @pytest.mark.parametrize("bounds", [(1.0, np.inf, 0.0, 4.0), (-np.inf, 3.0, 0.0, 4.0),
                                        (1.0, 3.0, 0.0, np.nan)])
    def test_non_finite_bound(self, bounds):
        with pytest.raises(ParameterError, match="window bounds must be finite"):
            ts.Window(*bounds)


# reference implementations: the per-case limit classes (their points_at
# formulas verbatim) and the discretization that LimitLine, limit_set and
# discretize replaced


class RefPositiveLine:
    t_domain = (1.0, np.inf)

    def __init__(self, xi):
        self.slope = xi / (1.0 - xi)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, self.slope * t])


class RefNegativeSegment:
    t_domain = (0.0, 1.0)

    def __init__(self, xi):
        self.slope = xi / (1.0 - xi)

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, self.slope * (t - 1.0)])


class RefZeroLine:
    t_domain = (0.0, np.inf)

    def __init__(self, xi):
        pass

    def points_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, np.ones_like(t)])


REF_LIMITS = {"positive": RefPositiveLine, "negative": RefNegativeSegment, "zero": RefZeroLine}


def ref_discretize(limit, window, resolution):
    t_lo = max(window.x_lo, limit.t_domain[0])
    t_hi = min(window.x_hi, limit.t_domain[1])
    if t_lo > t_hi:
        return np.empty((0, 2))
    delta = window.diag / resolution
    if t_lo == t_hi:
        pts = limit.points_at(np.array([t_lo]))
        return pts[window.contains(pts)]
    n = resolution + 1
    while True:
        t = np.linspace(t_lo, t_hi, n)
        pts = limit.points_at(t)
        gaps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        if gaps.size == 0 or gaps.max() <= delta or n > (1 << 21):
            break
        n *= 2
    return pts[window.contains(pts)]


class TestLimitSets:
    def test_positive_line_points(self):
        line = ts.limit_set("positive", 0.5)  # slope 1
        pts = line.points_at(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(pts, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])

    def test_positive_line_shape_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                ts.limit_set("positive", bad)

    def test_negative_segment_endpoints(self):
        seg = ts.limit_set("negative", -0.5)  # slope (t-1)*(-1/3)... y(0)=1/3, y(1)=0
        pts = seg.points_at(np.array([0.0, 1.0]))
        np.testing.assert_allclose(pts, [[0.0, 1.0 / 3.0], [1.0, 0.0]])

    def test_zero_line(self):
        pts = ts.limit_set("zero", 0.0).points_at(np.array([0.0, 2.5]))
        np.testing.assert_allclose(pts, [[0.0, 1.0], [2.5, 1.0]])

    def test_limit_set_rejects_unknown_case_and_uncovered_shape(self):
        with pytest.raises(ParameterError, match="case must be one of"):
            ts.limit_set("sideways", 0.5)
        for case, bad in (("negative", 0.0), ("negative", 0.3), ("zero", 0.5),
                          ("zero", -0.1), ("positive", None)):
            with pytest.raises(ParameterError, match=f"{case} case needs"):
                ts.limit_set(case, bad)

    @pytest.mark.parametrize("case,shapes", [
        ("positive", (0.05, 0.25, 0.4, 0.5, 2.0 / 3.0, 0.75, 0.79)),
        ("negative", (-3.0, -1.0, -0.5, -0.25, -0.01)),
        ("zero", (0.0,)),
    ])
    def test_discretized_lines_match_reference(self, case, shapes):
        # by value, not bytes: the reference segment ends at y = -0.0
        windows = [ts.Window(1.5, 2.5, -10.0, 10.0), ts.Window(0.0, 1.0, 5.0, 6.0),
                   ts.Window(-1.0, 0.5, -1.0, 2.0), ts.Window(0.9, 1.0, 0.0, 1.0)]
        for xi in shapes:
            for window in [ts.default_window(case, xi), *windows]:
                for res in (1, 7, 64, 512):
                    got = ts.discretize(ts.limit_set(case, xi), window, res).points
                    ref = ref_discretize(REF_LIMITS[case](xi), window, res)
                    np.testing.assert_array_equal(got, ref)


class TestDiscretize:
    def test_gap_guarantee_covers_curve(self):
        window = ts.Window(1.0, 3.0, 0.0, 4.0)
        res = 64
        delta = window.diag / res
        grid = ts.discretize(ts.limit_set("positive", 0.4), window, resolution=res)
        # oracle: a very fine sampling of the true curve restricted to the
        # window must have a discretized neighbour within delta
        t = np.linspace(1.0, 3.0, 20_001)
        fine = ts.limit_set("positive", 0.4).points_at(t)
        fine = fine[window.contains(fine)]
        d = cdist(fine, grid.points).min(axis=1)
        assert d.max() <= delta + 1e-12

    def test_steep_ray_gap(self):
        # slope 3 leaves the window through its top edge, so 65 points over
        # x in [1, 3] are too sparse and the grid doubles to 130
        window = ts.default_window("positive")
        res = 64
        delta = window.diag / res
        grid = ts.discretize(ts.limit_set("positive", 0.75), window, resolution=res)
        assert len(grid) == 22  # t = 1 + 2i/129 <= 4/3
        gaps = np.hypot(*np.diff(grid.points, axis=0).T)
        assert gaps.max() <= delta
        t = np.linspace(1.0, 3.0, 50_001)
        fine = ts.limit_set("positive", 0.75).points_at(t)
        fine = fine[window.contains(fine)]
        assert cdist(fine, grid.points).min(axis=1).max() <= delta + 1e-12

    def test_disjoint_window_is_empty(self):
        out = ts.discretize(ts.limit_set("zero", 0.0), ts.Window(0.0, 1.0, 5.0, 6.0))
        assert len(out) == 0

    def test_x_range_respected(self):
        window = ts.Window(1.5, 2.5, -10.0, 10.0)
        grid = ts.discretize(ts.limit_set("positive", 0.5), window)
        assert grid.x.min() >= 1.5 - 1e-12
        assert grid.x.max() <= 2.5 + 1e-12


class TestLineGrid:
    def test_grid_keeps_its_line_through_restrict(self):
        line = ts.limit_set("positive", 0.5)
        grid = ts.discretize(line, ts.default_window("positive"), 64)
        assert isinstance(grid, ts.LineGrid) and grid.line == line
        half = grid.restrict(ts.Window(1.0, 2.0, 0.0, 4.0))
        assert isinstance(half, ts.LineGrid) and half.line == line
        np.testing.assert_array_equal(half.points, grid.points[grid.x <= 2.0])
        empty = ts.discretize(line, ts.Window(0.0, 0.5, 0.0, 4.0))
        assert isinstance(empty, ts.LineGrid) and len(empty) == 0 and empty.line == line

    def test_single_point_grid(self):
        # t_lo == t_hi: the ray's first point, on the window's right edge
        line = ts.limit_set("positive", 0.5)
        grid = ts.discretize(line, ts.Window(0.0, 1.0, 0.0, 4.0), 512)
        assert isinstance(grid, ts.LineGrid) and grid.points.tolist() == [[1.0, 1.0]]


def ckdtree_hausdorff(a, b, window):
    """The general path of hausdorff_window: the oracle for its line path."""
    pa, pb = a.restrict(window).points, b.restrict(window).points
    return float(max(cKDTree(pb).query(pa, k=1)[0].max(), cKDTree(pa).query(pb, k=1)[0].max()))


LINE_CASES = [("positive", 0.5), ("positive", 0.75), ("negative", -0.5), ("negative", -3.0),
              ("zero", 0.0)]


def cloud_layout(layout, case, xi, window, grid, rng, size):
    """A point set of about `size` points near the case's limit line."""
    line = ts.limit_set(case, xi)
    lo, hi = np.array([window.x_lo, window.y_lo]), np.array([window.x_hi, window.y_hi])
    if layout == "uniform":
        return rng.uniform(lo, hi, (size, 2))
    if layout == "parallel":  # equal distances to the line everywhere
        return line.points_at(np.linspace(window.x_lo, window.x_hi, size)) + [0.0, 0.05]
    if layout == "cluster":
        return grid.points[len(grid) // 2] + 1e-6 * rng.standard_normal((size, 2))
    if layout == "duplicates":
        return np.repeat(rng.uniform(lo, hi, (max(1, size // 200), 2)), 200, axis=0)
    if layout == "from-grid":
        return grid.points[rng.integers(0, len(grid), size)]
    if layout == "half":  # over the grid's left half only: the grid side holds the maximum
        t = rng.uniform(grid.x[0], (grid.x[0] + grid.x[-1]) / 2, size)
        return line.points_at(t) + 0.01 * rng.standard_normal((size, 2))
    # a normalized cloud of the case, as run_convergence measures it; GPD(-3)'s
    # top values tie at its endpoint, which the normalization refuses
    model = ts.GPD(max(xi, -0.5))
    n = max(size, 10)
    k = max(2, ts.default_k(n))
    sample = ts.order_statistics(model.sample(n, ts.RandomSeed(int(rng.integers(1 << 32))), k))
    return randset._CASES[case].normalize(sample, k).points


LAYOUTS = ("uniform", "parallel", "cluster", "duplicates", "from-grid", "half", "converge")


class TestLineKernel:
    """hausdorff_window with a line grid on either side equals the cKDTree path bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(LINE_CASES), layout=st.sampled_from(LAYOUTS),
           resolution=st.integers(1, 4096), size=st.integers(1, 3000),
           cut=st.sampled_from([None, "x", "y"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_ckdtree_bit_for_bit(self, case, layout, resolution, size, cut, seed):
        case, xi = case
        window = ts.default_window(case, xi)
        grid = ts.discretize(ts.limit_set(case, xi), window, resolution)
        cloud = pset(cloud_layout(layout, case, xi, window, grid, np.random.default_rng(seed),
                                  size))
        if cut == "x":  # a --window that keeps the grid's left part
            window = ts.Window(window.x_lo, (window.x_lo + window.x_hi) / 2, window.y_lo,
                               window.y_hi)
        elif cut == "y":
            window = ts.Window(window.x_lo, window.x_hi, window.y_lo,
                               (window.y_lo + window.y_hi) / 2)
        if len(cloud.restrict(window)) == 0 or len(grid.restrict(window)) == 0:
            return
        want = ckdtree_hausdorff(cloud, grid, window)
        assert ts.hausdorff_window(cloud, grid, window) == want
        assert ts.hausdorff_window(grid, cloud, window) == want

    @pytest.mark.parametrize("case, xi", LINE_CASES)
    @pytest.mark.parametrize("resolution", [1, 512, 4096])
    @pytest.mark.parametrize("layout, size", [("parallel", 20_000), ("parallel", 200_000),
                                              ("cluster", 20_000), ("duplicates", 10_000),
                                              ("from-grid", 5_000), ("uniform", 20_000),
                                              ("half", 20_000),
                                              ("converge", 1_000_000)])
    def test_large_layouts(self, case, xi, resolution, layout, size):
        window = ts.default_window(case, xi)
        grid = ts.discretize(ts.limit_set(case, xi), window, resolution)
        cloud = pset(cloud_layout(layout, case, xi, window, grid, np.random.default_rng(8), size))
        want = ckdtree_hausdorff(cloud, grid, window)
        assert ts.hausdorff_window(cloud, grid, window) == want
        assert ts.hausdorff_window(grid, cloud, window) == want

    def test_single_point_grid_in_both_orders(self):
        window = ts.Window(0.0, 1.0, 0.0, 4.0)
        grid = ts.discretize(ts.limit_set("positive", 0.5), window, 1)
        cloud = pset(np.random.default_rng(9).uniform([0.0, 0.0], [1.0, 4.0], (500, 2)))
        want = ckdtree_hausdorff(cloud, grid, window)
        assert ts.hausdorff_window(cloud, grid, window) == want
        assert ts.hausdorff_window(grid, cloud, window) == want

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 300), n=st.integers(1, 300))
    def test_exact_whatever_the_points_a_grid_holds(self, seed, m, n):
        # the candidates only bound each minimum; the rescan makes the result
        # exact even for a grid whose points are neither sorted nor on its line
        rng = np.random.default_rng(seed)
        grid = ts.LineGrid(rng.uniform(0.0, 3.0, (m, 2)), ts.limit_set("positive", 0.5))
        cloud = pset(rng.uniform(0.0, 3.0, (n, 2)))
        want = ckdtree_hausdorff(cloud, grid, WIDE)
        assert ts.hausdorff_window(cloud, grid, WIDE) == want
        assert ts.hausdorff_window(grid, cloud, WIDE) == want

    def test_two_grids(self):
        a = ts.discretize(ts.limit_set("positive", 0.5), ts.default_window("positive"), 100)
        b = ts.discretize(ts.limit_set("positive", 0.6), ts.default_window("positive"), 37)
        want = ckdtree_hausdorff(a, b, WIDE)
        assert ts.hausdorff_window(a, b, WIDE) == ts.hausdorff_window(b, a, WIDE) == want


class TestHausdorff:
    def test_three_four_five(self):
        assert ts.hausdorff_window(pset([[0, 0]]), pset([[3, 4]]), WIDE) == 5.0

    def test_identical_sets_zero(self):
        rng = np.random.default_rng(1)
        p = pset(rng.random((40, 2)))
        assert ts.hausdorff_window(p, p, WIDE) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pa = rng.random((rng.integers(1, 30), 2)) * 4
            pb = rng.random((rng.integers(1, 30), 2)) * 4
            ref = brute_hausdorff(pa, pb)
            got = ts.hausdorff_window(pset(pa), pset(pb), WIDE)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = pset(rng.random((12, 2)))
            b = pset(rng.random((15, 2)))
            c = pset(rng.random((9, 2)))
            dab = ts.hausdorff_window(a, b, WIDE)
            dba = ts.hausdorff_window(b, a, WIDE)
            assert dab == dba
            dac = ts.hausdorff_window(a, c, WIDE)
            dcb = ts.hausdorff_window(c, b, WIDE)
            assert dab <= dac + dcb + 1e-12

    def test_window_restriction_drops_outliers(self):
        w = ts.Window(0.0, 1.0, 0.0, 1.0)
        a = pset([[0.5, 0.5], [50.0, 50.0]])  # outlier outside window
        b = pset([[0.5, 0.6]])
        assert ts.hausdorff_window(a, b, w) == pytest.approx(0.1)

    def test_empty_window_sides(self):
        w = ts.Window(0.0, 1.0, 0.0, 1.0)
        inside, outside = pset([[0.5, 0.5]]), pset([[5.0, 5.0]])
        with pytest.raises(EmptyWindowError) as err:
            ts.hausdorff_window(outside, inside, w)
        assert err.value.side == "first"
        with pytest.raises(EmptyWindowError) as err:
            ts.hausdorff_window(inside, outside, w)
        assert err.value.side == "second"
        with pytest.raises(EmptyWindowError) as err:
            ts.hausdorff_window(outside, outside, w)
        assert err.value.side == "both"


class TestDefaultWindow:
    def test_cases(self):
        assert ts.default_window("positive").as_tuple() == (1.0, 3.0, 0.0, 4.0)
        assert ts.default_window("zero").as_tuple() == (0.0, 3.0, 0.0, 2.0)
        w = ts.default_window("negative", xi=-0.5)
        # segment spans y in [0, 1/3]; window pads below 0
        assert w.y_lo == pytest.approx(-0.1)
        assert w.y_hi == pytest.approx(0.5)

    def test_negative_needs_shape(self):
        with pytest.raises(ParameterError):
            ts.default_window("negative")

    def test_unknown_case(self):
        with pytest.raises(ParameterError):
            ts.default_window("sideways")


class TestRunConvergence:
    def test_shapes_and_determinism(self):
        rep = ts.run_convergence(
            ts.Pareto(2), "positive", (1000, 3000), reps=3, seed=ts.RandomSeed(5)
        )
        assert rep.distances.shape == (3, 2)
        assert rep.n_grid == (1000, 3000)
        assert np.all(rep.distances > 0)
        again = ts.run_convergence(
            ts.Pareto(2), "positive", (1000, 3000), reps=3, seed=ts.RandomSeed(5)
        )
        np.testing.assert_array_equal(rep.distances, again.distances)

    def test_distances_shrink_on_median(self):
        rep = ts.run_convergence(
            ts.Exponential(1), "zero", (2000, 20_000), reps=5, seed=ts.RandomSeed(6)
        )
        med = rep.medians()
        assert med[1] < med[0]

    def test_case_model_mismatch(self):
        with pytest.raises(ConfigError):
            ts.run_convergence(ts.Beta(2, 2), "positive", (1000,), 1, ts.RandomSeed(0))
        with pytest.raises(ConfigError):
            ts.run_convergence(ts.Pareto(2), "negative", (1000,), 1, ts.RandomSeed(0))
        with pytest.raises(ConfigError):
            ts.run_convergence(ts.Pareto(2), "zero", (1000,), 1, ts.RandomSeed(0))
        with pytest.raises(ConfigError):
            ts.run_convergence(ts.Pareto(0.5), "positive", (1000,), 1, ts.RandomSeed(0))

    def test_bad_k_rule(self):
        with pytest.raises(ConfigError):
            ts.run_convergence(
                ts.Pareto(2), "positive", (1000,), 1, ts.RandomSeed(0), k_rule=1.5
            )

    def test_manifest_lines(self):
        rep = ts.run_convergence(
            ts.Pareto(2), "positive", (1000,), reps=2, seed=ts.RandomSeed(7, 3)
        )
        pairs = rep.manifest_pairs()
        assert ("manifest_version", ts.EXPERIMENT_MANIFEST["version"]) in pairs
        assert ("model", "pareto(alpha=2)") in pairs
        assert ("case", "positive") in pairs
        assert ("k_rule", "floor(n**0.7)") in pairs
        assert ("seed", 7) in pairs and ("stream", 3) in pairs
        assert ("reps", 2) in pairs

    def test_csv_round_trip(self, tmp_path):
        rep = ts.run_convergence(
            ts.Pareto(2), "positive", (1000, 2000), reps=2, seed=ts.RandomSeed(8)
        )
        path = tmp_path / "dist.csv"
        rep.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "rep,n,distance"
        assert len(rows) == 1 + 4
        got = np.array([float(r.split(",")[2]) for r in rows[1:]]).reshape(2, 2)
        np.testing.assert_array_equal(got, rep.distances)

    def test_limit_outside_window_is_config_error(self, monkeypatch):
        # shape 0.8 puts the ray at y = 4.000000000000001 at x = 1, above the
        # default window [1, 3] x [0, 4]; the check comes before any sampling
        model = ts.GPD(0.8)
        monkeypatch.setattr(model, "sample", lambda *a: pytest.fail("sampled"))
        with pytest.raises(ConfigError) as err:
            ts.run_convergence(model, "positive", (1000,), 1, ts.RandomSeed(0))
        assert str(err.value) == ("the positive limit for shape 0.8 misses the window "
                                  "1,3,0,4; pass a --window that it crosses")
        rep = ts.run_convergence(ts.GPD(0.8), "positive", (1000,), 1, ts.RandomSeed(0),
                                 window=ts.Window(1.0, 3.0, 0.0, 20.0))
        assert np.isfinite(rep.distances).all()

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_bad_resolution_is_config_error_before_any_draw(self, monkeypatch, resolution):
        # discretize keeps its ParameterError for library callers
        model = ts.Pareto(2)
        monkeypatch.setattr(model, "sample", lambda *a: pytest.fail("sampled"))
        with pytest.raises(ConfigError, match="^resolution must be positive$"):
            ts.run_convergence(model, "positive", (1000,), 1, ts.RandomSeed(0),
                               resolution=resolution)
        with pytest.raises(ParameterError, match="^resolution must be positive$"):
            ts.discretize(ts.limit_set("positive", 0.5), ts.Window(1.0, 3.0, 0.0, 4.0),
                          resolution)

    def test_k_is_checked_against_n_before_its_draw(self, monkeypatch):
        # each n is checked just before its own cells: the cells before it run,
        # no value is drawn for it
        model = ts.Pareto(2)
        drawn = []
        sample = model.sample

        def spy(n, seed, k=None):
            drawn.append(n)
            return sample(n, seed, k)

        monkeypatch.setattr(model, "sample", spy)
        for grid, k_rule, err, message, before in [
            ((1000,), 0.1, IndexRangeError, "k=1 outside 2..1000", []),
            ((5000, 2), None, IndexRangeError, "k=1 outside 2..2", [5000]),
            ((1, 1000), 0.1, InsufficientDataError, "need at least two observations", []),
            ((1000, 0), None, ParameterError, "n must be positive", [1000]),
        ]:
            drawn.clear()
            with pytest.raises(err) as caught:
                ts.run_convergence(model, "positive", grid, 2, ts.RandomSeed(0), k_rule=k_rule)
            assert str(caught.value) == message
            assert drawn == before

    def test_an_earlier_cell_error_comes_before_a_bad_k(self):
        # GPD(-5)'s top values tie at its endpoint, so the first cell's
        # normalization fails before n = 2 is reached
        with pytest.raises(EmptyExceedanceError, match="tied maxima leave no strict exceedances"):
            ts.run_convergence(ts.GPD(-5.0), "negative", (1000, 2), 1, ts.RandomSeed(0))

    def test_a_cloud_that_misses_the_window_reads_its_diagonal(self):
        # the limit crosses the window, so the run goes on; each cloud misses it
        window = ts.Window(50.0, 60.0, 40.0, 70.0)
        rep = ts.run_convergence(ts.Pareto(2), "positive", (1000, 2000), 2, ts.RandomSeed(0),
                                 window=window)
        assert rep.missed == 4
        assert (rep.distances == window.diag).all()
        full = ts.run_convergence(ts.Pareto(2), "positive", (1000, 2000), 2, ts.RandomSeed(0))
        assert full.missed == 0

    def test_quantile_sees_at_most_k_points_per_cell(self, monkeypatch):
        for model, case in ((ts.Pareto(2), "positive"), (ts.Beta(2, 2), "negative"),
                            (ts.Exponential(1), "zero")):
            sizes = []
            quantile = type(model).quantile

            def spy(self, p, quantile=quantile):
                sizes.append(np.size(p))
                return quantile(self, p)

            monkeypatch.setattr(type(model), "quantile", spy)
            ts.run_convergence(model, case, (1000, 20_000), 3, ts.RandomSeed(4))
            assert sizes == [ts.default_k(1000), ts.default_k(20_000)] * 3


def old_cells(model, n_grid, reps, seed):
    """Yield (r, j, ordered sample of size n_grid[j]) for every replication r.

    Each (r, j) cell draws from its own Philox stream, seed.stream + r *
    len(n_grid) + j, so the result does not depend on evaluation order.
    """
    for r in range(reps):
        for j, n in enumerate(n_grid):
            cell = seed.with_stream(seed.stream + r * len(n_grid) + j)
            yield r, j, ts.order_statistics(model.sample(int(n), cell))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestTopKCells:
    """Every result equals the one drawn from full samples, ordered in full:
    ``old_cells`` is the cell loop that sorted all n values, verbatim, and
    ``full_cells`` plugs it in where ``randset._cells`` stands."""

    @pytest.fixture
    def full_cells(self, monkeypatch):
        def full(model, n_grid, reps, seed, k_fn):
            for r, j, sample in old_cells(model, n_grid, reps, seed):
                yield r, j, k_fn(sample.n), sample

        def use():
            monkeypatch.setattr(randset, "_cells", full)
        return use

    @pytest.mark.parametrize("model, case, k_rule", [
        (ts.Pareto(2), "positive", None), (ts.Beta(2, 2), "negative", None),
        (ts.Exponential(1), "zero", None), (ts.GPD(-0.5), "negative", 0.5),
        (ts.LambertWTail(), "positive", None), (ts.GPD(0.3), "positive", 0.6),
    ])
    def test_run_convergence(self, full_cells, model, case, k_rule):
        args = (model, case, (1000, 5000, 30_000), 4, ts.RandomSeed(31, 5))
        top = ts.run_convergence(*args, k_rule=k_rule).distances
        full_cells()
        assert digest(top) == digest(ts.run_convergence(*args, k_rule=k_rule).distances)

    def test_intercept_experiment_of_criterion_07(self, full_cells):
        args = (ts.Pareto(0.5), 50_000, 50, ts.RandomSeed(7, 700))
        top = ts.intercept_experiment(*args)
        full_cells()
        full = ts.intercept_experiment(*args)
        fields = ("slopes", "intercepts", "reference", "dropped")
        assert digest(*(getattr(top, f) for f in fields)) == digest(
            *(getattr(full, f) for f in fields))


class TestInterceptExperiment:
    def test_slope_estimates_inverse_shape(self):
        # Pareto(0.5) has shape 2, so log-log slopes estimate 1/2
        res = ts.intercept_experiment(
            ts.Pareto(0.5), 20_000, reps=10, seed=ts.RandomSeed(11)
        )
        assert res.slopes.shape == (10,)
        assert np.median(res.slopes) == pytest.approx(0.5, abs=0.1)
        assert res.reference.shape == (10,)

    def test_determinism(self):
        a = ts.intercept_experiment(ts.Pareto(0.5), 5000, 3, ts.RandomSeed(12))
        b = ts.intercept_experiment(ts.Pareto(0.5), 5000, 3, ts.RandomSeed(12))
        np.testing.assert_array_equal(a.slopes, b.slopes)
        np.testing.assert_array_equal(a.reference, b.reference)

    def test_bad_n_or_k_is_refused_before_the_quantiles(self, monkeypatch):
        model = ts.Pareto(0.5)
        for n, k_rule, err, message in [
            (0, None, ParameterError, "n must be positive"),
            (-3, None, ParameterError, "n must be positive"),
            (1, None, InsufficientDataError, "need at least two observations"),
            (1000, 0.1, IndexRangeError, "k=1 outside 2..1000"),
        ]:
            with pytest.raises(err) as caught:
                ts.intercept_experiment(model, n, 2, ts.RandomSeed(0), k_rule=k_rule)
            assert str(caught.value) == message

    def test_requires_heavy_shape(self):
        with pytest.raises(ConfigError):
            ts.intercept_experiment(ts.Pareto(2), 1000, 2, ts.RandomSeed(0))
