import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad

import tailscope as ts
from tailscope.cli import _MODELS, parse_model
from tailscope.errors import (
    DomainError,
    InfiniteMeanError,
    ParameterError,
)

HALF = ts.GPD(0.5, 1.0)


class TestGPD:
    def test_cdf_hand_value(self):
        assert HALF.cdf(3.0) == pytest.approx(0.84, abs=1e-15)

    def test_quantile_hand_value(self):
        assert HALF.quantile(0.84) == pytest.approx(3.0, rel=1e-12)

    def test_against_scipy_genpareto(self):
        # independent reference implementation
        for xi in (-0.7, -0.5, -1e-3, 0.0, 1e-3, 0.5, 1.2):
            model = ts.GPD(xi, 2.0)
            hi = model.support[1]
            x = np.linspace(0.0, min(hi, 50.0) * 0.999, 41)
            ref = stats.genpareto.cdf(x, xi, scale=2.0)
            np.testing.assert_allclose(model.cdf(x), ref, rtol=1e-9, atol=1e-12)
            p = np.linspace(0.0, 0.999, 41)
            ref_q = stats.genpareto.ppf(p, xi, scale=2.0)
            np.testing.assert_allclose(
                model.quantile(p), ref_q, rtol=1e-9, atol=1e-12
            )

    def test_round_trip(self):
        p = np.linspace(1e-9, 1 - 1e-9, 201)
        for xi in (-0.5, 0.0, 0.5, 2.0):
            model = ts.GPD(xi, 1.3)
            back = model.cdf(model.quantile(p))
            np.testing.assert_allclose(back, p, rtol=1e-12, atol=1e-13)

    def test_tail_complements_cdf(self):
        x = np.linspace(0, 30, 50)
        np.testing.assert_allclose(HALF.tail(x) + HALF.cdf(x), 1.0, rtol=1e-12)

    def test_support_negative_shape(self):
        model = ts.GPD(-0.5, 1.0)
        assert model.support == (0.0, 2.0)
        assert model.cdf(2.0) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            model.cdf(2.5)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ts.GPD(0.5, 0.0)
        with pytest.raises(ParameterError):
            ts.GPD(math.nan, 1.0)
        with pytest.raises(DomainError):
            HALF.quantile(1.0)


class TestLambertW:
    def test_against_scipy(self):
        x = np.concatenate([[0.0], np.logspace(-8, 8, 60)])
        ref = special.lambertw(x).real
        np.testing.assert_allclose(ts.lambert_w(x), ref, rtol=1e-12, atol=1e-15)

    def test_defining_equation(self):
        x = np.logspace(-3, 6, 40)
        w = ts.lambert_w(x)
        np.testing.assert_allclose(w * np.exp(w), x, rtol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ts.lambert_w(-0.1)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, np.finfo(float).max))
    @example(x=1e-13)
    @example(x=1e-10)
    @example(x=1e-7)
    @example(x=5e302)
    @example(x=1e306)
    @example(x=np.finfo(float).max)
    def test_within_1e_14_of_mpmath(self, x):
        # the stopping test is relative below x = 1, and w + log w = log x keeps
        # the iteration finite up to the largest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = ts.lambert_w(x)
        with mpmath.workdps(40):
            want = float(mpmath.lambertw(x).real)
        assert abs(w - want) <= 1e-14 * want

    def test_infinity(self):
        assert ts.lambert_w(math.inf) == math.inf
        np.testing.assert_array_equal(ts.lambert_w([0.0, math.inf]), [0.0, math.inf])


class TestNonstdTail:
    def test_tail_at_left_endpoint(self):
        assert ts.nonstd_tail(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_quantile_inverts_tail(self):
        p = np.logspace(-8, 0, 50)
        x = ts.nonstd_quantile(p)
        np.testing.assert_allclose(ts.nonstd_tail(x), p, rtol=1e-10)

    def test_tail_inverts_quantile(self):
        x = np.logspace(0.01, 10, 50)
        np.testing.assert_allclose(
            ts.nonstd_quantile(ts.nonstd_tail(x)), x, rtol=1e-10
        )

    def test_regular_variation_with_slow_approach(self):
        # the tail is regularly varying with index -2, but the slowly
        # varying factor decays like (1 + log t / W)^2: at x = 1e6 the
        # t=2 ratio still misses 2^-2 by ~0.037, and the gap shrinks in x
        for t, tol_at_1e6 in ((2.0, 0.05), (10.0, 0.01)):
            devs = []
            for x in (1e4, 1e6, 1e8):
                ratio = ts.nonstd_tail(t * x) / ts.nonstd_tail(x)
                devs.append(abs(ratio - t**-2.0))
            assert devs[1] < tol_at_1e6
            assert devs[0] > devs[1] > devs[2]

    def test_pareto_regular_variation_is_exact(self):
        model = ts.Pareto(2)
        for t in (2.0, 10.0):
            ratio = model.tail(t * 1e6) / model.tail(1e6)
            assert ratio == pytest.approx(t**-2.0, rel=1e-10)


class TestTheoreticalME:
    def test_gpd_closed_form_line(self):
        # M(u) = (beta + xi u) / (1 - xi): slope xi/(1-xi), here 2 + u
        model = ts.GPD(0.5, 1.0)
        for u in (0.0, 1.0, 3.0, 10.0):
            assert ts.theoretical_me(model, u) == pytest.approx(2.0 + u, rel=1e-12)

    def test_gpd_quadrature_agrees_with_closed(self):
        model = ts.GPD(0.5, 1.0)
        for u in (0.0, 0.5, 7.0, 40.0):
            q = ts.theoretical_me(model, u, method="quadrature")
            assert q == pytest.approx(2.0 + u, abs=1e-8)

    def test_pareto_hand_value(self):
        assert ts.theoretical_me(ts.Pareto(2), 2.0) == pytest.approx(2.0, rel=1e-10)
        # linearity in u with slope 1/(alpha-1)
        assert ts.theoretical_me(ts.Pareto(2), 10.0) == pytest.approx(10.0, rel=1e-10)

    def test_negative_shape_me_decreases_to_zero(self):
        model = ts.GPD(-0.5, 1.0)  # right endpoint 2
        mes = [ts.theoretical_me(model, u) for u in (0.0, 1.0, 1.9)]
        assert mes == sorted(mes, reverse=True)
        assert mes[-1] == pytest.approx((1.0 - 0.5 * 1.9) / 1.5, rel=1e-9)

    def test_infinite_mean_rejected(self):
        with pytest.raises(InfiniteMeanError):
            ts.theoretical_me(ts.Pareto(1), 2.0)
        with pytest.raises(InfiniteMeanError):
            ts.theoretical_me(ts.GPD(1.5, 1.0), 1.0)

    def test_beyond_endpoint_rejected(self):
        with pytest.raises(DomainError):
            ts.theoretical_me(ts.GPD(-0.5, 1.0), 2.0)

    def test_lognormal_quadrature_vs_closed_form_reference(self):
        # E[X 1{X>u}] for lognormal has the closed form
        # exp(mu + s^2/2) Phi((mu + s^2 - log u)/s)
        model = ts.LogNormal(0.0, 1.0)
        for u in (0.5, 1.0, 3.0):
            expect = math.exp(0.5) * stats.norm.cdf(1.0 - math.log(u))
            ref = expect / model.tail(u) - u
            got = ts.theoretical_me(model, u)
            assert got == pytest.approx(ref, rel=1e-8)


class TestExcessCdf:
    def test_pareto_hand_value(self):
        got = ts.excess_cdf(ts.Pareto(2), 10.0, 10.0)
        assert got == pytest.approx(0.75, rel=1e-12)

    def test_matches_conditional_frequency(self):
        # P(X - 2 <= 2 | X > 2) = 1 - (1/16)/(1/4) = 0.75; ~250k exceedances
        # at n = 1e6, so 0.005 is a ~6 sigma band
        model = ts.Pareto(2)
        x = model.sample(1_000_000, ts.RandomSeed(2024))
        exceed = x[x > 2.0]
        freq = np.mean(exceed - 2.0 <= 2.0)
        assert abs(freq - 0.75) < 0.005

    def test_pareto_excesses_are_exactly_gpd(self):
        # the excess law of Pareto(alpha) over u is exactly GPD(1/alpha, u/alpha)
        model = ts.Pareto(2)
        for u in (10.0, 100.0, 1000.0):
            x = np.linspace(0.0, 5 * u, 101)
            ref = ts.GPD(0.5, 0.5 * u).cdf(x)
            got = ts.excess_cdf(model, u, x)
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_lambertw_excesses_approach_gpd(self):
        # sup distance to GPD(1/2, u/2) strictly shrinks as u grows
        model = ts.LambertWTail()
        sups = []
        for u in (10.0, 100.0, 1000.0):
            x = np.linspace(0.0, 20 * u, 401)
            ref = ts.GPD(0.5, 0.5 * u).cdf(x)
            sups.append(np.max(np.abs(ts.excess_cdf(model, u, x) - ref)))
        assert sups[0] > sups[1] > sups[2]

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            ts.excess_cdf(ts.Pareto(2), 10.0, -1.0)


class TestQuantileB:
    def test_pareto_hand_value(self):
        assert ts.quantile_b(ts.Pareto(2), 100.0) == pytest.approx(10.0, rel=1e-12)

    def test_t_one_gives_left_endpoint(self):
        assert ts.quantile_b(ts.Pareto(2), 1.0) == 1.0
        assert ts.quantile_b(ts.Exponential(1), 1.0) == 0.0

    def test_monotone_in_t(self):
        model = ts.LogNormal(0, 1)
        vals = [ts.quantile_b(model, t) for t in (2, 10, 100, 1000)]
        assert vals == sorted(vals)

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            ts.quantile_b(ts.Pareto(2), 0.5)


class TestTruncatedMean:
    def test_pareto_hand_value(self):
        assert ts.truncated_mean(ts.Pareto(2), 10.0) == pytest.approx(1.8, rel=1e-12)

    def test_pareto_one_log(self):
        assert ts.truncated_mean(ts.Pareto(1), 100.0) == pytest.approx(
            math.log(100.0), rel=1e-12
        )

    def test_below_support_is_zero(self):
        assert ts.truncated_mean(ts.Pareto(2), 0.5) == 0.0

    def test_against_density_quadrature(self):
        # oracle: integrate x f(x) directly
        for alpha, t in ((2.0, 10.0), (2.5, 4.0), (0.5, 9.0)):
            ref, _ = quad(lambda x, a=alpha: x * a * x ** (-a - 1.0), 1.0, t)
            got = ts.truncated_mean(ts.Pareto(alpha), t)
            assert got == pytest.approx(ref, rel=1e-9)
        ref, _ = quad(lambda x: x * math.exp(-x), 0.0, 3.0)
        assert ts.truncated_mean(ts.Exponential(1), 3.0) == pytest.approx(ref, rel=1e-9)

    def test_quadrature_route_for_gpd(self):
        # finite-mean GPD: E[X 1{X<=t}] -> E[X] = beta/(1-xi) as t grows
        got = ts.truncated_mean(ts.GPD(0.5, 1.0), 1e8)
        assert got == pytest.approx(2.0, rel=1e-3)

    def test_exponential_at_infinity_is_the_mean(self):
        # (t + m) e^(-t/m) is inf * 0 = nan at t = inf; the whole mean is below it
        assert ts.truncated_mean(ts.Exponential(1), math.inf) == 1.0
        assert ts.truncated_mean(ts.Exponential(2.5), math.inf) == 2.5

    @pytest.mark.parametrize("mean", [1.0, 3.0, 0.37, 1e5])
    def test_exponential_within_a_few_ulp_of_mpmath(self, mean):
        # m (1 - (1 + x) e^(-x)) with x = t/m: its two terms cancel for t << m, where
        # the closed form m - (t + m) e^(-t/m) was 605 ulp off at m = 3, t = 0.1
        model = ts.Exponential(mean)
        with mpmath.workdps(40):
            for x in np.geomspace(1e-12, 50.0, 300):
                t = float(x * mean)
                xm = mpmath.mpf(t) / mean
                ref = mean * (1 - (1 + xm) * mpmath.exp(-xm))
                got = ts.truncated_mean(model, t)
                assert abs(got - ref) <= 4 * np.spacing(float(ref)), (t, got, ref)
        assert ts.truncated_mean(model, 0.0) == 0.0
        assert ts.truncated_mean(model, math.inf) == mean


class TestSampling:
    def test_inverse_transform_matches_law(self):
        # KS test against the exact distribution, fixed seeds
        cases = [
            (ts.Pareto(2), lambda x: 1 - x**-2.0),
            (ts.Exponential(1), lambda x: -np.expm1(-x)),
            (ts.LambertWTail(), lambda x: 1 - ts.nonstd_tail(x)),
        ]
        for model, cdf in cases:
            x = model.sample(20_000, ts.RandomSeed(11))
            stat = stats.kstest(x, cdf).pvalue
            assert stat > 0.01, f"{model.label()}: KS p={stat}"

    def test_beta_bounds_and_moments(self):
        x = ts.Beta(2, 2).sample(50_000, ts.RandomSeed(12))
        assert np.all((x > 0) & (x < 1))
        assert np.mean(x) == pytest.approx(0.5, abs=0.01)

    def test_determinism_and_streams(self):
        m = ts.Pareto(2)
        a = m.sample(1000, ts.RandomSeed(7, 3))
        b = m.sample(1000, ts.RandomSeed(7, 3))
        c = m.sample(1000, ts.RandomSeed(7, 4))
        d = m.sample(1000, ts.RandomSeed(8, 3))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_sample_module_function(self):
        a = ts.Exponential(2).sample(10, ts.RandomSeed(1))
        assert a.shape == (10,)
        assert np.all(a > 0)


class TestStable:
    def test_cms_against_scipy_levy_stable(self, monkeypatch):
        from scipy.stats import levy_stable

        monkeypatch.setattr(levy_stable, "parameterization", "S1")
        for alpha in (0.5, 1.0, 1.5):
            mine = ts.StableSkewed(alpha).sample(20_000, ts.RandomSeed(53))
            ref = levy_stable.rvs(
                alpha, 1.0, size=20_000, random_state=np.random.default_rng(7)
            )
            p = stats.ks_2samp(mine, ref).pvalue
            assert p > 0.01, f"alpha={alpha}: KS p={p}"

    def test_cdf_leaves_global_parameterization_alone(self):
        from scipy.stats import levy_stable

        before = levy_stable.parameterization
        levy_stable.parameterization = "S0"
        try:
            value = ts.StableSkewed(1.5).cdf(1.0)
            assert levy_stable.parameterization == "S0"
        finally:
            levy_stable.parameterization = before
        # the S1 value, whatever the caller's global setting
        assert value == 0.8158030294189841

    def test_alpha_below_one_is_positive(self):
        x = ts.StableSkewed(0.7).sample(10_000, ts.RandomSeed(5))
        assert np.all(x > 0)

    def test_positive_stable_ecf_matches_cf(self):
        law = ts.PositiveStable(1.5)
        z = law.sample(100_000, ts.RandomSeed(51))
        for t in (0.5, 1.0):
            ecf = np.mean(np.exp(1j * t * z))
            assert abs(ecf - law.cf(t)) < 0.02

    def test_skewed_unit_index_ecf_matches_cf(self):
        law = ts.SkewedUnitIndex()
        z = law.sample(100_000, ts.RandomSeed(52))
        for t in (0.5, 1.0):
            ecf = np.mean(np.exp(1j * t * z))
            assert abs(ecf - law.cf(t)) < 0.02

    def test_drift_constant_equals_one_minus_euler_gamma(self):
        # the defining integral has the closed value 1 - gamma
        assert ts.skewed_unit_drift() == pytest.approx(
            1.0 - np.euler_gamma, abs=1e-10
        )

    def test_cf_at_zero_is_one(self):
        assert ts.PositiveStable(2.0).cf(0.0) == pytest.approx(1.0)
        assert ts.SkewedUnitIndex().cf(0.0) == pytest.approx(1.0)

    def test_parameters(self):
        with pytest.raises(ParameterError):
            ts.StableSkewed(2.5)
        with pytest.raises(ParameterError):
            ts.PositiveStable(0.9)


class TestModels:
    def test_domain_shapes(self):
        assert ts.Pareto(2).domain_shape == 0.5
        assert ts.Beta(2, 2).domain_shape == -0.5
        assert ts.Exponential(1).domain_shape == 0.0
        assert ts.LogNormal(0, 1).domain_shape == 0.0
        assert ts.LambertWTail().domain_shape == 0.5
        assert ts.StableSkewed(1.5).domain_shape == pytest.approx(1 / 1.5)
        assert ts.GPD(-0.25).domain_shape == -0.25

    def test_finite_mean_flags(self):
        assert ts.Pareto(2).has_finite_mean
        assert not ts.Pareto(1).has_finite_mean
        assert not ts.StableSkewed(0.8).has_finite_mean
        assert ts.LambertWTail().has_finite_mean
        assert not ts.GPD(1.0).has_finite_mean

    @pytest.mark.parametrize("model", [
        *(parse_model(spec) for spec in ("pareto:2", "gpd:0.5", "beta:2,2", "exp", "lognormal",
                                         "stable:1.5", "lambertw")),
        ts.Pareto(1), ts.GPD(1.0), ts.StableSkewed(1.0),
    ], ids=repr)
    def test_finite_mean_follows_the_shape(self, model):
        assert model.has_finite_mean == (model.domain_shape is None or model.domain_shape < 1)

    def test_labels_are_stable(self):
        assert ts.Pareto(2).label() == "pareto(alpha=2)"
        assert ts.GPD(0.5, 1.0).label() == "gpd(xi=0.5,beta=1)"


# one spec per model kind the CLI accepts, plus the exponential branch of the GPD
SPECS = ["pareto:2", "gpd:-0.5,1", "gpd:0,2", "beta:2,3", "exp:2", "lognormal:0.5,0.8",
         "stable:0.7", "lambertw"]


def test_specs_cover_every_model_kind():
    assert {spec.partition(":")[0] for spec in SPECS} == set(_MODELS)


@pytest.mark.parametrize("spec", SPECS)
def test_outside_support_raises(spec):
    model = parse_model(spec)
    lo, hi = model.support
    outside = [v for v in (lo - 1.0, hi + 1.0) if math.isfinite(v)]
    assert outside
    for x in outside + [np.array([lo, lo + 0.5, outside[0]])]:
        for f in (model.tail, model.cdf):
            with pytest.raises(DomainError, match=r"x outside support \["):
                f(x)


@pytest.mark.parametrize("spec", SPECS)
def test_evaluation_contract(spec):
    model = parse_model(spec)
    p = np.linspace(0.05, 0.95, 19)
    x = model.quantile(p)
    assert isinstance(x, np.ndarray)
    assert type(model.quantile(0.3)) is float
    for f in (model.tail, model.cdf):
        assert isinstance(f(x), np.ndarray)
        assert type(f(float(x[3]))) is float
    np.testing.assert_allclose(model.tail(x) + model.cdf(x), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.cdf(x), p, rtol=0, atol=1e-9)
    for bad in (1.0, -0.1):
        with pytest.raises(DomainError):
            model.quantile(bad)


@pytest.mark.parametrize("spec", SPECS + ["stable:1.5"])
def test_tail_and_cdf_at_the_lower_endpoint(spec):
    # LambertWTail's formula reads tail 1 + 4e-16 and cdf -4e-16 there
    model = parse_model(spec)
    lo = model.support[0]
    assert model.tail(lo) == 1.0 and model.cdf(lo) == 0.0
    assert model.tail(np.array([lo]))[0] == 1.0 and model.cdf(np.array([lo]))[0] == 0.0


# points of each support, its ends included; the stable law's tail and cdf are
# numerical integrals, so it gets fewer points per example
@pytest.mark.parametrize("spec", SPECS + ["stable:1.5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tail_and_cdf_lie_in_the_unit_interval(spec, data):
    model = parse_model(spec)
    lo, hi = model.support
    ends = st.sampled_from([v for v in (lo, np.nextafter(lo, hi), 1.0, hi) if lo <= v <= hi])
    x = data.draw(st.lists(st.one_of(ends, st.floats(lo, hi, allow_nan=False)),
                           min_size=1, max_size=2 if spec.startswith("stable") else 6))
    for f in (model.tail, model.cdf):
        v = f(np.array(x))
        assert np.all((0.0 <= v) & (v <= 1.0)), (x, v)
        assert 0.0 <= f(x[0]) <= 1.0


@pytest.mark.parametrize("spec", SPECS + ["stable:1.5"])
def test_quantile_at_zero_lies_in_support(spec):
    model = parse_model(spec)
    lo, hi = model.support
    x0 = model.quantile(0.0)
    assert lo <= x0 <= hi
    assert model.tail(x0) == pytest.approx(1.0, abs=1e-12)


def _reference_quantile(model):
    """Each law's quantile formula, written out independently of the class."""
    if isinstance(model, ts.Pareto):
        return lambda p: np.exp(-np.log1p(-p) / model.alpha)
    if isinstance(model, ts.GPD):
        if model.xi == 0:
            return lambda p: -model.beta * np.log1p(-p)
        return lambda p: (model.beta / model.xi) * np.expm1(-model.xi * np.log1p(-p))
    if isinstance(model, ts.Exponential):
        return lambda p: -model.mean * np.log1p(-p)
    if isinstance(model, ts.Beta):
        return lambda p: stats.beta.ppf(p, model.a, model.b)
    if isinstance(model, ts.LogNormal):
        return lambda p: stats.lognorm.ppf(p, model.sigma, scale=math.exp(model.mu))
    if isinstance(model, ts.StableSkewed):
        law = stats.levy_stable(model.alpha, 1.0)
        law.dist.parameterization = "S1"
        if model.alpha < 1:  # positive law; scipy's ppf(0) is -inf
            return lambda p: np.maximum(law.ppf(p), 0.0)
        return law.ppf
    assert isinstance(model, ts.LambertWTail)
    return lambda p: (1.0 - 10.0 * np.log(1.0 - p)) / np.sqrt(1.0 - p)


@pytest.mark.parametrize("spec", SPECS)
def test_quantile_and_sample_match_reference_formulas(spec):
    model = parse_model(spec)
    ref = _reference_quantile(model)
    p = np.linspace(0.0, 0.99, 12)
    assert np.array_equal(model.quantile(p), ref(p))
    if isinstance(model, ts.StableSkewed):
        return  # sampled by Chambers-Mallows-Stuck, not by inversion
    seed = ts.RandomSeed(17, 2)
    u = (seed.generator().integers(0, 1 << 53, size=5000) + 0.5) / (1 << 53)
    assert np.array_equal(model.sample(5000, seed), ref(u))


def _bits_desc(x):
    return np.sort(x)[::-1].view(np.int64)


@pytest.mark.parametrize("spec", SPECS + ["stable:1.5"])
@pytest.mark.parametrize("n", [1, 2, 17, 1000, 4099])
def test_sample_with_k_is_the_top_of_sample(spec, n):
    # the k largest of sample(n, s), bit for bit; stable:0.7 and stable:1.5
    # partition the full Chambers-Mallows-Stuck draw, every other law its
    # uniforms before the quantile
    model = parse_model(spec)
    seed = ts.RandomSeed(23, n)
    full = _bits_desc(model.sample(n, seed))
    for k in sorted({1, 2, n // 3, n} & set(range(1, n + 1))):
        top = model.sample(n, seed, k)
        assert top.shape == (k,)
        assert np.array_equal(_bits_desc(top), full[:k]), k


@pytest.mark.parametrize("spec", ["pareto:2", "beta:2,3", "stable:1.5"])
def test_sample_refuses_k_outside_one_to_n(spec):
    model = parse_model(spec)
    for n, k in ((10, 0), (10, 11), (10, -1), (1, 2)):
        with pytest.raises(ParameterError, match=rf"^k={k} outside 1\.\.{n}$"):
            model.sample(n, ts.RandomSeed(1), k)
    with pytest.raises(ParameterError, match="n must be positive"):
        model.sample(0, ts.RandomSeed(1), 0)


def test_sample_converts_only_the_top_k_integers(monkeypatch):
    # the partition runs on the 53-bit integers; only the k it keeps become floats
    from tailscope import dist

    converted = []
    open_unit = dist._open_unit

    def spy(i):
        converted.append((i.size, i.dtype.kind))
        return open_unit(i)

    monkeypatch.setattr(dist, "_open_unit", spy)
    model = ts.Beta(2, 2)
    model.sample(5000, ts.RandomSeed(3), 40)
    assert converted == [(40, "i")]
    converted.clear()
    model.sample(5000, ts.RandomSeed(3))
    assert converted == [(5000, "i")]


# The laws whose formulas come from scipy.special equal the frozen scipy.stats
# laws bit for bit.  The Beta shapes exclude (3, 0.5) and (0.5, 3): there
# scipy.stats' ppf fails within 2.9e-8 of 1 and of 0 respectively (see below).
BETA_SHAPES = [(2, 2), (2, 3), (3, 2), (0.5, 0.5), (2, 5), (5, 2), (0.1, 10), (10, 0.1),
               (1.5, 2.5), (0.3, 0.7), (7, 9), (50, 50)]
LOGNORMAL_PARAMS = [(0.0, 1.0), (1.5, 0.3), (-2.0, 2.5)]


# (i + 0.5) / 2^53 rounds to 1.0 at i = 2^53 - 1, which _open_unit clips to
# the largest double below 1; below that, the largest grid point comes from
# i = 2^53 - 2
TOP_I = (1 << 53) - 2


def _grid_points(i):
    """The uniforms (i + 0.5) / 2^53 that the samplers feed the quantile."""
    return (np.asarray(i, dtype=np.int64).astype(float) + 0.5) / (1 << 53)


def _probabilities():
    i = np.random.default_rng(5).integers(0, TOP_I, size=20_000)
    edges = np.r_[np.arange(50), TOP_I - np.arange(50)]
    return np.r_[0.0, np.linspace(0.0, 1.0, 101)[:-1], _grid_points(np.r_[i, edges])]


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_equals_scipy_stats_bitwise(a, b):
    model, law = ts.Beta(a, b), stats.beta(a, b)
    p = _probabilities()
    x = np.r_[0.0, 1.0, np.random.default_rng(6).random(20_000), law.ppf(p[1:1000])]
    assert _same_bits(model.quantile(p), law.ppf(p))
    assert _same_bits(model.cdf(x), law.cdf(x))
    assert _same_bits(model.tail(x), law.sf(x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, sigma", LOGNORMAL_PARAMS)
def test_lognormal_equals_scipy_stats_bitwise(mu, sigma):
    model, law = ts.LogNormal(mu, sigma), stats.lognorm(sigma, scale=math.exp(mu))
    p = _probabilities()
    x = np.r_[0.0, np.inf, 1e-300, np.exp(np.random.default_rng(7).normal(mu, 3 * sigma, 20_000))]
    assert _same_bits(model.quantile(p), law.ppf(p))
    assert _same_bits(model.cdf(x), law.cdf(x))
    assert _same_bits(model.tail(x), law.sf(x))


def test_beta_quantile_near_one_is_not_stuck():
    # scipy.stats' beta.ppf gives up here with a RuntimeWarning and returns 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ts.Beta(3, 0.5).quantile(1 - 2**-52) > 0.999


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", [(3, 0.5), (0.5, 3), (2, 2)])
def test_beta_quantile_is_monotone_at_the_sampler_edges(a, b):
    # the 1000 smallest and the 1000 largest grid points below 1 that the
    # samplers can draw; the top-k draw relies on the quantile being
    # nondecreasing there
    model = ts.Beta(a, b)
    i = np.arange(1000)
    for p in (_grid_points(i), _grid_points(TOP_I - 999 + i)):
        q = model.quantile(p)
        assert np.all(np.diff(q) >= 0)
        assert np.all((q >= 0) & (q <= 1))


def test_open_unit_keeps_the_top_integer_below_one():
    from tailscope import dist

    i = np.array([0, 1 << 52, TOP_I, TOP_I + 1], dtype=np.int64)
    u = dist._open_unit(i)
    assert _same_bits(u[:3], _grid_points(i[:3]))
    assert _grid_points(i[3]) == 1.0 and u[3] == np.nextafter(1.0, 0.0)
    assert np.all(np.diff(u) > 0)


def test_top_integer_draw_samples(monkeypatch):
    # every integer of the draw is 2^53 - 1, whose (i + 0.5) / 2^53 is 1.0
    class TopIntegers:
        def integers(self, lo, hi, size):
            return np.full(size, hi - 1, dtype=np.int64)

    monkeypatch.setattr(ts.RandomSeed, "generator", lambda self: TopIntegers())
    for spec in SPECS:
        model = parse_model(spec)
        if not isinstance(model, ts.StableSkewed):  # sampled by CMS, not inversion
            x = model.sample(3, ts.RandomSeed(1))
            assert np.array_equal(x, np.full(3, model.quantile(1 - 2**-53))), spec


def test_beta_quantile_below_betaincinv_range():
    # betaincinv returns NaN here; the quantile takes the leading term near 0
    model = ts.Beta(2, 5)
    x = model.quantile(1e-190)
    assert x == pytest.approx(2.581988897471624e-96, rel=1e-14)
    assert special.betainc(2, 5, x) == pytest.approx(1e-190, rel=1e-14)
    tiny = np.array([1e-187, 1e-250, 1e-300, 5e-324])
    assert np.all(np.diff(model.quantile(tiny)) < 0)
    assert type(model.quantile(1e-300)) is float
    # where betaincinv gives a number, the quantile keeps it bit for bit
    p = 10.0 ** -np.arange(1, 186)
    assert _same_bits(model.quantile(p), special.betaincinv(2, 5, p))


# The stable law's quantile is a numerical inversion, tens of milliseconds per
# value, so it is checked at the edge probabilities only.
EDGE_P = [0.0, 5e-324, 1e-300, 2**-54, 0.5, 1 - 2**-52, 1 - 2**-53]
EXTRA_SPECS = ["pareto:0.4", "gpd:-2,3", "beta:2,5", "beta:5,2", "beta:3,0.5", "beta:0.1,10",
               "lognormal:-2,2.5"]


def _in_closed_support(model, x):
    lo, hi = model.support
    return bool(np.all((lo <= x) & (x <= hi)))  # False for NaN


@pytest.mark.parametrize("spec", [s for s in SPECS if not s.startswith("stable")] + EXTRA_SPECS)
@settings(max_examples=100, deadline=None)
@given(p=st.lists(st.one_of(st.sampled_from(EDGE_P), st.floats(0.0, 1.0, exclude_max=True)),
                  min_size=1, max_size=8))
def test_quantile_is_never_nan_and_lies_in_support(spec, p):
    model = parse_model(spec)
    assert _in_closed_support(model, model.quantile(np.array(p)))
    assert _in_closed_support(model, model.quantile(p[0]))


@pytest.mark.parametrize("spec", ["stable:0.7", "stable:1", "stable:1.5"])
def test_stable_quantile_at_edges_lies_in_support(spec):
    model = parse_model(spec)
    assert _in_closed_support(model, model.quantile(np.array(EDGE_P)))


# ---------------------------------------------------------------------------
# the exponential is the shape-0 GPD; closed forms live on the law


@pytest.mark.parametrize("mean", [0.5, 1.0, 3.0])
def test_exponential_is_gpd_zero_bit_for_bit(mean):
    e, g = ts.Exponential(mean), ts.GPD(0.0, mean)
    assert e.label() == f"exp(mean={mean:g})" and e.mean == mean
    x = np.array([0.0, 1e-300, 0.1, 1.0, 7.5, 700.0, math.inf])
    p = np.array([0.0, 1e-300, 1e-9, 0.3, 0.999, np.nextafter(1.0, 0.0)])
    for seed in (ts.RandomSeed(3), ts.RandomSeed(4, 2)):
        assert _same_bits(e.sample(1000, seed), g.sample(1000, seed))
        assert _same_bits(e.sample(1000, seed, 37), g.sample(1000, seed, 37))
    assert _same_bits(e.tail(x), g.tail(x)) and _same_bits(e.cdf(x), g.cdf(x))
    assert _same_bits(e.quantile(p), g.quantile(p))
    for u in (-2.0, 0.0, 0.5, 40.0):
        assert _same_bits(ts.theoretical_me(e, u), ts.theoretical_me(g, u))
    for t in (-1.0, 0.0, 0.1, 3.0, 800.0, math.inf):
        assert _same_bits(ts.truncated_mean(e, t), ts.truncated_mean(g, t))


@pytest.mark.parametrize("model", [ts.Pareto(2), ts.Pareto(1.5), ts.GPD(0.5), ts.GPD(-0.5, 2.0),
                                   ts.Exponential(2), ts.Beta(2, 3), ts.LogNormal(0.5, 0.8),
                                   ts.LambertWTail()], ids=repr)
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_mean_excess_below_the_support_is_shifted_from_the_lower_endpoint(model, method):
    # every observation exceeds u < lo, so M(u) = E[X] - u = M(lo) + lo - u
    lo = model.support[0]
    at_lo = ts.theoretical_me(model, lo, method)
    for u in (lo - 1e-9, lo - 0.5, lo - 7.0):
        assert ts.theoretical_me(model, u, method) == at_lo + lo - u
