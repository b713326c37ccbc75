"""Distribution models, samplers and theoretical tail quantities.

Everything downstream (mean excess plots, estimators, set-convergence
experiments) consumes the small model interface defined here: tail, cdf,
quantile, support, extreme-value shape and a seeded sampler, which can also
return just the k largest of its n draws.  Sampling is inverse-transform by
default; the totally skewed stable laws use the Chambers-Mallows-Stuck
construction because their quantile functions have no closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    InfiniteMeanError,
    ParameterError,
)

__all__ = [
    "RandomSeed",
    "lambert_w",
    "nonstd_tail",
    "nonstd_quantile",
    "DistributionModel",
    "GPD",
    "Pareto",
    "Beta",
    "Exponential",
    "LogNormal",
    "StableSkewed",
    "LambertWTail",
    "PositiveStable",
    "SkewedUnitIndex",
    "skewed_unit_drift",
    "theoretical_me",
    "excess_cdf",
    "quantile_b",
    "truncated_mean",
]

_XI_ZERO_TOL = 1e-12  # below this |xi| the GPD is treated as exponential
# 1/21!, ..., 1/3!, 1/2!: the exponential's truncated-mean series, to double precision below x = 1
_EXP_SERIES = tuple(1.0 / math.factorial(j) for j in range(21, 1, -1))


# ---------------------------------------------------------------------------
# seeding


_MASK64 = (1 << 64) - 1
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class RandomSeed:
    """Counter-based seed: (seed, stream) keys an independent Philox stream.

    Distinct streams are statistically independent, so replicated
    experiments can assign one stream per replication and aggregate in any
    order.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError("seed must fit in 64 bits")
        if not 0 <= self.stream <= _MASK64:
            raise ParameterError("stream must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        key = self.seed | (self.stream << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def with_stream(self, stream: int) -> "RandomSeed":
        return replace(self, stream=stream)


def _largest(x: np.ndarray, k: int | None) -> np.ndarray:
    """x itself, or with k given its k largest entries in no set order, from
    partitioning x in place (the callers own it), not a copy of it."""
    if k is None:
        return x
    x.partition(x.size - k)
    return x[x.size - k:]


def _open_unit(i: np.ndarray) -> np.ndarray:
    """(i + 0.5) / 2^53 for integers i in 0..2^53 - 1, nondecreasing in i.

    Exact below i = 2^52; above it i + 0.5 rounds to the even neighbour, so
    two integers can give one value, and i = 2^53 - 1 gives 1 - 2^-53, not 1.0.
    """
    u = (i.astype(np.float64) + 0.5) / (1 << 53)
    return np.minimum(u, _BELOW_ONE, out=u)


# integers drawn per block when only the k largest of them are kept
_DRAW = 1 << 16


def _uniform_open(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    """Uniforms ``_open_unit(i)`` for n integers i drawn from rng, or with k
    given for only the k largest of them, in no set order.

    Each integer is the stream's next 64-bit word (``random_raw``) shifted
    right by 11, the integer that ``rng.integers(0, 2**53)`` draws.  Without
    k, k = n keeps every word, in stream order.  Otherwise the words are
    drawn ``_DRAW`` at a time.  One buffer keeps the k largest so far at its
    end, and of each block only the words above the least of them are
    partitioned in.  The shift is nondecreasing, so the k largest words give
    the k largest integers.  A draw holds O(k + ``_DRAW``) words, and leaves
    the stream where drawing all n at once would.
    """
    k = n if k is None else k
    words = rng.bit_generator.random_raw
    block = min(_DRAW, n - k)
    top = words(block + k)
    if block:
        top.partition(block)
    for drawn in range(block + k, n, _DRAW):
        new = words(min(block, n - drawn))
        new = new.compress(new > top[block])
        if new.size:
            top[block - new.size:block] = new
            top[block - new.size:].partition(new.size)
    return _open_unit((top[block:] >> np.uint64(11)).view(np.int64))


def _check_size(n: int, k: int | None = None) -> None:
    if n < 1:
        raise ParameterError("n must be positive")
    if k is not None and not 1 <= k <= n:
        raise ParameterError(f"k={k} outside 1..{n}")


def _unwrap(out):
    """A 0-d result as a Python scalar; arrays pass through unchanged."""
    out = np.asarray(out)
    return out if out.ndim else out.item()


# ---------------------------------------------------------------------------
# Lambert W and the slowly-varying-tail example built from it


def lambert_w(x):
    """Principal branch of w e^w = x for x >= 0, and inf at inf, from
    ``scipy.special.lambertw`` (imported on first use)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("lambert_w requires x >= 0")
    from scipy.special import lambertw

    return _unwrap(lambertw(x).real)


def nonstd_tail(x):
    """Survival function 400 W(x e^{1/20} / 20)^2 / x^2 on x >= 1.

    Regularly varying with index -2 but with a squared-logarithm slowly
    varying factor, so log-log tail plots bend away from slope -2 at any
    realistic scale.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1):
        raise DomainError("support starts at 1")
    # x^2 overflows from x = 1.3e154 on, where the tail reads 0; capping x keeps
    # W finite there, so that the tail reads 0 up to x = inf, not inf/inf
    w = lambert_w(np.minimum(x, 1e300) * math.exp(0.05) / 20.0)
    with np.errstate(over="ignore"):
        return _unwrap(400.0 * np.square(w) / np.square(x))


def nonstd_quantile(p):
    """Inverse of ``nonstd_tail``: x with tail(x) = p, for p in (0, 1]."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p > 1):
        raise DomainError("p must lie in (0, 1]")
    return _unwrap((1.0 - 10.0 * np.log(p)) / np.sqrt(p))


# ---------------------------------------------------------------------------
# model interface


class DistributionModel:
    """Common interface: tail, cdf, quantile, support, shape, sampling.

    The public ``tail``, ``cdf`` and ``quantile`` check their argument (x in
    ``support``, p in [0, 1)), raising ``DomainError`` otherwise, and return
    a Python float for a scalar argument.  ``tail`` and ``cdf`` are clipped
    to [0, 1], which a formula's rounding can leave by an ulp.  A model
    supplies only the formulas ``_tail`` or ``_cdf`` (each defaults to one
    minus the other) and ``_quantile``, which receive float arrays.

    A law with closed forms also overrides the scalar hooks behind
    ``theoretical_me`` and ``truncated_mean``, which default to quadrature of
    the survival function: ``_mean_excess(u)`` for lo <= u < hi and
    ``_truncated_mean(t)`` for t >= lo.
    """

    name = "model"
    support: tuple[float, float] = (0.0, math.inf)
    domain_shape: float | None = None  # extreme-value index of the law

    @property
    def has_finite_mean(self) -> bool:
        return self.domain_shape is None or self.domain_shape < 1

    def tail(self, x):
        return _unwrap(np.clip(self._tail(self._in_support(x)), 0.0, 1.0))

    def cdf(self, x):
        return _unwrap(np.clip(self._cdf(self._in_support(x)), 0.0, 1.0))

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0) or np.any(p >= 1):
            raise DomainError("p must lie in [0, 1)")
        return _unwrap(self._quantile(p))

    def _in_support(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        if np.any(x < lo) or np.any(x > hi):
            raise DomainError(f"x outside support [{lo}, {hi}]")
        return x

    def _tail(self, x):
        return 1.0 - self._cdf(x)

    def _cdf(self, x):
        return 1.0 - self._tail(x)

    def _quantile(self, p):
        raise NotImplementedError

    def _mean_excess(self, u: float) -> float:
        from scipy.integrate import quad

        tail_u = self.tail(u)
        if tail_u <= 0.0:
            raise DegenerateDataError("survival function vanishes at the threshold")
        val, _ = quad(self.tail, u, self.support[1], epsabs=1e-14, epsrel=1e-11, limit=400)
        return val / tail_u

    def _truncated_mean(self, t: float) -> float:
        from scipy.integrate import quad

        lo, hi = self.support
        t = min(t, hi)
        # E[X 1{X <= t}] = integral(0, t) of the survival - t * survival(t);
        # integrate over the finite range in geometric chunks so a single quad
        # call never has to resolve mass spread over many decades
        body = 0.0
        a = lo
        while a < t:
            b = min(t, max(a * 10.0, a + 1.0))
            piece, _ = quad(self.tail, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
            body += piece
            a = b
        tail_t = self.tail(t) if t < hi else 0.0
        return lo + body - t * tail_t

    def sample(self, n: int, seed: RandomSeed, k: int | None = None) -> np.ndarray:
        """n draws from the law, or with k given only the k largest of them.

        With k, the same n integers are drawn, in the same stream, in blocks
        that keep only the k largest so far (``_uniform_open``); only those
        are made uniforms and go through the quantile.  They come back in no
        set order, at O(n) time for the draw and O(k + block) memory, and
        O(k) in the conversion and the quantile.  Where the quantile is
        nondecreasing at the ulp scale, these are the k largest values of
        ``sample(n, seed)`` bit for bit.  Beta's is not: for Beta(2, 2) about
        1.4 % of the steps between adjacent p go down by one ulp, so a call
        at n = 1e6 differs with probability about 1e-9.
        """
        _check_size(n, k)
        return self.quantile(_uniform_open(seed.generator(), n, k))

    def label(self) -> str:
        return self.name

    def __repr__(self):
        return self.label()


class Pareto(DistributionModel):
    """Pareto law with tail x^(-alpha) on [1, inf)."""

    def __init__(self, alpha: float):
        if not (np.isfinite(alpha) and alpha > 0):
            raise ParameterError("alpha must be positive")
        self.alpha = float(alpha)
        self.name = f"pareto(alpha={alpha:g})"
        self.support = (1.0, math.inf)
        self.domain_shape = 1.0 / self.alpha

    def _tail(self, x):
        return x ** -self.alpha

    def _quantile(self, p):
        return np.exp(-np.log1p(-p) / self.alpha)

    def _mean_excess(self, u):
        return u / (self.alpha - 1.0)

    def _truncated_mean(self, t):
        a = self.alpha
        if abs(a - 1.0) < 1e-12:
            return math.log(t)
        return (a / (a - 1.0)) * -math.expm1((1.0 - a) * math.log(t))


class GPD(DistributionModel):
    """Generalized Pareto model G_{xi,beta}, tail (1 + xi x / beta)^(-1/xi)."""

    def __init__(self, xi: float, beta: float = 1.0):
        if not np.isfinite(xi):
            raise ParameterError("xi must be finite")
        if not (np.isfinite(beta) and beta > 0):
            raise ParameterError("beta must be positive")
        self.xi, self.beta = float(xi), float(beta)
        self.name = f"gpd(xi={xi:g},beta={beta:g})"
        self.support = (0.0, math.inf if xi >= 0 else -self.beta / self.xi)
        self.domain_shape = self.xi

    def _log_tail(self, x):
        if abs(self.xi) < _XI_ZERO_TOL:
            return -x / self.beta
        # at the right endpoint for xi < 0 the log is -inf and the limit
        # tail value 0 is exact
        with np.errstate(divide="ignore"):
            return -np.log1p(self.xi * x / self.beta) / self.xi

    def _tail(self, x):
        return np.exp(self._log_tail(x))

    def _cdf(self, x):
        return -np.expm1(self._log_tail(x))

    def _quantile(self, p):
        if abs(self.xi) < _XI_ZERO_TOL:
            return -self.beta * np.log1p(-p)
        return (self.beta / self.xi) * np.expm1(-self.xi * np.log1p(-p))

    def _mean_excess(self, u):
        return (self.beta + self.xi * u) / (1.0 - self.xi)

    def _truncated_mean(self, t):
        if abs(self.xi) >= _XI_ZERO_TOL:  # the exponential's closed form only
            return super()._truncated_mean(t)
        # m (1 - (1 + x) e^(-x)) with x = t/m; below x = 1 its two terms cancel, so
        # there it is t x e^(-x) (1/2! + x/3! + x^2/4! + ...), by Horner
        x = t / self.beta
        if x == math.inf:
            return self.beta
        if x >= 1.0:
            return self.beta * (-math.expm1(-x) - x * math.exp(-x))
        series = 0.0
        for c in _EXP_SERIES:
            series = series * x + c
        return t * (x * series) * math.exp(-x)


class Exponential(GPD):
    """The exponential law with the given mean: GPD(0, mean), the GPD's shape-0 member."""

    def __init__(self, mean: float = 1.0):
        if not (np.isfinite(mean) and mean > 0):
            raise ParameterError("mean must be positive")
        super().__init__(0.0, mean)
        self.mean = self.beta
        self.name = f"exp(mean={mean:g})"


class Beta(DistributionModel):
    """Beta(a, b) on (0, 1); finite right endpoint, shape -1/b.

    Evaluated by the regularized incomplete beta function and its inverse
    from ``scipy.special`` (imported on first use), without loading
    ``scipy.stats``.  The values equal ``scipy.stats.beta``'s bit for bit,
    except where ``beta.ppf`` fails: for Beta(3, 0.5) within 2.9e-8 of p = 1
    it returns 0.5 or 1.0 with a warning; where both fail for tiny p (below
    1e-186 for Beta(2, 5)), the quantile is (p a B(a, b))^(1/a).  Neither
    is monotone at the ulp scale (see ``DistributionModel.sample``).
    """

    def __init__(self, a: float, b: float):
        if not (a > 0 and b > 0):
            raise ParameterError("a and b must be positive")
        self.a, self.b = float(a), float(b)
        self.name = f"beta(a={a:g},b={b:g})"
        self.support = (0.0, 1.0)
        self.domain_shape = -1.0 / self.b

    def _cdf(self, x):
        from scipy.special import betainc

        return betainc(self.a, self.b, x)

    def _tail(self, x):
        from scipy.special import betaincc

        return betaincc(self.a, self.b, x)

    def _quantile(self, p):
        from scipy.special import betaincinv, betaln

        x = betaincinv(self.a, self.b, p)
        # where betaincinv gives NaN for tiny p, invert I_x(a, b) ~ x^a / (a B(a, b))
        with np.errstate(divide="ignore"):
            small = np.exp((np.log(p) + math.log(self.a) + betaln(self.a, self.b)) / self.a)
        return np.clip(np.where(np.isnan(x) & (p > 0), small, x), *self.support)


class LogNormal(DistributionModel):
    """exp(mu + sigma Z), Z standard normal.

    Evaluated through the normal cdf and its inverse from ``scipy.special``
    (imported on first use), with the arithmetic of ``scipy.stats.lognorm(
    sigma, scale=e^mu)``, so every value equals the frozen scipy law's.
    """

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (np.isfinite(mu) and sigma > 0):
            raise ParameterError("need finite mu and sigma > 0")
        self.mu, self.sigma = float(mu), float(sigma)
        self._scale = math.exp(self.mu)
        self.name = f"lognormal(mu={mu:g},sigma={sigma:g})"
        self.support = (0.0, math.inf)
        self.domain_shape = 0.0

    def _z(self, x):
        # log 0 = -inf gives the limit values cdf 0 and tail 1 exactly
        with np.errstate(divide="ignore"):
            return np.log(x / self._scale) / self.sigma

    def _cdf(self, x):
        from scipy.special import ndtr

        return ndtr(self._z(x))

    def _tail(self, x):
        from scipy.special import ndtr

        return ndtr(-self._z(x))

    def _quantile(self, p):
        from scipy.special import ndtri

        return np.exp(self.sigma * ndtri(p)) * self._scale


def _cms_skewed(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Chambers-Mallows-Stuck draws of S_alpha(1, 1, 0) (classical form)."""
    v = (_uniform_open(rng, n) - 0.5) * math.pi
    w = np.maximum(rng.standard_exponential(n), 1e-300)
    if abs(alpha - 1.0) < 1e-12:
        b = math.pi / 2 + v  # beta = 1
        return (2.0 / math.pi) * (
            b * np.tan(v) - np.log((math.pi / 2) * w * np.cos(v) / b)
        )
    t = math.tan(math.pi * alpha / 2)
    theta0 = math.atan(t) / alpha
    scale = (1.0 + t * t) ** (1.0 / (2 * alpha))
    return (
        scale
        * np.sin(alpha * (v + theta0))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + theta0)) / w) ** ((1.0 - alpha) / alpha)
    )


class StableSkewed(DistributionModel):
    """Totally right-skewed stable law S_alpha(1, 1, 0), classical form.

    Sampled by Chambers-Mallows-Stuck; tail, cdf and quantile are those of
    ``scipy.stats.levy_stable`` (imported on first use), the one law here
    that needs ``scipy.stats``.  Its ppf stalls far in the lower tail: for alpha = 1.5
    the quantile is -7.7533 at every p <= 1e-16, where cdf reads 0 from p = 1e-17 down;
    for alpha = 0.7 and 1 it tracks p down to 1e-50.  The sampler never calls it.
    """

    def __init__(self, alpha: float):
        if not 0 < alpha < 2:
            raise ParameterError("alpha must lie in (0, 2)")
        self.alpha = float(alpha)
        self.name = f"stable(alpha={alpha:g})"
        self.support = (0.0, math.inf) if alpha < 1 else (-math.inf, math.inf)
        self.domain_shape = 1.0 / self.alpha

    def sample(self, n: int, seed: RandomSeed, k: int | None = None) -> np.ndarray:
        # the CMS draw is no inverse transform, so all n values are made first
        _check_size(n, k)
        return _largest(_cms_skewed(self.alpha, n, seed.generator()), k)

    @cached_property
    def _law(self):
        from scipy.stats import levy_stable

        # each frozen law owns its generator, so the S1 choice stays local
        frozen = levy_stable(self.alpha, 1.0)
        frozen.dist.parameterization = "S1"
        return frozen

    def _cdf(self, x):
        return self._law.cdf(x)

    def _tail(self, x):
        return self._law.sf(x)

    def _quantile(self, p):
        # levy_stable's ppf(0) is -inf, below the declared support when alpha < 1
        return np.clip(self._law.ppf(p), *self.support)


class LambertWTail(DistributionModel):
    """Law on [1, inf) with tail 400 W(x e^{1/20}/20)^2 / x^2.

    The quantile p -> (1 - 10 log p applied to the tail level) is closed
    form, which makes exact inverse-transform sampling possible even though
    the tail itself needs Lambert W.
    """

    def __init__(self):
        self.name = "lambertw"
        self.support = (1.0, math.inf)
        self.domain_shape = 0.5

    def _tail(self, x):
        return nonstd_tail(x)

    def _quantile(self, p):
        return nonstd_quantile(1.0 - p)


# ---------------------------------------------------------------------------
# limit stable laws appearing in the heavy-tail normalizations


def skewed_unit_drift() -> float:
    """The location constant integral(0, inf) of sin(x)/x^2 - 1/(x(1+x)).

    Its closed value is 1 - gamma, gamma being Euler's constant.
    """
    return 1.0 - np.euler_gamma


class PositiveStable:
    """Law of the positive stable limit S_{1/xi} for xi > 1.

    Characteristic function
    exp(-Gamma(1-1/xi) cos(pi/(2 xi)) |t|^{1/xi} (1 - i sgn(t) tan(pi/(2 xi)))),
    realized as sigma * S_alpha(1, 1, 0) with alpha = 1/xi and
    sigma = (Gamma(1-alpha) cos(pi alpha/2))^{1/alpha}.
    """

    def __init__(self, xi: float):
        if not xi > 1:
            raise ParameterError("xi must exceed 1")
        self.xi = float(xi)
        self.alpha = 1.0 / self.xi
        a = self.alpha
        self.sigma = (math.gamma(1.0 - a) * math.cos(math.pi * a / 2)) ** (1.0 / a)

    def sample(self, n: int, seed: RandomSeed) -> np.ndarray:
        return self.sigma * _cms_skewed(self.alpha, n, seed.generator())

    def cf(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha
        c = math.gamma(1.0 - a) * math.cos(math.pi * a / 2)
        out = np.exp(
            -c
            * np.abs(t) ** a
            * (1.0 - 1j * np.sign(t) * math.tan(math.pi * a / 2))
        )
        return _unwrap(out)

    def label(self) -> str:
        return f"positive-stable(xi={self.xi:g})"


class SkewedUnitIndex:
    """The centred index-1 skewed stable limit S_1.

    Characteristic function exp(i t D - |t| (pi/2 + i sgn(t) log|t|)) with D
    the drift constant; realized as (pi/2) Z + log(pi/2) + D where Z is a
    standard totally skewed index-1 stable variable.
    """

    def sample(self, n: int, seed: RandomSeed) -> np.ndarray:
        z = _cms_skewed(1.0, n, seed.generator())
        return (math.pi / 2) * z + math.log(math.pi / 2) + skewed_unit_drift()

    def cf(self, t):
        t = np.asarray(t, dtype=float)
        mag = np.abs(t)
        # |t| log|t| -> 0 as t -> 0
        tlog = np.where(mag > 0, mag * np.log(np.where(mag > 0, mag, 1.0)), 0.0)
        out = np.exp(
            1j * t * skewed_unit_drift() - (math.pi / 2) * mag - 1j * np.sign(t) * tlog
        )
        return _unwrap(out)

    def label(self) -> str:
        return "skewed-unit-index"


# ---------------------------------------------------------------------------
# theoretical tail functionals


def theoretical_me(model: DistributionModel, u: float, method: str = "auto") -> float:
    """Mean excess M(u) = E[X - u | X > u] of the model at threshold u.

    ``method`` is "auto" (the law's closed form where it has one) or
    "quadrature", which integrates the survival function above u and
    divides by the survival at u.  Below the support every observation
    exceeds u, so M(u) = E[X] - u = M(lo) + lo - u.
    """
    if method not in ("auto", "quadrature"):
        raise ParameterError(f"unknown method {method!r}")
    if not model.has_finite_mean:
        raise InfiniteMeanError(f"{model.label()} has no finite mean")
    lo, hi = model.support
    if u >= hi:
        raise DomainError("threshold at or beyond the right endpoint")
    me = DistributionModel._mean_excess if method == "quadrature" else type(model)._mean_excess
    if u < lo:
        return me(model, lo) + lo - u
    return me(model, u)


def excess_cdf(model: DistributionModel, u: float, x):
    """Excess distribution F_u(x) = P(X - u <= x | X > u) for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("x must be nonnegative")
    tail_u = model.tail(u)
    if tail_u <= 0.0:
        raise DegenerateDataError("survival function vanishes at the threshold")
    hi = model.support[1]
    shifted = np.minimum(u + x, hi)
    return _unwrap((tail_u - model.tail(shifted)) / tail_u)


def quantile_b(model: DistributionModel, t: float) -> float:
    """Tail quantile b(t) = F^{-1}(1 - 1/t) for t >= 1."""
    if t < 1:
        raise DomainError("t must be at least 1")
    if t == 1:
        return float(model.support[0])
    return model.quantile(1.0 - 1.0 / t)


def truncated_mean(model: DistributionModel, t: float) -> float:
    """E[X 1{X <= t}] for models supported on the nonnegative half-line."""
    lo = model.support[0]
    if lo < 0:
        raise DomainError("truncated mean requires nonnegative support")
    if t < lo:
        return 0.0
    return model._truncated_mean(t)
