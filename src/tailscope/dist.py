"""Distribution models, samplers and theoretical tail quantities.

Everything downstream (mean excess plots, estimators, set-convergence
experiments) consumes the small model interface defined here: tail, cdf,
quantile, support, extreme-value shape and a seeded sampler.  Sampling is
inverse-transform by default; the totally skewed stable laws use the
Chambers-Mallows-Stuck construction because their quantile functions have
no closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import (
    DegenerateDataError,
    DomainError,
    InfiniteMeanError,
    ParameterError,
)

__all__ = [
    "RandomSeed",
    "ShapeScale",
    "gpd_cdf",
    "gpd_tail",
    "gpd_quantile",
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
    "QuantileDefined",
    "PositiveStable",
    "SkewedUnitIndex",
    "skewed_unit_drift",
    "theoretical_me",
    "excess_cdf",
    "quantile_b",
    "truncated_mean",
]

_XI_ZERO_TOL = 1e-12  # below this |xi| the GPD is treated as exponential


# ---------------------------------------------------------------------------
# seeding


_MASK64 = (1 << 64) - 1


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


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1)."""
    return (rng.integers(0, 1 << 53, size=n).astype(np.float64) + 0.5) / (1 << 53)


# ---------------------------------------------------------------------------
# generalized Pareto family


@dataclass(frozen=True)
class ShapeScale:
    """Shape/scale parameter pair of the generalized Pareto family."""

    xi: float
    beta: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.xi):
            raise ParameterError("xi must be finite")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ParameterError("beta must be positive")

    @property
    def support(self) -> tuple[float, float]:
        if self.xi >= 0:
            return (0.0, math.inf)
        return (0.0, -self.beta / self.xi)


def _gpd_args(x, ss: ShapeScale):
    x = np.asarray(x, dtype=float)
    lo, hi = ss.support
    if np.any(x < lo) or np.any(x > hi):
        raise DomainError(f"x outside support [{lo}, {hi}]")
    return x


def gpd_tail(x, ss: ShapeScale):
    """Survival function 1 - G_{xi,beta}(x) on the support."""
    x = _gpd_args(x, ss)
    if abs(ss.xi) < _XI_ZERO_TOL:
        out = np.exp(-x / ss.beta)
    else:
        # (1 + xi x / beta)^(-1/xi), evaluated in log space; at the right
        # endpoint for xi < 0 the log is -inf and the limit value 0 is exact
        with np.errstate(divide="ignore"):
            out = np.exp(-np.log1p(ss.xi * x / ss.beta) / ss.xi)
    return out if out.ndim else float(out)

def gpd_cdf(x, ss: ShapeScale):
    """Generalized Pareto distribution function G_{xi,beta}(x)."""
    x = _gpd_args(x, ss)
    if abs(ss.xi) < _XI_ZERO_TOL:
        out = -np.expm1(-x / ss.beta)
    else:
        with np.errstate(divide="ignore"):
            out = -np.expm1(-np.log1p(ss.xi * x / ss.beta) / ss.xi)
    return out if out.ndim else float(out)


def gpd_quantile(p, ss: ShapeScale):
    """Inverse of ``gpd_cdf`` on p in (0, 1); p = 0 returns 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p >= 1):
        raise DomainError("p must lie in [0, 1)")
    if abs(ss.xi) < _XI_ZERO_TOL:
        out = -ss.beta * np.log1p(-p)
    else:
        out = (ss.beta / ss.xi) * np.expm1(-ss.xi * np.log1p(-p))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Lambert W and the slowly-varying-tail example built from it


def lambert_w(x):
    """Principal branch of w e^w = x for x >= 0, by Halley iteration.

    Accurate to 1e-12 relative residual.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("lambert_w requires x >= 0")
    w = np.log1p(x)  # decent start on [0, inf)
    for _ in range(100):
        ew = np.exp(w)
        f = w * ew - x
        if np.all(np.abs(f) <= 1e-13 * np.maximum(x, 1.0)):
            break
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w = w - f / denom
    return w if w.ndim else float(w)


def nonstd_tail(x):
    """Survival function 400 W(x e^{1/20} / 20)^2 / x^2 on x >= 1.

    Regularly varying with index -2 but with a squared-logarithm slowly
    varying factor, so log-log tail plots bend away from slope -2 at any
    realistic scale.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1):
        raise DomainError("support starts at 1")
    w = lambert_w(x * math.exp(0.05) / 20.0)
    out = 400.0 * np.square(w) / np.square(x)
    return out if np.ndim(out) else float(out)


def nonstd_quantile(p):
    """Inverse of ``nonstd_tail``: x with tail(x) = p, for p in (0, 1]."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p > 1):
        raise DomainError("p must lie in (0, 1]")
    out = (1.0 - 10.0 * np.log(p)) / np.sqrt(p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# model interface


class DistributionModel:
    """Common interface: tail, cdf, quantile, support, shape, sampling."""

    name = "model"
    support: tuple[float, float] = (0.0, math.inf)
    domain_shape: float | None = None  # extreme-value index of the law
    has_finite_mean = True

    def tail(self, x):
        return 1.0 - self.cdf(x)

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def sample(self, n: int, seed: RandomSeed) -> np.ndarray:
        if n < 1:
            raise ParameterError("n must be positive")
        u = _uniform_open(seed.generator(), n)
        return np.asarray(self.quantile(u), dtype=float)

    def label(self) -> str:
        return self.name

    def __repr__(self):
        return self.label()


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p >= 1):
        raise DomainError("p must lie in [0, 1)")
    return p


class Pareto(DistributionModel):
    """Pareto law with tail x^(-alpha) on [1, inf)."""

    def __init__(self, alpha: float):
        if not (np.isfinite(alpha) and alpha > 0):
            raise ParameterError("alpha must be positive")
        self.alpha = float(alpha)
        self.name = f"pareto(alpha={alpha:g})"
        self.support = (1.0, math.inf)
        self.domain_shape = 1.0 / self.alpha
        self.has_finite_mean = self.alpha > 1

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 1):
            raise DomainError("support starts at 1")
        out = x ** -self.alpha
        return out if out.ndim else float(out)

    def cdf(self, x):
        out = 1.0 - self.tail(x)
        return out if np.ndim(out) else float(out)

    def quantile(self, p):
        p = _check_p(p)
        out = np.exp(-np.log1p(-p) / self.alpha)
        return out if out.ndim else float(out)


class GPD(DistributionModel):
    """Generalized Pareto model G_{xi,beta}."""

    def __init__(self, xi: float, beta: float = 1.0):
        self.shape_scale = ShapeScale(xi, beta)
        self.xi = self.shape_scale.xi
        self.beta = self.shape_scale.beta
        self.name = f"gpd(xi={xi:g},beta={beta:g})"
        self.support = self.shape_scale.support
        self.domain_shape = self.xi
        self.has_finite_mean = self.xi < 1

    def tail(self, x):
        return gpd_tail(x, self.shape_scale)

    def cdf(self, x):
        return gpd_cdf(x, self.shape_scale)

    def quantile(self, p):
        return gpd_quantile(p, self.shape_scale)


class Exponential(DistributionModel):
    def __init__(self, mean: float = 1.0):
        if not (np.isfinite(mean) and mean > 0):
            raise ParameterError("mean must be positive")
        self.mean = float(mean)
        self.name = f"exp(mean={mean:g})"
        self.support = (0.0, math.inf)
        self.domain_shape = 0.0

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("support starts at 0")
        out = np.exp(-x / self.mean)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-x / self.mean)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = _check_p(p)
        out = -self.mean * np.log1p(-p)
        return out if out.ndim else float(out)


class Beta(DistributionModel):
    """Beta(a, b) on (0, 1); finite right endpoint, shape -1/b."""

    def __init__(self, a: float, b: float):
        if not (a > 0 and b > 0):
            raise ParameterError("a and b must be positive")
        self.a, self.b = float(a), float(b)
        self.name = f"beta(a={a:g},b={b:g})"
        self.support = (0.0, 1.0)
        self.domain_shape = -1.0 / self.b

    def cdf(self, x):
        from scipy.stats import beta as _beta

        return _beta.cdf(x, self.a, self.b)

    def tail(self, x):
        from scipy.stats import beta as _beta

        return _beta.sf(x, self.a, self.b)

    def quantile(self, p):
        from scipy.stats import beta as _beta

        p = _check_p(p)
        return _beta.ppf(p, self.a, self.b)


class LogNormal(DistributionModel):
    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (np.isfinite(mu) and sigma > 0):
            raise ParameterError("need finite mu and sigma > 0")
        self.mu, self.sigma = float(mu), float(sigma)
        self.name = f"lognormal(mu={mu:g},sigma={sigma:g})"
        self.support = (0.0, math.inf)
        self.domain_shape = 0.0

    def cdf(self, x):
        from scipy.stats import lognorm

        return lognorm.cdf(x, self.sigma, scale=math.exp(self.mu))

    def tail(self, x):
        from scipy.stats import lognorm

        return lognorm.sf(x, self.sigma, scale=math.exp(self.mu))

    def quantile(self, p):
        from scipy.stats import lognorm

        p = _check_p(p)
        return lognorm.ppf(p, self.sigma, scale=math.exp(self.mu))


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
    """Totally right-skewed stable law S_alpha(1, 1, 0), classical form."""

    def __init__(self, alpha: float):
        if not 0 < alpha < 2:
            raise ParameterError("alpha must lie in (0, 2)")
        self.alpha = float(alpha)
        self.name = f"stable(alpha={alpha:g})"
        self.support = (0.0, math.inf) if alpha < 1 else (-math.inf, math.inf)
        self.domain_shape = 1.0 / self.alpha
        self.has_finite_mean = self.alpha > 1

    def sample(self, n: int, seed: RandomSeed) -> np.ndarray:
        if n < 1:
            raise ParameterError("n must be positive")
        return _cms_skewed(self.alpha, n, seed.generator())

    def _frozen(self):
        from scipy.stats import levy_stable

        # each frozen law owns its generator, so the S1 choice stays local
        frozen = levy_stable(self.alpha, 1.0)
        frozen.dist.parameterization = "S1"
        return frozen

    def cdf(self, x):
        return self._frozen().cdf(x)

    def tail(self, x):
        return self._frozen().sf(x)

    def quantile(self, p):
        p = _check_p(p)
        return self._frozen().ppf(p)


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

    def tail(self, x):
        return nonstd_tail(x)

    def cdf(self, x):
        out = 1.0 - np.asarray(nonstd_tail(x))
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = _check_p(p)
        out = nonstd_quantile(1.0 - p)
        return out if np.ndim(out) else float(out)


class QuantileDefined(DistributionModel):
    """Model given by an arbitrary quantile function.

    ``tail`` is recovered by bisection, so it is exact only up to the
    requested tolerance; sampling is inverse-transform and exact.
    """

    def __init__(
        self,
        quantile_fn: Callable[[np.ndarray], np.ndarray],
        support: tuple[float, float] = (0.0, math.inf),
        domain_shape: float | None = None,
        name: str = "quantile-defined",
    ):
        self._quantile_fn = quantile_fn
        self.support = support
        self.domain_shape = domain_shape
        self.name = name

    def quantile(self, p):
        p = _check_p(p)
        return np.asarray(self._quantile_fn(p), dtype=float)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape or (1,))
        flat = np.atleast_1d(x)
        for i, xi in enumerate(flat):
            lo, hi = 0.0, 1.0 - 1e-16
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if self._quantile_fn(mid) <= xi:
                    lo = mid
                else:
                    hi = mid
            out.flat[i] = 0.5 * (lo + hi)
        return out.reshape(x.shape) if x.ndim else float(out[0])


# ---------------------------------------------------------------------------
# limit stable laws appearing in the heavy-tail normalizations


@lru_cache(maxsize=1)
def skewed_unit_drift() -> float:
    """The location constant integral(0, inf) of sin(x)/x^2 - 1/(x(1+x)).

    Computed by quadrature: a smooth piece near zero, a finite oscillatory
    stretch, and an oscillatory tail handled with a sine weight.
    """
    d1, _ = quad(lambda x: (np.sin(x) - x) / x**2 + 1.0 / (1.0 + x), 0.0, 1.0)
    d2, _ = quad(
        lambda x: np.sin(x) / x**2 - 1.0 / (x * (1.0 + x)), 1.0, 200.0, limit=400
    )
    d3, _ = quad(lambda x: x**-2.0, 200.0, np.inf, weight="sin", wvar=1.0)
    d4 = -math.log(201.0 / 200.0)
    return d1 + d2 + d3 + d4


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
        return out if out.ndim else complex(out)

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
        return out if out.ndim else complex(out)

    def label(self) -> str:
        return "skewed-unit-index"


# ---------------------------------------------------------------------------
# theoretical tail functionals


def _tail_integral(model: DistributionModel, a: float) -> float:
    """integral(a, x_F) of the survival function."""
    lo, hi = model.support
    head = 0.0
    if a < lo:
        head = lo - a
        a = lo
    if a >= hi:
        return head
    val, _ = quad(
        lambda s: float(np.asarray(model.tail(s))),
        a,
        hi,
        epsabs=1e-14,
        epsrel=1e-11,
        limit=400,
    )
    return head + val


def theoretical_me(model: DistributionModel, u: float, method: str = "auto") -> float:
    """Mean excess M(u) = E[X - u | X > u] of the model at threshold u.

    ``method`` is "auto" (closed form where one exists), "closed" or
    "quadrature".  The quadrature route integrates the survival function
    above u and divides by the survival at u.
    """
    if method not in ("auto", "closed", "quadrature"):
        raise ParameterError(f"unknown method {method!r}")
    if not model.has_finite_mean:
        raise InfiniteMeanError(f"{model.label()} has no finite mean")
    lo, hi = model.support
    if u >= hi:
        raise DomainError("threshold at or beyond the right endpoint")

    closed = _closed_me(model, u)
    if method == "closed":
        if closed is None:
            raise ParameterError(f"no closed form mean excess for {model.label()}")
        return closed
    if method == "auto" and closed is not None:
        return closed

    tail_u = float(np.asarray(model.tail(max(u, lo))))
    if u < lo:
        # everything exceeds u; M(u) = E[X] - u
        return _tail_integral(model, lo) + lo - u
    if tail_u <= 0.0:
        raise DegenerateDataError("survival function vanishes at the threshold")
    return _tail_integral(model, u) / tail_u


def _closed_me(model: DistributionModel, u: float) -> float | None:
    if isinstance(model, GPD):
        if u < 0:
            return model.beta / (1.0 - model.xi) - u
        return (model.beta + model.xi * u) / (1.0 - model.xi)
    if isinstance(model, Exponential):
        return model.mean if u >= 0 else model.mean - u
    if isinstance(model, Pareto):
        if u < 1:
            return model.alpha / (model.alpha - 1.0) - u
        return u / (model.alpha - 1.0)
    return None


def excess_cdf(model: DistributionModel, u: float, x):
    """Excess distribution F_u(x) = P(X - u <= x | X > u) for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("x must be nonnegative")
    tail_u = float(np.asarray(model.tail(u)))
    if tail_u <= 0.0:
        raise DegenerateDataError("survival function vanishes at the threshold")
    hi = model.support[1]
    shifted = np.minimum(u + x, hi)
    out = (tail_u - np.asarray(model.tail(shifted))) / tail_u
    return out if out.ndim else float(out)


def quantile_b(model: DistributionModel, t: float) -> float:
    """Tail quantile b(t) = F^{-1}(1 - 1/t) for t >= 1."""
    if t < 1:
        raise DomainError("t must be at least 1")
    if t == 1:
        return float(model.support[0])
    return float(np.asarray(model.quantile(1.0 - 1.0 / t)))


def truncated_mean(model: DistributionModel, t: float) -> float:
    """E[X 1{X <= t}] for models supported on the nonnegative half-line."""
    lo, hi = model.support
    if lo < 0:
        raise DomainError("truncated mean requires nonnegative support")
    if t < lo:
        return 0.0
    if isinstance(model, Pareto):
        a = model.alpha
        tt = min(t, hi)
        if abs(a - 1.0) < 1e-12:
            return math.log(tt)
        return (a / (a - 1.0)) * -math.expm1((1.0 - a) * math.log(tt))
    if isinstance(model, Exponential):
        m = model.mean
        return m - (min(t, hi) + m) * math.exp(-min(t, hi) / m) if t < hi else m
    t = min(t, hi)
    # E[X 1{X <= t}] = integral(0, t) of the survival - t * survival(t);
    # integrate over the finite range in geometric chunks so a single quad
    # call never has to resolve mass spread over many decades
    f = lambda s: float(np.asarray(model.tail(s)))
    body = 0.0
    a = lo
    while a < t:
        b = min(t, max(a * 10.0, a + 1.0))
        piece, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        body += piece
        a = b
    tail_t = f(t) if t < hi else 0.0
    return lo + body - t * tail_t

