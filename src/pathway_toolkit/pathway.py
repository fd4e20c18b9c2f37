"""Scalar pathway family of densities and the entropy functionals around it.

One parameter record covers three families: a finite-range power model below
the transition value, a heavy-tailed power model above it, and a stretched
gamma model exactly at it.  Under y = a|1-alpha| x^delta (a eta x^delta at the
transition) they are a type-1 beta, a type-2 beta and a gamma law (Mathai,
Linear Algebra Appl. 396, 2005).  Construction picks that law from one regime
table and checks only that its closed-form constant and support fit a double.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import (betainc, betainccinv, betaincinv, betaln,
                           gammainc, gammaincinv, gammaln)

from .errors import DomainError, as_number
from .melconv import integrate_halfline


class _Regime(NamedTuple):
    """The law of y = scale * x**delta: shape pair (p, q), with q infinite for
    the gamma law, support [0, y_max], the log of the beta or gamma integral
    that normalizes the kernel, and the log-kernel, CDF and quantile of y."""

    p: float
    q: float
    scale: float
    y_max: float
    log_shape_integral: float
    log_kernel: Callable
    cdf: Callable
    quantile: Callable


def _type1_beta(p, alpha, a, eta) -> _Regime:
    k = eta / (1 - alpha)
    q = k + 1
    return _Regime(p, q, a * (1 - alpha), 1.0, betaln(p, q),
                   lambda y: k * np.log1p(-y),
                   lambda y: betainc(p, q, y), lambda u: betaincinv(p, q, u))


def _type2_beta(p, alpha, a, eta) -> _Regime:
    k = eta / (alpha - 1)
    q = k - p

    def cdf(y):
        # I_s(p, q) at s = y/(1+y) in the body and 1 - I_(1-s)(q, p) at
        # 1 - s = 1/(1+y) in the tail, so neither end rounds s to 0 or 1
        # (betaincc is exact there too, but 2-10 times slower)
        out = np.empty_like(y)
        body = y <= 1
        out[body] = betainc(p, q, y[body] / (1 + y[body]))
        out[~body] = 1 - betainc(q, p, 1 / (1 + y[~body]))
        return out

    # s = y/(1+y) from the lower inverse and 1 - s = 1/(1+y) from the upper
    # one are each exact where they are small, so their ratio y is too
    return _Regime(p, q, a * (alpha - 1), math.inf, betaln(p, q),
                   lambda y: -k * np.log1p(y), cdf,
                   lambda u: betaincinv(p, q, u) / betainccinv(q, p, u))


def _gamma(p, alpha, a, eta) -> _Regime:
    return _Regime(p, math.inf, a * eta, math.inf, gammaln(p), np.negative,
                   lambda y: gammainc(p, y), lambda u: gammaincinv(p, u))


# keyed by the sign of alpha - 1
_REGIMES = {-1: _type1_beta, 0: _gamma, 1: _type2_beta}


@dataclass(frozen=True)
class PathwayParams:
    """The five scalars of the pathway model plus derived quantities.

    ``alpha`` selects the family (below / above / exactly 1), ``gamma`` is the
    power weight at the origin, ``delta`` the power-transform exponent, ``a``
    the scale, ``eta`` the shape exponent.  Construction looks up the regime
    of y = a|1-alpha| x^delta and rejects parameter sets whose density cannot
    integrate to one, or whose closed-form normalizing constant or (below
    alpha = 1) support end does not fit in a double.
    """

    alpha: float
    gamma: float = 0.0
    delta: float = 1.0
    a: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be a finite number, got {getattr(self, f.name)}")
        for name in ("delta", "a", "eta"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        p = (self.gamma + 1) / self.delta
        if not (p > 0):
            raise DomainError(
                f"(gamma+1)/delta must be > 0 for integrability at 0, "
                f"got gamma={self.gamma}, delta={self.delta}"
            )
        row = _REGIMES[(self.alpha > 1) - (self.alpha < 1)]
        regime = row(p, self.alpha, self.a, self.eta)
        if not (regime.q > 0):  # only the heavy tail can fail this
            raise DomainError(
                "density is not normalizable: for alpha > 1 the tail needs "
                f"eta/(alpha-1) > (gamma+1)/delta, got {self.eta / (self.alpha - 1)} "
                f"<= {p}"
            )
        object.__setattr__(self, "_regime", regime)
        try:  # float ** overflows; a scale that underflowed to 0 fails too
            upper, log_c = self.support_upper, self.log_norm_const
        except (ArithmeticError, ValueError):
            upper = log_c = math.inf
        if not math.isfinite(log_c) or (self.alpha < 1 and upper == math.inf):
            raise DomainError(
                f"{self}: the normalizing constant or the support end overflows a double"
            )

    def __reduce__(self):
        # the regime holds closures, so pickles carry the five scalars only
        return type(self), astuple(self)

    @property
    def support_upper(self) -> float:
        r = self._regime
        return (r.y_max / r.scale) ** (1 / self.delta)

    @property
    def log_norm_const(self) -> float:
        r = self._regime
        return math.log(self.delta) + r.p * math.log(r.scale) - r.log_shape_integral

    @property
    def norm_const(self) -> float:
        try:
            return math.exp(self.log_norm_const)
        except OverflowError:  # the density at 0 is above the double range
            return math.inf

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "PathwayParams":
        keys = [f.name for f in fields(cls)]
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise DomainError("pathway parameter JSON must be an object")
        missing = set(keys) - set(doc)
        if missing:
            raise DomainError(f"pathway parameter JSON missing keys: {sorted(missing)}")
        message = f"pathway parameters must be numbers, got {doc}"
        return cls(**{k: as_number(doc[k], message) for k in keys})


def pathway_support(params: PathwayParams) -> tuple[float, float]:
    """Support interval of the density: finite above the origin only below
    the transition value of alpha."""
    return (0.0, params.support_upper)


def _points(x) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it was a scalar; NaN is a DomainError."""
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise DomainError("x must be a number, got nan")
    return np.atleast_1d(x_arr), x_arr.ndim == 0


def pathway_pdf(params: PathwayParams, x):
    """Density at x (scalar or array); zero outside the support.

    The bracket is evaluated through log1p so the family limit alpha -> 1 is
    smooth to machine precision rather than cancelling catastrophically.
    """
    x_arr, scalar = _points(x)
    out = np.zeros_like(x_arr)
    inside = (x_arr > 0) & (x_arr < params.support_upper)
    xi = x_arr[inside]
    r = params._regime
    with np.errstate(over="ignore"):  # y = scale * x**delta is inf past the double range
        y = r.scale * xi**params.delta
    log_kernel = r.log_kernel(y)
    # there the kernel is y^-(p+q), with ln y = ln(scale) + delta ln x still finite
    far = np.isinf(y)
    log_kernel[far] = -(r.p + r.q) * (math.log(r.scale) + params.delta * np.log(xi[far]))
    out[inside] = np.exp(params.log_norm_const + params.gamma * np.log(xi) + log_kernel)
    # x == 0 carries the x^gamma prefactor: finite only for gamma >= 0
    if params.gamma <= 0:
        out[x_arr == 0] = params.norm_const if params.gamma == 0 else math.inf
    return float(out[0]) if scalar else out


def pathway_cdf(params: PathwayParams, x):
    """P(X <= x), evaluated through the regularized incomplete beta/gamma
    functions of the underlying power substitution.

    Agrees with adaptive quadrature of the pdf to well below 1e-8 (a property
    the test suite asserts); the closed form keeps million-point evaluations
    cheap for sampling and goodness-of-fit work.
    """
    x_arr, scalar = _points(x)
    out = np.zeros_like(x_arr)
    pos = x_arr > 0
    r = params._regime
    with np.errstate(over="ignore"):  # as in pathway_pdf
        out[pos] = r.cdf(np.minimum(r.scale * x_arr[pos] ** params.delta, r.y_max))
    return float(out[0]) if scalar else out


def pathway_sample(params: PathwayParams, n: int, seed: int) -> np.ndarray:
    """n inverse-CDF draws, reproducible for a given seed.

    Each draw is the exact quantile of its seeded uniform: the inverse
    incomplete beta or gamma function gives y = scale * x**delta, which is
    mapped back to x.
    """
    if n < 0:
        raise DomainError(f"sample count must be >= 0, got {n}")
    u = np.random.default_rng(seed).random(int(n))
    r = params._regime
    return (r.quantile(u) / r.scale) ** (1 / params.delta)


def tsallis_g(x: float, alpha: float) -> float:
    """The power-function statistic [1 - (1-alpha) x]^(1/(1-alpha)).

    Reduces to exp(-x) at alpha = 1; beyond the finite endpoint of the
    alpha < 1 branch the value is extended by zero, density style.
    """
    if alpha == 1:
        return math.exp(-x)
    base = 1.0 - (1.0 - alpha) * x
    if base <= 0:
        if alpha < 1:
            return 0.0
        raise DomainError(
            f"x = {x} is outside the domain of the alpha = {alpha} branch "
            f"(needs x > {-1 / (alpha - 1)})"
        )
    return base ** (1.0 / (1.0 - alpha))


@dataclass(frozen=True)
class DensityFn:
    """A density on a declared support interval with total mass one.

    ``fn`` maps arrays to densities, 0 off the support (a scalar-only callable still
    works); the entropies need it smooth inside the support.  Mass one lets their
    integrands be f^(..) - f: less cancellation, and uniform densities give 0.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    def __call__(self, x: float) -> float:
        return self.fn(x)


def uniform_density(lo: float = 0.0, hi: float = 1.0) -> DensityFn:
    if not hi > lo:
        raise DomainError(f"empty support [{lo}, {hi}]")
    h = 1.0 / (hi - lo)
    return DensityFn(lambda x: h * ((lo <= x) & (x <= hi)), (lo, hi))


def unit_exponential_density() -> DensityFn:
    return pathway_density(PathwayParams(alpha=1.0))  # e^(-x), by the gamma row


def pathway_density(params: PathwayParams) -> DensityFn:
    return DensityFn(lambda x: pathway_pdf(params, x), pathway_support(params))


def _vectorized(fn, probe: np.ndarray):
    try:
        if np.shape(fn(probe)) == probe.shape:
            return fn
    except DomainError:
        raise
    except (TypeError, ValueError):
        pass  # a function that takes scalars only
    return np.vectorize(fn, otypes=[probe.dtype])


def _entropy_integral(f: DensityFn, h: Callable) -> float:
    """integral of h(f(x)) over the support, with h(0) taken as 0, as ``integrate_halfline``
    of the majorant hypot(f, h(f)) dx/dt in t: x = lo + e^t or hi - e^t on a half line,
    sinh t on the whole line, lo + (hi - lo) / (1 + e^(-t)) with each end from its own side."""
    lo, hi = f.support
    fn = _vectorized(f.fn, max(lo, min(hi - 1, 0)) + min(1, hi - lo) * np.array([0.25, 0.5]))

    def integrand(t):  # r: x's distance from the nearer end; dx/dt = r (1 - r / (hi - lo))
        r = np.exp(t) if math.inf in (-lo, hi) else (hi - lo) / (1.0 + np.exp(np.abs(t)))
        x = np.where((lo > -math.inf) & ((t < 0) | (hi == math.inf)), lo + r, hi - r)
        if lo == -math.inf == -hi:  # the whole line: dx/dt = cosh t
            x, r = np.sinh(t), np.cosh(t)
        inside, v = (r > 0) & (np.abs(x) < math.inf), np.zeros_like(x)  # else the node counts as 0
        v[inside] = fn(np.clip(x[inside], np.nextafter(lo, hi), np.nextafter(hi, lo)))
        hv = h(v)
        norm = np.hypot(v, hv)  # f sqrt(1 + phi^2), where h(v) = v phi(v)
        log_m = np.log(norm) + np.log(r) + np.log1p(-r / (hi - lo))
        return log_m, np.where(v > 0, hv / norm, 0.0)

    return integrate_halfline(integrand)[0]


def havrda_charvat_entropy(f: DensityFn, alpha: float) -> float:
    """Alpha-generalized entropy with the binary-exponent denominator
    (integral f^alpha - 1) / (2^(1-alpha) - 1); alpha = 1 is excluded."""
    if alpha == 1:
        raise DomainError(
            "alpha = 1 is the Shannon limit; call shannon_entropy instead"
        )
    return _entropy_integral(f, lambda v: v**alpha - v) / (2.0 ** (1.0 - alpha) - 1.0)


def shannon_entropy(f: DensityFn) -> float:
    """-integral f ln f over the support (natural log)."""
    return _entropy_integral(f, lambda v: -v * np.log(v))


def mathai_entropy(f: DensityFn, alpha: float) -> float:
    """(integral f^(2-alpha) - 1) / (alpha - 1) for alpha != 1, alpha < 2."""
    if alpha == 1 or alpha >= 2:
        raise DomainError(
            f"mathai_entropy requires alpha != 1 and alpha < 2, got {alpha}"
        )
    return _entropy_integral(f, lambda v: v ** (2.0 - alpha) - v) / (alpha - 1.0)
