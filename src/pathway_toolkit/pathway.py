"""Scalar pathway family of densities and the entropy functionals around it.

One parameter record covers three families: a finite-range power model below
the transition value, a heavy-tailed power model above it, and a stretched
gamma model exactly at it.  Under y = a|1-alpha| x^delta (a eta x^delta at the
transition) they are a type-1 beta, a type-2 beta and a gamma law (Mathai,
Linear Algebra Appl. 396, 2005).  Construction picks that law from melconv's
table, shared with the stock Mellin kinds, and checks only that its closed-form
constant and support fit a double.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import Callable

import numpy as np

from .errors import DomainError, as_number
from .melconv import _BETA1, _BETA2, _GAMMA, _power_law, integrate_halfline


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
        if self.alpha == 1:
            law = _power_law(_GAMMA, math.inf, self.a * self.eta, self.delta, self.gamma)
        else:  # the kernel exponent is eta / |1 - alpha|
            d = abs(1 - self.alpha)
            law = _power_law(_BETA1 if self.alpha < 1 else _BETA2, self.eta / d, self.a * d,
                             self.delta, self.gamma)
        if not (law.p > 0):
            raise DomainError(
                f"(gamma+1)/delta must be > 0 for integrability at 0, "
                f"got gamma={self.gamma}, delta={self.delta}"
            )
        if not (law.q > 0):  # only the heavy tail can fail this
            raise DomainError(
                "density is not normalizable: for alpha > 1 the tail needs "
                f"eta/(alpha-1) > (gamma+1)/delta, got {law.e} <= {law.p}"
            )
        object.__setattr__(self, "_law", law)
        if not math.isfinite(law.log_c) or (self.alpha < 1 and law.x_max == math.inf):
            raise DomainError(
                f"{self}: the normalizing constant or the support end overflows a double"
            )

    def __reduce__(self):
        # the law row holds closures, so pickles carry the five scalars only
        return type(self), astuple(self)

    @property
    def support_upper(self) -> float:
        return self._law.x_max

    @property
    def log_norm_const(self) -> float:
        return self._law.log_c

    @property
    def norm_const(self) -> float:
        return self._law.norm_const

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


def pathway_pdf(params: PathwayParams, x):
    """Density at x (scalar or array); zero outside the support.

    The bracket is evaluated through log1p so the family limit alpha -> 1 is
    smooth to machine precision rather than cancelling catastrophically.  At x = 0
    it is 0 for gamma > 0, the normalizing constant for gamma = 0, inf for gamma < 0.
    """
    return params._law.pdf(x)


def pathway_cdf(params: PathwayParams, x):
    """P(X <= x), evaluated through the regularized incomplete beta/gamma
    functions of the underlying power substitution.

    Agrees with adaptive quadrature of the pdf to well below 1e-8 (a property
    the test suite asserts); the closed form keeps million-point evaluations
    cheap for sampling and goodness-of-fit work.
    """
    return params._law.cdf(x)


def pathway_sample(params: PathwayParams, n: int, seed: int) -> np.ndarray:
    """n inverse-CDF draws, reproducible for a given seed.

    Each draw is the exact quantile of its seeded uniform: the inverse
    incomplete beta or gamma function gives y = scale * x**delta, which is
    mapped back to x, through logs where y leaves the double range.
    """
    if n < 0:
        raise DomainError(f"sample count must be >= 0, got {n}")
    return params._law.quantile(np.random.default_rng(seed).random(int(n)))


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
