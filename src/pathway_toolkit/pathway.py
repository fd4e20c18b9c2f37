"""Scalar pathway family of densities and the entropy functionals around it.

One parameter record covers three families: a finite-range power model below
the transition value, a heavy-tailed power model above it, and a stretched
gamma model exactly at it.  Under y = a|1-alpha| x^delta (a eta x^delta at the
transition) they are a type-1 beta, a type-2 beta and a gamma law (Mathai,
Linear Algebra Appl. 396, 2005).  Construction picks that law from melconv's
table, shared with the stock Mellin kinds, whose constructor holds the one rule
for when five numbers make a density on doubles.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import DomainError, exp_or_inf
from .melconv import (_EPS, _PowerLaw, _pathway_row, _power_law, _shape_values,
                      integrate_halfline)

_CLOSED_FORM_TOL = 1e-13  # a closed-form entropy's rounding bound, relative to its value


@dataclass(frozen=True)
class PathwayParams:
    """The five scalars of the pathway model plus derived quantities.

    ``alpha`` selects the family (below / above / exactly 1), ``gamma`` is the
    power weight at the origin, ``delta`` the power-transform exponent, ``a``
    the scale, ``eta`` the shape exponent.  Construction needs the five
    finite and delta, a, eta > 0, and looks up the law of y = a|1-alpha| x^delta,
    which rejects parameter sets whose density cannot integrate to one, or whose
    closed-form normalizing constant or (below alpha = 1) support end does not
    fit in a double.
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
        law = _power_law(*_pathway_row(self.alpha, self.a, self.eta), self.delta, self.gamma)
        object.__setattr__(self, "_law", law)

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
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise DomainError("pathway parameter JSON must be an object")
        return cls(*_shape_values("pathway", doc, *(f.name for f in fields(cls))))


def pathway_support(params: PathwayParams) -> tuple[float, float]:
    """Support interval of the density: finite above the origin only below
    the transition value of alpha."""
    return (0.0, params.support_upper)


def pathway_pdf(params: PathwayParams, x):
    """Density at x (scalar or array); zero outside the support.

    The bracket is evaluated through log1p, so the kernel does not cancel as
    alpha -> 1; nor does the constant, whose ln B(p, q) at q ~ eta/|1-alpha| is
    Stirling's series differenced term by term.  At x = 0 it is 0 for gamma > 0,
    the normalizing constant for gamma = 0, inf for gamma < 0.
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
    if not (0 <= n < math.inf and n % 1 == 0):
        raise DomainError(f"sample count must be a whole number >= 0, got {n}")
    return params._law.quantile(np.random.default_rng(seed).random(int(n)))


def tsallis_g(x: float, alpha: float) -> float:
    """The power-function statistic [1 - (1-alpha) x]^(1/(1-alpha)).

    It is the pathway kernel at a = eta = delta = 1, taken as e^(ln k(y)) from
    that kernel's law row at y = |1-alpha| x, so it reduces to exp(-x) at
    alpha = 1 and keeps its digits as alpha -> 1.  Beyond the finite endpoint
    of the alpha < 1 branch the value is extended by zero, density style; a
    value past the double range is inf.
    """
    if not (math.isfinite(x) and math.isfinite(alpha)):
        raise DomainError(f"tsallis_g needs finite x and alpha, got x = {x}, alpha = {alpha}")
    row, e, scale = _pathway_row(alpha, 1.0, 1.0)
    y = min(scale * x, row.y_max)  # the kernel is 0 from the endpoint y = y_max = 1 on
    with np.errstate(divide="ignore", invalid="ignore"):
        log_k = float(row.log_kernel(e, y))
    if math.isinf(y) and not math.isnan(log_k):  # |y| past the double range: ln(1+|y|) = ln|y|
        log_k = math.copysign(e * (math.log(scale) + math.log(abs(x))), log_k)
    if not log_k < math.inf:  # nan or +inf: the type-2 kernel where 1 + y <= 0
        raise DomainError(
            f"x = {x} is outside the domain of the alpha = {alpha} branch "
            f"(needs x > {-1 / (alpha - 1)})"
        )
    return exp_or_inf(log_k)


@dataclass(frozen=True)
class DensityFn:
    """A density on a declared support interval with total mass one.

    ``fn`` maps arrays to densities, 0 off the support (a scalar-only callable still
    works); the entropies need it smooth inside the support.  Mass one lets their
    integrands be f^(..) - f: less cancellation, and uniform densities give 0.

    ``support`` needs lo < hi, else (nan included) construction is a DomainError.  ``law``
    is the pathway law behind ``fn``, set by ``pathway_density`` only.  The entropies take
    their closed forms from it, and integrate ``fn`` where it is None or where a closed
    form's rounding would miss 1e-13 relative.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    law: _PowerLaw | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise DomainError(f"empty support [{lo}, {hi}]: a density needs lo < hi")

    def __call__(self, x: float) -> float:
        return self.fn(x)


def uniform_density(lo: float = 0.0, hi: float = 1.0) -> DensityFn:
    """1 / (hi - lo) on [lo, hi], for finite ends whose width and its reciprocal are doubles."""
    f = DensityFn(lambda x: h * ((lo <= x) & (x <= hi)), (lo, hi))  # the support rule, lo < hi
    h = 1.0 / (hi - lo)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < h < math.inf):
        raise DomainError(f"uniform_density needs finite ends with a width and density that "
                          f"fit a double, got [{lo}, {hi}]")
    return f


def unit_exponential_density() -> DensityFn:
    return pathway_density(PathwayParams(alpha=1.0))  # e^(-x), by the gamma row


def pathway_density(params: PathwayParams) -> DensityFn:
    return DensityFn(lambda x: pathway_pdf(params, x), pathway_support(params), params._law)


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
    first, last = np.nextafter(lo, hi), np.nextafter(hi, lo)  # the support's inner ends

    def integrand(t):  # r: x's distance from the nearer end; dx/dt = r (1 - r / (hi - lo))
        if lo == -math.inf == -hi:  # the whole line: dx/dt = cosh t
            x, r = np.sinh(t), np.cosh(t)
        elif math.inf in (-lo, hi):  # a half line
            r = np.exp(t)
            x = lo + r if hi == math.inf else hi - r
        else:
            r = (hi - lo) / (1.0 + np.exp(np.abs(t)))
            x = np.where(t < 0, lo + r, hi - r)
        inside, v = (r > 0) & (np.abs(x) < math.inf), np.zeros(x.shape)  # else the node counts as 0
        v[inside] = fn(np.minimum(np.maximum(x[inside], first), last))
        hv = h(v)
        norm = np.hypot(v, hv)  # f sqrt(1 + phi^2), where h(v) = v phi(v)
        log_m = np.log(norm) + np.log(r)
        if hi - lo < math.inf:  # else -r / (hi - lo) is -0, and so is its log1p
            log_m = log_m + np.log1p(-r / (hi - lo))
        return log_m, np.where(v > 0, hv / norm, 0.0)

    return integrate_halfline(integrand)[0]


def _rounds_within_tol(size: float, value: float) -> bool:
    """Whether a closed form's rounding bound, eps * size, is within 1e-13 of value, relative
    (false for nan)."""
    return _EPS * size <= _CLOSED_FORM_TOL * abs(value)


def _power_integral(f: DensityFn, s: float) -> float:
    """integral of f^(1+s) - f over the support.  For a law it is e^L - 1, L the closed-form
    log of the integral of f^(1+s), where the rounding bound of L, with eps |L / s| for the
    rounding of 1 + s, moves e^L - 1 by less than 1e-13 relative.  Else it is integrated as
    f expm1(s ln f), which keeps its digits as s -> 0 (the entropies' orders -> 1), where
    f^(1+s) - f cancels."""
    if f.law is not None:
        log_int, size = f.law.log_power_integral(s)
        if log_int < 709:  # e^L passes the double range at L = 709.8
            value = math.expm1(log_int)  # an error d in L moves it by d e^L
            if _rounds_within_tol((size + abs(log_int / s)) * math.exp(log_int), value):
                return value
    return _entropy_integral(f, lambda v: v * np.expm1(s * np.log(v)))


def havrda_charvat_entropy(f: DensityFn, alpha: float) -> float:
    """Alpha-generalized entropy with the binary-exponent denominator
    (integral f^alpha - 1) / (2^(1-alpha) - 1), for finite alpha; alpha = 1 is excluded.

    For a pathway law the integral is the closed form e^L - 1, L = alpha ln C - ln C',
    with C' the constant of f^alpha's own law; a DomainError names the integral where it
    diverges (alpha <= 0 on an unbounded support among others).  Orders near 1, where the
    rounding of L is not within 1e-13 of it (|alpha - 1| below about 7e-3 for e^-x), and
    densities without a law take the quadrature."""
    if alpha == 1:
        raise DomainError(
            "alpha = 1 is the Shannon limit; call shannon_entropy instead"
        )
    if not math.isfinite(alpha):
        raise DomainError(f"havrda_charvat_entropy requires a finite alpha, got {alpha}")
    return _power_integral(f, alpha - 1.0) / math.expm1((1.0 - alpha) * math.log(2.0))


def shannon_entropy(f: DensityFn) -> float:
    """-integral f ln f over the support (natural log).

    For a pathway law it is -ln C - gamma E ln x - E ln k(y), whose log-means are digamma
    terms of the law row's p and q; a density without a law, or a law whose terms cancel
    past 1e-13 of the sum, takes the quadrature."""
    if f.law is not None:
        value, size = f.law.shannon()
        if _rounds_within_tol(size, value):
            return value
    return _entropy_integral(f, lambda v: -v * np.log(v))


def mathai_entropy(f: DensityFn, alpha: float) -> float:
    """(integral f^(2-alpha) - 1) / (alpha - 1) for finite alpha != 1, alpha < 2.

    The integral is taken as for ``havrda_charvat_entropy``, at order 2 - alpha: in closed
    form for a pathway law, with a DomainError where it diverges, and by quadrature for
    orders near 1 and for densities without a law."""
    if alpha == 1 or not -math.inf < alpha < 2:
        raise DomainError(
            f"mathai_entropy requires a finite alpha != 1 and alpha < 2, got {alpha}"
        )
    return _power_integral(f, 1.0 - alpha) / (alpha - 1.0)
