"""Mellin-convolution engine for products and ratios of positive variables.

Distributions are carried around as moment functions s -> E(x^(s-1)) on a
strip of analyticity.  Densities come back through numerical inversion of the
moment function along a vertical contour.  The Kratzel integrals come from the
half-line rule, which also serves the entropy integrals; one of them, at
alpha = 1, beta = 1/2, is the reaction-rate integral, which also comes from the
product-convolution identity, the whole point of the technique.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import (betainc, betainccinv, betaincinv, betaln, digamma, gammainc,
                           gammaincinv, gammaln, loggamma)

from .designstats import normality_trend  # noqa: F401 -- melconv.normality_trend stays public
from .errors import ConvergenceError, DomainError, as_number, exp_or_inf

_MOMENT_NORM_TOL = 1e-12

# contour-integration knobs
_SWEEP_END = 128.0  # the shared sweep covers t in [0, 128], the tail t > 128
_GL_ORDER = 16
_TAIL_STEPS = 7  # the tail's steps h = 1, 1/2, ..., 2^-6
_TAIL_CALL_NODES = 1 << 20  # most tail nodes in one moment call
_MIN_FREQ = 1e-6  # below this |ln u| the tail takes the exp-sinh rule
_INVERT_TOL = 1e-8  # inversion target: absolute error 1e-8 (1 + |g|)

# half-line rule: the lowest s (e^(-s) stays finite); 81 probe offsets, 0 at 40
_HL_S_MIN = -700.0
_HL_PROBE = np.concatenate([-(2.0 ** np.arange(39, -1, -1)), [0.0], 2.0 ** np.arange(40)])
_HL_BLOCK = 1 << 16  # most nodes in one integrand call, rows x nodes
_HL_DROP = 40.0  # a half-line window ends this far below its peak
_HL_LEVELS = 12  # trapezoid levels after the first 16 steps: the last has 16 << 12 steps
_PEAK_NEWTON = 4  # Newton steps towards the Kratzel peak from t = 0 on every row
_PEAK_NEWTON_CAP = 64  # most steps on a row whose bound on |t - t*| is still above _PEAK_TOL
_PEAK_TOL = 1e-4
_WINDOW_NEWTON = 2  # Newton steps towards each end of a Kratzel row's window
_DBL_MAX = np.finfo(float).max
_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# moment-function distributions

@dataclass
class MomentDensity:
    """A positive-support distribution, represented by its (s-1)th moments.

    ``moment_fn`` must accept complex numpy arrays (that is what the
    inversion contour feeds it).  ``strip`` is the open interval of real s
    where the moments exist; it must contain s = 1, where the moment is the
    total probability.
    """

    label: str
    moment_fn: Callable[[np.ndarray], np.ndarray]
    strip: tuple[float, float]
    support: tuple[float, float] = (0.0, math.inf)
    pdf_oracle: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        lo, hi = self.strip
        if not (lo < 1.0 < hi):
            raise DomainError(
                f"{self.label}: strip ({lo}, {hi}) must contain s = 1"
            )
        with np.errstate(all="ignore"):
            m1 = complex(self.moment_fn(np.array([1.0 + 0.0j]))[0])
        if not abs(m1 - 1.0) <= _MOMENT_NORM_TOL:  # NaN fails too
            raise DomainError(
                f"{self.label}: moment at s = 1 is {m1!r}, not total mass 1"
            )

    def moment(self, s: float) -> float:
        """E(x^(s-1)) for real s strictly inside the strip."""
        lo, hi = self.strip
        if not (lo < s < hi):
            raise DomainError(
                f"{self.label}: s = {s} lies outside the strip ({lo}, {hi})"
            )
        return float(self.moment_fn(np.array([s + 0.0j]))[0].real)

    def density(self, u):
        """Density at u (a scalar or an array) recovered by Mellin inversion of
        the moment function; an array of u is one batched inversion."""
        return mellin_invert(self.moment_fn, u, default_contour(self.strip))


def _shape_values(kind: str, shape: dict, *keys: str) -> list[float]:
    """The shape parameters ``keys`` of a builtin kind (or the pathway record) as floats;
    a missing, unexpected or non-numeric parameter is a DomainError."""
    missing = [k for k in keys if k not in shape]
    unexpected = sorted(set(shape) - set(keys))
    if missing or unexpected:
        raise DomainError(
            f"{kind} takes shape parameters {list(keys)}; "
            f"missing {missing}, unexpected {unexpected}"
        )
    message = f"{kind} shape parameters must be numbers, got {shape}"
    return [as_number(shape[k], message) for k in keys]


def _columns(*params):
    """The parameters as flat float columns of their broadcast shape, and the map of a
    result column back to that shape: a float where the shape is a scalar's."""
    arrays = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in params))
    shape = arrays[0].shape if arrays else ()
    shaped = (lambda a: float(a[0])) if shape == () else (lambda a: a.reshape(shape))
    return [a.ravel() for a in arrays], shaped


def _first_broken(rules, **columns) -> tuple[int, DomainError | None]:
    """The first row that breaks a rule, and the DomainError of the first rule it breaks,
    as a loop over the rows would raise it (the row count and None where none does).
    ``rules`` are (mask of the rows that break it, message over the named columns)."""
    broken = np.array([mask for mask, _ in rules], dtype=bool)
    rows = broken.any(0)
    if not rows.any():
        return rows.size, None
    i = int(rows.argmax())
    message = rules[int(broken[:, i].argmax())][1]
    return i, DomainError(message.format(**{k: float(col[i]) for k, col in columns.items()}))


def _points(x) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it was a scalar; NaN is a DomainError."""
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise DomainError("x must be a number, got nan")
    return np.atleast_1d(x_arr), x_arr.ndim == 0


# ---------------------------------------------------------------------------
# the three laws of the pathway model, and the stock kinds built on them

class _Law(NamedTuple):
    """A law of y on (0, y_max), density y^(p-1) k(y) over its integral, with kernel
    k = (1-y)^e (type-1 beta), e^-y (gamma) or (1+y)^-e (type-2 beta).  The exponent e
    (q - 1, unused, p + q) is carried beside the shape q, so that neither is rounded
    through the other."""

    y_max: float
    q: Callable  # (p, e) -> q
    log_integral: Callable  # (p, q) -> ln of the integral of y^(p-1) k(y)
    log_means: Callable  # (p, q, e) -> the digamma terms that sum to E ln y and to E ln k(y)
    log_kernel: Callable  # (e, y) -> ln k(y)
    cdf: Callable  # (p, q, y)
    quantile: Callable  # (p, q, u) -> y of CDF u, inf past the double range
    moment: Callable  # (p, q, z, log_w) -> e^log_w E(y^(z-p)), z a complex array


def _beta1_moment(p, q, z, log_w):
    if q == 1:  # B(z, 1) / B(p, 1) = p / z, with no log-gamma pair per node
        return np.exp(log_w) * p / z
    return np.exp(loggamma(z) - loggamma(z + q) + (log_w + gammaln(p + q) - gammaln(p)))


def _beta2_quantile(p, q, u):
    # y = s / z, with s = y/(1+y) from the lower inverse and z = 1/(1+y) from the upper
    # one, each exact where it is small; z saturates at the least normal double
    s, z = betaincinv(p, q, u), betainccinv(q, p, u)
    return np.where(z > np.finfo(float).tiny, s / z, math.inf)


def _beta2_cdf(p, q, y):
    # I_s(p, q) at s = y/(1+y) in the body and 1 - I_(1-s)(q, p) at 1 - s = 1/(1+y) in the
    # tail, so neither end rounds s to 0 or 1 (betaincc is exact too, but 2-10 times slower)
    out = np.empty_like(y)
    body = y <= 1
    out[body] = betainc(p, q, y[body] / (1 + y[body]))
    out[~body] = 1 - betainc(q, p, 1 / (1 + y[~body]))
    return out


def _stirling_tail(z):
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2): seven terms of Stirling's series,
    within 3e-17 from z = 10 on."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w * (
        1 / 1188 - w * (691 / 360360 - w / 156)))))) / z


def _log_beta(p, q):
    """ln B(p, q) for p, q > 0.  scipy's betaln keeps only a few 1e-15 absolute at small
    shapes, about 1e-14 past 10 and eps (p + q) ln(p + q) past p + q = 171.6 (2e-9 at
    (2.5, 1e6)).  Here, with p the smaller shape, ln B = ln Gamma(p) + ln Gamma(q) -
    ln Gamma(p + q): the last two are shifted up by n to q + n >= 10 (a sum of log1p terms),
    and there are Stirling's series differenced term by term in log1p form, as is ln Gamma(p)
    from p = 10 on.  Within 5e-16 of 40-digit mpmath, relative to max(1, |ln B|), on 6000
    log-uniform draws with p and q in [1e-3, 1e8]."""
    p, q = min(p, q), max(p, q)
    if not (p > 0 and q < math.inf):
        return betaln(p, q)
    if p >= 10:
        return (0.5 * math.log(2 * math.pi / p) - p * math.log1p(q / p)
                - (q - 0.5) * math.log1p(p / q) + _stirling_tail(p) + _stirling_tail(q)
                - _stirling_tail(p + q))
    n = max(0, math.ceil(10 - q))
    terms = [math.log1p(p / (q + k)) for k in range(n)]
    q = q + n  # ln Gamma(q) - ln Gamma(p + q) = -(q + p - 1/2) log1p(p / q) - p ln q + p + ...
    return math.fsum([*terms, gammaln(p), -(q + p - 0.5) * math.log1p(p / q), -p * math.log(q), p,
                      _stirling_tail(q), -_stirling_tail(p + q)])


def _beta1_log_means(p, q, e):
    psi_pq = digamma(p + q)
    return (digamma(p), -psi_pq), (e * digamma(q), -e * psi_pq)


def _beta2_log_means(p, q, e):  # 1/(1+y) is a type-1 beta(q, p)
    psi_q = digamma(q)
    return (digamma(p), -psi_q), (-e * digamma(p + q), e * psi_q)


_BETA1 = _Law(1.0, lambda p, e: e + 1, _log_beta, _beta1_log_means, lambda e, y: e * np.log1p(-y),
              betainc, betaincinv, _beta1_moment)
_GAMMA = _Law(math.inf, lambda p, e: math.inf, lambda p, q: gammaln(p),
              lambda p, q, e: ((digamma(p),), (-p,)),
              lambda e, y: -y, lambda p, q, y: gammainc(p, y),
              lambda p, q, u: gammaincinv(p, u),
              lambda p, q, z, log_w: np.exp(loggamma(z) + (log_w - gammaln(p))))
_BETA2 = _Law(math.inf, lambda p, e: e - p, _log_beta, _beta2_log_means, lambda e, y: -e * np.log1p(y),
              _beta2_cdf, _beta2_quantile,
              lambda p, q, z, log_w: np.exp(
                  loggamma(z) + loggamma((p + q) - z) + (log_w - gammaln(p) - gammaln(q))))


class _PowerLaw(NamedTuple):
    """x = (y / scale)^(1/delta) for y from ``row`` with kernel exponent e (see ``_power_law``):
    its density is C x^gamma k(scale x^delta) on (0, x_max), with p = (gamma + 1) / delta."""

    row: _Law
    e: float
    scale: float
    delta: float
    gamma: float
    p: float
    q: float
    x_max: float
    log_c: float

    @property
    def norm_const(self) -> float:
        return exp_or_inf(self.log_c)

    def log_power_integral(self, s: float) -> tuple[float, float]:
        """ln of the integral of f^b at b = 1 + s, f this law's density, and the sum of the
        magnitudes of the terms whose correctly rounded sum it is.  f^b is C^b / C' times the
        density of this row with kernel k^b (exponent b e, or scale b scale on the gamma row),
        so the log is b ln C - ln C', taken here as s ln delta + (s / delta) ln scale
        - p' ln(scale' / scale) - b ln I + ln I', with I the row's integral, which does not
        cancel in the constants' own terms as s -> 0.  A DomainError names the integral of
        f^b where that law does not exist on doubles, b <= 0 on an unbounded row among them."""
        b = 1.0 + s
        if not b > 0 and self.row.y_max == math.inf:
            raise DomainError(f"the integral of f^{b!r} diverges on the unbounded support")
        e, scale = (self.e, b * self.scale) if self.row is _GAMMA else (b * self.e, self.scale)
        try:
            power = _power_law(self.row, e, scale, self.delta, b * self.gamma)
        except DomainError as err:
            raise DomainError(f"the integral of f^{b!r} does not exist on doubles: {err}") from None
        value, size = _sum_and_size(
            s * math.log(self.delta), s / self.delta * math.log(self.scale),
            -power.p * math.log(power.scale / self.scale),
            -b * self.row.log_integral(self.p, self.q), self.row.log_integral(power.p, power.q))
        return value, size + b + 1  # I and I' are each good to a few eps relative

    def shannon(self) -> tuple[float, float]:
        """-integral f ln f, f this law's density, and the sum of the magnitudes of the terms
        whose correctly rounded sum it is: -ln delta - ln(scale) / delta + ln I
        - (gamma / delta) E ln y - E ln k(y), with the row's digamma terms for the means."""
        w = self.gamma / self.delta
        ln_y, ln_k = self.row.log_means(self.p, self.q, self.e)
        value, size = _sum_and_size(-math.log(self.delta), -math.log(self.scale) / self.delta,
                                    self.row.log_integral(self.p, self.q),
                                    *(-w * t for t in ln_y), *(-t for t in ln_k))
        return value, size + 1  # I is good to a few eps relative

    @property
    def strip(self) -> tuple[float, float]:
        """Real s where E(x^(s-1)) exists: p + (s-1)/delta > 0, and below q for y unbounded."""
        r_max = self.q if self.row.y_max == math.inf else math.inf
        return 0.0 - self.gamma, 1 + self.delta * r_max

    def moment(self, s):
        """E(x^(s-1)) = scale^(-r) E(y^r) at r = z - p, z = (gamma + s) / delta, on a
        complex array s.  Unit steps are skipped, so the uniform law's moment is 1/s."""
        s = np.asarray(s, dtype=complex)
        z = s + self.gamma if self.gamma else s
        z = z / self.delta if self.delta != 1 else z
        log_w = (1 - s) * (math.log(self.scale) / self.delta) if self.scale != 1 else 0.0
        return self.row.moment(self.p, self.q, z, log_w)

    def _y(self, x):
        """y = scale * x**delta at x > 0, clipped to the y_max it may round past, and the
        mask where y passes the double range."""
        with np.errstate(over="ignore"):
            y = self.scale * x**self.delta
        return y, np.isinf(np.minimum(y, self.row.y_max, out=y))

    def _log_y(self, x):
        """ln y = ln(scale) + delta ln x, for the x where y passes the double range."""
        return math.log(self.scale) + self.delta * np.log(x)

    def _log_tail(self):
        """t of P(Y > y) = e^t y^-q, the type-2 beta tail, exact where y is past the double
        range: t = -ln q - ln B(p, q), and -inf for the gamma row's q = inf."""
        return -math.log(self.q) - self.row.log_integral(self.p, self.q)

    def pdf(self, x):
        """The density at x (scalar or array), 0 outside (0, x_max); at x = 0, x^gamma
        decides: 0 for gamma > 0, C k(0) = C for gamma = 0, inf for gamma < 0."""
        x_arr, scalar = _points(x)
        out = np.zeros_like(x_arr)
        inside = (x_arr > 0) & (x_arr < self.x_max)
        xi = x_arr[inside]
        y, far = self._y(xi)
        with np.errstate(divide="ignore"):  # the kernel is 0 at y = y_max = 1
            log_kernel = self.row.log_kernel(self.e, y)
        if far.any():  # there the kernel is y^-(p+q)
            log_kernel[far] = -(self.p + self.q) * self._log_y(xi[far])
        out[inside] = np.exp(self.log_c + self.gamma * np.log(xi) + log_kernel)
        if self.gamma <= 0:
            out[x_arr == 0] = self.norm_const if self.gamma == 0 else math.inf
        return float(out[0]) if scalar else out

    def cdf(self, x):
        """P(X <= x) at x (scalar or array); the power tail where y passes the double range."""
        x_arr, scalar = _points(x)
        out = np.zeros_like(x_arr)
        pos = x_arr > 0
        xp = x_arr[pos]
        y, far = self._y(xp)
        cdf = self.row.cdf(self.p, self.q, y)
        if far.any():
            cdf[far] = -np.expm1(self._log_tail() - self.q * self._log_y(xp[far]))
        out[pos] = cdf
        return float(out[0]) if scalar else out

    def quantile(self, u):
        """x of CDF u at an array u in [0, 1), through logs where x passes the double
        range, and with ln y from the power tail where y does."""
        y = self.row.quantile(self.p, self.q, u)
        with np.errstate(over="ignore"):
            x = (y / self.scale) ** (1 / self.delta)
            far = np.isinf(x)
            if far.any():
                log_y = np.log(y[far])
                tail = np.isinf(log_y)
                log_y[tail] = (self._log_tail() - np.log1p(-u[far][tail])) / self.q
                x[far] = np.exp((log_y - math.log(self.scale)) / self.delta)
        return x


def _sum_and_size(*terms) -> tuple[float, float]:
    """The correctly rounded sum of the terms and the sum of their magnitudes, by which eps
    bounds the sum's rounding; nan and inf where that is not finite."""
    size = sum(map(abs, terms))
    return (math.fsum(terms), size) if size < math.inf else (math.nan, math.inf)


def _power_law(row: _Law, e: float, scale: float, delta: float, gamma: float) -> _PowerLaw:
    """The ``_PowerLaw`` of these five.  A DomainError unless they make a density on
    doubles: p > 0, q > 0, and a constant and (for a bounded row) support end that fit."""
    p = (gamma + 1) / delta
    if not p > 0:
        raise DomainError(f"(gamma+1)/delta must be > 0 for integrability at 0, "
                          f"got gamma={gamma}, delta={delta}")
    q = row.q(p, e)
    if not q > 0:  # pathway and stock shapes fail this only in the type-2 beta tail
        raise DomainError(f"density is not normalizable: the tail needs q > 0, got q = {q} "
                          f"from kernel exponent e = {e} and p = (gamma+1)/delta = {p}")
    try:  # float ** overflows; a scale that underflowed to 0 fails too
        x_max = (row.y_max / scale) ** (1 / delta)
        log_c = math.log(delta) + p * math.log(scale) - row.log_integral(p, q)
    except (ArithmeticError, ValueError):
        x_max = log_c = math.inf
    if not math.isfinite(log_c) or (row.y_max < math.inf and x_max == math.inf):
        raise DomainError(f"the normalizing constant or the support end overflows a double at "
                          f"e = {e}, scale = {scale}, delta = {delta}, gamma = {gamma}")
    return _PowerLaw(row, e, scale, delta, gamma, p, q, x_max, log_c)


def _pathway_row(alpha: float, a: float, eta: float) -> tuple[_Law, float, float]:
    """The pathway kernel [1 - a(1-alpha) x^delta]^(eta/(1-alpha)), e^(-a eta x^delta) at
    alpha = 1, as (law row, kernel exponent e, scale) of y = scale x^delta."""
    if alpha == 1:
        return _GAMMA, math.inf, a * eta
    d = abs(1 - alpha)
    return (_BETA1 if alpha < 1 else _BETA2), eta / d, a * d


# each stock kind: the value each shape key must exceed, and its law as
# (law row, kernel exponent, scale, delta, gamma)
_BUILTINS = {
    "uniform01": ({}, lambda: (_BETA1, 0.0, 1.0, 1.0, 0.0)),
    "gamma": ({"gamma": -1.0}, lambda g: (_GAMMA, math.inf, 1.0, 1.0, g)),
    "gen_gamma": ({"gamma": -1.0, "a": 0.0, "delta": 0.0},
                  lambda g, a, d: (_GAMMA, math.inf, a, d, g)),
    "type1_beta": ({"alpha": 0.0, "beta": 0.0}, lambda al, be: (_BETA1, be - 1, 1.0, 1.0, al - 1)),
    "type2_beta": ({"alpha": 0.0, "beta": 0.0}, lambda al, be: (_BETA2, al + be, 1.0, 1.0, al - 1)),
}


def builtin_density(kind: str, **shape) -> MomentDensity:
    """Closed-form moment functions for the stock distribution kinds.

    kinds: ``gamma(gamma)``, ``gen_gamma(gamma, a, delta)``,
    ``type1_beta(alpha, beta)``, ``type2_beta(alpha, beta)``, ``uniform01``.
    Each is one of the pathway model's three laws under a power transform, and
    its ``pdf_oracle`` is that law's array pdf.
    """
    row = _BUILTINS.get(kind)
    if row is None:
        raise DomainError(f"unknown builtin density kind: {kind!r}")
    bounds, to_law = row
    vals = _shape_values(kind, shape, *bounds)
    if not all(v > bound for v, bound in zip(vals, bounds.values())):
        need = ", ".join(f"{k} > {bound:g}" for k, bound in bounds.items())
        raise DomainError(f"{kind} needs {need}; got {', '.join(map(str, vals))}")
    law = _power_law(*to_law(*vals))
    return MomentDensity(kind, law.moment, law.strip, (0.0, law.x_max), law.pdf)


# ---------------------------------------------------------------------------
# product / ratio structures

@dataclass
class ProductSpec:
    """Factors of u = prod x_i^(d_i) / prod x_j^(d_j), exponents all > 0.

    A negative power is expressed by moving its factor to the denominator.
    """

    numerator: list[tuple[MomentDensity, float]] = field(default_factory=list)
    denominator: list[tuple[MomentDensity, float]] = field(default_factory=list)

    def __post_init__(self):
        if not self.numerator and not self.denominator:
            raise DomainError("product spec needs at least one factor")
        for dens, expo in [*self.numerator, *self.denominator]:
            if not expo > 0:
                raise DomainError(
                    f"factor exponent must be > 0, got {expo} on {dens.label}"
                )

    def _signed_factors(self) -> list[tuple[MomentDensity, float]]:
        """(density, signed exponent) pairs: a denominator factor is x^(-d)."""
        return [*self.numerator, *((dens, -expo) for dens, expo in self.denominator)]

    def common_strip(self) -> tuple[float, float]:
        """Real s putting every argument 1 + e (s - 1) in its factor's strip."""
        lo, hi = -math.inf, math.inf
        for dens, e in self._signed_factors():
            flo, fhi = sorted(1 + (bound - 1) / e for bound in dens.strip)
            lo, hi = max(lo, flo), min(hi, fhi)
        return lo, hi

    def support(self) -> tuple[float, float]:
        """(0, upper end); any denominator factor makes the upper end infinite."""
        hi = 1.0
        for dens, e in self._signed_factors():
            b = dens.support[1]
            hi *= b**e if e > 0 and math.isfinite(b) else math.inf
        return (0.0, hi)


def structure_moment(spec: ProductSpec, s):
    """Moment of the product structure: independence turns it into a product
    of per-factor moments at transformed arguments.  Real s must lie in the
    common strip; complex s is taken as given."""
    dens = product_moment_density(spec)
    if isinstance(s, complex):
        return complex(dens.moment_fn(np.array([s]))[0])
    return dens.moment(s)


def product_moment_density(spec: ProductSpec, label: str = "product") -> MomentDensity:
    """Wrap a product structure as a MomentDensity (density via inversion)."""
    factors = spec._signed_factors()

    def mom(s):
        s = np.asarray(s, dtype=complex)
        out = np.ones_like(s)
        for dens, e in factors:
            out = out * dens.moment_fn(1 + e * (s - 1))
        return out

    return MomentDensity(label, mom, spec.common_strip(), spec.support())


def default_contour(strip: tuple[float, float]) -> float:
    """Contour abscissa: the strip midpoint, pushed one unit inside whichever
    edge is finite when the strip is half-infinite."""
    lo, hi = strip
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 1.0


# ---------------------------------------------------------------------------
# contour inversion

_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)

# why an inversion misses its target at a u, by the code mellin_invert keeps per u (0: it does not)
_INVERT_FAULTS = {
    1: "u^-c is past the double range at u = {u}, c = {c}",
    2: "the contour sum's rounding passes the target 1e-8 (1 + |g|) at u = {u} "
       "(achieved bound ~ {bound:.2e})",
    3: "moment function decays too slowly along the contour and |ln u| = {ln_u:.2e} at u = {u} "
       "gives no usable oscillation (achieved bound ~ {bound:.2e})",
    4: f"tail failed to settle by step h = 2^-{_TAIL_STEPS - 1} at u = {{u}} "
       "(achieved bound ~ {bound:.2e})",
}


def _contour_panel(
    mom, c: float, rate: np.ndarray, b: float, max_chunk: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Gauss-Legendre integrals of M(c+it) e^(rate t) over the two halves of
    [0, b], one row per half and one column per rate (rate is -i ln u), each
    half split into equal chunks no longer than ``max_chunk`` so the fixed
    order stays adequate; the envelope, the largest |M| on the nodes of the
    last eighth of [0, b]; and the sums of |M| |w| and |M| |w| t over all the
    nodes, which size the rounding (see ``mellin_invert``).

    The moment runs once on nodes shared by every rate.  The phase factors
    into a per-chunk and a per-node exponential, so the node phases and
    weights are one (chunks x order) @ (order x rates) product.  The chunk
    phases, in turn, are products of a coarse and a fine table of about
    sqrt(chunks) exponentials each, as the chunk midpoints are equally spaced."""
    n_chunks = 2 * max(1, int(math.ceil(b / 2 / max_chunk)))
    half = 0.5 * b / n_chunks
    mids = half * (2.0 * np.arange(n_chunks) + 1.0)
    offsets = half * _GL_NODES
    vals = mom(c + 1j * (mids[:, None] + offsets).ravel()).reshape(n_chunks, -1)
    node_phase = np.exp(np.multiply.outer(offsets, rate)) * _GL_WEIGHTS[:, None]
    n_fine = math.isqrt(n_chunks - 1) + 1
    fine = np.exp(np.multiply.outer(mids[:n_fine] - mids[0], rate))
    coarse = np.exp(np.multiply.outer(mids[::n_fine], rate))
    chunk_phase = (coarse[:, None] * fine).reshape(-1, rate.size)[:n_chunks]
    parts = ((vals @ node_phase) * chunk_phase).reshape(2, -1, rate.size).sum(1)
    mag = np.abs(vals)
    mag_w = mag @ _GL_WEIGHTS
    sums = half * np.array([mag_w.sum(), mids @ mag_w + (mag @ (offsets * _GL_WEIGHTS)).sum()])
    return half * parts, mag[n_chunks - n_chunks // 8:].max(), sums


@functools.cache
def _fourier_rule(k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Ooura & Mori's double-exponential rules at step h = 2^-k for the integrals of
    f(y) cos y and f(y) sin y over y > 0 (J. Comput. Appl. Math. 112, 1999): the nodes,
    the cosine rule's first, their weights, and the cosine rule's node count.

    The nodes are y = M phi(t), M h = pi, with
    phi(t) = t / (1 - exp(-2t - alpha (1 - e^-t) - beta (e^t - 1))), beta = 1/4 and
    alpha = beta / sqrt(1 + M ln(1 + M) / 4 pi), at t = (n - 1/2) h for the cosine and
    t = n h for the sine; a node's weight is pi phi'(t) cos y or pi phi'(t) sin y.  As t
    grows, M t is an odd multiple of pi/2 or a multiple of pi and phi(t) -> t, so the
    weights vanish double-exponentially: there cos y and sin y are both taken as
    (-1)^(n+1) sin(M (t - phi(t))).  As t falls, phi' does.  Nodes on t in [-10, 7] whose
    weight passes 1e-20 are kept."""
    m, beta = math.pi * 2**k, 0.25
    alpha = beta / math.sqrt(1 + m * math.log1p(m) / (4 * math.pi))
    n = np.arange(-10 * 2**k, 7 * 2**k + 1)
    t = np.concatenate([n - 0.5, n]) / 2**k
    with np.errstate(all="ignore"):
        g = 2 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
        q = 1 / np.expm1(g)  # E / (1 - E), E = e^-g
        p = np.exp(g) * q  # 1 / (1 - E)
        y, d = m * t * p, -m * t * q  # M phi(t), and M (t - phi(t)) = M t - y
        dphi = p * (1 - t * (2 + alpha * np.exp(-t) + beta * np.exp(t)) * q)
        direct = np.concatenate([np.cos(y[:n.size]), np.sin(y[n.size:])])
        trig = np.where(np.abs(d) < y, np.where(np.tile(n, 2) % 2, 1, -1) * np.sin(d), direct)
    # t = 0, the sine rule's n = 0: phi(0) = 1 / g'(0), phi'(0) = 1/2 - g''(0) / 2 g'(0)^2
    g1, at = 2 + alpha + beta, n.size + 10 * 2**k
    y[at], dphi[at] = m / g1, 0.5 - (beta - alpha) / (2 * g1**2)
    trig[at] = math.sin(y[at])
    w = math.pi * dphi * trig
    keep = np.abs(w) > 1e-20  # nan too (inf / inf far down the left end) is left out
    y, w = y[keep], w[keep]
    y.flags.writeable = w.flags.writeable = False  # the cache hands them to every caller
    return y, w, int(np.count_nonzero(keep[:n.size]))


@functools.cache
def _exp_sinh_rule(k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The exp-sinh rule at step h = 2^-k for the integral of f(x) over x > 0 (Takahasi &
    Mori, Publ. RIMS 9, 1974), as ``_fourier_rule``'s triple with every node in the first
    part: x = exp(pi/2 sinh t) at t = n h from -4 to 3.5 (3 at h = 1), x from about
    1e-19 to 2e11, each weighted h pi/2 cosh(t) x."""
    t = np.arange(-(4 << k), (7 << k) // 2 + 1) / 2**k
    x = np.exp(0.5 * math.pi * np.sinh(t))
    w = 0.5 * math.pi / 2**k * np.cosh(t) * x
    x.flags.writeable = w.flags.writeable = False
    return x, w, t.size


def mellin_invert(mom, u, c: float, first_fault: bool = False):
    """Recover g(u) = (1/2 pi) * integral of E(u^(s-1)) u^(-s) along Re s = c.

    By conjugate symmetry of real-valued moments the integral collapses to
    twice the real part over t >= 0; the contour integrand is
    M(c+it) e^(-i t ln u).  Two stages:
    - the batch shares one Gauss-Legendre sweep over t in [0, 128] (see
      ``_contour_panel``), with the chunk length set by the largest |ln u|, so
      the moment runs once per node; a u leaves there when the sweep's second
      half and its envelope term are both below 0.1 of its target;
    - every other u takes the tail t > 128 in steps h = 1, 1/2, ..., 2^-6, and
      leaves when two successive steps agree to 0.3 of its target; their
      difference is its truncation estimate.  The tail is Ooura & Mori's
      double-exponential rule for Fourier integrals (``_fourier_rule``), whose
      nodes, divided by |ln u|, serve every u.  Where |ln u| < 1e-6 the phase
      turns too slowly to lean on, and the tail is the exp-sinh rule
      (``_exp_sinh_rule``) to t ~ 2e11, with the phase on its nodes; its
      estimate adds t |M| / (p - 1), the rest of the contour where |M| falls on
      as the power t^-p its last two nodes fit (inf where p <= 1).  A step is
      one moment call per rule on the nodes of every u still open (at most 2^20
      nodes a call).

    u is a scalar (a float comes back) or an array (an array of its shape).
    Each row of the tail is summed on its own, so a u's value does not depend
    on the batch it is in past the sweep's shared chunk length.

    Every exit also bounds the sum's rounding: eps |u^-c| / pi times the sum
    of |M| |w| (1 + t |ln u|) over the sweep's nodes and the last tail step's,
    where the t |ln u| part is the rounding of the phase.  The sum cancels
    where |M| is large against g, as at an abscissa far from the saddle point
    of u^-s M(s) (Gil, Segura & Temme, Numerical Methods for Special
    Functions, SIAM 2007).

    ``mom`` maps a complex array of s on the contour to the moments there.
    Every u must be finite and > 0, and c finite (else DomainError).  The target is the
    absolute error 1e-8 (1 + |g|); a u that misses it raises ConvergenceError
    with its partial value and achieved bound: where u^-c is past the double
    range (bound inf), where the rounding passes the target, or where the tail
    does not settle (bound inf for the exp-sinh rule).  The error is that of
    the first such u in the flat order of u.  With ``first_fault`` nothing
    past the DomainError is raised: the result is (g, i, error), with i the
    flat index of the first failing u (u.size where none fails, error None)
    and g holding each failing u's partial value (nan where there is none).
    """
    if not math.isfinite(c):
        raise DomainError(f"mellin_invert needs a finite contour abscissa c, got {c}")
    (flat,), shaped = _columns(u)
    ok = (flat > 0) & (flat < math.inf)
    if not ok.all():
        raise DomainError(f"mellin_invert needs finite u > 0, got {flat[~ok][0]}")
    with np.errstate(over="ignore"):
        scale = flat**-c / math.pi  # converts contour integral to g units; > 0
    # per u: its value or partial, its achieved bound, and its fault code (_INVERT_FAULTS)
    out, bound = np.full(flat.size, math.nan), np.full(flat.size, math.inf)
    why = np.where(scale == math.inf, 1, 0)

    def leave(at, g, err, rounding=0.0):
        """The u at ``at`` leave with value g and bound err + rounding, faults where the
        rounding alone passes the target."""
        out[at], bound[at] = g, err + rounding
        why[at] = np.where(rounding > _INVERT_TOL * (1.0 + np.abs(g)), 2, why[at])

    # the points still to exit: their index into u, and their own state
    idx = np.flatnonzero(why == 0)
    rate, scale = -1j * np.log(flat[idx]), scale[idx]  # the contour phase is e^(rate t)
    omega = np.abs(rate)  # |ln u|
    if idx.size:
        # the sweep: chunks short enough for both oscillation sources
        chunk = min(math.pi / max(omega.max(), 1e-12), 1.0)
        (total, upper), env, sums = _contour_panel(mom, c, rate, _SWEEP_END, chunk)
        budget = 0.1 * _INVERT_TOL * (1.0 + scale * np.abs(total.real))  # 0.1 target
        total = total + upper
        contrib = scale * np.abs(upper)
        mag = sums[0] + omega * sums[1]  # per u, the sum of |M| |w| (1 + t |ln u|) so far
        done = (contrib < budget) & (env * _SWEEP_END * scale < 0.5 * budget)
        rounding = _EPS * scale[done] * mag[done]
        leave(idx[done], scale[done] * total[done].real, contrib[done], rounding)
        # the points still open, the exp-sinh rule's last: each rule's rows are a slice
        open_ = np.flatnonzero(~done)
        open_ = open_[np.argsort(omega[open_] < _MIN_FREQ, kind="stable")]
        idx, rate, scale, total, mag, omega = (
            a[open_] for a in (idx, rate, scale, total, mag, omega))

    # the tail, t = 128 + x: e^(rate 128) / |ln u| times the cosine rule's sum at
    # x = y / |ln u| minus i sgn(ln u) times the sine's, or where |ln u| < 1e-6 (the
    # phase turns too slowly to lean on) the exp-sinh rule's, with the phase on its nodes
    slow = omega < _MIN_FREQ
    div = np.where(slow, 1.0, omega)
    phase, turn = np.exp(rate * _SWEEP_END) / div, 1j * np.sign(rate.imag)
    for k in range(_TAIL_STEPS):
        if not idx.size:
            break
        tail, spent, rest = np.empty(idx.size, complex), np.empty(idx.size), np.zeros(idx.size)
        n_fast = idx.size - np.count_nonzero(slow)
        for exp_sinh, rule, lo, hi in ((False, _fourier_rule, 0, n_fast),
                                       (True, _exp_sinh_rule, n_fast, idx.size)):
            y, w, n_cos = rule(k)
            per = max(1, _TAIL_CALL_NODES // y.size)
            for b in range(lo, hi, per):  # each row summed on its own: no product across rows
                r = slice(b, min(b + per, hi))
                x = y / div[r, None]
                t = _SWEEP_END + x
                vals = mom(c + 1j * t.ravel()).reshape(t.shape)
                if exp_sinh:  # |M| past the last node, as the power t^-p the last two fit
                    (m1, m2), (t1, t2) = np.abs(vals[:, -2:]).T, t[0, -2:]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        p = np.log(m1 / m2) / math.log(t2 / t1)
                        rest[r] = np.where(m2 > 0, np.where(p > 1, t2 * m2 / (p - 1), math.inf), 0)
                    vals = vals * np.exp(rate[r, None] * x)
                tail[r] = phase[r] * ((vals[:, :n_cos] * w[:n_cos]).sum(1)
                                      + turn[r] * (vals[:, n_cos:] * w[n_cos:]).sum(1))
                mag_w = np.abs(vals) * np.abs(w)  # the sum of |M| |w| (1 + t |ln u|) dt
                spent[r] = (mag_w.sum(1) + omega[r] * (mag_w * t).sum(1)) / div[r]
        g = scale * (total + tail).real
        err = scale * (np.abs(tail - prev) + rest) if k else np.full(idx.size, math.inf)
        done = err < 0.3 * _INVERT_TOL * (1.0 + np.abs(g))
        if k == _TAIL_STEPS - 1:
            leave(idx, g, err, _EPS * scale * (mag + spent))
            stuck = ~done & (why[idx] != 2)  # rounding, where it passes the target, is why
            why[idx[stuck]] = np.where(slow[stuck], 3, 4)
            bound[idx[stuck & slow]] = math.inf  # nothing bounds the exp-sinh rule's miss
            break
        leave(idx[done], g[done], err[done], _EPS * scale[done] * (mag[done] + spent[done]))
        idx, rate, scale, total, mag, omega, slow, div, phase, turn, prev = (
            a[~done] for a in (idx, rate, scale, total, mag, omega, slow, div, phase, turn, tail))

    failing = np.flatnonzero(why)
    fault = None
    if failing.size:
        i = failing[0]
        fault = ConvergenceError(
            _INVERT_FAULTS[why[i]].format(u=flat[i], c=c, ln_u=abs(math.log(flat[i])),
                                          bound=bound[i]),
            partial=None if math.isnan(out[i]) else float(out[i]), bound=float(bound[i]))
    if first_fault:
        return shaped(out), (failing[0] if failing.size else flat.size), fault
    if fault is not None:
        raise fault
    return shaped(out)


# ---------------------------------------------------------------------------
# improper integrals on the positive half line

def integrate_halfline(integrand):
    """integral over all t of exp(log_m) w, where ``integrand(t)`` gives (log_m, w) on an
    array t of nodes: the log of a positive majorant and a weight in [-1, 1].

    The trapezoid rule runs in s, where t = s - e^(-s), so the x -> 0 side decays
    double-exponentially even where log_m falls off only linearly (Takahasi & Mori,
    Publ. RIMS 9, 1974).  A probe of doubling steps, moved onto the peak in s and zoomed in,
    finds the window: its points 40 below the peak bracket the sum, and its neighbours of
    the peak give the curvature there (``_halfline_probe``).  The trapezoid levels
    (``_halfline_levels``) then halve the step until the sums of majorant and integrand
    agree to 1e-14 of the former or to their rounding (ulps times the size and curvature of
    log_m at the peak); the larger is its error.  w = 0 gives exactly 0.

    Returns (value, abs_error) as floats.  An integral with no such peak or agreement is a
    ConvergenceError with its partial value and bound.
    """
    value, err = np.empty(1), np.empty(1)
    with np.errstate(all="ignore"):
        window = _halfline_probe(integrand)
        if window is None:
            raise ConvergenceError(
                "half-line integrand has no finite peak that decays on both sides", bound=math.inf)
        fault = _halfline_levels(integrand, (), np.zeros(1, int), *np.reshape(window, (4, 1)),
                                 value, err)[1]
    if fault is not None:
        raise fault
    return float(value[0]), float(err[0])


def _halfline_log_ds(integrand, cols, s, at):
    """(log of the majorant in s, weight) at the nodes s of the rows ``at``; +-inf counts as
    the largest double and nan (inf - inf far out in a tail) as -inf."""
    e = np.exp(-s)
    log_m, w = integrand(s - e, *(col[at, None] for col in cols))
    v = np.minimum(np.maximum(log_m + np.log1p(e), -_DBL_MAX), _DBL_MAX)
    v[np.isnan(v)] = -np.inf
    return v, w


def _halfline_probe(integrand):
    """The probe of ``integrate_halfline``: the window (peak, curvature, lo, hi) of
    ``_halfline_levels``, or None where it finds no peak that falls 40 on both sides."""
    # move onto the peak, then zoom in; the probe keeps the sweep it stops at
    c, d = 0.0, 0.5
    for _ in range(100):
        s = np.maximum(c + d * _HL_PROBE, _HL_S_MIN)
        v = _halfline_log_ds(integrand, (), s, None)[0]
        j = int(v.argmax())
        inner = j % 80 != 0 and s[j] != _HL_S_MIN  # neither end of the probe nor its floor
        if inner and j != 40:
            c, d = s[j], min(s[j] - s[j - 1], s[j + 1] - s[j]) / 2
        elif inner and v[40] - min(v[39], v[41]) > 1.0:
            d = d / 16
        else:
            break
    peak = v[40]
    low = v < peak - _HL_DROP
    left, right = 39 - low[39::-1].argmax(), 41 + low[41:].argmax()  # the first low points
    if j != 40 or not (math.isfinite(peak) and low[left] and low[right]):
        return None
    return peak, abs(v[39] - 2.0 * peak + v[41]) / (d * d), s[left], s[right]


def _halfline_levels(integrand, cols, rows, peak, curv, lo, hi, value, err):
    """The trapezoid levels of ``integrate_halfline`` on ``rows``, each in s over its window
    [lo, hi], where log_m in s peaks at ``peak`` with curvature |v''| = ``curv``: fills their
    value and err, and gives the first row whose sums still differ at the last level with
    its ConvergenceError, or (value.size, None)."""

    def sums(offsets):  # (2, rows): the sums of majorant and integrand at lo + h offsets, over e^peak
        per, parts = max(1, _HL_BLOCK // offsets.size), []
        for b in range(0, live.size, per):
            r = slice(b, b + per)
            log_m, w = _halfline_log_ds(integrand, cols, lo[r, None] + h[r, None] * offsets, live[r])
            m = np.empty((2,) + log_m.shape)
            np.multiply(np.exp(log_m - peak[r, None], out=m[0]), w, out=m[1])
            parts.append(np.add.reduce(m, -1))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, 1)

    def settle(at):  # the rows at ``at`` leave with their value and error (inf for a zero sum)
        scale = np.exp(peak[at])
        value[live[at]] = scale * total[1, at]
        bound = scale * np.maximum(diff[at], rounding[at] * total[0, at])
        err[live[at]] = np.where(total[0, at] > 0, bound, math.inf)

    live, h = rows, (hi - lo) / 16
    rounding = 1e-15 * (1.0 + np.abs(peak) + curv)
    tol = np.maximum(1e-14, rounding)
    n = 16  # both ends are negligible: plain sums
    if live.size:
        total = h * sums(np.arange(n + 1)) + 0.0  # + 0.0: a sum of zeros is +0, not -0
        for _ in range(_HL_LEVELS):
            prev, total = total, 0.5 * (total + h * sums(np.arange(0.5, n)))
            diff = np.maximum.reduce(np.abs(total - prev))
            h, n = 0.5 * h, 2 * n
            done = diff <= tol * total[0]  # nan (an infinite node) never settles
            done &= total[0] > 0  # nor does a zero sum, where every node missed the peak
            settled = np.count_nonzero(done)
            if settled == done.size:
                settle(slice(None))
                break
            if settled:
                settle(done)
                live, lo, h, peak, tol, rounding, diff = (
                    a[~done] for a in (live, lo, h, peak, tol, rounding, diff))
                total = total[:, ~done]
        else:
            settle(slice(None))
            row = live[0]
            return row, ConvergenceError(f"half-line trapezoid sums still differ by {err[row]:.1e} "
                                         f"at {n} nodes", partial=float(value[row]),
                                         bound=float(err[row]))
    return value.size, None


# ---------------------------------------------------------------------------
# reaction-rate integral: the Kratzel integral at alpha = 1, beta = 1/2

def _reaction_mellin(gamma, a, b, fault):
    """The Mellin route on valid columns: value and error columns, and the first failing row and
    its error as a loop would raise it (``fault`` at the row after the columns).  u = x1 x2, x1 of
    density c1 x^(gamma+1) e^(-x) and x2 of c2 e^(-sqrt(x)), has density g(u) = c1 c2 I(gamma, 1,
    sqrt(u)), and x = t / a gives I(gamma, a, b) = a^-(gamma+1) g(a b^2) / (c1 c2), in logs: one
    inversion per gamma.  At a = 0 or b = 0, I is 1 / c of a gamma law: Gamma(p) / (alpha a^p)
    with p = (gamma + 1) / alpha in the columns of ``_kratzel_columns``."""
    closed = (a == 0) | (b == 0)
    with np.errstate(all="ignore"):
        power, scale, _, delta, _ = _kratzel_columns(gamma, a, b, 1.0, 0.5)
        u, p = a * b**2, (power + 1.0) / delta
        log_v = gammaln(p) - p * np.log(scale)
        # where both terms are past the double range (inf - inf), Stirling's leading terms
        # p (ln p - 1 - ln scale) - ln(p / 2 pi) / 2 give the sign, and e^log_v is inf or 0
        stirling = p * (np.log(p) - 1.0 - np.log(scale)) - 0.5 * np.log(p / (2 * math.pi))
        log_v = np.where(np.isnan(log_v), stirling, log_v)
        value = np.exp(log_v - np.log(delta))
    err, live = _INVERT_TOL * value, ~closed & (0 < u) & (u < math.inf)
    faults = [(i, ConvergenceError(f"the Mellin route's u = a b^2 = {u[i]} is outside the double "
                                   f"range at gamma = {gamma[i]}, a = {a[i]}, b = {b[i]}",
                                   bound=math.inf)) for i in np.flatnonzero(~closed & ~live)[:1]]
    x2 = _power_law(_GAMMA, math.inf, 1.0, 0.5, 0.0)
    for g in np.unique(gamma[live]):
        at = np.flatnonzero(live & (gamma == g))
        x1 = _power_law(_GAMMA, math.inf, 1.0, 1.0, g + 1)
        g_u, i, exc = mellin_invert(lambda s: x1.moment(s) * x2.moment(s), u[at], default_contour(
            (max(x1.strip[0], x2.strip[0]), min(x1.strip[1], x2.strip[1]))), first_fault=True)
        log_s = -(g + 1) * np.log(a[at]) - x1.log_c - x2.log_c  # ln a^-(gamma+1) / (c1 c2)
        g_u = np.maximum(g_u, 0.0)  # a density is >= 0, and a negative g lies within its own bound
        with np.errstate(divide="ignore", over="ignore"):
            value[at], err[at] = np.exp(np.log([g_u, _INVERT_TOL * (1.0 + g_u)]) + log_s)
            if exc is not None:
                faults.append((at[i], ConvergenceError(
                    f"the Mellin route at gamma = {g}, a = {a[at[i]]}, b = {b[at[i]]} inverts g "
                    f"at u = a b^2: {exc}", partial=exc.partial and float(value[at[i]]),
                    bound=float(np.exp(np.log(exc.bound) + log_s[i])))))
        # a finite value whose estimate is not says nothing (g may have underflowed to 0)
        faults += [(j, ConvergenceError(
            f"the Mellin route at gamma = {g}, a = {a[j]}, b = {b[j]} gives {float(value[j])!r} "
            f"with an error estimate past the double range", partial=float(value[j]),
            bound=math.inf)) for j in at[np.isfinite(value[at]) & ~np.isfinite(err[at])][:1]]
    return value, err, *min(faults, key=lambda row: row[0], default=(gamma.size, fault))


def reaction_rate(gamma, a, b, route: str = "quadrature"):
    """I(gamma, a, b) = integral of x^gamma exp(-a x - b x^(-1/2)) over (0, inf), the Kratzel
    integral ``kratzel_g2(gamma, a, b, 1, 1/2)``.

    route selects the half-line trapezoid rule (``integrate_halfline``) or the Mellin
    product-convolution identity; "both" runs the two and enforces 1e-6 relative agreement.
    When a or b vanishes the Mellin route reduces to a plain gamma integral; the quadrature
    route always integrates.  The parameters may be arrays, as in ``reaction_rate_with_error``."""
    return reaction_rate_with_error(gamma, a, b, route)[0]


def reaction_rate_with_error(gamma, a, b, route: str = "quadrature"):
    """reaction_rate plus its absolute-error estimate (for tabulation): the quadrature
    estimate, or on the Mellin route the inversion target 1e-8 (1 + |g|) in value units, where
    value = g 2 Gamma(gamma+2) / a^(gamma+1) at u = a b^2 (1e-8 |value| for the closed forms).

    gamma, a and b are numbers, or arrays of one broadcast shape with a point per element:
    floats come back for numbers, else arrays of that shape.  The quadrature is one half-line
    call for all points, the Mellin route one inversion per distinct gamma, and the first
    failing point raises its error, as a loop over the points would."""
    return _kratzel(gamma, a, b, 1.0, 0.5, route)


# ---------------------------------------------------------------------------
# Kratzel integrals

def _kratzel_columns(gamma, a, y, alpha, beta):
    """The columns of ``_kratzel_integrand`` for the integral of
    x^gamma exp(-a x^alpha - y x^(-beta)); a row with a = 0 and beta > 0 is rewritten in
    1/x, as x^(-gamma-2) exp(-y x^beta): its slow power-law side is at x -> 0.  With
    beta < 0 the y term already decays at infinity, so such a row stays as it is."""
    flip = (a == 0) & (beta > 0)
    return (np.where(flip, -gamma - 2.0, gamma), np.where(flip, y, a), np.where(flip, 0.0, y),
            np.where(flip, beta, alpha), np.where(flip, 1.0, beta))


def _kratzel_integrand(t, gamma, a, y, alpha, beta):
    """log of x^(gamma+1) exp(-a x^alpha - y x^(-beta)) at x = e^t, weight 1; a row
    with y = 0 has no y term (its e^(-beta t) may be inf)."""
    tail = np.where(y == 0, 0.0, y * np.exp(-beta * t))
    return (gamma + 1.0) * t - a * np.exp(alpha * t) - tail, 1.0


def _kratzel_peak(gamma, a, y, alpha, beta):
    """The maximiser t* of phi(t) = (gamma+1) t - a e^(alpha t) - y e^(-beta t), the log of
    ``_kratzel_integrand``, on each row of its columns, after _PEAK_NEWTON Newton steps from
    t = 0, and more, up to _PEAK_NEWTON_CAP in all, on a row whose bound |G(t)|/m below is
    still above _PEAK_TOL (at large beta, where N's fall takes one step per unit of beta t).

    With P = a alpha e^(alpha t), plus y |beta| e^(|beta| t) where beta < 0, the growing part
    of -phi', and N = y beta e^(-beta t) where beta > 0, its decaying part, phi' =
    (gamma+1) + N - P has the sign of G(t) = ln(N + max(0, gamma+1)) - ln(P + max(0, -gamma-1)),
    taken in logs, so no term overflows.  G falls with a slope in [m, alpha + |beta|], m the
    smallest rate in P (alpha, or min(alpha, |beta|) where beta < 0) where gamma + 1 >= 0 and
    beta otherwise, so t* lies within |G(t)|/m of any t, on the side where G has the other
    sign, and a Newton step stays within that bound
    (Gil, Segura & Temme, Numerical Methods for Special Functions, SIAM 2007, on locating the
    peak before quadrature)."""
    g1, rate, neg = gamma + 1.0, np.abs(beta), beta < 0
    log_a, log_y = np.log(a * alpha), np.log(y * rate)
    # P's second part is the y term where beta < 0 (there gamma > -1), else max(0, -(gamma+1))
    log_q, q_rate = np.where(neg, log_y, np.log(np.maximum(-g1, 0.0))), np.where(neg, rate, 0.0)
    log_n, log_n0 = np.where(neg, -np.inf, log_y), np.log(np.maximum(g1, 0.0))
    m = np.where(g1 >= 0, np.where(neg, np.minimum(alpha, rate), alpha), beta)
    t, far = np.zeros(gamma.shape), True
    for step in range(_PEAK_NEWTON_CAP):
        ea, en = log_a + alpha * t, log_n - beta * t
        lp, ln = np.logaddexp(ea, log_q + q_rate * t), np.logaddexp(en, log_n0)
        if step >= _PEAK_NEWTON:
            far = np.abs(ln - lp) > _PEAK_TOL * m
            if not far.any():
                break
        slope = q_rate + (alpha - q_rate) * np.exp(ea - lp) + beta * np.exp(en - ln)
        t = np.where(far, t + (ln - lp) / slope, t)
    return t


def _kratzel_window(gamma, a, y, alpha, beta):
    """The half-line window of each row of the columns of ``_kratzel_integrand``, from its
    peak t* (``_kratzel_peak``) alone: (ln L, ln B, (peak, curvature, lo, hi), fine), where
    L <= integral <= B, the four are the window in s of ``_halfline_levels``, and ``fine``
    holds where the s grid can resolve the peak: its narrower side spans at least the last
    level's step and the spacing of doubles at t*'s s (false for nan).

    With p_a = a e^(alpha t*) and p_y = y e^(-beta t*), each formed in logs, phi falls from
    phi* = phi(t*) by D(x) = p_a E(alpha x) + p_y E(-beta x) at t* + x, E(z) = e^z - 1 - z
    (phi'(t*) = 0 takes out the linear term; t* after its Newton steps leaves a residue that
    moved no end by 0.01 on the fuzz domain), with no cancellation.  D is convex and 0 at 0,
    so each side has one end where D = 40: Newton steps on ln D in ln |x| go towards it from
    the quadratic model's |x| = sqrt(80 / |phi''(t*)|), kept below where a growing term alone
    passes 40 (E(z) >= e^z / 2 for z >= 1.7).  D(x) / |x| grows with |x|, so an end scaled
    by 40 / D where D < 40 lies at least 40 below phi*.  On the window phi is at least phi*
    less the larger end drop before that scaling, which gives L; beyond the ends phi lies
    below its tangents there, whose slopes are at least 40 / |x|, which gives
    B = e^phi* (width) (1 + e^-40 / 40).  Mapped to s (t = s - e^-s) the window leaves out
    the same mass as in t.  The peak is v = phi + ln(1 + e^-s) at t*'s s, with
    |v''| = |phi''(t*) (1 + e^-s)^2 - e^-s / (1 + e^-s)^2| there."""
    t = _kratzel_peak(gamma, a, y, alpha, beta)
    log_p = np.array([np.log(a) + alpha * t, np.log(y) - beta * t])  # ln 0 = -inf: no such term
    p = np.exp(log_p)
    top = (gamma + 1.0) * t - p[0] - p[1]
    curv = alpha * alpha * p[0] + beta * beta * p[1]  # -phi''(t*)
    k = np.array([[-alpha, alpha], [beta, -beta]])  # (term, side, row): z = k |x|, left then right
    log_p, p = log_p[:, None], p[:, None]

    def drop(d):  # D at |x| = d on each side, and dD/dd; E(z) >= z^2 (1/2 + z/6) where it cancels
        z = k * d
        e1 = np.where(z > 1.0, np.exp(log_p + z) - p, p * np.expm1(np.minimum(z, 1.0)))  # p (e^z - 1)
        pz = p * z
        return np.maximum(e1 - pz, pz * z * (0.5 + z / 6.0)).sum(0), (k * e1).sum(0)

    cap = np.where(k > 0, np.maximum(1.7, math.log(2.0 * _HL_DROP) - log_p) / k, math.inf).min(0)
    d = np.minimum(np.sqrt(2.0 * _HL_DROP / curv), cap)
    for _ in range(_WINDOW_NEWTON):
        fall, slope = drop(d)  # a step grows |x| at most e^2 times; D = 0 takes the e^2
        d = np.minimum(d * np.exp(np.fmin(2.0, np.log(_HL_DROP / fall) * fall / (d * slope))), cap)
    fall = drop(d)[0]
    log_l = top - fall.max(0) + np.log(d.sum(0))
    d = d * np.maximum(1.0, _HL_DROP / fall)
    log_b = top + np.log(d.sum(0)) + math.log1p(math.exp(-_HL_DROP) / _HL_DROP)
    t = np.array([t - d[0], t, t + d[1]])
    s = np.where(t > 0, t, -np.log1p(-np.minimum(t, 0.0)))
    for _ in range(3):  # Newton steps towards s - e^-s = t from below, which do not overshoot
        e = np.exp(-s)
        s = s - (s - e - t) / (1.0 + e)
    e = np.exp(-s[1])
    q = 1.0 + e
    fine = np.minimum(s[1] - s[0], s[2] - s[1]) >= np.maximum(
        (s[2] - s[0]) / (16 << _HL_LEVELS), np.spacing(np.abs(s[1])))
    return log_l, log_b, (top + np.log1p(e), np.abs(e / (q * q) - curv * q * q), s[0], s[2]), fine


def _kratzel_quadrature(gamma, a, y, alpha, beta, fault):
    """The half-line rule on valid Kratzel columns, each row over its window
    (``_kratzel_window``): value and error columns, and the first failing row and its error
    (``fault`` at the row after the columns).  A row whose bound B underflows is 0 with error
    0, one whose L overflows is inf with error inf, one whose peak the s grid cannot resolve
    (a wall at large alpha or beta) raises with bound inf, and the others take the trapezoid
    levels (``_halfline_levels``)."""
    cols = _kratzel_columns(gamma, a, y, alpha, beta)
    with np.errstate(all="ignore"):
        log_l, log_b, window, fine = _kratzel_window(*cols)
        big = np.exp(log_l) == math.inf
        value = np.where(big, math.inf, 0.0)
        err = value.copy()
        go = ~big & (np.exp(log_b) != 0.0)  # nan goes on, and is not fine
        coarse = np.flatnonzero(go & ~fine)
        end = coarse[0] if coarse.size else gamma.size
        rows = np.flatnonzero(go[:end])
        row, exc = _halfline_levels(_kratzel_integrand, cols, rows, *(w[rows] for w in window),
                                    value, err)
    if exc is None and end < gamma.size:
        row, exc = end, ConvergenceError(
            f"the half-line s grid cannot resolve the Kratzel integrand at gamma = {gamma[end]}, "
            f"a = {a[end]}, y = {y[end]}, alpha = {alpha[end]}, beta = {beta[end]}: a side of its "
            f"peak is narrower than the last trapezoid step or the spacing of doubles there",
            bound=math.inf)
    return value, err, row, exc or fault


def _validate_kratzel(gamma, a, y, alpha, beta, route):
    finite = np.logical_and.reduce([np.isfinite(col) for col in (gamma, a, y, alpha, beta)])
    return _first_broken([
        (~(finite & (a >= 0) & (alpha > 0) & (beta != 0) & (y >= 0)),
         "the Kratzel integral needs finite parameters with a >= 0, alpha > 0, beta != 0 "
         "and y >= 0; got gamma = {gamma}, a = {a}, alpha = {alpha}, beta = {beta}, y = {y}"),
        (((y == 0) | (beta < 0)) & (gamma <= -1),
         "integrability at 0 requires gamma > -1 when y = 0 or beta < 0, got gamma = {gamma}"),
        ((a == 0) & ~((y > 0) & ((beta < 0) | (gamma < -1))),
         "a = 0 needs y > 0, and gamma < -1 where beta > 0, got y = {y}, beta = {beta}, "
         "gamma = {gamma}"),
        ((route != "quadrature") & (a > 0) & (y > 0)  # the law of x1 in _reaction_mellin exists
         & ~((gamma > -2) & (gammaln(gamma + 2) < math.inf)),
         "the product-structure route needs gamma > -2 and Gamma(gamma + 2) in the double range "
         "so the power part is a probability density; got gamma = {gamma}"),
    ], gamma=gamma, a=a, y=y, alpha=alpha, beta=beta)


def _kratzel(gamma, a, y, alpha, beta, route):
    """kratzel_g2_with_error by the half-line rule ("quadrature"), by the Mellin route
    ("mellin", ``_reaction_mellin``, so at alpha = 1, beta = 1/2 alone), or by "both", which
    runs the two and enforces 1e-6 relative agreement."""
    if route not in ("quadrature", "mellin", "both"):
        raise DomainError(f"unknown route {route!r}; use quadrature, mellin or both")
    cols, shaped = _columns(gamma, a, y, alpha, beta)
    rows, fault = _validate_kratzel(*cols, route)
    cols = [col[:rows] for col in cols]
    if route != "quadrature":  # each stage runs on the rows before the first fault so far
        value, err, rows, fault = _reaction_mellin(*cols[:3], fault)
        cols, mellin = [col[:rows] for col in cols], value[:rows]
    if route != "mellin":
        value, err, rows, fault = _kratzel_quadrature(*cols, fault)
    if route == "both":
        q, m = value[:rows], mellin[:rows]
        with np.errstate(invalid="ignore"):  # inf - inf: both routes overflow, and agree
            off = np.flatnonzero(np.abs(q - m) > 1e-6 * np.maximum(np.abs(q), np.abs(m)))
        if off.size:
            q, m = float(q[off[0]]), float(m[off[0]])
            fault = ConvergenceError(f"reaction-rate routes disagree: quadrature {q!r} "
                                     f"vs mellin {m!r}", partial=q, bound=abs(q - m))
    if fault is not None:
        raise fault
    return shaped(value), shaped(err)


def kratzel_g1(gamma, a, y):
    """integral of x^gamma exp(-a x - y/x) over (0, inf): kratzel_g2 with
    alpha = beta = 1."""
    return kratzel_g2(gamma, a, y)


def kratzel_g2(gamma, a, y, alpha=1.0, beta=1.0):
    """integral of x^gamma exp(-a x^alpha - y x^(-beta)) over (0, inf).

    beta may be negative, in which case both exponentials decay at infinity
    and the origin needs gamma > -1.  a may be 0 where y > 0, and gamma < -1
    where beta > 0: the integral is then Gamma(p) / (|beta| y^p), p = (-gamma-1)/beta.
    alpha = 1, beta = 1 is the basic integral above; alpha = 1, beta = 1/2 is the
    reaction-rate integral.  The parameters may be arrays, as in
    ``kratzel_g2_with_error``.
    """
    return kratzel_g2_with_error(gamma, a, y, alpha, beta)[0]


def kratzel_g2_with_error(gamma, a, y, alpha=1.0, beta=1.0):
    """kratzel_g2 plus its absolute-error estimate.  The parameters are numbers, or
    arrays of one broadcast shape with a point per element, integrated in one
    half-line call: floats come back for numbers, else arrays of that shape, and
    the first failing point raises its error, as a loop over the points would."""
    return _kratzel(gamma, a, y, alpha, beta, "quadrature")


# ---------------------------------------------------------------------------
# random volumes: products of type-1 betas

def random_volume_dist(k: int, shapes: Sequence[tuple[float, float]]) -> MomentDensity:
    """Distribution of a product of k independent type-1 beta variables.

    ``shapes`` is either one (alpha, beta) pair used for every factor or a
    list of k pairs.  The density is available through ``.density`` (Mellin
    inversion); for k = 1 the exact beta pdf is attached as the oracle.
    """
    if k < 1:
        raise DomainError(f"need k >= 1 factors, got {k}")
    shapes = list(shapes)
    if len(shapes) == 1:
        shapes = shapes * k
    if len(shapes) != k:
        raise DomainError(f"expected 1 or {k} shape pairs, got {len(shapes)}")
    factors = [builtin_density("type1_beta", alpha=al, beta=be) for al, be in shapes]
    spec = ProductSpec(numerator=[(f, 1.0) for f in factors])
    out = product_moment_density(spec, label=f"volume_k{k}")
    if k == 1:
        out.pdf_oracle = factors[0].pdf_oracle
    return out
