"""Mellin-convolution engine for products and ratios of positive variables.

Distributions are carried around as moment functions s -> E(x^(s-1)) on a
strip of analyticity.  Densities come back through numerical inversion of the
moment function along a vertical contour; the reaction-rate and Kratzel
integrals are evaluated both by direct adaptive quadrature and through the
product-convolution identity, which is the whole point of the technique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, loggamma

from .errors import ConvergenceError, DomainError

_MOMENT_NORM_TOL = 1e-12

# contour-integration knobs
_BASE_HEIGHT = 64.0
_MAX_OCTAVES = 4
_GL_ORDER = 16
_MAX_TAIL_PANELS = 240
_MIN_FREQ = 1e-6


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
    pdf_oracle: Callable[[float], float] | None = None

    def __post_init__(self):
        lo, hi = self.strip
        if not (lo < 1.0 < hi):
            raise DomainError(
                f"{self.label}: strip ({lo}, {hi}) must contain s = 1"
            )
        m1 = complex(np.asarray(self.moment_fn(np.array([1.0 + 0.0j])))[0])
        if abs(m1 - 1.0) > _MOMENT_NORM_TOL:
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
        return float(np.real(np.asarray(self.moment_fn(np.array([s + 0.0j])))[0]))

    def density(self, u: float, rel_tol: float = 1e-8) -> float:
        """Density at u recovered by Mellin inversion of the moment function."""
        return mellin_invert(
            self.moment_fn, u, default_contour(self.strip), rel_tol=rel_tol
        )


def _gamma_ratio(num: Sequence, den: Sequence):
    """exp(sum loggamma(num) - sum loggamma(den)), all in log space."""
    acc = np.zeros_like(np.asarray(num[0], dtype=complex))
    for z in num:
        acc = acc + loggamma(z)
    for z in den:
        acc = acc - loggamma(z)
    return np.exp(acc)


def _shape_values(kind: str, shape: dict, *keys: str) -> list[float]:
    """The shape parameters ``keys`` of a builtin kind as floats; a missing,
    unexpected or non-numeric parameter is a DomainError."""
    missing = [k for k in keys if k not in shape]
    unexpected = sorted(set(shape) - set(keys))
    if missing or unexpected:
        raise DomainError(
            f"{kind} takes shape parameters {list(keys)}; "
            f"missing {missing}, unexpected {unexpected}"
        )
    try:
        return [float(shape[k]) for k in keys]
    except (TypeError, ValueError):
        raise DomainError(
            f"{kind} shape parameters must be numbers, got {shape}"
        ) from None


def builtin_density(kind: str, **shape) -> MomentDensity:
    """Closed-form moment functions for the stock distribution kinds.

    kinds: ``gamma(gamma)``, ``gen_gamma(gamma, a, delta)``,
    ``type1_beta(alpha, beta)``, ``type2_beta(alpha, beta)``, ``uniform01``.
    """
    if kind == "uniform01":
        _shape_values(kind, shape)
        return MomentDensity(
            label="uniform01",
            moment_fn=lambda s: 1.0 / np.asarray(s, dtype=complex),
            strip=(0.0, math.inf),
            support=(0.0, 1.0),
            pdf_oracle=lambda x: 1.0 if 0.0 < x < 1.0 else 0.0,
        )
    if kind == "gamma":
        (g,) = _shape_values(kind, shape, "gamma")
        if g <= -1:
            raise DomainError(f"gamma kind needs shape gamma > -1, got {g}")
        lg1 = gammaln(g + 1)

        def mom(s, g=g, lg1=lg1):
            s = np.asarray(s, dtype=complex)
            return np.exp(loggamma(g + s) - lg1)

        def pdf(x, g=g, lg1=lg1):
            return math.exp(g * math.log(x) - x - lg1) if x > 0 else 0.0

        return MomentDensity("gamma", mom, (-g, math.inf), (0.0, math.inf), pdf)
    if kind == "gen_gamma":
        g, a, d = _shape_values(kind, shape, "gamma", "a", "delta")
        if g <= -1 or a <= 0 or d <= 0:
            raise DomainError(
                f"gen_gamma needs gamma > -1, a > 0, delta > 0; got {g}, {a}, {d}"
            )
        p = (g + 1) / d
        lgp = gammaln(p)
        log_a = math.log(a)

        def mom(s, g=g, d=d, lgp=lgp, log_a=log_a):
            s = np.asarray(s, dtype=complex)
            return np.exp(loggamma((g + s) / d) - lgp - (s - 1) / d * log_a)

        def pdf(x, g=g, a=a, d=d, p=p, lgp=lgp, log_a=log_a):
            if x <= 0:
                return 0.0
            return math.exp(
                math.log(d) + p * log_a + g * math.log(x) - a * x**d - lgp
            )

        return MomentDensity("gen_gamma", mom, (-g, math.inf), (0.0, math.inf), pdf)
    if kind == "type1_beta":
        al, be = _shape_values(kind, shape, "alpha", "beta")
        if al <= 0 or be <= 0:
            raise DomainError(f"type1_beta needs alpha, beta > 0; got {al}, {be}")
        log_b = gammaln(al) + gammaln(be) - gammaln(al + be)

        def mom(s, al=al, be=be):
            s = np.asarray(s, dtype=complex)
            return _gamma_ratio([al + s - 1, al + be], [al, al + be + s - 1])

        def pdf(x, al=al, be=be, log_b=log_b):
            if not 0.0 < x < 1.0:
                return 0.0
            return math.exp(
                (al - 1) * math.log(x) + (be - 1) * math.log1p(-x) - log_b
            )

        return MomentDensity("type1_beta", mom, (1 - al, math.inf), (0.0, 1.0), pdf)
    if kind == "type2_beta":
        al, be = _shape_values(kind, shape, "alpha", "beta")
        if al <= 0 or be <= 0:
            raise DomainError(f"type2_beta needs alpha, beta > 0; got {al}, {be}")
        log_b = gammaln(al) + gammaln(be) - gammaln(al + be)

        def mom(s, al=al, be=be):
            s = np.asarray(s, dtype=complex)
            return _gamma_ratio([al + s - 1, be - s + 1], [al, be])

        def pdf(x, al=al, be=be, log_b=log_b):
            if x <= 0:
                return 0.0
            return math.exp(
                (al - 1) * math.log(x) - (al + be) * math.log1p(x) - log_b
            )

        return MomentDensity(
            "type2_beta", mom, (1 - al, 1 + be), (0.0, math.inf), pdf
        )
    raise DomainError(f"unknown builtin density kind: {kind!r}")


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

    def common_strip(self) -> tuple[float, float]:
        """Real s making every transformed argument land in its own strip."""
        lo, hi = -math.inf, math.inf
        for dens, expo in self.numerator:
            flo, fhi = dens.strip
            lo = max(lo, 1 + (flo - 1) / expo)
            hi = min(hi, 1 + (fhi - 1) / expo)
        for dens, expo in self.denominator:
            flo, fhi = dens.strip
            lo = max(lo, 1 + (1 - fhi) / expo)
            hi = min(hi, 1 + (1 - flo) / expo)
        return lo, hi

    def support(self) -> tuple[float, float]:
        hi = 1.0
        for dens, expo in self.numerator:
            b = dens.support[1]
            hi *= b**expo if math.isfinite(b) else math.inf
        if self.denominator:
            hi = math.inf
        return (0.0, hi)


def structure_moment(spec: ProductSpec, s):
    """Moment of the product structure: independence turns it into a product
    of per-factor moments at transformed arguments."""
    s_is_real = not isinstance(s, complex)
    if s_is_real:
        lo, hi = spec.common_strip()
        if not (lo < s < hi):
            raise DomainError(
                f"s = {s} outside the common strip ({lo}, {hi}) of the structure"
            )
    z = np.array([complex(s)])
    out = np.ones(1, dtype=complex)
    for dens, expo in spec.numerator:
        out = out * np.asarray(dens.moment_fn(expo * (z - 1) + 1))
    for dens, expo in spec.denominator:
        out = out * np.asarray(dens.moment_fn(1 - expo * (z - 1)))
    val = complex(out[0])
    return val.real if s_is_real else val


def product_moment_density(spec: ProductSpec, label: str = "product") -> MomentDensity:
    """Wrap a product structure as a MomentDensity (density via inversion)."""

    def mom(s):
        s = np.asarray(s, dtype=complex)
        out = np.ones_like(s)
        for dens, expo in spec.numerator:
            out = out * np.asarray(dens.moment_fn(expo * (s - 1) + 1))
        for dens, expo in spec.denominator:
            out = out * np.asarray(dens.moment_fn(1 - expo * (s - 1)))
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

def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(order)
    return nodes, weights


_GL_NODES, _GL_WEIGHTS = _gl_rule(_GL_ORDER)


def _vectorize_moment(moment, c: float):
    probe = c + np.array([0.0j, 0.1j])
    try:
        if np.shape(moment(probe)) == probe.shape:
            return moment
    except DomainError:
        raise
    except (TypeError, ValueError):
        pass  # a moment function that takes scalars only
    vec = np.vectorize(lambda z: complex(moment(z)), otypes=[complex])
    return lambda s: vec(s)


def _contour_panel(
    mom, c: float, omega: float, a: float, b: float, max_chunk: float
) -> complex:
    """Gauss-Legendre integral of M(c+it) e^(-i omega t) over [a, b], split
    into equal chunks so the fixed order stays adequate.

    The phase factors into a per-chunk and a per-node exponential, so the
    complex exp runs on n_chunks + order values rather than on every node."""
    n_chunks = max(1, int(math.ceil((b - a) / max_chunk)))
    half = 0.5 * (b - a) / n_chunks
    mids = a + half * (2.0 * np.arange(n_chunks) + 1.0)
    offsets = half * _GL_NODES
    ts = (mids[:, None] + offsets[None, :]).ravel()
    phase = np.outer(np.exp(-1j * omega * mids), np.exp(-1j * omega * offsets)).ravel()
    vals = (np.asarray(mom(c + 1j * ts)) * phase).reshape(n_chunks, -1)
    return complex(half * np.sum(vals @ _GL_WEIGHTS))


def _averaged_limit(partials: list[complex]) -> tuple[complex, float]:
    """Iterated averaging of oscillating partial sums; returns the apex and
    the size of the last averaging step as the error estimate."""
    work = np.asarray(partials, dtype=complex)
    last_per_level = [work[-1]]
    while work.size > 1:
        work = 0.5 * (work[:-1] + work[1:])
        last_per_level.append(work[-1])
    if len(last_per_level) == 1:
        return last_per_level[0], abs(last_per_level[0])
    return last_per_level[-1], abs(last_per_level[-1] - last_per_level[-2])


def mellin_invert(moment, u: float, c: float, *, rel_tol: float = 1e-8) -> float:
    """Recover g(u) = (1/2 pi) * integral of E(u^(s-1)) u^(-s) along Re s = c.

    By conjugate symmetry of real-valued moments the integral collapses to
    twice the real part over t >= 0; the contour integrand is
    M(c+it) e^(-i t ln u).  Three stages: a fixed base sweep, octave doubling
    while contributions keep collapsing, and (for slowly decaying moments) a
    half-period panel sum accelerated by iterated averaging against the known
    oscillation frequency ln u.

    Raises ConvergenceError with the achieved bound when the target absolute
    error rel_tol * (1 + |g|) is out of reach.
    """
    if not u > 0:
        raise DomainError(f"mellin_invert needs u > 0, got {u}")
    mom = _vectorize_moment(moment, c)
    omega = math.log(u)
    density_scale = u**-c / math.pi  # converts contour integral to g units

    # phase resolution: keep chunks short enough for both oscillation sources
    chunk = min(2.0, math.pi / max(abs(omega), 1e-12), 1.0)
    total = _contour_panel(mom, c, omega, 0.0, _BASE_HEIGHT, chunk)

    t_cur = _BASE_HEIGHT
    prev_contrib = math.inf
    for _ in range(_MAX_OCTAVES):
        target = rel_tol * (1.0 + abs(density_scale * total.real))
        octave = _contour_panel(mom, c, omega, t_cur, 2 * t_cur, chunk)
        total += octave
        t_cur *= 2
        contrib = abs(density_scale) * abs(octave)
        env = abs(density_scale) * float(
            np.max(np.abs(np.asarray(mom(c + 1j * np.linspace(0.75 * t_cur, t_cur, 9)))))
        )
        ratio = contrib / max(prev_contrib, 1e-300)
        prev_contrib = contrib
        # fast-decay exits: either the envelope can no longer matter, or the
        # octave contributions are collapsing geometrically below the budget
        if env * t_cur < 0.05 * target and contrib < 0.1 * target:
            return density_scale * total.real
        if contrib < 0.1 * target and ratio < 0.3:
            return density_scale * total.real

    # slow decay: lean on the u-oscillation
    if abs(omega) < _MIN_FREQ:
        g = density_scale * total.real
        raise ConvergenceError(
            f"moment function decays too slowly along the contour and "
            f"|ln u| = {abs(omega):.2e} gives no usable oscillation "
            f"(achieved bound ~ {prev_contrib:.2e})",
            partial=g,
            bound=prev_contrib,
        )
    h = math.pi / abs(omega)
    running = 0.0 + 0.0j
    partials: list[complex] = []
    best, best_err = 0.0 + 0.0j, math.inf
    for k in range(_MAX_TAIL_PANELS):
        running += _contour_panel(
            mom, c, omega, t_cur + k * h, t_cur + (k + 1) * h, min(chunk * 2, h)
        )
        partials.append(running)
        if len(partials) >= 6 and k % 2 == 1:
            est, err = _averaged_limit(partials)
            err *= abs(density_scale)
            g_try = density_scale * (total + est).real
            target = rel_tol * (1.0 + abs(g_try))
            if err < best_err:
                best, best_err = est, err
            if err < 0.3 * target:
                return g_try
    g = density_scale * (total + best).real
    raise ConvergenceError(
        f"oscillatory tail failed to settle within {_MAX_TAIL_PANELS} "
        f"half-period panels (achieved bound ~ {best_err:.2e})",
        partial=g,
        bound=best_err,
    )


# ---------------------------------------------------------------------------
# improper integrals on the positive half line

def _log_integrand_max(log_f, lo_exp: float = -8.0, hi_exp: float = 8.0) -> float:
    """Abscissa of the integrand maximum, by log-grid bracketing plus a
    bounded refinement.

    Monotone integrands put the maximum at a grid edge, where splitting is
    useless; the weighted median of the grid mass is used as the split point
    instead."""
    grid = np.logspace(lo_exp, hi_exp, 161)
    vals = np.array([log_f(x) for x in grid])
    k = int(np.nanargmax(vals))
    if k in (0, len(grid) - 1):
        weights = np.exp(vals - vals[k]) * grid  # log-spaced trapezoid scale
        cum = np.cumsum(weights)
        return float(grid[int(np.searchsorted(cum, 0.5 * cum[-1]))])
    res = minimize_scalar(
        lambda x: -log_f(x), bounds=(grid[k - 1], grid[k + 1]), method="bounded"
    )
    return float(res.x) if res.success else float(grid[k])


def integrate_halfline(f, log_f=None) -> tuple[float, float]:
    """integral of f over (0, inf), split at the integrand maximum.

    Returns (value, abs_error_estimate).
    """
    if log_f is None:
        def log_f(x):
            v = f(x)
            return math.log(v) if v > 0 else -math.inf

    m = _log_integrand_max(log_f)
    left, err_l = quad(f, 0.0, m, limit=200)
    right, err_r = quad(f, m, math.inf, limit=200)
    return left + right, err_l + err_r


# ---------------------------------------------------------------------------
# reaction-rate integral

def _validate_reaction(gamma: float, a: float, b: float):
    if a < 0 or b < 0:
        raise DomainError(f"a and b must be >= 0, got a = {a}, b = {b}")
    if a == 0 and b == 0:
        raise DomainError("need a > 0 or b > 0")
    if b == 0 and gamma <= -1:
        raise DomainError(f"b = 0 requires gamma > -1, got {gamma}")
    if a == 0 and gamma >= -1:
        raise DomainError(f"a = 0 requires gamma < -1, got {gamma}")


def _reaction_mellin(gamma: float, a: float, b: float, rel_tol: float = 1e-8) -> float:
    # product structure: x1 ~ gamma(shape gamma+2, rate a), x2 with density
    # e^(-sqrt(x))/2; then g(u) = c1*c2*I(gamma, a, sqrt(u)), so evaluate the
    # inverse at u = b^2 and divide the constants back out.
    if gamma <= -2:
        raise DomainError(
            "the product-structure route needs gamma > -2 so the power part "
            f"is a probability density; got gamma = {gamma}"
        )
    log_a = math.log(a)
    lg2 = gammaln(gamma + 2)

    def mom(s):
        s = np.asarray(s, dtype=complex)
        return np.exp(
            loggamma(gamma + 1 + s) - lg2 + loggamma(2 * s) - (s - 1) * log_a
        )

    s_lo = max(0.0, -gamma - 1.0)
    g = mellin_invert(mom, b * b, s_lo + 1.0, rel_tol=rel_tol)
    return g * 2.0 * math.exp(lg2 - (gamma + 2) * log_a)


def reaction_rate(
    gamma: float, a: float, b: float, route: str = "quadrature"
) -> float:
    """I(gamma, a, b) = integral of x^gamma exp(-a x - b x^(-1/2)) over (0, inf).

    route selects direct adaptive quadrature or the Mellin product-convolution
    identity; "both" runs the two and enforces 1e-6 relative agreement.
    When a or b vanishes the Mellin route reduces to a plain gamma integral
    (there is no product structure left to convolve); the quadrature route
    always integrates.
    """
    return reaction_rate_with_error(gamma, a, b, route)[0]


def reaction_rate_with_error(
    gamma: float, a: float, b: float, route: str = "quadrature"
) -> tuple[float, float]:
    """reaction_rate plus its absolute-error estimate (for tabulation): the
    quadrature estimate, or the inversion target 1e-8 |value| on the Mellin
    route."""
    _validate_reaction(gamma, a, b)
    if route not in ("quadrature", "mellin", "both"):
        raise DomainError(f"unknown route {route!r}; use quadrature, mellin or both")
    mellin_val = None
    if route in ("mellin", "both"):
        if b == 0:
            mellin_val = math.exp(gammaln(gamma + 1) - (gamma + 1) * math.log(a))
        elif a == 0:
            # substitute t = x^(-1/2): 2 * Gamma(-2 gamma - 2) * b^(2 gamma + 2)
            mellin_val = 2.0 * math.exp(
                gammaln(-2 * gamma - 2) + (2 * gamma + 2) * math.log(b)
            )
        else:
            mellin_val = _reaction_mellin(gamma, a, b)
        if route == "mellin":
            return mellin_val, abs(mellin_val) * 1e-8
    # the reaction-rate integrand is the Kratzel one with alpha = 1, beta = 1/2
    q, err = integrate_halfline(*_kratzel_integrand(gamma, a, b, 1.0, 0.5))
    if route == "both" and abs(q - mellin_val) > 1e-6 * max(abs(q), abs(mellin_val)):
        raise ConvergenceError(
            f"reaction-rate routes disagree: quadrature {q!r} vs "
            f"mellin {mellin_val!r}",
            partial=q,
            bound=abs(q - mellin_val),
        )
    return q, err


# ---------------------------------------------------------------------------
# Kratzel integrals

def _kratzel_integrand(gamma: float, a: float, y: float, alpha: float, beta: float):
    def log_f(x):
        if x <= 0:
            return -math.inf
        out = gamma * math.log(x) - a * x**alpha
        if y:
            out -= y * x**-beta
        return out

    def f(x):
        lf = log_f(x)
        return math.exp(lf) if lf > -745.0 else 0.0

    return f, log_f


def kratzel_g1(gamma: float, a: float, y: float) -> float:
    """integral of x^gamma exp(-a x - y/x) over (0, inf)."""
    return kratzel_g1_with_error(gamma, a, y)[0]


def kratzel_g1_with_error(gamma: float, a: float, y: float) -> tuple[float, float]:
    if not a > 0:
        raise DomainError(f"a must be > 0, got {a}")
    if y < 0:
        raise DomainError(f"y must be >= 0, got {y}")
    if y == 0 and gamma <= -1:
        raise DomainError(f"y = 0 requires gamma > -1, got {gamma}")
    return integrate_halfline(*_kratzel_integrand(gamma, a, y, 1.0, 1.0))


def kratzel_g2(
    gamma: float, a: float, y: float, alpha: float = 1.0, beta: float = 1.0
) -> float:
    """integral of x^gamma exp(-a x^alpha - y x^(-beta)) over (0, inf).

    beta may be negative, in which case both exponentials decay at infinity
    and the origin needs gamma > -1.  alpha = 1, beta = 1 is the basic
    integral above; alpha = 1, beta = 1/2 is the reaction-rate integral.
    """
    return kratzel_g2_with_error(gamma, a, y, alpha, beta)[0]


def kratzel_g2_with_error(
    gamma: float, a: float, y: float, alpha: float = 1.0, beta: float = 1.0
) -> tuple[float, float]:
    if not a > 0:
        raise DomainError(f"a must be > 0, got {a}")
    if not alpha > 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    if beta == 0:
        raise DomainError("beta must be nonzero (positive or negative)")
    if y < 0:
        raise DomainError(f"y must be >= 0, got {y}")
    if (y == 0 or beta < 0) and gamma <= -1:
        raise DomainError(
            f"integrability at 0 requires gamma > -1 when y = 0 or beta < 0, "
            f"got gamma = {gamma}"
        )
    return integrate_halfline(*_kratzel_integrand(gamma, a, y, alpha, beta))


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


def _sample_skewness(values: np.ndarray) -> float:
    z = (values - values.mean()) / values.std()
    return float(np.mean(z**3))


def normality_trend(
    k_list: Sequence[int],
    shapes: tuple[float, float],
    n: int,
    seed: int,
) -> list[tuple[int, float]]:
    """Sample skewness of the standardized log-product for each factor count.

    The log of a product of independent betas is a sum of i.i.d. terms, so the
    skewness magnitude must fall as k grows; returning the whole sequence lets
    callers check that central-limit trend directly.
    """
    for k in k_list:
        if k < 2:
            raise DomainError(f"factor counts must be >= 2, got {k}")
    al, be = shapes
    if al <= 0 or be <= 0:
        raise DomainError(f"beta shapes must be positive, got {shapes}")
    rng = np.random.default_rng(seed)
    out = []
    for k in k_list:
        draws = rng.beta(al, be, size=(int(n), int(k)))
        log_v = np.sum(np.log(draws), axis=1)
        out.append((int(k), _sample_skewness(log_v)))
    return out
