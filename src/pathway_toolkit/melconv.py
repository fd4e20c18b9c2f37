"""Mellin-convolution engine for products and ratios of positive variables.

Distributions are carried around as moment functions s -> E(x^(s-1)) on a
strip of analyticity.  Densities come back through numerical inversion of the
moment function along a vertical contour; the reaction-rate integral comes from
both the half-line rule, which also serves the Kratzel and entropy integrals,
and the product-convolution identity, which is the whole point of the technique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import betaln, gammaln, loggamma

from .errors import ConvergenceError, DomainError, as_number

_MOMENT_NORM_TOL = 1e-12

# contour-integration knobs
_BASE_HEIGHT = 64.0
_MAX_OCTAVES = 4
_GL_ORDER = 16
_MAX_TAIL_PANELS = 240
_MIN_FREQ = 1e-6
_INVERT_TOL = 1e-8  # inversion target: absolute error 1e-8 (1 + |g|)

# half-line rule: the lowest s (e^(-s) stays finite); 81 probe offsets, 0 at 40
_HL_S_MIN = -700.0
_HL_PROBE = np.concatenate([-(2.0 ** np.arange(39, -1, -1)), [0.0], 2.0 ** np.arange(40)])


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
        m1 = complex(self.moment_fn(np.array([1.0 + 0.0j]))[0])
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
        return float(self.moment_fn(np.array([s + 0.0j]))[0].real)

    def density(self, u: float) -> float:
        """Density at u recovered by Mellin inversion of the moment function."""
        return mellin_invert(self.moment_fn, u, default_contour(self.strip))


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
    message = f"{kind} shape parameters must be numbers, got {shape}"
    return [as_number(shape[k], message) for k in keys]


class _Kind(NamedTuple):
    """One stock distribution.  ``bounds`` maps each shape key to the value
    it must exceed; the callables take the shape values after their first
    argument (a complex array s, or a real x inside the open support)."""

    bounds: dict[str, float]
    moment: Callable
    log_pdf: Callable
    strip: Callable[..., tuple[float, float]]
    support: tuple[float, float]


_BUILTINS = {
    "uniform01": _Kind(
        {}, lambda s: 1.0 / s, lambda x: 0.0, lambda: (0.0, math.inf), (0.0, 1.0)
    ),
    "gamma": _Kind(
        {"gamma": -1.0},
        lambda s, g: np.exp(loggamma(g + s) - gammaln(g + 1)),
        lambda x, g: g * math.log(x) - x - gammaln(g + 1),
        lambda g: (-g, math.inf),
        (0.0, math.inf),
    ),
    "gen_gamma": _Kind(
        {"gamma": -1.0, "a": 0.0, "delta": 0.0},
        lambda s, g, a, d: np.exp(
            loggamma((g + s) / d) - gammaln((g + 1) / d) - (s - 1) / d * math.log(a)
        ),
        lambda x, g, a, d: (
            math.log(d) + (g + 1) / d * math.log(a) + g * math.log(x) - a * x**d
            - gammaln((g + 1) / d)
        ),
        lambda g, a, d: (-g, math.inf),
        (0.0, math.inf),
    ),
    "type1_beta": _Kind(
        {"alpha": 0.0, "beta": 0.0},
        lambda s, al, be: np.exp(
            loggamma(al + s - 1) + loggamma(al + be) - loggamma(al)
            - loggamma(al + be + s - 1)
        ),
        lambda x, al, be: (
            (al - 1) * math.log(x) + (be - 1) * math.log1p(-x) - betaln(al, be)
        ),
        lambda al, be: (1 - al, math.inf),
        (0.0, 1.0),
    ),
    "type2_beta": _Kind(
        {"alpha": 0.0, "beta": 0.0},
        lambda s, al, be: np.exp(
            loggamma(al + s - 1) + loggamma(be - s + 1) - loggamma(al) - loggamma(be)
        ),
        lambda x, al, be: (
            (al - 1) * math.log(x) - (al + be) * math.log1p(x) - betaln(al, be)
        ),
        lambda al, be: (1 - al, 1 + be),
        (0.0, math.inf),
    ),
}


def builtin_density(kind: str, **shape) -> MomentDensity:
    """Closed-form moment functions for the stock distribution kinds.

    kinds: ``gamma(gamma)``, ``gen_gamma(gamma, a, delta)``,
    ``type1_beta(alpha, beta)``, ``type2_beta(alpha, beta)``, ``uniform01``.
    """
    row = _BUILTINS.get(kind)
    if row is None:
        raise DomainError(f"unknown builtin density kind: {kind!r}")
    vals = _shape_values(kind, shape, *row.bounds)
    if not all(v > bound for v, bound in zip(vals, row.bounds.values())):
        need = ", ".join(f"{k} > {bound:g}" for k, bound in row.bounds.items())
        raise DomainError(f"{kind} needs {need}; got {', '.join(map(str, vals))}")
    lo, hi = row.support

    def mom(s):
        return row.moment(np.asarray(s, dtype=complex), *vals)

    def pdf(x):
        return math.exp(row.log_pdf(x, *vals)) if lo < x < hi else 0.0

    return MomentDensity(kind, mom, row.strip(*vals), row.support, pdf)


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
    vals = (mom(c + 1j * ts) * phase).reshape(n_chunks, -1)
    return complex(half * np.sum(vals @ _GL_WEIGHTS))


def _averaged_limit(partials: list[complex]) -> tuple[complex, float]:
    """Iterated averaging of at least two oscillating partial sums; returns
    the apex and the size of the last averaging step as the error estimate."""
    work = np.asarray(partials, dtype=complex)
    last_per_level = [work[-1]]
    while work.size > 1:
        work = 0.5 * (work[:-1] + work[1:])
        last_per_level.append(work[-1])
    return last_per_level[-1], abs(last_per_level[-1] - last_per_level[-2])


def mellin_invert(mom, u: float, c: float) -> float:
    """Recover g(u) = (1/2 pi) * integral of E(u^(s-1)) u^(-s) along Re s = c.

    By conjugate symmetry of real-valued moments the integral collapses to
    twice the real part over t >= 0; the contour integrand is
    M(c+it) e^(-i t ln u).  Three stages: a fixed base sweep, octave doubling
    while contributions keep collapsing, and (for slowly decaying moments) a
    half-period panel sum accelerated by iterated averaging against the known
    oscillation frequency ln u.

    ``mom`` maps a complex array of s on the contour to the moments there.  u
    must be finite and > 0 (else DomainError); a u^-c past the double range
    raises ConvergenceError with bound inf, and so does a missed target: the
    absolute error 1e-8 (1 + |g|), with the achieved bound.
    """
    if not 0 < u < math.inf:
        raise DomainError(f"mellin_invert needs finite u > 0, got {u}")
    omega = math.log(u)
    try:
        density_scale = u**-c / math.pi  # converts contour integral to g units
    except OverflowError:
        raise ConvergenceError(f"u^-c is past the double range at u = {u}, c = {c}",
                               bound=math.inf) from None

    # phase resolution: keep chunks short enough for both oscillation sources
    chunk = min(math.pi / max(abs(omega), 1e-12), 1.0)
    total = _contour_panel(mom, c, omega, 0.0, _BASE_HEIGHT, chunk)

    t_cur = _BASE_HEIGHT
    prev_contrib = math.inf
    for _ in range(_MAX_OCTAVES):
        target = _INVERT_TOL * (1.0 + abs(density_scale * total.real))
        octave = _contour_panel(mom, c, omega, t_cur, 2 * t_cur, chunk)
        total += octave
        t_cur *= 2
        contrib = abs(density_scale) * abs(octave)
        env = abs(density_scale) * float(
            np.max(np.abs(mom(c + 1j * np.linspace(0.75 * t_cur, t_cur, 9))))
        )
        ratio = contrib / max(prev_contrib, 1e-300)
        prev_contrib = contrib
        # fast-decay exit: the octave is below the budget, and either the
        # envelope can no longer matter or the octaves collapse geometrically
        if contrib < 0.1 * target and (env * t_cur < 0.05 * target or ratio < 0.3):
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
            target = _INVERT_TOL * (1.0 + abs(g_try))
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

def integrate_halfline(integrand) -> tuple[float, float]:
    """integral over all t of exp(log_m) w, where ``integrand(t)`` gives (log_m, w)
    on an array t: the log of a positive majorant and a weight in [-1, 1].

    The trapezoid rule runs in s, where t = s - e^(-s), so the x -> 0 side
    decays double-exponentially even where log_m falls off only linearly
    (Takahasi & Mori, Publ. RIMS 9, 1974).  A probe of doubling steps is moved
    onto the peak in s and zoomed in; its points 40 below the peak bracket the
    sum.  The step is halved until the sums of majorant and integrand agree to
    1e-14 of the former or to their rounding (ulps times the size and curvature of
    log_m at the peak); the larger is the error in the returned (value, abs_error),
    and w = 0 gives exactly 0.  No such peak or agreement raises ConvergenceError.
    """

    def log_ds(s):  # nan (inf - inf far out in a tail) counts as -inf
        e = np.exp(-s)
        log_m, w = integrand(s - e)
        return np.nan_to_num(log_m + np.log1p(e), nan=-np.inf), w

    with np.errstate(all="ignore"):
        c, d = 0.0, 0.5
        for _ in range(100):  # move the probe onto the peak, then zoom in
            s = np.maximum(c + d * _HL_PROBE, _HL_S_MIN)
            v = log_ds(s)[0]
            k = int(np.argmax(v))
            if k in (0, 80) or s[k] == _HL_S_MIN:
                break
            if k != 40:
                c, d = s[k], min(s[k] - s[k - 1], s[k + 1] - s[k]) / 2
            elif v[40] - min(v[39], v[41]) > 1.0:
                d /= 16
            else:
                break
        peak, low = v[k], v < v[k] - 40.0
        if not (k == 40 and np.isfinite(peak) and low[:40].any() and low[41:].any()):
            raise ConvergenceError("half-line integrand has no finite peak "
                                   "that decays on both sides", bound=math.inf)
        rounding = 1e-15 * (1.0 + abs(peak) + abs(v[39] - 2.0 * peak + v[41]) / d**2)
        tol = max(1e-14, rounding)
        lo, hi = s[39 - np.argmax(low[39::-1])], s[41 + np.argmax(low[41:])]
        def sums(s):  # the majorant's sum + 1j * the integrand's, relative to the peak
            log_m, w = log_ds(s)
            m = np.exp(log_m - peak)
            return complex(m.sum(), (m * w).sum())
        n, h = 16, float(hi - lo) / 16  # both ends are negligible: plain sums
        total = h * sums(lo + h * np.arange(n + 1))
        for _ in range(12):
            prev, total = total, 0.5 * (total + h * sums(lo + h * (np.arange(n) + 0.5)))
            step = total - prev
            diff, h, n = max(abs(step.real), abs(step.imag)), 0.5 * h, 2 * n
            if diff <= tol * total.real:
                break
        scale = np.exp(peak)
        value, err = float(scale * total.imag), float(scale * max(diff, rounding * total.real))
    if not diff <= tol * total.real:  # nan (an infinite node) fails too
        raise ConvergenceError(f"half-line trapezoid sums still differ by "
                               f"{err:.1e} at {n} nodes", partial=value, bound=err)
    return value, err


# ---------------------------------------------------------------------------
# reaction-rate integral

def _validate_reaction(gamma: float, a: float, b: float):
    if not (a >= 0 and b >= 0) or math.isnan(gamma):
        raise DomainError(f"need a, b >= 0 and a number gamma; got a = {a}, b = {b}, "
                          f"gamma = {gamma}")
    if a == 0 and b == 0:
        raise DomainError("need a > 0 or b > 0")
    if b == 0 and gamma <= -1:
        raise DomainError(f"b = 0 requires gamma > -1, got {gamma}")
    if a == 0 and gamma >= -1:
        raise DomainError(f"a = 0 requires gamma < -1, got {gamma}")


def _reaction_mellin(gamma: float, a: float, b: float) -> float:
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
    g = mellin_invert(mom, b * b, s_lo + 1.0)
    return g * 2.0 * math.exp(lg2 - (gamma + 2) * log_a)


def reaction_rate(
    gamma: float, a: float, b: float, route: str = "quadrature"
) -> float:
    """I(gamma, a, b) = integral of x^gamma exp(-a x - b x^(-1/2)) over (0, inf).

    route selects the half-line trapezoid rule (``integrate_halfline``) or the
    Mellin product-convolution identity; "both" runs the two and enforces 1e-6
    relative agreement.  When a or b vanishes the Mellin route reduces to a
    plain gamma integral; the quadrature route always integrates.
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
        if a == 0 or b == 0:  # Gamma(p) / (alpha s^p), in 1/x when a = 0
            g, s, alpha = (gamma, a, 1.0) if b == 0 else (-gamma - 2, b, 0.5)
            p = (g + 1) / alpha
            mellin_val = math.exp(gammaln(p) - p * math.log(s)) / alpha
        else:
            mellin_val = _reaction_mellin(gamma, a, b)
        if route == "mellin":
            return mellin_val, abs(mellin_val) * _INVERT_TOL
    # the reaction-rate integrand is the Kratzel one with alpha = 1, beta = 1/2
    q, err = integrate_halfline(_kratzel_integrand(gamma, a, b, 1.0, 0.5))
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
    """log of x^(gamma+1) exp(-a x^alpha - y x^(-beta)) at x = e^t, weight 1; a = 0
    (reaction rate only) is rewritten in 1/x: the slow power-law side is at x -> 0."""
    if a == 0:
        return _kratzel_integrand(-gamma - 2.0, y, 0.0, beta, 1.0)

    def integrand(t):
        out = (gamma + 1.0) * t - a * np.exp(alpha * t)
        return (out - y * np.exp(-beta * t) if y else out), 1.0

    return integrand


def kratzel_g1(gamma: float, a: float, y: float) -> float:
    """integral of x^gamma exp(-a x - y/x) over (0, inf): kratzel_g2 with
    alpha = beta = 1."""
    return kratzel_g2(gamma, a, y)


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
    if not (a > 0 and alpha > 0 and beta != 0 and y >= 0):
        raise DomainError("the Kratzel integral needs a > 0, alpha > 0, beta != 0 "
                          f"and y >= 0; got a = {a}, alpha = {alpha}, beta = {beta}, "
                          f"y = {y}")
    if (y == 0 or beta < 0) and gamma <= -1:
        raise DomainError(
            f"integrability at 0 requires gamma > -1 when y = 0 or beta < 0, "
            f"got gamma = {gamma}"
        )
    return integrate_halfline(_kratzel_integrand(gamma, a, y, alpha, beta))


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
    if not (0 < al < math.inf and 0 < be < math.inf):
        raise DomainError(f"beta shapes must be positive and finite, got {shapes}")
    if n < 2:
        raise DomainError(f"a skewness needs n >= 2 draws, got {n}")
    rng = np.random.default_rng(seed)
    out = []
    for k in k_list:
        draws = rng.beta(al, be, size=(int(n), int(k)))
        log_v = np.sum(np.log(draws), axis=1)
        out.append((int(k), _sample_skewness(log_v)))
    return out
