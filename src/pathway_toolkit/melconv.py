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
from scipy.special import (betainc, betainccinv, betaincinv, betaln, gammainc,
                           gammaincinv, gammaln, loggamma)

from .errors import ConvergenceError, DomainError, as_number, exp_or_inf

_MOMENT_NORM_TOL = 1e-12

# contour-integration knobs
_BASE_HEIGHT = 64.0
_MAX_OCTAVES = 4
_GL_ORDER = 16
_MAX_TAIL_PANELS = 240
_MIN_FREQ = 1e-6
_INVERT_TOL = 1e-8  # inversion target: absolute error 1e-8 (1 + |g|)
_TAIL_GROUP_CHUNKS = 1 << 16  # tail chunks per moment call: 2^20 nodes

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
    pdf_oracle: Callable[[np.ndarray], np.ndarray] | None = None

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

    def density(self, u):
        """Density at u (a scalar or an array) recovered by Mellin inversion of
        the moment function; an array of u is one batched inversion."""
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


_BETA1 = _Law(1.0, lambda p, e: e + 1, betaln, lambda e, y: e * np.log1p(-y),
              betainc, betaincinv, _beta1_moment)
_GAMMA = _Law(math.inf, lambda p, e: math.inf, lambda p, q: gammaln(p),
              lambda e, y: -y, lambda p, q, y: gammainc(p, y),
              lambda p, q, u: gammaincinv(p, u),
              lambda p, q, z, log_w: np.exp(loggamma(z) + (log_w - gammaln(p))))
_BETA2 = _Law(math.inf, lambda p, e: e - p, betaln, lambda e, y: -e * np.log1p(y),
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
        """y = scale * x**delta at x > 0, clipped to the y_max it may round past; the mask
        where y passes the double range, and ln y = ln(scale) + delta ln x there."""
        with np.errstate(over="ignore"):
            y = self.scale * x**self.delta
        far = np.isinf(np.minimum(y, self.row.y_max, out=y))
        return y, far, math.log(self.scale) + self.delta * np.log(x[far])

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
        y, far, log_y = self._y(xi)
        with np.errstate(divide="ignore"):  # the kernel is 0 at y = y_max = 1
            log_kernel = self.row.log_kernel(self.e, y)
        log_kernel[far] = -(self.p + self.q) * log_y  # there the kernel is y^-(p+q)
        out[inside] = np.exp(self.log_c + self.gamma * np.log(xi) + log_kernel)
        if self.gamma <= 0:
            out[x_arr == 0] = self.norm_const if self.gamma == 0 else math.inf
        return float(out[0]) if scalar else out

    def cdf(self, x):
        """P(X <= x) at x (scalar or array); the power tail where y passes the double range."""
        x_arr, scalar = _points(x)
        out = np.zeros_like(x_arr)
        pos = x_arr > 0
        y, far, log_y = self._y(x_arr[pos])
        cdf = self.row.cdf(self.p, self.q, y)
        if far.any():
            cdf[far] = -np.expm1(self._log_tail() - self.q * log_y)
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


def _power_law(row: _Law, e: float, scale: float, delta: float, gamma: float) -> _PowerLaw:
    """The ``_PowerLaw`` of these five; a support end or constant past a double is inf."""
    p = (gamma + 1) / delta
    q = row.q(p, e)
    try:  # float ** overflows; a scale that underflowed to 0 fails too
        x_max = (row.y_max / scale) ** (1 / delta)
        log_c = math.log(delta) + p * math.log(scale) - row.log_integral(p, q)
    except (ArithmeticError, ValueError):
        x_max = log_c = math.inf
    return _PowerLaw(row, e, scale, delta, gamma, p, q, x_max, log_c)


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


def _contour_panel(
    mom, c: float, rate: np.ndarray, a: float, b: float, max_chunk: float, pieces: int = 1
) -> tuple[np.ndarray, float]:
    """Gauss-Legendre integrals of M(c+it) e^(rate t) over each of ``pieces``
    equal parts of [a, b], one row per part and one column per rate (rate is
    -i ln u), each part split into equal chunks so the fixed order stays
    adequate; and the envelope, the largest |M| on the nodes of the last
    quarter of the last part.

    The moment runs once on nodes shared by every rate.  The phase factors
    into a per-chunk and a per-node exponential, so the node phases and
    weights are one (chunks x order) @ (order x rates) product.  The chunk
    phases, in turn, are products of a coarse and a fine table of about
    sqrt(chunks) exponentials each, as the chunk midpoints are equally spaced."""
    n_chunks = pieces * max(1, int(math.ceil((b - a) / pieces / max_chunk)))
    half = 0.5 * (b - a) / n_chunks
    mids = a + half * (2.0 * np.arange(n_chunks) + 1.0)
    offsets = half * _GL_NODES
    vals = mom(c + 1j * (mids[:, None] + offsets).ravel()).reshape(n_chunks, -1)
    node_phase = np.exp(np.multiply.outer(offsets, rate)) * _GL_WEIGHTS[:, None]
    n_fine = math.isqrt(n_chunks - 1) + 1
    fine = np.exp(np.multiply.outer(mids[:n_fine] - mids[0], rate))
    coarse = np.exp(np.multiply.outer(mids[::n_fine], rate))
    chunk_phase = (coarse[:, None] * fine).reshape(-1, rate.size)[:n_chunks]
    parts = ((vals @ node_phase) * chunk_phase).reshape(pieces, -1, rate.size).sum(1)
    return half * parts, np.abs(vals[n_chunks - n_chunks // (4 * pieces):]).max()


def _averaged_limit(partials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterated averaging of each row's oscillating partial sums (at least
    two); returns the apexes and the sizes of the last averaging steps as the
    error estimates."""
    work = prev = partials
    while work.shape[1] > 1:
        prev, work = work[:, -1], 0.5 * (work[:, :-1] + work[:, 1:])
    return work[:, 0], np.abs(work[:, 0] - prev)


def _tail_chunks(rate: np.ndarray) -> np.ndarray:
    """Chunks per half-period tail panel, ceil(h / 2) with h = pi / |ln u|."""
    return np.ceil(0.5 * math.pi / np.abs(rate)).astype(int)


def _tail_nodes(c: float, rate: np.ndarray, t0: float):
    """The half-period panels [t0 + k h, t0 + (k+1) h] of every rate at once:
    each cut into its tail chunks, one row of Gauss-Legendre nodes per chunk,
    the rows of one rate contiguous from its entry in the returned ``starts``.
    ``panel(k)`` gives the contour nodes s of panel k, the per-node phased
    weights and the per-chunk phases with the half width folded in."""
    h = math.pi / np.abs(rate)
    n_chunks = _tail_chunks(rate)
    starts = np.cumsum(n_chunks) - n_chunks
    owner = np.repeat(np.arange(rate.size), n_chunks)
    half = (h / (2.0 * n_chunks))[owner]
    within = np.arange(owner.size) - starts[owner]
    offsets = half[:, None] * _GL_NODES
    node_w = np.exp(rate[owner, None] * offsets) * _GL_WEIGHTS

    def panel(k: int):
        mids = t0 + k * h[owner] + half * (2.0 * within + 1.0)
        s = c + 1j * (mids[:, None] + offsets).ravel()
        return s, node_w, half * np.exp(rate[owner] * mids)

    return starts, panel


def _oscillatory_tail(mom, c: float, us, rate, scale, total, t0: float) -> np.ndarray:
    """The values at ``us`` from the sum to t0, ``total``, and the half-period
    tail panels after it, summed in lockstep and accelerated by iterated
    averaging against the known oscillation; ``rate`` and ``scale`` are the
    inversion's per-u phase rate and g units.

    Each panel index is one moment call on the chunks of every u still to
    settle; np.add.reduceat gives the per-u sums, and a u leaves the nodes once
    it settles.  A u that does not settle within the panel cap raises
    ConvergenceError with its partial value and bound."""
    out, idx = np.empty(us.size), np.arange(us.size)
    partials = np.empty((us.size, _MAX_TAIL_PANELS), dtype=complex)
    running, best, best_err = np.zeros_like(total), np.zeros_like(total), np.full(us.size, math.inf)
    starts, panel = _tail_nodes(c, rate, t0)
    for k in range(_MAX_TAIL_PANELS):
        s, node_w, chunk_w = panel(k)
        chunk_sums = (mom(s).reshape(node_w.shape) * node_w).sum(1) * chunk_w
        running += np.add.reduceat(chunk_sums, starts)
        partials[:, k] = running
        if k < 5 or k % 2 == 0:
            continue
        est, err = _averaged_limit(partials[:, : k + 1])
        err *= scale
        g_try = scale * (total + est).real
        better = err < best_err
        best, best_err = np.where(better, est, best), np.where(better, err, best_err)
        done = err < 0.3 * _INVERT_TOL * (1.0 + np.abs(g_try))
        if done.any():
            out[idx[done]] = g_try[done]
            if done.all():
                return out
            idx, rate, scale, total, running, partials, best, best_err = (
                a[~done] for a in (idx, rate, scale, total, running, partials, best, best_err))
            starts, panel = _tail_nodes(c, rate, t0)
    raise ConvergenceError(
        f"oscillatory tail failed to settle within {_MAX_TAIL_PANELS} "
        f"half-period panels at u = {us[idx[0]]} (achieved bound ~ {best_err[0]:.2e})",
        partial=scale[0] * (total[0] + best[0]).real,
        bound=best_err[0],
    )


def mellin_invert(mom, u, c: float):
    """Recover g(u) = (1/2 pi) * integral of E(u^(s-1)) u^(-s) along Re s = c.

    By conjugate symmetry of real-valued moments the integral collapses to
    twice the real part over t >= 0; the contour integrand is
    M(c+it) e^(-i t ln u).  Three stages: a fixed base sweep, octave doubling
    while contributions keep collapsing, and (for slowly decaying moments) a
    half-period panel sum accelerated by iterated averaging against the known
    oscillation frequency ln u.

    u is a scalar (a float comes back) or an array (an array of its shape).
    The whole batch shares one set of base and octave nodes, with the chunk
    length set by the largest |ln u|, so the moment runs once per node; each u
    leaves at its own exit test, and those that reach the tail run it in
    lockstep, each with its own half period.

    ``mom`` maps a complex array of s on the contour to the moments there.
    Every u must be finite and > 0 (else DomainError); a u^-c past the double
    range raises ConvergenceError with bound inf, and so does a missed target:
    the absolute error 1e-8 (1 + |g|), with the achieved bound.  The error
    names the first failing u and carries its partial value and bound.
    """
    u_arr = np.asarray(u, dtype=float)
    flat = u_arr.ravel()
    ok = (flat > 0) & (flat < math.inf)
    if not ok.all():
        raise DomainError(f"mellin_invert needs finite u > 0, got {flat[~ok][0]}")
    with np.errstate(over="ignore"):
        scale = flat**-c / math.pi  # converts contour integral to g units; > 0
    if scale.max(initial=0.0) == math.inf:
        raise ConvergenceError(f"u^-c is past the double range at u = "
                               f"{flat[scale == math.inf][0]}, c = {c}", bound=math.inf)
    rate = -1j * np.log(flat)  # the contour phase is e^(rate t)
    out = np.empty(flat.size)
    shaped = (lambda a: float(a[0])) if u_arr.ndim == 0 else (lambda a: a.reshape(u_arr.shape))
    if not flat.size:
        return shaped(out)

    # phase resolution: keep chunks short enough for both oscillation sources
    chunk = min(math.pi / max(np.abs(rate).max(), 1e-12), 1.0)
    # every point runs the first octave, so it shares the base sweep's call
    (total, octave), env = _contour_panel(mom, c, rate, 0.0, 2 * _BASE_HEIGHT, chunk, 2)

    # the points still to exit: their index into u, and their own state
    idx, prev_contrib = np.arange(flat.size), np.full(flat.size, math.inf)
    t_cur = _BASE_HEIGHT
    for k in range(_MAX_OCTAVES):
        if k:
            (octave,), env = _contour_panel(mom, c, rate, t_cur, 2 * t_cur, chunk)
        budget = 0.1 * _INVERT_TOL * (1.0 + scale * np.abs(total.real))  # 0.1 target
        total = total + octave
        t_cur *= 2
        contrib = scale * np.abs(octave)
        # fast-decay exit: the octave is below the budget, and either the
        # envelope can no longer matter or the octaves collapse geometrically
        done = (contrib < budget) & ((env * t_cur * scale < 0.5 * budget) |
                                     (contrib < 0.3 * prev_contrib))
        prev_contrib = contrib
        if done.any():
            out[idx[done]] = scale[done] * total[done].real
            if done.all():
                return shaped(out)
            idx, rate, scale, total, prev_contrib = (
                a[~done] for a in (idx, rate, scale, total, prev_contrib))

    # slow decay: lean on the u-oscillation
    no_freq = np.abs(rate) < _MIN_FREQ
    if no_freq.any():
        i = int(np.argmax(no_freq))
        raise ConvergenceError(
            f"moment function decays too slowly along the contour and "
            f"|ln u| = {abs(rate[i]):.2e} at u = {flat[idx[i]]} gives no usable "
            f"oscillation (achieved bound ~ {prev_contrib[i]:.2e})",
            partial=scale[i] * total[i].real,
            bound=prev_contrib[i],
        )
    # the tail runs u by group, so that one panel index holds about
    # _TAIL_GROUP_CHUNKS chunks however many u lie close to 1
    group = np.cumsum(_tail_chunks(rate)) // _TAIL_GROUP_CHUNKS
    for g in np.split(np.arange(idx.size), np.flatnonzero(np.diff(group)) + 1):
        out[idx[g]] = _oscillatory_tail(mom, c, flat[idx[g]], rate[g], scale[g], total[g], t_cur)
    return shaped(out)


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
    if not (0 <= a < math.inf and 0 <= b < math.inf and math.isfinite(gamma)):
        raise DomainError(f"need finite a, b >= 0 and a finite gamma; got a = {a}, "
                          f"b = {b}, gamma = {gamma}")
    if a == 0 and b == 0:
        raise DomainError("need a > 0 or b > 0")
    if b == 0 and gamma <= -1:
        raise DomainError(f"b = 0 requires gamma > -1, got {gamma}")
    if a == 0 and gamma >= -1:
        raise DomainError(f"a = 0 requires gamma < -1, got {gamma}")


def _reaction_mellin(gamma: float, a: float, b: float) -> tuple[float, float]:
    # u = x1 x2, x1 of density c1 x^(gamma+1) e^(-a x) and x2 of c2 e^(-sqrt(x)), has density
    # g(u) = c1 c2 I(gamma, a, sqrt(u)), so I = g(b^2) / (c1 c2), formed in logs, with the error
    # 1e-8 (1 + |g|) in the same units.  At a = 0 or b = 0, I is 1 / c of one gamma law in x or 1/x.
    if a == 0 or b == 0:
        law = _power_law(_GAMMA, math.inf, *((a, 1.0, gamma) if b == 0 else (b, 0.5, -gamma - 2)))
        value = exp_or_inf(-law.log_c)
        return value, _INVERT_TOL * value
    if gamma <= -2:
        raise DomainError("the product-structure route needs gamma > -2 so the power part "
                          f"is a probability density; got gamma = {gamma}")
    x1 = _power_law(_GAMMA, math.inf, a, 1.0, gamma + 1)
    x2 = _power_law(_GAMMA, math.inf, 1.0, 0.5, 0.0)
    strip = max(x1.strip[0], x2.strip[0]), min(x1.strip[1], x2.strip[1])
    # a density is >= 0, and a negative g lies within its own bound
    g = max(0.0, mellin_invert(lambda s: x1.moment(s) * x2.moment(s), b * b,
                               default_contour(strip)))
    log_c = x1.log_c + x2.log_c
    value = exp_or_inf(math.log(g) - log_c) if g else 0.0
    return value, exp_or_inf(math.log(_INVERT_TOL * (1.0 + g)) - log_c)


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
    quadrature estimate, or on the Mellin route the inversion target
    1e-8 (1 + |g|) in value units, where value = g 2 Gamma(gamma+2) / a^(gamma+2)
    (1e-8 |value| for the closed forms at a = 0 or b = 0)."""
    _validate_reaction(gamma, a, b)
    if route not in ("quadrature", "mellin", "both"):
        raise DomainError(f"unknown route {route!r}; use quadrature, mellin or both")
    if route == "mellin":
        return _reaction_mellin(gamma, a, b)
    mellin_val = _reaction_mellin(gamma, a, b)[0] if route == "both" else None
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
    finite = all(map(math.isfinite, (gamma, a, y, alpha, beta)))
    if not (finite and a > 0 and alpha > 0 and beta != 0 and y >= 0):
        raise DomainError("the Kratzel integral needs finite parameters with a > 0, "
                          f"alpha > 0, beta != 0 and y >= 0; got gamma = {gamma}, "
                          f"a = {a}, alpha = {alpha}, beta = {beta}, y = {y}")
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
        if (draws == 0).any():  # its log is -inf, and the skewness not a number
            raise DomainError(f"beta({al}, {be}) gave {np.count_nonzero(draws == 0)} draws "
                              f"of exactly 0 at k = {k}; their log-product is -inf")
        log_v = np.sum(np.log(draws), axis=1)
        out.append((int(k), _sample_skewness(log_v)))
    return out
