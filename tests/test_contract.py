"""Contract fuzz: seeded draws over a public function's domain against 30-digit mpmath.

Each value must lie within the function's documented tolerance, or the call must raise
ConvergenceError whose ``bound`` covers |partial - truth| (a partial of None needs an
infinite bound).  The draws come from a numpy generator with a fixed seed and count, so
they do not move with the hypothesis version.  A block's domain is not trimmed, nor its
seed changed, to miss a fault: a fault it finds is mended in the code.
"""

import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from pathway_toolkit.errors import ConvergenceError, DomainError
from pathway_toolkit.melconv import (ProductSpec, builtin_density, kratzel_g2_with_error,
                                     product_moment_density)
from pathway_toolkit.pathway import (PathwayParams, havrda_charvat_entropy, mathai_entropy,
                                     pathway_density, shannon_entropy)
from pathway_toolkit.specfun import Partition, gen_pochhammer, pochhammer

# ---------------------------------------------------------------------------
# mellin_invert on two-factor products and ratios of the stock kinds

_KINDS = ["uniform01", "gamma", "gen_gamma", "type1_beta", "type2_beta"]


def _draw_factor(rng):
    """A stock kind with shapes drawn across its domain (powers of ten for the scales)."""
    kind = _KINDS[rng.integers(len(_KINDS))]
    if kind == "uniform01":
        shape = {}
    elif kind == "gamma":
        shape = {"gamma": rng.uniform(-0.95, 4.0)}
    elif kind == "gen_gamma":
        shape = {"gamma": rng.uniform(-0.95, 4.0), "a": 10 ** rng.uniform(-1, 1),
                 "delta": 10 ** rng.uniform(-0.5, 1)}
    else:
        shape = {"alpha": 10 ** rng.uniform(-0.5, 0.7), "beta": 10 ** rng.uniform(-0.5, 0.7)}
    return kind, shape, float(rng.choice([0.5, 1.0, 2.0]))


def _mp_law(kind, shape):
    """The log of the kind's density as an mpmath function of ln x, its support end and a
    typical x."""
    mp = mpmath.mpf
    if kind == "uniform01":
        return (lambda lx: mp(0)), mp(1), mp(0.5)
    if kind in ("gamma", "gen_gamma"):
        g = mp(shape["gamma"])
        a, d = (mp(shape["a"]), mp(shape["delta"])) if kind == "gen_gamma" else (mp(1), mp(1))
        p = (g + 1) / d
        log_c = mpmath.log(d) + p * mpmath.log(a) - mpmath.loggamma(p)
        return (lambda lx: log_c + g * lx - a * mpmath.exp(d * lx)), mpmath.inf, (p / a) ** (1 / d)
    al, be = mp(shape["alpha"]), mp(shape["beta"])
    log_c = -mpmath.log(mpmath.beta(al, be))
    if kind == "type1_beta":  # ln(1 - x) = ln(-expm1(ln x)), exact as x -> 1
        return ((lambda lx: log_c + (al - 1) * lx + (be - 1) * mpmath.log(-mpmath.expm1(lx))),
                mp(1), al / (al + be))
    return ((lambda lx: log_c + (al - 1) * lx - (al + be) * mpmath.log1p(mpmath.exp(lx))),
            mpmath.inf, al / be)


def _mp_power(kind, shape, e):
    """The density of v = x^e for x of the kind, its support end and a typical value.  The
    density is 0 off the open support: a node that rounds onto a singular end adds nothing."""
    log_f, end, typical = _mp_law(kind, shape)
    e = mpmath.mpf(e)
    log_end = mpmath.log(end)

    def density(v):  # f_x(x) x / (e v) at x = v^(1/e)
        lv = mpmath.log(v) if v > 0 else -mpmath.inf
        lx = lv / e
        return mpmath.exp(log_f(lx) + lx - lv) / e if -mpmath.inf < lx < log_end else 0

    return density, end**e, typical**e


def _mp_mellin_convolution(first, second, ratio, u):
    """g(u) for u = v w or v / w, v and w of the two (density, end, typical) triples:
    the integral over w of f_v(u / w) f_w(w) / w, or of f_v(u w) f_w(w) w, split at the
    typical w and at the w that puts v at its typical value.  Tanh-sinh to degree 5, whose
    error estimate must lie far below the inversion target."""
    (fv, end_v, sv), (fw, end_w, sw) = first, second
    u = mpmath.mpf(u)
    if ratio:
        lo, hi, near = mpmath.mpf(0), min(end_w, end_v / u), sv / u

        def integrand(w):
            return fv(u * w) * fw(w) * w
    else:
        lo, hi, near = u / end_v, end_w, u / sv

        def integrand(w):
            return fv(u / w) * fw(w) / w
    if not lo < hi:
        return mpmath.mpf(0)
    cuts = sorted({x for x in (sw, near) if lo < x < hi})
    value, error = mpmath.quad(integrand, [lo, *cuts, hi], error=True, maxdegree=5)
    assert error <= 1e-12 * (1 + abs(value)), f"the reference at u = {u} is only good to {error}"
    return value


_DRAWS = 10


@pytest.mark.parametrize("draw", range(_DRAWS))
def test_mellin_invert_is_within_target_or_raises_with_a_covering_bound(draw):
    rng = np.random.default_rng([20261020, draw])
    first, second = _draw_factor(rng), _draw_factor(rng)
    ratio = bool(rng.random() < 0.5)
    factors = [(builtin_density(kind, **shape), e) for kind, shape, e in (first, second)]
    spec = ProductSpec(factors[:1], factors[1:]) if ratio else ProductSpec(factors)
    dens = product_moment_density(spec)
    end = spec.support()[1]
    us = 10 ** rng.uniform(-4, math.log10(end) if end < math.inf else 4, 6)
    if end == 1.0:  # the support ends at 1: both sides of it, within 1e-4
        near = 10 ** rng.uniform(-7, -4, 3)
        us = np.concatenate([us, 1 - near[:2], 1 + near[2:]])
    with mpmath.workdps(30):
        laws = [_mp_power(kind, shape, e) for kind, shape, e in (first, second)]
        truths = [float(_mp_mellin_convolution(*laws, ratio, u)) for u in us]
    for u, truth in zip(us, truths):
        where = f"{'ratio' if ratio else 'product'} of {first} and {second} at u = {u!r}"
        try:
            g = dens.density(float(u))
        except ConvergenceError as err:
            missed = math.inf if err.partial is None else abs(err.partial - truth)
            assert missed <= err.bound, f"{where}: bound {err.bound} misses {missed}"
        else:
            assert abs(g - truth) <= 1e-8 * (1 + abs(truth)), f"{where}: {g} against {truth}"


# ---------------------------------------------------------------------------
# the three entropies of pathway laws, against the laws' closed forms in mpmath

_ENTROPY_ORDERS = (0.05, 0.5, 1.2, 1.5, 1.95)


def _draw_pathway_law(rng):
    """Five pathway parameters, a third of them at alpha = 1, that make a density."""
    while True:
        alpha = (rng.uniform(0.05, 1.0), 1.0, rng.uniform(1.0, 3.0))[rng.integers(3)]
        five = (alpha, rng.uniform(-0.95, 3.0), 10 ** rng.uniform(-0.5, 0.5),
                10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 0.5))
        try:
            return PathwayParams(*five)
        except DomainError:
            continue


def _mp_pathway_row(params, b):
    """(row, p, q, e, scale, delta) of the law of f^b for f of these five, b = 1 for f's own:
    row 1, 0 or 2 for the type-1 beta, gamma and type-2 beta; None where f^b has no finite
    integral."""
    alpha, g, d, a, eta = (mpmath.mpf(v) for v in astuple(params))
    p = (b * g + 1) / d
    if alpha == 1:
        row, e, q, scale = 0, None, None, b * a * eta
    else:
        scale, e = a * abs(1 - alpha), b * eta / abs(1 - alpha)
        row, q = (1, e + 1) if alpha < 1 else (2, e - p)
    if p <= 0 or (q is not None and q <= 0) or (b <= 0 and row != 1):
        return None
    return row, p, q, e, scale, d


def _mp_log_c(row, p, q, e, scale, d):
    log_i = mpmath.loggamma(p) if row == 0 else mpmath.log(mpmath.beta(p, q))
    return mpmath.log(d) + p * mpmath.log(scale) - log_i


def _mp_closed_entropy(params, functional, order):
    """The functional in closed form at 30 digits; None where its integral diverges."""
    with mpmath.workdps(30):
        law = _mp_pathway_row(params, mpmath.mpf(1))
        if functional == "shannon":
            row, p, q, e, scale, d = law
            psi = mpmath.digamma
            ln_y, ln_k = ((psi(p), -p) if row == 0 else
                          (psi(p) - psi(p + q), e * (psi(q) - psi(p + q))) if row == 1 else
                          (psi(p) - psi(q), -e * (psi(p + q) - psi(q))))
            g = mpmath.mpf(params.gamma)
            return -_mp_log_c(*law) - g * (ln_y - mpmath.log(scale)) / d - ln_k
        order = mpmath.mpf(order)
        b = order if functional == "havrda_charvat" else 2 - order
        power = _mp_pathway_row(params, b)
        if power is None:
            return None
        integral = mpmath.expm1(b * _mp_log_c(*law) - _mp_log_c(*power))
        if functional == "havrda_charvat":
            return integral / mpmath.expm1((1 - order) * mpmath.log(2))
        return integral / (order - 1)


_ENTROPY_DRAWS = 100


@pytest.mark.parametrize("draw", range(_ENTROPY_DRAWS))
def test_entropies_are_within_target_or_raise(draw):
    rng = np.random.default_rng([20261020, 1, draw])
    params = _draw_pathway_law(rng)
    f = pathway_density(params)
    cases = [("shannon", None)] + [(functional, order) for functional in
                                   ("havrda_charvat", "mathai") for order in _ENTROPY_ORDERS]
    for functional, order in cases:
        truth = _mp_closed_entropy(params, functional, order)
        where = f"{functional} at order {order} of {params}"
        entropy = {"shannon": lambda f, _: shannon_entropy(f),
                   "havrda_charvat": havrda_charvat_entropy, "mathai": mathai_entropy}[functional]
        if truth is None:
            with pytest.raises(DomainError, match="integral of f"):
                entropy(f, order)
            continue
        truth = float(truth)
        try:
            value = entropy(f, order)
        except ConvergenceError as err:  # the quadrature's partial and bound are the integral's
            scale = 1.0 if functional == "shannon" else (
                order - 1 if functional == "mathai" else math.expm1((1 - order) * math.log(2)))
            missed = math.inf if err.partial is None else abs(err.partial / scale - truth)
            assert missed <= err.bound / abs(scale), f"{where}: bound {err.bound} misses {missed}"
        else:
            assert abs(value - truth) <= 1e-13 * abs(truth), f"{where}: {value} against {truth}"


# ---------------------------------------------------------------------------
# pochhammer across b in [-250, 250], and near the negative integers

def _pochhammer_draws():
    """(b, k): b uniform; b a few ulps or 10^-u from -n; and b near -n for n in [160, 200)
    with k just past n, where the product passes the double range before one tiny factor
    brings it back."""
    rng = np.random.default_rng(27)

    def near(n):
        off = math.ulp(n) * int(rng.integers(1, 1000)) if rng.random() < 0.5 else (
            10.0 ** -rng.uniform(1, 15))
        return -n + float(rng.choice([-1.0, 1.0])) * off

    for _ in range(400):
        yield float(rng.uniform(-250, 250)), int(rng.integers(0, 501))
    for _ in range(400):
        n = int(rng.integers(1, 251))
        yield near(n), int(rng.integers(0, 2 * n + 60))
    for _ in range(400):
        n = int(rng.integers(160, 200))
        yield near(n), int(rng.integers(n, n + 20))


def test_pochhammer_is_within_its_tolerance():
    # 1e-12 relative, or the signed inf where (b)_k is past the double range
    dbl_max = mpmath.mpf(np.finfo(float).max)
    bad = []
    for b, k in _pochhammer_draws():
        got = pochhammer(b, k)
        with mpmath.workdps(30):
            truth = mpmath.rf(mpmath.mpf(b), k)
            if abs(truth) > dbl_max:
                ok = got == (math.inf if truth > 0 else -math.inf)
            else:
                ok = abs(mpmath.mpf(got) - truth) <= 1e-12 * abs(truth)
        if not ok:
            bad.append((b, k, got, mpmath.nstr(truth, 17)))
    assert not bad, bad[:5]


def _gen_pochhammer_draws():
    """(a, parts): a first part near where (a)_k passes the double range, beside small parts
    whose product may bring it back, or a part at a - j/2 = 0 that makes it 0."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        a = float(rng.uniform(0.05, 3.0))
        parts = [int(rng.integers(160, 180))] + [int(k) for k in rng.integers(0, 4, rng.integers(1, 4))]
        yield a, parts
    for n in range(2, 6):  # a - n/2 = 0 at part n: 0 beside an infinite first part
        yield n / 2, [300] + [1] * n


def test_gen_pochhammer_is_within_its_tolerance():
    dbl_max = mpmath.mpf(np.finfo(float).max)
    bad = []
    for a, parts in _gen_pochhammer_draws():
        got = gen_pochhammer(a, Partition(tuple(parts)))
        with mpmath.workdps(30):
            truth = mpmath.fprod(mpmath.rf(mpmath.mpf(a) - mpmath.mpf(j) / 2, k)
                                 for j, k in enumerate(parts))
            if abs(truth) > dbl_max:
                ok = got == (math.inf if truth > 0 else -math.inf)
            else:
                ok = abs(mpmath.mpf(got) - truth) <= 1e-12 * abs(truth)
        if not ok:
            bad.append((a, parts, got, mpmath.nstr(truth, 17)))
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# kratzel_g2 by the half-line rule, against 40-digit mpmath

def _mp_kratzel(gamma, a, y, alpha, beta):
    """integral over t of e^phi(t), phi = (gamma+1) t - a e^(alpha t) - y e^(-beta t) (x = e^t), at
    40 digits: tanh-sinh on panels cut at the peak (phi' bisected), at doublings of the peak's
    width out to 90 below it, and where each exponential term is 10^-3 to 10^2.  Where
    e^phi* times that window is below e^-800, that bound, which rounds to 0, stands for it."""
    with mpmath.workdps(40):
        g1, a, y, al, be = (mpmath.mpf(v) for v in (gamma + 1, a, y, alpha, beta))

        def phi(t):
            return g1 * t - a * mpmath.exp(al * t) - y * mpmath.exp(-be * t)

        def slope(t):
            return g1 - al * a * mpmath.exp(al * t) + be * y * mpmath.exp(-be * t)

        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while slope(lo) <= 0:
            lo *= 2
        while slope(hi) >= 0:
            hi *= 2
        for _ in range(400):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        top = phi(mid)
        width = 1 / mpmath.sqrt(al * al * a * mpmath.exp(al * mid) + be * be * y * mpmath.exp(-be * mid))
        ends = []
        for side in (-1, 1):
            step = width
            while top - phi(mid + side * step) < 90:
                step *= 2
            ends.append(mid + side * step)
        if top + mpmath.log(ends[1] - ends[0]) < -800:  # a bound that rounds to 0 stands for it
            return mpmath.exp(top) * (ends[1] - ends[0])
        cuts = {mid + side * width * 2 ** j for side in (-1, 1) for j in range(-2, 2000)
                if width * 2 ** j < ends[1] - ends[0]}
        for c in (mpmath.mpf(10) ** j for j in range(-3, 3)):
            cuts |= {(mpmath.log(c) - mpmath.log(a)) / al} if a > 0 else set()
            cuts |= {(mpmath.log(y) - mpmath.log(c)) / be} if y > 0 else set()
        value, error = mpmath.quad(lambda t: mpmath.exp(phi(t) - top),
                                   sorted(t for t in cuts | set(ends) if ends[0] <= t <= ends[1]),
                                   error=True)
        assert error <= 1e-30 * value
        return mpmath.exp(top) * value


def _kratzel_draws():
    """The fuzz domain, a fifth of the rows at beta < 0 (there gamma > -1), and the two rows of
    the fuzz whose trapezoid sums differed at the node cap."""
    rng = np.random.default_rng(2910)
    for i in range(24):
        beta = float(rng.uniform(0.1, 25)) * (-1 if i % 5 == 0 else 1)
        gamma = float(rng.uniform(-3, 3))
        yield (abs(gamma) if beta < 0 else gamma, float(10 ** rng.uniform(-300, 300)),
               float(10 ** rng.uniform(-300, 300)), float(rng.uniform(0.1, 10)), beta)
    yield -1.33, 4.08e-274, 6.92e-66, 4.11, 18.0
    yield -1.39, 6.5e-228, 6.37e-60, 3.88, 20.6


def test_kratzel_is_within_its_estimate_or_raises_with_a_covering_bound():
    dbl_max = mpmath.mpf(np.finfo(float).max)
    bad = []
    for row in _kratzel_draws():
        truth = _mp_kratzel(*row)
        try:
            value, err = kratzel_g2_with_error(*row)
        except ConvergenceError as exc:
            value, err = exc.partial, exc.bound
        if truth > dbl_max:
            ok = value == math.inf
        else:
            ok = abs(value - float(truth)) <= err
        if not ok:
            bad.append((row, value, err, mpmath.nstr(truth, 17)))
    assert not bad, bad[:5]


def _mp_kratzel_wall(gamma, a, y, alpha, beta):
    """The same integral at 25 digits for a row with a wall at large alpha or beta: tanh-sinh on
    panels cut at the peak (phi' bisected), within 60 / max(alpha, beta) of it on each side, and
    1, 10 and 100 from it.  A node where an exponential term passes e^(|phi*| + |(gamma+1) t| +
    1e4) counts as 0, so no term of size e^(1e300) is formed."""
    with mpmath.workdps(25):
        g1, a, y, al, be = (mpmath.mpf(v) for v in (gamma + 1, a, y, alpha, beta))
        log_a, log_y = mpmath.log(a), mpmath.log(y)

        def slope(t):
            return g1 - al * a * mpmath.exp(al * t) + be * y * mpmath.exp(-be * t)

        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        for _ in range(400):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        top = g1 * mid - a * mpmath.exp(al * mid) - y * mpmath.exp(-be * mid)

        def f(t):
            if max(log_a + al * t, log_y - be * t) > mpmath.log(abs(top) + abs(g1 * t) + 10000):
                return mpmath.mpf(0)
            return mpmath.exp(g1 * t - a * mpmath.exp(al * t) - y * mpmath.exp(-be * t) - top)

        wall = 60 / max(al, be)
        cuts = [mid + side * w for side in (-1, 1) for w in (wall, 1, 10, 100)]
        return mpmath.quad(f, [-mpmath.inf, *sorted(cuts + [mid]), mpmath.inf]) * mpmath.exp(top)


@pytest.mark.parametrize("row", [(0.0, 1.0, 1.0, 1.0, beta) for beta in (1e8, 1e20, 1e100, 1e300)]
                         + [(0.0, 1.0, 1.0, alpha, 1.0) for alpha in (1e10, 1e100, 1e300)]
                         + [(0.0, 2.0, 3.0, 0.5, 1e10)])
def test_kratzel_wall_is_within_its_estimate_or_raises_with_a_covering_bound(row):
    # at large alpha or beta one side of the peak is a wall the s grid cannot resolve
    truth = _mp_kratzel_wall(*row)
    assert 0.1 < truth < 1  # e^-1 at large beta, e^-1 - E1(1) at large alpha
    try:
        value, err = kratzel_g2_with_error(*row)
    except ConvergenceError as exc:
        value, err = exc.partial, exc.bound
    assert not math.isnan(err)
    assert err == math.inf or abs(value - float(truth)) <= err
