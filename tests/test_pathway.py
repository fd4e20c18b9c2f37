import json
import math
import pickle
import signal
import warnings
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pathway_toolkit.errors import ConvergenceError, DomainError
from pathway_toolkit.pathway import (
    DensityFn,
    PathwayParams,
    havrda_charvat_entropy,
    mathai_entropy,
    pathway_cdf,
    pathway_density,
    pathway_pdf,
    pathway_sample,
    pathway_support,
    shannon_entropy,
    tsallis_g,
    uniform_density,
    unit_exponential_density,
)

UNIT_EXP = PathwayParams(alpha=1.0, gamma=0.0, delta=1.0, a=1.0, eta=1.0)


def quadrature_mass(params, upto=None):
    hi = params.support_upper if upto is None else upto
    return quad(
        lambda x: pathway_pdf(params, x),
        0.0,
        hi if math.isfinite(hi) else math.inf,
        limit=200,
    )[0]


def mp_mass(params):
    """Total mass at 30 digits: exp(log_norm_const) times an mpmath quadrature
    of the kernel x^gamma K(s x^delta).  The type-1 beta and gamma rows are
    integrated in x.  The type-2 beta row, whose tail in x can be as slow as
    x^(-1.08), is integrated in t = ln x, where both tails are exponential,
    over the window outside which they fall below e^-90."""
    with mpmath.workdps(30):
        al, g, d, a, e = (
            mpmath.mpf(v) for v in (params.alpha, params.gamma, params.delta, params.a, params.eta)
        )
        if al < 1:
            s, k = a * (1 - al), e / (1 - al)
            kernel = mpmath.quad(lambda x: x**g * (1 - s * x**d) ** k, [0, s ** (-1 / d)])
        elif al == 1:
            s = a * e
            kernel = mpmath.quad(
                lambda x: x**g * mpmath.exp(-s * x**d), [0, s ** (-1 / d), mpmath.inf]
            )
        else:
            s, k = a * (al - 1), e / (al - 1)
            t0, q = -mpmath.log(s) / d, k - (g + 1) / d
            window = mpmath.linspace(t0 - 90 / (g + 1), t0 + 90 / (q * d), 101)
            kernel, err = mpmath.quad(
                lambda t: mpmath.exp((g + 1) * t) * (1 + s * mpmath.exp(d * t)) ** -k,
                window, method="gauss-legendre", error=True,
            )
            assert err < 1e-20 * kernel
        return mpmath.exp(params.log_norm_const) * kernel


def mp_entropy(params, functional, order=None):
    """The functional at 30 digits, from the closed-form density in mpmath.
    The integral of h(f) = -f ln f or f^q - f is taken in t = ln x, where both
    tails are exponential.  The type-1 beta row stops at its support end, the
    gamma row where a eta x^delta = 1e4, past which f < e^-9000."""
    with mpmath.workdps(30):
        al, g, d, a, e = (mpmath.mpf(v) for v in astuple(params))
        p, top = (g + 1) / d, mpmath.inf
        if al < 1:
            s, k = a * (1 - al), e / (1 - al)
            c, top = d * s**p / mpmath.beta(p, k + 1), -mpmath.log(s) / d
            f = lambda x: c * x**g * max(1 - s * x**d, 0) ** k  # noqa: E731
        elif al == 1:
            s = a * e
            c, top = d * s**p / mpmath.gamma(p), mpmath.log(1e4 / s) / d
            f = lambda x: c * x**g * mpmath.exp(-s * x**d)  # noqa: E731
        else:
            s, k = a * (al - 1), e / (al - 1)
            c = d * s**p / mpmath.beta(p, k - p)
            f = lambda x: c * x**g * (1 + s * x**d) ** -k  # noqa: E731
        if functional == "shannon":
            h = lambda v: -v * mpmath.log(v) if v > 0 else v  # noqa: E731
        else:
            q = order if functional == "havrda_charvat" else 2 - mpmath.mpf(order)
            h = lambda v: v**q - v  # noqa: E731
        cuts = [t for t in (-200, -40, -10, -3, 0, 3, 10, 40, 200) if t < top]
        val = mpmath.quad(lambda t: h(f(mpmath.exp(t))) * mpmath.exp(t),
                          [-mpmath.inf, *cuts, top])
        if functional == "havrda_charvat":
            return val / (2 ** (1 - mpmath.mpf(order)) - 1)
        return val if functional == "shannon" else val / (mpmath.mpf(order) - 1)


def assert_exact_quantiles(params, n, seed):
    """Draws come back within 1 s, finite, and each one the quantile of its
    seeded uniform.  A sampler that hangs fails here instead of hanging the
    suite."""

    def too_slow(signum, frame):
        raise AssertionError(f"pathway_sample({params}, {n}, {seed}) took over 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        draws = pathway_sample(params, n, seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert np.all(np.isfinite(draws))
    u = np.random.default_rng(seed).random(n)
    assert np.max(np.abs(pathway_cdf(params, draws) - u)) <= 1e-12


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=1.0, delta=-1.0),
            dict(alpha=1.0, a=0.0),
            dict(alpha=1.0, eta=-2.0),
            dict(alpha=1.0, gamma=-1.0),
            dict(alpha=1.5, gamma=2.5, delta=0.5),  # divergent heavy tail
            dict(alpha=0.5, delta=1e-300),  # support end 2^(1e300) overflows
            dict(alpha=0.5, a=1e308, eta=1e308),  # constant overflows to inf
            dict(alpha=1 - 2**-53, a=1e-310),  # a(1 - alpha) underflows to 0
            dict(alpha=0.5, gamma=math.inf),  # inf - inf in the constant
            dict(alpha=math.inf),
            dict(alpha=-math.inf),
            dict(alpha=1.5, delta=math.inf),
            dict(alpha=1.0, a=math.inf),
            dict(alpha=0.5, eta=math.inf),
        ],
    )
    def test_construction_rejects(self, kwargs):
        with pytest.raises(DomainError):
            PathwayParams(**kwargs)

    @pytest.mark.parametrize("alpha", [1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1 + 1e-6, 1 + 1e-4, 1 + 1e-3])
    def test_constant_near_alpha_one(self, alpha):
        # q = eta / |1 - alpha| from 1e3 to 1e6, where scipy's betaln keeps only a few 1e-9
        params = PathwayParams(alpha, 0.5, 1.5, 2.0, 1.0)
        with mpmath.workdps(40):
            d, p = mpmath.mpf(abs(1 - alpha)), (mpmath.mpf(0.5) + 1) / mpmath.mpf(1.5)
            scale, e = 2 * d, 1 / d
            log_i = mpmath.log(mpmath.beta(p, e + 1 if alpha < 1 else e - p))
            ref = mpmath.log(1.5) + p * mpmath.log(scale) - log_i
        assert abs(params.log_norm_const - float(ref)) <= 1e-14 * abs(float(ref))

    def test_huge_constant_gives_inf_at_origin(self):
        # C = e^2287: the density at 0 is past the double range, not an error
        params = PathwayParams(alpha=1.0, delta=0.1, a=1e100)
        assert pathway_pdf(params, 0.0) == math.inf == params.norm_const
        assert UNIT_EXP.norm_const == 1.0 == pathway_pdf(UNIT_EXP, 0.0)

    def test_json_round_trip(self):
        p = PathwayParams(alpha=0.5, gamma=1.5, delta=2.0, a=0.7, eta=3.0)
        q = PathwayParams.from_json(p.to_json())
        assert p == q

    def test_pickle_round_trip(self):
        p = PathwayParams(alpha=1.5, gamma=1.0, delta=2.0)
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert pathway_cdf(q, 0.8) == pathway_cdf(p, 0.8)

    def test_json_missing_key(self):
        with pytest.raises(DomainError):
            PathwayParams.from_json(json.dumps({"alpha": 1.0}))

    def test_json_unknown_key(self):
        doc = dict(alpha=1, gamma=0, delta=1, a=1, eta=1, zeta=2)
        with pytest.raises(DomainError, match=r"unexpected \['zeta'\]"):
            PathwayParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("alpha", ["x", None, True, [1.0]])
    def test_json_non_numeric_value(self, alpha):
        doc = dict(alpha=alpha, gamma=0, delta=1, a=1, eta=1)
        with pytest.raises(DomainError, match="must be numbers"):
            PathwayParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc", [[1, 0, 1, 1, 1], "alpha", 1.0, None])
    def test_json_not_an_object(self, doc):
        with pytest.raises(DomainError, match="must be an object"):
            PathwayParams.from_json(json.dumps(doc))


class TestNanInput:
    def test_nan_alpha_rejected(self):
        with pytest.raises(DomainError, match="alpha"):  # else it takes the alpha = 1 row
            PathwayParams(alpha=math.nan)

    @pytest.mark.parametrize("fn", [pathway_pdf, pathway_cdf])
    @pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
    def test_nan_x_rejected(self, fn, x):
        with pytest.raises(DomainError, match="nan"):
            fn(PathwayParams(alpha=0.5), x)

    def test_infinite_x_is_still_a_point(self):
        params = PathwayParams(alpha=1.5)
        assert pathway_pdf(params, math.inf) == 0.0
        assert pathway_cdf(params, math.inf) == 1.0


class TestSupport:
    def test_finite_branch(self):
        assert pathway_support(PathwayParams(alpha=0.5)) == (0.0, 2.0)
        lo, hi = pathway_support(PathwayParams(alpha=0.0, a=2.0, delta=2.0))
        assert hi == pytest.approx(2.0 ** (-0.5), rel=1e-14)

    def test_infinite_branch(self):
        assert pathway_support(PathwayParams(alpha=1.5))[1] == math.inf
        assert pathway_support(UNIT_EXP)[1] == math.inf


class TestPdf:
    def test_unit_exponential_case(self):
        assert pathway_pdf(UNIT_EXP, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_finite_range_case(self):
        # oracle: c = 1 / integral_0^1 (1-x)^2 dx = 3, so pdf(0.5) = 3 * 0.25
        params = PathwayParams(alpha=0.0, gamma=0.0, delta=1.0, a=1.0, eta=2.0)
        c_oracle = 1.0 / quad(lambda x: (1.0 - x) ** 2, 0.0, 1.0)[0]
        assert c_oracle == pytest.approx(3.0, rel=1e-12)
        assert pathway_pdf(params, 0.5) == pytest.approx(
            c_oracle * 0.25, rel=1e-12
        )

    def test_heavy_tail_case(self):
        # oracle: c2 = 1 / integral_0^inf (1+x)^-2 dx = 1, pdf(1) = 1/4
        params = PathwayParams(alpha=2.0, gamma=0.0, delta=1.0, a=1.0, eta=2.0)
        c_oracle = 1.0 / quad(lambda x: (1.0 + x) ** -2.0, 0.0, math.inf)[0]
        assert pathway_pdf(params, 1.0) == pytest.approx(c_oracle / 4.0, rel=1e-10)

    def test_huge_x_without_overflow_warning(self):
        # y = a eta x^delta passes the double range: the density is 0, the CDF 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params in (PathwayParams(1.0, 0.5, 1.5), PathwayParams(1.5, 0.0, 2.0)):
                assert pathway_pdf(params, 1e250) == 0.0
                assert pathway_cdf(params, np.array([1e250, 1e300]))[1] == 1.0

    def test_heavy_tail_past_the_double_range_against_mpmath(self):
        # y = a (alpha-1) x^delta overflows at these x, but the density
        # delta s^p / B(p, q) x^gamma (1 + s x^delta)^-(p+q) is still a double
        law = (1.5, 0.0, 2.0, 1.0, 0.375)
        with mpmath.workdps(30):
            alpha, gamma, delta, a, eta = (mpmath.mpf(v) for v in law)
            s, p = a * (alpha - 1), (gamma + 1) / delta
            k = eta / (alpha - 1)
            for x in (1e160, 1e180, 1e200):
                ref = delta * s**p / mpmath.beta(p, k - p) * (1 + s * mpmath.mpf(x) ** delta) ** -k
                got = pathway_pdf(PathwayParams(*law), x)
                assert got == pytest.approx(float(ref), rel=1e-12, abs=0)

    def test_outside_support_is_zero(self):
        params = PathwayParams(alpha=0.5)  # support [0, 2]
        assert pathway_pdf(params, -1.0) == 0.0
        assert pathway_pdf(params, 2.5) == 0.0

    def test_normalization_grid(self):
        for alpha in (0.5, 1.0, 1.5):
            for gamma in (0.0, 1.0, 2.5):
                for delta in (0.5, 1.0, 2.0):
                    try:
                        params = PathwayParams(alpha=alpha, gamma=gamma, delta=delta)
                    except DomainError:
                        assert alpha > 1  # only the divergent heavy tails reject
                        continue
                    assert quadrature_mass(params) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 1.5, 2.0, 0.7, 3.0),  # type-1 beta
            (1.0, 0.5, 1.5, 2.0, 1.3),  # gamma
            (1.6, 0.3, 1.2, 0.8, 2.5),  # type-2 beta
            # type-2 beta with q = 0.21, which quadrature in x (0, inf) misses
            (1.0253, 1.7095, 0.3907, 1.0, 0.180842),
        ],
        ids=["type1_beta", "gamma", "type2_beta", "heavy_tail"],
    )
    def test_regime_mass_against_mpmath(self, args):
        assert abs(mp_mass(PathwayParams(*args)) - 1) <= 1e-12

    def test_family_limit_is_monotone(self):
        x = 0.7
        base = pathway_pdf(PathwayParams(alpha=1.0, gamma=1.0), x)
        for sign in (+1, -1):
            gaps = [
                abs(pathway_pdf(PathwayParams(alpha=1.0 + sign * eps, gamma=1.0), x) - base)
                for eps in (1e-2, 1e-3, 1e-4)
            ]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-3 * base

    def test_superstatistics_reduction(self):
        xs = np.linspace(0.05, 6.0, 40)
        for gamma in (0.0, 1.3, 2.5):
            params = PathwayParams(alpha=1.0, gamma=gamma, delta=1.0, a=1.0, eta=1.0)
            ref = xs**gamma * np.exp(-xs) / math.gamma(gamma + 1.0)
            assert np.max(np.abs(pathway_pdf(params, xs) - ref) / ref) < 1e-10


class TestCdf:
    def test_endpoints(self):
        assert pathway_cdf(UNIT_EXP, 0.0) == 0.0
        assert pathway_cdf(PathwayParams(alpha=0.5), 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_median(self):
        assert pathway_cdf(UNIT_EXP, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_matches_quadrature_of_pdf(self):
        # the closed-form CDF must agree with direct adaptive quadrature
        cases = [
            UNIT_EXP,
            PathwayParams(alpha=0.0, gamma=0.0, delta=1.0, a=1.0, eta=2.0),
            PathwayParams(alpha=2.0, gamma=0.0, delta=1.0, a=1.0, eta=2.0),
            PathwayParams(alpha=0.5, gamma=1.5, delta=2.0),
            PathwayParams(alpha=1.5, gamma=1.0, delta=2.0),
        ]
        for params in cases:
            for x in (0.2, 0.8, 1.6):
                ref = quadrature_mass(params, upto=min(x, params.support_upper))
                assert pathway_cdf(params, x) == pytest.approx(ref, abs=1e-8)

    def test_monotone(self):
        xs = np.linspace(0.0, 5.0, 200)
        cdf = pathway_cdf(PathwayParams(alpha=1.5, gamma=0.5), xs)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_heavy_tail_past_the_double_range_against_mpmath(self):
        # y = scale x^delta overflows at every x here, where the tail still holds 0.4% of
        # the mass; the CDF is 1 - y^-q / (q B(p, q)) to rounding
        law = (2.949725445129931, -0.6044689220222419, 2.0608361069671406,
               0.05146842667025705, 0.3891387471336174)
        params = PathwayParams(*law)
        with mpmath.workdps(50):
            alpha, gamma, delta, a, eta = (mpmath.mpf(v) for v in law)
            p = (gamma + 1) / delta
            q = eta / (alpha - 1) - p
            for x in (1e150, 1e160, 1e250, 1e300, 1.7e308):
                y = a * (alpha - 1) * mpmath.mpf(x) ** delta
                ref = 1 - mpmath.betainc(q, p, 0, 1 / (1 + y), regularized=True)
                assert abs(pathway_cdf(params, x) - float(ref)) <= 1e-15

    def test_type2_past_the_double_range_keeps_its_values(self):
        # y = scale x^delta is 0.024 and 1.2e205 at the first two points and inf past them,
        # where the pdf and CDF take ln y = ln(scale) + delta ln x; an array call and
        # scalar calls give the same pinned values
        params = PathwayParams(2.949725445129931, -0.6044689220222419, 2.0608361069671406,
                               0.05146842667025705, 0.3891387471336174)
        x = np.array([0.5, 1e100, 1e160, 1e200, 1e300])
        pdf = [0.014804889310696344, 4.086967444368346e-104, 4.617109647386475e-165,
               1.0789869573842595e-205, 2.848598306819255e-307]
        cdf = [0.018789768140747204, 0.9741066502291286, 0.9970747886628023,
               0.9993163981101866, 0.9999819524492624]
        assert pathway_pdf(params, x) == pytest.approx(pdf, rel=1e-15, abs=0)
        assert pathway_cdf(params, x) == pytest.approx(cdf, rel=1e-15, abs=0)
        assert [pathway_pdf(params, v) for v in x] == pytest.approx(pdf, rel=1e-15, abs=0)
        assert [pathway_cdf(params, v) for v in x] == pytest.approx(cdf, rel=1e-15, abs=0)

    def test_heavy_tail_against_mpmath(self):
        # 1 - y/(1+y) must not round: the tail mass at 1e30 is still 4.7e-4
        params = PathwayParams(alpha=1.9, gamma=0.0, delta=1.0, a=1.0, eta=1.0)
        # 50 digits, so that y/(1+y) still resolves 1 - 1e-30
        with mpmath.workdps(50):
            alpha, gamma, delta, a, eta = (mpmath.mpf(v) for v in (1.9, 0, 1, 1, 1))
            p = (gamma + 1) / delta
            q = eta / (alpha - 1) - p
            for x in (1e15, 1e17, 1e30):
                y = a * (alpha - 1) * mpmath.mpf(x) ** delta
                ref = mpmath.betainc(p, q, 0, y / (1 + y), regularized=True)
                assert pathway_cdf(params, x) == pytest.approx(float(ref), abs=1e-14)


class TestSampling:
    def test_empty(self):
        assert pathway_sample(UNIT_EXP, 0, seed=1).shape == (0,)

    @pytest.mark.parametrize("n", [-1, math.nan, math.inf, 2.5])
    def test_count_not_a_whole_number_rejected(self, n):
        with pytest.raises(DomainError, match="sample count"):
            pathway_sample(UNIT_EXP, n, seed=1)

    def test_exponential_mean(self):
        n = 100_000
        draws = pathway_sample(UNIT_EXP, n, seed=42)
        assert abs(draws.mean() - 1.0) <= 4.0 / math.sqrt(n)

    def test_deterministic(self):
        a = pathway_sample(UNIT_EXP, 50, seed=7)
        b = pathway_sample(UNIT_EXP, 50, seed=7)
        assert np.array_equal(a, b)

    def test_heavy_tail_draws_are_exact_quantiles(self):
        assert_exact_quantiles(PathwayParams(alpha=1.9, gamma=0.0, delta=1.0), 200, 3)

    def test_heavy_tail_draws_past_the_saturated_inverse(self):
        # q = 0.0077: at u = 0.99677 and 0.99906, z = 1/(1+y) lies below the least
        # normal double, where the upper inverse incomplete beta saturates
        params = PathwayParams(2.949725445129931, -0.6044689220222419, 2.0608361069671406,
                               0.05146842667025705, 0.3891387471336174)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = pathway_sample(params, 500, 7)
        assert_exact_quantiles(params, 500, 7)  # the CDF of each draw holds its u
        u = np.random.default_rng(7).random(500)
        law = params._law
        with mpmath.workdps(50):
            for i in np.argsort(draws)[-2:]:
                y = law.scale * mpmath.mpf(draws[i]) ** params.delta
                tail = mpmath.betainc(law.q, law.p, 0, 1 / (1 + y), regularized=True)
                assert abs(tail / (1 - mpmath.mpf(u[i])) - 1) <= 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
        gamma=st.floats(-0.5, 2.0),
        delta=st.floats(0.5, 3.0),
        q=st.floats(0.05, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_heavy_tail_property(self, alpha, gamma, delta, q, seed):
        # eta is set by q = eta/(alpha-1) - (gamma+1)/delta, down to the
        # integrability edge where the tail decays like x^(-1 - q delta)
        eta = (alpha - 1) * ((gamma + 1) / delta + q)
        params = PathwayParams(alpha=alpha, gamma=gamma, delta=delta, eta=eta)
        assert_exact_quantiles(params, 200, seed)

    @pytest.mark.parametrize(
        "params",
        [
            UNIT_EXP,
            PathwayParams(alpha=0.0, gamma=0.0, delta=1.0, a=1.0, eta=2.0),
            PathwayParams(alpha=2.0, gamma=0.0, delta=1.0, a=1.0, eta=2.0),
        ],
    )
    def test_ks_against_cdf(self, params):
        n = 100_000
        draws = np.sort(pathway_sample(params, n, seed=123))
        cdf = pathway_cdf(params, draws)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)


class TestTsallis:
    def test_at_zero(self):
        for alpha in (0.2, 1.0, 3.0):
            assert tsallis_g(0.0, alpha) == 1.0

    def test_limit_form(self):
        assert tsallis_g(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_direct_substitution(self):
        assert tsallis_g(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_zero_extension_beyond_endpoint(self):
        assert tsallis_g(3.0, 0.5) == 0.0  # endpoint at x = 2
        assert tsallis_g(2.0, 0.5) == 0.0

    def test_type2_domain(self):
        # 1 + (alpha - 1) x <= 0 is outside the alpha > 1 branch; any x is inside the others
        for x in (-2.0, -2.5, -1e300):
            with pytest.raises(DomainError, match="outside the domain"):
                tsallis_g(x, 1.5)
        assert tsallis_g(-1.5, 0.5) == pytest.approx(1.75**2, rel=1e-15)
        assert tsallis_g(-1.5, 1.0) == pytest.approx(math.exp(1.5), rel=1e-15)

    @pytest.mark.parametrize("x, alpha", [(-1000.0, 1.0), (-1e300, 0.5), (-1e3, 1.001)])
    def test_past_the_double_range_is_inf(self, x, alpha):
        assert tsallis_g(x, alpha) == math.inf

    def test_y_past_the_double_range(self):
        # (alpha - 1) x overflows: [1 + 1e300 x]^(-1e-300) is e^(-1e-300 ln(1e608)), about 1
        assert tsallis_g(1e308, 1 + 1e300) == 1.0
        assert tsallis_g(-1e308, -9.0) == pytest.approx(10.0 ** 30.9, rel=1e-14)

    @pytest.mark.parametrize("x, alpha", [(math.nan, 1.0), (math.inf, 0.5), (-math.inf, 1.0),
                                          (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_non_finite_rejected(self, x, alpha):
        with pytest.raises(DomainError, match="finite"):
            tsallis_g(x, alpha)

    def test_against_40_digit_mpmath_near_alpha_1(self):
        # alpha = 1 +- 10^U(-15, 0.5), x = +-10^U(-3, 1.5); the hand-written power form
        # [1 - (1-alpha) x]^(1/(1-alpha)) was off by up to 0.1 relative here
        rng = np.random.default_rng(3)
        n = 2000
        alphas = 1 + rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-15, 0.5, n)
        xs = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 1.5, n)
        inside = 0
        with mpmath.workdps(40):
            for x, alpha in zip(xs, alphas):
                base = 1 - (1 - mpmath.mpf(alpha)) * x
                if base <= 0 and alpha > 1:
                    with pytest.raises(DomainError):
                        tsallis_g(x, alpha)
                    continue
                inside += 1
                ref = base ** (1 / (1 - mpmath.mpf(alpha))) if base > 0 else 0
                assert abs(tsallis_g(x, alpha) - ref) <= 1e-13 * ref
        assert inside > 1900

    def test_power_function_differential_property(self):
        h = 1e-5
        for alpha in (0.5, 1.5, 2.0):
            end = 2.0 if alpha >= 1 else min(2.0, 1.0 / (1.0 - alpha) - 0.1)
            for x in np.linspace(0.0, end, 41):
                deriv = (tsallis_g(x + h, alpha) - tsallis_g(x - h, alpha)) / (2 * h)
                assert abs(deriv + tsallis_g(x, alpha) ** alpha) <= 1e-6


class TestEntropies:
    def test_uniform_is_exactly_zero(self):
        u = uniform_density()
        assert type(u(0.5)) is float and u(0.5) == 1.0
        assert havrda_charvat_entropy(u, 2.0) == 0.0
        assert havrda_charvat_entropy(u, 0.5) == 0.0
        assert mathai_entropy(u, 0.5) == 0.0
        assert mathai_entropy(u, 1.5) == 0.0
        assert shannon_entropy(u) == 0.0

    def test_shannon_closed_forms(self):
        assert shannon_entropy(unit_exponential_density()) == pytest.approx(
            1.0, rel=1e-10
        )
        assert shannon_entropy(uniform_density(0.0, 2.0)) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_havrda_charvat_exponential_alpha2(self):
        # oracle: integral of e^(-2x) = 1/2, so (1/2 - 1)/(2^-1 - 1) = 1
        e = unit_exponential_density()
        tail = quad(lambda x: math.exp(-2.0 * x), 0.0, math.inf)[0]
        assert tail == pytest.approx(0.5, rel=1e-12)
        assert havrda_charvat_entropy(e, 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_havrda_charvat_brackets_binary_shannon(self):
        # the 2^(1-alpha) denominator makes the alpha -> 1 limit equal the
        # Shannon entropy in log-base-2 units
        e = unit_exponential_density()
        limit = shannon_entropy(e) / math.log(2.0)
        lo = havrda_charvat_entropy(e, 1.001)
        hi = havrda_charvat_entropy(e, 0.999)
        assert lo < limit < hi
        assert abs(lo - limit) <= 1e-2 * limit
        assert abs(hi - limit) <= 1e-2 * limit

    def test_mathai_brackets_shannon(self):
        e = unit_exponential_density()
        s = shannon_entropy(e)
        lo = mathai_entropy(e, 0.999)
        hi = mathai_entropy(e, 1.001)
        assert lo < s < hi
        assert abs(lo - s) <= 1e-2 * s
        assert abs(hi - s) <= 1e-2 * s

    def test_domain_errors(self):
        u = uniform_density()
        with pytest.raises(DomainError):
            havrda_charvat_entropy(u, 1.0)
        with pytest.raises(DomainError):
            mathai_entropy(u, 1.0)
        with pytest.raises(DomainError):
            mathai_entropy(u, 2.0)
        for alpha in (math.nan, math.inf, -math.inf):
            for entropy in (havrda_charvat_entropy, mathai_entropy):
                with pytest.raises(DomainError, match="finite"):
                    entropy(u, alpha)
        with pytest.raises(DomainError, match="empty support"):
            uniform_density(1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, 1e-320),
                                        (-1e308, 1e308)],
                             ids=["upper_inf", "lower_inf", "density_overflows", "width_overflows"])
    def test_uniform_needs_a_density_on_doubles(self, lo, hi):
        with pytest.raises(DomainError, match="fit a double"):
            uniform_density(lo, hi)

    def test_density_domain_error_passes_through(self):
        def fn(x):
            raise DomainError("no density here")

        with pytest.raises(DomainError, match="no density here"):
            shannon_entropy(DensityFn(fn, (0.0, 1.0)))

    @pytest.mark.parametrize("k", range(2, 15))
    @pytest.mark.parametrize("side", [-1, 1])
    def test_orders_near_one_exponential(self, k, side):
        # f = e^-x: integral f^q = 1/q, so Havrda-Charvat is ((1-alpha)/alpha) / (2^(1-alpha) - 1)
        # and Mathai 1/(2 - alpha); f^q - f cancels as q -> 1, f expm1((q-1) ln f) does not
        e = unit_exponential_density()
        alpha = 1 + side * 10.0**-k
        with mpmath.workdps(30):
            al = mpmath.mpf(alpha)
            hc = (1 - al) / al / mpmath.expm1((1 - al) * mpmath.log(2))
            mathai = 1 / (2 - al)
        assert abs(havrda_charvat_entropy(e, alpha) - hc) <= 1e-13 * hc
        assert abs(mathai_entropy(e, alpha) - mathai) <= 1e-13 * mathai

    @pytest.mark.parametrize("k", [2, 6, 10, 14])
    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("functional", ["havrda_charvat", "mathai"])
    def test_orders_near_one_pathway_law(self, k, side, functional):
        law = PathwayParams(0.8, 2.0, 2.0, 1.25, 1.5)
        order = 1 + side * 10.0**-k
        entropy = havrda_charvat_entropy if functional == "havrda_charvat" else mathai_entropy
        ref = float(mp_entropy(law, functional, order))
        assert abs(entropy(pathway_density(law), order) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize(
        "law",
        [
            (1.0253, 1.7095, 0.3907, 1.0, 0.180842),  # tail x^-1.08; quad: 2.96 for 30.58
            (0.6, 1.0, 1.0, 0.8, 1.0),  # the four benchmark laws, a at its range ends
            (1.0, 0.5, 1.5, 1.25, 1.0),
            (1.4, 0.0, 1.0, 0.8, 2.0),
            (0.8, 2.0, 2.0, 1.25, 1.5),
            (0.6, -0.5, 1.0, 1.0, 1.0),  # gamma < 0: f(0) is inf, in each regime
            (1.0, -0.5, 1.0, 1.0, 1.0),
            (1.5, -0.5, 1.0, 1.0, 1.0),
        ],
        ids=["heavy_tail", "bench_type1", "bench_gamma", "bench_type2",
             "bench_type1_delta2", "neg_gamma_type1", "neg_gamma_gamma", "neg_gamma_type2"],
    )
    @pytest.mark.parametrize(
        "functional, order", [("shannon", None), ("havrda_charvat", 1.5), ("mathai", 0.5)]
    )
    def test_against_mpmath(self, law, functional, order):
        f = pathway_density(PathwayParams(*law))
        if functional == "shannon":
            value = shannon_entropy(f)
        else:
            value = (havrda_charvat_entropy if functional == "havrda_charvat"
                     else mathai_entropy)(f, order)
        ref = mp_entropy(PathwayParams(*law), functional, order)
        assert abs(value - float(ref)) <= 1e-13 * abs(float(ref))

    def test_near_divergent_shannon(self):
        # f ~ x^-0.9 at 0: -f ln f is still integrable
        f = pathway_density(PathwayParams(1.0, -0.9, 0.5, 1.0, 1.0))
        ref = mp_entropy(PathwayParams(1.0, -0.9, 0.5, 1.0, 1.0), "shannon")
        assert abs(shannon_entropy(f) - float(ref)) <= 1e-13 * abs(float(ref))

    @pytest.mark.parametrize("entropy", [lambda f: havrda_charvat_entropy(f, 1.5),
                                         lambda f: mathai_entropy(f, 0.5)],
                             ids=["havrda_charvat_1.5", "mathai_0.5"])
    def test_divergent_integral_raises(self, entropy):
        # f^1.5 ~ x^-1.35 at 0 is not integrable; quad returned 4.77 and 2.80.  The rule
        # raises on the bare function; the law knows the integral diverges
        f = pathway_density(PathwayParams(1.0, -0.9, 0.5, 1.0, 1.0))
        with pytest.raises(ConvergenceError):
            entropy(DensityFn(f.fn, f.support))
        with pytest.raises(DomainError, match="integral of f"):
            entropy(f)

    def test_scalar_only_density(self):
        f = DensityFn(lambda x: math.exp(-x), (0, math.inf))
        assert abs(shannon_entropy(f) - 1.0) <= 1e-13

    def test_support_far_from_origin(self):
        # x rounds onto the end 1e6 long before the distance to it underflows
        assert havrda_charvat_entropy(uniform_density(1e6, 1e6 + 4), 2.0) == pytest.approx(
            1.5, rel=1e-13)
        assert shannon_entropy(uniform_density(5.0, 7.0)) == pytest.approx(
            math.log(2), rel=1e-13)

    def test_slow_tails_of_the_exponential(self):
        # f^0.05 decays 20 times slower than f = e^-x: (1/0.05 - 1) over the denominators
        e = unit_exponential_density()
        assert abs(mathai_entropy(e, 1.95) - 20.0) <= 1e-13 * 20.0
        ref = (1 / 0.05 - 1) / (2**0.95 - 1)
        assert abs(havrda_charvat_entropy(e, 0.05) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("entropy", [lambda f: mathai_entropy(f, 1.99),
                                         lambda f: havrda_charvat_entropy(f, 0.01)],
                             ids=["mathai_1.99", "havrda_charvat_0.01"])
    def test_tail_past_underflow_raises(self, entropy):
        # e^-x underflows at x = 745, where f^0.01 is still e^-7.45: 0.06% of the
        # integral lies where no double f is left (quad returned 99.94 for 100)
        e = unit_exponential_density()
        with pytest.raises(ConvergenceError):
            entropy(DensityFn(e.fn, e.support))

    @pytest.mark.parametrize("entropy, ref", [(lambda f: mathai_entropy(f, 1.99), 100.0),
                                              (lambda f: havrda_charvat_entropy(f, 0.01),
                                               99 / (2**0.99 - 1))],
                             ids=["mathai_1.99", "havrda_charvat_0.01"])
    def test_tail_past_underflow_from_the_law(self, entropy, ref):
        # the integral of e^-(b x) is 1/b: the law needs no node past the underflow
        assert abs(entropy(unit_exponential_density()) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize(
        "fn, support, ref",
        [
            (lambda x: np.exp(x - 3.0), (-math.inf, 3.0), 1.0),
            (lambda x: math.exp(x - 3.0), (-math.inf, 3.0), 1.0),
            (lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi), (-math.inf, math.inf),
             0.5 * math.log(2 * math.pi * math.e)),
            (lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), (-math.inf, math.inf),
             0.5 * math.log(2 * math.pi * math.e)),
            (lambda x: 1 / (math.pi * (1 + x * x)), (-math.inf, math.inf), math.log(4 * math.pi)),
        ],
        ids=["reflected_exponential", "reflected_exponential_scalar", "gaussian",
             "gaussian_scalar", "cauchy"],
    )
    def test_infinite_lower_end(self, fn, support, ref):
        assert abs(shannon_entropy(DensityFn(fn, support)) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize(
        "f, ref",
        [
            # near x = 1e6 doubles are 1.2e-10 apart, so f(x(t)) is a staircase in t
            # and the sums stop agreeing near 1e-13 (quad returned 1 + 8e-12)
            (DensityFn(lambda x: np.exp(-(x - 1e6)), (1e6, math.inf)), 1.0),
            # a kink: the rule needs f smooth inside the support
            (DensityFn(lambda x: np.maximum(0.0, 1.0 - abs(x - 1.0)), (0.0, 2.0)), 0.5),
        ],
        ids=["support_far_from_its_scale", "kink"],
    )
    def test_unresolved_density_raises_with_partial(self, f, ref):
        with pytest.raises(ConvergenceError) as err:
            shannon_entropy(f)
        assert abs(err.value.partial - ref) <= err.value.bound

    def test_narrow_peak_far_out_raises(self):
        # every probe node underflows (quad returned 0 here, for 1.419)
        f = DensityFn(lambda x: np.exp(-(x - 1e3) ** 2 / 2) / math.sqrt(2 * math.pi),
                      (-math.inf, math.inf))
        with pytest.raises(ConvergenceError):
            shannon_entropy(f)

    def test_pathway_density_wrapper(self):
        f = pathway_density(UNIT_EXP)
        assert isinstance(f, DensityFn)
        assert shannon_entropy(f) == pytest.approx(1.0, rel=1e-8)


def _seeded_law(regime, seed=2024):
    """A pathway law drawn in one regime (0: alpha < 1, 1: alpha = 1, 2: alpha > 1), the first
    draw of the seeded stream that makes a density."""
    rng = np.random.default_rng([seed, regime])
    while True:
        alpha = (rng.uniform(0.2, 0.9), 1.0, rng.uniform(1.1, 2.5))[regime]
        five = (alpha, rng.uniform(-0.5, 2.0), rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0))
        try:
            return PathwayParams(*five)
        except DomainError:
            continue


def _power_diverges(params, b):
    """Whether the integral of f^b is infinite, from the five parameters: x^(b gamma) at 0,
    (1 - y)^(b eta / (1 - alpha)) at the support end below alpha = 1, and above it the tail
    x^(b gamma - b delta eta / (alpha - 1)); b <= 0 on an unbounded support."""
    alpha, gamma, delta, _, eta = astuple(params)
    if not b * gamma > -1:
        return True
    if alpha < 1:
        return not b * eta / (1 - alpha) > -1
    return b <= 0 or (alpha > 1 and not b * gamma - b * delta * eta / (alpha - 1) < -1)


_ORDERS = [("shannon", None)] + [(functional, order) for functional in ("havrda_charvat", "mathai")
                                 for order in (0.05, 0.5, 1.2, 1.5, 1.95)]


def _entropy(functional, f, order):
    if functional == "shannon":
        return shannon_entropy(f)
    return (havrda_charvat_entropy if functional == "havrda_charvat" else mathai_entropy)(f, order)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("integrate_halfline was called")


class TestClosedFormEntropies:
    @pytest.mark.parametrize("regime", [0, 1, 2], ids=["type1", "gamma", "type2"])
    @pytest.mark.parametrize("functional, order", _ORDERS)
    def test_against_30_digit_quadrature(self, regime, functional, order):
        law = _seeded_law(regime)
        b = order if functional == "havrda_charvat" else 2 - (order or 1)
        if functional != "shannon" and _power_diverges(law, b):
            with pytest.raises(DomainError, match="integral of f"):
                _entropy(functional, pathway_density(law), order)
            return
        ref = float(mp_entropy(law, functional, order))
        assert abs(_entropy(functional, pathway_density(law), order) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("regime", [0, 1, 2], ids=["type1", "gamma", "type2"])
    @pytest.mark.parametrize("functional, order", _ORDERS)
    def test_quadrature_agrees_within_its_estimate(self, regime, functional, order, monkeypatch,
                                                   request):
        # the same function without its law takes the half-line rule: the independent route
        from pathway_toolkit import pathway

        if (regime, functional, order) == (2, "mathai", 1.2):
            request.applymarker(pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="f^0.8 of this law falls off as x^-1.005: the half-line rule raises "
                       "with partial 62.71 and bound 4e-4 for an integral of 66.56"))
        f = pathway_density(_seeded_law(regime))
        try:
            closed = _entropy(functional, f, order)
        except DomainError:
            return
        runs = []
        halfline = pathway.integrate_halfline
        monkeypatch.setattr(pathway, "integrate_halfline",
                            lambda *args, **kwargs: runs.append(halfline(*args, **kwargs)) or runs[-1])
        # the functional per unit of the integral
        per_integral = {"shannon": 1.0, "mathai": 1 / (order - 1) if order else 1.0,
                        "havrda_charvat": 1 / math.expm1((1 - (order or 0)) * math.log(2))}[functional]
        try:
            value = _entropy(functional, DensityFn(f.fn, f.support), order)
        except ConvergenceError as err:  # its partial and bound are the integral's
            assert abs(err.partial * per_integral - closed) <= err.bound * abs(per_integral)
            return
        (_, estimate), = runs
        assert abs(value - closed) <= estimate * abs(per_integral) + 1e-13 * abs(closed)

    @pytest.mark.parametrize(
        "law, entropy",
        [
            ((0.5, -0.6, 1.0, 1.0, 1.0), lambda f: havrda_charvat_entropy(f, 2.0)),  # x^-1.2 at 0
            ((0.5, 0.0, 1.0, 1.0, 1.0), lambda f: havrda_charvat_entropy(f, -0.6)),  # (1-y)^-1.2
            ((1.0, -0.5, 1.0, 1.0, 1.0), lambda f: mathai_entropy(f, -1.0)),  # x^-1.5 at 0
            ((1.0, 0.0, 1.0, 1.0, 1.0), lambda f: havrda_charvat_entropy(f, 0.0)),  # 1 on (0, inf)
            ((1.0, 0.0, 1.0, 1.0, 1.0), lambda f: havrda_charvat_entropy(f, -0.5)),  # e^(x/2)
            ((1.5, -0.5, 1.0, 1.0, 1.0), lambda f: mathai_entropy(f, -1.5)),  # x^-1.75 at 0
            ((1.5, 0.0, 1.0, 1.0, 1.0), lambda f: havrda_charvat_entropy(f, 0.5)),  # tail x^-1
            ((1.5, 0.0, 1.0, 1.0, 1.0), lambda f: havrda_charvat_entropy(f, -1.0)),
        ],
        ids=["type1_origin", "type1_end", "gamma_origin", "gamma_order_0", "gamma_order_below_0",
             "type2_origin", "type2_tail_edge", "type2_order_below_0"],
    )
    def test_divergence_edges_raise(self, law, entropy):
        with pytest.raises(DomainError, match="integral of f"):
            entropy(pathway_density(PathwayParams(*law)))

    @pytest.mark.parametrize("a", [0.8, 1.0, 1.25])
    def test_benchmark_laws_take_the_closed_form(self, a, monkeypatch):
        # param_sweeps' four bases, a at its range ends and between: twelve calls each
        monkeypatch.setattr("pathway_toolkit.pathway.integrate_halfline", _no_quadrature)
        for base in [(0.6, 1.0, 1.0, 1.0), (1.0, 0.5, 1.5, 1.0), (1.4, 0.0, 1.0, 2.0),
                     (0.8, 2.0, 2.0, 1.5)]:
            f = pathway_density(PathwayParams(*base[:3], a, base[3]))
            for functional, order in (("shannon", None), ("havrda_charvat", 1.5), ("mathai", 0.5)):
                assert math.isfinite(_entropy(functional, f, order))

    def test_orders_near_one_keep_the_quadrature(self, monkeypatch):
        monkeypatch.setattr("pathway_toolkit.pathway.integrate_halfline", _no_quadrature)
        with pytest.raises(AssertionError, match="integrate_halfline"):
            havrda_charvat_entropy(unit_exponential_density(), 1 + 1e-3)

    def test_only_pathway_densities_carry_a_law(self):
        f = pathway_density(UNIT_EXP)
        assert f.law is UNIT_EXP._law and unit_exponential_density().law is not None
        assert uniform_density().law is None and DensityFn(f.fn, f.support).law is None
        assert "law" not in repr(f) and f == DensityFn(f.fn, f.support)
