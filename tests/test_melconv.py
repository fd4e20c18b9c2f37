import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as cgamma, gammaln, kv, polygamma

from pathway_toolkit import melconv
from pathway_toolkit.errors import ConvergenceError, DomainError
from pathway_toolkit.melconv import (
    MomentDensity,
    ProductSpec,
    builtin_density,
    default_contour,
    integrate_halfline,
    kratzel_g1,
    kratzel_g2,
    kratzel_g2_with_error,
    mellin_invert,
    normality_trend,
    product_moment_density,
    random_volume_dist,
    reaction_rate,
    reaction_rate_with_error,
    structure_moment,
)
from pathway_toolkit.pathway import PathwayParams, pathway_pdf


class TestLogBeta:
    def test_against_40_digit_references(self):
        # log-uniform shapes from 1e-3 to 1e8: the shifted and Stirling branches and their seams
        rng = np.random.default_rng(2026)
        for p, q in zip(10 ** rng.uniform(-3, 8, 300), 10 ** rng.uniform(-3, 8, 300)):
            with mpmath.workdps(40):
                ref = mpmath.log(mpmath.beta(p, q))
            assert abs(melconv._log_beta(p, q) - float(ref)) <= 1e-15 * max(1.0, abs(float(ref)))

    @pytest.mark.parametrize("p, q", [(2.5, 1e6), (0.5, 1e3), (12.0, 10.0), (10.0, 9.99)])
    def test_where_betaln_loses_digits(self, p, q):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.beta(p, q)))
        assert abs(melconv._log_beta(p, q) - ref) <= 1e-15 * max(1.0, abs(ref))


class TestBuiltins:
    def test_uniform_moment(self):
        u = builtin_density("uniform01")
        assert u.moment(2.0) == pytest.approx(0.5, rel=1e-14)
        assert u.moment(4.0) == pytest.approx(0.25, rel=1e-14)

    def test_gamma_moment_is_gamma_function(self):
        # density x^0 e^-x has E(x^(s-1)) = Gamma(s); oracle by quadrature
        g = builtin_density("gamma", gamma=0.0)
        for s in (1.5, 2.0, 3.5):
            oracle = quad(lambda x: x ** (s - 1) * math.exp(-x), 0, math.inf)[0]
            assert g.moment(s) == pytest.approx(oracle, rel=1e-10)

    def test_all_kinds_normalized(self):
        kinds = [
            builtin_density("uniform01"),
            builtin_density("gamma", gamma=2.0),
            builtin_density("gen_gamma", gamma=1.5, a=2.0, delta=1.5),
            builtin_density("type1_beta", alpha=2.0, beta=3.0),
            builtin_density("type2_beta", alpha=2.5, beta=3.5),
        ]
        for k in kinds:
            assert k.moment(1.0) == pytest.approx(1.0, abs=1e-12)
            # pdf oracle is a genuine density
            lo, hi = k.support
            mass = quad(k.pdf_oracle, lo, hi if math.isfinite(hi) else math.inf)[0]
            assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kind,shape,params",
        [
            ("gen_gamma", dict(gamma=1.5, a=2.0, delta=1.5), (1.0, 1.5, 1.5, 2.0, 1.0)),
            ("gen_gamma", dict(gamma=-0.3, a=0.2, delta=0.7), (1.0, -0.3, 0.7, 0.2, 1.0)),
            ("gen_gamma", dict(gamma=0.0, a=1.0, delta=1.0), (1.0, 0.0, 1.0, 1.0, 1.0)),
            ("type2_beta", dict(alpha=2.5, beta=3.5), (2.0, 1.5, 1.0, 1.0, 6.0)),
        ],
    )
    def test_oracle_is_the_pathway_pdf(self, kind, shape, params):
        # a stock kind that is a pathway law has that law's pdf, bit for bit,
        # at x = 0, past where y = a x^delta overflows, and off the support
        x = np.concatenate([[-1.0, 0.0, 1e-300, 1e160, 1e250, np.inf],
                            np.linspace(0.01, 6.0, 200)])
        oracle = builtin_density(kind, **shape).pdf_oracle(x)
        assert oracle.tobytes() == pathway_pdf(PathwayParams(*params), x).tobytes()

    def test_oracle_past_the_double_range_is_zero(self):
        gg = builtin_density("gen_gamma", gamma=1.5, a=2.0, delta=1.5)
        assert gg.pdf_oracle(1e250) == 0.0

    @pytest.mark.parametrize(
        "kind,shape,at_zero",
        [
            ("uniform01", {}, 1.0),
            ("gamma", dict(gamma=0.0), 1.0),  # e^-x
            ("gamma", dict(gamma=-0.5), math.inf),
            ("gamma", dict(gamma=2.0), 0.0),
            ("type1_beta", dict(alpha=0.3, beta=1.0), math.inf),
            ("type1_beta", dict(alpha=1.0, beta=3.0), 3.0),
        ],
    )
    def test_oracle_at_zero_follows_the_x_power(self, kind, shape, at_zero):
        # x^gamma decides at x = 0: C for gamma = 0, inf below, 0 above
        assert builtin_density(kind, **shape).pdf_oracle(0.0) == pytest.approx(at_zero, rel=1e-15)

    def test_invalid_shapes(self):
        with pytest.raises(DomainError):
            builtin_density("gamma", gamma=-1.5)
        with pytest.raises(DomainError):
            builtin_density("type1_beta", alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            builtin_density("nosuch")
        with pytest.raises(DomainError):
            builtin_density("gamma")  # missing shape key
        with pytest.raises(DomainError, match="must be numbers"):
            builtin_density("gamma", gamma=True)  # JSON true is not 1
        with pytest.raises(DomainError, match="overflows a double"):
            builtin_density("gamma", gamma=1e307)  # Gamma(1e307 + 1) is past a double
        with pytest.raises(DomainError):
            builtin_density("type1_beta", alpha=1e308, beta=1e308)  # p + q overflows
        with pytest.raises(DomainError, match="total mass 1"):
            builtin_density("type1_beta", alpha=1.0, beta=1e308)  # a finite constant, NaN moment

    def test_strip_must_contain_one(self):
        with pytest.raises(DomainError):
            MomentDensity("bad", lambda s: 1.0 / s, strip=(2.0, 3.0))

    def test_moment_at_one_must_be_total_mass_one(self):
        with pytest.raises(DomainError, match="total mass 1"):
            MomentDensity("half", lambda s: 0.5 / s, strip=(0.0, 2.0))
        with pytest.raises(DomainError, match="total mass 1"):
            MomentDensity("x", lambda s: s * np.nan, strip=(0.0, 2.0))


class TestStructureMoment:
    def test_single_uniform(self):
        spec = ProductSpec(numerator=[(builtin_density("uniform01"), 1.0)])
        assert structure_moment(spec, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_two_uniforms_multiply(self):
        u = builtin_density("uniform01")
        spec = ProductSpec(numerator=[(u, 1.0), (u, 1.0)])
        assert structure_moment(spec, 2.0) == pytest.approx(0.25, rel=1e-14)

    def test_ratio_normalization(self):
        g = builtin_density("gamma", gamma=0.0)
        spec = ProductSpec(numerator=[(g, 1.0)], denominator=[(g, 1.0)])
        assert structure_moment(spec, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_outside_strip_reports(self):
        u = builtin_density("uniform01")
        spec = ProductSpec(numerator=[(u, 1.0)], denominator=[(u, 1.0)])
        # denominator uniform needs s < 2
        with pytest.raises(DomainError):
            structure_moment(spec, 3.0)

    def test_exponents_positive(self):
        with pytest.raises(DomainError):
            ProductSpec(numerator=[(builtin_density("uniform01"), -1.0)])

    def test_needs_a_factor(self):
        with pytest.raises(DomainError, match="at least one factor"):
            ProductSpec()

    @staticmethod
    def mixed_spec():
        # u = x1^2 * x2^0.5 / x3^1.5 with Exp, U(0, 1) and type-2 beta factors
        return ProductSpec(
            numerator=[
                (builtin_density("gamma", gamma=0.0), 2.0),
                (builtin_density("uniform01"), 0.5),
            ],
            denominator=[(builtin_density("type2_beta", alpha=2.5, beta=3.5), 1.5)],
        )

    def test_strip_with_non_unit_exponents(self):
        # Exp: 1 + 2 (s - 1) > 0; type-2 beta (-1.5, 4.5) at 1 - 1.5 (s - 1)
        lo, hi = self.mixed_spec().common_strip()
        assert (lo, hi) == (0.5, 1 + 2.5 / 1.5)
        assert hi == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_complex_argument_matches_closed_form(self):
        s = 1.2 + 0.7j
        z1, z2, z3 = 1 + 2.0 * (s - 1), 1 + 0.5 * (s - 1), 1 - 1.5 * (s - 1)
        closed = (
            cgamma(z1) / z2
            * cgamma(2.5 + z3 - 1) * cgamma(3.5 - z3 + 1) / (cgamma(2.5) * cgamma(3.5))
        )
        got = structure_moment(self.mixed_spec(), s)
        assert isinstance(got, complex)
        assert abs(got - closed) <= 1e-14 * abs(closed)

    def test_support(self):
        u = builtin_density("uniform01")
        e = builtin_density("gamma", gamma=0.0)
        assert ProductSpec(numerator=[(u, 2.0), (u, 0.5)]).support() == (0.0, 1.0)
        assert ProductSpec(numerator=[(u, 1.0), (e, 1.0)]).support() == (0.0, math.inf)
        ratio = ProductSpec(numerator=[(u, 1.0)], denominator=[(u, 1.0)])
        assert ratio.support() == (0.0, math.inf)

    def test_exponential_ratio_density(self):
        # X/Y for independent Exp(1) variables has density 1 / (1 + u)^2
        e = builtin_density("gamma", gamma=0.0)
        spec = ProductSpec(numerator=[(e, 1.0)], denominator=[(e, 1.0)])
        dens = product_moment_density(spec)
        for u in (0.1, 1.0, 3.0):
            assert abs(dens.density(u) - 1.0 / (1.0 + u) ** 2) <= 1e-12

    def test_matches_monte_carlo(self):
        # u = x1 * x2^0.5 / x3 with gamma, type-1 beta, type-1 beta factors
        g = builtin_density("gamma", gamma=1.5)
        b1 = builtin_density("type1_beta", alpha=2.0, beta=3.0)
        b2 = builtin_density("type1_beta", alpha=5.0, beta=2.0)
        spec = ProductSpec(numerator=[(g, 1.0), (b1, 0.5)], denominator=[(b2, 1.0)])
        rng = np.random.default_rng(2718)
        n = 200_000
        u = (
            rng.gamma(2.5, size=n)
            * rng.beta(2.0, 3.0, size=n) ** 0.5
            / rng.beta(5.0, 2.0, size=n)
        )
        for s in (1.5, 2.0, 3.0):
            samples = u ** (s - 1.0)
            se = samples.std() / math.sqrt(n)
            assert abs(structure_moment(spec, s) - samples.mean()) <= 3.0 * se


class TestMellinInvert:
    def test_uniform_density_recovered(self):
        u = builtin_density("uniform01")
        val = mellin_invert(u.moment_fn, 0.5, 1.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_product_of_two_uniforms(self):
        u = builtin_density("uniform01")
        spec = ProductSpec(numerator=[(u, 1.0), (u, 1.0)])
        dens = product_moment_density(spec)
        # elementary convolution oracle: integral_u^1 dv/v = -ln u; small u
        # puts a fast phase e^(-i t ln u) on every panel, and the result must
        # still meet the inversion's own target 1e-8 (1 + |g|)
        for x in (0.004, 0.03, 0.1, 0.5, 0.9, 0.97):
            oracle = quad(lambda v: 1.0 / v, x, 1.0)[0]
            assert oracle == pytest.approx(-math.log(x), rel=1e-12)
            assert dens.density(x) == pytest.approx(oracle, abs=1e-8 * (1.0 + oracle))

    def test_gamma_closed_form_point(self):
        g2 = builtin_density("gamma", gamma=2.0)
        assert g2.density(1.0) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-8)

    @pytest.mark.parametrize(
        "kind,shape,points",
        [
            ("uniform01", {}, np.linspace(0.05, 0.95, 20)),
            ("gamma", dict(gamma=2.0), np.linspace(0.2, 6.0, 20)),
            ("gen_gamma", dict(gamma=1.5, a=2.0, delta=1.5), np.linspace(0.1, 2.5, 20)),
            ("type1_beta", dict(alpha=2.0, beta=3.0), np.linspace(0.05, 0.95, 20)),
            ("type2_beta", dict(alpha=2.5, beta=3.5), np.linspace(0.1, 4.0, 20)),
        ],
    )
    def test_round_trip(self, kind, shape, points):
        dens = builtin_density(kind, **shape)
        vals = mellin_invert(dens.moment_fn, points, default_contour(dens.strip))
        assert np.all(np.abs(vals - dens.pdf_oracle(points)) <= 1e-6)

    def test_scalar_only_moment_callable(self):
        val = mellin_invert(lambda s: 1.0 / s, 0.5, 1.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("error", [DomainError, ZeroDivisionError])
    def test_probe_error_propagates(self, error):
        # moment functions take arrays: an error from the first contour call
        # is raised as is, with no retry point by point
        calls = []

        def moment(s):
            calls.append(np.shape(s))
            raise error("contour outside the strip")

        with pytest.raises(error, match="contour outside the strip"):
            mellin_invert(moment, 0.5, 1.0)
        assert len(calls) == 1

    def test_rejects_nonpositive_u(self):
        with pytest.raises(DomainError):
            mellin_invert(lambda s: 1.0 / s, 0.0, 1.0)

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_rejects_non_finite_u(self, u):
        with pytest.raises(DomainError):
            mellin_invert(lambda s: 1.0 / s, u, 1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_c(self, c):
        # a nan abscissa used to reach the sweep and raise ConvergenceError with bound nan
        with pytest.raises(DomainError, match="abscissa"):
            mellin_invert(lambda s: 1.0 / s, 0.5, c)

    @pytest.mark.parametrize(
        "num, den, u",
        [
            ([("uniform01", {})] * 2, [], 1e-320),  # contour at c = 1
            ([("gamma", {"gamma": 0.7})], [("gamma", {"gamma": 2.5})], 1e-300),  # c = 1.9
        ],
        ids=["uniform_product", "gamma_ratio"],
    )
    def test_scale_past_double_range_is_convergence_error(self, num, den, u):
        def factors(side):
            return [(builtin_density(kind, **shape), 1.0) for kind, shape in side]

        dens = product_moment_density(ProductSpec(factors(num), factors(den)))
        with pytest.raises(ConvergenceError) as err:  # u^-c overflows
            dens.density(u)
        assert err.value.bound == math.inf

    def test_left_infinite_strip(self):
        # 1/U: strip (-inf, 2), contour at 1; density 1/u^2 on (1, inf)
        dens = product_moment_density(
            ProductSpec(denominator=[(builtin_density("uniform01"), 1.0)])
        )
        assert default_contour(dens.strip) == 1.0
        for u in (1.5, 3.0, 10.0):
            assert dens.density(u) == pytest.approx(u**-2, rel=1e-8)
        assert abs(dens.density(0.5)) < 1e-8

    def test_whole_line_strip(self):
        mu, sigma = 0.3, 0.8
        dens = MomentDensity(
            "lognormal",
            lambda s: np.exp(mu * (s - 1) + sigma**2 * (s - 1) ** 2 / 2),
            (-math.inf, math.inf),
        )
        assert default_contour(dens.strip) == 1.0
        for u in (0.2, 0.7, 1.0, 1.3, 2.5, 6.0):
            exact = math.exp(-((math.log(u) - mu) ** 2) / (2 * sigma**2)) / (
                u * sigma * math.sqrt(2 * math.pi)
            )
            assert dens.density(u) == pytest.approx(exact, rel=1e-12, abs=1e-14)

    def test_slow_decay_without_oscillation_fails_cleanly(self):
        # 1/s decays like 1/t and u = 1 gives no oscillation to lean on
        with pytest.raises(ConvergenceError) as err:
            mellin_invert(lambda s: 1.0 / s, 1.0, 1.0)
        assert err.value.bound is not None

    def test_rounding_past_the_target_raises_with_a_covering_bound(self):
        # u = x1^2 / x2^(1/2): the strip midpoint c = 4.61 is far from the saddle point
        # of u^-s M(s) near 1, and the contour sum cancels from about e^24 down to g
        x1, x2 = builtin_density("gamma", gamma=-0.434), builtin_density("gamma", gamma=2.751)
        dens = product_moment_density(ProductSpec([(x1, 2.0)], [(x2, 0.5)]))
        assert default_contour(dens.strip) == pytest.approx(4.6095)
        with mpmath.workdps(30):
            g1, g2, u = mpmath.mpf("-0.434"), mpmath.mpf("2.751"), mpmath.mpf("0.0202")

            def f(x, g):
                return x**g * mpmath.exp(-x) / mpmath.gamma(g + 1)

            # g(u) = integral of f_v(u w) f_w(w) w dw, v = x1^2 and w = sqrt(x2)
            ref = float(mpmath.quad(lambda w: f(mpmath.sqrt(u * w), g1) / mpmath.sqrt(u * w)
                                    * f(w * w, g2) * w * w, [0, 1, 2, 4, mpmath.inf]))
        assert ref == pytest.approx(5.0925254745, rel=1e-10)
        with pytest.raises(ConvergenceError, match="rounding") as err:
            dens.density(0.0202)
        assert abs(err.value.partial - ref) <= err.value.bound < 1e-3

    def test_first_failing_u_in_flat_order_raises(self):
        # u = 1 has no oscillation (found after the sweeps), 1e-320 a u^-c past the
        # double range (found first): the error is that of the earlier u
        us = np.array([0.5, 1.0, 1e-320])
        with pytest.raises(ConvergenceError, match=r"at u = 1\.0 "):
            mellin_invert(lambda s: 1.0 / s, us, 1.0)
        with pytest.raises(ConvergenceError, match="double range"):
            mellin_invert(lambda s: 1.0 / s, us[::-1], 1.0)
        g, i, err = mellin_invert(lambda s: 1.0 / s, us, 1.0, first_fault=True)
        assert i == 1 and "no usable oscillation" in str(err)
        assert g[0] == pytest.approx(1.0, abs=1e-8) and math.isnan(g[2])
        g, i, err = mellin_invert(lambda s: 1.0 / s, us[:1], 1.0, first_fault=True)
        assert (i, err) == (1, None) and g == pytest.approx([1.0], abs=1e-8)


def _two_uniforms():
    u01 = builtin_density("uniform01")
    return product_moment_density(ProductSpec(numerator=[(u01, 1.0), (u01, 1.0)]))


def _gamma_ratio():
    return product_moment_density(ProductSpec(
        numerator=[(builtin_density("gamma", gamma=0.7), 1.0)],
        denominator=[(builtin_density("gamma", gamma=2.5), 1.0)],
    ))


class TestBatchedInversion:
    """An array of u is one inversion: one shared sweep, a per-point exit, and a
    tail run step by step for the points still open; it must give the per-point
    values."""

    def test_scalar_gives_float(self):
        dens = _two_uniforms()
        assert type(dens.density(0.5)) is float
        assert type(dens.density(np.float64(0.5))) is float
        assert type(mellin_invert(lambda s: 1.0 / s, 0.5, 1.0)) is float

    @pytest.mark.parametrize(
        "dens, us",
        [
            (_two_uniforms(), np.linspace(0.02, 0.98, 12)),  # tail for every point
            (_gamma_ratio(), np.geomspace(0.05, 5.0, 12)),  # exit in the sweep
            (random_volume_dist(3, [(2.0, 2.7)]), np.linspace(0.01, 0.95, 12)),
            (builtin_density("type2_beta", alpha=2.5, beta=0.7), np.geomspace(1e-3, 30, 12)),
        ],
        ids=["two_uniforms", "gamma_ratio", "beta_volume", "type2_beta_heavy_tail"],
    )
    def test_vector_matches_scalar_calls(self, dens, us):
        one_by_one = np.array([dens.density(float(u)) for u in us])
        batch = dens.density(us)
        assert batch.shape == us.shape
        assert np.all(np.abs(batch - one_by_one) <= 1e-8 * (1.0 + np.abs(one_by_one)))
        grid = dens.density(us.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), batch)
        assert dens.density(us[:1]).shape == (1,)

    @pytest.mark.parametrize(
        "beta, us",
        [
            (7.5, [0.02, 0.9]),  # 0.9 leaves in the sweep, 0.02 (u^-c 45 times larger) in the tail
            (4.5, [0.3, 0.9]),  # both leave in the tail
        ],
        ids=["sweep_and_tail", "tail_only"],
    )
    def test_sweep_and_tail_exits_match_per_point_calls(self, beta, us):
        dens = random_volume_dist(1, [(1.0, beta)])
        us = np.array(us)
        batch = dens.density(us)
        one_by_one = np.array([dens.density(float(u)) for u in us])
        assert np.all(np.abs(batch - one_by_one) <= 1e-14 * (1.0 + np.abs(one_by_one)))
        exact = dens.pdf_oracle(us)
        assert np.all(np.abs(batch - exact) <= 1e-8 * (1.0 + np.abs(exact)))

    def test_empty_array(self):
        assert _two_uniforms().density(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_mixed_batch_rejects_a_bad_u(self, bad):
        with pytest.raises(DomainError, match="finite u > 0"):
            _two_uniforms().density(np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize(
        "dens, tiny", [(_two_uniforms(), 1e-320), (_gamma_ratio(), 1e-300)],
        ids=["uniform_product", "gamma_ratio"],
    )
    def test_mixed_batch_scale_past_double_range(self, dens, tiny):
        with pytest.raises(ConvergenceError, match="double range") as err:
            dens.density(np.array([0.5, tiny]))
        assert err.value.bound == math.inf

    def test_mixed_batch_without_oscillation_names_its_u(self):
        with pytest.raises(ConvergenceError, match=r"at u = 1\.0 ") as err:
            mellin_invert(lambda s: 1.0 / s, np.array([0.5, 1.0, 0.25]), 1.0)
        with pytest.raises(ConvergenceError) as alone:
            mellin_invert(lambda s: 1.0 / s, 1.0, 1.0)
        assert err.value.bound == pytest.approx(alone.value.bound, rel=1e-12)

    def test_tail_failure_names_its_u(self):
        def moment(s):  # a term that never decays: no tail settles
            return 1.0 / s + 1e-2 * np.cos(s.imag) ** 2

        with pytest.raises(ConvergenceError, match=r"settle by step h = 2\^-6 at u = 0.5 ") as err:
            mellin_invert(moment, np.array([0.5, 2.0]), 1.0)
        with pytest.raises(ConvergenceError) as alone:
            mellin_invert(moment, 0.5, 1.0)
        assert err.value.partial == pytest.approx(alone.value.partial, rel=1e-12)
        assert err.value.bound == pytest.approx(alone.value.bound, rel=1e-6)

    def test_tail_groups_give_the_same_values(self, monkeypatch):
        # a cap of 100 nodes a moment call runs each tail step in blocks of five u or fewer
        dens = _two_uniforms()
        us = np.concatenate((np.linspace(0.99, 0.999, 5), np.linspace(0.3, 0.7, 5)))
        whole = dens.density(us)
        monkeypatch.setattr(melconv, "_TAIL_CALL_NODES", 100)
        assert np.array_equal(dens.density(us), whole)
        assert np.all(np.abs(whole + np.log(us)) <= 1e-8 * (1.0 - np.log(us)))

    @pytest.mark.parametrize("dens", [_gamma_ratio(), _two_uniforms()], ids=["sweep", "tail"])
    def test_moment_calls_do_not_grow_with_points(self, dens):
        # one call for the sweep and one per tail step, shared by the batch: as
        # many calls as its slowest point makes alone (|ln u| <= pi keeps the
        # chunk length 1 for every batch below)
        def calls(us):
            count = []

            def moment(s):
                count.append(1)
                return dens.moment_fn(s)

            mellin_invert(moment, us, default_contour(dens.strip))
            return len(count)

        us = np.linspace(0.1, 3.0, 40)
        assert calls(us) == max(calls(u) for u in us)


class TestContourTail:
    """The contour past t = 128, one moment call a step: Ooura & Mori's double-exponential
    rule for Fourier integrals, or the exp-sinh rule where |ln u| < 1e-6."""

    def test_each_step_integrates_the_reference_pair(self):
        # the integrals of cos x / (1 + x^2) and x sin x / (1 + x^2) over x > 0 are both
        # pi / 2e; the error falls with each halving of the step, down to rounding
        exact = math.pi / (2 * math.e)
        errors = []
        for k in range(melconv._TAIL_STEPS):
            y, w, n_cos = melconv._fourier_rule(k)
            cosine = np.sum(w[:n_cos] / (1 + y[:n_cos] ** 2))
            sine = np.sum(w[n_cos:] * y[n_cos:] / (1 + y[n_cos:] ** 2))
            errors.append(max(abs(cosine - exact), abs(sine - exact)))
        assert errors[0] > errors[1] > errors[2] > errors[3]
        assert max(errors[3:]) <= 1e-14

    def test_each_exp_sinh_step_integrates_the_reference_pair(self):
        # the integrals of e^-x and 1 / (1 + x)^3 over x > 0 are 1 and 1/2
        errors = []
        for k in range(melconv._TAIL_STEPS):
            x, w, n = melconv._exp_sinh_rule(k)
            assert n == x.size
            errors.append(max(abs(np.sum(w * np.exp(-x)) - 1), abs(np.sum(w / (1 + x) ** 3) - 0.5)))
        assert errors[0] > errors[1] > errors[2] > errors[3]
        assert max(errors[4:]) <= 1e-14

    @staticmethod
    def _counted(dens, u):
        calls = []

        def moment(s):
            calls.append(np.size(s))
            return dens.moment_fn(s)

        return mellin_invert(moment, u, default_contour(dens.strip)), len(calls)

    @pytest.mark.parametrize(
        "dens, u, exact",
        [
            (_two_uniforms(), 0.99999, -math.log(0.99999)),
            (_two_uniforms(), 1 - 2e-6, -math.log1p(-2e-6)),
            (_two_uniforms(), 1 + 2e-6, 0.0),
            (builtin_density("uniform01"), 0.99999, 1.0),
            (_two_uniforms(), 1 - 1e-7, -math.log1p(-1e-7)),  # the exp-sinh rule's, from here
            (_two_uniforms(), 1 + 1e-7, 0.0),
            (_two_uniforms(), 1.0, 0.0),
        ],
        ids=["uu_1e-5", "uu_below_2e-6", "uu_above_2e-6", "u_1e-5", "uu_below_1e-7",
             "uu_above_1e-7", "uu_at_1"],
    )
    def test_u_near_one_settles_within_the_step_count(self, dens, u, exact):
        # the moment decays like 1/t^2 or 1/t while the phase turns once per 1 / |ln u|
        # (and not at all at u = 1): within target after the sweep and at most seven
        # tail steps
        g, calls = self._counted(dens, u)
        assert abs(g - exact) <= 1e-8 * (1 + abs(exact))
        assert calls <= 1 + 7

    @pytest.mark.parametrize("delta", [5.0, 10.0, 50.0])
    @pytest.mark.parametrize("u", [1.0, 1 - 5e-7, 1 + 5e-7, 1 - 1e-9, 1 + 1e-12])
    def test_u_within_1e_6_of_one(self, delta, u):
        # |M| falls like e^(-pi t / 2 delta), on past t = 128 from delta = 10, where the
        # phase turns too slowly to lean on
        dens = builtin_density("gen_gamma", gamma=0.5, a=1.0, delta=delta)
        exact = dens.pdf_oracle(np.array([u]))[0]
        assert abs(dens.density(u) - exact) <= 1e-8 * (1 + exact)

    @pytest.mark.parametrize("size", [1.0, 0.015])
    def test_slow_decay_at_one_raises_with_bound_inf(self, size):
        # size s^-1.5 is past the sweep's target at t = 128 and has no phase at u = 1; its
        # inverse, size (-ln u)^(1/2) / Gamma(3/2), is 0 there.  At size 0.015 the exp-sinh
        # steps agree within the target and their sum is 1.4e-8: only |M| past the last
        # node, 2 t^-0.5 size there, keeps it from returning
        with pytest.raises(ConvergenceError, match="no usable oscillation") as err:
            mellin_invert(lambda s: size * s**-1.5, 1.0, 1.0)
        assert err.value.bound == math.inf and abs(err.value.partial) < 1e-6 * size

    def test_an_exit_in_the_sweep_makes_no_tail_call(self):
        assert self._counted(_gamma_ratio(), np.geomspace(0.05, 5.0, 12))[1] == 1

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_slow_oscillating_decay_near_one(self, gamma):
        # z = (gamma + s) / 200 makes |M| decay like e^(-pi t / 400), still about 0.4 at
        # the sweep's end, with a phase that turns ever faster, like (t / 200) ln t
        dens = builtin_density("gen_gamma", gamma=gamma, a=1.0, delta=200.0)
        us = np.array([0.99, 0.999, 1.001, 1.01])
        exact = dens.pdf_oracle(us)
        assert np.all(np.abs(dens.density(us) - exact) <= 1e-8 * (1 + exact))


class TestReactionRate:
    def test_gamma_integral_row(self):
        assert reaction_rate(2.0, 3.0, 0.0) == pytest.approx(2.0 / 27.0, rel=1e-10)

    def test_inverse_substitution_case(self):
        assert reaction_rate(-2.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_case_110_against_oracle(self):
        # independent oracle: direct scipy quadrature without the splitting
        oracle = quad(
            lambda x: math.exp(-x - 1.0 / math.sqrt(x)), 0.0, math.inf, limit=500
        )[0]
        val = reaction_rate(0.0, 1.0, 1.0, route="quadrature")
        assert val == pytest.approx(oracle, rel=1e-8)
        assert reaction_rate(0.0, 1.0, 1.0, route="mellin") == pytest.approx(
            val, rel=1e-6
        )

    def test_route_grid_agreement(self):
        for g in (-0.5, 0.0, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                for b in (0.5, 1.0, 2.0):
                    q = reaction_rate(g, a, b, route="quadrature")
                    m = reaction_rate(g, a, b, route="mellin")
                    assert abs(q - m) <= 1e-6 * abs(q)
                    assert reaction_rate(g, a, b, route="both") == q

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reaction_rate(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            reaction_rate(-1.5, 1.0, 0.0)  # b = 0 needs gamma > -1
        with pytest.raises(DomainError):
            reaction_rate(0.0, 0.0, 1.0)  # a = 0 needs gamma < -1
        with pytest.raises(DomainError):
            reaction_rate(0.0, 1.0, 1.0, route="nosuch")

    @pytest.mark.parametrize(
        "g, a, b", [(1.0, math.nan, 0.0), (1.0, 1.0, math.nan), (math.nan, 1.0, 0.0)]
    )
    def test_nan_arguments_rejected(self, g, a, b):
        with pytest.raises(DomainError):  # the closed form would return nan
            reaction_rate(g, a, b, route="mellin")

    @pytest.mark.parametrize("route", ["mellin", "quadrature"])
    @pytest.mark.parametrize(
        "g, a, b", [(0.0, math.inf, 1.0), (0.0, 1.0, math.inf), (math.inf, 1.0, 1.0),
                    (-math.inf, 1.0, 1.0)],
    )
    def test_infinite_arguments_rejected(self, g, a, b, route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            with pytest.raises(DomainError, match="finite"):
                reaction_rate(g, a, b, route=route)

    @pytest.mark.parametrize(
        "g, a, b", [(0.0, 10.0, 20.0), (-0.5, 0.5, 0.5), (1.0, 2.0, 2.0), (2.0, 0.5, 20.0),
                    (0.0, 2.0, 0.5), (1.5, 10.0, 0.5)],
    )
    def test_mellin_error_estimate_covers_the_error(self, g, a, b):
        # the estimate is the inversion target 1e-8 (1 + |g|) in value units;
        # 1e-8 |value| missed the actual error at (0, 10, 20) by a factor 1.85
        with mpmath.workdps(30):
            ref = mpmath.quad(
                lambda x: x**g * mpmath.exp(-a * x - b / mpmath.sqrt(x)),
                [0, *(mpmath.mpf(10) ** k for k in range(-4, 3)), mpmath.inf],
            )
        val, err = reaction_rate_with_error(g, a, b, route="mellin")
        assert abs(val - float(ref)) <= err

    @pytest.mark.parametrize(
        "g, a, b", [(200.0, 1e-5, 1.0), (200.0, 1e-5, 0.0), (-300.0, 0.0, 1e-5)]
    )
    def test_rate_past_double_range_is_inf(self, g, a, b):
        # Gamma(202) / a^202 at a = 1e-5 overflows, and so do the closed forms
        # Gamma(201) / a^201 and 2 Gamma(598) / b^598: inf on every route
        for route in ("mellin", "quadrature", "both"):
            assert reaction_rate(g, a, b, route=route) == math.inf

    @pytest.mark.parametrize("g, a, b, rate", [
        (1e307, 1e300, 0.0, math.inf), (1e306, 2.0, 0.0, math.inf), (1e307, 1e308, 0.0, 0.0),
        (-1e307, 0.0, 1e300, math.inf), (-1e307, 0.0, 1e308, 0.0)])
    def test_closed_form_past_the_double_range_is_inf_or_zero(self, g, a, b, rate):
        # ln Gamma(p) and p ln(scale) are both inf here, and their difference decides the
        # sign: Gamma(p) / scale^p is e^(+-1e308) or more, never nan
        assert reaction_rate_with_error(g, a, b, route="mellin") == (rate, rate)
        if rate == 0.0:
            assert reaction_rate(g, a, b) == 0.0

    def test_mellin_route_is_a_product_of_two_stock_laws(self):
        # u = x1 x2 with x1 ~ gen_gamma(gamma+1, a, 1) and x2 ~ gen_gamma(0, 1, 1/2)
        # has density c1 c2 I(gamma, a, sqrt(u)), 1 / (c1 c2) = 2 Gamma(gamma+2) / a^(gamma+2)
        half = builtin_density("gen_gamma", gamma=0.0, a=1.0, delta=0.5)
        for g in (-0.5, 0.0, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                x1 = builtin_density("gen_gamma", gamma=g + 1, a=a, delta=1.0)
                dens = product_moment_density(ProductSpec(numerator=[(x1, 1.0), (half, 1.0)]))
                scale = 2.0 * math.exp(gammaln(g + 2) - (g + 2) * math.log(a))
                for b in (0.5, 1.0, 2.0):
                    assert reaction_rate(g, a, b, route="mellin") == pytest.approx(
                        dens.density(b * b) * scale, rel=1e-12)

    @pytest.mark.parametrize("g, a, b",
                             [(0.0, 1e-150, 1.0), (1.0, 1e-100, 1.0), (0.0, 1e-300, 1.0)])
    def test_mellin_rounding_at_tiny_a_raises_in_rate_units(self, g, a, b):
        # u = a b^2 puts u^-c far past the sum's size: the rounding passes the target,
        # and the partial value and bound come back in rate units, formed in logs
        q = reaction_rate(g, a, b)
        assert q == pytest.approx(a ** -(g + 1), rel=1e-12)
        where = f"gamma = {g}, a = {a}, b = {b}.*rounding"
        with pytest.raises(ConvergenceError, match=where) as err:
            reaction_rate_with_error(g, a, b, route="mellin")
        assert abs(err.value.partial - q) <= err.value.bound

    def test_mellin_value_at_huge_a_is_covered(self):
        # the rate, about e^(-8.8e6), is 0; the inversion's noise at u = 1e20 lies in its estimate
        val, err = reaction_rate_with_error(0.0, 1e20, 1.0, route="mellin")
        assert reaction_rate(0.0, 1e20, 1.0) == 0.0
        assert abs(val) <= err < 1e-27

    @pytest.mark.parametrize("a, b", [(1.0, 1e-300), (1e300, 1e300)])
    def test_mellin_u_outside_the_double_range_names_its_point(self, a, b):
        # u = a b^2 underflows to 0 or overflows to inf; no RuntimeWarning on the way
        where = re.escape(f"outside the double range at gamma = 1.0, a = {a}, b = {b}")
        with pytest.raises(ConvergenceError, match=where) as err:
            reaction_rate(1.0, a, b, route="mellin")
        assert err.value.bound == math.inf

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mellin_grid_raises_the_loops_first_error(self, seed):
        # tiny a fails by rounding in two gamma groups, b = 1e-300 puts u = a b^2 at 0,
        # and gamma <= -2 or Gamma(gamma + 2) past a double is a DomainError of the route;
        # the rows in shuffled orders
        rows = [(0.0, 1.0, 1.0), (1.0, 1e-100, 1.0), (0.0, 1e-150, 1.0), (1.0, 1.0, 1e-300),
                (-2.5, 1.0, 1.0), (1.0, 1.0, 1.0), (1e306, 1.0, 1.0)]
        rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
        errors = []
        for point in rows:
            try:
                reaction_rate(*point, route="mellin")
            except (DomainError, ConvergenceError) as exc:
                errors.append(exc)
        with pytest.raises(type(errors[0])) as got:
            reaction_rate(*np.transpose(rows), route="mellin")
        assert str(got.value) == str(errors[0])

    @pytest.mark.parametrize("g", [1e300, 1e304, 2.5e305])
    def test_mellin_estimate_past_the_double_range_raises(self, g):
        # the moment loggamma(z) - gammaln(gamma + 2) cancels, g underflows to 0, and the
        # scale a^-(gamma+1) / (c1 c2) is past a double: 0 with an infinite estimate
        # says nothing, so the point raises with bound inf
        where = re.escape(f"gamma = {g}, a = 1.0, b = 1.0 gives 0.0 with an error estimate past")
        with pytest.raises(ConvergenceError, match=where) as err:
            reaction_rate_with_error(g, 1.0, 1.0, route="mellin")
        assert err.value.bound == math.inf and err.value.partial == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mellin_estimate_fault_in_a_grid_is_the_loops_first(self, seed):
        rows = [(1.0, 1.0, 1.0), (1e300, 1.0, 1.0), (1e304, 2.0, 1.0), (0.0, 1e-150, 1.0)]
        rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
        errors = []
        for point in rows:
            try:
                reaction_rate(*point, route="mellin")
            except ConvergenceError as exc:
                errors.append(exc)
        with pytest.raises(ConvergenceError) as got:
            reaction_rate(*np.transpose(rows), route="mellin")
        assert str(got.value) == str(errors[0])

    @pytest.mark.parametrize(
        "g, a, b", [(1.5, 2.0, 0.0), (0.0, 0.5, 0.0), (-2.5, 0.0, 1.5), (-3.0, 0.0, 0.5)]
    )
    def test_closed_form_when_a_or_b_vanishes(self, g, a, b):
        q = reaction_rate(g, a, b, route="quadrature")
        assert reaction_rate(g, a, b, route="mellin") == pytest.approx(q, rel=1e-12)
        assert reaction_rate(g, a, b, route="both") == q

    def test_routes_that_disagree_raise(self, monkeypatch):
        q = reaction_rate(1.0, 1.0, 1.0)
        monkeypatch.setattr(melconv, "_reaction_mellin", lambda g, a, b, fault: (
            np.full(g.size, 1.01 * q), np.zeros(g.size), g.size, fault))
        with pytest.raises(ConvergenceError, match="disagree") as err:
            reaction_rate(1.0, 1.0, 1.0, route="both")
        assert err.value.partial == q
        assert err.value.bound == pytest.approx(0.01 * q, rel=1e-12)

    def test_error_estimate_is_honest(self):
        val, err = reaction_rate_with_error(1.0, 1.0, 1.0)
        oracle = quad(
            lambda x: x * math.exp(-x - 1.0 / math.sqrt(x)), 0.0, math.inf, limit=500
        )[0]
        assert abs(val - oracle) <= max(err, 1e-9) * 10


class TestKratzel:
    def test_plain_gamma_integral(self):
        assert kratzel_g1(1.0, 2.0, 0.0) == pytest.approx(0.25, rel=1e-10)

    def test_bessel_closed_form(self):
        # g1(gamma, a, y) = 2 (y/a)^((gamma+1)/2) K_(gamma+1)(2 sqrt(a y))
        for g, a, y in [(0.0, 1.0, 1.0), (1.0, 2.0, 0.5), (0.5, 1.5, 2.0),
                        (-0.5, 0.8, 1.2), (2.0, 1.0, 3.0)]:
            nu = g + 1.0
            ref = 2.0 * (y / a) ** (nu / 2.0) * kv(nu, 2.0 * math.sqrt(a * y))
            assert kratzel_g1(g, a, y) == pytest.approx(ref, rel=1e-8)

    def test_bessel_point_example(self):
        assert kratzel_g1(0.0, 1.0, 1.0) == pytest.approx(2.0 * kv(1, 2.0), rel=1e-10)

    def test_inverse_gaussian_normalizer(self):
        assert kratzel_g1(-1.5, 1.0, 1.0) == pytest.approx(
            math.sqrt(math.pi) * math.exp(-2.0), rel=1e-10
        )

    def test_g2_reductions(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = rng.uniform(-0.5, 2.0)
            a = rng.uniform(0.3, 2.5)
            y = rng.uniform(0.2, 2.5)
            g1 = kratzel_g1(g, a, y)
            rr = reaction_rate(g, a, y, route="quadrature")
            assert abs(kratzel_g2(g, a, y, 1.0, 1.0) - g1) <= 1e-10 * abs(g1)
            assert abs(kratzel_g2(g, a, y, 1.0, 0.5) - rr) <= 1e-10 * abs(rr)

    def test_generalized_gamma_case(self):
        # y = 0, alpha = 2, gamma = 1, a = 1: Gamma(1)/2
        assert kratzel_g2(1.0, 1.0, 0.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_negative_beta_branch(self):
        oracle = quad(
            lambda x: math.sqrt(x) * math.exp(-x - 0.7 * x**1.5), 0, math.inf
        )[0]
        assert kratzel_g2(0.5, 1.0, 0.7, 1.0, -1.5) == pytest.approx(oracle, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kratzel_g1(0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            kratzel_g1(-1.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            kratzel_g2(0.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            kratzel_g2(-1.5, 1.0, 1.0, 1.0, -0.5)

    @pytest.mark.parametrize(
        "args, match",
        [((-1.0, 0.0, 1.0, 1.0, -0.5), "integrability at 0"),
         ((0.5, 0.0, 0.0, 1.0, -0.5), "a = 0 needs"),
         ((0.5, 0.0, 0.0, 1.0, 1.0), "a = 0 needs"), ((-1.0, 0.0, 1.0, 1.0, 1.0), "a = 0 needs")],
        ids=["beta_negative", "beta_negative_y_zero", "y_zero", "gamma_minus_1"],
    )
    def test_a_zero_domain_edges(self, args, match):
        # a = 0 needs y > 0, and gamma < -1 where beta > 0 (gamma > -1 where beta < 0),
        # alone and inside a grid
        for point in (args, np.transpose([(0.0, 1.0, 1.0, 1.0, 1.0), args])):
            with pytest.raises(DomainError, match=match):
                kratzel_g2(*point)

    @pytest.mark.parametrize("sign, seed, gammas", [(1, 7, (-4, -1.05)), (-1, 8, (-0.95, 4))],
                             ids=["beta_positive", "beta_negative"])
    def test_a_zero_against_30_digit_closed_form(self, sign, seed, gammas):
        # x^gamma exp(-y x^(-beta)) integrates to Gamma(p) / (|beta| y^p), p = (-gamma-1)/beta;
        # with beta < 0 the y term decays at infinity, and no rewrite in 1/x is needed
        u = np.random.default_rng(seed).uniform
        n = 200
        g, y, al, be = u(*gammas, n), 10 ** u(-2, 2, n), u(0.3, 3, n), sign * u(0.2, 4, n)
        val, err = kratzel_g2_with_error(g, 0.0, y, al, be)
        with mpmath.workdps(30):
            for point in zip(g, y, be, val, err):
                gi, yi, bi, v, e = (mpmath.mpf(c) for c in point)
                p = (-gi - 1) / bi
                ref = mpmath.gamma(p) / (abs(bi) * yi**p)
                assert abs(v - ref) <= min(e, 1e-14 * ref)

    @pytest.mark.parametrize(
        "args", [(math.inf, 1.0, 1.0, 1.0, 1.0), (0.0, math.inf, 1.0, 1.0, 1.0),
                 (0.0, 1.0, math.inf, 1.0, 1.0), (0.0, 1.0, 1.0, math.inf, 1.0),
                 (0.0, 1.0, 1.0, 1.0, -math.inf), (math.nan, 1.0, 1.0, 1.0, 1.0)],
    )
    def test_non_finite_arguments_rejected(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                kratzel_g2(*args)

    def test_with_error_variant(self):
        v1, e1 = kratzel_g2_with_error(0.7, 1.3, 0.9)
        assert v1 == kratzel_g1(0.7, 1.3, 0.9)
        assert e1 < 1e-8


# ---------------------------------------------------------------------------
# the half-line rule against 30-digit references


def _mp_quad_in_log(g, a, y, al, be):
    """30-digit Gauss-Legendre quadrature in t = ln x of
    exp((g+1) t - a e^(al t) - y e^(-be t)), for y > 0 and be > 0, over the
    window where the log-integrand lies within 60 of its peak.  Pieces are
    halved until each one's error estimate is below 1e-20 of the total."""
    ts = np.linspace(-200.0, 200.0, 40001)
    with np.errstate(over="ignore"):
        v = (g + 1) * ts - a * np.exp(al * ts) - y * np.exp(-be * ts)
    inside = np.flatnonzero(v > v.max() - 60.0)
    assert 0 < inside[0] and inside[-1] < ts.size - 1  # the window fits

    def f(t):
        return mpmath.exp((g + 1) * t - a * mpmath.exp(al * t) - y * mpmath.exp(-be * t))

    edges = mpmath.linspace(ts[inside[0] - 1], ts[inside[-1] + 1], 5)
    total = mpmath.quad(f, edges, method="gauss-legendre")
    todo, out = list(zip(edges[:-1], edges[1:])), mpmath.mpf(0)
    while todo:
        lo, hi = todo.pop()
        part, err = mpmath.quad(f, [lo, hi], method="gauss-legendre", error=True)
        if err <= 1e-20 * total:
            out += part
        else:
            todo += [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
    return out


def _mp_series(g, a, y, be):
    """The beta < 0, alpha = 1 integral as its convergent series
    sum_k (-y)^k Gamma(g+1+k|be|) / (k! a^(g+1+k|be|)), summed with enough
    digits to absorb the cancellation between its largest terms."""
    b = -be
    k = np.arange(5000)
    p = g + 1 + k * b
    log_terms = k * math.log(y) + gammaln(p) - gammaln(k + 1) - p * math.log(a)
    with mpmath.workdps(30 + int(max(log_terms.max(), 0.0) / 2.3)):
        g, a, y, b = (mpmath.mpf(v) for v in (g, a, y, b))
        total, k, term = mpmath.mpf(0), 0, mpmath.mpf(1)
        while k < 20 or abs(term) > 1e-35 * abs(total):
            p = g + 1 + k * b
            term = (-y) ** k * mpmath.gamma(p) / (mpmath.factorial(k) * a**p)
            total += term
            k += 1
        return +total


def _kratzel_reference(g, a, y, al, be):
    """30-digit value of the integral of x^g exp(-a x^al - y x^(-be)):
    closed forms where there is one, the series for beta < 0, else
    quadrature in ln x (not in x, which misses part of the mass for
    beta < 0, e.g. by 1.1e-3 at (-0.955, 0.819, 2.138, -0.641))."""
    with mpmath.workdps(30):
        if y == 0:
            p = (mpmath.mpf(g) + 1) / al
            return mpmath.gamma(p) / (al * mpmath.mpf(a) ** p)
        if al == 1 and be == 1:
            nu = mpmath.mpf(g) + 1
            z = 2 * mpmath.sqrt(mpmath.mpf(a) * y)
            return 2 * (mpmath.mpf(y) / a) ** (nu / 2) * mpmath.besselk(nu, z)
        if al == 1 and be < 0:
            return _mp_series(g, a, y, be)
        return _mp_quad_in_log(g, a, y, al, be)


def _reference_points():
    """(gamma, a, y, alpha, beta) over the regimes of the half-line rule."""
    u = np.random.default_rng(6).uniform
    sets = [
        (70, lambda: (u(-2.5, 3), u(0.1, 5), u(0.05, 5), 1.0, 1.0)),  # g1
        (30, lambda: (u(-1.5, 3), u(0.1, 5), u(0.05, 5), 1.0, 0.5)),  # reaction rate
        (40, lambda: (u(-0.9, 3), u(0.1, 5), u(0.05, 5), u(0.4, 3), u(0.3, 2))),
        (40, lambda: (u(-0.99, 2), u(0.5, 3), u(0.01, 2.5), 1.0, -u(0.1, 0.7))),
        (40, lambda: (-1 + 10 ** u(-3, 0.5), u(0.05, 20), 0.0, u(0.4, 3), u(0.3, 2))),
        (45, lambda: (u(-2, 3), u(20, 200), u(20, 200), 1.0, 1.0)),  # large a, y
        (35, lambda: (u(-0.5, 3), u(0.1, 5), 10 ** u(-12, -3), 1.0, 1.0)),  # tiny y
        (5, lambda: (u(-0.5, 3), u(0.1, 5), 10 ** u(-12, -3), u(0.4, 3), u(0.3, 2))),
    ]
    return [draw() for n, draw in sets for _ in range(n)]


class TestHalflineRule:
    def test_against_30_digit_references(self):
        points = _reference_points()
        assert len(points) >= 300
        # two batched calls: the reaction-rate rows, and the other Kratzel rows
        rate = np.array([(al, be) == (1.0, 0.5) for *_, al, be in points])
        cols = np.array(points).T
        results = np.empty((len(points), 2))
        results[rate] = np.transpose(reaction_rate_with_error(*cols[:3, rate]))
        results[~rate] = np.transpose(kratzel_g2_with_error(*cols[:, ~rate]))
        worst, dishonest = 0.0, []
        for (g, a, y, al, be), (val, err) in zip(points, results):
            ref = _kratzel_reference(g, a, y, al, be)
            actual = float(abs(mpmath.mpf(val) - ref))
            worst = max(worst, actual / float(ref))
            if err < actual:
                dishonest.append((g, a, y, al, be, err, actual))
        assert worst <= 1e-13
        assert not dishonest  # every error estimate covers the actual error

    def test_negative_beta_series_point(self):
        # the series and a 30-digit quadrature in ln x agree on this value;
        # quadrature in x does not reach the slow e^(0.045 t) left tail
        ref = _mp_series(-0.955, 0.819, 2.138, -0.641)
        assert float(ref) == pytest.approx(20.052102251102156, rel=1e-15)
        val, err = kratzel_g2_with_error(-0.955, 0.819, 2.138, 1.0, -0.641)
        assert abs(val - float(ref)) <= min(err, 1e-13 * float(ref))

    def test_b_zero_closed_form(self):
        g, a = 0.00014, 2.64
        closed = math.exp(gammaln(g + 1) - (g + 1) * math.log(a))
        assert abs(reaction_rate(g, a, 0.0) - closed) <= 1e-10 * closed

    @pytest.mark.parametrize("g", [-1.2, -2.0, -3.7])
    @pytest.mark.parametrize("b", [0.3, 1.0, 4.0])
    def test_reaction_rate_without_a(self, g, b):
        # a = 0 is integrated in 1/x: 2 Gamma(-2 gamma - 2) b^(2 gamma + 2)
        ref = 2 * mpmath.gamma(-2 * mpmath.mpf(g) - 2) * mpmath.mpf(b) ** (2 * g + 2)
        val, err = reaction_rate_with_error(g, 0.0, b)
        assert abs(val - float(ref)) <= min(err, 1e-13 * float(ref))

    def test_gaussian(self):
        val, err = integrate_halfline(lambda t: (-((t - 3.0) ** 2), 1.0))
        assert abs(val - math.sqrt(math.pi)) <= min(err, 1e-15)

    def test_integrand_is_evaluated_on_arrays(self):
        calls = []

        def log_g(t):
            calls.append(t)
            return 1.5 * t - np.exp(t) - 0.7 * np.exp(-t), 1.0

        integrate_halfline(log_g)
        assert all(isinstance(t, np.ndarray) and t.size >= 16 for t in calls)
        assert len(calls) < 40

    @pytest.mark.parametrize(
        "log_g",
        [lambda t: (0.5 * t, 1.0), lambda t: (-0.5 * t, 1.0), lambda t: (np.zeros_like(t), 1.0)],
        ids=["grows_right", "grows_left", "flat"],
    )
    def test_no_decay_raises(self, log_g):
        with pytest.raises(ConvergenceError):
            integrate_halfline(log_g)


def _mixed_grid(seed, n=40):
    """Seeded Kratzel columns (gamma, a, y, alpha, beta) mixing the reaction rate
    (alpha = 1, beta = 1/2) with a = 0, y = 0, beta < 0 and tiny y."""
    u = np.random.default_rng(seed).uniform
    kind = np.arange(n) % 5
    gamma = np.where(kind == 1, u(-4, -1.05, n), u(-0.9, 3, n))
    a = np.where(kind == 1, 0.0, u(0.05, 5, n))
    y = np.select([kind == 2, kind == 4], [0.0, 10 ** u(-13, -4, n)], u(0.05, 5, n))
    alpha = np.where(kind < 2, 1.0, u(0.3, 3, n))
    beta = np.select([kind < 2, kind == 3], [0.5, -u(0.1, 0.9, n)], u(0.3, 3, n))
    return gamma, a, y, alpha, beta


class TestHalflineBatch:
    """A grid is one batched half-line call, with the bytes and errors of a point loop."""

    @staticmethod
    def loop(f, *cols):
        return np.transpose([f(*point) for point in zip(*cols)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_is_the_loop(self, seed):
        cols = _mixed_grid(seed)
        assert (cols[1] == 0).any()
        assert np.array_equal(kratzel_g2_with_error(*cols), self.loop(kratzel_g2_with_error, *cols))

    def test_shapes(self):
        g = np.array([[0.0, 1.0, 2.0], [0.5, 1.5, 2.5]])
        val, err = kratzel_g2_with_error(g, 1.0, 0.0)  # Gamma(g + 1)
        assert val.shape == err.shape == (2, 3)
        assert val == pytest.approx(cgamma(g + 1), rel=1e-13)
        assert isinstance(kratzel_g2_with_error(1.0, 1.0, 0.0)[0], float)
        val, err = integrate_halfline(lambda t, mu: (-((t - mu) ** 2), 1.0), [3.0, -2.0, 10.0])
        assert val == pytest.approx(np.full(3, math.sqrt(math.pi)), abs=1e-15)

    @pytest.mark.parametrize("bad", ["convergence_first", "domain_first"])
    def test_failing_row_raises_the_loops_first_error(self, bad):
        # the second row's trapezoid sums still differ by 1.6e-9 at 65 536 nodes
        rows = [(0.0, 1.0, 1.0, 1.0, 1.0), (-1.33, 4.08e-274, 6.92e-66, 4.11, 18.0),
                (0.0, -1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 0.5, 1.0, 1.0)]
        if bad == "domain_first":
            rows[1], rows[2] = rows[2], rows[1]
        errors = []
        for point in rows:
            try:
                kratzel_g2_with_error(*point)
            except (DomainError, ConvergenceError) as exc:
                errors.append(exc)
        with pytest.raises(type(errors[0])) as got:
            kratzel_g2_with_error(*np.transpose(rows))
        assert str(got.value) == str(errors[0])

    @pytest.mark.parametrize("fault", ["quadrature", "disagree_first", "disagree_after"])
    def test_both_route_raises_the_loops_first_error(self, fault, monkeypatch):
        # the middle point's probe fails; with no bound its quadrature raises
        g, a, b = np.zeros(3), np.array([1.0, 1e300, 2.0]), np.array([1.0, 1e300, 0.5])
        q = [reaction_rate(0.0, 1.0, 1.0), 0.0, reaction_rate(0.0, 2.0, 0.5)]
        off = {"quadrature": None, "disagree_first": 0, "disagree_after": 2}[fault]
        mellin = {ai: qi * (1.01 if i == off else 1.0) for i, (ai, qi) in enumerate(zip(a, q))}
        monkeypatch.setattr(melconv, "_reaction_mellin", lambda g, a, b, fault: (
            np.array([mellin[ai] for ai in a]), np.zeros(a.size), a.size, fault))
        monkeypatch.setattr(melconv, "_kratzel_log_bound",
                            lambda g, *_: (np.full(g.shape, -math.inf), np.full(g.shape, math.inf)))
        with pytest.raises(ConvergenceError) as first:
            for point in zip(g, a, b):
                reaction_rate(*point, route="both")
        with pytest.raises(ConvergenceError) as got:
            reaction_rate(g, a, b, route="both")
        assert str(got.value) == str(first.value)
        assert ("disagree" in str(got.value)) == (fault == "disagree_first")

    def test_block_cap_splits_without_changing_bytes(self, monkeypatch):
        # each point three times, so that rows reach each level together; a cap of
        # 3 x 81 nodes makes groups of three rows, and splits every level past 81 nodes
        cols = _mixed_grid(4, n=30)
        cols = [np.repeat(c[cols[4] != 0.5], 3) for c in cols]
        whole = kratzel_g2_with_error(*cols)
        sizes, kratzel = [], melconv._kratzel_integrand

        def integrand(t, *c):
            sizes.append(t.shape)
            return kratzel(t, *c)

        monkeypatch.setattr(melconv, "_HL_BLOCK", 3 * 81)
        monkeypatch.setattr(melconv, "_kratzel_integrand", integrand)
        assert np.array_equal(kratzel_g2_with_error(*cols), whole)
        assert max(rows * nodes for rows, nodes in sizes if rows > 1) <= 3 * 81
        assert max(rows for rows, nodes in sizes if nodes > 81) == 1  # one row may pass it

    def test_probe_without_peak_underflows_to_zero(self):
        # the log-integrand peaks near -3e96, too sharp for any probe step
        point = (-0.17, 1.13e78, 1.13e145, 7.74, 20.87)
        assert kratzel_g2_with_error(*point) == (0.0, 0.0)
        rows = np.transpose([point, (1.0, 2.0, 0.0, 1.0, 1.0)])
        assert kratzel_g2_with_error(*rows)[0] == pytest.approx([0.0, 0.25], rel=1e-13)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_concave_bound_covers_the_integral(self, seed):
        cols = _mixed_grid(seed)
        cols = [c[cols[4] != 0.5] for c in cols]
        with np.errstate(all="ignore"):
            low, bound = np.exp(melconv._kratzel_log_bound(*melconv._kratzel_columns(*cols)))
        value = kratzel_g2(*cols)
        assert (low <= value).all() and (value <= bound).all() and (bound <= 10 * value).all()

    def test_probe_without_peak_past_the_double_range_is_inf(self):
        # t* = 1e12 ln(1e12) is past the probe's reach, and the integral, about
        # Gamma(1e12) 1e12 ~ e^(2.7e13), is past the double range, alone and in a grid
        point = (0.0, 1.0, 1.0, 1e-12, 1.0)
        assert kratzel_g2_with_error(*point) == (math.inf, math.inf)
        rows = np.transpose([(0.0, 1.0, 1.0, 1.0, 1.0), point, (1.0, 2.0, 0.0, 1.0, 1.0)])
        val, err = kratzel_g2_with_error(*rows)
        assert val == pytest.approx([2.0 * kv(1, 2.0), math.inf, 0.25], rel=1e-13)
        assert err[1] == math.inf and (err[::2] < 1e-14).all()


def _sweep_grid():
    """``param_sweeps``' reaction-rate and Kratzel grid shape: a = linspace(0.3, 3, 10) by
    b (or y) in {0.5, 1, 2, 3}, at gamma = 0.5."""
    a, b = np.meshgrid(np.linspace(0.3, 3.0, 10), [0.5, 1.0, 2.0, 3.0], indexing="ij")
    return 0.5, a.ravel(), b.ravel()


class TestKratzelPeak:
    """Kratzel rows start the half-line probe at their analytic peak."""

    @pytest.mark.parametrize("f", [reaction_rate_with_error, kratzel_g2_with_error])
    def test_a_sweep_grid_takes_one_probe_sweep(self, f, monkeypatch):
        # from the probe's default start, (0, 1/2), these grids took 6 and 5 sweeps
        sweeps, kratzel = [], melconv._kratzel_integrand

        def integrand(t, *c):
            if t.shape[1] == melconv._HL_PROBE.size:
                sweeps.append(t.shape[0])
            return kratzel(t, *c)

        monkeypatch.setattr(melconv, "_kratzel_integrand", integrand)
        f(*_sweep_grid())
        assert sweeps == [40]

    @pytest.mark.parametrize("wrong", ["far_and_fine", "nan"])
    def test_a_wrong_start_keeps_the_values(self, wrong, monkeypatch):
        gamma, a, b = _sweep_grid()
        cols = [np.concatenate(c) for c in zip(
            _mixed_grid(7), (np.full(a.size, gamma), a, b, np.ones(a.size), np.full(a.size, 0.5)))]
        value, err = kratzel_g2_with_error(*cols)
        start = melconv._kratzel_start

        def wrong_start(*c):
            centre, step = start(*c)
            if wrong == "nan":
                return np.full_like(centre, np.nan), step
            return centre + 5.0, np.full_like(step, 1e-3)

        monkeypatch.setattr(melconv, "_kratzel_start", wrong_start)
        moved, moved_err = kratzel_g2_with_error(*cols)
        assert (np.abs(moved - value) <= err + moved_err).all()

    def test_bracket_is_adjacent_doubles_around_the_40_digit_peak(self):
        # the fuzz domain of the half-line faults, with a quarter of the rows at beta < 0
        rng = np.random.default_rng(11)
        n = 100
        g, a, y = rng.uniform(-3, 3, n), 10 ** rng.uniform(-300, 300, n), 10 ** rng.uniform(-300, 300, n)
        alpha, beta = rng.uniform(0.1, 10, n), rng.uniform(0.1, 25, n) * np.where(np.arange(n) % 4, 1, -1)
        cols = melconv._kratzel_columns(np.where(beta < 0, np.abs(g), g), a, y, alpha, beta)
        with np.errstate(all="ignore"):
            lo, hi = melconv._kratzel_peak(*cols, close=True)
        assert (np.nextafter(lo, np.inf) >= hi).all()
        with mpmath.workdps(40):
            for row, left, right in zip(zip(*cols), lo, hi):
                g1, a, y, alpha, beta = (mpmath.mpf(v) for v in (row[0] + 1, *row[1:]))
                # phi' = (gamma+1) - a alpha e^(alpha t) + y beta e^(-beta t): its growing
                # and falling parts, each with the constant of its sign, compared in logs
                terms = [(a * alpha, alpha), (y * abs(beta), -beta)]

                def log_ratio(t):
                    grow = sum(c * mpmath.exp(r * t) for c, r in terms if r > 0) + max(0, -g1)
                    fall = sum(c * mpmath.exp(r * t) for c, r in terms if r < 0) + max(0, g1)
                    return mpmath.log(fall) - mpmath.log(grow)

                peak = mpmath.findroot(log_ratio, (mpmath.mpf(left) - 1, mpmath.mpf(right) + 1),
                                       solver="anderson")
                slack = 2e-14 * (1 + abs(peak))
                assert left - slack <= peak <= right + slack


class TestRandomVolume:
    def test_single_factor_is_beta(self):
        vol = random_volume_dist(1, [(2.0, 2.0)])
        us = np.array([0.2, 0.5, 0.8])
        assert vol.density(us) == pytest.approx(vol.pdf_oracle(us), abs=1e-7)

    def test_moment_normalized(self):
        vol = random_volume_dist(2, [(2.0, 2.0)])
        assert vol.moment(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_two_factor_density_matches_monte_carlo(self):
        vol = random_volume_dist(2, [(2.0, 2.0)])
        rng = np.random.default_rng(314159)
        n = 1_000_000
        draws = rng.beta(2.0, 2.0, size=(n, 2)).prod(axis=1)
        edges = np.linspace(0.05, 0.95, 13)
        counts, _ = np.histogram(draws, bins=edges)
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            # Simpson over the bin keeps the oracle bias far below the MC noise
            mid = 0.5 * (lo + hi)
            prob = (hi - lo) / 6.0 * (
                vol.density(lo) + 4.0 * vol.density(mid) + vol.density(hi)
            )
            p_hat = count / n
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(p_hat - prob) <= 3.0 * se

    def test_shape_broadcast_and_validation(self):
        with pytest.raises(DomainError):
            random_volume_dist(0, [(2.0, 2.0)])
        with pytest.raises(DomainError):
            random_volume_dist(3, [(2.0, 2.0), (1.0, 1.0)])


class TestNormalityTrend:
    def test_skewness_decreases(self):
        trend = normality_trend([2, 4, 8], (2.0, 2.0), 100_000, seed=20240815)
        mags = [abs(s) for _, s in trend]
        assert mags[0] > mags[1] > mags[2]

    def test_deterministic(self):
        a = normality_trend([2, 4], (2.0, 2.0), 10_000, seed=9)
        b = normality_trend([2, 4], (2.0, 2.0), 10_000, seed=9)
        assert a == b

    def test_sanity_band(self):
        (_, skew), = normality_trend([2], (2.0, 2.0), 100_000, seed=1)
        assert abs(skew) < 2.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shapes", [(2.0, 2.0), (1.5, 3.0), (0.5, 0.5)])
    def test_against_cumulant_skewness(self, shapes, seed):
        # k ln(beta) has cumulants k2 = k (psi'(a) - psi'(a+b)), k3 = k (psi''(a) - psi''(a+b));
        # ten standard errors of a sample skewness of n normal draws
        a, b = shapes
        n = 50_000
        for k, skew in normality_trend([2, 4, 8, 16], shapes, n, seed):
            k2 = k * (polygamma(1, a) - polygamma(1, a + b))
            k3 = k * (polygamma(2, a) - polygamma(2, a + b))
            assert abs(skew - k3 / k2**1.5) <= 10 * math.sqrt(6 / n)

    def test_each_count_reads_a_prefix_of_one_draw(self):
        # row k - 1 of the running sum depends only on the first k rows of the draw
        trend = dict(normality_trend([2, 4, 8, 16], (2.0, 3.0), 5_000, seed=4))
        for k in (2, 4, 8, 16):
            assert normality_trend([k], (2.0, 3.0), 5_000, seed=4) == [(k, trend[k])]

    def test_unsorted_and_repeated_counts_keep_the_callers_order(self):
        trend = dict(normality_trend([2, 4, 8], (2.0, 2.0), 5_000, seed=4))
        got = normality_trend([8, 2, 8, 4], (2.0, 2.0), 5_000, seed=4)
        assert got == [(k, trend[k]) for k in (8, 2, 8, 4)]

    def test_peak_memory_is_one_draw(self):
        # the log and the running sum are taken in place on the one (max k, n) array
        n, k_max = 20_000, 16
        tracemalloc.start()
        try:
            normality_trend([2, 4, 8, k_max], (2.0, 2.0), n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * k_max

    def test_k_validation(self):
        with pytest.raises(DomainError):
            normality_trend([1], (2.0, 2.0), 100, seed=0)
        with pytest.raises(DomainError, match="at least one factor count"):
            normality_trend([], (2.0, 2.0), 100, seed=0)

    @pytest.mark.parametrize("shapes", [(math.inf, 2.0), (2.0, math.nan)])
    def test_non_finite_shapes_rejected(self, shapes):
        with pytest.raises(DomainError):
            normality_trend([2, 4], shapes, 100, seed=0)

    @pytest.mark.parametrize("n", [1, 0, math.nan, math.inf, 2.5])
    def test_needs_two_draws(self, n):
        with pytest.raises(DomainError, match=r"^a skewness needs a whole number n >= 2 of draws"):
            normality_trend([2, 4], (2.0, 2.0), n, seed=0)

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    def test_factor_count_not_a_whole_number_rejected(self, k):
        with pytest.raises(DomainError, match=r"^factor counts must be whole numbers >= 2"):
            normality_trend([2, k], (2.0, 2.0), 100, seed=0)

    def test_zero_draws_raise(self):
        # at shapes (0.01, 0.01) seven of these draws are exactly 0, whose log is -inf
        with pytest.raises(DomainError, match=r"beta\(0\.01, 0\.01\) gave 7 draws of exactly 0"):
            normality_trend([2, 4], (0.01, 0.01), 5000, seed=0)
