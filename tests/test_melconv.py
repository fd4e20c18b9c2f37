import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, kv

from pathway_toolkit.errors import ConvergenceError, DomainError
from pathway_toolkit.melconv import (
    MomentDensity,
    ProductSpec,
    builtin_density,
    default_contour,
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

    def test_invalid_shapes(self):
        with pytest.raises(DomainError):
            builtin_density("gamma", gamma=-1.5)
        with pytest.raises(DomainError):
            builtin_density("type1_beta", alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            builtin_density("nosuch")
        with pytest.raises(DomainError):
            builtin_density("gamma")  # missing shape key

    def test_strip_must_contain_one(self):
        with pytest.raises(DomainError):
            MomentDensity("bad", lambda s: 1.0 / s, strip=(2.0, 3.0))


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
        # still meet the inversion's own target rel_tol (1 + |g|)
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
        c = default_contour(dens.strip)
        for u in points:
            val = mellin_invert(dens.moment_fn, u, c)
            assert abs(val - dens.pdf_oracle(u)) <= 1e-6

    def test_scalar_only_moment_callable(self):
        val = mellin_invert(lambda s: 1.0 / s, 0.5, 1.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("error", [DomainError, ZeroDivisionError])
    def test_probe_error_propagates(self, error):
        # only a scalars-only function's TypeError/ValueError falls back to
        # per-point calls; any other error on the array probe is raised as is
        shapes = []

        def moment(s):
            shapes.append(np.shape(s))
            raise error("contour outside the strip")

        with pytest.raises(error, match="contour outside the strip"):
            mellin_invert(moment, 0.5, 1.0)
        assert shapes == [(2,)]

    def test_rejects_nonpositive_u(self):
        with pytest.raises(DomainError):
            mellin_invert(lambda s: 1.0 / s, 0.0, 1.0)

    def test_slow_decay_without_oscillation_fails_cleanly(self):
        # 1/s decays like 1/t and u = 1 gives no oscillation to lean on
        with pytest.raises(ConvergenceError) as err:
            mellin_invert(lambda s: 1.0 / s, 1.0, 1.0)
        assert err.value.bound is not None


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

    def test_with_error_variant(self):
        v1, e1 = kratzel_g2_with_error(0.7, 1.3, 0.9)
        assert v1 == kratzel_g1(0.7, 1.3, 0.9)
        assert e1 < 1e-8


class TestRandomVolume:
    def test_single_factor_is_beta(self):
        vol = random_volume_dist(1, [(2.0, 2.0)])
        for u in (0.2, 0.5, 0.8):
            assert vol.density(u) == pytest.approx(vol.pdf_oracle(u), abs=1e-7)

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

    def test_k_validation(self):
        with pytest.raises(DomainError):
            normality_trend([1], (2.0, 2.0), 100, seed=0)
