"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import contextlib
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, kv

from pathway_toolkit.designstats import (
    IncidenceSystem,
    center_by_medians,
    chisquared_form_check,
    first_order_approx,
    ks_statistic,
    neumann_solve,
)
from pathway_toolkit.errors import DomainError
from pathway_toolkit.melconv import (
    ProductSpec,
    builtin_density,
    default_contour,
    kratzel_g1,
    kratzel_g2,
    mellin_invert,
    normality_trend,
    product_moment_density,
    reaction_rate,
)
from pathway_toolkit.pathway import (
    PathwayParams,
    havrda_charvat_entropy,
    mathai_entropy,
    pathway_pdf,
    shannon_entropy,
    tsallis_g,
    uniform_density,
    unit_exponential_density,
)
from pathway_toolkit.phyllotaxis import (
    SpiralConfig,
    emit_svg,
    generate_points,
    golden_angle,
    parastichy_pair,
)
from pathway_toolkit.specfun import MLParams, mittag_leffler


@contextlib.contextmanager
def criterion(number: int, label: str, runtime_budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if runtime_budget is not None:
        assert elapsed < runtime_budget, (
            f"criterion {number} took {elapsed:.1f}s, budget {runtime_budget}s"
        )
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_mittag_leffler_identities():
    with criterion(1, "Mittag-Leffler identity suite", runtime_budget=5.0):
        for x in np.linspace(-5.0, 5.0, 101):
            got = mittag_leffler(x, MLParams(alpha=1.0))
            assert abs(got - math.exp(x)) <= 1e-12 * math.exp(abs(x))
        for x in np.linspace(0.0, 5.0, 101):
            got = mittag_leffler(x * x, MLParams(alpha=2.0))
            assert abs(got - math.cosh(x)) <= 1e-12 * math.cosh(x)
        xs = np.linspace(-1.0, 3.0, 100)
        for alpha in (0.3, 0.7, 1.5):
            for beta in (0.5, 1.0, 2.0):
                for x in xs:
                    a = mittag_leffler(x, MLParams(alpha=alpha, beta=beta, gamma=1.0))
                    b = mittag_leffler(x, MLParams(alpha=alpha, beta=beta))
                    assert abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1e-300)


def test_criterion_2_pathway_normalization_limit_tsallis():
    with criterion(2, "pathway normalization / limit / Tsallis", runtime_budget=30.0):
        # 27-configuration grid: every integrable configuration has unit mass;
        # the five alpha = 1.5 configurations whose heavy tail is not
        # integrable (eta/(alpha-1) <= (gamma+1)/delta) must be rejected at
        # construction, since no constant can normalize them
        rejected = 0
        for alpha in (0.5, 1.0, 1.5):
            for gamma in (0.0, 1.0, 2.5):
                for delta in (0.5, 1.0, 2.0):
                    try:
                        params = PathwayParams(alpha=alpha, gamma=gamma, delta=delta)
                    except DomainError:
                        assert alpha > 1
                        assert 1.0 / (alpha - 1.0) <= (gamma + 1.0) / delta
                        rejected += 1
                        continue
                    hi = params.support_upper
                    mass = quad(
                        lambda x: pathway_pdf(params, x),
                        0.0,
                        hi if math.isfinite(hi) else math.inf,
                        limit=200,
                    )[0]
                    assert abs(mass - 1.0) <= 1e-8
        assert rejected == 5

        # family limit at alpha -> 1, monotone over the stated epsilons
        x = 0.7
        base = pathway_pdf(PathwayParams(alpha=1.0, gamma=1.0), x)
        for sign in (+1, -1):
            gaps = [
                abs(
                    pathway_pdf(PathwayParams(alpha=1.0 + sign * eps, gamma=1.0), x)
                    - base
                )
                for eps in (1e-2, 1e-3, 1e-4)
            ]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-3 * base

        # Tsallis differential property g' = -g^alpha
        h = 1e-5
        for alpha in (0.5, 1.5, 2.0):
            end = 2.0 if alpha >= 1 else min(2.0, 1.0 / (1.0 - alpha) - 0.1)
            for xx in np.linspace(0.0, end, 41):
                deriv = (tsallis_g(xx + h, alpha) - tsallis_g(xx - h, alpha)) / (2 * h)
                assert abs(deriv + tsallis_g(xx, alpha) ** alpha) <= 1e-6


def test_criterion_3_reaction_rate_dual_route():
    with criterion(3, "reaction-rate dual-route agreement", runtime_budget=60.0):
        for g in (-0.5, 0.0, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                for b in (0.5, 1.0, 2.0):
                    q = reaction_rate(g, a, b, route="quadrature")
                    m = reaction_rate(g, a, b, route="mellin")
                    assert abs(q - m) <= 1e-6 * abs(q)
        for g in (-0.5, 0.0, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                closed = math.exp(gammaln(g + 1.0) - (g + 1.0) * math.log(a))
                got = reaction_rate(g, a, 0.0, route="quadrature")
                assert abs(got - closed) <= 1e-10 * closed


def test_criterion_4_kratzel_reductions():
    with criterion(4, "Kratzel reductions and Bessel closed form"):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = rng.uniform(-0.5, 2.0)
            a = rng.uniform(0.3, 2.5)
            y = rng.uniform(0.2, 2.5)
            g1 = kratzel_g1(g, a, y)
            rr = reaction_rate(g, a, y, route="quadrature")
            assert abs(kratzel_g2(g, a, y, 1.0, 1.0) - g1) <= 1e-10 * abs(g1)
            assert abs(kratzel_g2(g, a, y, 1.0, 0.5) - rr) <= 1e-10 * abs(rr)
        for g, a, y in [
            (0.0, 1.0, 1.0),
            (1.0, 2.0, 0.5),
            (0.5, 1.5, 2.0),
            (-0.5, 0.8, 1.2),
            (2.0, 1.0, 3.0),
        ]:
            nu = g + 1.0
            closed = 2.0 * (y / a) ** (nu / 2.0) * kv(nu, 2.0 * math.sqrt(a * y))
            assert abs(kratzel_g1(g, a, y) - closed) <= 1e-8 * abs(closed)


def test_criterion_5_mellin_round_trip():
    with criterion(5, "Mellin inversion round-trip"):
        cases = [
            (builtin_density("uniform01"), np.linspace(0.05, 0.95, 20)),
            (builtin_density("gamma", gamma=2.0), np.linspace(0.2, 6.0, 20)),
            (
                builtin_density("gen_gamma", gamma=1.5, a=2.0, delta=1.5),
                np.linspace(0.1, 2.5, 20),
            ),
            (
                builtin_density("type1_beta", alpha=2.0, beta=3.0),
                np.linspace(0.05, 0.95, 20),
            ),
            (
                builtin_density("type2_beta", alpha=2.5, beta=3.5),
                np.linspace(0.1, 4.0, 20),
            ),
        ]
        for dens, points in cases:
            got = mellin_invert(dens.moment_fn, points, default_contour(dens.strip))
            assert np.all(np.abs(got - dens.pdf_oracle(points)) <= 1e-6)
        u01 = builtin_density("uniform01")
        two = product_moment_density(
            ProductSpec(numerator=[(u01, 1.0), (u01, 1.0)])
        )
        us = np.linspace(0.05, 0.95, 19)
        assert np.all(np.abs(two.density(us) - (-np.log(us))) <= 1e-6)


def test_criterion_6_anova_solver():
    with criterion(6, "ANOVA solver on randomized systems"):
        rng = np.random.default_rng(616)
        sizes = [3, 5, 8]
        for trial in range(100):
            p = sizes[trial % 3]
            system = IncidenceSystem(
                A=rng.dirichlet(np.full(p, 2.0), size=p),
                G=rng.standard_normal(p),
            )
            centered = center_by_medians(system)
            assert centered.norm < 1.0
            alpha, _, _ = neumann_solve(system, tol=1e-14)
            dense = np.linalg.solve(np.eye(p) - centered.B, system.G)
            assert np.max(np.abs(alpha - dense)) <= 1e-10
            mean_norm = float(
                np.max(np.abs(system.A - system.A.mean(axis=1)[:, None]).sum(axis=1))
            )
            assert centered.norm <= mean_norm + 1e-15
            approx, bound = first_order_approx(system)
            assert np.max(np.abs(dense - approx)) <= bound + 1e-12


def test_criterion_7_chisquaredness_monte_carlo():
    with criterion(7, "chi-squaredness Monte Carlo", runtime_budget=30.0):
        n = 100_000
        critical = 1.63 / math.sqrt(n)
        identity = chisquared_form_check(np.eye(3), n=n, seed=7)
        assert identity["idempotent"] and identity["rank"] == 3
        assert identity["ks_stat"] < critical
        projector = chisquared_form_check(np.diag([1.0, 1.0, 0.0]), n=n, seed=7)
        assert projector["idempotent"] and projector["rank"] == 2
        assert projector["ks_stat"] < critical
        bad = np.diag([1.0, 0.5, 0.0])
        report = chisquared_form_check(bad, n=n, seed=7)
        assert not report["idempotent"]
        assert report["consistent"]
        rng = np.random.default_rng(7)
        X = rng.standard_normal((n, 3))
        q = np.einsum("ij,jk,ik->i", X, bad, X)
        for dof in (1, 2, 3):
            assert ks_statistic(q, dof=dof) > critical


def test_criterion_8_random_volume_normality_trend():
    with criterion(8, "random-volume normality trend"):
        trend = normality_trend([2, 4, 8], (2.0, 2.0), 100_000, seed=20240815)
        mags = [abs(s) for _, s in trend]
        assert mags[0] > mags[1] > mags[2]


def test_criterion_9_phyllotaxis(tmp_path):
    with criterion(9, "phyllotaxis pattern"):
        g = (math.sqrt(5.0) - 1.0) / 2.0
        root_deg = 360.0 * g / (1.0 + g)
        assert abs(math.degrees(golden_angle()) - root_deg) <= 1e-6

        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        consecutive = set(zip(fib[:-1], fib[1:]))
        pts = generate_points(SpiralConfig(n_points=300))
        for window in [(50, 120), (150, 300)]:
            pair = tuple(sorted(parastichy_pair(pts, window)))
            assert pair in consecutive

        rational = generate_points(
            SpiralConfig(n_points=300, divergence=2.0 * math.pi / 5.0)
        )
        left, right = parastichy_pair(rational, (150, 300))
        assert left == right == 5
        assert tuple(sorted((left, right))) not in consecutive

        cfg = SpiralConfig(n_points=300)
        out = tmp_path / "pattern.svg"
        emit_svg(generate_points(cfg), cfg, out)
        circles = ET.parse(out).getroot().findall(
            ".//{http://www.w3.org/2000/svg}circle"
        )
        assert len(circles) == 300


def test_criterion_10_entropy_limits():
    with criterion(10, "entropy limits"):
        exp_density = unit_exponential_density()
        shannon = shannon_entropy(exp_density)

        # Mathai's functional has denominator alpha - 1: plain-log limit
        m_lo = mathai_entropy(exp_density, 0.999)
        m_hi = mathai_entropy(exp_density, 1.001)
        assert m_lo < shannon < m_hi
        assert abs(m_lo - shannon) <= 1e-2 * shannon
        assert abs(m_hi - shannon) <= 1e-2 * shannon

        # the Havrda-Charvat denominator 2^(1-alpha) - 1 makes its limit the
        # Shannon entropy in binary units (divide by ln 2)
        shannon_bits = shannon / math.log(2.0)
        h_hi = havrda_charvat_entropy(exp_density, 0.999)
        h_lo = havrda_charvat_entropy(exp_density, 1.001)
        assert h_lo < shannon_bits < h_hi
        assert abs(h_lo - shannon_bits) <= 1e-2 * shannon_bits
        assert abs(h_hi - shannon_bits) <= 1e-2 * shannon_bits

        u = uniform_density()
        assert havrda_charvat_entropy(u, 2.0) == 0.0
        assert havrda_charvat_entropy(u, 0.5) == 0.0
        assert mathai_entropy(u, 1.5) == 0.0
        assert mathai_entropy(u, 0.5) == 0.0
