import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad
from scipy.special import erfcx

from pathway_toolkit import specfun
from pathway_toolkit.errors import ConvergenceError, DomainError
from pathway_toolkit.specfun import (
    MLParams,
    Partition,
    gen_pochhammer,
    log_gamma,
    matrix_gamma,
    mittag_leffler,
    pochhammer,
)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestPochhammer:
    def test_order_zero_is_one(self):
        for b in (-3.0, 0.0, 0.17, 42.0):
            assert pochhammer(b, 0) == 1.0

    def test_examples(self):
        assert pochhammer(1.0, 4) == 24.0
        assert pochhammer(2.0, 3) == 24.0

    def test_zero_when_stepping_over_nonpositive_integer(self):
        assert pochhammer(-2.0, 4) == 0.0
        assert pochhammer(-2.0, 2) == 2.0  # (-2)(-1), stops before zero

    @given(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        st.integers(0, 20),
    )
    def test_recurrence(self, b, k):
        # (b)_{k+1} = (b)_k * (b + k)
        assert pochhammer(b, k + 1) == pytest.approx(
            pochhammer(b, k) * (b + k), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("k", [0, 2])
    def test_nan_b_rejected(self, k):
        with pytest.raises(DomainError, match="nan"):
            pochhammer(math.nan, k)

    @pytest.mark.parametrize("k", [math.nan, math.inf, 1.5, -1])
    def test_bad_order_rejected(self, k):
        with pytest.raises(DomainError, match="order"):
            pochhammer(1.0, k)

    def test_product_back_in_range_after_overflow(self):
        # (-172 + ulp)(-171 + ulp)...(1 + ulp): past the double range before its one tiny
        # factor, about 2.8e-14, brings it back
        got = pochhammer(-172 + math.ulp(172.0), 173)
        assert got == pytest.approx(6.06675905821146322901785786205e297, rel=1e-12)

    @pytest.mark.parametrize("b, k", [(-200.0, 1000), (-171.0, 300), (-3.0, 10**15),
                                      (0.0, 10**15), (-0.0, 1)])
    def test_zero_set_past_overflow(self, b, k):
        assert pochhammer(b, k) == 0.0

    @pytest.mark.parametrize("b", [0.5, -0.5, 1e300, -1e300, -1e6 + 0.5, -170.25, math.inf])
    def test_order_does_not_set_the_cost(self, b):
        cost = min(_timed(pochhammer, b, 10**15) for _ in range(3))
        assert cost < 1e-3
        assert math.isinf(pochhammer(b, 10**15))


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


class TestGenPochhammer:
    def test_zero_partition(self):
        assert gen_pochhammer(3.0, Partition((0, 0, 0))) == 1.0
        assert Partition((0, 0, 0)).weight == 0 and Partition((2, 0, 3)).weight == 5

    @given(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        st.integers(0, 8),
    )
    def test_single_part_reduces_to_pochhammer(self, a, k):
        assert gen_pochhammer(a, Partition((k,))) == pochhammer(a, k)

    def test_hand_expansion(self):
        # (2)_1 * (1.5)_1 = 2 * 1.5
        assert gen_pochhammer(2.0, Partition((1, 1))) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("parts", [(), (0, 0), (2, 1)])
    def test_nan_a_rejected(self, parts):
        with pytest.raises(DomainError, match="nan"):
            gen_pochhammer(math.nan, Partition(parts))

    @pytest.mark.parametrize("parts", [(1000,), (1000, 1000), (10**15, 3)])
    def test_zero_part_past_overflow(self, parts):
        # (-200)_1000 is 0; (-200.5)_1000 is past the double range, and 0 * inf is nan
        assert gen_pochhammer(-200.0, Partition(parts)) == 0.0

    def test_negative_parts_rejected(self):
        with pytest.raises(DomainError):
            Partition((1, -1))


class TestMatrixGamma:
    def test_p1_reduces_to_gamma(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            assert matrix_gamma(1, a) == pytest.approx(
                math.exp(log_gamma(a)), rel=1e-14
            )

    def test_p2_value(self):
        # pi^(1/2) * Gamma(1.5) * Gamma(1) = pi / 2
        assert matrix_gamma(2, 1.5) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_boundary_excluded(self):
        with pytest.raises(DomainError):
            matrix_gamma(2, 0.5)
        for p in (0, 1.5):
            with pytest.raises(DomainError, match="positive integer"):
                matrix_gamma(p, 3.0)

    def test_against_scipy_multigammaln(self):
        from scipy.special import multigammaln

        for p, a in [(2, 1.7), (3, 2.2), (4, 3.9)]:
            assert math.log(matrix_gamma(p, a)) == pytest.approx(
                multigammaln(a, p), rel=1e-13
            )

    @given(st.integers(1, 8), st.floats(1e-3, 20.0))
    def test_against_the_product_of_gammas(self, p, excess):
        # the definition term by term, in logs, as the reference
        a = (p - 1) / 2 + excess
        log_ref = 0.25 * p * (p - 1) * math.log(math.pi) + sum(
            log_gamma(a - 0.5 * j) for j in range(p))
        assert math.log(matrix_gamma(p, a)) == pytest.approx(log_ref, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("p,a", [(2, 200.0), (1, 172.0), (5, 1e300)])
    def test_past_double_range_is_inf(self, p, a):
        # the suite turns a RuntimeWarning into an error
        assert matrix_gamma(p, a) == math.inf

    def test_largest_finite_value(self):
        # Gamma(171) = 170!, just inside the double range; exp(706) carries the
        # log's rounding 706 eps
        assert matrix_gamma(1, 171.0) == pytest.approx(math.factorial(170), rel=1e-12)


class TestMittagLeffler:
    def test_alpha1_is_exp(self):
        for x in np.linspace(-5, 5, 101):
            val = mittag_leffler(x, MLParams(alpha=1.0))
            assert abs(val - math.exp(x)) <= 1e-12 * math.exp(abs(x))

    def test_alpha2_is_cosh_sqrt(self):
        for x in np.linspace(0, 25, 101):
            val = mittag_leffler(x, MLParams(alpha=2.0))
            ref = math.cosh(math.sqrt(x))
            assert abs(val - ref) <= 1e-12 * ref

    def test_two_parameter_form(self):
        # E_{1,2}(x) = (e^x - 1)/x
        assert mittag_leffler(1.0, MLParams(alpha=1.0, beta=2.0)) == pytest.approx(
            math.e - 1.0, rel=1e-13
        )

    def test_gamma_one_matches_two_parameter(self):
        xs = np.linspace(-1.0, 3.0, 100)
        for alpha in (0.3, 0.7, 1.5):
            for beta in (0.5, 1.0, 2.0):
                explicit = MLParams(alpha=alpha, beta=beta, gamma=1.0)
                plain = MLParams(alpha=alpha, beta=beta)
                for x in xs:
                    a = mittag_leffler(x, explicit)
                    b = mittag_leffler(x, plain)
                    assert abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1e-300)

    def test_half_order_erfc_identity(self):
        # E_{1/2}(x) = exp(x^2) erfc(-x); erfc from an independent
        # quadrature oracle rather than our own series
        erfc_m1 = 1.0 + (2.0 / math.sqrt(math.pi)) * quad(
            lambda t: math.exp(-t * t), 0.0, 1.0
        )[0]
        ref = math.e * erfc_m1
        assert mittag_leffler(1.0, MLParams(alpha=0.5)) == pytest.approx(
            ref, rel=1e-12
        )

    def test_truncation_soundness(self, monkeypatch):
        cases = [
            (1.0, MLParams(alpha=1.0)),
            (12.5, MLParams(alpha=0.7, beta=1.3)),
            (-3.0, MLParams(alpha=1.5, beta=0.5, gamma=2.0)),
            (0.8, MLParams(alpha=0.4, beta=2.0, gamma=0.5, uppers=(1.5,), lowers=(2.5,))),
        ]
        v1 = [mittag_leffler(x, params) for x, params in cases]
        monkeypatch.setattr(specfun, "MAX_TERMS", 20_000)
        for v, (x, params) in zip(v1, cases):
            v2 = mittag_leffler(x, params)
            assert abs(v - v2) <= 1e-13 * (1.0 + abs(v))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            MLParams(alpha=-1.0)
        with pytest.raises(DomainError):
            MLParams(alpha=1.0, beta=0.0)
        with pytest.raises(DomainError):
            MLParams(alpha=1.0, lowers=(-2.0,))
        with pytest.raises(DomainError):
            MLParams(alpha=1.0, uppers=(1.0, 2.0), lowers=())  # r > s + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "uppers", "lowers"])
    def test_non_finite_parameter_names_its_field(self, field, bad):
        kwargs = dict(alpha=1.0, uppers=(1.5,), lowers=(2.5,))
        kwargs[field] = (bad,) if field in ("uppers", "lowers") else bad
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            MLParams(**kwargs)

    def test_nonpositive_integer_gamma_terminates_series(self):
        # gamma = -2 zeroes every term from k = 3 on: a polynomial in x
        p = MLParams(alpha=1.0, beta=1.0, gamma=-2.0)
        x = 0.7
        ref = sum(
            pochhammer(-2.0, k) * x**k / (math.factorial(k) * math.gamma(1.0 + k))
            for k in range(3)
        )
        assert mittag_leffler(x, p) == pytest.approx(ref, rel=1e-14)

    def test_convergence_error_reports_partial(self, monkeypatch):
        p = MLParams(alpha=0.05, beta=1.0)
        monkeypatch.setattr(specfun, "MAX_TERMS", 50)
        with pytest.raises(ConvergenceError) as err:
            mittag_leffler(40.0, p)
        assert err.value.partial is not None
        assert err.value.bound is not None

    def test_overflowing_term_raises_convergence_error(self):
        # E_{1/2}(-40) = exp(1600) erfc(40) ~ 0.014, but the series terms
        # pass the double range before they cancel
        with pytest.raises(ConvergenceError) as err:
            mittag_leffler(-40.0, MLParams(alpha=0.5))
        assert math.isfinite(err.value.partial)
        assert err.value.bound == math.inf

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.array([1.0, math.nan])])
    def test_non_finite_argument_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            mittag_leffler(x, MLParams(alpha=1.0))


def series_loop(x, params, term_cap=10_000):
    """Term-by-term reference: the Pochhammer prefactor c_k updated one
    factor at a time in log form, and terms summed until three in a row
    are negligible."""
    total, log_c, sign_c, small_run = 0.0, 0.0, 1.0, 0
    for k in range(term_cap):
        if sign_c == 0.0:
            return total
        log_term = log_c + k * math.log(abs(x)) - math.lgamma(params.beta + params.alpha * k)
        term = sign_c * (-1.0 if x < 0 and k % 2 else 1.0) * math.exp(log_term)
        total += term
        small_run = small_run + 1 if abs(term) <= 1e-16 * (1.0 + abs(total)) else 0
        if small_run == 3:
            return total
        for f in (params.gamma + k, *(a + k for a in params.uppers)):
            sign_c = math.copysign(sign_c, sign_c * f) if f else 0.0
            log_c += math.log(abs(f)) if f else 0.0
        log_c -= math.log(k + 1.0) + sum(math.log(abs(b + k)) for b in params.lowers)
    raise AssertionError("reference series did not settle")


def ml_mpmath(x, alpha, beta, gamma):
    """E^gamma_{alpha,beta}(x) summed with enough digits to absorb the
    cancellation of terms as large as e^(|x|^(1/alpha))."""
    dps = 30 + int(abs(x) ** (1.0 / alpha) / 2.3)
    with mpmath.workdps(dps):
        x, total, coef, k = mpmath.mpf(x), mpmath.mpf(0), mpmath.mpf(1), 0
        tiny = mpmath.mpf(10) ** (-dps + 3)
        while True:
            term = coef * x**k * mpmath.rgamma(beta + alpha * k)
            total += term
            if k > 10 and abs(term) < tiny * (1 + abs(total)):
                return float(total)
            coef *= (gamma + k) / mpmath.mpf(k + 1)
            k += 1


class TestMittagLefflerArrays:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(float, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
               elements=st.one_of(st.just(0.0), st.floats(-2.0, 5.0))),
        st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
    )
    def test_array_is_bitwise_the_scalar_calls(self, xs, alpha, beta, gamma):
        p = MLParams(alpha, beta, gamma)
        got = mittag_leffler(xs, p)
        want = np.array([mittag_leffler(float(x), p) for x in xs.ravel()]).reshape(xs.shape)
        if xs.ndim == 0:
            assert type(got) is float
        else:
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert np.asarray(got).tobytes() == want.tobytes()

    def test_matches_the_term_by_term_loop(self):
        # summation order changed, so the loop agrees to a tolerance, not bitwise
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = MLParams(rng.uniform(0.5, 2.5), rng.uniform(0.5, 3.0), rng.uniform(-2.5, 3.0),
                         (rng.uniform(-2.0, 3.0),), (rng.uniform(0.5, 3.0),))
            x = rng.uniform(-1.5, 6.0)
            ref = series_loop(x, p)
            assert abs(mittag_leffler(x, p) - ref) <= 1e-13 * (1.0 + abs(ref))

    @pytest.mark.parametrize("alpha, x, exact", [
        (0.5, -5.0, erfcx(5.0)),
        (0.5, -10.0, erfcx(10.0)),
        (1.0, -20.0, math.exp(-20.0)),
        (1.0, -30.0, math.exp(-30.0)),
    ])
    def test_cancellation_raises_with_a_covering_bound(self, alpha, x, exact):
        with pytest.raises(ConvergenceError) as err:
            mittag_leffler(x, MLParams(alpha))
        assert math.isfinite(err.value.bound)
        assert err.value.bound >= abs(err.value.partial - exact)

    def test_array_error_carries_arrays_of_the_argument_shape(self):
        xs = np.array([[1.0, -30.0], [0.0, -1.0]])
        with pytest.raises(ConvergenceError) as err:
            mittag_leffler(xs, MLParams(1.0))
        partial, bound = err.value.partial, err.value.bound
        assert partial.shape == bound.shape == xs.shape
        assert partial[0, 0] == mittag_leffler(1.0, MLParams(1.0))
        assert bound[0, 1] >= abs(partial[0, 1] - math.exp(-30.0))

    def test_seeded_three_parameter_values_against_mpmath(self):
        # each value is either within the guard's tolerance or raises
        rng = np.random.default_rng(2015)
        returned = 0
        for _ in range(300):
            alpha, beta, gamma = rng.uniform([0.4, 0.3, 0.3], [2.5, 3.0, 3.0])
            x = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 20.0) ** alpha
            ref = ml_mpmath(x, alpha, beta, gamma)
            try:
                got = mittag_leffler(x, MLParams(alpha, beta, gamma))
            except ConvergenceError as err:
                assert err.bound >= abs(err.partial - ref)
                continue
            returned += 1
            assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))
        assert returned >= 200
