import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathway_toolkit.designstats import (
    IncidenceSystem,
    build_incidence,
    center_by_medians,
    chi2_cdf,
    chisquared_form_check,
    first_order_approx,
    ks_statistic,
    neumann_solve,
    sample_correlation,
)
from pathway_toolkit.errors import ConvergenceError, DomainError


def random_system(rng, p):
    A = rng.dirichlet(np.full(p, 2.0), size=p)
    G = rng.standard_normal(p)
    return IncidenceSystem(A=A, G=G)


class TestBuildIncidence:
    def test_balanced_design_is_uniform(self):
        counts = np.full((3, 3), 4)
        A = build_incidence(counts)
        # oracle: D_r^-1 N D_c^-1 N' with every total 12
        N = counts.astype(float)
        oracle = np.diag(1 / N.sum(1)) @ N @ np.diag(1 / N.sum(0)) @ N.T
        assert np.allclose(A, oracle, atol=1e-15)
        assert np.allclose(A, 1.0 / 3.0)

    def test_row_sums_one_by_construction(self):
        A = build_incidence([[2, 1], [1, 2]])
        assert np.max(np.abs(A.sum(axis=1) - 1.0)) < 1e-14

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError):
            build_incidence([[0, 0], [1, 2]])

    def test_zero_column_rejected(self):
        with pytest.raises(DomainError):
            build_incidence([[1, 0], [2, 0]])


class TestIncidenceSystem:
    def test_rejects_nonpositive_entries(self):
        A = np.array([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(DomainError):
            IncidenceSystem(A=A, G=np.zeros(2))

    def test_rejects_bad_row_sums(self):
        A = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(DomainError):
            IncidenceSystem(A=A, G=np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            IncidenceSystem(A=np.full((2, 2), 0.5), G=np.zeros(3))


class TestCentering:
    def test_constant_rows_center_to_zero(self):
        A = np.full((4, 4), 0.25)
        sys = IncidenceSystem(A=A, G=np.ones(4))
        c = center_by_medians(sys)
        assert np.all(c.B == 0.0)
        assert c.norm == 0.0

    def test_norm_strictly_below_one(self):
        rng = np.random.default_rng(11)
        for p in (3, 5, 8):
            for _ in range(25):
                c = center_by_medians(random_system(rng, p))
                assert c.norm < 1.0

    def test_median_beats_mean_centering(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            sys = random_system(rng, 5)
            c = center_by_medians(sys)
            mean_norm = float(
                np.max(np.abs(sys.A - sys.A.mean(axis=1)[:, None]).sum(axis=1))
            )
            assert c.norm <= mean_norm + 1e-15

    def test_even_row_median_is_midpoint(self):
        A = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25],
                      [0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]])
        sys = IncidenceSystem(A=A, G=np.zeros(4))
        c = center_by_medians(sys)
        assert c.medians[0] == pytest.approx(0.25)


class TestNeumannSolve:
    def test_zero_centered_matrix_converges_immediately(self):
        A = np.full((3, 3), 1.0 / 3.0)
        sys = IncidenceSystem(A=A, G=np.array([1.0, -2.0, 0.5]))
        alpha, terms, residual = neumann_solve(sys)
        assert np.allclose(alpha, sys.G)
        assert terms == 2
        assert residual < 1e-14

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(13)
        for p in (3, 5, 8):
            for _ in range(10):
                sys = random_system(rng, p)
                c = center_by_medians(sys)
                alpha, _, _ = neumann_solve(sys, tol=1e-14)
                dense = np.linalg.solve(np.eye(p) - c.B, sys.G)
                assert np.max(np.abs(alpha - dense)) <= 1e-10

    def test_geometric_tail_bound(self):
        rng = np.random.default_rng(14)
        sys = random_system(rng, 5)
        c = center_by_medians(sys)
        exact, _, _ = neumann_solve(sys, tol=1e-15, max_terms=10_000)
        g_norm = float(np.max(np.abs(sys.G)))
        partial = sys.G.copy()
        term = sys.G.copy()
        for m in range(12):
            bound = c.norm ** (m + 1) * g_norm / (1.0 - c.norm)
            assert np.max(np.abs(exact - partial)) <= bound + 1e-13
            term = c.B @ term
            partial = partial + term

    def test_residual_contract(self):
        rng = np.random.default_rng(15)
        for tol in (1e-6, 1e-10):
            sys = random_system(rng, 6)
            c = center_by_medians(sys)
            _, _, residual = neumann_solve(sys, tol=tol)
            assert residual <= tol * (1.0 + c.norm) / (1.0 - c.norm)

    def test_max_terms_exhaustion_reports(self):
        rng = np.random.default_rng(16)
        sys = random_system(rng, 5)
        with pytest.raises(ConvergenceError) as err:
            neumann_solve(sys, tol=1e-30, max_terms=2)
        assert err.value.partial is not None

    def test_tol_validation(self):
        rng = np.random.default_rng(17)
        with pytest.raises(DomainError):
            neumann_solve(random_system(rng, 3), tol=0.0)


class TestFirstOrderApprox:
    def test_zero_matrix_case(self):
        A = np.full((3, 3), 1.0 / 3.0)
        sys = IncidenceSystem(A=A, G=np.array([0.5, 0.25, 0.25]))
        approx, bound = first_order_approx(sys)
        assert np.allclose(approx, sys.G)
        assert bound == 0.0

    def test_bound_holds_against_exact(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            sys = random_system(rng, 6)
            exact, _, _ = neumann_solve(sys, tol=1e-14)
            approx, bound = first_order_approx(sys)
            assert np.max(np.abs(exact - approx)) <= bound + 1e-13

    def test_bound_monotone_in_norm(self):
        # shrinking B (same G) shrinks the bound
        G = np.array([1.0, 2.0, 3.0])
        mix = np.full((3, 3), 1.0 / 3.0)
        base = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        bounds = []
        for w in (1.0, 0.5, 0.25):
            A = w * base + (1.0 - w) * mix
            bounds.append(first_order_approx(IncidenceSystem(A=A, G=G))[1])
        assert bounds[0] > bounds[1] > bounds[2]


class TestSampleCorrelation:
    def test_perfect_line(self):
        assert sample_correlation([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negative_affine(self):
        x = np.array([1.0, 2.0, 3.0])
        assert sample_correlation(x, -2.0 * x + 3.0) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert sample_correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            sample_correlation([1, 1, 1], [1, 2, 3])
        with pytest.raises(DomainError):
            sample_correlation([1, 2, 3], [2, 2, 2])
        with pytest.raises(DomainError, match="constant"):
            sample_correlation([1e-200, 1e-200, 1e-200], [1, 2, 3])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes(self, scale):
        # the sums of squares would overflow to inf or underflow to 0
        x = scale * np.array([1.0, 2.0, 3.0])
        assert abs(sample_correlation(x, [1, 2, 3]) - 1) <= 1e-15

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                sample_correlation([1.0, 2.0, bad], [1.0, 2.0, 3.0])
            with pytest.raises(DomainError, match="finite"):
                sample_correlation([1.0, 2.0, 3.0], [bad, 2.0, 3.0])

    @settings(max_examples=50)
    @given(
        st.floats(0.01, 100.0),
        st.floats(-50.0, 50.0),
    )
    def test_affine_invariance(self, c, d):
        x = np.array([0.3, 1.7, -2.2, 0.9, 4.1])
        y = np.array([1.0, 0.2, 2.5, -1.0, 0.4])
        r = sample_correlation(x, y)
        assert sample_correlation(c * x + d, y) == pytest.approx(r, abs=1e-9)
        assert sample_correlation(-c * x + d, y) == pytest.approx(-r, abs=1e-9)


class TestChisquaredness:
    def test_identity_passes(self):
        report = chisquared_form_check(np.eye(3), n=100_000, seed=7)
        assert report["idempotent"] is True
        assert report["rank"] == 3
        assert report["ks_stat"] < 1.63 / math.sqrt(100_000)
        assert report["consistent"] is True

    def test_rank_two_projector_passes(self):
        report = chisquared_form_check(np.diag([1.0, 1.0, 0.0]), n=100_000, seed=7)
        assert report["idempotent"] is True
        assert report["rank"] == 2
        assert report["consistent"] is True

    def test_non_idempotent_fails_every_rank(self):
        A = np.diag([1.0, 0.5, 0.0])
        report = chisquared_form_check(A, n=100_000, seed=7)
        assert report["idempotent"] is False
        assert report["consistent"] is True  # i.e. the KS test did reject
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100_000, 3))
        q = np.einsum("ij,jk,ik->i", X, A, X)
        for dof in (1, 2, 3):
            assert ks_statistic(q, dof=dof) > 1.63 / math.sqrt(100_000)

    def test_deterministic(self):
        a = chisquared_form_check(np.eye(2), n=5_000, seed=3)
        b = chisquared_form_check(np.eye(2), n=5_000, seed=3)
        assert a == b

    def test_asymmetric_input_symmetrized(self):
        A = np.array([[1.0, 0.4], [0.0, 1.0]])
        report = chisquared_form_check(A, n=1_000, seed=0)
        assert report["rank"] == 2

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3)])
    def test_needs_a_nonempty_square_matrix(self, shape):
        with pytest.raises(DomainError, match="non-empty square"):
            chisquared_form_check(np.zeros(shape), n=10, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            chisquared_form_check(np.array([[bad, 0.0], [0.0, 1.0]]), n=10, seed=0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_needs_a_draw(self, n):
        with pytest.raises(DomainError, match="n >= 1"):
            chisquared_form_check(np.eye(2), n=n, seed=0)

    def test_chi2_cdf_against_scipy(self):
        from scipy.stats import chi2

        q = np.linspace(0.1, 20.0, 25)
        for dof in (1, 2, 5):
            assert np.allclose(chi2_cdf(q, dof), chi2.cdf(q, dof), atol=1e-12)
