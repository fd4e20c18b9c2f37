"""Missing-value design solver, sample correlation, and a Monte Carlo check
of when a quadratic form in standard normals is chi-square distributed.

The solver centers each row of a row-stochastic incidence matrix at its
median, which makes the centered matrix a strict infinity-norm contraction,
and then sums the geometric matrix series instead of inverting anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .errors import ConvergenceError, DomainError

_ROWSUM_TOL = 1e-12
_EIG_REL_TOL = 1e-10


@dataclass(frozen=True)
class IncidenceSystem:
    """The (A, G) pair of the reduced normal equations (I - A) alpha = G.

    A must have strictly positive entries and unit row sums (which pins its
    infinity norm at exactly 1).
    """

    A: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        G = np.asarray(self.G, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DomainError(f"A must be square, got shape {A.shape}")
        if G.shape != (A.shape[0],):
            raise DomainError(
                f"G must be a vector of length {A.shape[0]}, got shape {G.shape}"
            )
        if not (A > 0).all():
            raise DomainError("all entries of the incidence matrix must be > 0")
        rowsums = A.sum(axis=1)
        if np.max(np.abs(rowsums - 1.0)) > _ROWSUM_TOL:
            raise DomainError(
                f"rows of A must sum to 1 within {_ROWSUM_TOL}; "
                f"worst deviation {np.max(np.abs(rowsums - 1.0)):.3e}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "G", G)


@dataclass(frozen=True)
class CenteredSystem:
    """Median-centered matrix B = A - a_i with its row medians and norm."""

    B: np.ndarray
    medians: np.ndarray
    norm: float


def build_incidence(counts) -> np.ndarray:
    """Incidence matrix of a two-way layout from its cell-count table.

    A = D_r^(-1) N D_c^(-1) N', with D_r and D_c the diagonal row/column
    totals; rows of A sum to one by construction.  Returns A only; the
    right-hand side G comes from the data and is supplied separately.
    """
    N = np.asarray(counts, dtype=float)
    if N.ndim != 2:
        raise DomainError(f"cell-count table must be 2-d, got shape {N.shape}")
    if (N < 0).any():
        raise DomainError("cell counts must be non-negative")
    row_tot = N.sum(axis=1)
    col_tot = N.sum(axis=0)
    if (row_tot <= 0).any() or (col_tot <= 0).any():
        raise DomainError(
            "degenerate design: every row and column total must be positive"
        )
    return (N / row_tot[:, None]) @ (N / col_tot[None, :]).T


def center_by_medians(sys: IncidenceSystem) -> CenteredSystem:
    """Subtract each row's median (minimizing that row's absolute-deviation
    sum) and report the resulting infinity norm, which is strictly below 1."""
    medians = np.median(sys.A, axis=1)
    B = sys.A - medians[:, None]
    norm = float(np.max(np.abs(B).sum(axis=1)))
    return CenteredSystem(B=B, medians=medians, norm=norm)


def neumann_solve(
    sys: IncidenceSystem, tol: float = 1e-12, max_terms: int = 1000
) -> tuple[np.ndarray, int, float]:
    """Solve (I - B) alpha = G by summing G + BG + B^2 G + ...

    Stops when consecutive partial sums agree to ``tol`` in the infinity
    norm; convergence is geometric because the centered norm is below 1.
    Returns (alpha, terms_used, residual).
    """
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    centered = center_by_medians(sys)
    B = centered.B
    term = sys.G.copy()
    total = term.copy()
    for m in range(1, int(max_terms) + 1):
        term = B @ term
        total = total + term
        if np.max(np.abs(term)) <= tol:
            residual = float(np.max(np.abs(total - B @ total - sys.G)))
            return total, m + 1, residual
    residual = float(np.max(np.abs(total - B @ total - sys.G)))
    raise ConvergenceError(
        f"Neumann series did not reach tol {tol} in {max_terms} terms "
        f"(residual {residual:.3e}, norm {centered.norm:.4f})",
        partial=total,
        bound=residual,
    )


def first_order_approx(sys: IncidenceSystem) -> tuple[np.ndarray, float]:
    """One-multiplication approximation G + BG with its geometric tail bound
    ||B||^2 ||G||_inf / (1 - ||B||)."""
    centered = center_by_medians(sys)
    approx = sys.G + centered.B @ sys.G
    bound = (
        centered.norm**2 * float(np.max(np.abs(sys.G))) / (1.0 - centered.norm)
    )
    return approx, bound


def sample_correlation(x, y) -> float:
    """Pearson correlation: centered cross-products over the geometric mean
    of the centered sums of squares."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise DomainError(
            f"x and y must be equal-length vectors of size >= 2, got "
            f"{x.shape} and {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("correlation needs finite x and y")
    dx = x - x.mean()
    dy = y - y.mean()
    sx, sy = np.abs(dx).max(), np.abs(dy).max()
    if sx == 0.0 or sy == 0.0:
        raise DomainError("correlation undefined for a constant vector")
    dx, dy = dx / sx, dy / sy  # so the dot products stay in the double range
    return float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))


def chi2_cdf(q, dof: int):
    """Chi-square CDF via the regularized lower incomplete gamma."""
    return gammainc(dof / 2.0, np.asarray(q, dtype=float) / 2.0)


def ks_statistic(samples: np.ndarray, dof: int) -> float:
    """One-sample Kolmogorov-Smirnov statistic of samples against a chi-square
    law with ``dof`` degrees."""
    q = np.sort(np.asarray(samples, dtype=float))
    f = chi2_cdf(q, dof)
    n = q.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def chisquared_form_check(A, n: int = 100_000, seed: int = 0) -> dict:
    """Monte Carlo check of the chi-squaredness theorem for Q = X'AX.

    Symmetrizes the input, tests idempotency and counts the rank from the
    eigenvalues, then compares n simulated quadratic forms against the
    chi-square law with that rank.  ``consistent`` records whether the
    simulation agrees with what the theorem predicts: idempotent matrices
    must pass the 1% KS test and clearly non-idempotent ones must fail it.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DomainError(f"A must be a non-empty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("A must have finite entries")
    if n < 1:
        raise DomainError(f"need n >= 1 simulated forms, got {n}")
    A = 0.5 * (A + A.T)
    p = A.shape[0]
    eigs = np.linalg.eigvalsh(A)
    tol = _EIG_REL_TOL * max(float(np.max(np.abs(eigs))), 1.0)
    idempotent = float(np.max(np.abs(A @ A - A))) <= tol
    rank = int(np.sum(np.abs(eigs) > tol))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(n), p))
    q = np.einsum("ij,jk,ik->i", X, A, X)
    ks = ks_statistic(q, dof=max(rank, 1))
    critical = 1.63 / math.sqrt(n)
    gap = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0))))
    if idempotent:
        consistent = ks < critical
    elif gap >= 0.2:
        consistent = ks > critical
    else:
        consistent = True  # theorem makes no sharp claim for near-idempotent A
    return {
        "idempotent": idempotent,
        "rank": rank,
        "ks_stat": ks,
        "consistent": bool(consistent),
    }
