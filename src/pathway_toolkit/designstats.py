"""Missing-value design solver, sample correlation, and two Monte Carlo
checks: when a quadratic form in standard normals is chi-square distributed,
and how fast the log of a product of betas approaches normality.

The solver centers each row of a row-stochastic incidence matrix at its
median, which makes the centered matrix a strict infinity-norm contraction,
and then sums the geometric matrix series instead of inverting anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

_ROWSUM_TOL = 1e-12
_EIG_REL_TOL = 1e-10
# ks_statistic's block length, and the slack that covers the chi-square CDF's
# ulp-level departures from monotonicity when blocks are pruned
_KS_BLOCK = 64
_KS_SLACK = 1e-9


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
    sum) and report the resulting infinity norm, which is strictly below 1.

    The medians come from one partition at kth = p // 2, which numpy does
    several times faster than the two-kth partition inside ``np.median``.
    For even p the lower middle value is the largest entry left of kth, and
    half the sum of the two middle values is np.median's mean bit for bit.
    The partitioned copy is freed before B is formed, so the peak stays at
    two p x p arrays beside A.
    """
    A = sys.A
    h = A.shape[1] // 2
    part = np.partition(A, h, axis=1)
    if A.shape[1] % 2:
        medians = part[:, h].copy()
    else:
        medians = 0.5 * (part[:, :h].max(axis=1) + part[:, h])
    del part
    B = A - medians[:, None]
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
    if not max_terms >= 1:
        raise DomainError(f"max_terms must be at least 1, got {max_terms}")
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
    # scaled by a power of two near the largest |value|, which is exact and
    # keeps the means in the double range
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    dx = x - x.mean()
    dy = y - y.mean()
    sx, sy = np.abs(dx).max(), np.abs(dy).max()
    if sx == 0.0 or sy == 0.0:
        raise DomainError("correlation undefined for a constant vector")
    dx, dy = dx / sx, dy / sy  # so the dot products stay in the double range
    return float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))


def chi2_cdf(q, dof: int):
    """Chi-square CDF via the regularized lower incomplete gamma; 0 below 0."""
    from scipy.special import gammainc  # here alone, so the module loads without scipy

    return gammainc(dof / 2.0, np.maximum(np.asarray(q, dtype=float), 0.0) / 2.0)


def ks_statistic(samples: np.ndarray, dof: int) -> float:
    """One-sample Kolmogorov-Smirnov statistic of samples against a chi-square
    law with ``dof`` degrees.

    The statistic is max over sorted q_j of (j+1)/n - F(q_j) and F(q_j) - j/n.
    F is evaluated first only at the two ends s and e of each block of
    ``_KS_BLOCK`` sorted samples.  F is monotone, so no candidate in a block
    exceeds (e+1)/n - F(q_s) or F(q_e) - s/n; only blocks whose bound reaches
    the best end-point candidate, less a slack far above F's rounding, get F
    at every point.  The result is the maximum over the same floating-point
    candidates as the full sweep, so it is bit-identical to it.
    """
    if not 0 < dof < math.inf:
        raise DomainError(f"dof must be positive and finite, got {dof}")
    q = np.sort(np.asarray(samples, dtype=float), axis=None)
    n = q.size
    if n == 0:
        raise DomainError("the KS statistic needs at least one sample")
    if np.isnan(q[-1]):  # the sort puts NaN last
        raise DomainError("the samples include NaN")
    s = np.arange(0, n, _KS_BLOCK)
    e = np.minimum(s + (_KS_BLOCK - 1), n - 1)
    fs, fe = chi2_cdf(q[s], dof), chi2_cdf(q[e], dof)
    best = max(np.max((s + 1) / n - fs), np.max(fs - s / n),
               np.max((e + 1) / n - fe), np.max(fe - e / n))
    bound = np.maximum((e + 1) / n - fs, fe - s / n)
    open_blocks = s[bound >= best - _KS_SLACK]
    j = (open_blocks[:, None] + np.arange(_KS_BLOCK)).ravel()
    j = j[j < n]
    f = chi2_cdf(q[j], dof)
    return float(max(best, np.max((j + 1) / n - f), np.max(f - j / n)))


def _finite(what: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise DomainError(f"{what} is NaN or past the double range")
    return x


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
    with np.errstate(over="ignore", invalid="ignore"):
        A = _finite("the symmetrized matrix", 0.5 * (A + A.T))
        AA = _finite("A @ A", A @ A)
        eigs = _finite("the eigenvalues", np.linalg.eigvalsh(A))
        tol = _EIG_REL_TOL * max(float(np.max(np.abs(eigs))), 1.0)
        idempotent = float(np.max(np.abs(AA - A))) <= tol
        rank = int(np.sum(np.abs(eigs) > tol))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((int(n), A.shape[0]))
        q = _finite("a simulated form", np.einsum("ij,ij->i", X @ A, X))
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


def _sample_skewness(values: np.ndarray) -> float:
    z = (values - values.mean()) / values.std()
    return float(np.mean(z * z * z))  # z**3 takes libm's slow pow for z < 0


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

    One (max k, n) array of betas is drawn, and a running sum down its rows
    turns it into log-products in place: each k reads row k - 1, the n sums of
    its first k rows.  The counts share their draws (common random numbers), so
    their estimates are correlated, and a k's result does not depend on the
    other entries of ``k_list``, which may be unsorted or repeated.
    """
    if not len(k_list):
        raise DomainError("normality_trend needs at least one factor count")
    for k in k_list:
        if not (2 <= k < math.inf and k % 1 == 0):
            raise DomainError(f"factor counts must be whole numbers >= 2, got {k}")
    al, be = shapes
    if not (0 < al < math.inf and 0 < be < math.inf):
        raise DomainError(f"beta shapes must be positive and finite, got {shapes}")
    if not (2 <= n < math.inf and n % 1 == 0):
        raise DomainError(f"a skewness needs a whole number n >= 2 of draws, got {n}")
    v = np.random.default_rng(seed).beta(al, be, size=(int(max(k_list)), int(n)))
    if v.min() == 0:  # its log is -inf, and the skewness not a number
        raise DomainError(f"beta({al}, {be}) gave {np.count_nonzero(v == 0)} draws "
                          f"of exactly 0; their log-product is -inf")
    log_v = np.cumsum(np.log(v, out=v), axis=0, out=v)
    return [(int(k), _sample_skewness(log_v[int(k) - 1])) for k in k_list]
