"""Scalar special functions: log-gamma, Pochhammer symbols, the matrix-variate
gamma product, and the Mittag-Leffler family evaluated by direct summation.

All functions are pure; everything heavy runs through log-gamma so no
intermediate overflows for positive arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import gammaln

from .errors import ConvergenceError, DomainError

# Stopping rule for the Mittag-Leffler series: a term is negligible when
# |term| <= TERM_EPS * (1 + |partial sum|); three negligible terms in a row
# guard against alternating cases where a single tiny term is accidental.
TERM_EPS = 1e-16
CONSECUTIVE_SMALL = 3
MAX_TERMS = 10_000


@dataclass(frozen=True)
class MLParams:
    """Parameters of the three- (and many-) parameter Mittag-Leffler series.

    ``alpha`` steps the gamma argument in the denominator, ``beta`` offsets it,
    ``gamma`` weights the numerator through a rising factorial, and
    ``uppers``/``lowers`` add hypergeometric-style Pochhammer factors on top.
    The classical one- and two-parameter functions are ``gamma=1`` with empty
    parameter lists (and ``beta=1`` for the one-parameter form).
    """

    alpha: float
    beta: float = 1.0
    gamma: float = 1.0
    uppers: tuple[float, ...] = field(default_factory=tuple)
    lowers: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (self.alpha > 0):
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not (self.beta > 0):
            raise DomainError(f"beta must be > 0, got {self.beta}")
        object.__setattr__(self, "uppers", tuple(float(a) for a in self.uppers))
        object.__setattr__(self, "lowers", tuple(float(b) for b in self.lowers))
        for b in self.lowers:
            if b <= 0 and b == int(b):
                raise DomainError(
                    f"lower parameter {b} is a non-positive integer; its "
                    "Pochhammer factor would hit zero in a denominator"
                )
        if len(self.uppers) > len(self.lowers) + 1:
            raise DomainError(
                f"{len(self.uppers)} upper vs {len(self.lowers)} lower "
                "parameters: series growth is no longer controlled by the "
                "gamma denominator (need r <= s+1)"
            )


@dataclass(frozen=True)
class Partition:
    """Non-negative integer parts (k_1, ..., k_p); weight is their sum."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(k) for k in self.parts)
        if any(k < 0 for k in parts):
            raise DomainError(f"partition parts must be >= 0, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (x > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def pochhammer(b: float, k: int) -> float:
    """Rising factorial (b)_k = b (b+1) ... (b+k-1), with (b)_0 = 1.

    Returns 0 when b is a non-positive integer that the product steps over;
    that is a legitimate value, not an error.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer order must be a non-negative integer, got {k}")
    out = 1.0
    for j in range(int(k)):
        out *= b + j
    return out


def gen_pochhammer(a: float, partition: Partition) -> float:
    """Partition-indexed Pochhammer: prod_j (a - (j-1)/2)_{k_j}."""
    out = 1.0
    for j, kj in enumerate(partition.parts):
        out *= pochhammer(a - 0.5 * j, kj)
    return out


def matrix_gamma(p: int, a: float) -> float:
    """Real matrix-variate gamma: pi^(p(p-1)/4) * prod_{j=0}^{p-1} Gamma(a - j/2)."""
    if p < 1 or p != int(p):
        raise DomainError(f"matrix dimension p must be a positive integer, got {p}")
    if not (a > (p - 1) / 2):
        raise DomainError(
            f"matrix_gamma requires a > (p-1)/2 = {(p - 1) / 2}, got a = {a}"
        )
    log_val = 0.25 * p * (p - 1) * math.log(math.pi)
    for j in range(int(p)):
        log_val += log_gamma(a - 0.5 * j)
    return math.exp(log_val)


def mittag_leffler(x: float, params: MLParams, term_cap: int = MAX_TERMS) -> float:
    """Sum the Mittag-Leffler series at a real argument.

    Term k is ``(gamma)_k prod(a_j)_k x^k / (k! prod(b_j)_k Gamma(beta+alpha k))``,
    accumulated with log-tracked magnitudes so large arguments cannot overflow
    before the gamma denominator catches up.

    Accuracy degrades for strongly negative arguments when ``alpha < 1``
    (catastrophic cancellation below roughly x = -10); stay above that.
    A term past the double range raises ConvergenceError with the partial
    sum and an infinite bound.
    """
    params = params if isinstance(params, MLParams) else MLParams(*params)
    if x == 0.0:
        return math.exp(-gammaln(params.beta))
    if term_cap < 1:
        raise DomainError(f"term cap must be >= 1, got {term_cap}")
    total = 0.0
    # log-magnitude and sign of the Pochhammer/factorial prefactor c_k
    log_c = 0.0
    sign_c = 1.0
    log_ax = math.log(abs(x))
    sign_x = 1.0 if x >= 0 else -1.0
    small_run = 0
    term = math.nan
    for k in range(int(term_cap)):
        if sign_c != 0.0:
            log_term = log_c + k * log_ax - gammaln(params.beta + params.alpha * k)
            try:
                term = sign_c * (sign_x**k) * math.exp(log_term)
            except OverflowError:
                raise ConvergenceError(
                    f"Mittag-Leffler series term {k} overflows a double "
                    f"(log |term| = {log_term:.1f})",
                    partial=total,
                    bound=math.inf,
                ) from None
        else:
            term = 0.0  # a numerator Pochhammer hit zero: series terminated
        total += term
        if abs(term) <= TERM_EPS * (1.0 + abs(total)):
            small_run += 1
            if small_run >= CONSECUTIVE_SMALL or sign_c == 0.0:
                return total
        else:
            small_run = 0
        # advance c_{k} -> c_{k+1}
        factors = [params.gamma + k, *(a + k for a in params.uppers)]
        divisors = [k + 1.0, *(b + k for b in params.lowers)]
        for f in factors:
            if f == 0.0:
                sign_c = 0.0
                break
            sign_c *= math.copysign(1.0, f)
            log_c += math.log(abs(f))
        for d in divisors:
            log_c -= math.log(abs(d))
    raise ConvergenceError(
        f"Mittag-Leffler series did not settle within {term_cap} terms "
        f"(last |term| ~ {abs(term):.3e})",
        partial=total,
        bound=abs(term),
    )
