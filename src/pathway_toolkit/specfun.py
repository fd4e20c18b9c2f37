"""Special functions: log-gamma, Pochhammer symbols, the matrix-variate
gamma product, and the Mittag-Leffler family evaluated by direct summation.

All functions are pure; everything heavy runs through log-gamma so no
intermediate overflows for positive arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, multigammaln

from .errors import ConvergenceError, DomainError, exp_or_inf

# Stopping rule for the Mittag-Leffler series: a term is negligible when
# |term| <= TERM_EPS * (1 + |partial sum|); three negligible terms in a row
# guard against alternating cases where a single tiny term is accidental.
TERM_EPS = 1e-16
CONSECUTIVE_SMALL = 3
MAX_TERMS = 10_000
# Terms go in blocks of BLOCK (even), so temporaries stay (points x BLOCK).
# A sum whose rounding bound GUARD_SCALE * sum |t_k| (1 + |ln |t_k||), eps
# times a safety factor of 8, passes GUARD_RTOL * (1 + |E|) raises.
BLOCK, GUARD_SCALE, GUARD_RTOL = 64, 8.0 * float(np.finfo(float).eps), 1e-10


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
        object.__setattr__(self, "uppers", tuple(float(a) for a in self.uppers))
        object.__setattr__(self, "lowers", tuple(float(b) for b in self.lowers))
        for name in ("alpha", "beta", "gamma", "uppers", "lowers"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.alpha > 0):
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not (self.beta > 0):
            raise DomainError(f"beta must be > 0, got {self.beta}")
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
    that is a legitimate value, not an error.  A NaN b is a DomainError.

    The factors are multiplied while the product stays in the double range,
    which takes at most a few hundred of them for any b.  Past it the value
    is ±inf, unless a factor below 1 in size lies ahead (b near a negative
    integer that the product steps past); then it is
    exp(ln|Gamma(b + k)| - ln|Gamma(b)|), with the sign of the negative
    factors' count, and inf where that is past the double range.  So the
    cost does not grow with k.  The relative error is below 1e-12: the
    product rounds at most a few hundred times, and ln|Gamma(b)| is at most
    about 700 in size on the log-gamma route.
    """
    if not 0 <= k < math.inf or k != int(k):
        raise DomainError(f"pochhammer order must be a non-negative integer, got {k}")
    if math.isnan(b):
        raise DomainError("pochhammer needs a number b, got nan")
    k = int(k)
    if b <= 0 and b % 1 == 0 and -b < k:
        return 0.0
    out = 1.0
    for j in range(k):
        out *= b + j
        if math.isinf(out):
            break
    else:
        return out
    log_abs, sign = _log_pochhammer(b, k)
    if not (b + j + 1 < 1 and b + k - 1 > -1):  # every factor ahead is 1 or more in size
        return sign * math.inf
    return sign * exp_or_inf(log_abs)


def _log_pochhammer(b: float, k: int) -> tuple[float, float]:
    """(ln|(b)_k|, sign of (b)_k) for a (b)_k that is not 0, from ln|Gamma|: reflected,
    ln Gamma(1 - b) - ln Gamma(1 - b - k), where every factor is negative.  ln Gamma
    overflows past about 1e305, and so does any (b)_k whose log route reaches there."""
    negative = k if b + k <= 0 else 0 if b >= 0 else math.ceil(-b)
    sign = -1.0 if negative % 2 else 1.0
    ends = (1 - b, 1 - b - k) if b + k <= 0 else (b + k, b)
    try:
        return math.lgamma(ends[0]) - math.lgamma(ends[1]), sign
    except OverflowError:
        return math.inf, sign


def gen_pochhammer(a: float, partition: Partition) -> float:
    """Partition-indexed Pochhammer: prod_j (a - (j-1)/2)_{k_j}; a NaN a is a DomainError.
    A zero part makes it 0, even beside a part past the double range.  Where the product of
    the parts overflows, a part may have overflowed alone: the parts' ln| | are summed and
    their signs multiplied, so the product is inf only where it is past the double range."""
    if math.isnan(a):
        raise DomainError("gen_pochhammer needs a number a, got nan")
    parts = [pochhammer(a - 0.5 * j, kj) for j, kj in enumerate(partition.parts)]
    if 0.0 in parts:
        return 0.0
    out = math.prod(parts, start=1.0)
    if math.isinf(out):
        logs = [_log_pochhammer(a - 0.5 * j, kj) for j, kj in enumerate(partition.parts)]
        out = math.prod(sign for _, sign in logs) * exp_or_inf(math.fsum(log for log, _ in logs))
    return out


def matrix_gamma(p: int, a: float) -> float:
    """Real matrix-variate gamma: pi^(p(p-1)/4) * prod_{j=0}^{p-1} Gamma(a - j/2), or inf
    where it is past the double range."""
    if p < 1 or p != int(p):
        raise DomainError(f"matrix dimension p must be a positive integer, got {p}")
    if not (a > (p - 1) / 2):
        raise DomainError(
            f"matrix_gamma requires a > (p-1)/2 = {(p - 1) / 2}, got a = {a}"
        )
    return exp_or_inf(multigammaln(a, int(p)))


def mittag_leffler(x, params: MLParams):
    """Sum the Mittag-Leffler series at a real x or at an array of them.

    Term k is ``(gamma)_k prod(a_j)_k x^k / (k! prod(b_j)_k Gamma(beta+alpha k))``;
    its x-free log-magnitude and sign are built once per block of terms and
    broadcast against every x, with x^k as k ln|x|.  Each x is summed until its
    last CONSECUTIVE_SMALL terms are negligible, so an array gives the scalar
    values bit for bit.  A scalar x gives a float, an array an array of its
    shape; non-finite x raise DomainError.  ConvergenceError holds partial sums
    and bounds shaped like x: |last term| if MAX_TERMS terms do not settle, inf
    if a term overflows, else a rounding bound past GUARD_RTOL (1 + |E|).
    """
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise DomainError(f"Mittag-Leffler argument must be finite, got {x}")
    shaped = (lambda a: float(a[0])) if xs.ndim == 0 else (lambda a: a.reshape(xs.shape))
    ups, downs = np.array([[params.gamma, *params.uppers]]).T, np.array([[1.0, *params.lowers]]).T
    out, bound, flags = *np.zeros((2, xs.size)), np.zeros((xs.size, CONSECUTIVE_SMALL - 1), bool)
    rows, log_cs, sign_cs, flat = np.arange(xs.size), np.zeros(1), np.ones(1), xs.reshape(-1, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # ln 0 as -1e308 keeps the k = 0 term's 0 * ln|x| at 0
        log_ax, sign_x = np.fmax(np.log(np.abs(flat)), -1e308), np.sign(flat)
        for k0 in range(0, MAX_TERMS, BLOCK):
            ks = np.arange(k0, min(k0 + BLOCK, MAX_TERMS), dtype=float)
            ratio = np.multiply.reduce(ups + ks) / np.multiply.reduce(downs + ks)  # c_{k+1} / c_k
            log_cs = np.concatenate((log_cs[-1:], np.log(np.abs(ratio)))).cumsum()
            sign_cs = np.concatenate((sign_cs[-1:], np.sign(ratio))).cumprod()
            log_t = ks * log_ax[rows] + (log_cs[:-1] - gammaln(params.beta + params.alpha * ks))
            t = sign_cs[:-1] * np.exp(log_t)
            t[:, 1::2] *= sign_x[rows]  # BLOCK is even, so odd k sit in odd columns
            sums, at = np.concatenate((out[rows, None], t), axis=1).cumsum(1), np.abs(t)
            bound[rows] += GUARD_SCALE * np.add.reduce(at * (1 + np.abs(log_t)), 1, where=at > 0)
            small = np.concatenate((flags, at <= TERM_EPS * (1.0 + np.abs(sums[:, 1:]))), 1)
            hit = small[:, -CONSECUTIVE_SMALL:].all(1)  # zeros past a zero Pochhammer factor too
            # a sum past the double range stays there; keep the one before it
            lead = np.isfinite(sums).sum(1)
            out[rows] = sums[np.arange(rows.size), lead - 1]
            bound[rows[lead <= ks.size]], hit = math.inf, hit | (lead <= ks.size)
            if hit.all():
                break
            rows, flags = rows[~hit], small[~hit, ks.size:]
    if not hit.all():
        bound[rows] = at[~hit, -1]
    if not hit.all() or (bound > GUARD_RTOL * (1.0 + np.abs(out))).any():
        why = (f"did not settle within {MAX_TERMS} terms" if not hit.all() else
               "has a term past the double range" if np.isinf(bound).any() else
               f"cancels: rounding bound {bound.max():.3e} > {GUARD_RTOL:g} (1 + |E|)")
        raise ConvergenceError(f"Mittag-Leffler series {why}", partial=shaped(out),
                               bound=shaped(bound))
    return shaped(out)
