"""Operations, output checks and the pass loop shared by every workload.

An operation is one call (or one CLI invocation) whose output is checked
against a reference made apart from the program.  References are either
precomputed by ``plans.py`` (mpmath, scipy.integrate, scipy.spatial) and
carried in ``Op.ref``, or computed here at check time from the op's inputs
with numpy and ``scipy.special``, which the toolkit has already loaded.
Checks run outside the timed region.

This module does not import the toolkit, so the parent process can check
CLI output without paying the toolkit's import.
"""

from __future__ import annotations

import hashlib
import math
import re
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special


@dataclass
class Op:
    name: str  # unique within a pass
    layer: str  # toolkit module the op mainly exercises
    kind: str  # how to run it (worker.RUNNERS, or "cli" for the CLI)
    args: tuple
    check: str  # key into CHECKS
    ref: dict = field(default_factory=dict)
    seeded: bool = False  # output must repeat bit for bit on every pass
    limit_s: float | None = None  # wall-time limit; exceeding it fails the op
    fault: str | None = None  # known fault this op exercises (README)


class TimeLimit(Exception):
    """An operation ran past its wall-time limit."""


@dataclass(frozen=True)
class Uniform:
    """A seeded uniform input array, materialised in the worker so large
    inputs need not travel through the pipe."""

    seed: int
    n: int
    lo: float
    hi: float

    def make(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return np.sort(rng.uniform(self.lo, self.hi, self.n))


def materialize(args: tuple) -> tuple:
    return tuple(a.make() if isinstance(a, Uniform) else a for a in args)


# ---------------------------------------------------------------------------
# the pathway law, from the power substitution y = a|1-alpha| x^delta:
# a type-1 beta below alpha = 1, a type-2 (prime) beta above, a gamma at it

def _law_parts(law, x):
    alpha, gamma, delta, a, eta = law
    x = np.asarray(x, dtype=float)
    p = (gamma + 1.0) / delta
    if alpha < 1:
        q = eta / (1.0 - alpha) + 1.0
        c = a * (1.0 - alpha)
    elif alpha > 1:
        q = eta / (alpha - 1.0) - p
        c = a * (alpha - 1.0)
    else:
        q = None
        c = a * eta
    return alpha, delta, p, q, c, x


def law_cdf(law, x) -> np.ndarray:
    alpha, delta, p, q, c, x = _law_parts(law, x)
    y = c * np.power(np.maximum(x, 0.0), delta)
    if alpha < 1:
        return special.betainc(p, q, np.minimum(y, 1.0))
    if alpha > 1:
        return special.betainc(p, q, y / (1.0 + y))
    return special.gammainc(p, y)


def law_pdf(law, x) -> np.ndarray:
    """Density of the law at x: the beta / beta-prime / gamma density of y
    times the Jacobian dy/dx = c delta x^(delta-1)."""
    alpha, delta, p, q, c, x = _law_parts(law, x)
    out = np.zeros_like(x)
    inside = x > 0
    if alpha < 1:
        inside &= c * np.power(np.maximum(x, 0.0), delta) < 1.0
    xi = x[inside]
    y = c * xi**delta
    log_jac = math.log(c * delta) + (delta - 1.0) * np.log(xi)
    if alpha < 1:
        log_y = special.xlogy(p - 1.0, y) + (q - 1.0) * np.log1p(-y) - special.betaln(p, q)
    elif alpha > 1:
        log_y = special.xlogy(p - 1.0, y) - (p + q) * np.log1p(y) - special.betaln(p, q)
    else:
        log_y = special.xlogy(p - 1.0, y) - y - special.gammaln(p)
    out[inside] = np.exp(log_y + log_jac)
    return out


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else the reason

def _close(got, want, rtol, atol) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.abs(want) + atol)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        return (
            f"{int(bad.sum())} of {bad.size} values off; first got "
            f"{got.ravel()[i]!r}, want {want.ravel()[i]!r}"
        )
    return None


def check_close(out, op):
    r = op.ref
    return _close(out, r["value"], r["rtol"], r["atol"])


def _check_sample(draws, law, seed, ks: bool) -> str | None:
    """Draws must be the law's quantiles of the seeded uniforms, which is the
    documented inverse-CDF contract; compared in probability space so heavy
    tails are held to the same standard as the bulk."""
    draws = np.asarray(draws, dtype=float)
    u = np.random.default_rng(seed).random(draws.size)
    err = _close(law_cdf(law, draws), u, 0.0, 1e-9)
    if err:
        return f"draws are not the law's quantiles of the seeded uniforms: {err}"
    if ks:
        f = np.sort(law_cdf(law, draws))
        n = f.size
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        # sqrt(n) D > 3 has probability about 3e-8 under the law
        if math.sqrt(n) * d > 3.0:
            return f"KS statistic {d:.3g} too large for n = {n}"
    return None


def check_pathway(out, op):
    law = op.ref["law"]
    x = op.args[1]
    want = law_pdf(law, x) if op.ref["op"] == "pdf" else law_cdf(law, x)
    atol = 1e-12 * float(np.max(want)) if op.ref["op"] == "pdf" else 1e-10
    return _close(out, want, 1e-9, atol)


def check_sample(out, op):
    return _check_sample(out, op.ref["law"], op.ref["seed"], ks=op.ref["ks"])


def check_pathway_set(out, op):
    pdf, cdf, draws = out
    law = op.ref["law"]
    xs = op.args[1]
    return (
        _close(pdf, law_pdf(law, xs), 1e-9, 1e-14)
        or _close(cdf, law_cdf(law, xs), 0.0, 1e-10)
        or _check_sample(draws, law, op.args[3], ks=False)
    )


def check_qform(out, op):
    r = op.ref
    for key in ("idempotent", "rank", "consistent"):
        if out[key] != r[key]:
            return f"{key} = {out[key]!r}, want {r[key]!r}"
    err = _close(out["ks_stat"], r["ks_stat"], 1e-9, 1e-12)
    if err:
        return f"ks_stat: {err}"
    if r["idempotent"] and out["ks_stat"] * math.sqrt(r["n"]) > 3.0:
        return "idempotent form fails the chi-square law at the 3e-8 level"
    return None


def _skewness_of_log_beta_sum(k, a, b):
    k2 = k * (special.polygamma(1, a) - special.polygamma(1, a + b))
    k3 = k * (special.polygamma(2, a) - special.polygamma(2, a + b))
    return float(k3 / k2**1.5)


def check_trend(out, op):
    k_list, (a, b), n = op.ref["k_list"], op.ref["shapes"], op.ref["n"]
    if [k for k, _ in out] != list(k_list):
        return f"factor counts {[k for k, _ in out]} != {list(k_list)}"
    mags = [abs(s) for _, s in out]
    if not all(x > y for x, y in zip(mags, mags[1:])):
        return f"skewness magnitudes {mags} do not fall with k"
    # ten standard errors of a sample skewness
    tol = 10.0 * math.sqrt(6.0 / n)
    for k, s in out:
        want = _skewness_of_log_beta_sum(k, a, b)
        if abs(s - want) > tol:
            return f"k = {k}: skewness {s:.4f}, theory {want:.4f}"
    return None


def check_neumann(out, op):
    alpha, terms, residual = out
    if not (terms >= 1 and residual <= 1e-9):
        return f"terms {terms}, residual {residual}"
    want = op.ref["value"]
    return _close(alpha, want, 0.0, 1e-9 * (1.0 + float(np.max(np.abs(want)))))


FIB = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]


def check_pair(out, op):
    pair = tuple(sorted(out))
    want = op.ref["pair"]
    if want == "fibonacci":
        if pair not in set(zip(FIB[:-1], FIB[1:])):
            return f"pair {pair} is not two consecutive Fibonacci numbers"
    elif pair != tuple(want):
        return f"pair {pair}, want {tuple(want)}"
    return None


_CIRCLE = re.compile(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="([-0-9.]+)"')


def check_svg(out, op):
    text = out
    if not text.startswith("<?xml") or not text.rstrip().endswith("</svg>"):
        return "not a complete SVG document"
    xy = np.array([(float(a), float(b)) for a, b, _ in _CIRCLE.findall(text)])
    k, n, divergence = op.ref["spiral"]
    if len(xy) != n:
        return f"{len(xy)} circles, want {n}"
    phi = divergence * np.arange(1, n + 1)
    want = np.column_stack((k * phi * np.cos(phi), k * phi * np.sin(phi)))
    return _close(xy, want, 0.0, 1e-6)


# -- CLI output: the runner returns (exit code, stdout, stderr)

def _cli_ok(out):
    code, stdout, stderr = out
    if code != 0:
        return None, f"exit {code}: {stderr.strip()}"
    return stdout, None


def _csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def check_cli_value(out, op):
    stdout, err = _cli_ok(out)
    if err:
        return err
    r = op.ref
    if "header" in r:
        header, rows = _csv(stdout)
        if header != r["header"]:
            return f"header {header}, want {r['header']}"
        return (
            _close(rows[:, : r["inputs"].shape[1]], r["inputs"], 1e-14, 0.0)
            or _close(rows[:, r["column"]], r["value"], r["rtol"], r["atol"])
        )
    got = np.array([float(t) for t in stdout.strip().split(",")])
    return _close(got, np.atleast_1d(r["value"]), r["rtol"], r["atol"])


def check_cli_sample(out, op):
    stdout, err = _cli_ok(out)
    if err:
        return err
    _, rows = _csv(stdout)
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        return "index column is not 0..n-1"
    return _check_sample(rows[:, 1], op.ref["law"], op.ref["seed"], ks=op.ref["ks"])


def check_cli_qform(out, op):
    stdout, err = _cli_ok(out)
    if err:
        return err
    _, rows = _csv(stdout)
    idem, rank, ks, consistent = rows[0]
    report = {
        "idempotent": bool(idem), "rank": int(rank),
        "ks_stat": ks, "consistent": bool(consistent),
    }
    return check_qform(report, op)


def check_cli_trend(out, op):
    stdout, err = _cli_ok(out)
    if err:
        return err
    _, rows = _csv(stdout)
    return check_trend([(int(k), s) for k, s in rows], op)


def check_cli_svg(out, op):
    stdout, err = _cli_ok(out)
    return err or check_svg(stdout, op)


def check_batch(out, op):
    """One operation made of several independent calls, checked one by one."""
    kind, items = op.args
    for i, (got, args, ref) in enumerate(zip(out, items, op.ref["refs"], strict=True)):
        err = CHECKS[op.ref["check"]](got, replace(op, kind=kind, args=args, ref=ref))
        if err:
            return f"item {i}: {err}"
    return None


CHECKS = {
    "batch": check_batch,
    "close": check_close,
    "pathway": check_pathway,
    "sample": check_sample,
    "pathway_set": check_pathway_set,
    "qform": check_qform,
    "trend": check_trend,
    "neumann": check_neumann,
    "pair": check_pair,
    "svg": check_svg,
    "cli_value": check_cli_value,
    "cli_sample": check_cli_sample,
    "cli_qform": check_cli_qform,
    "cli_trend": check_cli_trend,
    "cli_svg": check_cli_svg,
}


def digest(out) -> str:
    """Bit-exact fingerprint of an output, for the reproducibility check."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        elif isinstance(x, dict):
            for key in sorted(x):
                feed(key)
                feed(x[key])
        else:
            h.update(repr(x).encode())

    feed(out)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the pass loop

def run_pass(ops, execute, first_digests: dict, tracer=None) -> dict:
    """One pass over ``ops`` in order, one at a time.

    Only ``execute(op)`` is timed.  Checks, the reproducibility comparison
    with the first pass's digests, and failure accounting run between the
    timed regions.
    """
    times, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = execute(op)
            reason = None
        except TimeLimit:
            out, reason = None, f"no result within {op.limit_s} s"
        except Exception as exc:  # the benchmark must go on and count it
            out, reason = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op_id = None
        if reason is None:
            try:
                reason = CHECKS[op.check](out, op)
            except Exception as exc:  # malformed output
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None and op.seeded:
            d = digest(out)
            if first_digests.setdefault(op.name, d) != d:
                reason = "output differs from an earlier pass with the same seed"
        if reason is not None:
            failures.append((i, reason))
    return {"op_times": times, "failures": failures}
