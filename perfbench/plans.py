"""The three workloads: their operations, inputs drawn from the seed, and
references computed apart from the toolkit.

Shapes, sizes and parameter families are fixed; the seed moves scales,
evaluation points, sample seeds and data, so every seed does the same
amount of work of the same kind.  The operations that exercise known
faults take fixed inputs (README, "Known faults"); every other input stays
where the toolkit meets its documented tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import special, stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from ops import Op, Uniform, law_cdf, law_pdf

GOLDEN = math.pi * (3.0 - math.sqrt(5.0))
ML_RTOL = 1e-9  # the series is exact to ~1e-12 where the inputs sit
DENSITY_TOL = 1e-7  # inversion target is 1e-8 relative


# ---------------------------------------------------------------------------
# references

def ml_series(x, alpha, beta, gamma=1.0):
    """E^gamma_{alpha,beta}(x) summed in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        total, k = mpmath.mpf(0), 0
        while True:
            term = mpmath.rf(gamma, k) * x**k / (mpmath.factorial(k) * mpmath.gamma(alpha * k + beta))
            total += term
            if k > 5 and abs(term) < mpmath.mpf(10) ** -45 * (1 + abs(total)):
                return float(total)
            k += 1


def rate_ref(g, a, b):
    """Reaction-rate integral by quadrature of the integrand scaled by its
    peak value, split at the peak found from d/dx log f = 0."""
    if b == 0:
        return math.exp(special.gammaln(g + 1) - (g + 1) * math.log(a))

    def log_f(x):
        return g * math.log(x) - a * x - b / math.sqrt(x)

    m = math.exp(brentq(lambda t: g - a * math.exp(t) + 0.5 * b * math.exp(-0.5 * t), -80, 80))
    lm = log_f(m)

    def f(x):
        return math.exp(log_f(x) - lm) if x > 0 else 0.0

    parts = [quad(f, lo, hi, epsabs=0, epsrel=1e-13, limit=500)[0] for lo, hi in ((0, m), (m, math.inf))]
    return sum(parts) * math.exp(lm)


def kratzel_ref(g, a, y):
    nu = g + 1.0
    return 2.0 * (y / a) ** (nu / 2.0) * special.kv(nu, 2.0 * math.sqrt(a * y))


def beta_product_ref(u, k, a, b):
    """Density of a product of k type-1 betas, as a Meijer G-function."""
    with mpmath.workdps(20):
        c = (mpmath.gamma(a + b) / mpmath.gamma(a)) ** k
        return float(c * mpmath.meijerg([[], [a + b - 1] * k], [[a - 1] * k, []], u))


def incidence_ref(counts, g):
    n = np.asarray(counts, dtype=float)
    a = np.diag(1 / n.sum(axis=1)) @ n @ np.diag(1 / n.sum(axis=0)) @ n.T
    b = a - np.median(a, axis=1)[:, None]
    return np.linalg.solve(np.eye(len(g)) - b, g)


def qform_ref(a, n, seed):
    """The chi-squaredness report recomputed from the theorem: idempotency
    and rank from the eigenvalues, and the KS statistic of the same seeded
    normals against the chi-square law."""
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    tol = 1e-10 * max(float(np.max(np.abs(eigs))), 1.0)
    idempotent = float(np.max(np.abs(a @ a - a))) <= tol
    rank = int(np.sum(np.abs(eigs) > tol))
    x = np.random.default_rng(seed).standard_normal((n, a.shape[0]))
    q = ((x @ a) * x).sum(axis=1)
    ks = float(stats.kstest(q, stats.chi2(max(rank, 1)).cdf).statistic)
    critical = 1.63 / math.sqrt(n)
    gap = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0))))
    consistent = ks < critical if idempotent else (ks > critical if gap >= 0.2 else True)
    return {"idempotent": idempotent, "rank": rank, "ks_stat": ks, "consistent": consistent, "n": n}


def spiral_xy(k, n, divergence):
    phi = divergence * np.arange(1, n + 1)
    return np.column_stack((k * phi * np.cos(phi), k * phi * np.sin(phi))), k * phi


def coverage_ref(k, n, divergence):
    """Largest probe-to-point distance over smallest point spacing, by k-d
    tree on the same 60 x 180 probe grid over the pattern's annulus."""
    xy, r = spiral_xy(k, n, divergence)
    rr = np.linspace(r.min(), r.max(), 60)
    aa = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
    probes = np.column_stack((np.outer(rr, np.cos(aa)).ravel(), np.outer(rr, np.sin(aa)).ravel()))
    tree = cKDTree(xy)
    cover = tree.query(probes)[0].max()
    packing = tree.query(xy, k=2)[0][:, 1].min()
    return float(cover / packing)


def entropy_ref(functional, law, order):
    """The functional by mpmath quadrature of the law's density."""
    alpha, _, delta, a, _ = law
    if alpha < 1:
        hi = (a * (1 - alpha)) ** (-1 / delta)
        pts = [0, hi / 2, hi]
    else:
        pts = [0, 1, 4, mpmath.inf]

    def f(x):
        return float(law_pdf(law, np.array([float(x)]))[0])

    if functional == "shannon":
        return float(mpmath.quad(lambda x: -f(x) * math.log(f(x)) if f(x) > 0 else 0.0, pts))
    power = order if functional == "havrda_charvat" else 2.0 - order
    integral = float(mpmath.quad(lambda x: f(x) ** power - f(x), pts))
    if functional == "havrda_charvat":
        return integral / (2.0 ** (1.0 - order) - 1.0)
    return integral / (order - 1.0)


def close(value, rtol, atol=0.0):
    return {"value": np.asarray(value, dtype=float), "rtol": rtol, "atol": atol}


def _csv_file(path: Path, header, rows):
    lines = [",".join(header)] + [_lst(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _num(v):
    return repr(float(v))


def _lst(values):
    return ",".join(map(_num, values))


def _grid(*axes):
    return np.array([(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]])


# ---------------------------------------------------------------------------
# known faults, on fixed inputs

ML_FAULT_X = (-5.0, -10.0, -30.0)
HANG_LAW = (1.9, 0.0, 1.0, 1.0, 1.0)
# The acceptance suite's Kratzel tolerance.  Half-line quadrature (reaction
# rate, Kratzel) misses it on a few random inputs in ten thousand, which
# would make failures depend on the seed, so those ops take fixed grids.
HALFLINE_RTOL = 1e-8


def ml_fault_ops():
    return [
        Op(f"ml_half_at_{x:g}", "specfun", "ml_point", (x, (0.5, 1.0, 1.0)), "close",
           close(special.erfcx(-x), ML_RTOL), fault="ml_alpha_half_negative_x")
        for x in ML_FAULT_X
    ]


def hang_op():
    return Op("sample_alpha_1.9_n200_seed3", "pathway", "pathway_sample", (HANG_LAW, 200, 3),
              "sample", {"law": HANG_LAW, "seed": 3, "ks": False}, limit_s=0.1,
              fault="sample_heavy_tail_hang")


# ---------------------------------------------------------------------------
# workloads

def cli_session(rng, tmp: Path) -> list[Op]:
    """Fourteen README-sized CLI calls covering every subcommand."""
    ops = []

    def cli(name, argv, check, ref):
        ops.append(Op(name, "cli", "cli", (tuple(argv),), check, ref, seeded=True))

    x = rng.uniform(-2.0, 3.0)
    cli("ml_half", ["ml", "--alpha", "0.5", f"--x={_num(x)}"], "cli_value",
        close(special.erfcx(-x), ML_RTOL))

    law = (0.6, 1.0, 1.0, rng.uniform(0.8, 1.25), 1.0)
    params = tmp / "cli_params.json"
    params.write_text(json.dumps(dict(zip(("alpha", "gamma", "delta", "a", "eta"), law))))
    upper = (law[3] * (1 - law[0])) ** (-1 / law[2])
    x = rng.uniform(0.05, 0.95) * upper
    base = ["pathway", "--params", str(params)]
    cli("pathway_pdf", base + ["--op", "pdf", f"--x={_num(x)}"], "cli_value",
        close(law_pdf(law, np.array([x]))[0], 1e-9))
    cli("pathway_cdf", base + ["--op", "cdf", f"--x={_num(x)}"], "cli_value",
        close(law_cdf(law, np.array([x]))[0], 0.0, 1e-10))
    cli("pathway_support", base + ["--op", "support"], "cli_value", close([0.0, upper], 1e-14))
    seed = int(rng.integers(1 << 30))
    cli("pathway_sample", base + ["--op", "sample", "--n", "10000", "--seed", str(seed)],
        "cli_sample", {"law": law, "seed": seed, "ks": True})

    # the README's own examples; half-line integrals take fixed inputs
    # (README, "Known faults")
    cli("ratecalc_scalar", ["ratecalc", "--gamma", "2", "--a", "3", "--b", "0"], "cli_value",
        close(rate_ref(2.0, 3.0, 0.0), HALFLINE_RTOL))
    axes = [(-0.5, 0.0, 1.0, 2.0), (0.5, 1.0, 2.0), (0.5, 1.0, 2.0)]
    cli("ratecalc_grid", ["ratecalc", "--gamma=-0.5,0,1,2", "--a", "0.5,1,2", "--b", "0.5,1,2"],
        "cli_value", _rate_table_ref(_grid(*axes)))
    cli("kratzel", ["kratzel", "--gamma", "0", "--a", "1", "--y", "1"], "cli_value",
        close(kratzel_ref(0.0, 1.0, 1.0), HALFLINE_RTOL))

    spec = tmp / "cli_uu.json"
    spec.write_text(json.dumps({"numerator": [{"kind": "uniform01"}, {"kind": "uniform01"}]}))
    u = rng.uniform(0.05, 0.95)
    cli("melconv", ["melconv", "--spec", str(spec), f"--u={_num(u)}"], "cli_value",
        close(-math.log(u), DENSITY_TOL, DENSITY_TOL))

    counts = rng.integers(1, 7, size=(12, 5))
    gvec = rng.standard_normal(12)
    want = incidence_ref(counts, gvec)
    cli("anova", ["anova", "--counts", _csv_file(tmp / "cli_counts.csv", [f"c{j}" for j in range(5)], counts),
                  "--g", _csv_file(tmp / "cli_g.csv", ["g"], gvec[:, None])],
        "cli_value", {"header": ["index", "alpha_value"], "inputs": np.arange(12.0)[:, None], "column": 1,
                      "value": want, "rtol": 0.0, "atol": 1e-9 * (1 + np.max(np.abs(want)))})
    xs, ys = rng.standard_normal(20), rng.standard_normal(20)
    cli("corr", ["corr", f"--x={_lst(xs)}", f"--y={_lst(ys)}"], "cli_value",
        close(np.corrcoef(xs, ys)[0, 1], 1e-12))
    mat, seed = _projector(rng, 3, 2), int(rng.integers(1 << 30))
    cli("qform", ["qform", "--matrix", _csv_file(tmp / "cli_m.csv", ["m0", "m1", "m2"], mat),
                  "--n", "100000", "--seed", str(seed)], "cli_qform", qform_ref(mat, 100_000, seed))
    seed = int(rng.integers(1 << 30))
    cli("volume", ["volume", "--k-list", "2,4,8", "--n", "100000", "--seed", str(seed)],
        "cli_trend", {"k_list": [2, 4, 8], "shapes": (2.0, 2.0), "n": 100_000})
    k = rng.uniform(0.7, 1.5)
    cli("phyllo", ["phyllo", "--n", "300", f"--k={_num(k)}"], "cli_svg", {"spiral": (k, 300, GOLDEN)})
    return ops


def _rate_table_ref(pts):
    return {"header": ["gamma", "a", "b", "value", "abs_err_estimate"], "inputs": pts,
            "column": 3, "value": np.array([rate_ref(*p) for p in pts]), "rtol": HALFLINE_RTOL,
            "atol": 0.0}


def _projector(rng, p, rank):
    q, _ = np.linalg.qr(rng.standard_normal((p, rank)))
    return q @ q.T


def dense_grids(rng, tmp: Path) -> list[Op]:
    """29 operations: few set-ups, each with many points."""
    ops = []

    def seed():
        return int(rng.integers(1 << 30))

    # melconv: density tables by Mellin inversion, and the normality trend
    spec = tmp / "dense_uu.json"
    spec.write_text(json.dumps({"numerator": [{"kind": "uniform01"}, {"kind": "uniform01"}]}))
    us = np.sort(rng.uniform(0.02, 0.98, 100))
    ref = {"header": ["u", "density"], "inputs": us[:, None], "column": 1,
           "value": -np.log(us), "rtol": DENSITY_TOL, "atol": DENSITY_TOL}
    ops.append(Op("cli_melconv_uu_100", "melconv", "cli",
                  (("melconv", "--spec", str(spec), f"--u={_lst(us)}"),), "cli_value", ref))
    us = np.sort(rng.uniform(0.02, 0.98, 40))
    ops.append(Op("density_uuu_40", "melconv", "density", ([("uniform01", {}, 1.0)] * 3, [], us),
                  "close", close(np.log(us) ** 2 / 2, DENSITY_TOL, DENSITY_TOL)))
    g1, g2 = rng.uniform(0.5, 1.5), rng.uniform(2.0, 3.0)
    us = np.sort(rng.uniform(0.05, 5.0, 100))
    ops.append(Op("density_gamma_ratio_100", "melconv", "density",
                  ([("gamma", {"gamma": g1}, 1.0)], [("gamma", {"gamma": g2}, 1.0)], us),
                  "close", close(stats.betaprime(g1 + 1, g2 + 1).pdf(us), DENSITY_TOL, DENSITY_TOL)))
    a, b = rng.uniform(1.5, 2.5), rng.uniform(2.0, 3.5)
    us = np.sort(rng.uniform(0.01, 0.95, 30))
    ops.append(Op("density_beta_product_k3_30", "melconv", "volume_density", (3, (a, b), us), "close",
                  close([beta_product_ref(u, 3, a, b) for u in us], DENSITY_TOL, DENSITY_TOL)))
    ops.append(Op("cli_ratecalc_both_8", "melconv", "cli",
                  (("ratecalc", "--route", "both", "--gamma=0,1", "--a=0.5,2", "--b=0.5,2"),),
                  "cli_value", _rate_table_ref(_grid((0.0, 1.0), (0.5, 2.0), (0.5, 2.0)))))
    shapes, n = (rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0)), 100_000
    ops.append(Op("normality_trend", "melconv", "trend", ([2, 4, 8, 16], shapes, n, seed()), "trend",
                  {"k_list": [2, 4, 8, 16], "shapes": shapes, "n": n}, seeded=True))

    # specfun: 1000-point grids against the classical identities
    for name, abg, lo, hi, ref in [
        ("ml_exp", (1.0, 1.0, 1.0), -5.0, 5.0, np.exp),
        ("ml_cosh", (2.0, 1.0, 1.0), 0.0, 25.0, lambda z: np.cosh(np.sqrt(z))),
        ("ml_expm1", (1.0, 2.0, 1.0), -5.0, 5.0, lambda x: np.expm1(x) / x),
        ("ml_erfcx", (0.5, 1.0, 1.0), -2.5, 3.0, lambda x: special.erfcx(-x)),
    ]:
        xs = np.sort(rng.uniform(lo, hi, 1000))
        ops.append(Op(f"{name}_1000", "specfun", "ml", (xs, abg), "close", close(ref(xs), ML_RTOL)))
    ops.extend(ml_fault_ops())

    # pathway: one law per regime, pdf and cdf at 1e6 points, 2e4 draws
    for alpha, gamma, eta, span in [(0.5, 1.0, 1.0, None), (1.0, 1.0, 1.0, 10.0), (1.5, 0.0, 2.0, 20.0)]:
        scale = rng.uniform(0.8, 1.25)
        law = (alpha, gamma, 1.0, scale, eta)
        hi = 1.0 / (scale * (1 - alpha)) if span is None else span / scale
        x = Uniform(seed(), 1_000_000, 0.0, hi)
        tag = f"alpha_{alpha:g}"
        for what in ("pdf", "cdf"):
            ops.append(Op(f"{what}_{tag}_1e6", "pathway", f"pathway_{what}", (law, x), "pathway",
                          {"law": law, "op": what}))
        s = seed()
        ops.append(Op(f"sample_{tag}_2e4", "pathway", "pathway_sample", (law, 20_000, s), "sample",
                      {"law": law, "seed": s, "ks": True}, seeded=True))
    law = (0.7, 1.0, 1.0, rng.uniform(0.8, 1.25), 1.0)
    ops.append(Op("entropy_shannon_0.7", "pathway", "entropy", ("shannon", law, None), "close",
                  close(entropy_ref("shannon", law, None), 1e-7)))

    # designstats: a rank-2 projector at n = 1e6, one large incidence system
    mat, s = _projector(rng, 4, 2), seed()
    ops.append(Op("qform_p4_1e6", "designstats", "qform", (mat, 1_000_000, s), "qform",
                  qform_ref(mat, 1_000_000, s), seeded=True))
    counts, gvec = rng.integers(1, 7, size=(2000, 60)), rng.standard_normal(2000)
    ops.append(Op("neumann_p2000", "designstats", "neumann", (counts, gvec), "neumann",
                  {"value": incidence_ref(counts, gvec)}))

    # phyllotaxis at n = 3000
    k = rng.uniform(0.7, 1.5)
    ops.append(Op("parastichy_golden_3000", "phyllotaxis", "parastichy", (k, 3000, GOLDEN, (1500, 3000)),
                  "pair", {"pair": "fibonacci"}))
    ops.append(Op("parastichy_fifth_turn_3000", "phyllotaxis", "parastichy",
                  (k, 3000, 2 * math.pi / 5, (1500, 3000)), "pair", {"pair": (5, 5)}))
    ops.append(Op("coverage_golden_3000", "phyllotaxis", "coverage", (k, 3000, GOLDEN), "close",
                  close(coverage_ref(k, 3000, GOLDEN), 1e-9)))
    ops.append(Op("cli_phyllo_3000", "phyllotaxis", "cli", (("phyllo", "--n", "3000", f"--k={_num(k)}"),),
                  "cli_svg", {"spiral": (k, 3000, GOLDEN)}))
    return ops


# pathway parameter grid for param_sweeps: (alpha, gamma, delta, eta).  Sets
# above alpha = 1 are kept when the tail index delta * q2 is at least 2, so
# no seeded draw of 100 lands where the sampler's bisection cannot finish.
def _sweep_laws():
    out = []
    for alpha in (0.35, 0.7, 1.0, 1.3, 1.6):
        for gamma in (0.0, 1.2):
            for delta in (0.8, 1.6):
                for eta in (1.0, 2.5):
                    if alpha > 1 and delta * (eta / (alpha - 1) - (gamma + 1) / delta) < 2:
                        continue
                    out.append((alpha, gamma, delta, eta))
    return out


def param_sweeps(rng, tmp: Path) -> list[Op]:
    """92 operations: many set-ups, each with a few points."""
    ops = []

    # melconv: the reaction-rate grid one gamma per CLI call, the acceptance
    # suite's grid by route="both", and a Kratzel grid.  Fixed inputs
    # (README, "Known faults").
    a_vals, b_vals = np.linspace(0.3, 3.0, 10), np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    for i, g in enumerate(np.linspace(-0.5, 2.0, 10)):
        ops.append(Op(f"cli_ratecalc_{i}", "melconv", "cli",
                      (("ratecalc", f"--gamma={_num(g)}", f"--a={_lst(a_vals)}", f"--b={_lst(b_vals)}"),),
                      "cli_value", _rate_table_ref(_grid([g], a_vals, b_vals))))
    axes = [(-0.5, 0.0, 1.0, 2.0), (0.5, 1.0, 2.0), (0.5, 1.0, 2.0)]
    ops.append(Op("cli_ratecalc_both_36", "melconv", "cli",
                  (("ratecalc", "--route", "both", "--gamma=-0.5,0,1,2", "--a=0.5,1,2", "--b=0.5,1,2"),),
                  "cli_value", _rate_table_ref(_grid(*axes))))
    a_vals, y_vals = np.linspace(0.3, 2.5, 5), np.linspace(0.2, 2.5, 4)
    for i, g in enumerate(np.linspace(-0.5, 2.0, 5)):
        pts = _grid([g], a_vals, y_vals)
        ref = {"header": ["gamma", "a", "y", "alpha", "beta", "value", "abs_err_estimate"],
               "inputs": np.c_[pts, np.ones((len(pts), 2))], "column": 5,
               "value": np.array([kratzel_ref(*p) for p in pts]), "rtol": HALFLINE_RTOL, "atol": 0.0}
        ops.append(Op(f"cli_kratzel_{i}", "melconv", "cli",
                      (("kratzel", f"--gamma={_num(g)}", f"--a={_lst(a_vals)}", f"--y={_lst(y_vals)}"),),
                      "cli_value", ref))

    # pathway: construction, pdf/cdf at 4 points and 100 draws per set
    for alpha, gamma, delta, eta in _sweep_laws():
        law = (alpha, gamma, delta, rng.uniform(0.8, 1.25), eta)
        hi = 0.95 * (law[3] * (1 - alpha)) ** (-1 / delta) if alpha < 1 else 3.0
        xs, s = np.sort(rng.uniform(0.05 * hi, hi, 4)), int(rng.integers(1 << 30))
        ops.append(Op(f"pathway_set_{alpha}_{gamma}_{delta}_{eta}", "pathway", "pathway_set",
                      (law, xs, 100, s), "pathway_set", {"law": law}, seeded=True))
    ops.append(hang_op())

    # specfun: three-parameter Mittag-Leffler, 60 parameter sets of five
    # points, six sets to an operation
    for i in range(10):
        sets = [(np.sort(rng.uniform(-1.5, 3.0, 5)),
                 (rng.uniform(0.5, 2.5), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))) for _ in range(6)]
        ops.append(Op(f"ml_sets_{i}", "specfun", "batch", ("ml", sets), "close",
                      close([[ml_series(x, *abg) for x in xs] for xs, abg in sets], ML_RTOL)))

    # pathway: the three entropy functionals on four densities
    for base in [(0.6, 1.0, 1.0, 1.0), (1.0, 0.5, 1.5, 1.0), (1.4, 0.0, 1.0, 2.0), (0.8, 2.0, 2.0, 1.5)]:
        law = base[:3] + (rng.uniform(0.8, 1.25),) + base[3:]
        for functional, order in (("shannon", None), ("havrda_charvat", 1.5), ("mathai", 0.5)):
            ops.append(Op(f"entropy_{functional}_{base[0]}", "pathway", "entropy", (functional, law, order),
                          "close", close(entropy_ref(functional, law, order), 1e-7)))

    # designstats: 100 small incidence systems, p = 3..8, ten to an operation
    for i in range(10):
        systems = [(rng.integers(1, 7, size=(3 + j % 6, 3 + j % 6 + j % 4)), rng.standard_normal(3 + j % 6))
                   for j in range(i, i + 10)]
        ops.append(Op(f"neumann_small_{i}", "designstats", "batch", ("neumann", systems), "batch",
                      {"check": "neumann", "refs": [{"value": incidence_ref(*sys)} for sys in systems]}))

    mat, s = _projector(rng, 3, 2), int(rng.integers(1 << 30))
    ops.append(Op("qform_p3_2e4", "designstats", "qform", (mat, 20_000, s), "qform",
                  qform_ref(mat, 20_000, s), seeded=True))

    # phyllotaxis: n = 300 spirals, two golden and one at 2 pi / 5
    for name, k, div, pair in [("golden_a", rng.uniform(0.7, 1.5), GOLDEN, "fibonacci"),
                               ("golden_b", rng.uniform(0.7, 1.5), GOLDEN, "fibonacci"),
                               ("fifth_turn", rng.uniform(0.7, 1.5), 2 * math.pi / 5, (5, 5))]:
        ops.append(Op(f"parastichy_{name}_300", "phyllotaxis", "parastichy", (k, 300, div, (150, 300)),
                      "pair", {"pair": pair}))
        ops.append(Op(f"coverage_{name}_300", "phyllotaxis", "coverage", (k, 300, div), "close",
                      close(coverage_ref(k, 300, div), 1e-9)))
        ops.append(Op(f"svg_{name}_300", "phyllotaxis", "svg", (k, 300, div), "svg",
                      {"spiral": (k, 300, div)}))
    return ops


BUILDERS = {"cli_session": cli_session, "dense_grids": dense_grids, "param_sweeps": param_sweeps}


def build(workload: str, seed: int, tmp: Path) -> list[Op]:
    salt = list(BUILDERS).index(workload)
    return BUILDERS[workload](np.random.default_rng([seed, salt]), tmp)
