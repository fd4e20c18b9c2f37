"""Batch command-line front end.

One subcommand per computational area; scalar queries print a single decimal,
tabulations print CSV with a header row, and the spiral subcommand emits SVG.
Exit codes: 0 success, 1 domain or convergence failure, 2 usage error.
Output files are only created after the computation has fully succeeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import designstats, melconv, pathway, phyllotaxis, specfun
from .errors import ConvergenceError, DomainError, as_number

_ENV_SEED = "PATHWAY_TOOLKIT_SEED"
_FMT = "%.15g"


def _fmt(x) -> str:
    return _FMT % float(x)


@dataclass
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    output: str | None = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get(_ENV_SEED)
        return int(env) if env else 0


# ---------------------------------------------------------------------------
# CSV tables

def load_table(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV with a header row into (header, float matrix).

    Ragged or non-numeric rows raise with the offending row/column named.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError(f"{path}: empty table (missing header row)")
    header = [h.strip() for h in lines[0].split(",")]
    width = len(header)
    rows = []
    for r, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:
            raise DomainError(
                f"{path}: row {r} has {len(cells)} cells, expected {width}"
            )
        values = []
        for c, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise DomainError(
                    f"{path}: row {r}, column {c}: not a number: {cell!r}"
                ) from None
        rows.append(values)
    return header, np.asarray(rows, dtype=float).reshape(len(rows), width)


def format_table(header: list[str], rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def write_table(header: list[str], rows, path) -> int:
    """Write a CSV table (15 significant digits); returns bytes written."""
    data = format_table(header, rows).encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)


# ---------------------------------------------------------------------------
# argument parsing

def _list_of(kind, noun: str):
    """argparse type for a comma-separated list; empty tokens are dropped."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")
    return parse


_float_list, _int_list = _list_of(float, "number"), _list_of(int, "integer")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathway-toolkit",
        description="Pathway densities, Mittag-Leffler functions, "
        "Mellin-convolution integrals, and related batch computations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", help="output file (default: standard output)")
        p.add_argument("--seed", type=int, help=f"seed (fallback: ${_ENV_SEED}, then 0)")

    p = sub.add_parser("ml", help="Mittag-Leffler function value")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--uppers", type=_float_list, default=[])
    p.add_argument("--lowers", type=_float_list, default=[])
    p.add_argument("--x", type=float, required=True)
    add_common(p)

    p = sub.add_parser("pathway", help="pathway model pdf/cdf/support/sampling")
    p.add_argument("--params", help="JSON file with alpha, gamma, delta, a, eta")
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--op", choices=["pdf", "cdf", "support", "sample"], default="pdf")
    p.add_argument("--x", type=float)
    p.add_argument("--n", type=int, default=1)
    add_common(p)

    p = sub.add_parser("ratecalc", help="reaction-rate integral I(gamma, a, b)")
    p.add_argument("--gamma", type=_float_list, required=True)
    p.add_argument("--a", type=_float_list, required=True)
    p.add_argument("--b", type=_float_list, required=True)
    p.add_argument(
        "--route", choices=["quadrature", "mellin", "both"], default="quadrature"
    )
    add_common(p)

    p = sub.add_parser("kratzel", help="Kratzel integrals g1/g2")
    p.add_argument("--gamma", type=_float_list, required=True)
    p.add_argument("--a", type=_float_list, required=True)
    p.add_argument("--y", type=_float_list, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    add_common(p)

    p = sub.add_parser("melconv", help="density of a product/ratio structure")
    p.add_argument("--spec", required=True, help="JSON product/ratio description")
    p.add_argument("--u", type=_float_list, required=True)
    add_common(p)

    p = sub.add_parser("anova", help="missing-value design solver")
    p.add_argument("--a-matrix", help="CSV of the incidence matrix A")
    p.add_argument("--counts", help="CSV of cell counts to build A from")
    p.add_argument("--g", required=True, help="CSV with the right-hand side G")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-terms", type=int, default=1000)
    add_common(p)

    p = sub.add_parser("corr", help="sample correlation coefficient")
    p.add_argument("--data", help="CSV with two columns x, y")
    p.add_argument("--x", type=_float_list)
    p.add_argument("--y", type=_float_list)
    add_common(p)

    p = sub.add_parser("qform", help="chi-squaredness Monte Carlo check")
    p.add_argument("--matrix", required=True, help="CSV of the symmetric matrix")
    p.add_argument("--n", type=int, default=100_000)
    add_common(p)

    p = sub.add_parser("volume", help="random-volume log-product skewness trend")
    p.add_argument("--k-list", type=_int_list, default=[2, 4, 8])
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--n", type=int, default=100_000)
    add_common(p)

    p = sub.add_parser("phyllo", help="golden-angle spiral pattern as SVG")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--n", type=int, default=300)
    p.add_argument(
        "--divergence-deg",
        type=float,
        help="divergence angle in degrees (default: golden angle)",
    )
    p.add_argument("--marker-radius", type=float, default=1.0)
    add_common(p)

    return parser


def parse_args(argv) -> RunConfig:
    """Validate the argument vector into a RunConfig (usage errors exit 2)."""
    ns = _build_parser().parse_args(argv)
    params = {k: v for k, v in vars(ns).items() if k not in ("subcommand", "out", "seed")}
    cfg = RunConfig(
        subcommand=ns.subcommand,
        params=params,
        seed=getattr(ns, "seed", None),
        output=getattr(ns, "out", None),
    )
    _validate(cfg)
    return cfg


def _usage_error(message: str):
    raise SystemExit(_die(message, code=2))


def _die(message: str, code: int) -> int:
    print(f"pathway-toolkit: error: {message}", file=sys.stderr)
    return code


def _validate(cfg: RunConfig):
    p = cfg.params
    if cfg.subcommand == "pathway":
        if p["params"] is None and p["alpha"] is None:
            _usage_error("pathway: provide --params FILE or --alpha (with the "
                         "other inline parameters)")
        if p["op"] in ("pdf", "cdf") and p["x"] is None:
            _usage_error(f"pathway --op {p['op']}: --x is required")
        if p["op"] == "sample" and p["n"] < 0:
            _usage_error("pathway --op sample: --n must be >= 0")
    elif cfg.subcommand == "anova":
        if not p["a_matrix"] and not p["counts"]:
            _usage_error("anova: provide --a-matrix or --counts")
    elif cfg.subcommand == "corr":
        if p["data"] is None and (p["x"] is None or p["y"] is None):
            _usage_error("corr: provide --data FILE or both --x and --y")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the full output text/bytes)

def _run_ml(cfg: RunConfig) -> str:
    p = cfg.params
    params = specfun.MLParams(p["alpha"], p["beta"], p["gamma"], p["uppers"], p["lowers"])
    return _fmt(specfun.mittag_leffler(p["x"], params)) + "\n"


def _pathway_params(p: dict) -> pathway.PathwayParams:
    if p["params"]:
        return pathway.PathwayParams.from_json(Path(p["params"]).read_text())
    return pathway.PathwayParams(
        alpha=p["alpha"], gamma=p["gamma"], delta=p["delta"], a=p["a"], eta=p["eta"]
    )


def _run_pathway(cfg: RunConfig) -> str:
    p = cfg.params
    params = _pathway_params(p)
    op = p["op"]
    if op == "pdf":
        return _fmt(pathway.pathway_pdf(params, p["x"])) + "\n"
    if op == "cdf":
        return _fmt(pathway.pathway_cdf(params, p["x"])) + "\n"
    if op == "support":
        lo, hi = pathway.pathway_support(params)
        return f"{_fmt(lo)},{_fmt(hi)}\n"
    draws = pathway.pathway_sample(params, p["n"], cfg.resolved_seed())
    return format_table(["index", "value"], [(i, v) for i, v in enumerate(draws)])


def _tabulate(axes, header: list[str], evaluate, fixed=()) -> str:
    """Evaluate over every point of the product of the axes.  A single point
    (every axis of length 1) prints the first value alone; otherwise one CSV
    row per point: its coordinates, the fixed columns, then the values.
    An empty axis (such as ``--gamma ,``) is a DomainError."""
    empty = [name for name, axis in zip(header, axes) if not axis]
    if empty:
        raise DomainError(f"empty grid axis: {', '.join(empty)} needs at least one value")
    points = list(itertools.product(*axes))
    if len(points) == 1:
        return _fmt(evaluate(*points[0])[0]) + "\n"
    return format_table(header, [(*pt, *fixed, *evaluate(*pt)) for pt in points])


def _run_ratecalc(cfg: RunConfig) -> str:
    p = cfg.params
    return _tabulate(
        [p["gamma"], p["a"], p["b"]],
        ["gamma", "a", "b", "value", "abs_err_estimate"],
        lambda g, a, b: melconv.reaction_rate_with_error(g, a, b, route=p["route"]),
    )


def _run_kratzel(cfg: RunConfig) -> str:
    p = cfg.params
    al, be = p["alpha"], p["beta"]
    return _tabulate(
        [p["gamma"], p["a"], p["y"]],
        ["gamma", "a", "y", "alpha", "beta", "value", "abs_err_estimate"],
        lambda g, a, y: melconv.kratzel_g2_with_error(g, a, y, al, be),
        fixed=(al, be),
    )


def _parse_product_spec(path: str) -> melconv.ProductSpec:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: the spec must be a JSON object")
    unknown = sorted(set(doc) - {"numerator", "denominator"})
    if unknown:
        raise DomainError(
            f"{path}: unknown spec keys {unknown}; use numerator and denominator"
        )

    def factors(side):
        items = doc.get(side, [])
        if not isinstance(items, list):
            raise DomainError(f"{path}: {side} must be a list, got {items!r}")
        out = []
        for item in items:
            if not isinstance(item, dict) or "kind" not in item:
                raise DomainError(f"{path}: {side} factor {item!r} needs a 'kind'")
            item = dict(item)
            kind = item.pop("kind")
            expo = as_number(item.pop("exponent", 1.0),
                             f"{path}: {side} factor exponent must be a number")
            out.append((melconv.builtin_density(kind, **item), expo))
        return out
    return melconv.ProductSpec(
        numerator=factors("numerator"), denominator=factors("denominator")
    )


def _run_melconv(cfg: RunConfig) -> str:
    p = cfg.params
    dens = melconv.product_moment_density(_parse_product_spec(p["spec"]))
    density = iter(dens.density(np.array(p["u"], dtype=float)))  # one batched inversion
    return _tabulate([p["u"]], ["u", "density"], lambda u: (next(density),))


def _run_anova(cfg: RunConfig) -> str:
    p = cfg.params
    _, g_tab = load_table(p["g"])
    G = g_tab.ravel()
    if p["a_matrix"]:
        _, A = load_table(p["a_matrix"])
    else:
        _, counts = load_table(p["counts"])
        A = designstats.build_incidence(counts)
    system = designstats.IncidenceSystem(A=A, G=G)
    alpha, _, _ = designstats.neumann_solve(
        system, tol=p["tol"], max_terms=p["max_terms"]
    )
    return format_table(["index", "alpha_value"], list(enumerate(alpha)))


def _run_corr(cfg: RunConfig) -> str:
    p = cfg.params
    if p["data"]:
        _, tab = load_table(p["data"])
        if tab.shape[1] < 2:
            raise DomainError("corr --data needs at least two columns")
        x, y = tab[:, 0], tab[:, 1]
    else:
        x, y = p["x"], p["y"]
    return _fmt(designstats.sample_correlation(x, y)) + "\n"


def _run_qform(cfg: RunConfig) -> str:
    p = cfg.params
    _, A = load_table(p["matrix"])
    report = designstats.chisquared_form_check(A, n=p["n"], seed=cfg.resolved_seed())
    header = ["idempotent", "rank", "ks_stat", "consistent"]
    return format_table(header, [[report[k] for k in header]])


def _run_volume(cfg: RunConfig) -> str:
    p = cfg.params
    trend = melconv.normality_trend(
        p["k_list"], (p["alpha"], p["beta"]), p["n"], cfg.resolved_seed()
    )
    return format_table(["k", "skewness"], trend)


def _run_phyllo(cfg: RunConfig) -> str:
    p = cfg.params
    divergence = (
        math.radians(p["divergence_deg"])
        if p["divergence_deg"] is not None
        else None
    )
    config = phyllotaxis.SpiralConfig(
        k=p["k"],
        n_points=p["n"],
        divergence=divergence,
        marker_radius=p["marker_radius"],
    )
    points = phyllotaxis.generate_points(config)
    return phyllotaxis.render_svg(points, config)


_HANDLERS = {
    "ml": _run_ml,
    "pathway": _run_pathway,
    "ratecalc": _run_ratecalc,
    "kratzel": _run_kratzel,
    "melconv": _run_melconv,
    "anova": _run_anova,
    "corr": _run_corr,
    "qform": _run_qform,
    "volume": _run_volume,
    "phyllo": _run_phyllo,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; writes output only on success."""
    try:
        payload = _HANDLERS[cfg.subcommand](cfg)
    except (DomainError, ConvergenceError, FileNotFoundError) as exc:
        return _die(str(exc), code=1)
    except json.JSONDecodeError as exc:
        return _die(f"malformed JSON input: {exc}", code=1)
    data = payload if isinstance(payload, bytes) else payload.encode("utf-8")
    if cfg.output:
        Path(cfg.output).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
