"""Batch command-line front end.

One subcommand per computational area; scalar queries print a single decimal,
tabulations print CSV with a header row, and the spiral subcommand emits SVG.
Exit codes: 0 success, 1 domain, convergence, file or memory failure, 2 usage error.
Output files are only created after the computation has fully succeeded.
Each handler imports the numerical module it calls, so a call loads only
what its subcommand needs: phyllo, corr, anova and volume load no scipy.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError, as_number

_ENV_SEED = "PATHWAY_TOOLKIT_SEED"
_FMT = "%.15g"


def _fmt(x) -> str:
    return _FMT % float(x)


# ---------------------------------------------------------------------------
# input files and CSV tables

def _read(path, parse=str):
    """An input file read as UTF-8 and passed through ``parse``.  A file that
    is not UTF-8, not valid JSON where ``parse`` reads JSON, or that ``parse``
    rejects, is a DomainError that names it."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, DomainError) as exc:
        raise DomainError(f"{path}: {exc}") from None


def load_table(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV with a header row into (header, float matrix).

    Ragged or non-numeric rows raise with the offending row/column named.
    """
    lines = [ln for ln in _read(path).splitlines() if ln.strip()]
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
# subcommand handlers (each takes the parsed namespace, imports the module it
# calls, and returns the output text)

def _run_ml(ns) -> str:
    from . import specfun

    params = specfun.MLParams(ns.alpha, ns.beta, ns.gamma, ns.uppers, ns.lowers)
    return _fmt(specfun.mittag_leffler(ns.x, params)) + "\n"


def _run_pathway(ns) -> str:
    from . import pathway

    if ns.params is not None:
        params = _read(ns.params, pathway.PathwayParams.from_json)
    else:
        params = pathway.PathwayParams(
            alpha=ns.alpha, gamma=ns.gamma, delta=ns.delta, a=ns.a, eta=ns.eta
        )
    if ns.op == "pdf":
        return _fmt(pathway.pathway_pdf(params, ns.x)) + "\n"
    if ns.op == "cdf":
        return _fmt(pathway.pathway_cdf(params, ns.x)) + "\n"
    if ns.op == "support":
        lo, hi = pathway.pathway_support(params)
        return f"{_fmt(lo)},{_fmt(hi)}\n"
    draws = pathway.pathway_sample(params, ns.n, ns.seed)
    return format_table(["index", "value"], [(i, v) for i, v in enumerate(draws)])


def _tabulate(axes, header: list[str], evaluate, fixed=()) -> str:
    """Evaluate every point of the product of the axes in one call:
    ``evaluate(points)`` gives one row of values per point.  A single point
    (every axis of length 1) prints its first value alone; otherwise one CSV
    row per point: its coordinates, the fixed columns, then the values.
    An empty axis (such as ``--gamma ,``) is a DomainError."""
    empty = [name for name, axis in zip(header, axes) if not axis]
    if empty:
        raise DomainError(f"empty grid axis: {', '.join(empty)} needs at least one value")
    points = list(itertools.product(*axes))
    values = list(evaluate(points))
    if len(points) == 1:
        return _fmt(values[0][0]) + "\n"
    return format_table(header, [(*pt, *fixed, *v) for pt, v in zip(points, values)])


def _run_ratecalc(ns) -> str:
    from . import melconv

    return _tabulate(
        [ns.gamma, ns.a, ns.b],
        ["gamma", "a", "b", "value", "abs_err_estimate"],
        lambda points: np.transpose(
            melconv.reaction_rate_with_error(*np.transpose(points), route=ns.route)),
    )


def _run_kratzel(ns) -> str:
    from . import melconv

    al, be = ns.alpha, ns.beta
    return _tabulate(
        [ns.gamma, ns.a, ns.y],
        ["gamma", "a", "y", "alpha", "beta", "value", "abs_err_estimate"],
        lambda points: np.transpose(melconv.kratzel_g2_with_error(*np.transpose(points), al, be)),
        fixed=(al, be),
    )


def _parse_product_spec(path: str):
    from . import melconv

    doc = _read(path, json.loads)
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
            if not isinstance(item, dict) or not isinstance(item.get("kind"), str):
                raise DomainError(f"{path}: {side} factor {item!r} needs a 'kind' string")
            item = dict(item)
            kind = item.pop("kind")
            expo = as_number(item.pop("exponent", 1.0),
                             f"{path}: {side} factor exponent must be a number")
            out.append((melconv.builtin_density(kind, **item), expo))
        return out
    return melconv.ProductSpec(
        numerator=factors("numerator"), denominator=factors("denominator")
    )


def _run_melconv(ns) -> str:
    from . import melconv

    dens = melconv.product_moment_density(_parse_product_spec(ns.spec))
    # the whole grid is one batched inversion
    return _tabulate([ns.u], ["u", "density"], lambda points: zip(dens.density(np.ravel(points))))


def _run_anova(ns) -> str:
    from . import designstats

    _, g_tab = load_table(ns.g)
    G = g_tab.ravel()
    if ns.a_matrix is not None:
        _, A = load_table(ns.a_matrix)
    else:
        _, counts = load_table(ns.counts)
        A = designstats.build_incidence(counts)
    system = designstats.IncidenceSystem(A=A, G=G)
    alpha, _, _ = designstats.neumann_solve(system, tol=ns.tol, max_terms=ns.max_terms)
    return format_table(["index", "alpha_value"], list(enumerate(alpha)))


def _run_corr(ns) -> str:
    from . import designstats

    if ns.data is not None:
        _, tab = load_table(ns.data)
        if tab.shape[1] < 2:
            raise DomainError("--data needs at least two columns, x and y")
        x, y = tab[:, 0], tab[:, 1]
    else:
        x, y = ns.x, ns.y
    return _fmt(designstats.sample_correlation(x, y)) + "\n"


def _run_qform(ns) -> str:
    from . import designstats

    _, A = load_table(ns.matrix)
    report = designstats.chisquared_form_check(A, n=ns.n, seed=ns.seed)
    header = ["idempotent", "rank", "ks_stat", "consistent"]
    return format_table(header, [[report[k] for k in header]])


def _run_volume(ns) -> str:
    from . import designstats

    trend = designstats.normality_trend(ns.k_list, (ns.alpha, ns.beta), ns.n, ns.seed)
    return format_table(["k", "skewness"], trend)


def _run_phyllo(ns) -> str:
    from . import phyllotaxis

    divergence = None if ns.divergence_deg is None else math.radians(ns.divergence_deg)
    config = phyllotaxis.SpiralConfig(
        k=ns.k,
        n_points=ns.n,
        divergence=divergence,
        marker_radius=ns.marker_radius,
    )
    points = phyllotaxis.generate_points(config)
    return phyllotaxis.render_svg(points, config)


# ---------------------------------------------------------------------------
# the argument table

def _list_of(kind, noun: str):
    """argparse type for a comma-separated list; empty tokens are dropped."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")
    return parse


_float_list, _int_list = _list_of(float, "number"), _list_of(int, "integer")


def _int_from(least: int, noun: str):
    """argparse type for an integer >= least."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"not a {noun} integer: {text!r}")
        return value
    return parse


# a draw count or a seed; a term cap
_non_negative_int, _positive_int = _int_from(0, "non-negative"), _int_from(1, "positive")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole CLI: each subparser carries its handler (``run``), its inputs
    and their types.  Built once per process, so it holds nothing that
    changes between calls; ``parse_args`` reads the seed's environment
    fallback."""
    parser = argparse.ArgumentParser(
        prog="pathway-toolkit",
        description="Pathway densities, Mittag-Leffler functions, "
        "Mellin-convolution integrals, and related batch computations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, summary, seeded=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--out", help="output file (default: standard output)")
        if seeded:
            p.add_argument("--seed", type=_non_negative_int,
                           help=f"seed (fallback: ${_ENV_SEED}, then 0)")
        return p

    p = add("ml", _run_ml, "Mittag-Leffler function value")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--uppers", type=_float_list, default=())
    p.add_argument("--lowers", type=_float_list, default=())
    p.add_argument("--x", type=float, required=True)

    p = add("pathway", _run_pathway, "pathway model pdf/cdf/support/sampling", seeded=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--params", help="JSON file with alpha, gamma, delta, a, eta")
    source.add_argument("--alpha", type=float, help="inline, with the parameters below")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--op", choices=["pdf", "cdf", "support", "sample"], default="pdf")
    p.add_argument("--x", type=float, help="required by --op pdf and cdf")
    p.add_argument("--n", type=_non_negative_int, default=1)

    p = add("ratecalc", _run_ratecalc, "reaction-rate integral I(gamma, a, b)")
    p.add_argument("--gamma", type=_float_list, required=True)
    p.add_argument("--a", type=_float_list, required=True)
    p.add_argument("--b", type=_float_list, required=True)
    p.add_argument(
        "--route", choices=["quadrature", "mellin", "both"], default="quadrature"
    )

    p = add("kratzel", _run_kratzel, "Kratzel integrals g1/g2 (ratecalc: alpha=1, beta=1/2)")
    p.add_argument("--gamma", type=_float_list, required=True)
    p.add_argument("--a", type=_float_list, required=True,
                   help="a >= 0; a = 0 needs y > 0, and gamma < -1 where beta > 0")
    p.add_argument("--y", type=_float_list, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)

    p = add("melconv", _run_melconv, "density of a product/ratio structure")
    p.add_argument("--spec", required=True, help="JSON product/ratio description")
    p.add_argument("--u", type=_float_list, required=True)

    p = add("anova", _run_anova, "missing-value design solver")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--a-matrix", help="CSV of the incidence matrix A")
    source.add_argument("--counts", help="CSV of cell counts to build A from")
    p.add_argument("--g", required=True, help="CSV with the right-hand side G")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-terms", type=_positive_int, default=1000)

    p = add("corr", _run_corr, "sample correlation coefficient")
    p.add_argument("--data", help="CSV with two columns x, y (or give --x and --y)")
    p.add_argument("--x", type=_float_list)
    p.add_argument("--y", type=_float_list)

    p = add("qform", _run_qform, "chi-squaredness Monte Carlo check", seeded=True)
    p.add_argument("--matrix", required=True, help="CSV of the symmetric matrix")
    p.add_argument("--n", type=int, default=100_000)

    p = add("volume", _run_volume, "random-volume log-product skewness trend", seeded=True)
    p.add_argument("--k-list", type=_int_list, default=(2, 4, 8))
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--n", type=int, default=100_000)

    p = add("phyllo", _run_phyllo, "golden-angle spiral pattern as SVG")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--n", type=int, default=300)
    p.add_argument(
        "--divergence-deg",
        type=float,
        help="divergence angle in degrees (default: golden angle)",
    )
    p.add_argument("--marker-radius", type=float, default=1.0)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse an argument vector; usage errors exit 2.  Past the table, two
    rules that argparse cannot state, and the seed's fallback to
    $PATHWAY_TOOLKIT_SEED (then 0), read on every call."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if "op" in ns and ns.op in ("pdf", "cdf") and ns.x is None:
        parser.error(f"{ns.subcommand} --op {ns.op}: --x is required")
    if "data" in ns and ns.data is None and (ns.x is None or ns.y is None):
        parser.error(f"{ns.subcommand}: provide --data FILE or both --x and --y")
    if "seed" in ns and ns.seed is None:
        env = os.environ.get(_ENV_SEED)
        try:
            ns.seed = _non_negative_int(env) if env else 0
        except argparse.ArgumentTypeError as exc:
            parser.error(f"${_ENV_SEED}: {exc}")
    return ns


def run(ns: argparse.Namespace) -> int:
    """Run a parsed command line; writes output only on success."""
    try:
        text = ns.run(ns)
        if ns.out:
            Path(ns.out).write_bytes(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except (DomainError, ConvergenceError, OSError, MemoryError) as exc:
        print(f"pathway-toolkit: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        ns = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
