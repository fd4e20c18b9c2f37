"""Spans around the toolkit's public functions, and the per-layer table
derived from them.

``Tracer.install`` replaces module attributes with wrappers, so calls made
through the module (``melconv.mellin_invert(...)``), including the toolkit's
own calls between its functions, open a span.  A span records its name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  Calls made inside an opaque span, or inside a span of the same
name, are not split out: they are part of the enclosing span's own work (the
quadrature self-check's pdf calls belong to ``pathway.params``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, opaque).  An attribute the module does not
# have is skipped, so a later rename shows up as a zero, not a crash.
TARGETS = [
    ("specfun", "mittag_leffler", "specfun.mittag_leffler", False),
    ("pathway", "PathwayParams.__post_init__", "pathway.params", True),
    ("pathway", "pathway_pdf", "pathway.pdf", False),
    ("pathway", "pathway_cdf", "pathway.cdf", False),
    ("pathway", "pathway_support", "pathway.support", False),
    ("pathway", "pathway_sample", "pathway.sample", True),
    ("pathway", "shannon_entropy", "pathway.entropy", True),
    ("pathway", "havrda_charvat_entropy", "pathway.entropy", True),
    ("pathway", "mathai_entropy", "pathway.entropy", True),
    ("melconv", "builtin_density", "melconv.build", False),
    ("melconv", "product_moment_density", "melconv.build", False),
    ("melconv", "random_volume_dist", "melconv.build", False),
    ("melconv", "mellin_invert", "melconv.invert", False),
    ("melconv", "reaction_rate", "melconv.reaction_rate", False),
    ("melconv", "reaction_rate_with_error", "melconv.reaction_rate", False),
    ("melconv", "integrate_halfline", "melconv.halfline", False),
    ("melconv", "kratzel_g1", "melconv.kratzel", False),
    ("melconv", "kratzel_g2", "melconv.kratzel", False),
    ("melconv", "kratzel_g1_with_error", "melconv.kratzel", False),
    ("melconv", "kratzel_g2_with_error", "melconv.kratzel", False),
    ("melconv", "normality_trend", "melconv.trend", True),
    ("designstats", "build_incidence", "designstats.incidence", False),
    ("designstats", "neumann_solve", "designstats.neumann", False),
    ("designstats", "chisquared_form_check", "designstats.qform", True),
    ("designstats", "sample_correlation", "designstats.corr", False),
    ("phyllotaxis", "generate_points", "phyllotaxis.points", False),
    ("phyllotaxis", "parastichy_pair", "phyllotaxis.parastichy", False),
    ("phyllotaxis", "coverage_packing_ratio", "phyllotaxis.coverage", False),
    ("phyllotaxis", "render_svg", "phyllotaxis.svg", False),
    ("cli", "main", "cli.main", False),
]

LAYERS = ["import", "cli", "specfun", "pathway", "melconv", "designstats", "phyllotaxis"]
IMPORT_MODULES = [
    "pathway_toolkit", "errors", "specfun", "pathway", "melconv",
    "designstats", "phyllotaxis", "cli",
]


def toolkit_modules() -> dict:
    from pathway_toolkit import cli, designstats, melconv, pathway, phyllotaxis, specfun

    return {
        "cli": cli, "specfun": specfun, "pathway": pathway, "melconv": melconv,
        "designstats": designstats, "phyllotaxis": phyllotaxis,
    }


def _points(name, args, kwargs):
    """Work size of a call: points evaluated, draws made, u values inverted."""
    if name in ("specfun.mittag_leffler", "pathway.pdf", "pathway.cdf"):
        return int(np.size(args[0] if name == "specfun.mittag_leffler" else args[1]))
    if name == "melconv.invert":
        return int(np.size(args[1]))
    if name == "pathway.sample":
        return int(args[1])
    if name == "designstats.qform":
        return int(kwargs.get("n", args[1] if len(args) > 1 else 100_000))
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op_id = None
        self._saved: list = []

    def _wrap(self, name, fn, opaque):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = tracer.stack[-1] if tracer.stack else None
            if top is not None and (top["opaque"] or top["name"] == name):
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "op": tracer.op_id,
                "parent": top["id"] if top else None,
                "id": len(tracer.spans),
                "opaque": opaque,
                "points": _points(name, args, kwargs),
            }
            if name == "melconv.invert":
                args = (tracer._count_nodes(args[0], span), *args[1:])
            elif name == "melconv.reaction_rate":
                span["route"] = kwargs.get("route", args[3] if len(args) > 3 else "quadrature")
            tracer.spans.append(span)
            tracer.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["points"] = 0  # no work delivered, e.g. an array probe
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            if name == "designstats.neumann":
                span["terms"] = int(out[1])
            return out

        return traced

    @staticmethod
    def _count_nodes(moment, span):
        span["nodes"] = 0

        def counted(s):
            span["nodes"] += int(np.size(s))
            return moment(s)

        return counted

    def install(self):
        modules = toolkit_modules()
        for mod, attr, name, opaque in TARGETS:
            owner = modules[mod]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn, opaque))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def export(self) -> list[dict]:
        return [{k: v for k, v in s.items() if k != "opaque"} for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer table

def layer_table(spans, passes: int, failed_by_layer: dict) -> dict:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    halfline_under = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is not None:
            child_time[s["parent"]] += dur
        if s["name"] == "melconv.halfline":
            p = s["parent"]
            while p is not None:
                if by_id[p]["name"] == "melconv.reaction_rate":
                    halfline_under[p] += dur
                    break
                p = by_id[p]["parent"]

    busy = defaultdict(float)
    total = defaultdict(float)
    count = defaultdict(int)
    points = defaultdict(int)
    extra = defaultdict(int)
    rate_mellin = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        busy[s["name"].split(".")[0]] += dur - child_time[s["id"]]
        total[s["name"]] += dur
        count[s["name"]] += 1
        points[s["name"]] += s["points"]
        extra["nodes"] += s.get("nodes", 0)
        extra["terms"] += s.get("terms", 0)
        if s["name"] == "melconv.reaction_rate" and s.get("route") != "quadrature":
            rate_mellin += dur - halfline_under[s["id"]]

    per = 1.0 / max(passes, 1)

    def rate(n, t):
        return n / t if t > 0 else 0.0

    m = {}
    for layer in LAYERS[1:]:
        m[f"{layer}.busy_s"] = busy[layer] * per
        m[f"{layer}.failed_ops"] = failed_by_layer.get(layer, 0) * per
    ml = "specfun.mittag_leffler"
    m["specfun.calls"] = count[ml] * per
    m["specfun.points_per_s"] = rate(points[ml], total[ml])
    inv = "melconv.invert"
    m["melconv.invert_s"] = total[inv] * per
    m["melconv.invert_points"] = points[inv] * per
    m["melconv.moment_nodes"] = extra["nodes"] * per
    m["melconv.nodes_per_point"] = rate(extra["nodes"], points[inv])
    m["melconv.rate_mellin_s"] = rate_mellin * per
    m["melconv.halfline_s"] = total["melconv.halfline"] * per
    m["melconv.halfline_points"] = count["melconv.halfline"] * per
    m["pathway.sample_s"] = total["pathway.sample"] * per
    m["pathway.draws_per_s"] = rate(points["pathway.sample"], total["pathway.sample"])
    m["pathway.params_s"] = total["pathway.params"] * per
    m["pathway.params_calls"] = count["pathway.params"] * per
    m["pathway.pdf_cdf_s"] = (total["pathway.pdf"] + total["pathway.cdf"]) * per
    m["pathway.entropy_s"] = total["pathway.entropy"] * per
    m["designstats.neumann_s"] = total["designstats.neumann"] * per
    m["designstats.neumann_terms"] = extra["terms"] * per
    m["designstats.qform_s"] = total["designstats.qform"] * per
    m["designstats.qform_draws_per_s"] = rate(
        points["designstats.qform"], total["designstats.qform"]
    )
    m["phyllotaxis.parastichy_s"] = total["phyllotaxis.parastichy"] * per
    m["phyllotaxis.coverage_s"] = total["phyllotaxis.coverage"] * per
    m["phyllotaxis.svg_s"] = total["phyllotaxis.svg"] * per
    return m


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds from ``python -X importtime`` output: each
    toolkit module, numpy, and scipy (the sum of scipy entries not nested in
    another scipy entry)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cum) * 1e-6))
    # the output lists children before their parent; walk it backwards to
    # find each entry's enclosing import
    out = defaultdict(float)
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        if name == "numpy":
            out["numpy"] += cum
        elif (name == "scipy" or name.startswith("scipy.")) and not (
            parent == "scipy" or parent.startswith("scipy.")
        ):
            out["scipy"] += cum
        elif name == "pathway_toolkit" or name.startswith("pathway_toolkit."):
            out[name.split(".")[-1]] = cum
    return out
