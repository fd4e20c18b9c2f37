"""In-process workload worker: one fresh interpreter, one caller.

Reads a pickled job from stdin, imports the toolkit, runs the first pass
right after import, then further passes until the job's deadline, and
writes a pickled report to stdout.  Only the operations themselves are
timed; checks run between them.

    python perfbench/worker.py < job.pickle > report.pickle
"""

import contextlib
import io
import pickle
import signal
import sys
import time

import numpy as np

from pathway_toolkit import cli, designstats, melconv, pathway, phyllotaxis, specfun

import ops
import tracing


def grid_call(fn, xs, *args):
    """Evaluate fn over a grid: one array call where fn accepts arrays,
    otherwise one call per point."""
    xs = np.asarray(xs, dtype=float)
    try:
        out = np.asarray(fn(xs, *args), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([fn(float(x), *args) for x in xs])


def _density(num, den):
    def factors(side):
        return [(melconv.builtin_density(kind, **shape), expo) for kind, shape, expo in side]

    spec = melconv.ProductSpec(numerator=factors(num), denominator=factors(den))
    return melconv.product_moment_density(spec)


def _spiral(k, n, divergence):
    config = phyllotaxis.SpiralConfig(k=k, n_points=n, divergence=divergence)
    return config, phyllotaxis.generate_points(config)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_pathway_set(params, xs, n, seed):
    p = pathway.PathwayParams(*params)
    return (
        pathway.pathway_pdf(p, xs),
        pathway.pathway_cdf(p, xs),
        pathway.pathway_sample(p, n, seed),
    )


def run_entropy(functional, params, order):
    f = pathway.pathway_density(pathway.PathwayParams(*params))
    if functional == "shannon":
        return pathway.shannon_entropy(f)
    if functional == "havrda_charvat":
        return pathway.havrda_charvat_entropy(f, order)
    return pathway.mathai_entropy(f, order)


def run_neumann(counts, g):
    system = designstats.IncidenceSystem(A=designstats.build_incidence(counts), G=g)
    return designstats.neumann_solve(system)


RUNNERS = {
    "batch": lambda kind, items: [RUNNERS[kind](*args) for args in items],
    "cli": run_cli,
    "ml": lambda xs, abg: grid_call(specfun.mittag_leffler, xs, specfun.MLParams(*abg)),
    "ml_point": lambda x, abg: specfun.mittag_leffler(x, specfun.MLParams(*abg)),
    "density": lambda num, den, us: grid_call(_density(num, den).density, us),
    "volume_density": lambda k, shape, us: grid_call(
        melconv.random_volume_dist(k, [shape]).density, us
    ),
    "pathway_pdf": lambda params, x: pathway.pathway_pdf(pathway.PathwayParams(*params), x),
    "pathway_cdf": lambda params, x: pathway.pathway_cdf(pathway.PathwayParams(*params), x),
    "pathway_sample": lambda params, n, seed: pathway.pathway_sample(
        pathway.PathwayParams(*params), n, seed
    ),
    "pathway_set": run_pathway_set,
    "entropy": run_entropy,
    "qform": lambda a, n, seed: designstats.chisquared_form_check(a, n=n, seed=seed),
    "trend": lambda k_list, shapes, n, seed: melconv.normality_trend(k_list, shapes, n, seed),
    "neumann": run_neumann,
    "parastichy": lambda k, n, div, window: phyllotaxis.parastichy_pair(
        _spiral(k, n, div)[1], window
    ),
    "coverage": lambda k, n, div: phyllotaxis.coverage_packing_ratio(_spiral(k, n, div)[1]),
    "svg": lambda k, n, div: phyllotaxis.render_svg(*reversed(_spiral(k, n, div))),
}


def _on_alarm(signum, frame):
    raise ops.TimeLimit()


def execute(op):
    fn = RUNNERS[op.kind]
    if op.limit_s is None:
        return fn(*op.args)
    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    try:
        return fn(*op.args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def main():
    job = pickle.load(sys.stdin.buffer)
    signal.signal(signal.SIGALRM, _on_alarm)
    plan = job["ops"]
    for op in plan:
        op.args = ops.materialize(op.args)
    tracer = tracing.Tracer() if job["trace"] else None
    digests: dict = {}
    passes = []

    def one_pass(first, traced):
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            rec = ops.run_pass(plan, execute, digests, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rec.update(first=first, traced=traced, wall=time.perf_counter() - t0)
        passes.append(rec)
        return rec["wall"]

    one_pass(first=True, traced=False)
    # warm passes alternate traced and untraced in a traced job
    n_warm, last = 0, 0.0
    while n_warm < job["min_warm"] or time.perf_counter() + last < job["deadline"]:
        last = max(last, one_pass(first=False, traced=bool(tracer) and n_warm % 2 == 1))
        n_warm += 1
    report = {"passes": passes, "spans": tracer.export() if tracer else []}
    pickle.dump(report, sys.stdout.buffer)


if __name__ == "__main__":
    main()
