"""Benchmark of pathway-toolkit: three workloads, timed from outside every layer.

    python3 perfbench/run.py --workload dense_grids --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the repository root; it measures the source tree under ``src/``
with nothing installed.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer table from a separate traced run.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import ops
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable

# BLAS threads in every child are pinned to the cores this process may use.
# Not 1: the thread pool's start-up on the first BLAS call is part of what
# first_pass_s shows.
THREADS = str(len(os.sched_getaffinity(0)))

WORKLOADS = ["cli_session", "dense_grids", "param_sweeps"]
END_TO_END = {
    "setup_s": "s", "pass_s": "s", "first_pass_s": "s",
    "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
}
TAIL_Q = 0.90  # op_tail_s percentile over a workload's operations
IN_PROCESS_WORKERS = 5
CLI_MIN_PASSES = 4


def layer_units() -> dict:
    names = [f"import.{m}_s" for m in tracing.IMPORT_MODULES + ["numpy", "scipy"]]
    names.append("cli.compute_s")
    names += list(tracing.layer_table([], 1, {}))
    names.append("trace.overhead_s")

    def unit(name):
        if name.endswith("_per_s"):
            return "1/s"
        return "s" if name.endswith("_s") else "count"

    return {n: unit(n) for n in dict.fromkeys(names)}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS)
    env.pop("PATHWAY_TOOLKIT_SEED", None)
    return env


def run_child(argv, timeout, **kw):
    proc = subprocess.run([PYTHON, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, timeout=timeout, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]!r}")
    return proc


def import_times(n) -> list[float]:
    """Wall time for a fresh interpreter to finish importing the CLI."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        run_child(["-c", "import pathway_toolkit.cli"], timeout=60)
        out.append(time.perf_counter() - t0)
    return out


def import_layers(n=3) -> dict:
    samples = [
        tracing.parse_importtime(
            run_child(["-X", "importtime", "-c", "import pathway_toolkit.cli"], timeout=60, text=True).stderr
        )
        for _ in range(n)
    ]
    keys = tracing.IMPORT_MODULES + ["numpy", "scipy"]
    return {f"import.{k}_s": statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def nearest_rank(values, q):
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


# ---------------------------------------------------------------------------
# the two ways to run a pass

def in_process_passes(plan, seconds, trace, setup) -> tuple[list, list]:
    """Passes in fresh worker processes, one after another.  A timed run
    uses several workers, so first_pass_s has several samples; a traced run
    uses one.  An import sample precedes each worker, so set-up samples span
    the run."""
    n_workers = 1 if trace else IN_PROCESS_WORKERS
    passes, spans = [], []
    end = time.perf_counter() + seconds
    for i in range(n_workers):
        setup += import_times(1)
        deadline = time.perf_counter() + (end - time.perf_counter()) / (n_workers - i)
        job = {"ops": plan, "deadline": deadline, "min_warm": 2 if trace else 1, "trace": trace}
        proc = run_child([str(BENCH / "worker.py")], timeout=deadline - time.perf_counter() + 90,
                         input=pickle.dumps(job))
        report = pickle.loads(proc.stdout)
        passes += report["passes"]
        spans += report["spans"]
    setup += import_times(1)
    return passes, spans


def cli_passes(plan, seconds, trace, setup, tmp: Path) -> tuple[list, list]:
    """Scripted CLI sessions: one subprocess at a time, each a fresh
    interpreter.  A traced run alternates plain and traced sessions.  An
    import sample precedes each session, so set-up samples span the run."""
    index = {op.name: i for i, op in enumerate(plan)}
    spans, calls = [], itertools.count()
    state = {"traced": False}

    def execute(op):
        argv = ["-m", "pathway_toolkit.cli", *op.args[0]]
        if state["traced"]:
            span_file = tmp / f"spans-{next(calls)}.json"
            argv = [str(BENCH / "traced_cli.py"), str(span_file), str(index[op.name]), "--", *op.args[0]]
        try:
            proc = subprocess.run([PYTHON, *argv], env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=op.limit_s or 120)
        except subprocess.TimeoutExpired:
            raise ops.TimeLimit() from None
        if state["traced"]:
            offset = len(spans)
            for s in json.loads(span_file.read_text()):
                s["id"] += offset
                s["parent"] = None if s["parent"] is None else s["parent"] + offset
                spans.append(s)
        return proc.returncode, proc.stdout, proc.stderr

    passes, digests = [], {}
    end = time.perf_counter() + seconds
    last = 0.0
    while len(passes) < CLI_MIN_PASSES or time.perf_counter() + last < end:
        setup += import_times(1)
        state["traced"] = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        rec = ops.run_pass(plan, execute, digests)
        last = max(last, time.perf_counter() - t0)
        rec.update(first=not passes, traced=state["traced"])
        passes.append(rec)
    return passes, spans


# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace) -> dict:
    import plans  # heavy reference libraries load only here

    t_begin = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        plan = plans.build(workload, seed, tmp)
        setup = []
        if workload == "cli_session":
            passes, spans = cli_passes(plan, seconds, trace, setup, tmp)
        else:
            passes, spans = in_process_passes(plan, seconds, trace, setup)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    fails = [(plan[i], reason) for p in passes for i, reason in p["failures"]]
    unexpected = {op.name: reason for op, reason in fails if op.fault is None}
    result = {
        "workload": workload,
        "passes": passes,
        "attempted": len(plan) * len(passes),
        "failed": len(fails),
        "correct": not unexpected,
        "unexpected": unexpected,
        "faults": Counter(op.fault for op, _ in fails if op.fault),
        "wall_s": time.perf_counter() - t_begin,
    }
    plain = [p for p in passes if not p["traced"]]
    warm = [p for p in plain if not p["first"]]
    if not trace:
        # Each operation's time is its fastest repeat: contention on a shared
        # host only adds time, and the fastest repeat is the steadiest
        # estimate (README, "Metrics").  In cli_session every session starts
        # each call in a fresh interpreter, so every session is a first pass.
        fresh = plain if workload == "cli_session" else [p for p in plain if p["first"]]
        repeats = plain if workload == "cli_session" else warm

        def fastest(group):
            return [min(p["op_times"][i] for p in group) for i in range(len(plan))]

        failed = {i for p in passes for i, _ in p["failures"]}
        per_op = [t for i, t in enumerate(fastest(repeats)) if i not in failed]
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "pass_s": sum(fastest(warm)),
            "first_pass_s": sum(fastest(fresh)),
            "op_p50_s": nearest_rank(per_op, 0.5),
            "op_tail_s": nearest_rank(per_op, TAIL_Q),
            "peak_rss_mb": rss_mb,
        }
        result["op_stats"] = (len(per_op), len(repeats))
        return result

    traced = [p for p in passes if p["traced"]]
    failed_by_layer = Counter(plan[i].layer for p in traced for i, _ in p["failures"])
    # cli.compute_s: a CLI invocation less start-up.  In cli_session that is
    # the median call less the median import; in-process it is the median
    # cli.main span.
    if workload == "cli_session":
        calls = [t for p in plain for t in p["op_times"]]
        compute = statistics.median(calls) - statistics.median(setup)
    else:
        calls = [s["end"] - s["start"] for s in spans if s["name"] == "cli.main"]
        compute = statistics.median(calls) if calls else 0.0
    metrics = import_layers()
    metrics["cli.compute_s"] = compute
    metrics.update(tracing.layer_table(spans, len(traced), failed_by_layer))
    metrics["trace.overhead_s"] = statistics.median(sum(p["op_times"]) for p in traced) - statistics.median(
        sum(p["op_times"]) for p in warm
    )
    result["metrics"] = {name: metrics[name] for name in layer_units()}
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return result


def report(result, seed, seconds, trace):
    units = layer_units() if trace else END_TO_END
    passes = result["passes"]
    print(f"workload {result['workload']}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"wall {result['wall_s']:.1f} s")
    print(f"  threads  OPENBLAS_NUM_THREADS={THREADS} OMP_NUM_THREADS={THREADS}")
    print(f"  passes   first {sum(p['first'] for p in passes)}  "
          f"traced {sum(p['traced'] for p in passes)}  total {len(passes)}")
    print(f"  ops      attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for fault, n in sorted(result["faults"].items()):
        print(f"  known fault {fault}: {n} failed")
    for name, reason in result["unexpected"].items():
        print(f"  UNEXPECTED FAILURE {name}: {reason}", file=sys.stderr)
    if not trace:
        n_ops, n_repeats = result["op_stats"]
        print(f"  op_p50_s and op_tail_s (p{round(TAIL_Q * 100)}) are over {n_ops} operations, "
              f"each the fastest of {n_repeats} passes")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pathway_toolkit" / "cli.py").is_file():
        print(f"perfbench: no toolkit source at {SRC}/pathway_toolkit", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(result, args.seed, args.seconds, args.trace)
    units = layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb stays per workload;
    the last line joins their results, metric names prefixed by workload."""
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [PYTHON, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        joined["correct"] &= result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        joined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(joined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
