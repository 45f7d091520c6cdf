"""Runs one workload's queries through ``amcheck.cli.main`` in this process.

Started by run.py as a fresh process per workload, so peak memory and warm
state never leak from one workload into the next.  Queries run one after
another on one thread.  Each query's exit code and standard output are
checked against the expected output, and the engines of one case must print
the same verdicts.

    python3 perfbench/worker.py MANIFEST --seconds S --trace 0|1 --out RESULT
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from amcheck.cli import main as amc_main
from tracer import Tracer


def execute(query, tracer=None):
    """(seconds, exit code or None on an uncaught exception, stdout).  With a
    tracer, the call runs under the query's root span."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        return amc_main(query["argv"])

    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call() if tracer is None else tracer.query(query["qid"], query["engine"], call)
    except Exception:  # a crash is a failed query, not a failed benchmark
        code = None
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, code, out.getvalue()


def run_pass(queries, tracer=None):
    """Times and outcome of every query; a query fails on a non-zero exit,
    unexpected output, or a case whose engines disagree."""
    times, ok, outputs = [], [], defaultdict(set)
    for q in queries:
        seconds, code, stdout = execute(q, tracer)
        times.append(seconds)
        ok.append(code == 0 and stdout == q["expected"])
        outputs[q["case"]].add(stdout)
    ok = [good and len(outputs[q["case"]]) == 1 for q, good in zip(queries, ok)]
    return times, ok


def another_pass_fits(start: float, passes: int, seconds: float) -> bool:
    """Whole passes run until the next one would end past the time budget."""
    elapsed = time.perf_counter() - start
    return elapsed * (passes + 1) / passes <= seconds


def run_for(queries, seconds: float):
    """Untraced passes for the time budget (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(queries))
        if not another_pass_fits(start, len(passes), seconds):
            return passes


def tail(values):
    """Highest percentile with at least ten samples beyond it: the value at
    rank n-10 of n sorted samples, with its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(queries, passes) -> dict:
    totals = [sum(times) for times, _ in passes]
    per_query = [statistics.median(column) for column in zip(*(times for times, _ in passes))]
    tail_value, tail_pct = tail(per_query)
    engines = defaultdict(float)
    for q, t in zip(queries, per_query):
        engines[q["engine"]] += t
    return {
        "metrics": {
            "total_s": statistics.median(totals),
            "query_s.p50": statistics.median(per_query),
            "query_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "tail_percentile": tail_pct,
        "samples": len(per_query),
        "passes": len(passes),
        "pass_totals": totals,
        "engine_s": dict(engines),
    }


def traced_run(queries, seconds: float, tracer: Tracer):
    """Untraced and traced passes, alternating so that drift in machine speed
    does not bias the tracing overhead; per-pass layer metrics for the
    traced ones.  Spans stay in the tracer."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(queries))
        first = len(tracer.spans)
        tracer.reset_counts()
        tracer.install()
        try:
            traced.append(run_pass(queries, tracer))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(first)
        metrics["trace.spans"] = len(tracer.spans) - first
        metrics["cli.failed"] = sum(not good for good in traced[-1][1])
        layers.append(metrics)
        if not another_pass_fits(start, len(traced), seconds):
            return plain, traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    queries = manifest["queries"]

    # One untimed warm-up query per engine; it is checked and counted too.
    warm = {}
    for q in queries:
        warm.setdefault(q["engine"], q)
    warm_failed = 0
    for q in warm.values():
        _, code, stdout = execute(q)
        warm_failed += not (code == 0 and stdout == q["expected"])

    if not args.trace:
        passes = run_for(queries, args.seconds)
        result = summarize(queries, passes)
    else:
        tracer = Tracer()
        plain, passes, layers = traced_run(queries, args.seconds, tracer)
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(sum(t) for t, _ in passes)
                                       - statistics.median(sum(t) for t, _ in plain))
        result = {"metrics": metrics, "passes": len(passes), "untraced_passes": len(plain)}
        passes = plain + passes
        if args.trace_file:
            fields = ["name", "start", "end", "parent", "query", "engine"]
            Path(args.trace_file).write_text(json.dumps({"fields": fields, "spans": tracer.spans}))
    result["attempted"] = sum(len(ok) for _, ok in passes) + len(warm)
    result["failed"] = sum(not good for _, ok in passes for good in ok) + warm_failed
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
