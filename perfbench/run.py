"""amcheck end-to-end benchmark: four workloads through ``amc check`` and
``amc solve-game``, with a separate traced run for per-layer numbers.

    python3 perfbench/run.py                       # every workload, one after another
    python3 perfbench/run.py --workload castle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload is set up from the seed
(several times, the median set-up time is reported), its outputs are
certified where needed, and its queries then run in a fresh worker process.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least SETUP_MIN_REPS times and until SETUP_MIN_S seconds are
# spent (at most SETUP_MAX_REPS times); the median is reported.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 25, 1.0
WORKER_TIMEOUT_S = 160

UNITS = {"setup_s": "s", "total_s": "s", "query_s.p50": "s", "query_s.tail": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("engine_s."):
        return "s"
    return "bytes" if name == "model.bytes" else "count"


def certify_games(setup) -> list[str]:
    """Untimed: solve every game file once through the library, certify the
    strategy, check root winners against the reference verdicts, and fix
    the exact output solve-game must print on every repetition."""
    from amcheck.mcgame import EXISTS, import_pgsolver, zielonka_solve
    from certificate import certify

    defects = []
    expected = {}
    for info in setup.games:
        game, ids = import_pgsolver(Path(info["path"]).read_text())
        solution = zielonka_solve(game)
        for defect in certify(game.owners, game.priorities, game.successors, solution.winners, solution.strategy):
            defects.append(f"{info['case']}: {defect}")
        for w, idx in info["roots"].items():
            if (solution.winners[idx] == EXISTS) != (w in info["truths"]):
                defects.append(f"{info['case']}: verdict at state {w} differs from the reference")
        expected[info["case"]] = "".join(f"{i}: {winner}\n" for i, winner in zip(ids, solution.winners))
    for q in setup.queries:
        q.expected = expected[q.case]
    return defects


def run_workload(args) -> int:
    from workloads import set_up

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    table = json.loads((HERE / "expected.json").read_text())[args.workload]
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
    ):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        setup = set_up(args.workload, args.seed, work, table)
        setup_times.append(time.perf_counter() - start)
    defects = certify_games(setup) if setup.games else []
    for defect in defects:
        print(f"certificate: {defect}", file=sys.stderr)

    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"queries": [vars(q) for q in setup.queries]}))
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(result_path)]
    if args.trace:
        cmd += ["--trace-file", str(ROOT / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               PYTHONHASHSEED=str(args.seed))
    try:
        proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(result["metrics"].items())}
        print(f"{args.workload} seed {args.seed}: {result['untraced_passes']} untraced and "
              f"{result['passes']} traced passes of {len(setup.queries)} queries, per-pass medians")
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup_times))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
        print(f"{args.workload} seed {args.seed}: {result['passes']} passes of {len(setup.queries)} queries; "
              f"query_s.tail is p{result['tail_percentile']:.1f} of {result['samples']} per-query medians; "
              f"set-up is the median of {len(setup_times)}")
        engines = ", ".join(f"{e} {t:.4f} s" for e, t in sorted(result["engine_s"].items()))
        print(f"  per-engine time per pass: {engines}")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0 and not defects
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    summary = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        summary[workload] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    if not (ROOT / "src" / "amcheck" / "__init__.py").is_file():
        print(f"no amcheck sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.exit(main())
