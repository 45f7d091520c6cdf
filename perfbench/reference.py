"""Reference verdicts for the benchmark, independent of both engine families.

The evaluator computes a formula's extension by structural recursion over the
formula objects, with an environment for fixpoint variables and plain
Knaster-Tarski iteration per binder.  Modalities read the frame's transition
tables directly.  It uses none of the closure graph, the parity-game
reduction, the stepper or the effectivity conversion, so agreement with the
engines is evidence rather than an echo.

    python3 perfbench/reference.py          # compare with expected.json
    python3 perfbench/reference.py --write  # rewrite expected.json

The table is keyed by the original state ids of the fixed suites; the run
seed only relabels states, which leaves every verdict unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "expected.json"


def _outcome_groups(frame, state: str, coalition) -> list[frozenset]:
    """Per joint move of the coalition, the outcomes the others can choose."""
    idx = [a - 1 for a in coalition]
    groups: dict = {}
    for grand, target in frame.transitions[state].items():
        groups.setdefault(tuple(grand[i] for i in idx), set()).add(target)
    return [frozenset(g) for g in groups.values()]


def extension(frame, f, env=None, groups=None) -> frozenset:
    """States of the frame satisfying formula f."""
    from amcheck.formula import Allows, And, Atom, Bot, Enforce, Mu, NegAtom, Nu, Or, Top, Var

    env = {} if env is None else env
    groups = {} if groups is None else groups
    states = frozenset(frame.states)
    if isinstance(f, Top):
        return states
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, Atom):
        return frame.valuation.get(f.name, frozenset()) & states
    if isinstance(f, NegAtom):
        return states - frame.valuation.get(f.name, frozenset())
    if isinstance(f, And):
        return extension(frame, f.left, env, groups) & extension(frame, f.right, env, groups)
    if isinstance(f, Or):
        return extension(frame, f.left, env, groups) | extension(frame, f.right, env, groups)
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, (Enforce, Allows)):
        goal = extension(frame, f.arg, env, groups)
        out = set()
        for w in frame.states:
            key = (w, f.coalition)
            if key not in groups:
                groups[key] = _outcome_groups(frame, w, f.coalition)
            if isinstance(f, Enforce):
                holds = any(g <= goal for g in groups[key])
            else:
                holds = all(g & goal for g in groups[key])
            if holds:
                out.add(w)
        return frozenset(out)
    if isinstance(f, (Mu, Nu)):
        current = frozenset() if isinstance(f, Mu) else states
        while True:
            new = extension(frame, f.body, {**env, f.var: current}, groups)
            if new == current:
                return current
            current = new
    raise TypeError(f"not a formula: {f!r}")


def build_table() -> dict:
    from workloads import WORKLOADS, instances

    table: dict = {}
    for workload in WORKLOADS:
        entries = {}
        for inst in instances(workload):
            for name, formula in inst.formulas:
                truths = extension(inst.frame, formula)
                case = f"{inst.key}/{name}"
                entries[case] = inst.frame.initial in truths if inst.initial_only else sorted(truths)
        table[workload] = entries
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    table = build_table()
    if args.write:
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {TABLE}")
        return 0
    if json.loads(TABLE.read_text()) != table:
        print("expected.json differs from the reference evaluator", file=sys.stderr)
        return 1
    print("expected.json matches the reference evaluator")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
