"""Shared test utilities, most importantly a naive reference evaluator.

The evaluator computes formula extensions by structural recursion with an
explicit environment and Knaster-Tarski iteration per fixpoint.  It shares no
code with either checking engine, so agreement is meaningful evidence.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

from amcheck import (
    Allows,
    And,
    Atom,
    Bot,
    EXISTS,
    FORALL,
    Cgf,
    Ef,
    Enforce,
    Mu,
    NegAtom,
    Nu,
    Or,
    ParityGame,
    Solution,
    Top,
    Var,
    build_closure,
    convert,
    fixpoint_verdicts,
    game_verdicts,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def naive_extension(model, f, env=None) -> frozenset[str]:
    """States satisfying f, by direct recursion on the syntax."""
    env = env or {}
    states = frozenset(model.states)
    if isinstance(f, Top):
        return states
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, Atom):
        return model.atom_states(f.name) & states
    if isinstance(f, NegAtom):
        return states - model.atom_states(f.name)
    if isinstance(f, And):
        return naive_extension(model, f.left, env) & naive_extension(model, f.right, env)
    if isinstance(f, Or):
        return naive_extension(model, f.left, env) | naive_extension(model, f.right, env)
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, (Enforce, Allows)):
        goal = naive_extension(model, f.arg, env)
        if isinstance(model, Cgf):
            return frozenset(
                w for w in model.states if _cgf_modal(model, w, f.coalition, goal, isinstance(f, Enforce))
            )
        return frozenset(
            w for w in model.states if _ef_modal(model, w, f.coalition, goal, isinstance(f, Enforce))
        )
    if isinstance(f, (Mu, Nu)):
        current = frozenset() if isinstance(f, Mu) else states
        while True:
            new = naive_extension(model, f.body, {**env, f.var: current})
            if new == current:
                return current
            current = new
    raise TypeError(f"not a formula: {f!r}")


def _cgf_modal(model, w, coalition, goal, enforce: bool) -> bool:
    outcomes_per_own: dict[tuple[int, ...], set[str]] = {}
    for grand, target in model.transitions[w].items():
        own = tuple(grand[a - 1] for a in coalition)
        outcomes_per_own.setdefault(own, set()).add(target)
    if enforce:
        return any(outs <= goal for outs in outcomes_per_own.values())
    return all(outs & goal for outs in outcomes_per_own.values())


def _ef_modal(model, w, coalition, goal, enforce: bool) -> bool:
    family = model.effectivity[w][coalition]
    if enforce:
        return any(u <= goal for u in family)
    return all(u & goal for u in family)


def all_engine_verdicts(model: Cgf, formula) -> list[dict[str, bool]]:
    """Verdict maps from every engine route: the two game-frame engines, and
    the two effectivity-frame engines on the converted frame, both with and
    without minimization."""
    closure = build_closure(formula)
    plain = convert(model)
    minimal = convert(model, minimize_families=True)
    return [
        game_verdicts(model, closure),
        fixpoint_verdicts(model, closure),
        game_verdicts(plain, closure),
        fixpoint_verdicts(plain, closure),
        game_verdicts(minimal, closure),
        fixpoint_verdicts(minimal, closure),
    ]


def brute_force_solve(game: ParityGame) -> Solution:
    """Independent oracle for small games: the winning region for Exists as a
    priority-indexed nested fixpoint over position sets, evaluated naively.
    No attractors are involved, so this shares no machinery with
    zielonka_solve."""
    n = len(game)
    if n > 12:
        raise ValueError("brute-force oracle is limited to 12 positions")
    successors = game.successors
    owners = game.owners
    priorities = game.priorities
    top = max(priorities, default=0)
    everything = frozenset(range(n))

    def step(zvec: list[set[int]]) -> set[int]:
        out = set()
        for v in range(n):
            if owners[v] == EXISTS:
                ok = any(u in zvec[priorities[u]] for u in successors[v])
            else:
                ok = all(u in zvec[priorities[u]] for u in successors[v])
            if ok:
                out.add(v)
        return out

    def solve(level: int, outer: list[set[int]]) -> set[int]:
        current = set(everything) if level % 2 == 0 else set()
        while True:
            new = step([current] + outer) if level == 0 else solve(level - 1, [current] + outer)
            if new == current:
                return current
            current = new

    win_e = solve(top, [])
    winners = tuple(EXISTS if v in win_e else FORALL for v in range(n))
    return Solution(winners)


def random_parity_game(rng, max_positions=8, max_priority=3, max_degree=3):
    """Seeded random game for solver differential tests; dead ends included."""
    n = rng.randint(1, max_positions)
    owners = tuple(rng.choice((EXISTS, FORALL)) for _ in range(n))
    priorities = tuple(rng.randint(0, max_priority) for _ in range(n))
    successors = []
    for _ in range(n):
        degree = rng.randint(0, max_degree)
        successors.append(tuple(sorted(rng.sample(range(n), min(degree, n)))))
    labels = tuple(str(v) for v in range(n))
    return ParityGame(owners, priorities, tuple(successors), labels)


@functools.cache
def load_perfbench(name: str):
    """A module of perfbench/, which is not a package, loaded by its path
    once per process."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def strategy_defects(game, solution) -> list[str]:
    """What the certificate check finds wrong with a solution: winners and a
    positional strategy that must defeat every opposing behaviour.  It shares
    no code with zielonka_solve; an empty list means certified."""
    certify = load_perfbench("certificate").certify
    return certify(game.owners, game.priorities, game.successors, solution.winners, solution.strategy)
