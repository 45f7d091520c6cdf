"""Shared test utilities, most importantly a naive reference evaluator.

The evaluator computes formula extensions by structural recursion with an
explicit environment and Knaster-Tarski iteration per fixpoint.  It shares no
code with either checking engine, so agreement is meaningful evidence.
"""

from __future__ import annotations

from amcheck import (
    Allows,
    And,
    Atom,
    Bot,
    Cgf,
    Ef,
    Enforce,
    Mu,
    NegAtom,
    Nu,
    Or,
    Top,
    Var,
    build_closure,
    convert,
    fixpoint_verdicts,
    game_verdicts,
)


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
    family = model.family(w, coalition)
    if enforce:
        return any(u <= goal for u in family)
    return all(u & goal for u in family)


def all_engine_verdicts(model: Cgf, formula) -> list[dict[str, bool]]:
    """Verdict maps from every engine route: the two game-frame engines, and
    the two effectivity-frame engines on the converted frame, both with and
    without minimization."""
    closure = build_closure(formula)
    plain, _ = convert(model)
    minimal, _ = convert(model, minimize_families=True)
    return [
        game_verdicts(model, closure),
        fixpoint_verdicts(model, closure),
        game_verdicts(plain, closure),
        fixpoint_verdicts(plain, closure),
        game_verdicts(minimal, closure),
        fixpoint_verdicts(minimal, closure),
    ]


def random_parity_game(rng, max_positions=8, max_priority=3, max_degree=3):
    """Seeded random game for solver differential tests; dead ends included."""
    from amcheck import EXISTS, FORALL, ParityGame

    n = rng.randint(1, max_positions)
    owners = tuple(rng.choice((EXISTS, FORALL)) for _ in range(n))
    priorities = tuple(rng.randint(0, max_priority) for _ in range(n))
    successors = []
    for _ in range(n):
        degree = rng.randint(0, max_degree)
        successors.append(tuple(sorted(rng.sample(range(n), min(degree, n)))))
    labels = tuple(str(v) for v in range(n))
    return ParityGame(owners, priorities, tuple(successors), labels)


def assert_strategy_wins(game, solution) -> None:
    """Check the positional strategy defeats every opposing behaviour: fix the
    winner's moves, then verify all remaining plays stay won (every reachable
    cycle has the right parity, every reachable dead end strands the loser)."""
    from amcheck import EXISTS

    n = len(game)
    for start in range(n):
        winner = solution.winners[start]
        reachable = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            if game.owners[v] == winner:
                if not game.successors[v]:
                    raise AssertionError(f"winner {winner} is stuck at its own position {v}")
                moves = (solution.strategy[v],)
            else:
                moves = game.successors[v]
                if not moves:
                    continue  # opponent stuck: play ends, winner wins
            for u in moves:
                if u not in reachable:
                    reachable.add(u)
                    frontier.append(u)
        sub = {
            v: ((solution.strategy[v],) if game.owners[v] == winner else game.successors[v])
            for v in reachable
        }
        _check_cycles(game, sub, winner == EXISTS)


def _check_cycles(game, sub, exists_wins: bool) -> None:
    nodes = sorted(sub)
    for cycle in _simple_cycles(sub, nodes):
        top = max(game.priorities[v] for v in cycle)
        if (top % 2 == 0) != exists_wins:
            raise AssertionError(f"cycle {cycle} has losing top priority {top}")


def _simple_cycles(sub, nodes):
    # Tarjan-free brute force is fine at oracle scale: walk every simple path.
    for start in nodes:
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for u in sub[v]:
                if u == start:
                    yield path
                elif u not in path and u > start:
                    stack.append((u, path + [u]))
