"""Benchmark families: random frames and formulas, castle games, modulo games.

Every generator is deterministic in its seed (the structured families take no
seed at all), and every generated model marks an initial state.
"""

from __future__ import annotations

import itertools
import random

from .formula import (
    And,
    Atom,
    Bot,
    Enforce,
    Allows,
    Formula,
    Mu,
    NegAtom,
    Nu,
    Or,
    Top,
    Var,
    validate_formula,
)
from .model import Cgf


def gen_random_cgf(states: int, agents: int, moves_per_agent: int, atoms, seed: int) -> Cgf:
    """Uniform random frame: every agent has the same number of moves
    everywhere, outcomes are drawn uniformly, and each atom holds at each
    state with probability one half."""
    if states < 1 or agents < 1 or moves_per_agent < 1:
        raise ValueError("need at least one state, one agent and one move")
    rng = random.Random(seed)
    names = tuple(f"w{i}" for i in range(1, states + 1))
    move_counts = {w: tuple([moves_per_agent] * agents) for w in names}
    transitions = {}
    for w in names:
        table = {}
        for grand in itertools.product(*(range(1, moves_per_agent + 1) for _ in range(agents))):
            table[grand] = rng.choice(names)
        transitions[w] = table
    valuation = {
        atom: frozenset(w for w in names if rng.random() < 0.5) for atom in atoms
    }
    return Cgf(names, agents, move_counts, transitions, valuation, initial=names[0])


def gen_random_formula(
    size: int,
    agents: int,
    atoms,
    seed: int,
    max_fixpoint_depth: int | None = None,
) -> Formula:
    """Random closed clean formula with exactly `size` connectives.  Every
    binder's variable occurs in its body, tracked by threading the set of
    variables the subtree still owes an occurrence."""
    if size < 0:
        raise ValueError("formula size must not be negative")
    rng = random.Random(seed)
    atom_pool = list(atoms)
    counter = itertools.count()

    def coalition() -> tuple[int, ...]:
        return tuple(a for a in range(1, agents + 1) if rng.random() < 0.5)

    def leaf(available, owed) -> Formula:
        if owed:
            return Var(min(owed))
        roll = rng.random()
        if atom_pool and roll < 0.55:
            return Atom(rng.choice(atom_pool))
        if atom_pool and roll < 0.75:
            return NegAtom(rng.choice(atom_pool))
        if available and roll < 0.85:
            return Var(rng.choice(sorted(available)))
        return Top() if rng.random() < 0.5 else Bot()

    def build(budget: int, available: frozenset[str], owed: frozenset[str], depth: int) -> Formula:
        if budget == 0:
            return leaf(available, owed)
        kinds = ["and", "or"]
        if len(owed) <= budget:  # unary body still fits every owed variable
            kinds += ["enforce", "enforce", "allows"]
        if (max_fixpoint_depth is None or depth < max_fixpoint_depth) and len(owed) + 1 <= budget:
            kinds += ["mu", "mu", "nu"]
        kind = rng.choice(kinds)
        if kind in ("and", "or"):
            while True:
                left_owed = frozenset(v for v in sorted(owed) if rng.random() < 0.5)
                right_owed = owed - left_owed
                lo = max(0, len(left_owed) - 1)
                hi = budget - 1 - max(0, len(right_owed) - 1)
                if lo <= hi:
                    break
            left_budget = rng.randint(lo, hi)
            left = build(left_budget, available, left_owed, depth)
            right = build(budget - 1 - left_budget, available, right_owed, depth)
            return And(left, right) if kind == "and" else Or(left, right)
        if kind in ("enforce", "allows"):
            arg = build(budget - 1, available, owed, depth)
            return Enforce(coalition(), arg) if kind == "enforce" else Allows(coalition(), arg)
        var = f"X{next(counter)}"
        body = build(budget - 1, available | {var}, owed | {var}, depth + 1)
        return Mu(var, body) if kind == "mu" else Nu(var, body)

    f = build(size, frozenset(), frozenset(), 0)
    validate_formula(f)
    return f


def _castle_states(castles: int, hp: int):
    per_castle = [(ready, points) for ready in (True, False) for points in range(hp + 1)]
    return list(itertools.product(per_castle, repeat=castles))


def _castle_id(config) -> str:
    return "-".join(f"{'r' if ready else 's'}{points}" for ready, points in config)


def gen_castle(castles: int, hp: int) -> tuple[Cgf, list[tuple[str, Formula]]]:
    """Castle siege: each knight can defend its own castle, attack another
    (which leaves it unready), rest to become ready again, or, once its
    castle has fallen, only mark time.  A defending or resting knight blocks
    one incoming attack; dead castles neither attack nor block.

    Also returns the standing formula suite: per agent, survival of its
    castle forever; per prefix coalition, eventually being the only castles
    left."""
    if castles < 2 or hp < 1:
        raise ValueError("need at least two castles and one hit point")
    configs = _castle_states(castles, hp)
    names = tuple(_castle_id(c) for c in configs)
    by_name = dict(zip(names, configs))
    agents = castles

    def agent_moves(config, a: int):
        """Meaning of each 1-based move id for knight a at this state."""
        ready, points = config[a - 1]
        if points == 0:
            return ["dead"]
        if not ready:
            return ["rest"]
        return ["defend"] + [("attack", j) for j in range(1, castles + 1) if j != a]

    move_counts = {}
    transitions = {}
    ids = dict(zip(configs, names))  # every successor configuration is a state
    for w in names:
        config = by_name[w]
        menus = [agent_moves(config, a) for a in range(1, agents + 1)]
        move_counts[w] = tuple(len(menu) for menu in menus)
        table = {}
        for grand in itertools.product(*(range(1, len(menu) + 1) for menu in menus)):
            chosen = [menus[i][grand[i] - 1] for i in range(agents)]
            attacks = [0] * (castles + 1)
            for move in chosen:
                if isinstance(move, tuple):
                    attacks[move[1]] += 1
            new_config = []
            for j in range(1, castles + 1):
                ready, points = config[j - 1]
                move = chosen[j - 1]
                blocked = 1 if move in ("defend", "rest") else 0
                new_points = max(0, points - max(0, attacks[j] - blocked))
                if move == "dead":
                    new_ready = ready
                elif isinstance(move, tuple):
                    new_ready = False
                else:
                    new_ready = True
                new_config.append((new_ready, new_points))
            table[grand] = ids[tuple(new_config)]
        transitions[w] = table
    valuation = {
        f"lost{a}": frozenset(w for w in names if by_name[w][a - 1][1] == 0)
        for a in range(1, agents + 1)
    }
    initial = _castle_id(tuple((True, hp) for _ in range(castles)))
    g = Cgf(names, agents, move_counts, transitions, valuation, initial=initial)

    formulas: list[tuple[str, Formula]] = []
    for a in range(1, agents + 1):
        body = And(NegAtom(f"lost{a}"), Enforce((a,), Var("X")))
        formulas.append((f"survive-a{a}", Nu("X", body)))
    for size in range(1, agents + 1):
        coalition = tuple(range(1, size + 1))
        goal: Formula | None = None
        for a in range(1, agents + 1):
            literal = NegAtom(f"lost{a}") if a in coalition else Atom(f"lost{a}")
            goal = literal if goal is None else And(goal, literal)
        formulas.append(
            (f"victory-c{size}", Mu("X", Or(goal, Enforce(coalition, Var("X")))))
        )
    return g, formulas


def gen_modulo(agents: int, n_moves: int, base: int = 10) -> tuple[Cgf, list[tuple[str, Formula]]]:
    """Modulo game: states are residues, every agent picks a number from
    1..n_moves everywhere, and the play moves to the old residue plus the sum
    of all choices.  Formula suite per prefix coalition: reach, the
    conjunction over all residues of eventually forcing each one; buchi,
    forcing residues 0 and base/2 again and again."""
    if agents < 1 or n_moves < 1 or base < 2:
        raise ValueError("need at least one agent, one move, and two residues")
    names = tuple(str(i) for i in range(base))
    move_counts = {w: tuple([n_moves] * agents) for w in names}
    moves = range(1, n_moves + 1)
    sums = [sum(grand) for grand in itertools.product(moves, repeat=agents)]
    # Every table gets key tuples of its own, as a frame read from a file
    # has; tables sharing one tuple per grand move look up measurably faster.
    transitions = {
        w: dict(zip(itertools.product(moves, repeat=agents), [names[(i + s) % base] for s in sums]))
        for i, w in enumerate(names)
    }
    valuation = {f"p{i}": frozenset((str(i),)) for i in range(base)}
    g = Cgf(names, agents, move_counts, transitions, valuation, initial="0")

    formulas: list[tuple[str, Formula]] = []
    for size in range(1, agents + 1):
        coalition = tuple(range(1, size + 1))
        reach: Formula | None = None
        for i in range(base):
            var = f"X{i}"
            component = Mu(var, Or(Atom(f"p{i}"), Enforce(coalition, Var(var))))
            reach = component if reach is None else And(reach, component)
        formulas.append((f"reach-c{size}", reach))
        inner = And(
            And(Var("X"), Or(Atom("p0"), Enforce(coalition, Var("Y")))),
            Or(Atom(f"p{base // 2}"), Enforce(coalition, Var("Y"))),
        )
        formulas.append((f"buchi-c{size}", Nu("X", Mu("Y", inner))))
    return g, formulas
