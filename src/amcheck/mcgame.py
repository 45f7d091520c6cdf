"""Model checking by reduction to parity games.

A position pairs a state with a closure node (plus a chosen joint move or
effectivity set while a modality is being resolved).  Exists wins an infinite
play iff the highest priority seen infinitely often is even; a player who
cannot move loses immediately.  Games are built reachably from the queried
states and stay within |W| * |closure| * (|grand moves| + 1) positions.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from dataclasses import dataclass, field

from .errors import ModelError
from .formula import ClosureGraph, build_closure
from .model import Cgf, Ef

EXISTS = "Exists"
FORALL = "Forall"


@dataclass
class ParityGame:
    owners: tuple[str, ...]
    priorities: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.owners)

    @property
    def max_priority(self) -> int:
        return max(self.priorities, default=0)


@dataclass
class Solution:
    winners: tuple[str, ...]
    strategy: dict[int, int] = field(default_factory=dict)


class _GameBuilder:
    """Breadth-first reachable construction; positions are numbered in
    discovery order, so the row arrays line up with the index map."""

    def __init__(self):
        self.index: dict = {}
        self.queue: deque = deque()
        self.owners: list[str] = []
        self.priorities: list[int] = []
        self.successors: list[tuple[int, ...]] = []
        self.labels: list[str] = []

    def position(self, key) -> int:
        if key not in self.index:
            self.index[key] = len(self.index)
            self.queue.append(key)
        return self.index[key]

    def emit(self, owner: str, priority: int, succ_keys, label: str) -> None:
        seen: set[int] = set()
        row: list[int] = []
        for key in succ_keys:
            idx = self.position(key)
            if idx not in seen:
                seen.add(idx)
                row.append(idx)
        self.owners.append(owner)
        self.priorities.append(priority)
        self.successors.append(tuple(row))
        self.labels.append(label)

    def finish(self) -> ParityGame:
        return ParityGame(
            tuple(self.owners),
            tuple(self.priorities),
            tuple(self.successors),
            tuple(self.labels),
        )


def build_game(model, closure: ClosureGraph, states=None, deadline=None):
    """Game over either frame kind; returns (game, root index per state).

    Modal positions branch on the coalition's outcome groups (its joint moves
    on a game frame, its listed sets on an effectivity frame), then on the
    states the chosen group reaches.
    """
    if states is None:
        states = list(model.states)
    builder = _GameBuilder()
    roots = {w: builder.position(("f", w, closure.root)) for w in states}
    nodes = closure.nodes
    groups: dict = {}  # (state, coalition) -> the model's outcome groups
    while builder.queue:
        if deadline is not None:
            deadline.check()
        key = builder.queue.popleft()
        if key[0] == "f":
            _, w, nid = key
            node = nodes[nid]
            kind = node.kind
            label = f"{w},{node.label}"
            if kind == "top":
                builder.emit(FORALL, 0, (), label)
            elif kind == "bot":
                builder.emit(EXISTS, 0, (), label)
            elif kind == "atom":
                loop = (key,) if w in model.atom_states(node.atom) else ()
                builder.emit(EXISTS, 0, loop, label)
            elif kind == "negatom":
                loop = (key,) if w in model.atom_states(node.atom) else ()
                builder.emit(FORALL, 1, loop, label)
            elif kind == "and":
                left, right = node.children
                builder.emit(FORALL, 0, (("f", w, left), ("f", w, right)), label)
            elif kind == "or":
                left, right = node.children
                builder.emit(EXISTS, 0, (("f", w, left), ("f", w, right)), label)
            elif kind in ("mu", "nu"):
                builder.emit(EXISTS, node.priority, (("f", w, node.children[0]),), label)
            else:  # enforce / allows: pick one of the coalition's groups
                at = (w, node.coalition)
                if at not in groups:
                    groups[at] = model.groups(w, node.coalition)
                owner = EXISTS if kind == "enforce" else FORALL
                builder.emit(owner, 0, [("g", w, nid, i) for i in range(len(groups[at]))], label)
        else:  # ("g", w, nid, group index): pick a state the group reaches
            _, w, nid, i = key
            node = nodes[nid]
            choice, reached = groups[w, node.coalition][i]
            child = node.children[0]
            owner = FORALL if node.kind == "enforce" else EXISTS
            label = f"{w},{node.label},{_choice_label(choice, reached)}"
            builder.emit(owner, 0, [("f", v, child) for v in reached], label)
    return builder.finish(), roots


def _choice_label(choice, reached) -> str:
    if isinstance(choice, tuple):  # a joint move
        return f"({','.join(str(m) for m in choice)})"
    return f"{{{' '.join(reached)}}}"  # an effectivity set


# game_verdicts looks the builder up under one name per frame kind, so that
# perfbench/tracer.py can wrap the build step; both names are the one builder.
build_game_cgf = build_game_ef = build_game


def _attract(alive, targets, player, successors, predecessors, owners, strategy):
    """Player's attractor to the targets inside the live region, recording an
    attracting move for every attracted position the player owns."""
    attracted = set(targets)
    escapes = {}
    for v in alive:
        if owners[v] != player and v not in attracted:
            # Count all live successors; pops of the initial targets do the
            # first decrements, so targets must not be excluded here.
            escapes[v] = sum(1 for u in set(successors[v]) if u in alive)
    queue = list(attracted)
    while queue:
        t = queue.pop()
        for v in predecessors[t]:
            if v not in alive or v in attracted:
                continue
            if owners[v] == player:
                attracted.add(v)
                strategy.setdefault(v, t)
                queue.append(v)
            else:
                escapes[v] -= 1
                if escapes[v] == 0:
                    attracted.add(v)
                    queue.append(v)
    return attracted


def zielonka_solve(game: ParityGame) -> Solution:
    """Recursive attractor decomposition.

    Positions where the owner is stuck are handed to the opponent up front
    (with their attractors); the remaining core is total, which the classic
    recursion requires.
    """
    n = len(game)
    successors = game.successors
    owners = game.owners
    priorities = game.priorities
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in set(successors[v]):
            predecessors[u].append(v)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))

    winners: list[str | None] = [None] * n
    strategy: dict[int, int] = {}
    alive = set(range(n))
    for player in (EXISTS, FORALL):
        stuck = {
            v
            for v in alive
            if owners[v] != player and not any(u in alive for u in successors[v])
        }
        if stuck:
            region = _attract(alive, stuck, player, successors, predecessors, owners, strategy)
            for v in region:
                winners[v] = player
            alive -= region

    def solve(sub: set[int]) -> tuple[set[int], set[int], dict[int, int]]:
        if not sub:
            return set(), set(), {}
        top = max(priorities[v] for v in sub)
        player = EXISTS if top % 2 == 0 else FORALL
        opponent = FORALL if player == EXISTS else EXISTS
        summit = {v for v in sub if priorities[v] == top}
        move_to_summit: dict[int, int] = {}
        region = _attract(sub, summit, player, successors, predecessors, owners, move_to_summit)
        win_e, win_f, inner = solve(sub - region)
        opp_region = win_f if player == EXISTS else win_e
        if not opp_region:
            merged = dict(inner)
            merged.update(move_to_summit)
            for v in summit:
                if owners[v] == player and v not in merged:
                    merged[v] = next(u for u in successors[v] if u in sub)
            whole = set(sub)
            return (whole, set(), merged) if player == EXISTS else (set(), whole, merged)
        move_to_opp: dict[int, int] = {}
        trap = _attract(sub, opp_region, opponent, successors, predecessors, owners, move_to_opp)
        win_e2, win_f2, rest = solve(sub - trap)
        merged = dict(rest)
        merged.update(move_to_opp)
        merged.update({v: m for v, m in inner.items() if v in opp_region})
        if player == EXISTS:
            return win_e2, win_f2 | trap, merged
        return win_e2 | trap, win_f2, merged

    win_e, win_f, core_strategy = solve(alive)
    strategy.update(core_strategy)
    for v in win_e:
        winners[v] = EXISTS
    for v in win_f:
        winners[v] = FORALL
    return Solution(tuple(winners), strategy)


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


def game_verdicts(model, closure: ClosureGraph, states=None, deadline=None) -> dict[str, bool]:
    """Winner of (state, root) for each requested state, Exists meaning true."""
    if isinstance(model, Cgf):
        game, roots = build_game_cgf(model, closure, states, deadline)
    elif isinstance(model, Ef):
        game, roots = build_game_ef(model, closure, states, deadline)
    else:
        raise ModelError(f"not a model: {model!r}")
    solution = zielonka_solve(game)
    return {w: solution.winners[idx] == EXISTS for w, idx in roots.items()}


def check_via_game(model, formula, state: str, deadline=None) -> bool:
    closure = formula if isinstance(formula, ClosureGraph) else build_closure(formula)
    return game_verdicts(model, closure, [state], deadline)[state]


def export_pgsolver(game: ParityGame) -> str:
    """Text form: ``parity <max id>;`` then one ``id priority owner succs
    "label";`` row per position.  The format cannot express a dead end, so a
    stuck position becomes a self-loop that its owner loses: priority 1 for
    Exists, 0 for Forall.  Any play reaching the position stays there either
    way, so winners are preserved."""
    lines = [f"parity {len(game) - 1};"]
    for v in range(len(game)):
        succ = game.successors[v]
        priority = game.priorities[v]
        if not succ:
            succ = (v,)
            priority = 1 if game.owners[v] == EXISTS else 0
        owner = 0 if game.owners[v] == EXISTS else 1
        succ_text = ",".join(str(u) for u in succ)
        lines.append(f'{v} {priority} {owner} {succ_text} "{game.labels[v]}";')
    return "\n".join(lines) + "\n"


_PG_ROW = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])\s+([0-9,\s]*?)\s*(?:\"(.*)\")?\s*;$"
)


def import_pgsolver(text: str) -> tuple[ParityGame, tuple[int, ...]]:
    """Parse the text format back; returns the game plus the original ids in
    row order (ids may be sparse)."""
    rows: list[tuple[int, int, int, list[int], str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("parity"):
            continue
        m = _PG_ROW.match(line)
        if not m:
            raise ModelError(f"unparsable game row: {raw!r}")
        ident, priority, owner, succ_text, label = m.groups()
        succ = [int(p) for p in succ_text.replace(" ", "").split(",") if p]
        rows.append((int(ident), int(priority), int(owner), succ, label or ident))
    if not rows:
        raise ModelError("no positions in game file")
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate position ids in game file")
    index = {ident: i for i, ident in enumerate(ids)}
    owners = []
    priorities = []
    successors = []
    labels = []
    for ident, priority, owner, succ, label in rows:
        for u in succ:
            if u not in index:
                raise ModelError(f"position {ident} points at unknown position {u}")
        owners.append(EXISTS if owner == 0 else FORALL)
        priorities.append(priority)
        seen: set[int] = set()
        row = []
        for u in succ:
            if index[u] not in seen:
                seen.add(index[u])
                row.append(index[u])
        successors.append(tuple(row))
        labels.append(str(label))
    game = ParityGame(tuple(owners), tuple(priorities), tuple(successors), tuple(labels))
    return game, tuple(ids)
