"""Model checking by reduction to parity games.

A position pairs a state with a closure node (plus a chosen joint move or
effectivity set while a modality is being resolved).  Exists wins an infinite
play iff the highest priority seen infinitely often is even; a player who
cannot move loses immediately.  Games are built reachably from the queried
states and stay within |W| * |closure| * (|grand moves| + 1) positions.
"""

from __future__ import annotations

import re
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
        self.owners.append(owner)
        self.priorities.append(priority)
        self.successors.append(tuple(dict.fromkeys(map(self.position, succ_keys))))
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
    """Player's attractor to the targets inside the live region; every
    attracted position the player owns gets its attracting move written into
    `strategy`.  An opponent position's escapes (distinct live successors)
    are counted on its first reach and drop by one per attracted successor."""
    attracted = set(targets)
    escapes = {}
    queue = list(attracted)
    while queue:
        t = queue.pop()
        for v in predecessors[t]:
            if v not in alive or v in attracted:
                continue
            if owners[v] == player:
                strategy[v] = t
            else:
                # a count never rests at 0: the position is attracted then
                left = escapes.get(v) or len(alive.intersection(successors[v]))
                escapes[v] = left = left - 1
                if left:
                    continue
            attracted.add(v)
            queue.append(v)
    return attracted


def zielonka_solve(game: ParityGame) -> Solution:
    """Zielonka's attractor decomposition in its loop form.

    Positions where the owner is stuck are handed to the opponent up front
    (with their attractors), so the core left is total.  `solve(sub)` removes
    the top priority's attractor and solves the rest first.  While the
    opponent wins part of it, the opponent's attractor to that part is won
    by the opponent in `sub` as well, and the loop goes round again without
    it; once the opponent wins nothing, the player wins all of `sub`.
    Winners and moves go into one list and one table, where a larger
    subgame overwrites what a nested one wrote.  Only the first solve nests,
    once per distinct priority, and `solve` yields it to an explicit stack,
    so the Python call depth does not grow with the game.
    """
    n = len(game)
    successors = game.successors
    owners = game.owners
    priorities = game.priorities
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in set(successors[v]):
            predecessors[u].append(v)

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

    def solve(sub: set[int]):
        while sub:
            top = max(priorities[v] for v in sub)
            player = EXISTS if top % 2 == 0 else FORALL
            opponent = FORALL if player == EXISTS else EXISTS
            summit = {v for v in sub if priorities[v] == top}
            rest = sub - _attract(sub, summit, player, successors, predecessors, owners, strategy)
            yield rest  # the driver below solves it before resuming
            lost = {v for v in rest if winners[v] == opponent}
            if not lost:
                for v in sub:
                    winners[v] = player
                for v in summit:
                    if owners[v] == player:
                        strategy[v] = next(u for u in successors[v] if u in sub)
                return
            trap = _attract(sub, lost, opponent, successors, predecessors, owners, strategy)
            for v in trap:
                winners[v] = opponent
            sub = sub - trap

    stack = [solve(alive)]
    while stack:
        sub = next(stack[-1], None)
        if sub is None:
            stack.pop()
        else:
            stack.append(solve(sub))
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


# Each part of a row stops at the first character outside its class (the
# successor list takes every blank after the owner's first one), and only the
# label's `.*` backs up, once, from the end of the row to its last quote; so
# matching, failed or not, takes time linear in the row's length.
_PG_ROW = re.compile(r'(\d+)\s+(\d+)\s+([01])\s([0-9,\s]*)(?:"(.*)"\s*)?;')


def import_pgsolver(text: str) -> tuple[ParityGame, tuple[int, ...]]:
    """Parse the text format back; returns the game plus the original ids in
    row order (ids may be sparse)."""
    rows: list[tuple[int, int, int, list[int], str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("parity"):
            continue
        m = _PG_ROW.fullmatch(line)
        if not m:
            raise ModelError(f"unparsable game row: {raw!r}")
        ident, priority, owner, succ_text, label = m.groups()
        succ = [int(p) for p in "".join(succ_text.split()).split(",") if p]
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
        successors.append(tuple(dict.fromkeys(index[u] for u in succ)))
        labels.append(str(label))
    game = ParityGame(tuple(owners), tuple(priorities), tuple(successors), tuple(labels))
    return game, tuple(ids)
