"""Model checking by reduction to parity games.

A position pairs a state with a closure node (plus a chosen joint move or
effectivity set while a modality is being resolved).  Exists wins an infinite
play iff the highest priority seen infinitely often is even; a player who
cannot move loses immediately.  Games are built reachably from the queried
states and stay within |W| * |closure| * (|grand moves| + 1) positions.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ModelError
from .formula import ClosureGraph
from .model import Cgf, Ef, check_states

EXISTS = "Exists"
FORALL = "Forall"


@dataclass
class ParityGame:
    """Positions 0..n-1 as parallel rows.  An imported game carries its label
    strings; a built game carries a view that renders each label from the
    position's state, closure node and chosen group when it is read."""

    owners: tuple[str, ...]
    priorities: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    labels: Sequence[str]

    def __len__(self) -> int:
        return len(self.owners)

    @property
    def max_priority(self) -> int:
        return max(self.priorities, default=0)


@dataclass
class Solution:
    winners: tuple[str, ...]
    strategy: dict[int, int] = field(default_factory=dict)


@dataclass
class _Labels(Sequence):
    """Read-only labels of a built game: ``w,<node label>``, followed by
    ``,(joint move)`` or ``,{set}`` at a position that resolves a group."""

    keys: list  # position keys, in position order
    nodes: tuple  # the closure's nodes
    groups: dict  # (state, coalition) -> the model's outcome groups

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, v: int) -> str:
        key = self.keys[v]  # ("f", w, nid) or ("g", w, nid, group index)
        w, node = key[1], self.nodes[key[2]]
        if len(key) == 3:
            return f"{w},{node.label}"
        choice, reached = self.groups[w, node.coalition][key[3]]
        if isinstance(choice, tuple):  # a joint move
            return f"{w},{node.label},({','.join(map(str, choice))})"
        return f"{w},{node.label},{{{' '.join(reached)}}}"  # an effectivity set


def build_game(model, closure: ClosureGraph, states=None, deadline=None):
    """Game over either frame kind; returns (game, root index per state).

    Modal positions branch on the coalition's outcome groups (its joint moves
    on a game frame, its listed sets on an effectivity frame), then on the
    states the chosen group reaches.  Positions are numbered in discovery
    order and processed in that order, so one list of position keys is both
    the breadth-first work queue and what the game's labels are rendered from.
    """
    if states is None:
        states = list(model.states)
    else:
        check_states(model, states)
    index: dict = {}
    keys: list = []
    owners: list[str] = []
    priorities: list[int] = []
    successors: list[tuple[int, ...]] = []

    def position(key) -> int:
        if key not in index:
            index[key] = len(keys)
            keys.append(key)
        return index[key]

    def emit(owner: str, priority: int, succ_keys) -> None:
        owners.append(owner)
        priorities.append(priority)
        successors.append(tuple(dict.fromkeys(map(position, succ_keys))))

    roots = {w: position(("f", w, closure.root)) for w in states}
    nodes = closure.nodes
    groups: dict = {}  # (state, coalition) -> the model's outcome groups
    for key in keys:  # emit appends newly discovered keys behind this one
        if deadline is not None:
            deadline.check()
        if key[0] == "f":
            _, w, nid = key
            node = nodes[nid]
            kind = node.kind
            if kind == "top":
                emit(FORALL, 0, ())
            elif kind == "bot":
                emit(EXISTS, 0, ())
            elif kind == "atom":
                loop = (key,) if w in model.atom_states(node.atom) else ()
                emit(EXISTS, 0, loop)
            elif kind == "negatom":
                loop = (key,) if w in model.atom_states(node.atom) else ()
                emit(FORALL, 1, loop)
            elif kind == "and":
                left, right = node.children
                emit(FORALL, 0, (("f", w, left), ("f", w, right)))
            elif kind == "or":
                left, right = node.children
                emit(EXISTS, 0, (("f", w, left), ("f", w, right)))
            elif kind in ("mu", "nu"):
                emit(EXISTS, node.priority, (("f", w, node.children[0]),))
            else:  # enforce / allows: pick one of the coalition's groups
                at = (w, node.coalition)
                if at not in groups:
                    groups[at] = model.groups(w, node.coalition)
                owner = EXISTS if kind == "enforce" else FORALL
                emit(owner, 0, [("g", w, nid, i) for i in range(len(groups[at]))])
        else:  # ("g", w, nid, group index): pick a state the group reaches
            _, w, nid, i = key
            node = nodes[nid]
            _, reached = groups[w, node.coalition][i]
            child = node.children[0]
            owner = FORALL if node.kind == "enforce" else EXISTS
            emit(owner, 0, [("f", v, child) for v in reached])
    game = ParityGame(tuple(owners), tuple(priorities), tuple(successors), _Labels(keys, nodes, groups))
    return game, roots


# game_verdicts looks the builder up under one name per frame kind, so that
# perfbench/tracer.py can wrap the build step; both names are the one builder,
# and the package exports it only as build_game.
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


def zielonka_solve(game: ParityGame, deadline=None) -> Solution:
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
    so the Python call depth does not grow with the game.  A deadline is
    polled once per pass of that loop.
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
            if deadline is not None:
                deadline.check()
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


def game_verdicts(model, closure: ClosureGraph, states=None, deadline=None) -> dict[str, bool]:
    """Winner of (state, root) for each requested state, Exists meaning true."""
    if isinstance(model, Cgf):
        game, roots = build_game_cgf(model, closure, states, deadline)
    elif isinstance(model, Ef):
        game, roots = build_game_ef(model, closure, states, deadline)
    else:
        raise ModelError(f"not a model: {model!r}")
    solution = zielonka_solve(game, deadline)
    return {w: solution.winners[idx] == EXISTS for w, idx in roots.items()}


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
