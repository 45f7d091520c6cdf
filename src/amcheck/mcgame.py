"""Model checking by reduction to parity games.

A formula position is keyed (state, closure node id); a group position, where
a modality's chosen joint move or effectivity set is resolved, is keyed
(state, node id, group index) and reached only from its modal position, so
only formula positions are looked up by key, and all of a modal position's
group rows are appended at its first group key.  Exists wins an infinite play
iff the highest priority seen infinitely often is even; a player who cannot
move loses immediately.  Games are built reachably from the queried states
and stay within |W| * |closure| * (|grand moves| + 1) positions.
"""

from __future__ import annotations

import itertools
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
    """The winner of every position, and the winner's move at every
    position the winner owns."""

    winners: tuple[str, ...]
    strategy: dict[int, int] = field(default_factory=dict)


@dataclass
class _Labels(Sequence):
    """Read-only labels of a built game: ``w,<node label>``, followed by
    ``,(joint move)`` or ``,{set}`` at a position that resolves a group.
    A formula position's key is (state, node id) and a group position's key
    is (state, node id, group index), so the key's length tells them apart."""

    keys: list  # position keys, in position order
    nodes: tuple  # the closure's nodes
    groups: dict  # (state, coalition) -> the model's outcome groups

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, v: int) -> str:
        key = self.keys[v]
        w, node = key[0], self.nodes[key[1]]
        if len(key) == 2:
            return f"{w},{node.label}"
        choice, reached = self.groups[w, node.coalition][key[2]]
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
    Formula positions (state, node id) get their numbers through `index`.  A
    group position (state, node id, group index) is reached only from its
    modal position, which is processed once and numbers its groups
    consecutively, so group positions stay out of `index`.  The block's rows
    are all appended at its first key; its other keys, built by then, only
    poll the deadline, which keeps one poll per position.
    """
    if states is None:
        states = list(model.states)
    else:
        check_states(model, states)
    index: dict = {}  # formula position key -> position number
    roots = {w: index.setdefault((w, closure.root), len(index)) for w in states}
    keys = list(index)
    owners: list[str] = []
    priorities: list[int] = []
    successors: list[tuple[int, ...]] = []
    nodes = closure.nodes
    groups: dict = {}  # (state, coalition) -> the model's outcome groups
    for key in keys:  # each row appends newly discovered keys behind this one
        if deadline is not None:
            deadline.check()
        if len(key) == 3 and key[2]:  # a group position, built with its block's first
            continue
        w, node = key[0], nodes[key[1]]
        kind = node.kind
        priority = 0
        if len(key) == 3:  # a block of group positions: pick a state the group reaches
            child, block = node.children[0], groups[w, node.coalition]
            found = dict.fromkeys(itertools.chain.from_iterable(reached for _, reached in block))
            for v in found:  # each reached state, in order of first reach
                k = (v, child)
                found[v] = index.get(k)
                if found[v] is None:
                    found[v] = index[k] = len(keys)
                    keys.append(k)
            number = found.__getitem__  # a one-state row (a grand coalition's) skips dict.fromkeys: 4x cheaper
            successors += [(number(r[0]),) if len(r) == 1 else tuple(map(number, dict.fromkeys(r))) for _, r in block]
            owners += [FORALL if kind == "enforce" else EXISTS] * len(block)
            priorities += [0] * len(block)
            continue
        elif kind in ("enforce", "allows"):  # pick one of the coalition's groups
            at = (w, node.coalition)
            if at not in groups:
                groups[at] = model.groups(w, node.coalition)
            first = len(keys)
            keys += [(w, key[1], i) for i in range(len(groups[at]))]
            owners.append(EXISTS if kind == "enforce" else FORALL)
            priorities.append(0)
            successors.append(tuple(range(first, len(keys))))
            continue
        elif kind in ("top", "bot"):
            owner, succ = (FORALL if kind == "top" else EXISTS), ()
        elif kind in ("atom", "negatom"):
            owner, priority = (EXISTS, 0) if kind == "atom" else (FORALL, 1)
            succ = (key,) if w in model.atom_states(node.atom) else ()
        elif kind in ("and", "or"):
            owner, succ = (FORALL if kind == "and" else EXISTS), tuple((w, c) for c in node.children)
        else:  # mu / nu
            owner, priority, succ = EXISTS, node.priority, ((w, node.children[0]),)
        row = []
        for k in succ:
            u = index.get(k)
            if u is None:
                u = index[k] = len(keys)
                keys.append(k)
            row.append(u)
        owners.append(owner)
        priorities.append(priority)
        successors.append(tuple(dict.fromkeys(row)))
    game = ParityGame(tuple(owners), tuple(priorities), tuple(successors), _Labels(keys, nodes, groups))
    return game, roots


# game_verdicts looks the builder up under one name per frame kind, so that
# perfbench/tracer.py can wrap the build step; both names are the one builder,
# and the package exports it only as build_game.
build_game_cgf = build_game_ef = build_game


def _attract(targets, d, player, stamp, inn, owners, successors, predecessors, mark, escapes, counted, move):
    """Player's attractor to the targets inside the region at depth d (the
    positions v with inn[v] >= d).  Returns the attracted positions, targets
    first, each marked with `stamp`; every attracted position the player owns
    gets its attracting move written into `move`.  An opponent position's
    escapes (live successors) are counted on its first reach in this call and
    drop by one per attracted successor."""
    for t in targets:
        mark[t] = stamp
    attracted = list(targets)
    for t in attracted:  # the loop also visits what it appends
        for v in predecessors[t]:
            if mark[v] == stamp or inn[v] < d:
                continue
            if owners[v] == player:
                move[v] = t
            else:
                if counted[v] == stamp:
                    left = escapes[v] - 1
                else:
                    counted[v] = stamp
                    left = len([u for u in successors[v] if inn[u] >= d]) - 1
                if left:
                    escapes[v] = left
                    continue
            mark[v] = stamp
            attracted.append(v)
    return attracted


def _components(region, d, stamp, inn, successors, seen, index, low):
    """Strongly connected components of the region at depth d, each one
    listed after every component it can reach (iterative Tarjan)."""
    components = []
    stack: list[int] = []
    finished = len(index)  # above every index a pass gives out
    count = 0
    for root in region:
        if seen[root] == stamp:
            continue
        seen[root] = stamp
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, edges = work[-1]
            for u in edges:
                if inn[u] < d:
                    continue
                if seen[u] != stamp:
                    seen[u] = stamp
                    index[u] = low[u] = count
                    count += 1
                    stack.append(u)
                    work.append((u, iter(successors[u])))
                    break
                if index[u] < low[v]:  # u is on the stack: finished ones index high
                    low[v] = index[u]
            else:
                work.pop()
                lowest = low[v]
                if work and lowest < low[work[-1][0]]:
                    low[work[-1][0]] = lowest
                if lowest == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    component = stack[at:]
                    del stack[at:]
                    for u in component:
                        index[u] = finished
                    components.append(component)
    return components


def zielonka_solve(game: ParityGame, deadline=None) -> Solution:
    """Zielonka's attractor decomposition over strongly connected components.

    Positions where the owner is stuck are handed to the opponent up front
    (with their attractors), so the core left is total.  `solve(region)`
    splits its subgame into strongly connected components and handles them
    bottom-up: the positions of a component that are not decided yet form a
    closed subgame, which the loop below solves, and the regions the two
    players win there are attracted in the whole region.  The split is only
    a speed-up, so two kinds of subgame skip it and go straight to the loop:
    one with at most two priorities, whose nested rest holds one priority and
    is won in one pass, and the nested rest of a region that was one
    component, which mostly is one component again (a game that stays one
    component at every level then pays for a split at every other level).

    The loop removes the top priority's attractor and solves the rest first,
    through `solve`.  While the opponent wins part of it, the opponent's
    attractor to that part is won by the opponent in the subgame as well,
    and the loop goes round again without it; once the opponent wins nothing,
    the player wins the whole subgame.

    Regions nest, so one depth per position says which of them hold it:
    position v is in the region at depth d iff inn[v] >= d.  Owners and
    winners are 0 (Exists) and 1 (Forall).  `solve` yields each nested
    region to an explicit stack instead of calling itself, so the Python
    call depth does not grow with the game.  A deadline is polled once per
    call of `solve` and once per pass of the loop.
    """
    n = len(game)
    successors = game.successors
    priorities = game.priorities
    owners = [0 if o == EXISTS else 1 for o in game.owners]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for v, row in enumerate(successors):
        for u in row:
            predecessors[u].append(v)
    inn = [1] * n
    winners = [0] * n
    move = [-1] * n
    # scratch rows, valid where stamped with the current call's stamp:
    # attractor marks and Tarjan visits, escape counts, Tarjan numbering
    mark = [0] * n
    counted = [0] * n
    escapes = [0] * n
    index = [0] * n
    low = [0] * n
    stamps = itertools.count(1)
    rows = (inn, owners, successors, predecessors, mark, escapes, counted, move)

    def win(targets, d, player):
        """The player wins its attractor to the targets in the region at
        depth d, which leaves that region."""
        for v in _attract(targets, d, player, next(stamps), *rows):
            winners[v] = player
            inn[v] = d - 1

    # Only a dead end can be stuck: a position whose successors all fall
    # into one player's attractor is attracted itself.
    dead = [v for v in range(n) if not successors[v]]
    for player in (0, 1):
        stuck = [v for v in dead if owners[v] != player]
        if stuck:
            win(stuck, 1, player)

    def loop(sub, d, split):
        while sub:
            if deadline is not None:
                deadline.check()
            top = max(map(priorities.__getitem__, sub))
            player = top & 1
            summit = [v for v in sub if priorities[v] == top]
            stamp = next(stamps)
            attracted = _attract(summit, d, player, stamp, *rows)
            rest = [v for v in sub if mark[v] != stamp]
            if rest:
                for v in attracted:
                    inn[v] = d
                for v in rest:
                    inn[v] = d + 1
                yield rest, d + 1, split  # the driver below solves it before resuming
                lost = [v for v in rest if winners[v] != player]
                if lost:
                    win(lost, d, 1 - player)
                    sub = [v for v in sub if inn[v] >= d]
                    continue
            for v in sub:
                winners[v] = player
            for v in summit:
                if owners[v] == player:
                    move[v] = next(u for u in successors[v] if inn[u] >= d)
            return

    def solve(region, d, split):
        if deadline is not None:
            deadline.check()
        if not split or len(set(map(priorities.__getitem__, region))) <= 2:
            yield from loop(region, d, True)
            return
        components = _components(region, d, next(stamps), inn, successors, mark, index, low)
        for component in components:
            sub = [v for v in component if inn[v] >= d]  # not decided yet
            if sub:
                for v in sub:
                    inn[v] = d + 1
                yield from loop(sub, d + 1, len(components) > 1)
                for player in (0, 1):
                    won = [v for v in sub if winners[v] == player]
                    if won:
                        win(won, d, player)

    stack = [solve([v for v in range(n) if inn[v]], 1, True)]
    while stack:
        nested = next(stack[-1], None)
        if nested is None:
            stack.pop()
        else:
            stack.append(solve(*nested))
    names = (EXISTS, FORALL)
    strategy = {v: move[v] for v in range(n) if owners[v] == winners[v]}
    return Solution(tuple(names[w] for w in winners), strategy)


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
    row order (ids may be sparse).  A number too long for int() makes its row
    unparsable."""
    ids, priorities, owners, succ_ids, labels = [], [], [], [], []  # parallel rows, one per position
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("parity"):
            continue
        m = _PG_ROW.fullmatch(line)
        if not m:
            raise ModelError(f"unparsable game row: {raw!r}")
        ident, priority, owner, succ_text, label = m.groups()
        try:
            ids.append(int(ident))
            priorities.append(int(priority))
            succ_ids.append([int(p) for p in "".join(succ_text.split()).split(",") if p])
        except ValueError:
            raise ModelError(f"unparsable game row: {raw!r}") from None
        owners.append(EXISTS if owner == "0" else FORALL)
        labels.append(label or ident)
    if not ids:
        raise ModelError("no positions in game file")
    index = {ident: i for i, ident in enumerate(ids)}
    if len(index) != len(ids):
        raise ModelError("duplicate position ids in game file")
    successors = []
    for ident, succ in zip(ids, succ_ids):
        try:
            successors.append(tuple(dict.fromkeys([index[u] for u in succ])))
        except KeyError as exc:
            raise ModelError(f"position {ident} points at unknown position {exc.args[0]}") from None
    game = ParityGame(tuple(owners), tuple(priorities), tuple(successors), tuple(labels))
    return game, tuple(ids)
