"""Model checking by reduction to parity games.

A formula position is keyed (state, closure node id); a group position, where
a modality's chosen joint move or effectivity set is resolved, is keyed
(state, node id, group index) and reached only from its modal position, so
only formula positions are looked up by key, and all of a modal position's
group rows are appended at its first group key.  Exists wins an infinite play
iff the highest priority seen infinitely often is even; a player who cannot
move loses immediately.  Games are built reachably from the queried states
and stay within |W| * |closure| * (|grand moves| + 1) positions; a check
stops building once finite plays decide every queried state.
"""

from __future__ import annotations

import itertools
import re
import sys
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


class _Finite:
    """The winners that finite plays decide, kept up as a game grows.

    One rule decides every row: a position goes to its owner once one of its
    successors is won by the owner, and to the opponent once all of them are
    won by the opponent, so a dead end is lost by its owner.  A self-loop
    counts as a successor won by its priority's parity: a play that takes it
    for ever sees only that priority.  Each `extend` takes the rows built
    since the last one, so a game can be decided while it is built; what
    stays open after the last row is won by neither player on a finite play,
    and every open position keeps an open successor other than itself.

    `owners` has one entry per row taken so far, the other lists one per
    position numbered so far.  Owners and winners are 0 (Exists) and 1
    (Forall), and -1 marks an open position.  `move` holds the winner's
    attracting move where the winner owns a decided position.
    `predecessors[u]` lists each position v != u with an edge to u that was
    taken while u was open, once per edge, and `escapes[v]` counts an open
    position's successors not yet won by its opponent; an open position's
    predecessor list is therefore complete in its other open predecessors,
    which is all Zielonka reads of it, since an attractor marks a position
    before it reads the position's predecessors.
    """

    def __init__(self):
        self.owners: list[int] = []
        self.winners: list[int] = []
        self.move: list[int] = []
        self.predecessors: list[list[int]] = []
        self.escapes: list[int] = []

    def decided(self, positions) -> bool:
        """Whether finite plays decide every one of the positions."""
        winners = self.winners
        return all(winners[v] >= 0 for v in positions)

    def extend(self, owners, priorities, successors, positions: int) -> None:
        """Take rows len(self.owners) .. len(successors)-1, whose successors
        lie below `positions`, and decide what they let finite plays decide."""
        grow = positions - len(self.winners)
        self.winners += [-1] * grow
        self.move += [-1] * grow
        self.escapes += [0] * grow
        self.predecessors += [[] for _ in range(grow)]
        own, winners, move, escapes, predecessors = self.owners, self.winners, self.move, self.escapes, self.predecessors
        start = len(own)
        own += [0 if o == EXISTS else 1 for o in owners[start:len(successors)]]

        def decide(v, player, to):
            """Player wins v, moving to `to` if player owns v; then every
            open predecessor that this decides, transitively."""
            winners[v] = player
            move[v] = to
            queue = [v]
            for t in queue:  # the loop also visits what it appends
                for u in predecessors[t]:
                    if winners[u] >= 0:
                        continue
                    if own[u] == player:
                        move[u] = t
                    elif escapes[u] > 1:
                        escapes[u] -= 1
                        continue
                    winners[u] = player
                    queue.append(u)

        for v in range(start, len(successors)):
            row = successors[v]
            owner = own[v]
            left = len(row)
            for u in row:
                won = winners[u] if u != v else priorities[v] & 1
                if won < 0:
                    predecessors[u].append(v)
                elif won == owner:
                    decide(v, owner, u)
                    break
                else:
                    left -= 1
            else:
                if left:
                    escapes[v] = left
                else:
                    decide(v, 1 - owner, -1)


def build_game(model, closure: ClosureGraph, states=None, deadline=None, until_decided=False):
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

    With `until_decided`, the build also decides what finite plays decide
    (see `_Finite`), at checkpoints of 64, 128, 256, ... built rows, and
    stops at the first one where every root is decided; it returns (game,
    roots, finite), where the game holds the rows built so far, whose
    successors may point past its end.  A build that is not stopped is
    finished, fully decided as far as finite plays go, and returned whole.
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
    distinct = isinstance(model, Ef)  # reached lists are sorted sets
    finite = _Finite() if until_decided else None
    # Doubling checkpoints take each row once in all, in a few calls; a game
    # of fewer than 64 positions is decided once, when it is whole.
    checkpoint = 64 if until_decided else sys.maxsize
    for key in keys:  # each row appends newly discovered keys behind this one
        if deadline is not None:
            deadline.check()
        if len(successors) >= checkpoint:
            finite.extend(owners, priorities, successors, len(keys))
            if finite.decided(roots.values()):
                break
            checkpoint *= 2
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
            number = found.__getitem__
            # A one-state row (a grand coalition's) is mapped directly, 4x
            # cheaper; only a game frame's rows can repeat a state.
            successors += [
                (number(r[0]),) if len(r) == 1 else tuple(map(number, r if distinct else dict.fromkeys(r)))
                for _, r in block
            ]
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
    if finite is not None:  # rows since the last checkpoint, if the build was not stopped
        finite.extend(owners, priorities, successors, len(keys))
    game = ParityGame(tuple(owners), tuple(priorities), tuple(successors), _Labels(keys, nodes, groups))
    return (game, roots) if finite is None else (game, roots, finite)


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


def zielonka_solve(game: ParityGame, deadline=None, finite=None) -> Solution:
    """Zielonka's attractor decomposition over strongly connected components.

    What finite plays decide goes to its winner up front (see `_Finite`),
    so the core left is total.  A builder that decided it already hands it
    over as `finite`, whose rows the solver takes over and whose winners it
    completes in place; otherwise it is computed here.  `solve(region)`
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
    if finite is None:
        finite = _Finite()
        finite.extend(game.owners, priorities, successors, n)
    owners, winners, move, predecessors = finite.owners, finite.winners, finite.move, finite.predecessors
    inn = [1 if w < 0 else 0 for w in winners]
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
        game, roots, finite = build_game_cgf(model, closure, states, deadline, until_decided=True)
    elif isinstance(model, Ef):
        game, roots, finite = build_game_ef(model, closure, states, deadline, until_decided=True)
    else:
        raise ModelError(f"not a model: {model!r}")
    if not finite.decided(roots.values()):
        zielonka_solve(game, deadline, finite)  # fills finite.winners
    return {w: finite.winners[v] == 0 for w, v in roots.items()}


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
