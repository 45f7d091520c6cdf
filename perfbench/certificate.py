"""Certificate check for a solved parity game, independent of the solver.

Fix the claimed winner's strategy inside its claimed region.  The strategy
is a certificate when, from that region, the loser can reach neither a
position where the winner is stuck nor a position outside the region, and
the fixed graph has no cycle whose top priority has the loser's parity.
The cycle test runs one iterative strongly-connected-component pass per
losing priority p over the positions of priority at most p: a cycle with top
priority p exists exactly when some component with a cycle holds a
position of priority p.
"""

from __future__ import annotations

EXISTS = "Exists"


def _components(nodes, edges):
    """Strongly connected components of the graph restricted to nodes, each
    with a flag saying whether it contains a cycle (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in nodes:
                    continue
                if u not in index:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(edges[u])))
                    advanced = True
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    component.append(u)
                    if u == v:
                        break
                cyclic = len(component) > 1 or v in edges[v]
                yield component, cyclic


def certify(owners, priorities, successors, winners, strategy) -> list[str]:
    """Defects of a claimed solution; an empty list means it is certified."""
    defects: list[str] = []
    for player in (EXISTS, "Forall"):
        region = {v for v, w in enumerate(winners) if w == player}
        edges: dict[int, tuple[int, ...]] = {}
        for v in region:
            if owners[v] == player:
                move = strategy.get(v)
                if move is None or move not in successors[v]:
                    defects.append(f"{player} has no legal strategy move at its position {v}")
                    continue
                edges[v] = (move,)
            else:
                edges[v] = successors[v]
            for u in edges[v]:
                if u not in region:
                    defects.append(f"play leaves the region of {player} along {v}->{u}")
        if defects:
            return defects
        losing_parity = 1 if player == EXISTS else 0
        for p in sorted({priorities[v] for v in region if priorities[v] % 2 == losing_parity}):
            nodes = {v for v in region if priorities[v] <= p}
            for component, cyclic in _components(nodes, edges):
                if cyclic and any(priorities[v] == p for v in component):
                    defects.append(f"{player} loses a cycle with top priority {p} through {component[0]}")
                    return defects
    return defects
