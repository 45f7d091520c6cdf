"""Turning a concurrent game frame into the effectivity frame it induces.

A coalition's family at a state collects, per joint move of the coalition,
the set of outcomes the remaining agents can still steer between.  Keeping
only subset-minimal sets changes no modal verdict but can shrink families
drastically.
"""

from __future__ import annotations

import itertools

from .errors import ModelError
from .model import CanonicalFamily, Cgf, Ef, canonical_family

MAX_TABLE_ENTRIES = 1 << 18
"""Most (state, coalition) entries a conversion over every coalition may
list, 2^agents of them per state; beyond it the conversion is refused before
anything is listed, since one small file with many agents would otherwise
exhaust memory.  A conversion over named coalitions is not bounded."""


def _all_coalitions(agents: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(agents + 1):
        out.extend(itertools.combinations(range(1, agents + 1), size))
    return out


def induced_effectivity(g: Cgf, coalitions=None, deadline=None) -> Ef:
    """Family per state and coalition: the outcome set of each of the
    coalition's groups, duplicates collapsed."""
    if coalitions is None:
        if len(g.states) > MAX_TABLE_ENTRIES >> g.agents:
            raise ModelError(
                f"a table over every coalition has 2^{g.agents} coalitions at each of {len(g.states)} "
                f"states, more than {MAX_TABLE_ENTRIES} entries; name the coalitions instead"
            )
        wanted = _all_coalitions(g.agents)
    else:
        wanted = sorted({tuple(sorted(set(c))) for c in coalitions}, key=lambda c: (len(c), c))
    effectivity: dict[str, dict[tuple[int, ...], tuple[frozenset[str], ...]]] = {}
    for w in g.states:
        if deadline is not None:
            deadline.check()
        effectivity[w] = {
            coalition: canonical_family(reached for _, reached in g.groups(w, coalition))
            for coalition in wanted
        }
    return Ef(
        states=g.states,
        agents=g.agents,
        effectivity=effectivity,
        valuation=g.valuation,
        initial=g.initial,
    )


def minimal_sets(family) -> tuple[frozenset[str], ...]:
    """Subset-minimal members of a family, canonically ordered.  In that
    order two distinct sets of one size never contain each other, so each
    set is compared only with the kept sets of smaller size.  A family that
    is canonical already, as every family of a loaded or induced frame is,
    is not sorted again."""
    keep: list[frozenset[str]] = []
    smaller: list[frozenset[str]] = []
    size = 0
    for u in canonical_family(family):
        if len(u) != size:
            size, smaller = len(u), keep[:]
        if not any(map(u.issuperset, smaller)):
            keep.append(u)
    return CanonicalFamily(keep)


def minimize(e: Ef) -> Ef:
    """Restrict every family to its subset-minimal antichain."""
    effectivity = {
        w: {coalition: minimal_sets(family) for coalition, family in per_state.items()}
        for w, per_state in e.effectivity.items()
    }
    return Ef(e.states, e.agents, effectivity, e.valuation, e.initial)


def convert(g: Cgf, minimize_families: bool = False, coalitions=None, deadline=None) -> Ef:
    """The effectivity frame a game frame induces, over the given coalitions
    (every coalition when None), minimized on request.  Callers that report
    how long it took time the call themselves."""
    e = induced_effectivity(g, coalitions=coalitions, deadline=deadline)
    return minimize(e) if minimize_families else e
