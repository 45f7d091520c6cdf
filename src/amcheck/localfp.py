"""Model checking by direct nested fixpoint evaluation.

The evaluation state is a vector of sets of (state, closure node) pairs, one
set per priority level.  A one-step function maps that vector to the pairs
justified by it: propositional nodes read level 0, a fixpoint node of
priority i reads its unfolding at level i, and modal nodes quantify over
joint moves (game frames) or listed effectivity sets (effectivity frames).
Levels alternate greatest (even) and least (odd) fixpoints, innermost first,
with every inner level restarted from scratch whenever an outer one moves.
"""

from __future__ import annotations

from .errors import ModelError
from .formula import ClosureGraph, build_closure
from .model import Cgf, Ef


def prop_step(model, closure: ClosureGraph, states, xvec) -> set:
    """Propositional one-step function: everything except the modal clauses."""
    return _Stepper(model, closure, states, modal=False)(xvec)


class _Stepper:
    """One-step function with the argument-independent parts precomputed.

    Statics (truth constants and literals) are evaluated once; every modal
    node keeps, per state, the reached states of each of the model's outcome
    groups (one per joint move of the coalition on a game frame, one per
    listed effectivity set on an effectivity frame).  Calls then only run the
    quantifier scans.  Scans run to completion, so the cost of a modal step
    depends only on the move structure of the model, never on the argument
    set; timings therefore track model growth rather than verdict patterns.
    With ``modal=False`` the modal clauses are left out entirely."""

    def __init__(self, model, closure: ClosureGraph, states, deadline=None, modal=True):
        self.states = tuple(states)
        self.statics: set = set()
        self.conjunctions: list[tuple[int, int, int]] = []
        self.disjunctions: list[tuple[int, int, int]] = []
        self.fixpoints: list[tuple[int, int, int]] = []
        self.modal: list[tuple[int, bool, int, list]] = []
        groups_cache: dict = {}
        for nid, node in enumerate(closure.nodes):
            kind = node.kind
            if kind == "top":
                self.statics.update((w, nid) for w in self.states)
            elif kind == "atom":
                holds = model.atom_states(node.atom)
                self.statics.update((w, nid) for w in self.states if w in holds)
            elif kind == "negatom":
                holds = model.atom_states(node.atom)
                self.statics.update((w, nid) for w in self.states if w not in holds)
            elif kind == "and":
                self.conjunctions.append((nid, *node.children))
            elif kind == "or":
                self.disjunctions.append((nid, *node.children))
            elif kind in ("mu", "nu"):
                self.fixpoints.append((nid, node.children[0], node.priority))
            elif kind in ("enforce", "allows") and modal:
                rows = []
                for w in self.states:
                    if deadline is not None:
                        deadline.check()
                    key = (w, node.coalition)
                    if key not in groups_cache:
                        groups_cache[key] = [reached for _, reached in model.groups(w, node.coalition)]
                    rows.append((w, groups_cache[key]))
                self.modal.append((nid, kind == "enforce", node.children[0], rows))

    def __call__(self, xvec) -> set:
        x0 = xvec[0]
        out = set(self.statics)
        states = self.states
        for nid, left, right in self.conjunctions:
            for w in states:
                if (w, left) in x0 and (w, right) in x0:
                    out.add((w, nid))
        for nid, left, right in self.disjunctions:
            for w in states:
                if (w, left) in x0 or (w, right) in x0:
                    out.add((w, nid))
        for nid, body, priority in self.fixpoints:
            xi = xvec[priority]
            for w in states:
                if (w, body) in xi:
                    out.add((w, nid))
        # Scans run to completion: no early exit once a quantifier settles.
        for nid, is_enforce, child, rows in self.modal:
            if is_enforce:
                for w, groups in rows:
                    ok = False
                    for targets in groups:
                        forced = True
                        for v in targets:
                            if (v, child) not in x0:
                                forced = False
                        if forced:
                            ok = True
                    if ok:
                        out.add((w, nid))
            else:
                for w, groups in rows:
                    ok = True
                    for targets in groups:
                        allowed = False
                        for v in targets:
                            if (v, child) in x0:
                                allowed = True
                        if not allowed:
                            ok = False
                    if ok:
                        out.add((w, nid))
        return out


def one_step_cgf(model: Cgf, closure: ClosureGraph, states, xvec) -> set:
    """Game-frame one-step function: the modal clauses quantify over the
    coalition's joint moves and their completions."""
    return _Stepper(model, closure, states)(xvec)


def one_step_ef(model: Ef, closure: ClosureGraph, states, xvec) -> set:
    """Effectivity-frame one-step function: some listed set all inside the
    argument (enforce), or every listed set meeting it (allows)."""
    return _Stepper(model, closure, states)(xvec)


def nested_fixpoint(step, universe, max_priority: int, deadline=None) -> set:
    """Value of the alternating fixpoint tower over the one-step function:
    greatest at even levels, least at odd, level max_priority outermost.
    Plain Kleene iteration; every outer update recomputes all inner levels
    from their extremes.  Returns the stabilized level-0 set."""
    full = frozenset(universe)

    def solve(level: int, outer: list) -> set:
        current = set(full) if level % 2 == 0 else set()
        while True:
            if deadline is not None:
                deadline.check()
            if level == 0:
                new = step([current] + outer)
            else:
                new = solve(level - 1, [current] + outer)
            if new == current:
                return current
            current = new

    return solve(max_priority, [])


def fixpoint_extension(model, closure: ClosureGraph, deadline=None) -> set:
    """All (state, node) pairs the nested fixpoint settles on, over the whole
    state space."""
    if not isinstance(model, (Cgf, Ef)):
        raise ModelError(f"not a model: {model!r}")
    states = model.states
    step = _Stepper(model, closure, states, deadline)
    universe = {(w, nid) for w in states for nid in range(len(closure.nodes))}
    return nested_fixpoint(step, universe, closure.max_priority, deadline)


def fixpoint_verdicts(model, closure: ClosureGraph, states=None, deadline=None) -> dict[str, bool]:
    extension = fixpoint_extension(model, closure, deadline)
    targets = model.states if states is None else states
    return {w: (w, closure.root) in extension for w in targets}


def check_via_fixpoint(model, formula, state: str, deadline=None) -> bool:
    closure = formula if isinstance(formula, ClosureGraph) else build_closure(formula)
    return fixpoint_verdicts(model, closure, [state], deadline)[state]
