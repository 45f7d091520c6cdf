"""Model checking by direct nested fixpoint evaluation.

The evaluation state is one bitmask per closure node: bit i of an ``int``
says that the node holds at ``model.states[i]``.  A level is the list of
these masks indexed by node id, and there is one level per priority.  A
one-step function maps the levels to the masks justified by them:
propositional nodes combine their children, a fixpoint node of priority i
reads its body at level i, and modal nodes quantify over the outcome groups
of the model (one per joint move on a game frame, one per listed set on an
effectivity frame).  One scan decides both: ``[C] x`` holds where some
group lies inside x, and its dual ``<C> x`` where ``[C]`` fails on the
complement of x over all the model's states; either way every group of every
state is scanned.  Levels alternate greatest (even) and least (odd)
fixpoints, innermost first.  Each level keeps its value across the whole
evaluation (Emerson and Lei's warm start): when a level moves, only the inner
levels of the other parity go back to their extremes, and the inner levels
of its own parity go on from where they stood.

The engine's one-step function is a children-first (Gauss-Seidel) sweep:
``build_closure`` numbers every non-binder node after its children, so one
pass in ascending id order can read each non-binder child from the current
sweep, and only binders read the previous level-0 value.  A level is a
fixpoint of this sweep exactly when it is a fixpoint of the plain (Jacobi)
step that reads every child from level 0, and the sweep is monotone, so
iterating it from a level's extreme reaches the same extremal fixpoint in
fewer steps.  A modal node whose child mask is the one it last saw keeps
the mask it gave then, so a sweep re-evaluates only the modal nodes whose
input changed.  The public ``prop_step`` and ``one_step`` are the Jacobi step:
sets of (state, node) pairs in and out, every child read from ``xvec[0]``.
"""

from __future__ import annotations

from .errors import ModelError
from .formula import ClosureGraph
from .model import Cgf, Ef, check_states

_AND, _OR, _FIX, _ENFORCE, _ALLOWS = range(5)


class _Stepper:
    """One-step function over bitmask levels, with the argument-independent
    parts precomputed.

    Bits index ``model.states``; only the nodes' values at ``states`` are
    computed, the other bits stay 0.  Statics (truth constants and literals)
    are evaluated once; every modal node keeps, per state, the mask of the
    reached states of each of the model's outcome groups.  One scan finds the
    states where some group ``g`` has ``g & y == g``: enforce holds there for
    ``y = x``, the child's mask, and allows holds at the other states of
    ``domain`` for ``y = full ^ x``, the complement over all model states (the
    groups reach states outside ``states``).  A modal node whose child mask
    equals the one of its last evaluation, in this call or an earlier one, is
    skipped: it keeps the mask that evaluation gave.  An evaluated node of
    either kind scans every group with no early exit, so what it costs
    depends only on the move structure of the model, never on the argument;
    timings therefore track model growth and the number of input changes
    rather than verdict patterns.  With ``modal=False`` the modal clauses are
    left out entirely.

    A call sweeps the nodes in ascending id order.  Non-binder children are
    read from ``children`` when it is given (the Jacobi step), otherwise from
    the sweep itself (the Gauss-Seidel step); fixpoint nodes of priority i
    always read their body from ``xvec[i]``."""

    def __init__(self, model, closure: ClosureGraph, states, deadline=None, modal=True):
        self.bits = {w: 1 << i for i, w in enumerate(model.states)}
        self.states = tuple(states)
        check_states(model, self.states)
        self.domain = self.mask(self.states)
        self.full = self.mask(model.states)
        self.size = len(closure.nodes)
        self.statics = [0] * self.size
        self.ops: list[tuple] = []
        # Per modal node, the child mask of its last evaluation and the mask
        # it gave; -1 is no mask, so the first call evaluates every node.
        self.seen = [-1] * self.size
        self.memo = [0] * self.size
        groups_cache: dict = {}
        for nid, node in enumerate(closure.nodes):
            kind = node.kind
            if kind == "top":
                self.statics[nid] = self.domain
            elif kind in ("atom", "negatom"):
                holds = self.mask(model.atom_states(node.atom))
                self.statics[nid] = self.domain & (holds if kind == "atom" else ~holds)
            elif kind in ("and", "or"):
                self.ops.append((_AND if kind == "and" else _OR, nid, *node.children))
            elif kind in ("mu", "nu"):
                self.ops.append((_FIX, nid, node.children[0], node.priority))
            elif kind in ("enforce", "allows") and modal:
                rows = []
                for w in self.states:
                    if deadline is not None:
                        deadline.check()
                    key = (w, node.coalition)
                    if key not in groups_cache:
                        groups_cache[key] = [self.mask(reached) for _, reached in model.groups(w, node.coalition)]
                    rows.append((self.bits[w], groups_cache[key]))
                self.ops.append((_ENFORCE if kind == "enforce" else _ALLOWS, nid, node.children[0], rows))

    def mask(self, states) -> int:
        bits = self.bits
        out = 0
        for w in states:
            out |= bits[w]
        return out

    def __call__(self, xvec, children=None) -> list[int]:
        out = list(self.statics)
        read = out if children is None else children
        domain, full = self.domain, self.full
        seen, memo = self.seen, self.memo
        for op, nid, a, b in self.ops:
            if op == _AND:
                out[nid] = read[a] & read[b] & domain
            elif op == _OR:
                out[nid] = (read[a] | read[b]) & domain
            elif op == _FIX:
                out[nid] = xvec[b][a] & domain
            elif read[a] == seen[nid]:
                out[nid] = memo[nid]
            else:
                # Scans run to completion: no early exit once a quantifier settles.
                x = read[a]
                y = x if op == _ENFORCE else full ^ x
                value = 0
                for bit, groups in b:
                    ok = False
                    for g in groups:
                        if g & y == g:
                            ok = True
                    if ok:
                        value |= bit
                out[nid] = memo[nid] = value if op == _ENFORCE else domain ^ value
                seen[nid] = x
        return out

    def level(self, pairs) -> list[int]:
        """Masks of a set of (state, node) pairs; unknown states are ignored."""
        out = [0] * self.size
        for w, nid in pairs:
            out[nid] |= self.bits.get(w, 0)
        return out

    def pairs(self, level) -> set:
        """The (state, node) pairs of the masks, at this stepper's states."""
        bits = self.bits
        return {(w, nid) for nid, m in enumerate(level) if m for w in self.states if m & bits[w]}


def _jacobi_step(stepper: _Stepper, xvec) -> set:
    levels = [stepper.level(pairs) for pairs in xvec]
    return stepper.pairs(stepper(levels, children=levels[0]))


def prop_step(model, closure: ClosureGraph, states, xvec) -> set:
    """Propositional one-step function: everything except the modal clauses."""
    return _jacobi_step(_Stepper(model, closure, states, modal=False), xvec)


def one_step(model, closure: ClosureGraph, states, xvec) -> set:
    """Full one-step function: the modal clauses quantify over the model's
    outcome groups, some group all inside the argument (enforce) or every
    group meeting it (allows)."""
    return _jacobi_step(_Stepper(model, closure, states), xvec)


def nested_fixpoint(step, top, bottom, max_priority: int, deadline=None):
    """Value of the alternating fixpoint tower over the one-step function:
    greatest at even levels (starting from ``top``), least at odd (from
    ``bottom``), level max_priority outermost.  Kleene iteration with
    Emerson and Lei's warm start: one value per level persists, and when
    level i moves only the inner levels of the other parity (i-1, i-3, ...)
    go back to their extremes; the inner levels of i's parity go on from the
    value they have, which is sound because the step is monotone.  ``step``
    gets the levels innermost first and must not modify them.  Returns the
    stabilized level 0."""
    levels = [bottom if i % 2 else top for i in range(max_priority + 1)]

    def solve(level: int):
        while True:
            if deadline is not None:
                deadline.check()
            new = step(levels) if level == 0 else solve(level - 1)
            if new == levels[level]:
                return new
            levels[level] = new
            for inner in range(level - 1, -1, -2):
                levels[inner] = bottom if inner % 2 else top

    return solve(max_priority)


def _solve(model, closure: ClosureGraph, deadline, queried=()) -> tuple[_Stepper, list[int]]:
    """The stepper over the whole state space and the masks the tower
    settles on; the queried states must be the model's."""
    if not isinstance(model, (Cgf, Ef)):
        raise ModelError(f"not a model: {model!r}")
    check_states(model, queried)
    step = _Stepper(model, closure, model.states, deadline)
    size = len(closure.nodes)
    return step, nested_fixpoint(step, [step.domain] * size, [0] * size, closure.max_priority, deadline)


def fixpoint_extension(model, closure: ClosureGraph, deadline=None) -> set:
    """All (state, node) pairs the nested fixpoint settles on, over the whole
    state space."""
    step, level = _solve(model, closure, deadline)
    return step.pairs(level)


def fixpoint_verdicts(model, closure: ClosureGraph, states=None, deadline=None) -> dict[str, bool]:
    step, level = _solve(model, closure, deadline, states or ())
    root = level[closure.root]
    targets = model.states if states is None else states
    return {w: bool(root & step.bits[w]) for w in targets}
