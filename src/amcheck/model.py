"""Concurrent game frames and effectivity frames, with their JSON formats.

Moves are 1-based: agent a has moves 1..m(w,a) at state w.  A grand move is
a tuple with one entry per agent in agent order; transition functions are
total on exactly the admissible grand moves.  Effectivity frames map a state
and coalition to a family of nonempty state sets and may be sparse in the
coalitions they list.

Both kinds answer ``groups(state, coalition)``: the groups of outcomes the
coalition can force.  It is all that the converter, the game builder and the
fixpoint stepper read of a frame's moves.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import AmcError, ModelError
from .formula import format_coalition


@dataclass
class Cgf:
    states: tuple[str, ...]
    agents: int
    move_counts: dict[str, tuple[int, ...]]
    transitions: dict[str, dict[tuple[int, ...], str]]
    valuation: dict[str, frozenset[str]]
    initial: str | None = None

    kind = "cgf"

    def __post_init__(self):
        # The cached _grand_total and _joint_moves key on a state's counts,
        # so counts given as lists are made tuples.
        if any(type(c) is not tuple for c in self.move_counts.values()):
            self.move_counts = {w: tuple(c) for w, c in self.move_counts.items()}

    def atom_states(self, name: str) -> frozenset[str]:
        """Extension of an atom; unlisted atoms denote the empty set."""
        return self.valuation.get(name, frozenset())

    def groups(self, state: str, coalition) -> list[tuple[tuple[int, ...], list[str]]]:
        """What the coalition can force at a state: one (joint move, reached
        states) pair per joint move of the coalition, in lexicographic order.
        The reached states list the outcome of every completion by the other
        agents, also in lexicographic order, so repeats are kept.

        The joint moves and their completions are cached per move-count
        vector, so the result does not depend on the table's own order.
        """
        counts = _state_entry(self.move_counts, state)
        members = _members(coalition, self.agents)
        lookup = self.transitions[state].__getitem__
        joint_moves = _joint_moves(counts, members)
        return [(joint, list(map(lookup, grands))) for joint, grands in joint_moves]


@dataclass
class Ef:
    states: tuple[str, ...]
    agents: int
    effectivity: dict[str, dict[tuple[int, ...], tuple[frozenset[str], ...]]]
    valuation: dict[str, frozenset[str]]
    initial: str | None = None

    kind = "ef"

    def atom_states(self, name: str) -> frozenset[str]:
        return self.valuation.get(name, frozenset())

    def family(self, state: str, coalition: tuple[int, ...]) -> tuple[frozenset[str], ...]:
        """Effectivity sets for a coalition; missing entries are an error
        because sparse frames only answer for the coalitions they list, and
        may list none at a state they have."""
        try:
            return self.effectivity[state][coalition]
        except KeyError:
            check_states(self, (state,))
            raise ModelError(
                f"no effectivity entry for coalition {format_coalition(coalition)} at state {state}"
            ) from None

    def groups(self, state: str, coalition) -> list[tuple[frozenset[str], list[str]]]:
        """What the coalition can force at a state: one (set, sorted states)
        pair per listed effectivity set, in family order."""
        members = _members(coalition, self.agents)
        return [(u, sorted(u)) for u in self.family(state, members)]


Model = Cgf | Ef


def _state_entry(table: dict, state: str):
    """A per-state table's entry; the one place an unknown state is refused."""
    try:
        return table[state]
    except KeyError:
        raise ModelError(f"unknown state {state}") from None


def check_states(model: Model, states) -> None:
    """Raise ModelError naming the first of the states the model lacks; the
    engines check every queried state here before they start."""
    known = dict.fromkeys(model.states)
    for w in states:
        _state_entry(known, w)


def _members(coalition, agents: int) -> tuple[int, ...]:
    """The coalition as a strictly ascending tuple of known agents."""
    members = tuple(sorted(set(coalition)))
    for a in members:
        if not 1 <= a <= agents:
            raise ModelError(f"unknown agent {a}")
    return members


@functools.lru_cache(maxsize=1024)
def _joint_moves(counts: tuple[int, ...], members: tuple[int, ...]):
    """The coalition's joint moves in lexicographic order, each with its
    completions: the grand moves that extend it, in lexicographic order.
    The empty coalition has one joint move, completed by every grand move.
    Up to 1024 (counts, coalition) pairs stay cached, each holding one tuple
    per grand move of its counts."""
    completions: dict = {}
    for grand in itertools.product(*(range(1, c + 1) for c in counts)):
        completions.setdefault(tuple(grand[a - 1] for a in members), []).append(grand)
    return tuple((joint, tuple(grands)) for joint, grands in completions.items())


def format_grand(grand: tuple[int, ...]) -> str:
    return ",".join(str(m) for m in grand)


class CanonicalFamily(tuple):
    """A family known to be in canonical order, as `canonical_family` gives
    it; a tuple in every other respect.  Sets and tuples are immutable, so
    the order holds for the object's whole life."""

    __slots__ = ()


def canonical_family(sets) -> tuple[frozenset[str], ...]:
    """Deduplicate and order a family by set size, then lexicographically on
    the sorted state ids.  A family that is a CanonicalFamily already is
    returned as it is."""
    if type(sets) is CanonicalFamily:
        return sets
    unique = {frozenset(u) for u in sets}
    # Two stable sorts give the order of the key (len(u), sorted(u)) without
    # building a pair per set.
    return CanonicalFamily(sorted(sorted(unique, key=sorted), key=len))


MAX_LISTED_MISSING = 1000
"""validate_cgf names each undefined grand move of a state only up to this
many; beyond it, one line gives their number."""


def _header_errors(m: Model, state_set: set[str]) -> list[str]:
    """Defects of what both frame kinds share: the agent count, the states,
    the initial state and the valuation."""
    errors: list[str] = []
    if m.agents < 1:
        errors.append(f"agent count must be at least 1, got {m.agents}")
    if not m.states:
        errors.append("state set is empty")
    if len(state_set) != len(m.states):
        errors.append("duplicate state ids")
    if m.initial is not None and m.initial not in state_set:
        errors.append(f"initial state {m.initial} is not a state")
    for atom, holds in m.valuation.items():
        for w in sorted(set(holds) - state_set):
            errors.append(f"valuation of {atom} mentions unknown state {w}")
    return errors


def validate_cgf(g: Cgf, exact=()) -> list[str]:
    """All structural defects, each with its location; empty means valid.
    The states in `exact` are known to have valid move counts and a table
    of exactly their admissible grand moves, each to a listed state, so they
    are not checked again; loads_model passes the rows it built that way."""
    state_set = set(g.states)
    errors = _header_errors(g, state_set)
    for w in g.states:
        if w in exact:
            continue
        counts = g.move_counts.get(w)
        if counts is None:
            errors.append(f"no move counts for state {w}")
            continue
        if len(counts) != g.agents:
            errors.append(f"move counts at {w} list {len(counts)} agents, expected {g.agents}")
            continue
        for a, c in enumerate(counts, start=1):
            if c < 1:
                errors.append(f"m({w},{a})={c}: every agent needs at least one move at every state")
    for w in sorted(set(g.move_counts) - state_set):
        errors.append(f"move counts given for unknown state {w}")
    for w in sorted(set(g.transitions) - state_set):
        errors.append(f"transitions given for unknown state {w}")
    for w in g.states:
        if w in exact:
            continue
        counts = g.move_counts.get(w)
        total = _grand_total(counts, g.agents)
        if total is None:
            continue
        table = g.transitions.get(w, {})
        row = _exact_row(table, counts, g.agents)
        if row is not None and state_set.issuperset(row):
            continue
        # Keys are checked against the counts one coordinate at a time: the
        # admissible grand moves are only listed when few of them are missing,
        # so huge move counts in a small file cost nothing.
        admissible = {
            grand for grand in table
            if len(grand) == len(counts) and all(1 <= m <= c for m, c in zip(grand, counts))
        }
        missing = total - len(admissible)
        if missing > MAX_LISTED_MISSING:
            errors.append(
                f"outcome undefined for {missing} of {total} admissible grand moves at state {w}"
            )
        elif missing:
            for grand in itertools.product(*(range(1, c + 1) for c in counts)):
                if grand not in table:
                    errors.append(
                        f"outcome undefined for admissible grand move {format_grand(grand)} at state {w}"
                    )
        for grand in sorted(set(table) - admissible):
            errors.append(f"inadmissible grand move {format_grand(grand)} at state {w}")
        for grand in sorted(admissible):
            if table[grand] not in state_set:
                errors.append(
                    f"transition {w} --{format_grand(grand)}--> {table[grand]} leaves the state set"
                )
    return errors


def validate_ef(e: Ef) -> list[str]:
    state_set = set(e.states)
    errors = _header_errors(e, state_set)
    for w in sorted(set(e.effectivity) - state_set):
        errors.append(f"effectivity given for unknown state {w}")
    for w, per_state in e.effectivity.items():
        for coalition, family in per_state.items():
            where = f"{format_coalition(coalition)} at state {w}"
            if any(not 1 <= a <= e.agents for a in coalition):
                errors.append(f"unknown agent in coalition {where}")
            if tuple(sorted(set(coalition))) != coalition:
                errors.append(f"coalition not strictly ascending: {where}")
            if not family:
                errors.append(f"empty effectivity family for {where}")
            for u in family:
                if not u:
                    errors.append(f"empty effectivity set in {where}")
                for v in sorted(set(u) - state_set):
                    errors.append(f"effectivity set for {where} mentions unknown state {v}")
    return errors


def _grand_from_text(key: str) -> tuple[int, ...] | None:
    """The grand move a key names, or None if it is not digits joined by
    commas."""
    parts = key.split(",")
    return tuple(int(p) for p in parts) if all(p.isdigit() for p in parts) else None


@functools.lru_cache(maxsize=256)
def _grand_row(keys: tuple[str, ...]) -> tuple[tuple[int, ...], ...] | None:
    """The grand moves a row of key texts names, in row order, or None if a
    key is bad.  Cached, so a row repeated across states, as the rows of
    states with equal move counts are in a keyed file, is parsed once; up to
    256 rows stay cached."""
    grands = tuple(map(_grand_from_text, keys))
    return None if None in grands else grands


@functools.lru_cache(maxsize=256)
def _grand_total(counts: tuple[int, ...] | None, agents: int) -> int | None:
    """How many grand moves a move-count vector admits, or None if there is
    no vector or validate_cgf refuses it; checked once per distinct vector."""
    if counts is None or len(counts) != agents or any(c < 1 for c in counts):
        return None
    return math.prod(counts)


def _exact_row(table: dict, counts, agents: int) -> list | None:
    """The table's targets in rank order, as `_joint_moves(counts, ())` lists
    the grand moves, if the move counts are valid and the table's keys are
    exactly their admissible grand moves; None otherwise.  The one exactness
    rule that checking, reading and writing a frame share."""
    if _grand_total(counts, agents) != len(table):  # also for refused counts, whose total is None
        return None
    try:
        return list(map(table.__getitem__, _joint_moves(counts, ())[0][1]))
    except KeyError:  # a grand move is missing, so another key is inadmissible
        return None


def _transition_table(table, state: str, counts, agents: int, state_set: set) -> tuple[dict, bool]:
    """A state's transitions keyed by grand move, and whether they are exact:
    every admissible grand move once, each to a listed state.

    A flat row lists one target per grand move in lexicographic order; only
    its length and its targets are checked.  A keyed table is parsed key by
    key, in any order, and is exact when `_exact_row` finds it so and every
    target is a state; any other keyed table is left to validate_cgf.  A bad
    key raises ModelError naming it and the state."""
    if type(table) is not list:
        table.items()  # a table that is neither an array nor an object raises AttributeError here
        keys = tuple(table)
        grands = _grand_row(keys)
        if grands is None:
            bad = next(k for k in keys if _grand_from_text(k) is None)
            raise ModelError(f"bad grand move key {bad!r} at state {state}")
        table = dict(zip(grands, map(str, table.values())))
        row = _exact_row(table, counts, agents)
        return table, row is not None and state_set.issuperset(row)
    total = _grand_total(counts, agents)
    if total is None:
        return {}, False  # validate_cgf names the defect of the move counts
    if len(table) != total:
        raise ModelError(f"transition row at state {state}: {len(table)} targets for {total} grand moves")
    grands = _joint_moves(counts, ())[0][1]
    try:
        exact = state_set.issuperset(table)
    except TypeError:  # an unhashable target, such as an array
        exact = False
    return dict(zip(grands, table if exact else map(str, table))), exact


def _parse_coalition_key(key: str, where: str) -> tuple[int, ...]:
    if not (key.startswith("{") and key.endswith("}")):
        raise ModelError(f"bad coalition key {key!r} {where}")
    inner = key[1:-1]
    if not inner:
        return ()
    parts = inner.split(",")
    if not all(p.isdigit() for p in parts):
        raise ModelError(f"bad coalition key {key!r} {where}")
    agents = tuple(int(p) for p in parts)
    if tuple(sorted(set(agents))) != agents:
        raise ModelError(f"coalition key not strictly ascending: {key!r} {where}")
    return agents


def _listed(value) -> list:
    """A JSON array as it is; a string or any other value raises TypeError,
    so that no string is read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value


_JSON_TYPES = {bool: "a boolean", str: "a string", list: "an array", dict: "an object", type(None): "null"}


def _count(value, field: str, *where) -> int:
    """A count read from model JSON: a number with a whole value.  Anything
    else raises ModelError naming the field, `field.format(*where)`, which is
    formatted only then."""
    if type(value) is int:  # not a bool, which subclasses int
        return value
    if type(value) is float:
        try:
            count = int(value)
        except (OverflowError, ValueError) as exc:  # an infinity or a NaN
            why = f": {exc!r}"
        else:
            if count == value:
                return count
            why = f", not {value!r}"
    else:
        why = f", not {_JSON_TYPES[type(value)]}"
    raise ModelError(f"{field.format(*where)} must be a whole number{why}")


_INT = frozenset((int,))


def _move_counts(value, state) -> tuple[int, ...]:
    """A state's move counts; each must be a whole number (see _count)."""
    counts = tuple(_listed(value))
    if _INT.issuperset(map(type, counts)):  # all plain ints, as in a file amc wrote
        return counts
    return tuple(_count(c, '"moves" at state {} for agent {}', state, a) for a, c in enumerate(counts, 1))


def _unique_members(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice in it raises ModelError
    naming the key, where json.loads would keep the last value silently."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ModelError(f"model JSON repeats the key {key!r} in one object")
            seen.add(key)
    return members


def loads_model(text: str) -> Model:
    """Parse a model from JSON text and validate it."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_members)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # the only other error: a number too long for int()
        limit = sys.get_int_max_str_digits()
        raise ModelError(f"not valid JSON: a number has more than {limit:,} digits") from exc
    except RecursionError as exc:
        raise ModelError("JSON nests too deeply") from exc
    if not isinstance(data, dict) or data.get("kind") not in ("cgf", "ef"):
        raise ModelError('model JSON needs "kind": "cgf" or "ef"')
    kind = data["kind"]
    try:
        states = tuple(str(w) for w in _listed(data["states"]))
        agents = _count(data["agents"], '"agents"')
        valuation = {
            str(atom): frozenset(str(w) for w in _listed(holds))
            for atom, holds in data.get("valuation", {}).items()
        }
        initial = data.get("initial")
        if initial is not None:
            initial = str(initial)
        if kind == "cgf":
            move_counts = {str(w): _move_counts(counts, w) for w, counts in data["moves"].items()}
            state_set = set(states)
            transitions = {}
            exact = set()
            for w, table in data["transitions"].items():
                transitions[w], whole = _transition_table(table, w, move_counts.get(w), agents, state_set)
                if whole:
                    exact.add(w)
            model: Model = Cgf(states, agents, move_counts, transitions, valuation, initial)
            errors = validate_cgf(model, exact)
        else:
            effectivity = {
                str(w): {
                    _parse_coalition_key(k, f"at state {w}"): canonical_family(
                        frozenset(str(v) for v in _listed(u)) for u in _listed(family)
                    )
                    for k, family in per_state.items()
                }
                for w, per_state in data["effectivity"].items()
            }
            model = Ef(states, agents, effectivity, valuation, initial)
            errors = validate_ef(model)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed model JSON: {exc!r}") from exc
    if errors:
        raise ModelError("\n".join(errors))
    return model


def read_text(path) -> str:
    """An input file's text; a file that is not UTF-8 raises AmcError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AmcError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def load_model(path) -> Model:
    return loads_model(read_text(path))


def _table_json(table: dict, counts, agents: int) -> list[str] | dict[str, str]:
    """A state's transitions as the file holds them.  A table of exactly the
    admissible grand moves is a flat row of targets in lexicographic order
    of its grand moves; any other table, also one at a state without move
    counts, is keyed in sorted grand-move order, so the file keeps its defect."""
    row = _exact_row(table, counts, agents)
    if row is not None:
        return row
    return {format_grand(grand): table[grand] for grand in sorted(table)}


def model_to_json(model: Model) -> str:
    """Deterministic serialization: fixed key order, sorted sets, newline end."""
    obj: dict = {"kind": model.kind, "agents": model.agents, "states": list(model.states)}
    if model.initial is not None:
        obj["initial"] = model.initial
    obj["valuation"] = {
        atom: sorted(model.valuation[atom]) for atom in sorted(model.valuation)
    }
    if isinstance(model, Cgf):
        counts = model.move_counts
        obj["moves"] = {w: list(counts[w]) for w in model.states if w in counts}
        obj["transitions"] = {
            w: _table_json(model.transitions.get(w, {}), counts.get(w), model.agents) for w in model.states
        }
    else:
        obj["effectivity"] = {
            w: {
                format_coalition(coalition): [sorted(u) for u in family]
                for coalition, family in sorted(
                    model.effectivity.get(w, {}).items(), key=lambda kv: (len(kv[0]), kv[0])
                )
            }
            for w in model.states
        }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def save_model(model: Model, path) -> None:
    Path(path).write_text(model_to_json(model))
