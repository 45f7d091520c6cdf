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

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .errors import ModelError


@dataclass
class Cgf:
    states: tuple[str, ...]
    agents: int
    move_counts: dict[str, tuple[int, ...]]
    transitions: dict[str, dict[tuple[int, ...], str]]
    valuation: dict[str, frozenset[str]]
    initial: str | None = None

    kind = "cgf"

    def atom_states(self, name: str) -> frozenset[str]:
        """Extension of an atom; unlisted atoms denote the empty set."""
        return self.valuation.get(name, frozenset())

    def moves(self, state: str, agent: int) -> int:
        if state not in self.move_counts:
            raise ModelError(f"unknown state {state}")
        if not 1 <= agent <= self.agents:
            raise ModelError(f"unknown agent {agent}")
        return self.move_counts[state][agent - 1]

    def grand_moves(self, state: str):
        counts = self.move_counts[state]
        return itertools.product(*(range(1, c + 1) for c in counts))

    def groups(self, state: str, coalition) -> list[tuple[tuple[int, ...], list[str]]]:
        """What the coalition can force at a state: one (joint move, reached
        states) pair per joint move of the coalition, in lexicographic order.
        The reached states list the outcome of every completion by the other
        agents, also in lexicographic order, so repeats are kept.

        One lexicographic walk over the grand moves meets the coalition's
        joint moves in lexicographic order, whatever the table's own order.
        """
        if state not in self.move_counts:
            raise ModelError(f"unknown state {state}")
        members = _members(coalition, self.agents)
        table = self.transitions[state]
        ranges = [range(1, c + 1) for c in self.move_counts[state]]
        project = itemgetter(*(a - 1 for a in members)) if members else lambda grand: ()
        reached: dict = {}
        for grand in itertools.product(*ranges):
            reached.setdefault(project(grand), []).append(table[grand])
        joint_moves = itertools.product(*(ranges[a - 1] for a in members))
        return list(zip(joint_moves, reached.values()))


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
        because sparse frames only answer for the coalitions they list."""
        if state not in self.effectivity:
            raise ModelError(f"unknown state {state}")
        per_state = self.effectivity[state]
        if coalition not in per_state:
            raise ModelError(
                f"no effectivity entry for coalition {format_coalition_key(coalition)} at state {state}"
            )
        return per_state[coalition]

    def groups(self, state: str, coalition) -> list[tuple[frozenset[str], list[str]]]:
        """What the coalition can force at a state: one (set, sorted states)
        pair per listed effectivity set, in family order."""
        members = _members(coalition, self.agents)
        return [(u, sorted(u)) for u in self.family(state, members)]


Model = Cgf | Ef


def _members(coalition, agents: int) -> tuple[int, ...]:
    """The coalition as a strictly ascending tuple of known agents."""
    members = tuple(sorted(set(coalition)))
    for a in members:
        if not 1 <= a <= agents:
            raise ModelError(f"unknown agent {a}")
    return members


def outcome(g: Cgf, state: str, grand: tuple[int, ...]) -> str:
    if state not in g.transitions:
        raise ModelError(f"unknown state {state}")
    table = g.transitions[state]
    if grand not in table:
        raise ModelError(
            f"inadmissible grand move {format_grand(grand)} at state {state}"
        )
    return table[grand]


def format_grand(grand: tuple[int, ...]) -> str:
    return ",".join(str(m) for m in grand)


def format_coalition_key(coalition: tuple[int, ...]) -> str:
    return "{" + ",".join(str(a) for a in coalition) + "}"


def canonical_family(sets) -> tuple[frozenset[str], ...]:
    """Deduplicate and order a family by set size, then lexicographically on
    the sorted state ids."""
    unique = {frozenset(u) for u in sets}
    return tuple(sorted(unique, key=lambda u: (len(u), sorted(u))))


def validate_cgf(g: Cgf) -> list[str]:
    """All structural defects, each with its location; empty means valid."""
    errors: list[str] = []
    if g.agents < 1:
        errors.append(f"agent count must be at least 1, got {g.agents}")
    if not g.states:
        errors.append("state set is empty")
    if len(set(g.states)) != len(g.states):
        errors.append("duplicate state ids")
    state_set = set(g.states)
    if g.initial is not None and g.initial not in state_set:
        errors.append(f"initial state {g.initial} is not a state")
    for atom, holds in g.valuation.items():
        for w in sorted(set(holds) - state_set):
            errors.append(f"valuation of {atom} mentions unknown state {w}")
    for w in g.states:
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
    for w in set(g.move_counts) - state_set:
        errors.append(f"move counts given for unknown state {w}")
    for w in set(g.transitions) - state_set:
        errors.append(f"transitions given for unknown state {w}")
    for w in g.states:
        counts = g.move_counts.get(w)
        if counts is None or len(counts) != g.agents or any(c < 1 for c in counts):
            continue
        table = g.transitions.get(w, {})
        admissible = set(itertools.product(*(range(1, c + 1) for c in counts)))
        for grand in sorted(admissible - set(table)):
            errors.append(
                f"outcome undefined for admissible grand move {format_grand(grand)} at state {w}"
            )
        for grand in sorted(set(table) - admissible):
            errors.append(f"inadmissible grand move {format_grand(grand)} at state {w}")
        for grand in sorted(set(table) & admissible):
            if table[grand] not in state_set:
                errors.append(
                    f"transition {w} --{format_grand(grand)}--> {table[grand]} leaves the state set"
                )
    return errors


def validate_ef(e: Ef) -> list[str]:
    errors: list[str] = []
    if e.agents < 1:
        errors.append(f"agent count must be at least 1, got {e.agents}")
    if not e.states:
        errors.append("state set is empty")
    if len(set(e.states)) != len(e.states):
        errors.append("duplicate state ids")
    state_set = set(e.states)
    if e.initial is not None and e.initial not in state_set:
        errors.append(f"initial state {e.initial} is not a state")
    for atom, holds in e.valuation.items():
        for w in sorted(set(holds) - state_set):
            errors.append(f"valuation of {atom} mentions unknown state {w}")
    for w in set(e.effectivity) - state_set:
        errors.append(f"effectivity given for unknown state {w}")
    for w, per_state in e.effectivity.items():
        for coalition, family in per_state.items():
            where = f"{format_coalition_key(coalition)} at state {w}"
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


def _parse_grand_key(key: str, where: str) -> tuple[int, ...]:
    parts = key.split(",")
    if not all(p.isdigit() for p in parts):
        raise ModelError(f"bad grand move key {key!r} {where}")
    return tuple(int(p) for p in parts)


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


def loads_model(text: str) -> Model:
    """Parse a model from JSON text and validate it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") not in ("cgf", "ef"):
        raise ModelError('model JSON needs "kind": "cgf" or "ef"')
    kind = data["kind"]
    try:
        states = tuple(str(w) for w in data["states"])
        agents = int(data["agents"])
        valuation = {
            str(atom): frozenset(str(w) for w in holds)
            for atom, holds in data.get("valuation", {}).items()
        }
        initial = data.get("initial")
        if initial is not None:
            initial = str(initial)
        if kind == "cgf":
            move_counts = {
                str(w): tuple(int(c) for c in counts)
                for w, counts in data["moves"].items()
            }
            transitions = {
                str(w): {
                    _parse_grand_key(k, f"at state {w}"): str(v)
                    for k, v in table.items()
                }
                for w, table in data["transitions"].items()
            }
            model: Model = Cgf(states, agents, move_counts, transitions, valuation, initial)
            errors = validate_cgf(model)
        else:
            effectivity = {
                str(w): {
                    _parse_coalition_key(k, f"at state {w}"): canonical_family(
                        frozenset(str(v) for v in u) for u in family
                    )
                    for k, family in per_state.items()
                }
                for w, per_state in data["effectivity"].items()
            }
            model = Ef(states, agents, effectivity, valuation, initial)
            errors = validate_ef(model)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model JSON: {exc!r}") from exc
    if errors:
        raise ModelError("\n".join(errors))
    return model


def load_model(path) -> Model:
    return loads_model(Path(path).read_text())


def model_to_json(model: Model) -> str:
    """Deterministic serialization: fixed key order, sorted sets, newline end."""
    obj: dict = {"kind": model.kind, "agents": model.agents, "states": list(model.states)}
    if model.initial is not None:
        obj["initial"] = model.initial
    obj["valuation"] = {
        atom: sorted(model.valuation[atom]) for atom in sorted(model.valuation)
    }
    if isinstance(model, Cgf):
        obj["moves"] = {w: list(model.move_counts[w]) for w in model.states}
        obj["transitions"] = {
            w: {
                format_grand(grand): model.transitions[w][grand]
                for grand in sorted(model.transitions.get(w, {}))
            }
            for w in model.states
        }
    else:
        obj["effectivity"] = {
            w: {
                format_coalition_key(coalition): [sorted(u) for u in family]
                for coalition, family in sorted(
                    model.effectivity.get(w, {}).items(), key=lambda kv: (len(kv[0]), kv[0])
                )
            }
            for w in model.states
        }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def save_model(model: Model, path) -> None:
    Path(path).write_text(model_to_json(model))
