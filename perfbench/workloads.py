"""Workload definitions: fixed instance suites, seeded isomorphic copies, set-up.

Every workload is a fixed suite of instances drawn from the ``amcheck.benchgen``
library with explicit generator seeds.  The run seed does not redraw the
instances: it draws an isomorphic copy of every frame (state ids permuted
among the states, states listed in a new order, each agent's move ids
permuted at every state).  Verdicts are invariant under such a copy, so one
committed reference table (``expected.json``, keyed by the original state ids)
checks every seed, and the work each query does stays the same from seed to
seed.  Redrawing the random frames per seed instead makes the nested-fixpoint
cost of a single frame range from 0.5 s to 26 s, a spread no regression bound
can absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from amcheck.benchgen import gen_castle, gen_modulo, gen_random_cgf
from amcheck.formula import And, Atom, Enforce, Mu, Nu, Or, Var, build_closure, format_formula
from amcheck.mcgame import build_game_cgf, export_pgsolver
from amcheck.model import Cgf, save_model

ENGINES = ("cgf-game", "cgf-local", "ef-game", "ef-local")
WORKLOADS = ("castle", "modulo", "ladder", "parity")
DEFAULT_SEED = 1

CASTLE = dict(castles=4, hp=2, formulas=("survive-a1", "victory-c1", "victory-c4"))
MODULO = dict(sweeps=((2, range(2, 11)), (3, range(2, 7))), base=10)
LADDER = dict(frames=(1, 2), states=34, priorities=(2, 4, 6), atoms=7)
PARITY = dict(frames=(1, 2, 3, 4), states=150, priorities=(8, 10, 12))


def ladder_formula(d: int):
    """``nu Xd. mu Xd-1. ... nu X0. (p0 & [{1}] X0) | ... | (pd & [{1}] Xd)``:
    a parity condition over the atoms, one fixpoint level per priority."""
    body = None
    for i in range(d + 1):
        term = And(Atom(f"p{i}"), Enforce((1,), Var(f"X{i}")))
        body = term if body is None else Or(body, term)
    for i in range(d + 1):
        body = (Nu if i % 2 == 0 else Mu)(f"X{i}", body)
    return body


@dataclass
class Instance:
    """One frame with the formulas asked of it, before any relabelling.
    ``initial_only`` queries the marked initial state, otherwise every state."""

    key: str
    frame: Cgf
    formulas: list  # (name, Formula)
    initial_only: bool


def instances(workload: str) -> list[Instance]:
    """The workload's fixed suite, in query order."""
    if workload == "castle":
        frame, suite = gen_castle(CASTLE["castles"], CASTLE["hp"])
        chosen = [(n, f) for n, f in suite if n in CASTLE["formulas"]]
        return [Instance("castle", frame, chosen, True)]
    if workload == "modulo":
        out = []
        for agents, moves_range in MODULO["sweeps"]:
            for moves in moves_range:
                frame, suite = gen_modulo(agents, moves, MODULO["base"])
                out.append(Instance(f"a{agents}-m{moves}", frame, suite, True))
        return out
    if workload == "ladder":
        atoms = [f"p{i}" for i in range(LADDER["atoms"])]
        formulas = [(f"d{d}", ladder_formula(d)) for d in LADDER["priorities"]]
        return [
            Instance(f"f{s}", gen_random_cgf(LADDER["states"], 2, 2, atoms, s), formulas, False)
            for s in LADDER["frames"]
        ]
    if workload == "parity":
        top = max(PARITY["priorities"])
        atoms = [f"p{i}" for i in range(top + 1)]
        formulas = [(f"d{d}", ladder_formula(d)) for d in PARITY["priorities"]]
        return [
            Instance(f"f{s}", gen_random_cgf(PARITY["states"], 2, 2, atoms, s), formulas, False)
            for s in PARITY["frames"]
        ]
    raise ValueError(f"unknown workload {workload!r}")


def isomorphic_copy(g: Cgf, rng: random.Random) -> tuple[Cgf, dict[str, str]]:
    """Seeded isomorphic copy of a frame, and the map from old to new ids."""
    names = list(g.states)
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    order = [rename[w] for w in names]
    rng.shuffle(order)
    move_counts = {}
    transitions = {}
    for w in names:
        counts = g.move_counts[w]
        perms = []
        for c in counts:
            ids = list(range(1, c + 1))
            rng.shuffle(ids)
            perms.append(ids)
        move_counts[rename[w]] = counts
        transitions[rename[w]] = {
            tuple(perm[m - 1] for perm, m in zip(perms, grand)): rename[target]
            for grand, target in g.transitions[w].items()
        }
    valuation = {atom: frozenset(rename[w] for w in holds) for atom, holds in g.valuation.items()}
    initial = None if g.initial is None else rename[g.initial]
    return Cgf(tuple(order), g.agents, move_counts, transitions, valuation, initial), rename


@dataclass
class Query:
    qid: str
    case: str  # queries of one case must print the same verdicts
    engine: str
    argv: list[str]
    expected: str  # exact stdout the query must print


@dataclass
class Setup:
    queries: list[Query] = field(default_factory=list)
    # parity only: per game file, the root position of every state and the
    # expected verdict per state, used by the untimed certificate check.
    games: list[dict] = field(default_factory=list)


def _check_argv(model: Path, formula: Path, engine: str, initial_only: bool) -> list[str]:
    argv = ["check", "--model", str(model), "--formula", str(formula), "--engine", engine]
    if engine.startswith("ef"):
        argv += ["--convert", "--minimize"]
    if initial_only:
        argv += ["--state", "initial"]
    return argv


def _verdict_lines(states, truths) -> str:
    return "".join(f"{w}\t{'true' if w in truths else 'false'}\n" for w in states)


def set_up(workload: str, seed: int, work: Path, table: dict) -> Setup:
    """Generate the workload for this seed and write its files under work.

    ``table`` is the committed reference for the workload; the expected
    output of each query is derived from it through the seed's relabelling.
    """
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    setup = Setup()
    for inst in instances(workload):
        frame, rename = isomorphic_copy(inst.frame, rng)
        model_path = work / f"{inst.key}.cgf.json"
        save_model(frame, model_path)
        states = [frame.initial] if inst.initial_only else list(frame.states)
        for name, formula in inst.formulas:
            case = f"{inst.key}/{name}"
            if inst.initial_only:
                truths = {frame.initial} if table[case] else set()
            else:
                truths = {rename[w] for w in table[case]}
            if workload == "parity":
                closure = build_closure(formula)
                game, roots = build_game_cgf(frame, closure)
                game_path = work / f"{inst.key}-{name}.pg"
                game_path.write_text(export_pgsolver(game))
                setup.games.append(dict(case=case, path=game_path, roots=roots, truths=truths))
                setup.queries.append(Query(case, case, "solve-game", ["solve-game", "--in", str(game_path)], ""))
                continue
            formula_path = work / f"{inst.key}-{name}.amc"
            formula_path.write_text(format_formula(formula) + "\n")
            expected = _verdict_lines(states, truths)
            for engine in ENGINES:
                argv = _check_argv(model_path, formula_path, engine, inst.initial_only)
                setup.queries.append(Query(f"{case}/{engine}", case, engine, argv, expected))
    return setup
