"""Metamorphic verdict properties: every engine route gives the same verdicts
on an isomorphic copy of a frame (perfbench's `isomorphic_copy`, which
renames the states and permutes each agent's move ids), and on frames
written with `model_to_json` and read back with `loads_model`."""

import random

import pytest

from helpers import load_perfbench
from amcheck import build_closure, convert, fixpoint_verdicts, game_verdicts
from amcheck.benchgen import gen_random_cgf, gen_random_formula
from amcheck.model import loads_model, model_to_json

ATOMS = ("p", "q")


def route_verdicts(model, closure, reread=lambda frame: frame) -> dict:
    """Verdict maps of the four routes: both engines on the game frame and on
    its effectivity frame, each frame passed through `reread` first."""
    cgf = reread(model)
    ef = reread(convert(model))
    return {
        "cgf-game": game_verdicts(cgf, closure),
        "cgf-local": fixpoint_verdicts(cgf, closure),
        "ef-game": game_verdicts(ef, closure),
        "ef-local": fixpoint_verdicts(ef, closure),
    }


SEEDS = range(40)


def case(seed: int):
    """A seeded random frame, 2 or 3 agents, and a random formula's closure."""
    agents = 2 + seed % 2
    model = gen_random_cgf(6, agents, 2, ATOMS, seed=seed)
    formula = gen_random_formula(4 + seed % 9, agents, ATOMS, seed=seed + 300)
    return model, build_closure(formula)


def test_cases_use_both_modalities():
    kinds = {node.kind for seed in SEEDS for node in case(seed)[1].nodes}
    assert {"enforce", "allows"} <= kinds


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_are_invariant(seed):
    model, closure = case(seed)
    verdicts = route_verdicts(model, closure)
    first = verdicts["cgf-game"]
    assert all(v == first for v in verdicts.values())
    copy, rename = load_perfbench("workloads").isomorphic_copy(model, random.Random(seed))
    for route, copied in route_verdicts(copy, closure).items():
        assert copied == {rename[w]: holds for w, holds in first.items()}, route
    reread = route_verdicts(model, closure, lambda frame: loads_model(model_to_json(frame)))
    assert reread == verdicts
