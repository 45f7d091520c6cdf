"""Release checklist: eight end-to-end guarantees, one test per guarantee.

Each test prints a single line

    ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>s, budget <b>s)

and fails if the guarantee is violated or the time budget is exceeded.  Run
`pytest -s tests/test_acceptance.py` to see the lines as they appear.
"""

import contextlib
import math
import random
import statistics
import time

import pytest

from amcheck import (
    build_closure,
    build_game_cgf,
    brute_force_solve,
    convert,
    fixpoint_verdicts,
    gen_castle,
    gen_modulo,
    gen_random_cgf,
    gen_random_formula,
    game_verdicts,
    induced_effectivity,
    minimize,
    one_step_cgf,
    one_step_ef,
    parse_formula,
    prop_step,
    validate_cgf,
    zielonka_solve,
)

from helpers import all_engine_verdicts, random_parity_game


@contextlib.contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num} {name}: FAIL ({elapsed:.2f}s, budget {budget:g}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"{name} exceeded its {budget:g}s budget at {elapsed:.2f}s"


def fam(*sets):
    return tuple(frozenset(s) for s in sets)


# Hand-computed from the fixture's transition table at w1: grand moves with
# agent choices (1,1,*), (1,2,1), (2,1,1), (2,2,1) lead to w2, the rest to w3.
W1_UNMINIMIZED = {
    (): fam({"w2", "w3"}),
    (1,): fam({"w2", "w3"}),
    (2,): fam({"w2", "w3"}),
    (3,): fam({"w2"}, {"w2", "w3"}),
    (1, 2): fam({"w2"}, {"w2", "w3"}),
    (1, 3): fam({"w2"}, {"w3"}, {"w2", "w3"}),
    (2, 3): fam({"w2"}, {"w3"}, {"w2", "w3"}),
    (1, 2, 3): fam({"w2"}, {"w3"}),
}
W1_MINIMIZED = {
    (): fam({"w2", "w3"}),
    (1,): fam({"w2", "w3"}),
    (2,): fam({"w2", "w3"}),
    (3,): fam({"w2"}),
    (1, 2): fam({"w2"}),
    (1, 3): fam({"w2"}, {"w3"}),
    (2, 3): fam({"w2"}, {"w3"}),
    (1, 2, 3): fam({"w2"}, {"w3"}),
}


def test_1_golden_conversion(smallgame):
    with criterion(1, "golden-conversion", 1.0):
        plain = induced_effectivity(smallgame)
        minimal = minimize(plain)
        assert plain.effectivity["w1"] == W1_UNMINIMIZED
        assert minimal.effectivity["w1"] == W1_MINIMIZED
        for e in (plain, minimal):
            absorbing = fam({"w2"})
            assert all(u == absorbing for u in e.effectivity["w2"].values())
            assert all(u == fam({"w3"}) for u in e.effectivity["w3"].values())


@pytest.fixture(scope="module")
def differential_pairs():
    """Seeded random model/formula pairs shared by the agreement and the game
    size guarantees: 10 states, 3 agents, 2 moves, 4 atoms, formulas of up to
    12 connectives with fixpoint nesting capped at 3."""
    atoms = ("p1", "p2", "p3", "p4")
    rng = random.Random(20240)
    pairs = []
    for _ in range(200):
        model_seed = rng.randrange(2**32)
        formula_seed = rng.randrange(2**32)
        size = rng.randint(0, 12)
        model = gen_random_cgf(10, 3, 2, atoms, model_seed)
        formula = gen_random_formula(size, 3, atoms, formula_seed, max_fixpoint_depth=3)
        pairs.append((model, formula))
    return pairs


def test_2_engine_agreement(differential_pairs):
    with criterion(2, "engine-agreement", 300.0):
        assert len(differential_pairs) >= 200
        for model, formula in differential_pairs:
            first, *rest = all_engine_verdicts(model, formula)
            assert set(first) == set(model.states)
            for other in rest:
                assert other == first


def test_3_solver_oracle():
    with criterion(3, "solver-oracle", 10.0):
        rng = random.Random(4173)
        for _ in range(100):
            game = random_parity_game(rng, max_positions=8, max_priority=3)
            assert zielonka_solve(game).winners == brute_force_solve(game).winners


def test_4_step_monotonicity(smallgame, smallgame_min_ef):
    with criterion(4, "step-monotonicity", 30.0):
        closure = build_closure(parse_formula("mu X. (p & <{3}> X) | [{1,2}] X"))
        universe = [(w, nid) for w in smallgame.states for nid in range(len(closure.nodes))]
        rng = random.Random(515)
        steps = (
            lambda vec: prop_step(smallgame, closure, smallgame.states, vec),
            lambda vec: one_step_cgf(smallgame, closure, smallgame.states, vec),
            lambda vec: one_step_ef(smallgame_min_ef, closure, smallgame_min_ef.states, vec),
        )
        for step in steps:
            for _ in range(1000):
                lo_vec = [set() for _ in range(closure.max_priority + 1)]
                hi_vec = [set() for _ in range(closure.max_priority + 1)]
                for level in range(len(lo_vec)):
                    lo = {pair for pair in universe if rng.random() < 0.3}
                    hi = lo | {pair for pair in universe if rng.random() < 0.3}
                    lo_vec[level], hi_vec[level] = lo, hi
                assert step(lo_vec) <= step(hi_vec)


def test_5_game_size_bound(differential_pairs):
    with criterion(5, "game-size-bound", 60.0):
        for model, formula in differential_pairs:
            closure = build_closure(formula)
            game, _ = build_game_cgf(model, closure)
            grand = max(math.prod(model.move_counts[w]) for w in model.states)
            assert len(game) <= len(model.states) * len(closure) * (grand + 1)


def _growth(verdicts, small, large, rounds=21, reps=10):
    """How many times longer checking takes on the large model than on the
    small one: the median ratio over interleaved rounds.  Each round times
    `reps` repetitions of checking every closure at the initial state on the
    small model, then on the large one, back to back, so drift in host speed
    between rounds cancels out of each round's ratio.  One untimed warmup per
    model settles caches first."""

    def seconds(model, closures):
        state = [model.initial]
        start = time.perf_counter()
        for _ in range(reps):
            for closure in closures:
                verdicts(model, closure, states=state)
        return time.perf_counter() - start

    seconds(*small)
    seconds(*large)
    ratios = []
    for _ in range(rounds):
        base = seconds(*small)
        ratios.append(seconds(*large) / base)
    return statistics.median(ratios)


def test_6_effectivity_scaling():
    with criterion(6, "effectivity-scaling", 120.0):
        cgf = {}
        ef = {}
        for moves in (2, 10):
            model, formulas = gen_modulo(2, moves, 10)
            closures = [
                build_closure(f) for name, f in formulas if name.startswith("reach")
            ]
            reduced, _ = convert(model, minimize_families=True)
            cgf[moves] = (model, closures)
            ef[moves] = (reduced, closures)
        cgf_growth = _growth(fixpoint_verdicts, cgf[2], cgf[10])
        ef_growth = _growth(fixpoint_verdicts, ef[2], ef[10])
        assert cgf_growth >= 4, cgf_growth
        assert ef_growth <= 2, ef_growth


def test_7_conversion_growth():
    with criterion(7, "conversion-growth", 120.0):
        for agents in (2, 3):
            models = [gen_modulo(agents, moves, 10)[0] for moves in range(2, 9)]
            # 7 interleaved rounds, each timing moves 2..8 once, so drift in
            # host speed reaches every size alike; then the minimum per size
            rounds = [
                [convert(model, minimize_families=True)[1] for model in models]
                for _ in range(7)
            ]
            series = [min(times) for times in zip(*rounds)]
            inversions = sum(
                1 for a, b in zip(series, series[1:]) if b < a
            )
            assert inversions <= 1, (agents, series)


def test_8_castle_consistency():
    with criterion(8, "castle-consistency", 60.0):
        model, formulas = gen_castle(2, 1)
        assert len(model.states) == 16
        validate_cgf(model)
        suite = dict(formulas)
        for name in ("survive-a1", "survive-a2", "victory-c1", "victory-c2"):
            closure = build_closure(suite[name])
            at_initial = [model.initial]
            answers = {game_verdicts(model, closure, states=at_initial)[model.initial]}
            answers.add(fixpoint_verdicts(model, closure, states=at_initial)[model.initial])
            for minimized in (False, True):
                reduced, _ = convert(model, minimize_families=minimized)
                answers.add(game_verdicts(reduced, closure, states=at_initial)[model.initial])
                answers.add(
                    fixpoint_verdicts(reduced, closure, states=at_initial)[model.initial]
                )
            assert len(answers) == 1, (name, answers)
