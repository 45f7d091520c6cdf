"""Parity game construction, solving, and the PGSolver text format."""

import gc
import hashlib
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcheck.formula
import amcheck.mcgame
from helpers import brute_force_solve, random_parity_game, strategy_defects
from amcheck import build_closure, convert, fixpoint_verdicts, gen_castle, gen_modulo, parse_formula
from amcheck.benchgen import gen_random_cgf, gen_random_formula
from amcheck.errors import CheckTimeout, ModelError
from amcheck.timing import Deadline
from amcheck.mcgame import (
    EXISTS,
    FORALL,
    ParityGame,
    build_game,
    export_pgsolver,
    game_verdicts,
    import_pgsolver,
    zielonka_solve,
)


def make_game(rows):
    owners, priorities, successors, labels = zip(*rows)
    return ParityGame(tuple(owners), tuple(priorities), tuple(successors), tuple(labels))


class TestBuildCgf:
    def test_enforce_structure(self, smallgame):
        closure = build_closure(parse_formula("[{1,3}] q"))
        game, roots = build_game(smallgame, closure, states=["w1"])
        root = roots["w1"]
        assert game.owners[root] == EXISTS
        assert game.priorities[root] == 0
        assert game.labels[root] == "w1,[{1,3}] q"
        # one move position per joint move of {1,3}
        assert len(game.successors[root]) == 4

    def test_move_positions_dedup_targets(self, smallgame):
        closure = build_closure(parse_formula("[{1,3}] q"))
        game, roots = build_game(smallgame, closure, states=["w1"])
        by_label = {game.labels[v]: v for v in range(len(game))}
        m11 = by_label["w1,[{1,3}] q,(1,1)"]
        m12 = by_label["w1,[{1,3}] q,(1,2)"]
        assert game.owners[m11] == FORALL
        # both completions lead to w2, so the row collapses to one successor
        assert len(game.successors[m11]) == 1
        assert len(game.successors[m12]) == 2

    def test_atom_positions(self, smallgame):
        closure = build_closure(parse_formula("[{1,3}] q"))
        game, _ = build_game(smallgame, closure)
        by_label = {game.labels[v]: v for v in range(len(game))}
        holds = by_label["w3,q"]
        fails = by_label["w2,q"]
        assert game.successors[holds] == (holds,)
        assert game.priorities[holds] == 0
        assert game.successors[fails] == ()
        assert game.owners[fails] == EXISTS

    def test_negatom_positions(self, smallgame):
        closure = build_closure(parse_formula("~q"))
        game, roots = build_game(smallgame, closure)
        v3 = roots["w3"]
        v2 = roots["w2"]
        assert game.owners[v3] == FORALL
        assert game.successors[v3] == (v3,)
        assert game.priorities[v3] == 1
        assert game.successors[v2] == ()

    def test_allows_flips_owners(self, smallgame):
        closure = build_closure(parse_formula("<{1,3}> q"))
        game, roots = build_game(smallgame, closure, states=["w1"])
        root = roots["w1"]
        assert game.owners[root] == FORALL
        move = game.successors[root][0]
        assert game.owners[move] == EXISTS

    def test_fixpoint_priority_on_binder_position(self, smallgame):
        closure = build_closure(parse_formula("mu X. q | [{1,3}] X"))
        game, roots = build_game(smallgame, closure, states=["w1"])
        assert game.priorities[roots["w1"]] == 1
        assert game.owners[roots["w1"]] == EXISTS

    def test_size_bound(self, smallgame):
        closure = build_closure(parse_formula("mu X. q | [{1,3}] X"))
        game, _ = build_game(smallgame, closure)
        assert len(game) <= 3 * len(closure) * (8 + 1)

    def test_verdicts(self, smallgame):
        closure = build_closure(parse_formula("[{1,3}] q"))
        assert game_verdicts(smallgame, closure) == {"w1": True, "w2": False, "w3": True}

    def test_check_single_state(self, smallgame):
        assert game_verdicts(smallgame, build_closure(parse_formula("[{1,3}] q")), ["w1"])["w1"] is True
        assert game_verdicts(smallgame, build_closure(parse_formula("[{1,2}] q")), ["w1"])["w1"] is False

    def test_rejects_non_model(self):
        with pytest.raises(ModelError, match="not a model"):
            game_verdicts("nonsense", build_closure(parse_formula("p")))


class TestBuildEf:
    def test_enforce_branches_on_family(self, smallgame_min_ef):
        closure = build_closure(parse_formula("[{1,3}] q"))
        game, roots = build_game(smallgame_min_ef, closure, states=["w1"])
        root = roots["w1"]
        # minimized family at w1 for {1,3} is {{w2},{w3}}
        assert len(game.successors[root]) == 2
        labels = {game.labels[u] for u in game.successors[root]}
        assert labels == {"w1,[{1,3}] q,{w2}", "w1,[{1,3}] q,{w3}"}
        for u in game.successors[root]:
            assert game.owners[u] == FORALL

    def test_verdicts_match_cgf_route(self, smallgame, smallgame_min_ef):
        for text in ["[{1,3}] q", "<{2}> p", "mu X. q | [{1,3}] X"]:
            closure = build_closure(parse_formula(text))
            assert game_verdicts(smallgame_min_ef, closure) == game_verdicts(smallgame, closure)

    def test_size_bound(self, smallgame_min_ef):
        closure = build_closure(parse_formula("mu X. q | [{1,3}] X"))
        game, _ = build_game(smallgame_min_ef, closure)
        assert len(game) <= 3 * len(closure) * (2**3 + 1)


# suite -> (generator, its arguments, whether games are built from the
# initial state only rather than from every state)
GAME_SUITES = {
    "castle-n2-h1": (gen_castle, (2, 1), False),
    "castle-n2-h1-initial": (gen_castle, (2, 1), True),
    "modulo-a2-m3": (gen_modulo, (2, 3), False),
    "modulo-a2-m3-initial": (gen_modulo, (2, 3), True),
    # coalition {1}'s joint moves reach some states by several completions,
    # and states reached by one joint move are reached by others too
    "modulo-a3-m2": (gen_modulo, (3, 2), False),
}
# sha256 of the concatenated export_pgsolver texts of a suite's games, one per
# formula in suite order, on the game frame ("cgf") and on its minimized
# effectivity frame over all coalitions ("ef").
GAME_DIGESTS = {
    ("castle-n2-h1", "cgf"): "b0fa01e29257850154528d8d8e7247489ac037e3f9d049901b7a47143d6c8b1f",
    ("castle-n2-h1", "ef"): "91071a40dc488e809b495a6ded0ce0e56563c9a00503a6db247f5bb2c8173c53",
    ("modulo-a2-m3", "cgf"): "2933598cfb6f2be89882923af8881cab07fb8ab47c115f3a3eb0479d3693c846",
    ("modulo-a2-m3", "ef"): "0ff9680ae081513c47ac1d2156fb0d467a63113607063905bf90dda1274b213e",
    ("castle-n2-h1-initial", "cgf"): "68373e48c2b9805b9b901907ee1f0c406378b52f007d6a61044389b069df2478",
    ("castle-n2-h1-initial", "ef"): "11dce22e10ed0538d4969c3ee8574cae7bdd0cff8b5e361e7796ffb2565c3172",
    ("modulo-a2-m3-initial", "cgf"): "99b682af2ad5c541c28085aa7ddfd9042f29cd8e5529ac236b83e483b9a637ba",
    ("modulo-a2-m3-initial", "ef"): "1362eb4e60444a1b21bc8eea714524ada7f0272db9d669e26905fd009976c6de",
    ("modulo-a3-m2", "cgf"): "38eb64a66eb22e92b925e9af5128db9b870e1a121605b1f5855c3bc64497f132",
    ("modulo-a3-m2", "ef"): "2b1e5e141811979b83b39f3c6841bf3119c9648923e76da674d15f6e1d491db8",
}


class TestLabels:
    def test_building_renders_no_text(self, smallgame, smallgame_min_ef, monkeypatch):
        rendered = []
        real = amcheck.formula.format_formula

        def counting(f):
            rendered.append(f)
            return real(f)

        monkeypatch.setattr(amcheck.formula, "format_formula", counting)
        closure = build_closure(parse_formula("mu X. q | [{1,3}] X"))
        game, roots = build_game(smallgame, closure)
        build_game(smallgame_min_ef, closure)
        assert rendered == []
        assert game.labels[roots["w1"]] == "w1,mu X. (q | [{1,3}] X)"
        assert rendered

    @pytest.mark.parametrize("suite,kind", sorted(GAME_DIGESTS))
    def test_built_games_keep_their_text(self, suite, kind):
        generate, args, initial_only = GAME_SUITES[suite]
        frame, formulas = generate(*args)
        model = frame if kind == "cgf" else convert(frame, minimize_families=True)
        states = [model.initial] if initial_only else None
        digest = hashlib.sha256()
        for _, f in formulas:
            digest.update(export_pgsolver(build_game(model, build_closure(f), states)[0]).encode())
        assert digest.hexdigest() == GAME_DIGESTS[suite, kind]

    def test_round_trip_gives_back_built_labels(self, smallgame, smallgame_min_ef):
        closure = build_closure(parse_formula("mu X. q | [{1,3}] X"))
        for model in (smallgame, smallgame_min_ef):
            game, _ = build_game(model, closure)
            assert build_game(model, closure)[0] == game
            imported, _ = import_pgsolver(export_pgsolver(game))
            assert len(game.labels) == len(game)
            assert list(imported.labels) == list(game.labels)


class TestZielonka:
    def test_self_loops(self):
        game = make_game([(EXISTS, 0, (0,), "e0")])
        assert zielonka_solve(game).winners == (EXISTS,)
        game = make_game([(EXISTS, 1, (0,), "e1")])
        assert zielonka_solve(game).winners == (FORALL,)
        game = make_game([(FORALL, 1, (0,), "f1")])
        assert zielonka_solve(game).winners == (FORALL,)
        game = make_game([(FORALL, 0, (0,), "f0")])
        assert zielonka_solve(game).winners == (EXISTS,)

    def test_dead_ends_lose_for_owner(self):
        game = make_game([(EXISTS, 0, (), "stuck-e"), (FORALL, 0, (), "stuck-f")])
        assert zielonka_solve(game).winners == (FORALL, EXISTS)

    def test_two_cycle(self):
        game = make_game([(EXISTS, 1, (1,), "a"), (FORALL, 0, (0,), "b")])
        assert zielonka_solve(game).winners == (FORALL, FORALL)

    def test_choice_matters(self):
        # Exists at 0 must pick the even loop at 2, not the odd loop at 1
        game = make_game(
            [
                (EXISTS, 0, (1, 2), "choice"),
                (EXISTS, 1, (1,), "bad"),
                (EXISTS, 0, (2,), "good"),
            ]
        )
        sol = zielonka_solve(game)
        assert sol.winners == (EXISTS, FORALL, EXISTS)
        assert sol.strategy[0] == 2

    def test_stuck_preprocessing_attracts(self):
        game = make_game([(FORALL, 0, (1,), "push"), (EXISTS, 0, (), "stuck")])
        sol = zielonka_solve(game)
        assert sol.winners == (FORALL, FORALL)
        assert sol.strategy[0] == 1

    def test_escape_next_to_stuck_target(self):
        # position 1 has one edge into the stuck target and one escape; the
        # escape must keep it out of the opponent's region
        game = make_game(
            [
                (EXISTS, 0, (), "stuck"),
                (EXISTS, 0, (0, 2), "escapes"),
                (EXISTS, 0, (2,), "loop"),
            ]
        )
        sol = zielonka_solve(game)
        assert sol.winners == (FORALL, EXISTS, EXISTS)
        assert brute_force_solve(game).winners == sol.winners

    def test_priority_two_cycle(self):
        # cycle seeing 2 as its top priority is good for Exists
        game = make_game([(FORALL, 2, (1,), "hi"), (FORALL, 1, (0,), "lo")])
        assert zielonka_solve(game).winners == (EXISTS, EXISTS)

    def test_differential_against_brute_force(self):
        rng = random.Random(20260814)
        for _ in range(150):
            game = random_parity_game(rng, max_positions=8, max_priority=3)
            sol = zielonka_solve(game)
            assert sol.winners == brute_force_solve(game).winners
            assert strategy_defects(game, sol) == []

    def test_differential_larger_games(self):
        # up to 12 positions and 8 priorities: in 26 of these 150 games some
        # subgame goes round the solver's loop again after an opponent trap
        rng = random.Random(1998)
        for _ in range(150):
            game = random_parity_game(rng, max_positions=12, max_priority=7)
            sol = zielonka_solve(game)
            assert sol.winners == brute_force_solve(game).winners
            assert strategy_defects(game, sol) == []

    def test_many_priorities_keep_recursion_limit(self):
        # position v has priority v and may stay or step down to v - 1;
        # Exists wins everywhere, staying at every even position and stepping
        # down from every odd one (or further, to any even position)
        n = 1500
        game = make_game(
            [(EXISTS, v, (v, v - 1) if v else (0,), str(v)) for v in range(n)]
        )
        limit = sys.getrecursionlimit()
        sol = zielonka_solve(game)
        assert sys.getrecursionlimit() == limit
        assert sol.winners == (EXISTS,) * n
        assert strategy_defects(game, sol) == []

    def test_one_component_nesting_once_per_priority(self):
        # a path v <-> v + 1 with priority v is one strongly connected
        # component, and every nested subgame is one again: the solver nests
        # once per priority.  Forall (odd positions) wins everywhere by always
        # stepping down, so every cycle a play can close tops at an odd position.
        n = 1500
        game = make_game(
            [
                (EXISTS if v % 2 == 0 else FORALL, v, tuple(u for u in (v - 1, v + 1) if 0 <= u < n), str(v))
                for v in range(n)
            ]
        )
        limit = sys.getrecursionlimit()
        sol = zielonka_solve(game)
        assert sys.getrecursionlimit() == limit
        assert sol.winners == (FORALL,) * n
        assert strategy_defects(game, sol) == []

    @staticmethod
    def mixed_chain(n, cyclic):
        """Position v has priority v and may stay or step down to v - 1;
        Forall owns every third position.  Position 0 only stays, or with
        `cyclic` may also jump up to n - 1."""
        rows = []
        for v in range(n):
            succ = (v, v - 1) if v else ((0, n - 1) if cyclic else (0,))
            rows.append((FORALL if v % 3 == 0 else EXISTS, v, succ, str(v)))
        return make_game(rows)

    @pytest.mark.parametrize("n,cyclic", [(1500, False), (800, True)], ids=["chain", "cyclic"])
    def test_mixed_owner_chain_is_fast(self, n, cyclic):
        # every opponent win in a subgame once sent the solver round its loop
        # to re-solve the whole lower chain: 89 s at 1,500 positions and
        # 11 s for the cyclic 800.  The deadline makes the limit hard: the
        # solver polls it and raises CheckTimeout once it has passed.  Since
        # a self-loop counts as a successor won by its priority's parity,
        # finite plays decide every position before the loop runs.
        game = self.mixed_chain(n, cyclic)
        finite = amcheck.mcgame._Finite()
        finite.extend(game.owners, game.priorities, game.successors, len(game))
        assert -1 not in finite.winners
        start = time.perf_counter()
        sol = zielonka_solve(game, Deadline(2.0))
        assert time.perf_counter() - start < 2.0
        assert strategy_defects(game, sol) == []
        if not cyclic:
            # the owner stays where the priority suits it, else steps down
            # if the position below is its own, else loses
            expected = []
            for v in range(n):
                owner = FORALL if v % 3 == 0 else EXISTS
                suits = (v % 2 == 0) == (owner == EXISTS)
                expected.append(owner if suits or (v and expected[v - 1] == owner) else
                                (EXISTS if owner == FORALL else FORALL))
            assert sol.winners == tuple(expected)

    @staticmethod
    def cycle_chain(n, closed):
        """Each block {3k, 3k+1, 3k+2} is a cycle, and 3k also steps down to
        3k - 1.  Position v has priority v; Exists owns v when v // 2 is
        even, Forall otherwise.  With `closed`, 0 also jumps up to n - 1,
        which makes the whole chain one strongly connected component."""
        rows = []
        for v in range(n):
            if v % 3 == 0:
                succ = (v + 1, v - 1) if v else ((1, n - 1) if closed else (1,))
            else:
                succ = (v + 1,) if v % 3 == 1 else (v - 2,)
            rows.append((EXISTS if (v // 2) % 2 == 0 else FORALL, v, succ, str(v)))
        return make_game(rows)

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_chain_of_cycles_is_fast(self, closed):
        # finite plays decide none of these positions, so this is the
        # component split's case: without it the solver takes over 10 s on
        # either variant, and splitting only the whole game, not the nested
        # subgames, still does on the closed one
        game = self.cycle_chain(3000, closed)
        start = time.perf_counter()
        sol = zielonka_solve(game, Deadline(2.0))
        assert time.perf_counter() - start < 2.0
        assert strategy_defects(game, sol) == []

    def test_leaves_no_reference_cycles(self):
        # a solve frees everything it built by reference counting alone, so
        # a run of solves does not hold on to memory until the next collection
        game = random_parity_game(random.Random(5), 300, 9)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            zielonka_solve(game)
            zielonka_solve(self.mixed_chain(300, True))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_strategies_certified_past_oracle_size(self):
        # far past the brute-force oracle's 12 positions, the certificate
        # check alone vouches for winners and strategy together
        rng = random.Random(300)
        for _ in range(100):
            game = random_parity_game(rng, max_positions=300, max_priority=9)
            assert strategy_defects(game, zielonka_solve(game)) == []

    @pytest.mark.parametrize(
        "corrupt,defect",
        [
            ({0: 2}, "Exists loses a cycle with top priority 1 through 2"),
            ({0: 3}, "play leaves the region of Exists along 0->3"),
            ({0: 0}, "Exists has no legal strategy move at its position 0"),
        ],
        ids=["losing-cycle", "leaves-region", "illegal-move"],
    )
    def test_corrupted_strategy_rejected(self, corrupt, defect):
        # Exists wins 0, 1 and 2 by cycling 0->1 (top priority 2); 0->2
        # closes a cycle of top priority 1, and Forall wins 3
        game = make_game(
            [
                (EXISTS, 0, (1, 2, 3), "0"),
                (EXISTS, 2, (0,), "1"),
                (EXISTS, 1, (0,), "2"),
                (EXISTS, 1, (3,), "3"),
            ]
        )
        sol = zielonka_solve(game)
        assert sol.winners == (EXISTS, EXISTS, EXISTS, FORALL)
        assert strategy_defects(game, sol) == []
        sol.strategy.update(corrupt)
        assert strategy_defects(game, sol) == [defect]

    def test_brute_force_size_guard(self):
        game = make_game([(EXISTS, 0, (v,), f"v{v}") for v in range(13)])
        with pytest.raises(ValueError, match="12 positions"):
            brute_force_solve(game)


class PollBudget:
    """A deadline that allows a fixed number of polls, then expires."""

    def __init__(self, polls: int):
        self.left = polls

    def check(self) -> None:
        if not self.left:
            raise CheckTimeout("deadline exceeded")
        self.left -= 1


class TestSolveDeadline:
    def test_solve_polls_the_deadline(self):
        model, formulas = gen_castle(2, 1)
        closure = build_closure(dict(formulas)["victory-c2"])
        budget = PollBudget(121)
        game, _ = build_game(model, closure, deadline=budget)
        assert len(game) == 121 and budget.left == 0  # one poll per position
        # the build uses up the budget, so the solve's first poll expires
        with pytest.raises(CheckTimeout):
            game_verdicts(model, closure, deadline=PollBudget(121))

    def test_generous_deadline_is_harmless(self):
        game = random_parity_game(random.Random(3), 40, 6)
        assert zielonka_solve(game, PollBudget(10**6)) == zielonka_solve(game)


def full_game_winner(model, closure, w) -> bool:
    """The winner of w's root in the whole game, solved with nothing handed
    over from the build."""
    game, roots = build_game(model, closure)
    return zielonka_solve(game).winners[roots[w]] == EXISTS


class CountingSolver:
    """zielonka_solve, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return zielonka_solve(*args)


class TestEarlyStop:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 10))
    def test_single_state_verdicts_match_full_game(self, model_seed, formula_seed, size):
        atoms = ("p", "q")
        frame = gen_random_cgf(5, 2, 2, atoms, model_seed)
        closure = build_closure(gen_random_formula(size, 2, atoms, formula_seed))
        for model in (frame, convert(frame, minimize_families=True)):
            expected = fixpoint_verdicts(model, closure)
            for w in model.states:
                assert game_verdicts(model, closure, [w]) == {w: expected[w]}
                assert full_game_winner(model, closure, w) == expected[w]

    @pytest.mark.parametrize(
        "text,state,solved",
        [
            ("p", "w1", False),  # the root is a dead end its owner loses
            ("q", "w3", False),  # the root loops on itself
            ("mu X. q | [{1,3}] X", "w1", False),  # reached through a modality
            ("nu X. [{1,3}] X", "w1", True),  # only infinite plays: never decided
            ("mu X. [{1,2}] X", "w2", True),
        ],
        ids=["dead-end", "self-loop", "attracted", "infinite-nu", "infinite-mu"],
    )
    def test_roots_decided_by_finite_plays_skip_zielonka(self, smallgame, text, state, solved, monkeypatch):
        closure = build_closure(parse_formula(text))
        solver = CountingSolver()
        monkeypatch.setattr(amcheck.mcgame, "zielonka_solve", solver)
        verdict = game_verdicts(smallgame, closure, [state])
        assert solver.calls == solved
        assert verdict == {state: full_game_winner(smallgame, closure, state)}

    def test_handed_over_solution_is_certified(self):
        # a build that leaves a root open runs to the end and hands the whole
        # game and what finite plays decided in it to the solver
        handed = 0
        for seed in range(40):
            model = gen_random_cgf(12, 2, 2, ("p", "q"), seed)
            closure = build_closure(gen_random_formula(3 + seed % 9, 2, ("p", "q"), seed + 1))
            game, roots, finite = build_game(model, closure, until_decided=True)
            if finite.decided(roots.values()):
                continue
            handed += 1
            assert all(u < len(game) for row in game.successors for u in row)
            solution = zielonka_solve(game, None, finite)
            assert solution.winners == zielonka_solve(game).winners
            assert strategy_defects(game, solution) == []
        assert handed >= 10

    def test_castle_build_stops_before_the_full_game(self, monkeypatch):
        # the smallest castle whose survive-a1 finite plays decide: on two
        # castles agent 1 survives, which only an infinite play shows
        model, formulas = gen_castle(3, 1)
        closure = build_closure(dict(formulas)["survive-a1"])
        full, _ = build_game(model, closure, [model.initial])
        assert all(u < len(full) for row in full.successors for u in row)
        part, roots, finite = build_game(model, closure, [model.initial], until_decided=True)
        assert len(part) < len(full)
        assert finite.decided(roots.values())
        solver = CountingSolver()
        monkeypatch.setattr(amcheck.mcgame, "zielonka_solve", solver)
        verdict = game_verdicts(model, closure, [model.initial])
        assert solver.calls == 0
        assert verdict == {model.initial: full_game_winner(model, closure, model.initial)}

    def test_deadline_fires_in_a_build_that_stops_early(self):
        model, formulas = gen_castle(3, 1)
        closure = build_closure(dict(formulas)["survive-a1"])
        part, _, _ = build_game(model, closure, [model.initial], until_decided=True)
        polls = PollBudget(10**6)
        game_verdicts(model, closure, [model.initial], deadline=polls)
        used = 10**6 - polls.left
        assert len(part) <= used < len(build_game(model, closure, [model.initial])[0])
        game_verdicts(model, closure, [model.initial], deadline=PollBudget(used))
        with pytest.raises(CheckTimeout):
            game_verdicts(model, closure, [model.initial], deadline=PollBudget(used // 2))
        with pytest.raises(CheckTimeout):
            game_verdicts(model, closure, [model.initial], deadline=Deadline(-1.0))


class TestPgsolverFormat:
    def test_export_single_position(self):
        game = make_game([(EXISTS, 0, (0,), "w,p")])
        assert export_pgsolver(game) == 'parity 0;\n0 0 0 0 "w,p";\n'

    def test_export_dead_ends_as_losing_loops(self):
        game = make_game([(EXISTS, 0, (), "stuck-e"), (FORALL, 3, (), "stuck-f")])
        text = export_pgsolver(game)
        assert text.splitlines() == [
            "parity 1;",
            '0 1 0 0 "stuck-e";',
            '1 0 1 1 "stuck-f";',
        ]

    def test_round_trip_preserves_winners(self):
        rng = random.Random(7)
        for _ in range(40):
            game = random_parity_game(rng, max_positions=8, max_priority=3)
            back, ids = import_pgsolver(export_pgsolver(game))
            assert ids == tuple(range(len(game)))
            assert zielonka_solve(back).winners == zielonka_solve(game).winners

    def test_import_sparse_ids(self):
        text = 'parity 7;\n3 0 0 7 "a";\n7 1 1 3,7 "b";\n'
        game, ids = import_pgsolver(text)
        assert ids == (3, 7)
        assert game.successors == ((1,), (0, 1))
        assert game.owners == (EXISTS, FORALL)
        assert game.labels == ("a", "b")

    def test_import_defaults_label_to_id(self):
        game, _ = import_pgsolver("5 2 0 5;\n")
        assert game.labels == ("5",)
        assert game.priorities == (2,)

    def test_import_errors(self):
        with pytest.raises(ModelError, match="unparsable game row"):
            import_pgsolver("0 zero 0 0;\n")
        with pytest.raises(ModelError, match="no positions"):
            import_pgsolver("parity 3;\n")
        with pytest.raises(ModelError, match="duplicate position ids"):
            import_pgsolver('0 0 0 0 "a";\n0 1 1 0 "b";\n')
        with pytest.raises(ModelError, match="points at unknown position"):
            import_pgsolver('0 0 0 0,9 "a";\n')
        with pytest.raises(ModelError, match="^position 1 points at unknown position 9$"):
            import_pgsolver('0 0 0 0;\n1 0 0 0,9,5;\n2 0 0 4;\n')

    # (row, (id, priority, owner, successor ids, label)) for one row placed
    # next to filler rows for the ids 1, 2 and 12 it may point at.
    ACCEPTED_ROWS = [
        ('5 2 1 1,2 "a";', (5, 2, FORALL, (1, 2), "a")),
        ("5 2 0 1;", (5, 2, EXISTS, (1,), "5")),
        ("05 2 0 1;", (5, 2, EXISTS, (1,), "05")),
        ('5 2 0 1 , 2 "a";', (5, 2, EXISTS, (1, 2), "a")),
        ("5 2 0 1 2;", (5, 2, EXISTS, (12,), "5")),  # spaces are dropped
        ("5 2 0 1,\t2;", (5, 2, EXISTS, (1, 2), "5")),
        ("5 2 0 ;", (5, 2, EXISTS, (), "5")),
        ("5 2 0 ,;", (5, 2, EXISTS, (), "5")),
        ('5 2 0 "a";', (5, 2, EXISTS, (), "a")),
        ("5 2 0 1,,2, ;", (5, 2, EXISTS, (1, 2), "5")),
        ("5 2 0 1,\t;", (5, 2, EXISTS, (1,), "5")),
        ("5 2 0 1,1;", (5, 2, EXISTS, (1,), "5")),
        ('5 2 0 1 "a"b";', (5, 2, EXISTS, (1,), 'a"b')),
        ('5 2 0 1 "a" "b";', (5, 2, EXISTS, (1,), 'a" "b')),
        ('5 2 0 1 "a;b";', (5, 2, EXISTS, (1,), "a;b")),
        ('5 2 0 1"a";', (5, 2, EXISTS, (1,), "a")),
        ('5 2 0 1 "";', (5, 2, EXISTS, (1,), "5")),
        ('5 2 0 1 "a"  ;', (5, 2, EXISTS, (1,), "a")),
        ('\t5\t2\t0\t1\t"a"\t;  ', (5, 2, EXISTS, (1,), "a")),
    ]
    REJECTED_ROWS = [
        "5 2 0;",
        '5 2 0"a";',
        "5 2 2 1;",
        "5 2 01 1;",
        "5 -2 0 1;",
        "5 2 0 -1;",
        "5 2 0 1",
        "5 2 0 1;x",
        '5 2 0 1 "a";;',
        '5 2 0 1 "a;',
        '5 2 0 1 "a" x;',
        '5 2 0 1 x "a";',
        "5 2 0 1 x;",
        "5;",
        '"a";',
        "x 2 0 1;",
    ]

    @pytest.mark.parametrize("row, expected", ACCEPTED_ROWS)
    def test_import_accepted_rows(self, row, expected):
        game, ids = import_pgsolver(f"1 0 0 1;\n2 0 0 2;\n12 0 0 12;\n{row}\n")
        v = ids.index(expected[0])
        succ = tuple(ids[u] for u in game.successors[v])
        assert (ids[v], game.priorities[v], game.owners[v], succ, game.labels[v]) == expected

    @pytest.mark.parametrize("row", REJECTED_ROWS)
    def test_import_rejected_rows(self, row):
        with pytest.raises(ModelError, match="unparsable game row"):
            import_pgsolver(f"1 0 0 1;\n{row}\n")

    def test_import_drops_every_blank_in_successors(self):
        # a tab reads like a space, and no blank escapes as a ValueError
        game, ids = import_pgsolver("12 0 0 1\t2,\t,12;\n")
        assert ids == (12,)
        assert game.successors == ((0,),)

    def test_import_malformed_row_fails_fast(self):
        row = "0 0 0 1" + " " * 2000 + "x;"
        start = time.perf_counter()
        with pytest.raises(ModelError, match="unparsable game row"):
            import_pgsolver(row + "\n")
        assert time.perf_counter() - start < 0.5
