"""Parity game construction, solving, and the PGSolver text format."""

import hashlib
import random
import sys
import time

import pytest

import amcheck.formula
from helpers import brute_force_solve, random_parity_game, strategy_defects
from amcheck import build_closure, convert, gen_castle, gen_modulo, parse_formula
from amcheck.errors import ModelError
from amcheck.mcgame import (
    EXISTS,
    FORALL,
    ParityGame,
    build_game,
    check_via_game,
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
        assert check_via_game(smallgame, parse_formula("[{1,3}] q"), "w1") is True
        assert check_via_game(smallgame, parse_formula("[{1,2}] q"), "w1") is False

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


# sha256 of the concatenated export_pgsolver texts of a suite's games, one per
# formula in suite order, on the game frame ("cgf") and on its minimized
# effectivity frame over all coalitions ("ef").
GAME_DIGESTS = {
    ("castle-n2-h1", "cgf"): "b0fa01e29257850154528d8d8e7247489ac037e3f9d049901b7a47143d6c8b1f",
    ("castle-n2-h1", "ef"): "91071a40dc488e809b495a6ded0ce0e56563c9a00503a6db247f5bb2c8173c53",
    ("modulo-a2-m3", "cgf"): "2933598cfb6f2be89882923af8881cab07fb8ab47c115f3a3eb0479d3693c846",
    ("modulo-a2-m3", "ef"): "0ff9680ae081513c47ac1d2156fb0d467a63113607063905bf90dda1274b213e",
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
        frame, formulas = gen_castle(2, 1) if suite.startswith("castle") else gen_modulo(2, 3)
        model = frame if kind == "cgf" else convert(frame, minimize_families=True)
        digest = hashlib.sha256()
        for _, f in formulas:
            digest.update(export_pgsolver(build_game(model, build_closure(f))[0]).encode())
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
        # position v has priority v and may stay or step down to v - 1, so
        # the solver nests once per priority; Exists wins by stepping down
        # from every odd position and staying at every even one
        n = 1500
        game = make_game(
            [(EXISTS, v, (v, v - 1) if v else (0,), str(v)) for v in range(n)]
        )
        limit = sys.getrecursionlimit()
        sol = zielonka_solve(game)
        assert sys.getrecursionlimit() == limit
        assert sol.winners == (EXISTS,) * n
        assert all(sol.strategy[v] == v - (v % 2) for v in range(n))
        assert strategy_defects(game, sol) == []

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
