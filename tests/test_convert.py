"""Game frame to effectivity frame conversion and antichain minimization."""

import itertools

from amcheck.benchgen import gen_modulo, gen_random_cgf
from amcheck.convert import convert, induced_effectivity, minimal_sets, minimize
from amcheck.model import Ef, model_to_json, validate_ef


def fam(*sets):
    return tuple(frozenset(s) for s in sets)


# Expected families for the three-state fixture, derived by hand from its
# transition table: at w1 the grand moves 111,112,121,211,221 lead to w2 and
# 122,212,222 lead to w3; w2 and w3 are absorbing.
W1_PLAIN = {
    (): fam({"w2", "w3"}),
    (1,): fam({"w2", "w3"}),
    (2,): fam({"w2", "w3"}),
    (3,): fam({"w2"}, {"w2", "w3"}),
    (1, 2): fam({"w2"}, {"w2", "w3"}),
    (1, 3): fam({"w2"}, {"w3"}, {"w2", "w3"}),
    (2, 3): fam({"w2"}, {"w3"}, {"w2", "w3"}),
    (1, 2, 3): fam({"w2"}, {"w3"}),
}
W1_MINIMAL = {
    (): fam({"w2", "w3"}),
    (1,): fam({"w2", "w3"}),
    (2,): fam({"w2", "w3"}),
    (3,): fam({"w2"}),
    (1, 2): fam({"w2"}),
    (1, 3): fam({"w2"}, {"w3"}),
    (2, 3): fam({"w2"}, {"w3"}),
    (1, 2, 3): fam({"w2"}, {"w3"}),
}

ALL_COALITIONS = list(W1_PLAIN)


class TestInducedEffectivity:
    def test_w1_families(self, smallgame):
        e = induced_effectivity(smallgame)
        assert e.effectivity["w1"] == W1_PLAIN

    def test_absorbing_states(self, smallgame):
        e = induced_effectivity(smallgame)
        for coalition in ALL_COALITIONS:
            assert e.family("w2", coalition) == fam({"w2"})
            assert e.family("w3", coalition) == fam({"w3"})

    def test_result_validates(self, smallgame):
        e = induced_effectivity(smallgame)
        assert validate_ef(e) == []

    def test_valuation_and_initial_carried(self, smallgame):
        smallgame.initial = "w1"
        e = induced_effectivity(smallgame)
        assert e.valuation == smallgame.valuation
        assert e.initial == "w1"
        assert e.agents == 3

    def test_restricted_coalitions(self, smallgame):
        e = induced_effectivity(smallgame, coalitions=[(3, 1), (3, 1), ()])
        assert set(e.effectivity["w1"]) == {(), (1, 3)}
        assert e.family("w1", (1, 3)) == W1_PLAIN[(1, 3)]

    def test_single_move_game_gives_singletons(self):
        g = gen_random_cgf(5, 2, 1, ("p",), seed=7)
        e = induced_effectivity(g)
        for w in g.states:
            target = frozenset({g.transitions[w][(1, 1)]})
            for coalition in [(), (1,), (2,), (1, 2)]:
                assert e.family(w, coalition) == (target,)

    def test_modulo_windows(self):
        # two agents each holding moves 1..3, summed onto the residue: the
        # grand coalition pins single states, a solo agent pins a window of
        # three consecutive residues per own move, nobody pins all five
        g, _ = gen_modulo(2, 3, 10)
        e = induced_effectivity(g)
        s = int(g.states[0])

        def span(lo, n):
            return frozenset(str((s + lo + k) % 10) for k in range(n))

        assert e.family(g.states[0], ()) == (span(2, 5),)
        assert e.family(g.states[0], (1,)) == (span(2, 3), span(3, 3), span(4, 3))
        assert e.family(g.states[0], (1, 2)) == tuple(
            sorted((span(2 + k, 1) for k in range(5)), key=sorted)
        )

    def test_coalition_monotone(self):
        # a superset coalition refines control: everything a coalition can
        # force, some family member of the superset fits inside
        g = gen_random_cgf(6, 3, 2, ("p",), seed=11)
        e = induced_effectivity(g)
        coalitions = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        for w in g.states:
            for small, big in itertools.combinations(coalitions, 2):
                if not set(small) <= set(big):
                    continue
                for u in e.family(w, small):
                    assert any(v <= u for v in e.family(w, big))

    def test_independent_of_table_ordering(self, smallgame):
        shuffled = type(smallgame)(
            states=smallgame.states,
            agents=smallgame.agents,
            move_counts=smallgame.move_counts,
            transitions={
                w: dict(reversed(list(table.items())))
                for w, table in smallgame.transitions.items()
            },
            valuation=smallgame.valuation,
        )
        assert induced_effectivity(shuffled).effectivity == induced_effectivity(smallgame).effectivity


class TestMinimalSets:
    def test_drops_supersets(self):
        assert minimal_sets(fam({"a", "b"}, {"a"}, {"b", "c"})) == fam({"a"}, {"b", "c"})

    def test_keeps_incomparable(self):
        family = fam({"a"}, {"b"}, {"a", "c"})
        assert minimal_sets(family) == fam({"a"}, {"b"})

    def test_idempotent(self):
        family = fam({"a", "b"}, {"a"}, {"c"}, {"b", "c"}, {"a", "b", "c"})
        once = minimal_sets(family)
        assert minimal_sets(once) == once

    def test_result_is_antichain(self):
        g = gen_random_cgf(6, 2, 3, ("p",), seed=3)
        e = minimize(induced_effectivity(g))
        for per_state in e.effectivity.values():
            for family in per_state.values():
                for u, v in itertools.permutations(family, 2):
                    assert not u < v


class TestMinimize:
    def test_w1_families(self, smallgame):
        e = minimize(induced_effectivity(smallgame))
        assert e.effectivity["w1"] == W1_MINIMAL

    def test_matches_golden_file(self, smallgame, smallgame_min_ef_path):
        e = convert(smallgame, minimize_families=True)
        assert model_to_json(e) == smallgame_min_ef_path.read_text()

    def test_idempotent(self, smallgame):
        e = induced_effectivity(smallgame)
        assert minimize(minimize(e)).effectivity == minimize(e).effectivity


class TestConvert:
    def test_returns_the_frame(self, smallgame):
        e = convert(smallgame)
        assert isinstance(e, Ef)
        assert e.effectivity["w1"] == W1_PLAIN

    def test_minimize_flag(self, smallgame):
        plain = convert(smallgame)
        small = convert(smallgame, minimize_families=True)
        assert plain.effectivity["w1"] != small.effectivity["w1"]
        assert small.effectivity["w1"] == W1_MINIMAL
