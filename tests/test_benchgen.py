"""Benchmark model and formula generators."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import amcheck
from amcheck.benchgen import gen_castle, gen_modulo, gen_random_cgf, gen_random_formula
from amcheck.formula import (
    Allows,
    And,
    Atom,
    Enforce,
    Mu,
    NegAtom,
    Nu,
    Or,
    Var,
    connective_count,
    format_formula,
)
from amcheck.model import model_to_json, validate_cgf

ATOMS = ("p1", "p2", "p3", "p4")


class TestRandomCgf:
    def test_shape(self):
        g = gen_random_cgf(10, 4, 2, ATOMS, seed=1)
        assert g.states == tuple(f"w{i}" for i in range(1, 11))
        assert g.agents == 4
        assert g.initial == "w1"
        assert all(counts == (2, 2, 2, 2) for counts in g.move_counts.values())
        assert all(len(table) == 16 for table in g.transitions.values())
        assert set(g.valuation) == set(ATOMS)

    def test_validates(self):
        for seed in range(5):
            assert validate_cgf(gen_random_cgf(6, 3, 2, ATOMS, seed=seed)) == []

    def test_deterministic_in_seed(self):
        a = model_to_json(gen_random_cgf(8, 2, 3, ATOMS, seed=42))
        b = model_to_json(gen_random_cgf(8, 2, 3, ATOMS, seed=42))
        c = model_to_json(gen_random_cgf(8, 2, 3, ATOMS, seed=43))
        assert a == b
        assert a != c


class TestRandomFormula:
    def test_exact_connective_count(self):
        for size in range(13):
            for seed in range(10):
                f = gen_random_formula(size, 3, ATOMS, seed=seed)
                assert connective_count(f) == size

    def test_deterministic_in_seed(self):
        a = gen_random_formula(9, 3, ATOMS, seed=5)
        b = gen_random_formula(9, 3, ATOMS, seed=5)
        assert a == b

    def test_same_formulas_under_any_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED; the formulas must not
        script = (
            "from amcheck.benchgen import gen_random_formula\n"
            "from amcheck.formula import format_formula\n"
            "for seed in range(50):\n"
            "    print(format_formula(gen_random_formula(12, 3, ('p1', 'p2'), seed)))\n"
        )
        src = str(Path(amcheck.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 50

    def test_coalitions_within_agent_bound(self):
        def walk(t):
            if isinstance(t, (And, Or)):
                walk(t.left)
                walk(t.right)
            elif isinstance(t, (Enforce, Allows)):
                assert all(1 <= a <= 2 for a in t.coalition)
                walk(t.arg)
            elif isinstance(t, (Mu, Nu)):
                walk(t.body)

        for seed in range(40):
            walk(gen_random_formula(8, 2, ATOMS, seed=seed))

    def test_fixpoint_depth_bound(self):
        def depth(t):
            if isinstance(t, (And, Or)):
                return max(depth(t.left), depth(t.right))
            if isinstance(t, (Enforce, Allows)):
                return depth(t.arg)
            if isinstance(t, (Mu, Nu)):
                return 1 + depth(t.body)
            return 0

        for seed in range(60):
            f = gen_random_formula(10, 2, ATOMS, seed=seed, max_fixpoint_depth=3)
            assert depth(f) <= 3
        unbounded = max(
            depth(gen_random_formula(12, 2, ATOMS, seed=s)) for s in range(60)
        )
        assert unbounded > 3  # the cap is doing real work


class TestCastle:
    def test_state_space(self):
        g, _ = gen_castle(2, 1)
        assert len(g.states) == 16
        assert g.agents == 2
        assert g.initial == "r1-r1"
        assert validate_cgf(g) == []

    def test_move_menus(self):
        g, _ = gen_castle(2, 1)
        assert g.move_counts["r1-r1"] == (2, 2)  # defend or attack the other
        assert g.move_counts["s1-r1"] == (1, 2)  # spent knights can only rest
        assert g.move_counts["r0-r1"] == (1, 2)  # fallen castles mark time

    def test_mutual_attack_destroys_both(self):
        g, _ = gen_castle(2, 1)
        assert g.transitions["r1-r1"][(2, 2)] == "s0-s0"

    def test_defense_blocks(self):
        g, _ = gen_castle(2, 1)
        assert g.transitions["r1-r1"][(1, 1)] == "r1-r1"
        # attacked while defending: no damage, attacker left unready
        assert g.transitions["r1-r1"][(1, 2)] == "r1-s1"
        assert g.transitions["r1-r1"][(2, 1)] == "s1-r1"

    def test_undefended_attack_lands(self):
        g, _ = gen_castle(2, 1)
        # castle 2 is spent and resting; resting still blocks one attack
        assert g.transitions["r1-s1"][(2, 1)] == "s1-r1"

    def test_rest_recovers_readiness(self):
        g, _ = gen_castle(2, 1)
        assert g.transitions["s1-s1"][(1, 1)] == "r1-r1"

    def test_points_never_increase(self):
        g, _ = gen_castle(2, 2)

        def points(w):
            return [int(part[1:]) for part in w.split("-")]

        for w, table in g.transitions.items():
            for target in table.values():
                assert all(b <= a for a, b in zip(points(w), points(target)))

    def test_fallen_castles_stay_fallen(self):
        g, _ = gen_castle(2, 1)
        for w, table in g.transitions.items():
            for a in (1, 2):
                if w in g.atom_states(f"lost{a}"):
                    assert all(t in g.atom_states(f"lost{a}") for t in table.values())

    def test_lost_valuation(self):
        g, _ = gen_castle(2, 1)
        assert "s0-r1" in g.atom_states("lost1")
        assert "r1-s0" not in g.atom_states("lost1")

    def test_formula_suite(self):
        _, formulas = gen_castle(2, 1)
        names = [name for name, _ in formulas]
        assert names == ["survive-a1", "survive-a2", "victory-c1", "victory-c2"]
        suite = dict(formulas)
        assert suite["survive-a1"] == Nu(
            "X", And(NegAtom("lost1"), Enforce((1,), Var("X")))
        )
        assert suite["victory-c1"] == Mu(
            "X",
            Or(And(NegAtom("lost1"), Atom("lost2")), Enforce((1,), Var("X"))),
        )
        assert suite["victory-c2"] == Mu(
            "X",
            Or(And(NegAtom("lost1"), NegAtom("lost2")), Enforce((1, 2), Var("X"))),
        )

    def test_three_castles(self):
        g, formulas = gen_castle(3, 1)
        assert len(g.states) == 4**3
        assert g.move_counts[g.initial] == (3, 3, 3)
        assert len(formulas) == 6
        assert validate_cgf(g) == []

    def test_parameter_guards(self):
        with pytest.raises(ValueError, match="two castles"):
            gen_castle(1, 1)
        with pytest.raises(ValueError, match="hit point"):
            gen_castle(2, 0)


class TestModulo:
    def test_shape(self):
        g, _ = gen_modulo(2, 2, 10)
        assert g.states == tuple(str(i) for i in range(10))
        assert g.initial == "0"
        assert g.atom_states("p3") == frozenset({"3"})
        assert all(counts == (2, 2) for counts in g.move_counts.values())
        assert validate_cgf(g) == []

    def test_one_step_reach_set(self):
        g, _ = gen_modulo(2, 2, 10)
        targets = set(g.transitions["0"].values())
        assert targets == {"2", "3", "4"}

    def test_outcome_depends_only_on_sum(self):
        g, _ = gen_modulo(2, 3, 10)
        for w in g.states:
            assert g.transitions[w][(1, 2)] == g.transitions[w][(2, 1)]
            assert g.transitions[w][(3, 1)] == g.transitions[w][(2, 2)]

    def test_wraparound(self):
        g, _ = gen_modulo(1, 3, 5)
        assert g.transitions["4"][(3,)] == "2"

    def test_formula_suite(self):
        _, formulas = gen_modulo(2, 2, 4)
        names = [name for name, _ in formulas]
        assert names == ["reach-c1", "buchi-c1", "reach-c2", "buchi-c2"]
        suite = dict(formulas)
        reach = suite["reach-c2"]
        # conjunction over all residues of individual reachability
        assert connective_count(reach) == 4 * 3 + 3
        assert format_formula(reach).count("mu") == 4
        assert suite["buchi-c1"] == Nu(
            "X",
            Mu(
                "Y",
                And(
                    And(Var("X"), Or(Atom("p0"), Enforce((1,), Var("Y")))),
                    Or(Atom("p2"), Enforce((1,), Var("Y"))),
                ),
            ),
        )

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            gen_modulo(0, 2, 10)
        with pytest.raises(ValueError):
            gen_modulo(2, 0, 10)
        with pytest.raises(ValueError):
            gen_modulo(2, 2, 1)
