"""Direct nested fixpoint evaluation."""

import itertools
import random

import pytest

from helpers import load_perfbench, naive_extension, restarting_tower
from amcheck import build_closure, parse_formula
from amcheck.benchgen import gen_modulo, gen_random_cgf, gen_random_formula
from amcheck.convert import convert, minimize
from amcheck.errors import CheckTimeout, ModelError
from amcheck.mcgame import game_verdicts
from amcheck.model import Ef
from amcheck.localfp import (
    _Stepper,
    fixpoint_extension,
    fixpoint_verdicts,
    nested_fixpoint,
    one_step,
    prop_step,
)
from amcheck.timing import Deadline


def node_id(closure, kind, **attrs):
    for nid, node in enumerate(closure.nodes):
        if node.kind == kind and all(getattr(node, k) == v for k, v in attrs.items()):
            return nid
    raise AssertionError(f"no {kind} node")


def empty_vec(closure):
    return [set() for _ in range(closure.max_priority + 1)]


class TestPropStep:
    def test_constants_and_literals(self, smallgame):
        closure = build_closure(parse_formula("(true & p) | ~q"))
        out = prop_step(smallgame, closure, smallgame.states, empty_vec(closure))
        top = node_id(closure, "top")
        atom = node_id(closure, "atom", atom="p")
        neg = node_id(closure, "negatom", atom="q")
        assert {(w, top) for w in smallgame.states} <= out
        assert {w for w, nid in out if nid == atom} == {"w2"}
        assert {w for w, nid in out if nid == neg} == {"w1", "w2"}

    def test_connectives_read_level_zero(self, smallgame):
        closure = build_closure(parse_formula("(p & q) | q"))
        conj = node_id(closure, "and")
        disj = node_id(closure, "or")
        p = node_id(closure, "atom", atom="p")
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w1", p), ("w1", q), ("w2", q)}
        out = prop_step(smallgame, closure, smallgame.states, vec)
        assert ("w1", conj) in out
        assert ("w2", conj) not in out
        assert {w for w, nid in out if nid == disj} == {"w1", "w2"}

    def test_fixpoint_reads_its_priority_level(self, smallgame):
        closure = build_closure(parse_formula("mu X. p | [{1}] X"))
        root = closure.root
        body = closure.nodes[root].children[0]
        vec = empty_vec(closure)  # two levels: priorities 0 and 1
        vec[1] = {("w3", body)}
        out = prop_step(smallgame, closure, smallgame.states, vec)
        assert ("w3", root) in out
        assert ("w1", root) not in out

    def test_ignores_modal_nodes(self, smallgame):
        closure = build_closure(parse_formula("[{1}] p"))
        vec = empty_vec(closure)
        vec[0] = {(w, node_id(closure, "atom", atom="p")) for w in smallgame.states}
        out = prop_step(smallgame, closure, smallgame.states, vec)
        assert all(closure.nodes[nid].kind != "enforce" for _, nid in out)


class TestOneStepCgf:
    def test_enforce_needs_a_forcing_joint_move(self, smallgame):
        closure = build_closure(parse_formula("[{1,3}] q"))
        root = closure.root
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        out = one_step(smallgame, closure, smallgame.states, vec)
        # agents 1 and 3 playing (2,2) send w1 to w3 regardless of agent 2
        assert ("w1", root) in out

    def test_solo_agent_cannot_force(self, smallgame):
        closure = build_closure(parse_formula("[{1}] q"))
        root = closure.root
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        out = one_step(smallgame, closure, smallgame.states, vec)
        # alone, agent 1 only bounds the outcome inside {w2,w3}
        assert ("w1", root) not in out
        vec[0] = {("w2", q), ("w3", q)}
        out = one_step(smallgame, closure, smallgame.states, vec)
        assert ("w1", root) in out

    def test_grand_coalition_pins_outcomes(self, smallgame):
        closure = build_closure(parse_formula("[{1,2,3}] q"))
        root = closure.root
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        out = one_step(smallgame, closure, smallgame.states, vec)
        assert ("w1", root) in out
        assert ("w2", root) not in out

    def test_allows_quantifies_dually(self, smallgame):
        closure = build_closure(parse_formula("<{2}> q"))
        root = closure.root
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        # whatever agent 2 plays, agents 1 and 3 can complete into w3
        out = one_step(smallgame, closure, smallgame.states, vec)
        assert ("w1", root) in out
        vec[0] = set()
        out = one_step(smallgame, closure, smallgame.states, vec)
        assert ("w1", root) not in out

    def test_subset_reads_states_outside_it(self, smallgame):
        # at w1, agents 1 and 3 playing (2,2) reach only w3, which lies outside
        # the queried subset; the argument still speaks about w3
        closure = build_closure(parse_formula("([{1,3}] q) | <{2}> q"))
        enforce = node_id(closure, "enforce")
        allows = node_id(closure, "allows")
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        out = one_step(smallgame, closure, ["w1"], vec)
        assert out == {("w1", enforce), ("w1", allows)}
        vec[0] = {("w1", q), ("w2", enforce), ("w2", allows)}
        assert one_step(smallgame, closure, ["w1"], vec) == set()


class TestOneStepEf:
    def test_enforce_needs_a_member_inside(self, smallgame_min_ef):
        closure = build_closure(parse_formula("[{1,3}] q"))
        root = closure.root
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        out = one_step(smallgame_min_ef, closure, smallgame_min_ef.states, vec)
        assert ("w1", root) in out
        assert ("w2", root) not in out

    def test_allows_needs_every_member_to_meet(self, smallgame_min_ef):
        closure = build_closure(parse_formula("<{2}> q"))
        root = closure.root
        q = node_id(closure, "atom", atom="q")
        vec = empty_vec(closure)
        vec[0] = {("w3", q)}
        out = one_step(smallgame_min_ef, closure, smallgame_min_ef.states, vec)
        # w1's only family member {w2,w3} meets {w3}
        assert ("w1", root) in out
        assert ("w2", root) not in out

    def test_minimization_invariant(self, smallgame):
        plain = convert(smallgame)
        small = minimize(plain)
        closure = build_closure(parse_formula("([{1,2}] q) & <{3}> (p | q)"))
        rng = random.Random(5)
        universe = [(w, nid) for w in smallgame.states for nid in range(len(closure.nodes))]
        for _ in range(30):
            vec = empty_vec(closure)
            vec[0] = {pair for pair in universe if rng.random() < 0.4}
            assert one_step(plain, closure, plain.states, vec) == one_step(
                small, closure, small.states, vec
            )


class TestAllowsIsDual:
    """``<C> x`` is evaluated as ``[C]`` failing on the complement of x."""

    @pytest.mark.parametrize("frame", ["cgf", "ef"])
    def test_one_step_on_a_subset_matches_reference(self, frame):
        # The subset's groups reach states outside it, so the complement must
        # be taken over all the model's states, not over the subset.
        for seed in range(6):
            model = gen_random_cgf(8, 2, 2, ("p",), seed=seed)
            if frame == "ef":
                model = convert(model)
            subset = model.states[:3]
            for coalition in ("{}", "{1}", "{2}", "{1,2}"):
                f = parse_formula(f"<{coalition}> p")
                closure = build_closure(f)
                vec = empty_vec(closure)
                p = node_id(closure, "atom", atom="p")
                vec[0] = {(w, p) for w in model.atom_states("p")}
                out = one_step(model, closure, subset, vec)
                expected = naive_extension(model, f) & set(subset)
                assert {w for w, nid in out if nid == closure.root} == expected, (seed, coalition)

    def test_empty_family(self):
        # A state whose family is empty: no group to force with, and none
        # that misses the goal.
        ef = Ef(
            ("s", "t"),
            1,
            {"s": {(1,): ()}, "t": {(1,): (frozenset({"t"}),)}},
            {"p": frozenset({"t"})},
        )
        for text, holds in (("<{1}> p", True), ("[{1}] p", False)):
            f = parse_formula(text)
            closure = build_closure(f)
            assert ("s" in naive_extension(ef, f)) is holds
            assert fixpoint_verdicts(ef, closure, ["s"]) == {"s": holds}
            assert game_verdicts(ef, closure, ["s"]) == {"s": holds}


class TestNestedFixpoint:
    def test_degenerate_least_is_empty(self, smallgame):
        closure = build_closure(parse_formula("mu X. X"))
        assert fixpoint_verdicts(smallgame, closure) == {w: False for w in smallgame.states}

    def test_degenerate_greatest_is_full(self, smallgame):
        closure = build_closure(parse_formula("nu X. X"))
        assert fixpoint_verdicts(smallgame, closure) == {w: True for w in smallgame.states}

    def test_plain_sets_without_model(self):
        # nu level around a mu level over a two-element universe
        universe = frozenset({0, 1})

        def step(vec):
            # 0 is justified by itself at level 1; 1 never is
            return {0} if 0 in vec[1] else set()

        assert nested_fixpoint(step, universe, frozenset(), 1) == set()
        assert nested_fixpoint(lambda vec: {0} if 0 in vec[0] else set(), universe, frozenset(), 0) == {0}

    def test_reach_on_modulo_matches_direct_iteration(self):
        g, _ = gen_modulo(2, 2, 10)
        closure = build_closure(parse_formula("mu X. p7 | [{1,2}] X"))
        verdicts = fixpoint_verdicts(g, closure)

        reached = set(g.atom_states("p7"))
        while True:
            grown = set(reached)
            for w in g.states:
                targets = g.transitions[w]
                if any(targets[grand] in reached for grand in targets):
                    grown.add(w)
            if grown == reached:
                break
            reached = grown
        assert verdicts == {w: w in reached for w in g.states}
        assert all(verdicts.values())

    def test_empty_coalition_forces_nothing_new(self):
        g, _ = gen_modulo(2, 2, 10)
        closure = build_closure(parse_formula("mu X. p1 | [{}] X"))
        verdicts = fixpoint_verdicts(g, closure)
        # without any own move, the three-state outcome window never fits
        # inside the current approximation, so only the goal state holds
        assert verdicts == {w: w == "1" for w in g.states}

    def test_safety_equals_plain_gfp(self, smallgame):
        closure = build_closure(parse_formula("nu X. ~p & [{2,3}] X"))
        verdicts = fixpoint_verdicts(smallgame, closure)

        alive = {w for w in smallgame.states if w not in smallgame.atom_states("p")}
        while True:
            kept = set()
            for w in alive:
                for jm in [(1, 1), (1, 2), (2, 1), (2, 2)] if w == "w1" else [(1, 1)]:
                    targets = {
                        smallgame.transitions[w][grand]
                        for grand in smallgame.transitions[w]
                        if (grand[1], grand[2]) == jm
                    }
                    if targets <= alive:
                        kept.add(w)
                        break
            if kept == alive:
                break
            alive = kept
        assert verdicts == {w: w in alive for w in smallgame.states}

    def test_buchi_matches_reference_evaluator(self):
        g, formulas = gen_modulo(2, 2, 6)
        buchi = next(f for name, f in formulas if name.startswith("buchi"))
        closure = build_closure(buchi)
        ext = naive_extension(g, buchi)
        assert fixpoint_verdicts(g, closure) == {w: w in ext for w in g.states}

    def test_agreement_with_reference_on_random_pairs(self):
        atoms = ("p1", "p2", "p3")
        for seed in range(25):
            g = gen_random_cgf(6, 2, 2, atoms, seed=seed)
            f = gen_random_formula(3 + seed % 8, 2, atoms, seed=seed + 77)
            ext = naive_extension(g, f)
            verdicts = fixpoint_verdicts(g, build_closure(f))
            assert verdicts == {w: w in ext for w in g.states}, (seed, f)

    @pytest.mark.parametrize("frame", ["cgf", "ef", "ef-min"])
    def test_extension_equals_tower_over_public_step(self, frame):
        # The engine's children-first sweep must settle on the same extension
        # as plain Kleene iteration of the public (Jacobi) one-step function.
        atoms = ("p1", "p2", "p3")
        fixed = [
            parse_formula("mu X. nu Y. (p1 & [{1}] Y) | <{2}> X"),
            parse_formula("nu X. (mu Y. p2 | [{1,2}] Y) & (<{1}> nu Z. ~p3 & [{2}] Z) & [{1}] X"),
            parse_formula("mu X. (nu Y. p1 & [{1}] Y) | [{2}] X"),
        ]
        for seed in range(12):
            model = gen_random_cgf(5, 2, 2, atoms, seed=seed)
            if frame != "cgf":
                model = convert(model, minimize_families=frame == "ef-min")
            random_formula = gen_random_formula(2 + seed % 9, 2, atoms, seed=seed + 500)
            for f in fixed + [random_formula]:
                closure = build_closure(f)
                universe = frozenset(
                    (w, nid) for w in model.states for nid in range(len(closure.nodes))
                )
                tower = nested_fixpoint(
                    lambda vec: one_step(model, closure, model.states, vec),
                    universe,
                    frozenset(),
                    closure.max_priority,
                )
                assert fixpoint_extension(model, closure) == tower, (seed, f)

    def test_verdicts_for_selected_states(self, smallgame):
        closure = build_closure(parse_formula("p | q"))
        assert fixpoint_verdicts(smallgame, closure, states=["w2"]) == {"w2": True}

    def test_check_single_state(self, smallgame):
        reach = build_closure(parse_formula("mu X. q | [{1,3}] X"))
        assert fixpoint_verdicts(smallgame, reach, ["w1"])["w1"]
        assert not fixpoint_verdicts(smallgame, build_closure(parse_formula("[{1,2}] q")), ["w1"])["w1"]


def alternating_cases(frame, count=20):
    """Random frames, each with a random formula of at least three
    alternating fixpoint levels (max priority 2 or more)."""
    atoms = ("p1", "p2", "p3")
    seeds = itertools.count()
    cases = []
    while len(cases) < count:
        seed = next(seeds)
        closure = build_closure(gen_random_formula(8 + seed % 10, 2, atoms, seed=seed))
        if closure.max_priority < 2:
            continue
        model = gen_random_cgf(5, 2, 2, atoms, seed=seed)
        if frame != "cgf":
            model = convert(model, minimize_families=True)
        cases.append((model, closure))
    return cases


class TestWarmStart:
    @pytest.mark.parametrize("frame", ["cgf", "ef-min"])
    def test_equals_restarting_tower_over_public_step(self, frame):
        for model, closure in alternating_cases(frame):
            universe = frozenset((w, nid) for w in model.states for nid in range(len(closure.nodes)))

            def step(vec):
                return one_step(model, closure, model.states, vec)

            args = (universe, frozenset(), closure.max_priority)
            assert nested_fixpoint(step, *args) == restarting_tower(step, *args), closure

    @pytest.mark.parametrize("frame", ["cgf", "ef-min"])
    def test_equals_restarting_tower_over_engine_stepper(self, frame):
        # the reference sweeps with a fresh stepper each time, so it skips no node
        for model, closure in alternating_cases(frame):
            step = _Stepper(model, closure, model.states)
            size = len(closure.nodes)
            args = ([step.domain] * size, [0] * size, closure.max_priority)
            reference = restarting_tower(lambda levels: _Stepper(model, closure, model.states)(levels), *args)
            assert nested_fixpoint(step, *args) == reference, closure

    def test_ladder_step_calls_bounded(self):
        # perfbench's ladder d6 on its first frame: 864 sweeps when every
        # inner level restarts, 580 with the warm start
        workloads = load_perfbench("workloads")
        model = gen_random_cgf(34, 2, 2, [f"p{i}" for i in range(7)], 1)
        closure = build_closure(workloads.ladder_formula(6))
        stepper = _Stepper(model, closure, model.states)
        calls = 0

        def step(levels):
            nonlocal calls
            calls += 1
            return stepper(levels)

        size = len(closure.nodes)
        nested_fixpoint(step, [stepper.domain] * size, [0] * size, closure.max_priority)
        assert calls <= 600, calls


class TestStepperReuse:
    @pytest.mark.parametrize("frame", ["cgf", "ef-min"])
    def test_reused_stepper_matches_fresh_one(self, frame):
        # A stepper skips a modal node whose child mask it has seen last; over
        # any sequence of levels it must still return what a fresh one does.
        rng = random.Random(7)
        for model, closure in alternating_cases(frame, count=6):
            reused = _Stepper(model, closure, model.states)
            size = len(closure.nodes)
            pool = [
                [[rng.getrandbits(len(model.states)) for _ in range(size)] for _ in range(closure.max_priority + 1)]
                for _ in range(4)
            ]
            for _ in range(25):
                levels = rng.choice(pool)
                children = rng.choice([None, levels[0], rng.choice(pool)[0]])
                fresh = _Stepper(model, closure, model.states)
                assert reused(levels, children) == fresh(levels, children), closure


class TestMonotonicity:
    def test_steps_preserve_pointwise_order(self, smallgame, smallgame_min_ef):
        closure = build_closure(parse_formula("mu X. (p & <{3}> X) | [{1,2}] X"))
        universe = [(w, nid) for w in smallgame.states for nid in range(len(closure.nodes))]
        rng = random.Random(99)
        for _ in range(40):
            lo_vec = empty_vec(closure)
            hi_vec = empty_vec(closure)
            for level in range(len(lo_vec)):
                lo = {pair for pair in universe if rng.random() < 0.3}
                hi = lo | {pair for pair in universe if rng.random() < 0.3}
                lo_vec[level], hi_vec[level] = lo, hi
            assert prop_step(smallgame, closure, smallgame.states, lo_vec) <= prop_step(
                smallgame, closure, smallgame.states, hi_vec
            )
            for model in (smallgame, smallgame_min_ef):
                assert one_step(model, closure, model.states, lo_vec) <= one_step(
                    model, closure, model.states, hi_vec
                )


class TestDeadline:
    def test_evaluation_times_out(self, smallgame):
        closure = build_closure(parse_formula("mu X. p | [{1,3}] X"))
        with pytest.raises(CheckTimeout):
            fixpoint_extension(smallgame, closure, deadline=Deadline(-1.0))

    def test_generous_deadline_is_harmless(self, smallgame):
        closure = build_closure(parse_formula("mu X. p | [{1,3}] X"))
        with_deadline = fixpoint_verdicts(smallgame, closure, deadline=Deadline(60.0))
        assert with_deadline == fixpoint_verdicts(smallgame, closure)


@pytest.mark.parametrize("frame", ["cgf", "ef"])
@pytest.mark.parametrize("verdicts", [game_verdicts, fixpoint_verdicts], ids=["game", "local"])
@pytest.mark.parametrize("text", ["p", "[{1}] p"], ids=["atom", "modal"])
def test_unknown_state_rejected_by_every_engine(smallgame, smallgame_min_ef, frame, verdicts, text):
    # a queried state outside the model is an error before any checking, also
    # for a formula whose game never reaches a modal position
    model = smallgame if frame == "cgf" else smallgame_min_ef
    closure = build_closure(parse_formula(text))
    for states in (["zzz"], ["w1", "zzz"]):
        with pytest.raises(ModelError, match="unknown state zzz"):
            verdicts(model, closure, states)


def test_rejects_non_model():
    with pytest.raises(ModelError, match="^not a model: 'nonsense'$"):
        fixpoint_verdicts("nonsense", build_closure(parse_formula("p")))
