"""Parser, printer, closure graph, and priority assignment."""

import hashlib

import pytest

from amcheck import (
    Allows,
    And,
    Atom,
    Bot,
    Enforce,
    Mu,
    NegAtom,
    Nu,
    Or,
    Top,
    Var,
    build_closure,
    parse_formula,
)
from amcheck.errors import FormulaError, ParseError
from amcheck.formula import (
    MAX_DEPTH,
    coalitions_in,
    connective_count,
    fixpoint_priorities,
    format_formula,
    free_vars,
    syntactic_size,
    validate_formula,
)
from amcheck.benchgen import gen_random_formula
from helpers import load_perfbench


class TestParse:
    def test_reach_shape(self):
        f = parse_formula("mu X. p | [{1,2}] X")
        assert f == Mu("X", Or(Atom("p"), Enforce((1, 2), Var("X"))))

    def test_survive_shape(self):
        f = parse_formula("nu X. ~lost1 & [{1}] X")
        assert f == Nu("X", And(NegAtom("lost1"), Enforce((1,), Var("X"))))

    def test_degenerate_fixpoint(self):
        assert parse_formula("mu X. X") == Mu("X", Var("X"))

    def test_constants_and_literals(self):
        assert parse_formula("true") == Top()
        assert parse_formula("false") == Bot()
        assert parse_formula("p") == Atom("p")
        assert parse_formula("~p") == NegAtom("p")

    def test_and_binds_tighter_than_or(self):
        f = parse_formula("p & q | r")
        assert f == Or(And(Atom("p"), Atom("q")), Atom("r"))
        g = parse_formula("p | q & r")
        assert g == Or(Atom("p"), And(Atom("q"), Atom("r")))

    def test_binary_operators_associate_left(self):
        f = parse_formula("p & q & r")
        assert f == And(And(Atom("p"), Atom("q")), Atom("r"))

    def test_modality_extends_maximally_right(self):
        f = parse_formula("[{1}] p | q")
        assert f == Enforce((1,), Or(Atom("p"), Atom("q")))

    def test_binder_extends_maximally_right(self):
        f = parse_formula("mu X. X & p | q")
        assert f == Mu("X", Or(And(Var("X"), Atom("p")), Atom("q")))

    def test_parentheses_override(self):
        f = parse_formula("([{1}] p) | q")
        assert f == Or(Enforce((1,), Atom("p")), Atom("q"))

    def test_dual_modality(self):
        f = parse_formula("<{2,3}> q")
        assert f == Allows((2, 3), Atom("q"))

    def test_empty_coalition(self):
        assert parse_formula("[{}] p") == Enforce((), Atom("p"))

    def test_coalition_set_semantics(self):
        # coalitions are sets of agent ids: order and repetition are ignored
        assert parse_formula("[{2,1}] p") == parse_formula("[{1,2}] p")
        assert parse_formula("<{3,3}> p") == Allows((3,), Atom("p"))

    def test_identifier_lexing(self):
        f = parse_formula("mu Xlong. atom_1 | [{1}] Xlong")
        assert f == Mu("Xlong", Or(Atom("atom_1"), Enforce((1,), Var("Xlong"))))


class TestParseErrors:
    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p @ q")
        assert exc.value.line == 1
        assert exc.value.column == 3

    def test_position_counts_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p |\n  $")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_formula("p &")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_formula("p q")

    def test_missing_close_bracket(self):
        with pytest.raises(ParseError, match="expected"):
            parse_formula("[{1} p")

    def test_lowercase_fixpoint_variable(self):
        with pytest.raises(ParseError, match="uppercase"):
            parse_formula("mu x. x")

    def test_negated_compound(self):
        with pytest.raises(ParseError, match="atom"):
            parse_formula("~X")
        with pytest.raises(ParseError, match="atom"):
            parse_formula("~true")

    def test_agent_id_expected(self):
        with pytest.raises(ParseError, match="^1:3: agent id expected$"):
            parse_formula("[{a}] p")
        with pytest.raises(ParseError, match="^1:5: agent id expected$"):
            parse_formula("[{1,")

    def test_unbound_variable(self):
        with pytest.raises(FormulaError, match="unbound variable X"):
            parse_formula("p | X")

    def test_variable_bound_twice(self):
        with pytest.raises(FormulaError, match="bound twice"):
            parse_formula("mu X. (nu X. X & p) | X")

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "<{1}> " * (n - 1) + "p",
            lambda n: "nu X. " + "[{1}] " * (n - 2) + "X",
            lambda n: "(" * (n - 1) + "p" + ")" * (n - 1),
            lambda n: "p & " * (n - 1) + "p",
            lambda n: "p | " * (n - 1) + "p",
            lambda n: "([{1}] " * (n - 1) + "p" + ")" * (n - 1),
        ],
        ids=["modalities", "binder", "parentheses", "and-chain", "or-chain", "parenthesized-modalities"],
    )
    def test_nesting_depth_limit(self, shape):
        parse_formula(shape(MAX_DEPTH))
        with pytest.raises(ParseError, match=f"formula nests deeper than {MAX_DEPTH} levels"):
            parse_formula(shape(MAX_DEPTH + 1))

    def test_zero_agent_id(self):
        with pytest.raises(FormulaError, match="positive"):
            parse_formula("[{0}] p")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("Z | Y", "unbound variable Y"),
            ("Y | (mu X. X) | mu X. X", "unbound variable Y"),
            ("(mu X. X) | (mu X. X) | Y", "unbound variable Y"),
            ("[{0}] Y & mu X. mu X. X", "unbound variable Y"),
            ("[{0}] p & (mu X. X) & mu X. X", "agent ids must be positive: (0,)"),
            ("(mu X. X) & (mu X. X) & [{0}] p", "variable X bound twice"),
            ("mu X. [{0}] mu X. X", "agent ids must be positive: (0,)"),
            ("mu X. mu X. [{0}] X", "variable X bound twice"),
        ],
    )
    def test_precedence_of_defects(self, text, message):
        # unbound variables first (the least name), then the first other
        # defect in preorder
        with pytest.raises(FormulaError) as exc:
            parse_formula(text)
        assert str(exc.value) == message
        assert not isinstance(exc.value, ParseError)


def _left_and_chain(n):
    f = Atom("p")
    for _ in range(n - 1):
        f = And(f, Atom("p"))
    return f


def _right_or_chain(n):
    f = Atom("p")
    for _ in range(n - 1):
        f = Or(Top(), f)
    return f


def _and_enforce_chain(n):
    """And over Enforce over And ..., each on the left: the printer wraps
    both the And and the Enforce in parentheses."""
    f = Atom("p")
    for i in range(n - 1):
        f = And(f, Atom("q")) if i % 2 == 0 else Enforce((1,), f)
    return f


def _binder_over_modalities(n):
    f = Var("X")
    for i in range(n - 2):
        f = (Enforce if i % 2 else Allows)((1,), f)
    return Nu("X", f)


class TestInCodeDepth:
    """Trees built in code, which never pass the parser, meet its depth limit
    in every recursive walk instead of exhausting Python's recursion; the
    walks that do not recurse answer at any depth."""

    @pytest.mark.parametrize(
        "shape", [_left_and_chain, _right_or_chain, _binder_over_modalities],
        ids=["and-chain", "or-chain", "binder"],
    )
    @pytest.mark.parametrize(
        "walk", [validate_formula, format_formula, build_closure, free_vars, fixpoint_priorities],
        ids=["validate", "format", "closure", "free-vars", "priorities"],
    )
    def test_depth_limit(self, walk, shape):
        walk(shape(MAX_DEPTH))
        for depth in (MAX_DEPTH + 1, 5000):
            with pytest.raises(FormulaError, match=f"formula nests deeper than {MAX_DEPTH} levels"):
                walk(shape(depth))

    @pytest.mark.parametrize(
        "walk", [validate_formula, build_closure, free_vars, fixpoint_priorities],
        ids=["validate", "closure", "free-vars", "priorities"],
    )
    def test_depth_before_other_defects(self, walk):
        # an unbound Y, X bound twice and agent 0, all above level MAX_DEPTH
        f = Mu("X", Mu("X", Enforce((0,), Or(Var("Y"), _left_and_chain(MAX_DEPTH - 2)))))
        with pytest.raises(FormulaError, match=f"^formula nests deeper than {MAX_DEPTH} levels$"):
            walk(f)

    # (connective_count, syntactic_size, coalitions_in) of each shape at depth n
    @pytest.mark.parametrize(
        "shape,expected",
        [
            (_left_and_chain, lambda n: (n - 1, 2 * n - 1, set())),
            (_right_or_chain, lambda n: (n - 1, 2 * n - 1, set())),
            (_binder_over_modalities, lambda n: (n - 1, n, {(1,)})),
        ],
        ids=["and-chain", "or-chain", "binder"],
    )
    def test_counting_walks_any_depth(self, shape, expected):
        for depth in (MAX_DEPTH, MAX_DEPTH + 1, 5000):
            f = shape(depth)
            assert (connective_count(f), syntactic_size(f), coalitions_in(f)) == expected(depth)


class TestFormat:
    def test_round_trip_examples(self):
        for text in [
            "mu X. p | [{1,2}] X",
            "nu X. ~lost1 & [{1}] X",
            "<{}> (p & q | true)",
            "nu X. mu Y. (X & p) | [{1}] Y",
            "(mu X. X) & false",
        ]:
            f = parse_formula(text)
            assert parse_formula(format_formula(f)) == f

    def test_round_trip_random(self):
        atoms = ("p", "q", "r")
        for seed in range(60):
            f = gen_random_formula(1 + seed % 12, 3, atoms, seed=seed)
            assert parse_formula(format_formula(f)) == f

    @pytest.mark.parametrize("shape", [_left_and_chain, _and_enforce_chain], ids=["and-chain", "and-enforce"])
    def test_round_trip_at_max_depth(self, shape):
        # one pair of parentheses per node above the leaf, and parentheses
        # add no level of the tree, so the deepest valid trees read back
        f = shape(MAX_DEPTH)
        validate_formula(f)
        assert parse_formula(format_formula(f)) == f

    def test_prefix_left_of_binary_is_parenthesized(self):
        f = Or(Enforce((1,), Atom("p")), Atom("q"))
        assert format_formula(f) == "(([{1}] p) | q)"


class TestHelpers:
    def test_free_vars(self):
        f = Mu("X", Or(Var("X"), Var("Y")))
        assert free_vars(f) == frozenset({"Y"})

    @pytest.mark.parametrize(
        "f,free,priorities",
        [
            (Mu("X", Or(Var("Y"), Enforce((1,), Var("X")))), {"Y"}, {"X": 1}),
            (Nu("Y", Mu("X", And(Var("Z"), Or(Var("Y"), Enforce((1,), Var("X")))))), {"Z"}, {"X": 1, "Y": 2}),
            (Mu("X", Nu("Y", And(Var("W"), Var("X")))), {"W"}, {"Y": 0, "X": 1}),
            (And(Nu("X", Var("X")), Or(Var("X"), Mu("Y", Var("Z")))), {"X", "Z"}, {"X": 0, "Y": 1}),
            (Or(Var("X"), Var("X")), {"X"}, {}),
        ],
    )
    def test_open_formulas(self, f, free, priorities):
        assert free_vars(f) == frozenset(free)
        assert fixpoint_priorities(f) == priorities

    def test_connective_count(self):
        assert connective_count(parse_formula("p")) == 0
        assert connective_count(parse_formula("p & q")) == 1
        assert connective_count(parse_formula("mu X. p | [{1,2}] X")) == 3

    def test_syntactic_size(self):
        assert syntactic_size(parse_formula("p")) == 1
        assert syntactic_size(parse_formula("p & q")) == 3
        assert syntactic_size(parse_formula("mu X. p | [{1,2}] X")) == 5

    def test_coalitions_in(self):
        f = parse_formula("mu X. ([{1,3}] X | <{}> p) & [{1,3}] q")
        assert coalitions_in(f) == {(1, 3), ()}


class TestClosure:
    def test_reach_closure_backedge(self):
        g = build_closure(parse_formula("mu X. p | [{1}] X"))
        assert len(g) == 4
        root = g.nodes[g.root]
        assert root.kind == "mu"
        (body,) = root.children
        assert g.nodes[body].kind == "or"
        left, right = g.nodes[body].children
        assert g.nodes[left].kind == "atom"
        assert g.nodes[left].atom == "p"
        assert g.nodes[right].kind == "enforce"
        assert g.nodes[right].coalition == (1,)
        # variable occurrence became an edge back to the binder
        assert g.nodes[right].children == (g.root,)

    def test_top_closure(self):
        assert len(build_closure(Top())) == 1

    def test_shared_subterms(self):
        g = build_closure(parse_formula("(p & q) | (p & q)"))
        assert len(g) == 4  # or, and, p, q

    def test_shared_leaves(self):
        g = build_closure(parse_formula("p & p"))
        assert len(g) == 2

    def test_node_count_bounded_by_syntactic_size(self):
        atoms = ("p", "q", "r", "s")
        for seed in range(120):
            f = gen_random_formula(1 + seed % 14, 3, atoms, seed=seed)
            assert len(build_closure(f)) <= syntactic_size(f)

    def test_children_numbered_before_parents(self):
        # The fixpoint engine's children-first sweep relies on this: only
        # binder-to-body edges point to a larger id (or back to the binder
        # itself, as in mu X. X).
        atoms = ("p", "q", "r", "s")
        for seed in range(200):
            f = gen_random_formula(1 + seed % 16, 3, atoms, seed=seed)
            g = build_closure(f)
            for nid, node in enumerate(g.nodes):
                if node.kind in ("mu", "nu"):
                    assert node.children[0] >= nid, (f, nid)
                else:
                    assert all(child < nid for child in node.children), (f, nid)

    def test_unfold_returns_body(self):
        g = build_closure(parse_formula("mu X. p | [{1}] X"))
        body = g.nodes[g.root].children[0]
        assert g.nodes[body].kind == "or"

    def test_unfold_self_loop(self):
        g = build_closure(parse_formula("mu X. X"))
        assert g.nodes[g.root].children == (g.root,)

    def test_open_formula_rejected(self):
        with pytest.raises(FormulaError):
            build_closure(Or(Atom("p"), Var("X")))

    def test_labels_render_subterms(self):
        f = parse_formula("mu X. p | [{1,3}] X")
        g = build_closure(f)
        assert g.nodes[g.root].term is f
        labels = {n.label for n in g.nodes}
        assert "p" in labels
        assert "mu X. (p | [{1,3}] X)" in labels


class TestPriorities:
    def test_reach_is_odd(self):
        g = build_closure(parse_formula("mu X. p | [{1}] X"))
        assert g.nodes[g.root].priority == 1
        assert g.max_priority == 1

    def test_safety_is_even(self):
        g = build_closure(parse_formula("nu X. q & [{1}] X"))
        assert g.nodes[g.root].priority == 0
        assert g.max_priority == 0

    def test_buchi_nesting(self):
        f = parse_formula("nu X. mu Y. (X & (p0 | [{1}] Y)) & (p5 | [{1}] Y)")
        prios = fixpoint_priorities(f)
        assert prios == {"Y": 1, "X": 2}
        assert build_closure(f).max_priority == 2

    def test_outer_mu_dominating_inner_mu(self):
        # the inner variable is what forces the outer priority up
        prios = fixpoint_priorities(parse_formula("nu X. mu Y. (X & p) | [{1}] Y"))
        assert prios == {"Y": 1, "X": 2}

    def test_independent_fixpoints_do_not_stack(self):
        f = parse_formula("(mu X. p | [{1}] X) & (mu Y. q | [{1}] Y)")
        assert fixpoint_priorities(f) == {"X": 1, "Y": 1}

    def test_inner_without_outer_variable_does_not_dominate(self):
        # Y's body never mentions X, so X only needs to beat nothing
        f = parse_formula("nu X. (mu Y. p | [{1}] Y) & [{1}] X")
        assert fixpoint_priorities(f) == {"Y": 1, "X": 0}

    def test_parity_matches_binder_everywhere(self):
        atoms = ("p", "q")
        for seed in range(120):
            f = gen_random_formula(2 + seed % 12, 2, atoms, seed=seed + 300)
            g = build_closure(f)
            for node in g.nodes:
                if node.kind == "mu":
                    assert node.priority % 2 == 1
                elif node.kind == "nu":
                    assert node.priority % 2 == 0
                else:
                    assert node.priority == 0

    def test_outer_dominates_dependent_inner(self):
        atoms = ("p", "q")

        def dependent_pairs(t, binders):
            # yields (outer_var, inner_var) when outer's variable is free in
            # the inner fixpoint subformula
            if isinstance(t, (And, Or)):
                yield from dependent_pairs(t.left, binders)
                yield from dependent_pairs(t.right, binders)
            elif isinstance(t, (Enforce, Allows)):
                yield from dependent_pairs(t.arg, binders)
            elif isinstance(t, (Mu, Nu)):
                for outer in binders:
                    if outer in free_vars(t):
                        yield outer, t.var
                yield from dependent_pairs(t.body, binders + [t.var])

        for seed in range(120):
            f = gen_random_formula(3 + seed % 10, 2, atoms, seed=seed + 900)
            prios = fixpoint_priorities(f)
            for outer, inner in dependent_pairs(f, []):
                assert prios[outer] >= prios[inner]


# Closure node ids set game position numbers and exported game text, so the
# numbering is pinned: sha256 over (kind, atom, coalition, children, priority)
# of every node and then the root, per formula in suite order, of the closure
# of the formula's printed text read back.
CLOSURE_DIGESTS = {
    "castle": "83d6b0407467ad120263ec76d20647badda9233ab02e530c2687d570c8b160b1",
    "modulo": "6970fc9b0ecacd9012ff58f048344bd3123eb3ef9b8150c173fce4ae1b68d0f1",
    "ladder": "3cd0ac05d53c50791a9177e1f6fdff4531007a09ec7fef4275ac28877e1a2d27",
    "random": "707f92589becab52bc816faba3b370df1d6115794d991e8dfafca844dc5950a1",
}


class TestClosureNumbering:
    @pytest.mark.parametrize("suite", sorted(CLOSURE_DIGESTS))
    def test_closure_digest(self, suite):
        if suite == "random":
            formulas = [gen_random_formula(4 + seed % 40, 3, ("p", "q", "r"), seed) for seed in range(200)]
        else:  # perfbench's suites
            instances = load_perfbench("workloads").instances(suite)
            formulas = [f for inst in instances for _, f in inst.formulas]
        digest = hashlib.sha256()
        for f in formulas:
            closure = build_closure(parse_formula(format_formula(f)))
            for n in closure.nodes:
                digest.update(repr((n.kind, n.atom, n.coalition, n.children, n.priority)).encode())
            digest.update(repr(("root", closure.root)).encode())
        assert digest.hexdigest() == CLOSURE_DIGESTS[suite]
