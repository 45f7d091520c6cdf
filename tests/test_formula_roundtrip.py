"""Property test: every formula validate_formula accepts prints to text
that parses back to the same tree.  Needs Hypothesis (the `test` extra); the
module is skipped where it is not installed."""

import itertools

import pytest

from amcheck import Allows, And, Atom, Bot, Enforce, Mu, NegAtom, Nu, Or, Top, Var, parse_formula
from amcheck.formula import MAX_DEPTH, format_formula, validate_formula

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


_LEAVES = st.sampled_from([Top(), Bot(), Atom("p"), Atom("q"), NegAtom("p")])
_COALITIONS = st.lists(st.integers(1, 4), max_size=3).map(lambda agents: tuple(sorted(set(agents))))


def _clean(raw):
    """The formula a raw tree stands for: binders get fresh names, and
    ("var", k) names the k-th enclosing binder (mod their number), or is p
    outside every binder."""
    names = itertools.count()

    def build(t, bound):
        if not isinstance(t, tuple):
            return t
        head = t[0]
        if head == "var":
            return Var(bound[t[1] % len(bound)]) if bound else Atom("p")
        if head in (And, Or):
            return head(build(t[1], bound), build(t[2], bound))
        if head in (Enforce, Allows):
            return head(t[1], build(t[2], bound))
        name = f"X{next(names)}"
        return head(name, build(t[1], bound + (name,)))

    return build(raw, ())


_BUSHY = st.recursive(
    st.one_of(_LEAVES, st.tuples(st.just("var"), st.integers(0, 3))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from((And, Or)), inner, inner),
        st.tuples(st.sampled_from((Enforce, Allows)), _COALITIONS, inner),
        st.tuples(st.sampled_from((Mu, Nu)), inner),
    ),
    max_leaves=24,
).map(_clean)


@st.composite
def _spines(draw):
    """A path of up to MAX_DEPTH nodes with leaves hanging off it: the
    deepest trees validate_formula accepts, in every mix of node kinds."""
    length = draw(st.integers(0, MAX_DEPTH - 1))  # drawn first, so long paths are common
    kinds = st.sampled_from(("and<", "and>", "or<", "or>", "[]", "<>", "mu", "nu"))
    steps = draw(st.lists(kinds, min_size=length, max_size=length))
    binders = [i for i, step in enumerate(steps) if step in ("mu", "nu")]
    f = Var(f"X{draw(st.sampled_from(binders))}") if binders and draw(st.booleans()) else draw(_LEAVES)
    for i in reversed(range(len(steps))):
        step = steps[i]
        if step in ("mu", "nu"):
            f = (Mu if step == "mu" else Nu)(f"X{i}", f)
        elif step in ("[]", "<>"):
            f = (Enforce if step == "[]" else Allows)(draw(_COALITIONS), f)
        else:
            op = And if step.startswith("and") else Or
            f = op(f, draw(_LEAVES)) if step.endswith("<") else op(draw(_LEAVES), f)
    return f


_SPINES = _spines()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_BUSHY, _SPINES))
def test_round_trip_property(f):
    validate_formula(f)
    assert parse_formula(format_formula(f)) == f
