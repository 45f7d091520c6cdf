"""Property test: a mutated model file ends in a verdict or an `error:`
message with exit code 0, 2 or 3, never a traceback.  The mutations start
from the valid game frame, keyed and with flat rows, and the effectivity
frame under tests/data: a value replaced by one of another JSON type, a key
deleted, a malformed grand move or coalition key added (on a flat row: one
target too few or too many), or the text cut short.  Each file goes through
`amc check` with every engine (the ef-* engines with `--convert` on the game
frame) and through `amc convert`.  Fixed mutations of a flat row pin their
messages.  Needs Hypothesis (the `test` extra); the module is skipped where
it is not installed."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from amcheck.cli import ENGINES, main

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


DATA = Path(__file__).parent / "data"
BASES = {
    "cgf": (DATA / "smallgame.cgf.json").read_text(),
    "cgf-flat": (DATA / "smallgame.flat.cgf.json").read_text(),
    "ef": (DATA / "smallgame.min.ef.json").read_text(),
}

FORMULA = "nu X. (p | <{2}> X) & mu Y. q | [{1,3}] Y\n"

# A value of each JSON type: null, boolean, number, string, array, object.
_VALUES = (None, True, 0, 2.5, -1, "w1", "", [], ["w2"], [1, 1], {}, {"w1": 1})

_BAD_KEYS = {
    "cgf": ("", "1", "1,1", "1,1,1,1", "1,,1", "a,1,1", "-1,1,1", " 1,1,1", "1.0,1,1", "0,1,1", "3,1,1"),
    "ef": ("", "{}x", "{1", "1}", "{a}", "{2,1}", "{1,1}", "{1,,2}", "{ 1}", "{0}", "{4}", "{-1}"),
}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _slots(value):
    """Every (container, key or index) pair inside a JSON value, in order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield value, key
        yield from _slots(inner)


@st.composite
def mutated_files(draw):
    kind = draw(st.sampled_from(sorted(BASES)))
    text = BASES[kind]
    how = draw(st.sampled_from(("retype", "delete", "bad key", "truncate")))
    if how == "truncate":
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    data = json.loads(text)
    if how == "bad key":
        table = data["effectivity" if kind == "ef" else "transitions"]
        per_state = table[draw(st.sampled_from(sorted(table)))]
        if isinstance(per_state, list):
            if draw(st.booleans()):
                per_state.pop()
            else:
                per_state.append(per_state[0])
            return kind, json.dumps(data)
        key = draw(st.sampled_from(_BAD_KEYS[kind]))
        per_state[key] = draw(st.sampled_from(list(per_state.values())))
        return kind, json.dumps(data)
    slots = [(c, k) for c, k in _slots(data) if how == "retype" or isinstance(c, dict)]
    container, key = draw(st.sampled_from(slots))
    if how == "delete":
        del container[key]
    else:
        others = [v for v in _VALUES if _json_type(v) != _json_type(container[key])]
        container[key] = draw(st.sampled_from(others))
    return kind, json.dumps(data)


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def where(tmp_path_factory):
    where = tmp_path_factory.mktemp("mutations")
    (where / "f.amc").write_text(FORMULA)
    return where


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(mutated_files())
def test_mutated_model_file_ends_in_a_verdict_or_an_error(where, mutated):
    kind, text = mutated
    model = where / "m.json"
    model.write_text(text)
    runs = [["convert", "--in", str(model)]]
    for engine in ENGINES:
        convert = ["--convert"] if kind != "ef" and engine.startswith("ef") else []
        runs.append(["check", "--model", str(model), "--formula", str(where / "f.amc"), "--engine", engine, *convert])
    for argv in runs:
        code, err = _run(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("error: ")


def _flat(change):
    """The flat game frame under tests/data with `change` applied to its
    parsed JSON.  State w1 has move counts 2,2,2 and eight targets; w2 and
    w3 have counts 1,1,1 and one target each."""
    data = json.loads(BASES["cgf-flat"])
    change(data)
    return json.dumps(data)


def _set(section, state, value):
    return lambda data: data[section].__setitem__(state, value)


def _target(index, value):
    return lambda data: data["transitions"]["w1"].__setitem__(index, value)


@pytest.mark.parametrize("change, message", [
    (lambda data: data["transitions"]["w1"].pop(), "transition row at state w1: 7 targets for 8 grand moves"),
    (lambda data: data["transitions"]["w1"].append("w1"), "transition row at state w1: 9 targets for 8 grand moves"),
    (_set("transitions", "w2", "w2"), "malformed model JSON: AttributeError(\"'str' object has no attribute 'items'\")"),
    (_set("transitions", "w2", {}), "outcome undefined for admissible grand move 1,1,1 at state w2"),
    (_target(0, ["w2"]), "transition w1 --1,1,1--> ['w2'] leaves the state set"),
    (_target(1, 2), "transition w1 --1,1,2--> 2 leaves the state set"),
    (_target(3, "w9"), "transition w1 --1,2,2--> w9 leaves the state set"),
    (_set("moves", "w2", [1, 0, 1]), "m(w2,2)=0: every agent needs at least one move at every state"),
    (_set("moves", "w2", [1, 1]), "move counts at w2 list 2 agents, expected 3"),
    (lambda data: data["moves"].pop("w2"), "no move counts for state w2"),
    (_set("moves", "w2", [10**9, 10**9, 1]), "transition row at state w2: 1 targets for 1000000000000000000 grand moves"),
], ids=[
    "short", "long", "row-string", "row-object", "nested-target", "number-target", "unknown-target",
    "zero-count", "counts-length", "counts-missing", "huge-counts",
])
def test_flat_row_defect_texts(where, change, message):
    model = where / "m.json"
    model.write_text(_flat(change))
    code, err = _run(["check", "--model", str(model), "--formula", str(where / "f.amc"), "--engine", "cgf-local"])
    assert (code, err) == (3, f"error: {message}\n")
