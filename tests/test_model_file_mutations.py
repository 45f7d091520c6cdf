"""Property test: a mutated model file ends in a verdict or an `error:`
message with exit code 0, 2 or 3, never a traceback.  The mutations start
from the valid game frame and effectivity frame under tests/data: a value
replaced by one of another JSON type, a key deleted, a malformed grand move
or coalition key added, or the text cut short.  Each file goes through
`amc check` with every engine (the ef-* engines with `--convert` on the game
frame) and through `amc convert`.  Needs Hypothesis (the `test` extra); the
module is skipped where it is not installed."""

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
        table = data["transitions" if kind == "cgf" else "effectivity"]
        per_state = table[draw(st.sampled_from(sorted(table)))]
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
        convert = ["--convert"] if kind == "cgf" and engine.startswith("ef") else []
        runs.append(["check", "--model", str(model), "--formula", str(where / "f.amc"), "--engine", engine, *convert])
    for argv in runs:
        code, err = _run(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("error: ")
