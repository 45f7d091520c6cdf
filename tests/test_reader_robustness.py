"""Property test: a number of any size or form, written into any numeric
field a reader takes (a model's agent count or a move count, a formula's
agent id, a PGSolver game's id, priority or successor), ends in a verdict or
an `error:` message with exit code 0, 2 or 3, never a traceback.  Needs
Hypothesis (the `test` extra); the module is skipped where it is not
installed."""

import contextlib
import io

import pytest

from amcheck.cli import main
from helpers import one_state_frame

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    # a leading digit and up to 5,000 zeros: past the 4,300 digits int() reads
    st.tuples(st.integers(1, 9), st.integers(0, 5000)).map(lambda t: f"{t[0]}{'0' * t[1]}"),
    st.sampled_from(["1e400", "-1e400", "1e308", "-0", "00", "NaN", "Infinity"]),
    st.floats().map(repr),
)

_FIELDS = ("agents", "move count", "formula agent", "game id", "game priority", "game successor")


def _argv(where, field: str, number: str) -> list[str]:
    """Write the input files for one case and return its command line."""
    if field.startswith("game"):
        game = {
            "game id": f"0 0 0 0;\n{number} 0 0 0;\n",
            "game priority": f"0 {number} 0 0;\n",
            "game successor": f"0 0 0 {number};\n",
        }[field]
        (where / "g.pg").write_text(game)
        return ["solve-game", "--in", str(where / "g.pg")]
    if field == "agents":
        model = one_state_frame(agents=number)
    else:
        model = one_state_frame(count=number if field == "move count" else "1")
    (where / "m.json").write_text(model)
    (where / "f.amc").write_text(f"[{{{number}}}] p\n" if field == "formula agent" else "p\n")
    return ["check", "--model", str(where / "m.json"), "--formula", str(where / "f.amc"), "--engine", "cgf-local"]


@pytest.fixture(scope="module")
def where(tmp_path_factory):
    return tmp_path_factory.mktemp("numbers")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_FIELDS), _NUMBERS)
def test_any_number_ends_in_a_verdict_or_an_error(where, field, number):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(_argv(where, field, number))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error: ")
