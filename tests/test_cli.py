"""End-to-end command line behavior: exit codes, output shapes, file effects."""

import argparse
import csv
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import amcheck
from amcheck.cli import build_parser, main
from amcheck.model import load_model, loads_model, save_model
from amcheck.benchgen import gen_castle, gen_modulo
from amcheck.formula import MAX_DEPTH, coalitions_in, parse_formula
from helpers import one_state_frame


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_formula(tmp_path, text, name="f.amc"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


class TestCheck:
    def test_all_states_all_engines(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "mu X. p | [{1,3}] X")
        expected = "w1\ttrue\nw2\ttrue\nw3\tfalse\n"
        for engine in ("cgf-game", "cgf-local"):
            code, out, _ = run(
                capsys, "check", "--model", str(smallgame_path), "--formula", formula,
                "--engine", engine,
            )
            assert code == 0
            assert out == expected
        for engine in ("ef-game", "ef-local"):
            code, out, _ = run(
                capsys, "check", "--model", str(smallgame_path), "--formula", formula,
                "--engine", engine, "--convert",
            )
            assert code == 0
            assert out == expected

    @pytest.mark.parametrize("engine", ["cgf-game", "cgf-local", "ef-game", "ef-local"])
    def test_unknown_agent(self, capsys, tmp_path, smallgame_path, engine):
        formula = write_formula(tmp_path, "<{4}> p")
        convert = ["--convert"] if engine.startswith("ef") else []
        code, out, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", engine, *convert,
        )
        assert code == 3
        assert out == ""
        assert "error: unknown agent 4" in err.splitlines()
        assert "Traceback" not in err

    def test_single_state(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        code, out, _ = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "cgf-local", "--state", "w2",
        )
        assert code == 0
        assert out == "w2\ttrue\n"

    def test_initial_state(self, capsys, tmp_path):
        model, _ = gen_modulo(2, 2, 4)
        model_path = tmp_path / "m.cgf.json"
        save_model(model, model_path)
        formula = write_formula(tmp_path, "p0")
        code, out, _ = run(
            capsys, "check", "--model", str(model_path), "--formula", formula,
            "--engine", "cgf-game", "--state", "initial",
        )
        assert code == 0
        assert out == "0\ttrue\n"

    def test_initial_without_mark(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        code, _, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "cgf-local", "--state", "initial",
        )
        assert code == 3
        assert "error: model marks no initial state" in err

    def test_unknown_state(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        code, _, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "cgf-local", "--state", "w9",
        )
        assert code == 3
        assert "error: unknown state w9" in err

    @pytest.mark.parametrize("engine", ["ef-game", "ef-local"])
    def test_state_with_no_effectivity_entry(self, capsys, tmp_path, engine):
        model_path = tmp_path / "sparse.ef.json"
        model_path.write_text(
            '{"kind":"ef","agents":1,"states":["a","b"],"valuation":{"p":["a"]},'
            '"effectivity":{"a":{"{1}":[["a"]]}}}'
        )
        formula = write_formula(tmp_path, "<{1}> p")
        code, out, err = run(
            capsys, "check", "--model", str(model_path), "--formula", formula, "--engine", engine,
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: no effectivity entry for coalition {1} at state b"]

    def test_ef_engine_needs_conversion(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        code, _, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "ef-local",
        )
        assert code == 3
        assert "pass --convert" in err

    def test_cgf_engine_rejects_ef_model(self, capsys, tmp_path, smallgame_min_ef_path):
        formula = write_formula(tmp_path, "p")
        code, _, err = run(
            capsys, "check", "--model", str(smallgame_min_ef_path), "--formula", formula,
            "--engine", "cgf-game",
        )
        assert code == 3
        assert "needs a game frame" in err

    def test_convert_on_ef_model(self, capsys, tmp_path, smallgame_min_ef_path):
        formula = write_formula(tmp_path, "p")
        code, _, err = run(
            capsys, "check", "--model", str(smallgame_min_ef_path), "--formula", formula,
            "--engine", "ef-local", "--convert",
        )
        assert code == 3
        assert "already is an effectivity frame" in err

    def test_minimize_requires_convert(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        with pytest.raises(SystemExit) as exc:
            main([
                "check", "--model", str(smallgame_path), "--formula", formula,
                "--engine", "ef-local", "--minimize",
            ])
        assert exc.value.code == 2

    def test_convert_requires_ef_engine(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        with pytest.raises(SystemExit) as exc:
            main([
                "check", "--model", str(smallgame_path), "--formula", formula,
                "--engine", "cgf-local", "--convert",
            ])
        assert exc.value.code == 2

    def test_stats_on_stderr(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        _, out, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "ef-game", "--convert", "--minimize",
        )
        assert "parse_seconds=" in err
        assert "convert_seconds=" in err
        assert "check_seconds=" in err
        assert "seconds" not in out

    def test_missing_model_file(self, capsys, tmp_path):
        formula = write_formula(tmp_path, "p")
        code, _, err = run(
            capsys, "check", "--model", str(tmp_path / "absent.json"),
            "--formula", formula, "--engine", "cgf-local",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_bad_formula_reports_position(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p &")
        code, _, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "cgf-local",
        )
        assert code == 3
        assert "error: 2:1: unexpected end of input" in err

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_nesting_depth_limit(self, capsys, tmp_path, smallgame_path, depth):
        formula = write_formula(tmp_path, "<{1}> " * (depth - 1) + "p")
        code, out, err = run(
            capsys, "check", "--model", str(smallgame_path), "--formula", formula,
            "--engine", "cgf-local",
        )
        if depth <= MAX_DEPTH:
            assert code == 0
            assert out == "w1\ttrue\nw2\ttrue\nw3\tfalse\n"
        else:
            assert code == 3
            assert out == ""
            assert f"formula nests deeper than {MAX_DEPTH} levels" in err
            assert "Traceback" not in err

    def test_deeply_nested_json_exits_3(self, capsys, tmp_path):
        model = tmp_path / "deep.json"
        model.write_text("[" * 2000)
        formula = write_formula(tmp_path, "p")
        code, out, err = run(
            capsys, "check", "--model", str(model), "--formula", formula, "--engine", "cgf-local",
        )
        assert code == 3
        assert out == ""
        assert "error: JSON nests too deeply" in err
        assert "Traceback" not in err


def many_agents_frame(tmp_path, agents):
    """A one-state game frame with one move per agent and p true."""
    path = tmp_path / f"agents{agents}.json"
    path.write_text(json.dumps({
        "kind": "cgf", "agents": agents, "states": ["s"], "moves": {"s": [1] * agents},
        "transitions": {"s": {",".join(["1"] * agents): "s"}}, "valuation": {"p": ["s"]},
    }))
    return str(path)


class TestConvert:
    def test_stdout_matches_golden(self, capsys, smallgame_path, smallgame_min_ef_path):
        code, out, _ = run(capsys, "convert", "--in", str(smallgame_path), "--minimize")
        assert code == 0
        assert out == smallgame_min_ef_path.read_text()

    def test_out_file(self, capsys, tmp_path, smallgame_path, smallgame_min_ef_path):
        target = tmp_path / "out.ef.json"
        code, out, err = run(
            capsys, "convert", "--in", str(smallgame_path), "--minimize",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == smallgame_min_ef_path.read_text()
        assert "convert_seconds=" in err

    def test_unminimized_differs(self, capsys, smallgame_path, smallgame_min_ef_path):
        code, out, _ = run(capsys, "convert", "--in", str(smallgame_path))
        assert code == 0
        assert out != smallgame_min_ef_path.read_text()
        obj = json.loads(out)
        assert obj["effectivity"]["w1"]["{1,2}"] == [["w2"], ["w2", "w3"]]

    def test_coalition_restriction(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "mu X. p | [{1,3}] X")
        code, out, _ = run(
            capsys, "convert", "--in", str(smallgame_path),
            "--coalitions", "from-formula", formula,
        )
        assert code == 0
        obj = json.loads(out)
        assert list(obj["effectivity"]["w1"]) == ["{1,3}"]

    def test_bad_coalition_mode(self, capsys, tmp_path, smallgame_path):
        formula = write_formula(tmp_path, "p")
        with pytest.raises(SystemExit) as exc:
            main([
                "convert", "--in", str(smallgame_path),
                "--coalitions", "bogus", formula,
            ])
        assert exc.value.code == 2

    def test_full_table_beyond_bound_refused_before_listing(self, capsys, tmp_path, monkeypatch):
        # 24 agents give 2^24 coalitions at one state, over MAX_TABLE_ENTRIES
        def no_listing(agents):
            raise AssertionError("coalitions listed")

        converter = importlib.import_module("amcheck.convert")  # amcheck.convert is the function
        monkeypatch.setattr(converter, "_all_coalitions", no_listing)
        code, out, err = run(capsys, "convert", "--in", many_agents_frame(tmp_path, 24))
        assert code == 3
        assert out == ""
        assert f"more than {converter.MAX_TABLE_ENTRIES} entries" in err

    def test_check_convert_lists_only_named_coalitions(self, capsys, tmp_path):
        formula = write_formula(tmp_path, "[{1}] p")
        code, out, _ = run(
            capsys, "check", "--model", many_agents_frame(tmp_path, 24), "--formula", formula,
            "--engine", "ef-local", "--convert",
        )
        assert code == 0
        assert out == "s\ttrue\n"

    def test_rejects_ef_input(self, capsys, smallgame_min_ef_path):
        code, _, err = run(capsys, "convert", "--in", str(smallgame_min_ef_path))
        assert code == 3
        assert "not a game frame" in err


class TestGen:
    def test_modulo_suite(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "modulo", "--agents", "2", "--moves", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        paths = out.splitlines()
        assert len(paths) == 5
        assert paths[0].endswith("modulo-a2-m3-b10.cgf.json")
        model = load_model(paths[0])
        assert model.states == tuple(str(i) for i in range(10))
        for p in paths[1:]:
            parse_formula(open(p).read())
        names = [p.rsplit("modulo-a2-m3-b10-", 1)[1] for p in paths[1:]]
        assert names == ["reach-c1.amc", "buchi-c1.amc", "reach-c2.amc", "buchi-c2.amc"]

    def test_castle_suite(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "castle", "--castles", "2", "--hp", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        paths = out.splitlines()
        assert len(paths) == 5
        model = load_model(paths[0])
        assert len(model.states) == 16
        assert model.initial == "r1-r1"

    def test_random_suite(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "random", "--count", "2", "--states", "5",
            "--formula-size", "6", "--out-dir", str(tmp_path),
        )
        assert code == 0
        paths = out.splitlines()
        assert len(paths) == 4
        assert sum(p.endswith(".cgf.json") for p in paths) == 2
        assert sum(p.endswith(".amc") for p in paths) == 2

    def test_seed_flag(self, capsys, tmp_path):
        def contents(directory):
            return sorted(p.name for p in directory.iterdir())

        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(capsys, "gen", "random", "--seed", "7", "--out-dir", str(a))
        run(capsys, "gen", "random", "--seed", "7", "--out-dir", str(b))
        run(capsys, "gen", "random", "--seed", "8", "--out-dir", str(c))
        assert contents(a) == contents(b)
        assert contents(a) != contents(c)


# Generator arguments out of range: each once hung, raised a traceback or wrote
# a model that the loader rejects.
BAD_GENERATOR_ARGS = [
    ["gen", "random", "--formula-size", "-1"],
    ["gen", "random", "--states", "0"],
    ["gen", "random", "--agents", "0"],
    ["gen", "random", "--moves", "0"],
    ["gen", "castle", "--castles", "1", "--hp", "1"],
    ["gen", "modulo", "--agents", "0", "--moves", "2"],
    ["bench", "--suite", "random", "--engines", "cgf-game", "--sizes=-1"],
    ["bench", "--suite", "random", "--engines", "cgf-game", "--states", "0"],
]


class TestGeneratorArguments:
    @pytest.mark.parametrize("argv", BAD_GENERATOR_ARGS, ids=" ".join)
    def test_out_of_range_exits_2(self, tmp_path, argv):
        # a child process with a time limit, so that a hang fails the test
        # instead of stalling the suite
        src = str(Path(amcheck.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-m", "amcheck.cli", *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 2
        assert "error:" in run.stderr
        assert "Traceback" not in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_no_states_message(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random", "--states", "0", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "error: need at least one state, one agent and one move" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSolveGame:
    def test_trivial_game(self, capsys, tmp_path):
        path = tmp_path / "g.pg"
        path.write_text('parity 0;\n0 0 0 0 "loop";\n')
        code, out, _ = run(capsys, "solve-game", "--in", str(path))
        assert code == 0
        assert out == "0: Exists\n"

    def test_sparse_ids_reported_verbatim(self, capsys, tmp_path):
        path = tmp_path / "g.pg"
        path.write_text('3 1 0 7 "a";\n7 0 1 3 "b";\n')
        code, out, _ = run(capsys, "solve-game", "--in", str(path))
        assert code == 0
        assert out.splitlines() == ["3: Forall", "7: Forall"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve-game", "--in", str(tmp_path / "nope.pg"))
        assert code == 3
        assert err.startswith("error:")

    def test_parser_built_once_per_process(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.pg"
        path.write_text('parity 0;\n0 0 0 0 "loop";\n')
        run(capsys, "solve-game", "--in", str(path))
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert run(capsys, "solve-game", "--in", str(path)) == (0, "0: Exists\n", "")
        assert built == []


HUGE = "9" * 5000  # more digits than int() reads from text
# (model text, formula text, game text, what the error line says) per input
# holding a number no reader may crash on
OVERSIZED_INPUTS = {
    "formula-agent": (one_state_frame(), f"[{{{HUGE}}}] p", None, "1:3: agent id has too many digits"),
    "agents-digits": (one_state_frame(agents=HUGE), "p", None, "not valid JSON"),
    "agents-1e400": (one_state_frame(agents="1e400"), "p", None, "OverflowError"),
    "moves-1e400": (one_state_frame(count="1e400"), "p", None, "OverflowError"),
    "game-successor": (None, None, f"0 0 0 {HUGE};", "unparsable game row"),
    "game-id": (None, None, f"{HUGE} 0 0 0;", "unparsable game row"),
    "game-priority": (None, None, f"0 {HUGE} 0 0;", "unparsable game row"),
}


def test_one_state_frame_is_valid(capsys, tmp_path):
    (tmp_path / "m.json").write_text(one_state_frame())
    formula = write_formula(tmp_path, "p")
    argv = ["check", "--model", str(tmp_path / "m.json"), "--formula", formula, "--engine", "cgf-local"]
    assert run(capsys, *argv)[:2] == (0, "s\ttrue\n")


@pytest.mark.parametrize("model, formula, game, says", OVERSIZED_INPUTS.values(), ids=list(OVERSIZED_INPUTS))
def test_oversized_number_exits_3(capsys, tmp_path, model, formula, game, says):
    if game is None:
        (tmp_path / "m.json").write_text(model)
        argv = ["check", "--model", str(tmp_path / "m.json"), "--formula", write_formula(tmp_path, formula),
                "--engine", "cgf-local"]
    else:
        (tmp_path / "g.pg").write_text(game + "\n")
        argv = ["solve-game", "--in", str(tmp_path / "g.pg")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err
    assert "set_int_max_str_digits" not in err  # no advice to change interpreter state


# the agent count or the first agent's move count, as written in the JSON
# text, and the error line a count that is not a whole number gives
NOT_WHOLE_COUNTS = {
    "agents-fraction": (dict(agents="2.5"), '"agents" must be a whole number, not 2.5'),
    "agents-boolean": (dict(agents="true"), '"agents" must be a whole number, not a boolean'),
    "agents-string": (dict(agents='"2"'), '"agents" must be a whole number, not a string'),
    "moves-fraction": (dict(count="1.5"), '"moves" at state s for agent 1 must be a whole number, not 1.5'),
    "moves-boolean": (dict(count="true"), '"moves" at state s for agent 1 must be a whole number, not a boolean'),
    "moves-string": (dict(count='"1"'), '"moves" at state s for agent 1 must be a whole number, not a string'),
}


@pytest.mark.parametrize("fields, says", NOT_WHOLE_COUNTS.values(), ids=list(NOT_WHOLE_COUNTS))
def test_count_that_is_not_a_whole_number_exits_3(capsys, tmp_path, fields, says):
    (tmp_path / "m.json").write_text(one_state_frame(**fields))
    argv = ["check", "--model", str(tmp_path / "m.json"), "--formula", write_formula(tmp_path, "p"),
            "--engine", "cgf-local"]
    assert run(capsys, *argv) == (3, "", f"error: {says}\n")


def test_whole_counts_written_as_floats_are_read(capsys, tmp_path):
    (tmp_path / "m.json").write_text(one_state_frame(agents="2.0", count="1.0"))
    argv = ["check", "--model", str(tmp_path / "m.json"), "--formula", write_formula(tmp_path, "p"),
            "--engine", "cgf-local"]
    assert run(capsys, *argv)[:2] == (0, "s\ttrue\n")


def parse_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["parameter", "engine", "mean", "reps", "timeouts", "conv_mean"]
    return rows[1:]


# argv of each command that reads an input file, with BAD for the file that
# is not UTF-8 and FORMULA for a valid formula file
NON_UTF8_INPUTS = {
    "check-model": ["check", "--model", "BAD", "--formula", "FORMULA", "--engine", "cgf-local"],
    "check-formula": ["check", "--model", "MODEL", "--formula", "BAD", "--engine", "cgf-local"],
    "convert": ["convert", "--in", "BAD"],
    "solve-game": ["solve-game", "--in", "BAD"],
}


@pytest.mark.parametrize("argv", list(NON_UTF8_INPUTS.values()), ids=list(NON_UTF8_INPUTS))
def test_non_utf8_input_names_the_file(capsys, tmp_path, smallgame_path, argv):
    bad = tmp_path / "bad.input"
    bad.write_bytes(b"\xff\xfe" + "p".encode("utf-16-le"))
    paths = {"BAD": str(bad), "FORMULA": write_formula(tmp_path, "p"), "MODEL": str(smallgame_path)}
    code, out, err = run(capsys, *[paths.get(arg, arg) for arg in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and str(bad) in err.splitlines()[0]
    assert "Traceback" not in err


class TestBench:
    def test_modulo_grid(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--suite", "modulo", "--engines", "cgf-local,ef-local",
            "--moves", "2..4", "--formulas", "reach",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [(r[0], r[1]) for r in rows] == [
            ("2", "cgf-local"), ("2", "ef-local"),
            ("3", "cgf-local"), ("3", "ef-local"),
            ("4", "cgf-local"), ("4", "ef-local"),
        ]
        for row in rows:
            assert float(row[2]) > 0.0
            assert row[3] == "5"
            assert row[4] == "0"
        assert all(row[5] == "" for row in rows if row[1].startswith("cgf"))
        assert all(float(row[5]) >= 0.0 for row in rows if row[1].startswith("ef"))

    def test_castle_grid(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--suite", "castle", "--engines", "cgf-local",
            "--hp", "1", "--formulas", "survive",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0][0] == "1"

    def test_random_suite_parameter_is_size(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--suite", "random", "--engines", "cgf-local",
            "--sizes", "3,5", "--states", "5", "--instances", "2",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r[0] for r in rows] == ["3", "5"]

    def test_converts_each_model_once_over_its_formulas(self, capsys, monkeypatch):
        calls = []

        def recording_convert(model, **kwargs):
            calls.append((model, kwargs["coalitions"]))
            return real_convert(model, **kwargs)

        real_convert = amcheck.cli.convert
        monkeypatch.setattr(amcheck.cli, "convert", recording_convert)
        code, out, _ = run(
            capsys, "bench", "--suite", "modulo", "--engines", "ef-game,cgf-local,ef-local",
            "--moves", "2..3", "--agents", "3",
        )
        assert code == 0
        assert len(calls) == 2
        for (model, coalitions), moves in zip(calls, (2, 3)):
            expected, formulas = gen_modulo(3, moves, 10)
            assert model.move_counts == expected.move_counts
            assert coalitions == sorted(set().union(*(coalitions_in(f) for _, f in formulas)))
        conv = {(r[0], r[1]): r[5] for r in parse_csv(out)}
        for moves in ("2", "3"):
            assert conv[moves, "ef-game"] == conv[moves, "ef-local"] != ""
            assert conv[moves, "cgf-local"] == ""

    def test_timeout_cell(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--suite", "modulo", "--engines", "cgf-local,ef-local",
            "--moves", "2", "--formulas", "reach", "--timeout", "0.0",
        )
        assert code == 0
        for row in parse_csv(out):
            assert row[2] == ""
            assert row[4] == "5"

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "modulo", "--engines", "warp-drive", "--moves", "2"])
        assert exc.value.code == 2

    def test_rejects_too_few_repetitions(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "bench", "--suite", "modulo", "--engines", "cgf-local",
                "--moves", "2", "--repetitions", "3",
            ])
        assert exc.value.code == 2

    def test_rejects_malformed_range(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "modulo", "--engines", "cgf-local", "--moves", "a..b"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--suite", "random", "--instances", "0", "--sizes", "4"],
        ["--suite", "random", "--instances", "-1", "--sizes", "4"],
        ["--suite", "random", "--moves", "5..2", "--sizes", "4"],
        ["--suite", "modulo", "--moves", "10..2"],
        ["--suite", "castle", "--hp", "1", "--formulas", "no-such-formula"],
    ], ids=["no-instances", "negative-instances", "random-empty-moves", "empty-moves", "no-formula"])
    def test_rejects_cells_that_check_nothing(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--engines", "cgf-game", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err


README = Path(__file__).resolve().parent.parent / "README.md"


def _options(parser) -> set[str]:
    """Every option string of the parser and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _options(sub)
    return options


class TestReadme:
    """The usage the README documents stays what the parser accepts."""

    def test_commands_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
        commands = [line for block in blocks for line in block.splitlines() if line.startswith("amc ")]
        assert commands
        for line in commands:
            try:
                build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_flags_exist(self):
        flags = set(re.findall(r"`(--[a-z][a-z-]*)", README.read_text()))
        assert flags
        assert flags - _options(build_parser()) == set()

    def test_model_examples_load(self):
        # the flat-row game frame, its keyed form given in the text, and the
        # effectivity frame
        text = README.read_text()
        blocks = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
        assert [json.loads(block)["kind"] for block in blocks] == ["cgf", "ef"]
        keyed_row = '"a": {"1,1": "a", "1,2": "b", "2,1": "b", "2,2": "a"}'
        assert keyed_row in text
        keyed = json.loads(blocks[0])
        keyed["transitions"].update(json.loads("{" + keyed_row + "}"))
        assert loads_model(json.dumps(keyed)) == loads_model(blocks[0])
        loads_model(blocks[1])

    def test_python_blocks_run(self, tmp_path, monkeypatch):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        assert blocks
        save_model(gen_castle(2, 1)[0], tmp_path / "castle.cgf.json")
        monkeypatch.chdir(tmp_path)
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
