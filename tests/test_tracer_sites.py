"""perfbench's tracer wraps lookup sites in amcheck from outside the package;
every site must still fire, or its per-layer metric reads zero unnoticed."""

from amcheck.cli import main
from amcheck.benchgen import gen_castle
from amcheck.formula import format_formula
from amcheck.model import save_model
from helpers import load_perfbench


def test_every_wrapped_site_fires(tmp_path, capsys):
    tracer_module = load_perfbench("tracer")
    model, formulas = gen_castle(2, 1)
    model_path = tmp_path / "castle.cgf.json"
    save_model(model, model_path)
    formula_path = tmp_path / "survive.amc"
    formula_path.write_text(format_formula(dict(formulas)["survive-a1"]) + "\n")
    game_path = tmp_path / "game.pg"
    game_path.write_text("parity 1;\n0 2 0 1;\n1 1 1 0;\n")

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = []
        for engine in ("cgf-game", "cgf-local", "ef-game", "ef-local"):
            argv = ["check", "--model", str(model_path), "--formula", str(formula_path), "--engine", engine]
            if engine.startswith("ef"):
                argv += ["--convert", "--minimize"]
            codes.append(tracer.query(engine, engine, lambda: main(argv)))
        codes.append(tracer.query("solve", "solve-game", lambda: main(["solve-game", "--in", str(game_path)])))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * 5

    fired = {(name, engine) for name, _, _, _, _, engine in tracer.spans}
    names = {name for name, _ in fired}
    assert {name for _, _, name in tracer_module.WRAPPED} <= names
    assert {("mcgame.build", "cgf-game"), ("mcgame.build", "ef-game")} <= fired
