"""Command-line front end: check, convert, gen, bench, solve-game."""

from __future__ import annotations

import argparse
import csv
import functools
import random
import statistics
import sys
import time
from pathlib import Path

from . import benchgen
from .convert import convert
from .errors import AmcError, CheckTimeout
from .formula import build_closure, coalitions_in, format_formula, parse_formula
from .localfp import fixpoint_verdicts
from .mcgame import game_verdicts, import_pgsolver, zielonka_solve
from .model import Cgf, Ef, load_model, model_to_json, save_model
from .timing import Deadline

ENGINES = ("cgf-game", "cgf-local", "ef-game", "ef-local")


def _verdicts(model, closure, engine: str, states, deadline=None):
    if engine.endswith("-game"):
        return game_verdicts(model, closure, states, deadline)
    return fixpoint_verdicts(model, closure, states, deadline)


def _timed_convert(model, formulas, minimize_families: bool, deadline=None):
    """The one conversion that check, convert and bench run: the game frame's
    effectivity frame over the coalitions the formulas name (every coalition
    when formulas is None), with the seconds it took."""
    coalitions = None if formulas is None else sorted(set().union(*map(coalitions_in, formulas)))
    start = time.perf_counter()
    ef = convert(model, minimize_families=minimize_families, coalitions=coalitions, deadline=deadline)
    return ef, time.perf_counter() - start


def _emit_stats(stats) -> None:
    for stage, seconds in stats:
        print(f"{stage}_seconds={seconds:.6f}", file=sys.stderr)


def cmd_check(args, parser) -> int:
    if args.minimize and not args.convert:
        parser.error("--minimize only applies together with --convert")
    if args.convert and args.engine.startswith("cgf"):
        parser.error("--convert only applies with the ef-* engines")
    stats = []
    start = time.perf_counter()
    model = load_model(args.model)
    formula = parse_formula(Path(args.formula).read_text())
    closure = build_closure(formula)
    stats.append(("parse", time.perf_counter() - start))
    if args.convert:
        if not isinstance(model, Cgf):
            raise AmcError("--convert needs a game frame, this model already is an effectivity frame")
        model, seconds = _timed_convert(model, [formula], args.minimize)
        stats.append(("convert", seconds))
    if args.engine.startswith("ef") and not isinstance(model, Ef):
        raise AmcError(f"engine {args.engine} needs an effectivity frame; pass --convert to translate the game frame")
    if args.engine.startswith("cgf") and not isinstance(model, Cgf):
        raise AmcError(f"engine {args.engine} needs a game frame")
    if args.state == "initial":
        if model.initial is None:
            raise AmcError("model marks no initial state")
        states = [model.initial]
    else:
        states = None if args.state is None else [args.state]
    start = time.perf_counter()
    verdicts = _verdicts(model, closure, args.engine, states)
    stats.append(("check", time.perf_counter() - start))
    for w, holds in verdicts.items():
        print(f"{w}\t{'true' if holds else 'false'}")
    _emit_stats(stats)
    return 0


def cmd_convert(args, parser) -> int:
    model = load_model(args.input)
    if not isinstance(model, Cgf):
        raise AmcError("input is not a game frame")
    formulas = None
    if args.coalitions is not None:
        mode, path = args.coalitions
        if mode != "from-formula":
            parser.error("--coalitions expects: from-formula <file>")
        formulas = [parse_formula(Path(path).read_text())]
    ef, seconds = _timed_convert(model, formulas, args.minimize)
    text = model_to_json(ef)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    _emit_stats([("convert", seconds)])
    return 0


def cmd_solve_game(args, parser) -> int:
    game, ids = import_pgsolver(Path(args.input).read_text())
    solution = zielonka_solve(game)
    for ident, winner in zip(ids, solution.winners):
        print(f"{ident}: {winner}")
    return 0


def _write_suite(out_dir: Path, stem: str, model, formulas) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{stem}.cgf.json"]
    save_model(model, paths[0])
    for name, formula in formulas:
        path = out_dir / f"{stem}-{name}.amc"
        path.write_text(format_formula(formula) + "\n")
        paths.append(path)
    return paths


def cmd_gen(args, parser) -> int:
    out_dir = Path(args.out_dir)
    written: list[Path] = []
    try:
        if args.family == "modulo":
            model, formulas = benchgen.gen_modulo(args.agents, args.moves, args.base)
            written = _write_suite(out_dir, f"modulo-a{args.agents}-m{args.moves}-b{args.base}", model, formulas)
        elif args.family == "castle":
            model, formulas = benchgen.gen_castle(args.castles, args.hp)
            written = _write_suite(out_dir, f"castle-n{args.castles}-h{args.hp}", model, formulas)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            rng_seeds = _instance_seeds(args.seed, args.count)
            atoms = [f"p{i}" for i in range(1, args.atoms + 1)]
            for model_seed, formula_seed in rng_seeds:
                model = benchgen.gen_random_cgf(args.states, args.agents, args.moves, atoms, model_seed)
                formula = benchgen.gen_random_formula(args.formula_size, args.agents, atoms, formula_seed)
                path = out_dir / f"random-s{args.states}-a{args.agents}-m{args.moves}-seed{model_seed}.cgf.json"
                save_model(model, path)
                written.append(path)
                path = out_dir / f"random-size{args.formula_size}-seed{formula_seed}.amc"
                path.write_text(format_formula(formula) + "\n")
                written.append(path)
    except ValueError as exc:
        parser.error(str(exc))
    for path in written:
        print(path)
    return 0


def _instance_seeds(seed: int, count: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(2**32), rng.randrange(2**32)) for _ in range(count)]


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(part) for part in text.split(",")]


def _keep_formula(name: str, filters) -> bool:
    return filters is None or any(name.startswith(f) for f in filters)


def _bench_cells(args):
    """One cell per (parameter value); each carries its (model, formulas)
    pairs."""
    filters = None if args.formulas in (None, "all") else args.formulas.split(",")
    cells = []
    if args.suite == "modulo":
        for moves in _parse_range(args.moves):
            model, formulas = benchgen.gen_modulo(args.agents, moves, args.base)
            cells.append((moves, [(model, [f for name, f in formulas if _keep_formula(name, filters)])]))
    elif args.suite == "castle":
        for hp in _parse_range(args.hp):
            model, formulas = benchgen.gen_castle(args.castles, hp)
            cells.append((hp, [(model, [f for name, f in formulas if _keep_formula(name, filters)])]))
    else:
        atoms = [f"p{i}" for i in range(1, args.atoms + 1)]
        moves = _parse_range(str(args.moves))[0]  # the random suite varies size, not moves
        for size in _parse_range(args.sizes):
            pairs = []
            for model_seed, formula_seed in _instance_seeds(args.seed + size, args.instances):
                model = benchgen.gen_random_cgf(args.states, args.agents, moves, atoms, model_seed)
                formula = benchgen.gen_random_formula(size, args.agents, atoms, formula_seed)
                pairs.append((model, [formula]))
            cells.append((size, pairs))
    return cells


def _convert_cell(pairs, timeout: float, minimize_flag: bool):
    """Each model of a cell converted once, as check --convert would, and the
    summed seconds; no frames when a conversion runs out of time."""
    frames = []
    total = 0.0
    for model, formulas in pairs:
        try:
            ef, seconds = _timed_convert(model, formulas, minimize_flag, Deadline(timeout))
        except CheckTimeout:
            return None, ""
        frames.append(ef)
        total += seconds
    return frames, f"{total:.6f}"


def _time_checks(engine: str, workloads, reps: int, timeout: float):
    """Mean check seconds over reps and the repetitions lost; a single expiry
    times the whole cell out."""
    times = []
    for _ in range(reps):
        deadline = Deadline(timeout)
        start = time.perf_counter()
        try:
            for model, closures in workloads:
                for closure in closures:
                    _verdicts(model, closure, engine, [model.initial], deadline)
        except CheckTimeout:
            return "", reps
        times.append(time.perf_counter() - start)
    return f"{statistics.mean(times):.6f}", 0


def cmd_bench(args, parser) -> int:
    for engine in args.engines.split(","):
        if engine not in ENGINES:
            parser.error(f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}")
    if args.repetitions < 5:
        parser.error("--repetitions must be at least 5")
    engines = args.engines.split(",")
    try:
        cells = _bench_cells(args)
    except ValueError as exc:
        parser.error(str(exc))
    if not all(pairs and all(formulas for _, formulas in pairs) for _, pairs in cells):
        parser.error("every cell must check at least one formula")
    writer = csv.writer(sys.stdout)
    writer.writerow(["parameter", "engine", "mean", "reps", "timeouts", "conv_mean"])
    for parameter, pairs in cells:
        closures = [[build_closure(f) for f in formulas] for _, formulas in pairs]
        # Both ef-* engines check the one frame per model converted here.
        views = {"cgf": ([model for model, _ in pairs], "")}
        if any(engine.startswith("ef") for engine in engines):
            views["ef"] = _convert_cell(pairs, args.timeout, not args.no_minimize)
        for engine in engines:
            models, conv = views[engine.split("-")[0]]
            if models is None:
                mean, timeouts = "", args.repetitions
            else:
                mean, timeouts = _time_checks(engine, list(zip(models, closures)), args.repetitions, args.timeout)
            writer.writerow([parameter, engine, mean, args.repetitions, timeouts, conv])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it is shared, so
    callers only read it."""
    parser = argparse.ArgumentParser(
        prog="amc",
        description="Model checker for the alternating-time mu-calculus over game and effectivity frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--engine", required=True, choices=ENGINES)
    p.add_argument("--state", help="a state id, or 'initial' for the marked one; default all states")
    p.add_argument("--convert", action="store_true", help="translate a game frame before an ef-* engine")
    p.add_argument("--minimize", action="store_true", help="minimize families during --convert")

    p = sub.add_parser("convert", help="turn a game frame into its effectivity frame")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--coalitions", nargs=2, metavar=("MODE", "FILE"),
                   help="restrict to coalitions used in a formula: from-formula <file>")

    p = sub.add_parser("gen", help="write benchmark models and formulas")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("random")
    q.add_argument("--states", type=int, default=10)
    q.add_argument("--agents", type=int, default=3)
    q.add_argument("--moves", type=int, default=2)
    q.add_argument("--atoms", type=int, default=4)
    q.add_argument("--formula-size", type=int, default=12)
    q.add_argument("--count", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out-dir", default=".")
    q = fam.add_parser("castle")
    q.add_argument("--castles", type=int, required=True)
    q.add_argument("--hp", type=int, required=True)
    q.add_argument("--out-dir", default=".")
    q = fam.add_parser("modulo")
    q.add_argument("--agents", type=int, required=True)
    q.add_argument("--moves", type=int, required=True)
    q.add_argument("--base", type=int, default=10)
    q.add_argument("--out-dir", default=".")

    p = sub.add_parser("bench", help="time engines over a generated suite, CSV on stdout")
    p.add_argument("--suite", required=True, choices=("random", "castle", "modulo"))
    p.add_argument("--engines", required=True, help="comma-separated engine names")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--timeout", type=float, default=200.0)
    p.add_argument("--no-minimize", action="store_true", help="skip family minimization when converting")
    p.add_argument("--formulas", help="comma-separated name prefixes to keep, default all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--moves", default="2..10", help="range for the modulo suite, e.g. 2..10 or 2,4,8")
    p.add_argument("--castles", type=int, default=2)
    p.add_argument("--hp", default="1..2", help="range for the castle suite")
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--atoms", type=int, default=4)
    p.add_argument("--sizes", default="4..12", help="formula sizes for the random suite")
    p.add_argument("--instances", type=int, default=5)

    p = sub.add_parser("solve-game", help="solve a parity game in PGSolver text form")
    p.add_argument("--in", dest="input", required=True)
    return parser


COMMANDS = {
    "check": cmd_check, "convert": cmd_convert, "gen": cmd_gen, "bench": cmd_bench, "solve-game": cmd_solve_game,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, parser)
    except (AmcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
